"""The on-disk Ĝ artifact: one self-verifying npz file per store entry.

An entry is a *single* file so the store's crash-safety story stays the
atomic writer's story: a publisher killed at any instant leaves either
the complete previous entry, the complete new entry, or a reapable
``*.tmp`` orphan — never a manifest without its payload or vice versa.
The file carries:

- the measurement arrays (``matrix``, ``single_losses``, scalars),
- ``__manifest__`` — a JSON document with the schema version, the
  three-way fingerprint (:class:`~repro.store.keys.StoreKey`), model
  name, mode, and the full serialized health report (PR 5's
  ``GMatrixHealth``), so a cached matrix re-enters the repair ladder
  exactly as a freshly measured one would,
- ``__checksum__`` — a SHA-256 over every other array's key, dtype,
  shape, and bytes (:func:`repro.atomicio.payload_checksum`).

Verification on read is layered to *attribute* the failure:

1. parse + checksum → :class:`~repro.quant.export.CorruptArtifactError`
   (damaged bytes: truncation, bit rot, torn copy);
2. schema + fingerprint match against the requested key →
   :class:`StaleArtifactError` (an internally-consistent artifact from a
   different weights/data/config world — the lie a checksum cannot
   catch).
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..atomicio import CHECKSUM_KEY, payload_checksum
from ..quant.export import CorruptArtifactError
from ..robustness.health import GMatrixHealth
from .keys import StoreKey

__all__ = [
    "ARTIFACT_SCHEMA",
    "GhatArtifact",
    "StaleArtifactError",
    "health_from_doc",
    "health_to_doc",
]

#: Bump when the entry layout changes; older entries read as stale.
ARTIFACT_SCHEMA = 1

#: npz key carrying the embedded JSON manifest.
_MANIFEST_KEY = "__manifest__"


class StaleArtifactError(RuntimeError):
    """A verified artifact does not match the requested key or schema.

    The payload checksum passed — the bytes are exactly what some writer
    published — but the embedded fingerprints (or schema version) name a
    different world than the request.  Serving it would produce a
    plausible, internally-consistent, and *wrong* allocation, so the
    store quarantines instead.  ``mismatches`` lists the offending
    fingerprint components.
    """

    def __init__(self, message: str, mismatches: Tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.mismatches = tuple(mismatches)


def health_to_doc(health: Optional[GMatrixHealth]) -> Optional[dict]:
    """Full JSON round-trip form of a health report (``None`` passes through)."""
    if health is None:
        return None

    def entries(items) -> list:
        return [[int(r), int(c)] for r, c in sorted(items)]

    return {
        "num_vars": int(health.num_vars),
        "num_measured": int(health.num_measured),
        "nonfinite": entries(health.nonfinite),
        "asymmetric": entries(health.asymmetric),
        "outliers": entries(health.outliers),
        "dominance": entries(health.dominance),
        "cancellation": entries(health.cancellation),
        "scale": [float(v) for v in health.scale],
        "psd_neg_mass": float(health.psd_neg_mass),
        "psd_total_mass": float(health.psd_total_mass),
        "condition_number": float(health.condition_number),
        "measured": entries(health.measured),
        "confirmed": entries(health.confirmed),
        "persistent": [
            [int(r), int(c), float(v)]
            for (r, c), v in sorted(health.persistent.items())
        ],
        "quarantined": int(health.quarantined),
        "remeasured": int(health.remeasured),
    }


def health_from_doc(doc: Optional[dict]) -> Optional[GMatrixHealth]:
    """Rebuild the :class:`GMatrixHealth` a cached artifact was stored with."""
    if doc is None:
        return None

    def entries(name: str) -> Tuple[Tuple[int, int], ...]:
        return tuple((int(r), int(c)) for r, c in doc.get(name, ()))

    return GMatrixHealth(
        num_vars=int(doc["num_vars"]),
        num_measured=int(doc["num_measured"]),
        nonfinite=entries("nonfinite"),
        asymmetric=entries("asymmetric"),
        outliers=entries("outliers"),
        dominance=entries("dominance"),
        cancellation=entries("cancellation"),
        scale=tuple(float(v) for v in doc["scale"]),
        psd_neg_mass=float(doc["psd_neg_mass"]),
        psd_total_mass=float(doc["psd_total_mass"]),
        condition_number=float(doc["condition_number"]),
        measured=entries("measured"),
        confirmed=frozenset(entries("confirmed")),
        persistent={
            (int(r), int(c)): float(v) for r, c, v in doc.get("persistent", ())
        },
        quarantined=int(doc.get("quarantined", 0)),
        remeasured=int(doc.get("remeasured", 0)),
    )


@dataclass
class GhatArtifact:
    """One publishable/servable Ĝ measurement plus its provenance."""

    matrix: np.ndarray
    base_loss: float
    single_losses: np.ndarray
    num_evals: int
    wall_time: float
    mode: str
    bits: Tuple[int, ...]
    fingerprints: StoreKey
    model_name: str = ""
    health: Optional[dict] = None  # health_to_doc form
    created_at: float = 0.0
    schema: int = ARTIFACT_SCHEMA
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_result(
        cls,
        result,
        fingerprints: StoreKey,
        model_name: str = "",
        created_at: float = 0.0,
        meta: Optional[dict] = None,
    ) -> "GhatArtifact":
        """Wrap a :class:`~repro.core.sensitivity.SensitivityResult`."""
        return cls(
            matrix=np.asarray(result.matrix, dtype=np.float64),
            base_loss=float(result.base_loss),
            single_losses=np.asarray(result.single_losses, dtype=np.float64),
            num_evals=int(result.num_evals),
            wall_time=float(result.wall_time),
            mode=str(result.mode),
            bits=tuple(int(b) for b in result.bits),
            fingerprints=fingerprints,
            model_name=str(model_name),
            health=health_to_doc(result.health),
            created_at=float(created_at),
            meta=dict(meta or {}),
        )

    def to_result(self):
        """Rebuild the measurement exactly as the sweep produced it."""
        from ..core.sensitivity import SensitivityResult

        return SensitivityResult(
            matrix=np.array(self.matrix, dtype=np.float64, copy=True),
            base_loss=float(self.base_loss),
            single_losses=np.array(
                self.single_losses, dtype=np.float64, copy=True
            ),
            num_evals=int(self.num_evals),
            wall_time=float(self.wall_time),
            mode=self.mode,
            bits=tuple(self.bits),
            extras={"strategy": "store", "store_key": self.fingerprints.key},
            health=health_from_doc(self.health),
        )

    def manifest(self) -> dict:
        """The embedded JSON manifest (also what ``store list`` shows)."""
        return {
            "schema": int(self.schema),
            "key": self.fingerprints.key,
            "fingerprints": self.fingerprints.to_dict(),
            "model": self.model_name,
            "mode": self.mode,
            "bits": [int(b) for b in self.bits],
            "num_evals": int(self.num_evals),
            "base_loss": float(self.base_loss),
            "wall_time": float(self.wall_time),
            "created_at": float(self.created_at),
            "health": self.health,
            "meta": dict(self.meta),
        }

    def serialize(self) -> bytes:
        """The complete entry file: arrays + manifest + embedded checksum."""
        payload: Dict[str, np.ndarray] = {
            "matrix": np.asarray(self.matrix, dtype=np.float64),
            "single_losses": np.asarray(self.single_losses, dtype=np.float64),
            "base_loss": np.float64(self.base_loss),
            "num_evals": np.int64(self.num_evals),
            "wall_time": np.float64(self.wall_time),
            "bits": np.asarray(self.bits, dtype=np.int64),
            _MANIFEST_KEY: np.array(
                json.dumps(self.manifest(), sort_keys=True)
            ),
        }
        payload[CHECKSUM_KEY] = np.array(payload_checksum(payload))
        buf = io.BytesIO()
        np.savez(buf, **payload)  # lint-allow-raw-write: in-memory buffer only
        return buf.getvalue()


def deserialize(path, expect: Optional[StoreKey] = None) -> GhatArtifact:
    """Load + verify one entry file, attributing any failure.

    Raises :class:`CorruptArtifactError` for damaged bytes (parse
    failure, missing/mismatched checksum, malformed manifest) and
    :class:`StaleArtifactError` when a *verified* entry belongs to a
    different schema or fingerprint world than ``expect``.
    """
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as blob:
            arrays = {key: blob[key] for key in blob.files}
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise CorruptArtifactError(
            f"store entry {path!r} failed to parse: {exc}"
        ) from exc
    if CHECKSUM_KEY not in arrays:
        raise CorruptArtifactError(
            f"store entry {path!r} carries no {CHECKSUM_KEY}; refusing to "
            "serve unverifiable sensitivities"
        )
    stored = str(arrays.pop(CHECKSUM_KEY)[()])
    actual = payload_checksum(arrays)
    if stored != actual:
        raise CorruptArtifactError(
            f"store entry {path!r} checksum mismatch: stored "
            f"{stored[:16]}..., computed {actual[:16]}..."
        )
    try:
        manifest = json.loads(str(arrays[_MANIFEST_KEY][()]))
        fingerprints = StoreKey.from_dict(manifest["fingerprints"])
        artifact = GhatArtifact(
            matrix=arrays["matrix"],
            base_loss=float(arrays["base_loss"][()]),
            single_losses=arrays["single_losses"],
            num_evals=int(arrays["num_evals"][()]),
            wall_time=float(arrays["wall_time"][()]),
            mode=str(manifest["mode"]),
            bits=tuple(int(b) for b in arrays["bits"]),
            fingerprints=fingerprints,
            model_name=str(manifest.get("model", "")),
            health=manifest.get("health"),
            created_at=float(manifest.get("created_at", 0.0)),
            schema=int(manifest.get("schema", 0)),
            meta=dict(manifest.get("meta", {})),
        )
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        raise CorruptArtifactError(
            f"store entry {path!r} verified but failed to decode: {exc}"
        ) from exc
    if artifact.schema != ARTIFACT_SCHEMA:
        raise StaleArtifactError(
            f"store entry {path!r} has schema {artifact.schema}, "
            f"expected {ARTIFACT_SCHEMA}",
            mismatches=("schema",),
        )
    if expect is not None:
        mismatches = artifact.fingerprints.mismatches(expect)
        if mismatches:
            raise StaleArtifactError(
                f"store entry {path!r} fingerprint mismatch on "
                f"{', '.join(mismatches)}: the entry was measured on a "
                "different weights/data/config world than this request",
                mismatches=mismatches,
            )
    return artifact
