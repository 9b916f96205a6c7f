"""Content addressing for Ĝ artifacts.

A stored sensitivity measurement is only safe to serve when it was
measured on *exactly* this world: the same model weights, the same
sensitivity set, and the same quantizer configuration.  Each of those is
fingerprinted independently (so a mismatch can be attributed), and the
three digests combine into one :class:`StoreKey` whose hex ``key`` names
the entry on disk.

What goes into each fingerprint:

- **weights** — layer names, dtypes, shapes, and raw bytes of every
  quantizable layer's *original* (pre-quantization) weights, in layer
  order.  These are the tensors the sweep perturbs; weights outside the
  searched set cannot change Ĝ given fixed data.
- **data** — dtype, shape, and raw bytes of the sensitivity set
  ``(x, y)``.
- **quant** — the quantizer config (candidate bits, scheme), each
  searched layer's activation quantizer (bits and calibrated scale, the
  state the resume fingerprint hashes too), plus every measurement knob
  that changes Ĝ's *numerics*: measurement mode and ``batch_size``.  The
  one execution knob left, the worker count, is proven bitwise-invariant
  and deliberately *excluded*, so a sweep on 8 fork workers and a
  single-process sweep share one entry.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..quant import activation_quant_state

__all__ = [
    "StoreKey",
    "data_fingerprint",
    "quantizer_fingerprint",
    "request_key",
    "weights_fingerprint",
]


def _hash_arrays(h, named_arrays: Iterable[Tuple[str, np.ndarray]]) -> None:
    for name, arr in named_arrays:
        arr = np.ascontiguousarray(arr)
        h.update(name.encode("utf-8"))
        h.update(str(arr.dtype).encode("ascii"))
        h.update(repr(arr.shape).encode("ascii"))
        h.update(arr.tobytes())


def weights_fingerprint(layers, originals) -> str:
    """SHA-256 over the searched layers' original weight tensors."""
    h = hashlib.sha256()
    _hash_arrays(
        h, ((layer.name, w) for layer, w in zip(layers, originals))
    )
    return h.hexdigest()


def data_fingerprint(x: np.ndarray, y: np.ndarray) -> str:
    """SHA-256 over the sensitivity set's bytes, dtypes, and shapes."""
    h = hashlib.sha256()
    _hash_arrays(h, (("x", np.asarray(x)), ("y", np.asarray(y))))
    return h.hexdigest()


def quantizer_fingerprint(
    config,
    mode: str,
    *,
    act_quant: Sequence[Optional[list]],
    batch_size: int = 256,
) -> str:
    """SHA-256 over the quantizer config + numerics-affecting sweep knobs.

    ``act_quant`` is the searched layers'
    :func:`~repro.quant.activation_quant_state`.
    """
    doc = {
        "bits": [int(b) for b in config.bits],
        "scheme": str(config.scheme),
        "act_quant": list(act_quant),
        "mode": str(mode),
        "batch_size": int(batch_size),
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


@dataclass(frozen=True)
class StoreKey:
    """The content address: weights × sensitivity set × quantizer config."""

    weights: str
    data: str
    quant: str

    @property
    def key(self) -> str:
        """The combined digest an entry is filed under."""
        h = hashlib.sha256()
        h.update(self.weights.encode("ascii"))
        h.update(self.data.encode("ascii"))
        h.update(self.quant.encode("ascii"))
        return h.hexdigest()

    def to_dict(self) -> Dict[str, str]:
        return {"weights": self.weights, "data": self.data, "quant": self.quant}

    @classmethod
    def from_dict(cls, doc: Dict[str, str]) -> "StoreKey":
        return cls(
            weights=str(doc.get("weights", "")),
            data=str(doc.get("data", "")),
            quant=str(doc.get("quant", "")),
        )

    def mismatches(self, other: "StoreKey") -> Tuple[str, ...]:
        """Names of the fingerprint components that differ from ``other``."""
        return tuple(
            name
            for name in ("weights", "data", "quant")
            if getattr(self, name) != getattr(other, name)
        )


def request_key(algo, x: np.ndarray, y: np.ndarray, config) -> StoreKey:
    """The :class:`StoreKey` an allocation request addresses.

    ``algo`` is a prepared-or-not CLADO-family algorithm (its weight
    table holds the original tensors the sweep perturbs); ``config`` is
    the effective :class:`~repro.core.api.SensitivityConfig` the fresh
    sweep would run with, so a cached entry and the sweep that would
    replace it always agree on the numerics knobs.
    """
    return StoreKey(
        weights=weights_fingerprint(algo.layers, algo.table.original),
        data=data_fingerprint(x, y),
        quant=quantizer_fingerprint(
            algo.config,
            algo.mode,
            batch_size=config.batch_size,
            act_quant=activation_quant_state(algo.layers),
        ),
    )
