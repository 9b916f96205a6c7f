"""Deterministic fault injection for the sweep-and-solve pipeline.

A :class:`FaultPlan` is a *seeded, declarative* schedule of failures —
worker crashes at a given sweep group, non-finite losses, corrupted
checkpoint files and store entries, an outlier loss — that the production
code consults at well-defined injection points.  Because every fault is
keyed by structural position (plan-group index, plan spec index, flush or
publish ordinal) and by the retry attempt rather than by wall-clock or
PID, the same plan replays **bitwise identically** in unit tests, in
``make chaos-smoke``, and across worker counts.

Activation
----------
- programmatically: ``SensitivityConfig(fault_plan=FaultPlan(...))`` or
  ``ArtifactStore(..., fault_plan=...)``;
- from the environment: ``REPRO_FAULT_PLAN`` holding either the JSON
  document itself or ``@/path/to/plan.json``.

JSON schema::

    {"seed": 0,
     "faults": [
       {"kind": "worker_crash",      "at": 2, "times": 1},
       {"kind": "nonfinite_loss",    "at": 5, "times": 1},
       {"kind": "corrupt_checkpoint","at": 0, "times": 1},
       {"kind": "outlier_loss",      "at": 7, "times": 1},
       {"kind": "truncated_artifact",    "at": 0, "times": 1},
       {"kind": "checksum_flip",         "at": 1, "times": 1},
       {"kind": "stale_writer_lock",     "at": 0, "times": 1},
       {"kind": "fingerprint_mismatch",  "at": 2, "times": 1}
     ]}

``at`` is the plan-group index for process faults (``worker_crash``,
``nonfinite_loss``), the plan *spec* index for the measurement fault
``outlier_loss``, the flush ordinal for checkpoint faults, and the store
publish ordinal for artifact-store faults (``truncated_artifact``,
``checksum_flip``, ``stale_writer_lock``, ``fingerprint_mismatch``);
``times`` is how many *attempts* fail before the fault stops firing (so
bounded retries deterministically recover).  ``outlier_loss`` strikes the
sweep's one loss table, so its ``times`` must be 1.

Faults fire through the same code paths real failures take: an injected
crash is an ``os._exit`` inside a fork worker (the supervisor sees a dead
process, exactly like an OOM kill), an injected non-finite loss flows
through the engine's finite check, and an injected checkpoint corruption
truncates the real file on disk.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import telemetry

__all__ = [
    "FAULT_KINDS",
    "FAULT_EXIT_CODE",
    "FaultSpec",
    "FaultPlan",
    "resolve_fault_plan",
    "in_worker",
    "mark_worker",
]

#: Every fault kind a plan may schedule.
FAULT_KINDS = (
    "worker_crash",
    "nonfinite_loss",
    "corrupt_checkpoint",
    "outlier_loss",
    "truncated_artifact",
    "checksum_flip",
    "stale_writer_lock",
    "fingerprint_mismatch",
)

#: Exit code an injected crash dies with — distinguishable from a real
#: signal death in the supervisor's logs, indistinguishable in handling.
FAULT_EXIT_CODE = 86

ENV_VAR = "REPRO_FAULT_PLAN"

#: Total faults fired (all kinds), plus one counter per kind below.
_INJECTED = telemetry.counter("faults.injected")
_BY_KIND = {kind: telemetry.counter(f"faults.{kind}") for kind in FAULT_KINDS}

# Set (post-fork) in supervised sweep workers so crash faults know whether
# to kill the process or to raise a recoverable error in-process.
_IN_WORKER = False


def mark_worker() -> None:
    """Record that this process is a supervised fork worker."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker() -> bool:
    return _IN_WORKER


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``at`` positions the fault structurally (plan-group index for sweep
    faults, plan spec index for ``outlier_loss``, flush ordinal for
    checkpoint faults, publish ordinal for store faults); ``times`` bounds
    how many attempts it poisons.
    """

    kind: str
    at: int = 0
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (known: {FAULT_KINDS})"
            )
        if self.times < 1:
            raise ValueError(f"fault times must be >= 1, got {self.times}")
        if self.kind == "outlier_loss" and self.times != 1:
            # Only the sweep's assembly applies it; the determinism audit
            # replays without faults.
            raise ValueError(
                f"outlier_loss strikes the sweep's one loss table: "
                f"times must be 1, got {self.times}"
            )

    def to_dict(self) -> dict:
        return {"kind": self.kind, "at": self.at, "times": self.times}


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, replayable schedule of injected failures.

    ``seed`` drives the (seeded, content-independent) choices a fault
    needs beyond its position — the truncation point of a corrupted
    checkpoint or store entry, the byte a checksum flip hits, the delta
    of an outlier loss — so a plan's effect is replayable too.  Every
    kind models a real failure: a dead or hung worker, a diverged loss,
    a damaged file, and (``outlier_loss``) a loss that its replay does
    not repeat.
    """

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    # -- sweep faults ----------------------------------------------------------
    def crash_now(self, group: int, attempt: int) -> bool:
        """Should executing ``group`` on retry ``attempt`` crash the worker?"""
        return self._fires("worker_crash", group, attempt)

    def nonfinite_now(self, group: int, attempt: int) -> bool:
        """Should ``group``'s first loss on retry ``attempt`` come out NaN?"""
        return self._fires("nonfinite_loss", group, attempt)

    # -- checkpoint faults -----------------------------------------------------
    def checkpoint_truncation(self, flush_ordinal: int) -> Optional[float]:
        """Fraction of the file to keep after flush ``flush_ordinal``.

        ``None`` when no corruption is scheduled for this flush; otherwise
        a seeded value in ``(0.1, 0.9)`` — enough bytes survive that the
        file looks plausible but fails to parse or verify.
        """
        if not self._fires("corrupt_checkpoint", flush_ordinal, 0):
            return None
        # Seeded linear-congruential step: deterministic, import-cheap, and
        # independent of global RNG state.
        state = (1103515245 * (self.seed + flush_ordinal + 1) + 12345) % (2**31)
        return 0.1 + 0.8 * (state / float(2**31))

    # -- measurement faults ----------------------------------------------------
    def outlier_delta(self, index: int) -> Optional[float]:
        """Relative corruption for the measured loss at plan spec ``index``.

        ``None`` when no outlier is scheduled for ``index``; otherwise a
        seeded multiplier in ``±[4, 32)`` (same LCG family as
        :meth:`checkpoint_truncation`: deterministic, import-cheap,
        independent of global RNG state), applied as ``loss += delta *
        (1 + |loss|)`` when the sweep assembles Ĝ — finite, and a loss no
        replay repeats, which is what the determinism audit detects.
        """
        if not self._fires("outlier_loss", index, 0):
            return None
        state = (
            1103515245 * (self.seed * 2654435761 + 2 * index + 2) + 12345
        ) % (2**31)
        magnitude = 4.0 + 28.0 * (state / float(2**31))
        sign = 1.0 if state & 1 else -1.0
        return sign * magnitude

    # -- artifact-store faults -------------------------------------------------
    def artifact_truncation(self, publish_ordinal: int) -> Optional[float]:
        """Fraction of a just-published store entry to keep, or ``None``.

        ``at`` is the store's publish ordinal (0 for the first publish of
        a process, 1 for the next...).  The seeded keep-fraction mirrors
        :meth:`checkpoint_truncation`: enough bytes survive that the
        entry looks plausible but fails parse/checksum on the next read
        and must be quarantined, never served.
        """
        if not self._fires("truncated_artifact", publish_ordinal, 0):
            return None
        state = (
            1103515245 * (self.seed + 29 * publish_ordinal + 1) + 12345
        ) % (2**31)
        return 0.1 + 0.8 * (state / float(2**31))

    def checksum_flip_offset(self, publish_ordinal: int) -> Optional[int]:
        """Seeded byte offset to XOR in a just-published entry, or ``None``.

        A single flipped bit/byte is the silent-media-corruption case: the
        file still parses as far as the container format cares, so only
        the embedded payload checksum can catch it.  The offset is a
        seeded raw value; the store clamps it into the entry's payload
        region so the flip always lands on verifiable bytes.
        """
        if not self._fires("checksum_flip", publish_ordinal, 0):
            return None
        state = (
            1103515245 * (self.seed + 31 * publish_ordinal + 7) + 12345
        ) % (2**31)
        return int(state)

    def stale_writer_lock_now(self, publish_ordinal: int) -> bool:
        """Should an aged orphan writer lock block this publish?

        The store plants a lock file whose mtime predates the lock TTL
        before acquiring its own — exactly what a publisher killed while
        holding the lock leaves behind — so the single-writer path must
        exercise stale-lock takeover to make progress.
        """
        return self._fires("stale_writer_lock", publish_ordinal, 0)

    def fingerprint_mismatch_now(self, publish_ordinal: int) -> bool:
        """Should the published entry carry alien fingerprints?

        The store re-publishes the entry with its manifest fingerprints
        corrupted but its payload checksum *valid* — an artifact that is
        internally consistent yet belongs to a different (weights, data,
        config) world, the staleness case checksums alone cannot catch.
        """
        return self._fires("fingerprint_mismatch", publish_ordinal, 0)

    # -- shared ----------------------------------------------------------------
    def _fires(self, kind: str, at: int, attempt: int) -> bool:
        for fault in self.faults:
            if fault.kind == kind and fault.at == at and attempt < fault.times:
                self._record(fault)
                return True
        return False

    @staticmethod
    def _record(fault: FaultSpec) -> None:
        _INJECTED.add()
        _BY_KIND[fault.kind].add()
        run = telemetry.current_run()
        if run is not None:
            fired: List[dict] = list(run.results.get("injected_faults", ()))
            fired.append(fault.to_dict())
            run.add_result(injected_faults=fired)

    # -- (de)serialization -----------------------------------------------------
    def describe(self) -> List[dict]:
        """Plain-dict fault list for manifests and result extras."""
        return [fault.to_dict() for fault in self.faults]

    def to_json(self) -> str:
        return json.dumps({"seed": self.seed, "faults": self.describe()})

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        faults = tuple(
            FaultSpec(
                kind=str(entry["kind"]),
                at=int(entry.get("at", 0)),
                times=int(entry.get("times", 1)),
            )
            for entry in doc.get("faults", ())
        )
        return cls(seed=int(doc.get("seed", 0)), faults=faults)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a JSON plan, or ``@path`` pointing at a JSON plan file."""
        text = text.strip()
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("fault plan must be a JSON object")
        return cls.from_dict(doc)

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> Optional["FaultPlan"]:
        """The plan named by ``REPRO_FAULT_PLAN``, or ``None``."""
        env = os.environ if environ is None else environ
        text = env.get(ENV_VAR)
        if not text:
            return None
        return cls.parse(text)


def resolve_fault_plan(
    explicit: Optional[FaultPlan] = None,
) -> Optional[FaultPlan]:
    """Explicit plan if given, else the environment plan, else ``None``."""
    if explicit is not None:
        return explicit
    return FaultPlan.from_env()
