"""Deterministic fault injection for the sensitivity sweep.

A :class:`FaultPlan` is a *seeded, declarative* schedule of the two
failures no input can cause — a fork worker that dies mid-group, and a
loss in the table that its replay does not repeat — which the production
code consults at two injection points.  Every other failure is reached
for real: a candidate with non-finite weights raises where its loss is
measured, and a test damages a checkpoint or a store entry by writing
the file itself.  Because every fault is keyed by structural position
(plan-group index and dispatch count, plan spec index) rather than by
wall-clock or PID, the same plan replays **bitwise identically** in unit
tests, in ``make chaos-smoke``, and across worker counts.

Activation
----------
- programmatically: ``SensitivityConfig(fault_plan=FaultPlan(...))``;
- from the environment: ``REPRO_FAULT_PLAN`` holding either the JSON
  document itself or ``@/path/to/plan.json``.

JSON schema::

    {"seed": 0,
     "faults": [
       {"kind": "worker_crash", "at": 2, "times": 1},
       {"kind": "outlier_loss", "at": 7, "times": 1}
     ]}

``at`` is the plan-group index for ``worker_crash`` and the plan *spec*
index for ``outlier_loss``.  ``times`` is how many dispatches of the
group to a fork worker crash it; ``outlier_loss`` strikes the sweep's
one loss table, so its ``times`` must be 1.

Faults fire through the same code paths real failures take: an injected
crash is an ``os._exit`` inside a fork worker (the supervisor sees a dead
process, exactly like an OOM kill), and an injected outlier is a value in
the loss table that the determinism audit replays.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import telemetry

__all__ = [
    "FAULT_KINDS",
    "FAULT_EXIT_CODE",
    "FaultSpec",
    "FaultPlan",
    "resolve_fault_plan",
]

#: Every fault kind a plan may schedule.
FAULT_KINDS = ("worker_crash", "outlier_loss")

#: Exit code an injected crash dies with — distinguishable from a real
#: signal death in the supervisor's logs, indistinguishable in handling.
FAULT_EXIT_CODE = 86

ENV_VAR = "REPRO_FAULT_PLAN"

#: Total faults fired (all kinds), plus one counter per kind below.
_INJECTED = telemetry.counter("faults.injected")
_BY_KIND = {kind: telemetry.counter(f"faults.{kind}") for kind in FAULT_KINDS}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``at`` positions the fault structurally (plan-group index for
    ``worker_crash``, plan spec index for ``outlier_loss``); ``times``
    bounds how many dispatches it crashes.
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

    ``seed`` drives the delta of an outlier loss (seeded,
    content-independent), so a plan's effect is replayable too.  Each
    kind models a real failure that no input reaches: a dead worker, and
    (``outlier_loss``) a loss that its replay does not repeat.
    """

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    # -- sweep faults ----------------------------------------------------------
    def crash_now(self, group: int, dispatch: int) -> bool:
        """Should the fork worker handed ``group`` for the ``dispatch``-th
        time (counted from 0) die?"""
        return self._fires("worker_crash", group, dispatch)

    # -- measurement faults ----------------------------------------------------
    def outlier_delta(self, index: int) -> Optional[float]:
        """Relative corruption for the measured loss at plan spec ``index``.

        ``None`` when no outlier is scheduled for ``index``; otherwise a
        seeded multiplier in ``±[4, 32)`` (a linear-congruential step:
        deterministic, import-cheap, independent of global RNG state),
        applied as ``loss += delta * (1 + |loss|)`` when the sweep
        assembles Ĝ — finite, and a loss no replay repeats, which is what
        the determinism audit detects.
        """
        if not self._fires("outlier_loss", index, 0):
            return None
        state = (
            1103515245 * (self.seed * 2654435761 + 2 * index + 2) + 12345
        ) % (2**31)
        magnitude = 4.0 + 28.0 * (state / float(2**31))
        sign = 1.0 if state & 1 else -1.0
        return sign * magnitude

    # -- shared ----------------------------------------------------------------
    def _fires(self, kind: str, at: int, count: int) -> bool:
        for fault in self.faults:
            if fault.kind == kind and fault.at == at and count < fault.times:
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
