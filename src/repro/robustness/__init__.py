"""``repro.robustness`` — fault tolerance for the sweep-and-solve pipeline.

The sensitivity sweep is the system's longest-running stage and the IQP
solve its least-predictable one; this package holds what lets both
survive partial failure instead of discarding hours of measurement:

- typed failure vocabulary (:class:`SweepFailure`, :class:`DeadlineExpired`,
  :class:`InjectedWorkerCrash`, :class:`UnhealthyMatrixError`) shared by
  the sweep supervisor, the solver ladder, and the CLI exit-code contract
  (see ``docs/robustness.md``);
- the deterministic fault-injection harness (:mod:`repro.robustness.faults`)
  driving chaos tests and ``make chaos-smoke``;
- measurement integrity for Ĝ (:mod:`repro.robustness.health`): the
  :class:`DeterminismAudit` report — a fixed sample of plan specs
  replayed after assembly must repeat the sweep's losses bit for bit;
  a disagreement is reported, never repaired.

The recovery machinery itself lives where the work happens — the worker
supervisor in :mod:`repro.core.sensitivity`, the degradation ladder in
:mod:`repro.solvers.fallback` — and consults this package for faults and
failure types.
"""

from __future__ import annotations

from .faults import (
    FAULT_EXIT_CODE,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    resolve_fault_plan,
)
from .health import (
    DeterminismAudit,
    UnhealthyMatrixError,
    canonical_entry,
    cancellation_flags,
)

__all__ = [
    "FAULT_EXIT_CODE",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "resolve_fault_plan",
    "DeterminismAudit",
    "UnhealthyMatrixError",
    "canonical_entry",
    "cancellation_flags",
    "SweepFailure",
    "DeadlineExpired",
    "InjectedWorkerCrash",
]


class SweepFailure(RuntimeError):
    """A sweep group kept failing after bounded retries *and* the serial
    fallback — the unrecoverable end state of the recovery ladder.

    Carries the failing group index and the last underlying error message
    so operators can tell a data problem (non-finite losses every attempt)
    from an environment problem (workers dying).  The CLI maps this to
    exit code 4.
    """

    def __init__(self, message: str, group: int = -1, attempts: int = 0) -> None:
        super().__init__(message)
        self.group = group
        self.attempts = attempts


class DeadlineExpired(RuntimeError):
    """A wall-clock budget ran out before the stage finished.

    Raised internally by the solver ladder to move to the next rung; it
    only escapes when even the final rung cannot produce a feasible
    result within the deadline.
    """

    def __init__(self, message: str, rung: str = "", deadline: float = 0.0) -> None:
        super().__init__(message)
        self.rung = rung
        self.deadline = deadline


class InjectedWorkerCrash(RuntimeError):
    """A :class:`FaultPlan` crash fault fired outside a fork worker.

    In a supervised worker process the fault kills the process outright
    (``os._exit``); in serial execution that would take the whole run
    down, so the fault surfaces as this recoverable error and flows
    through the same retry path a worker death does.
    """
