"""``repro.robustness`` — fault tolerance for the sweep-and-solve pipeline.

The sensitivity sweep is the system's longest-running stage and the IQP
solve its least-predictable one; this package holds what lets both
survive partial failure instead of discarding hours of measurement:

- typed failure vocabulary (:class:`SweepFailure`,
  :class:`InjectedWorkerCrash`, :class:`UnhealthyMatrixError`) shared by
  the sweep supervisor and the CLI exit-code contract (see
  ``docs/robustness.md``);
- the deterministic fault-injection harness (:mod:`repro.robustness.faults`)
  driving chaos tests and ``make chaos-smoke``;
- measurement integrity for Ĝ (:mod:`repro.robustness.health`): the
  :class:`DeterminismAudit` report — a fixed sample of plan specs
  replayed after assembly must repeat the sweep's losses bit for bit;
  a disagreement is reported, never repaired.

The recovery machinery itself lives where the work happens — the worker
supervisor in :mod:`repro.core.sensitivity` — and consults this package
for faults and failure types.  The IQP solve needs none of it:
branch-and-bound starts from a feasible greedy incumbent and returns its
best one when a cap or a numerical failure stops it.
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


class InjectedWorkerCrash(RuntimeError):
    """A :class:`FaultPlan` crash fault fired outside a fork worker.

    In a supervised worker process the fault kills the process outright
    (``os._exit``); in serial execution that would take the whole run
    down, so the fault surfaces as this recoverable error and flows
    through the same retry path a worker death does.
    """
