"""``repro.robustness`` — fault tolerance for the sweep-and-solve pipeline.

The sensitivity sweep is the system's longest-running stage and the IQP
solve its least-predictable one; this package holds what lets both
survive partial failure instead of discarding hours of measurement:

- typed failure vocabulary (:class:`SweepFailure`,
  :class:`UnhealthyMatrixError`) shared by the sweep supervisor and the
  CLI exit-code contract (see ``docs/robustness.md``);
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
]


class SweepFailure(RuntimeError):
    """Sweep group ``group`` raised ``error``, and the sweep stopped.

    A group's losses are a fixed function of the weights and the data, so
    a group that raised (a non-finite loss, a bad input) raises again on
    every rerun: the sweep fails at once, in the parent or on a fork
    worker, and the resume checkpoint keeps every group finished before.
    The CLI maps this to exit code 4.
    """

    def __init__(self, group: int, error: str) -> None:
        super().__init__(f"sweep group {group} raised {error}")
        self.group = group
