"""Measurement integrity for the sensitivity matrix Ĝ: the determinism audit.

Every Ω entry is a four-point difference of forward losses on a fixed
sensitivity set (Eq. 12–13), and every replay the sweep runs — in-process
or on a fork worker — repeats its loss bit for bit.  So the one integrity
check a real run can fail is that a loss does *not* repeat: a
nondeterministic kernel, or a value corrupted between measurement and
assembly.

The audit (``SweepSession.audit``) re-measures a fixed sample of plan
specs (:meth:`repro.core.sweep.EvalPlan.audit_specs`) by plain replay
after Ĝ is assembled and requires each to equal its loss-table value bit
for bit.  It never rewrites a loss or the matrix: no repair fixes a
nondeterministic engine.  A disagreement warns under ``health="warn"``
and raises :class:`UnhealthyMatrixError` under ``"strict"`` (CLI exit
code 5).  :func:`cancellation_flags` marks entries whose four losses
cancel to float resolution; they are reported, never acted on.

Telemetry: ``health.remeasured`` counts the audit's replays and
``health.quarantined`` the specs that disagreed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .. import telemetry

__all__ = [
    "DeterminismAudit",
    "UnhealthyMatrixError",
    "canonical_entry",
    "cancellation_flags",
]

#: Audited specs whose replay disagreed with the sweep's loss.
QUARANTINED = telemetry.counter("health.quarantined")
#: Plain replays the audit ran.
REMEASURED = telemetry.counter("health.remeasured")

Entry = Tuple[int, int]


def canonical_entry(r: int, c: int) -> Entry:
    """Order-independent key for a matrix entry (``r <= c``)."""
    return (r, c) if r <= c else (c, r)


class UnhealthyMatrixError(RuntimeError):
    """Ĝ failed its determinism audit under the strict health gate.

    Raised only for ``--health strict`` / ``SensitivityConfig(health=
    "strict")``; the CLI maps it to exit code 5.  ``record`` carries the
    health record, which lists every audited spec that disagreed.
    """

    def __init__(self, message: str, record: Optional[dict] = None) -> None:
        super().__init__(message)
        self.record = dict(record or {})


@dataclass(frozen=True)
class DeterminismAudit:
    """What the determinism audit of one sweep found.

    ``audited`` holds the plan indices it re-measured; ``disagreements``
    one ``(plan index, sweep loss, replay loss)`` per audited spec whose
    replay did not repeat the sweep's loss, so at most ``len(audited)``
    entries; ``cancellation`` the report-only :func:`cancellation_flags`.
    """

    audited: Tuple[int, ...]
    disagreements: Tuple[Tuple[int, float, float], ...] = ()
    cancellation: Tuple[Entry, ...] = ()

    @property
    def healthy(self) -> bool:
        return not self.disagreements

    @property
    def remeasured(self) -> int:
        """Plain replays the audit ran."""
        return len(self.audited)

    def to_dict(self) -> dict:
        """JSON-safe form, for manifests and store entries alike."""
        return {
            "healthy": self.healthy,
            "audited": len(self.audited),
            "disagreed": len(self.disagreements),
            "cancelled": len(self.cancellation),
            "audited_specs": [int(i) for i in self.audited],
            "disagreements": [
                [int(i), float(sweep), float(replay)]
                for i, sweep, replay in self.disagreements
            ],
            "cancellation": [[int(r), int(c)] for r, c in self.cancellation],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "DeterminismAudit":
        """The report :meth:`to_dict` was made from."""
        return cls(
            audited=tuple(int(i) for i in doc["audited_specs"]),
            disagreements=tuple(
                (int(i), float(sweep), float(replay))
                for i, sweep, replay in doc["disagreements"]
            ),
            cancellation=tuple((int(r), int(c)) for r, c in doc["cancellation"]),
        )


def cancellation_flags(
    quads: Iterable[Tuple[Entry, float, float, float, float]],
    eps: float = 1e-12,
) -> Tuple[Entry, ...]:
    """Entries whose four-point difference sits below float resolution.

    Each quad is ``(key, pair_loss, base_loss, single_i, single_j)`` for
    ``Ω_ij = (pair + base) − (single_i + single_j)``.  When the two sums
    agree to within ``eps`` of their magnitude, the computed Ω is
    catastrophic-cancellation noise rather than signal, and downstream
    consumers should not trust its sign.
    """
    flagged: List[Entry] = []
    for key, pair_loss, base_loss, single_i, single_j in quads:
        positive = pair_loss + base_loss
        negative = single_i + single_j
        scale = max(abs(positive), abs(negative))
        if scale > 0.0 and abs(positive - negative) <= eps * scale:
            flagged.append(canonical_entry(*key))
    return tuple(sorted(set(flagged)))
