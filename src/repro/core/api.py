"""The unified allocator API: typed configs, results, and the factory.

Before this module, every :class:`~repro.core.clado.MPQAlgorithm` subclass
interpreted its own untyped ``**kwargs`` (``HAWQ(probes=, seed=)``,
``MPQCO(batch_size=)``, CLADO sweep options), and the CLI and
``ExperimentContext`` each kept their own if/elif ladder for building
algorithms.  This module is the single vocabulary both speak:

- :class:`SensitivityConfig` — every measurement-phase knob
  (worker fan-out, checkpoint resume, stack width, Hutchinson
  probes...); the sensitivity engine reads all of its
  execution options from it;
- :class:`SolverConfig` — every allocation-phase knob (method, time
  limit, node cap, PSD assumption);
- :class:`AllocationResult` — what ``allocate`` returns: the concrete
  :class:`~repro.core.clado.MPQAssignment` plus solver status, achieved
  size, and the telemetry manifest reference.  Unknown attributes
  delegate to the wrapped assignment, so legacy callers that read
  ``result.bits`` / ``result.size_mb`` keep working unchanged;
- :func:`build_algorithm` — the one factory mapping an algorithm kind
  name to its class and configuration.

``InfeasibleBudgetError`` (re-exported from :mod:`repro.solvers.problem`)
is the typed failure for budgets below the all-minimum-bits size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from ..robustness.faults import FaultPlan
from ..solvers.problem import InfeasibleBudgetError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .clado import MPQAlgorithm, MPQAssignment

__all__ = [
    "SensitivityConfig",
    "SolverConfig",
    "AllocationResult",
    "DEFAULT_MAX_RETRIES",
    "InfeasibleBudgetError",
    "ALGORITHM_KINDS",
    "algorithm_specs",
    "build_algorithm",
]

#: Times a failed group is re-queued (to surviving workers, then serially)
#: before the sweep gives up with :class:`repro.robustness.SweepFailure`.
DEFAULT_MAX_RETRIES = 2


@dataclass(frozen=True)
class SensitivityConfig:
    """Typed knobs for the measurement phase (``prepare``).

    One config serves every algorithm; each reads the fields that apply
    to it (CLADO the sweep-execution block, HAWQ ``probes``/``seed``,
    MPQCO ``batch_size``) and ignores the rest, so callers can build one
    config per experiment and hand it to every algorithm uniformly.
    """

    # Shared
    batch_size: int = 256
    # CLADO sweep execution (see SensitivityEngine / SweepSession)
    num_workers: int = 1  # fork workers; 0 = all cores
    checkpoint_path: Optional[str] = None  # resume checkpoint, saved per group
    eval_batch_k: int = 0  # candidate configs per stacked replay; 0 = auto
    # Fault tolerance (see docs/robustness.md)
    max_retries: int = DEFAULT_MAX_RETRIES
    fault_plan: Optional[FaultPlan] = None  # chaos-test injection schedule
    # Measurement integrity (see docs/robustness.md)
    health: str = "off"  # "off" | "warn" | "strict": the determinism audit
    # HAWQ (Hutchinson trace estimation)
    probes: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.num_workers < 0:
            raise ValueError(f"num_workers must be >= 0, got {self.num_workers}")
        if self.eval_batch_k < 0:
            raise ValueError(f"eval_batch_k must be >= 0, got {self.eval_batch_k}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.health not in ("off", "warn", "strict"):
            raise ValueError(f"unknown health mode {self.health!r}")

    def with_overrides(self, **overrides) -> "SensitivityConfig":
        """A copy with the given fields replaced (unknown names rejected)."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class SolverConfig:
    """Typed knobs for the allocation phase (``allocate``).

    ``options`` passes method-specific extras through verbatim (e.g.
    ``max_capacity_units`` for the DP) without widening this schema.
    """

    method: str = "auto"  # "auto" | "bb" | "fallback" | "dp" | "greedy" | ...
    time_limit: float = 20.0
    max_nodes: int = 20_000
    gap_tol: float = 1e-9
    assume_psd: Optional[bool] = None
    #: Total wall-clock allowance for the degradation ladder (CLI
    #: ``--deadline``); ``None`` leaves branch-and-bound on ``time_limit``.
    deadline: Optional[float] = None
    options: Mapping[str, object] = field(default_factory=dict)

    def with_overrides(self, **overrides) -> "SolverConfig":
        return replace(self, **overrides)


@dataclass
class AllocationResult:
    """Everything one ``allocate`` call produced.

    Wraps the concrete :class:`MPQAssignment` and adds run provenance:
    solver status/method, the achieved size against the requested budget,
    solve wall time, and the telemetry manifest this allocation was
    recorded in (``None`` when no run was active).  Attribute access
    falls through to the assignment, keeping pre-redesign call sites
    (``result.bits``, ``result.size_mb``, ``result.solver``...) working.
    """

    assignment: "MPQAssignment"
    budget_bits: int
    achieved_size_bits: int
    solver_status: str
    solver_method: str
    solve_seconds: float
    manifest_path: Optional[str] = None

    def __getattr__(self, name: str):
        if name.startswith("_") or name == "assignment":
            raise AttributeError(name)
        try:
            assignment = object.__getattribute__(self, "assignment")
        except AttributeError:
            raise AttributeError(name) from None
        return getattr(assignment, name)

    @property
    def utilization(self) -> float:
        """Achieved size as a fraction of the requested budget."""
        return self.achieved_size_bits / max(1, self.budget_bits)


# ---------------------------------------------------------------------------
# Algorithm factory: one name -> (class, config) mapping for CLI + drivers
# ---------------------------------------------------------------------------

#: Every allocator kind the factory can build, in display order.
ALGORITHM_KINDS: Tuple[str, ...] = (
    "clado",
    "clado_star",
    "clado_block",
    "clado_nopsd",
    "hawq",
    "mpqco",
)


def algorithm_specs() -> Dict[str, Tuple[type, dict]]:
    """``kind -> (class, constructor kwargs)`` for every known algorithm.

    Imported lazily so this module stays import-light and cycle-free.
    """
    from .baselines import HAWQ, MPQCO
    from .clado import CLADO

    return {
        "clado": (CLADO, {"mode": "full"}),
        "clado_star": (CLADO, {"mode": "diagonal"}),
        "clado_block": (CLADO, {"mode": "block"}),
        "clado_nopsd": (CLADO, {"mode": "full", "use_psd": False}),
        "hawq": (HAWQ, {}),
        "mpqco": (MPQCO, {}),
    }


def build_algorithm(
    kind: str,
    model,
    model_name: str,
    config,
    sensitivity: Optional[SensitivityConfig] = None,
    **extra,
) -> "MPQAlgorithm":
    """Instantiate the algorithm ``kind`` for ``model``.

    The single construction path shared by the CLI ``allocate`` command
    and ``ExperimentContext.make_algorithm``; ``sensitivity`` seeds the
    algorithm's default measurement config (e.g. worker fan-out, HAWQ
    probes), and ``extra`` forwards additional constructor arguments
    (``layers=``, ``criterion=``).
    """
    specs = algorithm_specs()
    if kind not in specs:
        known = ", ".join(sorted(specs))
        raise ValueError(f"unknown algorithm kind {kind!r} (known: {known})")
    cls, kwargs = specs[kind]
    merged = dict(kwargs)
    merged.update(extra)
    return cls(model, model_name, config, sensitivity=sensitivity, **merged)
