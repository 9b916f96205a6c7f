"""The CLADO pipeline: measure -> PSD-project -> solve IQP -> assignment.

This module is the paper's primary contribution.  ``CLADO`` wires together
the forward-only sensitivity engine (Algorithm 1), the PSD projection, and
the IQP solver; its ablation variants (``mode="diagonal"`` = CLADO*,
``mode="block"`` = BRECQ-style intra-block interactions) reuse the same
machinery with reduced measurement sets.

The allocator API (see :mod:`repro.core.api`): ``prepare(x, y, config)``
takes a typed :class:`SensitivityConfig`, ``allocate(budget_bits, solver)``
takes a typed :class:`SolverConfig` and returns an
:class:`AllocationResult` wrapping the concrete :class:`MPQAssignment`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..models import QuantizableLayer, quantizable_layers
from ..nn import CrossEntropyLoss, Module
from ..quant import QuantConfig, QuantizedWeightTable, bytes_to_mb
from ..robustness.health import DeterminismAudit, UnhealthyMatrixError
from ..solvers import MPQProblem, SolveResult, solve
from .api import (
    AllocationResult,
    InfeasibleBudgetError,
    SensitivityConfig,
    SolverConfig,
)
from .psd import condition_number, min_eigenvalue, psd_project, psd_violation
from .sensitivity import SensitivityEngine, SensitivityResult

__all__ = ["MPQAssignment", "MPQAlgorithm", "CLADO"]


def repair_ladder(
    audit: DeterminismAudit, raw: np.ndarray, projected: np.ndarray
) -> dict:
    """The health record of one prepared Ĝ.

    The audit's :meth:`~repro.robustness.DeterminismAudit.to_dict` plus
    the PSD violation and condition number of Ĝ before and after
    projection.  Nothing is repaired: a loss that does not repeat has no
    repair.  The name stays because ``perfbench/tracing.py`` times this
    function as ``health.repair_s`` (ROADMAP item 8 renames it).
    """
    return {
        **audit.to_dict(),
        "pre_psd_violation": list(psd_violation(raw)),
        "post_psd_violation": list(psd_violation(projected)),
        "pre_condition_number": condition_number(raw),
        "post_condition_number": condition_number(projected),
    }


@dataclass
class MPQAssignment:
    """A concrete per-layer bit-width decision plus provenance."""

    algorithm: str
    bits: np.ndarray  # per-layer bit-widths
    choice: np.ndarray  # per-layer indices into the candidate set
    size_bits: int
    predicted_loss_increase: float
    solver: Optional[SolveResult] = None
    extras: dict = field(default_factory=dict)

    @property
    def size_mb(self) -> float:
        return bytes_to_mb(self.size_bits / 8.0)

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (
            f"{self.algorithm}: {self.size_mb:.3f} MB, "
            f"bits={list(map(int, self.bits))}"
        )


class MPQAlgorithm:
    """Shared skeleton for sensitivity-based MPQ algorithms.

    Subclasses implement ``_prepare`` (compute sensitivities once) and
    ``_allocate`` (solve for one budget); budgets can then be swept cheaply
    against the cached sensitivities — the key workflow advantage of
    sensitivity-based methods the paper emphasizes (§2).

    ``sensitivity`` seeds the default measurement config; a config passed
    to ``prepare`` overrides it per call.
    """

    name = "base"

    def __init__(
        self,
        model: Module,
        model_name: str,
        config: QuantConfig,
        layers: Optional[Sequence[QuantizableLayer]] = None,
        criterion: Optional[CrossEntropyLoss] = None,
        sensitivity: Optional[SensitivityConfig] = None,
    ) -> None:
        self.model = model
        self.model_name = model_name
        self.config = config
        self.layers = (
            list(layers) if layers is not None else quantizable_layers(model, model_name)
        )
        self.criterion = criterion or CrossEntropyLoss()
        self.table = QuantizedWeightTable(self.layers, config)
        self.sensitivity_config = sensitivity or SensitivityConfig()
        self.prepared = False
        self.prepare_time = 0.0

    # -- API -------------------------------------------------------------------
    def prepare(
        self,
        x: np.ndarray,
        y: np.ndarray,
        config: Optional[SensitivityConfig] = None,
    ) -> None:
        """Measure sensitivities on the sensitivity set ``(x, y)``."""
        t0 = telemetry.monotonic()
        with telemetry.span("prepare", algorithm=self.name):
            self._prepare(x, y, config or self.sensitivity_config)
        self.prepare_time = telemetry.monotonic() - t0
        self.prepared = True

    def allocate(
        self,
        budget_bits: int,
        solver: Optional[SolverConfig] = None,
    ) -> AllocationResult:
        """Pick bit-widths for one size budget (requires ``prepare`` first).

        Returns an :class:`AllocationResult`; its attributes fall through
        to the wrapped :class:`MPQAssignment`.
        """
        if not self.prepared:
            raise RuntimeError(f"{self.name}: call prepare() before allocate()")
        solver = solver or SolverConfig()
        budget_bits = int(budget_bits)
        min_bits = sum(layer.num_params for layer in self.layers) * min(
            self.config.bits
        )
        if budget_bits < min_bits:
            raise InfeasibleBudgetError(
                f"budget {budget_bits} bits below the all-min-precision "
                f"size {min_bits} bits",
                budget_bits=budget_bits,
                min_size_bits=min_bits,
            )
        t0 = telemetry.monotonic()
        with telemetry.span("allocate", algorithm=self.name):
            assignment = self._allocate(budget_bits, solver)
        solve_seconds = telemetry.monotonic() - t0
        result = AllocationResult(
            assignment=assignment,
            budget_bits=budget_bits,
            achieved_size_bits=int(assignment.size_bits),
            solver_status=(
                "optimal"
                if assignment.solver is not None and assignment.solver.optimal
                else (assignment.solver.message or "incumbent")
                if assignment.solver is not None
                else "heuristic"
            ),
            solver_method=(
                assignment.solver.method if assignment.solver is not None else ""
            ),
            solve_seconds=solve_seconds,
        )
        run = telemetry.current_run()
        if run is not None:
            result.manifest_path = str(run.manifest_dir / f"{run.run_id}.json")
            run.add_result(
                algorithm=self.name,
                budget_bits=budget_bits,
                achieved_size_bits=result.achieved_size_bits,
                solver_status=result.solver_status,
                solver_method=result.solver_method,
                predicted_loss_increase=assignment.predicted_loss_increase,
            )
        return result

    def layer_sizes(self) -> np.ndarray:
        return np.asarray([layer.num_params for layer in self.layers], dtype=np.int64)

    # -- hooks -------------------------------------------------------------
    def _prepare(
        self, x: np.ndarray, y: np.ndarray, config: SensitivityConfig
    ) -> None:
        raise NotImplementedError

    def _allocate(self, budget_bits: int, solver: SolverConfig) -> MPQAssignment:
        raise NotImplementedError


class CLADO(MPQAlgorithm):
    """Cross-LAyer-Dependency-aware Optimization (the paper's algorithm).

    Parameters
    ----------
    mode:
        ``"full"`` (CLADO), ``"diagonal"`` (CLADO* ablation), or
        ``"block"`` (intra-block-only cross terms, the Fig. 6 ablation).
    use_psd:
        Apply the PSD projection (Algorithm 1).  Disabling it reproduces
        the Fig. 7 ablation: the IQP objective becomes indefinite and the
        solver falls back to heuristics / hits node caps.
    """

    def __init__(
        self,
        model: Module,
        model_name: str,
        config: QuantConfig,
        mode: str = "full",
        use_psd: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(model, model_name, config, **kwargs)
        if mode not in ("full", "diagonal", "block"):
            raise ValueError(f"unknown CLADO mode {mode!r}")
        self.mode = mode
        self.use_psd = use_psd
        if mode == "full":
            self.name = "CLADO"
        elif mode == "diagonal":
            self.name = "CLADO*"
        else:
            self.name = "CLADO-block"
        self.raw: Optional[SensitivityResult] = None
        self.matrix: Optional[np.ndarray] = None
        self.health_record: Optional[dict] = None

    def _project(self, result: SensitivityResult) -> None:
        """Install ``result`` and its PSD projection as ``self.matrix``."""
        self.raw = result
        with telemetry.span("prepare.psd_project"):
            if self.use_psd:
                self.matrix = psd_project(result.matrix)
            else:
                self.matrix = 0.5 * (result.matrix + result.matrix.T)

    def _prepare(
        self, x: np.ndarray, y: np.ndarray, config: SensitivityConfig
    ) -> None:
        engine = SensitivityEngine(self.model, self.table, self.criterion)
        self._project(engine.measure(x, y, config, mode=self.mode))
        audit = self.raw.health
        self.health_record = None
        if audit is None:
            return
        record = repair_ladder(audit, self.raw.matrix, self.matrix)
        self.health_record = record
        run = telemetry.current_run()
        if run is not None:
            run.add_result(health=record)
        if not audit.healthy:
            message = (
                f"sensitivity matrix unhealthy: {len(audit.disagreements)} of "
                f"{len(audit.audited)} audited specs did not repeat their "
                "sweep loss bit for bit"
            )
            if config.health == "strict":
                raise UnhealthyMatrixError(message, record)
            warnings.warn(message, RuntimeWarning, stacklevel=2)

    def set_sensitivity(self, result: SensitivityResult) -> None:
        """Install a precomputed (e.g. cached) sensitivity measurement.

        Only projects: the health gate is a ``prepare``-time concern, and
        the store publishes only measurements whose audit passed.
        """
        self._project(result)
        self.health_record = None
        self.prepared = True

    def _allocate(self, budget_bits: int, solver: SolverConfig) -> MPQAssignment:
        problem = MPQProblem(
            sensitivity=self.matrix,
            layer_sizes=self.layer_sizes(),
            bits=self.config.bits,
            budget_bits=budget_bits,
        )
        method = solver.method
        if method == "auto" and self.mode == "diagonal":
            method = "dp"
        solver_kwargs = dict(solver.options)
        if method in ("auto", "bb", "fallback"):
            # Quadratic objectives go down the degradation ladder: exact
            # branch-and-bound first, QP-relax-and-round then greedy on
            # deadline expiry or numerical failure — an allocation always
            # comes back (see repro.solvers.fallback).
            solver_kwargs.setdefault("time_limit", solver.time_limit)
            solver_kwargs.setdefault("deadline", solver.deadline)
            solver_kwargs.setdefault("max_nodes", solver.max_nodes)
            solver_kwargs.setdefault("gap_tol", solver.gap_tol)
            solver_kwargs.setdefault(
                "assume_psd",
                self.use_psd if solver.assume_psd is None else solver.assume_psd,
            )
            method = "fallback"
        result = solve(problem, method=method, **solver_kwargs)
        extras = {
            "mode": self.mode,
            "use_psd": self.use_psd,
            "min_eig_raw": (
                min_eigenvalue(self.raw.matrix) if self.raw is not None else 0.0
            ),
        }
        if self.health_record is not None:
            extras["health"] = self.health_record
        return MPQAssignment(
            algorithm=self.name,
            bits=problem.choice_bits(result.choice),
            choice=result.choice,
            size_bits=result.size_bits,
            # alpha^T G alpha approximates Omega = dw^T H dw = 2 dLoss.
            predicted_loss_increase=0.5 * problem.objective(result.choice),
            solver=result,
            extras=extras,
        )
