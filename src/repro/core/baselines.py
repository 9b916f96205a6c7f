"""Baseline MPQ algorithms the paper compares against (§5).

- :class:`HAWQ` — HAWQ-V2/V3-style: layer sensitivity is the mean Hessian
  trace (Hutchinson estimate) times the squared quantization-error norm;
  bit allocation is the resulting separable ILP (knapsack DP here).
- :class:`MPQCO` — Chen et al. 2021-style: a cheap curvature proxy built
  from one backward pass.  The original uses a Gauss-Newton/output-Hessian
  construction; we use the empirical-Fisher diagonal ``E[g ⊙ g]`` which is
  the same "one cheap pass, diagonal curvature" family and preserves its
  runtime profile (minutes, vs. hours for CLADO/HAWQ — §5.2).
- :func:`upq_assignment` — uniform-precision quantization at the largest
  feasible candidate bit-width.

CLADO* and the block ablation live in :mod:`repro.core.clado` (they are
CLADO with reduced measurement modes).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import telemetry
from ..hessian import hutchinson_layer_traces, loss_and_grads
from ..solvers import InfeasibleBudgetError, MPQProblem, solve_dp
from .api import SensitivityConfig, SolverConfig
from .clado import MPQAlgorithm, MPQAssignment

__all__ = ["HAWQ", "MPQCO", "upq_assignment"]


class _SeparableBaseline(MPQAlgorithm):
    """Shared allocation path for diagonal-sensitivity baselines."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.costs: Optional[np.ndarray] = None  # (I, |B|)

    def _allocate(self, budget_bits: int, solver: SolverConfig) -> MPQAssignment:
        nb = self.config.num_choices
        num_layers = len(self.layers)
        diag = np.zeros(num_layers * nb)
        for i in range(num_layers):
            diag[i * nb : (i + 1) * nb] = self.costs[i]
        problem = MPQProblem(
            sensitivity=np.diag(diag),
            layer_sizes=self.layer_sizes(),
            bits=self.config.bits,
            budget_bits=budget_bits,
        )
        result = solve_dp(problem, costs=self.costs, **dict(solver.options))
        return MPQAssignment(
            algorithm=self.name,
            bits=problem.choice_bits(result.choice),
            choice=result.choice,
            size_bits=result.size_bits,
            predicted_loss_increase=0.5 * float(result.objective),
            solver=result,
        )


class HAWQ(_SeparableBaseline):
    """Hessian-trace-weighted sensitivity (HAWQ-V2/V3).

    ``cost[i][m] = (trace(H_ii) / |w_i|) * ||Q(w_i, b_m) - w_i||^2``.
    """

    name = "HAWQ"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.traces: Optional[np.ndarray] = None

    @property
    def probes(self) -> int:
        return self.sensitivity_config.probes

    @property
    def seed(self) -> int:
        return self.sensitivity_config.seed

    def _prepare(
        self, x: np.ndarray, y: np.ndarray, config: SensitivityConfig
    ) -> None:
        with telemetry.span("prepare.hutchinson", probes=config.probes):
            self.traces = hutchinson_layer_traces(
                self.model,
                self.criterion,
                self.layers,
                x,
                y,
                probes=config.probes,
                seed=config.seed,
            )
        # Negative trace estimates (possible at finite samples) would make
        # the knapsack prefer *lower* precision for free.  Clip at a small
        # positive floor rather than zero: a zero cost row would make every
        # bit-width equally "free" and let the allocator waste accuracy on
        # budget nobody asked it to save.
        positive = np.clip(self.traces, 0.0, None)
        floor = 1e-6 * float(max(positive.max(initial=0.0), 1e-30))
        mean_traces = np.maximum(positive, floor) / np.asarray(
            [layer.num_params for layer in self.layers], dtype=np.float64
        )
        with telemetry.span("prepare.costs"):
            costs = np.zeros((len(self.layers), self.config.num_choices))
            for i in range(len(self.layers)):
                for m, b in enumerate(self.config.bits):
                    delta = self.table.delta(i, b).astype(np.float64).ravel()
                    costs[i, m] = mean_traces[i] * float(delta @ delta)
        self.costs = costs


class MPQCO(_SeparableBaseline):
    """Empirical-Fisher diagonal curvature (MPQCO-style, one backward pass).

    ``cost[i][m] = sum_k g_k^2 * (dw_m^i)_k^2`` with ``g`` the loss gradient
    on the sensitivity set.
    """

    name = "MPQCO"

    def _prepare(
        self, x: np.ndarray, y: np.ndarray, config: SensitivityConfig
    ) -> None:
        batch_size = config.batch_size
        fisher = [np.zeros(layer.weight.size) for layer in self.layers]
        n = len(x)
        with telemetry.span("prepare.fisher"):
            for start in range(0, n, batch_size):
                xb = x[start : start + batch_size]
                yb = y[start : start + batch_size]
                _, grads = loss_and_grads(
                    self.model, self.criterion, self.layers, xb, yb
                )
                weight = len(xb) / n
                for i, g in enumerate(grads):
                    fisher[i] += weight * g**2
        with telemetry.span("prepare.costs"):
            costs = np.zeros((len(self.layers), self.config.num_choices))
            for i in range(len(self.layers)):
                for m, b in enumerate(self.config.bits):
                    delta = self.table.delta(i, b).astype(np.float64).ravel()
                    costs[i, m] = float(fisher[i] @ delta**2)
        self.costs = costs


def upq_assignment(layer_sizes, bits_candidates, budget_bits: int) -> np.ndarray:
    """Uniform-precision bits: the largest candidate that fits the budget."""
    total = int(np.sum(np.asarray(layer_sizes, dtype=np.int64)))
    min_size = total * min(bits_candidates)
    feasible = [b for b in bits_candidates if total * b <= budget_bits]
    if not feasible:
        raise InfeasibleBudgetError(
            f"no uniform precision fits budget {budget_bits} bits "
            f"(min candidate needs {min_size})",
            budget_bits=int(budget_bits),
            min_size_bits=min_size,
        )
    b = max(feasible)
    return np.full(len(layer_sizes), b, dtype=np.int64)
