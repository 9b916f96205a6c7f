"""Convex QP relaxation of the IQP: the branch-and-bound bounding step.

Relaxing the one-hot constraint ``alpha^(i) in {0,1}^|B|`` to the simplex
``alpha^(i) >= 0, sum alpha^(i) = 1`` yields a convex QP whenever the
sensitivity matrix is PSD (which is why the paper's PSD projection matters
for solver behaviour, §7).  Once the layers a node fixes are eliminated,
the node's relaxation is::

    min  x^T Q x + 2 l^T x + c   s.t.  E x = 1,  x >= 0,  C x <= d

with one simplex row of ``E`` per free layer, and the size budget plus any
extra linear budgets as the rows of ``C``.  :func:`solve_relaxation`
solves it with a primal active-set method (Nocedal & Wright §16.5).  The
working set holds the variables fixed at zero and the tight rows of ``C``,
and each iteration solves one small KKT system.  A least-index (Bland)
rule picks the constraint to add or drop while the iterate is stalled at
a degenerate point, which keeps the method from cycling.

The reported ``lower_bound`` is a certified Lagrangian bound, not the
solver's objective value.  For any point ``x̂``, any ``ν`` and any
``μ >= 0``, let ``φ(x) = x^T Q x + (2l + E^T ν + C^T μ)^T x`` and
``g = ∇φ(x̂)``.  Then::

    lb = φ(x̂) − g^T x̂ + Σ_k min(0, g_k) + c − 1^T ν − d^T μ

is at most the objective of every feasible ``x``: ``φ`` is convex, so
``φ(x) >= φ(x̂) + g^T (x − x̂)``; every feasible ``x`` lies in
``[0, 1]^n``, so ``g^T x >= Σ_k min(0, g_k)``; and on the feasible set
``ν^T (E x − 1) = 0`` and ``μ^T (C x − d) <= 0``.  At an exact KKT point
``lb`` equals the relaxation optimum.  A solve stopped by its iteration cap
still returns a valid bound, only a looser one.  The bound needs a PSD
``Q``; :func:`convex_surrogate` shifts the diagonal of a matrix that is
not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .. import telemetry
from .problem import MPQProblem

__all__ = [
    "Relaxation",
    "RelaxationResult",
    "convex_surrogate",
    "solve_relaxation",
]

_QP_RELAXATIONS = telemetry.counter("solver.qp_relaxations")
_QP_ITERATIONS = telemetry.counter("solver.qp_iterations")
_QP_CAPPED = telemetry.counter("solver.qp_capped")

#: Ridge on the KKT Hessian, relative to max|Q|: keeps the KKT matrix
#: nonsingular on a rank-deficient (eigenvalue-clipped) Ĝ.  The bound is
#: computed with the Q without it.
_RIDGE = 1e-12
#: Multipliers above ``-_KKT_TOL`` pass the KKT check (objective scaled to
#: max|Q| = 1, budget rows to a largest coefficient of 1).
_KKT_TOL = 1e-11
#: Step components below this size, or this fraction of the step's
#: largest one when that exceeds 1, do not block: a constraint the step
#: leaves parallel up to round-off (such as a budget row that duplicates a
#: working one) never enters the working set.  Also the movement, in alpha
#: units, below which a step counts as zero-length.
_STEP_TOL = 1e-12
#: Warm-start entries at or below this are snapped to zero.
_ZERO = 1e-12
#: Tolerance of the budget prechecks, in the problem's own units.
_PRECHECK_TOL = 1e-9
#: Smallest eigenvalue, relative to max(1, max|G|), that still counts as
#: PSD for certification.
_PSD_TOL = 1e-10


@dataclass
class RelaxationResult:
    """Continuous relaxation solution at a branch-and-bound node."""

    alpha: np.ndarray  # full-length (|B|I) vector incl. fixed one-hots
    lower_bound: float
    feasible: bool
    converged: bool
    message: str = ""


def convex_surrogate(
    problem: MPQProblem, assume_psd: Optional[bool] = None
) -> Tuple[MPQProblem, float, bool]:
    """The convex problem whose relaxation bounds ``problem``'s IQP.

    Returns ``(surrogate, shift, psd)``.  ``shift = min(λ_min, 0)`` for the
    smallest eigenvalue of the symmetrised matrix, and ``surrogate``
    carries ``G − shift·I``, which is PSD.  One-hot alphas have
    ``||alpha||² = I``, so ``alpha^T G alpha = alpha^T (G − shift·I) alpha
    + shift·I`` and ``relaxation bound + shift·I`` bounds the IQP.  ``psd``
    is ``assume_psd`` when given, otherwise whether ``λ_min`` is within
    :data:`_PSD_TOL` of PSD; a PSD matrix is returned unshifted.
    """
    # All eigendecomposition goes through the audited core.psd module
    # (SVD fallback + psd.fallback counter; lint rule 5).  Imported at
    # call time: repro.core imports repro.solvers at module scope.
    from ..core.psd import min_eigenvalue

    g_sym = 0.5 * (problem.sensitivity + problem.sensitivity.T)
    min_eig = min_eigenvalue(g_sym)
    if assume_psd is None:
        assume_psd = min_eig >= -_PSD_TOL * max(1.0, float(np.abs(g_sym).max()))
    shift = min(min_eig, 0.0)
    if shift == 0.0:
        return problem, 0.0, bool(assume_psd)
    surrogate = MPQProblem(
        sensitivity=g_sym - shift * np.eye(problem.num_vars),
        layer_sizes=problem.layer_sizes,
        bits=problem.bits,
        budget_bits=problem.budget_bits,
        extra_constraints=problem.extra_constraints,
    )
    return surrogate, shift, bool(assume_psd)


def _reduced_quadratic(
    g_sym: np.ndarray, fixed_alpha: np.ndarray, free_mask: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Eliminate fixed variables from ``x^T G x``.

    With x = [f (free); a (fixed one-hot values)], the objective becomes
    ``f^T G_ff f + 2 (G_fa a)^T f + a^T G_aa a``.
    """
    g_ff = g_sym[np.ix_(free_mask, free_mask)]
    g_fa = g_sym[np.ix_(free_mask, ~free_mask)]
    a = fixed_alpha[~free_mask]
    lin = g_fa @ a
    const = float(a @ g_sym[np.ix_(~free_mask, ~free_mask)] @ a)
    return g_ff, lin, const


def _feasible_start(
    x: np.ndarray, nb: int, rows: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """Renormalise ``x`` per layer, then pull it inside every budget row.

    A violating point moves along the segment toward the all-lowest-bits
    vertex, which the node's prechecks guarantee to be feasible.
    """
    x = np.where(x > _ZERO, x, 0.0).reshape(-1, nb)
    totals = x.sum(axis=1, keepdims=True)
    x = np.divide(x, totals, out=np.full_like(x, 1.0 / nb), where=totals > 0.0)
    x = x.ravel()
    lowest = np.zeros_like(x)
    lowest[::nb] = 1.0
    excess = rows @ x - bounds
    over = excess > 0.0
    if over.any():
        # Moving a fraction t of the way to the vertex removes t·room of
        # the excess; room < excess only within the precheck tolerance.
        room = (rows @ x - rows @ lowest)[over]
        t = min(1.0, float(np.max(excess[over] / np.maximum(room, excess[over]))))
        x = (1.0 - t) * x + t * lowest
    return x


def _active_set(
    q: np.ndarray,
    lin: np.ndarray,
    layer: np.ndarray,
    rows: np.ndarray,
    bounds: np.ndarray,
    x: np.ndarray,
    max_iter: int,
):
    """Primal active-set method on ``min x^T q x + 2 lin^T x``.

    The constraints are ``x >= 0``, ``sum_{layer[k] = r} x_k = 1`` for each
    simplex row ``r`` and ``rows @ x <= bounds``; ``x`` is a feasible
    start.  Returns ``(x, half_nu, half_mu, iterations, status)``: the
    last iterate, the last KKT solve's multipliers halved (``ν/2``,
    ``μ/2``), the number of KKT solves, and ``"optimal"``,
    ``"iteration cap"`` or ``"singular KKT system"``.  The iterate stays
    in ``[0, 1]^n`` even when a step's target is far outside it, so it is
    the point the bound is evaluated at.
    """
    n, m = x.size, bounds.size
    n_simplex = int(layer[-1]) + 1
    size = n + n_simplex + m
    # One KKT system over (z, ν/2, μ/2) with an equation per constraint.
    # A variable in the working set has its stationarity equation pinned
    # to z_k = 0, and a budget row outside it has its row pinned to
    # μ_j = 0, so a working-set change rewrites one equation.
    full = np.zeros((size, size))
    full[:n, :n] = q + _RIDGE * np.eye(n)
    full[np.arange(n), n + layer] = 1.0
    full[n + layer, np.arange(n)] = 1.0
    full[:n, n + n_simplex :] = rows.T
    full[n + n_simplex :, :n] = rows
    full_rhs = np.concatenate([-lin, np.ones(n_simplex), bounds])
    pinned = np.eye(size)
    kkt, rhs = full.copy(), full_rhs.copy()

    def pin(eq: int, on: bool) -> None:
        kkt[eq] = pinned[eq] if on else full[eq]
        rhs[eq] = 0.0 if on else full_rhs[eq]

    at_zero = x <= 0.0
    x = np.where(at_zero, 0.0, x)
    tight = np.zeros(m, dtype=bool)
    for eq in np.flatnonzero(at_zero):
        pin(eq, True)
    for j in range(m):
        pin(n + n_simplex + j, True)
    half_nu, half_mu = np.zeros(n_simplex), np.zeros(m)
    stalled = False  # no movement since the last step of positive length
    for iteration in range(1, max_iter + 1):
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return x, half_nu, half_mu, iteration, "singular KKT system"
        if not np.isfinite(sol).all():
            return x, half_nu, half_mu, iteration, "singular KKT system"
        z = np.where(at_zero, 0.0, sol[:n])
        half_nu = sol[n : n + n_simplex]
        half_mu = np.where(tight, sol[n + n_simplex :], 0.0)
        p = z - x
        p_max = float(np.abs(p).max())
        noise = _STEP_TOL * max(1.0, p_max)

        # Ratio test over the constraints outside the working set: the
        # bounds (index k) and then the budget rows (index n + j).
        falling = np.flatnonzero(~at_zero & (p < -noise))
        growth = rows @ p
        rising = np.flatnonzero(~tight & (growth > noise))
        ratios = np.concatenate(
            [
                np.maximum(x[falling], 0.0) / -p[falling],
                np.maximum(bounds[rising] - rows[rising] @ x, 0.0)
                / growth[rising],
            ]
        )
        if ratios.size and ratios.min() < 1.0:
            step = float(ratios.min())
            blockers = np.concatenate([falling, n + rising])
            if stalled:
                pick = int(blockers[ratios <= step].min())
            else:
                pick = int(blockers[np.argmin(ratios)])
            x = x + step * p
            stalled = step * p_max <= _STEP_TOL
            if pick < n:
                at_zero[pick] = True
                x[pick] = 0.0
                pin(pick, True)
            else:
                tight[pick - n] = True
                pin(n_simplex + pick, False)
            continue

        # Full step: z minimises the objective on the working set.
        if p_max > _STEP_TOL:
            stalled = False
        x = z
        grad = q @ z + lin + half_nu[layer] + rows.T @ half_mu
        duals = np.concatenate([grad[at_zero], half_mu[tight]])
        if duals.size == 0 or duals.min() >= -_KKT_TOL:
            return x, half_nu, half_mu, iteration, "optimal"
        members = np.concatenate([np.flatnonzero(at_zero), n + np.flatnonzero(tight)])
        if stalled:
            pick = int(members[duals < -_KKT_TOL].min())
        else:
            pick = int(members[np.argmin(duals)])
        if pick < n:
            at_zero[pick] = False
            pin(pick, False)
        else:
            tight[pick - n] = False
            pin(n_simplex + pick, True)
    return x, half_nu, half_mu, max_iter, "iteration cap"


def _certified_bound(
    q: np.ndarray,
    lin: np.ndarray,
    layer: np.ndarray,
    rows: np.ndarray,
    bounds: np.ndarray,
    x: np.ndarray,
    half_nu: np.ndarray,
    half_mu: np.ndarray,
) -> float:
    """The Lagrangian bound of the module docstring at ``x̂ = x``, less ``c``.

    Negative ``μ`` entries are clipped to zero, which keeps it valid.
    """
    half_mu = np.maximum(half_mu, 0.0)
    half_grad = q @ x + lin + half_nu[layer] + rows.T @ half_mu
    return float(
        -(x @ q @ x)
        + 2.0
        * (np.minimum(half_grad, 0.0).sum() - half_nu.sum() - bounds @ half_mu)
    )


class Relaxation:
    """The node relaxations of one problem.

    The symmetrised matrix, the budget rows and their per-layer minima are
    computed once, so branch-and-bound pays for them once per solve rather
    than once per node.
    """

    def __init__(self, problem: MPQProblem) -> None:
        self.problem = problem
        self.g_sym = 0.5 * (problem.sensitivity + problem.sensitivity.T)
        self.rows = np.vstack(
            [problem.size_vector().astype(np.float64)]
            + [coeffs.ravel() for coeffs, _ in problem.extra_constraints]
        )
        self.bounds = np.array(
            [float(problem.budget_bits)]
            + [bound for _, bound in problem.extra_constraints]
        )
        self.row_minima = self.rows.reshape(
            len(self.rows), problem.num_layers, problem.num_choices
        ).min(axis=2)

    def solve(
        self,
        fixed: Optional[Dict[int, int]] = None,
        warm_start: Optional[np.ndarray] = None,
        max_iter: int = 200,
    ) -> RelaxationResult:
        """Bound the node that pins ``fixed`` (``layer -> choice index``)."""
        problem = self.problem
        fixed = fixed or {}
        nb = problem.num_choices
        nv = problem.num_vars

        fixed_alpha = np.zeros(nv)
        free_var = np.ones(nv, dtype=bool)
        for layer, m in fixed.items():
            free_var[layer * nb : (layer + 1) * nb] = False
            fixed_alpha[layer * nb + m] = 1.0
        free_layers = [i for i in range(problem.num_layers) if i not in fixed]

        # Prechecks: the node is infeasible when even its all-lowest-bits
        # completion breaks a budget row.
        fixed_part = self.rows @ fixed_alpha
        min_part = self.row_minima[:, free_layers].sum(axis=1)
        over = fixed_part + min_part > self.bounds + _PRECHECK_TOL
        if over.any():
            return RelaxationResult(
                alpha=fixed_alpha,
                lower_bound=np.inf,
                feasible=False,
                converged=True,
                message=(
                    "budget infeasible under fixed assignments"
                    if over[0]
                    else "extra constraint infeasible under fixed assignments"
                ),
            )
        if not free_layers:
            obj = float(fixed_alpha @ self.g_sym @ fixed_alpha)
            return RelaxationResult(
                alpha=fixed_alpha, lower_bound=obj, feasible=True, converged=True
            )

        q, lin, const = _reduced_quadratic(self.g_sym, fixed_alpha, free_var)
        # Scale the objective to max|Q| = 1 and each budget row to a
        # largest coefficient of 1; the tolerances above are in these units.
        scale = float(np.abs(q).max()) or float(np.abs(lin).max()) or 1.0
        q, lin = q / scale, lin / scale
        rows = self.rows[:, free_var]
        bounds = self.bounds - fixed_part
        row_scale = np.abs(rows).max(axis=1)
        keep = row_scale > 0.0  # an all-zero row holds by the precheck
        rows = rows[keep] / row_scale[keep, None]
        bounds = bounds[keep] / row_scale[keep]
        layer = np.repeat(np.arange(len(free_layers)), nb)

        if warm_start is not None and np.asarray(warm_start).shape == (nv,):
            x0 = np.asarray(warm_start, dtype=np.float64)[free_var]
        else:
            x0 = np.full(free_var.sum(), 1.0 / nb)
        x0 = _feasible_start(x0, nb, rows, bounds)
        x, half_nu, half_mu, iterations, status = _active_set(
            q, lin, layer, rows, bounds, x0, max_iter
        )
        _QP_RELAXATIONS.add()
        _QP_ITERATIONS.add(iterations)
        if status == "iteration cap":
            _QP_CAPPED.add()
        lower = scale * _certified_bound(
            q, lin, layer, rows, bounds, x, half_nu, half_mu
        )

        alpha = fixed_alpha.copy()
        alpha[free_var] = np.clip(x, 0.0, 1.0)
        # Renormalize each free simplex block against solver round-off.
        for layer_index in free_layers:
            block = slice(layer_index * nb, (layer_index + 1) * nb)
            total = alpha[block].sum()
            if total > 0:
                alpha[block] /= total
        return RelaxationResult(
            alpha=alpha,
            lower_bound=lower + const,
            feasible=True,
            converged=status == "optimal",
            message=status,
        )


def solve_relaxation(
    problem: MPQProblem,
    fixed: Optional[Dict[int, int]] = None,
    warm_start: Optional[np.ndarray] = None,
    max_iter: int = 200,
) -> RelaxationResult:
    """Solve the simplex + knapsack relaxation, honouring fixed layers.

    Parameters
    ----------
    fixed:
        Mapping ``layer index -> choice index`` of variables pinned by the
        branch-and-bound tree.
    warm_start:
        Optional full-length alpha to initialize the free variables from.
    max_iter:
        Cap on active-set iterations; a capped solve still returns a
        certified (looser) ``lower_bound`` and reports
        ``converged=False``.
    """
    return Relaxation(problem).solve(fixed, warm_start, max_iter)
