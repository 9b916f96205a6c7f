"""Exact branch-and-bound for the Integer Quadratic Program of Eq. 11.

This is the reproduction's replacement for CVXPY + Gurobi.  Best-first
search over per-layer one-hot decisions:

- **bounding** — the convex QP relaxation (``qp_relax``) at each node,
  solved by a primal active-set method.  The node bound is a certified
  Lagrangian bound computed from that solver's primal–dual output, valid
  whether or not the solve converged, so pruning is exact and a finished
  search returns a certified optimum.
- **incumbents** — greedy construction + local search at the root, then
  rounding-and-repair of every node relaxation.
- **branching** — on the layer whose relaxed block is most fractional.

The bound needs a convex relaxation.  Every matrix goes through the shift
identity ``x^T G x = x^T (G - λI) x + λ ||x||^2`` with
``λ = min(λ_min(G), 0)`` and ``||x||^2 = I`` for one-hot blocks, giving
``bound = relax(G - λI) + λ I`` (``qp_relax.convex_surrogate``).  For a
PSD matrix, or one within round-off of PSD, the shift is zero or
negligible.  For an *indefinite* matrix (the paper's no-PSD ablation,
§7/Fig. 7) it makes the bound loose, so the solver typically hits its node
cap and returns a non-certified incumbent — reproducing the paper's
observation that the solver stops converging without the PSD projection.
"""

from __future__ import annotations

import heapq
import itertools
from time import perf_counter
from typing import Dict, Optional

import numpy as np

from .. import telemetry
from .greedy import greedy_construct, local_search
from .problem import InfeasibleBudgetError, MPQProblem, SolveResult
from .qp_relax import Relaxation, convex_surrogate

__all__ = ["solve_branch_and_bound"]

_BOUND_SLACK = 1e-9

_NODES_EXPANDED = telemetry.counter("solver.bb_nodes_expanded")
_BOUNDS_PRUNED = telemetry.counter("solver.bb_bounds_pruned")


def _round_and_repair(problem: MPQProblem, alpha: np.ndarray) -> np.ndarray:
    """Round a fractional relaxation to a feasible integer assignment."""
    nb = problem.num_choices
    choice = np.asarray(
        [int(np.argmax(alpha[i * nb : (i + 1) * nb])) for i in range(problem.num_layers)],
        dtype=np.int64,
    )
    bits = np.asarray(problem.bits, dtype=np.int64)
    size = problem.assignment_size_bits(choice)
    # Repair: demote the layer with the largest per-bit mass until feasible
    # (extra-constraint coefficients are non-decreasing in the bit index,
    # so demotion helps every budget simultaneously).
    while size > problem.budget_bits or not problem.is_feasible(choice):
        candidates = [i for i in range(problem.num_layers) if choice[i] > 0]
        if not candidates:
            raise ValueError("cannot repair: all layers already at min bits")
        # Largest size reduction first brings us to feasibility quickly;
        # local search afterwards cleans up the objective.
        best = max(
            candidates,
            key=lambda i: problem.layer_sizes[i]
            * (bits[choice[i]] - bits[choice[i] - 1]),
        )
        size -= int(
            problem.layer_sizes[best] * (bits[choice[best]] - bits[choice[best] - 1])
        )
        choice[best] -= 1
    return choice


def _fractionality(alpha_block: np.ndarray) -> float:
    """0 for one-hot, larger the more spread the block is."""
    return 1.0 - float(alpha_block.max(initial=0.0))


def _check_budgets(problem: MPQProblem) -> None:
    """Raise :class:`InfeasibleBudgetError` naming the first budget that the
    all-minimum-bits assignment, the cheapest under every budget, breaks."""
    if problem.min_size_bits() > problem.budget_bits:
        raise InfeasibleBudgetError(
            f"budget {problem.budget_bits} bits below the all-minimum-bits "
            f"size {problem.min_size_bits()} bits",
            budget_bits=int(problem.budget_bits),
            min_size_bits=problem.min_size_bits(),
        )
    for k, (coeffs, bound) in enumerate(problem.extra_constraints):
        lowest = float(coeffs[:, 0].sum())
        if lowest > bound + 1e-9:
            raise InfeasibleBudgetError(
                f"extra budget {k} ({bound:.6g}) below its all-minimum-bits "
                f"cost {lowest:.6g}"
            )


def solve_branch_and_bound(
    problem: MPQProblem,
    time_limit: float = 60.0,
    max_nodes: int = 20_000,
    gap_tol: float = 1e-9,
    assume_psd: Optional[bool] = None,
) -> SolveResult:
    """Solve the IQP; exact (certified) when the matrix is PSD.

    The greedy incumbent is built before any relaxation and the search
    only replaces it by a better one, so a feasible assignment always
    comes back.  ``extras["degraded"]`` is True when the search stopped
    at ``max_nodes`` or ``time_limit``, or on a ``LinAlgError`` or
    ``FloatingPointError``, and returned its best incumbent; a finished
    search is never degraded, certified or not.

    Parameters
    ----------
    time_limit / max_nodes:
        Resource caps; on hitting either, the best incumbent is returned
        with ``optimal=False``.
    assume_psd:
        Whether a finished search may report a certified optimum; by
        default, whether the smallest eigenvalue of the symmetrized matrix
        is within round-off of PSD.  The node bounds come from the convex
        surrogate either way, so they stay valid.

    Raises
    ------
    InfeasibleBudgetError
        When the all-minimum-bits assignment breaks the size budget or an
        extra budget.
    """
    t0 = perf_counter()
    _check_budgets(problem)
    # Greedy floor: built before any relaxation, so a numerical failure in
    # the surrogate or the tree still returns a feasible assignment.
    incumbent = local_search(problem, greedy_construct(problem))
    best_obj = problem.objective(incumbent)
    shift, nodes, proven, lower_bound_global = 0.0, 0, False, None
    message = "incumbent"

    counter = itertools.count()
    try:
        bound_problem, shift, assume_psd = convex_surrogate(problem, assume_psd)
        relaxation = Relaxation(bound_problem)

        def node_bound(lb_shifted: float) -> float:
            # One-hot alphas have ||alpha||^2 = I exactly.
            return lb_shifted + shift * problem.num_layers

        with telemetry.span("solve.bb"):
            root = relaxation.solve()
            if not root.feasible:
                raise InfeasibleBudgetError(
                    "root relaxation infeasible: budget below min size",
                    budget_bits=int(problem.budget_bits),
                    min_size_bits=problem.min_size_bits(),
                )
            heap = [
                (node_bound(root.lower_bound), next(counter), {}, root.alpha,
                 root.converged)
            ]
            proven = True
            lower_bound_global = node_bound(root.lower_bound)

            while heap:
                lb, _, fixed, alpha, converged = heapq.heappop(heap)
                lower_bound_global = lb
                if lb >= best_obj - gap_tol:
                    break  # everything remaining is dominated
                if nodes >= max_nodes or perf_counter() - t0 > time_limit:
                    proven = False
                    break
                nodes += 1
                _NODES_EXPANDED.add()

                # Candidate incumbent from this node's relaxation.
                try:
                    rounded = _round_and_repair(problem, alpha)
                    rounded = local_search(problem, rounded)
                    obj = problem.objective(rounded)
                    if obj < best_obj - 1e-15:
                        best_obj = obj
                        incumbent = rounded
                except ValueError:
                    pass

                # Pick branching layer: most fractional free block.
                nb = problem.num_choices
                frac = [
                    (_fractionality(alpha[i * nb : (i + 1) * nb]), i)
                    for i in range(problem.num_layers)
                    if i not in fixed
                ]
                if not frac:
                    continue  # fully fixed leaf
                frac.sort(reverse=True)
                branch_layer = frac[0][1]
                if frac[0][0] < 1e-9 and converged:
                    # Relaxation is integral at this node: its bound equals
                    # the objective of the integral solution; nothing to
                    # branch on.  (A capped relaxation's iterate proves
                    # nothing, so its node is branched like any other.)
                    continue

                for m in range(problem.num_choices):
                    child_fixed: Dict[int, int] = dict(fixed)
                    child_fixed[branch_layer] = m
                    relax = relaxation.solve(child_fixed, warm_start=alpha)
                    if not relax.feasible:
                        continue
                    child_lb = node_bound(relax.lower_bound) - _BOUND_SLACK
                    if child_lb >= best_obj - gap_tol:
                        _BOUNDS_PRUNED.add()
                        continue
                    heapq.heappush(
                        heap,
                        (child_lb, next(counter), child_fixed, relax.alpha,
                         relax.converged),
                    )
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        proven, lower_bound_global = False, None
        message = f"incumbent after {type(exc).__name__}: {exc}"

    certified = proven and bool(assume_psd)
    return SolveResult(
        choice=incumbent,
        objective=best_obj,
        size_bits=problem.assignment_size_bits(incumbent),
        optimal=certified,
        method="branch_and_bound",
        nodes=nodes,
        wall_time=perf_counter() - t0,
        lower_bound=(
            None if lower_bound_global is None
            else min(lower_bound_global, best_obj)
        ),
        message="certified optimum" if certified else message,
        extras={"psd": bool(assume_psd), "shift": shift, "degraded": not proven},
    )
