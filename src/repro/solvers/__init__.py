"""IQP/ILP solvers for the mixed-precision bit-allocation problem.

``solve`` is the front door: it dispatches to the knapsack DP for separable
(diagonal) objectives and to branch-and-bound for quadratic ones, mirroring
how the paper routes baselines to an ILP and CLADO to the Gurobi IQP.
Branch-and-bound is the one quadratic solve: it starts from the greedy
incumbent and, stopped by a cap or a numerical failure, returns its best
incumbent marked ``extras["degraded"]``.
"""

from __future__ import annotations

from .branch_bound import solve_branch_and_bound
from .dp import solve_dp
from .exhaustive import solve_exhaustive
from .greedy import greedy_construct, local_search, solve_greedy
from .problem import InfeasibleBudgetError, MPQProblem, SolveResult
from .qp_relax import RelaxationResult, solve_relaxation

__all__ = [
    "InfeasibleBudgetError",
    "MPQProblem",
    "SolveResult",
    "solve",
    "solve_exhaustive",
    "solve_dp",
    "solve_greedy",
    "solve_branch_and_bound",
    "solve_relaxation",
    "RelaxationResult",
    "greedy_construct",
    "local_search",
]


def solve(problem: MPQProblem, method: str = "auto", **kwargs) -> SolveResult:
    """Solve an MPQ instance.

    ``method`` is one of ``auto`` (DP for diagonal objectives, otherwise
    branch-and-bound), ``dp``, ``bb``, ``greedy``, or ``exhaustive``.
    """
    if method == "auto":
        method = "dp" if problem.is_diagonal() else "bb"
    if method == "dp":
        return solve_dp(problem, **kwargs)
    if method == "bb":
        return solve_branch_and_bound(problem, **kwargs)
    if method == "greedy":
        return solve_greedy(problem, **kwargs)
    if method == "exhaustive":
        return solve_exhaustive(problem, **kwargs)
    raise ValueError(f"unknown solver method {method!r}")
