"""Solver degradation ladder: always return a feasible assignment in time.

Branch-and-bound is exact but unpredictable — an indefinite matrix, a tight
budget, or plain bad luck in the tree can blow through any wall-clock
allowance (HAWQ-V3 and MPQCO both call solver time out as the practical
bottleneck).  :func:`solve_with_fallback` turns that into a bounded-time
contract by descending a ladder of rungs::

    bb        exact branch-and-bound under a wall-clock/node budget
    qp_round  one convex QP relaxation, rounded and repaired, local-searched
    greedy    greedy construction + local search (no relaxation at all)

Every rung that produces a feasible assignment becomes a *candidate*; the
ladder keeps the best incumbent across rungs (best objective, earlier rung
on ties) rather than blindly trusting the last one to run.  A certified
branch-and-bound optimum short-circuits the descent.  Numerical failures
(``ValueError``, ``FloatingPointError``, ``LinAlgError``) demote to the
next rung; :class:`InfeasibleBudgetError` is a property of the *problem*,
not the rung, and always propagates.

The winning rung, per-rung outcomes, and the deadline are recorded in the
result's ``extras`` and in the active telemetry run manifest, so a
production run always shows *how* its allocation was obtained.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..robustness import DeadlineExpired
from ..robustness.faults import FaultPlan, resolve_fault_plan
from .branch_bound import _round_and_repair, solve_branch_and_bound
from .greedy import local_search, solve_greedy
from .problem import InfeasibleBudgetError, MPQProblem, SolveResult
from .qp_relax import convex_surrogate, solve_relaxation

__all__ = ["LADDER_RUNGS", "WARM_RUNG", "relax_and_round", "solve_with_fallback"]

#: Ladder rungs in descent order.
LADDER_RUNGS = ("bb", "qp_round", "greedy")

#: Optional extra rung: repair + polish a caller-provided warm start (an
#: adjacent budget's solution in a Pareto-grid sweep).  Attempted *after*
#: greedy so its candidate loses objective ties to every cold rung —
#: a cold solve stays bitwise identical whether or not a warm start was
#: offered and merely lost.
WARM_RUNG = "warm"

#: Fraction of the total deadline granted to branch-and-bound; the rest is
#: headroom for the (much cheaper) fallback rungs.
_BB_DEADLINE_FRACTION = 0.7

#: Exceptions that demote to the next rung instead of failing the solve.
#: InfeasibleBudgetError subclasses ValueError and must be re-raised first.
_NUMERICAL_FAILURES = (ValueError, FloatingPointError, np.linalg.LinAlgError)

_FALLBACK_RUNS = telemetry.counter("solver.fallback_runs")
_RUNG_WINS = {
    rung: telemetry.counter(f"solver.rung_{rung}_wins")
    for rung in LADDER_RUNGS + (WARM_RUNG,)
}
_RUNG_FAILURES = telemetry.counter("solver.rung_failures")
_DEADLINE_EXPIRED = telemetry.counter("solver.deadline_expirations")


def relax_and_round(
    problem: MPQProblem, max_iter: int = 200
) -> SolveResult:
    """The ``qp_round`` rung: one root QP relaxation, rounded to feasibility.

    Solves the simplex + knapsack relaxation once, rounds each layer block
    to its heaviest choice, repairs the budget by demoting the largest
    per-bit-mass layers, and polishes with local search — the same
    incumbent recipe branch-and-bound applies per node, paid exactly once.
    The relaxation is that of the convex surrogate branch-and-bound bounds
    with, so ``lower_bound`` is certified on an indefinite matrix too.
    """
    t0 = perf_counter()
    surrogate, shift, _ = convex_surrogate(problem)
    relax = solve_relaxation(surrogate, fixed={}, max_iter=max_iter)
    if not relax.feasible:
        raise InfeasibleBudgetError(
            "root relaxation infeasible: budget below min size",
            budget_bits=int(problem.budget_bits),
            min_size_bits=problem.min_size_bits(),
        )
    choice = _round_and_repair(problem, relax.alpha)
    choice = local_search(problem, choice)
    return SolveResult(
        choice=choice,
        objective=problem.objective(choice),
        size_bits=problem.assignment_size_bits(choice),
        optimal=False,
        method="qp_round",
        iterations=1,
        wall_time=perf_counter() - t0,
        lower_bound=float(relax.lower_bound + shift * problem.num_layers),
        message="rounded relaxation",
    )


def warm_start_solve(problem: MPQProblem, warm_choice) -> SolveResult:
    """The ``warm`` rung: repair + polish an adjacent budget's assignment.

    Pareto-grid queries solve the same sensitivities under adjacent
    budgets; the previous budget's choice, demoted into this budget by
    the branch-and-bound repair recipe and polished with local search, is
    a strong incumbent for milliseconds of work.
    """
    t0 = perf_counter()
    choice = np.asarray(warm_choice, dtype=np.int64)
    if choice.shape != (problem.num_layers,):
        raise ValueError(
            f"warm start has {choice.shape} choices for "
            f"{problem.num_layers} layers"
        )
    choice = np.clip(choice, 0, problem.num_choices - 1)
    choice = _round_and_repair(problem, problem.choice_to_alpha(choice))
    choice = local_search(problem, choice)
    return SolveResult(
        choice=choice,
        objective=problem.objective(choice),
        size_bits=problem.assignment_size_bits(choice),
        optimal=False,
        method=WARM_RUNG,
        iterations=1,
        wall_time=perf_counter() - t0,
        message="warm-started from adjacent budget",
    )


def solve_with_fallback(
    problem: MPQProblem,
    deadline: Optional[float] = None,
    *,
    time_limit: Optional[float] = None,
    max_nodes: int = 20_000,
    gap_tol: float = 1e-9,
    assume_psd: Optional[bool] = None,
    fault_plan: Optional[FaultPlan] = None,
    warm_choice=None,
) -> SolveResult:
    """Solve the IQP down the degradation ladder within ``deadline`` seconds.

    Always returns a feasible :class:`SolveResult` when one exists: the
    greedy floor needs no relaxation, no eigendecomposition, and a few
    milliseconds even on the largest zoo models.  ``deadline`` is the
    total wall-clock allowance for the whole ladder; ``deadline=None``
    gives branch-and-bound ``time_limit`` seconds (its plain per-solver
    budget, default 60) and still falls through on numerical failure.

    Raises
    ------
    InfeasibleBudgetError
        When no assignment fits the budget (a problem property — no rung
        can fix it).
    DeadlineExpired
        Only when every rung — including greedy — failed to produce a
        feasible candidate, which an injected ``solver_deadline`` fault on
        every rung can force.
    """
    t0 = perf_counter()
    plan = resolve_fault_plan(fault_plan)
    _FALLBACK_RUNS.add()
    if problem.min_size_bits() > problem.budget_bits:
        raise InfeasibleBudgetError(
            f"budget {problem.budget_bits} bits below the all-minimum-bits "
            f"size {problem.min_size_bits()} bits",
            budget_bits=int(problem.budget_bits),
            min_size_bits=problem.min_size_bits(),
        )

    def remaining() -> Optional[float]:
        if deadline is None:
            return None
        return max(0.0, deadline - (perf_counter() - t0))

    ladder: List[Dict[str, object]] = []
    candidates: List[Tuple[float, int, str, SolveResult]] = []
    expired = False

    def attempt(rung: str, runner) -> Optional[SolveResult]:
        """Run one rung, recording its outcome; None when it yielded nothing."""
        nonlocal expired
        if plan is not None and plan.solver_expired(rung):
            # Injected expiry: the rung behaves as if its budget ran out
            # before producing anything.
            _DEADLINE_EXPIRED.add()
            expired = True
            ladder.append({"rung": rung, "status": "deadline_injected"})
            return None
        left = remaining()
        if left is not None and left <= 0.0 and rung != "greedy":
            # Real expiry: no time left for optional rungs; greedy is the
            # floor and always gets its few milliseconds.
            _DEADLINE_EXPIRED.add()
            expired = True
            ladder.append({"rung": rung, "status": "deadline_expired"})
            return None
        rung_t0 = perf_counter()
        try:
            result = runner()
        except InfeasibleBudgetError:
            raise  # problem-level: no lower rung can help
        except _NUMERICAL_FAILURES as exc:
            _RUNG_FAILURES.add()
            ladder.append(
                {
                    "rung": rung,
                    "status": "error",
                    "error": f"{type(exc).__name__}: {exc}",
                    "wall_time": perf_counter() - rung_t0,
                }
            )
            return None
        ladder.append(
            {
                "rung": rung,
                "status": "certified" if result.optimal else "incumbent",
                "objective": float(result.objective),
                "wall_time": perf_counter() - rung_t0,
            }
        )
        candidates.append(
            (float(result.objective), len(candidates), rung, result)
        )
        return result

    with telemetry.span("solve.fallback"):
        if deadline is not None and deadline <= 0.0:
            # Already expired at entry (a coordinator handing us a dead
            # budget, or an explicit "greedy only" request): don't spin
            # through rungs that would each re-discover the dead clock —
            # degrade straight to the greedy floor and mark it degraded.
            _DEADLINE_EXPIRED.add()
            expired = True
            ladder.append({"rung": "bb", "status": "deadline_preexpired"})
            ladder.append({"rung": "qp_round", "status": "deadline_preexpired"})
            attempt("greedy", lambda: solve_greedy(problem))
            if not candidates:
                raise DeadlineExpired(
                    f"no ladder rung produced a feasible assignment within "
                    f"{deadline}s (ladder: {ladder})",
                    rung="greedy",
                    deadline=float(deadline),
                )
            _, _, rung, best = candidates[0]
            return _finalize(best, rung, ladder, deadline, expired, t0)

        # Rung 1: exact branch-and-bound under a bounded budget.
        if deadline is not None:
            bb_budget = _BB_DEADLINE_FRACTION * deadline
        else:
            bb_budget = 60.0 if time_limit is None else float(time_limit)
        bb = attempt(
            "bb",
            lambda: solve_branch_and_bound(
                problem,
                time_limit=bb_budget,
                max_nodes=max_nodes,
                gap_tol=gap_tol,
                assume_psd=assume_psd,
            ),
        )
        if bb is not None and bb.optimal:
            return _finalize(bb, "bb", ladder, deadline, expired, t0)
        if bb is not None and deadline is not None:
            # The budget ran out mid-tree (non-certified return at or past
            # its allowance counts as expiry for the exit-code contract).
            if perf_counter() - t0 >= bb_budget:
                _DEADLINE_EXPIRED.add()
                expired = True

        # Rung 2: one rounded relaxation.
        attempt("qp_round", lambda: relax_and_round(problem))

        # Rung 3: greedy floor (always attempted — milliseconds, no
        # relaxation, and the "best incumbent" comparison is free).
        attempt("greedy", lambda: solve_greedy(problem))

        # Optional rung 4: a caller-provided warm start (adjacent budget's
        # assignment in a Pareto grid).  Attempted last so it loses ties
        # to every cold rung and cold solves stay bitwise reproducible.
        if warm_choice is not None:
            attempt(WARM_RUNG, lambda: warm_start_solve(problem, warm_choice))

    if not candidates:
        raise DeadlineExpired(
            f"no ladder rung produced a feasible assignment within "
            f"{deadline}s (ladder: {ladder})",
            rung="greedy",
            deadline=0.0 if deadline is None else float(deadline),
        )
    # Best incumbent across rungs; earlier rung wins exact ties.
    candidates.sort(key=lambda c: (c[0], c[1]))
    _, _, rung, best = candidates[0]
    return _finalize(best, rung, ladder, deadline, expired, t0)


def _finalize(
    result: SolveResult,
    rung: str,
    ladder: List[Dict[str, object]],
    deadline: Optional[float],
    expired: bool,
    t0: float,
) -> SolveResult:
    """Annotate the winning result and record the ladder in the manifest."""
    _RUNG_WINS[rung].add()
    degraded = rung != "bb" or expired
    result.extras = dict(result.extras)
    result.extras.update(
        {
            "rung": rung,
            "ladder": list(ladder),
            "deadline": -1.0 if deadline is None else float(deadline),
            "deadline_expired": bool(expired),
            "degraded": bool(degraded),
            "ladder_wall_time": perf_counter() - t0,
        }
    )
    run = telemetry.current_run()
    if run is not None:
        run.add_result(
            solver_rung=rung,
            solver_ladder=list(ladder),
            solver_deadline=-1.0 if deadline is None else float(deadline),
            solver_deadline_expired=bool(expired),
            solver_degraded=bool(degraded),
        )
    return result
