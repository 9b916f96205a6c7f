"""Solver tests: cross-validation against exhaustive enumeration, invariants."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.solvers import (
    MPQProblem,
    greedy_construct,
    local_search,
    solve,
    solve_branch_and_bound,
    solve_dp,
    solve_exhaustive,
    solve_greedy,
    solve_relaxation,
)
from repro.solvers.qp_relax import Relaxation


def random_psd_problem(rng, num_layers, bits=(2, 4, 8), avg_budget=4.0):
    nb = len(bits)
    n = num_layers * nb
    a = rng.normal(size=(n, n))
    g = a @ a.T * 0.01
    sizes = rng.integers(10, 400, size=num_layers)
    budget = int(sizes.sum() * avg_budget)
    return MPQProblem(g, sizes, bits, budget)


def realistic_problem(rng, num_layers, bits=(2, 4, 8), avg_budget=4.0, cross=0.15):
    """Diagonal-dominant PSD matrix shaped like measured sensitivities."""
    nb = len(bits)
    n = num_layers * nb
    base = np.abs(rng.lognormal(-2, 1.0, size=num_layers))
    per_bit = np.array([1.0, 0.1, 0.002])[:nb]
    diag = (base[:, None] * per_bit[None, :]).ravel()
    g = np.diag(diag).copy()
    for i in range(n):
        for j in range(i + 1, n):
            if i // nb == j // nb:
                continue
            c = cross * np.sqrt(diag[i] * diag[j]) * rng.normal()
            g[i, j] = g[j, i] = c
    w, v = np.linalg.eigh(g)
    g = (v * np.clip(w, 0, None)) @ v.T
    sizes = rng.integers(10, 400, size=num_layers)
    return MPQProblem(g, sizes, bits, int(sizes.sum() * avg_budget))


def clipped_psd(rng, n):
    """Eigenvalue-clipped projection of a random symmetric matrix.

    Rank-deficient, and PSD only up to round-off, like ``core.psd``'s
    projection of a measured Ĝ.
    """
    a = rng.normal(size=(n, n))
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    return (v * np.clip(w, 0.0, None)) @ v.T


def bops_constraint(rng, sizes, bits, fraction):
    """A BOPs-style row (MACs x bits x 8-bit activations) and its bound."""
    macs = sizes * rng.integers(1, 20, size=len(sizes))
    coeffs = np.outer(macs, np.asarray(bits) * 8).astype(np.float64)
    low, high = coeffs[:, 0].sum(), coeffs[:, -1].sum()
    return coeffs, float(low + fraction * (high - low))


def subtree_optimum(problem, fixed):
    """Exhaustive IQP optimum over the completions of a node's fixings."""
    best = np.inf
    for combo in itertools.product(
        range(problem.num_choices), repeat=problem.num_layers
    ):
        if any(combo[i] != m for i, m in fixed.items()):
            continue
        if problem.is_feasible(combo):
            best = min(best, problem.objective(combo))
    return best


class TestMPQProblem:
    def test_size_vector(self):
        p = MPQProblem(np.zeros((4, 4)), [3, 5], (2, 4), 100)
        np.testing.assert_array_equal(p.size_vector(), [6, 12, 10, 20])

    def test_objective_matches_quadratic_form(self):
        rng = np.random.default_rng(0)
        p = random_psd_problem(rng, 3)
        choice = np.array([0, 1, 2])
        alpha = p.choice_to_alpha(choice)
        assert p.objective(choice) == pytest.approx(
            float(alpha @ p.sensitivity @ alpha)
        )

    def test_feasibility(self):
        p = MPQProblem(np.zeros((4, 4)), [10, 10], (2, 4), 60)
        assert p.is_feasible([0, 0])
        assert p.is_feasible([0, 1])
        assert not p.is_feasible([1, 1])

    def test_choice_bits(self):
        p = MPQProblem(np.zeros((4, 4)), [1, 1], (2, 4), 100)
        np.testing.assert_array_equal(p.choice_bits([1, 0]), [4, 2])

    def test_validation(self):
        with pytest.raises(ValueError):
            MPQProblem(np.zeros((3, 3)), [1, 1], (2, 4), 10)
        with pytest.raises(ValueError):
            MPQProblem(np.zeros((4, 4)), [1, 1], (4, 2), 10)
        with pytest.raises(ValueError):
            MPQProblem(np.zeros((4, 4)), [0, 1], (2, 4), 10)
        with pytest.raises(ValueError):
            MPQProblem(np.zeros((4, 4)), [1, 1], (2, 4), 10).objective([0])

    def test_is_diagonal(self):
        p = MPQProblem(np.eye(4), [1, 1], (2, 4), 100)
        assert p.is_diagonal()
        m = np.eye(4)
        m[0, 3] = 0.5
        assert not MPQProblem(m, [1, 1], (2, 4), 100).is_diagonal()

    def test_diagonal_costs_shape(self):
        p = MPQProblem(np.diag(np.arange(6.0)), [1, 1], (2, 4, 8), 100)
        costs = p.diagonal_costs()
        np.testing.assert_array_equal(costs, [[0, 1, 2], [3, 4, 5]])


class TestExhaustive:
    def test_small_instance(self):
        rng = np.random.default_rng(1)
        p = random_psd_problem(rng, 3)
        result = solve_exhaustive(p)
        assert result.optimal
        assert p.is_feasible(result.choice)

    def test_space_cap(self):
        p = MPQProblem(np.zeros((60, 60)), [1] * 20, (2, 4, 8), 1000)
        with pytest.raises(ValueError):
            solve_exhaustive(p, max_nodes=100)

    def test_infeasible_raises(self):
        p = MPQProblem(np.zeros((4, 4)), [100, 100], (2, 4), 10)
        with pytest.raises(ValueError):
            solve_exhaustive(p)


class TestDP:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_exhaustive_on_diagonal(self, seed):
        rng = np.random.default_rng(seed)
        num_layers = int(rng.integers(2, 6))
        diag = np.abs(rng.normal(size=num_layers * 3))
        sizes = rng.integers(5, 100, size=num_layers)
        budget = int(sizes.sum() * rng.uniform(2.2, 7.5))
        p = MPQProblem(np.diag(diag), sizes, (2, 4, 8), budget)
        dp = solve_dp(p)
        ex = solve_exhaustive(p)
        assert dp.objective == pytest.approx(ex.objective, abs=1e-10)
        assert p.is_feasible(dp.choice)

    def test_rejects_nonseparable(self):
        m = np.eye(6)
        m[0, 5] = 0.1
        p = MPQProblem(m, [1, 1], (2, 4, 8), 100)
        with pytest.raises(ValueError):
            solve_dp(p)

    def test_explicit_costs_override(self):
        p = MPQProblem(np.zeros((6, 6)), [10, 10], (2, 4, 8), 200)
        costs = np.array([[5.0, 1.0, 0.0], [5.0, 1.0, 0.0]])
        result = solve_dp(p, costs=costs)
        # Budget allows 8+8? 10*8+10*8=160 <= 200: both at 8 bits.
        np.testing.assert_array_equal(result.choice, [2, 2])

    def test_infeasible_raises(self):
        p = MPQProblem(np.zeros((4, 4)), [100, 100], (2, 4), 100)
        with pytest.raises(ValueError):
            solve_dp(p, costs=np.zeros((2, 2)))

    def test_negative_costs_supported(self):
        """Measured sensitivities can be negative; DP must still be exact."""
        p = MPQProblem(np.zeros((6, 6)), [10, 10], (2, 4, 8), 120)
        costs = np.array([[1.0, -2.0, 0.0], [0.5, 0.2, -0.1]])
        dp = solve_dp(p, costs=costs)
        best, best_obj = None, np.inf
        import itertools

        for combo in itertools.product(range(3), repeat=2):
            if p.is_feasible(list(combo)):
                obj = costs[0, combo[0]] + costs[1, combo[1]]
                if obj < best_obj:
                    best, best_obj = combo, obj
        assert dp.objective == pytest.approx(best_obj)


class TestBranchAndBound:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_matches_exhaustive_psd(self, seed):
        rng = np.random.default_rng(seed)
        num_layers = int(rng.integers(2, 5))
        p = random_psd_problem(rng, num_layers, avg_budget=float(rng.uniform(2.5, 7)))
        bb = solve_branch_and_bound(p, time_limit=30)
        ex = solve_exhaustive(p)
        assert bb.objective == pytest.approx(ex.objective, abs=1e-6)
        assert p.is_feasible(bb.choice)

    def test_realistic_instance_certifies(self):
        rng = np.random.default_rng(5)
        p = realistic_problem(rng, 10)
        result = solve_branch_and_bound(p, time_limit=60)
        assert result.optimal
        assert result.lower_bound <= result.objective + 1e-9

    def test_indefinite_matrix_heuristic_path(self):
        rng = np.random.default_rng(6)
        n = 9
        a = rng.normal(size=(n, n))
        g = 0.5 * (a + a.T)  # indefinite
        p = MPQProblem(g, [10, 20, 30], (2, 4, 8), 30 * 60)
        result = solve_branch_and_bound(p, time_limit=5, max_nodes=50)
        assert p.is_feasible(result.choice)
        assert result.extras["psd"] is False

    def test_budget_larger_than_max_trivial(self):
        rng = np.random.default_rng(7)
        p = realistic_problem(rng, 4, avg_budget=100.0)
        result = solve_branch_and_bound(p)
        # Unconstrained: optimum should be (near) all-8-bit.
        ex = solve_exhaustive(p)
        assert result.objective == pytest.approx(ex.objective, abs=1e-9)

    def test_bb_stays_exact_when_every_relaxation_is_capped(self, monkeypatch):
        """B&B prunes on the capped bound alone and branches capped nodes.

        Every relaxation stops after two iterations and reports a one-hot
        iterate, as a solve stopped at a vertex would.  That iterate
        proves nothing about the node's subtree, so the node is branched.
        """
        solve_node = Relaxation.solve

        def stopped_at_vertex(self, fixed=None, warm_start=None, max_iter=200):
            relax = solve_node(self, fixed, warm_start, 2)
            blocks = relax.alpha.reshape(self.problem.num_layers, -1)
            relax.alpha = np.eye(blocks.shape[1])[blocks.argmax(axis=1)].ravel()
            relax.converged = False
            return relax

        monkeypatch.setattr(Relaxation, "solve", stopped_at_vertex)
        for seed in range(120):
            rng = np.random.default_rng(seed)
            num_layers = int(rng.integers(2, 6))
            a = rng.integers(-2, 3, size=(3 * num_layers,) * 2).astype(float)
            sizes = rng.integers(1, 5, size=num_layers) * 10
            budget = int(sizes.sum() * rng.integers(2, 9))
            p = MPQProblem(a @ a.T, sizes, (2, 4, 8), budget)
            result = solve_branch_and_bound(p, max_nodes=5000)
            assert result.optimal
            assert result.objective == pytest.approx(
                solve_exhaustive(p).objective, rel=1e-12
            )


class TestGreedyAndLocalSearch:
    def test_greedy_feasible(self):
        rng = np.random.default_rng(8)
        for avg in (2.2, 3.0, 5.0):
            p = realistic_problem(rng, 8, avg_budget=avg)
            choice = greedy_construct(p)
            assert p.is_feasible(choice)

    def test_greedy_infeasible_raises(self):
        p = MPQProblem(np.zeros((4, 4)), [100, 100], (2, 4), 10)
        with pytest.raises(ValueError):
            greedy_construct(p)

    def test_local_search_never_worsens(self):
        rng = np.random.default_rng(9)
        p = realistic_problem(rng, 8)
        start = greedy_construct(p)
        improved = local_search(p, start)
        assert p.objective(improved) <= p.objective(start) + 1e-12
        assert p.is_feasible(improved)

    def test_solve_greedy_result_fields(self):
        rng = np.random.default_rng(10)
        p = realistic_problem(rng, 6)
        result = solve_greedy(p)
        assert result.method == "greedy"
        assert not result.optimal
        assert result.size_bits <= p.budget_bits

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=10, deadline=None)
    def test_greedy_closes_most_of_the_gap(self, seed):
        """Greedy+LS closes >= 50% of the naive-to-optimal objective gap.

        The naive reference is the always-feasible all-min-bits corner; a
        fixed relative-to-optimum tolerance would be meaningless when the
        optimum is near zero.
        """
        rng = np.random.default_rng(seed)
        p = realistic_problem(rng, 4)
        gr = solve_greedy(p)
        ex = solve_exhaustive(p)
        naive = p.objective(np.zeros(p.num_layers, dtype=np.int64))
        gap = max(naive - ex.objective, 0.0)
        assert gr.objective <= ex.objective + 0.5 * gap + 1e-9


class TestRelaxation:
    def test_lower_bound_below_integer_optimum(self):
        rng = np.random.default_rng(11)
        p = random_psd_problem(rng, 4)
        relax = solve_relaxation(p)
        ex = solve_exhaustive(p)
        assert relax.lower_bound <= ex.objective + 1e-6

    def test_fixed_layers_respected(self):
        rng = np.random.default_rng(12)
        p = random_psd_problem(rng, 4)
        relax = solve_relaxation(p, fixed={0: 2, 2: 0})
        nb = p.num_choices
        assert relax.alpha[0 * nb + 2] == 1.0
        assert relax.alpha[2 * nb + 0] == 1.0

    def test_all_fixed_returns_objective(self):
        rng = np.random.default_rng(13)
        p = random_psd_problem(rng, 3)
        fixed = {0: 1, 1: 1, 2: 1}
        relax = solve_relaxation(p, fixed=fixed)
        assert relax.lower_bound == pytest.approx(p.objective([1, 1, 1]))

    def test_infeasible_fixed_detected(self):
        p = MPQProblem(np.zeros((4, 4)), [100, 100], (2, 4), 500)
        relax = solve_relaxation(p, fixed={0: 1, 1: 1})
        assert not relax.feasible

    def test_simplex_blocks_sum_to_one(self):
        rng = np.random.default_rng(14)
        p = random_psd_problem(rng, 5)
        relax = solve_relaxation(p)
        nb = p.num_choices
        for i in range(p.num_layers):
            block = relax.alpha[i * nb : (i + 1) * nb]
            assert block.sum() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_capped_solve_still_bounds_subtree(self, max_iter):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            p = random_psd_problem(
                rng, 5, avg_budget=float(rng.uniform(2.5, 6.0))
            )
            layers = rng.permutation(p.num_layers)[: rng.integers(0, 3)]
            fixed = {int(i): int(rng.integers(0, p.num_choices)) for i in layers}
            optimum = subtree_optimum(p, fixed)
            warm = rng.dirichlet(np.ones(p.num_choices), size=p.num_layers)
            relax = solve_relaxation(
                p, fixed=fixed, warm_start=warm.ravel(), max_iter=max_iter
            )
            if not np.isfinite(optimum):
                assert not relax.feasible
                continue
            assert relax.lower_bound <= optimum + 1e-12 * max(1.0, abs(optimum))

    @pytest.mark.parametrize("kind", ["full_rank", "clipped", "bops"])
    def test_gap_closes_at_convergence(self, kind):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            num_layers = int(rng.integers(3, 12))
            nb = 3
            sizes = rng.integers(10, 400, size=num_layers)
            if kind == "clipped":
                g = clipped_psd(rng, num_layers * nb)
            else:
                a = rng.normal(size=(num_layers * nb, num_layers * nb))
                g = a @ a.T * 0.01
            extra = ()
            if kind == "bops":
                extra = (bops_constraint(rng, sizes, (2, 4, 8), 0.4),)
            p = MPQProblem(
                g, sizes, (2, 4, 8), int(sizes.sum() * rng.uniform(2.5, 6.0)),
                extra,
            )
            relax = solve_relaxation(p)
            assert relax.converged, relax.message
            primal = p.objective_alpha(relax.alpha)
            assert abs(primal - relax.lower_bound) <= 1e-9 * max(1.0, abs(primal))
            assert p.size_vector() @ relax.alpha <= p.budget_bits * (1 + 1e-9)

    def test_capped_relaxation_counted(self):
        rng = np.random.default_rng(3)
        p = random_psd_problem(rng, 6)
        telemetry.reset()
        telemetry.enable()
        try:
            capped = solve_relaxation(p, max_iter=1)
            solve_relaxation(p)
            counters = telemetry.counters_snapshot()
        finally:
            telemetry.disable()
            telemetry.reset()
        assert not capped.converged
        assert counters["solver.qp_capped"] == 1
        assert counters["solver.qp_relaxations"] == 2
        assert counters["solver.qp_iterations"] > 2


class TestLadderAgainstExhaustive:
    def test_qp_round_bound_holds_on_indefinite_matrices(self):
        """A one-node solve rounds the root relaxation of the shifted convex
        surrogate, so its bound holds on an indefinite matrix too."""
        for seed in range(60):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(12, 12))
            sizes = rng.integers(10, 400, size=4)
            budget = int(sizes.sum() * rng.uniform(2.5, 7.0))
            p = MPQProblem(0.5 * (a + a.T), sizes, (2, 4, 8), budget)
            rounded = solve_branch_and_bound(p, max_nodes=1)
            optimum = solve_exhaustive(p).objective
            assert p.is_feasible(rounded.choice)
            assert rounded.lower_bound <= optimum + 1e-12 * max(1.0, abs(optimum))

    @given(
        seed=st.integers(0, 2**32 - 1),
        num_layers=st.integers(2, 5),
        clipped=st.booleans(),
        budget=st.sampled_from(["min", "max", "between"]),
        bops=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bb_rung_matches_exhaustive(
        self, seed, num_layers, clipped, budget, bops
    ):
        rng = np.random.default_rng(seed)
        bits = (2, 4, 8)
        n = num_layers * len(bits)
        if clipped:
            g = clipped_psd(rng, n)
        else:
            a = rng.normal(size=(n, n))
            g = a @ a.T
        sizes = rng.integers(10, 400, size=num_layers)
        budget_bits = {
            "min": int(sizes.sum()) * bits[0],
            "max": int(sizes.sum()) * bits[-1],
            "between": int(sizes.sum() * rng.uniform(bits[0], bits[-1])),
        }[budget]
        extra = (bops_constraint(rng, sizes, bits, rng.uniform()),) if bops else ()
        p = MPQProblem(g, sizes, bits, budget_bits, extra)
        result = solve(p, method="bb")
        exact = solve_exhaustive(p)
        assert result.optimal
        assert result.objective == pytest.approx(exact.objective, rel=1e-12)


class TestSolveDispatch:
    def test_auto_routes_diagonal_to_dp(self):
        p = MPQProblem(np.diag(np.arange(6.0) + 1), [5, 5], (2, 4, 8), 100)
        assert solve(p).method == "dp"

    def test_auto_routes_quadratic_to_bb(self):
        rng = np.random.default_rng(15)
        p = random_psd_problem(rng, 3)
        assert solve(p).method == "branch_and_bound"

    def test_explicit_methods(self):
        rng = np.random.default_rng(16)
        p = random_psd_problem(rng, 3)
        assert solve(p, method="greedy").method == "greedy"
        assert solve(p, method="exhaustive").method == "exhaustive"

    def test_unknown_method(self):
        p = MPQProblem(np.eye(4), [1, 1], (2, 4), 100)
        with pytest.raises(ValueError):
            solve(p, method="quantum")

    def test_fallback_is_not_a_method(self):
        """Branch-and-bound is the one quadratic solve."""
        p = random_psd_problem(np.random.default_rng(17), 3)
        with pytest.raises(ValueError, match="fallback"):
            solve(p, method="fallback")
