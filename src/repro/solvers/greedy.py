"""Greedy construction and local search for the IQP.

Used (a) to seed branch-and-bound with a good incumbent, which is also
what it returns when a numerical failure stops it before any node, (b)
as the fast heuristic ``solve(method="greedy")``, and (c) to polish
rounded relaxation solutions.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Sequence

import numpy as np

from .problem import MPQProblem, SolveResult

__all__ = ["greedy_construct", "local_search", "solve_greedy"]


class _IncrementalObjective:
    """Maintains ``alpha^T G alpha`` under single-layer choice changes.

    Keeps ``y = G_sym @ alpha`` so a move costs O(|B|I) instead of a full
    quadratic form evaluation.
    """

    def __init__(self, problem: MPQProblem, choice: np.ndarray) -> None:
        self.problem = problem
        self.g_sym = 0.5 * (problem.sensitivity + problem.sensitivity.T)
        self.nb = problem.num_choices
        self.choice = choice.copy()
        self.alpha = problem.choice_to_alpha(choice)
        self.y = self.g_sym @ self.alpha
        self.value = float(self.alpha @ self.y)

    def _var(self, layer: int, m: int) -> int:
        return layer * self.nb + m

    def move_delta(self, layer: int, new_m: int) -> float:
        """Objective change if ``layer`` switches to choice ``new_m``."""
        old_m = int(self.choice[layer])
        if new_m == old_m:
            return 0.0
        vo, vn = self._var(layer, old_m), self._var(layer, new_m)
        # d = e_new - e_old; delta = 2 y.d + d^T G d
        quad = (
            self.g_sym[vn, vn] - 2.0 * self.g_sym[vn, vo] + self.g_sym[vo, vo]
        )
        return float(2.0 * (self.y[vn] - self.y[vo]) + quad)

    def apply_move(self, layer: int, new_m: int) -> None:
        old_m = int(self.choice[layer])
        if new_m == old_m:
            return
        delta = self.move_delta(layer, new_m)
        vo, vn = self._var(layer, old_m), self._var(layer, new_m)
        self.y += self.g_sym[:, vn] - self.g_sym[:, vo]
        self.value += delta
        self.choice[layer] = new_m


def greedy_construct(problem: MPQProblem) -> np.ndarray:
    """All layers at max precision, then demote by best size/objective ratio.

    Each step demotes one layer by one bit-width notch, choosing the move
    with the best (bits saved) / (objective increase) trade-off, until the
    budget is met.
    """
    choice = np.full(problem.num_layers, problem.num_choices - 1, dtype=np.int64)
    state = _IncrementalObjective(problem, choice)
    size = problem.assignment_size_bits(state.choice)
    # Extra constraints are non-decreasing in the bit index, so demotion
    # monotonically approaches feasibility for all of them.
    while size > problem.budget_bits or not problem.is_feasible(state.choice):
        best_score = None
        best_move = None
        for layer in range(problem.num_layers):
            m = int(state.choice[layer])
            if m == 0:
                continue
            new_m = m - 1
            saved = problem.layer_sizes[layer] * (
                problem.bits[m] - problem.bits[new_m]
            )
            delta = state.move_delta(layer, new_m)
            # Prefer moves that save many bits per unit of objective damage;
            # strictly-improving moves (delta <= 0) are taken greedily first.
            score = delta / float(saved)
            if best_score is None or score < best_score:
                best_score = score
                best_move = (layer, new_m, saved)
        if best_move is None:
            raise ValueError(
                "no feasible assignment: all layers at minimum precision "
                "still exceed the budget"
            )
        layer, new_m, saved = best_move
        state.apply_move(layer, new_m)
        size -= int(saved)
    return state.choice


def local_search(
    problem: MPQProblem,
    choice: Sequence[int],
    max_rounds: int = 50,
) -> np.ndarray:
    """First single-layer moves, then paired demote/promote swaps.

    Deterministic steepest-descent over the feasible neighbourhood; stops at
    a local optimum or ``max_rounds``.
    """
    state = _IncrementalObjective(problem, np.asarray(choice, dtype=np.int64))
    size = problem.assignment_size_bits(state.choice)
    bits = np.asarray(problem.bits, dtype=np.int64)
    for _ in range(max_rounds):
        improved = False
        # Single-layer moves.
        best = (0.0, None)
        for layer in range(problem.num_layers):
            m = int(state.choice[layer])
            for new_m in range(problem.num_choices):
                if new_m == m:
                    continue
                new_size = size + problem.layer_sizes[layer] * (
                    bits[new_m] - bits[m]
                )
                if new_size > problem.budget_bits:
                    continue
                if problem.extra_constraints:
                    candidate = state.choice.copy()
                    candidate[layer] = new_m
                    if not problem.is_feasible(candidate):
                        continue
                delta = state.move_delta(layer, new_m)
                if delta < best[0] - 1e-15:
                    best = (delta, (layer, new_m, new_size))
        if best[1] is not None:
            layer, new_m, new_size = best[1]
            state.apply_move(layer, new_m)
            size = int(new_size)
            improved = True
        else:
            # Paired swap: demote layer a one notch, promote layer b one
            # notch, if jointly feasible and improving.
            best_pair = (0.0, None)
            for a in range(problem.num_layers):
                ma = int(state.choice[a])
                if ma == 0:
                    continue
                saved = problem.layer_sizes[a] * (bits[ma] - bits[ma - 1])
                delta_a = state.move_delta(a, ma - 1)
                for b in range(problem.num_layers):
                    if b == a:
                        continue
                    mb = int(state.choice[b])
                    if mb == problem.num_choices - 1:
                        continue
                    added = problem.layer_sizes[b] * (bits[mb + 1] - bits[mb])
                    if size - saved + added > problem.budget_bits:
                        continue
                    if problem.extra_constraints:
                        candidate = state.choice.copy()
                        candidate[a] = ma - 1
                        candidate[b] = mb + 1
                        if not problem.is_feasible(candidate):
                            continue
                    # Approximate pair delta by sequential deltas; exact
                    # evaluation happens on apply.
                    delta = delta_a + state.move_delta(b, mb + 1)
                    if delta < best_pair[0] - 1e-15:
                        best_pair = (delta, (a, ma - 1, b, mb + 1))
            if best_pair[1] is not None:
                a, new_a, b, new_b = best_pair[1]
                old_a = int(state.choice[a])
                old_b = int(state.choice[b])
                before = state.value
                state.apply_move(a, new_a)
                state.apply_move(b, new_b)
                if state.value > before - 1e-15:
                    # The cross term made the pair non-improving; revert.
                    state.apply_move(b, old_b)
                    state.apply_move(a, old_a)
                else:
                    size = problem.assignment_size_bits(state.choice)
                    improved = True
        if not improved:
            break
    return state.choice


def solve_greedy(problem: MPQProblem, refine: bool = True) -> SolveResult:
    """Greedy construction + optional local search (heuristic, fast)."""
    t0 = perf_counter()
    choice = greedy_construct(problem)
    if refine:
        choice = local_search(problem, choice)
    return SolveResult(
        choice=choice,
        objective=problem.objective(choice),
        size_bits=problem.assignment_size_bits(choice),
        optimal=False,
        method="greedy",
        wall_time=perf_counter() - t0,
    )
