"""The Integer Quadratic Program of Eq. 11, as a plain data object.

Decision variables are per-layer one-hot selectors ``alpha^(i)`` over the
``|B|`` candidate bit-widths; we represent an assignment compactly as an
integer vector ``choice`` of length ``I`` with ``choice[i] = m`` meaning
layer ``i`` picks ``bits[m]``.  The objective is ``alpha^T G alpha`` and the
constraint is ``sum_i |w_i| * bits[choice[i]] <= budget_bits``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["InfeasibleBudgetError", "MPQProblem", "SolveResult"]


class InfeasibleBudgetError(ValueError):
    """A budget is below the all-minimum-bits cost: the size budget (with
    ``budget_bits`` and ``min_size_bits`` set) or an extra linear budget
    (both ``None``).

    Raised uniformly by solvers and allocators (instead of bare asserts or
    ``None`` returns) so callers — in particular the CLI — can turn an
    impossible budget into one clean, actionable error message.
    """

    def __init__(
        self,
        message: str,
        budget_bits: Optional[int] = None,
        min_size_bits: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.budget_bits = budget_bits
        self.min_size_bits = min_size_bits


@dataclass
class MPQProblem:
    """One mixed-precision bit-allocation instance.

    Attributes
    ----------
    sensitivity:
        The ``(|B|I, |B|I)`` sensitivity matrix ``G-hat`` of Eq. 10, ordered
        layer-major (row ``|B|*i + m`` is layer ``i`` at bit choice ``m``).
    layer_sizes:
        ``|w^(i)|`` parameter counts, length ``I``.
    bits:
        Candidate bit-widths ``B`` (ascending).
    budget_bits:
        ``C_target`` expressed in bits.
    extra_constraints:
        Optional additional linear budgets, e.g. a BOPs/compute budget
        (HAWQ-V3-style extension).  Each entry is ``(coeffs, bound)`` with
        ``coeffs`` of shape ``(I, |B|)`` giving the cost of picking choice
        ``m`` for layer ``i``; feasible assignments satisfy
        ``sum_i coeffs[i, choice[i]] <= bound``.  Coefficients must be
        non-decreasing in the bit index so that demoting a layer can never
        violate a satisfied constraint (the repair heuristics rely on it).
    """

    sensitivity: np.ndarray
    layer_sizes: np.ndarray
    bits: Tuple[int, ...]
    budget_bits: int
    extra_constraints: Tuple = ()

    def __post_init__(self) -> None:
        self.sensitivity = np.asarray(self.sensitivity, dtype=np.float64)
        self.layer_sizes = np.asarray(self.layer_sizes, dtype=np.int64)
        self.bits = tuple(int(b) for b in self.bits)
        expected = self.num_layers * self.num_choices
        if self.sensitivity.shape != (expected, expected):
            raise ValueError(
                f"sensitivity shape {self.sensitivity.shape} != "
                f"({expected}, {expected}) for I={self.num_layers}, "
                f"|B|={self.num_choices}"
            )
        if list(self.bits) != sorted(set(self.bits)):
            raise ValueError(f"bits must be strictly ascending: {self.bits}")
        if (self.layer_sizes <= 0).any():
            raise ValueError("layer sizes must be positive")
        checked = []
        for coeffs, bound in self.extra_constraints:
            coeffs = np.asarray(coeffs, dtype=np.float64)
            if coeffs.shape != (self.num_layers, self.num_choices):
                raise ValueError(
                    f"extra constraint coeffs shape {coeffs.shape} != "
                    f"({self.num_layers}, {self.num_choices})"
                )
            if (np.diff(coeffs, axis=1) < -1e-12).any():
                raise ValueError(
                    "extra constraint coefficients must be non-decreasing "
                    "in the bit index"
                )
            checked.append((coeffs, float(bound)))
        self.extra_constraints = tuple(checked)

    # -- dimensions ------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes)

    @property
    def num_choices(self) -> int:
        return len(self.bits)

    @property
    def num_vars(self) -> int:
        return self.num_layers * self.num_choices

    # -- sizes -------------------------------------------------------------
    def size_vector(self) -> np.ndarray:
        """Per-variable size cost in bits: ``|w_i| * b_m`` flattened."""
        return np.repeat(self.layer_sizes, self.num_choices) * np.tile(
            np.asarray(self.bits, dtype=np.int64), self.num_layers
        )

    def min_size_bits(self) -> int:
        return int(self.layer_sizes.sum()) * min(self.bits)

    def max_size_bits(self) -> int:
        return int(self.layer_sizes.sum()) * max(self.bits)

    def assignment_size_bits(self, choice: Sequence[int]) -> int:
        choice = np.asarray(choice, dtype=np.int64)
        self._check_choice(choice)
        bits = np.asarray(self.bits, dtype=np.int64)[choice]
        return int((self.layer_sizes * bits).sum())

    def is_feasible(self, choice: Sequence[int]) -> bool:
        if self.assignment_size_bits(choice) > self.budget_bits:
            return False
        choice = np.asarray(choice, dtype=np.int64)
        rows = np.arange(self.num_layers)
        for coeffs, bound in self.extra_constraints:
            if coeffs[rows, choice].sum() > bound + 1e-9:
                return False
        return True

    # -- objective ---------------------------------------------------------------
    def choice_to_alpha(self, choice: Sequence[int]) -> np.ndarray:
        choice = np.asarray(choice, dtype=np.int64)
        self._check_choice(choice)
        alpha = np.zeros(self.num_vars)
        alpha[np.arange(self.num_layers) * self.num_choices + choice] = 1.0
        return alpha

    def objective(self, choice: Sequence[int]) -> float:
        """``alpha^T G alpha`` for a discrete assignment."""
        alpha = self.choice_to_alpha(choice)
        return float(alpha @ self.sensitivity @ alpha)

    def objective_alpha(self, alpha: np.ndarray) -> float:
        """Objective for a (possibly fractional) alpha vector."""
        alpha = np.asarray(alpha, dtype=np.float64)
        return float(alpha @ self.sensitivity @ alpha)

    def choice_bits(self, choice: Sequence[int]) -> np.ndarray:
        """Map choice indices to actual bit-widths."""
        choice = np.asarray(choice, dtype=np.int64)
        self._check_choice(choice)
        return np.asarray(self.bits, dtype=np.int64)[choice]

    def _check_choice(self, choice: np.ndarray) -> None:
        if choice.shape != (self.num_layers,):
            raise ValueError(
                f"choice length {choice.shape} != layer count {self.num_layers}"
            )
        if ((choice < 0) | (choice >= self.num_choices)).any():
            raise ValueError("choice index out of range")

    def diagonal_costs(self) -> np.ndarray:
        """Per-(layer, choice) separable costs: the diagonal of G.

        Shape ``(I, |B|)`` — the objective used by diagonal baselines
        (HAWQ / MPQCO / CLADO*).
        """
        diag = np.diag(self.sensitivity)
        return diag.reshape(self.num_layers, self.num_choices).copy()

    def is_diagonal(self, tol: float = 0.0) -> bool:
        off = self.sensitivity - np.diag(np.diag(self.sensitivity))
        return bool(np.abs(off).max(initial=0.0) <= tol)


@dataclass
class SolveResult:
    """Solver output: the chosen assignment plus solve diagnostics."""

    choice: np.ndarray
    objective: float
    size_bits: int
    optimal: bool
    method: str
    nodes: int = 0
    iterations: int = 0
    wall_time: float = 0.0
    lower_bound: Optional[float] = None
    message: str = ""
    extras: dict = field(default_factory=dict)

    def bits(self, problem: MPQProblem) -> np.ndarray:
        return problem.choice_bits(self.choice)
