"""BOPs accounting and multi-constraint IQP tests (HAWQ-V3-style extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import build_model, quantizable_layers
from repro.quant import assignment_bops, bops_table, measure_macs
from repro.solvers import (
    InfeasibleBudgetError,
    MPQProblem,
    greedy_construct,
    solve_branch_and_bound,
    solve_dp,
    solve_exhaustive,
    solve_greedy,
)


class TestMacsMeasurement:
    def test_resnet_macs_positive_and_plausible(self):
        model = build_model("resnet_s20", num_classes=4)
        layers = quantizable_layers(model, "resnet_s20")
        macs = measure_macs(model, layers, input_shape=(1, 3, 32, 32))
        assert (macs > 0).all()
        # Stem conv: 8 out-ch, 32x32 output, 3x3x3 per output.
        stem_idx = [i for i, q in enumerate(layers) if q.name == "stem.conv"][0]
        assert macs[stem_idx] == 8 * 32 * 32 * 3 * 3 * 3

    def test_linear_macs(self):
        model = build_model("resnet_s20", num_classes=4)
        layers = quantizable_layers(model, "resnet_s20")
        macs = measure_macs(model, layers)
        fc_idx = [i for i, q in enumerate(layers) if q.name == "fc"][0]
        assert macs[fc_idx] == 32 * 4  # in_features x classes

    def test_vit_token_macs(self):
        model = build_model("vit_s", num_classes=4)
        layers = quantizable_layers(model, "vit_s")
        macs = measure_macs(model, layers)
        # Every encoder linear sees 17 tokens (16 patches + cls).
        q0 = layers[0]
        assert macs[0] == 17 * q0.module.in_features * q0.module.out_features

    def test_act_quant_restored(self):
        model = build_model("resnet_s20", num_classes=4)
        layers = quantizable_layers(model, "resnet_s20")
        sentinel = object()
        layers[0].module.act_quant = sentinel
        try:
            measure_macs(model, layers)
            assert layers[0].module.act_quant is sentinel
        finally:
            layers[0].module.act_quant = None


class TestBopsTable:
    def test_monotone_in_bits(self):
        table = bops_table([100, 200], (2, 4, 8))
        assert (np.diff(table, axis=1) > 0).all()

    def test_assignment_bops_matches_table(self):
        macs = np.array([100, 200])
        table = bops_table(macs, (2, 4, 8))
        total = assignment_bops(macs, [2, 8])
        assert total == table[0, 0] + table[1, 2]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            assignment_bops(np.array([1, 2]), [4])


class TestConstrainedProblem:
    def _problem(self, rng, num_layers=4, bops_ratio=0.5):
        nb = 3
        n = num_layers * nb
        a = rng.normal(size=(n, n))
        g = a @ a.T * 0.01
        sizes = rng.integers(10, 200, size=num_layers)
        macs = rng.integers(100, 5000, size=num_layers)
        coeffs = bops_table(macs, (2, 4, 8))
        max_bops = coeffs[:, -1].sum()
        min_bops = coeffs[:, 0].sum()
        bound = min_bops + bops_ratio * (max_bops - min_bops)
        return MPQProblem(
            g,
            sizes,
            (2, 4, 8),
            int(sizes.sum() * 6),
            extra_constraints=((coeffs, bound),),
        )

    def test_validation_shape(self):
        with pytest.raises(ValueError):
            MPQProblem(
                np.eye(6), [10, 10], (2, 4, 8), 200,
                extra_constraints=((np.zeros((3, 3)), 10.0),),
            )

    def test_validation_monotonicity(self):
        coeffs = np.array([[3.0, 2.0, 1.0], [1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            MPQProblem(
                np.eye(6), [10, 10], (2, 4, 8), 200,
                extra_constraints=((coeffs, 10.0),),
            )

    def test_is_feasible_checks_extras(self):
        coeffs = np.array([[1.0, 2.0, 4.0], [1.0, 2.0, 4.0]])
        p = MPQProblem(
            np.zeros((6, 6)), [1, 1], (2, 4, 8), 1000,
            extra_constraints=((coeffs, 4.0),),
        )
        assert p.is_feasible([0, 0])
        assert p.is_feasible([1, 0])
        assert not p.is_feasible([2, 1])

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=10, deadline=None)
    def test_bb_matches_exhaustive_with_bops(self, seed):
        rng = np.random.default_rng(seed)
        p = self._problem(rng, num_layers=4)
        ex = solve_exhaustive(p)
        bb = solve_branch_and_bound(p, time_limit=30)
        assert bb.objective == pytest.approx(ex.objective, abs=1e-6)
        assert p.is_feasible(bb.choice)

    def test_bops_below_all_minimum_raises_typed_error(self):
        """An extra budget that no assignment meets is a problem property,
        like a size budget below the all-minimum size; its error carries no
        size fields, so the CLI prints no "raise --avg-bits" hint."""
        p = self._problem(np.random.default_rng(4), bops_ratio=-0.5)
        with pytest.raises(InfeasibleBudgetError, match="extra budget 0") as exc:
            solve_branch_and_bound(p)
        assert exc.value.min_size_bits is None

    def test_greedy_respects_bops(self):
        rng = np.random.default_rng(1)
        p = self._problem(rng, num_layers=6, bops_ratio=0.3)
        choice = greedy_construct(p)
        assert p.is_feasible(choice)
        result = solve_greedy(p)
        assert p.is_feasible(result.choice)

    def test_dp_rejects_extras(self):
        rng = np.random.default_rng(2)
        p = self._problem(rng)
        with pytest.raises(ValueError):
            solve_dp(p, costs=np.zeros((4, 3)))

    def test_tight_bops_forces_lower_bits(self):
        """With unlimited size but tight BOPs, high-MAC layers get low bits."""
        rng = np.random.default_rng(3)
        nb = 3
        num_layers = 3
        g = np.diag(np.ones(num_layers * nb) * 0.001)  # near-uniform objective
        sizes = np.array([10, 10, 10])
        macs = np.array([10_000, 10, 10])
        coeffs = bops_table(macs, (2, 4, 8))
        bound = coeffs[0, 0] + coeffs[1, 2] + coeffs[2, 2] + 1.0
        p = MPQProblem(
            g, sizes, (2, 4, 8), 10**9, extra_constraints=((coeffs, bound),)
        )
        result = solve_branch_and_bound(p, time_limit=10)
        assert result.choice[0] == 0  # the hot layer is forced to 2 bits
