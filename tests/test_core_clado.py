"""CLADO pipeline and baseline tests on small real models."""

import numpy as np
import pytest

from repro.core import (
    CLADO,
    HAWQ,
    MPQCO,
    AllocationResult,
    SensitivityConfig,
    SolverConfig,
    upq_assignment,
)
from repro.core.clado import MPQAssignment
from repro.data import make_dataset
from repro.models import build_model
from repro.quant import QuantConfig


@pytest.fixture(scope="module")
def small_setup():
    ds = make_dataset(num_classes=4, image_size=16)
    model = build_model("resnet_s20", num_classes=4)
    model.eval()
    x, y = ds.sample(24, seed=5)
    return model, x, y


CFG = QuantConfig(bits=(2, 4, 8))


class TestCLADOPipeline:
    def test_prepare_then_allocate(self, small_setup):
        model, x, y = small_setup
        clado = CLADO(model, "resnet_s20", CFG)
        clado.prepare(x, y)
        sizes = clado.layer_sizes()
        budget = int(sizes.sum()) * 4
        assignment = clado.allocate(budget, SolverConfig(time_limit=10))
        assert isinstance(assignment, AllocationResult)
        assert isinstance(assignment.assignment, MPQAssignment)
        assert assignment.solver_status in {"optimal", "incumbent"}
        assert len(assignment.bits) == len(sizes)
        assert assignment.size_bits <= budget
        assert set(assignment.bits) <= set(CFG.bits)

    def test_allocate_before_prepare_raises(self, small_setup):
        model, x, y = small_setup
        clado = CLADO(model, "resnet_s20", CFG)
        with pytest.raises(RuntimeError):
            clado.allocate(10**9)

    def test_budget_below_min_raises(self, small_setup):
        model, x, y = small_setup
        clado = CLADO(model, "resnet_s20", CFG, mode="diagonal")
        clado.prepare(x, y)
        with pytest.raises(ValueError):
            clado.allocate(1)

    def test_invalid_mode_raises(self, small_setup):
        model, _, _ = small_setup
        with pytest.raises(ValueError):
            CLADO(model, "resnet_s20", CFG, mode="chaos")

    def test_psd_matrix_installed(self, small_setup):
        model, x, y = small_setup
        clado = CLADO(model, "resnet_s20", CFG)
        clado.prepare(x, y)
        eigvals = np.linalg.eigvalsh(0.5 * (clado.matrix + clado.matrix.T))
        assert eigvals.min() >= -1e-8

    def test_no_psd_keeps_raw(self, small_setup):
        model, x, y = small_setup
        clado = CLADO(model, "resnet_s20", CFG, use_psd=False)
        clado.prepare(x, y)
        sym = 0.5 * (clado.raw.matrix + clado.raw.matrix.T)
        np.testing.assert_allclose(clado.matrix, sym)

    def test_set_sensitivity_reuses_measurement(self, small_setup):
        model, x, y = small_setup
        first = CLADO(model, "resnet_s20", CFG)
        first.prepare(x, y)
        second = CLADO(model, "resnet_s20", CFG)
        second.set_sensitivity(first.raw)
        assert second.prepared
        np.testing.assert_allclose(second.matrix, first.matrix, atol=1e-12)

    def test_weights_unchanged_by_pipeline(self, small_setup):
        model, x, y = small_setup
        before = [p.data.copy() for p in model.parameters()]
        clado = CLADO(model, "resnet_s20", CFG)
        clado.prepare(x, y)
        clado.allocate(
            int(clado.layer_sizes().sum()) * 4, SolverConfig(time_limit=5)
        )
        for p, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, b)

    def test_bigger_budget_never_higher_predicted_loss(self, small_setup):
        model, x, y = small_setup
        clado = CLADO(model, "resnet_s20", CFG)
        clado.prepare(x, y)
        total = int(clado.layer_sizes().sum())
        preds = [
            clado.allocate(
                total * avg, SolverConfig(time_limit=10)
            ).predicted_loss_increase
            for avg in (3, 5, 7)
        ]
        assert preds[0] >= preds[1] - 1e-9
        assert preds[1] >= preds[2] - 1e-9

    def test_diagonal_mode_uses_dp(self, small_setup):
        model, x, y = small_setup
        star = CLADO(model, "resnet_s20", CFG, mode="diagonal")
        star.prepare(x, y)
        assignment = star.allocate(int(star.layer_sizes().sum()) * 4)
        assert assignment.solver.method == "dp"
        assert assignment.solver.optimal


class TestBaselines:
    def test_hawq_costs_nonnegative(self, small_setup):
        model, x, y = small_setup
        hawq = HAWQ(
            model, "resnet_s20", CFG, sensitivity=SensitivityConfig(probes=2)
        )
        hawq.prepare(x, y)
        assert hawq.costs.shape == (len(hawq.layers), 3)
        assert (hawq.costs >= 0).all()
        # More bits -> smaller quantization error -> smaller cost.
        assert (hawq.costs[:, 0] >= hawq.costs[:, 2]).all()

    def test_hawq_allocation_feasible(self, small_setup):
        model, x, y = small_setup
        hawq = HAWQ(
            model, "resnet_s20", CFG, sensitivity=SensitivityConfig(probes=2)
        )
        hawq.prepare(x, y)
        budget = int(hawq.layer_sizes().sum()) * 4
        a = hawq.allocate(budget)
        assert a.size_bits <= budget
        assert a.solver.optimal

    def test_mpqco_costs_monotone_in_bits(self, small_setup):
        model, x, y = small_setup
        mpqco = MPQCO(model, "resnet_s20", CFG)
        mpqco.prepare(x, y)
        assert (mpqco.costs[:, 0] >= mpqco.costs[:, 1] - 1e-12).all()
        assert (mpqco.costs >= 0).all()

    def test_mpqco_deterministic(self, small_setup):
        model, x, y = small_setup
        a = MPQCO(model, "resnet_s20", CFG)
        a.prepare(x, y)
        b = MPQCO(model, "resnet_s20", CFG)
        b.prepare(x, y)
        np.testing.assert_allclose(a.costs, b.costs, rtol=1e-10)

    def test_upq_picks_largest_feasible(self):
        assert (upq_assignment([10, 10], (2, 4, 8), 160) == 8).all()
        assert (upq_assignment([10, 10], (2, 4, 8), 159) == 4).all()
        assert (upq_assignment([10, 10], (2, 4, 8), 80) == 4).all()

    def test_upq_infeasible_raises(self):
        with pytest.raises(ValueError):
            upq_assignment([10, 10], (2, 4, 8), 39)


class TestCLADOStarVsFull:
    def test_star_ignores_cross_terms(self, small_setup):
        """CLADO* objective must equal the sum of diagonal entries."""
        model, x, y = small_setup
        star = CLADO(model, "resnet_s20", CFG, mode="diagonal")
        star.prepare(x, y)
        budget = int(star.layer_sizes().sum()) * 3
        a = star.allocate(budget)
        nb = CFG.num_choices
        expected = sum(
            star.matrix[i * nb + m, i * nb + m]
            for i, m in enumerate(a.choice)
        )
        assert a.solver.objective == pytest.approx(expected, abs=1e-9)
