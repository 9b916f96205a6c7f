"""End-to-end integration tests over the full pipeline on a tiny setup.

These exercise the exact code path of the paper's workflow: pretrain ->
calibrate -> measure sensitivities -> PSD -> IQP -> evaluate -> QAT, and
assert the paper's *qualitative* claims on a small instance:

1. the IQP solution's predicted loss increase is never worse than UPQ's at
   the same budget (CLADO optimizes exactly that objective);
2. cross-layer-aware CLADO's predicted objective <= CLADO*'s evaluated
   under the full (cross-term) objective;
3. the full pipeline's mixed assignment beats 2-bit UPQ accuracy at a
   between-2-and-4-bit budget.
"""

import numpy as np
import pytest

from repro.core import CLADO, SolverConfig, evaluate_assignment, upq_assignment
from repro.data import make_dataset
from repro.models import build_model, quantizable_layers
from repro.models.zoo import TrainConfig, train_model
from repro.quant import QuantConfig, QuantizedWeightTable


@pytest.fixture(scope="module")
def pipeline():
    ds = make_dataset(num_classes=6, image_size=16)
    model = build_model("resnet_s20", num_classes=6)
    train_model(model, ds, TrainConfig(epochs=4, n_train=512, n_val=128))
    model.eval()
    (x_sens, y_sens), (x_val, y_val) = ds.splits(48, 128)
    config = QuantConfig(bits=(2, 4, 8))
    clado = CLADO(model, "resnet_s20", config)
    clado.prepare(x_sens, y_sens)
    return model, clado, config, (x_val, y_val)


class TestEndToEnd:
    def test_predicted_not_worse_than_upq(self, pipeline):
        model, clado, config, _ = pipeline
        sizes = clado.layer_sizes()
        for avg in (2.0, 4.0, 8.0):
            budget = int(sizes.sum() * avg)
            assignment = clado.allocate(budget, SolverConfig(time_limit=10))
            upq_bits = upq_assignment(sizes, config.bits, budget)
            upq_choice = [config.bits.index(int(b)) for b in upq_bits]
            from repro.solvers import MPQProblem

            problem = MPQProblem(clado.matrix, sizes, config.bits, budget)
            assert problem.objective(assignment.choice) <= problem.objective(
                np.asarray(upq_choice)
            ) + 1e-9

    def test_full_objective_no_worse_than_star_solution(self, pipeline):
        model, clado, config, _ = pipeline
        sizes = clado.layer_sizes()
        budget = int(sizes.sum() * 3)
        full_assignment = clado.allocate(budget, SolverConfig(time_limit=15))

        star = CLADO(model, "resnet_s20", config, mode="diagonal")
        star.set_sensitivity(clado.raw)  # reuses diagonal of same data
        # star uses full matrix here; force diagonal:
        star.matrix = np.diag(np.diag(clado.matrix))
        star_assignment = star.allocate(budget)

        from repro.solvers import MPQProblem

        problem = MPQProblem(clado.matrix, sizes, config.bits, budget)
        assert problem.objective(full_assignment.choice) <= problem.objective(
            star_assignment.choice
        ) + 1e-9

    def test_mixed_beats_low_upq_accuracy(self, pipeline):
        model, clado, config, val = pipeline
        x_val, y_val = val
        sizes = clado.layer_sizes()
        budget = int(sizes.sum() * 3)  # between 2-bit and 4-bit UPQ
        assignment = clado.allocate(budget, SolverConfig(time_limit=15))
        _, acc_mixed = evaluate_assignment(
            model, clado.table, assignment.bits, x_val, y_val
        )
        _, acc_upq2 = evaluate_assignment(
            model, clado.table, [2] * len(sizes), x_val, y_val
        )
        assert acc_mixed >= acc_upq2

    def test_qat_recovers_accuracy(self, pipeline):
        from repro.core import QATConfig, qat_finetune

        model, clado, config, val = pipeline
        x_val, y_val = val
        ds = make_dataset(num_classes=6, image_size=16)
        x_train, y_train = ds.splits(512, 1)[0]
        sizes = clado.layer_sizes()
        budget = int(sizes.sum() * 2.5)
        assignment = clado.allocate(budget, SolverConfig(time_limit=10))

        state = model.state_dict()
        _, acc_before = evaluate_assignment(
            model, clado.table, assignment.bits, x_val, y_val
        )
        layers = quantizable_layers(model, "resnet_s20")
        qat_finetune(
            model, layers, assignment.bits, x_train, y_train,
            QATConfig(epochs=2, lr=5e-3),
        )
        table_after = QuantizedWeightTable(layers, config)
        _, acc_after = evaluate_assignment(
            model, table_after, assignment.bits, x_val, y_val
        )
        model.load_state_dict(state)
        assert acc_after >= acc_before - 0.02  # QAT must not hurt (usually helps)

    def test_sensitivity_reuse_across_budgets_consistent(self, pipeline):
        """Re-solving at the same budget from the same matrix is deterministic."""
        _, clado, config, _ = pipeline
        budget = int(clado.layer_sizes().sum() * 4)
        a1 = clado.allocate(budget, SolverConfig(time_limit=10))
        a2 = clado.allocate(budget, SolverConfig(time_limit=10))
        np.testing.assert_array_equal(a1.bits, a2.bits)
