"""Extra coverage: solver routing in CLADO, zoo optimizer paths."""

import numpy as np
import pytest

from repro.core import CLADO, SolverConfig
from repro.data import make_dataset
from repro.models import build_model
from repro.models.zoo import TrainConfig, train_model
from repro.quant import QuantConfig


@pytest.fixture(scope="module")
def prepared_clado():
    ds = make_dataset(num_classes=4, image_size=16)
    model = build_model("resnet_s20", num_classes=4)
    model.eval()
    x, y = ds.sample(16, seed=3)
    clado = CLADO(model, "resnet_s20", QuantConfig(bits=(2, 4, 8)))
    clado.prepare(x, y)
    return clado


class TestSolverRouting:
    def test_greedy_method(self, prepared_clado):
        budget = int(prepared_clado.layer_sizes().sum()) * 4
        a = prepared_clado.allocate(budget, SolverConfig(method="greedy"))
        assert a.solver.method == "greedy"
        assert a.size_bits <= budget

    def test_bb_method_explicit(self, prepared_clado):
        budget = int(prepared_clado.layer_sizes().sum()) * 4
        a = prepared_clado.allocate(budget, SolverConfig(method="bb", time_limit=5))
        assert a.solver.method == "branch_and_bound"

    def test_greedy_objective_not_much_worse_than_bb(self, prepared_clado):
        budget = int(prepared_clado.layer_sizes().sum()) * 3
        bb = prepared_clado.allocate(budget, SolverConfig(method="bb", time_limit=10))
        gr = prepared_clado.allocate(budget, SolverConfig(method="greedy"))
        naive = prepared_clado.allocate(budget, SolverConfig(method="greedy"))
        assert gr.solver.objective >= bb.solver.objective - 1e-9

    def test_prepare_time_recorded(self, prepared_clado):
        assert prepared_clado.prepare_time > 0


class TestZooOptimizers:
    def test_adam_recipe(self):
        ds = make_dataset(num_classes=3, image_size=16)
        model = build_model("resnet_s20", num_classes=3)
        metrics = train_model(
            model,
            ds,
            TrainConfig(epochs=1, n_train=64, n_val=32, optimizer="adam", lr=1e-3),
        )
        assert np.isfinite(metrics["val_loss"])

    def test_unknown_optimizer_raises(self):
        ds = make_dataset(num_classes=3, image_size=16)
        model = build_model("resnet_s20", num_classes=3)
        with pytest.raises(ValueError):
            train_model(
                model, ds, TrainConfig(epochs=1, n_train=32, optimizer="lion")
            )
