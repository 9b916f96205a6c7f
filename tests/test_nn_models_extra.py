"""Additional depth tests: training dynamics, batching invariance, dtypes."""

import numpy as np
import pytest

from repro.models import build_model, evaluate_model, quantizable_layers
from repro.nn import CrossEntropyLoss, SGD
from repro.nn.module import DTYPE


class TestBatchingInvariance:
    @pytest.mark.parametrize("name", ["resnet_s20", "vit_s"])
    def test_eval_forward_batch_independent(self, name):
        """Eval-mode logits for a sample must not depend on batch peers."""
        model = build_model(name, num_classes=4)
        model.eval()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 3, 32, 32)).astype(np.float32)
        full = model.forward(x)
        solo = model.forward(x[2:3])
        np.testing.assert_allclose(full[2:3], solo, rtol=1e-4, atol=1e-5)

    def test_sensitivity_loss_batch_size_invariant(self):
        """The sweep's batched loss must match a single-batch loss."""
        model = build_model("resnet_s20", num_classes=4)
        model.eval()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 3, 32, 32)).astype(np.float32)
        y = rng.integers(0, 4, size=10)
        loss_one = evaluate_model(model, x, y, batch_size=10)[0]
        loss_many = evaluate_model(model, x, y, batch_size=3)[0]
        assert loss_one == pytest.approx(loss_many, rel=1e-6)


class TestDtypeDiscipline:
    @pytest.mark.parametrize(
        "name", ["resnet_s20", "resnet_s34", "resnet_s50", "mobilenet_s",
                 "regnet_s", "vit_s"]
    )
    def test_all_parameters_are_framework_dtype(self, name):
        model = build_model(name)
        for p in model.parameters():
            assert p.data.dtype == DTYPE, p.name

    def test_forward_stays_float32(self):
        """No hidden float64 upcasts anywhere in the forward graph."""
        model = build_model("mobilenet_s", num_classes=4)
        model.eval()
        x = np.zeros((2, 3, 32, 32), dtype=np.float32)
        assert model.forward(x).dtype == np.float32


class TestTrainingDynamics:
    def test_loss_decreases_over_steps(self):
        model = build_model("resnet_s20", num_classes=4)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(32, 3, 32, 32)).astype(np.float32)
        y = rng.integers(0, 4, size=32)
        crit = CrossEntropyLoss()
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
        model.train()
        losses = []
        for _ in range(15):
            loss = crit(model.forward(x), y)
            losses.append(loss)
            opt.zero_grad()
            model.backward(crit.backward())
            opt.step()
        assert losses[-1] < losses[0] * 0.7

    def test_vit_trains_with_adam(self):
        from repro.nn import Adam

        model = build_model("vit_s", num_classes=4)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(16, 3, 32, 32)).astype(np.float32)
        y = rng.integers(0, 4, size=16)
        crit = CrossEntropyLoss()
        opt = Adam(model.parameters(), lr=1e-3)
        model.train()
        first = None
        for step in range(12):
            loss = crit(model.forward(x), y)
            if first is None:
                first = loss
            opt.zero_grad()
            model.backward(crit.backward())
            opt.step()
        assert loss < first


class TestQuantizableLayerCounts:
    """Pin the search-space sizes; silent policy regressions change every
    experiment, so they should fail loudly."""

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("resnet_s20", 10),
            ("resnet_s34", 14),
            ("resnet_s50", 18),
            ("mobilenet_s", 23),
            ("regnet_s", 14),
            ("vit_s", 18),
        ],
    )
    def test_counts(self, name, expected):
        model = build_model(name)
        assert len(quantizable_layers(model, name)) == expected
