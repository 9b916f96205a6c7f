"""Sensitivity-engine tests: Eq. 12/13 identities, counts, modes, accuracy."""

import numpy as np
import pytest

from repro.core import SensitivityEngine, block_id_from_name, psd_project
from repro.hessian import cross_vhv, exact_hessian_block, vhv
from repro.models import build_model, quantizable_layers
from repro.nn import CrossEntropyLoss, Linear, Module
from repro.quant import QuantConfig, QuantizedWeightTable


class ThreeLinear(Module):
    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(4, 6, rng=rng)
        self.fc2 = Linear(6, 6, rng=rng)
        self.fc3 = Linear(6, 3, rng=rng)

    def forward(self, x):
        return self.fc3.forward(self.fc2.forward(self.fc1.forward(x)))

    def backward(self, g):
        return self.fc1.backward(self.fc2.backward(self.fc3.backward(g)))


class _QLayer:
    def __init__(self, idx, name, module):
        self.index, self.name, self.module = idx, name, module

    @property
    def weight(self):
        return self.module.weight

    @property
    def num_params(self):
        return self.module.weight.size


@pytest.fixture
def setup():
    model = ThreeLinear()
    model.eval()
    layers = [
        _QLayer(0, "fc1", model.fc1),
        _QLayer(1, "fc2", model.fc2),
        _QLayer(2, "fc3", model.fc3),
    ]
    config = QuantConfig(bits=(4, 8))
    table = QuantizedWeightTable(layers, config)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(24, 4)).astype(np.float32)
    y = rng.integers(0, 3, size=24)
    return model, layers, table, x, y


class TestMeasurementIdentities:
    def test_matrix_entries_match_loss_formula(self, setup):
        """Rebuild each entry from independently measured losses (Eq. 12/13)."""
        model, layers, table, x, y = setup
        engine = SensitivityEngine(model, table)
        result = engine.measure(x, y, mode="full")
        crit = CrossEntropyLoss()

        def loss_with(*pairs):
            with table.perturbed(*pairs):
                return crit(model.forward(x), y)

        base = loss_with()
        assert result.base_loss == pytest.approx(base, abs=1e-12)
        bits = table.config.bits
        nb = len(bits)
        for i in range(3):
            for m, b in enumerate(bits):
                expected = 2.0 * (loss_with((i, b)) - base)
                assert result.matrix[i * nb + m, i * nb + m] == pytest.approx(
                    expected, abs=1e-10
                )
        # one cross entry
        li = loss_with((0, bits[0]))
        lj = loss_with((2, bits[1]))
        lij = loss_with((0, bits[0]), (2, bits[1]))
        omega = lij + base - li - lj
        assert result.matrix[0 * nb + 0, 2 * nb + 1] == pytest.approx(omega, abs=1e-10)

    def test_matrix_symmetric_and_same_layer_zero(self, setup):
        model, layers, table, x, y = setup
        result = SensitivityEngine(model, table).measure(x, y)
        np.testing.assert_allclose(result.matrix, result.matrix.T)
        nb = result.num_choices
        for i in range(3):
            block = result.matrix[i * nb : (i + 1) * nb, i * nb : (i + 1) * nb]
            off = block - np.diag(np.diag(block))
            np.testing.assert_array_equal(off, 0.0)

    def test_eval_count_formula(self, setup):
        model, layers, table, x, y = setup
        result = SensitivityEngine(model, table).measure(x, y)
        num_layers, nb = 3, 2
        expected = 1 + num_layers * nb + (num_layers * (num_layers - 1) // 2) * nb * nb
        assert result.num_evals == expected
        # Paper's upper bound (counts same-layer pairs too).
        assert result.num_evals <= 1 + (nb * num_layers) * (nb * num_layers + 1) // 2

    def test_weights_restored_after_measurement(self, setup):
        model, layers, table, x, y = setup
        before = [layer.weight.data.copy() for layer in layers]
        SensitivityEngine(model, table).measure(x, y)
        for layer, b in zip(layers, before):
            np.testing.assert_array_equal(layer.weight.data, b)

    def test_progress_callback(self, setup):
        model, layers, table, x, y = setup
        calls = []
        SensitivityEngine(model, table).measure(
            x, y, progress=lambda done, total: calls.append((done, total))
        )
        assert calls[-1][0] == calls[-1][1]
        assert len(calls) == calls[-1][1]


class TestModes:
    def test_diagonal_mode_zero_cross(self, setup):
        model, layers, table, x, y = setup
        result = SensitivityEngine(model, table).measure(x, y, mode="diagonal")
        off = result.matrix - np.diag(np.diag(result.matrix))
        np.testing.assert_array_equal(off, 0.0)
        assert result.num_evals == 1 + 3 * 2

    def test_block_mode_limits_pairs(self, setup):
        model, layers, table, x, y = setup
        result = SensitivityEngine(model, table).measure(
            x, y, mode="block", blocks=["a", "a", "b"]
        )
        nb = result.num_choices
        # pair (0,1) same block -> measured; pairs with layer 2 -> zero.
        assert np.abs(result.matrix[0:2, 2 * nb :]).max() == 0.0
        # count: diag 6 + 1 pair * 4 combos + base
        assert result.num_evals == 1 + 6 + 4

    def test_block_mode_infers_blocks_from_names(self):
        model = build_model("resnet_s34", num_classes=4)
        model.eval()
        layers = quantizable_layers(model, "resnet_s34")[:4]
        table = QuantizedWeightTable(layers, QuantConfig(bits=(4, 8)))
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3, 32, 32)).astype(np.float32)
        y = rng.integers(0, 4, size=4)
        result = SensitivityEngine(model, table).measure(x, y, mode="block")
        assert result.mode == "block"

    def test_unknown_mode_raises(self, setup):
        model, layers, table, x, y = setup
        with pytest.raises(ValueError):
            SensitivityEngine(model, table).measure(x, y, mode="banana")

    def test_diagonal_of_full_equals_diagonal_mode(self, setup):
        model, layers, table, x, y = setup
        engine = SensitivityEngine(model, table)
        full = engine.measure(x, y, mode="full")
        diag = engine.measure(x, y, mode="diagonal")
        np.testing.assert_allclose(
            np.diag(full.matrix), np.diag(diag.matrix), atol=1e-12
        )


class TestSecondOrderAccuracy:
    """The forward-only estimates must track exact Hessian quadratic forms
    in the small-perturbation regime (the paper's Table 2 claim)."""

    def test_diagonal_estimate_tracks_vhv(self):
        model = ThreeLinear(seed=3)
        model.eval()
        layers = [
            _QLayer(0, "fc1", model.fc1),
            _QLayer(1, "fc2", model.fc2),
            _QLayer(2, "fc3", model.fc3),
        ]
        # High precision quantization = small perturbation = Taylor regime.
        config = QuantConfig(bits=(8, 10))
        table = QuantizedWeightTable(layers, config)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(64, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=64)
        # Move off the random init so the gradient isn't pathological: the
        # Taylor identity Eq.12 includes a gradient term the paper drops;
        # at a *trained* minimum it vanishes.  Take a few SGD steps.
        from repro.nn import CrossEntropyLoss, SGD

        crit = CrossEntropyLoss()
        opt = SGD(model.parameters(), lr=0.2, momentum=0.9)
        for _ in range(200):
            loss = crit(model.forward(x), y)
            opt.zero_grad()
            model.backward(crit.backward())
            opt.step()
        table = QuantizedWeightTable(layers, config)
        engine = SensitivityEngine(model, table)
        result = engine.measure(x, y)
        nb = 2
        for i in range(3):
            delta = table.delta(i, 8).astype(np.float64).ravel()
            exact = vhv(model, crit, layers, x, y, i, delta)
            fast = result.matrix[i * nb + 0, i * nb + 0]
            assert fast == pytest.approx(exact, rel=0.35, abs=2e-4)


class TestBlockId:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("stages.1.layers.0.conv2", "stages.1.layers.0"),
            ("stages.0.layers.1.downsample.0", "stages.0.layers.1"),
            ("features.3.expand.conv", "features.3"),
            ("layer.2.mlp.output", "layer.2"),
            ("layer.2.attention.attention.query", "layer.2"),
            ("stem.conv", "stem.conv"),
            ("fc", "fc"),
        ],
    )
    def test_block_grouping(self, name, expected):
        assert block_id_from_name(name) == expected
