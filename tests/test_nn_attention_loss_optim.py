"""Attention, loss, optimizer, and init tests."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    CrossEntropyLoss,
    MultiHeadSelfAttention,
    Parameter,
    SGD,
    accuracy,
    cosine_lr,
)
from repro.models import build_model, quantizable_layers
from repro.nn import init as nn_init
from repro.quant import ActivationQuantizer, calibrate_activations

from helpers import numeric_input_grad


class TestAttention:
    def test_shape_preserved(self):
        rng = np.random.default_rng(0)
        attn = MultiHeadSelfAttention(16, 4, rng=rng)
        x = rng.normal(size=(2, 7, 16)).astype(np.float32)
        assert attn.forward(x).shape == x.shape

    def test_dim_heads_validation(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 4)

    def test_input_grad(self):
        rng = np.random.default_rng(1)
        attn = MultiHeadSelfAttention(8, 2, rng=rng)
        attn.eval()
        x = rng.normal(size=(1, 5, 8))
        out = attn.forward(x.copy())
        grad_out = rng.normal(size=out.shape)
        attn.forward(x.copy())
        dx = attn.backward(grad_out)
        idx, numeric = numeric_input_grad(
            lambda xv: attn.forward(xv), x.astype(np.float64), grad_out
        )
        np.testing.assert_allclose(dx.ravel()[idx], numeric, rtol=3e-2, atol=3e-3)

    def test_param_grads_populated(self):
        rng = np.random.default_rng(2)
        attn = MultiHeadSelfAttention(8, 2, rng=rng)
        x = rng.normal(size=(1, 3, 8)).astype(np.float32)
        out = attn.forward(x)
        attn.backward(np.ones_like(out))
        for name, p in attn.named_parameters():
            assert p.grad is not None, name

    def test_backward_without_forward_raises(self):
        with pytest.raises(RuntimeError):
            MultiHeadSelfAttention(8, 2).backward(np.zeros((1, 3, 8)))


class _NoGrid:
    """Wraps a quantizer without its ``grid``, so attention runs each
    projection's own forward through it."""

    def __init__(self, quant):
        self.quant = quant

    def __call__(self, x):
        return self.quant(x)


@pytest.fixture
def quant_calls(monkeypatch):
    """The activation quantizers called, in call order."""
    calls = []
    call = ActivationQuantizer.__call__

    def counted(self, x):
        calls.append(self)
        return call(self, x)

    monkeypatch.setattr(ActivationQuantizer, "__call__", counted)
    return calls


def _calibrated_attention(bits=(8, 8, 8)):
    rng = np.random.default_rng(3)
    attn = MultiHeadSelfAttention(8, 2, rng=rng)
    attn.eval()
    projections = (attn.query, attn.key, attn.value)
    for proj, b in zip(projections, bits):
        proj.act_quant = ActivationQuantizer(b)
        proj.act_quant.recording = True
    with attn.no_grad():
        attn.forward(rng.normal(size=(4, 5, 8)).astype(np.float32))
    for proj in projections:
        proj.act_quant.finalize()
    return attn


class TestSharedQuantizedInput:
    """Query, key and value quantize their one input once when their
    activation quantizers share a grid."""

    def test_bitwise_equal_to_per_projection_quantization(self, quant_calls):
        attn = _calibrated_attention()
        x = np.random.default_rng(4).normal(size=(3, 5, 8)).astype(np.float32)
        x[0, 1, 2] = np.nan
        x[1, 0, 0], x[1, 3, 5] = np.inf, -np.inf
        x[2, 2, :4] = -0.0
        projections = (attn.query, attn.key, attn.value)
        quants = [p.act_quant for p in projections]
        assert len({q.grid for q in quants}) == 1
        quant_calls.clear()
        with attn.no_grad():
            shared = attn.forward(x)
            assert quant_calls == [attn.query.act_quant]
            quant_calls.clear()
            for proj, quant in zip(projections, quants):
                proj.act_quant = _NoGrid(quant)
            separate = attn.forward(x)
        assert quant_calls == quants
        assert np.isnan(shared[0]).all() and np.isfinite(shared[1:]).all()
        np.testing.assert_array_equal(shared.view(np.uint32), separate.view(np.uint32))

    def test_other_bits_fall_back_to_each_forward(self, quant_calls):
        attn = _calibrated_attention(bits=(8, 6, 8))
        quants = [p.act_quant for p in (attn.query, attn.key, attn.value)]
        assert quants[1].grid != quants[0].grid
        quant_calls.clear()
        attn.forward(np.ones((2, 5, 8), dtype=np.float32))
        assert quant_calls == quants

    def test_calibration_records_each_projection(self, monkeypatch):
        """A recording quantizer has no grid, so q, k and v each observe
        the input and calibrate to one scale."""
        model = build_model("vit_s", num_classes=4)
        layers = quantizable_layers(model, "vit_s")
        observed = []
        observe = ActivationQuantizer.observe

        def recorded(self, x):
            observed.append(self)
            return observe(self, x)

        monkeypatch.setattr(ActivationQuantizer, "observe", recorded)
        x = np.random.default_rng(6).normal(size=(4, 3, 32, 32)).astype(np.float32)
        calibrate_activations(model, layers, x)
        assert sorted(map(id, observed)) == sorted(id(q.module.act_quant) for q in layers)
        for block in model.layer:
            attn = block.attention
            scales = {p.act_quant.scale for p in (attn.query, attn.key, attn.value)}
            assert len(scales) == 1 and scales != {1.0}


class TestCrossEntropy:
    def test_matches_manual(self):
        logits = np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        labels = np.array([0, 2])
        crit = CrossEntropyLoss()
        loss = crit(logits, labels)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected = -np.log([probs[0, 0], probs[1, 2]]).mean()
        np.testing.assert_allclose(loss, expected, rtol=1e-12)

    def test_gradient_is_probs_minus_onehot(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(4, 5))
        labels = rng.integers(0, 5, size=4)
        crit = CrossEntropyLoss()
        crit(logits, labels)
        grad = crit.backward()
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        onehot = np.zeros_like(probs)
        onehot[np.arange(4), labels] = 1
        np.testing.assert_allclose(grad, (probs - onehot) / 4, rtol=1e-6, atol=1e-9)

    def test_grad_sums_to_zero_per_row(self):
        rng = np.random.default_rng(4)
        crit = CrossEntropyLoss()
        crit(rng.normal(size=(3, 6)), np.array([1, 2, 3]))
        np.testing.assert_allclose(crit.backward().sum(axis=1), 0.0, atol=1e-12)

    def test_shape_validation(self):
        crit = CrossEntropyLoss()
        with pytest.raises(ValueError):
            crit(np.zeros((2, 3, 4)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            crit(np.zeros((2, 3)), np.zeros(3, dtype=int))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            CrossEntropyLoss().backward()

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)


class TestOptimizers:
    def _quadratic_descent(self, opt_cls, **kwargs):
        """Minimize ||w - target||^2; must reach the target."""
        target = np.array([1.0, -2.0, 3.0])
        p = Parameter(np.zeros(3))
        opt = opt_cls([p], **kwargs)
        for _ in range(300):
            p.grad = 2 * (p.data - target)
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-2)

    def test_sgd_converges(self):
        self._quadratic_descent(SGD, lr=0.05, momentum=0.9)

    def test_adam_converges(self):
        self._quadratic_descent(Adam, lr=0.1)

    def test_sgd_skips_none_grads(self):
        p = Parameter(np.ones(2))
        opt = SGD([p], lr=0.1)
        opt.step()
        np.testing.assert_allclose(p.data, 1.0)

    def test_weight_decay_only_on_matrices(self):
        w = Parameter(np.ones((2, 2)))
        b = Parameter(np.ones(2))
        opt = SGD([w, b], lr=1.0, momentum=0.0, weight_decay=0.1)
        w.grad = np.zeros((2, 2))
        b.grad = np.zeros(2)
        opt.step()
        assert np.all(w.data < 1.0)
        np.testing.assert_allclose(b.data, 1.0)

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_zero_grad(self):
        p = Parameter(np.ones(2))
        p.grad = np.ones(2)
        SGD([p], lr=0.1).zero_grad()
        assert p.grad is None


class TestCosineLR:
    def test_warmup_ramps(self):
        assert cosine_lr(1.0, 0, 100, warmup=10) == pytest.approx(0.1)
        assert cosine_lr(1.0, 9, 100, warmup=10) == pytest.approx(1.0)

    def test_decays_to_zero(self):
        assert cosine_lr(1.0, 100, 100) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_after_warmup(self):
        lrs = [cosine_lr(1.0, s, 50, warmup=5) for s in range(5, 50)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_invalid_total(self):
        with pytest.raises(ValueError):
            cosine_lr(1.0, 0, 0)


class TestInit:
    def test_kaiming_scale(self):
        rng = np.random.default_rng(5)
        w = nn_init.kaiming_normal(rng, (256, 128))
        assert w.std() == pytest.approx(np.sqrt(2 / 128), rel=0.1)

    def test_xavier_bounds(self):
        rng = np.random.default_rng(6)
        w = nn_init.xavier_uniform(rng, (64, 32))
        limit = np.sqrt(6 / (64 + 32))
        assert np.abs(w).max() <= limit

    def test_trunc_normal_clipped(self):
        rng = np.random.default_rng(7)
        w = nn_init.trunc_normal(rng, (1000,), std=0.02)
        assert np.abs(w).max() <= 0.04 + 1e-12

    def test_conv_fan_in(self):
        rng = np.random.default_rng(8)
        w = nn_init.kaiming_normal(rng, (64, 16, 3, 3))
        assert w.std() == pytest.approx(np.sqrt(2 / (16 * 9)), rel=0.15)

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            nn_init.kaiming_normal(np.random.default_rng(0), (3,))
