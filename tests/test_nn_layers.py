"""Layer-level tests: gradients against finite differences, mode semantics."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GELU,
    GlobalAvgPool2d,
    Hardsigmoid,
    Hardswish,
    Identity,
    LayerNorm,
    Linear,
    MaxPool2d,
    MultiHeadSelfAttention,
    ReLU,
    SelectToken,
    Sigmoid,
    SiLU,
)

from helpers import numeric_input_grad


def _check_input_grad(layer, x, rtol=2e-2, atol=2e-3, train=False):
    layer.train(train)
    out = layer.forward(x.copy())
    rng = np.random.default_rng(0)
    grad_out = rng.normal(size=out.shape).astype(np.float64)
    layer.forward(x.copy())  # fresh cache for analytic backward
    dx = layer.backward(grad_out)
    assert dx.shape == x.shape

    def fwd(xv):
        layer_mode = layer.training
        layer.train(layer_mode)
        return layer.forward(xv)

    idx, numeric = numeric_input_grad(fwd, x.astype(np.float64), grad_out)
    np.testing.assert_allclose(dx.ravel()[idx], numeric, rtol=rtol, atol=atol)


def _kernel_inputs(dtype):
    """A (N, T, D) activation and a 4x larger (4N, T, D) batch of it."""
    rng = np.random.default_rng(7)
    x = (rng.normal(size=(3, 5, 16)) * 2.0 + 0.5).astype(dtype)
    return [x, np.concatenate([x] * 4)]


class TestActivations:
    @pytest.mark.parametrize(
        "layer_cls", [ReLU, GELU, SiLU, Sigmoid]
    )
    def test_smooth_activation_grads(self, layer_cls):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 6)).astype(np.float64)
        for train in (False, True):
            _check_input_grad(layer_cls(), x, train=train)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_matches_out_of_place_reference(self, dtype):
        c = GELU._C
        for x in _kernel_inputs(dtype):
            before = x.copy()
            layer = GELU()
            out = layer.forward(x)
            tanh = np.tanh(c * (x + 0.044715 * (x * x * x)))
            expected = 0.5 * x * (1.0 + tanh)
            assert out.dtype == dtype
            assert np.array_equal(out, expected)
            assert np.array_equal(layer._cache[1], tanh)
            assert np.array_equal(x, before)

    def test_gelu_float32_precision(self):
        # Tolerance fixed before the cube became a product: within
        # 2 * eps32 * max(1, |x|) of the same tanh formula in float64.
        rng = np.random.default_rng(3)
        x = np.concatenate(
            [np.linspace(-12.0, 12.0, 20001), rng.normal(size=20000) * 3.0]
        ).astype(np.float32)
        out = GELU().forward(x)
        assert out.dtype == np.float32
        x64 = x.astype(np.float64)
        inner = np.sqrt(2.0 / np.pi) * (x64 + 0.044715 * (x64 * x64 * x64))
        gelu64 = 0.5 * x64 * (1.0 + np.tanh(inner))
        bound = 2 * np.finfo(np.float32).eps * np.maximum(1.0, np.abs(x64))
        assert np.all(np.abs(out - gelu64) <= bound)

    @pytest.mark.parametrize("layer_cls", [Hardswish, Hardsigmoid])
    def test_piecewise_activation_grads_away_from_kinks(self, layer_cls):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 6)).astype(np.float64)
        # Keep probes away from the +-3 kinks where FD is undefined.
        x = np.clip(x, -2.5, 2.5)
        _check_input_grad(layer_cls(), x)

    def test_relu_zeroes_negatives(self):
        out = ReLU().forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out, [0.0, 0.0, 2.0])

    def test_hardswish_known_values(self):
        hs = Hardswish()
        np.testing.assert_allclose(
            hs.forward(np.array([-4.0, 0.0, 4.0])), [0.0, 0.0, 4.0]
        )

    def test_identity_passthrough(self):
        x = np.arange(4.0)
        layer = Identity()
        np.testing.assert_allclose(layer.forward(x), x)
        np.testing.assert_allclose(layer.backward(x), x)


class TestLinear:
    def test_forward_matches_manual(self):
        rng = np.random.default_rng(3)
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(2, 4)).astype(np.float32)
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer.forward(x), expected, rtol=1e-6)

    def test_3d_input(self):
        rng = np.random.default_rng(4)
        layer = Linear(4, 5, rng=rng)
        x = rng.normal(size=(2, 7, 4)).astype(np.float32)
        out = layer.forward(x)
        assert out.shape == (2, 7, 5)
        dx = layer.backward(np.ones_like(out))
        assert dx.shape == x.shape

    def test_weight_grad_numeric(self):
        rng = np.random.default_rng(5)
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(4, 3)).astype(np.float64)
        out = layer.forward(x)
        go = rng.normal(size=out.shape)
        layer.backward(go)
        # dW = go^T x
        np.testing.assert_allclose(
            layer.weight.grad, go.T @ x, rtol=1e-5, atol=1e-6
        )
        np.testing.assert_allclose(layer.bias.grad, go.sum(axis=0), rtol=1e-6)


class TestConvLayer:
    def test_input_grad(self):
        rng = np.random.default_rng(6)
        layer = Conv2d(2, 3, 3, stride=1, padding=1, rng=rng)
        x = rng.normal(size=(2, 2, 5, 5)).astype(np.float64)
        _check_input_grad(layer, x)

    def test_depthwise_shapes(self):
        layer = Conv2d(4, 4, 3, padding=1, groups=4)
        out = layer.forward(np.zeros((1, 4, 6, 6), dtype=np.float32))
        assert out.shape == (1, 4, 6, 6)


class TestBatchNorm:
    def test_train_normalizes_batch(self):
        rng = np.random.default_rng(7)
        bn = BatchNorm2d(3)
        bn.train()
        x = rng.normal(5.0, 3.0, size=(8, 3, 4, 4))
        out = bn.forward(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_running_stats_update_only_in_train(self):
        bn = BatchNorm2d(2)
        x = np.random.default_rng(8).normal(2.0, 1.0, size=(4, 2, 3, 3))
        bn.eval()
        bn.forward(x)
        np.testing.assert_allclose(bn.running_mean, 0.0)
        bn.train()
        bn.forward(x)
        assert np.abs(bn.running_mean).max() > 0

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(1)
        bn.running_mean[:] = 2.0
        bn.running_var[:] = 4.0
        bn.eval()
        out = bn.forward(np.full((1, 1, 1, 1), 4.0))
        np.testing.assert_allclose(out, (4.0 - 2.0) / 2.0, rtol=1e-4)

    def test_train_mode_input_grad(self):
        rng = np.random.default_rng(9)
        bn = BatchNorm2d(2)
        x = rng.normal(size=(4, 2, 3, 3)).astype(np.float64)
        _check_input_grad(bn, x, train=True)

    def test_eval_mode_input_grad(self):
        rng = np.random.default_rng(10)
        bn = BatchNorm2d(2)
        bn.running_mean[:] = rng.normal(size=2)
        bn.running_var[:] = np.abs(rng.normal(size=2)) + 0.5
        x = rng.normal(size=(4, 2, 3, 3)).astype(np.float64)
        _check_input_grad(bn, x, train=False)

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_out_of_place_reference(self, dtype, train):
        rng = np.random.default_rng(14)
        bn = BatchNorm2d(4)
        bn.running_mean[:] = rng.normal(size=4)
        bn.running_var[:] = np.abs(rng.normal(size=4)) + 0.5
        bn.weight.data[:] = rng.normal(size=4)
        bn.bias.data[:] = rng.normal(size=4)
        bn.train(train)
        x = (rng.normal(size=(6, 4, 5, 5)) * 2.0 + 0.5).astype(dtype)
        if train:
            mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        else:
            mean, var = bn.running_mean.copy(), bn.running_var.copy()
        before = x.copy()
        out = bn.forward(x)
        inv_std = 1.0 / np.sqrt(var + bn.eps)
        x_hat = (x - mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
        expected = bn.weight.data.reshape(1, -1, 1, 1) * x_hat + (
            bn.bias.data.reshape(1, -1, 1, 1)
        )
        assert out.dtype == dtype
        assert np.array_equal(out, expected)
        assert np.array_equal(bn._cache[0], x_hat)
        assert np.array_equal(x, before)


class TestLayerNorm:
    def test_normalizes_last_dim(self):
        rng = np.random.default_rng(11)
        ln = LayerNorm(8)
        x = rng.normal(3.0, 2.0, size=(4, 5, 8))
        out = ln.forward(x)
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)

    def test_input_grad(self):
        rng = np.random.default_rng(12)
        ln = LayerNorm(6)
        x = rng.normal(size=(3, 6)).astype(np.float64)
        for train in (False, True):
            _check_input_grad(ln, x, train=train)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_np_var_reference(self, dtype):
        rng = np.random.default_rng(13)
        ln = LayerNorm(16)
        ln.weight.data[:] = rng.normal(size=16)
        ln.bias.data[:] = rng.normal(size=16)
        for x in _kernel_inputs(dtype):
            before = x.copy()
            out = ln.forward(x)
            mean = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            inv_std = 1.0 / np.sqrt(var + ln.eps)
            x_hat = (x - mean) * inv_std
            assert out.dtype == dtype
            assert np.array_equal(out, ln.weight.data * x_hat + ln.bias.data)
            assert np.array_equal(ln._cache[0], x_hat)
            assert np.array_equal(ln._cache[1], inv_std)
            assert np.array_equal(x, before)


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = MaxPool2d(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_grad_routes_to_argmax(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        layer = MaxPool2d(2)
        out = layer.forward(x)
        dx = layer.backward(np.ones_like(out))
        assert dx.sum() == 4
        assert dx[0, 0, 1, 1] == 1  # position of 5

    def test_avgpool_values_and_grad(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        layer = AvgPool2d(2)
        out = layer.forward(x)
        np.testing.assert_allclose(out[0, 0, 0, 0], (0 + 1 + 4 + 5) / 4)
        dx = layer.backward(np.ones_like(out))
        np.testing.assert_allclose(dx, 0.25)

    def test_gap_shape_and_grad(self):
        layer = GlobalAvgPool2d()
        x = np.random.default_rng(13).normal(size=(2, 3, 4, 4))
        out = layer.forward(x)
        assert out.shape == (2, 3)
        dx = layer.backward(np.ones_like(out))
        np.testing.assert_allclose(dx, 1.0 / 16)

    def test_pool_rejects_indivisible(self):
        with pytest.raises(ValueError):
            MaxPool2d(3).forward(np.zeros((1, 1, 4, 4)))
        with pytest.raises(ValueError):
            AvgPool2d(3).forward(np.zeros((1, 1, 4, 4)))


class TestFlattenDropout:
    def test_flatten_roundtrip(self):
        layer = Flatten()
        x = np.random.default_rng(14).normal(size=(2, 3, 4, 4))
        out = layer.forward(x)
        assert out.shape == (2, 48)
        dx = layer.backward(out)
        assert dx.shape == x.shape

    def test_dropout_eval_is_identity(self):
        layer = Dropout(0.5)
        layer.eval()
        x = np.ones((4, 4))
        np.testing.assert_allclose(layer.forward(x), x)

    def test_dropout_train_scales(self):
        layer = Dropout(0.5, rng=np.random.default_rng(15))
        layer.train()
        x = np.ones((1000,))
        out = layer.forward(x)
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 2.0)
        assert 300 < len(kept) < 700

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestActQuantHook:
    def test_act_quant_applied_to_conv_input(self):
        layer = Conv2d(1, 1, 1, bias=False)
        layer.weight.data[:] = 1.0
        calls = []

        def fake_quant(x):
            calls.append(x.copy())
            return np.zeros_like(x)

        layer.act_quant = fake_quant
        out = layer.forward(np.ones((1, 1, 2, 2), dtype=np.float32))
        assert len(calls) == 1
        np.testing.assert_allclose(out, 0.0)

    def test_act_quant_applied_to_linear_input(self):
        layer = Linear(2, 2, bias=False)
        layer.act_quant = lambda x: x * 0.0
        out = layer.forward(np.ones((1, 2), dtype=np.float32))
        np.testing.assert_allclose(out, 0.0)


def _image_inputs(dtype):
    """A (N, C, H, W) activation and a 3x larger batch of it."""
    rng = np.random.default_rng(17)
    x = (rng.normal(size=(3, 4, 5, 5)) * 2.0 + 0.5).astype(dtype)
    return [x, np.concatenate([x] * 3)]


def _no_grad_forward(layer, x):
    """Forward under no_grad: output, and whether the input was left alone."""
    before = x.copy()
    with layer.no_grad():
        out = layer.forward(x)
    return out, np.array_equal(x, before)


class TestNoGradKernels:
    """Forwards in both modes equal the grad-mode expressions bit for bit,
    in float32, float64 and on a folded batch; no-grad ones keep no cache."""

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batchnorm_single_buffer(self, dtype, train):
        rng = np.random.default_rng(14)
        bn = BatchNorm2d(4)
        bn.running_mean[:] = rng.normal(size=4)
        bn.running_var[:] = np.abs(rng.normal(size=4)) + 0.5
        bn.weight.data[:] = rng.normal(size=4)
        bn.bias.data[:] = rng.normal(size=4)
        bn.train(train)
        for x in _image_inputs(dtype):
            if train:
                mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
            else:
                mean, var = bn.running_mean.copy(), bn.running_var.copy()
            out, untouched = _no_grad_forward(bn, x)
            inv_std = 1.0 / np.sqrt(var + bn.eps)
            x_hat = (x - mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
            expected = bn.weight.data.reshape(1, -1, 1, 1) * x_hat + (
                bn.bias.data.reshape(1, -1, 1, 1)
            )
            assert out.dtype == dtype
            assert np.array_equal(out, expected)
            assert bn._cache is None
            assert untouched
            assert np.array_equal(bn.forward(x), expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layernorm_output_in_x_hat(self, dtype):
        rng = np.random.default_rng(13)
        ln = LayerNorm(16)
        ln.weight.data[:] = rng.normal(size=16)
        ln.bias.data[:] = rng.normal(size=16)
        for x in _kernel_inputs(dtype):
            out, untouched = _no_grad_forward(ln, x)
            inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + ln.eps)
            x_hat = (x - x.mean(axis=-1, keepdims=True)) * inv_std
            assert out.dtype == dtype
            expected = ln.weight.data * x_hat + ln.bias.data
            assert np.array_equal(out, expected)
            assert ln._cache is None
            assert untouched
            assert np.array_equal(ln.forward(x), expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_two_buffers(self, dtype):
        layer = GELU()
        for x in _kernel_inputs(dtype):
            out, untouched = _no_grad_forward(layer, x)
            tanh = np.tanh(GELU._C * (x + 0.044715 * (x * x * x)))
            assert out.dtype == dtype
            expected = 0.5 * x * (1.0 + tanh)
            assert np.array_equal(out, expected)
            assert layer._cache is None
            assert untouched
            assert np.array_equal(layer.forward(x), expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_softmax_in_place(self, dtype):
        rng = np.random.default_rng(18)
        attn = MultiHeadSelfAttention(16, 4, rng=rng)
        for x in _kernel_inputs(dtype):
            out, untouched = _no_grad_forward(attn, x)

            def proj(lin, a):
                return a @ lin.weight.data.T + lin.bias.data

            q, k, v = (
                attn._split_heads(proj(lin, x))
                for lin in (attn.query, attn.key, attn.value)
            )
            scores = np.matmul(q, k.swapaxes(-1, -2)) * float(
                1.0 / np.sqrt(attn.head_dim)
            )
            exp = np.exp(scores - scores.max(axis=-1, keepdims=True))
            probs = exp / exp.sum(axis=-1, keepdims=True)
            expected = proj(attn.out, attn._merge_heads(np.matmul(probs, v)))
            assert out.dtype == dtype
            assert np.array_equal(out, expected)
            assert attn._cache is None
            assert untouched
            assert np.array_equal(attn.forward(x), expected)
            assert np.array_equal(attn._cache[3], probs)

    @pytest.mark.parametrize(
        "make, shape",
        [
            pytest.param(make, shape, id=type(make()).__name__)
            for make, shape in [
                (lambda: Conv2d(4, 3, 3, padding=1), (2, 4, 6, 6)),
                (lambda: Linear(6, 3), (2, 5, 6)),
                (lambda: BatchNorm2d(4), (2, 4, 6, 6)),
                (lambda: LayerNorm(6), (2, 5, 6)),
                (ReLU, (2, 5, 6)),
                (GELU, (2, 5, 6)),
                (SiLU, (2, 5, 6)),
                (Hardswish, (2, 5, 6)),
                (Hardsigmoid, (2, 5, 6)),
                (Sigmoid, (2, 5, 6)),
                (lambda: MaxPool2d(2), (2, 4, 6, 6)),
                (lambda: AvgPool2d(2), (2, 4, 6, 6)),
                (GlobalAvgPool2d, (2, 4, 6, 6)),
                (Flatten, (2, 4, 6, 6)),
                (lambda: SelectToken(0), (2, 5, 6)),
                (lambda: MultiHeadSelfAttention(6, 2), (2, 5, 6)),
            ]
        ],
    )
    def test_every_layer_drops_its_cache(self, make, shape):
        """A no-grad forward equals the grad-mode one, clears the cache an
        earlier grad-mode forward left, and makes backward raise."""
        layer = make()
        x = np.random.default_rng(19).normal(size=shape).astype(np.float32)
        expected = layer.forward(x)
        assert layer._cache is not None
        out, untouched = _no_grad_forward(layer, x)
        assert np.array_equal(out, expected)
        assert layer._cache is None
        assert untouched
        with pytest.raises(RuntimeError, match="before forward|no_grad"):
            layer.backward(np.ones_like(out))
        # Grad mode is back: the next forward keeps its cache again.
        layer.forward(x)
        layer.backward(np.ones_like(out))

    def test_dropout_training_forward_keeps_no_mask(self):
        layer = Dropout(0.5, rng=np.random.default_rng(20))
        layer.train()
        with layer.no_grad():
            out = layer.forward(np.ones((64,)))
        assert layer._cache is None
        assert set(np.unique(out)) <= {0.0, 2.0}
