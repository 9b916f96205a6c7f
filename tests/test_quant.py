"""Quantizer, calibration, sizing, and weight-table tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.quant import (
    ActivationQuantizer,
    PerChannelAffineQuantizer,
    QuantConfig,
    QuantizedWeightTable,
    UniformSymmetricQuantizer,
    affine_minmax_params,
    assignment_bits,
    assignment_bytes,
    budget_for_average_bits,
    bytes_to_mb,
    mse_optimal_scale,
    quantize_symmetric,
    quantize_weight,
    uniform_bits,
)

finite_weights = hnp.arrays(
    np.float64,
    st.integers(4, 64),
    elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)


class TestSymmetricQuantizer:
    def test_grid_levels(self):
        w = np.linspace(-1, 1, 101)
        q = quantize_symmetric(w, 2, scale=0.5)
        assert set(np.round(q / 0.5).astype(int)) <= {-2, -1, 0, 1}

    def test_zero_preserved(self):
        q = quantize_symmetric(np.zeros(5), 4, scale=0.1)
        np.testing.assert_array_equal(q, 0.0)

    def test_8bit_nearly_lossless(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=256)
        quant = UniformSymmetricQuantizer(8).calibrate(w)
        err = np.abs(quant(w) - w).max()
        assert err < 0.02 * np.abs(w).max()

    @given(w=finite_weights, bits=st.sampled_from([2, 3, 4, 8]))
    @settings(max_examples=40, deadline=None)
    def test_error_bounded_by_half_step_inside_range(self, w, bits):
        scale = mse_optimal_scale(w, bits)
        q = quantize_symmetric(w, bits, scale)
        qmax = 2 ** (bits - 1) - 1
        inside = np.abs(w) <= scale * max(qmax, 1)
        if inside.any():
            assert np.abs(q[inside] - w[inside]).max() <= scale / 2 + 1e-9

    @given(w=finite_weights)
    @settings(max_examples=30, deadline=None)
    def test_monotone_improvement_with_bits(self, w):
        """More bits must not increase MSE (with MSE-optimal scales)."""
        errs = []
        for bits in (2, 4, 8):
            scale = mse_optimal_scale(w, bits)
            errs.append(float(((quantize_symmetric(w, bits, scale) - w) ** 2).sum()))
        assert errs[0] >= errs[1] - 1e-12
        assert errs[1] >= errs[2] - 1e-12

    def test_invalid_scale_raises(self):
        with pytest.raises(ValueError):
            quantize_symmetric(np.ones(3), 4, 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_matches_out_of_place_reference(self, dtype, bits):
        rng = np.random.default_rng(bits)
        x = (rng.normal(size=(3, 5, 16)) * 2.0).astype(dtype)
        lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
        # A python float (activation scales) and a np.float64 scalar
        # (mse_optimal_scale, weight tables) promote differently.
        for scale in (float(np.abs(x).max()) / hi, mse_optimal_scale(x, bits)):
            ties = ((np.arange(lo, hi + 1) + 0.5) * scale).astype(dtype)
            for w in (x, np.concatenate([x] * 4), ties):
                before = w.copy()
                out = quantize_symmetric(w, bits, scale)
                expected = np.clip(np.round(w / scale), lo, hi) * scale
                assert out.dtype == expected.dtype
                assert np.array_equal(out, expected)
                assert np.array_equal(w, before)

    def test_invalid_bits_raises(self):
        with pytest.raises(ValueError):
            quantize_symmetric(np.ones(3), 0, 1.0)

    def test_uncalibrated_raises(self):
        with pytest.raises(RuntimeError):
            UniformSymmetricQuantizer(4)(np.ones(3))


class TestMSEScale:
    def test_beats_maxabs_at_2bit(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=512)
        w[0] = 20.0  # outlier
        qmax = 2 ** (2 - 1) - 1
        maxabs_scale = np.abs(w).max() / qmax
        mse_scale = mse_optimal_scale(w, 2)
        err_maxabs = ((quantize_symmetric(w, 2, maxabs_scale) - w) ** 2).sum()
        err_mse = ((quantize_symmetric(w, 2, mse_scale) - w) ** 2).sum()
        assert err_mse <= err_maxabs

    def test_zero_weights(self):
        assert mse_optimal_scale(np.zeros(8), 4) == 1.0

    def test_positive(self):
        rng = np.random.default_rng(2)
        assert mse_optimal_scale(rng.normal(size=32), 4) > 0


class TestAffineQuantizer:
    def test_per_channel_ranges(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 10))
        w[0] *= 10  # channel with much wider range
        quant = PerChannelAffineQuantizer(4).calibrate(w)
        q = quant(w)
        # Each channel's error bounded by its own scale.
        for c in range(4):
            assert np.abs(q[c] - w[c]).max() <= quant.scale[c] / 2 + 1e-9

    def test_zero_exactly_representable(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(0.5, 1.0, size=(2, 8))  # all-positive channel
        scale, zp = affine_minmax_params(w, 4)
        # grid includes zero because ranges are widened to include 0
        q = PerChannelAffineQuantizer(4, scale, zp)(np.zeros_like(w))
        np.testing.assert_allclose(q, 0.0, atol=1e-12)

    def test_conv_weight_shape(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(6, 3, 3, 3))
        quant = PerChannelAffineQuantizer(6).calibrate(w)
        assert quant(w).shape == w.shape

    def test_uncalibrated_raises(self):
        with pytest.raises(RuntimeError):
            PerChannelAffineQuantizer(4)(np.ones((2, 3)))


class TestActivationQuantizer:
    def test_record_then_quantize(self):
        aq = ActivationQuantizer(8)
        aq.recording = True
        x = np.linspace(-3, 3, 100)
        out = aq(x)
        np.testing.assert_array_equal(out, x)  # identity while recording
        aq.finalize()
        q = aq(x)
        assert np.abs(q - x).max() <= aq.scale / 2 + 1e-12

    def test_zero_observations(self):
        aq = ActivationQuantizer(8)
        aq.recording = True
        aq(np.zeros(4))
        aq.finalize()
        assert aq.scale == 1.0

    def test_unfinalized_raises(self):
        with pytest.raises(RuntimeError):
            ActivationQuantizer(8)(np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_range_raises(self, bad):
        aq = ActivationQuantizer(8)
        aq.recording = True
        aq(np.array([0.5]))
        with pytest.raises(ValueError, match="non-finite"):
            aq(np.array([bad, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scale_raises(self, bad):
        aq = ActivationQuantizer(8)
        aq.scale = bad
        with pytest.raises(ValueError, match="non-finite"):
            aq(np.ones(3))


class TestQuantConfig:
    def test_defaults(self):
        cfg = QuantConfig()
        assert cfg.bits == (2, 4, 8)
        assert cfg.num_choices == 3
        assert cfg.max_bits == 8 and cfg.min_bits == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantConfig(bits=())
        with pytest.raises(ValueError):
            QuantConfig(bits=(4, 2, 8))
        with pytest.raises(ValueError):
            QuantConfig(bits=(2, 2, 4))
        with pytest.raises(ValueError):
            QuantConfig(bits=(2, 4), scheme="ternary")
        with pytest.raises(ValueError):
            QuantConfig(bits=(0, 4))


class TestSizing:
    def test_assignment_bits(self):
        assert assignment_bits([10, 20], [2, 4]) == 10 * 2 + 20 * 4
        assert assignment_bytes([8], [8]) == 8.0

    def test_uniform_bits(self):
        assert uniform_bits([10, 20], 4) == 120

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            assignment_bits([10], [2, 4])

    def test_budget_for_average(self):
        assert budget_for_average_bits([100], 4.0) == 400
        assert budget_for_average_bits([100, 100], 3.5) == 700

    def test_budget_invalid(self):
        with pytest.raises(ValueError):
            budget_for_average_bits([10], 0)

    def test_bytes_to_mb(self):
        assert bytes_to_mb(2**20) == 1.0


class TestQuantizedWeightTable:
    def _make(self, scheme="symmetric"):
        from repro.models import build_model, quantizable_layers

        model = build_model("resnet_s20", num_classes=4)
        layers = quantizable_layers(model, "resnet_s20")[:4]
        cfg = QuantConfig(bits=(2, 4, 8), scheme=scheme)
        return model, layers, QuantizedWeightTable(layers, cfg)

    def test_delta_consistency(self):
        _, layers, table = self._make()
        for i in range(len(layers)):
            np.testing.assert_allclose(
                table.delta(i, 4),
                table.quantized(i, 4) - table.original[i],
            )

    def test_set_and_restore(self):
        _, layers, table = self._make()
        orig = layers[0].weight.data.copy()
        table.set_layer(0, 2)
        assert np.abs(layers[0].weight.data - orig).max() > 0
        table.set_layer(0, None)
        np.testing.assert_array_equal(layers[0].weight.data, orig)

    def test_applied_context_restores_on_error(self):
        _, layers, table = self._make()
        orig = [layer.weight.data.copy() for layer in layers]
        with pytest.raises(RuntimeError):
            with table.applied([2] * len(layers)):
                raise RuntimeError("boom")
        for layer, o in zip(layers, orig):
            np.testing.assert_array_equal(layer.weight.data, o)

    def test_perturbed_context(self):
        _, layers, table = self._make()
        orig1 = layers[1].weight.data.copy()
        with table.perturbed((1, 2), (2, 4)):
            np.testing.assert_array_equal(
                layers[1].weight.data, table.quantized(1, 2)
            )
        np.testing.assert_array_equal(layers[1].weight.data, orig1)

    def test_apply_assignment_validation(self):
        _, layers, table = self._make()
        with pytest.raises(ValueError):
            table.apply_assignment([2])

    def test_missing_bits_raises(self):
        _, _, table = self._make()
        with pytest.raises(KeyError):
            table.quantized(0, 3)

    def test_layer_sizes(self):
        _, layers, table = self._make()
        assert table.layer_sizes() == [l.num_params for l in layers]

    def test_affine_scheme_table(self):
        _, layers, table = self._make(scheme="affine")
        q = table.quantized(0, 4)
        assert q.shape == table.original[0].shape

    def test_quantize_weight_unknown_scheme(self):
        with pytest.raises(ValueError):
            quantize_weight(np.ones(4), 4, scheme="bogus")

    def test_8bit_table_close_to_original(self):
        _, _, table = self._make()
        for i in range(table.num_layers):
            w = table.original[i]
            assert np.abs(table.delta(i, 8)).max() < 0.05 * np.abs(w).max() + 1e-6
