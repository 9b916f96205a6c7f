"""Tests for the im2col convolution kernels (against naive reference loops
and, bit for bit, against the full-batch patch-matrix kernels)."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn import functional as F


def naive_conv2d(x, w, b, stride, pad, groups):
    n, c_in, h, wd = x.shape
    c_out, c_in_g, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow))
    cg = c_in // groups
    og = c_out // groups
    for ni in range(n):
        for oc in range(c_out):
            g = oc // og
            for i in range(oh):
                for j in range(ow):
                    patch = xp[
                        ni,
                        g * cg : (g + 1) * cg,
                        i * stride : i * stride + kh,
                        j * stride : j * stride + kw,
                    ]
                    out[ni, oc, i, j] = (patch * w[oc]).sum()
    if b is not None:
        out += b.reshape(1, -1, 1, 1)
    return out


class TestConvForward:
    @pytest.mark.parametrize(
        "n,c_in,c_out,h,k,stride,pad,groups",
        [
            (2, 3, 4, 8, 3, 1, 1, 1),
            (1, 4, 6, 7, 3, 2, 1, 2),
            (3, 2, 2, 5, 1, 1, 0, 1),
            (2, 4, 4, 6, 3, 1, 1, 4),  # depthwise
            (1, 6, 9, 9, 3, 3, 0, 3),
        ],
    )
    def test_matches_naive(self, n, c_in, c_out, h, k, stride, pad, groups):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, c_in, h, h))
        w = rng.normal(size=(c_out, c_in // groups, k, k))
        b = rng.normal(size=c_out)
        out, _ = F.conv2d_forward(x, w, b, stride, pad, groups)
        expected = naive_conv2d(x, w, b, stride, pad, groups)
        np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-10)

    def test_no_bias(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out, _ = F.conv2d_forward(x, w, None, 1, 1, 1)
        expected = naive_conv2d(x, w, None, 1, 1, 1)
        np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-10)

    def test_channel_mismatch_raises(self):
        x = np.zeros((1, 3, 5, 5))
        w = np.zeros((4, 2, 3, 3))
        with pytest.raises(ValueError):
            F.conv2d_forward(x, w, None, 1, 1, 1)

    def test_empty_output_raises(self):
        x = np.zeros((1, 1, 2, 2))
        w = np.zeros((1, 1, 5, 5))
        with pytest.raises(ValueError):
            F.conv2d_forward(x, w, None, 1, 0, 1)


class TestConvBackward:
    def _grads_numeric(self, x, w, b, stride, pad, groups, grad_out, eps=1e-6):
        def loss(xv, wv, bv):
            out, _ = F.conv2d_forward(xv, wv, bv, stride, pad, groups)
            return float((out * grad_out).sum())

        dx = np.zeros_like(x)
        it = np.nditer(x, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            xp, xm = x.copy(), x.copy()
            xp[idx] += eps
            xm[idx] -= eps
            dx[idx] = (loss(xp, w, b) - loss(xm, w, b)) / (2 * eps)
            it.iternext()
        dw = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            wp, wm = w.copy(), w.copy()
            wp[idx] += eps
            wm[idx] -= eps
            dw[idx] = (loss(x, wp, b) - loss(x, wm, b)) / (2 * eps)
            it.iternext()
        return dx, dw

    @pytest.mark.parametrize(
        "stride,pad,groups", [(1, 1, 1), (2, 1, 1), (1, 0, 2), (1, 1, 4)]
    )
    def test_matches_numeric(self, stride, pad, groups):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 4, 5, 5))
        w = rng.normal(size=(4, 4 // groups, 3, 3))
        b = rng.normal(size=4)
        out, cache = F.conv2d_forward(x, w, b, stride, pad, groups)
        grad_out = rng.normal(size=out.shape)
        dx, dw, db = F.conv2d_backward(grad_out, w, cache)
        dx_num, dw_num = self._grads_numeric(x, w, b, stride, pad, groups, grad_out)
        np.testing.assert_allclose(dx, dx_num, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(dw, dw_num, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(db, grad_out.sum(axis=(0, 2, 3)))


def window_patches(x, kh, kw, stride, pad):
    """Reference patches, built here on their own (``np.pad`` plus a
    sliding-window view), never by the kernels under test."""
    n, c, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    s_n, s_c, s_h, s_w = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kh, kw, oh, ow),
        strides=(s_n, s_c, s_h, s_w, s_h * stride, s_w * stride),
        writeable=False,
    )
    return np.ascontiguousarray(windows), (oh, ow)


def full_batch_conv2d(x, w, b, stride, pad, groups):
    """The full-batch kernel: one matmul over the whole patch matrix.

    Returns the output and the patches, which the reference backward uses.
    """
    n = x.shape[0]
    c_out, c_in_g, kh, kw = w.shape
    cols, (oh, ow) = window_patches(x, kh, kw, stride, pad)
    cols_g = cols.reshape(n, groups, c_in_g * kh * kw, oh * ow)
    w_g = w.reshape(groups, c_out // groups, c_in_g * kh * kw)
    out = np.matmul(w_g, cols_g).reshape(n, c_out, oh, ow)
    if b is not None:
        out += b.reshape(1, c_out, 1, 1)
    return out, cols_g


def full_batch_conv2d_backward(grad_out, w, x, cols_g, stride, pad, groups):
    """Backward on the patch matrix cached by :func:`full_batch_conv2d`."""
    n = x.shape[0]
    c_out, c_in_g, kh, kw = w.shape
    oh, ow = grad_out.shape[2:]
    go = grad_out.reshape(n, groups, c_out // groups, oh * ow)
    w_g = w.reshape(groups, c_out // groups, c_in_g * kh * kw)
    dw = np.matmul(go, cols_g.swapaxes(-1, -2)).sum(axis=0).reshape(w.shape)
    db = grad_out.sum(axis=(0, 2, 3))
    dcols = np.matmul(w_g.swapaxes(-1, -2), go).reshape(
        n, x.shape[1], kh, kw, oh, ow
    )
    return F.col2im(dcols, x.shape, stride, pad), dw, db


# (n, c_in, c_out, h, k, stride, pad, groups)
BLOCKED_CASES = {
    "n1": (1, 3, 5, 8, 3, 1, 1, 1),
    # 7 (float32) or 3 (float64) samples per block: a partial last block.
    "n_not_block_multiple": (10, 4, 6, 32, 3, 1, 1, 1),
    # One sample's patches (2.25 MiB in float32) exceed the block.
    "sample_exceeds_block": (1, 64, 8, 32, 3, 1, 1, 1),
    "stride2": (9, 8, 16, 32, 3, 2, 1, 1),
    "1x1_pad0": (9, 8, 16, 32, 1, 1, 0, 1),
    "1x1_stride2_pad0": (9, 8, 16, 32, 1, 2, 0, 1),
    "groups2": (5, 4, 6, 9, 3, 1, 1, 2),
    "depthwise": (5, 8, 8, 16, 3, 1, 1, 8),
    "5x5_pad2": (6, 4, 6, 12, 5, 1, 2, 1),
    # A 7x7 kernel on a 2x2 plane: every tap but the centre falls outside.
    "7x7_on_2x2": (3, 4, 5, 2, 7, 1, 3, 1),
}


def _blocked_inputs(case, dtype, seed=0):
    n, c_in, c_out, h, k, _, _, groups = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c_in, h, h)).astype(dtype)
    w = rng.normal(size=(c_out, c_in // groups, k, k)).astype(dtype)
    b = rng.normal(size=c_out).astype(dtype)
    return x, w, b


class TestBlockedConvBitwise:
    """Every forward path gathers patches per block of samples; each output
    (and every gradient) is bitwise equal to the full-batch kernels."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", BLOCKED_CASES.values(), ids=BLOCKED_CASES)
    def test_forward_and_backward(self, case, dtype):
        stride, pad, groups = case[5:]
        x, w, b = _blocked_inputs(case, dtype)
        before = x.copy()
        out, cache = F.conv2d_forward(x, w, b, stride, pad, groups)
        expected, cols_g = full_batch_conv2d(x, w, b, stride, pad, groups)
        assert out.dtype == expected.dtype == dtype
        assert np.array_equal(out, expected)
        grad_out = np.random.default_rng(1).normal(size=out.shape).astype(dtype)
        grads = F.conv2d_backward(grad_out, w, cache)
        ref = full_batch_conv2d_backward(grad_out, w, x, cols_g, stride, pad, groups)
        for got, want in zip(grads, ref):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert np.array_equal(x, before)

    def test_forward_peak_memory(self):
        """No full-batch patch matrix: the extra peak of one forward stays
        within its output, a copy's worth of input and a few MiB of blocks
        (the full-batch kernel needed ~65 MiB here: 9x the input)."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal((192, 8, 32, 32), dtype=np.float32)
        w = rng.standard_normal((8, 8, 3, 3), dtype=np.float32)
        bias = rng.standard_normal(8, dtype=np.float32)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            out, _ = F.conv2d_forward(x, w, bias, 1, 1, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < out.nbytes + x.nbytes + 4 * 2**20


def _bits(a):
    """``a`` as unsigned integers, so -0.0, NaN payloads and infinities
    compare by their bits."""
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


class TestPlaneGather:
    """A stride-1 "same" conv gathers whole shifted planes; its patches,
    forward outputs and patch matrix for backward are bitwise equal to the
    window gather's."""

    @given(
        k=st.sampled_from([1, 3, 5, 7]),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        c=st.integers(1, 3),
        layout=st.sampled_from(["dense", "groups2", "depthwise"]),
        n=st.integers(1, 7),
        block=st.integers(1, 3),
        dtype=st.sampled_from([np.float32, np.float64]),
        specials=st.booleans(),
        frozen=st.booleans(),
        strided=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(
        k=7, h=2, w=2, c=2, layout="dense", n=5, block=2, dtype=np.float32,
        specials=True, frozen=True, strided=True, seed=0,
    )
    @example(
        k=5, h=3, w=8, c=2, layout="groups2", n=7, block=3, dtype=np.float64,
        specials=True, frozen=False, strided=True, seed=1,
    )
    @example(
        k=3, h=6, w=4, c=3, layout="depthwise", n=4, block=3,
        dtype=np.float32, specials=True, frozen=True, strided=False, seed=2,
    )
    @settings(max_examples=120, deadline=None)
    def test_bitwise_equal_to_window_gather(
        self, k, h, w, c, layout, n, block, dtype, specials, frozen, strided,
        seed,
    ):
        pad = (k - 1) // 2
        groups, c_in, c_out = {
            "dense": (1, c, c + 1),
            "groups2": (2, 2 * c, 4),
            "depthwise": (c, c, c),
        }[layout]
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c_in, h, 2 * w)).astype(dtype)
        if specials:
            flat = x.reshape(-1)
            picks = rng.choice(flat.size, size=min(flat.size, 8), replace=False)
            flat[picks] = np.resize(
                np.array([-0.0, np.nan, np.inf, -np.inf], dtype=dtype),
                len(picks),
            )
        x = x[..., ::2] if strided else np.ascontiguousarray(x[..., :w])
        x.flags.writeable = not frozen
        weight = rng.normal(size=(c_out, c_in // groups, k, k)).astype(dtype)
        expected_cols, _ = window_patches(x, k, k, 1, pad)

        # The two gathers, block by block, into reused buffers.
        cols_p = np.empty((block, c_in, k, k, h, w), dtype=dtype)
        cols_w = np.empty_like(cols_p)
        plane = F._plane_gather(cols_p)
        window = F._window_gather(cols_w, x.shape[1:], 1, pad)
        for s in range(0, n, block):
            b = min(block, n - s)
            plane(x[s : s + b])
            window(x[s : s + b])
            assert np.array_equal(_bits(cols_p[:b]), _bits(cols_w[:b]))
            assert np.array_equal(
                _bits(cols_p[:b]), _bits(expected_cols[s : s + b])
            )

        # Backward's whole patch matrix comes from the same builder.
        cols, hw = F.im2col(x, k, k, 1, pad)
        assert hw == (h, w)
        assert np.array_equal(_bits(cols), _bits(expected_cols))

        # The forward, with blocks of ``block`` samples.
        sample_bytes = c_in * k * k * h * w * x.itemsize
        with np.errstate(invalid="ignore"):
            with mock.patch.object(F, "_BLOCK_BYTES", block * sample_bytes):
                out, _ = F.conv2d_forward(x, weight, None, 1, pad, groups)
            expected, _ = full_batch_conv2d(x, weight, None, 1, pad, groups)
        assert out.dtype == expected.dtype == dtype
        assert np.array_equal(_bits(out), _bits(expected))

    def test_strided_convs_keep_the_window_gather(self):
        """Only a padded stride-1 conv whose output is as large as its
        input takes the plane gather."""
        for args, kind in [
            (((4, 8, 8), 3, 3, 1, 1), "_plane_gather"),
            (((4, 8, 8), 7, 7, 1, 3), "_plane_gather"),
            (((4, 8, 8), 1, 1, 1, 0), "_window_gather"),
            (((4, 8, 8), 3, 3, 2, 1), "_window_gather"),
            (((4, 8, 8), 1, 1, 2, 0), "_window_gather"),
            (((4, 8, 8), 3, 3, 1, 0), "_window_gather"),
            (((3, 32, 32), 8, 8, 8, 0), "_window_gather"),
        ]:
            with mock.patch.object(F, kind, wraps=getattr(F, kind)) as spy:
                F._patch_gather(*args, 2, np.float32)
            assert spy.call_count == 1, (args, kind)


class TestIm2colAdjoint:
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        h=st.integers(4, 8),
        k=st.integers(1, 3),
        stride=st.integers(1, 2),
        pad=st.integers(0, 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_col2im_is_adjoint_of_im2col(self, n, c, h, k, stride, pad):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
        if (h + 2 * pad - k) < 0:
            return
        rng = np.random.default_rng(42)
        x = rng.normal(size=(n, c, h, h))
        cols, (oh, ow) = F.im2col(x, k, k, stride, pad)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * F.col2im(y, x.shape, stride, pad)).sum())
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 7)) * 10
        s = F.softmax(x, axis=1)
        np.testing.assert_allclose(s.sum(axis=1), np.ones(4), rtol=1e-12)

    def test_stability_large_logits(self):
        x = np.array([[1e4, 0.0], [0.0, -1e4]])
        s = F.softmax(x, axis=1)
        assert np.all(np.isfinite(s))

    def test_log_softmax_consistency(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(
            F.log_softmax(x), np.log(F.softmax(x)), rtol=1e-10
        )
