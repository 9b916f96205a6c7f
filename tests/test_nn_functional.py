"""Tests for the im2col convolution kernels (against naive reference loops
and, bit for bit, against the full-batch patch-matrix kernels)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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


def full_batch_conv2d(x, w, b, stride, pad, groups):
    """The full-batch kernel: one matmul over the whole im2col patch matrix.

    Returns the output and the patches, which the reference backward uses.
    """
    n = x.shape[0]
    c_out, c_in_g, kh, kw = w.shape
    cols, (oh, ow) = F.im2col(x, kh, kw, stride, pad)
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
