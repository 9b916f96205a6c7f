"""Stateless numerical kernels shared by the layer classes.

The convolution kernels use an im2col formulation: sliding windows are a
zero-copy ``numpy.lib.stride_tricks.as_strided`` view, and the convolution
becomes one BLAS GEMM per ``(sample, group)`` over the gathered patches,
which is the only way to get acceptable CPU throughput for the
``O((|B|I)^2)`` forward sweeps CLADO performs.  A 3x3 patch matrix is 9x
its input, so both forward paths (:func:`conv2d_forward` and the
candidate-overlay :func:`conv2d_forward_overlay`) go through
:func:`_conv_into`, which gathers the patches of one cache-sized block of
samples at a time instead of the whole batch.
Backward rebuilds the full patch matrix with :func:`im2col` from the cached
input.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "im2col",
    "col2im",
    "conv2d_forward",
    "conv2d_backward",
    "BatchedWeightOverlay",
    "linear_forward_overlay",
    "conv2d_forward_overlay",
    "softmax",
    "log_softmax",
]


def _out_hw(
    h: int, w: int, kh: int, kw: int, stride: int, pad: int
) -> Tuple[int, int]:
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"convolution output would be empty: input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {stride}, pad {pad}"
        )
    return oh, ow


def _windows(
    x: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int
) -> np.ndarray:
    """Read-only ``(N, C, kh, kw, OH, OW)`` view of the sliding windows of
    ``x``, which is already padded."""
    s_n, s_c, s_h, s_w = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(*x.shape[:2], kh, kw, oh, ow),
        strides=(s_n, s_c, s_h, s_w, s_h * stride, s_w * stride),
        writeable=False,
    )


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Gather sliding windows of ``x`` into a patch tensor.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.

    Returns
    -------
    cols:
        Array of shape ``(N, C, kh, kw, OH, OW)``.  It is a contiguous copy,
        safe to reshape for the matmul.
    (OH, OW):
        Spatial output size.
    """
    oh, ow = _out_hw(*x.shape[2:], kh, kw, stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return np.ascontiguousarray(_windows(x, kh, kw, stride, oh, ow)), (oh, ow)


def col2im(
    dcols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    stride: int,
    pad: int,
) -> np.ndarray:
    """Scatter-add patch gradients back to the input layout.

    Inverse (adjoint) of :func:`im2col`.  ``dcols`` has shape
    ``(N, C, kh, kw, OH, OW)``.
    """
    n, c, h, w = x_shape
    _, _, kh, kw, oh, ow = dcols.shape
    dx_pad = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=dcols.dtype)
    for i in range(kh):
        h_stop = i + stride * oh
        for j in range(kw):
            w_stop = j + stride * ow
            dx_pad[:, :, i:h_stop:stride, j:w_stop:stride] += dcols[:, :, i, j]
    if pad:
        return dx_pad[:, :, pad:-pad, pad:-pad]
    return dx_pad


#: Patch bytes :func:`_conv_into` gathers per block of samples: small enough
#: that the block is still in L2 when its GEMMs read it.  On resnet_s34's
#: conv shapes, blocks of 2 MiB and more were slower, and smaller blocks
#: were no faster while paying more per-block dispatch.
_BLOCK_BYTES = 1 << 20


def _empty_conv_out(
    x: np.ndarray, weight: np.ndarray, stride: int, pad: int, groups: int
) -> np.ndarray:
    """Validate a grouped convolution and allocate its ``(N, C_out, OH, OW)``
    output.  ``weight`` may carry a leading candidate axis."""
    c_in, h, w = x.shape[1:]
    c_out, c_in_g, kh, kw = weight.shape[-4:]
    if c_in != c_in_g * groups:
        raise ValueError(
            f"input channels {c_in} incompatible with weight "
            f"{weight.shape} and groups={groups}"
        )
    oh, ow = _out_hw(h, w, kh, kw, stride, pad)
    return np.empty(
        (x.shape[0], c_out, oh, ow), dtype=np.result_type(x.dtype, weight.dtype)
    )


def _conv_into(
    out: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    stride: int,
    pad: int,
    groups: int,
) -> None:
    """Write the bias-free grouped convolution of ``x`` into ``out``.

    ``out`` is a C-contiguous ``(N, C_out, OH, OW)`` array.  The patches
    of one block of samples at a time are copied into a single reused
    buffer of about ``_BLOCK_BYTES`` (at least one sample), and the block's
    GEMMs run from it: ``(G,O,P) @ (b,G,P,L) -> (b,G,O,L)``, one BLAS GEMM
    per ``(sample, group)``.  These are the GEMMs a single ``np.matmul``
    over the full :func:`im2col` patch matrix runs, with the same shapes,
    strides and operand values, so ``out`` is bitwise equal to that
    full-batch product, while the patches never make a round trip through
    DRAM.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_g, kh, kw = weight.shape
    oh, ow = out.shape[2:]
    p = c_in_g * kh * kw
    w_g = weight.reshape(groups, c_out // groups, p)
    out_g = out.reshape(n, groups, c_out // groups, oh * ow)
    sample_bytes = c_in * kh * kw * oh * ow * x.itemsize
    block = max(1, min(n, _BLOCK_BYTES // sample_bytes))
    cols = np.empty((block, c_in, kh, kw, oh, ow), dtype=x.dtype)
    cols_g = cols.reshape(block, groups, p, oh * ow)
    if pad:
        # Zero borders once; each block only overwrites the interior.
        src = np.zeros((block, c_in, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        interior = src[:, :, pad : pad + h, pad : pad + w]
    else:
        src = x
    windows = _windows(src, kh, kw, stride, oh, ow)
    for s in range(0, n, block):
        b = min(block, n - s)
        if pad:
            interior[:b] = x[s : s + b]
            cols[:b] = windows[:b]
        else:
            cols[:b] = windows[s : s + b]
        np.matmul(w_g, cols_g[:b], out=out_g[s : s + b])


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    stride: int,
    pad: int,
    groups: int,
) -> Tuple[np.ndarray, Tuple]:
    """Grouped 2-D convolution.

    Parameters
    ----------
    x:
        ``(N, C_in, H, W)``.
    weight:
        ``(C_out, C_in // groups, kh, kw)``.
    bias:
        ``(C_out,)`` or ``None``.

    Returns
    -------
    out, cache:
        ``out`` has shape ``(N, C_out, OH, OW)``; ``cache`` carries what the
        backward pass needs (the input, not its 9x larger patch matrix).
    """
    out = _empty_conv_out(x, weight, stride, pad, groups)
    _conv_into(out, x, weight, stride, pad, groups)
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out, (x, stride, pad, groups)


def conv2d_backward(
    grad_out: np.ndarray, weight: np.ndarray, cache: Tuple
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the grouped convolution.

    Rebuilds the patch matrix from the cached input with :func:`im2col`
    (the only caller allowed to build it whole: lint rule 9).

    Returns ``(dx, dweight, dbias)``.
    """
    x, stride, pad, groups = cache
    n, c_in, _, _ = x.shape
    c_out, c_in_g, kh, kw = weight.shape
    cols, (oh, ow) = im2col(x, kh, kw, stride, pad)
    cols_g = cols.reshape(n, groups, c_in_g * kh * kw, oh * ow)
    go = grad_out.reshape(n, groups, c_out // groups, oh * ow)
    w_g = weight.reshape(groups, c_out // groups, c_in_g * kh * kw)
    # dW: sum over batch and spatial positions, via batched matmul.
    dw = np.matmul(go, cols_g.swapaxes(-1, -2)).sum(axis=0)
    dw = dw.reshape(c_out, c_in_g, kh, kw)
    dbias = grad_out.sum(axis=(0, 2, 3))
    # dcols: (G,P,O) @ (N,G,O,L) -> (N,G,P,L), back through im2col.
    dcols_g = np.matmul(w_g.swapaxes(-1, -2), go)
    dcols = dcols_g.reshape(n, c_in, kh, kw, oh, ow)
    dx = col2im(dcols, x.shape, stride, pad)
    return dx, dw, dbias


class BatchedWeightOverlay:
    """Candidate-axis weight stack: ``base`` everywhere but ``rows``.

    Candidate ``k`` of ``width`` sees ``rows[k]`` when it has a row and
    ``base`` otherwise.  The sweep's chunks are sparse — each candidate
    perturbs one layer, so at any given layer all but a few candidate
    rows equal the in-context weight, and a layer no candidate perturbs
    has no rows at all — while ``evaluate_assignments`` gives every
    candidate a row at every searched layer.  Both overlay kernels
    (:func:`linear_forward_overlay`, :func:`conv2d_forward_overlay`)
    compute each candidate slice once, with the GEMM shapes the plain
    forward of one slice uses, so every slice is bitwise equal to that
    plain forward under its own weight.
    """

    __slots__ = ("width", "base", "rows")

    def __init__(self, width: int, base: np.ndarray, rows: dict) -> None:
        base = np.asarray(base)
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        for k, w in rows.items():
            if not 0 <= k < width:
                raise ValueError(f"row index {k} out of range for width {width}")
            if np.shape(w) != base.shape:
                raise ValueError(
                    f"row {k} shape {np.shape(w)} != base shape {base.shape}"
                )
        self.width = int(width)
        self.base = base
        self.rows = dict(rows)


def _fold_slices(kn: int, width: int) -> int:
    if kn % width:
        raise ValueError(
            f"folded batch {kn} not divisible by candidate count {width}"
        )
    return kn // width


def linear_forward_overlay(
    x: np.ndarray, overlay: BatchedWeightOverlay, bias: np.ndarray
) -> np.ndarray:
    """Affine map under a candidate-weight overlay.

    ``x`` is folded candidate-major (``(K*N, ..., in_features)``).  The
    candidate slices are walked once: a run of consecutive slices without
    a row is one ``np.matmul`` on the base weight over ``(run, N, ...)``,
    each slice with a row one ``np.matmul`` on that row's weight.  Either
    way BLAS sees the ``(N, ...)`` GEMMs of one slice: OpenBLAS rounds a
    GEMM differently as its row count changes, so one GEMM over the whole
    folded batch would not be bitwise equal to the plain forward of a
    slice, and every slice here is.
    """
    n = _fold_slices(x.shape[0], overlay.width)
    base = overlay.base
    out = np.empty(
        (*x.shape[:-1], base.shape[0]), dtype=np.result_type(x.dtype, base.dtype)
    )
    start = 0
    for k in [*sorted(overlay.rows), overlay.width]:
        if start < k:
            run = (k - start, n, *x.shape[1:-1])
            sl = slice(start * n, k * n)
            np.matmul(
                x[sl].reshape(*run, x.shape[-1]), base.T,
                out=out[sl].reshape(*run, base.shape[0]),
            )
        if k < overlay.width:
            sl = slice(k * n, (k + 1) * n)
            np.matmul(x[sl], overlay.rows[k].T, out=out[sl])
        start = k + 1
    if bias is not None:
        out += bias
    return out


def conv2d_forward_overlay(
    x: np.ndarray,
    overlay: BatchedWeightOverlay,
    bias: np.ndarray,
    stride: int,
    pad: int,
    groups: int,
) -> np.ndarray:
    """Grouped convolution under a candidate-weight overlay.

    ``x`` is folded candidate-major (``(K*N, C, H, W)``).  The candidate
    slices are walked once: each run of consecutive slices without a row
    is one :func:`_conv_into` call on the base weight, each slice with a
    row one call on that row's weight, so no slice is computed twice.
    Every slice is bitwise equal to the sequential :func:`conv2d_forward`
    under its own weight.
    """
    n = _fold_slices(x.shape[0], overlay.width)
    out = _empty_conv_out(x, overlay.base, stride, pad, groups)
    start = 0
    for k in [*sorted(overlay.rows), overlay.width]:
        if start < k:
            sl = slice(start * n, k * n)
            _conv_into(out[sl], x[sl], overlay.base, stride, pad, groups)
        if k < overlay.width:
            sl = slice(k * n, (k + 1) * n)
            _conv_into(out[sl], x[sl], overlay.rows[k], stride, pad, groups)
        start = k + 1
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
