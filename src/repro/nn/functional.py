"""Stateless numerical kernels shared by the layer classes.

The convolution kernels use an im2col formulation: the convolution becomes
one BLAS GEMM per ``(sample, group)`` over a patch matrix with one column
per output position and ``C·kh·kw`` rows, which is the only way to get
acceptable CPU throughput for the ``O((|B|I)^2)`` forward sweeps CLADO
performs.  A 3x3 patch matrix is 9x its input, so :func:`conv2d_forward`
goes through :func:`_conv_into`, which gathers the patches of one
cache-sized block of samples at a time instead of the whole batch.

One builder, :func:`_patch_gather`, fills every patch buffer, forward
and backward, in one of two ways chosen by the conv's own geometry:

* a padded stride-1 "same" conv (output size equal to input size)
  copies whole shifted planes out of a flat, zero-bordered copy of its
  input: one run of ``OH·OW`` elements per ``(channel, i, j)``
  (:func:`_plane_gather`);
* every other conv copies its sliding windows, a zero-copy
  ``numpy.lib.stride_tricks.as_strided`` view of the padded input, in
  runs of ``OW`` elements (:func:`_window_gather`).

Both write the same values, so the GEMMs, and their outputs, do not
depend on the choice.  Backward rebuilds the full patch matrix with
:func:`im2col` from the cached input.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

__all__ = [
    "im2col",
    "col2im",
    "conv2d_forward",
    "conv2d_backward",
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
        safe to reshape for the matmul, built by :func:`_patch_gather` as
        one block of all ``N`` samples.
    (OH, OW):
        Spatial output size.
    """
    cols, gather = _patch_gather(
        x.shape[1:], kh, kw, stride, pad, x.shape[0], x.dtype
    )
    gather(x)
    return cols, cols.shape[4:]


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


def _window_gather(
    cols: np.ndarray, shape: Tuple[int, int, int], stride: int, pad: int
) -> Callable[[np.ndarray], None]:
    """``gather(xb)`` copying the sliding windows of the samples ``xb`` into
    ``cols[:len(xb)]``: ``C·kh·kw·OH`` strided runs of ``OW`` elements per
    sample.  ``cols`` is a C-contiguous ``(block, C, kh, kw, OH, OW)``
    buffer and ``shape`` the ``(C, H, W)`` of one input sample."""
    block, c, kh, kw, oh, ow = cols.shape
    _, h, w = shape
    if not pad:

        def gather(xb: np.ndarray) -> None:
            cols[: len(xb)] = _windows(xb, kh, kw, stride, oh, ow)

        return gather
    # Zero borders once; each block only overwrites the interior.
    src = np.zeros((block, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    interior = src[:, :, pad : pad + h, pad : pad + w]
    windows = _windows(src, kh, kw, stride, oh, ow)

    def gather(xb: np.ndarray) -> None:
        b = len(xb)
        interior[:b] = xb
        cols[:b] = windows[:b]

    return gather


def _plane_gather(cols: np.ndarray) -> Callable[[np.ndarray], None]:
    """``gather(xb)`` for a stride-1 "same" conv (``kh == kw == 2·pad + 1``,
    output size equal to input size), writing the same values as
    :func:`_window_gather` in ``C·kh·kw`` runs of ``OH·OW`` elements.

    Each input plane is copied flat into a buffer with ``lead = pad·W +
    pad`` zeros before and after it.  Tap ``(i, j)`` of output ``(y, x)``
    reads input ``(y + i − pad, x + j − pad)``, so the ``(i, j)`` patch
    plane of a channel is the contiguous run of ``H·W`` elements at offset
    ``i·W + j``: rows above and below the plane read the zeros.  Only the
    output columns whose tap falls left or right of the plane read the
    neighbouring row instead of zeros; each ``j ≠ pad`` zeroes its own
    columns after the copy, clamped to the plane for kernels wider than
    it.
    """
    block, c, kh, kw, h, w = cols.shape
    pad = (kw - 1) // 2
    lead = pad * w + pad
    flat = np.zeros((block, c, h * w + 2 * lead), dtype=cols.dtype)
    interior = flat[:, :, lead : lead + h * w].reshape(block, c, h, w)
    s_n, s_c, s_e = flat.strides
    planes = np.lib.stride_tricks.as_strided(
        flat,
        shape=(block, c, kh, kw, h * w),
        strides=(s_n, s_c, w * s_e, s_e, s_e),
        writeable=False,
    )
    runs = cols.reshape(block, c, kh, kw, h * w)
    wraps = [(j, slice(0, min(pad - j, w))) for j in range(pad)] + [
        (j, slice(max(0, w - (j - pad)), w)) for j in range(pad + 1, kw)
    ]

    def gather(xb: np.ndarray) -> None:
        b = len(xb)
        interior[:b] = xb
        runs[:b] = planes[:b]
        for j, cut in wraps:
            cols[:b, :, :, j, :, cut] = 0

    return gather


def _patch_gather(
    shape: Tuple[int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    block: int,
    dtype,
) -> Tuple[np.ndarray, Callable[[np.ndarray], None]]:
    """A ``(block, C, kh, kw, OH, OW)`` patch buffer ``cols`` and the
    ``gather(xb)`` that fills ``cols[:len(xb)]`` from at most ``block``
    input samples of shape ``shape``.

    A padded stride-1 conv whose output is as large as its input takes
    :func:`_plane_gather`; every other conv takes :func:`_window_gather`.
    """
    c, h, w = shape
    oh, ow = _out_hw(h, w, kh, kw, stride, pad)
    cols = np.empty((block, c, kh, kw, oh, ow), dtype=dtype)
    if stride == 1 and pad and (oh, ow) == (h, w):
        return cols, _plane_gather(cols)
    return cols, _window_gather(cols, shape, stride, pad)


#: Patch bytes :func:`_conv_into` gathers per block of samples: small enough
#: that the block is still in L2 when its GEMMs read it.  On resnet_s34's
#: conv shapes, blocks of 2 MiB and more were slower, and smaller blocks
#: were no faster while paying more per-block dispatch.
_BLOCK_BYTES = 1 << 20


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
    of one block of samples at a time are gathered by
    :func:`_patch_gather` into a single reused buffer of about
    ``_BLOCK_BYTES`` (at least one sample), and the block's GEMMs run from
    it: ``(G,O,P) @ (b,G,P,L) -> (b,G,O,L)``, one BLAS GEMM per
    ``(sample, group)``.  A stride-1 "same" conv gathers whole shifted
    planes, any other conv its sliding windows; both write the same
    values.  These are the GEMMs a single ``np.matmul`` over the full
    :func:`im2col` patch matrix runs, with the same shapes, strides and
    operand values, so ``out`` is bitwise equal to that full-batch
    product, while the patches never make a round trip through DRAM.
    """
    n, c_in = x.shape[:2]
    c_out, c_in_g, kh, kw = weight.shape
    oh, ow = out.shape[2:]
    p = c_in_g * kh * kw
    w_g = weight.reshape(groups, c_out // groups, p)
    out_g = out.reshape(n, groups, c_out // groups, oh * ow)
    sample_bytes = c_in * kh * kw * oh * ow * x.itemsize
    block = max(1, min(n, _BLOCK_BYTES // sample_bytes))
    cols, gather = _patch_gather(x.shape[1:], kh, kw, stride, pad, block, x.dtype)
    cols_g = cols.reshape(block, groups, p, oh * ow)
    for s in range(0, n, block):
        b = min(block, n - s)
        gather(x[s : s + b])
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
    c_in, h, w = x.shape[1:]
    c_out, c_in_g, kh, kw = weight.shape
    if c_in != c_in_g * groups:
        raise ValueError(
            f"input channels {c_in} incompatible with weight "
            f"{weight.shape} and groups={groups}"
        )
    oh, ow = _out_hw(h, w, kh, kw, stride, pad)
    out = np.empty(
        (x.shape[0], c_out, oh, ow), dtype=np.result_type(x.dtype, weight.dtype)
    )
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


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
