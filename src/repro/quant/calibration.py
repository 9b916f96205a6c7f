"""Scale/zero-point calibration.

Following the paper (which follows MPQCO): "quantization scale factors (and
zero points in the affine case) are determined by minimization of the MSE
between the float32 values and their quantized values."
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from .quantizers import quantize_symmetric

__all__ = [
    "mse_optimal_scale",
    "affine_minmax_params",
    "calibrate_activations",
    "activation_quant_state",
]

#: MSE grid searches / min-max calibrations performed (cost accounting for
#: per-(layer, bit) table construction and QAT re-calibration).
_CALIBRATION_CALLS = telemetry.counter("quant.calibration_calls")

#: Elements per broadcast error-evaluation chunk.  Small enough that the
#: float64 temporaries stay cache-resident (larger chunks go memory-bound
#: and lose to the old per-candidate loop on big tensors), large enough
#: that small tensors evaluate their whole candidate grid in one pass.
_MSE_CHUNK_ELEMS = 1 << 16


def mse_optimal_scale(
    w: np.ndarray, bits: int, grid: int = 60, low: float = 0.2
) -> float:
    """Grid-search the symmetric scale minimizing ||w - Q(w)||^2.

    Candidate scales sweep ``[low, 1.0] * max|w| / qmax(k)`` for *every*
    candidate bit-width ``k <= bits``, not just ``k = bits``.  For very low
    bit-widths the optimum sits well below the max-abs scale because
    clipping outliers is cheaper than coarsening the grid for the bulk.
    Nesting the grids across bit-widths makes the optimal MSE monotone
    non-increasing in ``bits``: at any fixed scale a wider signed grid has
    element-wise error <= a narrower one, and the candidate set for ``b``
    contains the candidate set for every ``b' < b`` — so more bits can
    never calibrate to a *worse* MSE (which a single per-``bits`` grid does
    not guarantee and occasionally violated in practice).

    The search evaluates all candidate scales in broadcast chunks (one
    quantize-and-reduce over a ``(C, |w|)`` block instead of ``C`` Python
    iterations over the full tensor).  Candidates keep the divisor-major,
    ratio-minor enumeration order and first-minimum selection of the
    original loop, so returned scales are bitwise identical to it.
    """
    _CALIBRATION_CALLS.add()
    w = np.asarray(w)
    max_abs = float(np.abs(w).max(initial=0.0))
    qmax = 2 ** (bits - 1) - 1
    if max_abs == 0.0:
        return 1.0
    if qmax == 0:  # 1-bit signed degenerates; use max-abs scale
        return max_abs
    ratios = np.linspace(low, 1.0, grid)
    divisors = sorted({2 ** (k - 1) - 1 for k in range(2, bits + 1)})
    if not divisors:
        return max_abs / qmax
    scales = np.concatenate([ratios * max_abs / d for d in divisors])
    # A subnormal max|w| can underflow ratio * max_abs / d to exactly 0.0;
    # a zero scale divides by zero in the quantize step below.  Dropping
    # the underflowed candidates keeps the enumeration order (and thus the
    # bitwise-identical first-minimum selection) for every normal input.
    scales = scales[scales > 0]
    if scales.size == 0:
        return max_abs  # every candidate underflowed; max|w| maps to code 1
    lo, hi = -(2 ** (bits - 1)), qmax
    flat = w.ravel()
    errs = np.empty(scales.size)
    rows = max(1, _MSE_CHUNK_ELEMS // max(1, flat.size))
    for start in range(0, scales.size, rows):
        s = scales[start : start + rows, None]
        q = np.clip(np.round(flat[None, :] / s), lo, hi) * s
        errs[start : start + rows] = ((flat[None, :] - q) ** 2).sum(axis=1)
    return scales[int(np.argmin(errs))]


def affine_minmax_params(w: np.ndarray, bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-output-channel affine parameters from channel min/max ranges.

    Returns ``(scale, zero_point)`` arrays of shape ``(C_out,)``.
    """
    _CALIBRATION_CALLS.add()
    flat = np.asarray(w).reshape(w.shape[0], -1)
    w_min = flat.min(axis=1)
    w_max = flat.max(axis=1)
    # Grid must include zero so that zero weights stay exactly zero.
    w_min = np.minimum(w_min, 0.0)
    w_max = np.maximum(w_max, 0.0)
    levels = 2**bits - 1
    span = w_max - w_min
    scale = np.where(span > 0, span / levels, 1.0)
    # Subnormal spans can underflow span/levels to exactly 0.0 even though
    # span > 0; a zero scale turns the zero-point division into NaN and
    # every code into garbage.  Degenerate channels quantize against scale
    # 1.0 (everything rounds to the zero code), matching the span == 0 arm.
    scale = np.where(scale > 0, scale, 1.0)
    zero_point = np.round(-w_min / scale)
    return scale.astype(np.float64), zero_point.astype(np.float64)


def calibrate_activations(model, layers, images, bits: int = 8) -> None:
    """Attach calibrated 8-bit activation fake-quantizers to ``layers``.

    Runs one recording pass over ``images`` (a no-grad forward) to observe
    per-layer input ranges, then freezes per-tensor symmetric scales.
    ``layers`` is a list of :class:`repro.models.QuantizableLayer`.
    """
    from .quantizers import ActivationQuantizer

    with telemetry.span("quant.calibrate_activations"):
        quantizers = []
        for layer in layers:
            quant = ActivationQuantizer(bits)
            quant.recording = True
            layer.module.act_quant = quant
            quantizers.append(quant)
        model.eval()
        with model.no_grad():
            model.forward(images)
        for quant in quantizers:
            quant.finalize()
        _CALIBRATION_CALLS.add(len(quantizers))


def activation_quant_state(layers: Sequence) -> List[Optional[list]]:
    """Each layer's activation quantizer as ``[bits, scale]``.

    ``None`` stands for a layer without one, and for the scale of one
    not yet calibrated.  A sweep's losses depend on this state (bits and
    calibrated scale) besides the weights and the data, so both the
    resume fingerprint and the store key hash it.
    """
    state: List[Optional[list]] = []
    for layer in layers:
        aq = getattr(layer.module, "act_quant", None)
        state.append(
            None if aq is None
            else [int(aq.bits), None if aq.scale is None else float(aq.scale)]
        )
    return state
