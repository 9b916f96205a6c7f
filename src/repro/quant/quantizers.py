"""Weight and activation quantizers.

Implements the paper's quantization function (§4.1):

    Q(w, b) = clip(round(w / s), -2^(b-1), 2^(b-1) - 1) * s

per-tensor uniform symmetric (the default scheme) and the per-channel affine
variant used for MobileNetV3 and ViT (Table 1, "+" footnote).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "quantize_symmetric",
    "quantize_affine",
    "UniformSymmetricQuantizer",
    "PerChannelAffineQuantizer",
    "ActivationQuantizer",
]


def _qrange(bits: int, signed: bool) -> tuple:
    if bits < 1:
        raise ValueError(f"bit-width must be >= 1, got {bits}")
    if signed:
        return -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    return 0, 2**bits - 1


def quantize_symmetric(w: np.ndarray, bits: int, scale: float) -> np.ndarray:
    """Fake-quantize ``w`` with a symmetric signed grid of step ``scale``."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    lo, hi = _qrange(bits, signed=True)
    # One buffer for the whole chain; bitwise equal to
    # np.clip(np.round(w / scale), lo, hi) * scale.
    out = np.divide(w, scale)
    np.round(out, out=out)
    np.clip(out, lo, hi, out=out)
    out *= scale
    return out


def quantize_affine(
    w: np.ndarray, bits: int, scale: np.ndarray, zero_point: np.ndarray
) -> np.ndarray:
    """Fake-quantize with per-channel affine grids.

    ``scale``/``zero_point`` broadcast against ``w`` (channel axis 0 expanded
    by the caller).
    """
    lo, hi = _qrange(bits, signed=False)
    q = np.clip(np.round(w / scale) + zero_point, lo, hi)
    return (q - zero_point) * scale


@dataclass
class UniformSymmetricQuantizer:
    """Per-tensor symmetric quantizer with a calibrated scale."""

    bits: int
    scale: Optional[float] = None

    def calibrate(self, w: np.ndarray) -> "UniformSymmetricQuantizer":
        from .calibration import mse_optimal_scale

        self.scale = mse_optimal_scale(w, self.bits)
        return self

    def __call__(self, w: np.ndarray) -> np.ndarray:
        if self.scale is None:
            raise RuntimeError("quantizer used before calibration")
        return quantize_symmetric(w, self.bits, self.scale)


@dataclass
class PerChannelAffineQuantizer:
    """Per-output-channel affine quantizer (channel axis 0)."""

    bits: int
    scale: Optional[np.ndarray] = None
    zero_point: Optional[np.ndarray] = None

    def calibrate(self, w: np.ndarray) -> "PerChannelAffineQuantizer":
        from .calibration import affine_minmax_params

        self.scale, self.zero_point = affine_minmax_params(w, self.bits)
        return self

    def __call__(self, w: np.ndarray) -> np.ndarray:
        if self.scale is None or self.zero_point is None:
            raise RuntimeError("quantizer used before calibration")
        shape = (w.shape[0],) + (1,) * (w.ndim - 1)
        return quantize_affine(
            w, self.bits, self.scale.reshape(shape), self.zero_point.reshape(shape)
        )


class ActivationQuantizer:
    """Per-tensor symmetric activation fake-quant (8-bit in the paper).

    Instances are attached to ``Conv2d.act_quant`` / ``Linear.act_quant``;
    the layer applies them to its input in forward and treats them as the
    identity in backward (straight-through).
    """

    def __init__(self, bits: int = 8) -> None:
        self.bits = bits
        self.scale: Optional[float] = None
        self.recording = False
        self._max_abs = 0.0

    def observe(self, x: np.ndarray) -> None:
        max_abs = float(np.abs(x).max(initial=0.0))
        # Python's max() would drop a NaN range silently, and an inf range
        # gives an inf scale that turns every output into NaN.
        if not math.isfinite(max_abs):
            raise ValueError(f"non-finite activation range observed: {max_abs}")
        self._max_abs = max(self._max_abs, max_abs)

    def finalize(self) -> None:
        lo, hi = _qrange(self.bits, signed=True)
        del lo
        if self._max_abs == 0.0:
            self.scale = 1.0
        else:
            self.scale = self._max_abs / hi
        self.recording = False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.recording:
            self.observe(x)
            return x
        if self.scale is None:
            raise RuntimeError("activation quantizer used before calibration")
        # Checked here, not in quantize_symmetric: diverged (inf) weights
        # calibrate to an inf scale and must surface as the sweep's
        # non-finite loss error, not fail the weight table build.
        if not math.isfinite(self.scale):
            raise ValueError(f"non-finite activation scale: {self.scale}")
        return quantize_symmetric(x, self.bits, self.scale)
