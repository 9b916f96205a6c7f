"""MobileNetV3-style model: inverted residuals + squeeze-excite + hardswish.

Mirrors the paper's MobileNetV3-Large in block taxonomy (expand/depthwise/
SE/project, hardswish activations, SE fully-connected layers counted as
quantizable layers just like ``features.*.block.2.fc1/fc2`` in Appendix A),
scaled to 32x32 inputs.  Its parameter efficiency is why the paper uses the
more conservative bit-width set {4, 6, 8} for it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import (
    ConvBNAct,
    GlobalAvgPool2d,
    Hardswish,
    InvertedResidual,
    Linear,
    Module,
    Sequential,
)

__all__ = ["MobileNetS", "mobilenet_s"]


class MobileNetS(Module):
    """Scaled MobileNetV3: stem → 5 inverted-residual blocks → head."""

    def __init__(
        self,
        num_classes: int = 10,
        in_channels: int = 3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.stem = ConvBNAct(in_channels, 8, 3, 1, act="hardswish", rng=rng)
        # (in, expand, out, stride, use_se, act)
        specs = [
            (8, 16, 8, 1, False, "relu"),
            (8, 24, 12, 2, False, "relu"),
            (12, 36, 12, 1, True, "relu"),
            (12, 48, 24, 2, True, "hardswish"),
            (24, 72, 24, 1, True, "hardswish"),
        ]
        self.features = [
            InvertedResidual(i, e, o, s, use_se=se, act=a, rng=rng)
            for i, e, o, s, se, a in specs
        ]
        self.head = ConvBNAct(24, 48, 1, 1, act="hardswish", rng=rng)
        self.pool = GlobalAvgPool2d()
        self.pre_classifier = Linear(48, 64, rng=rng)
        self.act = Hardswish()
        self.classifier = Linear(64, num_classes, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self.stem.forward(x)
        for block in self.features:
            x = block.forward(x)
        x = self.pool.forward(self.head.forward(x))
        x = self.act.forward(self.pre_classifier.forward(x))
        return self.classifier.forward(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = self.classifier.backward(grad_out)
        g = self.pre_classifier.backward(self.act.backward(g))
        g = self.head.backward(self.pool.backward(g))
        for block in reversed(self.features):
            g = block.backward(g)
        return self.stem.backward(g)

    def segments(self):
        """Stem, each inverted-residual block's segments, then the
        head/classifier."""
        blocks = [segment for block in self.features for segment in block.segments()]
        tail = Sequential(
            self.head, self.pool, self.pre_classifier, self.act, self.classifier
        )
        return [self.stem, *blocks, tail]


def mobilenet_s(num_classes: int = 10, seed: int = 13) -> MobileNetS:
    rng = np.random.default_rng(seed)
    return MobileNetS(num_classes=num_classes, rng=rng)
