"""RegNet-style model: stages of grouped-convolution X-blocks.

Mirrors RegNet-3.2GF's design-space shape (simple stem, per-stage widths,
grouped 3x3 convolutions with fixed group width) at 32x32 scale.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..nn import ConvBNAct, GlobalAvgPool2d, Linear, Module, Sequential, XBlock

__all__ = ["RegNetS", "regnet_s"]


class RegNetS(Module):
    """Scaled RegNet-X: stem + three stages of X-blocks + linear head."""

    def __init__(
        self,
        stage_blocks: Sequence[int] = (1, 1, 2),
        stage_channels: Sequence[int] = (16, 32, 64),
        group_width: int = 8,
        num_classes: int = 10,
        in_channels: int = 3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if len(stage_blocks) != len(stage_channels):
            raise ValueError("stage_blocks and stage_channels length mismatch")
        rng = rng or np.random.default_rng(0)
        self.stem = ConvBNAct(in_channels, stage_channels[0], 3, 1, act="relu", rng=rng)
        ch = stage_channels[0]
        self.stages = []
        for stage_idx, (depth, width) in enumerate(zip(stage_blocks, stage_channels)):
            blocks = []
            for block_idx in range(depth):
                stride = 2 if (stage_idx > 0 and block_idx == 0) else 1
                blocks.append(XBlock(ch, width, stride, group_width, rng=rng))
                ch = width
            self.stages.append(Sequential(*blocks))
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(ch, num_classes, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self.stem.forward(x)
        for stage in self.stages:
            x = stage.forward(x)
        return self.fc.forward(self.pool.forward(x))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = self.pool.backward(self.fc.backward(grad_out))
        for stage in reversed(self.stages):
            g = stage.backward(g)
        return self.stem.backward(g)

    def segments(self):
        """Stem, each X-block's segments, then the pooled classifier head."""
        blocks = [
            segment
            for stage in self.stages
            for block in stage.layers
            for segment in block.segments()
        ]
        return [self.stem, *blocks, Sequential(self.pool, self.fc)]


def regnet_s(num_classes: int = 10, seed: int = 14) -> RegNetS:
    rng = np.random.default_rng(seed)
    return RegNetS(num_classes=num_classes, rng=rng)
