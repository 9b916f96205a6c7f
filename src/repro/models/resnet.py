"""ResNet-style models (basic-block and bottleneck variants).

``resnet_s34`` mirrors ResNet-34's topology (basic blocks, stage-boundary
downsample convolutions) and ``resnet_s50`` mirrors ResNet-50's (1x1-3x3-1x1
bottlenecks with expansion 4), both scaled to 32x32 synthetic images so the
`O((|B|I)^2)` CLADO sweep is tractable on CPU.  ``resnet_s20`` is the tiny
CIFAR-style network the paper uses for the exact-Hessian check (Table 2).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..nn import (
    BasicBlock,
    Bottleneck,
    Conv2d,
    ConvBNAct,
    GlobalAvgPool2d,
    Linear,
    Module,
    Sequential,
)

__all__ = ["ResNet", "resnet_s20", "resnet_s34", "resnet_s50"]


class ResNet(Module):
    """Configurable residual network over 32x32 inputs.

    Parameters
    ----------
    block:
        ``"basic"`` or ``"bottleneck"``.
    stage_blocks:
        Number of residual blocks per stage.
    stage_channels:
        Output channels (basic) or mid channels (bottleneck) per stage.
    """

    def __init__(
        self,
        block: str,
        stage_blocks: Sequence[int],
        stage_channels: Sequence[int],
        num_classes: int = 10,
        in_channels: int = 3,
        stem_channels: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if len(stage_blocks) != len(stage_channels):
            raise ValueError("stage_blocks and stage_channels length mismatch")
        if block not in ("basic", "bottleneck"):
            raise ValueError(f"unknown block type {block!r}")
        rng = rng or np.random.default_rng(0)
        stem_channels = stem_channels or stage_channels[0]
        self.stem = ConvBNAct(in_channels, stem_channels, 3, 1, act="relu", rng=rng)
        self.stages = []
        ch = stem_channels
        for stage_idx, (depth, width) in enumerate(zip(stage_blocks, stage_channels)):
            blocks: List[Module] = []
            for block_idx in range(depth):
                stride = 2 if (stage_idx > 0 and block_idx == 0) else 1
                if block == "basic":
                    blocks.append(BasicBlock(ch, width, stride, rng=rng))
                    ch = width
                else:
                    blocks.append(Bottleneck(ch, width, stride, rng=rng))
                    ch = width * Bottleneck.expansion
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

    def segments(self) -> List[Module]:
        """Stem, each residual block's segments, then the pooled
        classifier head."""
        blocks = [
            segment
            for stage in self.stages
            for block in stage.layers
            for segment in block.segments()
        ]
        return [self.stem, *blocks, Sequential(self.pool, self.fc)]


def resnet_s20(num_classes: int = 10, seed: int = 10) -> ResNet:
    """Tiny CIFAR-style ResNet-20 analogue (Table 2 exact-Hessian model)."""
    rng = np.random.default_rng(seed)
    return ResNet(
        "basic", (1, 1, 1), (8, 16, 32), num_classes=num_classes, rng=rng
    )


def resnet_s34(num_classes: int = 10, seed: int = 11) -> ResNet:
    """Scaled ResNet-34 analogue: basic blocks, three stages."""
    rng = np.random.default_rng(seed)
    return ResNet(
        "basic", (2, 2, 2), (8, 16, 32), num_classes=num_classes, rng=rng
    )


def resnet_s50(num_classes: int = 10, seed: int = 12) -> ResNet:
    """Scaled ResNet-50 analogue: bottleneck blocks with expansion 4."""
    rng = np.random.default_rng(seed)
    return ResNet(
        "bottleneck",
        (1, 2, 2),
        (8, 16, 32),
        num_classes=num_classes,
        stem_channels=16,
        rng=rng,
    )
