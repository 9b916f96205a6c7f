"""Vision Transformer (scaled ViT-base analogue).

Patch embedding + class token + learned positions, pre-norm encoder blocks
with separate query/key/value/output projections (matching the HuggingFace
layer naming the paper's Appendix A indexes: ``layer.k.attention.attention.
query`` … ``layer.k.output.dense``), and a linear classification head on the
class token.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import (
    LayerNorm,
    Linear,
    Module,
    PatchEmbed,
    SelectToken,
    Sequential,
    TransformerEncoderBlock,
)

__all__ = ["ViTS", "vit_s"]


class ViTS(Module):
    """Scaled ViT: 32x32 image, patch 8, embed dim 48, 3 blocks, 4 heads."""

    def __init__(
        self,
        image_size: int = 32,
        patch_size: int = 8,
        dim: int = 48,
        depth: int = 3,
        num_heads: int = 4,
        mlp_ratio: float = 2.0,
        num_classes: int = 10,
        in_channels: int = 3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.embed = PatchEmbed(image_size, patch_size, in_channels, dim, rng=rng)
        self.layer = [
            TransformerEncoderBlock(dim, num_heads, mlp_ratio, rng=rng)
            for _ in range(depth)
        ]
        self.norm = LayerNorm(dim)
        self.classifier = Linear(dim, num_classes, rng=rng)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        tokens = self.embed.forward(x)
        for block in self.layer:
            tokens = block.forward(tokens)
        tokens = self.norm.forward(tokens)
        self._stash(tokens.shape)
        return self.classifier.forward(tokens[:, 0, :])

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("ViTS.backward before forward")
        tokens_shape = self._cache
        self._cache = None
        dcls = self.classifier.backward(grad_out)
        dtokens = np.zeros(tokens_shape)
        dtokens[:, 0, :] = dcls
        g = self.norm.backward(dtokens)
        for block in reversed(self.layer):
            g = block.backward(g)
        return self.embed.backward(g)

    def segments(self):
        """Patch embedding, the two pre-norm residual halves of each
        encoder block, then the class-token head.

        The head selects the class token before the final LayerNorm, which
        normalizes each token on its own, so it normalizes one token
        instead of all of them and gives the same logits.
        """
        halves = [half for block in self.layer for half in block.segments()]
        tail = Sequential(SelectToken(0), self.norm, self.classifier)
        return [self.embed, *halves, tail]


def vit_s(num_classes: int = 10, seed: int = 15) -> ViTS:
    rng = np.random.default_rng(seed)
    return ViTS(num_classes=num_classes, rng=rng)
