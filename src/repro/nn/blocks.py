"""Composite blocks mirroring the paper's model families.

``BasicBlock`` / ``Bottleneck`` give ResNet-34/50-style topologies,
``InvertedResidual`` + ``SqueezeExcite`` give MobileNetV3, ``XBlock`` gives
RegNet, and ``TransformerEncoderBlock`` + ``PatchEmbed`` give ViT.  Residual
additions are handled explicitly inside each block's forward/backward; the
forward adds the skip into the branch output (``out += identity``), a buffer
the branch's last layer allocated and no backward cache holds.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .attention import MultiHeadSelfAttention
from .layers import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Hardsigmoid,
    Hardswish,
    GELU,
    LayerNorm,
    Linear,
    ReLU,
    Identity,
)
from .module import Module, Parameter, Sequential
from . import init

__all__ = [
    "ConvBNAct",
    "BasicBlock",
    "Bottleneck",
    "SqueezeExcite",
    "InvertedResidual",
    "XBlock",
    "Mlp",
    "PreNormResidual",
    "TransformerEncoderBlock",
    "PatchEmbed",
]


class ConvBNAct(Module):
    """Conv → BatchNorm → activation, the standard CNN building unit."""

    def __init__(
        self,
        in_ch: int,
        out_ch: int,
        kernel_size: int = 3,
        stride: int = 1,
        groups: int = 1,
        act: str = "relu",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        pad = kernel_size // 2
        self.conv = Conv2d(
            in_ch, out_ch, kernel_size, stride, pad, groups, bias=False, rng=rng
        )
        self.bn = BatchNorm2d(out_ch)
        if act == "relu":
            self.act: Module = ReLU()
        elif act == "hardswish":
            self.act = Hardswish()
        elif act == "none":
            self.act = Identity()
        else:
            raise ValueError(f"unknown activation {act!r}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.act.forward(self.bn.forward(self.conv.forward(x)))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.conv.backward(self.bn.backward(self.act.backward(grad_out)))


class BasicBlock(Module):
    """Two 3x3 convolutions with a skip connection (ResNet-18/34 style)."""

    def __init__(
        self,
        in_ch: int,
        out_ch: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.conv1 = Conv2d(in_ch, out_ch, 3, stride, 1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(out_ch)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(out_ch, out_ch, 3, 1, 1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(out_ch)
        self.relu2 = ReLU()
        if stride != 1 or in_ch != out_ch:
            self.downsample: Optional[Module] = Sequential(
                Conv2d(in_ch, out_ch, 1, stride, 0, bias=False, rng=rng),
                BatchNorm2d(out_ch),
            )
        else:
            self.downsample = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.bn1.forward(self.conv1.forward(x))
        out = self.relu1.forward(out)
        out = self.bn2.forward(self.conv2.forward(out))
        out += self.downsample.forward(x) if self.downsample else x
        return self.relu2.forward(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_sum = self.relu2.backward(grad_out)
        grad_main = self.conv1.backward(
            self.bn1.backward(
                self.relu1.backward(
                    self.conv2.backward(self.bn2.backward(grad_sum))
                )
            )
        )
        grad_skip = (
            self.downsample.backward(grad_sum) if self.downsample else grad_sum
        )
        return grad_main + grad_skip


class Bottleneck(Module):
    """1x1 → 3x3 → 1x1 bottleneck with skip (ResNet-50 style)."""

    expansion = 4

    def __init__(
        self,
        in_ch: int,
        mid_ch: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        out_ch = mid_ch * self.expansion
        self.conv1 = Conv2d(in_ch, mid_ch, 1, 1, 0, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(mid_ch)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(mid_ch, mid_ch, 3, stride, 1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(mid_ch)
        self.relu2 = ReLU()
        self.conv3 = Conv2d(mid_ch, out_ch, 1, 1, 0, bias=False, rng=rng)
        self.bn3 = BatchNorm2d(out_ch)
        self.relu3 = ReLU()
        if stride != 1 or in_ch != out_ch:
            self.downsample: Optional[Module] = Sequential(
                Conv2d(in_ch, out_ch, 1, stride, 0, bias=False, rng=rng),
                BatchNorm2d(out_ch),
            )
        else:
            self.downsample = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.relu1.forward(self.bn1.forward(self.conv1.forward(x)))
        out = self.relu2.forward(self.bn2.forward(self.conv2.forward(out)))
        out = self.bn3.forward(self.conv3.forward(out))
        out += self.downsample.forward(x) if self.downsample else x
        return self.relu3.forward(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_sum = self.relu3.backward(grad_out)
        g = self.bn3.backward(grad_sum)
        g = self.conv3.backward(g)
        g = self.relu2.backward(g)
        g = self.conv2.backward(self.bn2.backward(g))
        g = self.relu1.backward(g)
        grad_main = self.conv1.backward(self.bn1.backward(g))
        grad_skip = (
            self.downsample.backward(grad_sum) if self.downsample else grad_sum
        )
        return grad_main + grad_skip


class SqueezeExcite(Module):
    """Channel attention gate (MobileNetV3 variant with hard sigmoid)."""

    def __init__(
        self,
        channels: int,
        reduction: int = 4,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        squeezed = max(1, channels // reduction)
        self.pool = GlobalAvgPool2d()
        self.fc1 = Linear(channels, squeezed, rng=rng)
        self.relu = ReLU()
        self.fc2 = Linear(squeezed, channels, rng=rng)
        self.gate = Hardsigmoid()
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        pooled = self.pool.forward(x)
        gate = self.gate.forward(self.fc2.forward(self.relu.forward(self.fc1.forward(pooled))))
        self._stash((x, gate))
        return x * gate[:, :, None, None]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("SqueezeExcite.backward before forward")
        x, gate = self._cache
        self._cache = None
        dgate = (grad_out * x).sum(axis=(2, 3))
        dx_direct = grad_out * gate[:, :, None, None]
        g = self.gate.backward(dgate)
        g = self.fc1.backward(self.relu.backward(self.fc2.backward(g)))
        dx_pool = self.pool.backward(g)
        return dx_direct + dx_pool


class InvertedResidual(Module):
    """MobileNetV3 block: expand 1x1 → depthwise 3x3 → (SE) → project 1x1."""

    def __init__(
        self,
        in_ch: int,
        expand_ch: int,
        out_ch: int,
        stride: int = 1,
        use_se: bool = True,
        act: str = "hardswish",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.use_residual = stride == 1 and in_ch == out_ch
        self.expand = ConvBNAct(in_ch, expand_ch, 1, 1, act=act, rng=rng)
        self.depthwise = ConvBNAct(
            expand_ch, expand_ch, 3, stride, groups=expand_ch, act=act, rng=rng
        )
        self.se: Optional[SqueezeExcite] = (
            SqueezeExcite(expand_ch, rng=rng) if use_se else None
        )
        self.project = ConvBNAct(expand_ch, out_ch, 1, 1, act="none", rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.expand.forward(x)
        out = self.depthwise.forward(out)
        if self.se is not None:
            out = self.se.forward(out)
        out = self.project.forward(out)
        if self.use_residual:
            out += x
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = self.project.backward(grad_out)
        if self.se is not None:
            g = self.se.backward(g)
        g = self.depthwise.backward(g)
        g = self.expand.backward(g)
        if self.use_residual:
            g = g + grad_out
        return g


class XBlock(Module):
    """RegNet X-block: 1x1 → grouped 3x3 → 1x1 with skip."""

    def __init__(
        self,
        in_ch: int,
        out_ch: int,
        stride: int = 1,
        group_width: int = 8,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if out_ch % group_width:
            raise ValueError(
                f"out_ch {out_ch} not divisible by group_width {group_width}"
            )
        groups = out_ch // group_width
        self.conv1 = ConvBNAct(in_ch, out_ch, 1, 1, act="relu", rng=rng)
        self.conv2 = ConvBNAct(
            out_ch, out_ch, 3, stride, groups=groups, act="relu", rng=rng
        )
        self.conv3 = ConvBNAct(out_ch, out_ch, 1, 1, act="none", rng=rng)
        self.relu = ReLU()
        if stride != 1 or in_ch != out_ch:
            self.downsample: Optional[Module] = ConvBNAct(
                in_ch, out_ch, 1, stride, act="none", rng=rng
            )
        else:
            self.downsample = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.conv3.forward(self.conv2.forward(self.conv1.forward(x)))
        out += self.downsample.forward(x) if self.downsample else x
        return self.relu.forward(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_sum = self.relu.backward(grad_out)
        grad_main = self.conv1.backward(
            self.conv2.backward(self.conv3.backward(grad_sum))
        )
        grad_skip = (
            self.downsample.backward(grad_sum) if self.downsample else grad_sum
        )
        return grad_main + grad_skip


class Mlp(Module):
    """Transformer feed-forward: dense → GELU → dense.

    The two projections are named ``intermediate`` and ``output`` to match
    the HuggingFace ViT naming used by the paper's layer-index table.
    """

    def __init__(
        self, dim: int, hidden: int, rng: Optional[np.random.Generator] = None
    ) -> None:
        super().__init__()
        self.intermediate = Linear(dim, hidden, rng=rng)
        self.act = GELU()
        self.output = Linear(hidden, dim, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.output.forward(self.act.forward(self.intermediate.forward(x)))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.intermediate.backward(
            self.act.backward(self.output.backward(grad_out))
        )


class PreNormResidual(Module):
    """One pre-norm residual half of a transformer block: ``norm → body → +x``.

    :meth:`TransformerEncoderBlock.segments` builds one per half on each
    call.  It holds references to the block's modules and is never
    stored in the model, so module names and state dicts do not see it.
    """

    def __init__(self, norm: Module, body: Module) -> None:
        super().__init__()
        self.norm = norm
        self.body = body

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.body.forward(self.norm.forward(x))
        h += x
        return h

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out + self.norm.backward(self.body.backward(grad_out))


class TransformerEncoderBlock(Module):
    """Pre-norm transformer block: LN → MHSA → +x, LN → MLP → +x.

    Forward and backward run the block's two :class:`PreNormResidual`
    halves, which :meth:`segments` also hands to the segmented sweep.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        mlp_ratio: float = 4.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.norm1 = LayerNorm(dim)
        self.attention = MultiHeadSelfAttention(dim, num_heads, rng=rng)
        self.norm2 = LayerNorm(dim)
        self.mlp = Mlp(dim, int(dim * mlp_ratio), rng=rng)

    def segments(self) -> List[Module]:
        """The attention half, then the MLP half, as fresh wrappers."""
        return [
            PreNormResidual(self.norm1, self.attention),
            PreNormResidual(self.norm2, self.mlp),
        ]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for half in self.segments():
            x = half.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for half in reversed(self.segments()):
            grad_out = half.backward(grad_out)
        return grad_out


class PatchEmbed(Module):
    """Image-to-token embedding with a learned class token and positions."""

    def __init__(
        self,
        image_size: int,
        patch_size: int,
        in_ch: int,
        dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if image_size % patch_size:
            raise ValueError("image size must be divisible by patch size")
        rng = rng or np.random.default_rng(0)
        self.patch_size = patch_size
        self.num_patches = (image_size // patch_size) ** 2
        self.proj = Conv2d(
            in_ch, dim, patch_size, stride=patch_size, padding=0, rng=rng
        )
        self.cls_token = Parameter(init.trunc_normal(rng, (1, 1, dim)))
        self.pos_embed = Parameter(
            init.trunc_normal(rng, (1, self.num_patches + 1, dim))
        )
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        patches = self.proj.forward(x)  # (N, D, H', W')
        d = patches.shape[1]
        tokens = patches.reshape(n, d, -1).transpose(0, 2, 1)  # (N, T, D)
        cls = np.broadcast_to(self.cls_token.data, (n, 1, d))
        out = np.concatenate([cls, tokens], axis=1) + self.pos_embed.data
        self._stash((n, d, patches.shape))
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("PatchEmbed.backward before forward")
        n, d, patch_shape = self._cache
        self._cache = None
        self.pos_embed.accumulate_grad(grad_out.sum(axis=0, keepdims=True))
        self.cls_token.accumulate_grad(
            grad_out[:, :1, :].sum(axis=0, keepdims=True)
        )
        dtokens = grad_out[:, 1:, :]  # (N, T, D)
        dpatches = dtokens.transpose(0, 2, 1).reshape(patch_shape)
        return self.proj.backward(dpatches)
