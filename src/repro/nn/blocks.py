"""Composite blocks mirroring the paper's model families.

``BasicBlock`` / ``Bottleneck`` give ResNet-34/50-style topologies,
``InvertedResidual`` + ``SqueezeExcite`` give MobileNetV3, ``XBlock`` gives
RegNet, and ``TransformerEncoderBlock`` + ``PatchEmbed`` give ViT.  Residual
additions are handled explicitly inside each block's forward/backward.

Every residual block's forward runs the block's own :meth:`segments`, the
wrappers the segmented sweep replays from, so training, evaluation and the
sweep run one composition of the same ops in the same order.  A block
cuts before each branch stage (:class:`ResidualStage`), and the skip rides
along in a :class:`~repro.nn.module.ResidualState`; each pre-norm half of
a transformer block is a residual block of its own.  The join adds into a
buffer the block allocated, never into a cut's activation, which the
sweep holds as a frozen checkpoint: the last stage's own output when the
shortcut is the identity, the shortcut's output otherwise
(:class:`ResidualJoin`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

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
from .module import Activation, Module, Parameter, ResidualState, Sequential
from . import init

__all__ = [
    "ConvBNAct",
    "ResidualStage",
    "ResidualJoin",
    "BasicBlock",
    "Bottleneck",
    "SqueezeExcite",
    "InvertedResidual",
    "XBlock",
    "Mlp",
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


class _SegmentedForward(Module):
    """A block whose forward runs its own :meth:`segments` in order, so a
    plain forward and a segmented replay compose the same ops."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        for segment in self.segments():
            x = segment.forward(x)
        return x


class ResidualStage(Module):
    """One branch stage of a residual block, as a segment.

    ``body`` runs in order on the branch while the skip rides along in a
    :class:`ResidualState`.  The ``first`` stage takes the block input, an
    array, as both.  A stage that ``ends`` the block (one with an identity
    shortcut) adds the skip into the branch it computed and applies
    ``post``, returning an array; the body's last module allocates its
    output, as a conv, a linear, a norm or an activation over a norm
    does, so the sum never lands in a checkpoint.
    """

    def __init__(
        self,
        body: Sequence[Module],
        first: bool = False,
        ends: bool = False,
        post: Optional[Module] = None,
    ) -> None:
        super().__init__()
        if post is not None and not ends:
            raise ValueError("only the stage that ends a block applies post")
        self.body = list(body)
        self.first = first
        self.ends = ends
        self.post = post

    def forward(self, x: Activation) -> Activation:
        state = ResidualState(x, x) if self.first else x
        out = self.body[0].forward(state.branch)
        for module in self.body[1:]:
            out = module.forward(out)
        if not self.ends:
            return ResidualState(out, state.skip)
        out += state.skip
        return out if self.post is None else self.post.forward(out)


class ResidualJoin(Module):
    """The end of a block with a projection shortcut, as a segment of its
    own: ``post(branch + shortcut(skip))``.

    The state may be a frozen checkpoint, so the sum goes into the
    shortcut's output, an array the shortcut allocated.
    """

    def __init__(self, shortcut: Module, post: Optional[Module]) -> None:
        super().__init__()
        self.shortcut = shortcut
        self.post = post

    def forward(self, state: ResidualState) -> np.ndarray:
        out = self.shortcut.forward(state.skip)
        out += state.branch
        return out if self.post is None else self.post.forward(out)


def _residual_segments(
    stages: Sequence[Sequence[Module]],
    shortcut: Optional[Module],
    post: Optional[Module],
) -> List[Module]:
    """Segments of a residual block: a cut before each branch stage.

    ``stages`` are the units the branch runs in order (a conv with its
    norm and activation, an SE gate, or a transformer half's norm,
    attention context and projections), so each branch conv or searched
    projection starts a segment.  The join ``post(branch +
    shortcut(skip))`` runs inside the last stage's segment, or in a
    segment of its own when the block has a projection ``shortcut``, so
    the shortcut's conv starts a segment too.
    The wrappers are built afresh on each call and never stored, so module
    names and state dicts do not see them.
    """
    last = len(stages) - 1
    ends = shortcut is None
    segments: List[Module] = [
        ResidualStage(
            body,
            first=k == 0,
            ends=ends and k == last,
            post=post if ends and k == last else None,
        )
        for k, body in enumerate(stages)
    ]
    if shortcut is not None:
        segments.append(ResidualJoin(shortcut, post))
    return segments


class BasicBlock(_SegmentedForward):
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

    def segments(self) -> List[Module]:
        return _residual_segments(
            [[self.conv1, self.bn1, self.relu1], [self.conv2, self.bn2]],
            self.downsample,
            self.relu2,
        )

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


class Bottleneck(_SegmentedForward):
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

    def segments(self) -> List[Module]:
        return _residual_segments(
            [
                [self.conv1, self.bn1, self.relu1],
                [self.conv2, self.bn2, self.relu2],
                [self.conv3, self.bn3],
            ],
            self.downsample,
            self.relu3,
        )

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


class InvertedResidual(_SegmentedForward):
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

    def segments(self) -> List[Module]:
        """A cut before each stage, the SE gate included; without a
        residual the stages themselves are the segments."""
        stages = [self.expand, self.depthwise]
        if self.se is not None:
            stages.append(self.se)
        stages.append(self.project)
        if not self.use_residual:
            return stages
        return _residual_segments([[stage] for stage in stages], None, None)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = self.project.backward(grad_out)
        if self.se is not None:
            g = self.se.backward(g)
        g = self.depthwise.backward(g)
        g = self.expand.backward(g)
        if self.use_residual:
            g = g + grad_out
        return g


class XBlock(_SegmentedForward):
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

    def segments(self) -> List[Module]:
        return _residual_segments(
            [[self.conv1], [self.conv2], [self.conv3]], self.downsample, self.relu
        )

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


class _AttentionContext(Module):
    """``attention.context`` as a branch stage: the query/key/value
    projections and the attention core, up to ``out``.

    It registers only ``query``, ``key`` and ``value``.  ``out`` starts
    the next segment, and a wrapper that reached it too would put it in
    two segments, which makes the sweep run the model as one segment.
    """

    def __init__(self, attention: MultiHeadSelfAttention) -> None:
        super().__init__()
        self.query = attention.query
        self.key = attention.key
        self.value = attention.value
        self._context = attention.context

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._context(x)


class TransformerEncoderBlock(_SegmentedForward):
    """Pre-norm transformer block: LN → MHSA → +x, LN → MLP → +x.

    Each pre-norm half is a residual block of three stages, cut before
    each searched projection (:meth:`segments`).
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
        """``norm1`` · query, key, value and the attention core · ``out``
        + skip, then ``norm2`` · ``intermediate`` and GELU · ``output`` +
        skip: a replay from any searched projection starts at its own
        stage, except ``key`` and ``value``, which read the input of
        ``query`` and share its stage."""
        attention, mlp = self.attention, self.mlp
        return _residual_segments(
            [[self.norm1], [_AttentionContext(attention)], [attention.out]],
            None,
            None,
        ) + _residual_segments(
            [[self.norm2], [mlp.intermediate, mlp.act], [mlp.output]], None, None
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_out = grad_out + self.norm2.backward(self.mlp.backward(grad_out))
        return grad_out + self.norm1.backward(self.attention.backward(grad_out))


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
