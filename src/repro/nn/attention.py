"""Multi-head self-attention with explicit backward, for the ViT model."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .layers import Linear
from .module import Module

__all__ = ["MultiHeadSelfAttention"]


class MultiHeadSelfAttention(Module):
    """Standard MHSA: separate query/key/value projections + output dense.

    The four projections are separate :class:`Linear` modules named
    ``query``, ``key``, ``value``, and ``out`` so that the quantization layer
    index map matches the ViT table in Appendix A of the paper
    (``attention.attention.query`` etc.).  :meth:`forward` is
    ``out.forward(context(x))``; a transformer block's segments cut
    between the two, so a replay from ``out`` reuses the context.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if dim % num_heads:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.query = Linear(dim, dim, rng=rng)
        self.key = Linear(dim, dim, rng=rng)
        self.value = Linear(dim, dim, rng=rng)
        self.out = Linear(dim, dim, rng=rng)
        self._cache = None

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        n, t, _ = x.shape
        return x.reshape(n, t, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        n, h, t, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(n, t, h * d)

    def context(self, x: np.ndarray) -> np.ndarray:
        """Everything before ``out``: the projections, the scaled-dot-product
        softmax and the merged heads, shape ``(N, T, D)``.

        When the three projections' activation quantizers have one
        calibrated grid (``ActivationQuantizer.grid``), the input is
        quantized once and each projection runs :meth:`Linear.project` on
        it, which is bitwise what its own forward computes.  Float models,
        a calibration pass and a shape probe run each projection's forward.
        """
        projections = (self.query, self.key, self.value)
        grids = {getattr(p.act_quant, "grid", None) for p in projections}
        if len(grids) == 1 and None not in grids:
            xq = self.query.act_quant(x)
            heads = [p.project(xq) for p in projections]
        else:
            heads = [p.forward(x) for p in projections]
        q, k, v = (self._split_heads(h) for h in heads)
        scale = float(1.0 / np.sqrt(self.head_dim))
        # softmax(scores * scale)'s ops, in place on the scores buffer.
        probs = np.matmul(q, k.swapaxes(-1, -2))
        probs *= scale
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        self._stash((q, k, v, probs, scale))
        return self._merge_heads(np.matmul(probs, v))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.out.forward(self.context(x))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("MultiHeadSelfAttention.backward before forward")
        q, k, v, probs, scale = self._cache
        self._cache = None
        dcontext = self._split_heads(self.out.backward(grad_out))
        dprobs = np.matmul(dcontext, v.swapaxes(-1, -2))
        dv = np.matmul(probs.swapaxes(-1, -2), dcontext)
        # Softmax Jacobian applied row-wise.
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dq = np.matmul(dscores, k) * scale
        dk = np.matmul(dscores.swapaxes(-1, -2), q) * scale
        dx = self.query.backward(self._merge_heads(dq))
        dx = dx + self.key.backward(self._merge_heads(dk))
        dx = dx + self.value.backward(self._merge_heads(dv))
        return dx
