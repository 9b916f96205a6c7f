"""Core layers: convolution, linear, normalization, activations, pooling.

Every layer implements the explicit forward/backward contract of
:class:`repro.nn.module.Module`.  Grad-mode forward passes stash
intermediates on the instance; a backward call consumes them (single-use —
a second backward without a fresh forward is a bug and raises).  Under
:meth:`~repro.nn.module.Module.no_grad` forwards stash nothing, and the
normalizations and GELU work in place on their own buffers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from . import init
from .module import DTYPE, Module, Parameter

__all__ = [
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "LayerNorm",
    "ReLU",
    "GELU",
    "SiLU",
    "Hardswish",
    "Hardsigmoid",
    "Sigmoid",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "Identity",
    "SelectToken",
]


class _CacheMixin:
    """Shared guard: backward must follow exactly one grad-mode forward."""

    _cache = None

    def _take_cache(self):
        if self._cache is None:
            raise RuntimeError(
                f"{type(self).__name__}.backward called without a prior "
                "forward, or after a forward under no_grad(), which keeps "
                "no backward state"
            )
        cache, self._cache = self._cache, None
        return cache


class Conv2d(Module, _CacheMixin):
    """Grouped 2-D convolution (``groups=C_in`` gives depthwise)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ValueError("channels must be divisible by groups")
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        shape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(rng, shape))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None
        # Optional activation fake-quantizer (set by repro.quant); callable
        # applied to the input in forward, treated as identity in backward.
        self.act_quant = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.act_quant is not None:
            # Fake-quantize the input activation (8-bit in the paper's setup).
            # Backward treats this as identity (straight-through estimator).
            x = self.act_quant(x)
        bias = self.bias.data if self.bias is not None else None
        out, cache = F.conv2d_forward(
            x, self.weight.data, bias, self.stride, self.padding, self.groups
        )
        self._stash(cache)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        cache = self._take_cache()
        dx, dw, dbias = F.conv2d_backward(grad_out, self.weight.data, cache)
        self.weight.accumulate_grad(dw)
        if self.bias is not None:
            self.bias.accumulate_grad(dbias)
        return dx


class Linear(Module, _CacheMixin):
    """Affine map ``y = x W^T + b`` over the trailing dimension."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_normal(rng, (out_features, in_features)))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None
        # Optional activation fake-quantizer, see Conv2d.act_quant.
        self.act_quant = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.act_quant is not None:
            x = self.act_quant(x)
        return self.project(x)

    def project(self, x: np.ndarray) -> np.ndarray:
        """The GEMM and bias on an input already through ``act_quant``.

        :class:`~repro.nn.attention.MultiHeadSelfAttention` calls it for
        the projections that share one quantized input.
        """
        self._stash(x)
        out = x @ self.weight.data.T
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._take_cache()
        x2d = x.reshape(-1, self.in_features)
        g2d = grad_out.reshape(-1, self.out_features)
        self.weight.accumulate_grad(g2d.T @ x2d)
        if self.bias is not None:
            self.bias.accumulate_grad(g2d.sum(axis=0))
        return (g2d @ self.weight.data).reshape(x.shape)


class BatchNorm2d(Module, _CacheMixin):
    """Batch normalization over ``(N, H, W)`` per channel.

    Training mode uses batch statistics and updates running estimates with
    exponential moving averages; eval mode normalizes with the running
    statistics (an affine map — this is the mode all quantization
    sensitivity measurements run in).
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        # DTYPE on purpose: float64 stats would upcast every downstream
        # activation and double the cost of the whole network.
        self.running_mean = np.zeros(num_features, dtype=DTYPE)
        self.running_var = np.ones(num_features, dtype=DTYPE)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            ).astype(DTYPE)
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            ).astype(DTYPE)
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        gamma = self.weight.data.reshape(1, -1, 1, 1)
        beta = self.bias.data.reshape(1, -1, 1, 1)
        # Each op in place after the first: bitwise equal to the
        # out-of-place expression.
        x_hat = x - mean.reshape(1, -1, 1, 1)
        x_hat *= inv_std.reshape(1, -1, 1, 1)
        self._stash((x_hat, inv_std, self.training))
        # A no-grad forward keeps no x_hat, so the output reuses its
        # buffer (x_hat * gamma is gamma * x_hat: IEEE products commute).
        out = np.multiply(x_hat, gamma, out=None if self.grad_enabled else x_hat)
        out += beta
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_hat, inv_std, was_training = self._take_cache()
        self.weight.accumulate_grad((grad_out * x_hat).sum(axis=(0, 2, 3)))
        self.bias.accumulate_grad(grad_out.sum(axis=(0, 2, 3)))
        gamma = self.weight.data.reshape(1, -1, 1, 1)
        dxhat = grad_out * gamma
        if not was_training:
            # Eval mode: the normalization statistics are constants.
            return dxhat * inv_std.reshape(1, -1, 1, 1)
        n = grad_out.shape[0] * grad_out.shape[2] * grad_out.shape[3]
        sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        sum_dxhat_xhat = (dxhat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        dx = (
            (dxhat - sum_dxhat / n - x_hat * sum_dxhat_xhat / n)
            * inv_std.reshape(1, -1, 1, 1)
        )
        return dx


class LayerNorm(Module, _CacheMixin):
    """Layer normalization over the trailing feature dimension."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(init.ones((dim,)))
        self.bias = Parameter(init.zeros((dim,)))

    def forward(self, x: np.ndarray) -> np.ndarray:
        # np.var would compute the mean and centre x a second time; these
        # are its reductions done once, bitwise equal to the np.var form.
        x_hat = x - x.mean(axis=-1, keepdims=True)
        var = np.multiply(x_hat, x_hat).mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std
        self._stash((x_hat, inv_std))
        # As in BatchNorm2d, a no-grad output reuses the x_hat buffer.
        out = np.multiply(
            x_hat, self.weight.data, out=None if self.grad_enabled else x_hat
        )
        out += self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_hat, inv_std = self._take_cache()
        axes = tuple(range(grad_out.ndim - 1))
        self.weight.accumulate_grad((grad_out * x_hat).sum(axis=axes))
        self.bias.accumulate_grad(grad_out.sum(axis=axes))
        dxhat = grad_out * self.weight.data
        d = self.dim
        mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
        mean_dxhat_xhat = (dxhat * x_hat).mean(axis=-1, keepdims=True)
        del d  # normalization already folded into the means
        return (dxhat - mean_dxhat - x_hat * mean_dxhat_xhat) * inv_std


class ReLU(Module, _CacheMixin):
    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._stash(mask)
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._take_cache()


class GELU(Module, _CacheMixin):
    """Gaussian error linear unit (tanh approximation)."""

    _C = float(np.sqrt(2.0 / np.pi))  # python float: a np.float64 scalar would upcast f32 arrays

    def forward(self, x: np.ndarray) -> np.ndarray:
        # The cube as a product in one scratch buffer: ``x**3`` runs libm
        # pow per element, about 90x the cost of two multiplies.
        inner = x * x
        inner *= x
        inner *= 0.044715
        inner += x
        inner *= self._C
        tanh = np.tanh(inner, out=inner)
        self._stash((x, tanh))
        out = 0.5 * x
        # A no-grad forward keeps no tanh, so 1 + tanh reuses its buffer
        # (tanh + 1.0 is 1.0 + tanh: IEEE sums commute).
        out *= np.add(tanh, 1.0, out=None if self.grad_enabled else tanh)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, tanh = self._take_cache()
        sech2 = 1.0 - tanh**2
        dinner = self._C * (1.0 + 3 * 0.044715 * x**2)
        return grad_out * (0.5 * (1.0 + tanh) + 0.5 * x * sech2 * dinner)


class SiLU(Module, _CacheMixin):
    """Sigmoid linear unit, ``x * sigmoid(x)``."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        sig = 1.0 / (1.0 + np.exp(-x))
        self._stash((x, sig))
        return x * sig

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, sig = self._take_cache()
        return grad_out * (sig * (1.0 + x * (1.0 - sig)))


class Hardswish(Module, _CacheMixin):
    """``x * relu6(x + 3) / 6`` — the MobileNetV3 activation."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._stash(x)
        return x * np.clip(x + 3.0, 0.0, 6.0) / 6.0

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._take_cache()
        grad = np.where(x <= -3.0, 0.0, np.where(x >= 3.0, 1.0, (2.0 * x + 3.0) / 6.0))
        return grad_out * grad


class Hardsigmoid(Module, _CacheMixin):
    """``relu6(x + 3) / 6`` — used inside squeeze-excite gates."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._stash(x)
        return np.clip(x + 3.0, 0.0, 6.0) / 6.0

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._take_cache()
        inside = (x > -3.0) & (x < 3.0)
        return grad_out * inside / 6.0


class Sigmoid(Module, _CacheMixin):
    def forward(self, x: np.ndarray) -> np.ndarray:
        out = 1.0 / (1.0 + np.exp(-x))
        self._stash(out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        out = self._take_cache()
        return grad_out * out * (1.0 - out)


class MaxPool2d(Module, _CacheMixin):
    """Non-overlapping max pooling (kernel == stride)."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        n, c, h, w = x.shape
        if h % k or w % k:
            raise ValueError(f"spatial size {h}x{w} not divisible by pool {k}")
        oh, ow = h // k, w // k
        windows = x.reshape(n, c, oh, k, ow, k)
        flat = windows.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, k * k)
        idx = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
        self._stash((x.shape, idx))
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_shape, idx = self._take_cache()
        k = self.kernel_size
        n, c, h, w = x_shape
        oh, ow = h // k, w // k
        dflat = np.zeros((n, c, oh, ow, k * k), dtype=grad_out.dtype)
        np.put_along_axis(dflat, idx[..., None], grad_out[..., None], axis=-1)
        dx = (
            dflat.reshape(n, c, oh, ow, k, k)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h, w)
        )
        return dx


class AvgPool2d(Module, _CacheMixin):
    """Non-overlapping average pooling (kernel == stride)."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        n, c, h, w = x.shape
        if h % k or w % k:
            raise ValueError(f"spatial size {h}x{w} not divisible by pool {k}")
        self._stash(x.shape)
        return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_shape = self._take_cache()
        k = self.kernel_size
        expanded = np.repeat(np.repeat(grad_out, k, axis=2), k, axis=3)
        return expanded / (k * k)


class GlobalAvgPool2d(Module, _CacheMixin):
    """Mean over all spatial positions, producing ``(N, C)``."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._stash(x.shape)
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        n, c, h, w = self._take_cache()
        return np.broadcast_to(grad_out[:, :, None, None], (n, c, h, w)) / (h * w)


class Flatten(Module, _CacheMixin):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._stash(x.shape)
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._take_cache())


class Dropout(Module, _CacheMixin):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.1, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._cache = None
            return x
        mask = self.rng.random(x.shape) >= self.p
        scale = 1.0 / (1.0 - self.p)
        keep = mask * scale
        self._stash(keep)
        return x * keep

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask = self._cache
        self._cache = None
        if mask is None:
            return grad_out
        return grad_out * mask


class Identity(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class SelectToken(Module, _CacheMixin):
    """Select one token from a ``(N, T, D)`` sequence, producing ``(N, D)``.

    ``SelectToken(0)`` is the class-token readout of ViT-style models; as a
    standalone module it lets the classification head participate in the
    segmented-forward protocol (see ``Module.segments``).
    """

    def __init__(self, index: int = 0) -> None:
        super().__init__()
        self.index = index

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._stash(x.shape)
        return x[:, self.index, :]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        shape = self._take_cache()
        grad = np.zeros(shape, dtype=grad_out.dtype)
        grad[:, self.index, :] = grad_out
        return grad
