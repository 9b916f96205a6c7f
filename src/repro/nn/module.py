"""Module and Parameter primitives for the numpy NN framework.

The framework is layer-based rather than tape-based: every ``Module``
implements an explicit ``forward`` and ``backward``.  In grad mode (the
default) ``forward`` stores whatever intermediate values ``backward`` needs
in the module instance; ``backward`` consumes the gradient of the loss
w.r.t. the module output and returns the gradient w.r.t. the module input,
accumulating parameter gradients into ``Parameter.grad`` along the way.
Inside :meth:`Module.no_grad` forwards store nothing for ``backward`` (a
backward after such a forward raises) and reuse the temporaries they
allocate, which is how every forward-only path (sensitivity sweeps,
evaluation, calibration) runs.  No forward, in either mode, writes into
its input: the sweeps feed one stored activation to many replays.

This explicit style keeps the math of every layer visible (useful when the
point of the library is to reason about per-layer quantization sensitivity)
and avoids the machinery of a general autograd engine.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

__all__ = [
    "DTYPE",
    "Parameter",
    "Module",
    "Sequential",
    "ResidualState",
]

# Global parameter/activation dtype for the framework.
DTYPE = np.float32


class ResidualState(NamedTuple):
    """The activation at a cut inside a residual block.

    ``branch`` is the block's branch computed so far and ``skip`` the
    block input its join adds back.  ``size`` and ``nbytes`` sum over both
    fields, so code that measures an activation (tracing, memory
    accounting) reads a state like an array.
    """

    branch: np.ndarray
    skip: np.ndarray

    @property
    def size(self) -> int:
        return int(self.branch.size + self.skip.size)

    @property
    def nbytes(self) -> int:
        return int(self.branch.nbytes + self.skip.nbytes)


#: What a segment takes and returns: an array, or a residual block's state.
Activation = Union[np.ndarray, ResidualState]


class Parameter:
    """A trainable tensor with an associated gradient buffer.

    Parameters
    ----------
    data:
        Initial value.  Stored as ``DTYPE`` (float32): on this CPU-only
        substrate float32 halves the cost of the ``O((|B|I)^2)`` forward
        sweeps.  CLADO's loss subtractions (Eq. 13) are protected instead by
        computing the final loss reduction in float64 (see repro.nn.loss).
    name:
        Optional human-readable name, filled in by ``Module.named_parameters``.
    """

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.name = name
        self.requires_grad = True

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        """Number of scalar elements (``|w|`` in the paper's notation)."""
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(grad, dtype=DTYPE, copy=True)
        else:
            self.grad += grad

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Module:
    """Base class for all layers and containers.

    Subclasses register parameters by assigning :class:`Parameter` instances
    as attributes and submodules by assigning :class:`Module` instances;
    both are discovered by attribute scan, mirroring the PyTorch convention.
    """

    def __init__(self) -> None:
        self.training = False
        # Whether forward keeps the state backward needs; see no_grad().
        self.grad_enabled = True

    # -- forward / backward ------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def _stash(self, cache) -> None:
        """Keep ``cache`` for backward; a no-grad forward drops it instead."""
        self._cache = cache if self.grad_enabled else None

    # -- segmented forward -------------------------------------------------
    def segments(self) -> Optional[List["Module"]]:
        """Ordered partition of ``forward`` into coarse stages, or ``None``.

        When a model returns a list ``[s_0, ..., s_{K-1}]`` here, applying
        ``s_0`` through ``s_{K-1}`` in order must be bitwise equal to
        ``forward``, and ``s_{K-1}`` returns the logits.  This is the
        contract the segmented sensitivity sweeps rely on: activations at
        segment boundaries ("cut points") can be checkpointed once and
        replayed from any cut, skipping the clean prefix of a perturbed
        forward pass entirely.  A cut inside a residual block carries a
        :class:`ResidualState` (the branch so far and the skip) instead of
        an array.  Containers may return freshly-built wrapper modules
        that register only the modules they run; only the identity of the
        *leaf* modules inside each segment matters to callers.
        """
        return None

    # -- traversal ---------------------------------------------------------
    def _direct_parameters(self) -> Iterator[Tuple[str, Parameter]]:
        for key, value in vars(self).items():
            if isinstance(value, Parameter):
                yield key, value

    def _direct_children(self) -> Iterator[Tuple[str, "Module"]]:
        for key, value in vars(self).items():
            if isinstance(value, Module):
                yield key, value
            elif isinstance(value, (list, tuple)):
                for idx, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{key}.{idx}", item

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs in deterministic order."""
        for key, param in self._direct_parameters():
            name = f"{prefix}{key}"
            param.name = name
            yield name, param
        for key, child in self._direct_children():
            yield from child.named_parameters(prefix=f"{prefix}{key}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for key, child in self._direct_children():
            yield from child.named_modules(prefix=f"{prefix}{key}.")

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- train / eval mode ---------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for _, child in self._direct_children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    @contextlib.contextmanager
    def no_grad(self) -> Iterator["Module"]:
        """Run forwards without backward state for the duration of the block.

        Clears ``grad_enabled`` over the module tree, the way :meth:`train`
        sets ``training``, and restores every module's previous flag on
        exit, also when the block raises.  A no-grad forward drops any
        backward cache an earlier forward left (so a ``backward`` after it
        raises instead of using stale state) and works in place on the
        buffers it allocates itself.  It performs the same floating-point
        operations on the same operands as the grad-mode forward, up to
        the order of the operands of ``+`` and ``*``, so its output is
        bitwise equal.  Modules outside this tree (such as wrappers that
        :meth:`segments` builds) need their own ``no_grad``.
        """
        modules = list({id(m): m for _, m in self.named_modules()}.values())
        saved = [m.grad_enabled for m in modules]
        for module in modules:
            module.grad_enabled = False
        try:
            yield self
        finally:
            for module, flag in zip(modules, saved):
                module.grad_enabled = flag

    # -- (de)serialization ---------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        for name, module in self.named_modules():
            for key, value in vars(module).items():
                if key.startswith("running_") and isinstance(value, np.ndarray):
                    full = f"{name}.{key}" if name else key
                    state[full] = value.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        consumed = set()
        for name, param in params.items():
            if name not in state:
                raise KeyError(f"missing parameter {name!r} in state dict")
            if state[name].shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"{state[name].shape} vs {param.data.shape}"
                )
            param.data = np.array(state[name], dtype=DTYPE, copy=True)
            consumed.add(name)
        for name, module in self.named_modules():
            for key, value in list(vars(module).items()):
                if key.startswith("running_") and isinstance(value, np.ndarray):
                    full = f"{name}.{key}" if name else key
                    if full in state:
                        setattr(module, key, np.array(state[full], dtype=DTYPE, copy=True))
                        consumed.add(full)
        extra = set(state) - consumed
        if extra:
            raise KeyError(f"unexpected keys in state dict: {sorted(extra)}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        children = ", ".join(k for k, _ in self._direct_children())
        return f"{type(self).__name__}({children})"


class Sequential(Module):
    """Chain of modules applied in order; backward runs in reverse."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = list(modules)

    def append(self, module: Module) -> None:
        self.layers.append(module)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]

    def segments(self) -> List[Module]:
        return list(self.layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out
