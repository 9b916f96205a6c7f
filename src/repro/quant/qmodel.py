"""Applying (mixed-precision) quantization to a model.

``QuantizedWeightTable`` precomputes ``Q(w^(i), b_m)`` for every searched
layer and candidate bit-width once, then swaps weights in and out in O(1)
array assignments.  This is what makes Algorithm 1's ``½|B|I(|B|I+1)``
evaluations affordable: each measurement is one weight swap + one forward
pass, with no re-quantization.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from .qconfig import QuantConfig
from .quantizers import PerChannelAffineQuantizer, UniformSymmetricQuantizer

__all__ = ["QuantizedWeightTable", "quantize_weight"]


def quantize_weight(w: np.ndarray, bits: int, scheme: str = "symmetric") -> np.ndarray:
    """One-shot fake-quantization of a weight tensor with MSE calibration."""
    if scheme == "symmetric":
        quantizer = UniformSymmetricQuantizer(bits).calibrate(w)
    elif scheme == "affine":
        quantizer = PerChannelAffineQuantizer(bits).calibrate(w)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return quantizer(w).astype(w.dtype)


#: Per-(weight content, bits, scheme) memo hits/misses across table builds.
_MEMO_HITS = telemetry.counter("quant.weight_table_hits")
_MEMO_MISSES = telemetry.counter("quant.weight_table_misses")


class _QuantMemo:
    """Process-wide memo of quantized weight tensors.

    Experiments rebuild :class:`QuantizedWeightTable` for every algorithm
    and budget although the underlying weights rarely change, re-running
    the MSE grid search each time.  Entries are keyed by a content digest
    of the weight buffer plus the quantization config — identity of the
    *values*, not the array object, so in-place weight updates (QAT) can
    never serve stale results.  The store is bounded LRU; both hit and
    miss hand out private copies, so callers can alias their array into a
    module without coupling tables to each other or to the memo.
    """

    def __init__(self, max_entries: int = 512) -> None:
        self.max_entries = max_entries
        self._store: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()

    @staticmethod
    def _key(w: np.ndarray, bits: int, scheme: str) -> Tuple:
        digest = hashlib.sha1(np.ascontiguousarray(w).tobytes()).hexdigest()
        return (digest, w.shape, str(w.dtype), int(bits), scheme)

    def get(self, w: np.ndarray, bits: int, scheme: str) -> np.ndarray:
        key = self._key(w, bits, scheme)
        cached = self._store.get(key)
        if cached is not None:
            self._store.move_to_end(key)
            _MEMO_HITS.add()
            return cached.copy()
        _MEMO_MISSES.add()
        w_q = quantize_weight(w, bits, scheme)
        self._store[key] = w_q.copy()
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
        return w_q

    def clear(self) -> None:
        self._store.clear()


#: Shared across all tables in the process (cleared in tests via
#: ``QuantizedWeightTable.memo.clear()``).
_WEIGHT_MEMO = _QuantMemo()


class QuantizedWeightTable:
    """Precomputed quantized weights for all (layer, bit-width) pairs.

    Parameters
    ----------
    layers:
        List of :class:`repro.models.QuantizableLayer` — the search space.
    config:
        Bit-width candidates and quantization scheme.
    """

    #: Process-wide quantized-weight memo (see :class:`_QuantMemo`).
    memo = _WEIGHT_MEMO

    def __init__(self, layers: Sequence, config: QuantConfig) -> None:
        self.layers = list(layers)
        self.config = config
        self.original: List[np.ndarray] = [
            layer.weight.data.copy() for layer in self.layers
        ]
        self._table: Dict[Tuple[int, int], np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            w = self.original[i]
            for b in config.bits:
                self._table[(i, b)] = self.memo.get(w, b, config.scheme)

    # -- accessors -----------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def quantized(self, layer_idx: int, bits: int) -> np.ndarray:
        """``Q(w^(i), b)`` (read-only view semantics: do not mutate)."""
        key = (layer_idx, bits)
        if key not in self._table:
            raise KeyError(f"no precomputed weights for layer {layer_idx} @ {bits}b")
        return self._table[key]

    def delta(self, layer_idx: int, bits: int) -> np.ndarray:
        """Quantization error ``Δw_m^(i) = Q(w^(i), b_m) - w^(i)``."""
        return self.quantized(layer_idx, bits) - self.original[layer_idx]

    def layer_sizes(self) -> List[int]:
        """``|w^(i)|`` for every searched layer."""
        return [layer.num_params for layer in self.layers]

    # -- weight swapping -------------------------------------------------------
    def set_layer(self, layer_idx: int, bits: Optional[int]) -> None:
        """Set one layer to its ``bits``-quantized weights (None = restore)."""
        if bits is None:
            self.layers[layer_idx].weight.data = self.original[layer_idx]
        else:
            self.layers[layer_idx].weight.data = self.quantized(layer_idx, bits)

    def restore_all(self) -> None:
        for i in range(self.num_layers):
            self.set_layer(i, None)

    def apply_assignment(self, bits_per_layer: Sequence[int]) -> None:
        """Quantize every searched layer per ``bits_per_layer``."""
        if len(bits_per_layer) != self.num_layers:
            raise ValueError(
                f"assignment length {len(bits_per_layer)} != "
                f"{self.num_layers} layers"
            )
        for i, b in enumerate(bits_per_layer):
            self.set_layer(i, int(b))

    @contextmanager
    def applied(self, bits_per_layer: Sequence[int]) -> Iterator[None]:
        """Context manager: apply an assignment, always restore on exit."""
        try:
            self.apply_assignment(bits_per_layer)
            yield
        finally:
            self.restore_all()

    @contextmanager
    def perturbed(self, *pairs: Tuple[int, int]) -> Iterator[None]:
        """Context manager quantizing only the given ``(layer, bits)`` pairs."""
        try:
            for layer_idx, bits in pairs:
                self.set_layer(layer_idx, bits)
            yield
        finally:
            for layer_idx, _ in pairs:
                self.set_layer(layer_idx, None)
