"""Table 2: accuracy of the fast forward-only vHv estimate vs. exact Hessian.

The paper compares, for randomly selected shallow/deep ResNet-20 layers and
2-/4-bit quantization errors ``v``, the second-order quantization error
``v^T H v`` from (a) CLADO's forward-only measurement
(``2 (L(w+v) - L(w))``, Eq. 12) against (b) the exact Hessian evaluation.
Here the exact reference is an HvP (finite differences of backprop
gradients), which matches a dense-Hessian computation to machine precision
but stays tractable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..hessian import vhv
from ..models import evaluate_model, quantizable_layers
from ..nn import CrossEntropyLoss
from ..quant import QuantConfig, QuantizedWeightTable
from .runner import ExperimentContext

__all__ = ["Vhvrow", "run_table2", "format_table2"]


@dataclass
class Vhvrow:
    layer_name: str
    bits: int
    vhv_exact: float
    vhv_fast: float  # the paper's Eq. 12 estimate: 2(L(w+v) - L(w))
    vhv_symmetric: float  # L(w+v) + L(w-v) - 2L(w): odd orders cancel

    @property
    def rel_error(self) -> float:
        denom = max(abs(self.vhv_exact), 1e-12)
        return abs(self.vhv_fast - self.vhv_exact) / denom

    @property
    def rel_error_symmetric(self) -> float:
        denom = max(abs(self.vhv_exact), 1e-12)
        return abs(self.vhv_symmetric - self.vhv_exact) / denom


def run_table2(
    ctx: ExperimentContext,
    model_name: str = "resnet_s20",
    layer_picks: Optional[Sequence[Tuple[int, int]]] = None,
    use_cache: bool = True,
) -> List[Vhvrow]:
    """Compute fast-vs-exact vHv rows.

    ``layer_picks`` is a list of ``(layer_index, bits)``; the default mixes
    shallow and deep layers at 2 and 4 bits like the paper's Table 2.
    """
    cache_key = f"table2-{model_name}"
    if use_cache:
        cached = ctx.load_result(cache_key)
        if cached is not None:
            return [Vhvrow(**row) for row in cached["rows"]]

    model = ctx.model(model_name)
    layers = quantizable_layers(model, model_name)
    config = QuantConfig(bits=(2, 4, 8))
    table = QuantizedWeightTable(layers, config)
    if layer_picks is None:
        num = len(layers)
        picks = [0, num // 3, 2 * num // 3, num - 1]
        layer_picks = [(picks[0], 2), (picks[1], 2), (picks[1], 4),
                       (picks[2], 2), (picks[2], 4), (picks[3], 2), (picks[3], 4)]

    x, y = ctx.sensitivity_data()
    criterion = CrossEntropyLoss()

    def set_loss() -> float:
        return evaluate_model(model, x, y, 256)[0]

    base_loss = set_loss()

    rows: List[Vhvrow] = []
    for layer_idx, bits in layer_picks:
        delta = table.delta(layer_idx, bits).astype(np.float64).ravel()
        # Fast method (Eq. 12): 2 * (L(w + dw) - L(w)).
        with table.perturbed((layer_idx, bits)):
            plus_loss = set_loss()
        # Symmetric second difference: L(w+v) + L(w-v) - 2 L(w) cancels the
        # first- and third-order Taylor terms, isolating v^T H v.
        original = table.original[layer_idx]
        layer = layers[layer_idx]
        try:
            layer.weight.data = (
                2.0 * original - table.quantized(layer_idx, bits)
            ).astype(original.dtype)
            minus_loss = set_loss()
        finally:
            layer.weight.data = original
        fast = 2.0 * (plus_loss - base_loss)
        symmetric = plus_loss + minus_loss - 2.0 * base_loss
        exact = vhv(model, criterion, layers, x, y, layer_idx, delta)
        rows.append(
            Vhvrow(
                layer_name=layers[layer_idx].name,
                bits=int(bits),
                vhv_exact=float(exact),
                vhv_fast=float(fast),
                vhv_symmetric=float(symmetric),
            )
        )
    ctx.save_result(cache_key, {"rows": [row.__dict__ for row in rows]})
    return rows


def format_table2(rows: List[Vhvrow]) -> str:
    lines = [
        "Table 2: vHv approximation accuracy (forward-only vs exact HvP)",
        "-" * 86,
        f"{'layer':<28}{'bits':>6}{'vHv exact':>13}{'fast(Eq12)':>13}"
        f"{'symmetric':>13}{'sym.rel.err':>12}",
    ]
    for row in rows:
        lines.append(
            f"{row.layer_name:<28}{row.bits:>6}"
            f"{row.vhv_exact:>13.5f}{row.vhv_fast:>13.5f}"
            f"{row.vhv_symmetric:>13.5f}{row.rel_error_symmetric:>12.3f}"
        )
    return "\n".join(lines)
