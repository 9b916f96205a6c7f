"""Evaluation of mixed-precision assignments on held-out data."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..models import evaluate_model
from ..quant import QuantizedWeightTable, calibrate_activations

__all__ = [
    "evaluate_assignment",
    "evaluate_assignments",
    "setup_activation_quant",
    "remove_activation_quant",
]


def setup_activation_quant(
    model, layers: Sequence, calib_images: np.ndarray, bits: Optional[int] = 8
) -> None:
    """Calibrate and attach 8-bit activation fake-quant (paper §5.1).

    Pass ``bits=None`` to remove activation quantization instead.
    """
    if bits is None:
        remove_activation_quant(layers)
        return
    calibrate_activations(model, layers, calib_images, bits=bits)


def remove_activation_quant(layers: Sequence) -> None:
    for layer in layers:
        layer.module.act_quant = None


def _check_eval_set(images: np.ndarray, batch_size: int) -> int:
    """Validate the eval set; return the effective batch size.

    An empty set has no defined loss or accuracy — fail loudly instead of
    dividing by zero downstream.  A ``batch_size`` beyond the set size is
    clamped to one single full batch (the previous behaviour, now explicit).
    """
    n = len(images)
    if n == 0:
        raise ValueError("cannot evaluate on an empty image set")
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    return min(batch_size, n)


def evaluate_assignment(
    model,
    table: QuantizedWeightTable,
    bits_per_layer: Sequence[int],
    images: np.ndarray,
    labels: np.ndarray,
    batch_size: int = 256,
) -> Tuple[float, float]:
    """Top-1 accuracy and loss of the model quantized per the assignment.

    Weights are swapped in from the precomputed table and always restored;
    whatever activation quantizers are attached to the layers stay active.
    Returns ``(loss, accuracy)``.
    """
    batch_size = _check_eval_set(images, batch_size)
    with table.applied(list(map(int, bits_per_layer))):
        return evaluate_model(model, images, labels, batch_size=batch_size)


def evaluate_assignments(
    model,
    table: QuantizedWeightTable,
    assignments: Sequence[Sequence[int]],
    images: np.ndarray,
    labels: np.ndarray,
    batch_size: int = 256,
) -> List[Tuple[float, float]]:
    """Score many bit-width assignments, one :func:`evaluate_assignment`
    each.

    Every assignment is checked before the first forward, so a malformed
    one fails the call without spending any.  Returns
    ``[(loss, accuracy), ...]`` in ``assignments`` order.
    """
    assignments = [list(map(int, a)) for a in assignments]
    for a in assignments:
        if len(a) != table.num_layers:
            raise ValueError(
                f"assignment length {len(a)} != {table.num_layers} layers"
            )
    if not assignments:
        return []
    return [
        evaluate_assignment(model, table, a, images, labels, batch_size)
        for a in assignments
    ]
