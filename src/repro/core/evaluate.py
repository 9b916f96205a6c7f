"""Evaluation of mixed-precision assignments on held-out data."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..models import evaluate_model
from ..nn import (
    fold_candidates,
    folded_accuracy,
    folded_cross_entropy,
)
from ..quant import QuantizedWeightTable, calibrate_activations
from .sensitivity import auto_eval_batch_k

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
    eval_batch_k: int = 0,
) -> List[Tuple[float, float]]:
    """Score many bit-width assignments in stacked batched forwards.

    Each chunk of up to ``eval_batch_k`` assignments is evaluated in one
    pass per mini-batch: every searched layer gets a
    :class:`~repro.nn.BatchedWeightOverlay` with a row for every candidate
    (row ``k`` holding ``Q(w, a_k)``), every other ``Linear`` one with no
    rows (:meth:`QuantizedWeightTable.batched`), and the mini-batch is
    folded candidate-major, so the pass computes all ``K`` candidates'
    logits in one forward, each slice by the GEMMs of its plain forward.
    Per-candidate loss and accuracy reduce over the same slices the
    sequential :func:`evaluate_assignment` sees, giving results bitwise
    equal to the one-by-one loop.

    ``eval_batch_k=0`` picks a memory-aware width; ``1`` degenerates to
    the sequential loop.  Every forward runs in no-grad mode.  Returns
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
    batch_size = _check_eval_set(images, batch_size)
    if eval_batch_k < 0:
        raise ValueError(f"eval_batch_k must be >= 0, got {eval_batch_k}")
    max_k = eval_batch_k or auto_eval_batch_k(images, batch_size)
    if max_k == 1:
        return [
            evaluate_assignment(model, table, a, images, labels, batch_size)
            for a in assignments
        ]

    model.eval()
    n = len(images)
    results: List[Tuple[float, float]] = []
    for start in range(0, len(assignments), max_k):
        chunk = assignments[start : start + max_k]
        width = len(chunk)
        rows = {
            layer_idx: {
                k: table.quantized(layer_idx, a[layer_idx])
                for k, a in enumerate(chunk)
            }
            for layer_idx in range(table.num_layers)
        }
        loss_totals = np.zeros(width)
        correct_totals = np.zeros(width)
        with table.batched([model], width, rows), model.no_grad():
            for s in range(0, n, batch_size):
                xb = images[s : s + batch_size]
                yb = labels[s : s + batch_size]
                logits = model.forward(fold_candidates(xb, width))
                loss_totals += folded_cross_entropy(logits, yb, width) * len(xb)
                correct_totals += folded_accuracy(logits, yb, width) * len(xb)
        results.extend(
            (float(loss_totals[k] / n), float(correct_totals[k] / n))
            for k in range(width)
        )
    return results
