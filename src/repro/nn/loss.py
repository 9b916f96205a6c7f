"""Loss functions.

Cross-entropy is the task loss ``l`` in Eq. 1 of the paper; all sensitivity
measurements are differences of its sample mean over the sensitivity set.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .functional import log_softmax, softmax

__all__ = [
    "CrossEntropyLoss",
    "accuracy",
]


class CrossEntropyLoss:
    """Softmax cross-entropy over integer class labels.

    ``forward`` returns the mean loss; ``backward`` returns the gradient of
    that mean w.r.t. the logits.
    """

    def __init__(self) -> None:
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        if logits.ndim != 2:
            raise ValueError(f"expected (N, classes) logits, got {logits.shape}")
        labels = np.asarray(labels)
        if labels.shape[0] != logits.shape[0]:
            raise ValueError("logits / labels batch size mismatch")
        # float64 here on purpose: CLADO sensitivities are *differences* of
        # nearly-equal losses (Eq. 13), so the reduction needs the headroom.
        logp = log_softmax(logits.astype(np.float64), axis=1)
        n = logits.shape[0]
        self._cache = (logits, labels)
        return float(-logp[np.arange(n), labels].mean())

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("CrossEntropyLoss.backward before forward")
        logits, labels = self._cache
        self._cache = None
        n = logits.shape[0]
        probs = softmax(logits, axis=1)
        probs[np.arange(n), labels] -= 1.0
        return probs / n

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> float:
        return self.forward(logits, labels)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy in [0, 1]."""
    preds = logits.argmax(axis=1)
    return float((preds == np.asarray(labels)).mean())
