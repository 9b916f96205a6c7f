"""Positive semi-definite projection of the sensitivity matrix (§4.2, §7).

The true ``G`` is PSD at a converged minimum, but measuring on a small
sensitivity set makes ``G-hat`` indefinite; the paper projects it onto the
PSD cone by clipping negative eigenvalues (Algorithm 1's last step) and
shows (Fig. 7) that skipping this step makes the IQP solver fail to
converge.

This module is the *only* place in ``src/repro`` allowed to call
``np.linalg.eigh`` / ``eigvalsh`` (lint rule 5): all conditioning math on
Ĝ flows through here, so the near-defective-input fallback below covers
every caller.  When ``eigh`` fails to converge (it can on nearly-defective
symmetric matrices), the decomposition falls back to an SVD — for a
symmetric ``A = UΣVᵀ``, each eigenvalue is ``σ_i·sign(u_i·v_i)`` — and the
``psd.fallback`` counter records the event.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .. import telemetry

__all__ = ["psd_project", "min_eigenvalue", "psd_violation", "condition_number"]

#: eigh/eigvalsh convergence failures recovered via the SVD path.
_PSD_FALLBACK = telemetry.counter("psd.fallback")


def _symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Symmetric float64 view-or-copy of a square matrix.

    ``np.asarray`` with an explicit float64 dtype avoids the duplicate
    conversions the public functions used to perform independently; for a
    float64 input no copy is made before the (unavoidable) symmetric
    average.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected square matrix, got {m.shape}")
    return 0.5 * (m + m.T)


def _svd_eigh(sym: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix via SVD.

    For symmetric ``A``, the SVD ``UΣVᵀ`` carries the spectrum up to
    sign: ``λ_i = σ_i · sign(u_i·v_i)`` with eigenvectors ``u_i``.  Used
    only when ``eigh`` fails to converge.
    """
    u, s, vt = np.linalg.svd(sym)
    signs = np.sign(np.einsum("ij,ij->j", u, vt.T))
    signs[signs == 0] = 1.0
    eigvals = s * signs
    order = np.argsort(eigvals)
    return eigvals[order], u[:, order]


def _eigh(sym: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(sym)
    except np.linalg.LinAlgError:
        _PSD_FALLBACK.add()
        return _svd_eigh(sym)


def _eigvalsh(sym: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError:
        _PSD_FALLBACK.add()
        return _svd_eigh(sym)[0]


def psd_project(matrix: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm: symmetrize, clip eigenvalues.

    ``G <- sum_{e_i > 0} e_i u_i u_i^T`` per Algorithm 1.
    """
    sym = _symmetrize(matrix)
    eigvals, eigvecs = _eigh(sym)
    clipped = np.clip(eigvals, 0.0, None)
    projected = (eigvecs * clipped) @ eigvecs.T
    # Numerical symmetry cleanup.
    return 0.5 * (projected + projected.T)


def min_eigenvalue(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetrized matrix."""
    return float(_eigvalsh(_symmetrize(matrix)).min())


def psd_violation(matrix: np.ndarray) -> Tuple[float, float]:
    """(negative-eigenvalue mass, total eigenvalue mass) of a matrix.

    Quantifies how indefinite a measured sensitivity matrix is — used by
    the Fig. 7 ablation driver and the health record ``CLADO`` builds to
    show how much the projection changes.  Only eigenvalues are needed, so this uses
    ``eigvalsh`` (no vectors).
    """
    eigvals = _eigvalsh(_symmetrize(matrix))
    negative = float(-eigvals[eigvals < 0].sum())
    total = float(np.abs(eigvals).sum())
    return negative, total


def condition_number(matrix: np.ndarray) -> float:
    """Spectral condition number ``|λ|_max / |λ|_min`` of the symmetrized
    matrix (``inf`` when singular, matching ``np.linalg.cond``)."""
    eigvals = np.abs(_eigvalsh(_symmetrize(matrix)))
    if eigvals.size == 0:
        return 1.0
    top = float(eigvals.max())
    bottom = float(eigvals.min())
    if bottom == 0.0:
        return float("inf")
    return top / bottom
