"""Shared test utilities: numeric gradient checking, tiny fixtures, the
literal Algorithm 1 the sensitivity sweep is checked against, and the
damage a disk or a dead publisher leaves in an artifact store (also used
by ``scripts/chaos_smoke.py``)."""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from repro.core.sensitivity import SensitivityResult, build_pair_list
from repro.nn import CrossEntropyLoss, Module
from repro.store import StoreKey
from repro.store.artifact import deserialize

#: What :func:`damage_entry` can do to a published store entry.
ENTRY_DAMAGE = ("truncated_artifact", "checksum_flip", "fingerprint_mismatch")


class Unsegmented(Module):
    """``inner`` without forward segments: a sweep of it runs as the
    single segment ``[model]``, every replay a full forward."""

    def __init__(self, inner: Module) -> None:
        super().__init__()
        self.inner = inner

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.inner.forward(x)


def naive_sweep(
    model: Module,
    table,
    x: np.ndarray,
    y: np.ndarray,
    mode: str = "full",
    blocks=None,
    batch_size: int = 256,
) -> SensitivityResult:
    """The literal Algorithm 1, the oracle for the sweep's equivalence.

    One full forward per evaluation under ``table.perturbed``, with no
    prefix caches and no chunks, and the per-batch loss reduction the
    sweep uses.
    """
    criterion = CrossEntropyLoss()
    model.eval()

    def loss() -> float:
        total = 0.0
        for start in range(0, len(x), batch_size):
            xb, yb = x[start : start + batch_size], y[start : start + batch_size]
            total += criterion.forward(model.forward(xb), yb) * len(xb)
        return total / len(x)

    bits = table.config.bits
    nb = len(bits)
    num_layers = len(table.layers)
    matrix = np.zeros((num_layers * nb, num_layers * nb))
    single = np.zeros((num_layers, nb))
    with model.no_grad():
        base = loss()
        evals = 1
        for i in range(num_layers):
            for m, b in enumerate(bits):
                with table.perturbed((i, b)):
                    single[i, m] = loss()
                evals += 1
                matrix[i * nb + m, i * nb + m] = 2.0 * (single[i, m] - base)
        for i, j in build_pair_list(table.layers, mode, blocks):
            for m, bm in enumerate(bits):
                for n, bn in enumerate(bits):
                    with table.perturbed((i, bm), (j, bn)):
                        pair = loss()
                    evals += 1
                    omega = pair + base - single[i, m] - single[j, n]
                    matrix[i * nb + m, j * nb + n] = omega
                    matrix[j * nb + n, i * nb + m] = omega
    return SensitivityResult(
        matrix=matrix,
        base_loss=base,
        single_losses=single,
        num_evals=evals,
        wall_time=0.0,
        mode=mode,
        bits=tuple(bits),
    )


def numeric_param_grad(
    model: Module,
    criterion: CrossEntropyLoss,
    x: np.ndarray,
    y: np.ndarray,
    param,
    indices: np.ndarray,
    eps: float = 1e-3,
) -> np.ndarray:
    # eps is sized for float32 parameters: large enough that the float32
    # forward noise (~1e-6 in the loss) stays well below eps * |grad|.
    """Central-difference gradient of the loss at selected parameter entries."""
    flat = param.data.ravel()
    grads = np.zeros(len(indices))
    for out_idx, i in enumerate(indices):
        old = flat[i]
        flat[i] = old + eps
        loss_plus = criterion(model.forward(x), y)
        flat[i] = old - eps
        loss_minus = criterion(model.forward(x), y)
        flat[i] = old
        grads[out_idx] = (loss_plus - loss_minus) / (2 * eps)
    return grads


def check_model_gradients(
    model: Module,
    x: np.ndarray,
    y: np.ndarray,
    params_to_check=None,
    samples_per_param: int = 6,
    rtol: float = 2e-2,
    atol: float = 2e-3,
    seed: int = 0,
) -> None:
    """Assert analytic gradients match finite differences on random entries."""
    criterion = CrossEntropyLoss()
    model.eval()
    loss = criterion(model.forward(x), y)
    assert np.isfinite(loss)
    model.zero_grad()
    model.backward(criterion.backward())
    rng = np.random.default_rng(seed)
    params = params_to_check or model.parameters()
    for param in params:
        assert param.grad is not None, f"no grad for {param.name}"
        n = param.data.size
        indices = rng.choice(n, size=min(samples_per_param, n), replace=False)
        numeric = numeric_param_grad(model, criterion, x, y, param, indices)
        analytic = param.grad.ravel()[indices]
        np.testing.assert_allclose(
            analytic,
            numeric,
            rtol=rtol,
            atol=atol,
            err_msg=f"gradient mismatch in {param.name}",
        )


def numeric_input_grad(
    forward, x: np.ndarray, grad_out: np.ndarray, eps: float = 1e-4, samples: int = 8,
    seed: int = 0,
) -> tuple:
    """Numeric <dL/dx, picked entries> where L = sum(forward(x) * grad_out)."""
    rng = np.random.default_rng(seed)
    flat = x.ravel()
    indices = rng.choice(flat.size, size=min(samples, flat.size), replace=False)
    grads = np.zeros(len(indices))
    for out_idx, i in enumerate(indices):
        old = flat[i]
        flat[i] = old + eps
        plus = float((forward(x) * grad_out).sum())
        flat[i] = old - eps
        minus = float((forward(x) * grad_out).sum())
        flat[i] = old
        grads[out_idx] = (plus - minus) / (2 * eps)
    return indices, grads


def damage_entry(store, key: StoreKey, kind: str) -> None:
    """Damage ``key``'s published entry by rewriting its file.

    ``truncated_artifact`` keeps the first 40% of the bytes (a torn copy);
    ``checksum_flip`` flips one bit in the middle of the stored matrix
    (bit rot the checksum covers); ``fingerprint_mismatch`` writes a
    checksum-valid entry whose weights fingerprint names other weights.
    """
    path = store.entry_path(key)
    data = bytearray(path.read_bytes())
    artifact = deserialize(path, expect=key)
    if kind == "truncated_artifact":
        del data[len(data) * 2 // 5 :]
    elif kind == "checksum_flip":
        matrix = artifact.matrix.tobytes()
        data[data.index(matrix) + len(matrix) // 2] ^= 0x01
    elif kind == "fingerprint_mismatch":
        # Flipping each hex digit guarantees another digest.
        weights = "".join(format(int(c, 16) ^ 1, "x") for c in key.weights)
        foreign = dataclasses.replace(
            artifact, fingerprints=dataclasses.replace(key, weights=weights)
        )
        data = bytearray(foreign.serialize())
    else:
        raise ValueError(f"unknown entry damage {kind!r}")
    path.write_bytes(bytes(data))


def plant_stale_lock(store, key: StoreKey) -> None:
    """Leave the writer lock a publisher killed mid-publish leaves,
    aged past the store's lock TTL."""
    lock = store.lock_path(key)
    lock.write_text('{"pid": 0, "acquired_at": 0}')
    aged = lock.stat().st_mtime - 2.0 * store.lock_ttl - 1.0
    os.utime(lock, (aged, aged))
