"""Degradation-aware allocation serving from the Ĝ artifact store.

:func:`allocate_cached` is the request path the CLI's ``allocate-cached``
command speaks.  For one prepared-or-not CLADO-family algorithm and a
grid of budgets it descends a fixed ladder:

1. **cache hit** — the store entry for this request's
   :class:`~repro.store.keys.StoreKey` verifies; its sensitivities are
   installed via ``set_sensitivity`` and every budget is solved by
   ``algo.allocate``.  Zero forward evaluations are spent.
2. **integrity failure** — the entry exists but is corrupt (damaged
   bytes) or stale (fingerprints from another world).  It is
   quarantined with an attributed reason, and — when measuring is
   permitted — the request falls through to a fresh health-checked
   sweep whose result is published back if its determinism audit
   passed (or health checking is off): the store never serves an
   unconfirmed Ĝ as truth.
3. **miss** — no entry: fresh sweep + publish, same as (2).
4. **offline** — when ``offline=True`` measuring is forbidden, so (2)
   and (3) raise :class:`StoreMissError` instead; the CLI maps it to
   exit code :data:`STORE_EXIT_CODE`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..atomicio import wall_now
from ..core.api import AllocationResult, SensitivityConfig, SolverConfig
from ..quant.export import CorruptArtifactError
from .artifact import GhatArtifact, StaleArtifactError
from .keys import StoreKey, request_key
from .store import ArtifactStore

__all__ = ["STORE_EXIT_CODE", "StoreMissError", "allocate_cached", "prepare_cached"]

#: CLI exit code for a request the store cannot serve in ``--offline``
#: mode (miss, or an integrity failure with remeasurement forbidden).
#: See the exit-code contract table in docs/robustness.md.
STORE_EXIT_CODE = 7

_SERVED_CACHED = telemetry.counter("store.served_cached")
_SERVED_FRESH = telemetry.counter("store.served_fresh")
_OFFLINE_REFUSALS = telemetry.counter("store.offline_refusals")


class StoreMissError(RuntimeError):
    """The store cannot serve this request and measuring is forbidden.

    ``reason`` is ``"miss"`` (no entry) or ``"integrity"`` (the entry was
    quarantined as corrupt/stale); ``key`` is the combined content
    address the request hashed to.
    """

    def __init__(self, message: str, reason: str, key: str) -> None:
        super().__init__(message)
        self.reason = reason
        self.key = key


def prepare_cached(
    algo,
    x: np.ndarray,
    y: np.ndarray,
    store: ArtifactStore,
    sensitivity: Optional[SensitivityConfig] = None,
    offline: bool = False,
) -> Tuple[StoreKey, str]:
    """Prepare ``algo``'s sensitivities from the store when possible.

    Runs the cache-hit / quarantine / fresh-sweep ladder for the request
    ``(algo, x, y, sensitivity)``: a verified entry is installed with
    ``set_sensitivity``, anything else (under ``offline=False``) runs
    ``algo.prepare`` and publishes the result unless its determinism
    audit disagreed (a ``warn`` run still serves its own allocations
    from it).  ``sensitivity`` defaults to ``algo.sensitivity_config``.
    Returns the request's :class:`StoreKey` and the source tag
    (``store`` / ``sweep`` / ``quarantine_remeasure``).
    """
    config = sensitivity or algo.sensitivity_config
    key = request_key(algo, x, y, config)
    integrity: Optional[str] = None
    try:
        artifact = store.load(key)
    except (CorruptArtifactError, StaleArtifactError) as exc:
        integrity = f"{type(exc).__name__}: {exc}"
        store.quarantine(key, integrity)
        if offline:
            _OFFLINE_REFUSALS.add()
            raise StoreMissError(
                f"store entry for key {key.key[:16]}... failed verification "
                f"({integrity}) and --offline forbids remeasuring",
                reason="integrity",
                key=key.key,
            ) from exc
        artifact = None
    if artifact is not None:
        algo.set_sensitivity(artifact.to_result())
        _SERVED_CACHED.add()
        return key, "store"
    if offline:
        _OFFLINE_REFUSALS.add()
        raise StoreMissError(
            f"no store entry for key {key.key[:16]}... and --offline "
            "forbids measuring",
            reason="miss",
            key=key.key,
        )
    # Fresh health-checked sweep; publish the measurement back so the next
    # identical request is a hit.
    algo.prepare(x, y, config)
    if algo.raw.health is None or algo.raw.health.healthy:
        store.publish(
            key,
            GhatArtifact.from_result(
                algo.raw,
                key,
                model_name=algo.model_name,
                created_at=wall_now(),
                meta={"requantified_from": integrity} if integrity else None,
            ),
        )
    _SERVED_FRESH.add()
    return key, "quarantine_remeasure" if integrity else "sweep"


def allocate_cached(
    algo,
    x: np.ndarray,
    y: np.ndarray,
    budgets: Sequence[int],
    store: ArtifactStore,
    solver: Optional[SolverConfig] = None,
    sensitivity: Optional[SensitivityConfig] = None,
    offline: bool = False,
) -> List[AllocationResult]:
    """Serve allocations for ``budgets`` from the store when possible.

    ``algo`` must support ``set_sensitivity`` (the CLADO family); the
    baselines measure per-model statistics the store does not address.
    Returns one :class:`AllocationResult` per budget, in caller order.
    The run manifest (when a telemetry run is active) records the store
    key, the serve source (``store`` / ``sweep`` /
    ``quarantine_remeasure``), and the budget grid.
    """
    if not hasattr(algo, "set_sensitivity"):
        raise TypeError(
            f"{type(algo).__name__} does not support cached serving "
            "(no set_sensitivity); use a CLADO-family algorithm"
        )
    with telemetry.span("store.serve"):
        key, source = prepare_cached(algo, x, y, store, sensitivity, offline)
        results = [algo.allocate(int(budget), solver) for budget in budgets]
    run = telemetry.current_run()
    if run is not None:
        run.add_result(
            store_key=key.key,
            store_source=source,
            store_budgets=[int(b) for b in budgets],
        )
    return results
