"""Durable allocation service: the content-addressed Ĝ artifact store.

Sensitivity sweeps are the expensive half of the paper's pipeline —
thousands of forward evaluations per model — while the IQP solve is
seconds.  This package makes the sweep a durable, shareable artifact:

- :mod:`repro.store.keys` — content addressing (model weights ×
  sensitivity set × quantizer config fingerprints);
- :mod:`repro.store.artifact` — the self-verifying single-file entry
  (payload + manifest + embedded checksum, the determinism audit
  included);
- :mod:`repro.store.store` — the crash-safe store itself (atomic
  publishes, single-writer locks with stale takeover, verify-on-read
  with typed corrupt/stale attribution, quarantine);
- :mod:`repro.store.serve` — the degradation-aware request path
  (cache hit → verified load + solve; integrity failure
  → quarantine + remeasure; ``--offline`` → typed refusal).

See docs/store.md for the design and docs/robustness.md for how the
store's failure modes map onto CLI exit codes.
"""

from .artifact import (
    ARTIFACT_SCHEMA,
    GhatArtifact,
    StaleArtifactError,
)
from .keys import (
    StoreKey,
    data_fingerprint,
    quantizer_fingerprint,
    request_key,
    weights_fingerprint,
)
from .serve import STORE_EXIT_CODE, StoreMissError, allocate_cached, prepare_cached
from .store import DEFAULT_LOCK_TTL, ArtifactStore

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactStore",
    "DEFAULT_LOCK_TTL",
    "GhatArtifact",
    "STORE_EXIT_CODE",
    "StaleArtifactError",
    "StoreKey",
    "StoreMissError",
    "allocate_cached",
    "data_fingerprint",
    "prepare_cached",
    "quantizer_fingerprint",
    "request_key",
    "weights_fingerprint",
]
