"""The content-addressed Ĝ artifact store.

Layout under the store root::

    objects/<key>.npz        one self-verifying entry per StoreKey
                             (see repro.store.artifact)
    locks/<key>.lock         single-writer publish lock (O_EXCL create;
                             mtime-aged takeover for dead writers)
    quarantine/<key>.<n>.npz entries that failed verification, plus an
                             attributed <...>.reason.json sidecar

Invariants:

- **Crash-safe publish** — entries are written through the shared atomic
  writer (:mod:`repro.atomicio`), so a publisher killed at any point
  leaves only a reapable ``*.tmp`` orphan, never a visible entry.
- **Single writer per key** — concurrent publishers of the same key race
  on an ``O_EXCL`` lock file; losers yield idempotently (the winner is
  publishing the same content — the key *is* the content address).  A
  lock whose mtime ages past ``lock_ttl`` belongs to a dead writer and
  is taken over (``store.lock_takeovers``).
- **Verify-on-read** — every load re-checks the embedded checksum and
  fingerprints; failures raise the typed
  :class:`~repro.quant.export.CorruptArtifactError` /
  :class:`~repro.store.artifact.StaleArtifactError` and are attributed
  in ``store.corrupt`` / ``store.stale``.  The store never returns a
  damaged or mismatched artifact.
- **Quarantine, don't delete** — bad entries are moved aside with a
  reason file so operators can attribute the corruption; the serve layer
  then routes the request back through a fresh health-checked sweep.

The store has no fault hooks: every failure it guards against is a state
of the files under its root, which a test reaches by writing them.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .. import telemetry
from ..atomicio import (
    STALE_TMP_TTL,
    atomic_write_bytes,
    atomic_write_json,
    reap_stale_tmp,
    wall_now,
)
from ..quant.export import CorruptArtifactError
from .artifact import GhatArtifact, StaleArtifactError, deserialize
from .keys import StoreKey

__all__ = ["DEFAULT_LOCK_TTL", "ArtifactStore"]

#: Seconds a publish lock may sit untouched before it is presumed to
#: belong to a dead writer and taken over.  Publishes hold the lock for
#: one atomic write (milliseconds), so minutes of age is unambiguous.
DEFAULT_LOCK_TTL = 60.0

_HITS = telemetry.counter("store.hits")
_MISSES = telemetry.counter("store.misses")
_CORRUPT = telemetry.counter("store.corrupt")
_STALE = telemetry.counter("store.stale")
_QUARANTINED = telemetry.counter("store.quarantined")
_PUBLISHES = telemetry.counter("store.publishes")
_PUBLISH_CONFLICTS = telemetry.counter("store.publish_conflicts")
_LOCK_TAKEOVERS = telemetry.counter("store.lock_takeovers")


class ArtifactStore:
    """Filesystem-backed content-addressed store for Ĝ artifacts."""

    def __init__(self, root, lock_ttl: float = DEFAULT_LOCK_TTL) -> None:
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.locks = self.root / "locks"
        self.quarantine_dir = self.root / "quarantine"
        self.lock_ttl = float(lock_ttl)
        for d in (self.objects, self.locks, self.quarantine_dir):
            d.mkdir(parents=True, exist_ok=True)

    # -- paths -----------------------------------------------------------------
    def entry_path(self, key: StoreKey) -> Path:
        return self.objects / f"{key.key}.npz"

    def lock_path(self, key: StoreKey) -> Path:
        return self.locks / f"{key.key}.lock"

    def has(self, key: StoreKey) -> bool:
        return self.entry_path(key).exists()

    # -- read path -------------------------------------------------------------
    def load(self, key: StoreKey) -> Optional[GhatArtifact]:
        """Load + verify the entry for ``key``; ``None`` on a miss.

        Raises :class:`CorruptArtifactError` / :class:`StaleArtifactError`
        (with the ``store.corrupt`` / ``store.stale`` counter bumped) when
        the entry exists but must not be served; callers decide whether to
        quarantine and remeasure (see :mod:`repro.store.serve`).
        """
        path = self.entry_path(key)
        with telemetry.span("store.load"):
            reap_stale_tmp(self.objects)
            try:
                artifact = deserialize(path, expect=key)
            except FileNotFoundError:
                _MISSES.add()
                return None
            except CorruptArtifactError:
                _CORRUPT.add()
                raise
            except StaleArtifactError:
                _STALE.add()
                raise
        _HITS.add()
        return artifact

    # -- write path ------------------------------------------------------------
    def publish(self, key: StoreKey, artifact: GhatArtifact) -> str:
        """Publish ``artifact`` under ``key``; returns the outcome.

        - ``"published"`` — this writer won and the entry is visible;
        - ``"exists"`` — a valid entry was already in place (idempotent
          duplicate publish: the key is the content address, so the
          resident entry is the same measurement);
        - ``"busy"`` — another *live* writer holds the lock; the caller
          loses nothing by yielding, because the winner is publishing the
          same content.
        """
        with telemetry.span("store.publish"):
            if not self._acquire_lock(key):
                _PUBLISH_CONFLICTS.add()
                return "busy"
            try:
                path = self.entry_path(key)
                if path.exists():
                    try:
                        deserialize(path, expect=key)
                    except (CorruptArtifactError, StaleArtifactError):
                        pass  # resident entry is bad; overwrite it below
                    else:
                        _PUBLISH_CONFLICTS.add()
                        return "exists"
                atomic_write_bytes(path, artifact.serialize())
                _PUBLISHES.add()
            finally:
                self._release_lock(key)
        return "published"

    def _acquire_lock(self, key: StoreKey) -> bool:
        """O_EXCL lock create, with mtime-aged takeover of dead writers."""
        lock = self.lock_path(key)
        doc = json.dumps({"pid": os.getpid(), "acquired_at": wall_now()})
        for _ in range(3):
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = wall_now() - lock.stat().st_mtime
                except FileNotFoundError:
                    continue  # holder released between open and stat; retry
                if age <= self.lock_ttl:
                    return False  # live writer; yield
                # Aged lock: its writer died mid-publish.  Take over and
                # retry the exclusive create (another thief may also race
                # the unlink; the O_EXCL create re-arbitrates).
                try:
                    os.unlink(lock)
                except FileNotFoundError:
                    pass
                _LOCK_TAKEOVERS.add()
                continue
            with os.fdopen(fd, "w") as fh:  # lint-allow-raw-write: O_EXCL lock file — the create *is* the commit
                fh.write(doc)
            return True
        return False

    def _release_lock(self, key: StoreKey) -> None:
        try:
            os.unlink(self.lock_path(key))
        except FileNotFoundError:
            pass  # a takeover thief revoked us; entry writes stay atomic

    # -- quarantine ------------------------------------------------------------
    def quarantine(self, key: StoreKey, reason: str) -> Optional[Path]:
        """Move ``key``'s entry aside with an attributed reason file.

        Returns the quarantine path (``None`` when the entry vanished —
        e.g. a concurrent quarantine won).  Quarantined entries never
        match a lookup again; the reason sidecar records why and when.
        """
        src = self.entry_path(key)
        n = 0
        while True:
            dst = self.quarantine_dir / f"{key.key}.{n}.npz"
            if not dst.exists():
                break
            n += 1
        try:
            os.replace(src, dst)
        except FileNotFoundError:
            return None
        _QUARANTINED.add()
        atomic_write_json(
            Path(f"{dst}.reason.json"),
            {
                "key": key.key,
                "fingerprints": key.to_dict(),
                "reason": str(reason),
                "quarantined_at": wall_now(),
            },
        )
        return dst

    # -- maintenance -----------------------------------------------------------
    def reap(self, ttl: float = STALE_TMP_TTL) -> int:
        """Reap aged tmp orphans and dead writer locks; returns the count."""
        reaped = 0
        for d in (self.objects, self.locks, self.quarantine_dir):
            reaped += reap_stale_tmp(d, ttl)
        cutoff = wall_now() - self.lock_ttl
        for lock in self.locks.glob("*.lock"):
            try:
                if lock.stat().st_mtime < cutoff:
                    lock.unlink()
                    reaped += 1
                    _LOCK_TAKEOVERS.add()
            except OSError:
                continue  # raced with the lock holder or another reaper
        return reaped

    def entries(self) -> List[Path]:
        """Entry files currently visible (sorted by key)."""
        return sorted(self.objects.glob("*.npz"))

    def verify_all(self) -> List[Tuple[str, str]]:
        """``(key, status)`` for every entry: ok / corrupt / stale-schema."""
        out: List[Tuple[str, str]] = []
        for path in self.entries():
            name = path.stem
            try:
                deserialize(path, expect=None)
            except CorruptArtifactError as exc:
                out.append((name, f"corrupt: {exc}"))
            except StaleArtifactError as exc:
                out.append((name, f"stale: {exc}"))
            else:
                out.append((name, "ok"))
        return out

    def describe(self) -> Dict[str, object]:
        """Summary counts for the CLI's ``store list``."""
        return {
            "root": str(self.root),
            "entries": len(self.entries()),
            "quarantined": len(list(self.quarantine_dir.glob("*.npz"))),
            "locks": len(list(self.locks.glob("*.lock"))),
        }
