"""The shared atomic-write helper: every durable artifact goes through here.

Extracted from :mod:`repro.quant.export` (which re-exports these names for
its original callers) so the packed-weights exporter, the sweep
checkpointer, the model-zoo cache, and the Ĝ artifact store
(:mod:`repro.store`) all share one write discipline:

- **atomicity** — payloads are written to a sibling ``*.tmp`` file and
  moved over the final name with ``os.replace``, so readers only ever
  observe the previous complete file or the new complete file, never a
  torn one.  A writer killed mid-write (kill -9, OOM) leaves only a
  ``*.tmp`` orphan, never a visible entry.
- **self-cleaning** — aged tmp orphans are reaped on every write (and by
  read-mostly callers via :func:`reap_stale_tmp`), counted in
  ``export.stale_tmp_reaped``.
- **integrity** — :func:`payload_checksum` embeds a SHA-256 over an npz
  payload's keys, dtypes, shapes, and bytes under :data:`CHECKSUM_KEY`.

Telemetry lint rule 7 (``scripts/check_telemetry_lint.py``) forbids raw
``open(..., "w"/"wb")`` / ``np.save*`` / ``json.dump`` writes elsewhere in
``src/repro`` — durable bytes that bypass this module would reintroduce
exactly the torn-artifact window the store's crash-safety contract rules
out.  The ``open(tmp, "wb")`` calls below are the one sanctioned site.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict

import numpy as np

from . import telemetry

__all__ = [
    "CHECKSUM_KEY",
    "STALE_TMP_TTL",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_npz",
    "payload_checksum",
    "reap_stale_tmp",
    "wall_now",
]

#: npz key carrying the payload checksum (no payload array may collide
#: with it).
CHECKSUM_KEY = "__checksum__"

#: Age (seconds) past which an orphaned ``*.tmp`` sibling is reaped.  A
#: healthy atomic write holds its tmp file for milliseconds; anything this
#: old belongs to a process that died between the write and the rename.
STALE_TMP_TTL = 3600.0

#: Orphaned tmp files removed by :func:`reap_stale_tmp`.
_TMP_REAPED = telemetry.counter("export.stale_tmp_reaped")


def wall_now() -> float:
    """Wall-clock seconds since the epoch, comparable with file mtimes.

    The telemetry lint forbids ``time.time()`` so span arithmetic stays on
    the monotonic clock — but cross-process freshness checks (stale tmp
    files, writer-lock takeover) compare against
    ``os.stat`` mtimes, which *are* wall-clock.  This is the one
    sanctioned wall-clock source.
    """
    return datetime.now(timezone.utc).timestamp()


def reap_stale_tmp(directory, ttl: float = STALE_TMP_TTL) -> int:
    """Remove ``*.tmp`` files in ``directory`` older than ``ttl`` seconds.

    A writer killed between writing ``foo.tmp`` and ``os.replace`` leaks
    the tmp file forever; callers of the atomic-write machinery invoke
    this on save/load so checkpoint and artifact directories self-clean.  Young
    tmp files (a concurrent writer mid-save) are left alone.  Returns the
    number of files reaped (counted in ``export.stale_tmp_reaped``).
    """
    root = Path(directory)
    if not root.is_dir():
        return 0
    cutoff = wall_now() - ttl
    reaped = 0
    for tmp in root.glob("*.tmp"):
        try:
            if tmp.stat().st_mtime < cutoff:
                tmp.unlink()
                reaped += 1
        except OSError:
            continue  # raced with another reaper or the original writer
    if reaped:
        _TMP_REAPED.add(reaped)
    return reaped


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (sibling tmp + ``os.replace``).

    Readers only ever observe the previous complete file or the new
    complete file; stale tmp siblings left by killed writers are reaped
    first (see :func:`reap_stale_tmp`).
    """
    final = os.fspath(path)
    reap_stale_tmp(os.path.dirname(final) or ".")
    tmp = final + ".tmp"
    try:
        with open(tmp, "wb") as fh:  # lint-allow-raw-write: the atomic writer itself
            fh.write(data)
        os.replace(tmp, final)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def atomic_write_npz(path, arrays: Dict[str, np.ndarray]) -> None:
    """Serialize an array dict to ``path`` as one atomic npz write.

    Buffers the archive in memory first so ``np.savez``'s implicit
    ``.npz`` suffix handling never splits the tmp file from its final
    name, then goes through :func:`atomic_write_bytes`.
    """
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    atomic_write_bytes(path, buf.getvalue())


def atomic_write_json(path, doc: dict) -> None:
    """Serialize a JSON document to ``path`` atomically (sorted keys)."""
    atomic_write_bytes(
        path, (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()
    )


def payload_checksum(payload: Dict[str, np.ndarray]) -> str:
    """SHA-256 over every array's key, dtype, shape, and raw bytes.

    Key-sorted so the digest is independent of insertion order; dtype and
    shape are included so reinterpretations of the same bytes don't
    collide.
    """
    h = hashlib.sha256()
    for key in sorted(payload):
        arr = np.ascontiguousarray(payload[key])
        h.update(key.encode("utf-8"))
        h.update(str(arr.dtype).encode("ascii"))
        h.update(repr(arr.shape).encode("ascii"))
        h.update(arr.tobytes())
    return h.hexdigest()
