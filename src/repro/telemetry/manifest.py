"""Run manifests: one JSON document per run under ``reports/runs/``.

A manifest is the durable half of telemetry: configuration, git revision,
seeds, all counters/gauges, the aggregated span tree, per-worker totals,
and peak RSS, written atomically when the run finishes.  Benchmarks and
experiment drivers link manifests instead of copying ad-hoc stat dicts
around, and ``python -m repro report <manifest>`` pretty-prints one.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional

from . import trace

__all__ = [
    "MANIFEST_SCHEMA",
    "default_manifest_dir",
    "Run",
    "start_run",
    "current_run",
    "git_revision",
    "peak_rss_kb",
]

MANIFEST_SCHEMA = 1

_CURRENT_RUN: Optional["Run"] = None


def default_manifest_dir() -> Path:
    """``reports/runs/`` under the repository/working directory."""
    env = os.environ.get("REPRO_MANIFEST_DIR")
    if env:
        return Path(env)
    return Path("reports") / "runs"


def git_revision() -> str:
    """Current git commit hash, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB (None off-POSIX)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover
        usage //= 1024
    return int(usage)


class Run:
    """An in-flight instrumented run, finalized into one manifest file.

    Enables the collector on entry (when it was off) and restores the
    previous enablement on finish, so nested/sequential runs compose.
    Usable as a context manager; the manifest path is ``run.path`` after
    ``finish()``.
    """

    def __init__(
        self,
        command: str,
        config: Optional[dict] = None,
        seeds: Optional[dict] = None,
        manifest_dir: Optional[os.PathLike] = None,
        argv: Optional[list] = None,
    ) -> None:
        self.command = command
        self.config = dict(config or {})
        self.seeds = dict(seeds or {})
        self.manifest_dir = Path(manifest_dir) if manifest_dir else default_manifest_dir()
        self.argv = list(sys.argv if argv is None else argv)
        started = datetime.now(timezone.utc)
        self.started_at = started.isoformat(timespec="seconds")
        self.run_id = (
            f"{started.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}-"
            f"{command.replace('/', '_')}"
        )
        self.path: Optional[Path] = None
        self.results: Dict[str, object] = {}
        self._t0 = perf_counter()
        self._was_enabled = trace.enabled()
        self._finished = False
        if not self._was_enabled:
            trace.reset()
            trace.enable()

    # -- context-manager sugar -------------------------------------------------
    def __enter__(self) -> "Run":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._finished:
            if exc_type is not None:
                self.results.setdefault("error", repr(exc))
            self.finish()
        return False

    # -- finalization ----------------------------------------------------------
    def add_result(self, **kv) -> None:
        """Attach result fields (solver status, achieved size, ...)."""
        self.results.update(kv)

    def document(self) -> dict:
        """The manifest document in its current state (pre-serialization)."""
        return {
            "schema": MANIFEST_SCHEMA,
            "run_id": self.run_id,
            "command": self.command,
            "argv": self.argv,
            "config": self.config,
            "seeds": self.seeds,
            "git_rev": git_revision(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "started_at": self.started_at,
            "finished_at": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "duration_s": round(perf_counter() - self._t0, 6),
            "counters": trace.counters_snapshot(),
            "gauges": trace.gauges_snapshot(),
            "spans": trace.span_tree(),
            "workers": {
                str(pid): totals
                for pid, totals in trace.worker_totals().items()
            },
            "peak_rss_kb": peak_rss_kb(),
            "results": self.results,
        }

    def finish(self, **extra_results) -> Path:
        """Write the manifest atomically and return its path."""
        global _CURRENT_RUN
        # repro.atomicio imports this package: import at call time.
        from ..atomicio import atomic_write_json

        if self._finished:
            assert self.path is not None
            return self.path
        self.results.update(extra_results)
        self.manifest_dir.mkdir(parents=True, exist_ok=True)
        path = self.manifest_dir / f"{self.run_id}.json"
        atomic_write_json(path, self.document())
        self.path = path
        self._finished = True
        if not self._was_enabled:
            trace.disable()
        if _CURRENT_RUN is self:
            _CURRENT_RUN = None
        return path


def start_run(
    command: str,
    config: Optional[dict] = None,
    seeds: Optional[dict] = None,
    manifest_dir: Optional[os.PathLike] = None,
    argv: Optional[list] = None,
) -> Run:
    """Begin an instrumented run and make it the process-current one."""
    global _CURRENT_RUN
    run = Run(command, config=config, seeds=seeds, manifest_dir=manifest_dir,
              argv=argv)
    _CURRENT_RUN = run
    return run


def current_run() -> Optional[Run]:
    """The in-flight run started by :func:`start_run`, if any."""
    return _CURRENT_RUN
