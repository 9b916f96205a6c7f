"""``repro.telemetry`` — dependency-free instrumentation for every subsystem.

Three layers (see ``docs/observability.md`` for conventions and schema):

- **spans** — ``with telemetry.span("sweep.pair", i=i): ...``
  hierarchical monotonic timers aggregated by name (thread- and
  fork-safe; forked workers report per-worker totals);
- **counters / gauges** — ``telemetry.counter("sensitivity.forward_evals")``
  named cost meters registered at module level, no-ops while disabled;
- **run manifests** — ``with telemetry.start_run("allocate", ...) as run``
  one JSON document per run (config, git rev, seeds, counters, span
  tree, peak RSS) under ``reports/runs/``.

The module is import-cheap and has zero third-party dependencies so every
hot path can stay instrumented unconditionally.
"""

from __future__ import annotations

import sys

from .manifest import (
    MANIFEST_SCHEMA,
    Run,
    current_run,
    default_manifest_dir,
    git_revision,
    peak_rss_kb,
    start_run,
)
from .report import format_manifest, load_manifest
from .trace import (
    Counter,
    Gauge,
    SpanNode,
    counter,
    counters_snapshot,
    disable,
    enable,
    enabled,
    fork_capture,
    gauge,
    gauges_snapshot,
    merge_delta,
    monotonic,
    reset,
    span,
    span_tree,
    worker_totals,
)

__all__ = [
    "span",
    "counter",
    "gauge",
    "Counter",
    "Gauge",
    "SpanNode",
    "enable",
    "disable",
    "enabled",
    "reset",
    "counters_snapshot",
    "gauges_snapshot",
    "span_tree",
    "worker_totals",
    "fork_capture",
    "merge_delta",
    "monotonic",
    "Run",
    "start_run",
    "current_run",
    "default_manifest_dir",
    "git_revision",
    "peak_rss_kb",
    "MANIFEST_SCHEMA",
    "format_manifest",
    "load_manifest",
    "emit",
]


def emit(message: str = "", *, end: str = "\n") -> None:
    """Write one line of user-facing output.

    The single sanctioned console sink for ``src/repro``: ``make lint``
    forbids bare ``print(`` so that library code cannot silently bypass
    telemetry, while CLI/report surfaces route through here.
    """
    sys.stdout.write(str(message) + end)
