"""Pretty-printer for run manifests (``python -m repro report <file>``).

Manifests come from many writers — current runs, older schema versions,
crashed runs finalized by an exception handler — so the renderer is
defensive: a section that is absent, empty, or malformed renders as an
``—`` placeholder (or is skipped when optional) instead of raising.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

__all__ = ["load_manifest", "format_manifest"]

#: Placeholder rendered for a section the manifest does not carry.
_EMPTY = "  —"


def load_manifest(path) -> dict:
    """Read one manifest JSON document.

    Raises ``OSError`` for a file that cannot be read and ``ValueError``
    for one that is not a JSON object.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("a manifest is a JSON object")
    return doc


def _as_float(value, default: float = 0.0) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return default


def _as_int(value, default: int = 0) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        return default


def _format_span(node: dict, depth: int, lines: list, total_s: float) -> None:
    if not isinstance(node, dict):
        return
    name = str(node.get("name", "?"))
    count = _as_int(node.get("count", 0))
    span_s = _as_float(node.get("total_s", 0.0))
    share = f"{span_s / total_s:>5.0%}" if total_s > 0 else "   --"
    label = "  " * depth + name
    lines.append(f"  {label:<44}{count:>8}{span_s:>10.3f}s  {share}")
    children = node.get("children")
    for child in children if isinstance(children, (list, tuple)) else ():
        _format_span(child, depth + 1, lines, total_s)


def format_manifest(doc: dict, max_counter_rows: Optional[int] = None) -> str:
    """Human-readable report for one run manifest.

    ``counters`` and ``spans`` always render (as ``—`` when the manifest
    carries none); the remaining sections are optional and appear only
    when present.
    """
    lines = [
        f"run      {doc.get('run_id', '?')}",
        f"command  {doc.get('command', '?')}",
        f"git rev  {doc.get('git_rev', '?')}",
        f"started  {doc.get('started_at', '?')}  "
        f"(duration {_as_float(doc.get('duration_s', 0.0)):.2f}s)",
    ]
    rss = doc.get("peak_rss_kb")
    if rss:
        lines.append(f"peak RSS {_as_int(rss) / 1024:.1f} MiB")
    config = doc.get("config") or {}
    if config:
        lines.append("config   " + json.dumps(config, sort_keys=True))
    seeds = doc.get("seeds") or {}
    if seeds:
        lines.append("seeds    " + json.dumps(seeds, sort_keys=True))

    counters = doc.get("counters")
    lines.append("")
    lines.append("counters")
    if isinstance(counters, dict) and counters:
        rows = sorted(counters.items())
        if max_counter_rows is not None:
            rows = rows[:max_counter_rows]
        for name, value in rows:
            lines.append(f"  {name:<44}{value:>14}")
    else:
        lines.append(_EMPTY)
    gauges = doc.get("gauges") or {}
    if isinstance(gauges, dict) and gauges:
        lines.append("")
        lines.append("gauges")
        for name, value in sorted(gauges.items()):
            lines.append(f"  {name:<44}{_as_float(value):>14.4g}")

    spans = doc.get("spans")
    children = spans.get("children") if isinstance(spans, dict) else None
    lines.append("")
    if isinstance(children, (list, tuple)) and children:
        lines.append(f"spans{'':<41}{'count':>8}{'total':>11}  share")
        total_s = sum(
            _as_float(c.get("total_s", 0.0))
            for c in children
            if isinstance(c, dict)
        )
        for child in children:
            _format_span(child, 0, lines, total_s)
    else:
        lines.append("spans")
        lines.append(_EMPTY)

    workers = doc.get("workers") or {}
    if isinstance(workers, dict) and workers:
        lines.append("")
        lines.append("per-worker totals")
        for pid, totals in sorted(workers.items()):
            if not isinstance(totals, dict):
                continue
            summary = ", ".join(
                f"{name.rsplit('.', 1)[-1]}={value}"
                for name, value in sorted(totals.items())
            )
            lines.append(f"  pid {pid}: {summary}")

    results = doc.get("results") or {}
    if isinstance(results, dict) and results:
        lines.append("")
        lines.append("results")
        for name, value in sorted(results.items()):
            lines.append(f"  {name:<30}{value}")
    return "\n".join(lines)
