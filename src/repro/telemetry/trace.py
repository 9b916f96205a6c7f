"""Spans and counters: the in-process half of the telemetry subsystem.

Design goals (see ``docs/observability.md``):

- **cheap when disabled** — ``Counter.add`` and ``span(...)`` reduce to a
  single attribute check when no run is active, so hot loops (per-pair
  sweep evaluations, B&B nodes, QAT steps) can stay instrumented
  unconditionally;
- **aggregated, not logged** — spans with the same dotted name under the
  same parent merge into one node carrying ``(count, total_s)``; a sweep
  with 10⁴ ``sweep.pair`` spans costs one tree node, not 10⁴ records;
- **thread- and fork-safe** — each thread keeps its own span stack
  (``threading.local``), all shared mutation happens under one lock, and
  forked workers capture their local deltas with :class:`fork_capture`
  for the parent to :func:`merge_delta` (keyed per worker pid, so the
  manifest reports per-worker totals).

Wall-clock is monotonic (``time.perf_counter``); absolute timestamps are
the manifest's job, not the tracer's.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "SpanNode",
    "span",
    "counter",
    "gauge",
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
]

monotonic = perf_counter


class SpanNode:
    """One aggregated node of the span tree.

    Children are keyed by span name; repeated entries under the same
    parent accumulate ``count`` and ``total_s`` instead of appending.
    """

    __slots__ = ("name", "count", "total_s", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.children: Dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = SpanNode(name)
            self.children[name] = node
        return node

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "count": self.count,
                     "total_s": round(self.total_s, 6)}
        if self.children:
            out["children"] = [c.to_dict() for c in self.children.values()]
        return out

    def merge_dict(self, payload: dict) -> None:
        """Fold a ``to_dict()`` payload (e.g. from a worker) into this node."""
        self.count += int(payload.get("count", 0))
        self.total_s += float(payload.get("total_s", 0.0))
        for child in payload.get("children", ()):
            self.child(str(child["name"])).merge_dict(child)

    def walk(self, depth: int = 0) -> Iterator[tuple]:
        """Yield ``(depth, node)`` pairs in pre-order."""
        yield depth, self
        for child in self.children.values():
            yield from child.walk(depth + 1)


class _State:
    """Process-global telemetry state (one collector per process)."""

    def __init__(self) -> None:
        self.active = False
        self.lock = threading.RLock()
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.root = SpanNode("run")
        self.workers: Dict[int, Dict[str, int]] = {}
        self.tls = threading.local()

    def stack(self) -> List[SpanNode]:
        stack = getattr(self.tls, "stack", None)
        if stack is None:
            stack = []
            self.tls.stack = stack
        return stack


_STATE = _State()


def enable() -> None:
    """Turn collection on (counters/spans start recording)."""
    _STATE.active = True


def disable() -> None:
    """Turn collection off; already-recorded data is kept until reset()."""
    _STATE.active = False


def enabled() -> bool:
    return _STATE.active


def reset() -> None:
    """Drop all recorded counters, gauges, spans, and worker totals."""
    with _STATE.lock:
        _STATE.counters.clear()
        _STATE.gauges.clear()
        _STATE.root = SpanNode("run")
        _STATE.workers.clear()
        _STATE.tls = threading.local()


class Counter:
    """A named monotonically-increasing counter.

    Python integers are arbitrary precision, so counters cannot silently
    wrap at machine-word boundaries; decrements are rejected to keep the
    "monotonic cost meter" semantics honest.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def add(self, n: int = 1) -> None:
        if not _STATE.active:
            return
        if n < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {n}")
        with _STATE.lock:
            _STATE.counters[self.name] = _STATE.counters.get(self.name, 0) + n

    @property
    def value(self) -> int:
        return _STATE.counters.get(self.name, 0)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A named last/extremum-value gauge (e.g. peak cache size)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def set(self, value: float) -> None:
        if not _STATE.active:
            return
        with _STATE.lock:
            _STATE.gauges[self.name] = float(value)

    def record_max(self, value: float) -> None:
        if not _STATE.active:
            return
        with _STATE.lock:
            prev = _STATE.gauges.get(self.name)
            if prev is None or value > prev:
                _STATE.gauges[self.name] = float(value)

    @property
    def value(self) -> Optional[float]:
        return _STATE.gauges.get(self.name)


_COUNTERS: Dict[str, Counter] = {}
_GAUGES: Dict[str, Gauge] = {}


def counter(name: str) -> Counter:
    """Register (or fetch) the module-level counter ``name``."""
    handle = _COUNTERS.get(name)
    if handle is None:
        handle = Counter(name)
        _COUNTERS[name] = handle
    return handle


def gauge(name: str) -> Gauge:
    """Register (or fetch) the module-level gauge ``name``."""
    handle = _GAUGES.get(name)
    if handle is None:
        handle = Gauge(name)
        _GAUGES[name] = handle
    return handle


class span:
    """Context manager timing one named region of the current thread.

    ``with span("sweep.pair", i=i): ...`` — attributes are
    accepted for call-site readability and live debugging hooks but are
    not stored in the aggregated tree (10⁴ pair spans fold into one node).
    """

    __slots__ = ("name", "attrs", "_t0", "_node")

    def __init__(self, name: str, **attrs) -> None:
        self.name = name
        self.attrs = attrs
        self._t0 = 0.0
        self._node: Optional[SpanNode] = None

    def __enter__(self) -> "span":
        if not _STATE.active:
            return self
        stack = _STATE.stack()
        parent = stack[-1] if stack else _STATE.root
        with _STATE.lock:
            node = parent.child(self.name)
        stack.append(node)
        self._node = node
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        node = self._node
        if node is not None:
            dt = perf_counter() - self._t0
            self._node = None
            stack = _STATE.stack()
            if stack and stack[-1] is node:
                stack.pop()
            with _STATE.lock:
                node.count += 1
                node.total_s += dt
        return False


def counters_snapshot() -> Dict[str, int]:
    with _STATE.lock:
        return dict(_STATE.counters)


def gauges_snapshot() -> Dict[str, float]:
    with _STATE.lock:
        return dict(_STATE.gauges)


def span_tree() -> dict:
    with _STATE.lock:
        return _STATE.root.to_dict()


def worker_totals() -> Dict[int, Dict[str, int]]:
    """Per-worker-pid counter totals merged from fork deltas."""
    with _STATE.lock:
        return {pid: dict(c) for pid, c in _STATE.workers.items()}


class fork_capture:
    """Capture telemetry recorded inside a forked worker task.

    A forked child inherits the parent's whole collector state.  On entry
    the child swaps in a fresh, empty collector; on exit ``self.delta``
    holds everything the task recorded (``None`` when telemetry is off),
    ready to be shipped back over the pool's result pipe and folded into
    the parent with :func:`merge_delta`.
    """

    __slots__ = ("delta", "_saved")

    def __init__(self) -> None:
        self.delta: Optional[dict] = None
        self._saved = None

    def __enter__(self) -> "fork_capture":
        if not _STATE.active:
            return self
        with _STATE.lock:
            self._saved = (_STATE.counters, _STATE.gauges, _STATE.root,
                           _STATE.tls)
            _STATE.counters = {}
            _STATE.gauges = {}
            _STATE.root = SpanNode("run")
            _STATE.tls = threading.local()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._saved is None:
            return False
        with _STATE.lock:
            self.delta = {
                "counters": _STATE.counters,
                "gauges": _STATE.gauges,
                "spans": _STATE.root.to_dict(),
            }
            (_STATE.counters, _STATE.gauges, _STATE.root,
             _STATE.tls) = self._saved
            self._saved = None
        return False


def merge_delta(delta: Optional[dict], worker: Optional[int] = None) -> None:
    """Fold a worker's :class:`fork_capture` delta into the parent state.

    Counters and span totals join the global aggregates; when ``worker``
    (a pid) is given, the counter delta is additionally accumulated into
    that worker's row so manifests can report per-worker totals.
    """
    if delta is None or not _STATE.active:
        return
    with _STATE.lock:
        for name, value in delta.get("counters", {}).items():
            _STATE.counters[name] = _STATE.counters.get(name, 0) + int(value)
        for name, value in delta.get("gauges", {}).items():
            prev = _STATE.gauges.get(name)
            if prev is None or value > prev:
                _STATE.gauges[name] = float(value)
        spans = delta.get("spans")
        if spans:
            # Graft under the calling thread's open span when there is
            # one, so worker time nests below e.g. ``sweep.evals``.
            stack = _STATE.stack()
            target = stack[-1] if stack else _STATE.root
            for child in spans.get("children", ()):
                target.child(str(child["name"])).merge_dict(child)
        if worker is not None:
            row = _STATE.workers.setdefault(int(worker), {})
            for name, value in delta.get("counters", {}).items():
                row[name] = row.get(name, 0) + int(value)
