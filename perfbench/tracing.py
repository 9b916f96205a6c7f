"""The traced run: spans around each layer's public functions.

:class:`Instrumentation` wraps the calls into every layer at the attribute
its callers resolve, from the benchmark's side only — nothing inside the
program gains a span.  Wrapper spans go through ``repro.telemetry.span``,
so spans recorded inside forked sweep workers come home through the
program's own ``fork_capture`` / ``merge_delta`` path.  The one addition
there: each merged worker delta is hung under a ``bench:worker`` node, so
worker time (another process's clock) is never subtracted from the
parent's spans.

:class:`Attribution` turns the aggregated span tree into self times per
layer: a span's self time is its duration minus its same-process
children, and a program span that is not one of ours belongs to the layer
of the nearest wrapper span above it.  :func:`layer_metrics` derives the
per-layer metrics of one traced operation from it and the program's own
counters.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np

import repro.core.clado as clado_mod
import repro.telemetry as telemetry
from repro import nn
from repro.quant.quantizers import ActivationQuantizer
from repro.store.store import ArtifactStore

WORKER = "bench:worker"
KINDS = ("conv", "linear", "attn", "norm", "other")

#: Wrapper span name -> layer its self time is charged to.
LAYER_OF: Dict[str, str] = {
    "bench:op": "glue",
    "bench:models.load": "models.load",
    "bench:data.sens_set": "data.sens_set",
    "bench:quant.table": "quant.table",
    "bench:quant.act_calib": "quant.act_calib",
    "bench:sweep": "sweep",
    "bench:clado": "clado",
    "bench:solver": "solver",
    "bench:psd": "psd",
    "bench:health": "health",
    "bench:store.serve": "store",
    "bench:store.load": "store",
    "bench:store.publish": "store",
    "bench:quant.actq": "quant.actq",
    **{f"bench:nn.{k}": f"nn.{k}" for k in KINDS},
}


def _kind(cls) -> str:
    if issubclass(cls, nn.Conv2d):
        return "conv"
    if issubclass(cls, nn.Linear):
        return "linear"
    if issubclass(cls, nn.MultiHeadSelfAttention):
        return "attn"
    if issubclass(cls, (nn.BatchNorm2d, nn.LayerNorm)):
        return "norm"
    return "other"


def _fan_in(kind: str) -> Callable:
    """Multiply-adds per output element, for the computed FLOP count."""
    if kind == "conv":
        return lambda m, x: (m.in_channels // m.groups) * m.kernel_size ** 2
    if kind == "linear":
        return lambda m, x: m.in_features
    if kind == "attn":
        # Scores (over head_dim) and context (over tokens), per output
        # element of the (N, T, D) result: 2 * T multiply-adds.
        return lambda m, x: 2 * x.shape[1]
    return lambda m, x: 1


def _module_classes() -> List[type]:
    seen, stack = [], [nn.Module]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                stack.append(sub)
    return [c for c in seen if "forward" in vars(c)]


class Instrumentation:
    """Installs and removes the wrapper spans; records per-solve latency."""

    def __init__(self) -> None:
        self.solve_ms: List[float] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr) if not isinstance(owner, type) \
            else vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def install(self) -> None:
        def spanned(name):
            def wrap(fn):
                def inner(*args, **kwargs):
                    with telemetry.span(name):
                        return fn(*args, **kwargs)
                return inner
            return wrap

        def forward(kind):
            name = f"bench:nn.{kind}"
            flop = telemetry.counter(f"bench:nn.{kind}.flop")
            fan_in = _fan_in(kind)

            def wrap(fn):
                def inner(self, x):
                    with telemetry.span(name):
                        out = fn(self, x)
                    flop.add(2 * int(out.size) * int(fan_in(self, x)))
                    return out
                return inner
            return wrap

        def timed_solve(fn):
            def inner(*args, **kwargs):
                t0 = perf_counter()
                with telemetry.span("bench:solver"):
                    result = fn(*args, **kwargs)
                self.solve_ms.append(1e3 * (perf_counter() - t0))
                return result
            return inner

        def merge(fn):
            def inner(delta, worker=None):
                if delta is not None and delta.get("spans"):
                    kids = delta["spans"].get("children", [])
                    delta = dict(delta, spans={"name": "run", "children": [{
                        "name": WORKER, "count": 1,
                        "total_s": sum(float(c["total_s"]) for c in kids),
                        "children": kids,
                    }]})
                return fn(delta, worker)
            return inner

        for cls in _module_classes():
            self._patch(cls, "forward", forward(_kind(cls)))
        self._patch(ActivationQuantizer, "__call__", spanned("bench:quant.actq"))
        self._patch(clado_mod.MPQAlgorithm, "prepare", spanned("bench:sweep"))
        self._patch(clado_mod.MPQAlgorithm, "allocate", spanned("bench:clado"))
        self._patch(clado_mod, "repair_ladder", spanned("bench:health"))
        self._patch(clado_mod, "psd_project", spanned("bench:psd"))
        self._patch(clado_mod, "solve", timed_solve)
        self._patch(ArtifactStore, "load", spanned("bench:store.load"))
        self._patch(ArtifactStore, "publish", spanned("bench:store.publish"))
        self._patch(telemetry, "merge_delta", merge)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Attribution:
    """Self time, calls and wall totals per layer from one span tree."""

    def __init__(self, tree: dict) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        #: Parent-side time spent waiting while workers ran.
        self.wait_s = 0.0
        #: Group execution time, summed over processes (worker busy time).
        self.group_s = 0.0
        for child in tree.get("children", ()):
            self._visit(child, "glue")

    def _visit(self, node: dict, layer: str) -> None:
        name = node["name"]
        layer = LAYER_OF.get(name, layer)
        kids = node.get("children", ())
        local = [c for c in kids if c["name"] != WORKER]
        own = 0.0 if name == WORKER else float(node["total_s"]) - sum(
            float(c["total_s"]) for c in local
        )
        if len(local) != len(kids):
            self.wait_s += own
        self.self_s[layer] += own
        if name in LAYER_OF:
            self.calls[name] += int(node["count"])
            self.total_s[name] += float(node["total_s"])
        if name == "sweep.group":
            self.group_s += float(node["total_s"])
        for child in kids:
            self._visit(child, layer)


def nested_total(tree: dict, outer: str, inner: Tuple[str, ...]) -> float:
    """Wall time of ``outer`` spans minus ``inner`` spans nested in them."""
    total = 0.0

    def walk(node, inside):
        nonlocal total
        if node["name"] == WORKER:
            return
        if node["name"] == outer:
            total += float(node["total_s"])
            inside = True
        elif inside and node["name"] in inner:
            total -= float(node["total_s"])
            return
        for child in node.get("children", ()):
            walk(child, inside)

    walk(tree, False)
    return total


def gemm_peak_gflops(n: int = 1024, seconds: float = 0.3) -> float:
    """Median float32 ``n×n @ n×n`` rate in GFLOP/s (2n³ per product)."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    a @ b
    rates = []
    end = perf_counter() + seconds
    while perf_counter() < end or len(rates) < 5:
        t0 = perf_counter()
        a @ b
        rates.append(2.0 * n ** 3 / (perf_counter() - t0) / 1e9)
    return float(np.median(rates))


def span_total(tree: dict, name: str) -> float:
    """Summed wall time of every span called ``name``."""
    total = 0.0
    stack = [tree]
    while stack:
        node = stack.pop()
        if node["name"] == name:
            total += float(node["total_s"])
        stack.extend(node.get("children", ()))
    return total


def layer_metrics(op, tree: dict, counters: dict, gauges: dict,
                  solve_ms: List[float]) -> Dict[str, float]:
    """Per-layer metrics of one traced operation.

    Self times of ``nn`` kinds, ``quant.actq`` and ``sweep.self_s`` are
    busy seconds summed over processes (forked workers included);
    ``sweep.wait_s`` is the parent's time blocked on its workers.
    """
    a = Attribution(tree)
    m: Dict[str, float] = {}
    for kind in KINDS:
        span = f"bench:nn.{kind}"
        self_s = a.self_s[f"nn.{kind}"]
        gflop = counters.get(f"{span}.flop", 0) / 1e9
        m[f"nn.{kind}.calls"] = a.calls[span]
        m[f"nn.{kind}.self_s"] = self_s
        m[f"nn.{kind}.gflop"] = gflop
        m[f"nn.{kind}.gflops"] = gflop / self_s if self_s > 0 else 0.0
    m["quant.actq.calls"] = a.calls["bench:quant.actq"]
    m["quant.actq.self_s"] = a.self_s["quant.actq"]

    sweep_s = nested_total(tree, "bench:sweep", ("bench:psd", "bench:health"))
    extras = op.sweep_extras
    evals = counters.get("sensitivity.forward_evals", 0)
    workers = int(extras.get("workers", 1))
    m.update({
        "sweep.s": sweep_s,
        "sweep.forward_evals": evals,
        "sweep.evals_per_s": evals / sweep_s if sweep_s > 0 else 0.0,
        "sweep.self_s": a.self_s["sweep"] - a.wait_s,
        "sweep.wait_s": a.wait_s,
        "sweep.segment_forwards": counters.get("sensitivity.segment_forwards", 0),
        "sweep.batched_chunks": counters.get("sweep.batched_chunks", 0),
        "sweep.batch_width_mean": gauges.get("sweep.batch_width_mean", 0.0),
        "sweep.prefix_cache_hits": counters.get("sweep.prefix_cache_hits", 0),
        "sweep.prefix_cache_misses": counters.get("sweep.prefix_cache_misses", 0),
        # The program's own figure: 1 - executed / naive segment forwards.
        "sweep.work_saved": float(extras.get("segment_work_saved", 0.0)),
        "sweep.worker_busy_s": a.group_s,
        "sweep.parallel_eff": a.group_s / (workers * sweep_s)
        if sweep_s > 0 else 0.0,
        "sweep.group_retries": counters.get("sweep.group_retries", 0),
        "sweep.worker_crashes": counters.get("sweep.worker_crashes", 0),
        "psd.project_s": a.total_s["bench:psd"],
        "health.repair_s": a.total_s["bench:health"],
        "clado.self_s": a.self_s["clado"],
        "health.quarantined": counters.get("health.quarantined", 0),
        "health.remeasured": counters.get("health.remeasured", 0),
        "store.load_s": a.total_s["bench:store.load"],
        "store.misses": counters.get("store.misses", 0),
        "store.publish_s": a.total_s["bench:store.publish"],
        "store.entry_bytes": op.entry_bytes,
        "store.self_s": a.self_s["store"],
    })
    solver_s = a.total_s["bench:solver"]
    relaxations = counters.get("solver.qp_relaxations", 0)
    m.update({
        "solver.s": solver_s,
        "solver.budgets": len(solve_ms),
        "solver.budget_ms_p50": float(np.percentile(solve_ms, 50))
        if solve_ms else 0.0,
        "solver.budget_ms_p90": float(np.percentile(solve_ms, 90))
        if solve_ms else 0.0,
        "solver.bb_nodes": counters.get("solver.bb_nodes_expanded", 0),
        "solver.bb_pruned": counters.get("solver.bb_bounds_pruned", 0),
        "solver.qp_relaxations": relaxations,
        "solver.qp_iterations": counters.get("solver.qp_iterations", 0),
        "solver.ms_per_relaxation": 1e3 * solver_s / relaxations
        if relaxations else 0.0,
        "solver.warm_wins": counters.get("solver.rung_warm_wins", 0),
        "solver.certified_share": float(np.mean([
            bool(r.solver is not None and r.solver.optimal)
            for r in op.results])),
        # Share of the operation's wall time inside a named layer's span.
        "trace.coverage": 1.0 - a.self_s["glue"] / op.seconds,
    })
    return m
