"""Convolution cost, gather apart from GEMM, at resnet_s34's conv shapes.

``repro.nn.functional._conv_into`` gathers the patches of one block of
samples into a reused buffer and runs that block's GEMMs from it.  For
every distinct conv of a resnet_s34 forward at 64 samples (float32), this
benchmark runs the same blocked loop with each gather the conv can take,
times the gather calls and the GEMM calls separately, and checks that
every variant's output is bitwise equal to ``conv2d_forward``'s:

* the window gather (``_window_gather``) copies ``C·kh·kw·OH`` runs of
  ``OW`` elements per sample, and is what strided and unpadded convs
  use;
* the plane gather (``_plane_gather``) copies ``C·kh·kw`` runs of
  ``OH·OW`` elements per sample, and is what padded stride-1 "same"
  convs use.

The buffer and gather come from ``_patch_gather``, as in ``_conv_into``;
where that is the plane gather, the window gather is timed beside it.

One JSON row per run is appended to ``reports/BENCH_conv_gather.json``
and a table is written to ``reports/conv_gather.txt``.  Times are per
64-sample conv, the median of a few repeats; the GEMM column should not
depend on the gather, since both feed the same GEMMs the same values.
"""

import json
import os
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.models import build_model
from repro.nn import functional as F

TRAJECTORY = Path(__file__).resolve().parent.parent / "reports" / (
    "BENCH_conv_gather.json"
)
SAMPLES = 64
REPEATS = 7


def _conv_shapes(monkeypatch):
    """``(C, H, W), weight shape, stride, pad, groups`` of every conv in one
    resnet_s34 forward, with how often each occurs."""
    seen = []
    forward = F.conv2d_forward

    def record(x, weight, bias, stride, pad, groups):
        seen.append((x.shape[1:], weight.shape, stride, pad, groups))
        return forward(x, weight, bias, stride, pad, groups)

    monkeypatch.setattr(F, "conv2d_forward", record)
    model = build_model("resnet_s34")
    model.eval()
    with model.no_grad():
        model.forward(np.zeros((1, 3, 32, 32), dtype=np.float32))
    monkeypatch.undo()
    return Counter(seen)


def _gathers(x, kh, kw, stride, pad):
    """``{kind: (cols, gather)}`` for one conv: the buffer and gather
    ``_conv_into`` builds, and beside a plane gather a window gather."""
    n, c_in = x.shape[:2]
    oh, ow = F._out_hw(*x.shape[2:], kh, kw, stride, pad)
    sample_bytes = c_in * kh * kw * oh * ow * x.itemsize
    block = max(1, min(n, F._BLOCK_BYTES // sample_bytes))
    cols, gather = F._patch_gather(
        x.shape[1:], kh, kw, stride, pad, block, x.dtype
    )
    if not gather.__qualname__.startswith("_plane_gather."):
        return {"window": (cols, gather)}
    window_cols = np.empty_like(cols)
    window = F._window_gather(window_cols, x.shape[1:], stride, pad)
    return {"window": (window_cols, window), "plane": (cols, gather)}


def _blocked_conv(x, weight, groups, cols, gather):
    """``_conv_into``'s loop over blocks of ``len(cols)`` samples, each
    filled by ``gather``; returns the output and the seconds spent in
    gather calls and in GEMM calls."""
    n = len(x)
    block, _, kh, kw, oh, ow = cols.shape
    c_out, c_in_g = weight.shape[:2]
    p = c_in_g * kh * kw
    out = np.empty((n, c_out, oh, ow), dtype=x.dtype)
    w_g = weight.reshape(groups, c_out // groups, p)
    out_g = out.reshape(n, groups, c_out // groups, oh * ow)
    cols_g = cols.reshape(block, groups, p, oh * ow)
    t_gather = t_gemm = 0.0
    for s in range(0, n, block):
        b = min(block, n - s)
        t0 = time.perf_counter()
        gather(x[s : s + b])
        t1 = time.perf_counter()
        np.matmul(w_g, cols_g[:b], out=out_g[s : s + b])
        t2 = time.perf_counter()
        t_gather += t1 - t0
        t_gemm += t2 - t1
    return out, t_gather, t_gemm


def _label(shape, weight, stride, pad, groups):
    c, h, w = shape
    c_out, _, kh, kw = weight
    tail = f" g{groups}" if groups > 1 else ""
    return f"{c}x{h}x{w} {kh}x{kw}/s{stride}/p{pad} -> {c_out}{tail}"


def _profile(counts):
    rng = np.random.default_rng(0)
    rows = []
    for (shape, weight_shape, stride, pad, groups), count in counts.items():
        x = rng.standard_normal((SAMPLES, *shape), dtype=np.float32)
        weight = rng.standard_normal(weight_shape, dtype=np.float32)
        expected, _ = F.conv2d_forward(x, weight, None, stride, pad, groups)
        gathers = _gathers(x, *weight_shape[2:], stride, pad)
        row = {
            "conv": _label(shape, weight_shape, stride, pad, groups),
            "count": count,
        }
        times = {kind: ([], []) for kind in gathers}
        # Alternate the kinds, so drift on a shared host hits both alike.
        for _ in range(REPEATS):
            for kind, (cols, gather) in gathers.items():
                out, t_gather, t_gemm = _blocked_conv(
                    x, weight, groups, cols, gather
                )
                assert np.array_equal(
                    out.view(np.uint32), expected.view(np.uint32)
                ), (row["conv"], kind)
                times[kind][0].append(t_gather)
                times[kind][1].append(t_gemm)
        for kind, (gathers, gemms) in times.items():
            row[f"{kind}_gather_ms"] = round(1e3 * statistics.median(gathers), 3)
            row[f"{kind}_gemm_ms"] = round(1e3 * statistics.median(gemms), 3)
        rows.append(row)
    return rows


def _format(rows):
    lines = [
        f"Conv gather vs GEMM [resnet_s34, {SAMPLES} samples, float32, "
        "ms per conv, median]",
        "-" * 88,
        f"{'conv':<30}{'n':>3}  {'window gather':>13} {'gemm':>7}  "
        f"{'plane gather':>12} {'gemm':>7}  {'speedup':>7}",
    ]
    for r in rows:
        window = r["window_gather_ms"] + r["window_gemm_ms"]
        plane = ""
        if "plane_gather_ms" in r:
            speed = window / (r["plane_gather_ms"] + r["plane_gemm_ms"])
            plane = (
                f"{r['plane_gather_ms']:>12.3f} {r['plane_gemm_ms']:>7.3f}  "
                f"{speed:>6.2f}x"
            )
        lines.append(
            f"{r['conv']:<30}{r['count']:>3}  {r['window_gather_ms']:>13.3f} "
            f"{r['window_gemm_ms']:>7.3f}  {plane}"
        )
    return "\n".join(lines)


@pytest.mark.benchmark(group="conv_gather")
def test_conv_gather_profile(benchmark, report, monkeypatch):
    counts = _conv_shapes(monkeypatch)
    rows = benchmark.pedantic(lambda: _profile(counts), rounds=1, iterations=1)
    assert sum(r["count"] for r in rows) == sum(counts.values())
    TRAJECTORY.parent.mkdir(exist_ok=True)
    with TRAJECTORY.open("a") as fh:
        fh.write(
            json.dumps(
                {
                    "bench": "conv_gather",
                    "model": "resnet_s34",
                    "samples": SAMPLES,
                    "cpus": os.cpu_count(),
                    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                    "convs": rows,
                    "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                }
            )
            + "\n"
        )
    report("conv_gather", _format(rows))
