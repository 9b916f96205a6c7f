"""Segmented sensitivity-sweep performance: naive vs cached vs parallel.

The naive Algorithm 1 re-runs the full network for every one of its
``O((|B|I)^2)`` loss evaluations; the baseline here is exactly that work:
a sweep of the model wrapped so it exposes no forward segments.  The segmented sweep checkpoints the clean prefix
once per batch and replays only perturbed suffixes (see
``docs/algorithm.md`` §3a); this benchmark measures the realized speedup
on a 10-layer ResNet-20 at smoke size, checks the acceptance bar
(cached + parallel at least 2x faster than naive), verifies bitwise
equivalence of the measured matrices, and appends one JSON row per run to
``reports/BENCH_sensitivity_cache.json`` as a perf trajectory.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import SensitivityConfig, SensitivityEngine
from repro.models import build_model, quantizable_layers
from repro.nn import Module
from repro.quant import QuantConfig, QuantizedWeightTable

TRAJECTORY = Path(__file__).resolve().parent.parent / "reports" / (
    "BENCH_sensitivity_cache.json"
)


def _setup(set_size=64, image=16):
    rng = np.random.default_rng(0)
    model = build_model("resnet_s20")
    model.eval()
    layers = quantizable_layers(model, "resnet_s20")
    assert len(layers) >= 8  # the acceptance bar targets a >= 8-layer model
    table = QuantizedWeightTable(layers, QuantConfig(bits=(2, 4)))
    x = rng.standard_normal((set_size, 3, image, image)).astype(np.float32)
    y = rng.integers(0, 10, size=set_size)
    return model, table, x, y


class _Unsegmented(Module):
    """The model without forward segments: every replay is a full forward."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner

    def forward(self, x):
        return self.inner.forward(x)


def _timed_measure(model, table, x, y, **config):
    engine = SensitivityEngine(model, table)
    t0 = time.time()
    result = engine.measure(
        x, y, SensitivityConfig(batch_size=32, **config), mode="full"
    )
    return result, time.time() - t0


@pytest.mark.benchmark(group="sensitivity_cache")
def test_sensitivity_cache_speedup(benchmark, report):
    model, table, x, y = _setup()

    def run():
        naive, t_naive = _timed_measure(_Unsegmented(model), table, x, y)
        cached, t_cached = _timed_measure(model, table, x, y)
        # 0 workers = all cores; on a single-core host this degrades to the
        # serial cached path, which must clear the bar on its own.
        parallel, t_parallel = _timed_measure(model, table, x, y, num_workers=0)
        return naive, t_naive, cached, t_cached, parallel, t_parallel

    naive, t_naive, cached, t_cached, parallel, t_parallel = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    # Equivalence: identical op sequences on identical arrays.
    np.testing.assert_allclose(cached.matrix, naive.matrix, atol=1e-6)
    np.testing.assert_allclose(parallel.matrix, naive.matrix, atol=1e-6)

    speed_cached = t_naive / t_cached
    speed_parallel = t_naive / t_parallel
    row = {
        "bench": "sensitivity_cache",
        "model": "resnet_s20",
        "num_layers": len(table.layers),
        "num_evals": naive.num_evals,
        "cpus": os.cpu_count(),
        "workers": parallel.extras["workers"],
        "t_naive": round(t_naive, 4),
        "t_cached": round(t_cached, 4),
        "t_parallel": round(t_parallel, 4),
        "speedup_cached": round(speed_cached, 3),
        "speedup_parallel": round(speed_parallel, 3),
        "segment_work_saved": round(
            float(cached.extras["segment_work_saved"]), 4
        ),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    TRAJECTORY.parent.mkdir(exist_ok=True)
    with TRAJECTORY.open("a") as fh:
        fh.write(json.dumps(row) + "\n")

    report(
        "sensitivity_cache",
        "Segmented sensitivity sweep [resnet_s20, full mode]\n"
        + "-" * 64
        + f"\nnaive            {t_naive:>8.2f}s   ({naive.num_evals} evals)"
        + f"\ncached           {t_cached:>8.2f}s   {speed_cached:.2f}x"
        + f"\ncached+parallel  {t_parallel:>8.2f}s   {speed_parallel:.2f}x"
        + f"   ({parallel.extras['workers']} worker(s))"
        + f"\nlayer-work saved {float(cached.extras['segment_work_saved']):.0%}",
    )

    # Acceptance bar: cached + parallel beats naive by >= 2x.
    assert speed_cached >= 1.5
    assert speed_parallel >= 2.0
