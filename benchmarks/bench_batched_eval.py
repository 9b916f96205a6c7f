"""Config-batched sweep evaluation: sequential vs stacked-replay wall clock.

The segmented engine (PR 1) still dispatches one Python-level suffix replay
per pair evaluation; on dispatch-bound workloads — many layers, tiny
per-segment GEMMs, exactly the regime where Algorithm 1's
``O((|B|I)^2)`` eval count bites hardest — that overhead dominates.  The
config-batched engine coalesces pair evaluations into waste-bounded chunks
and replays each chunk's suffix once with all candidate weights stacked
(see ``docs/algorithm.md`` §3b).  This benchmark measures the realized
speedup on a deep narrow MLP, checks the acceptance bar (batched at least
2x faster than the sequential segmented sweep at equal results), and
appends one JSON row per run to ``reports/BENCH_batched_eval.json``.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import SensitivityConfig, SensitivityEngine
from repro.nn import Linear, ReLU, Sequential
from repro.quant import QuantConfig, QuantizedWeightTable

TRAJECTORY = Path(__file__).resolve().parent.parent / "reports" / (
    "BENCH_batched_eval.json"
)

NUM_LINEAR = 40
DIM = 16


class _QLayer:
    def __init__(self, idx, name, module):
        self.index, self.name, self.module = idx, name, module

    @property
    def weight(self):
        return self.module.weight

    @property
    def num_params(self):
        return self.module.weight.size


def _setup(set_size=32):
    """Deep narrow MLP: 40 quantizable linears of tiny per-segment work."""
    rng = np.random.default_rng(0)
    mods = []
    for k in range(NUM_LINEAR - 1):
        mods.append(Linear(DIM if k else 16, DIM, rng=rng))
        mods.append(ReLU())
    mods.append(Linear(DIM, 10, rng=rng))
    model = Sequential(*mods)
    model.eval()
    linears = [m for m in mods if isinstance(m, Linear)]
    layers = [_QLayer(i, f"fc{i}", m) for i, m in enumerate(linears)]
    table = QuantizedWeightTable(layers, QuantConfig(bits=(2, 4)))
    x = rng.normal(size=(set_size, 16)).astype(np.float32)
    y = rng.integers(0, 10, size=set_size)
    return model, table, x, y


def _timed_measure(model, table, x, y, rounds=3, **config):
    """Best-of-``rounds`` wall clock (resists scheduler noise)."""
    engine = SensitivityEngine(model, table)
    sens = SensitivityConfig(batch_size=32, **config)
    result, best = None, float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = engine.measure(x, y, sens, mode="full")
        best = min(best, time.perf_counter() - t0)
    return result, best


@pytest.mark.benchmark(group="batched_eval")
def test_batched_eval_speedup(benchmark, report):
    model, table, x, y = _setup()

    def run():
        _timed_measure(model, table, x, y, rounds=1, eval_batch_k=1)  # warm-up
        seq, t_seq = _timed_measure(model, table, x, y, eval_batch_k=1)
        bat, t_bat = _timed_measure(model, table, x, y)  # auto width
        return seq, t_seq, bat, t_bat

    seq, t_seq, bat, t_bat = benchmark.pedantic(run, rounds=1, iterations=1)

    # Equal results: same measurements within the sweep's established
    # tolerance, same per-(layer, bit) argmin, bitwise-equal diagonals
    # (diagonal evaluations are never batched).
    np.testing.assert_allclose(bat.matrix, seq.matrix, atol=1e-6)
    np.testing.assert_array_equal(bat.single_losses, seq.single_losses)
    assert np.array_equal(
        np.argmin(bat.single_losses, axis=1), np.argmin(seq.single_losses, axis=1)
    )

    speedup = t_seq / t_bat
    e = bat.extras
    row = {
        "bench": "batched_eval",
        "model": f"mlp_{NUM_LINEAR}x{DIM}",
        "num_layers": len(table.layers),
        "num_evals": bat.num_evals,
        "cpus": os.cpu_count(),
        "eval_batch_k": e["eval_batch_k"],
        "batched_evals": e["batched_evals"],
        "batched_chunks": e["batched_chunks"],
        "batch_width_max": e["batch_width_max"],
        "batch_width_mean": round(float(e["batch_width_mean"]), 2),
        "t_sequential": round(t_seq, 4),
        "t_batched": round(t_bat, 4),
        "speedup": round(speedup, 3),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    TRAJECTORY.parent.mkdir(exist_ok=True)
    with TRAJECTORY.open("a") as fh:
        fh.write(json.dumps(row) + "\n")

    report(
        "batched_eval",
        f"Config-batched sweep evaluation [mlp_{NUM_LINEAR}x{DIM}, full mode]\n"
        + "-" * 64
        + f"\nsequential (k=1) {t_seq:>8.2f}s   ({seq.num_evals} evals)"
        + f"\nbatched (auto)   {t_bat:>8.2f}s   {speedup:.2f}x"
        + f"\nstacked replays  {e['batched_chunks']:>8}   "
        + f"({e['batched_evals']} evals, width mean "
        + f"{float(e['batch_width_mean']):.1f}, max {e['batch_width_max']})",
    )

    # Acceptance bar: batched beats the sequential segmented sweep >= 2x.
    assert e["batch_width_max"] > 1
    assert speedup >= 2.0
