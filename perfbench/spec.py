"""Workload definitions (standard library only).

``run.py`` reads the BLAS thread count and the workload table before numpy
is imported, so this module must not import numpy or ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: BLAS threads per process: workers x threads stays within two cores.
BLAS_THREADS = 1
#: Set-ups per run, alternating CPUs (an even count, so the median blends
#: them); ``setup_s`` is their median.
SETUP_REPS = 4

#: Models the workloads load; pretrained once per checkout, outside timing,
#: one per lane.
MODELS = ("vit_s", "resnet_s34")


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    set_size: int
    avg_bits: Tuple[float, ...]
    workers: int  # sweep processes; > 1 uses the fork-supervisor transport
    health: str
    #: One operation is an ``allocate_cached`` request on an empty store
    #: (health-checked sweep, publish, solve) instead of ``prepare`` +
    #: ``allocate``.
    cached: bool
    why: str
    exercises: Tuple[str, ...]
    bypasses: Tuple[str, ...]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sweep_vit16",
            model="vit_s",
            set_size=16,
            avg_bits=(2.5,),
            workers=1,
            health="warn",
            cached=True,
            why="allocate-cached miss on vit_s: health-checked sweep of many "
            "small stacked replays (linear, attention, LayerNorm, GELU), "
            "publish, repair ladder, PSD projection and solve in one process",
            exercises=("models", "data", "quant", "nn.linear", "nn.attn",
                       "nn.norm", "nn.other", "core.sensitivity",
                       "robustness.health", "store", "core.psd",
                       "core.clado", "solvers"),
            bypasses=("nn.conv", "worker transport"),
        ),
        Workload(
            name="sweep_r34_2proc",
            model="resnet_s34",
            set_size=64,
            avg_bits=(4.0,),
            workers=2,
            health="off",
            cached=False,
            why="CLI allocate defaults on resnet_s34 with two fork-supervised "
            "sweep workers; conv GEMMs dominate",
            exercises=("models", "data", "quant", "nn.conv", "nn.norm",
                       "core.sensitivity", "worker transport", "core.psd",
                       "core.clado", "solvers"),
            bypasses=("nn.attn", "robustness.health", "store"),
        ),
    )
}
