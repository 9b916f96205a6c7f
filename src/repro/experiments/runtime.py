"""§5.2 runtime comparison: sensitivity-measurement cost per algorithm.

The paper's profile: CLADO and HAWQ take comparable time (hours on GPU),
MPQCO minutes.  Here the costs are *measured* — every preparation runs
inside a telemetry run, and each row reports the run's counters
(``sensitivity.forward_evals``, ``hessian.backward_passes``) together with
a link to the full manifest under ``reports/runs/``.  The counts are
exact, machine-independent reproductions of the paper's formulas; the
closed-form expectations are kept alongside as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .. import telemetry
from ..models import quantizable_layers
from .config import model_quant_config
from .runner import ExperimentContext

__all__ = ["RuntimeRow", "run_runtime", "format_runtime"]


@dataclass
class RuntimeRow:
    """Measured preparation cost of one algorithm (one telemetry run)."""

    algorithm: str
    forward_evals: int
    backward_passes: int
    wall_seconds: float
    #: Closed-form expected forward evals (0 for gradient-based baselines).
    expected_forward_evals: int = 0
    #: Path of the run manifest this row was extracted from.
    manifest: Optional[str] = None
    #: Full counter snapshot from the manifest (cache hits, QP iters, ...).
    counters: Dict[str, int] = field(default_factory=dict)


def _expected_forward_evals(kind: str, num_layers: int, nb: int) -> int:
    """The paper's measurement-count formulas (naive full sweep)."""
    if kind == "clado":
        return 1 + num_layers * nb + (num_layers * (num_layers - 1) // 2) * nb * nb
    if kind == "clado_star":
        return 1 + num_layers * nb
    return 0


def run_runtime(
    ctx: ExperimentContext,
    model_name: str = "resnet_s34",
    set_size: int = 64,
    manifest_dir=None,
) -> List[RuntimeRow]:
    """Measure preparation cost of each algorithm on one model."""
    model = ctx.model(model_name)
    config = model_quant_config(model_name)
    layers = quantizable_layers(model, model_name)
    num_layers = len(layers)
    nb = config.num_choices
    x, y = ctx.sensitivity_data(set_size)

    rows: List[RuntimeRow] = []
    for kind in ("clado", "clado_star", "hawq", "mpqco"):
        algo = ctx.make_algorithm(kind, model_name, config=config)
        with telemetry.start_run(
            f"runtime.{kind}",
            config={
                "model": model_name,
                "kind": kind,
                "set_size": set_size,
                "bits": list(config.bits),
            },
            manifest_dir=manifest_dir,
        ) as run:
            algo.prepare(x, y)
        doc = telemetry.load_manifest(run.path)
        counters = {k: int(v) for k, v in (doc.get("counters") or {}).items()}
        rows.append(
            RuntimeRow(
                algorithm=algo.name,
                forward_evals=counters.get("sensitivity.forward_evals", 0),
                backward_passes=counters.get("hessian.backward_passes", 0),
                wall_seconds=algo.prepare_time,
                expected_forward_evals=_expected_forward_evals(
                    kind, num_layers, nb
                ),
                manifest=str(run.path),
                counters=counters,
            )
        )
    return rows


def format_runtime(model_name: str, rows: Sequence[RuntimeRow]) -> str:
    lines = [
        f"Sensitivity computation cost [{model_name}] (§5.2)",
        "-" * 64,
        f"{'algorithm':<12}{'fwd evals':>12}{'bwd passes':>12}{'seconds':>12}",
    ]
    for row in rows:
        lines.append(
            f"{row.algorithm:<12}{row.forward_evals:>12}"
            f"{row.backward_passes:>12}{row.wall_seconds:>12.1f}"
        )
    for row in rows:
        saved = row.counters.get("sweep.prefix_cache_hits")
        if saved:
            lines.append(
                f"  {row.algorithm}: segmented sweep, {saved} prefix-cache hits"
            )
    for row in rows:
        if row.manifest:
            lines.append(f"  manifest[{row.algorithm}]: {row.manifest}")
    return "\n".join(lines)
