"""Workloads of the allocation benchmark: set-up, one operation, checks.

Every workload drives the public allocator API the way the blocking
``allocate`` / ``allocate-cached`` CLI commands do: one client, closed
loop, the next request only after the previous one returned.  One
operation is one request for one budget:

- ``sweep_r34_2proc``: ``prepare`` (sensitivity sweep, PSD projection)
  followed by ``allocate`` (IQP solve), as ``repro allocate`` runs it;
- ``sweep_vit16``: ``allocate_cached`` on an empty artifact store, as the
  first ``repro allocate-cached`` request runs it: a miss, then a
  health-checked sweep, a publish, the repair ladder, projection and solve.

The workload seed picks the sensitivity-set replicate and the sample of
cross entries the correctness check recomputes; the program sees only the
generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.core import (
    SolverConfig,
    SensitivityConfig,
    build_algorithm,
    evaluate_assignment,
    evaluate_assignments,
    setup_activation_quant,
)
from repro.data import make_dataset, sensitivity_set
from repro.experiments import model_quant_config
from repro.models import get_pretrained
from repro.nn import CrossEntropyLoss
from repro.quant import QuantizedWeightTable
from repro.store import ArtifactStore, allocate_cached, request_key

from .spec import Workload

#: Cross entries of Ĝ the correctness check recomputes per run.
CROSS_SAMPLE = 24
#: Cross entries are finite differences of float32 forwards reduced in
#: float64; the sweep's stacked replays agree with plain forwards to this.
CROSS_TOL = 1e-6
#: Validation split the chosen assignments are scored on.
VAL_SAMPLES = 512


@dataclass
class Session:
    """Everything set-up produced for one workload and seed."""

    workload: Workload
    dataset: object
    model: object
    x: np.ndarray
    y: np.ndarray
    algo: object
    budgets: List[int]
    workdir: Path
    store: Optional[ArtifactStore] = None  # the last operation's store


@dataclass
class Op:
    """One timed operation and what it returned."""

    seconds: float
    results: list
    matrix_digest: str
    forward_evals: int
    sweep_extras: dict  # the sweep's own statistics (SensitivityResult.extras)
    entry_bytes: int = 0
    problems: List[str] = field(default_factory=list)


def setup(workload: Workload, seed: int, workdir: Path) -> Session:
    """Load weights, draw the set, build the algorithm, calibrate activations.

    The process-wide quantized-weight memo is cleared first, so every
    set-up pays for the MSE scale search.  Stores of cached operations go
    under ``workdir``.
    """
    QuantizedWeightTable.memo.clear()
    dataset = make_dataset()
    with telemetry.span("bench:models.load"):
        model, _ = get_pretrained(workload.model, dataset)
    with telemetry.span("bench:data.sens_set"):
        x, y = sensitivity_set(dataset, workload.set_size, replicate=seed)
    config = model_quant_config(workload.model)
    with telemetry.span("bench:quant.table"):
        algo = build_algorithm(
            "clado", model, workload.model, config,
            sensitivity=SensitivityConfig(
                num_workers=workload.workers, health=workload.health
            ),
        )
    with telemetry.span("bench:quant.act_calib"):
        setup_activation_quant(model, algo.layers, x, bits=config.act_bits)
    total = int(algo.layer_sizes().sum())
    return Session(
        workload=workload, dataset=dataset, model=model, x=x, y=y, algo=algo,
        budgets=[int(total * avg) for avg in workload.avg_bits],
        workdir=workdir,
    )


def run_op(session: Session) -> Op:
    """One closed-loop request, timed from call to return."""
    algo = session.algo
    if session.workload.cached:
        root = session.workdir / "store"
        shutil.rmtree(root, ignore_errors=True)
        session.store = ArtifactStore(root)
    t0 = perf_counter()
    with telemetry.span("bench:op"):
        if session.workload.cached:
            with telemetry.span("bench:store.serve"):
                results = allocate_cached(
                    algo, session.x, session.y, session.budgets,
                    session.store, solver=SolverConfig(),
                )
        else:
            algo.prepare(session.x, session.y)
            results = [algo.allocate(session.budgets[0], SolverConfig())]
    seconds = perf_counter() - t0
    raw = algo.raw
    remeasured = raw.health.remeasured if raw.health is not None else 0
    op = Op(
        seconds=seconds,
        results=results,
        matrix_digest=hashlib.sha256(
            np.ascontiguousarray(raw.matrix).tobytes()
        ).hexdigest(),
        forward_evals=int(raw.num_evals)
        - int(raw.extras.get("resumed_evals", 0)) + int(remeasured),
        sweep_extras=dict(raw.extras),
        entry_bytes=sum(f.stat().st_size
                        for f in session.store.objects.iterdir())
        if session.workload.cached else 0,
    )
    op.problems = check_solves(algo, results)
    return op


# -- correctness -------------------------------------------------------------


def _choice_alpha(choice, num_choices: int) -> np.ndarray:
    alpha = np.zeros(len(choice) * num_choices)
    for i, c in enumerate(choice):
        alpha[i * num_choices + int(c)] = 1.0
    return alpha


def check_solves(algo, results) -> List[str]:
    """Every solve certified, within budget, and ΔL = ½αᵀĜα on its Ĝ."""
    problems = []
    nb = len(algo.config.bits)
    for r in results:
        solver = r.solver
        if solver is None or not solver.optimal:
            problems.append(f"budget {r.budget_bits}: solve not certified "
                            f"({r.solver_status})")
        elif solver.extras.get("degraded"):
            problems.append(f"budget {r.budget_bits}: degraded solve "
                            f"(rung {solver.extras.get('rung')!r})")
        if r.achieved_size_bits > r.budget_bits:
            problems.append(f"budget {r.budget_bits}: size "
                            f"{r.achieved_size_bits} over budget")
        alpha = _choice_alpha(r.choice, nb)
        predicted = 0.5 * float(alpha @ algo.matrix @ alpha)
        if not math.isclose(predicted, r.predicted_loss_increase,
                            rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"budget {r.budget_bits}: predicted ΔL "
                            f"{r.predicted_loss_increase!r} != ½αᵀĜα "
                            f"{predicted!r}")
    return problems


def _set_loss(session: Session) -> float:
    """Sensitivity-set loss by full forward passes, reduced as the sweep does."""
    criterion = CrossEntropyLoss()
    batch = session.algo.sensitivity_config.batch_size
    x, y = session.x, session.y
    total = 0.0
    for s in range(0, len(x), batch):
        xb, yb = x[s : s + batch], y[s : s + batch]
        total += criterion.forward(session.model.forward(xb), yb) * len(xb)
    return total / len(x)


def check_matrix(session: Session, seed: int) -> Tuple[List[str], dict]:
    """Recompute Ĝ entries by full forward passes and compare.

    Every diagonal entry ``2(L(w + Δ_i) - L(w))`` must match the measured
    Ĝ bitwise; a seeded sample of cross entries
    ``L(w + Δ_i + Δ_j) + L(w) - L(w + Δ_i) - L(w + Δ_j)`` must match
    within :data:`CROSS_TOL`.
    """
    algo = session.algo
    table = algo.table
    matrix = algo.raw.matrix
    bits = tuple(algo.config.bits)
    nb = len(bits)
    layers = table.num_layers
    session.model.eval()
    base = _set_loss(session)
    single = {}
    problems = []
    diag_err = 0.0
    for i in range(layers):
        for m, b in enumerate(bits):
            with table.perturbed((i, b)):
                single[i, m] = _set_loss(session)
            want = 2.0 * (single[i, m] - base)
            got = float(matrix[i * nb + m, i * nb + m])
            diag_err = max(diag_err, abs(got - want))
            if got != want:
                problems.append(f"Ĝ[{i}/{b}b, {i}/{b}b] = {got!r}, "
                                f"recomputed {want!r}")
    pairs = [
        (i, m, j, n)
        for i in range(layers) for j in range(i + 1, layers)
        for m in range(nb) for n in range(nb)
    ]
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(pairs), size=min(CROSS_SAMPLE, len(pairs)),
                        replace=False)
    cross_err = 0.0
    for k in sorted(int(p) for p in picked):
        i, m, j, n = pairs[k]
        with table.perturbed((i, bits[m]), (j, bits[n])):
            pair_loss = _set_loss(session)
        want = pair_loss + base - single[i, m] - single[j, n]
        got = float(matrix[i * nb + m, j * nb + n])
        cross_err = max(cross_err, abs(got - want))
        if not abs(got - want) <= CROSS_TOL:
            problems.append(f"Ĝ[{i}/{bits[m]}b, {j}/{bits[n]}b] = {got!r}, "
                            f"recomputed {want!r}")
    stats = {
        "diagonal_checked": layers * nb,
        "cross_checked": len(picked),
        "diagonal_max_err": diag_err,
        "cross_max_err": cross_err,
    }
    return problems, stats


def check_served(session: Session, results) -> List[str]:
    """A cached operation's store must serve the same assignment offline."""
    served = allocate_cached(
        session.algo, session.x, session.y, session.budgets, session.store,
        solver=SolverConfig(), offline=True,
    )
    return [
        f"budget {m.budget_bits}: measured {list(map(int, m.bits))} != "
        f"served {list(map(int, s.bits))}"
        for m, s in zip(results, served)
        if not np.array_equal(m.choice, s.choice)
    ]


def val_top1(session: Session, results) -> float:
    """Mean validation top-1 of the chosen assignments."""
    _, (x_val, y_val) = session.dataset.splits(1, VAL_SAMPLES)
    scores = evaluate_assignments(
        session.model, session.algo.table, [r.bits for r in results],
        x_val, y_val,
    )
    return float(np.mean([acc for _, acc in scores]))


def dl_pred_rel_err(session: Session, results) -> float:
    """Mean |½αᵀĜα − ΔL| / |ΔL|, ΔL measured on the sensitivity set."""
    base = float(session.algo.raw.base_loss)
    errs = []
    for r in results:
        loss, _ = evaluate_assignment(session.model, session.algo.table,
                                      r.bits, session.x, session.y)
        measured = loss - base
        errs.append(abs(r.predicted_loss_increase - measured)
                    / max(abs(measured), 1e-12))
    return float(np.mean(errs))


def provenance(session: Session, results) -> dict:
    """Input fingerprints, assignment digests and B&B node counts."""
    algo = session.algo
    key = request_key(algo, session.x, session.y, algo.sensitivity_config)

    def digest(bits) -> str:
        return hashlib.sha256(
            json.dumps([int(b) for b in bits]).encode()
        ).hexdigest()[:16]

    return {
        "weights": key.weights[:16],
        "data": key.data[:16],
        "quant": key.quant[:16],
        "assignments": {
            f"{avg}": digest(r.bits)
            for avg, r in zip(session.workload.avg_bits, results)
        },
        "bb_nodes": {
            f"{avg}": int(r.solver.nodes) if r.solver is not None else -1
            for avg, r in zip(session.workload.avg_bits, results)
        },
    }
