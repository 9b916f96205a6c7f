"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``pretrain``            train-and-cache the full model zoo
- ``models``              list registered models with layer-index maps
- ``allocate``            run an MPQ algorithm on one model and budget
- ``allocate-cached``     serve allocations from the Ĝ artifact store
- ``store``               inspect/verify/reap an artifact store
- ``experiment <name>``   regenerate one paper table/figure
- ``report <manifest>``   pretty-print a telemetry run manifest

``--trace`` (on ``allocate``/``allocate-cached``/``experiment``) records
the run into a JSON manifest under ``reports/runs/`` (override with
``--manifest-dir`` or ``REPRO_MANIFEST_DIR``); ``report`` renders one.

Failure exit codes are typed; the full contract (codes 2-5, 7 and 130)
is the table in docs/robustness.md.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from . import telemetry
from .telemetry import emit


def _cmd_pretrain(args) -> int:
    from .data import make_dataset
    from .models import MODEL_REGISTRY, get_pretrained

    dataset = make_dataset()
    names = args.models or sorted(MODEL_REGISTRY)
    for name in names:
        _, metrics = get_pretrained(name, dataset, retrain=args.retrain, verbose=True)
        emit(f"{name}: val top-1 {100 * metrics['val_acc']:.2f}%")
    return 0


def _cmd_models(args) -> int:
    from .models import MODEL_REGISTRY, build_model, layer_index_map

    for name, entry in MODEL_REGISTRY.items():
        model = build_model(name)
        mapping = layer_index_map(model, name)
        params = sum(p.size for p in model.parameters())
        emit(f"{name}  (paper analogue: {entry.paper_model})  "
             f"{params} params, {len(mapping)} quantizable layers")
        if args.verbose:
            for idx in sorted(mapping):
                emit(f"  {idx:>3}  {mapping[idx]}")
    return 0


def _set_size(text: str) -> int:
    """``--set-size``: a sensitivity set needs at least one sample."""
    size = int(text)
    if size < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {size}")
    return size


def _allocate_sensitivity(args):
    """``allocate``'s sweep options as one config (raises ``ValueError``)."""
    from .core import SensitivityConfig

    return SensitivityConfig(
        num_workers=args.workers,
        checkpoint_path=args.sweep_checkpoint,
        eval_batch_k=args.eval_batch_k,
        max_retries=args.max_retries,
        health=args.health,
    )


def _allocate_cached_sensitivity(args):
    """``allocate-cached``'s sweep options as one config."""
    from .core import SensitivityConfig

    return SensitivityConfig(health=args.health)


def _run_allocation(args, body, run_name: str, run_config: dict) -> int:
    """Run an allocation command's ``body`` under the exit-code contract.

    The single authoritative table lives in docs/robustness.md
    ("Exit-code contract").  In brief: 0 success, 2 infeasible budget (or
    a usage error, raised before this runs), 3 degraded (fallback rung),
    4 sweep failure, 5 unhealthy matrix under ``--health strict``, 7 store
    refusal (``allocate-cached --offline``), 130 interrupted.
    """
    from .core import InfeasibleBudgetError
    from .robustness import DeadlineExpired, SweepFailure, UnhealthyMatrixError
    from .store import STORE_EXIT_CODE, StoreMissError

    run = None
    if args.trace:
        run = telemetry.start_run(
            run_name, config=run_config, manifest_dir=args.manifest_dir
        )
    try:
        with run if run is not None else contextlib.nullcontext():
            code = body(args, run)
    except InfeasibleBudgetError as exc:
        emit(f"error: infeasible budget — {exc}")
        if exc.min_size_bits is not None:
            emit(f"  smallest representable model: {exc.min_size_bits} bits; "
                 "raise --avg-bits")
        return 2
    except DeadlineExpired as exc:
        emit(f"error: solver deadline expired without a feasible result — {exc}")
        return 3
    except SweepFailure as exc:
        emit(f"error: unrecoverable sweep failure — {exc}")
        if exc.group >= 0:
            emit(f"  plan group {exc.group} failed {exc.attempts} attempts "
                 "(workers, then serial); see sweep.* counters in the manifest")
        return 4
    except UnhealthyMatrixError as exc:
        emit(f"error: {exc} (--health strict)")
        for index, sweep, replay in exc.record.get("disagreements", ()):
            emit(f"  plan spec {index}: sweep loss {sweep!r}, replay {replay!r}")
        return 5
    except StoreMissError as exc:
        emit(f"error: store cannot serve this request — {exc}")
        emit("  drop --offline to measure and publish, or warm the store "
             "with a non-offline run")
        return STORE_EXIT_CODE
    except KeyboardInterrupt:
        # The sweep saves its checkpoint after every group it completes,
        # so a rerun resumes every group finished before the interrupt.
        if getattr(args, "sweep_checkpoint", None):
            emit("interrupted — completed sweep groups are in the checkpoint; "
                 "re-run with the same --sweep-checkpoint to resume")
        else:
            emit("interrupted")
        return 130
    if run is not None and run.path is not None:
        emit(f"run manifest: {run.path}")
    return code


def _allocate_body(args, run) -> int:
    from .core import SolverConfig, evaluate_assignment, setup_activation_quant
    from .data import make_dataset, sensitivity_set
    from .experiments import model_quant_config
    from .experiments.runner import ExperimentContext
    from .models import get_pretrained
    from .quant import bops_table, bytes_to_mb, measure_macs

    dataset = make_dataset()
    model, _ = get_pretrained(args.model, dataset, verbose=True)
    config = model_quant_config(args.model)
    x_sens, y_sens = sensitivity_set(dataset, size=args.set_size)
    degraded_exit = 0  # flips to 3 when the allocation came from a fallback rung

    ctx = ExperimentContext()
    algo = ctx.make_algorithm(
        args.algorithm, args.model, model=model, config=config,
        sensitivity=args.sensitivity,
    )
    setup_activation_quant(model, algo.layers, x_sens, bits=config.act_bits)
    emit(f"preparing {algo.name} sensitivities on {args.set_size} samples...")
    algo.prepare(x_sens, y_sens)
    emit(f"  done in {algo.prepare_time:.1f}s")
    raw = getattr(algo, "raw", None)
    if raw is not None and raw.extras.get("strategy") == "segmented":
        e = raw.extras
        emit(
            f"  segmented sweep: {e['workers']} worker(s), "
            f"{e['num_segments']} segments, "
            f"{e['resumed_evals']}/{e['plan_evals']} evals resumed, "
            f"{float(e['segment_work_saved']):.0%} layer-work saved"
        )
        if e.get("batched_chunks"):
            emit(
                f"  config-batched evals: {e['batched_evals']} in "
                f"{e['batched_chunks']} stacked replays "
                f"(width mean {float(e['batch_width_mean']):.1f}, "
                f"max {e['batch_width_max']}, cap {e['eval_batch_k']})"
            )
    health_record = getattr(algo, "health_record", None)
    if health_record is not None:
        emit(
            f"  matrix health: "
            f"{'healthy' if health_record['healthy'] else 'UNHEALTHY'}, "
            f"{health_record['audited']} audited, "
            f"{health_record['disagreed']} disagreed, "
            f"{health_record['cancelled']} cancelled"
        )

    sizes = algo.layer_sizes()
    budget = int(sizes.sum() * args.avg_bits)
    if args.bops_ratio is not None:
        macs = measure_macs(model, algo.layers)
        coeffs = bops_table(macs, config.bits, act_bits=config.act_bits)
        lo, hi = coeffs[:, 0].sum(), coeffs[:, -1].sum()
        bound = lo + args.bops_ratio * (hi - lo)
        emit(f"BOPs budget: {bound:.3e} ({args.bops_ratio:.0%} of range)")
        from .solvers import MPQProblem, solve_branch_and_bound

        problem = MPQProblem(
            algo.matrix if hasattr(algo, "matrix") and algo.matrix is not None
            else np.diag(np.concatenate(algo.costs)),
            sizes,
            config.bits,
            budget,
            extra_constraints=((coeffs, bound),),
        )
        result = solve_branch_and_bound(problem, time_limit=args.time_limit)
        bits = problem.choice_bits(result.choice)
    else:
        result = algo.allocate(
            budget,
            solver=SolverConfig(
                time_limit=args.time_limit, deadline=args.deadline
            ),
        )
        bits = result.bits
        emit(f"solver: {result.solver_method} ({result.solver_status}), "
             f"{result.solve_seconds:.2f}s, "
             f"budget utilization {result.utilization:.1%}")
        solver_result = result.solver
        if solver_result is not None and solver_result.extras.get("degraded"):
            emit(
                "warning: solver deadline expired — allocation came from "
                f"fallback rung {solver_result.extras.get('rung')!r} "
                "(exit code 3)"
            )
            degraded_exit = 3

    emit(f"\nbudget {bytes_to_mb(budget / 8):.4f} MB "
         f"({args.avg_bits}-bit average)")
    for layer, b in zip(algo.layers, bits):
        emit(f"  {layer.name:<40} {int(b)} bits")

    _, (x_val, y_val) = dataset.splits(1, 512)
    loss, acc = evaluate_assignment(model, algo.table, bits, x_val, y_val)
    emit(f"\nvalidation top-1: {100 * acc:.2f}%  (loss {loss:.4f})")
    if run is not None:
        run.add_result(val_acc=float(acc), val_loss=float(loss))

    if args.export:
        from .quant import export_assignment, save_packed

        packed = export_assignment(algo.layers, bits, scheme=config.scheme)
        save_packed(args.export, packed)
        total = sum(t.payload_bytes for t in packed.values())
        emit(f"packed weights written to {args.export} ({total} bytes payload)")
    return degraded_exit


def _cmd_allocate(args) -> int:
    """Run one allocation (exit codes: see :func:`_run_allocation`)."""
    return _run_allocation(
        args,
        _allocate_body,
        f"allocate.{args.algorithm}",
        {
            "model": args.model,
            "algorithm": args.algorithm,
            "avg_bits": args.avg_bits,
            "set_size": args.set_size,
            "workers": args.workers,
        },
    )


def _allocate_cached_body(args, run) -> int:
    from .core import SolverConfig, evaluate_assignment, setup_activation_quant
    from .data import make_dataset, sensitivity_set
    from .experiments import model_quant_config
    from .experiments.runner import ExperimentContext
    from .models import get_pretrained
    from .quant import bytes_to_mb
    from .store import ArtifactStore, allocate_cached

    dataset = make_dataset()
    model, _ = get_pretrained(args.model, dataset, verbose=True)
    config = model_quant_config(args.model)
    x_sens, y_sens = sensitivity_set(dataset, size=args.set_size)
    ctx = ExperimentContext()
    algo = ctx.make_algorithm(
        args.algorithm, args.model, model=model, config=config,
        sensitivity=args.sensitivity,
    )
    setup_activation_quant(model, algo.layers, x_sens, bits=config.act_bits)
    store = ArtifactStore(args.store)
    total_params = int(algo.layer_sizes().sum())
    budgets = [int(total_params * avg) for avg in args.avg_bits]
    results = allocate_cached(
        algo,
        x_sens,
        y_sens,
        budgets,
        store,
        solver=SolverConfig(time_limit=args.time_limit, deadline=args.deadline),
        offline=args.offline,
        warm_chain=not args.no_warm_chain,
    )
    degraded_exit = 0
    run_doc = telemetry.current_run()
    source = run_doc.results.get("store_source") if run_doc is not None else None
    if source:
        emit(f"sensitivities served from: {source}")
    for avg, budget, result in zip(args.avg_bits, budgets, results):
        emit(
            f"\nbudget {bytes_to_mb(budget / 8):.4f} MB ({avg}-bit average): "
            f"{result.solver_method} ({result.solver_status}), "
            f"utilization {result.utilization:.1%}"
        )
        solver_result = result.solver
        if solver_result is not None and solver_result.extras.get("degraded"):
            emit(
                "warning: allocation came from fallback rung "
                f"{solver_result.extras.get('rung')!r} (exit code 3)"
            )
            degraded_exit = 3
        if args.verbose:
            for layer, b in zip(algo.layers, result.bits):
                emit(f"  {layer.name:<40} {int(b)} bits")
    if args.evaluate:
        _, (x_val, y_val) = dataset.splits(1, 512)
        for avg, result in zip(args.avg_bits, results):
            loss, acc = evaluate_assignment(
                model, algo.table, result.bits, x_val, y_val
            )
            emit(f"{avg}-bit average: validation top-1 {100 * acc:.2f}%  "
                 f"(loss {loss:.4f})")
            if run is not None:
                run.add_result(**{f"val_acc_{avg}": float(acc)})
    return degraded_exit


def _cmd_allocate_cached(args) -> int:
    """Serve allocations from the Ĝ artifact store (docs/store.md).

    Exit codes: see :func:`_run_allocation`; the code specific to this
    command is ``7`` — the store could not serve the request under
    ``--offline`` (miss, or an entry quarantined after failing integrity
    verification).
    """
    return _run_allocation(
        args,
        _allocate_cached_body,
        f"allocate-cached.{args.algorithm}",
        {
            "model": args.model,
            "algorithm": args.algorithm,
            "avg_bits": list(args.avg_bits),
            "set_size": args.set_size,
            "store": args.store,
            "offline": bool(args.offline),
        },
    )


def _cmd_store(args) -> int:
    """Store maintenance: list entries, verify integrity, reap orphans."""
    from .store import ArtifactStore

    store = ArtifactStore(args.store)
    if args.action == "list":
        info = store.describe()
        emit(f"store {info['root']}: {info['entries']} entr(y/ies), "
             f"{info['quarantined']} quarantined, {info['locks']} lock(s)")
        for path in store.entries():
            emit(f"  {path.stem}")
        return 0
    if args.action == "verify":
        bad = 0
        for key, status in store.verify_all():
            emit(f"  {key[:16]}...  {status}")
            if status != "ok":
                bad += 1
        emit(f"{bad} entr(y/ies) failed verification")
        return 1 if bad else 0
    # reap
    count = store.reap()
    emit(f"reaped {count} stale tmp/lock file(s)")
    return 0


_EXPERIMENTS = {
    "table1": lambda ctx: _run_table1(ctx),
    "table2": lambda ctx: _run_table2(ctx),
    "fig1": lambda ctx: _run_fig1(ctx),
    "fig2": lambda ctx: _run_fig2(ctx),
    "fig3": lambda ctx: _run_fig3(ctx),
    "fig4": lambda ctx: _run_fig4(ctx),
    "fig5": lambda ctx: _run_fig5(ctx),
    "fig6": lambda ctx: _run_fig6(ctx),
    "fig7": lambda ctx: _run_fig7(ctx),
    "runtime": lambda ctx: _run_runtime(ctx),
}


def _run_table1(ctx):
    from .experiments import format_table1, run_table1

    return format_table1(ctx, run_table1(ctx))


def _run_table2(ctx):
    from .experiments import format_table2, run_table2

    return format_table2(run_table2(ctx))


def _run_fig1(ctx):
    from .experiments import format_fig1, run_fig1

    return format_fig1(run_fig1(ctx, top_k=6))


def _run_fig2(ctx):
    from .experiments import format_pareto, run_pareto

    return format_pareto(run_pareto(ctx))


def _run_fig3(ctx):
    from .experiments import format_fig3, run_fig3

    return format_fig3(run_fig3(ctx))


def _run_fig4(ctx):
    from .experiments import format_fig4, run_fig4

    return format_fig4(run_fig4(ctx))


def _run_fig5(ctx):
    from .experiments import format_assignments, run_assignments

    assignments = run_assignments(ctx, "resnet_s50", avg_bits=4.0)
    return format_assignments(ctx, "resnet_s50", assignments, avg_bits=4.0)


def _run_fig6(ctx):
    from .experiments import format_fig6, run_fig6

    return format_fig6(run_fig6(ctx))


def _run_fig7(ctx):
    from .experiments import format_fig7, run_fig7

    return format_fig7(run_fig7(ctx))


def _run_runtime(ctx):
    from .experiments import format_runtime, run_runtime

    return format_runtime("resnet_s34", run_runtime(ctx, "resnet_s34"))


def _cmd_experiment(args) -> int:
    from .experiments import ExperimentContext, get_scale

    ctx = ExperimentContext(get_scale(args.scale))
    if args.trace:
        with telemetry.start_run(
            f"experiment.{args.name}",
            config={"experiment": args.name, "scale": ctx.scale.name},
            manifest_dir=args.manifest_dir,
        ) as run:
            emit(_EXPERIMENTS[args.name](ctx))
        emit(f"run manifest: {run.path}")
    else:
        emit(_EXPERIMENTS[args.name](ctx))
    return 0


def _cmd_report(args) -> int:
    doc = telemetry.load_manifest(args.manifest)
    emit(telemetry.format_manifest(doc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CLADO mixed-precision quantization (DAC 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train and cache the model zoo")
    p.add_argument("--models", nargs="*", help="subset of model names")
    p.add_argument("--retrain", action="store_true")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("models", help="list registered models")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_models)

    p = sub.add_parser("allocate", help="run MPQ on one model")
    p.add_argument("--model", default="resnet_s34")
    from .core.api import ALGORITHM_KINDS

    p.add_argument("--algorithm", default="clado", choices=list(ALGORITHM_KINDS))
    p.add_argument("--avg-bits", type=float, default=4.0)
    p.add_argument("--set-size", type=_set_size, default=64)
    p.add_argument("--time-limit", type=float, default=20.0)
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="total wall-clock budget (s) for the solver degradation ladder; "
        "expiry falls back bb -> qp_round -> greedy (exit code 3)",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="times a failed sweep group is re-queued before the run "
        "aborts with exit code 4",
    )
    p.add_argument(
        "--bops-ratio",
        type=float,
        default=None,
        help="optional compute budget as a fraction of the BOPs range",
    )
    p.add_argument("--export", help="write packed integer weights to this .npz")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fork worker processes for the sensitivity sweep (0 = one per "
        "CPU this process may run on)",
    )
    p.add_argument(
        "--sweep-checkpoint",
        default=None,
        help="sweep checkpoint, saved after every group (its directory is "
        "created if absent); reruns resume from it",
    )
    p.add_argument(
        "--eval-batch-k",
        type=int,
        default=0,
        help="candidate configs stacked per sweep replay "
        "(0 = memory-aware auto, 1 = sequential)",
    )
    p.add_argument(
        "--health",
        choices=("off", "warn", "strict"),
        default="off",
        help="determinism audit of the sensitivity matrix: 16 sampled "
        "losses must repeat bit for bit when replayed; warn reports a "
        "disagreement, strict exits 5",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="record counters/spans and write a run manifest",
    )
    p.add_argument(
        "--manifest-dir",
        default=None,
        help="manifest output directory (default reports/runs/)",
    )
    p.set_defaults(
        func=_cmd_allocate,
        build_sensitivity=_allocate_sensitivity,
        usage_error=p.error,
    )

    p = sub.add_parser(
        "allocate-cached",
        help="serve allocations from the Ĝ artifact store (docs/store.md)",
    )
    p.add_argument("--model", default="resnet_s34")
    p.add_argument(
        "--algorithm",
        default="clado",
        choices=["clado", "clado_star", "clado_block", "clado_nopsd"],
        help="CLADO-family algorithms only (the store addresses Ĝ)",
    )
    p.add_argument(
        "--avg-bits",
        type=float,
        nargs="+",
        default=[4.0],
        help="budget grid as average bits per weight; adjacent budgets "
        "chain warm starts through the solver ladder",
    )
    p.add_argument("--set-size", type=_set_size, default=64)
    p.add_argument("--time-limit", type=float, default=20.0)
    p.add_argument("--deadline", type=float, default=None,
                   help="per-budget wall-clock allowance for the solver ladder")
    p.add_argument(
        "--store",
        required=True,
        help="artifact store root directory (created if absent)",
    )
    p.add_argument(
        "--offline",
        action="store_true",
        help="forbid measuring: a miss or integrity failure exits 7 "
        "instead of running a fresh sweep",
    )
    p.add_argument(
        "--no-warm-chain",
        action="store_true",
        help="solve every budget cold (skip the warm rung between "
        "adjacent budgets)",
    )
    p.add_argument(
        "--health",
        choices=("off", "warn", "strict"),
        default="warn",
        help="determinism audit of fresh sweeps (the store publishes only "
        "audited sensitivities)",
    )
    p.add_argument("--evaluate", action="store_true",
                   help="run validation accuracy for each budget")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print per-layer bit assignments")
    p.add_argument("--trace", action="store_true",
                   help="record counters/spans and write a run manifest")
    p.add_argument("--manifest-dir", default=None)
    p.set_defaults(
        func=_cmd_allocate_cached,
        build_sensitivity=_allocate_cached_sensitivity,
        usage_error=p.error,
    )

    p = sub.add_parser("store", help="inspect/verify/reap an artifact store")
    p.add_argument("action", choices=("list", "verify", "reap"))
    p.add_argument("--store", required=True, help="artifact store root")
    p.set_defaults(func=_cmd_store)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name", choices=sorted(_EXPERIMENTS))
    p.add_argument("--scale", default="", help="smoke | default | paper")
    p.add_argument(
        "--trace",
        action="store_true",
        help="record counters/spans and write a run manifest",
    )
    p.add_argument(
        "--manifest-dir",
        default=None,
        help="manifest output directory (default reports/runs/)",
    )
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report", help="pretty-print a telemetry run manifest")
    p.add_argument("manifest", help="path to a reports/runs/*.json manifest")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    build_sensitivity = getattr(args, "build_sensitivity", None)
    if build_sensitivity is not None:
        # Invalid sweep options are usage errors (exit 2), reported before
        # a model is loaded or trained.
        try:
            args.sensitivity = build_sensitivity(args)
        except ValueError as exc:
            args.usage_error(str(exc))
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
