#!/usr/bin/env python3
"""Allocation benchmark: CLADO sweep-and-solve, end to end and per layer.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload sweep_vit16 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` measures the end-to-end metrics with tracing off and
``--trace 1`` the per-layer metrics (see ``tracing.py``); the metric names
and units are the ones listed in ``BENCHMARK.json``.  Every run also
checks the program's outputs (see ``workloads.py``), prints the inputs'
fingerprints and a digest of every assignment, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  A failed check
exits 1 after printing that line.

The first run in a checkout pretrains the workload models once, outside
any timing (``python -m repro pretrain``, about three minutes on two
cores), into ``perfbench/.cache``.  Run manifests, if any, go to
``perfbench/.runs`` and each run's temporary stores to ``perfbench/.work``.
``REPRO_FAULT_PLAN`` passes through to the program, so injected faults
show up as failed operations.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.spec import BLAS_THREADS, MODELS, SETUP_REPS, WORKLOADS  # noqa: E402

BENCH_DIR = ROOT / "perfbench"
CACHE_DIR = BENCH_DIR / ".cache"
FILL_MARKER = CACHE_DIR / "pretrained.json"

FILL_TIMEOUT_S = 850
CHILD_TIMEOUT_S = 900


def _blas_env(threads: int) -> dict:
    return {name: str(threads) for name in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _program_env() -> dict:
    return {
        "REPRO_CACHE_DIR": str(CACHE_DIR),
        "REPRO_MANIFEST_DIR": str(BENCH_DIR / ".runs"),
    }


def _pretrain() -> bool:
    """Pretrain the workload models once per checkout; True if it ran.

    Training gives the same weights on any BLAS thread count, so the
    models train in parallel ``repro pretrain`` processes of one BLAS
    thread each, one model per process.
    """
    wanted = list(MODELS)
    if FILL_MARKER.is_file() and json.loads(FILL_MARKER.read_text()) == wanted:
        return False
    env = dict(os.environ, **_program_env(), **_blas_env(1))
    env["PYTHONPATH"] = str(ROOT / "src")
    lanes = min(len(MODELS), os.cpu_count() or 1)
    print(f"pretraining {', '.join(MODELS)} once per checkout "
          f"({lanes} process(es))", file=sys.stderr, flush=True)
    _run_parallel([
        [sys.executable, "-m", "repro", "pretrain", "--models", *MODELS[k::lanes]]
        for k in range(lanes)
    ], env, perf_counter() + FILL_TIMEOUT_S)
    tmp = FILL_MARKER.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(wanted))
    os.replace(tmp, FILL_MARKER)
    return True


def _run_parallel(commands, env, end: float) -> None:
    """Run ``commands`` in parallel from the checkout root; all must succeed."""
    procs = []
    try:
        for command in commands:
            procs.append(subprocess.Popen(command, cwd=ROOT, env=env,
                                          stdout=sys.stderr))
        for proc in procs:
            if proc.wait(timeout=max(1.0, end - perf_counter())) != 0:
                raise subprocess.CalledProcessError(proc.returncode, proc.args)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


@contextlib.contextmanager
def _on_cpu(k: int, alternate: bool):
    """Run the body on the k-th allowed CPU in turn (when ``alternate``).

    Each CPU of a shared host slows down on its own, by about 1.4x for
    seconds to minutes at a time; spreading single-process work over the
    CPUs keeps one CPU's slow spell from setting a whole run's median.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if alternate:
        os.sched_setaffinity(0, {allowed[k % len(allowed)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _run_ops(wl, session, seconds: float, each=contextlib.nullcontext,
             first: int = 0):
    """Closed loop: operations back to back until ``seconds`` have passed.

    ``each()`` is entered around every operation (the traced run resets
    and captures telemetry there).  A one-process workload runs operation
    ``k`` (counted from ``first``) on the k-th allowed CPU in turn.
    """
    ops, error = [], None
    end = perf_counter() + seconds
    while True:
        try:
            with _on_cpu(first + len(ops), session.workload.workers == 1), \
                    each():
                ops.append(wl.run_op(session))
        except Exception as exc:  # an op that raises is a failed op
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
            break
        if perf_counter() >= end:
            break
    return ops, error


def _verify(wl, session, ops, error, seed):
    """Run the once-per-run checks; returns (failed ops, notes, stats)."""
    notes = [error] if error else []
    if not ops:
        return int(bool(error)), notes, {}
    last = ops[-1]
    run_problems, stats = wl.check_matrix(session, seed)
    if session.workload.cached:
        run_problems += wl.check_served(session, last.results)
    notes += run_problems
    failed = int(bool(error))
    for op in ops:
        problems = list(op.problems)
        if op.matrix_digest != last.matrix_digest:
            problems.append("Ĝ differs from the checked measurement")
        if any(not (a.choice == b.choice).all()
               for a, b in zip(op.results, last.results)):
            problems.append("assignment differs from the checked one")
        notes += problems
        failed += int(bool(problems or run_problems))
    return failed, notes, stats


def _print_inputs(session, results, wl) -> dict:
    prov = wl.provenance(session, results)
    print(f"inputs: weights {prov['weights']}  data {prov['data']}  "
          f"quant {prov['quant']}")
    for avg, digest in prov["assignments"].items():
        print(f"assignment {avg}-bit avg: digest {digest}  "
              f"bb_nodes {prov['bb_nodes'][avg]}")
    return prov


def _record(spec, prov) -> dict:
    import numpy
    import scipy

    return {
        "workload": spec.name,
        "why": spec.why,
        "exercises": list(spec.exercises),
        "bypasses": list(spec.bypasses),
        "model": spec.model,
        "set_size": spec.set_size,
        "avg_bits": list(spec.avg_bits),
        "workers": spec.workers,
        "blas_threads": BLAS_THREADS,
        "processes_x_threads": spec.workers * BLAS_THREADS,
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bb_nodes": prov["bb_nodes"],
    }


def _report(rows) -> None:
    print(f"{'metric':<28}{'value':>14}  {'unit':<9}{'n':>4}")
    for name, value, unit, n in rows:
        print(f"{name:<28}{value:>14.6g}  {unit:<9}{n:>4}")


def _timed_setups(wl, spec, seed: int, workdir: Path, reps):
    """Set up once per rep on the rep's CPU; returns (seconds, last session)."""
    times, session = [], None
    for k in reps:
        with _on_cpu(k, True):
            t0 = perf_counter()
            session = wl.setup(spec, seed, workdir / f"setup{k}")
            times.append(perf_counter() - t0)
    return times, session


def measure(spec, seed: int, seconds: float, workdir: Path):
    """End-to-end metrics with tracing off."""
    from perfbench import workloads as wl

    # Half the set-ups run before the operations and half after, on the
    # CPUs in turn, so that set-up time samples the host over the whole run
    # as op_s does; the operations use the last set-up made before them.
    half = SETUP_REPS // 2
    setup_s, session = _timed_setups(wl, spec, seed, workdir, range(half))
    ops, error = _run_ops(wl, session, seconds)
    peak_rss_mb = _peak_rss_mb()  # before later set-ups and checks allocate
    setup_s += _timed_setups(wl, spec, seed, workdir,
                             range(half, SETUP_REPS))[0]
    failed, notes, stats = _verify(wl, session, ops, error, seed)
    attempted = len(ops) + int(bool(error))
    values = {
        "setup_s": statistics.median(setup_s),
        "op_s": statistics.median(op.seconds for op in ops) if ops else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "val_top1": wl.val_top1(session, ops[-1].results) if ops else 0.0,
    }
    prov = _print_inputs(session, ops[-1].results, wl) if ops else None
    _report([
        ("setup_s", values["setup_s"], "s", len(setup_s)),
        ("op_s", values["op_s"], "s", len(ops)),
        ("forward_evals", statistics.median(op.forward_evals for op in ops)
         if ops else 0, "count", len(ops)),
        ("peak_rss_mb", values["peak_rss_mb"], "MiB", 1),
        ("error_rate", failed / max(1, attempted), "ratio", attempted),
        ("val_top1", values["val_top1"], "fraction", len(spec.avg_bits)),
    ])
    print("op seconds: " + ", ".join(f"{op.seconds:.4f}" for op in ops))
    if stats:
        print(f"check: {stats['diagonal_checked']} diagonal entries "
              f"(max err {stats['diagonal_max_err']:.3g}), "
              f"{stats['cross_checked']} sampled cross entries "
              f"(max err {stats['cross_max_err']:.3g})")
    if prov is not None:
        print("record: " + json.dumps(_record(spec, prov), sort_keys=True))
    return values, attempted, failed, notes


def measure_traced(spec, seed: int, seconds: float, workdir: Path):
    """Per-layer metrics from a traced set-up and traced operations."""
    from perfbench import tracing
    from perfbench import workloads as wl
    from repro import telemetry

    inst = tracing.Instrumentation()
    inst.install()
    telemetry.reset()
    telemetry.enable()
    try:
        session = wl.setup(spec, seed, workdir)
    finally:
        telemetry.disable()
        inst.uninstall()
    setup_tree = telemetry.span_tree()

    base_ops, traced_ops, captured = [], [], []

    @contextlib.contextmanager
    def traced_op():
        telemetry.reset()
        inst.solve_ms.clear()
        telemetry.enable()
        try:
            yield
        finally:
            telemetry.disable()
        captured.append((telemetry.span_tree(), telemetry.counters_snapshot(),
                         telemetry.gauges_snapshot(), list(inst.solve_ms)))

    # Untraced and traced operations alternate, so that ``trace.overhead``
    # compares operations run under the same machine conditions.
    end = perf_counter() + seconds
    while True:
        ops, error = _run_ops(wl, session, 0.0, first=len(base_ops))
        base_ops += ops
        if error:
            break
        inst.install()
        try:
            ops, error = _run_ops(wl, session, 0.0, traced_op,
                                  first=len(base_ops))
        finally:
            inst.uninstall()
        traced_ops += ops
        if error or perf_counter() >= end:
            break
    ops = base_ops + traced_ops
    failed, notes, _ = _verify(wl, session, ops, error, seed)
    attempted = len(ops) + int(bool(error))
    if not traced_ops:
        return {}, attempted, max(failed, 1), notes

    per_op = [tracing.layer_metrics(op, *trace)
              for op, trace in zip(traced_ops, captured)]
    values = {name: statistics.median(m[name] for m in per_op)
              for name in per_op[0]}
    values.update({
        "models.load_s": tracing.span_total(setup_tree, "bench:models.load"),
        "data.sens_set_s": tracing.span_total(setup_tree, "bench:data.sens_set"),
        "quant.table_s": tracing.span_total(setup_tree, "bench:quant.table"),
        "quant.act_calib_s": tracing.span_total(setup_tree,
                                                "bench:quant.act_calib"),
        "nn.gemm_peak_gflops": tracing.gemm_peak_gflops(),
        "clado.dl_pred_rel_err": wl.dl_pred_rel_err(session, ops[-1].results),
        "trace.overhead": statistics.median(op.seconds for op in traced_ops)
        / statistics.median(op.seconds for op in base_ops) - 1.0,
    })
    _print_inputs(session, ops[-1].results, wl)
    return values, attempted, failed, notes


def _load_metric_table(trace: bool) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def _self_command(args, workload: str) -> list:
    return [sys.executable, str(Path(__file__).resolve()), "--workload",
            workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]


def run_one(args) -> int:
    spec = WORKLOADS[args.workload]
    os.environ.update(_program_env())
    if _pretrain():
        # Measure in a fresh process, so the pretraining's memory does not
        # show in ``peak_rss_mb`` (RUSAGE_CHILDREN).
        return subprocess.run(_self_command(args, spec.name),
                              timeout=CHILD_TIMEOUT_S).returncode
    os.environ.update(_blas_env(BLAS_THREADS))
    sys.path.insert(0, str(ROOT / "src"))

    units = _load_metric_table(args.trace)
    workdir = BENCH_DIR / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"workload {spec.name}  seed {args.seed}  model {spec.model}  "
          f"set {spec.set_size}  avg_bits {list(spec.avg_bits)}  "
          f"workers {spec.workers}  blas_threads {BLAS_THREADS}  "
          f"nproc {os.cpu_count()}  trace {args.trace}")
    try:
        run = measure_traced if args.trace else measure
        values, attempted, failed, notes = run(
            spec, args.seed, float(args.seconds), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in notes:
        print(f"FAILED: {note}")
    if args.trace:
        for name in units:
            print(f"{name:<28}{values.get(name, 0.0):>14.6g}  {units[name]}")
    missing = [name for name in units if name not in values]
    if missing and values:
        raise KeyError(f"metrics not measured: {missing}")
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload for one seed, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(_self_command(args, name), stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= bool(result["correct"])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
        print()
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no repro sources (src/repro); run from "
              "a repository checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(WORKLOADS)}, all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
