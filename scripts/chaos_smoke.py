#!/usr/bin/env python
"""Chaos smoke: injected faults must never change results, only timings.

The executable form of the robustness contract (docs/robustness.md), run
as ``make chaos-smoke`` inside the default ``make`` target:

1. **Sweep equivalence** — a segmented parallel sweep with an injected
   worker crash, an injected non-finite loss, and injected checkpoint
   corruption produces a sensitivity matrix **bitwise identical** to an
   uninjected run, and the recovery is visible in the result extras.
2. **Corrupted-checkpoint resume** — resuming from the truncated
   checkpoint file the previous run left on disk restarts cleanly and
   still reproduces the exact matrix.
3. **Solver ladder** — ``solve_with_fallback`` returns a feasible
   assignment within its deadline on a problem sized from every zoo
   model even when branch-and-bound's budget is forced to expire, and
   the winning rung plus the injected faults land in the run manifest.
4. **Fork-supervisor equivalence** — a sweep on 3 supervised fork
   workers, with a worker crash (``worker_crash``) and a non-finite loss
   (``nonfinite_loss``) injected, produces a Ĝ, single losses and base
   loss **bitwise identical** to the in-process sweep on **every zoo
   model**, and the crash and the retries are visible in the result
   extras.
5. **Measurement integrity** — the determinism audit of a clean
   zoo-model sweep agrees on every audited spec, and its Ĝ and bit
   assignment equal the ``health="off"`` run's **exactly**.  A seeded
   ``outlier_loss`` on an audited spec is reported under ``warn`` (the
   record, with pre/post conditioning, lands in the run manifest, and Ĝ
   is the ``health="off"`` Ĝ under the same fault: nothing is repaired)
   and refused under ``strict`` (library: :class:`UnhealthyMatrixError`;
   CLI: ``allocate --health strict`` exits 5, the fault aimed through
   :meth:`~repro.core.sweep.EvalPlan.audit_specs`).

6. **Store integrity** — the content-addressed Ĝ artifact store
   (docs/store.md) never serves a corrupt or mismatched artifact.  On
   **every zoo model**: ``allocate-cached`` on a warm store yields bit
   assignments **bitwise identical** to a fresh sweep-and-solve with
   **zero** forward evaluations recorded in the run manifest; each
   injected artifact fault (``truncated_artifact``, ``checksum_flip``,
   ``fingerprint_mismatch``) is refused with the typed
   ``CorruptArtifactError``/``StaleArtifactError`` attribution, the bad
   entry is quarantined, and the quarantine-then-remeasure fallback
   reproduces the reference assignment exactly.  A publisher killed
   (kill -9) mid-write leaves only a reapable ``*.tmp`` orphan — never a
   visible entry; duplicate publishes are idempotent; a planted stale
   writer lock (``stale_writer_lock``) is taken over, not deadlocked on.

Everything is driven by seeded :class:`repro.robustness.FaultPlan`
schedules — no monkeypatching, no timing dependence — so failures here
reproduce exactly under ``REPRO_FAULT_PLAN`` at the command line.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro import telemetry  # noqa: E402
from repro.core import SensitivityConfig, SensitivityEngine  # noqa: E402
from repro.models import MODEL_REGISTRY, build_model, quantizable_layers  # noqa: E402
from repro.nn import Linear, ReLU, Sequential  # noqa: E402
from repro.quant import QuantConfig, QuantizedWeightTable  # noqa: E402
from repro.robustness import FaultPlan, FaultSpec  # noqa: E402
from repro.solvers import MPQProblem, solve_with_fallback  # noqa: E402

CHECKS = []


def check(name: str, ok: bool, detail: str = "") -> None:
    CHECKS.append((name, ok, detail))
    status = "ok" if ok else "FAIL"
    telemetry.emit(f"[chaos-smoke] {status:4s} {name}" + (f" ({detail})" if detail else ""))


class _QLayer:
    def __init__(self, idx, name, module):
        self.index, self.name, self.module = idx, name, module

    @property
    def weight(self):
        return self.module.weight

    @property
    def num_params(self):
        return self.module.weight.size


def _mlp(num_linear=8, dim=6, num_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    mods = []
    for k in range(num_linear - 1):
        mods.append(Linear(dim if k else 4, dim, rng=rng))
        mods.append(ReLU())
    mods.append(Linear(dim, num_classes, rng=rng))
    model = Sequential(*mods)
    model.eval()
    linears = [m for m in mods if isinstance(m, Linear)]
    layers = [_QLayer(i, f"fc{i}", m) for i, m in enumerate(linears)]
    return model, layers


def sweep_chaos(tmp: Path) -> None:
    """Checks 1 + 2: fault-injected sweeps reproduce the clean matrix."""
    model, layers = _mlp()
    table = QuantizedWeightTable(layers, QuantConfig(bits=(4, 8)))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(20, 4)).astype(np.float32)
    y = rng.integers(0, 3, size=20)

    def run(fault_plan=None, checkpoint=None):
        config = SensitivityConfig(
            batch_size=8,
            num_workers=2,
            checkpoint_path=None if checkpoint is None else str(checkpoint),
            fault_plan=fault_plan,
        )
        return SensitivityEngine(model, table).measure(x, y, config, mode="full")

    clean = run()

    # One worker dies mid-group, one group yields NaN once, and *every*
    # checkpoint save (one per group) is truncated on disk at a seeded
    # offset.
    ckpt = tmp / "sweep.ckpt.npz"
    plan = FaultPlan(
        seed=3,
        faults=(
            FaultSpec("worker_crash", at=2),
            FaultSpec("nonfinite_loss", at=5),
        )
        + tuple(
            FaultSpec("corrupt_checkpoint", at=k) for k in range(512)
        ),
    )
    injected = run(fault_plan=plan, checkpoint=ckpt)
    check(
        "sweep bitwise equivalence under injected crash + NaN + corruption",
        np.array_equal(clean.matrix, injected.matrix),
    )
    extras = injected.extras
    check(
        "recovery recorded in extras",
        extras.get("worker_crashes", 0) >= 1
        and extras.get("group_retries", 0) >= 1
        and bool(extras.get("injected_fault_plan")),
        f"crashes={extras.get('worker_crashes')} "
        f"retries={extras.get('group_retries')}",
    )

    # The run above left a deliberately truncated checkpoint behind; a
    # resume must treat it as absent and still converge to the same matrix.
    corrupt_on_disk = False
    if ckpt.exists():
        try:
            with np.load(ckpt, allow_pickle=False) as blob:
                blob["losses"]
        except Exception:
            corrupt_on_disk = True
    check("injected corruption damaged the checkpoint file", corrupt_on_disk)
    resumed = run(checkpoint=ckpt)
    check(
        "resume from corrupted checkpoint reproduces the matrix",
        np.array_equal(clean.matrix, resumed.matrix),
        f"resumed_evals={resumed.extras.get('resumed_evals', 0)}",
    )


def ladder_chaos(tmp: Path) -> None:
    """Check 3: the ladder stays feasible on zoo-scale problems."""
    expiry = FaultPlan(seed=0, faults=(FaultSpec("solver_deadline", rung="bb"),))
    for i, name in enumerate(sorted(MODEL_REGISTRY)):
        model = build_model(name, num_classes=10)
        sizes = [layer.num_params for layer in quantizable_layers(model, name)]
        bits = (2, 4, 8)
        n = len(sizes) * len(bits)
        rng = np.random.default_rng(100 + i)
        a = rng.normal(size=(n, n)) / np.sqrt(n)
        problem = MPQProblem(
            sensitivity=a @ a.T,
            layer_sizes=sizes,
            bits=bits,
            budget_bits=int(5 * sum(sizes)),
        )
        with telemetry.start_run("chaos-smoke", manifest_dir=tmp) as run:
            result = solve_with_fallback(
                problem, deadline=10.0, fault_plan=expiry
            )
            recorded = (
                run.results.get("solver_rung") == result.extras["rung"]
                and run.results.get("solver_degraded") is True
                and any(
                    f["kind"] == "solver_deadline"
                    for f in run.results.get("injected_faults", ())
                )
            )
        feasible = (
            result.size_bits <= problem.budget_bits
            and result.extras["rung"] in ("qp_round", "greedy")
            and result.extras["degraded"]
            and result.extras["ladder_wall_time"] <= 10.0
        )
        check(
            f"ladder feasible + degraded on {name} ({len(sizes)} layers)",
            feasible,
            f"rung={result.extras['rung']}",
        )
        check(f"manifest records rung + injected fault on {name}", recorded)


def fork_chaos() -> None:
    """Check 4: fork-supervised sweeps survive crashes and NaNs, bitwise.

    Each zoo model runs once in-process and once on 3 fork workers with a
    worker killed mid-group (group 0's first attempt) and a non-finite
    loss (group 1's first attempt) scheduled.  The matrix, the single
    losses and the base loss must equal the in-process sweep's bitwise,
    and the recovery must be attributed in the extras.
    """
    rng = np.random.default_rng(23)
    x = rng.normal(size=(8, 3, 32, 32)).astype(np.float32)
    y = rng.integers(0, 10, size=8)
    plan = FaultPlan(
        seed=7,
        faults=(
            FaultSpec("worker_crash", at=0, times=1),
            FaultSpec("nonfinite_loss", at=1, times=1),
        ),
    )
    for name in sorted(MODEL_REGISTRY):
        mode = "block" if name == "resnet_s20" else "diagonal"
        model = build_model(name, num_classes=10)
        layers = quantizable_layers(model, name)
        table = QuantizedWeightTable(layers, QuantConfig(bits=(2, 4, 8)))

        def run(workers, fault_plan=None):
            config = SensitivityConfig(
                batch_size=8, num_workers=workers, fault_plan=fault_plan
            )
            return SensitivityEngine(model, table).measure(
                x, y, config, mode=mode
            )

        reference = run(1)
        forked = run(3, fault_plan=plan)
        e = forked.extras
        check(
            f"fork-worker sweep bitwise equals in-process on {name} ({mode})",
            np.array_equal(reference.matrix, forked.matrix)
            and np.array_equal(reference.single_losses, forked.single_losses)
            and reference.base_loss == forked.base_loss,
            f"workers={e.get('workers')}",
        )
        check(
            f"crash + retries attributed in extras on {name}",
            e.get("workers") == 3
            and e.get("worker_crashes", 0) >= 1
            and e.get("group_retries", 0) >= 1,
            f"crashes={e.get('worker_crashes')} "
            f"retries={e.get('group_retries')}",
        )


def _audited_specs(name: str, bits) -> tuple:
    """The plan indices the audit of a full sweep of zoo model ``name``
    replays (the plan depends on the layer structure, not the weights)."""
    from repro.core.sensitivity import build_pair_list
    from repro.core.sweep import build_eval_plan

    model = build_model(name, num_classes=10)
    layers = quantizable_layers(model, name)
    table = QuantizedWeightTable(layers, QuantConfig(bits=bits))
    segments, layer_segments = SensitivityEngine(model, table)._segment_map()
    plan = build_eval_plan(
        len(layers), bits, build_pair_list(layers, "full"),
        layer_segments, len(segments), "full",
    )
    return plan.audit_specs()


def measurement_chaos(tmp: Path) -> None:
    """Check 5: the audit passes clean sweeps and refuses a loss that its
    replay does not repeat, without repairing anything."""
    import warnings

    from repro.core import CLADO, SolverConfig
    from repro.robustness import UnhealthyMatrixError

    name = "resnet_s20"
    model = build_model(name, num_classes=10)
    model.eval()
    layers = quantizable_layers(model, name)
    qconfig = QuantConfig(bits=(2, 4, 8))
    rng = np.random.default_rng(7)
    x = rng.normal(size=(16, 3, 32, 32)).astype(np.float32)
    y = rng.integers(0, 10, size=16)
    budget = int(sum(layer.num_params for layer in layers) * 4)
    solver = SolverConfig(time_limit=5.0)

    def allocate(health, fault_plan=None):
        algo = CLADO(model, name, qconfig)
        config = SensitivityConfig(
            batch_size=8, num_workers=1, fault_plan=fault_plan, health=health
        )
        algo.prepare(x, y, config)
        return algo, algo.allocate(budget, solver)

    def same_measurement(a, b):
        return (
            np.array_equal(a.raw.matrix, b.raw.matrix)
            and np.array_equal(a.raw.single_losses, b.raw.single_losses)
            and a.raw.base_loss == b.raw.base_loss
        )

    off_algo, off_result = allocate("off")
    clean_algo, clean_result = allocate("warn")
    record = clean_algo.health_record
    check(
        "clean sweep passes the determinism audit",
        record is not None and record["healthy"]
        and record["audited"] == 16 and record["disagreed"] == 0,
        f"audited={record and record['audited']} "
        f"disagreed={record and record['disagreed']}",
    )
    check(
        "audited Ĝ bitwise equals the health-off Ĝ",
        same_measurement(off_algo, clean_algo),
    )
    check(
        "audited bit assignment identical to the health-off run's",
        np.array_equal(off_result.assignment.choice, clean_result.assignment.choice),
    )

    index = _audited_specs(name, qconfig.bits)[0]
    faults = FaultPlan(seed=11, faults=(FaultSpec("outlier_loss", at=index),))
    unchecked, _ = allocate("off", faults)
    with telemetry.start_run("chaos-smoke", manifest_dir=tmp) as run:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bad_algo, _ = allocate("warn", fault_plan=faults)
        manifest_record = run.results.get("health")
    record = bad_algo.health_record
    warned = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    check(
        "audited outlier reported under warn",
        not record["healthy"] and len(warned) == 1
        and [d[0] for d in record["disagreements"]] == [index],
        f"disagreements={record['disagreements']} warnings={len(warned)}",
    )
    check(
        "nothing repaired: Ĝ is the health-off Ĝ under the same fault",
        same_measurement(unchecked, bad_algo),
    )
    check(
        "health record in the run manifest (audit + conditioning)",
        manifest_record is not None
        and manifest_record.get("disagreed") == 1
        and "pre_condition_number" in manifest_record
        and "post_condition_number" in manifest_record,
    )
    try:
        allocate("strict", fault_plan=faults)
    except UnhealthyMatrixError as exc:
        refused = [d[0] for d in exc.record.get("disagreements", ())] == [index]
        detail = f"disagreements={exc.record.get('disagreements')}"
    else:
        refused, detail = False, "no error raised"
    check("strict mode refuses an audited outlier", refused, detail)


def cli_health_chaos(tmp: Path) -> None:
    """Check 5 (CLI surface): ``--health strict`` maps refusal to exit 5."""
    import os

    from repro import cli
    from repro.experiments import model_quant_config
    from repro.models import zoo

    index = _audited_specs("resnet_s20", model_quant_config("resnet_s20").bits)[0]
    plan = FaultPlan(seed=5, faults=(FaultSpec("outlier_loss", at=index),))
    old_cache = os.environ.get("REPRO_CACHE_DIR")
    old_plan = os.environ.get("REPRO_FAULT_PLAN")
    old_recipe = zoo._RECIPES.get("resnet_s20")
    try:
        os.environ["REPRO_CACHE_DIR"] = str(tmp / "cache")
        os.environ["REPRO_FAULT_PLAN"] = plan.to_json()
        # Tiny recipe: the gate fires during prepare, long before accuracy
        # matters, so the cheapest trainable model is enough.
        zoo._RECIPES["resnet_s20"] = zoo.TrainConfig(
            epochs=1, n_train=64, n_val=32
        )
        code = cli.main(
            [
                "allocate",
                "--model", "resnet_s20",
                "--set-size", "32",
                "--health", "strict",
            ]
        )
    finally:
        if old_cache is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old_cache
        if old_plan is None:
            os.environ.pop("REPRO_FAULT_PLAN", None)
        else:
            os.environ["REPRO_FAULT_PLAN"] = old_plan
        if old_recipe is not None:
            zoo._RECIPES["resnet_s20"] = old_recipe
    check(
        "--health strict exits 5 on an audited outlier",
        code == 5,
        f"exit={code}",
    )


def store_chaos(tmp: Path) -> None:
    """Check 6: the store never serves corrupt/mismatched Ĝ, and serves
    verified Ĝ bitwise-identically to a fresh sweep with zero evals."""
    import os
    import signal
    import subprocess

    from repro.atomicio import STALE_TMP_TTL
    from repro.core import CLADO, SolverConfig
    from repro.quant.export import CorruptArtifactError
    from repro.store import (
        ArtifactStore,
        StaleArtifactError,
        StoreMissError,
        allocate_cached,
        request_key,
    )

    rng = np.random.default_rng(29)
    x = rng.normal(size=(8, 3, 32, 32)).astype(np.float32)
    y = rng.integers(0, 10, size=8)
    qconfig = QuantConfig(bits=(2, 4, 8))
    solver = SolverConfig(time_limit=5.0)
    config = SensitivityConfig(batch_size=8, num_workers=1)
    fault_kinds = ("truncated_artifact", "checksum_flip", "fingerprint_mismatch")

    def same_assignments(a, b):
        return len(a) == len(b) and all(
            np.array_equal(r.assignment.bits, s.assignment.bits)
            and np.array_equal(r.assignment.choice, s.assignment.choice)
            for r, s in zip(a, b)
        )

    for name in sorted(MODEL_REGISTRY):
        mode = "block" if name == "resnet_s20" else "diagonal"
        model = build_model(name, num_classes=10)
        model.eval()
        layers = quantizable_layers(model, name)
        total = sum(layer.num_params for layer in layers)
        budgets = [int(total * 4.5), int(total * 5)]
        root = tmp / f"store-{name}"

        def make():
            return CLADO(model, name, qconfig, mode=mode, layers=layers)

        # Reference: fresh sweep-and-solve, published into an empty store.
        store = ArtifactStore(root / "ref")
        reference = allocate_cached(make(), x, y, budgets, store, solver, config)
        key = request_key(make(), x, y, config)
        artifact = store.load(key)

        # Warm store, offline: bitwise-identical assignments, zero evals.
        with telemetry.start_run("chaos-smoke", manifest_dir=tmp) as run:
            cached = allocate_cached(
                make(), x, y, budgets, store, solver, config, offline=True
            )
            doc = run.document()
        evals = doc["counters"].get("sensitivity.forward_evals", 0)
        check(
            f"cached serve bitwise equals fresh sweep-and-solve on {name} ({mode})",
            same_assignments(reference, cached)
            and doc["results"].get("store_source") == "store"
            and evals == 0,
            f"forward_evals={evals}",
        )

        # Each artifact fault: typed refusal, quarantine, and a remeasure
        # that reproduces the reference assignment exactly.
        for kind in fault_kinds:
            froot = root / kind
            saboteur = ArtifactStore(
                froot,
                fault_plan=FaultPlan(seed=13, faults=(FaultSpec(kind, at=0),)),
            )
            outcome = saboteur.publish(key, artifact)
            victim = ArtifactStore(froot)  # clean store view on the damage
            try:
                victim.load(key)
                typed = "served"
            except CorruptArtifactError:
                typed = "corrupt"
            except StaleArtifactError:
                typed = "stale"
            expected = "stale" if kind == "fingerprint_mismatch" else "corrupt"
            check(
                f"{kind} refused with typed {expected} attribution on {name}",
                outcome == "published" and typed == expected,
                f"got={typed}",
            )
            with telemetry.start_run("chaos-smoke", manifest_dir=tmp) as run:
                healed = allocate_cached(
                    make(), x, y, budgets, victim, solver, config
                )
                doc = run.document()
            counters = doc["counters"]
            check(
                f"{kind} quarantined + remeasured to the reference on {name}",
                same_assignments(reference, healed)
                and doc["results"].get("store_source") == "quarantine_remeasure"
                and counters.get("store.quarantined", 0) >= 1
                and counters.get(f"store.{expected}", 0) >= 1,
                f"source={doc['results'].get('store_source')}",
            )

        if name != sorted(MODEL_REGISTRY)[0]:
            continue

        # ---- store-protocol checks (one model is enough) ------------------

        # Offline on an empty store: typed miss, no silent sweep.
        try:
            allocate_cached(
                make(), x, y, budgets, ArtifactStore(root / "empty"),
                solver, config, offline=True,
            )
            reason = "served"
        except StoreMissError as exc:
            reason = exc.reason
        check("offline miss raises StoreMissError", reason == "miss")

        # Offline on a damaged entry: typed integrity refusal + quarantine.
        froot = root / "offline-integrity"
        ArtifactStore(
            froot,
            fault_plan=FaultPlan(
                seed=13, faults=(FaultSpec("checksum_flip", at=0),)
            ),
        ).publish(key, artifact)
        victim = ArtifactStore(froot)
        try:
            allocate_cached(
                make(), x, y, budgets, victim, solver, config, offline=True
            )
            reason = "served"
        except StoreMissError as exc:
            reason = exc.reason
        check(
            "offline integrity failure refuses instead of serving",
            reason == "integrity"
            and not victim.has(key)
            and len(list(victim.quarantine_dir.glob("*.npz"))) == 1
            and len(list(victim.quarantine_dir.glob("*.reason.json"))) == 1,
            f"reason={reason}",
        )

        # A stale writer lock from a dead publisher is taken over.
        lroot = root / "stale-lock"
        locker = ArtifactStore(
            lroot,
            fault_plan=FaultPlan(
                seed=17, faults=(FaultSpec("stale_writer_lock", at=0),)
            ),
        )
        with telemetry.start_run("chaos-smoke", manifest_dir=tmp) as run:
            outcome = locker.publish(key, artifact)
            takeovers = run.document()["counters"].get("store.lock_takeovers", 0)
        served = ArtifactStore(lroot).load(key)
        check(
            "stale writer lock taken over, publish lands and verifies",
            outcome == "published" and takeovers >= 1 and served is not None,
            f"outcome={outcome} takeovers={takeovers}",
        )

        # Duplicate publish of the same content address is idempotent; a
        # live writer's lock makes the loser yield with "busy".
        check(
            "duplicate publish is idempotent",
            store.publish(key, artifact) == "exists" and store.has(key),
        )
        lock = store.lock_path(key)
        lock.write_text('{"pid": 0}')
        try:
            busy = store.publish(key, artifact)
        finally:
            lock.unlink()
        check("live writer lock makes a concurrent publish yield", busy == "busy")

        # kill -9 mid-write: the torn tmp is invisible and reapable.
        kroot = root / "kill9"
        kstore = ArtifactStore(kroot)
        child = (
            "import os, signal, sys\n"
            "from pathlib import Path\n"
            "tmp = Path(sys.argv[1]) / 'objects' / (sys.argv[2] + '.npz.tmp')\n"
            "fh = open(tmp, 'wb')\n"
            "fh.write(b'torn half-written artifact payload')\n"
            "fh.flush()\n"
            "os.fsync(fh.fileno())\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, str(kroot), key.key],
            capture_output=True,
        )
        torn = kstore.objects / f"{key.key}.npz.tmp"
        invisible = (
            proc.returncode == -signal.SIGKILL
            and torn.exists()
            and not kstore.has(key)
            and kstore.entries() == []
            and kstore.load(key) is None
        )
        check(
            "kill -9 mid-write leaves no visible entry, only a tmp orphan",
            invisible,
            f"rc={proc.returncode}",
        )
        aged = kstore.objects.stat().st_mtime - 2.0 * STALE_TMP_TTL
        os.utime(torn, (aged, aged))
        check(
            "aged tmp orphan is reaped",
            kstore.reap() >= 1 and not torn.exists() and kstore.load(key) is None,
        )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmpdir:
        tmp = Path(tmpdir)
        sweep_chaos(tmp)
        ladder_chaos(tmp)
        fork_chaos()
        measurement_chaos(tmp)
        cli_health_chaos(tmp)
        store_chaos(tmp)
    failures = [(name, detail) for name, ok, detail in CHECKS if not ok]
    telemetry.emit(
        f"[chaos-smoke] {len(CHECKS) - len(failures)}/{len(CHECKS)} checks passed"
    )
    if failures:
        for name, detail in failures:
            sys.stderr.write(f"chaos-smoke FAILED: {name} {detail}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
