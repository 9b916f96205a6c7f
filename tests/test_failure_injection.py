"""Failure-injection tests: corrupt inputs must fail loudly, not silently,
and injected faults (worker crashes, damaged checkpoints, solver deadline
expiry) must be recovered without changing results.

The fault tests are driven end-to-end by seeded
:class:`repro.robustness.FaultPlan` schedules through the production
injection points — no monkeypatching — so every failure reproduces
bitwise under ``REPRO_FAULT_PLAN`` (see docs/robustness.md).
"""

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.core import CLADO, SensitivityConfig, SensitivityEngine
from repro.core import sensitivity
from repro.core.qat import QATConfig, qat_finetune
from repro.models import build_model, quantizable_layers
from repro.nn import Linear, Module, ReLU, Sequential
from repro.quant import QuantConfig, QuantizedWeightTable
from repro.robustness import (
    FAULT_KINDS,
    DeadlineExpired,
    FaultPlan,
    FaultSpec,
    SweepFailure,
)
from repro.robustness.faults import in_worker
from repro.solvers import (
    MPQProblem,
    solve_branch_and_bound,
    solve_with_fallback,
)


class TestNonFiniteGuards:
    def test_nan_inputs_raise_in_sensitivity_engine(self):
        model = build_model("resnet_s20", num_classes=4)
        model.eval()
        layers = quantizable_layers(model, "resnet_s20")[:3]
        table = QuantizedWeightTable(layers, QuantConfig(bits=(4, 8)))
        engine = SensitivityEngine(model, table)
        x = np.full((4, 3, 32, 32), np.nan, dtype=np.float32)
        y = np.zeros(4, dtype=int)
        with pytest.raises(RuntimeError, match="non-finite"):
            engine.measure(x, y, mode="diagonal")

    def test_diverged_weights_raise(self):
        model = build_model("resnet_s20", num_classes=4)
        model.eval()
        layers = quantizable_layers(model, "resnet_s20")[:3]
        layers[0].weight.data[:] = np.inf
        table = QuantizedWeightTable(layers, QuantConfig(bits=(4, 8)))
        engine = SensitivityEngine(model, table)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3, 32, 32)).astype(np.float32)
        with pytest.raises(RuntimeError, match="non-finite"):
            engine.measure(x, np.zeros(4, dtype=int), mode="diagonal")

    def test_weights_restored_even_on_measurement_failure(self):
        """The weight table must restore originals when a sweep aborts."""
        model = build_model("resnet_s20", num_classes=4)
        model.eval()
        layers = quantizable_layers(model, "resnet_s20")[:3]
        table = QuantizedWeightTable(layers, QuantConfig(bits=(4, 8)))
        before = [layer.weight.data.copy() for layer in layers]
        engine = SensitivityEngine(model, table)
        x = np.full((2, 3, 32, 32), np.nan, dtype=np.float32)
        with pytest.raises(RuntimeError):
            engine.measure(x, np.zeros(2, dtype=int))
        # The failure happens at the base-loss eval (no perturbation
        # applied yet), and perturbed evals are context-managed, so the
        # weights must be pristine either way.
        for layer, b in zip(layers, before):
            np.testing.assert_array_equal(layer.weight.data, b)


class _QLayer:
    def __init__(self, idx, name, module):
        self.index, self.name, self.module = idx, name, module

    @property
    def weight(self):
        return self.module.weight

    @property
    def num_params(self):
        return self.module.weight.size


def _mlp_setup(num_linear=6, dim=6, num_classes=3, seed=0):
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
    table = QuantizedWeightTable(layers, QuantConfig(bits=(4, 8)))
    data_rng = np.random.default_rng(1)
    x = data_rng.normal(size=(16, 4)).astype(np.float32)
    y = data_rng.integers(0, 3, size=16)
    return model, layers, table, x, y


@pytest.fixture(scope="module")
def fault_mlp():
    return _mlp_setup()


def _measure(setup, workers, fault_plan=None, checkpoint=None, **kwargs):
    model, _layers, table, x, y = setup
    config = SensitivityConfig(
        batch_size=8,
        num_workers=workers,
        fault_plan=fault_plan,
        checkpoint_path=None if checkpoint is None else str(checkpoint),
        **kwargs,
    )
    return SensitivityEngine(model, table).measure(x, y, config, mode="full")


class TestWorkerCrashRecovery:
    """Injected worker deaths mid-sweep must not change the matrix."""

    def test_crash_mid_group_recovers_bitwise(self, fault_mlp):
        clean = _measure(fault_mlp, workers=2)
        plan = FaultPlan(seed=0, faults=(FaultSpec("worker_crash", at=1),))
        injected = _measure(fault_mlp, workers=2, fault_plan=plan)
        np.testing.assert_array_equal(clean.matrix, injected.matrix)
        assert injected.extras["worker_crashes"] == 1
        assert injected.extras["group_retries"] >= 1
        assert injected.extras["injected_fault_plan"] == plan.describe()

    def test_serial_crash_recovers_bitwise(self, fault_mlp):
        """In-process (serial) execution retries through the same plan."""
        clean = _measure(fault_mlp, workers=1)
        plan = FaultPlan(seed=0, faults=(FaultSpec("worker_crash", at=2),))
        injected = _measure(fault_mlp, workers=1, fault_plan=plan)
        np.testing.assert_array_equal(clean.matrix, injected.matrix)
        assert injected.extras["group_retries"] == 1

    def test_nonfinite_loss_retried(self, fault_mlp):
        clean = _measure(fault_mlp, workers=2)
        plan = FaultPlan(seed=0, faults=(FaultSpec("nonfinite_loss", at=3),))
        injected = _measure(fault_mlp, workers=2, fault_plan=plan)
        np.testing.assert_array_equal(clean.matrix, injected.matrix)
        assert injected.extras["worker_errors"] == 1

    def test_retries_exhausted_is_sweep_failure(self, fault_mlp):
        """A group that fails on every retry must fail loudly and typed."""
        plan = FaultPlan(
            seed=0, faults=(FaultSpec("worker_crash", at=0, times=10),)
        )
        with pytest.raises(SweepFailure) as exc_info:
            _measure(fault_mlp, workers=1, fault_plan=plan, max_retries=2)
        assert exc_info.value.group == 0
        assert exc_info.value.attempts == 3

    def test_crash_fault_consumed_across_requeues(self, fault_mlp):
        """``times=2`` kills two attempts; the third succeeds bitwise."""
        clean = _measure(fault_mlp, workers=2)
        plan = FaultPlan(
            seed=0, faults=(FaultSpec("worker_crash", at=1, times=2),)
        )
        injected = _measure(fault_mlp, workers=2, fault_plan=plan)
        np.testing.assert_array_equal(clean.matrix, injected.matrix)
        assert injected.extras["worker_crashes"] == 2


class _HangInWorker(Module):
    """Identity segment that hangs only inside supervised fork workers."""

    def forward(self, x):
        if in_worker():
            time.sleep(30.0)
        return x


class TestGroupDeadline:
    def test_deadline_rule(self):
        """Before any group completes the floor holds; afterwards the
        deadline is ten times the slowest completed group, never below
        the floor."""
        assert sensitivity._hang_deadline(0.0) == 60.0
        assert sensitivity._hang_deadline(3.6) == 60.0  # largest zoo group
        assert sensitivity._hang_deadline(7.5) == 75.0

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(), reason="needs fork workers"
    )
    def test_hung_workers_killed_and_groups_rerun_serially(self, monkeypatch):
        """docs/robustness.md: with no option set, a worker hung on a group
        is killed at the derived hang deadline and the group re-queued;
        with every worker gone the groups finish serially in the parent,
        bitwise unchanged.  The floor is lowered so the test waits 0.5 s
        instead of 60."""
        rng = np.random.default_rng(4)
        linear = Linear(4, 3, rng=rng)
        model = Sequential(linear, _HangInWorker())
        model.eval()
        table = QuantizedWeightTable(
            [_QLayer(0, "fc0", linear)], QuantConfig(bits=(4, 8))
        )
        x = rng.normal(size=(8, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=8)
        engine = SensitivityEngine(model, table)
        serial = engine.measure(x, y, SensitivityConfig(batch_size=8))
        monkeypatch.setattr(sensitivity, "_HANG_FLOOR_S", 0.5)
        t0 = time.perf_counter()
        pooled = engine.measure(
            x, y, SensitivityConfig(batch_size=8, num_workers=2, max_retries=1)
        )
        assert time.perf_counter() - t0 < 10.0  # killed, not slept out
        e = pooled.extras
        assert e["plan_groups"] == 2
        assert e["deadline_kills"] == 2
        assert e["serial_fallback_groups"] == 2
        np.testing.assert_array_equal(pooled.matrix, serial.matrix)


class TestCheckpointCorruption:
    """Truncated/corrupted resume files restart the sweep, never crash it."""

    def test_corrupted_checkpoint_resume(self, fault_mlp, tmp_path):
        ckpt = tmp_path / "sweep.ckpt.npz"
        clean = _measure(fault_mlp, workers=1)
        # Corrupt every save: whichever save is the last leaves a
        # truncated file on disk, through the production write path.
        plan = FaultPlan(
            seed=5,
            faults=tuple(
                FaultSpec("corrupt_checkpoint", at=k) for k in range(256)
            ),
        )
        first = _measure(fault_mlp, workers=1, fault_plan=plan, checkpoint=ckpt)
        # Corruption affects only the file; the in-memory result is exact.
        np.testing.assert_array_equal(clean.matrix, first.matrix)
        assert ckpt.exists()
        with pytest.raises(Exception):
            with open(ckpt, "rb") as fh, np.load(fh, allow_pickle=False) as blob:
                blob["losses"]
        # Resume sees the damaged file, restarts, and still agrees.
        resumed = _measure(fault_mlp, workers=1, checkpoint=ckpt)
        assert resumed.extras["resumed_evals"] == 0
        np.testing.assert_array_equal(clean.matrix, resumed.matrix)

    def test_intact_checkpoint_still_resumes(self, fault_mlp, tmp_path):
        """Sanity inverse: an uncorrupted checkpoint is actually used."""
        ckpt = tmp_path / "sweep.ckpt.npz"
        first = _measure(fault_mlp, workers=1, checkpoint=ckpt)
        resumed = _measure(fault_mlp, workers=1, checkpoint=ckpt)
        assert resumed.extras["resumed_evals"] > 0
        np.testing.assert_array_equal(first.matrix, resumed.matrix)


class TestSolverLadderFallback:
    def _problem(self, n=5, seed=2):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3 * n, 3 * n))
        return MPQProblem(
            sensitivity=a @ a.T,
            layer_sizes=[50 + 10 * i for i in range(n)],
            bits=(2, 4, 8),
            budget_bits=int(5 * sum(50 + 10 * i for i in range(n))),
        )

    def test_injected_bb_expiry_falls_through(self):
        problem = self._problem()
        plan = FaultPlan(faults=(FaultSpec("solver_deadline", rung="bb"),))
        result = solve_with_fallback(problem, deadline=5.0, fault_plan=plan)
        assert result.size_bits <= problem.budget_bits
        assert result.extras["rung"] in ("qp_round", "greedy")
        assert result.extras["degraded"] is True
        assert result.extras["ladder"][0]["status"] == "deadline_injected"

    def test_greedy_floor_when_upper_rungs_expire(self):
        problem = self._problem()
        plan = FaultPlan(
            faults=(
                FaultSpec("solver_deadline", rung="bb"),
                FaultSpec("solver_deadline", rung="qp_round"),
            )
        )
        result = solve_with_fallback(problem, deadline=5.0, fault_plan=plan)
        assert result.method == "greedy"
        assert result.extras["rung"] == "greedy"
        assert result.size_bits <= problem.budget_bits

    def test_all_rungs_expired_raises_deadline(self):
        problem = self._problem()
        plan = FaultPlan(
            faults=tuple(
                FaultSpec("solver_deadline", rung=r)
                for r in ("bb", "qp_round", "greedy")
            )
        )
        with pytest.raises(DeadlineExpired):
            solve_with_fallback(problem, deadline=5.0, fault_plan=plan)

    def test_clean_ladder_not_degraded(self):
        problem = self._problem(n=3)
        result = solve_with_fallback(problem, deadline=30.0)
        assert result.extras["rung"] == "bb"
        assert result.extras["degraded"] is False

    def test_preexpired_deadline_degrades_straight_to_greedy(self):
        # A coordinator handing over a dead budget must not spin through
        # bb/qp_round just to rediscover the expired clock: the fast path
        # records both upper rungs as pre-expired and lands on greedy.
        problem = self._problem()
        result = solve_with_fallback(problem, deadline=0.0)
        assert result.method == "greedy"
        assert result.size_bits <= problem.budget_bits
        assert result.extras["rung"] == "greedy"
        assert result.extras["degraded"] is True
        assert result.extras["deadline_expired"] is True
        statuses = {e["rung"]: e["status"] for e in result.extras["ladder"]}
        assert statuses["bb"] == "deadline_preexpired"
        assert statuses["qp_round"] == "deadline_preexpired"

    def test_negative_deadline_same_fast_path(self):
        problem = self._problem(n=3)
        result = solve_with_fallback(problem, deadline=-1.5)
        assert result.extras["rung"] == "greedy"
        assert result.extras["ladder"][0]["status"] == "deadline_preexpired"

    def test_preexpired_deadline_with_greedy_fault_raises(self):
        # Even the fast path honours an injected greedy expiry: with no
        # rung left to produce a candidate, the typed error propagates.
        problem = self._problem(n=3)
        plan = FaultPlan(faults=(FaultSpec("solver_deadline", rung="greedy"),))
        with pytest.raises(DeadlineExpired):
            solve_with_fallback(problem, deadline=0.0, fault_plan=plan)


class TestQATNonFinite:
    def test_diverged_qat_raises_at_step(self):
        model, layers, _table, x, y = _mlp_setup()  # private copy: mutated
        x = np.full_like(x, np.nan)  # corrupt batch: loss is NaN at step 0
        with pytest.raises(RuntimeError, match="non-finite loss.*step"):
            qat_finetune(
                model,
                layers,
                [4] * len(layers),
                x,
                y,
                config=QATConfig(epochs=1, batch_size=8, lr=1e3),
            )


def _audited_index(setup):
    """The first plan index the determinism audit of ``setup`` replays."""
    model, _layers, table, x, y = setup
    session = sensitivity.SweepSession(
        SensitivityEngine(model, table), x, y,
        SensitivityConfig(batch_size=8), mode="full",
    )
    return session.plan.audit_specs()[0]


class TestMeasurementFaults:
    """The measurement fault kind: a corrupted *value* (not a crash) that
    only the determinism audit can see.  Deep audit coverage lives in
    test_matrix_health.py; here we pin the fault-plan semantics."""

    def test_new_kinds_accepted(self):
        FaultSpec("outlier_loss", at=3)

    def test_new_kinds_roundtrip_json(self):
        plan = FaultPlan(
            seed=4,
            faults=(
                FaultSpec("outlier_loss", at=3),
                FaultSpec("nonfinite_loss", at=7, times=2),
            ),
        )
        assert FaultPlan.parse(plan.to_json()) == plan

    @pytest.mark.parametrize("times", [2, 3])
    def test_outlier_loss_rejects_more_than_one_time(self, times):
        """Only the sweep's assembly applies an outlier (the audit replays
        without faults), so a second time never fires."""
        with pytest.raises(ValueError, match="outlier_loss"):
            FaultSpec("outlier_loss", at=3, times=times)
        with pytest.raises(ValueError, match="outlier_loss"):
            FaultPlan.parse(
                '{"faults": [{"kind": "outlier_loss", "at": 3, "times": %d}]}'
                % times
            )
        plan = FaultPlan(seed=4, faults=(FaultSpec("outlier_loss", at=3),))
        assert plan.outlier_delta(3) is not None
        assert plan.outlier_delta(4) is None  # other specs untouched

    def test_asymmetric_pair_is_not_a_kind(self):
        """Ĝ is assembled symmetric from its loss table, so no real
        failure is left for an asymmetry fault to model."""
        assert "asymmetric_pair" not in FAULT_KINDS
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("asymmetric_pair")

    def test_outlier_corrupts_matrix_without_health_pass(self, fault_mlp):
        clean = _measure(fault_mlp, workers=1, eval_batch_k=1)
        plan = FaultPlan(seed=4, faults=(FaultSpec("outlier_loss", at=3),))
        injected = _measure(fault_mlp, workers=1, fault_plan=plan, eval_batch_k=1)
        assert not np.array_equal(clean.matrix, injected.matrix)

    def test_env_activation_with_health(self, fault_mlp, monkeypatch):
        """``REPRO_FAULT_PLAN`` drives measurement faults too."""
        index = _audited_index(fault_mlp)
        plan = FaultPlan(seed=4, faults=(FaultSpec("outlier_loss", at=index),))
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
        injected = _measure(fault_mlp, workers=1, eval_batch_k=1, health="warn")
        assert [d[0] for d in injected.health.disagreements] == [index]
        assert injected.extras["injected_fault_plan"] == plan.describe()


class TestFaultPlanActivation:
    def test_roundtrip_json(self):
        plan = FaultPlan(
            seed=9,
            faults=(
                FaultSpec("worker_crash", at=2, times=3),
                FaultSpec("solver_deadline", rung="qp_round"),
            ),
        )
        assert FaultPlan.parse(plan.to_json()) == plan

    def test_env_activation(self, fault_mlp, monkeypatch):
        """``REPRO_FAULT_PLAN`` drives the sweep without code changes."""
        clean = _measure(fault_mlp, workers=1)
        plan = FaultPlan(seed=0, faults=(FaultSpec("worker_crash", at=1),))
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
        injected = _measure(fault_mlp, workers=1)
        np.testing.assert_array_equal(clean.matrix, injected.matrix)
        assert injected.extras["group_retries"] == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("disk_full")


class TestInfeasibleBudgets:
    def test_bb_raises_below_min_size(self):
        rng = np.random.default_rng(1)
        n = 6
        a = rng.normal(size=(n, n))
        p = MPQProblem(a @ a.T, [100, 100], (2, 4, 8), 100)
        with pytest.raises(ValueError):
            solve_branch_and_bound(p)

    def test_clado_rejects_budget_below_min(self):
        model = build_model("resnet_s20", num_classes=4)
        clado = CLADO(model, "resnet_s20", QuantConfig(bits=(2, 4, 8)))
        clado.prepared = True  # bypass measurement; validation is earlier
        clado.matrix = np.zeros(
            (len(clado.layers) * 3, len(clado.layers) * 3)
        )
        with pytest.raises(ValueError, match="below the all-min"):
            clado.allocate(1)
