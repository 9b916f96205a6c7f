"""Failure-injection tests: corrupt inputs must fail loudly, not silently,
a sweep group that raises must fail the sweep at once, dead or hung
workers and damaged checkpoints must be recovered without changing
results, and a solve stopped early must still return a feasible
assignment.

Worker deaths are driven by seeded :class:`repro.robustness.FaultPlan`
schedules through the production injection point, so every crash
reproduces bitwise under ``REPRO_FAULT_PLAN`` (see docs/robustness.md).
Every other failure is real: a candidate whose weights are non-finite, a
checkpoint file cut short on disk.
"""

import multiprocessing as mp
import os
import struct
import time
import zipfile

import numpy as np
import pytest

from repro import telemetry
from repro.core import CLADO, SensitivityConfig, SensitivityEngine
from repro.core import sensitivity
from repro.core.qat import QATConfig, qat_finetune
from repro.models import build_model, quantizable_layers
from repro.nn import Linear, Module, ReLU, Sequential
from repro.quant import QuantConfig, QuantizedWeightTable
from repro.robustness import FAULT_KINDS, FaultPlan, FaultSpec, SweepFailure
from repro.robustness.faults import resolve_fault_plan
from repro.solvers import MPQProblem, solve_branch_and_bound, solve_greedy
from repro.solvers.qp_relax import Relaxation


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
        assert injected.extras["group_retries"] == 1
        assert injected.extras["injected_fault_plan"] == plan.describe()

    def test_serial_crash_recovers_bitwise(self, fault_mlp):
        """A crash fault fires only on fork workers.  With ``times`` at
        least the worker count, every worker dies on the group, and the
        parent finishes it and the rest, bitwise; in-process the same plan
        never fires."""
        clean = _measure(fault_mlp, workers=1)
        plan = FaultPlan(
            seed=0, faults=(FaultSpec("worker_crash", at=2, times=5),)
        )
        injected = _measure(fault_mlp, workers=2, fault_plan=plan)
        np.testing.assert_array_equal(clean.matrix, injected.matrix)
        e = injected.extras
        assert e["worker_crashes"] == 2
        assert e["group_retries"] == 2
        assert e["serial_fallback_groups"] >= 1
        serial = _measure(fault_mlp, workers=1, fault_plan=plan)
        np.testing.assert_array_equal(clean.matrix, serial.matrix)
        assert serial.extras["worker_crashes"] == 0
        assert serial.extras["group_retries"] == 0

    def test_crash_fault_consumed_across_requeues(self, fault_mlp):
        """``times=2`` kills the group's first two dispatches; the third
        worker finishes it, bitwise."""
        clean = _measure(fault_mlp, workers=1)
        plan = FaultPlan(
            seed=0, faults=(FaultSpec("worker_crash", at=1, times=2),)
        )
        injected = _measure(fault_mlp, workers=3, fault_plan=plan)
        np.testing.assert_array_equal(clean.matrix, injected.matrix)
        assert injected.extras["worker_crashes"] == 2
        assert injected.extras["serial_fallback_groups"] == 0


class TestGroupFailure:
    """A group that raises fails the sweep at once: its losses are a fixed
    function of weights and data, so a rerun would raise again."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nonfinite_candidate_fails_once(self, workers, tmp_path, monkeypatch):
        model, _layers, table, x, y = _mlp_setup()  # private copy: mutated
        engine = SensitivityEngine(model, table)
        path = tmp_path / "sweep.ckpt.npz"
        config = SensitivityConfig(
            batch_size=8, num_workers=workers, checkpoint_path=str(path)
        )
        clean = engine.measure(x, y, SensitivityConfig(batch_size=8), mode="full")
        groups = sensitivity.SweepSession(
            engine, x, y, SensitivityConfig(batch_size=8), mode="full"
        ).plan.groups
        # Layer 0 is never a pair partner, so only its own group reads
        # the candidate, and that group runs next to last.
        failing = next(
            gi for gi, g in enumerate(groups) if (g.i, g.m) == (0, 0)
        )
        runs = mp.Array("i", len(groups))  # shared with the fork workers
        run_group = sensitivity.SweepSession.run_group

        def counted(session, group_idx):
            with runs.get_lock():
                runs[group_idx] += 1
            return run_group(session, group_idx)

        monkeypatch.setattr(sensitivity.SweepSession, "run_group", counted)
        candidate = table.quantized(0, 4)
        saved = candidate.copy()
        candidate[...] = np.inf
        with telemetry.start_run("test", manifest_dir=tmp_path) as run:
            with pytest.raises(SweepFailure, match="non-finite") as exc:
                engine.measure(x, y, config, mode="full")
            counters = run.document()["counters"]
        assert exc.value.group == failing
        assert runs[failing] == 1
        assert counters.get("sweep.group_retries", 0) == 0
        assert counters.get("sweep.worker_crashes", 0) == 0

        # The checkpoint holds whole groups finished before the failure;
        # in-process, exactly the groups before it in plan order.
        with open(path, "rb") as fh, np.load(fh) as blob:
            saved_indices = {int(i) for i in blob["indices"]}
        finished = [
            {spec.index for spec in g.specs()}
            for g in groups
            if {spec.index for spec in g.specs()} & saved_indices
        ]
        assert set().union(*finished) == saved_indices
        assert not {spec.index for spec in groups[failing].specs()} & saved_indices
        if workers == 1:
            assert len(finished) == failing

        candidate[...] = saved
        resumed = engine.measure(x, y, config, mode="full")
        assert resumed.extras["resumed_evals"] == len(saved_indices)
        np.testing.assert_array_equal(resumed.matrix, clean.matrix)
        np.testing.assert_array_equal(resumed.single_losses, clean.single_losses)


class _HangInWorker(Module):
    """Identity segment that hangs only outside the process that built it,
    that is inside a supervised fork worker."""

    def __init__(self) -> None:
        super().__init__()
        self.parent_pid = os.getpid()

    def forward(self, x):
        if os.getpid() != self.parent_pid:
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
            x, y, SensitivityConfig(batch_size=8, num_workers=2)
        )
        assert time.perf_counter() - t0 < 10.0  # killed, not slept out
        e = pooled.extras
        assert e["plan_groups"] == 2
        assert e["deadline_kills"] == 2
        assert e["group_retries"] == 2
        assert e["serial_fallback_groups"] == 2
        np.testing.assert_array_equal(pooled.matrix, serial.matrix)


class TestCheckpointCorruption:
    """Truncated/corrupted resume files restart the sweep, never crash it."""

    def test_corrupted_checkpoint_resume(self, fault_mlp, tmp_path):
        ckpt = tmp_path / "sweep.ckpt.npz"
        clean = _measure(fault_mlp, workers=1)
        first = _measure(fault_mlp, workers=1, checkpoint=ckpt)
        np.testing.assert_array_equal(clean.matrix, first.matrix)
        # Cut the written file short, as a disk that lost its tail would.
        data = ckpt.read_bytes()
        ckpt.write_bytes(data[: len(data) * 2 // 5])
        with pytest.raises(Exception):
            with open(ckpt, "rb") as fh, np.load(fh, allow_pickle=False) as blob:
                blob["losses"]
        # Resume sees the damaged file, restarts, and still agrees.
        with telemetry.start_run("test", manifest_dir=tmp_path) as run:
            resumed = _measure(fault_mlp, workers=1, checkpoint=ckpt)
            counters = run.document()["counters"]
        assert resumed.extras["resumed_evals"] == 0
        assert counters.get("checkpoint.truncated", 0) == 1
        np.testing.assert_array_equal(clean.matrix, resumed.matrix)

    def test_flipped_payload_bit_counts_as_corrupt(self, fault_mlp, tmp_path):
        """A complete file whose ``losses`` payload has one flipped bit
        fails its CRC-32 as the member is read: corrupt, not truncated."""
        ckpt = tmp_path / "sweep.ckpt.npz"
        clean = _measure(fault_mlp, workers=1)
        _measure(fault_mlp, workers=1, checkpoint=ckpt)
        with zipfile.ZipFile(ckpt) as archive:
            info = archive.getinfo("losses.npy")
        assert info.compress_type == zipfile.ZIP_STORED
        data = bytearray(ckpt.read_bytes())
        # A local file header is 30 bytes, then the member's name and
        # extra field, then its stored bytes; the last 8 are the last loss
        # (little-endian float64), whose lowest mantissa bit flips.
        name_len, extra_len = struct.unpack_from(
            "<HH", data, info.header_offset + 26
        )
        end = info.header_offset + 30 + name_len + extra_len + info.file_size
        data[end - 8] ^= 0x01
        ckpt.write_bytes(bytes(data))
        with telemetry.start_run("test", manifest_dir=tmp_path) as run:
            resumed = _measure(fault_mlp, workers=1, checkpoint=ckpt)
            counters = run.document()["counters"]
        assert counters.get("checkpoint.corrupt", 0) == 1
        assert counters.get("checkpoint.truncated", 0) == 0
        assert resumed.extras["resumed_evals"] == 0
        np.testing.assert_array_equal(clean.matrix, resumed.matrix)

    def test_intact_checkpoint_still_resumes(self, fault_mlp, tmp_path):
        """Sanity inverse: an uncorrupted checkpoint is actually used."""
        ckpt = tmp_path / "sweep.ckpt.npz"
        first = _measure(fault_mlp, workers=1, checkpoint=ckpt)
        resumed = _measure(fault_mlp, workers=1, checkpoint=ckpt)
        assert resumed.extras["resumed_evals"] > 0
        np.testing.assert_array_equal(first.matrix, resumed.matrix)


class TestSolverFloor:
    """Branch-and-bound builds the greedy incumbent before any relaxation,
    so a solve that a cap or a numerical failure stops still returns a
    feasible assignment, marked ``degraded``."""

    def _problem(self, n=5, seed=2):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3 * n, 3 * n))
        return MPQProblem(
            sensitivity=a @ a.T,
            layer_sizes=[50 + 10 * i for i in range(n)],
            bits=(2, 4, 8),
            budget_bits=int(5 * sum(50 + 10 * i for i in range(n))),
        )

    def test_node_capped_solve_is_degraded(self):
        problem = self._problem()
        result = solve_branch_and_bound(problem, max_nodes=1)
        assert problem.is_feasible(result.choice)
        assert not result.optimal
        assert result.extras["degraded"] is True
        assert result.objective <= solve_greedy(problem).objective

    def test_zero_time_limit_returns_greedy_incumbent(self):
        problem = self._problem()
        result = solve_branch_and_bound(problem, time_limit=0.0)
        assert np.array_equal(result.choice, solve_greedy(problem).choice)
        assert result.nodes == 0
        assert result.extras["degraded"] is True

    def test_finished_solve_not_degraded(self):
        """A finished search is not degraded, certified or not."""
        problem = self._problem(n=3)
        result = solve_branch_and_bound(problem)
        assert result.optimal
        assert result.extras["degraded"] is False
        uncertified = solve_branch_and_bound(problem, assume_psd=False)
        assert not uncertified.optimal
        assert uncertified.extras["degraded"] is False

    def test_linalg_error_returns_greedy_incumbent(self, monkeypatch):
        def singular(self, *args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(Relaxation, "solve", singular)
        problem = self._problem()
        result = solve_branch_and_bound(problem)
        assert np.array_equal(result.choice, solve_greedy(problem).choice)
        assert not result.optimal
        assert result.lower_bound is None
        assert result.extras["degraded"] is True
        assert "LinAlgError" in result.message


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
                FaultSpec("worker_crash", at=7, times=2),
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

    def test_solver_deadline_is_not_a_kind(self):
        """Branch-and-bound's own caps stop a solve, which then returns its
        best incumbent, so there is no solver deadline to inject."""
        assert FAULT_KINDS == ("worker_crash", "outlier_loss")
        assert "solver_deadline" not in FAULT_KINDS
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse('{"faults": [{"kind": "solver_deadline"}]}')

    def test_outlier_corrupts_matrix_without_health_pass(self, fault_mlp):
        clean = _measure(fault_mlp, workers=1)
        plan = FaultPlan(seed=4, faults=(FaultSpec("outlier_loss", at=3),))
        injected = _measure(fault_mlp, workers=1, fault_plan=plan)
        assert not np.array_equal(clean.matrix, injected.matrix)

    def test_env_activation_with_health(self, fault_mlp, monkeypatch):
        """``REPRO_FAULT_PLAN`` drives measurement faults too."""
        index = _audited_index(fault_mlp)
        plan = FaultPlan(seed=4, faults=(FaultSpec("outlier_loss", at=index),))
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
        injected = _measure(fault_mlp, workers=1, health="warn")
        assert [d[0] for d in injected.health.disagreements] == [index]
        assert injected.extras["injected_fault_plan"] == plan.describe()


class TestFaultPlanActivation:
    def test_roundtrip_json(self):
        plan = FaultPlan(
            seed=9,
            faults=(
                FaultSpec("worker_crash", at=2, times=3),
                FaultSpec("outlier_loss", at=1),
            ),
        )
        assert FaultPlan.parse(plan.to_json()) == plan

    def test_env_activation(self, fault_mlp, monkeypatch):
        """``REPRO_FAULT_PLAN`` drives the sweep without code changes."""
        clean = _measure(fault_mlp, workers=1)
        plan = FaultPlan(seed=0, faults=(FaultSpec("worker_crash", at=1),))
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
        injected = _measure(fault_mlp, workers=2)
        np.testing.assert_array_equal(clean.matrix, injected.matrix)
        assert injected.extras["worker_crashes"] == 1
        assert injected.extras["group_retries"] == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("disk_full")

    @pytest.mark.parametrize(
        "kind",
        [
            "nonfinite_loss",
            "corrupt_checkpoint",
            "truncated_artifact",
            "checksum_flip",
            "stale_writer_lock",
            "fingerprint_mismatch",
        ],
    )
    def test_removed_kinds_are_unknown(self, kind, fault_mlp, monkeypatch):
        """A non-finite candidate and a damaged file are reached for real
        (a test writes them), so no fault kind simulates them."""
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind)
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN", '{"faults": [{"kind": "%s", "at": 0}]}' % kind
        )
        with pytest.raises(ValueError, match="unknown fault kind"):
            resolve_fault_plan()
        with pytest.raises(ValueError, match="unknown fault kind"):
            _measure(fault_mlp, workers=1)


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
