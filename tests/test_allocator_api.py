"""Unified allocator API: typed configs, AllocationResult, the factory."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    ALGORITHM_KINDS,
    CLADO,
    HAWQ,
    AllocationResult,
    InfeasibleBudgetError,
    SensitivityConfig,
    SolverConfig,
    build_algorithm,
    upq_assignment,
)
from repro.core.baselines import MPQCO
from repro.data import make_dataset
from repro.models import build_model
from repro.quant import QuantConfig

CFG = QuantConfig(bits=(2, 4, 8))


@pytest.fixture(scope="module")
def small_setup():
    ds = make_dataset(num_classes=4, image_size=16)
    model = build_model("resnet_s20", num_classes=4)
    model.eval()
    x, y = ds.sample(24, seed=5)
    return model, x, y


class TestSensitivityConfig:
    def test_defaults_are_auto_single_worker(self):
        cfg = SensitivityConfig()
        assert cfg.num_workers == 1
        assert cfg.checkpoint_path is None

    def test_frozen(self):
        cfg = SensitivityConfig()
        with pytest.raises(Exception):
            cfg.num_workers = 2

    def test_with_overrides(self):
        cfg = SensitivityConfig().with_overrides(num_workers=4, health="warn")
        assert cfg.num_workers == 4
        assert cfg.health == "warn"
        assert cfg.batch_size == SensitivityConfig().batch_size

    def test_with_overrides_rejects_unknown(self):
        with pytest.raises(TypeError):
            SensitivityConfig().with_overrides(bogus=1)

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_rejects_nonpositive_batch_size(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            SensitivityConfig(batch_size=batch_size)
        with pytest.raises(ValueError, match="batch_size"):
            SensitivityConfig().with_overrides(batch_size=batch_size)

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError, match="num_workers"):
            SensitivityConfig(num_workers=-3)
        assert SensitivityConfig(num_workers=0).num_workers == 0  # auto

    def test_field_names(self):
        assert [f.name for f in dataclasses.fields(SensitivityConfig)] == [
            "batch_size",
            "num_workers",
            "checkpoint_path",
            "fault_plan",
            "health",
            "probes",
            "seed",
        ]

    @pytest.mark.parametrize(
        "name",
        [
            "cache_budget",
            "cache_bytes",
            "group_deadline",
            "checkpoint_every",
            "health_rounds",
            "health_repair",
            "eval_batch_k",
            "max_retries",
        ],
    )
    def test_removed_fields_rejected(self, name):
        """The prefix cache keeps every cut its plan replays from, the
        hang deadline derives from the groups already timed, the
        checkpoint saves once per group, the determinism audit has no
        rounds to budget and nothing to repair, every sweep replay is
        plain, and a group that raises fails the sweep without a retry:
        none of these is an option."""
        with pytest.raises(TypeError):
            SensitivityConfig(**{name: 1})
        with pytest.raises(TypeError):
            SensitivityConfig().with_overrides(**{name: 1})


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.method == "auto"
        assert cfg.time_limit == 20.0

    def test_with_overrides(self):
        cfg = SolverConfig().with_overrides(max_nodes=5)
        assert cfg.max_nodes == 5
        assert cfg.method == "auto"

    def test_field_names(self):
        """Branch-and-bound's ``time_limit`` is the one solver deadline."""
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "method", "time_limit", "max_nodes", "gap_tol", "assume_psd",
            "options",
        ]
        with pytest.raises(TypeError):
            SolverConfig(deadline=1)


class TestBuildAlgorithm:
    def test_kinds_registry_complete(self):
        assert set(ALGORITHM_KINDS) == {
            "clado",
            "clado_star",
            "clado_block",
            "clado_nopsd",
            "hawq",
            "mpqco",
        }

    def test_builds_each_kind(self, small_setup):
        model, _, _ = small_setup
        for kind in ALGORITHM_KINDS:
            algo = build_algorithm(kind, model, "resnet_s20", CFG)
            assert algo.model is model
            assert algo.sensitivity_config == SensitivityConfig()

    def test_unknown_kind_raises(self, small_setup):
        model, _, _ = small_setup
        with pytest.raises((KeyError, ValueError)):
            build_algorithm("frobnicate", model, "resnet_s20", CFG)

    def test_sensitivity_config_threaded_through(self, small_setup):
        model, _, _ = small_setup
        sens = SensitivityConfig(num_workers=2, health="warn")
        algo = build_algorithm("clado", model, "resnet_s20", CFG, sensitivity=sens)
        assert algo.sensitivity_config is sens


class TestAllocationResult:
    @pytest.fixture(scope="class")
    def result(self, small_setup):
        model, x, y = small_setup
        algo = build_algorithm(
            "clado_star",
            model,
            "resnet_s20",
            CFG,
            sensitivity=SensitivityConfig(),
        )
        algo.prepare(x, y)
        budget = int(algo.layer_sizes().sum()) * 4
        return algo, algo.allocate(budget, solver=SolverConfig(time_limit=5.0))

    def test_typed_fields(self, result):
        _, res = result
        assert isinstance(res, AllocationResult)
        assert res.solver_method
        assert res.solver_status in {"optimal", "incumbent", "heuristic"}
        assert res.achieved_size_bits <= res.budget_bits
        assert 0.0 < res.utilization <= 1.0
        assert res.solve_seconds >= 0.0

    def test_delegation_to_assignment(self, result):
        _, res = result
        # Legacy attributes pass through to the wrapped MPQAssignment.
        assert list(res.bits) == list(res.assignment.bits)
        assert res.size_bits == res.assignment.size_bits
        assert res.predicted_loss_increase == res.assignment.predicted_loss_increase

    def test_unknown_attribute_raises(self, result):
        _, res = result
        with pytest.raises(AttributeError):
            res.definitely_not_an_attribute

    def test_no_manifest_without_run(self, result):
        _, res = result
        assert res.manifest_path is None

    def test_manifest_linked_inside_run(self, result, tmp_path):
        from repro import telemetry

        algo, _ = result
        budget = int(algo.layer_sizes().sum()) * 4
        with telemetry.start_run("api-test", manifest_dir=tmp_path) as run:
            res = algo.allocate(budget, solver=SolverConfig(time_limit=5.0))
            assert res.manifest_path is not None
        assert str(run.path) == res.manifest_path
        doc = telemetry.load_manifest(run.path)
        assert doc["results"]["budget_bits"] == budget
        assert doc["results"]["solver_degraded"] is False


class TestLegacyShims:
    def test_hawq_probes_ctor_kwarg_warns(self, small_setup):
        """HAWQ's probe count comes from its SensitivityConfig."""
        model, _, _ = small_setup
        algo = HAWQ(
            model, "resnet_s20", CFG, sensitivity=SensitivityConfig(probes=2)
        )
        assert algo.sensitivity_config.probes == 2
        assert algo.probes == 2

    def test_prepare_unknown_kwarg_rejected(self, small_setup):
        model, x, y = small_setup
        algo = build_algorithm("clado_star", model, "resnet_s20", CFG)
        with pytest.raises(TypeError):
            algo.prepare(x, y, utterly_unknown=True)


class TestInfeasibleBudget:
    def test_allocate_raises_typed_error(self, small_setup):
        model, x, y = small_setup
        algo = build_algorithm("clado_star", model, "resnet_s20", CFG)
        algo.prepare(x, y)
        with pytest.raises(InfeasibleBudgetError) as excinfo:
            algo.allocate(1)
        err = excinfo.value
        assert isinstance(err, ValueError)  # old except-clauses still catch it
        assert err.budget_bits == 1
        assert err.min_size_bits is not None and err.min_size_bits > 1

    def test_upq_assignment_raises(self):
        sizes = np.array([10, 10])
        with pytest.raises(InfeasibleBudgetError):
            upq_assignment(sizes, (2, 4, 8), budget_bits=1)

    def test_mpqco_inherits_typed_error(self, small_setup):
        model, x, y = small_setup
        algo = MPQCO(model, "resnet_s20", CFG)
        algo.prepare(x, y)
        with pytest.raises(InfeasibleBudgetError):
            algo.allocate(1)
