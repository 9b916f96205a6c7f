"""Measurement-integrity tests: the determinism audit of Ĝ (see
docs/robustness.md).

A fixed sample of plan specs is replayed after assembly and must repeat
the sweep's losses bit for bit.  Seeded ``outlier_loss`` faults plant a
loss no replay repeats: the audit reports it, the strict gate refuses
it, and nothing rewrites a loss or the matrix.  On every zoo model the
audit of a clean sweep agrees everywhere, at every worker count.
"""

import hashlib
import warnings

import numpy as np
import pytest

from repro import telemetry
from repro.core import CLADO, SensitivityEngine, setup_activation_quant
from repro.core.api import SensitivityConfig, SolverConfig
from repro.core.psd import psd_project
from repro.core.sensitivity import SweepSession, assemble_from_losses
from repro.experiments import model_quant_config
from repro.models import MODEL_REGISTRY, build_model, quantizable_layers
from repro.nn import Linear, ReLU, Sequential
from repro.quant import QuantConfig, QuantizedWeightTable
from repro.robustness import (
    DeterminismAudit,
    FaultPlan,
    FaultSpec,
    UnhealthyMatrixError,
    cancellation_flags,
)


def _wishart(n=12, seed=0):
    """A clean, well-conditioned PSD matrix (off-diag median near zero)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 2 * n))
    return (a @ a.T) / (2 * n)


class TestCancellationFlags:
    def test_cancelled_quad_flagged(self):
        # pair + base == single_i + single_j to the last bit: Ω is noise.
        quads = [((0, 1), 0.5, 0.5, 0.7, 0.3), ((0, 2), 0.9, 0.5, 0.7, 0.3)]
        assert cancellation_flags(quads) == ((0, 1),)

    def test_near_cancellation_within_eps(self):
        quads = [((2, 5), 0.5, 0.5 + 1e-14, 0.7, 0.3)]
        assert cancellation_flags(quads, eps=1e-12) == ((2, 5),)
        assert cancellation_flags(quads, eps=1e-16) == ()

    def test_keys_canonicalized(self):
        quads = [((5, 2), 0.5, 0.5, 0.7, 0.3)]
        assert cancellation_flags(quads) == ((2, 5),)


class TestDeterminismAuditReport:
    def test_healthy_iff_no_disagreement(self):
        clean = DeterminismAudit(audited=(1, 4, 9))
        assert clean.healthy and clean.remeasured == 3
        bad = DeterminismAudit(audited=(1, 4, 9), disagreements=((4, 1.5, 1.25),))
        assert not bad.healthy and bad.remeasured == 3

    def test_dict_roundtrip_is_json_safe(self):
        import json

        report = DeterminismAudit(
            audited=(1, 4, 9),
            disagreements=((4, 1.5, 1.25),),
            cancellation=((0, 3), (2, 5)),
        )
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["healthy"] is False
        assert (doc["audited"], doc["disagreed"], doc["cancelled"]) == (3, 1, 2)
        assert DeterminismAudit.from_dict(doc) == report


class TestPsdSvdFallback:
    @pytest.fixture(autouse=True)
    def _telemetry(self):
        telemetry.disable()
        telemetry.reset()
        telemetry.enable()
        yield
        telemetry.disable()
        telemetry.reset()

    def test_eigh_failure_recovers_via_svd(self, monkeypatch):
        def _diverges(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", _diverges)
        m = _wishart(n=6)
        projected = psd_project(m)
        # A PSD input must survive the fallback path (nearly) unchanged.
        np.testing.assert_allclose(projected, m, rtol=1e-9, atol=1e-10)
        assert telemetry.counters_snapshot()["psd.fallback"] >= 1

    def test_fallback_clips_negative_eigenvalues(self, monkeypatch):
        def _diverges(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", _diverges)
        m = _wishart(n=6) - 1.5 * np.eye(6)  # make it indefinite
        projected = psd_project(m)
        eigvals = np.linalg.eigvalsh(projected)
        assert eigvals.min() >= -1e-9


class _QLayer:
    def __init__(self, idx, name, module):
        self.index, self.name, self.module = idx, name, module

    @property
    def weight(self):
        return self.module.weight

    @property
    def num_params(self):
        return self.module.weight.size


def _mlp_setup(num_linear=4, dim=6, num_classes=3, seed=0):
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
def health_mlp():
    return _mlp_setup()


def _session(setup, **overrides):
    model, _layers, table, x, y = setup
    config = SensitivityConfig(batch_size=8, **overrides)
    return SweepSession(SensitivityEngine(model, table), x, y, config, mode="full")


def _audited(setup):
    """The plan indices the audit of ``setup``'s full sweep re-measures."""
    return _session(setup).plan.audit_specs()


def _outlier(index):
    return FaultPlan(seed=3, faults=(FaultSpec("outlier_loss", at=index),))


def _measure(setup, fault_plan=None, **kwargs):
    model, _layers, table, x, y = setup
    config = SensitivityConfig(
        batch_size=8,
        fault_plan=fault_plan,
        **kwargs,
    )
    return SensitivityEngine(model, table).measure(x, y, config, mode="full")


class TestAuditSample:
    def test_sixteen_sorted_indices_of_the_plan(self, health_mlp):
        plan = _session(health_mlp).plan
        audited = plan.audit_specs()
        assert plan.num_evals > 16
        assert len(audited) == 16 == len(set(audited))
        assert list(audited) == sorted(audited)
        assert set(audited) <= {s.index for s in plan.specs()}
        assert plan.audit_specs() == audited

    def test_small_plan_audits_every_spec(self, health_mlp):
        model, layers, table, x, y = health_mlp
        session = SweepSession(
            SensitivityEngine(model, table), x, y,
            SensitivityConfig(batch_size=8), mode="diagonal",
        )
        assert session.plan.num_evals == 8
        assert session.plan.audit_specs() == tuple(range(8))


class TestEngineQuarantine:
    """End-to-end through the sweep engine: the audit reports a loss that
    does not repeat (its ``quarantined`` count) and repairs nothing."""

    def test_health_off_by_default(self, health_mlp):
        result = _measure(health_mlp)
        assert result.health is None
        assert "health" not in result.extras

    def test_invalid_health_mode_rejected(self, health_mlp):
        with pytest.raises(ValueError, match="health"):
            _measure(health_mlp, health="loud")

    def test_clean_run_unchanged_by_health_pass(self, health_mlp):
        """Every audited replay repeats its loss, and the matrix is the
        health-off matrix bit for bit."""
        clean = _measure(health_mlp)
        checked = _measure(health_mlp, health="warn")
        np.testing.assert_array_equal(clean.matrix, checked.matrix)
        assert isinstance(checked.health, DeterminismAudit)
        assert checked.health.healthy
        assert checked.health.audited == _audited(health_mlp)
        assert checked.health.remeasured == 16
        assert checked.extras["health"] == checked.health.to_dict()

    def test_outlier_on_audited_spec_reported_not_repaired(self, health_mlp):
        index = _audited(health_mlp)[0]
        plan = _outlier(index)
        unchecked = _measure(health_mlp, fault_plan=plan)
        checked = _measure(health_mlp, fault_plan=plan, health="warn")
        report = checked.health
        assert not report.healthy
        assert [d[0] for d in report.disagreements] == [index]
        _, sweep, replay = report.disagreements[0]
        assert sweep != replay
        assert checked.extras["health"]["disagreed"] == 1
        # Nothing was repaired: Ĝ is the health-off Ĝ under the same plan.
        np.testing.assert_array_equal(checked.matrix, unchecked.matrix)
        np.testing.assert_array_equal(
            checked.single_losses, unchecked.single_losses
        )

    def test_outlier_outside_the_sample_goes_unseen(self, health_mlp):
        """The audit is a sample: a spec it does not replay is not checked."""
        unaudited = next(
            s.index for s in _session(health_mlp).plan.specs()
            if s.index not in _audited(health_mlp)
        )
        checked = _measure(health_mlp, fault_plan=_outlier(unaudited), health="warn")
        assert checked.health.healthy

    def test_audit_rewrites_no_loss(self, health_mlp):
        index = _audited(health_mlp)[0]
        session = _session(health_mlp, fault_plan=_outlier(index), health="warn")
        losses = {}
        with session.no_grad():
            for gi in range(len(session.plan.groups)):
                losses.update(session.run_group(gi)[0])
            matrix, single = session.assemble(losses)
            before = dict(losses)
            report = session.audit(losses)
        assert losses == before
        assert report.disagreements[0][:2] == (index, before[index])
        want, want_single = assemble_from_losses(
            session.plan, losses, session.base_loss
        )
        np.testing.assert_array_equal(matrix, want)
        np.testing.assert_array_equal(single, want_single)

    def test_undetected_without_health_pass(self, health_mlp):
        """Sanity inverse: the same fault silently corrupts Ĝ when the
        audit is off — the reason this subsystem exists."""
        clean = _measure(health_mlp)
        plan = _outlier(_audited(health_mlp)[0])
        injected = _measure(health_mlp, fault_plan=plan)
        assert not np.array_equal(clean.matrix, injected.matrix)


class TestCladoHealthGates:
    """--health warn/strict gating at the allocator level."""

    def _clado(self, setup, **overrides):
        model, layers, _table, x, y = setup
        config = SensitivityConfig(
            batch_size=8,
            num_workers=1,
            **overrides,
        )
        algo = CLADO(
            model, "mlp", QuantConfig(bits=(4, 8)), layers=layers,
            sensitivity=config,
        )
        return algo, x, y

    def test_strict_unrepaired_raises_unhealthy(self, health_mlp):
        index = _audited(health_mlp)[0]
        algo, x, y = self._clado(
            health_mlp, fault_plan=_outlier(index), health="strict"
        )
        with pytest.raises(UnhealthyMatrixError) as exc_info:
            algo.prepare(x, y)
        record = exc_info.value.record
        assert record["healthy"] is False
        assert [d[0] for d in record["disagreements"]] == [index]
        assert not algo.prepared

    def test_warn_mode_warns_and_proceeds(self, health_mlp):
        plan = _outlier(_audited(health_mlp)[0])
        unchecked, x, y = self._clado(health_mlp, fault_plan=plan)
        unchecked.prepare(x, y)
        algo, x, y = self._clado(health_mlp, fault_plan=plan, health="warn")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            algo.prepare(x, y)
        unhealthy = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(unhealthy) == 1 and "unhealthy" in str(unhealthy[0].message)
        assert algo.prepared
        np.testing.assert_array_equal(algo.raw.matrix, unchecked.raw.matrix)
        layer_bits = sum(l.num_params for l in algo.layers)
        result = algo.allocate(
            int(layer_bits * 8), solver=SolverConfig(time_limit=5.0)
        )
        assert result.assignment.extras["health"]["healthy"] is False

    def test_strict_clean_run_allocates(self, health_mlp):
        algo, x, y = self._clado(health_mlp, health="strict")
        algo.prepare(x, y)
        record = algo.health_record
        assert record["healthy"] is True
        assert record["audited"] == 16 and record["disagreed"] == 0
        for key in ("pre_psd_violation", "post_psd_violation",
                    "pre_condition_number", "post_condition_number"):
            assert key in record


#: Ĝ sha256 of (matrix, single losses, base loss), first 16 hex digits, of
#: each untrained zoo model's health-off sweep (16 samples, batch 8, full
#: mode, 8-bit activations calibrated on the set; unchanged since PR 22).
ZOO_DIGESTS = {
    "mobilenet_s": "98e7424f2f1e8dc8",
    "regnet_s": "51a7632539cdd23e",
    "resnet_s20": "abf992789da0e70a",
    "resnet_s34": "5c7a90eb19b6a1f6",
    "resnet_s50": "ed0c7f2950908951",
    "vit_s": "a7b24c313b4893ad",
}
ZOO_WORKERS = (1, 2)


@pytest.fixture(scope="module", params=sorted(MODEL_REGISTRY))
def zoo_audits(request):
    """``(name, plan, {workers: result})`` of health="warn" sweeps of one
    untrained zoo model."""
    name = request.param
    rng = np.random.default_rng(7)
    model = build_model(name, num_classes=10)
    model.eval()
    layers = quantizable_layers(model, name)
    config = model_quant_config(name)
    table = QuantizedWeightTable(layers, config)
    x = rng.standard_normal((16, 3, 32, 32)).astype(np.float32)
    y = rng.integers(0, 10, size=16)
    setup_activation_quant(model, layers, x, bits=config.act_bits)
    engine = SensitivityEngine(model, table)
    results = {
        w: engine.measure(
            x, y,
            SensitivityConfig(batch_size=8, num_workers=w, health="warn"),
            mode="full",
        )
        for w in ZOO_WORKERS
    }
    plan = SweepSession(
        engine, x, y, SensitivityConfig(batch_size=8), mode="full"
    ).plan
    return name, plan, results


class TestZooAudit:
    """Every zoo model at ``num_workers`` {1, 2}: the audit agrees
    everywhere and Ĝ is the health-off Ĝ."""

    def test_health_checked_matrix_is_the_health_off_matrix(self, zoo_audits):
        name, _plan, results = zoo_audits
        for config, result in results.items():
            h = hashlib.sha256()
            for array in (result.matrix, result.single_losses,
                          np.float64(result.base_loss)):
                h.update(np.ascontiguousarray(array).tobytes())
            assert h.hexdigest()[:16] == ZOO_DIGESTS[name], config

    def test_audit_agrees_on_the_same_sample(self, zoo_audits):
        _name, plan, results = zoo_audits
        for config, result in results.items():
            assert result.health.healthy, (config, result.health.disagreements)
            assert result.health.audited == plan.audit_specs(), config
