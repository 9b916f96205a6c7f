"""Measurement-integrity tests: Ĝ health detection, quarantine-and-
remeasure, and the structural repair ladder (see docs/robustness.md).

Detection and ladder rungs are unit-tested on synthetic matrices;
quarantine is exercised end-to-end through the sweep engine with seeded
``FaultPlan`` corruption, asserting the repaired matrix is *bitwise*
identical to a clean run: a plain re-measurement reproduces every loss
the sweep measured, at width 1 and at the auto stack width alike.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core import CLADO, SensitivityEngine
from repro.core.api import SensitivityConfig, SolverConfig
from repro.core.psd import psd_project
from repro.core.sensitivity import SweepSession
from repro.models import build_model, quantizable_layers
from repro.nn import Linear, ReLU, Sequential
from repro.quant import QuantConfig, QuantizedWeightTable
from repro.robustness import (
    REPAIR_RUNGS,
    FaultPlan,
    FaultSpec,
    GMatrixHealth,
    HealthPolicy,
    UnhealthyMatrixError,
    cancellation_flags,
    diagnose_matrix,
    repair_ladder,
)


def _wishart(n=12, seed=0):
    """A clean, well-conditioned PSD matrix (off-diag median near zero)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 2 * n))
    return (a @ a.T) / (2 * n)


class TestHealthPolicy:
    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError, match="remeasure_rounds"):
            HealthPolicy(remeasure_rounds=-1)

    @pytest.mark.parametrize("factor", [-0.1, 1.0, 2.0])
    def test_shrink_factor_range_enforced(self, factor):
        with pytest.raises(ValueError, match="shrink_factor"):
            HealthPolicy(shrink_factor=factor)

    def test_agrees_tolerances(self):
        policy = HealthPolicy()
        assert policy.agrees(1.0, 1.0)
        assert policy.agrees(1.0, 1.0 + 1e-13)
        assert not policy.agrees(1.0, 1.0 + 1e-6)
        assert not policy.agrees(1.0, float("nan"))
        assert not policy.agrees(float("inf"), float("inf"))


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


class TestDiagnoseMatrix:
    def test_clean_matrix_healthy(self):
        report = diagnose_matrix(_wishart())
        assert report.healthy
        assert report.flagged == frozenset()
        assert np.isfinite(report.condition_number)
        assert report.psd_neg_mass == pytest.approx(0.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            diagnose_matrix(np.zeros((3, 4)))

    def test_nonfinite_detected(self):
        m = _wishart()
        m[2, 5] = np.nan
        report = diagnose_matrix(m)
        assert (2, 5) in report.nonfinite
        assert not report.healthy
        # Conditioning is meaningless with NaNs in the matrix.
        assert np.isnan(report.condition_number)

    def test_asymmetry_detected(self):
        m = _wishart()
        sigma = diagnose_matrix(_wishart()).scale[1]
        m[1, 4] += 10.0 * sigma  # one direction only
        report = diagnose_matrix(m)
        assert (1, 4) in report.asymmetric
        assert not report.healthy

    def test_offdiag_outlier_detected(self):
        m = _wishart()
        sigma = diagnose_matrix(_wishart()).scale[1]
        m[0, 3] = m[3, 0] = m[0, 3] + 40.0 * sigma  # symmetric corruption
        report = diagnose_matrix(m)
        assert (0, 3) in report.outliers
        assert (0, 3) not in report.asymmetric

    def test_diagonal_outlier_detected(self):
        m = _wishart()
        m[7, 7] *= 1e6
        report = diagnose_matrix(m)
        assert (7, 7) in report.outliers

    def test_dominance_violation_detected(self):
        m = _wishart()
        # Blow the Cauchy–Schwarz bound |G_ij| <= sqrt(G_ii G_jj) wide open.
        m[2, 6] = m[6, 2] = 50.0 * np.sqrt(m[2, 2] * m[6, 6])
        report = diagnose_matrix(m)
        assert (2, 6) in report.dominance

    def test_confirmed_entries_not_reflagged(self):
        m = _wishart()
        sigma = diagnose_matrix(_wishart()).scale[1]
        m[1, 4] += 10.0 * sigma
        report = diagnose_matrix(m, confirmed=frozenset({(1, 4)}))
        assert (1, 4) in report.asymmetric  # still reported...
        assert (1, 4) not in report.flagged  # ...but cleared by quarantine
        assert report.healthy

    def test_measured_restricts_scan(self):
        m = _wishart()
        sigma = diagnose_matrix(_wishart()).scale[1]
        m[2, 3] += 10.0 * sigma
        report = diagnose_matrix(m, measured=[(0, 1)])
        assert report.num_measured == 1
        assert (2, 3) not in report.flagged

    def test_frozen_scale_reused(self):
        m = _wishart()
        baseline = diagnose_matrix(m)
        report = diagnose_matrix(m, scale=baseline.scale)
        assert report.scale == baseline.scale

    def test_persistent_entries_stay_flagged(self):
        report = diagnose_matrix(_wishart())
        assert report.healthy
        report.persistent = {(0, 1): 3.5}
        assert (0, 1) in report.flagged
        assert not report.healthy

    def test_to_dict_is_json_safe(self):
        import json

        m = _wishart()
        m[1, 4] += 100.0
        report = diagnose_matrix(m)
        blob = report.to_dict(max_listed=4)
        json.dumps(blob)  # must not raise
        assert blob["healthy"] is False
        assert len(blob["flagged_entries"]) <= 4


class TestRepairLadder:
    def _policy(self):
        return HealthPolicy()

    def test_clean_matrix_rung_none(self):
        m = _wishart()
        health = diagnose_matrix(m)
        repaired, record = repair_ladder(m, health, self._policy())
        assert record["rung"] == "none"
        assert record["healthy"] is True
        assert record["ladder"] == []
        np.testing.assert_array_equal(repaired, m)

    def test_symmetric_average_heals_mild_asymmetry(self):
        m = _wishart()
        sigma = diagnose_matrix(_wishart()).scale[1]
        m[1, 4] += 10.0 * sigma  # asymmetric (>8σ) but not an outlier (<12σ)
        health = diagnose_matrix(m)
        assert (1, 4) in health.asymmetric
        repaired, record = repair_ladder(m, health, self._policy(), num_choices=1)
        assert record["rung"] == "symmetric_average"
        assert record["healthy"] is True
        assert repaired[1, 4] == repaired[4, 1]

    def test_shrink_attenuates_symmetric_outlier(self):
        m = _wishart()
        sigma = diagnose_matrix(_wishart()).scale[1]
        m[0, 3] = m[3, 0] = m[0, 3] + 30.0 * sigma
        health = diagnose_matrix(m)
        assert (0, 3) in health.outliers
        repaired, record = repair_ladder(m, health, self._policy(), num_choices=1)
        # Averaging is a no-op on a symmetric corruption; shrinking the
        # suspect cross-layer block brings it back under the threshold.
        assert record["rung"] == "shrink"
        assert record["healthy"] is True
        assert abs(repaired[0, 3]) < abs(m[0, 3])

    def test_block_diagonal_floor_imputes_diagonal(self):
        m = _wishart()
        m[7, 7] *= 1e6
        health = diagnose_matrix(m)
        assert (7, 7) in health.outliers
        repaired, record = repair_ladder(m, health, self._policy(), num_choices=1)
        # Neither averaging nor shrinking touches a trusted-but-corrupt
        # diagonal; only the floor imputes it with the median sensitivity.
        assert record["rung"] == "block_diagonal"
        assert record["healthy"] is True
        assert repaired[7, 7] == pytest.approx(health.scale[2])

    def test_repair_disabled_leaves_matrix_unhealthy(self):
        m = _wishart()
        m[1, 4] += 100.0
        health = diagnose_matrix(m)
        repaired, record = repair_ladder(
            m, health, HealthPolicy(repair=False), num_choices=1
        )
        assert record["repair"] is False
        assert record["healthy"] is False
        assert record["flagged_final"] >= 1
        assert record["ladder"] == []
        np.testing.assert_array_equal(repaired, m)

    def test_record_rung_index_matches_ladder(self):
        m = _wishart()
        health = diagnose_matrix(m)
        _, record = repair_ladder(m, health, self._policy())
        assert REPAIR_RUNGS[record["rung_index"]] == record["rung"]
        assert "pre_condition_number" in record
        assert "pre" in record and record["pre"]["healthy"] is True


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


def _plan_indices(setup):
    """(diagonal spec index, pair spec index) of the deterministic plan."""
    from repro.core.sweep import build_eval_plan

    model, layers, table, _x, _y = setup
    probe = SensitivityEngine(model, table)
    segments, layer_segments = probe._segment_map()
    num_layers = len(layers)
    pair_list = [
        (i, j) for i in range(num_layers) for j in range(i + 1, num_layers)
    ]
    plan = build_eval_plan(
        num_layers, (4, 8), pair_list, layer_segments, len(segments), "full"
    )
    diag_index = plan.groups[0].diag.index
    pair_index = next(p.index for g in plan.groups for p in g.pairs)
    return diag_index, pair_index


def _measure(setup, fault_plan=None, eval_batch_k=1, **kwargs):
    model, _layers, table, x, y = setup
    config = SensitivityConfig(
        batch_size=8,
        eval_batch_k=eval_batch_k,
        fault_plan=fault_plan,
        **kwargs,
    )
    return SensitivityEngine(model, table).measure(x, y, config, mode="full")


class TestEngineQuarantine:
    """End-to-end: injected measurement corruption is caught and repaired
    to a matrix bitwise identical to a clean run's."""

    def test_health_off_by_default(self, health_mlp):
        result = _measure(health_mlp)
        assert result.health is None
        assert "health" not in result.extras

    def test_invalid_health_mode_rejected(self, health_mlp):
        with pytest.raises(ValueError, match="health"):
            _measure(health_mlp, health="loud")

    def test_clean_run_unchanged_by_health_pass(self, health_mlp):
        """False positives are cheap: deterministic re-measurement confirms
        genuine values bitwise, so the matrix must not move at all."""
        clean = _measure(health_mlp)
        checked = _measure(health_mlp, health="warn")
        np.testing.assert_array_equal(clean.matrix, checked.matrix)
        assert isinstance(checked.health, GMatrixHealth)
        assert checked.health.healthy
        assert not checked.health.persistent

    def test_outlier_loss_caught_and_repaired_bitwise(self, health_mlp):
        clean = _measure(health_mlp)
        diag_index, _ = _plan_indices(health_mlp)
        plan = FaultPlan(seed=3, faults=(FaultSpec("outlier_loss", at=diag_index),))
        injected = _measure(health_mlp, fault_plan=plan, health="warn")
        np.testing.assert_array_equal(clean.matrix, injected.matrix)
        assert injected.health.healthy
        assert injected.health.quarantined >= 1
        assert injected.health.remeasured >= 1
        assert injected.extras["health"]["quarantined"] >= 1

    def test_asymmetric_pair_caught_and_repaired_bitwise(self, health_mlp):
        clean = _measure(health_mlp)
        _, pair_index = _plan_indices(health_mlp)
        plan = FaultPlan(
            seed=3, faults=(FaultSpec("asymmetric_pair", at=pair_index),)
        )
        injected = _measure(health_mlp, fault_plan=plan, health="warn")
        np.testing.assert_array_equal(clean.matrix, injected.matrix)
        assert injected.health.healthy
        assert injected.health.quarantined >= 1

    def test_health_pass_matrix_is_assembled_from_its_losses(self, health_mlp):
        """The health pass writes no Ω entry itself: its Ĝ is the one
        assembler's output on the healed loss table, bit for bit."""
        from repro.core.sensitivity import SweepSession, assemble_from_losses

        model, _layers, table, x, y = health_mlp
        diag_index, pair_index = _plan_indices(health_mlp)
        plan = FaultPlan(
            seed=3,
            faults=(
                FaultSpec("outlier_loss", at=diag_index),
                FaultSpec("asymmetric_pair", at=pair_index),
            ),
        )
        config = SensitivityConfig(
            batch_size=8, eval_batch_k=1, fault_plan=plan, health="warn"
        )
        session = SweepSession(
            SensitivityEngine(model, table), x, y, config, mode="full"
        )
        losses = {}
        with session.no_grad():
            for gi in range(len(session.plan.groups)):
                losses.update(session.run_group(gi)[0])
            assembled, single = session.assemble(losses)
            matrix, single, report, _ = session.health_pass(
                assembled, single, losses
            )
        assert not np.array_equal(assembled, assembled.T)
        assert report.remeasured >= 2 and report.healthy
        want, want_single = assemble_from_losses(
            session.plan, losses, session.base_loss
        )
        np.testing.assert_array_equal(matrix, want)
        np.testing.assert_array_equal(single, want_single)

    def test_undetected_without_health_pass(self, health_mlp):
        """Sanity inverse: the same fault silently corrupts Ĝ when the
        health pass is off — the reason this subsystem exists."""
        clean = _measure(health_mlp)
        diag_index, _ = _plan_indices(health_mlp)
        plan = FaultPlan(seed=3, faults=(FaultSpec("outlier_loss", at=diag_index),))
        injected = _measure(health_mlp, fault_plan=plan)
        assert not np.array_equal(clean.matrix, injected.matrix)

    def test_persistent_disagreer_recorded(self, health_mlp):
        """Corruption outliving the re-measure budget lands in
        ``persistent`` with its sample variance, and the report stays
        unhealthy for the structural ladder to deal with."""
        diag_index, _ = _plan_indices(health_mlp)
        plan = FaultPlan(
            seed=3, faults=(FaultSpec("outlier_loss", at=diag_index, times=5),)
        )
        injected = _measure(
            health_mlp, fault_plan=plan, health="warn", health_rounds=2
        )
        assert injected.health.persistent
        assert all(v >= 0.0 for v in injected.health.persistent.values())
        assert not injected.health.healthy

    def test_zero_rounds_detection_only(self, health_mlp):
        diag_index, _ = _plan_indices(health_mlp)
        plan = FaultPlan(seed=3, faults=(FaultSpec("outlier_loss", at=diag_index),))
        injected = _measure(
            health_mlp, fault_plan=plan, health="warn", health_rounds=0
        )
        assert injected.health.quarantined >= 1
        assert injected.health.remeasured == 0
        assert not injected.health.healthy


@pytest.fixture(scope="module")
def stacked_vit():
    """Untrained vit_s, 16 samples in batches of 8, and its health-off
    sweeps at the auto stack width and at width 1."""
    rng = np.random.default_rng(0)
    model = build_model("vit_s", num_classes=10)
    model.eval()
    layers = quantizable_layers(model, "vit_s")
    table = QuantizedWeightTable(layers, QuantConfig(bits=(2, 4, 8)))
    x = rng.standard_normal((16, 3, 32, 32)).astype(np.float32)
    y = rng.integers(0, 10, size=16)
    setup = (model, layers, table, x, y)
    stacked = _measure(setup, eval_batch_k=0)
    plain = _measure(setup)
    return setup, stacked, plain


class TestStackedQuarantine:
    """At the auto width, pair losses come from stacked replays, which a
    plain re-measurement reproduces bit for bit."""

    def test_clean_stacked_run_unchanged_by_health_pass(self, stacked_vit):
        setup, stacked, plain = stacked_vit
        checked = _measure(setup, eval_batch_k=0, health="warn")
        health = checked.extras["health"]
        assert stacked.extras["batched_chunks"] > 0
        np.testing.assert_array_equal(stacked.matrix, plain.matrix)
        assert health["quarantined"] > 0
        np.testing.assert_array_equal(checked.matrix, plain.matrix)
        assert health["remeasured"] == health["quarantined"]
        assert health["confirmed"] == health["quarantined"]

    def test_outlier_on_stacked_spec_replaced_by_plain_replay(self, stacked_vit):
        setup, _stacked, plain = stacked_vit
        model, _layers, table, x, y = setup
        session = SweepSession(
            SensitivityEngine(model, table), x, y,
            SensitivityConfig(batch_size=8), mode="full",
        )
        # The last candidate of the widest stacked chunk.
        chunk = max(
            (c for g in session.plan.groups for c in session.group_chunks(g)),
            key=lambda c: c.width,
        )
        assert chunk.width > 1
        spec = chunk.specs[-1]
        plan = FaultPlan(seed=3, faults=(FaultSpec("outlier_loss", at=spec.index),))
        injected = _measure(
            setup, eval_batch_k=0, fault_plan=plan, health="warn"
        )
        assert injected.health.healthy
        np.testing.assert_array_equal(injected.matrix, plain.matrix)
        assert injected.extras["health"]["remeasured"] > (
            injected.extras["health"]["confirmed"]
        )


class TestCladoHealthGates:
    """--health warn/strict gating at the allocator level."""

    def _clado(self, setup, **overrides):
        model, layers, _table, x, y = setup
        config = SensitivityConfig(
            batch_size=8,
            num_workers=1,
            eval_batch_k=1,
            **overrides,
        )
        algo = CLADO(
            model, "mlp", QuantConfig(bits=(4, 8)), layers=layers,
            sensitivity=config,
        )
        return algo, x, y

    def test_strict_unrepaired_raises_unhealthy(self, health_mlp):
        diag_index, _ = _plan_indices(health_mlp)
        plan = FaultPlan(
            seed=3, faults=(FaultSpec("outlier_loss", at=diag_index, times=5),)
        )
        algo, x, y = self._clado(
            health_mlp,
            fault_plan=plan,
            health="strict",
            health_rounds=0,
            health_repair=False,
        )
        with pytest.raises(UnhealthyMatrixError) as exc_info:
            algo.prepare(x, y)
        assert exc_info.value.record["healthy"] is False
        assert exc_info.value.record["rung"] == "none"

    def test_warn_mode_warns_and_proceeds(self, health_mlp):
        diag_index, _ = _plan_indices(health_mlp)
        plan = FaultPlan(
            seed=3, faults=(FaultSpec("outlier_loss", at=diag_index, times=5),)
        )
        algo, x, y = self._clado(
            health_mlp,
            fault_plan=plan,
            health="warn",
            health_rounds=0,
            health_repair=False,
        )
        with pytest.warns(RuntimeWarning, match="unhealthy"):
            algo.prepare(x, y)
        assert algo.prepared
        layer_bits = sum(l.num_params for l in algo.layers)
        result = algo.allocate(
            int(layer_bits * 8), solver=SolverConfig(time_limit=5.0)
        )
        assert result.assignment.extras["health"]["healthy"] is False

    def test_strict_repaired_run_allocates(self, health_mlp):
        diag_index, _ = _plan_indices(health_mlp)
        plan = FaultPlan(seed=3, faults=(FaultSpec("outlier_loss", at=diag_index),))
        algo, x, y = self._clado(
            health_mlp, fault_plan=plan, health="strict"
        )
        algo.prepare(x, y)  # quarantine repairs the fault: no raise
        record = algo.health_record
        assert record["healthy"] is True
        assert record["rung"] == "remeasure"
        assert "post_condition_number" in record
