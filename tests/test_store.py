"""Tests for the content-addressed Ĝ artifact store (``repro.store``).

Covers content addressing (fingerprint determinism + mismatch
attribution), the self-verifying artifact file (round-trip incl. the
determinism audit, layered corrupt/stale attribution on read), the
store itself (crash-safe publish, single-writer locking with stale-lock
takeover, quarantine, reaping), and the serve ladder
(hit / miss / integrity-failure / offline).
The cross-model integrity gate runs in ``scripts/chaos_smoke.py``
(``make chaos-smoke``).
"""

import os

import numpy as np
import pytest

from repro import telemetry
from repro.core import (
    CLADO,
    SensitivityConfig,
    SensitivityEngine,
    SolverConfig,
    setup_activation_quant,
)
from repro.core.sensitivity import SweepSession
from repro.nn import Linear, ReLU, Sequential
from repro.quant import QuantConfig
from repro.quant.export import CorruptArtifactError
from repro.robustness import FaultPlan, FaultSpec
from repro.robustness.health import DeterminismAudit
from repro.store import (
    ARTIFACT_SCHEMA,
    STORE_EXIT_CODE,
    ArtifactStore,
    GhatArtifact,
    StaleArtifactError,
    StoreKey,
    StoreMissError,
    allocate_cached,
    data_fingerprint,
    quantizer_fingerprint,
    request_key,
    weights_fingerprint,
)
from repro.store.artifact import deserialize

from helpers import damage_entry, plant_stale_lock

CFG = QuantConfig(bits=(2, 4, 8))
KEY = StoreKey(weights="a" * 64, data="b" * 64, quant="c" * 64)


class _QLayer:
    def __init__(self, idx, name, module):
        self.index, self.name, self.module = idx, name, module

    @property
    def weight(self):
        return self.module.weight

    @property
    def num_params(self):
        return self.module.weight.size


def _mlp(num_linear=4, dim=6, num_classes=3, seed=0):
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


def _data(n=12, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4)).astype(np.float32)
    y = rng.integers(0, 3, size=n)
    return x, y


def _health():
    return DeterminismAudit(
        audited=(0, 3, 5),
        disagreements=((3, 1.25, 1.5),),
        cancellation=((3, 4),),
    )


def _artifact(key=KEY, n=5, schema=ARTIFACT_SCHEMA, health=None, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return GhatArtifact(
        matrix=a @ a.T,
        base_loss=1.25,
        single_losses=rng.normal(size=n),
        num_evals=7,
        wall_time=0.5,
        mode="full",
        bits=(2, 4, 8),
        fingerprints=key,
        model_name="mlp",
        health=health,
        created_at=123.0,
        schema=schema,
        meta={"origin": "test"},
    )


def _entry(tmp_path, artifact, name="entry.npz"):
    path = tmp_path / name
    path.write_bytes(artifact.serialize())
    return path


class TestStoreKey:
    def test_fingerprints_deterministic(self):
        model, layers = _mlp()
        originals = [layer.weight.data for layer in layers]
        x, y = _data()
        assert weights_fingerprint(layers, originals) == weights_fingerprint(
            layers, originals
        )
        assert data_fingerprint(x, y) == data_fingerprint(x, y)
        assert quantizer_fingerprint(
            CFG, "full", act_quant=[[8, 0.5], None]
        ) == quantizer_fingerprint(CFG, "full", act_quant=[[8, 0.5], None])

    def test_weights_fingerprint_sees_bytes(self):
        model, layers = _mlp()
        originals = [layer.weight.data.copy() for layer in layers]
        before = weights_fingerprint(layers, originals)
        originals[0][0, 0] += 1e-6
        assert weights_fingerprint(layers, originals) != before

    def test_data_fingerprint_sees_dtype_and_values(self):
        x, y = _data()
        base = data_fingerprint(x, y)
        assert data_fingerprint(x.astype(np.float64), y) != base
        x2 = x.copy()
        x2[0, 0] += 1.0
        assert data_fingerprint(x2, y) != base

    def test_quantizer_fingerprint_sees_numerics_knobs(self):
        act_quant = [[8, 0.5], None]
        base = quantizer_fingerprint(CFG, "full", act_quant=act_quant)
        assert quantizer_fingerprint(
            QuantConfig(bits=(4, 8)), "full", act_quant=act_quant
        ) != base
        assert quantizer_fingerprint(CFG, "diagonal", act_quant=act_quant) != base
        assert quantizer_fingerprint(
            CFG, "full", act_quant=act_quant, batch_size=8
        ) != base
        for other in ([[8, 0.25], None], [[4, 0.5], None], [None, None]):
            assert quantizer_fingerprint(CFG, "full", act_quant=other) != base
        # Execution knobs are not key parameters: the removed stack width
        # never was one.
        with pytest.raises(TypeError):
            quantizer_fingerprint(
                CFG, "full", act_quant=act_quant, eval_batch_k=1
            )

    def test_key_roundtrip_and_mismatch_attribution(self):
        assert StoreKey.from_dict(KEY.to_dict()) == KEY
        assert len(KEY.key) == 64
        assert KEY.mismatches(KEY) == ()
        other = StoreKey(weights="z" * 64, data=KEY.data, quant="q" * 64)
        assert other.mismatches(KEY) == ("weights", "quant")
        assert other.key != KEY.key

    def test_request_key_attributes_weight_change(self):
        x, y = _data()
        config = SensitivityConfig(batch_size=8)
        model, layers = _mlp(seed=0)
        k1 = request_key(CLADO(model, "mlp", CFG, layers=layers), x, y, config)
        model2, layers2 = _mlp(seed=0)
        k2 = request_key(
            CLADO(model2, "mlp", CFG, layers=layers2), x, y, config
        )
        assert k1 == k2
        layers2[0].weight.data[0, 0] += 0.5
        k3 = request_key(
            CLADO(model2, "mlp", CFG, layers=layers2), x, y, config
        )
        assert k3.mismatches(k1) == ("weights",)

    def test_request_key_sees_activation_quantizers(self):
        """The sweep's losses depend on each searched layer's activation
        quantizer, bits and calibrated scale: calibrated on another set,
        at other bits, or removed, a request addresses another entry."""
        x, y = _data()
        config = SensitivityConfig(batch_size=8)
        model, layers = _mlp()
        algo = CLADO(model, "mlp", CFG, layers=layers)

        def key_after(images, bits):
            setup_activation_quant(model, layers, images, bits=bits)
            return request_key(algo, x, y, config)

        calibrated = key_after(x, 8)
        assert key_after(x, 8) == calibrated  # calibration is deterministic
        keys = [calibrated, key_after(1.5 * x, 8), key_after(x, 4),
                key_after(x, None)]
        assert len({k.key for k in keys}) == 4
        assert all(k.mismatches(calibrated) == ("quant",) for k in keys[1:])


class TestArtifactRoundTrip:
    def test_roundtrip_with_full_health(self, tmp_path):
        health = _health()
        art = _artifact(health=health.to_dict())
        path = _entry(tmp_path, art)
        back = deserialize(path, expect=KEY)
        assert np.array_equal(back.matrix, art.matrix)
        assert np.array_equal(back.single_losses, art.single_losses)
        assert back.base_loss == art.base_loss
        assert back.bits == (2, 4, 8)
        assert back.fingerprints == KEY
        assert back.meta == {"origin": "test"}
        assert back.health == health.to_dict()
        assert back.to_result().health == health

    def test_to_result_reenters_as_store_measurement(self, tmp_path):
        art = _artifact(health=_health().to_dict())
        result = deserialize(_entry(tmp_path, art), expect=KEY).to_result()
        assert result.extras["strategy"] == "store"
        assert result.extras["store_key"] == KEY.key
        assert result.health == _health()
        # the result owns its arrays: mutating it cannot poison the store
        result.matrix[0, 0] = -1.0
        assert art.matrix[0, 0] != -1.0

    def test_from_result_defaults(self, tmp_path):
        art = _artifact()
        src = deserialize(_entry(tmp_path, art), expect=KEY).to_result()
        wrapped = GhatArtifact.from_result(src, KEY, model_name="mlp")
        assert wrapped.meta == {}
        assert wrapped.health is None
        assert np.array_equal(wrapped.matrix, art.matrix)


class TestDeserializeAttribution:
    def test_missing_file_is_a_miss_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            deserialize(tmp_path / "absent.npz", expect=KEY)

    def test_garbage_bytes_are_corrupt(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(CorruptArtifactError):
            deserialize(path, expect=KEY)

    def test_missing_checksum_is_corrupt(self, tmp_path):
        path = tmp_path / "naked.npz"
        np.savez(path, matrix=np.eye(2))
        with pytest.raises(CorruptArtifactError, match="unverifiable"):
            deserialize(path, expect=KEY)

    def test_flipped_byte_is_corrupt(self, tmp_path):
        path = _entry(tmp_path, _artifact())
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifactError):
            deserialize(path, expect=KEY)

    def test_truncation_is_corrupt(self, tmp_path):
        path = _entry(tmp_path, _artifact())
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CorruptArtifactError):
            deserialize(path, expect=KEY)

    def test_old_schema_is_stale_even_unaddressed(self, tmp_path):
        path = _entry(tmp_path, _artifact(schema=0))
        with pytest.raises(StaleArtifactError) as exc:
            deserialize(path, expect=None)
        assert exc.value.mismatches == ("schema",)

    def test_fingerprint_mismatch_is_stale_with_attribution(self, tmp_path):
        path = _entry(tmp_path, _artifact())
        alien = StoreKey(weights="z" * 64, data=KEY.data, quant=KEY.quant)
        with pytest.raises(StaleArtifactError) as exc:
            deserialize(path, expect=alien)
        assert exc.value.mismatches == ("weights",)
        # unaddressed verification (store verify) accepts the same entry
        assert deserialize(path, expect=None).fingerprints == KEY


class TestArtifactStore:
    def test_publish_load_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.load(KEY) is None
        assert store.publish(KEY, _artifact()) == "published"
        assert store.has(KEY)
        loaded = store.load(KEY)
        assert loaded is not None and np.array_equal(
            loaded.matrix, _artifact().matrix
        )
        assert [p.stem for p in store.entries()] == [KEY.key]

    def test_duplicate_publish_is_idempotent(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.publish(KEY, _artifact()) == "published"
        assert store.publish(KEY, _artifact()) == "exists"
        assert len(store.entries()) == 1

    def test_bad_resident_entry_is_overwritten(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.publish(KEY, _artifact())
        store.entry_path(KEY).write_bytes(b"rotted")
        assert store.publish(KEY, _artifact()) == "published"
        assert store.load(KEY) is not None

    def test_live_lock_yields_busy(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.lock_path(KEY).write_text('{"pid": 0}')
        assert store.publish(KEY, _artifact()) == "busy"
        assert not store.has(KEY)

    def test_aged_lock_is_taken_over(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", lock_ttl=30.0)
        lock = store.lock_path(KEY)
        lock.write_text('{"pid": 0}')
        aged = lock.stat().st_mtime - 120.0
        os.utime(lock, (aged, aged))
        assert store.publish(KEY, _artifact()) == "published"
        assert store.load(KEY) is not None
        assert not lock.exists()

    def test_quarantine_moves_entry_with_reason(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.publish(KEY, _artifact())
        dst = store.quarantine(KEY, "checksum mismatch")
        assert dst is not None and dst.exists()
        assert not store.has(KEY) and store.load(KEY) is None
        reason = dst.parent / f"{dst.name}.reason.json"
        assert reason.exists()
        assert "checksum mismatch" in reason.read_text()
        # entry already gone: a racing quarantine reports None
        assert store.quarantine(KEY, "again") is None

    def test_quarantine_numbers_repeat_offenders(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for _ in range(2):
            store.publish(KEY, _artifact())
            assert store.quarantine(KEY, "bad") is not None
        names = sorted(p.name for p in store.quarantine_dir.glob("*.npz"))
        assert names == [f"{KEY.key}.0.npz", f"{KEY.key}.1.npz"]

    def test_reap_clears_tmp_orphans_and_dead_locks(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", lock_ttl=30.0)
        orphan = store.objects / "torn.npz.tmp"
        orphan.write_bytes(b"half")
        lock = store.locks / "dead.lock"
        lock.write_text("{}")
        old = orphan.stat().st_mtime - 10_000.0
        os.utime(orphan, (old, old))
        os.utime(lock, (old, old))
        fresh = store.objects / "young.npz.tmp"
        fresh.write_bytes(b"mid-write")
        assert store.reap(ttl=3600.0) == 2
        assert not orphan.exists() and not lock.exists()
        assert fresh.exists()  # a concurrent writer's tmp is left alone

    def test_verify_all_attributes_damage(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.publish(KEY, _artifact())
        other = StoreKey(weights="d" * 64, data="e" * 64, quant="f" * 64)
        store.publish(other, _artifact(key=other, schema=0))
        statuses = dict(store.verify_all())
        assert statuses[KEY.key] == "ok"
        assert statuses[other.key].startswith("stale")
        store.entry_path(KEY).write_bytes(b"rotted")
        assert dict(store.verify_all())[KEY.key].startswith("corrupt")

    @pytest.mark.parametrize(
        "kind, error",
        [
            ("truncated_artifact", CorruptArtifactError),
            ("checksum_flip", CorruptArtifactError),
            ("fingerprint_mismatch", StaleArtifactError),
        ],
    )
    def test_injected_faults_are_refused(self, tmp_path, kind, error):
        """Damage written into a published entry's file is refused with
        its typed attribution, whatever the damage."""
        store = ArtifactStore(tmp_path / "store")
        assert store.publish(KEY, _artifact()) == "published"
        damage_entry(store, KEY, kind)
        with telemetry.start_run("test", manifest_dir=tmp_path) as run:
            with pytest.raises(error):
                ArtifactStore(tmp_path / "store").load(KEY)
            counters = run.document()["counters"]
        expected = "store.stale" if error is StaleArtifactError else "store.corrupt"
        assert counters.get(expected, 0) == 1

    def test_stale_writer_lock_fault_is_survived(self, tmp_path):
        """A lock a publisher killed mid-publish left behind, aged past the
        TTL, is taken over, and the publish lands."""
        store = ArtifactStore(tmp_path / "store")
        plant_stale_lock(store, KEY)
        with telemetry.start_run("test", manifest_dir=tmp_path) as run:
            assert store.publish(KEY, _artifact()) == "published"
            takeovers = run.document()["counters"].get(
                "store.lock_takeovers", 0
            )
        assert takeovers == 1
        assert not store.lock_path(KEY).exists()
        assert ArtifactStore(tmp_path / "store").load(KEY) is not None


class TestServe:
    BUDGET_AVGS = (4, 5)

    @pytest.fixture()
    def setup(self):
        model, layers = _mlp()
        x, y = _data()
        total = sum(layer.num_params for layer in layers)
        budgets = [total * avg for avg in self.BUDGET_AVGS]
        config = SensitivityConfig(batch_size=8)
        solver = SolverConfig(time_limit=5.0)

        def make():
            return CLADO(model, "mlp", CFG, layers=layers)

        return make, x, y, budgets, config, solver

    @staticmethod
    def _same(a, b):
        return len(a) == len(b) and all(
            np.array_equal(r.assignment.bits, s.assignment.bits)
            and np.array_equal(r.assignment.choice, s.assignment.choice)
            for r, s in zip(a, b)
        )

    def test_fresh_then_cached_is_bitwise_with_zero_evals(
        self, tmp_path, setup
    ):
        make, x, y, budgets, config, solver = setup
        store = ArtifactStore(tmp_path / "store")
        with telemetry.start_run("test", manifest_dir=tmp_path) as run:
            fresh = allocate_cached(
                make(), x, y, budgets, store, solver, config
            )
            doc = run.document()
        assert doc["results"]["store_source"] == "sweep"
        assert doc["counters"].get("sensitivity.forward_evals", 0) > 0
        assert doc["counters"].get("store.publishes", 0) == 1
        with telemetry.start_run("test", manifest_dir=tmp_path) as run:
            cached = allocate_cached(
                make(), x, y, budgets, store, solver, config, offline=True
            )
            doc = run.document()
        assert self._same(fresh, cached)
        assert doc["results"]["store_source"] == "store"
        assert doc["results"]["store_budgets"] == [int(b) for b in budgets]
        assert doc["counters"].get("sensitivity.forward_evals", 0) == 0
        assert doc["counters"].get("store.hits", 0) == 1

    def test_recalibrated_activations_miss(self, tmp_path, setup):
        """An entry measured under other activation scales is not served:
        the request sweeps afresh and gets the fresh sweep's Ĝ."""
        make, x, y, budgets, config, solver = setup
        store = ArtifactStore(tmp_path / "store")
        algo = make()
        setup_activation_quant(algo.model, algo.layers, x, bits=8)
        allocate_cached(algo, x, y, budgets, store, solver, config)
        setup_activation_quant(algo.model, algo.layers, 1.5 * x, bits=8)
        served = make()
        with telemetry.start_run("test", manifest_dir=tmp_path) as run:
            allocate_cached(served, x, y, budgets, store, solver, config)
            doc = run.document()
        assert doc["results"]["store_source"] == "sweep"
        assert len(store.entries()) == 2
        fresh = make()
        fresh.prepare(x, y, config)
        np.testing.assert_array_equal(served.raw.matrix, fresh.raw.matrix)

    def test_offline_miss_raises_typed(self, tmp_path, setup):
        make, x, y, budgets, config, solver = setup
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(StoreMissError) as exc:
            allocate_cached(
                make(), x, y, budgets, store, solver, config, offline=True
            )
        assert exc.value.reason == "miss"
        assert len(exc.value.key) == 64
        assert STORE_EXIT_CODE == 7

    def test_integrity_failure_quarantines_then_remeasures(
        self, tmp_path, setup
    ):
        make, x, y, budgets, config, solver = setup
        store = ArtifactStore(tmp_path / "store")
        fresh = allocate_cached(make(), x, y, budgets, store, solver, config)
        store.entry_path(request_key(make(), x, y, config)).write_bytes(
            b"rotted beyond parsing"
        )
        with telemetry.start_run("test", manifest_dir=tmp_path) as run:
            healed = allocate_cached(
                make(), x, y, budgets, store, solver, config
            )
            doc = run.document()
        assert self._same(fresh, healed)
        assert doc["results"]["store_source"] == "quarantine_remeasure"
        assert doc["counters"].get("store.quarantined", 0) == 1
        assert len(list(store.quarantine_dir.glob("*.npz"))) == 1
        # the remeasurement was published back: next request is a hit
        cached = allocate_cached(
            make(), x, y, budgets, store, solver, config, offline=True
        )
        assert self._same(fresh, cached)

    def test_schema_one_entry_is_quarantined_and_remeasured(
        self, tmp_path, setup
    ):
        """An entry a schema-1 writer published (its health a robust-z
        report) is refused as stale, quarantined and measured again."""
        make, x, y, budgets, config, solver = setup
        store = ArtifactStore(tmp_path / "store")
        fresh = allocate_cached(make(), x, y, budgets, store, solver, config)
        path = store.entry_path(request_key(make(), x, y, config))
        current = deserialize(path)
        current.schema = 1
        current.health = {"flagged": 0, "rung": "none", "persistent": 0}
        path.write_bytes(current.serialize())
        with pytest.raises(StaleArtifactError) as exc:
            deserialize(path)
        assert exc.value.mismatches == ("schema",)
        with telemetry.start_run("test", manifest_dir=tmp_path) as run:
            healed = allocate_cached(
                make(), x, y, budgets, store, solver, config
            )
            doc = run.document()
        assert self._same(fresh, healed)
        assert doc["results"]["store_source"] == "quarantine_remeasure"
        assert len(list(store.quarantine_dir.glob("*.npz"))) == 1
        assert deserialize(path).schema == ARTIFACT_SCHEMA

    def test_unconfirmed_sweep_is_served_but_not_published(
        self, tmp_path, setup
    ):
        """A ``warn`` sweep whose audit disagreed answers its own request
        and publishes nothing, so no later request is served from it."""
        make, x, y, budgets, config, solver = setup
        store = ArtifactStore(tmp_path / "store")
        warn = config.with_overrides(health="warn")
        algo = make()
        audited = SweepSession(
            SensitivityEngine(algo.model, algo.table), x, y, warn, mode="full"
        ).plan.audit_specs()
        faulty = warn.with_overrides(
            fault_plan=FaultPlan(
                seed=3, faults=(FaultSpec("outlier_loss", at=audited[0]),)
            )
        )
        with pytest.warns(RuntimeWarning, match="unhealthy"):
            results = allocate_cached(algo, x, y, budgets, store, solver, faulty)
        assert len(results) == len(budgets)
        assert not algo.raw.health.healthy
        assert list(store.entries()) == []
        with telemetry.start_run("test", manifest_dir=tmp_path) as run:
            allocate_cached(make(), x, y, budgets, store, solver, warn)
            doc = run.document()
        assert doc["results"]["store_source"] == "sweep"
        assert len(list(store.entries())) == 1

    def test_integrity_failure_offline_refuses(self, tmp_path, setup):
        make, x, y, budgets, config, solver = setup
        store = ArtifactStore(tmp_path / "store")
        allocate_cached(make(), x, y, budgets, store, solver, config)
        store.entry_path(request_key(make(), x, y, config)).write_bytes(
            b"rotted beyond parsing"
        )
        with pytest.raises(StoreMissError) as exc:
            allocate_cached(
                make(), x, y, budgets, store, solver, config, offline=True
            )
        assert exc.value.reason == "integrity"
        assert len(list(store.quarantine_dir.glob("*.npz"))) == 1

    def test_rejects_algorithms_without_set_sensitivity(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        x, y = _data()
        with pytest.raises(TypeError, match="set_sensitivity"):
            allocate_cached(object(), x, y, [100], store)
