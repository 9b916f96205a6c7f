"""Segmented/parallel sensitivity sweeps: equivalence with the literal
Algorithm 1, plan/cache/checkpoint machinery, segmented-forward model
support."""

import os

import numpy as np
import pytest

from helpers import Unsegmented, naive_sweep
from repro.core import (
    EvalPlan,
    PrefixCache,
    SensitivityConfig,
    SensitivityEngine,
    SweepCheckpoint,
    build_eval_plan,
    setup_activation_quant,
)
from repro.core.sensitivity import SweepSession, _resolve_workers, _usable_cpus
from repro.models import MODEL_REGISTRY, build_model, quantizable_layers
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    CrossEntropyLoss,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    Module,
    ReLU,
    ResidualJoin,
    ResidualStage,
    ResidualState,
    Sequential,
)
from repro.quant import QuantConfig, QuantizedWeightTable


class _QLayer:
    def __init__(self, idx, name, module):
        self.index, self.name, self.module = idx, name, module

    @property
    def weight(self):
        return self.module.weight

    @property
    def num_params(self):
        return self.module.weight.size


def _deep_mlp(num_linear=8, dim=6, num_classes=3, seed=0):
    """Sequential MLP: each Linear (+ ReLU) is its own forward segment."""
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


def _layerwise_cnn(seed=0):
    """Conv2d, BatchNorm2d and ReLU each their own forward segment.

    A BatchNorm2d on the input comes first, so segment 0 reads the cut-0
    checkpoint (the other checkpoints are inputs of searched segments).
    The BatchNorms carry non-trivial statistics: one applied twice to a
    checkpoint moves every downstream loss far past the equivalence
    tolerance, where an idempotent ReLU would not.
    """
    rng = np.random.default_rng(seed)

    def batchnorm(c):
        bn = BatchNorm2d(c)
        bn.running_mean[:] = rng.normal(size=c)
        bn.running_var[:] = rng.uniform(0.2, 3.0, size=c)
        bn.weight.data[:] = rng.uniform(0.5, 2.0, size=c)
        bn.bias.data[:] = rng.normal(size=c)
        return bn

    mods = [batchnorm(3)]
    for c_in, c_out in ((3, 6), (6, 6), (6, 8)):
        mods += [Conv2d(c_in, c_out, 3, padding=1, rng=rng), batchnorm(c_out), ReLU()]
    mods += [GlobalAvgPool2d(), Flatten(), Linear(8, 3, rng=rng)]
    model = Sequential(*mods)
    model.eval()
    weighted = [m for m in mods if isinstance(m, (Conv2d, Linear))]
    layers = [_QLayer(i, f"w{i}", m) for i, m in enumerate(weighted)]
    return model, layers


class _BlockCuts(Module):
    """A ResNet cut at block granularity: stem, one segment per residual
    block, head (the segmentation before blocks cut at their stages)."""

    def __init__(self, inner: Module) -> None:
        super().__init__()
        self.inner = inner

    def forward(self, x):
        return self.inner.forward(x)

    def segments(self):
        blocks = [b for stage in self.inner.stages for b in stage.layers]
        head = Sequential(self.inner.pool, self.inner.fc)
        return [self.inner.stem, *blocks, head]


@pytest.fixture(scope="module")
def mlp_setup():
    model, layers = _deep_mlp()
    table = QuantizedWeightTable(layers, QuantConfig(bits=(4, 8)))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(20, 4)).astype(np.float32)
    y = rng.integers(0, 3, size=20)
    return model, layers, table, x, y


class TestNaiveSegmentedEquivalence:
    """The acceptance property: cached/parallel results equal the literal
    Algorithm 1 (``helpers.naive_sweep``)."""

    @pytest.mark.parametrize("mode", ["full", "diagonal", "block"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matrix_matches_naive(self, mlp_setup, mode, workers):
        model, layers, table, x, y = mlp_setup
        blocks = ["a", "a", "a", "b", "b", "b", "c", "c"] if mode == "block" else None
        naive = naive_sweep(
            model, table, x, y, mode=mode, blocks=blocks, batch_size=8
        )
        fast = SensitivityEngine(model, table).measure(
            x, y,
            SensitivityConfig(batch_size=8, num_workers=workers),
            mode=mode, blocks=blocks,
        )
        assert fast.extras["strategy"] == "segmented"
        np.testing.assert_array_equal(fast.matrix, naive.matrix)
        np.testing.assert_array_equal(fast.single_losses, naive.single_losses)
        assert fast.base_loss == naive.base_loss
        assert fast.num_evals == naive.num_evals

    def test_segmented_does_less_layer_work(self, mlp_setup):
        model, layers, table, x, y = mlp_setup
        result = SensitivityEngine(model, table).measure(
            x, y, SensitivityConfig(batch_size=8)
        )
        assert result.extras["segment_forwards"] < result.extras[
            "segment_forwards_naive"
        ]
        assert result.extras["segment_work_saved"] > 0.3

    def test_segment_per_layer_cnn_matches_naive(self):
        """Replays share checkpoints; a layer writing into its input would
        change the ones it reads.  The prefix pass runs the input
        BatchNorm2d on the frozen cut-0 checkpoint."""
        model, layers = _layerwise_cnn()
        table = QuantizedWeightTable(layers, QuantConfig(bits=(2, 4)))
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 3, 6, 6)).astype(np.float32)
        y = rng.integers(0, 3, size=6)
        before = x.copy()
        naive = naive_sweep(model, table, x, y, batch_size=4)
        fast = SensitivityEngine(model, table).measure(
            x, y,
            SensitivityConfig(batch_size=4),
        )
        assert fast.extras["num_segments"] == len(model.layers)
        np.testing.assert_array_equal(fast.matrix, naive.matrix)
        np.testing.assert_array_equal(fast.single_losses, naive.single_losses)
        np.testing.assert_array_equal(x, before)

    def test_weights_restored_and_progress_complete(self, mlp_setup):
        model, layers, table, x, y = mlp_setup
        before = [layer.weight.data.copy() for layer in layers]
        calls = []
        SensitivityEngine(model, table).measure(
            x, y, SensitivityConfig(batch_size=8),
            progress=lambda d, t: calls.append((d, t)),
        )
        for layer, b in zip(layers, before):
            np.testing.assert_array_equal(layer.weight.data, b)
        assert calls[-1][0] == calls[-1][1]
        assert len(calls) == calls[-1][1]


class TestStrategySelection:
    def test_auto_falls_back_without_segments(self, mlp_setup):
        """A model without segments runs as the one segment ``[model]``:
        that is exactly the literal Algorithm 1, bitwise."""
        model, layers, table, x, y = mlp_setup
        opaque = Unsegmented(model)
        engine = SensitivityEngine(opaque, table)
        assert engine._segment_map() == ([opaque], (0,) * len(layers))
        result = engine.measure(x, y, SensitivityConfig(batch_size=8))
        assert result.extras["strategy"] == "segmented"
        assert result.extras["num_segments"] == 1
        naive = naive_sweep(opaque, table, x, y, batch_size=8)
        np.testing.assert_array_equal(result.matrix, naive.matrix)
        assert result.base_loss == naive.base_loss

    def test_unknown_strategy_rejected(self, mlp_setup):
        """Execution knobs live in SensitivityConfig only; there is no
        strategy to choose any more."""
        model, layers, table, x, y = mlp_setup
        with pytest.raises(TypeError):
            SensitivityEngine(model, table, strategy="warp")
        with pytest.raises(TypeError):
            SensitivityEngine(model, table).measure(x, y, strategy="warp")
        with pytest.raises(TypeError):
            SensitivityConfig(strategy="warp")


class TestResume:
    def test_checkpoint_resume_skips_completed_groups(self, mlp_setup, tmp_path):
        """Abort a sweep halfway, in-process and with two fork workers in
        flight; the rerun resumes the checkpointed losses to the same Ĝ."""
        model, layers, table, x, y = mlp_setup
        engine = SensitivityEngine(model, table)
        clean = engine.measure(x, y, SensitivityConfig(batch_size=8))
        naive = naive_sweep(model, table, x, y, batch_size=8)

        class _Abort(Exception):
            pass

        def aborting(done, total):
            if done >= total // 2:
                raise _Abort

        for workers in (1, 2):
            path = str(tmp_path / f"sweep-{workers}.ckpt")
            config = SensitivityConfig(
                batch_size=8, num_workers=workers, checkpoint_path=path
            )
            with pytest.raises(_Abort):
                engine.measure(x, y, config, progress=aborting)
            table.restore_all()

            resumed = engine.measure(x, y, config)
            assert resumed.extras["workers"] == workers
            assert resumed.extras["resumed_evals"] > 0
            assert (
                resumed.extras["resumed_evals"] + resumed.extras["executed_evals"]
                == resumed.extras["plan_evals"]
            )
            np.testing.assert_array_equal(resumed.matrix, naive.matrix)
            np.testing.assert_array_equal(resumed.matrix, clean.matrix)

    def test_checkpoint_ignored_when_plan_changes(self, mlp_setup, tmp_path):
        model, layers, table, x, y = mlp_setup
        path = str(tmp_path / "sweep.ckpt")
        engine = SensitivityEngine(model, table)
        config = SensitivityConfig(batch_size=8, checkpoint_path=path)
        engine.measure(x, y, config, mode="diagonal")
        # Different mode -> different fingerprint -> nothing resumed.
        again = engine.measure(x, y, config, mode="full")
        assert again.extras["resumed_evals"] == 0

    def test_checkpoint_in_missing_directory(self, mlp_setup, tmp_path):
        """The checkpoint's directory is created when the sweep opens it,
        and the file then resumes like any other."""
        model, layers, table, x, y = mlp_setup
        path = tmp_path / "runs" / "r1" / "sweep.ckpt"
        engine = SensitivityEngine(model, table)
        config = SensitivityConfig(batch_size=8, checkpoint_path=str(path))
        first = engine.measure(x, y, config)
        assert path.is_file()
        again = engine.measure(x, y, config)
        assert again.extras["resumed_evals"] == again.extras["plan_evals"]
        np.testing.assert_array_equal(again.matrix, first.matrix)

    @pytest.mark.parametrize("change", ["scheme", "act_bits"])
    def test_checkpoint_restarts_when_quantizers_change(self, tmp_path, change):
        """The resume fingerprint covers the weight-quantizer scheme and the
        activation quantizers: a checkpoint measured under other
        quantizers must not be served as this sweep's losses."""
        model = build_model("resnet_s20", num_classes=4)
        model.eval()
        layers = quantizable_layers(model, "resnet_s20")
        rng = np.random.default_rng(11)
        x = rng.normal(size=(8, 3, 32, 32)).astype(np.float32)
        y = rng.integers(0, 4, size=8)
        setup_activation_quant(model, layers, x, bits=8)
        path = str(tmp_path / "sweep.ckpt")
        config = SensitivityConfig(batch_size=8)
        first = SensitivityEngine(
            model, QuantizedWeightTable(layers, QuantConfig(bits=(2, 4)))
        ).measure(
            x, y, config.with_overrides(checkpoint_path=path), mode="diagonal"
        )
        assert first.extras["executed_evals"] == first.extras["plan_evals"]

        scheme = "symmetric"
        if change == "scheme":
            scheme = "affine"
        else:
            setup_activation_quant(model, layers, x, bits=4)
        engine = SensitivityEngine(
            model, QuantizedWeightTable(layers, QuantConfig(bits=(2, 4), scheme=scheme))
        )
        fresh = engine.measure(x, y, config, mode="diagonal")
        again = engine.measure(
            x, y, config.with_overrides(checkpoint_path=path), mode="diagonal"
        )
        assert again.extras["resumed_evals"] == 0
        np.testing.assert_array_equal(again.matrix, fresh.matrix)

    def test_checkpoint_resumes_across_worker_counts(self, tmp_path):
        """The worker count is not in the resume fingerprint: a checkpoint
        written by a two-worker sweep serves a serial sweep in full, which
        would have measured the same losses bitwise."""
        model = build_model("resnet_s20", num_classes=4)
        model.eval()
        layers = quantizable_layers(model, "resnet_s20")
        table = QuantizedWeightTable(layers, QuantConfig(bits=(2, 4)))
        rng = np.random.default_rng(12)
        x = rng.normal(size=(8, 3, 32, 32)).astype(np.float32)
        y = rng.integers(0, 4, size=8)
        engine = SensitivityEngine(model, table)
        path = str(tmp_path / "sweep.ckpt")
        config = SensitivityConfig(batch_size=8)
        first = engine.measure(
            x, y, config.with_overrides(num_workers=2, checkpoint_path=path)
        )
        assert first.extras["workers"] == 2
        serial = engine.measure(x, y, config)
        resumed = engine.measure(x, y, config.with_overrides(checkpoint_path=path))
        assert resumed.extras["resumed_evals"] == resumed.extras["plan_evals"]
        assert resumed.extras["executed_evals"] == 0
        np.testing.assert_array_equal(resumed.matrix, first.matrix)
        np.testing.assert_array_equal(serial.matrix, first.matrix)

    def test_checkpoint_resumes_across_segmentations(self, tmp_path):
        """The segmentation is not in the resume fingerprint: a checkpoint
        written with one segment per residual block serves a sweep cut
        before every searched stage in full, because each loss is bitwise
        the same from whichever cut its replay starts."""
        model = build_model("resnet_s34", num_classes=4)
        model.eval()
        layers = quantizable_layers(model, "resnet_s34")
        table = QuantizedWeightTable(layers, QuantConfig(bits=(2, 4)))
        rng = np.random.default_rng(13)
        x = rng.normal(size=(8, 3, 32, 32)).astype(np.float32)
        y = rng.integers(0, 4, size=8)
        path = str(tmp_path / "sweep.ckpt")
        config = SensitivityConfig(batch_size=8, checkpoint_path=path)
        first = SensitivityEngine(_BlockCuts(model), table).measure(x, y, config)
        assert first.extras["num_segments"] == 8
        resumed = SensitivityEngine(model, table).measure(x, y, config)
        assert resumed.extras["num_segments"] == 16
        assert resumed.extras["resumed_evals"] == resumed.extras["plan_evals"]
        assert resumed.extras["executed_evals"] == 0
        np.testing.assert_array_equal(resumed.matrix, first.matrix)
        np.testing.assert_array_equal(resumed.single_losses, first.single_losses)

    def test_corrupt_checkpoint_restarts_cleanly(self, mlp_setup, tmp_path):
        model, layers, table, x, y = mlp_setup
        path = tmp_path / "sweep.ckpt"
        path.write_bytes(b"not an npz file")
        result = SensitivityEngine(model, table).measure(
            x, y,
            SensitivityConfig(batch_size=8, checkpoint_path=str(path)),
            mode="diagonal",
        )
        assert result.extras["resumed_evals"] == 0


class TestSweepSession:
    def test_assemble_rejects_incomplete_losses(self, mlp_setup):
        model, layers, table, x, y = mlp_setup
        engine = SensitivityEngine(model, table)
        config = SensitivityConfig(batch_size=8)
        session = SweepSession(engine, x, y, config, mode="diagonal")
        groups = range(len(session.plan.groups))
        losses = {}
        with session.no_grad():
            for gi in groups[: len(groups) // 2]:
                losses.update(session.run_group(gi)[0])
            with pytest.raises(ValueError, match="unmeasured"):
                session.assemble(dict(losses))
            for gi in groups[len(groups) // 2 :]:
                losses.update(session.run_group(gi)[0])
        matrix, single = session.assemble(losses)
        reference = engine.measure(x, y, config, mode="diagonal")
        np.testing.assert_array_equal(matrix, reference.matrix)
        np.testing.assert_array_equal(single, reference.single_losses)


class TestSweepInputs:
    """Malformed sweep inputs raise instead of returning a meaningless Ĝ."""

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_nonpositive_batch_size_rejected(self, mlp_setup, batch_size):
        model, layers, table, x, y = mlp_setup
        with pytest.raises(ValueError, match="batch_size"):
            SensitivityEngine(model, table).measure(
                x, y, SensitivityConfig(batch_size=batch_size)
            )

    def test_empty_sensitivity_set_rejected(self, mlp_setup):
        model, layers, table, x, y = mlp_setup
        engine = SensitivityEngine(model, table)
        with pytest.raises(ValueError, match="empty"):
            engine.measure(x[:0], y[:0], SensitivityConfig(batch_size=8))
        with pytest.raises(ValueError, match="empty"):
            SweepSession(engine, x[:0], y[:0], SensitivityConfig(), mode="full")

    def test_negative_workers_rejected(self, mlp_setup):
        model, layers, table, x, y = mlp_setup
        with pytest.raises(ValueError, match="num_workers"):
            SensitivityEngine(model, table).measure(
                x, y, SensitivityConfig(batch_size=8, num_workers=-3)
            )

    def test_auto_workers_follow_the_affinity_mask(self, mlp_setup, monkeypatch):
        """``num_workers=0`` counts the CPUs this process may run on (a
        ``taskset``/cpuset mask), not every core of the host."""
        model, layers, table, x, y = mlp_setup
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _resolve_workers(0) == 1
        result = SensitivityEngine(model, table).measure(
            x, y, SensitivityConfig(batch_size=8, num_workers=0), mode="diagonal"
        )
        assert result.extras["workers"] == 1
        assert _resolve_workers(3) == 3  # an explicit count is kept

    def test_auto_workers_without_affinity_support(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert _usable_cpus() == 3


class TestEvalPlan:
    def test_plan_counts_and_order(self):
        pair_list = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        plan = build_eval_plan(
            num_layers=4, bits=(4, 8), pair_list=pair_list,
            layer_segments=(0, 1, 1, 2), num_segments=3, mode="full",
        )
        assert isinstance(plan, EvalPlan)
        assert plan.num_evals == 4 * 2 + len(pair_list) * 4
        # Indices are the contiguous plan order.
        assert [s.index for s in plan.specs()] == list(range(plan.num_evals))
        # Groups drain from the latest segment backwards.
        segs = [g.segment for g in plan.groups]
        assert segs == sorted(segs, reverse=True)
        assert plan.planned_segment_cost < plan.naive_segment_cost

    def test_fingerprint_sensitive_to_structure(self):
        """The fingerprint hashes the evaluations in plan order: cuts that
        reorder the groups change it, cuts that only move leave it alone,
        because a loss is bitwise the same from whichever cut it replays."""
        kwargs = dict(
            num_layers=2, bits=(4, 8), pair_list=[(0, 1)],
            layer_segments=(0, 1), num_segments=2, mode="full",
        )
        a = build_eval_plan(**kwargs)
        reordered = build_eval_plan(**dict(kwargs, layer_segments=(1, 0)))
        coarser = build_eval_plan(
            **dict(kwargs, layer_segments=(0, 0), num_segments=1)
        )
        assert a.fingerprint() != reordered.fingerprint()
        assert a.fingerprint() == coarser.fingerprint()
        assert a.fingerprint() == build_eval_plan(**kwargs).fingerprint()
        assert a.fingerprint("data1") != a.fingerprint("data2")


class TestPrefixCache:
    def test_missing_cut_is_a_key_error(self):
        """The cache holds the cuts it was built with and nothing else."""
        segs = [Linear(3, 3, rng=np.random.default_rng(k)) for k in range(4)]
        cache = PrefixCache({0, 2})
        a = np.ones((2, 3), dtype=np.float32)
        for k, s in enumerate(segs):
            cache.put(0, k, a)  # cuts 1 and 3 are not kept
            a = s.forward(a)
        assert cache.num_checkpoints == 2
        assert cache.stored_bytes == 2 * a.nbytes
        with pytest.raises(KeyError):
            cache.activation(0, 3)  # a cut that was not kept
        with pytest.raises(KeyError):
            cache.activation(1, 2)  # unknown batch

    def test_checkpoints_are_read_only(self):
        segs = [Linear(3, 3, rng=np.random.default_rng(k)) for k in range(3)]
        cache = PrefixCache({0, 1})
        x = np.ones((4, 3), dtype=np.float32)
        a = x[:2]  # the engine stores its own slice of the caller's array
        for k, s in enumerate(segs):
            cache.put(0, k, a)
            a = s.forward(a)
        for cut in (0, 1):
            with pytest.raises(ValueError, match="read-only"):
                cache.activation(0, cut)[...] += 1.0
        assert x.flags.writeable

    def test_segment_writing_into_a_state_skip_raises(self):
        """The freeze covers both fields of a residual state: a segment
        that adds into the skip instead of a fresh array raises."""

        class SkipWriter(Module):
            def forward(self, state):
                skip = state.skip
                skip += state.branch
                return skip

        stage = ResidualStage([Linear(3, 3, rng=np.random.default_rng(0))], first=True)
        cache = PrefixCache({1})  # the block input (cut 0) is not kept
        x = np.ones((2, 3), dtype=np.float32)
        a = x
        for k, segment in enumerate([stage, SkipWriter()]):
            cache.put(0, k, a)
            if k == 1:
                with pytest.raises(ValueError, match="read-only"):
                    segment.forward(a)
            else:
                a = segment.forward(a)
        state = cache.activation(0, 1)
        assert not state.branch.flags.writeable
        assert not state.skip.flags.writeable
        # A join adds into its shortcut's output and leaves the state alone.
        shortcut = Linear(3, 3, rng=np.random.default_rng(1))
        out = ResidualJoin(shortcut, ReLU()).forward(state)
        expected = np.maximum(shortcut.forward(x) + state.branch, 0)
        np.testing.assert_array_equal(out, expected)

    def test_stored_bytes_count_each_array_once(self):
        """Two states sharing a skip with the block-start checkpoint
        store that array once."""
        cache = PrefixCache({0, 1, 2})
        x = np.ones((2, 3), dtype=np.float32)
        cache.put(0, 0, x)
        cache.put(0, 1, ResidualState(x + 1.0, x))
        cache.put(0, 2, ResidualState(x + 2.0, x))
        assert cache.num_checkpoints == 3
        assert cache.stored_bytes == 3 * x.nbytes


class TestSweepCheckpoint:
    def test_roundtrip_and_fingerprint_guard(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        ck = SweepCheckpoint(path, "fp-a")
        ck.save({3: 1.5})
        ck.save({3: 1.5, 0: 0.25})  # each save replaces the file
        loaded = SweepCheckpoint(path, "fp-a").load()
        assert loaded == {3: 1.5, 0: 0.25}
        assert SweepCheckpoint(path, "fp-b").load() == {}

    @pytest.mark.parametrize("health", ["off", "warn"])
    def test_one_save_per_group(self, mlp_setup, tmp_path, monkeypatch, health):
        """A group is what a resume restores, so each executed group is
        saved once, and the determinism audit, which writes no loss,
        saves nothing.  A full resume executes no group and saves
        nothing."""
        model, layers, table, x, y = mlp_setup
        saves = []
        save = SweepCheckpoint.save

        def counting(self, losses):
            saves.append(len(losses))
            save(self, losses)

        monkeypatch.setattr(SweepCheckpoint, "save", counting)
        path = str(tmp_path / "sweep.ckpt")
        config = SensitivityConfig(batch_size=8, checkpoint_path=path, health=health)
        engine = SensitivityEngine(model, table)
        first = engine.measure(x, y, config)
        groups = first.extras["plan_groups"]
        assert len(saves) == groups
        assert saves[-1] == first.extras["plan_evals"]
        assert (first.health is None) == (health == "off")
        saves.clear()
        again = engine.measure(x, y, config)
        assert again.extras["resumed_evals"] == again.extras["plan_evals"]
        assert saves == []


class TestSegmentedForward:
    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_segments_compose_to_full_forward(self, name):
        model = build_model(name, num_classes=4)
        model.eval()
        segments = model.segments()
        assert segments, f"{name} should expose forward segments"
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 32, 32)).astype(np.float32)
        full = model.forward(x)
        a = x
        for seg in segments:
            a = seg.forward(a)
        np.testing.assert_array_equal(a, full)

    def test_vit_cuts_at_every_pre_norm_residual(self):
        """Embedding, then the attention and MLP half of each encoder
        block, then the head: each searched projection replays from its
        own half."""
        model = build_model("vit_s", num_classes=4)
        layers = quantizable_layers(model, "vit_s")
        table = QuantizedWeightTable(layers, QuantConfig(bits=(4, 8)))
        segments, owner = SensitivityEngine(model, table)._segment_map()
        assert len(segments) == 8
        for layer, seg in zip(layers, owner):
            block = int(layer.name.split(".")[1])
            half = 1 if ".attention." in layer.name else 2
            assert seg == 2 * block + half, layer.name

    @pytest.mark.parametrize(
        "name", ["mobilenet_s", "regnet_s", "resnet_s20", "resnet_s34", "resnet_s50"]
    )
    def test_cnn_cuts_before_every_searched_stage(self, name):
        """Each searched branch conv starts a segment of its own, so a
        replay from its partner recomputes no conv before it; each
        downsample conv sits in its block's join segment, right after the
        block's last branch stage."""
        model = build_model(name, num_classes=4)
        layers = quantizable_layers(model, name)
        table = QuantizedWeightTable(layers, QuantConfig(bits=(4, 8)))
        segments, owner = SensitivityEngine(model, table)._segment_map()
        assert len(segments) > 1
        branch_segments = []
        for q, k in zip(layers, owner):
            if not isinstance(q.module, Conv2d):
                continue
            if ".downsample" in q.name:
                assert isinstance(segments[k], ResidualJoin), q.name
                assert owner[q.index - 1] == k - 1, q.name
                continue
            weighted = [
                m for _, m in segments[k].named_modules()
                if isinstance(m, (Conv2d, Linear))
            ]
            assert weighted[0] is q.module, q.name
            branch_segments.append(k)
        assert len(set(branch_segments)) == len(branch_segments)

    def test_segments_cover_all_searched_layers(self):
        for name in sorted(MODEL_REGISTRY):
            model = build_model(name, num_classes=4)
            segments = model.segments()
            owned = set()
            for seg in segments:
                for _, mod in seg.named_modules():
                    owned.add(id(mod))
            for layer in quantizable_layers(model, name):
                assert id(layer.module) in owned, (name, layer.name)
