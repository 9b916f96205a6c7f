"""No-grad mode: bitwise, stateless forwards on every zoo model, and sweeps
that leave no backward state behind."""

import contextlib
import tracemalloc

import numpy as np
import pytest

from helpers import Unsegmented
from repro.core import SensitivityConfig, SensitivityEngine, sensitivity
from repro.hessian import loss_and_grads
from repro.models import MODEL_REGISTRY, build_model, quantizable_layers
from repro.nn import (
    CrossEntropyLoss,
    Linear,
    ResidualState,
    Sequential,
)
from repro.quant import QuantConfig, QuantizedWeightTable, calibrate_activations
from repro.robustness import SweepFailure


def _modules(*roots):
    for root in roots:
        for _, module in root.named_modules():
            yield module


def _cached(*roots):
    """Names of the modules that still hold a backward cache."""
    return [
        type(m).__name__ for m in _modules(*roots)
        if getattr(m, "_cache", None) is not None
    ]


@contextlib.contextmanager
def _no_grad(*roots):
    with contextlib.ExitStack() as stack:
        for root in roots:
            stack.enter_context(root.no_grad())
        yield


def _calibrated(name, samples=2, seed=0):
    model = build_model(name)
    model.eval()
    layers = quantizable_layers(model, name)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(samples, 3, 32, 32)).astype(np.float32)
    calibrate_activations(model, layers, x)
    return model, layers, x


class TestModuleNoGrad:
    def test_sets_and_restores_the_tree(self):
        model = Sequential(Linear(3, 3), Sequential(Linear(3, 2)))
        inner = model.layers[1].layers[0]
        inner.grad_enabled = False  # a flag set before entry comes back as-is
        with model.no_grad() as entered:
            assert entered is model
            assert not any(m.grad_enabled for m in _modules(model))
        assert model.grad_enabled and model.layers[0].grad_enabled
        assert not inner.grad_enabled

    def test_restores_when_the_body_raises(self):
        model = Sequential(Linear(3, 3))
        with pytest.raises(KeyError):
            with model.no_grad():
                raise KeyError("boom")
        assert all(m.grad_enabled for m in _modules(model))

    def test_shared_module_restored_once(self):
        shared = Linear(3, 3)
        model = Sequential(shared, shared)
        with model.no_grad():
            with model.no_grad():
                assert not shared.grad_enabled
            assert not shared.grad_enabled
        assert shared.grad_enabled


@pytest.fixture(scope="module", params=sorted(MODEL_REGISTRY))
def zoo_model(request):
    return (request.param, *_calibrated(request.param))


class TestZooForwards:
    """Every registered model: no-grad forwards equal the grad-mode ones
    bit for bit, leave the input alone, and keep no state."""

    def test_bitwise_and_stateless(self, zoo_model):
        name, model, layers, x = zoo_model
        before = x.copy()
        plain_ref = model.forward(x)
        # The grad-mode forward left caches for the no-grad one to drop.
        assert _cached(model)

        segments = model.segments()
        with _no_grad(model, *segments):
            plain = model.forward(x)
        assert np.array_equal(plain, plain_ref)
        assert np.array_equal(x, before)
        assert _cached(model, *segments) == []
        with pytest.raises(RuntimeError):
            model.backward(np.ones_like(plain))
        assert all(m.grad_enabled for m in _modules(model, *segments))

    def test_segments_run_on_frozen_cuts(self, zoo_model):
        """Every segment runs in no-grad mode on a frozen cut, as a sweep
        replays it, with both fields of a residual state frozen: no
        segment writes into its input or keeps a cache, and the
        composition is the plain forward.  Every model cuts inside its
        residual blocks, vit_s inside each pre-norm half."""
        name, model, layers, x = zoo_model
        segments = model.segments()
        with _no_grad(model, *segments):
            full = model.forward(x)
            a = x.copy()
            states = 0
            for segment in segments:
                if isinstance(a, ResidualState):
                    states += 1
                    assert a.size == a.branch.size + a.skip.size
                    assert a.nbytes == a.branch.nbytes + a.skip.nbytes
                for array in a if isinstance(a, ResidualState) else (a,):
                    array.flags.writeable = False
                a = segment.forward(a)
        assert np.array_equal(a, full)
        assert states > 0
        assert _cached(model, *segments) == []


def _recording_segments(engine):
    """Record the segments each sweep of ``engine`` replays (ViT's
    classifier tail is a wrapper built afresh by every ``segments()``)."""
    seen = []
    segment_map = engine._segment_map

    def recording():
        mapping = segment_map()
        seen.append(mapping[0])
        return mapping

    engine._segment_map = recording
    return seen


def _engine_setup(name, samples=4, seed=1):
    model, layers, x = _calibrated(name, samples=samples, seed=seed)
    y = np.random.default_rng(seed).integers(0, 10, size=samples)
    table = QuantizedWeightTable(layers, QuantConfig(bits=(4, 8)))
    return model, layers, table, x, y


class TestSweepLeavesNoState:
    # "naive": the model wrapped without segments, so the sweep runs it as
    # the one segment [model].
    @pytest.mark.parametrize(
        "name, strategy",
        [("resnet_s20", "segmented"), ("resnet_s20", "naive"),
         ("vit_s", "segmented")],
    )
    def test_no_cache_after_measure(self, name, strategy):
        model, layers, table, x, y = _engine_setup(name)
        swept = Unsegmented(model) if strategy == "naive" else model
        engine = SensitivityEngine(swept, table)
        seen = _recording_segments(engine)
        result = engine.measure(x, y, mode="full")
        assert np.isfinite(result.matrix).all()
        (segments,) = seen
        assert (len(segments) == 1) == (strategy == "naive")
        roots = (model, *segments)
        assert _cached(*roots) == []
        assert all(m.grad_enabled for m in _modules(*roots))
        # The caller's array stays writeable; only the engine's slice of
        # it was frozen as the segment-0 checkpoint.
        assert x.flags.writeable
        # Grad mode is back: a backward pass works on the same model.
        loss, grads = loss_and_grads(model, CrossEntropyLoss(), layers, x, y)
        assert np.isfinite(loss)
        assert all(np.isfinite(g).all() and g.any() for g in grads)

    def test_audit_replays_leave_no_state(self):
        """The determinism audit (plain suffix replays off the clean cache,
        after the sweep) replays without state too."""
        model, layers, table, x, y = _engine_setup("vit_s")
        engine = SensitivityEngine(model, table)
        seen = _recording_segments(engine)
        result = engine.measure(
            x, y,
            SensitivityConfig(batch_size=4, health="warn"),
            mode="full",
        )
        assert result.health.remeasured == 16
        assert result.health.healthy
        (segments,) = seen
        roots = (model, *segments)
        assert _cached(*roots) == []
        assert all(m.grad_enabled for m in _modules(*roots))

    def test_failed_measure_restores_grad_mode(self):
        model, layers, table, x, y = _engine_setup("resnet_s20")
        table.quantized(0, 4)[...] = np.inf  # a candidate that diverges
        engine = SensitivityEngine(model, table)
        seen = _recording_segments(engine)
        with pytest.raises(SweepFailure, match="non-finite"):
            engine.measure(x, y, SensitivityConfig(), mode="diagonal")
        (segments,) = seen
        assert all(m.grad_enabled for m in _modules(model, *segments))
        loss, _ = loss_and_grads(model, CrossEntropyLoss(), layers, x, y)
        assert np.isfinite(loss)


def _traced(forward):
    """``(bytes retained beyond the output, extra peak bytes)`` of a call."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = forward()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current - start - out.nbytes, peak - start


class TestReplayMemory:
    def test_no_grad_forward_retains_nothing(self):
        """A 128-sample resnet_s34 forward with activation quantization on:
        no-grad keeps nothing beyond its output and peaks far lower."""
        model, _, x = _calibrated("resnet_s34", samples=32)
        batch = np.concatenate([x] * 4)
        with model.no_grad():
            kept, peak = _traced(lambda: model.forward(batch))
        grad_kept, grad_peak = _traced(lambda: model.forward(batch))
        assert grad_kept > 8 * batch.nbytes  # the caches the sweep paid for
        assert kept < 64 * 1024  # small Python objects at most
        assert peak < 0.4 * grad_peak


class _RecordingLibc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


class TestHeapRetention:
    """The sweep keeps the heap pages a replay frees (glibc ``mallopt``),
    so later replays stop faulting them in again."""

    @pytest.mark.skipif(
        not hasattr(sensitivity._LIBC, "mallopt"),
        reason="the C library has no mallopt",
    )
    def test_second_sweep_faults_no_pages_in(self):
        # A batch of 16 CIFAR-sized images: resnet_s20's first-stage
        # activations (512 KiB) and conv patch blocks exceed glibc's default
        # 128 KiB thresholds, so without retention the second sweep faults
        # them in again (≈15 k pages).
        model, layers, x = _calibrated("resnet_s20", samples=16, seed=2)
        y = np.random.default_rng(2).integers(0, 10, size=16)
        table = QuantizedWeightTable(layers, QuantConfig(bits=(4, 8)))
        engine = SensitivityEngine(model, table)
        config = SensitivityConfig(batch_size=16)
        first = engine.measure(x, y, config, mode="block")
        second = engine.measure(x, y, config, mode="block")
        assert second.extras["minor_faults"] < 100
        assert second.extras["system_s"] >= 0.0
        np.testing.assert_array_equal(first.matrix, second.matrix)

    def test_sets_both_thresholds(self, monkeypatch):
        libc = _RecordingLibc()
        monkeypatch.setattr(sensitivity, "_LIBC", libc)
        assert sensitivity._retain_freed_heap()
        assert libc.calls == [
            (sensitivity._M_MMAP_THRESHOLD, 32 * 1024 * 1024),
            (sensitivity._M_TRIM_THRESHOLD, 128 * 1024 * 1024),
        ]

    @pytest.mark.parametrize("libc", [None, object()])
    def test_no_mallopt_is_left_alone(self, monkeypatch, libc):
        monkeypatch.setattr(sensitivity, "_LIBC", libc)
        assert not sensitivity._retain_freed_heap()
        model, layers, table, x, y = _engine_setup("resnet_s20")
        result = SensitivityEngine(model, table).measure(x, y, mode="diagonal")
        assert result.extras["minor_faults"] >= 0
