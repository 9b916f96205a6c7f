"""Telemetry subsystem: spans, counters, fork aggregation, manifests."""

import json
import threading

import numpy as np
import pytest

from repro import telemetry


def _children(tree):
    return tree.get("children", [])


def _fork_job(_):
    """Module-level so multiprocessing can pickle it for the worker pool."""
    with telemetry.fork_capture() as capture:
        telemetry.counter("test.realfork").add(3)
    return json.loads(json.dumps(capture.delta))


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Each test starts disabled with empty aggregates and leaves it so."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


class TestCounters:
    def test_disabled_counter_is_noop(self):
        c = telemetry.counter("test.noop")
        c.add(5)
        assert c.value == 0
        assert telemetry.counters_snapshot() == {}

    def test_enabled_counter_accumulates(self):
        c = telemetry.counter("test.acc")
        telemetry.enable()
        c.add()
        c.add(41)
        assert c.value == 42
        assert telemetry.counters_snapshot()["test.acc"] == 42

    def test_counter_registry_is_shared(self):
        a = telemetry.counter("test.shared")
        b = telemetry.counter("test.shared")
        assert a is b

    def test_negative_increment_rejected(self):
        c = telemetry.counter("test.neg")
        telemetry.enable()
        with pytest.raises(ValueError):
            c.add(-1)

    def test_arbitrary_precision(self):
        c = telemetry.counter("test.big")
        telemetry.enable()
        c.add(2**70)
        c.add(2**70)
        assert c.value == 2**71

    def test_reset_clears_values_not_registry(self):
        c = telemetry.counter("test.reset")
        telemetry.enable()
        c.add(3)
        telemetry.reset()
        assert c.value == 0
        c.add(2)
        assert telemetry.counters_snapshot()["test.reset"] == 2

    def test_gauge_set_and_record_max(self):
        g = telemetry.gauge("test.gauge")
        telemetry.enable()
        g.set(1.5)
        g.record_max(0.5)
        assert g.value == 1.5
        g.record_max(9.0)
        assert telemetry.gauges_snapshot()["test.gauge"] == 9.0

    def test_disabled_overhead_is_negligible(self):
        """Smoke check for the "cheap when disabled" contract."""
        c = telemetry.counter("test.overhead")
        t0 = telemetry.monotonic()
        for _ in range(100_000):
            c.add()
        elapsed = telemetry.monotonic() - t0
        assert c.value == 0
        assert elapsed < 0.5  # ~µs/op budget with huge slack for CI noise


class TestSpans:
    def test_spans_ignored_when_disabled(self):
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        assert _children(telemetry.span_tree()) == []

    def test_nesting_and_aggregation(self):
        telemetry.enable()
        for _ in range(3):
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    pass
                with telemetry.span("inner"):
                    pass
        tree = telemetry.span_tree()
        (outer,) = _children(tree)
        assert outer["name"] == "outer"
        assert outer["count"] == 3
        (inner,) = _children(outer)
        assert inner["name"] == "inner"
        assert inner["count"] == 6
        assert 0.0 <= inner["total_s"] <= outer["total_s"]

    def test_exception_still_closes_span(self):
        telemetry.enable()
        with pytest.raises(RuntimeError):
            with telemetry.span("explodes"):
                raise RuntimeError("boom")
        (node,) = _children(telemetry.span_tree())
        assert node["name"] == "explodes" and node["count"] == 1
        # The stack unwound: a new root-level span is a sibling, not a child.
        with telemetry.span("after"):
            pass
        assert {n["name"] for n in _children(telemetry.span_tree())} == {
            "explodes",
            "after",
        }

    def test_threads_have_independent_stacks(self):
        telemetry.enable()
        errors = []

        def worker(tag):
            try:
                for _ in range(50):
                    with telemetry.span(tag):
                        with telemetry.span("leaf"):
                            pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f"t{k}",)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        tree = telemetry.span_tree()
        names = {n["name"]: n for n in _children(tree)}
        assert set(names) == {"t0", "t1", "t2", "t3"}
        for node in names.values():
            assert node["count"] == 50
            assert _children(node)[0]["count"] == 50


class TestForkAggregation:
    def test_capture_and_merge(self):
        """fork_capture swaps in a fresh collector; merge_delta grafts it back."""
        c = telemetry.counter("test.fork")
        telemetry.enable()
        c.add(1)  # parent-side count, must survive the capture
        with telemetry.fork_capture() as capture:
            c.add(10)
            with telemetry.span("child.work"):
                pass
        # Inside the capture the increments went to the scratch collector.
        assert telemetry.counters_snapshot().get("test.fork") == 1
        assert capture.delta["counters"]["test.fork"] == 10
        telemetry.merge_delta(capture.delta, worker=1234)
        assert telemetry.counters_snapshot()["test.fork"] == 11
        names = {n["name"] for n in _children(telemetry.span_tree())}
        assert "child.work" in names
        assert telemetry.worker_totals()[1234]["test.fork"] == 10

    def test_merge_under_open_span(self):
        telemetry.enable()
        with telemetry.fork_capture() as capture:
            with telemetry.span("remote"):
                pass
        with telemetry.span("sweep.evals"):
            telemetry.merge_delta(capture.delta, worker=1)
        (evals,) = _children(telemetry.span_tree())
        assert evals["name"] == "sweep.evals"
        assert {n["name"] for n in _children(evals)} == {"remote"}

    def test_merge_none_delta_is_noop(self):
        telemetry.enable()
        telemetry.merge_delta(None, worker=7)
        assert telemetry.worker_totals() == {}

    def test_real_fork_roundtrip(self):
        """Actual fork: the child's delta is JSON-serializable and merges."""
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        telemetry.enable()
        ctx = mp.get_context("fork")
        with ctx.Pool(1) as pool:
            (delta,) = pool.map(_fork_job, [0])
        telemetry.merge_delta(delta, worker=99)
        assert telemetry.counters_snapshot()["test.realfork"] == 3


class TestRunManifest:
    def test_roundtrip(self, tmp_path):
        with telemetry.start_run(
            "unit-test", config={"alpha": 1}, manifest_dir=tmp_path
        ) as run:
            telemetry.counter("test.manifest").add(7)
            with telemetry.span("phase"):
                pass
            run.add_result(answer=42)
        assert run.path is not None and run.path.exists()
        doc = telemetry.load_manifest(run.path)
        assert doc["schema"] == telemetry.MANIFEST_SCHEMA
        assert doc["command"] == "unit-test"
        assert doc["config"] == {"alpha": 1}
        assert doc["counters"]["test.manifest"] == 7
        assert {n["name"] for n in _children(doc["spans"])} == {"phase"}
        assert doc["results"]["answer"] == 42
        assert "git_rev" in doc and "started_at" in doc

    def test_current_run_scoping(self, tmp_path):
        assert telemetry.current_run() is None
        with telemetry.start_run("scoped", manifest_dir=tmp_path) as run:
            assert telemetry.current_run() is run
        assert telemetry.current_run() is None

    def test_error_recorded(self, tmp_path):
        with pytest.raises(RuntimeError):
            with telemetry.start_run("fails", manifest_dir=tmp_path) as run:
                raise RuntimeError("kaboom")
        doc = telemetry.load_manifest(run.path)
        assert "kaboom" in doc["results"]["error"]

    def test_run_restores_disabled_state(self, tmp_path):
        assert not telemetry.enabled()
        with telemetry.start_run("toggles", manifest_dir=tmp_path):
            assert telemetry.enabled()
        assert not telemetry.enabled()

    def test_format_manifest_renders(self, tmp_path):
        with telemetry.start_run(
            "pretty", config={"k": "v"}, manifest_dir=tmp_path
        ) as run:
            telemetry.counter("test.render").add(2)
            with telemetry.span("work"):
                pass
            run.add_result(score=0.5)
        text = telemetry.format_manifest(telemetry.load_manifest(run.path))
        for fragment in ("pretty", "test.render", "work", "score"):
            assert fragment in text


class TestSweepEvalAccounting:
    """Property: measured forward evals match the paper's closed form."""

    def _mlp(self, num_linear=5, dim=5, num_classes=3, seed=0):
        from repro.nn import Linear, ReLU, Sequential

        rng = np.random.default_rng(seed)
        mods = []
        for k in range(num_linear - 1):
            mods.append(Linear(dim if k else 4, dim, rng=rng))
            mods.append(ReLU())
        mods.append(Linear(dim, num_classes, rng=rng))
        model = Sequential(*mods)
        model.eval()
        return model, [m for m in mods if isinstance(m, Linear)]

    # "naive": the model wrapped without segments, swept one evaluation at a
    # time — every evaluation a full forward, the literal Algorithm 1.
    @pytest.mark.parametrize("strategy", ["naive", "segmented"])
    @pytest.mark.parametrize("bits,num_linear", [((4, 8), 4), ((2, 4, 8), 5)])
    def test_full_sweep_matches_closed_form(self, strategy, bits, num_linear):
        from helpers import Unsegmented
        from repro.core import SensitivityConfig
        from repro.core.sensitivity import SensitivityEngine
        from repro.quant import QuantConfig, QuantizedWeightTable

        model, linears = self._mlp(num_linear=num_linear)

        class _QLayer:
            def __init__(self, idx, module):
                self.index, self.name, self.module = idx, f"fc{idx}", module

            @property
            def weight(self):
                return self.module.weight

            @property
            def num_params(self):
                return self.module.weight.size

        layers = [_QLayer(i, m) for i, m in enumerate(linears)]
        table = QuantizedWeightTable(layers, QuantConfig(bits=bits))
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=12)

        config = SensitivityConfig()
        if strategy == "naive":
            model = Unsegmented(model)
        telemetry.enable()
        result = SensitivityEngine(model, table).measure(x, y, config, mode="full")
        assert result.extras["num_segments"] == (
            1 if strategy == "naive" else len(model.layers)
        )
        nb, ii = len(bits), len(layers)
        expected = 1 + ii * nb + (ii * (ii - 1) // 2) * nb * nb
        counters = telemetry.counters_snapshot()
        assert counters["sensitivity.forward_evals"] == expected

    def test_diagonal_sweep_closed_form(self):
        from repro.core.sensitivity import SensitivityEngine
        from repro.quant import QuantConfig, QuantizedWeightTable

        model, linears = self._mlp(num_linear=4)

        class _QLayer:
            def __init__(self, idx, module):
                self.index, self.name, self.module = idx, f"fc{idx}", module

            @property
            def weight(self):
                return self.module.weight

            @property
            def num_params(self):
                return self.module.weight.size

        layers = [_QLayer(i, m) for i, m in enumerate(linears)]
        table = QuantizedWeightTable(layers, QuantConfig(bits=(4, 8)))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=10)

        telemetry.enable()
        engine = SensitivityEngine(model, table)
        engine.measure(x, y, mode="diagonal")
        counters = telemetry.counters_snapshot()
        assert counters["sensitivity.forward_evals"] == 1 + len(layers) * 2
