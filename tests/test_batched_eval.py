"""Assignment evaluation's input checks, the vectorized MSE scale search,
and the quantized-weight memo."""

import numpy as np
import pytest

from repro import telemetry
from repro.core import evaluate_assignment, evaluate_assignments
from repro.models import build_model, quantizable_layers
from repro.nn import Linear, ReLU, Sequential
from repro.quant import QuantConfig, QuantizedWeightTable, mse_optimal_scale
from repro.quant.calibration import _MSE_CHUNK_ELEMS
from repro.quant.qmodel import _QuantMemo
from repro.quant.quantizers import quantize_symmetric


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


@pytest.fixture(scope="module")
def resnet_setup():
    rng = np.random.default_rng(0)
    model = build_model("resnet_s20", num_classes=4)
    model.eval()
    layers = quantizable_layers(model, "resnet_s20")
    table = QuantizedWeightTable(layers, QuantConfig(bits=(2, 4, 8)))
    images = rng.standard_normal((24, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, 4, size=24)
    return model, layers, table, images, labels


class TestEvaluateAssignments:
    def test_empty_assignments(self, resnet_setup):
        model, _, table, images, labels = resnet_setup
        assert evaluate_assignments(model, table, [], images, labels) == []

    def test_wrong_length_rejected(self, resnet_setup):
        model, _, table, images, labels = resnet_setup
        with pytest.raises(ValueError, match="assignment length"):
            evaluate_assignments(model, table, [[8]], images, labels)

    def test_empty_eval_set_rejected(self, resnet_setup):
        model, _, table, images, labels = resnet_setup
        bits = [8] * table.num_layers
        empty = images[:0]
        with pytest.raises(ValueError, match="empty"):
            evaluate_assignment(model, table, bits, empty, labels[:0])
        with pytest.raises(ValueError, match="empty"):
            evaluate_assignments(model, table, [bits], empty, labels[:0])

    def test_nonpositive_batch_size_rejected(self, resnet_setup):
        model, _, table, images, labels = resnet_setup
        bits = [8] * table.num_layers
        with pytest.raises(ValueError, match="batch_size"):
            evaluate_assignment(model, table, bits, images, labels, batch_size=0)

    def test_oversized_batch_size_is_one_full_batch(self, resnet_setup):
        model, _, table, images, labels = resnet_setup
        bits = [8] * table.num_layers
        small = evaluate_assignment(model, table, bits, images, labels, batch_size=8)
        huge = evaluate_assignment(
            model, table, bits, images, labels, batch_size=10_000
        )
        assert huge == pytest.approx(small, abs=1e-6)


def _mse_scale_reference(w, bits, grid=60, low=0.2):
    """The pre-vectorization per-candidate loop, kept verbatim as oracle."""
    w = np.asarray(w)
    max_abs = float(np.abs(w).max(initial=0.0))
    qmax = 2 ** (bits - 1) - 1
    if max_abs == 0.0:
        return 1.0
    if qmax == 0:
        return max_abs
    best_scale = max_abs / qmax
    best_err = np.inf
    ratios = np.linspace(low, 1.0, grid)
    divisors = sorted({2 ** (k - 1) - 1 for k in range(2, bits + 1)})
    for divisor in divisors:
        for ratio in ratios:
            scale = ratio * max_abs / divisor
            err = float(((w - quantize_symmetric(w, bits, scale)) ** 2).sum())
            if err < best_err:
                best_err = err
                best_scale = scale
    return best_scale


class TestMseScaleRegression:
    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 8])
    def test_bitwise_identical_to_loop(self, bits):
        rng = np.random.default_rng(bits)
        for shape in [(16,), (12, 7), (4, 3, 3, 3)]:
            w = rng.normal(size=shape).astype(np.float32) * rng.uniform(0.1, 3.0)
            assert mse_optimal_scale(w, bits) == _mse_scale_reference(w, bits)

    def test_edge_cases(self):
        zeros = np.zeros((5, 5), dtype=np.float32)
        assert mse_optimal_scale(zeros, 4) == 1.0
        w = np.ones(3, dtype=np.float32)
        assert mse_optimal_scale(w, 1) == _mse_scale_reference(w, 1)

    def test_ties_take_first_candidate(self):
        # A constant tensor produces exact-roundtrip candidates at many
        # scales; both implementations must keep the first (strict <).
        w = np.full(8, 0.5, dtype=np.float32)
        for bits in (2, 4):
            assert mse_optimal_scale(w, bits) == _mse_scale_reference(w, bits)

    def test_chunking_spans_candidate_grid(self):
        # Exercise the multi-chunk path: tensor big enough that the chunk
        # size forces several broadcast blocks.
        rng = np.random.default_rng(9)
        w = rng.normal(size=(2 * _MSE_CHUNK_ELEMS,)).astype(np.float32)
        assert mse_optimal_scale(w, 4) == _mse_scale_reference(w, 4)


class TestWeightMemo:
    def test_hit_returns_equal_but_unaliased(self):
        memo = _QuantMemo(max_entries=4)
        rng = np.random.default_rng(0)
        w = rng.normal(size=(6, 5)).astype(np.float32)
        first = memo.get(w, 4, "symmetric")
        second = memo.get(w.copy(), 4, "symmetric")
        np.testing.assert_array_equal(first, second)
        assert first is not second
        second[:] = 0  # mutating a returned array must not poison the memo
        third = memo.get(w, 4, "symmetric")
        np.testing.assert_array_equal(first, third)

    def test_distinct_configs_distinct_entries(self):
        memo = _QuantMemo(max_entries=8)
        w = np.linspace(-1, 1, 24, dtype=np.float32).reshape(4, 6)
        a = memo.get(w, 4, "symmetric")
        b = memo.get(w, 8, "symmetric")
        assert not np.array_equal(a, b)

    def test_content_keyed_not_identity_keyed(self):
        memo = _QuantMemo(max_entries=4)
        w = np.linspace(-1, 1, 12, dtype=np.float32)
        before = memo.get(w, 4, "symmetric").copy()
        w += 1.0  # in-place mutation (QAT) must miss, not hit stale entry
        after = memo.get(w, 4, "symmetric")
        assert not np.array_equal(before, after)

    def test_lru_bounded(self):
        memo = _QuantMemo(max_entries=2)
        for i in range(5):
            memo.get(np.full(4, float(i + 1), dtype=np.float32), 4, "symmetric")
        assert len(memo._store) <= 2

    def test_table_reports_hits_and_misses(self):
        telemetry.disable()
        telemetry.reset()
        _, layers = _deep_mlp(num_linear=3)
        telemetry.enable()
        try:
            QuantizedWeightTable.memo.clear()
            QuantizedWeightTable(layers, QuantConfig(bits=(4, 8)))
            snap = telemetry.counters_snapshot()
            assert snap.get("quant.weight_table_misses", 0) > 0
            assert snap.get("quant.weight_table_hits", 0) == 0
            QuantizedWeightTable(layers, QuantConfig(bits=(4, 8)))
            snap = telemetry.counters_snapshot()
            assert snap.get("quant.weight_table_hits", 0) > 0
        finally:
            telemetry.disable()
            telemetry.reset()
