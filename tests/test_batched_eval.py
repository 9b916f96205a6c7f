"""Config-batched evaluation: stacked kernels, chunk planning, and the
batched sweep/evaluation paths' exactness guarantees."""

import numpy as np
import pytest

from helpers import naive_sweep
from repro import telemetry
from repro.core import (
    SensitivityConfig,
    SensitivityEngine,
    auto_eval_batch_k,
    build_batch_chunks,
    evaluate_assignment,
    evaluate_assignments,
    setup_activation_quant,
)
from repro.core.sensitivity import SweepSession
from repro.core.sweep import EvalSpec
from repro.models import MODEL_REGISTRY, build_model, quantizable_layers
from repro.nn import (
    Conv2d,
    Linear,
    ReLU,
    Sequential,
    fold_candidates,
    unfold_candidates,
)
from repro.nn import functional as F
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
def mlp_setup():
    model, layers = _deep_mlp()
    table = QuantizedWeightTable(layers, QuantConfig(bits=(4, 8)))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(20, 4)).astype(np.float32)
    y = rng.integers(0, 3, size=20)
    return model, layers, table, x, y


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


def _every_row(ws):
    """An overlay giving each candidate ``k`` its own weight ``ws[k]``."""
    return F.BatchedWeightOverlay(len(ws), np.zeros_like(ws[0]), dict(enumerate(ws)))


class _NoMatmul(np.ndarray):
    """A weight view that fails any matrix product it takes part in."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            raise AssertionError("multiplied by the overlay's base weight")
        inputs = [np.asarray(v) for v in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestBatchedKernels:
    """Overlay kernels with a row for every candidate equal the
    per-candidate loop bit for bit."""

    def test_linear_matches_per_candidate(self):
        rng = np.random.default_rng(0)
        k, n, d_in, d_out = 5, 4, 7, 3
        x = rng.normal(size=(n, d_in)).astype(np.float32)
        ws = rng.normal(size=(k, d_out, d_in)).astype(np.float32)
        b = rng.normal(size=d_out).astype(np.float32)
        out = F.linear_forward_overlay(fold_candidates(x, k), _every_row(ws), b)
        out = unfold_candidates(out, k)
        for i in range(k):
            np.testing.assert_array_equal(out[i], x @ ws[i].T + b)

    def test_linear_3d_input(self):
        rng = np.random.default_rng(1)
        k, n, t, d_in, d_out = 3, 2, 5, 4, 6
        x = rng.normal(size=(n, t, d_in)).astype(np.float32)
        ws = rng.normal(size=(k, d_out, d_in)).astype(np.float32)
        out = unfold_candidates(
            F.linear_forward_overlay(fold_candidates(x, k), _every_row(ws), None),
            k,
        )
        for i in range(k):
            np.testing.assert_array_equal(out[i], x @ ws[i].T)

    @pytest.mark.parametrize("kind", ["conv", "linear"])
    def test_every_row_never_multiplies_by_base(self, kind):
        rng = np.random.default_rng(7)
        k, n = 3, 2
        if kind == "conv":
            x = rng.normal(size=(n, 2, 5, 5)).astype(np.float32)
            ws = rng.normal(size=(k, 3, 2, 3, 3)).astype(np.float32)
        else:
            x = rng.normal(size=(n, 4)).astype(np.float32)
            ws = rng.normal(size=(k, 3, 4)).astype(np.float32)
        overlay = _every_row(ws)
        overlay.base = overlay.base.view(_NoMatmul)
        folded = fold_candidates(x, k)
        if kind == "conv":
            out = F.conv2d_forward_overlay(folded, overlay, None, 1, 1, 1)
            want = [F.conv2d_forward(x, w, None, 1, 1, 1)[0] for w in ws]
        else:
            out = F.linear_forward_overlay(folded, overlay, None)
            want = [x @ w.T for w in ws]
        assert type(out) is np.ndarray
        for i, expected in enumerate(want):
            np.testing.assert_array_equal(unfold_candidates(out, k)[i], expected)

    @pytest.mark.parametrize("groups", [1, 2])
    def test_conv_matches_per_candidate(self, groups):
        rng = np.random.default_rng(2)
        k, n, c_in, c_out = 4, 3, 4, 6
        x = rng.normal(size=(n, c_in, 8, 8)).astype(np.float32)
        ws = rng.normal(size=(k, c_out, c_in // groups, 3, 3)).astype(np.float32)
        b = rng.normal(size=c_out).astype(np.float32)
        out = unfold_candidates(
            F.conv2d_forward_overlay(
                fold_candidates(x, k), _every_row(ws), b, 1, 1, groups
            ),
            k,
        )
        conv = Conv2d(c_in, c_out, 3, stride=1, padding=1, groups=groups)
        conv.eval()
        for i in range(k):
            conv.weight.data = ws[i]
            conv.bias.data = b
            np.testing.assert_array_equal(out[i], conv.forward(x))

    @pytest.mark.parametrize("rows", [(), (1, 3), (0, 4)])
    def test_linear_sparse_rows_match_plain_forward(self, rows):
        """Slices without a row run on the base weight, slices with one on
        their own; each equals the plain N-row GEMM bit for bit (a single
        GEMM over all K*N rows rounds differently on 8-row slices)."""
        rng = np.random.default_rng(8)
        k, n, d_in, d_out = 5, 8, 48, 96
        x = rng.normal(size=(n, d_in)).astype(np.float32)
        base = rng.normal(size=(d_out, d_in)).astype(np.float32)
        b = rng.normal(size=d_out).astype(np.float32)
        ws = {r: rng.normal(size=(d_out, d_in)).astype(np.float32) for r in rows}
        overlay = F.BatchedWeightOverlay(k, base, ws)
        out = unfold_candidates(
            F.linear_forward_overlay(fold_candidates(x, k), overlay, b), k
        )
        for i in range(k):
            plain = x @ ws.get(i, base).T
            plain += b
            np.testing.assert_array_equal(out[i], plain)

    def test_indivisible_batch_rejected(self):
        x = np.zeros((7, 4), dtype=np.float32)
        ws = np.zeros((3, 2, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="not divisible"):
            F.linear_forward_overlay(x, _every_row(ws), None)

    def test_fold_unfold_roundtrip(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 2, 3)).astype(np.float32)
        folded = fold_candidates(x, 4)
        assert folded.shape == (20, 2, 3)
        back = unfold_candidates(folded, 4)
        for i in range(4):
            np.testing.assert_array_equal(back[i], x)
        with pytest.raises(ValueError):
            unfold_candidates(folded[:-1], 4)

    def test_layer_overlay_routes_to_batched(self):
        rng = np.random.default_rng(4)
        lin = Linear(4, 3, rng=rng)
        lin.eval()
        x = rng.normal(size=(2, 4)).astype(np.float32)
        ws = rng.normal(size=(3, 3, 4)).astype(np.float32)
        lin.weight_batch = _every_row(ws)
        try:
            out = unfold_candidates(lin.forward(fold_candidates(x, 3)), 3)
        finally:
            lin.weight_batch = None
        for i in range(3):
            np.testing.assert_array_equal(out[i], x @ ws[i].T + lin.bias.data)

    def test_table_overlays_every_linear_under_the_roots(self):
        """Searched layers with rows get them, every other Linear under
        the roots an overlay without rows, layers outside none; all come
        off on exit, and rows outside the roots are refused."""
        model, layers = _deep_mlp(num_linear=4)
        table = QuantizedWeightTable(layers[1:], QuantConfig(bits=(4, 8)))
        roots = model.layers[2:]  # the second Linear onwards
        linears = [m for m in model.layers if isinstance(m, Linear)]
        row = table.quantized(0, 4)
        with table.batched(roots, 3, {0: {1: row}}):
            assert linears[0].weight_batch is None
            assert linears[1].weight_batch.rows.keys() == {1}
            assert linears[1].weight_batch.rows[1] is row
            for lin in linears[2:]:
                assert lin.weight_batch.width == 3
                assert lin.weight_batch.rows == {}
                assert lin.weight_batch.base is lin.weight.data
        assert all(lin.weight_batch is None for lin in linears)
        with pytest.raises(ValueError, match="not under the roots"):
            with table.batched(roots[2:], 3, {0: {1: row}}):
                pass
        assert all(lin.weight_batch is None for lin in linears)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("kind", ["conv", "linear"])
    def test_stacked_forward_drops_backward_cache(self, kind, sparse):
        """A backward after a stacked forward raises; it must not use the
        cache an earlier plain forward left behind.  ``sparse`` overlays
        one row; the other kind gives every candidate a row."""
        rng = np.random.default_rng(5)
        if kind == "conv":
            layer = Conv2d(2, 3, 3, padding=1, rng=rng)
            x = rng.normal(size=(2, 2, 5, 5)).astype(np.float32)
        else:
            layer = Linear(4, 3, rng=rng)
            x = rng.normal(size=(2, 4)).astype(np.float32)
        layer.eval()
        out = layer.forward(x)
        w = layer.weight.data
        layer.weight_batch = (
            F.BatchedWeightOverlay(3, w, {1: 2 * w}) if sparse
            else _every_row(np.stack([w, 2 * w, w]))
        )
        try:
            layer.forward(fold_candidates(x, 3))
        finally:
            layer.weight_batch = None
        with pytest.raises(RuntimeError, match="without a prior forward"):
            layer.backward(np.ones_like(out))


class TestChunkPlanning:
    def _specs(self, starts):
        return [
            EvalSpec(index=i, kind="pair", i=0, m=0, j=1, n=0, start_segment=s)
            for i, s in enumerate(starts)
        ]

    def test_covers_each_spec_once(self):
        specs = self._specs([3, 1, 4, 4, 0, 2])
        chunks = build_batch_chunks(specs, num_segments=5, max_k=3)
        seen = sorted(s.index for c in chunks for s in c.specs)
        assert seen == [0, 1, 2, 3, 4, 5]
        for c in chunks:
            assert c.width <= 3
            assert c.cut == min(s.start_segment for s in c.specs)

    def test_max_k_one_is_singletons(self):
        specs = self._specs([2, 0, 1])
        chunks = build_batch_chunks(specs, num_segments=4, max_k=1)
        assert [c.width for c in chunks] == [1, 1, 1]

    def test_waste_factor_blocks_bad_merges(self):
        # Three near-free late evals (start 9 of 10) must not be dragged
        # to full-depth replays just to share a chunk with an early one:
        # stacked cost 4*10 = 40 > 2 * (3*1 + 10) = 26.
        specs = self._specs([9, 9, 9, 0])
        chunks = build_batch_chunks(specs, num_segments=10, max_k=8)
        assert len(chunks) == 2
        widths = sorted(c.width for c in chunks)
        assert widths == [1, 3]

    def test_stacked_cost_within_waste_bound(self):
        specs = self._specs(list(range(10)) * 2)
        for chunk in build_batch_chunks(specs, num_segments=10, max_k=6):
            assert chunk.cost(10) <= 2.0 * chunk.solo_cost(10)

    def test_invalid_max_k(self):
        with pytest.raises(ValueError):
            build_batch_chunks([], num_segments=3, max_k=0)


def _sweep(model, table, x, y, **config):
    return SensitivityEngine(model, table).measure(
        x, y, SensitivityConfig(batch_size=8, **config)
    )


class TestBatchedSweepEquivalence:
    """The acceptance property: batched replay changes nothing but speed."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_naive_and_sequential(self, mlp_setup, workers):
        model, layers, table, x, y = mlp_setup
        naive = naive_sweep(model, table, x, y, batch_size=8)
        seq = _sweep(model, table, x, y, eval_batch_k=1)
        fast = _sweep(model, table, x, y, num_workers=workers)
        # A width-1 sweep stacks nothing: it is the sequential engine.
        assert seq.extras["batched_chunks"] == seq.extras["batched_evals"] == 0
        assert fast.extras["eval_batch_k"] > 1
        assert fast.extras["batched_chunks"] > 0
        assert fast.extras["batched_evals"] > 0
        # Every candidate slice of a stacked replay runs the GEMMs of its
        # plain replay, so pair entries are bitwise too.
        np.testing.assert_array_equal(fast.matrix, seq.matrix)
        np.testing.assert_array_equal(fast.single_losses, seq.single_losses)
        np.testing.assert_array_equal(fast.matrix, naive.matrix)
        np.testing.assert_array_equal(fast.single_losses, naive.single_losses)
        assert fast.base_loss == seq.base_loss
        assert fast.num_evals == naive.num_evals

    def test_identical_argmin_assignment(self, mlp_setup):
        model, layers, table, x, y = mlp_setup
        seq = _sweep(model, table, x, y, eval_batch_k=1)
        fast = _sweep(model, table, x, y)
        # Bitwise G-hat: any downstream per-(layer, bit) argmin agrees.
        bits = np.asarray(table.config.bits)
        np.testing.assert_array_equal(fast.matrix, seq.matrix)
        np.testing.assert_array_equal(fast.single_losses, seq.single_losses)
        assert np.array_equal(
            np.argmin(seq.single_losses, axis=1), np.argmin(fast.single_losses, axis=1)
        )
        assert bits.size > 1  # sanity: there was a choice to make

    def test_explicit_small_batch_k(self, mlp_setup):
        model, layers, table, x, y = mlp_setup
        seq = _sweep(model, table, x, y, eval_batch_k=1)
        k2 = _sweep(model, table, x, y, eval_batch_k=2)
        assert k2.extras["batch_width_max"] <= 2
        np.testing.assert_array_equal(k2.matrix, seq.matrix)

    def test_batched_does_fewer_segment_forwards(self, mlp_setup):
        model, layers, table, x, y = mlp_setup
        seq = _sweep(model, table, x, y, eval_batch_k=1)
        fast = _sweep(model, table, x, y)
        assert (
            fast.extras["segment_forwards"] < seq.extras["segment_forwards"]
        )

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_zoo_stacked_matches_width_one(self, name):
        """On every zoo model the stacked Ĝ is bitwise the sequential one:
        unsearched linears (classifier heads) run per candidate slice."""
        rng = np.random.default_rng(0)
        model = build_model(name, num_classes=10)
        model.eval()
        table = QuantizedWeightTable(
            quantizable_layers(model, name), QuantConfig(bits=(2, 4, 8))
        )
        x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
        y = rng.integers(0, 10, size=8)
        engine = SensitivityEngine(model, table)
        seq = engine.measure(x, y, SensitivityConfig(eval_batch_k=1), mode="block")
        fast = engine.measure(x, y, SensitivityConfig(), mode="block")
        assert fast.extras["batched_chunks"] > 0
        np.testing.assert_array_equal(fast.matrix, seq.matrix)
        np.testing.assert_array_equal(fast.single_losses, seq.single_losses)

    @pytest.mark.parametrize("name", ["resnet_s20", "resnet_s34"])
    def test_stacked_convs_compute_no_slice_twice(self, name, monkeypatch):
        """With a cut before every searched stage, a candidate replays
        from its partner's own segment, so no conv of a stacked replay
        computes two identical candidate slices.  Only a downsample conv
        may: it recomputes the same shortcut for every candidate whose
        partner sits inside its block."""
        rng = np.random.default_rng(0)
        model = build_model(name, num_classes=10)
        model.eval()
        table = QuantizedWeightTable(
            quantizable_layers(model, name), QuantConfig(bits=(2, 4, 8))
        )
        x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
        y = rng.integers(0, 10, size=8)
        shortcuts = {
            id(m) for n, m in model.named_modules() if ".downsample" in n
        }
        width = [1]
        probed = []
        duplicates = []
        run_chunk = SweepSession._run_chunk
        conv_forward = Conv2d.forward

        def chunk_probe(self, chunk, g, group_cache):
            width[0] = chunk.width
            try:
                return run_chunk(self, chunk, g, group_cache)
            finally:
                width[0] = 1

        def conv_probe(self, a):
            out = conv_forward(self, a)
            k = width[0]
            if k > 1 and id(self) not in shortcuts:
                slices = unfold_candidates(out, k).reshape(k, -1)
                # Equal slices have equal projections; compare those only.
                weights = np.linspace(1.0, 2.0, slices.shape[1], dtype=np.float32)
                keys = slices @ weights
                for a_k in range(k):
                    for b_k in range(a_k):
                        if keys[a_k] == keys[b_k] and np.array_equal(
                            slices[a_k], slices[b_k]
                        ):
                            duplicates.append((self.out_channels, a_k, b_k))
                probed.append(k)
            return out

        monkeypatch.setattr(SweepSession, "_run_chunk", chunk_probe)
        monkeypatch.setattr(Conv2d, "forward", conv_probe)
        result = SensitivityEngine(model, table).measure(
            x, y, SensitivityConfig(batch_size=8), mode="block"
        )
        assert result.extras["batched_chunks"] > 0
        assert probed
        assert duplicates == []

    def test_invalid_eval_batch_k(self, mlp_setup):
        model, layers, table, x, y = mlp_setup
        with pytest.raises(ValueError):
            SensitivityConfig(eval_batch_k=-1)

    def test_auto_eval_batch_k_bounds(self):
        x = np.zeros((8, 3, 32, 32), dtype=np.float32)
        k = auto_eval_batch_k(x, batch_size=8)
        assert 1 <= k <= 32
        # A gigantic batch should clamp the width down to 1, never 0.
        big = np.zeros((2, 3, 1024, 1024), dtype=np.float32)
        assert auto_eval_batch_k(big, batch_size=2) >= 1


class TestEvaluateAssignments:
    def _assignments(self, table, count, seed=7):
        rng = np.random.default_rng(seed)
        bits = table.config.bits
        return [list(rng.choice(bits, size=table.num_layers)) for _ in range(count)]

    @pytest.mark.parametrize("act_quant", [False, True])
    def test_matches_sequential_loop_exactly(self, resnet_setup, act_quant):
        model, layers, table, images, labels = resnet_setup
        if act_quant:
            setup_activation_quant(model, layers, images[:8], bits=8)
        try:
            assigns = self._assignments(table, 5)
            seq = [
                evaluate_assignment(model, table, a, images, labels, batch_size=10)
                for a in assigns
            ]
            for k in (0, 1, 3):
                got = evaluate_assignments(
                    model, table, assigns, images, labels,
                    batch_size=10, eval_batch_k=k,
                )
                assert got == seq
        finally:
            for layer in layers:
                layer.module.act_quant = None

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_zoo_matches_sequential_loop_exactly(self, name):
        """Bitwise on every zoo model, classifier heads outside the search
        space included."""
        rng = np.random.default_rng(3)
        model = build_model(name, num_classes=10)
        model.eval()
        table = QuantizedWeightTable(
            quantizable_layers(model, name), QuantConfig(bits=(2, 4, 8))
        )
        images = rng.standard_normal((64, 3, 32, 32)).astype(np.float32)
        labels = rng.integers(0, 10, size=64)
        assigns = self._assignments(table, 3)
        seq = [evaluate_assignment(model, table, a, images, labels) for a in assigns]
        assert evaluate_assignments(model, table, assigns, images, labels) == seq

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
