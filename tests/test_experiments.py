"""Experiment-layer tests: context caching, configs, formatting helpers.

These use a temp cache dir and tiny scales so no test depends on (or
pollutes) the repo-level experiment cache.
"""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentContext,
    Scale,
    format_assignment,
    format_series,
    format_table,
    get_scale,
    model_quant_config,
)
from repro.experiments.compare import ComparisonResult
from repro.quant import DEFAULT_BITS, MOBILENET_BITS


class TestScale:
    def test_default_scale(self):
        scale = get_scale("default")
        assert scale.sensitivity_set_size > 0
        assert len(scale.table1_avg_bits) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert get_scale().name == "smoke"

    def test_unknown_scale_raises(self):
        with pytest.raises(KeyError):
            get_scale("galactic")

    def test_paper_scale_larger(self):
        assert (
            get_scale("paper").sensitivity_set_size
            > get_scale("smoke").sensitivity_set_size
        )


class TestModelQuantConfig:
    def test_mobilenet_conservative_bits(self):
        assert model_quant_config("mobilenet_s").bits == MOBILENET_BITS

    def test_resnet_default_bits(self):
        cfg = model_quant_config("resnet_s34")
        assert cfg.bits == DEFAULT_BITS
        assert cfg.scheme == "symmetric"

    def test_affine_models(self):
        assert model_quant_config("vit_s").scheme == "affine"
        assert model_quant_config("mobilenet_s").scheme == "affine"


@pytest.fixture
def ctx(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    # Tiny zoo recipes so model training inside the context is fast.
    import repro.models.zoo as zoo
    from repro.models.zoo import TrainConfig

    for name in list(zoo._RECIPES):
        monkeypatch.setitem(
            zoo._RECIPES, name, TrainConfig(epochs=1, n_train=96, n_val=32)
        )
    scale = Scale(
        name="test",
        sensitivity_set_size=8,
        val_size=32,
        table1_avg_bits=(3.0,),
        pareto_avg_bits=(3.0, 5.0),
        fig4_set_sizes=(8,),
        fig4_replicates=2,
        qat_epochs=1,
        qat_train_size=64,
        hawq_probes=1,
        solver_time_limit=3.0,
    )
    return ExperimentContext(scale)


class TestExperimentContext:
    def test_model_memoized(self, ctx):
        m1 = ctx.model("resnet_s20")
        m2 = ctx.model("resnet_s20")
        assert m1 is m2

    def test_fresh_model_distinct(self, ctx):
        assert ctx.fresh_model("resnet_s20") is not ctx.model("resnet_s20")

    def test_budget_average_bits(self, ctx):
        from repro.models import quantizable_layers

        model = ctx.model("resnet_s20")
        total = sum(q.num_params for q in quantizable_layers(model, "resnet_s20"))
        assert ctx.budget("resnet_s20", 4.0) == total * 4

    def test_sensitivity_cache_roundtrip(self, ctx):
        r1 = ctx.measured_sensitivity("resnet_s20", "diagonal", set_size=8)
        r2 = ctx.measured_sensitivity("resnet_s20", "diagonal", set_size=8)
        np.testing.assert_array_equal(r1.matrix, r2.matrix)
        assert r1.base_loss == r2.base_loss
        assert r1.bits == r2.bits

    def test_sensitivity_cache_key_distinguishes_replicates(self, ctx):
        from repro.store import request_key

        algo = ctx.make_algorithm("clado", "resnet_s20")
        k0, k1 = (
            request_key(
                algo, *ctx.sensitivity_data(8, replicate), algo.sensitivity_config
            )
            for replicate in (0, 1)
        )
        assert k0 != k1
        assert k0.mismatches(k1) == ("data",)

    def test_sensitivity_cache_sees_weight_changes(self, ctx):
        from repro.models import quantizable_layers

        ctx.measured_sensitivity("resnet_s20", "diagonal", set_size=8)
        layer = quantizable_layers(ctx.model("resnet_s20"), "resnet_s20")[0]
        layer.weight.data = layer.weight.data * 0.5
        served = ctx.measured_sensitivity("resnet_s20", "diagonal", set_size=8)
        fresh = ctx.make_algorithm("clado_star", "resnet_s20")
        x, y = ctx.sensitivity_data(8)
        ctx.attach_activation_quant("resnet_s20", fresh.layers, x)
        fresh.prepare(x, y)
        np.testing.assert_array_equal(served.matrix, fresh.raw.matrix)

    def test_sensitivity_cache_survives_a_truncated_entry(self, ctx):
        from repro.models import cache_dir
        from repro.store import ArtifactStore

        first = ctx.measured_sensitivity("resnet_s20", "diagonal", set_size=8)
        (entry,) = ArtifactStore(cache_dir() / "store").entries()
        entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
        again = ctx.measured_sensitivity("resnet_s20", "diagonal", set_size=8)
        np.testing.assert_array_equal(again.matrix, first.matrix)

    def test_result_save_load(self, ctx):
        assert ctx.load_result("nothing") is None
        ctx.save_result("thing", {"a": [1, 2]})
        assert ctx.load_result("thing") == {"a": [1, 2]}

    def test_make_algorithm_kinds(self, ctx):
        for kind, expected in [
            ("clado", "CLADO"),
            ("clado_star", "CLADO*"),
            ("clado_block", "CLADO-block"),
            ("hawq", "HAWQ"),
            ("mpqco", "MPQCO"),
        ]:
            assert ctx.make_algorithm(kind, "resnet_s20").name == expected
        with pytest.raises(ValueError):
            ctx.make_algorithm("magic", "resnet_s20")

    def test_val_data_shapes(self, ctx):
        x, y = ctx.val_data
        assert len(x) == 32
        assert len(y) == 32


class TestComparisonResultSerialization:
    def test_roundtrip(self):
        result = ComparisonResult(
            model_name="m",
            avg_bits=[3.0],
            sizes_mb=[1.5],
            accuracy={"clado": [90.0]},
            loss={"clado": [0.4]},
            assignments={"clado": [[2, 4, 8]]},
            prepare_seconds={"clado": 1.0},
            fp_accuracy=99.0,
        )
        again = ComparisonResult.from_json(result.to_json())
        assert again.accuracy == result.accuracy
        assert again.fp_accuracy == result.fp_accuracy


class TestFormatting:
    def test_format_table_contains_values(self):
        out = format_table("T", ["a", "b"], {"row": [1.234, 5.678]})
        assert "T" in out and "1.23" in out and "5.68" in out

    def test_format_series(self):
        out = format_series("S", {"algo": [(1.0, 90.0), (2.0, 95.0)]})
        assert "algo" in out and "90.00" in out

    def test_format_assignment(self):
        out = format_assignment(
            "A", ["conv1", "conv2"], {"clado": [2, 8], "hawq": [4, 4]}
        )
        assert "conv1" in out and "clado" in out
        lines = out.splitlines()
        assert any("conv2" in ln and "8" in ln for ln in lines)
