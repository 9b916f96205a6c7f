"""CLI smoke tests (argument parsing + the cheap commands)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_allocate_defaults(self):
        args = build_parser().parse_args(["allocate"])
        assert args.model == "resnet_s34"
        assert args.algorithm == "clado"
        assert args.avg_bits == 4.0

    def test_allocate_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["allocate", "--algorithm", "magic"])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table1"])
        assert args.name == "table1"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["allocate", "--workers", "-3"],
            ["allocate", "--max-retries", "-1"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_invalid_sweep_option_exits_2_before_loading(
        self, argv, monkeypatch, capsys
    ):
        import repro.models

        def loaded(*args, **kwargs):
            raise AssertionError("model loaded before the options were checked")

        monkeypatch.setattr(repro.models, "get_pretrained", loaded)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["allocate", "--health-rounds", "2"],
            ["allocate", "--no-health-repair"],
            ["allocate-cached", "--store", "s", "--health-rounds", "2"],
            ["allocate", "--eval-batch-k", "4"],
            ["allocate", "--deadline", "5"],
            ["allocate-cached", "--store", "s", "--deadline", "5"],
            ["allocate-cached", "--store", "s", "--no-warm-chain"],
        ],
        ids=[
            "allocate --health-rounds",
            "allocate --no-health-repair",
            "allocate-cached --health-rounds",
            "allocate --eval-batch-k",
            "allocate --deadline",
            "allocate-cached --deadline",
            "allocate-cached --no-warm-chain",
        ],
    )
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        """The determinism audit has no rounds and no repair to switch,
        every sweep replay is plain, so there is no stack width to set, and
        branch-and-bound's ``--time-limit`` is the one solver deadline."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["allocate", "allocate-cached"])
    @pytest.mark.parametrize("size", ["0", "-4"])
    def test_invalid_set_size_exits_2_before_loading(
        self, command, size, tmp_path, monkeypatch, capsys
    ):
        import repro.models

        def loaded(*args, **kwargs):
            raise AssertionError("model loaded before the options were checked")

        monkeypatch.setattr(repro.models, "get_pretrained", loaded)
        argv = [command, "--set-size", size]
        if command == "allocate-cached":
            argv += ["--store", str(tmp_path / "store")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--set-size" in err and "must be >= 1" in err


class TestCommands:
    def test_models_command(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "resnet_s34" in out
        assert "quantizable layers" in out

    def test_models_verbose_lists_layers(self, capsys):
        assert main(["models", "-v"]) == 0
        out = capsys.readouterr().out
        assert "stages.0" in out or "layer.0" in out

    def test_pretrain_subset(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        import repro.models.zoo as zoo
        from repro.models.zoo import TrainConfig

        monkeypatch.setitem(
            zoo._RECIPES, "resnet_s20", TrainConfig(epochs=1, n_train=64, n_val=32)
        )
        assert main(["pretrain", "--models", "resnet_s20"]) == 0
        assert "val top-1" in capsys.readouterr().out
