"""CLI smoke tests (argument parsing + the cheap commands)."""

import json

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
            ["allocate", "--max-retries", "2"],
        ],
        ids=[
            "allocate --health-rounds",
            "allocate --no-health-repair",
            "allocate-cached --health-rounds",
            "allocate --eval-batch-k",
            "allocate --deadline",
            "allocate-cached --deadline",
            "allocate-cached --no-warm-chain",
            "allocate --max-retries",
        ],
    )
    def test_removed_flags_are_usage_errors(self, argv, monkeypatch, capsys):
        """The determinism audit has no rounds and no repair to switch,
        every sweep replay is plain, so there is no stack width to set,
        branch-and-bound's ``--time-limit`` is the one solver deadline, and
        a sweep group that raises fails the run without a retry."""
        import repro.models

        def loaded(*args, **kwargs):
            raise AssertionError("model loaded before the options were checked")

        monkeypatch.setattr(repro.models, "get_pretrained", loaded)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["allocate", "allocate-cached"])
    def test_removed_fault_kind_exits_2_before_loading(
        self, command, tmp_path, monkeypatch, capsys
    ):
        """A ``REPRO_FAULT_PLAN`` naming a kind that is gone (damaged
        files are reached for real) is a usage error, not a traceback
        after the model loaded."""
        import repro.models

        def loaded(*args, **kwargs):
            raise AssertionError("model loaded before the options were checked")

        monkeypatch.setattr(repro.models, "get_pretrained", loaded)
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN", '{"faults": [{"kind": "checksum_flip"}]}'
        )
        argv = [command]
        if command == "allocate-cached":
            argv += ["--store", str(tmp_path / "store")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unknown fault kind 'checksum_flip'" in capsys.readouterr().err

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

    def test_sweep_failure_exits_4_naming_the_group(self, capsys):
        from repro.cli import _run_allocation
        from repro.robustness import SweepFailure

        def body(args, run):
            raise SweepFailure(7, "RuntimeError: non-finite loss")

        args = build_parser().parse_args(
            ["allocate", "--sweep-checkpoint", "sweep.ckpt.npz"]
        )
        assert _run_allocation(args, body, "allocate.test", {}) == 4
        out = capsys.readouterr().out
        assert "error: sweep group 7 raised RuntimeError: non-finite loss" in out
        assert "--sweep-checkpoint" in out

    @pytest.mark.parametrize("action", ["list", "verify", "reap"])
    def test_store_refuses_a_missing_root(self, action, tmp_path, capsys):
        """A mistyped store path exits 2 and creates nothing, where it
        used to create an empty store that verified clean."""
        root = tmp_path / "no-such-store"
        assert main(["store", action, "--store", str(root)]) == 2
        assert not root.exists()
        assert "no artifact store" in capsys.readouterr().out
        afile = tmp_path / "a-file"
        afile.write_text("")
        assert main(["store", action, "--store", str(afile)]) == 2
        root.mkdir()
        assert main(["store", action, "--store", str(root)]) == 0

    @pytest.mark.parametrize(
        "content", [None, "not json {", "[1, 2]"],
        ids=["missing", "not-json", "not-an-object"],
    )
    def test_report_unreadable_manifest_exits_2(self, content, tmp_path, capsys):
        path = tmp_path / "run.json"
        if content is not None:
            path.write_text(content)
        assert main(["report", str(path)]) == 2
        assert "error: cannot read manifest" in capsys.readouterr().out

    def test_report_renders_a_manifest(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"counters": {}, "spans": []}))
        assert main(["report", str(path)]) == 0
