"""Every loader of an ``.npz`` file closes that file when it rejects it.

``np.load`` given a path opens the file itself and raises with it still
open when the archive fails to parse; each loader below opens the file
and hands ``np.load`` the handle instead (lint rule 14).
"""

import gc
import types
import warnings

import numpy as np
import pytest

from repro.core import SweepCheckpoint
from repro.models import zoo
from repro.quant.export import CorruptArtifactError, load_packed
from repro.store.artifact import deserialize


class _Retrain(Exception):
    """Raised instead of training a model whose cache was rejected."""


def _sweep_checkpoint(path, monkeypatch):
    assert SweepCheckpoint(path, "fp").load() == {}


def _store_entry(path, monkeypatch):
    with pytest.raises(CorruptArtifactError):
        deserialize(path)


def _packed_weights(path, monkeypatch):
    with pytest.raises(CorruptArtifactError):
        load_packed(path)


def _model_cache(path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(path.parent.parent))

    def no_training(*args, **kwargs):
        raise _Retrain

    monkeypatch.setattr(zoo, "train_model", no_training)
    dataset = types.SimpleNamespace(config=types.SimpleNamespace(num_classes=4))
    with pytest.raises(_Retrain):
        zoo.get_pretrained("resnet_s20", dataset)


@pytest.mark.parametrize(
    "load", [_sweep_checkpoint, _store_entry, _packed_weights, _model_cache],
    ids=["sweep_checkpoint", "store_entry", "packed_weights", "model_cache"],
)
def test_truncated_file_is_closed(tmp_path, monkeypatch, load):
    # Named as the model cache expects; the other loaders take any path.
    path = tmp_path / "models" / "resnet_s20-c4.npz"
    path.parent.mkdir()
    np.savez(path, losses=np.arange(256.0))
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load(path, monkeypatch)
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaks == []
