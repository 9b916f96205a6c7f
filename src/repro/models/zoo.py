"""Pretrained model zoo: train once on SynthImageNet, cache to disk.

The paper downloads pretrained models from TorchVision/HuggingFace.  Here
the "pretraining" happens in-repo: each registered model is trained on the
synthetic dataset with a fixed recipe and seed, and the resulting weights
(plus BatchNorm running statistics) are cached under
``$REPRO_CACHE_DIR/models/<name>.npz`` so every test/benchmark run after the
first is instant.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .. import telemetry
from ..atomicio import atomic_write_npz
from ..data import SyntheticImageNet, iterate_batches, make_dataset, shuffled_epochs
from ..nn import Adam, CrossEntropyLoss, Module, SGD, accuracy, cosine_lr
from .registry import build_model

__all__ = ["TrainConfig", "train_model", "evaluate_model", "get_pretrained", "cache_dir"]


def cache_dir() -> Path:
    """Resolve the on-disk cache root (override with ``REPRO_CACHE_DIR``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        root = Path(env)
    else:
        root = Path(__file__).resolve().parents[3] / ".cache"
    root.mkdir(parents=True, exist_ok=True)
    return root


@dataclass(frozen=True)
class TrainConfig:
    """Training recipe for one zoo model."""

    epochs: int = 20
    batch_size: int = 64
    lr: float = 0.05
    optimizer: str = "sgd"
    momentum: float = 0.9
    weight_decay: float = 5e-4
    warmup: int = 20
    seed: int = 123
    n_train: int = 3000
    n_val: int = 1000


_RECIPES: Dict[str, TrainConfig] = {
    "resnet_s20": TrainConfig(epochs=8),
    "resnet_s34": TrainConfig(epochs=10),
    "resnet_s50": TrainConfig(epochs=10),
    "mobilenet_s": TrainConfig(epochs=12, lr=0.08),
    "regnet_s": TrainConfig(epochs=10),
    "vit_s": TrainConfig(epochs=20, lr=1e-3, optimizer="adam", weight_decay=1e-4),
}


def train_model(
    model: Module,
    dataset: SyntheticImageNet,
    config: TrainConfig,
    verbose: bool = False,
) -> Dict[str, float]:
    """Train ``model`` in place; returns final train/val metrics."""
    (x_train, y_train), (x_val, y_val) = dataset.splits(config.n_train, config.n_val)
    criterion = CrossEntropyLoss()
    if config.optimizer == "sgd":
        opt = SGD(
            model.parameters(),
            lr=config.lr,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
    elif config.optimizer == "adam":
        opt = Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    else:
        raise ValueError(f"unknown optimizer {config.optimizer!r}")

    steps_per_epoch = (config.n_train + config.batch_size - 1) // config.batch_size
    total_steps = steps_per_epoch * config.epochs
    rng = np.random.default_rng(config.seed)
    model.train()
    step = 0
    t0 = telemetry.monotonic()
    for epoch, xb, yb in shuffled_epochs(
        x_train, y_train, config.batch_size, config.epochs, rng=rng
    ):
        opt.lr = cosine_lr(config.lr, step, total_steps, warmup=config.warmup)
        logits = model.forward(xb)
        loss = criterion.forward(logits, yb)
        opt.zero_grad()
        model.backward(criterion.backward())
        opt.step()
        step += 1
        if verbose and step % steps_per_epoch == 0:
            telemetry.emit(
                f"  epoch {epoch + 1}/{config.epochs} "
                f"loss={loss:.3f} ({telemetry.monotonic() - t0:.1f}s)"
            )
    model.eval()
    train_loss, train_acc = evaluate_model(model, x_train[:512], y_train[:512])
    val_loss, val_acc = evaluate_model(model, x_val, y_val)
    return {
        "train_loss": train_loss,
        "train_acc": train_acc,
        "val_loss": val_loss,
        "val_acc": val_acc,
    }


def evaluate_model(
    model: Module,
    images: np.ndarray,
    labels: np.ndarray,
    batch_size: int = 256,
) -> Tuple[float, float]:
    """Mean cross-entropy loss and top-1 accuracy in eval and no-grad mode."""
    criterion = CrossEntropyLoss()
    model.eval()
    total_loss = 0.0
    total_correct = 0.0
    n = len(images)
    with model.no_grad():
        for xb, yb in iterate_batches(images, labels, batch_size):
            logits = model.forward(xb)
            total_loss += criterion.forward(logits, yb) * len(xb)
            total_correct += accuracy(logits, yb) * len(xb)
    return total_loss / n, total_correct / n


def get_pretrained(
    name: str,
    dataset: Optional[SyntheticImageNet] = None,
    retrain: bool = False,
    verbose: bool = False,
) -> Tuple[Module, Dict[str, float]]:
    """Load a cached pretrained model, training (and caching) it if absent.

    Returns ``(model, metrics)`` where metrics carry the final train/val
    loss/accuracy recorded at training time.
    """
    dataset = dataset or make_dataset()
    model = build_model(name, num_classes=dataset.config.num_classes)
    path = cache_dir() / "models" / f"{name}-c{dataset.config.num_classes}.npz"
    if path.exists() and not retrain:
        try:
            with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as blob:
                state = {
                    k[6:]: blob[k] for k in blob.files if k.startswith("state/")
                }
                metrics = {
                    k[8:]: float(blob[k][()])
                    for k in blob.files
                    if k.startswith("metrics/")
                }
            model.load_state_dict(state)
        except Exception as exc:
            # A truncated/corrupt cache (e.g. interrupted save) should cost
            # a retrain, not crash every downstream experiment.
            if verbose:
                telemetry.emit(f"cached model {path} unreadable ({exc!r}); retraining")
        else:
            model.eval()
            return model, metrics

    recipe = _RECIPES.get(name, TrainConfig())
    if verbose:
        telemetry.emit(f"training zoo model {name!r} (recipe: {recipe})")
    metrics = train_model(model, dataset, recipe, verbose=verbose)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {f"state/{k}": v for k, v in model.state_dict().items()}
    payload.update({f"metrics/{k}": np.float64(v) for k, v in metrics.items()})
    atomic_write_npz(path, payload)
    model.eval()
    return model, metrics
