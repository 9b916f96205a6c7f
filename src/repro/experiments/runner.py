"""Experiment orchestration with on-disk caching.

Sensitivity sweeps are the expensive part of every figure/table, and they
are pure functions of ``(weights, sensitivity set, quantizer config,
mode)``.  ``ExperimentContext`` keeps them in the content-addressed Ĝ
artifact store (:mod:`repro.store`) and the trained models under
``.cache/``, so that re-running a benchmark re-uses everything that has
not changed — the same "measure once, re-solve for every budget" workflow
the paper highlights for sensitivity-based methods.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..atomicio import atomic_write_json
from ..core import (
    CLADO,
    SensitivityConfig,
    SensitivityResult,
    build_algorithm,
    evaluate_assignment,
    setup_activation_quant,
)
from ..core.clado import MPQAlgorithm, MPQAssignment
from ..data import SyntheticImageNet, make_dataset, sensitivity_set
from ..models import cache_dir, get_pretrained, quantizable_layers
from ..quant import QuantConfig, budget_for_average_bits
from ..store import ArtifactStore, prepare_cached
from .config import Scale, get_scale, model_quant_config

__all__ = ["ExperimentContext"]


class ExperimentContext:
    """Shared state for the experiment drivers: data, models, caches."""

    def __init__(
        self,
        scale: Optional[Scale] = None,
        dataset: Optional[SyntheticImageNet] = None,
    ) -> None:
        self.scale = scale or get_scale()
        self.dataset = dataset or make_dataset()
        self._models: Dict[str, Tuple[object, dict]] = {}
        self._val: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._qat_train: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- data ------------------------------------------------------------------
    @property
    def val_data(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._val is None:
            _, val = self.dataset.splits(1, self.scale.val_size)
            self._val = val
        return self._val

    @property
    def qat_train_data(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._qat_train is None:
            train, _ = self.dataset.splits(self.scale.qat_train_size, 1)
            self._qat_train = train
        return self._qat_train

    def sensitivity_data(
        self, size: Optional[int] = None, replicate: int = 0
    ) -> Tuple[np.ndarray, np.ndarray]:
        return sensitivity_set(
            self.dataset, size or self.scale.sensitivity_set_size, replicate
        )

    # -- models ------------------------------------------------------------------
    def model(self, name: str):
        """Pretrained model (cached in memory and on disk)."""
        if name not in self._models:
            self._models[name] = get_pretrained(name, self.dataset)
        return self._models[name][0]

    def model_metrics(self, name: str) -> dict:
        self.model(name)
        return self._models[name][1]

    def fresh_model(self, name: str):
        """A new pretrained instance not shared with cached algorithms.

        QAT mutates weights in place, so it must not run on the shared
        instance other drivers keep using.
        """
        return get_pretrained(name, self.dataset)[0]

    # -- algorithms ------------------------------------------------------------------
    def make_algorithm(
        self,
        kind: str,
        model_name: str,
        model=None,
        config: Optional[QuantConfig] = None,
        sensitivity: Optional[SensitivityConfig] = None,
    ) -> MPQAlgorithm:
        """Instantiate one of the paper's algorithms for a model.

        Thin wrapper over :func:`repro.core.build_algorithm` — the same
        factory the CLI uses — pre-seeded with this context's scale
        (Hutchinson probe count).
        """
        model = model if model is not None else self.model(model_name)
        config = config or model_quant_config(model_name)
        if sensitivity is None:
            sensitivity = SensitivityConfig(probes=self.scale.hawq_probes)
        return build_algorithm(
            kind, model, model_name, config, sensitivity=sensitivity
        )

    # -- sensitivity caching -----------------------------------------------------------
    def measured_sensitivity(
        self,
        model_name: str,
        mode: str = "full",
        set_size: Optional[int] = None,
        replicate: int = 0,
        config: Optional[QuantConfig] = None,
        algorithm: Optional[CLADO] = None,
    ) -> SensitivityResult:
        """The sensitivity measurement, served from the artifact store
        under ``cache_dir()/store`` or measured and published there."""
        config = config or model_quant_config(model_name)
        set_size = set_size or self.scale.sensitivity_set_size
        algo = algorithm or self.make_algorithm(
            {"full": "clado", "diagonal": "clado_star", "block": "clado_block"}[mode],
            model_name,
            config=config,
        )
        x, y = self.sensitivity_data(set_size, replicate)
        self.attach_activation_quant(model_name, algo.layers, x, config)
        prepare_cached(algo, x, y, ArtifactStore(cache_dir() / "store"))
        return algo.raw

    # -- activation quantization --------------------------------------------------------
    def attach_activation_quant(
        self,
        model_name: str,
        layers: Sequence,
        calib_images: np.ndarray,
        config: Optional[QuantConfig] = None,
    ) -> None:
        """Calibrate/attach the paper's 8-bit activation quantization."""
        config = config or model_quant_config(model_name)
        setup_activation_quant(
            self.model(model_name), layers, calib_images, bits=config.act_bits
        )

    # -- budgets & evaluation ------------------------------------------------------------
    def budget(self, model_name: str, avg_bits: float) -> int:
        model = self.model(model_name)
        layers = quantizable_layers(model, model_name)
        sizes = [layer.num_params for layer in layers]
        return budget_for_average_bits(sizes, avg_bits)

    def evaluate(
        self, algorithm: MPQAlgorithm, assignment: MPQAssignment
    ) -> Tuple[float, float]:
        """(loss, top-1) of an assignment on the held-out validation split."""
        x_val, y_val = self.val_data
        return evaluate_assignment(
            algorithm.model, algorithm.table, assignment.bits, x_val, y_val
        )

    # -- generic result caching -------------------------------------------------------
    def result_path(self, name: str) -> Path:
        root = cache_dir() / "results"
        root.mkdir(parents=True, exist_ok=True)
        return root / f"{name}-{self.scale.name}.json"

    def load_result(self, name: str) -> Optional[dict]:
        path = self.result_path(name)
        if path.exists():
            return json.loads(path.read_text())
        return None

    def save_result(self, name: str, payload: dict) -> None:
        atomic_write_json(self.result_path(name), payload)
