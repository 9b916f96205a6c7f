"""Spool directory: the shared filesystem state of a sharded sweep.

The spool is the *only* channel between the coordinator and its spawned
workers — no pipes, no shared memory — so a sharded sweep survives any
worker loss and can in principle span machines on a shared filesystem.
Layout under the spool root::

    job.json                     job spec (model builder, knobs, shards,
                                 plan+data fingerprint, fault plan)
    data.npz                     sensitivity set (x, y)
    weights.npz                  model state dict
    todo/shard-NNNN.gG.json      open work ticket (shard NNNN, generation G)
    leases/shard-NNNN.gG.W.lease claimed ticket; mtime is the heartbeat
    parts/shard-NNNN.gG.W.npz    partial losses (SweepCheckpoint format)
    done/shard-NNNN.json         completion marker (exclusive link: first wins)
    quarantine/                  rejected parts + their markers, attributed
    logs/W.log                   per-worker stdout/stderr
    STOP                         shutdown sentinel

Every mutation is a single atomic filesystem operation (``os.replace``,
an exclusive ``os.link``, or a whole-file atomic write via
:func:`repro.quant.export.atomic_write_bytes`), so readers never observe
torn protocol state — only torn *payloads*, which the SHA-256 in the done
marker catches.
"""

from __future__ import annotations

import importlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..atomicio import atomic_write_bytes, atomic_write_npz, reap_stale_tmp, wall_now

__all__ = [
    "ShardProtocolError",
    "Spool",
    "partition_groups",
    "rebuild_session",
    "wall_now",
]

#: Exit code ``repro allocate`` maps :class:`ShardProtocolError` to.
SHARD_EXIT_CODE = 6


class ShardProtocolError(RuntimeError):
    """The shard protocol cannot complete the sweep.

    Raised by the coordinator when a shard exhausts its retry budget,
    when every worker is dead with no respawn budget left, when merged
    parts conflict, or when the merged losses do not cover the plan.
    ``shard`` is the offending shard id (``-1`` when not shard-specific).
    """

    def __init__(self, message: str, shard: int = -1) -> None:
        super().__init__(message)
        self.shard = int(shard)


class Spool:
    """Paths and file primitives of one sharded sweep's spool directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.todo = self.root / "todo"
        self.leases = self.root / "leases"
        self.parts = self.root / "parts"
        self.done = self.root / "done"
        self.quarantine = self.root / "quarantine"
        self.logs = self.root / "logs"
        self.job_path = self.root / "job.json"
        self.data_path = self.root / "data.npz"
        self.weights_path = self.root / "weights.npz"
        self.stop_path = self.root / "STOP"

    def create(self) -> None:
        for d in (self.root, self.todo, self.leases, self.parts, self.done,
                  self.quarantine, self.logs):
            d.mkdir(parents=True, exist_ok=True)

    # -- job spec --------------------------------------------------------------
    def write_job(self, job: dict) -> None:
        atomic_write_bytes(
            self.job_path, json.dumps(job, sort_keys=True, indent=1).encode()
        )

    def read_job(self) -> dict:
        with open(self.job_path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def write_npz(self, path, arrays: Dict[str, np.ndarray]) -> None:
        atomic_write_npz(path, arrays)

    # -- tickets / leases ------------------------------------------------------
    @staticmethod
    def _stem(shard: int, generation: int) -> str:
        return f"shard-{shard:04d}.g{generation}"

    def ticket_path(self, shard: int, generation: int) -> Path:
        return self.todo / (self._stem(shard, generation) + ".json")

    def lease_path(self, shard: int, generation: int, worker: str) -> Path:
        return self.leases / (self._stem(shard, generation) + f".{worker}.lease")

    def part_path(self, shard: int, generation: int, worker: str,
                  suffix: str = "") -> Path:
        return self.parts / (
            self._stem(shard, generation) + f".{worker}{suffix}.npz"
        )

    def done_path(self, shard: int) -> Path:
        # Keyed by shard alone: however many generations raced, exactly one
        # completion marker can ever be linked into place at a time.
        return self.done / f"shard-{shard:04d}.json"

    def issue_ticket(self, shard: int, generation: int) -> None:
        atomic_write_bytes(
            self.ticket_path(shard, generation),
            json.dumps({"shard": shard, "generation": generation}).encode(),
        )

    @staticmethod
    def parse_stem(name: str) -> Tuple[int, int]:
        """``shard-0003.g2[...]`` -> ``(3, 2)``."""
        fields = name.split(".")
        shard = int(fields[0].split("-")[1])
        generation = int(fields[1][1:])
        return shard, generation

    def stop(self) -> None:
        atomic_write_bytes(self.stop_path, b"stop\n")

    def stopped(self) -> bool:
        return self.stop_path.exists()

    def reap_tmp(self, ttl: float) -> int:
        """Reap orphaned ``*.tmp`` writers across all spool subdirectories."""
        reaped = 0
        for d in (self.root, self.todo, self.leases, self.parts, self.done):
            reaped += reap_stale_tmp(d, ttl)
        return reaped


def partition_groups(plan, shards: int) -> List[List[int]]:
    """Deterministic greedy-balanced split of plan groups into shards.

    Groups are taken in plan order and assigned to the currently-lightest
    shard by summed replay cost (ties to the lowest shard id) — the same
    partition on every host, so the job spec, not the partitioner, is the
    source of truth only by convenience.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = min(shards, len(plan.groups)) or 1
    loads = [0.0] * shards
    out: List[List[int]] = [[] for _ in range(shards)]
    for gi, g in enumerate(plan.groups):
        cost = float(sum(s.cost for s in g.specs())) or 1.0
        k = min(range(shards), key=lambda s: (loads[s], s))
        out[k].append(gi)
        loads[k] += cost
    return out


def _resolve_builder(spec: str):
    """``"module:callable"`` -> the callable."""
    mod_name, _, attr = spec.partition(":")
    if not mod_name or not attr:
        raise ValueError(
            f"model spec import must be 'module:callable', got {spec!r}"
        )
    return getattr(importlib.import_module(mod_name), attr)


def rebuild_session(spool: Spool, job: dict):
    """Worker-side reconstruction of the sweep state a job describes.

    Rebuilds the model from the builder spec, loads the serialized
    weights, re-applies activation calibration (deterministic given the
    same data), rebuilds the quantized-weight table, and opens a
    :class:`~repro.core.sensitivity.SweepSession`.  Every step is a
    deterministic function of the spool bytes, so the session's
    fingerprint must equal the job's — checked by the caller.
    """
    from ..core.api import SensitivityConfig
    from ..core.sensitivity import SensitivityEngine, SweepSession
    from ..models.registry import QuantizableLayer
    from ..quant import QuantConfig, QuantizedWeightTable

    model_spec = job["model"]
    builder = _resolve_builder(model_spec["import"])
    model = builder(**model_spec.get("kwargs", {}))
    with np.load(spool.weights_path, allow_pickle=False) as blob:
        model.load_state_dict({name: blob[name] for name in blob.files})

    modules = dict(model.named_modules())
    layers = []
    for i, name in enumerate(job["layers"]):
        if name not in modules:
            raise ShardProtocolError(
                f"job names layer {name!r} but the rebuilt model has no "
                f"such module"
            )
        layers.append(QuantizableLayer(i, name, modules[name]))

    with np.load(spool.data_path, allow_pickle=False) as blob:
        x = blob["x"]
        y = blob["y"]

    act_bits = model_spec.get("act_bits")
    if act_bits is not None:
        from ..core.evaluate import setup_activation_quant

        setup_activation_quant(model, layers, x, bits=int(act_bits))

    quant = job["quant"]
    table = QuantizedWeightTable(
        layers,
        QuantConfig(
            bits=tuple(int(b) for b in quant["bits"]),
            scheme=str(quant["scheme"]),
            act_bits=int(quant.get("act_bits", 8)),
        ),
    )
    sweep = job["sweep"]
    # No fault plan in the config: the worker loop injects the job's shard
    # faults itself, and the spawned environment carries no
    # REPRO_FAULT_PLAN.
    config = SensitivityConfig(
        batch_size=int(sweep["batch_size"]),
        symmetric_diag=bool(sweep["symmetric_diag"]),
        eval_batch_k=int(sweep["eval_batch_k"]),
        cache_budget=sweep.get("cache_budget"),
        cache_bytes=sweep.get("cache_bytes"),
    )
    return SweepSession(
        SensitivityEngine(model, table), x, y, config,
        mode=str(sweep["mode"]), blocks=sweep.get("blocks"),
    )
