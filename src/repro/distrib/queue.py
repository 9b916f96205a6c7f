"""Coordinator: elastic sharded sweeps over the spool work queue.

:func:`measure_sharded` is the distributed twin of the single-process
``SensitivityEngine.measure`` path; both sides run the sweep through a
:class:`~repro.core.sensitivity.SweepSession`.  It serializes the sweep
into a spool directory (job spec, data, weights, gen-0 work tickets),
spawns ``N`` worker *processes* (``python -m repro sweep-worker``; no
shared memory — each rebuilds the model from the spec), then supervises
the queue until every shard has a valid completion:

- **reaper** — a lease whose mtime stops advancing past the TTL is
  revoked and its shard re-queued as the next lease generation, with
  exponential backoff and a bounded retry budget;
- **quarantine** — a published part that fails validation (checksum,
  fingerprint, index coverage) is moved to ``quarantine/`` with an
  attributed reason file, its completion marker is withdrawn, and the
  shard is re-queued;
- **work stealing** — once the ticket queue drains, shards still leased
  but aging past half the TTL are issued a duplicate ticket; the first
  valid completion wins (exclusively linked done marker) and every duplicate
  part merges idempotently by plan index;
- **respawn** — dead worker processes are replaced while unfinished
  shards remain, within a bounded respawn budget.

The merged losses are keyed by deterministic plan index and folded with
bitwise-identity dedup (:func:`repro.distrib.merge.merge_checkpoints`),
so the assembled Ĝ is bitwise identical to the single-process sweep no
matter how many workers ran, died, stalled, or double-published.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Set, Tuple

import numpy as np

from .. import telemetry
from ..atomicio import atomic_write_json
from ..quant.export import wall_now
from ..robustness.faults import ENV_VAR
from . import lease as lease_ops
from .merge import merge_checkpoints, validate_part
from .spool import ShardProtocolError, Spool, partition_groups

__all__ = ["measure_sharded", "spawn_worker"]

_SHARDS_ISSUED = telemetry.counter("distrib.shards_issued")
_LEASES_EXPIRED = telemetry.counter("distrib.leases_expired")
_SHARDS_STOLEN = telemetry.counter("distrib.shards_stolen")
_DUPLICATES = telemetry.counter("distrib.duplicate_completions")
_QUARANTINED = telemetry.counter("distrib.parts_quarantined")
_SHARD_RETRIES = telemetry.counter("distrib.shard_retries")
_WORKERS_SPAWNED = telemetry.counter("distrib.workers_spawned")
_WORKERS_RESPAWNED = telemetry.counter("distrib.workers_respawned")

#: Coordinator poll interval (seconds): one reaper/steal/respawn scan.
_POLL = 0.05
#: Base of the per-shard exponential re-queue backoff (seconds).
_BACKOFF_BASE = 0.1
#: Fraction of the lease TTL after which a drained queue steals work.
_STEAL_FRACTION = 0.5


def spawn_worker(spool: Spool, worker_id: str, poll: float = 0.02):
    """Spawn one sweep-worker process attached to ``spool``.

    The child's environment drops :data:`ENV_VAR` — the worker takes its
    fault plan from ``job.json``, and inheriting the coordinator's env
    plan would double-inject — and prepends this package's source root to
    ``PYTHONPATH`` so ``python -m repro`` resolves in the child no matter
    how the parent was launched.  Stdout/stderr land in
    ``logs/<worker>.log`` for post-mortem attribution.
    """
    import repro

    env = dict(os.environ)
    env.pop(ENV_VAR, None)
    src_root = str(Path(repro.__file__).resolve().parents[1])
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root if not prior else os.pathsep.join([src_root, prior])
    # lint-allow-raw-write: append-only worker log stream, not an artifact
    log = open(spool.logs / f"{worker_id}.log", "ab")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "sweep-worker",
            "--spool", str(spool.root),
            "--worker-id", worker_id,
            "--poll", str(poll),
        ],
        env=env,
        stdout=log,
        stderr=subprocess.STDOUT,
    )
    _WORKERS_SPAWNED.add()
    return proc, log


def _quarantine(spool: Spool, reason: str, *paths) -> None:
    """Move the named files into ``quarantine/`` with an attributed reason."""
    moved = []
    for p in paths:
        p = Path(p)
        try:
            os.replace(p, spool.quarantine / p.name)
            moved.append(p.name)
        except FileNotFoundError:
            continue
    if moved:
        atomic_write_json(
            spool.quarantine / (moved[0] + ".reason.json"),
            {"files": moved, "reason": reason},
        )
    _QUARANTINED.add()


def measure_sharded(
    engine, x: np.ndarray, y: np.ndarray, config, *, mode: str, blocks=None,
    progress=None,
):
    """Run one sensitivity sweep sharded across spawned worker processes.

    ``config`` is the :class:`~repro.core.api.SensitivityConfig` of the
    sweep: ``shards`` shards go to ``num_workers`` spawned processes that
    rebuild the model from ``model_spec``, with ``lease_ttl``,
    ``spool_dir`` and ``max_retries`` driving the protocol.  Returns the
    same :class:`~repro.core.sensitivity.SensitivityResult` as the
    single-process sweep, with ``extras["strategy"] == "distributed"``
    plus the protocol counters.  Raises :class:`ShardProtocolError` when
    the protocol cannot complete: a shard out of retries, every worker
    dead with no respawn budget, or merged losses that do not cover the
    plan.  A truthy ``progress`` prints protocol events.
    """
    from ..core.api import DEFAULT_LEASE_TTL
    from ..core.sensitivity import SensitivityResult, SweepSession

    model_spec = config.model_spec
    if model_spec is None or "import" not in model_spec:
        raise ValueError(
            "sharded sweeps need a model_spec with an 'import' builder "
            "(workers rebuild the model from scratch; there is no fork)"
        )
    lease_ttl = float(
        DEFAULT_LEASE_TTL if config.lease_ttl is None else config.lease_ttl
    )
    if lease_ttl <= 0:
        raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
    max_retries = config.max_retries
    spool_dir = config.spool_dir

    t0 = telemetry.monotonic()
    own_spool = spool_dir is None
    root = Path(spool_dir) if spool_dir else Path(
        tempfile.mkdtemp(prefix="repro-spool-")
    )
    spool = Spool(root)
    spool.create()
    spool.reap_tmp(lease_ttl)

    # Serialize the world before the session touches anything: workers
    # must rebuild from bytes identical to what the coordinator measures.
    spool.write_npz(spool.data_path, {"x": np.asarray(x), "y": np.asarray(y)})
    spool.write_npz(spool.weights_path, dict(engine.model.state_dict()))

    session = SweepSession(engine, x, y, config, mode=mode, blocks=blocks)
    num_workers = session.num_workers
    fault_plan = session.fault_plan
    fingerprint = session.fingerprint()
    partition = partition_groups(session.plan, config.shards)
    nshards = len(partition)
    shard_indices: Dict[int, Set[int]] = {
        s: {i for gi in groups for i in session.group_indices(gi)}
        for s, groups in enumerate(partition)
    }
    quant = engine.table.config
    job = {
        "model": dict(model_spec),
        "layers": [layer.name for layer in engine.table.layers],
        "quant": {
            "bits": [int(b) for b in quant.bits],
            "scheme": str(quant.scheme),
            "act_bits": int(quant.act_bits),
        },
        "sweep": {
            "mode": mode,
            "blocks": list(blocks) if blocks else None,
            "batch_size": int(config.batch_size),
            "symmetric_diag": bool(config.symmetric_diag),
            "eval_batch_k": int(session.eval_batch_k),
            "cache_budget": config.cache_budget,
            "cache_bytes": config.cache_bytes,
        },
        "fingerprint": fingerprint,
        "lease_ttl": lease_ttl,
        "shards": {str(s): groups for s, groups in enumerate(partition)},
        "fault_plan": (
            json.loads(fault_plan.to_json()) if fault_plan is not None else None
        ),
    }
    spool.write_job(job)
    for s in range(nshards):
        spool.issue_ticket(s, 0)
        _SHARDS_ISSUED.add()

    stats = {
        "leases_expired": 0, "shards_stolen": 0, "duplicate_completions": 0,
        "parts_quarantined": 0, "shard_retries": 0,
        "workers_spawned": 0, "workers_respawned": 0,
    }
    workers: List[Tuple[str, object, object]] = []
    try:
        with telemetry.span(
            "distrib.sweep", shards=nshards, workers=num_workers
        ):
            for w in range(num_workers):
                proc, log = spawn_worker(spool, f"w{w}")
                workers.append((f"w{w}", proc, log))
                stats["workers_spawned"] += 1

            accepted: Dict[int, str] = {}  # shard -> accepted part name
            attempts = {s: 0 for s in range(nshards)}
            next_gen = {s: 1 for s in range(nshards)}
            backoff_until = {s: 0.0 for s in range(nshards)}
            reissue: Set[int] = set()
            stolen: Set[int] = set()
            respawns_left = nshards * (max_retries + 1)
            next_wid = num_workers

            def live_leases(s: int) -> List[Path]:
                return sorted(spool.leases.glob(f"shard-{s:04d}.*.lease"))

            def requeue(s: int, why: str) -> None:
                attempts[s] += 1
                stats["shard_retries"] += 1
                _SHARD_RETRIES.add()
                if attempts[s] > max_retries:
                    raise ShardProtocolError(
                        f"shard {s} out of retries after {attempts[s]} "
                        f"failed attempts (last: {why})", shard=s,
                    )
                backoff_until[s] = wall_now() + _BACKOFF_BASE * (
                    2 ** (attempts[s] - 1)
                )
                reissue.add(s)
                if progress:
                    telemetry.emit(f"[distrib] requeue shard {s}: {why}")

            while len(accepted) < nshards:
                # 1. New completion markers: validate or quarantine.
                for marker in sorted(spool.done.glob("shard-*.json")):
                    # Done markers are keyed per shard: "shard-NNNN.json".
                    s = int(marker.name.split("-")[1].split(".")[0])
                    if s in accepted:
                        continue
                    try:
                        with open(marker, "r", encoding="utf-8") as fh:
                            doc = json.load(fh)
                        part = spool.parts / str(doc["part"])
                        sha = str(doc["sha256"])
                    except (ValueError, KeyError, OSError):
                        _quarantine(spool, "unparseable completion marker", marker)
                        stats["parts_quarantined"] += 1
                        requeue(s, "unparseable completion marker")
                        continue
                    losses, reason = validate_part(
                        part, fingerprint, shard_indices[s], sha256=sha
                    )
                    if losses is None:
                        _quarantine(
                            spool,
                            f"shard {s} part rejected: {reason}",
                            part, marker,
                        )
                        stats["parts_quarantined"] += 1
                        requeue(s, reason)
                        continue
                    accepted[s] = part.name
                    # Withdraw any leftover (stolen) tickets for the shard
                    # so idle workers don't re-measure settled work.
                    for t in spool.todo.glob(f"shard-{s:04d}.*.json"):
                        try:
                            os.unlink(t)
                        except FileNotFoundError:
                            pass
                    if progress:
                        telemetry.emit(
                            f"[distrib] shard {s} accepted "
                            f"({len(accepted)}/{nshards})"
                        )

                # 2. Reaper: revoke leases whose heartbeat stopped.  An
                # expired lease counts as expired even when its shard has
                # already settled through a thief — the worker behind it
                # still went silent.
                for lf in sorted(spool.leases.glob("shard-*.lease")):
                    s, _ = spool.parse_stem(lf.name)
                    age = lease_ops.lease_age(lf)
                    if lease_ops.lease_expired(age, lease_ttl):
                        if lease_ops.revoke(lf):
                            stats["leases_expired"] += 1
                            _LEASES_EXPIRED.add()
                            if (
                                s not in accepted
                                and s not in reissue
                                and not live_leases(s)
                                and not list(
                                    spool.todo.glob(f"shard-{s:04d}.*.json")
                                )
                            ):
                                requeue(s, f"lease expired after {age:.2f}s")
                    # Young leases of settled shards are left alone: live
                    # workers revoke their own on completion, and a dead
                    # worker's lease must be allowed to age past the TTL so
                    # it is *counted* as expired, not silently tidied away.

                # 3. Re-issue tickets whose backoff elapsed.
                for s in sorted(reissue):
                    if s in accepted:
                        reissue.discard(s)
                        continue
                    if wall_now() < backoff_until[s]:
                        continue
                    spool.issue_ticket(s, next_gen[s])
                    _SHARDS_ISSUED.add()
                    next_gen[s] += 1
                    reissue.discard(s)

                # 4. Work stealing: queue drained, tail shards aging.
                if not list(spool.todo.glob("shard-*.json")) and not reissue:
                    for s in range(nshards):
                        if s in accepted or s in stolen:
                            continue
                        ages = [
                            a for a in map(lease_ops.lease_age, live_leases(s))
                            if a is not None
                        ]
                        if ages and max(ages) > _STEAL_FRACTION * lease_ttl:
                            spool.issue_ticket(s, next_gen[s])
                            _SHARDS_ISSUED.add()
                            next_gen[s] += 1
                            stolen.add(s)
                            stats["shards_stolen"] += 1
                            _SHARDS_STOLEN.add()
                            if progress:
                                telemetry.emit(f"[distrib] stealing shard {s}")

                # 5. Replace dead workers while unfinished work remains.
                alive: List[Tuple[str, object, object]] = []
                for wid, proc, log in workers:
                    if proc.poll() is None:
                        alive.append((wid, proc, log))
                        continue
                    log.close()
                    if len(accepted) >= nshards or respawns_left <= 0:
                        continue
                    respawns_left -= 1
                    nwid = f"w{next_wid}"
                    next_wid += 1
                    nproc, nlog = spawn_worker(spool, nwid)
                    alive.append((nwid, nproc, nlog))
                    stats["workers_spawned"] += 1
                    stats["workers_respawned"] += 1
                    _WORKERS_RESPAWNED.add()
                workers = alive

                if len(accepted) >= nshards:
                    break
                if not workers:
                    raise ShardProtocolError(
                        f"all workers dead with {nshards - len(accepted)} "
                        f"shards unfinished and no respawn budget left"
                    )
                time.sleep(_POLL)

            # Drain: stop workers, wait for zombies to finish publishing,
            # then fold EVERY valid part on disk — stolen, duplicate, and
            # zombie parts exercise the idempotent merge rather than being
            # filtered out up front.
            spool.stop()
            for wid, proc, log in workers:
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=10.0)
                log.close()
            workers = []

            # Post-drain reap: live workers revoked their own leases on the
            # way out, so anything left belongs to a dead or zombie worker.
            for lf in sorted(spool.leases.glob("shard-*.lease")):
                age = lease_ops.lease_age(lf)
                if age is not None and lease_ops.revoke(lf) and age > lease_ttl:
                    stats["leases_expired"] += 1
                    _LEASES_EXPIRED.add()

            parts: List[Tuple[str, Dict[int, float]]] = []
            per_shard_valid = {s: 0 for s in range(nshards)}
            for pf in sorted(spool.parts.glob("shard-*.npz")):
                s, _ = spool.parse_stem(pf.name)
                losses, reason = validate_part(pf, fingerprint, shard_indices[s])
                if losses is None:
                    _quarantine(
                        spool, f"shard {s} part rejected at merge: {reason}", pf
                    )
                    stats["parts_quarantined"] += 1
                    continue
                parts.append((pf.name, losses))
                per_shard_valid[s] += 1
            stats["duplicate_completions"] += sum(
                max(0, n - 1) for n in per_shard_valid.values()
            )
            for _ in range(stats["duplicate_completions"]):
                _DUPLICATES.add()

            merged = merge_checkpoints(parts)
            missing = [
                spec.index for spec in session.plan.specs()
                if spec.index not in merged
            ]
            if missing:
                raise ShardProtocolError(
                    f"merged shard parts leave {len(missing)} plan indices "
                    f"unmeasured (first: {missing[:5]})"
                )

            matrix, single = session.assemble(merged)
            health_report = None
            health_extras = None
            if config.health != "off":
                with telemetry.span("sweep.health"):
                    health_report, health_extras = session.health_pass(
                        matrix, single, merged
                    )
    finally:
        for wid, proc, log in workers:
            try:
                proc.kill()
                proc.wait(timeout=10.0)
            except OSError:
                pass
            log.close()

    wall = telemetry.monotonic() - t0
    extras: Dict[str, object] = {
        "strategy": "distributed",
        "shards": nshards,
        "workers": num_workers,
        "lease_ttl": lease_ttl,
        "spool": str(root),
        "plan_groups": len(session.plan.groups),
        "plan_evals": session.plan.num_evals,
        "eval_batch_k": session.eval_batch_k,
        "max_retries": max_retries,
        "merged_parts": len(parts),
        "injected_fault_plan": (
            fault_plan.describe() if fault_plan is not None else []
        ),
        **stats,
    }
    if health_extras is not None:
        extras["health"] = health_extras
    result = SensitivityResult(
        matrix=matrix,
        base_loss=session.base_loss,
        single_losses=single,
        num_evals=1 + session.plan.num_evals,
        wall_time=wall,
        mode=mode,
        bits=tuple(session.plan.bits),
        extras=extras,
        health=health_report,
    )
    if own_spool:
        shutil.rmtree(root, ignore_errors=True)
        extras["spool"] = ""
    return result
