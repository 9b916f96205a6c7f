"""Forward-only sensitivity measurement (Algorithm 1 of the paper).

Measures, on a small sensitivity set:

- *layer-specific* sensitivities (Eq. 12):
  ``Omega_ii(m) = 2 (L(w + dw_m^i) - L(w))``
- *cross-layer* sensitivities (Eq. 13):
  ``Omega_ij(m, n) = L(w + dw_m^i + dw_n^j) + L(w) - L(w + dw_m^i) - L(w + dw_n^j)``

and assembles the symmetric sensitivity matrix ``G-hat`` of Eq. 10, with
``G[Bi+m, Bi+m] = Omega_ii(m)`` and ``G[Bi+m, Bj+n] = G[Bj+n, Bi+m] =
Omega_ij(m, n)``, so that ``alpha^T G alpha`` equals the objective of Eq. 7
(diagonal terms once, cross terms twice) for one-hot ``alpha``.

Entries coupling two different bit choices *of the same layer* are
structurally zero: a one-hot ``alpha^(i)`` can never activate two of them
together, and no measurement defines them.

Cost accounting: ``|B|I`` single-layer evaluations plus
``|B|^2 I(I-1)/2`` pair evaluations (plus one baseline evaluation), i.e.
bounded by the paper's ``(1/2)|B|I(|B|I + 1)`` figure, which also counts
the structurally-zero same-layer pairs.

Execution
---------
Every sweep runs through one executor, owned by :class:`SweepSession`.
It exploits the locality of weight perturbations: activations before the
earliest perturbed layer are bitwise unchanged, so the clean prefix is
checkpointed once per batch at the model's forward segments
(``Module.segments``), each anchor perturbation ``(i, b_m)`` replays once
from its segment (checkpointing the perturbed suffix, which *is* the
Eq. 12 evaluation), and each pair ``(i, j)`` replays only from layer
``j``'s segment.  Every replay is a plain perturbed forward of whole
batches.  A model whose segments do not cover every searched layer runs
as the single segment ``[model]``, where every replay is a full forward.
Groups can fan out across supervised fork workers; the measured matrix
is bitwise identical across worker counts because losses are keyed by
their plan index before assembly.

Every forward the engine runs is a no-grad forward
(:meth:`repro.nn.Module.no_grad`): no layer keeps a backward cache, and
the sweep freezes (``writeable = False``) every activation it checkpoints,
so a layer writing into its input would raise instead of corrupting the
replays that share the checkpoint.  Each session also keeps the heap
pages a replay frees mapped for the next one (:func:`_retain_freed_heap`),
so replays do not fault their activation pages in again.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import multiprocessing as mp
import os
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

try:
    import resource
except ImportError:  # non-POSIX: sweeps report no page faults
    resource = None

from .. import telemetry
from ..nn import CrossEntropyLoss
from ..nn.module import Activation
from ..quant import QuantizedWeightTable, activation_quant_state
from ..robustness import SweepFailure
from ..robustness import health as _health
from ..robustness.faults import FAULT_EXIT_CODE, FaultPlan, resolve_fault_plan
from ..robustness.health import DeterminismAudit
from .api import SensitivityConfig
from .sweep import (
    EvalPlan,
    EvalSpec,
    PrefixCache,
    SweepCheckpoint,
    build_eval_plan,
    hot_path,
)

__all__ = [
    "SensitivityResult",
    "SensitivityEngine",
    "SweepSession",
    "block_id_from_name",
    "build_pair_list",
    "assemble_from_losses",
]

#: The C library, for its allocator settings (``mallopt`` exists in glibc).
_LIBC = ctypes.CDLL(None) if os.name == "posix" else None
if hasattr(_LIBC, "mallopt"):  # int mallopt(int param, int value)
    _LIBC.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _LIBC.mallopt.restype = ctypes.c_int
#: glibc ``mallopt`` parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: Requests at or above this size are mmapped: the ceiling glibc's own
#: dynamic mmap threshold climbs to on 64-bit hosts.
_MMAP_THRESHOLD = 32 * 1024 * 1024
#: Free heap top kept mapped between replays instead of being returned to
#: the OS.
_TRIM_THRESHOLD = 128 * 1024 * 1024

#: A group running on a fork worker longer than the larger of these is
#: taken for hung: the floor, or this multiple of the slowest group the
#: workers have completed so far (see :func:`_hang_deadline`).
_HANG_FLOOR_S = 60.0
_HANG_FACTOR = 10.0

#: Loss evaluations actually executed (resumed-from-checkpoint losses do
#: not count).
_FORWARD_EVALS = telemetry.counter("sensitivity.forward_evals")
#: Individual segment forwards the sweep paid (prefix + replays).
_SEGMENT_FORWARDS = telemetry.counter("sensitivity.segment_forwards")
#: Evaluations restored from a resume checkpoint instead of re-running.
_RESUMED_EVALS = telemetry.counter("sensitivity.resumed_evals")
#: Supervised workers that died mid-group (signal, OOM kill, injected crash).
_WORKER_CRASHES = telemetry.counter("sweep.worker_crashes")
#: Groups re-queued after a worker crash or deadline kill.
_GROUP_RETRIES = telemetry.counter("sweep.group_retries")
#: Workers terminated because a group outran the hang deadline.
_DEADLINE_KILLS = telemetry.counter("sweep.deadline_kills")
#: Groups left when every worker was gone, run in the parent.
_SERIAL_FALLBACK = telemetry.counter("sweep.serial_fallback_groups")
#: Minor page faults of a sweep: this process plus its reaped fork workers.
_MINOR_FAULTS = telemetry.counter("sweep.minor_faults")


@dataclass
class SensitivityResult:
    """Raw (pre-PSD) sensitivity measurements."""

    matrix: np.ndarray  # (|B|I, |B|I), symmetric, same-layer cross entries 0
    base_loss: float
    single_losses: np.ndarray  # (I, |B|) losses with one layer quantized
    num_evals: int
    wall_time: float
    mode: str
    bits: Tuple[int, ...] = ()
    extras: Dict[str, object] = field(default_factory=dict)
    #: The determinism audit of the loss table (``None`` when health
    #: checking is off); ``CLADO._prepare`` gates on it.  Its ``to_dict()``
    #: also lands in ``extras["health"]``.
    health: Optional[DeterminismAudit] = None

    @property
    def num_layers(self) -> int:
        return self.single_losses.shape[0]

    @property
    def num_choices(self) -> int:
        return self.single_losses.shape[1]

    def diagonal_costs(self) -> np.ndarray:
        """Per-(layer, choice) layer-specific sensitivities, shape (I, |B|)."""
        diag = np.diag(self.matrix)
        return diag.reshape(self.num_layers, self.num_choices).copy()

    def cross_block(self, i: int, j: int) -> np.ndarray:
        """The ``(|B|, |B|)`` cross-sensitivity block for layer pair (i, j)."""
        nb = self.num_choices
        return self.matrix[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb].copy()


def block_id_from_name(name: str) -> str:
    """Group layers into residual blocks by their dotted module path.

    ``stages.1.layers.0.conv2`` -> ``stages.1.layers.0`` (a residual block);
    ``features.3.expand.conv`` -> ``features.3``; ViT ``layer.2.mlp.output``
    -> ``layer.2`` (an encoder block).  Top-level layers (stem, head, fc)
    each form their own singleton block.
    """
    parts = name.split(".")
    for depth in range(len(parts) - 1, 0, -1):
        prefix = parts[:depth]
        if prefix[-1].isdigit():
            return ".".join(prefix)
    return name


def build_pair_list(
    layers: Sequence,
    mode: str,
    blocks: Optional[Sequence[str]] = None,
) -> List[Tuple[int, int]]:
    """The deterministic ``(i, j)`` cross-term list for a sweep ``mode``.

    Every :class:`SweepSession` derives its plan from it, so two sweeps
    over the same layer set build the identical
    :class:`~repro.core.sweep.EvalPlan` — and a resume checkpoint's plan
    fingerprint matches.
    """
    if mode not in ("full", "diagonal", "block"):
        raise ValueError(f"unknown mode {mode!r}")
    num_layers = len(layers)
    if mode == "block":
        if blocks is None:
            blocks = [block_id_from_name(layer.name) for layer in layers]
        if len(blocks) != num_layers:
            raise ValueError("blocks length mismatch")
    pair_list: List[Tuple[int, int]] = []
    if mode != "diagonal":
        for i in range(num_layers):
            for j in range(i + 1, num_layers):
                if mode == "block" and blocks[i] != blocks[j]:
                    continue
                pair_list.append((i, j))
    return pair_list


def assemble_from_losses(
    plan: EvalPlan,
    losses: Dict[int, float],
    base_loss: float,
    fault_plan: Optional[FaultPlan] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Assemble ``(matrix, single)`` from plan-indexed losses.

    Deterministic reassembly: entries depend only on plan indices, so the
    matrix is independent of execution order, worker count, and of which
    losses were resumed from a checkpoint.

    ``fault_plan`` applies the measurement-corruption fault: ``outlier_loss``
    poisons the loss dict (in plan-index order) *before* assembly, so a
    corrupted single cascades into every dependent finite difference.
    Mutates ``losses`` in place, so the determinism audit reads the
    poisoned values.
    """
    nb = len(plan.bits)
    nvars = plan.num_layers * nb
    if fault_plan is not None:
        for index in sorted(losses):
            delta = fault_plan.outlier_delta(index)
            if delta is not None:
                losses[index] += delta * (1.0 + abs(losses[index]))

    matrix = np.zeros((nvars, nvars))
    single = np.zeros((plan.num_layers, nb))
    for g in plan.groups:
        loss = losses[g.diag.index]
        single[g.i, g.m] = loss
        matrix[g.i * nb + g.m, g.i * nb + g.m] = 2.0 * (loss - base_loss)
    for g in plan.groups:
        for p in g.pairs:
            omega = (
                losses[p.index] + base_loss - single[p.i, p.m] - single[p.j, p.n]
            )
            matrix[p.i * nb + p.m, p.j * nb + p.n] = omega
            matrix[p.j * nb + p.n, p.i * nb + p.m] = omega
    return matrix, single


def _check_finite(loss: float) -> float:
    """``loss``, or a loud failure when it is not finite.

    A single non-finite measurement silently poisons the whole sensitivity
    matrix, so the sweep fails at the source instead.
    """
    if not np.isfinite(loss):
        raise RuntimeError(
            "non-finite loss during sensitivity measurement "
            "(model diverged or inputs are corrupt)"
        )
    return loss


def _retain_freed_heap() -> bool:
    """Keep the heap pages a replay frees for the next replay.

    Every replay frees all it allocates.  By default glibc serves each
    request above a threshold with its own mapping (the threshold starts
    at 128 KiB and climbs with the mappings freed) and returns a free heap
    top larger than twice that threshold to the OS, so each replay faulted
    the same activation pages in again.  Two ``mallopt`` calls stop that:
    requests below 32 MiB come from the heap, and up to 128 MiB of free
    heap top stays mapped.  Setting either one alone switches glibc's
    adjustment off and leaves the other at its 128 KiB default.  Fork
    workers inherit the setting.  Returns whether it was applied; a C
    library without ``mallopt`` is left as it is.
    """
    if not hasattr(_LIBC, "mallopt"):
        return False
    mmap_set = _LIBC.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    trim_set = _LIBC.mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    return bool(mmap_set and trim_set)


def _fault_usage() -> Tuple[int, float]:
    """``(minor page faults, system CPU seconds)`` used so far by this
    process and its reaped children."""
    if resource is None:
        return 0, 0.0
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_minflt + kids.ru_minflt, own.ru_stime + kids.ru_stime


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset``, a cpuset container), else every core."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _resolve_workers(num_workers: int) -> int:
    """Worker processes for a sweep: ``0`` = every usable CPU, serial
    without fork."""
    workers = num_workers or _usable_cpus()
    if workers > 1 and "fork" not in mp.get_all_start_methods():
        return 1  # no COW sharing available (e.g. Windows): run serial
    return max(1, workers)


# Worker state for fork-based fan-out: set in the parent immediately before
# the workers are forked, inherited copy-on-write by each child.  The
# quantized-weight table and prefix-cache arrays are shared pages; each
# worker's weight swaps and forward caches stay process-local.
_FORK_STATE: Optional["SweepSession"] = None


def _run_in_parent(
    session: "SweepSession", group_idx: int
) -> Tuple[List[Tuple[int, float]], int]:
    """Run one group in this process; a group that raises fails the sweep."""
    try:
        return session.run_group(group_idx)
    except Exception as exc:
        raise SweepFailure(group_idx, f"{type(exc).__name__}: {exc}") from exc


def _supervised_worker_loop(conn) -> None:
    """Body of one supervised fork worker.

    Receives ``(group_idx, dispatch)`` tasks over its pipe, executes them
    against the inherited :data:`_FORK_STATE` session, and replies
    ``("ok" | "error", group_idx, payload, pid, telemetry_delta)``.
    ``None`` is the shutdown sentinel; EOF on the pipe means the parent is
    gone.  A crash (injected or real) simply kills the process — the
    supervisor observes the dead pipe and re-queues the in-flight group.
    An armed ``worker_crash`` fault, keyed by the group and how often it
    was dispatched before, fires here and only here: it is a failure of
    the worker, not of the group.
    """
    session = _FORK_STATE
    faults = session.fault_plan
    pid = os.getpid()
    while True:
        try:
            # lint-allow-blocking: idle workers block on the task pipe by
            # design; the parent owns liveness (EOF/terminate on shutdown).
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        group_idx, dispatch = task
        if faults is not None and faults.crash_now(group_idx, dispatch):
            # Die the way a real worker does (OOM kill, signal): no
            # cleanup, no reply — the supervisor sees EOF.
            os._exit(FAULT_EXIT_CODE)
        # The forked child inherited the parent's collector; capture only
        # what this task records and ship the delta home with the result.
        capture = telemetry.fork_capture()
        try:
            with capture:
                result = session.run_group(group_idx)
            reply = ("ok", group_idx, result, pid, capture.delta)
        except KeyboardInterrupt:
            # Ctrl-C reaches the whole process group: the parent has its
            # own interrupt to handle, and this group did not fail.
            return
        except Exception as exc:  # the supervisor fails the sweep
            reply = (
                "error",
                group_idx,
                f"{type(exc).__name__}: {exc}",
                pid,
                capture.delta,
            )
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


class _SupervisedWorker:
    """Parent-side handle for one supervised fork worker."""

    __slots__ = ("proc", "conn", "group", "started")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.group: Optional[int] = None  # in-flight plan-group index
        self.started: float = 0.0  # when the in-flight group was dispatched


def _hang_deadline(slowest: float) -> float:
    """Seconds a group may run on a fork worker before it counts as hung.

    ``slowest`` is the longest a group has taken on the workers so far
    (0 before the first one completes).  Groups of one plan differ in
    cost: on resnet_s34, mobilenet_s and resnet_s50 (64 samples, one
    BLAS thread, two workers simulated from serial group times) the
    largest took 4.2 s, and no group took more than 1.83x the slowest
    one finished before it started once that one had run 50 ms.  The
    floor covers the first, small groups (up to 9.4x), so the hang path
    needs no option.
    """
    return max(_HANG_FLOOR_S, _HANG_FACTOR * slowest)


def _run_supervised(
    session: "SweepSession",
    pending: Sequence[int],
    workers: int,
    deliver: Callable,
    recovery: Dict[str, int],
) -> None:
    """Fan groups out across supervised fork workers; collect by plan index.

    Unlike a bare ``mp.Pool`` (which deadlocks when a worker dies with a
    task in flight), each worker is a dedicated process on a dedicated
    pipe.  The supervisor multiplexes on the pipes: EOF means the worker
    died mid-group (exit-code watch), and a worker whose group outruns
    :func:`_hang_deadline` is killed as hung.  Either way the worker is
    retired and its group goes back to the queue.  That needs no bound:
    dead workers are never replaced, so a group re-runs at most once per
    worker, and whatever is left when every worker is gone runs once in
    the parent.  A group that raises on a worker fails the sweep at once
    with :class:`SweepFailure`.  Every result goes through ``deliver`` as
    it arrives, so nothing measured is ever re-measured.
    """
    global _FORK_STATE
    ctx = mp.get_context("fork")
    slowest = 0.0  # longest a group has taken on a worker so far
    _FORK_STATE = session
    pool: List[_SupervisedWorker] = []
    queue = deque(pending)
    dispatches: Dict[int, int] = {gi: 0 for gi in pending}

    def retire(worker: _SupervisedWorker) -> None:
        """Take a dead/killed worker out of service, re-queueing its group."""
        if worker in busy:
            busy.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join(timeout=5.0)
        if worker.group is not None:
            _GROUP_RETRIES.add()
            recovery["group_retries"] += 1
            queue.append(worker.group)
            worker.group = None

    try:
        for _ in range(workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_supervised_worker_loop, args=(child_conn,), daemon=True
            )
            proc.start()
            child_conn.close()
            pool.append(_SupervisedWorker(proc, parent_conn))
        idle: List[_SupervisedWorker] = list(pool)
        busy: List[_SupervisedWorker] = []

        while queue or busy:
            # Dispatch as long as there is work and a live idle worker.
            while queue and idle:
                worker = idle.pop()
                gi = queue.popleft()
                try:
                    worker.conn.send((gi, dispatches[gi]))
                except (BrokenPipeError, OSError):
                    queue.appendleft(gi)
                    _WORKER_CRASHES.add()
                    recovery["worker_crashes"] += 1
                    retire(worker)
                    continue
                dispatches[gi] += 1
                worker.group = gi
                worker.started = telemetry.monotonic()
                busy.append(worker)
            if not busy:
                break  # every worker is gone; the parent runs the rest
            ready = mp_connection.wait([w.conn for w in busy], timeout=0.25)
            by_conn = {w.conn: w for w in busy}
            for conn in ready:
                worker = by_conn[conn]
                try:
                    # lint-allow-blocking: recv only on pipes wait()
                    # already reported ready — it cannot block.
                    kind, gi, payload, pid, delta = conn.recv()
                except (EOFError, OSError):
                    # Exit-code watch: the pipe died with a group in
                    # flight — worker crashed (signal, OOM, os._exit).
                    _WORKER_CRASHES.add()
                    recovery["worker_crashes"] += 1
                    retire(worker)
                    continue
                telemetry.merge_delta(delta, worker=pid)
                if kind == "error":
                    raise SweepFailure(gi, f"{payload} (fork worker {pid})")
                busy.remove(worker)
                worker.group = None
                idle.append(worker)
                slowest = max(slowest, telemetry.monotonic() - worker.started)
                deliver(*payload)
            now = telemetry.monotonic()
            deadline = _hang_deadline(slowest)
            for worker in [w for w in busy if now - w.started > deadline]:
                _DEADLINE_KILLS.add()
                recovery["deadline_kills"] += 1
                _WORKER_CRASHES.add()
                recovery["worker_crashes"] += 1
                retire(worker)
    finally:
        _FORK_STATE = None
        for worker in pool:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
            if worker.proc.is_alive():
                worker.proc.terminate()
            worker.proc.join(timeout=5.0)

    # Every worker is gone: the parent runs what is left, once each.
    if queue:
        _SERIAL_FALLBACK.add(len(queue))
        recovery["serial_fallback_groups"] += len(queue)
        for gi in queue:
            deliver(*_run_in_parent(session, gi))


class SensitivityEngine:
    """Runs Algorithm 1 against a model and a quantized-weight table.

    The engine holds no execution knobs: :meth:`measure` reads every one
    of them from a frozen :class:`~repro.core.api.SensitivityConfig` and
    runs the sweep through a :class:`SweepSession`.
    """

    def __init__(
        self,
        model,
        table: QuantizedWeightTable,
        criterion: Optional[CrossEntropyLoss] = None,
    ) -> None:
        self.model = model
        self.table = table
        self.criterion = criterion or CrossEntropyLoss()

    def _segment_map(self) -> Tuple[list, Tuple[int, ...]]:
        """``(segments, layer -> segment)`` for the searched layers.

        A model whose segments do not cover every searched layer (or
        reach one module from two segments) runs as the single segment
        ``[model]``: every replay is then a full forward, which is the
        literal Algorithm 1.
        """
        fallback = ([self.model], (0,) * len(self.table.layers))
        segments = self.model.segments()
        if segments is None:
            return fallback
        owner: Dict[int, int] = {}
        for k, seg in enumerate(segments):
            for _, mod in seg.named_modules():
                if owner.setdefault(id(mod), k) != k:
                    return fallback
        layer_segments = []
        for layer in self.table.layers:
            k = owner.get(id(layer.module))
            if k is None:
                return fallback
            layer_segments.append(k)
        return list(segments), tuple(layer_segments)

    def measure(
        self,
        x: np.ndarray,
        y: np.ndarray,
        config: Optional[SensitivityConfig] = None,
        *,
        mode: str = "full",
        blocks: Optional[Sequence[str]] = None,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> SensitivityResult:
        """Measure the sensitivity matrix on the set ``(x, y)``.

        Parameters
        ----------
        config:
            Every execution knob (batching, workers, resume, faults,
            health checks); the defaults when omitted.
            ``config.num_workers > 1`` fans the groups out
            across supervised fork workers; the matrix is bitwise
            identical to the single-process sweep.
        mode:
            ``"full"`` — all pairwise cross terms (CLADO);
            ``"diagonal"`` — layer-specific terms only (CLADO* ablation);
            ``"block"`` — cross terms only within blocks (BRECQ-style
            ablation, Fig. 6).  ``blocks`` gives each layer's block id;
            derived from layer names when omitted.
        progress:
            Optional callback ``(done, total)`` for long sweeps.
        """
        config = config or SensitivityConfig()
        t0 = telemetry.monotonic()
        faults0, system0 = _fault_usage()
        session = SweepSession(self, x, y, config, mode=mode, blocks=blocks)
        plan = session.plan
        total_evals = 1 + plan.num_evals
        done = 0

        def tick(count: int = 1) -> None:
            nonlocal done
            for _ in range(count):
                done += 1
                if progress is not None:
                    progress(done, total_evals)

        tick()  # the base loss of the prefix pass

        checkpoint = session.checkpoint
        losses = checkpoint.load() if checkpoint is not None else {}
        # A group reruns in full unless every one of its losses was restored.
        pending = [
            gi
            for gi in range(len(plan.groups))
            if any(index not in losses for index in session.group_indices(gi))
        ]
        resumed = plan.num_evals - sum(
            len(session.group_indices(gi)) for gi in pending
        )
        if resumed:
            _RESUMED_EVALS.add(resumed)
        tick(resumed)

        segment_work = 0
        recovery = {
            "worker_crashes": 0,
            "group_retries": 0,
            "deadline_kills": 0,
            "serial_fallback_groups": 0,
        }

        def deliver(results: List[Tuple[int, float]], work: int) -> None:
            nonlocal segment_work
            segment_work += work
            losses.update(results)
            # A group is the unit a resume restores: save each one whole.
            if checkpoint is not None:
                checkpoint.save(losses)
            tick(len(results))

        workers = min(session.num_workers, max(1, len(pending)))
        audit: Optional[DeterminismAudit] = None
        # Fork workers inherit the no-grad flags of the parent.
        with session.no_grad():
            t_eval_start = telemetry.monotonic()
            with telemetry.span("sweep.evals", workers=workers):
                if workers > 1:
                    _run_supervised(session, pending, workers, deliver, recovery)
                else:
                    for gi in pending:
                        deliver(*_run_in_parent(session, gi))
            t_evals = telemetry.monotonic() - t_eval_start

            # Injected measurement corruption and deterministic assembly.
            matrix, single = session.assemble(losses)
            if config.health != "off":
                audit = session.audit(losses)

        wall = telemetry.monotonic() - t0
        faults1, system1 = _fault_usage()
        _MINOR_FAULTS.add(faults1 - faults0)
        nseg = len(session.segments)
        num_batches = len(session.batches)
        prefix_work = nseg * num_batches
        naive_work = total_evals * nseg * num_batches
        executed = plan.num_evals - resumed
        fault_plan = session.fault_plan
        extras: Dict[str, object] = {
            "strategy": "segmented",
            "workers": workers,
            "num_segments": nseg,
            "plan_groups": len(plan.groups),
            "plan_evals": plan.num_evals,
            "resumed_evals": resumed,
            "executed_evals": executed,
            "prefix_cuts_cached": session.clean.num_checkpoints,
            "clean_cache_stored_bytes": session.clean.stored_bytes,
            "injected_fault_plan": (
                fault_plan.describe() if fault_plan is not None else []
            ),
            **recovery,
            "segment_forwards": prefix_work + segment_work,
            "segment_forwards_naive": naive_work,
            "segment_work_saved": 1.0
            - (prefix_work + segment_work) / max(1, naive_work),
            "time_plan": session.time_plan,
            "time_prefix": session.time_prefix,
            "time_evals": t_evals,
            "time_total": wall,
            "evals_per_sec": executed / t_evals if t_evals > 0 else float("inf"),
            "minor_faults": faults1 - faults0,
            "system_s": system1 - system0,
        }
        if audit is not None:
            extras["health"] = audit.to_dict()
        return SensitivityResult(
            matrix=matrix,
            base_loss=session.base_loss,
            single_losses=single,
            num_evals=total_evals,
            wall_time=wall,
            mode=mode,
            bits=tuple(plan.bits),
            extras=extras,
            health=audit,
        )


class SweepSession:
    """The state of one sensitivity sweep, and the code that runs it.

    :meth:`SensitivityEngine.measure` opens one per sweep, and its fork
    workers inherit it.  Plan construction, the prefix pass and group
    execution are deterministic functions of (weights, data, config), so
    every session over the same job measures bitwise-identical losses —
    which is what makes resume sound and the matrix independent of the
    worker count.

    The constructor validates the sensitivity set, resolves every option
    once — the worker count and the fault plan (``REPRO_FAULT_PLAN``
    included) — builds the plan, opens the resume checkpoint and runs the
    clean prefix pass; nothing on the session changes afterwards.  Group execution and the audit expect the caller
    to hold :meth:`no_grad`, as :meth:`SensitivityEngine.measure` does.
    """

    def __init__(
        self,
        engine: SensitivityEngine,
        x: np.ndarray,
        y: np.ndarray,
        config: SensitivityConfig,
        *,
        mode: str,
        blocks: Optional[Sequence[str]] = None,
    ) -> None:
        from .evaluate import _check_eval_set  # evaluate imports this module

        t0 = telemetry.monotonic()
        batch_size = _check_eval_set(x, config.batch_size)
        table = engine.table
        self.engine = engine
        self.config = config
        self.x = x
        self.y = y
        self.segments, self.layer_segments = engine._segment_map()
        with telemetry.span("sweep.plan"):
            self.plan = build_eval_plan(
                len(table.layers), table.config.bits,
                build_pair_list(table.layers, mode, blocks),
                self.layer_segments, len(self.segments), mode,
            )
        self.num_workers = _resolve_workers(config.num_workers)
        self.fault_plan = resolve_fault_plan(config.fault_plan)
        # Opened before the first forward, so a checkpoint directory that
        # cannot be created fails the sweep before it spends any work.
        self.checkpoint = (
            SweepCheckpoint(config.checkpoint_path, self.fingerprint())
            if config.checkpoint_path
            else None
        )
        _retain_freed_heap()
        self.time_plan = telemetry.monotonic() - t0

        # Clean prefix pass: one full forward per batch, checkpointing the
        # cuts replays start from — each group's segment and every pair
        # start before it — and the final outputs give the base loss.
        engine.model.eval()
        self.n = len(x)
        self.batches = [
            (x[s : s + batch_size], y[s : s + batch_size])
            for s in range(0, self.n, batch_size)
        ]
        self.clean = PrefixCache(
            {0}
            | {g.segment for g in self.plan.groups}
            | {
                p.start_segment
                for g in self.plan.groups
                for p in g.pairs
                if p.start_segment < g.segment
            }
        )
        with telemetry.span("sweep.prefix"), self.no_grad():
            self.base_loss = _check_finite(
                self._replay(0, (xb for xb, _ in self.batches), keep=self.clean)
            )
        _FORWARD_EVALS.add()
        _SEGMENT_FORWARDS.add(len(self.segments) * len(self.batches))
        self.time_prefix = telemetry.monotonic() - t0 - self.time_plan

    @contextlib.contextmanager
    def no_grad(self) -> Iterator[None]:
        """No-grad mode over the model and the segments the sweep replays.

        Segments may be wrappers built outside the model tree (ViT's
        classifier tail), so every segment gets its own ``no_grad``.
        """
        with contextlib.ExitStack() as stack:
            for root in [self.engine.model, *self.segments]:
                stack.enter_context(root.no_grad())
            yield

    def fingerprint(self) -> str:
        """Hash every resume checkpoint must match.

        Covers what a measured loss depends on: the data, the original
        weights of the searched layers, the batching, the quantizer scheme,
        each searched layer's activation quantizer (bits and calibrated
        scale), and the plan's structure.  The worker count is left out:
        every worker measures bitwise the losses of a serial sweep.
        """
        table = self.engine.table
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.x).tobytes())
        h.update(np.ascontiguousarray(self.y).tobytes())
        for original in table.original:
            h.update(np.ascontiguousarray(original).tobytes())
        h.update(str(self.config.batch_size).encode())
        h.update(
            json.dumps(
                {
                    "scheme": str(table.config.scheme),
                    "act_quant": activation_quant_state(table.layers),
                },
                sort_keys=True,
            ).encode()
        )
        return self.plan.fingerprint(h.hexdigest())

    def group_indices(self, group_idx: int) -> List[int]:
        """Plan-spec indices measured by plan group ``group_idx``."""
        return [s.index for s in self.plan.groups[group_idx].specs()]

    # -- group execution and assembly ---------------------------------------------
    def assemble(self, losses: Dict[int, float]) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble ``(matrix, single)`` from complete plan-indexed losses,
        applying the session's measurement-corruption faults."""
        missing = [s.index for s in self.plan.specs() if s.index not in losses]
        if missing:
            raise ValueError(
                f"cannot assemble: {len(missing)} plan indices unmeasured "
                f"(first missing: {missing[:5]})"
            )
        return assemble_from_losses(
            self.plan, losses, self.base_loss, self.fault_plan
        )

    def _replay(
        self,
        cut: int,
        acts: Iterable[Activation],
        keep: Optional[PrefixCache] = None,
    ) -> float:
        """Mean loss of plain forwards from segment ``cut`` under the
        current weights.

        ``acts`` yields each batch's activation entering ``cut`` (an
        array, or a residual state at a cut inside a block); ``keep``
        checkpoints the input of every segment on the way.
        """
        total = 0.0
        for b, ((xb, yb), a) in enumerate(zip(self.batches, acts)):
            for k in range(cut, len(self.segments)):
                if keep is not None:
                    keep.put(b, k, a)
                a = self.segments[k].forward(a)
            total += self.engine.criterion.forward(a, yb) * len(xb)
        return total / self.n

    def _clean_acts(self, cut: int) -> Iterator[Activation]:
        return (self.clean.activation(b, cut) for b in range(len(self.batches)))

    @hot_path
    def run_group(self, group_idx: int) -> Tuple[List[Tuple[int, float]], int]:
        """All evaluations of one anchor group ``(i, b_m)``.

        The diagonal replay builds the group's perturbed-suffix cache:
        activations entering each later segment (with ``(i, b_m)`` applied)
        are checkpointed.  Each pair ``(j, b_n)`` then replays plain from
        its partner's segment, off that cache — or off the clean cache when
        the partner's segment comes before the anchor's, where the anchor
        weight is applied on the way.  Returns ``((plan_index, loss), ...)``
        and the segment forwards spent.  It runs identically on a fork
        worker and in the parent.
        """
        g = self.plan.groups[group_idx]
        bits = self.plan.bits
        nseg = self.plan.num_segments
        nbatch = len(self.batches)
        table = self.engine.table
        out: List[Tuple[int, float]] = []

        group_cache = PrefixCache(
            {g.segment}
            | {p.start_segment for p in g.pairs if p.start_segment > g.segment}
        )
        work = (nseg - g.segment) * nbatch

        with telemetry.span("sweep.group", i=g.i), table.perturbed(
            (g.i, bits[g.m])
        ):
            # Diagonal evaluation + perturbed-suffix checkpointing.
            with telemetry.span("sweep.diag", i=g.i):
                loss = self._replay(
                    g.segment, self._clean_acts(g.segment), keep=group_cache
                )
                out.append((g.diag.index, _check_finite(loss)))
            _FORWARD_EVALS.add()

            for p in g.pairs:
                cut = p.start_segment
                source = group_cache if cut >= g.segment else self.clean
                acts = (source.activation(b, cut) for b in range(nbatch))
                with telemetry.span("sweep.pair", i=g.i), table.perturbed(
                    (p.j, bits[p.n])
                ):
                    loss = self._replay(cut, acts)
                _FORWARD_EVALS.add()
                out.append((p.index, _check_finite(loss)))
                work += (nseg - cut) * nbatch

        _SEGMENT_FORWARDS.add(work)
        return out, work

    # -- measurement integrity: the determinism audit ---------------------------
    def audit(self, losses: Dict[int, float]) -> DeterminismAudit:
        """Re-measure the plan's audit sample; each loss must repeat.

        Every spec of :meth:`EvalPlan.audit_specs` is replayed plain off
        the clean prefix cache, and its loss must equal ``losses`` bit for
        bit.  The audit reads the loss table and rewrites nothing: a
        disagreement is reported, never repaired.
        """
        plan = self.plan
        specs = {s.index: s for s in plan.specs()}
        audited = plan.audit_specs()
        disagreements = []
        with telemetry.span("sweep.audit"):
            for index in audited:
                replay = self._remeasure_loss(specs[index])
                if replay != losses[index]:
                    disagreements.append((index, losses[index], replay))
        _health.REMEASURED.add(len(audited))
        _health.QUARANTINED.add(len(disagreements))
        single = {(g.i, g.m): losses[g.diag.index] for g in plan.groups}
        nb = len(plan.bits)
        quads = [
            (
                (p.i * nb + p.m, p.j * nb + p.n),
                losses[p.index], self.base_loss,
                single[(p.i, p.m)], single[(p.j, p.n)],
            )
            for g in plan.groups
            for p in g.pairs
        ]
        return DeterminismAudit(
            audited=audited,
            disagreements=tuple(disagreements),
            cancellation=_health.cancellation_flags(quads),
        )

    def _remeasure_loss(self, spec: EvalSpec) -> float:
        """One plain re-evaluation of ``spec`` — a suffix replay.

        Replays from the clean prefix cache at the earliest perturbed
        segment, so it reproduces the sweep's loss bitwise.
        """
        bits = self.plan.bits
        table = self.engine.table
        if spec.kind == "pair":
            start = min(self.layer_segments[spec.i], self.layer_segments[spec.j])
            ctx = table.perturbed((spec.i, bits[spec.m]), (spec.j, bits[spec.n]))
        else:
            start = spec.start_segment
            ctx = table.perturbed((spec.i, bits[spec.m]))
        with ctx:
            loss = _check_finite(self._replay(start, self._clean_acts(start)))
        _FORWARD_EVALS.add()
        _SEGMENT_FORWARDS.add((len(self.segments) - start) * len(self.batches))
        return loss
