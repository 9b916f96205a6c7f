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
``j``'s segment.  Pair evaluations run as chunks from
:func:`~repro.core.sweep.build_batch_chunks`: a chunk of width ``K > 1``
replays once with its candidates stacked on the batch axis, a width-1
chunk is a plain perturbed replay.  A model whose segments do not cover
every searched layer runs as the single segment ``[model]``, where every
replay is a full forward.  Groups can fan out across supervised fork
workers; the measured matrix is bitwise identical across worker counts
because losses are keyed by their plan index before assembly.

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
from ..nn import (
    CrossEntropyLoss,
    fold_candidates,
    folded_cross_entropy,
)
from ..nn.module import Activation
from ..quant import QuantizedWeightTable
from ..robustness import InjectedWorkerCrash, SweepFailure
from ..robustness import faults as _faults
from ..robustness import health as _health
from ..robustness.faults import FaultPlan, resolve_fault_plan
from ..robustness.health import GMatrixHealth, HealthPolicy
from .api import SensitivityConfig
from .sweep import (
    BatchChunk,
    EvalPlan,
    EvalSpec,
    GroupPlan,
    PrefixCache,
    SweepCheckpoint,
    build_batch_chunks,
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
    "auto_eval_batch_k",
    "auto_waste_factor",
]

#: Soft memory budget for the auto ``eval_batch_k`` choice: the folded
#: activation batch is ``K`` replicas of one mini-batch, and intermediate
#: activations can outgrow the input by a wide margin, so the auto default
#: bounds ``K * batch_size * sample_bytes * ACT_EXPANSION`` by this budget.
_BATCH_MEMORY_BUDGET = 128 * 1024 * 1024
_ACT_EXPANSION = 8
_MAX_AUTO_BATCH_K = 32
_MAX_AUTO_BATCH_K_TINY = 128

#: Folded mini-batch volume (floats) separating the two batching regimes.
#: Below it each segment forward is a tiny GEMM whose cost is Python and
#: BLAS *dispatch*, so chunks may trade redundant flops for width
#: (:data:`_WASTE_FACTOR_DISPATCH`); above it the flops themselves are the
#: cost and chunks only coalesce cuts at zero waste
#: (:data:`_WASTE_FACTOR_COMPUTE` — pair specs sharing a partner layer
#: still stack for free, because they replay the identical suffix).
_DISPATCH_BOUND_FLOATS = 4096
_WASTE_FACTOR_DISPATCH = 2.0
_WASTE_FACTOR_COMPUTE = 1.0

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

#: A group running on a fork worker longer than the larger of these is
#: taken for hung: the floor, or this multiple of the slowest group the
#: workers have completed so far (see :func:`_hang_deadline`).
_HANG_FLOOR_S = 60.0
_HANG_FACTOR = 10.0

#: Loss evaluations actually executed (resumed-from-checkpoint losses do
#: not count).
_FORWARD_EVALS = telemetry.counter("sensitivity.forward_evals")
#: Individual segment forwards the sweep paid (prefix + replays).
#: A stacked (config-batched) segment forward counts once: it is one
#: dispatch, however many candidates ride in it.
_SEGMENT_FORWARDS = telemetry.counter("sensitivity.segment_forwards")
#: Evaluations restored from a resume checkpoint instead of re-running.
_RESUMED_EVALS = telemetry.counter("sensitivity.resumed_evals")
#: Evaluations executed through stacked (width > 1) replays.
_BATCHED_EVALS = telemetry.counter("sweep.batched_evals")
#: Stacked replays executed (each carries >= 2 candidate configs).
_BATCHED_CHUNKS = telemetry.counter("sweep.batched_chunks")
#: Widest candidate stack seen in one replay.
_BATCH_WIDTH_MAX = telemetry.gauge("sweep.batch_width_max")
#: Mean realized candidate-stack width of the last sweep.
_BATCH_WIDTH_MEAN = telemetry.gauge("sweep.batch_width_mean")
#: Supervised workers that died mid-group (signal, OOM kill, injected crash).
_WORKER_CRASHES = telemetry.counter("sweep.worker_crashes")
#: Groups whose worker reported an in-process error (worker survived).
_WORKER_ERRORS = telemetry.counter("sweep.worker_errors")
#: Groups re-queued after a crash, error, or deadline kill.
_GROUP_RETRIES = telemetry.counter("sweep.group_retries")
#: Workers terminated because a group outran the hang deadline.
_DEADLINE_KILLS = telemetry.counter("sweep.deadline_kills")
#: Groups the pool could not finish that degraded to serial execution.
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
    #: Post-quarantine integrity report (``None`` when health checking is
    #: off); the structural repair ladder in ``CLADO._prepare`` consumes
    #: it.  A JSON-safe summary also lands in ``extras["health"]``.
    health: Optional[GMatrixHealth] = None

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


def auto_eval_batch_k(x: np.ndarray, batch_size: int) -> int:
    """Memory-aware default candidate-stack width.

    Bounds the folded-activation footprint ``K * batch_size * sample_bytes``
    (inflated by :data:`_ACT_EXPANSION` for intermediate activations) by
    :data:`_BATCH_MEMORY_BUDGET`.  Dispatch-bound workloads (see
    :func:`auto_waste_factor`) may stack up to
    :data:`_MAX_AUTO_BATCH_K_TINY` candidates — their per-segment arrays
    are so small that width is pure dispatch savings; everything else is
    clamped to :data:`_MAX_AUTO_BATCH_K`.
    """
    sample_bytes = max(1, int(x[0].nbytes)) if len(x) else 1
    rows = min(batch_size, max(1, len(x)))
    per_candidate = rows * sample_bytes
    auto = _BATCH_MEMORY_BUDGET // max(1, per_candidate * _ACT_EXPANSION)
    sample_floats = max(1, int(x[0].size)) if len(x) else 1
    cap = (
        _MAX_AUTO_BATCH_K_TINY
        if rows * sample_floats <= _DISPATCH_BOUND_FLOATS
        else _MAX_AUTO_BATCH_K
    )
    return int(min(cap, max(1, auto)))


def auto_waste_factor(x: np.ndarray, batch_size: int) -> float:
    """Chunk-coalescing waste bound matched to the workload regime.

    Tiny folded batches (``rows * floats-per-sample`` at or below
    :data:`_DISPATCH_BOUND_FLOATS`) are dispatch-bound — redundant flops
    are nearly free next to per-call overhead, so cuts coalesce
    aggressively.  Larger batches are compute-bound and only zero-waste
    merges (same-cut specs, e.g. the ``|B|`` bit choices of one partner
    layer) pay off.
    """
    sample_floats = max(1, int(x[0].size)) if len(x) else 1
    rows = min(batch_size, max(1, len(x)))
    if rows * sample_floats <= _DISPATCH_BOUND_FLOATS:
        return _WASTE_FACTOR_DISPATCH
    return _WASTE_FACTOR_COMPUTE


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

    ``fault_plan`` applies the measurement-corruption faults: ``outlier_loss``
    poisons the loss dict (in plan-index order) *before* assembly so
    corrupted singles cascade into every dependent finite difference, and
    ``asymmetric_pair`` strikes one direction of an assembled entry
    afterwards.  Mutates ``losses`` in place for the outlier case (callers
    checkpoint the poisoned values).
    """
    nb = len(plan.bits)
    nvars = plan.num_layers * nb
    if fault_plan is not None:
        for index in sorted(losses):
            delta = fault_plan.outlier_delta(index, 0)
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

    # Asymmetry corruption strikes one direction of an assembled entry
    # (the assembler guarantees symmetry, so only post-assembly damage
    # can break it — e.g. a bit flip in the stored matrix).
    if fault_plan is not None:
        for g in plan.groups:
            for p in g.pairs:
                delta = fault_plan.asymmetry_delta(p.index)
                if delta is not None:
                    r, c = p.i * nb + p.m, p.j * nb + p.n
                    matrix[r, c] += delta * (1.0 + abs(matrix[r, c]))
    return matrix, single


def _check_finite(loss: float, poison: bool = False) -> float:
    """``loss``, or a loud failure when it is not finite.

    A single non-finite measurement silently poisons the whole sensitivity
    matrix, so the sweep fails at the source instead.  ``poison`` (an
    armed ``nonfinite_loss`` fault) turns the loss into NaN first,
    exercising the identical path a diverged model takes.
    """
    if poison:
        loss = float("nan")
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
    requests below 32 MiB come from the heap, and up to
    ``_BATCH_MEMORY_BUDGET`` of free heap top stays mapped.  Setting
    either one alone switches glibc's adjustment off and leaves the other
    at its 128 KiB default.  Fork workers inherit the setting.  Returns
    whether it was applied; a C library without ``mallopt`` is left as it
    is.
    """
    if not hasattr(_LIBC, "mallopt"):
        return False
    mmap_set = _LIBC.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    trim_set = _LIBC.mallopt(_M_TRIM_THRESHOLD, _BATCH_MEMORY_BUDGET)
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


def _supervised_worker_loop(conn) -> None:
    """Body of one supervised fork worker.

    Receives ``(group_idx, attempt)`` tasks over its pipe, executes them
    against the inherited :data:`_FORK_STATE` session, and replies
    ``("ok" | "error", group_idx, payload, pid, telemetry_delta)``.
    ``None`` is the shutdown sentinel; EOF on the pipe means the parent is
    gone.  A crash (injected or real) simply kills the process — the
    supervisor observes the dead pipe and re-queues the in-flight group.
    """
    _faults.mark_worker()
    session = _FORK_STATE
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
        group_idx, attempt = task
        # The forked child inherited the parent's collector; capture only
        # what this task records and ship the delta home with the result.
        capture = telemetry.fork_capture()
        try:
            with capture:
                result = session.run_group(group_idx, attempt)
            reply = ("ok", group_idx, result, pid, capture.delta)
        except BaseException as exc:  # report, stay alive for the next task
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


def _merge_chunk_stats(agg: Dict[str, int], stats: Dict[str, int]) -> None:
    agg["evals"] += stats["evals"]
    agg["chunks"] += stats["chunks"]
    agg["width_max"] = max(agg["width_max"], stats["width_max"])
    agg["extra_flops"] += stats["extra_flops"]


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
    died mid-group (exit-code watch), a worker whose group outruns
    :func:`_hang_deadline` is killed as hung, and in both cases the
    in-flight group re-queues onto the survivors with bounded retries.
    Groups the pool cannot finish — retries exhausted or every worker
    dead — degrade to serial execution in the parent, which is also
    where :class:`SweepFailure` is ultimately raised.  Every result goes
    through ``deliver`` as it arrives, so nothing measured is ever
    re-measured.
    """
    global _FORK_STATE
    ctx = mp.get_context("fork")
    max_retries = session.config.max_retries
    slowest = 0.0  # longest a group has taken on a worker so far
    _FORK_STATE = session
    pool: List[_SupervisedWorker] = []
    queue = deque(pending)
    attempts: Dict[int, int] = {gi: 0 for gi in pending}
    overflow: List[int] = []  # retries exhausted on the pool -> serial

    def requeue(gi: int) -> None:
        attempts[gi] += 1
        if attempts[gi] <= max_retries:
            _GROUP_RETRIES.add()
            recovery["group_retries"] += 1
            queue.append(gi)
        else:
            overflow.append(gi)

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
            requeue(worker.group)
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
                    worker.conn.send((gi, attempts[gi]))
                except (BrokenPipeError, OSError):
                    queue.appendleft(gi)
                    _WORKER_CRASHES.add()
                    recovery["worker_crashes"] += 1
                    retire(worker)
                    continue
                worker.group = gi
                worker.started = telemetry.monotonic()
                busy.append(worker)
            if not busy:
                break  # every worker is gone; leftovers run serially
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
                busy.remove(worker)
                worker.group = None
                idle.append(worker)
                if kind == "ok":
                    slowest = max(slowest, telemetry.monotonic() - worker.started)
                    deliver(*payload)
                else:
                    _WORKER_ERRORS.add()
                    recovery["worker_errors"] += 1
                    requeue(gi)
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

    # Serial degradation: whatever the pool could not finish runs in the
    # parent, with its own bounded retries; if that fails too the sweep
    # raises SweepFailure.
    leftovers = list(queue) + overflow
    if leftovers:
        _SERIAL_FALLBACK.add(len(leftovers))
        recovery["serial_fallback_groups"] += len(leftovers)
        for gi in leftovers:
            deliver(
                *session.run_group_resilient(
                    gi, recovery, start_attempt=attempts.get(gi, 0)
                )
            )


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
            Every execution knob (batching, workers, resume, stack
            width, retries, faults, health checks); the defaults
            when omitted.  ``config.num_workers > 1`` fans the groups out
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
        chunk_stats = {"evals": 0, "chunks": 0, "width_max": 0, "extra_flops": 0}
        recovery = {
            "worker_crashes": 0,
            "worker_errors": 0,
            "group_retries": 0,
            "deadline_kills": 0,
            "serial_fallback_groups": 0,
        }

        def deliver(
            results: List[Tuple[int, float]], work: int, stats: Dict[str, int]
        ) -> None:
            nonlocal segment_work
            segment_work += work
            _merge_chunk_stats(chunk_stats, stats)
            losses.update(results)
            # A group is the unit a resume restores: save each one whole.
            if checkpoint is not None:
                checkpoint.save(losses)
            tick(len(results))

        workers = min(session.num_workers, max(1, len(pending)))
        health_report: Optional[GMatrixHealth] = None
        health_extras: Optional[Dict[str, object]] = None
        # Fork workers inherit the no-grad flags of the parent.
        with session.no_grad():
            t_eval_start = telemetry.monotonic()
            with telemetry.span("sweep.evals", workers=workers):
                if workers > 1:
                    _run_supervised(session, pending, workers, deliver, recovery)
                else:
                    for gi in pending:
                        deliver(*session.run_group_resilient(gi, recovery))
            t_evals = telemetry.monotonic() - t_eval_start

            # Injected measurement corruption (round 0 = the sweep itself)
            # and deterministic reassembly.
            matrix, single = session.assemble(losses)
            if config.health != "off":
                with telemetry.span("sweep.health"):
                    matrix, single, health_report, health_extras = (
                        session.health_pass(matrix, single, losses)
                    )
                if checkpoint is not None:
                    # Accepted re-measurements supersede the checkpointed
                    # sweep values; persist them so a resume sees the
                    # healed losses.
                    checkpoint.save(losses)

        wall = telemetry.monotonic() - t0
        faults1, system1 = _fault_usage()
        _MINOR_FAULTS.add(faults1 - faults0)
        nseg = len(session.segments)
        num_batches = len(session.batches)
        prefix_work = nseg * num_batches
        naive_work = total_evals * nseg * num_batches
        executed = plan.num_evals - resumed
        batch_width_mean = (
            chunk_stats["evals"] / chunk_stats["chunks"]
            if chunk_stats["chunks"]
            else 0.0
        )
        _BATCH_WIDTH_MEAN.set(batch_width_mean)
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
            "eval_batch_k": session.eval_batch_k,
            "max_retries": config.max_retries,
            "injected_fault_plan": (
                fault_plan.describe() if fault_plan is not None else []
            ),
            **recovery,
            "batched_evals": chunk_stats["evals"],
            "batched_chunks": chunk_stats["chunks"],
            "batch_width_max": chunk_stats["width_max"],
            "batch_width_mean": batch_width_mean,
            "segment_forwards": prefix_work + segment_work,
            "segment_forwards_naive": naive_work,
            "segment_flop_units": prefix_work
            + segment_work
            + chunk_stats["extra_flops"],
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
        if health_extras is not None:
            extras["health"] = health_extras
        return SensitivityResult(
            matrix=matrix,
            base_loss=session.base_loss,
            single_losses=single,
            num_evals=total_evals,
            wall_time=wall,
            mode=mode,
            bits=tuple(plan.bits),
            extras=extras,
            health=health_report,
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
    once — the stack width (auto when ``config.eval_batch_k`` is 0), the
    chunk waste factor, the worker count and the fault plan
    (``REPRO_FAULT_PLAN`` included) — builds the plan, opens the resume
    checkpoint and runs the clean prefix pass; nothing on the session
    changes afterwards.  Group execution and the health pass expect the
    caller to hold :meth:`no_grad`, as :meth:`SensitivityEngine.measure`
    does.
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
        self.eval_batch_k = config.eval_batch_k or auto_eval_batch_k(
            x, config.batch_size
        )
        self.waste_factor = auto_waste_factor(x, config.batch_size)
        self.num_workers = _resolve_workers(config.num_workers)
        self.fault_plan = resolve_fault_plan(config.fault_plan)
        # Opened before the first forward, so a checkpoint directory that
        # cannot be created fails the sweep before it spends any work.
        self.checkpoint = (
            SweepCheckpoint(
                config.checkpoint_path, self.fingerprint(),
                fault_plan=self.fault_plan,
            )
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
        scale), and the plan's structure.  The stack width is left out,
        like the worker count: a stacked replay measures bitwise the
        losses of the plain replays it stands for.
        """
        table = self.engine.table
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.x).tobytes())
        h.update(np.ascontiguousarray(self.y).tobytes())
        for original in table.original:
            h.update(np.ascontiguousarray(original).tobytes())
        h.update(str(self.config.batch_size).encode())
        act_quant = []
        for layer in table.layers:
            aq = getattr(layer.module, "act_quant", None)
            act_quant.append(
                None if aq is None
                else [int(aq.bits), None if aq.scale is None else float(aq.scale)]
            )
        h.update(
            json.dumps(
                {"scheme": str(table.config.scheme), "act_quant": act_quant},
                sort_keys=True,
            ).encode()
        )
        return self.plan.fingerprint(h.hexdigest())

    def group_indices(self, group_idx: int) -> List[int]:
        """Plan-spec indices measured by plan group ``group_idx``."""
        return [s.index for s in self.plan.groups[group_idx].specs()]

    def group_chunks(self, g: GroupPlan) -> List[BatchChunk]:
        """The chunks group ``g``'s pairs replay as: one width-``K`` chunk
        per stacked replay, one width-1 chunk per plain replay."""
        return build_batch_chunks(
            g.pairs, self.plan.num_segments, self.eval_batch_k,
            waste_factor=self.waste_factor,
        )

    # -- group execution ----------------------------------------------------------
    def run_group(
        self, group_idx: int, attempt: int = 0
    ) -> Tuple[List[Tuple[int, float]], int, Dict[str, int]]:
        """Execute one plan group: ``(plan_index, loss)`` pairs, segment
        forwards spent, and stacked-replay statistics.

        This is the fault-injection point for sweep faults: it runs
        identically in fork workers and serial execution, and it sees the
        ``(group, attempt)`` pair the schedule is keyed by.
        An armed ``nonfinite_loss`` fault poisons the group's diagonal loss.
        """
        poison = False
        fault = self.fault_plan
        if fault is not None:
            if fault.crash_now(group_idx, attempt):
                if _faults.in_worker():
                    # Die the way a real worker does (OOM kill, signal):
                    # no cleanup, no reply — the supervisor sees EOF.
                    os._exit(_faults.FAULT_EXIT_CODE)
                raise InjectedWorkerCrash(
                    f"injected worker crash at group {group_idx} "
                    f"(attempt {attempt})"
                )
            poison = fault.nonfinite_now(group_idx, attempt)
        return self._run_group_batched(group_idx, poison)

    def run_group_resilient(
        self,
        group_idx: int,
        recovery: Dict[str, int],
        start_attempt: int = 0,
    ) -> Tuple[List[Tuple[int, float]], int, Dict[str, int]]:
        """Execute one group in-process with bounded retries.

        The retry loop is safe because a failed attempt leaves no partial
        state: ``table.perturbed`` restores weights on unwind and the
        group's suffix cache is rebuilt per attempt, so a retry recomputes
        the identical losses a clean first attempt would.  ``start_attempt``
        keeps the fault-injection attempt counter monotonic for groups that
        already burned attempts on the worker pool.
        """
        max_retries = self.config.max_retries
        last_exc: Optional[BaseException] = None
        for k in range(max_retries + 1):
            try:
                return self.run_group(group_idx, start_attempt + k)
            except Exception as exc:
                last_exc = exc
                if k < max_retries:
                    _GROUP_RETRIES.add()
                    recovery["group_retries"] += 1
        attempts = start_attempt + max_retries + 1
        raise SweepFailure(
            f"sweep group {group_idx} failed after {attempts} attempts "
            f"(last error: {last_exc})",
            group=group_idx,
            attempts=attempts,
        ) from last_exc

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
    def _run_group_batched(
        self, group_idx: int, poison: bool = False
    ) -> Tuple[List[Tuple[int, float]], int, Dict[str, int]]:
        """All evaluations of one anchor group ``(i, b_m)``.

        The diagonal replay builds the group's perturbed-suffix cache:
        activations entering each later segment (with ``(i, b_m)`` applied)
        are checkpointed.  The pair evaluations are coalesced into
        waste-bounded :class:`BatchChunk`s, and each chunk replays its
        suffix **once**.  Losses land under plan indices, so reassembly,
        checkpointing, and resume are oblivious to the chunking.  Returns
        ``((plan_index, loss), ...)``, the segment forwards spent, and the
        statistics of the stacked (width > 1) chunks.
        """
        g = self.plan.groups[group_idx]
        bits = self.plan.bits
        nseg = self.plan.num_segments
        nbatch = len(self.batches)
        table = self.engine.table
        out: List[Tuple[int, float]] = []
        stats = {"evals": 0, "chunks": 0, "width_max": 0, "extra_flops": 0}

        chunks = self.group_chunks(g)
        group_cache = PrefixCache(
            {g.segment} | {c.cut for c in chunks if c.cut > g.segment}
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
                out.append((g.diag.index, _check_finite(loss, poison)))
            _FORWARD_EVALS.add()

            for chunk in chunks:
                with telemetry.span("sweep.chunk", i=g.i, width=chunk.width):
                    out.extend(self._run_chunk(chunk, g, group_cache))
                work += (nseg - chunk.cut) * nbatch
                if chunk.width > 1:
                    stats["evals"] += chunk.width
                    stats["chunks"] += 1
                    stats["width_max"] = max(stats["width_max"], chunk.width)
                    stats["extra_flops"] += (
                        (chunk.width - 1) * (nseg - chunk.cut) * nbatch
                    )

        _SEGMENT_FORWARDS.add(work)
        return out, work, stats

    @hot_path
    def _run_chunk(
        self, chunk: BatchChunk, g: GroupPlan, group_cache: PrefixCache
    ) -> List[Tuple[int, float]]:
        """One suffix replay evaluating every spec in ``chunk``.

        Runs inside the group's anchor context (``(i, b_m)`` applied
        globally).  A width-1 chunk is a plain replay with its partner
        ``(j, b_n)`` applied.  In a wider chunk, candidate ``k`` overlays
        its partner layer ``j_k`` with ``Q(w, b_{n_k})``; every other
        overlaid layer shows candidate ``k`` its current in-context
        weight, and every slice's GEMMs have the plain replay's shapes
        (:meth:`QuantizedWeightTable.batched`), so each candidate row
        computes bitwise the plain pair evaluation it replaces.  When the
        chunk cut sits before the anchor's segment the replay starts from
        the clean cache and re-applies the anchor on the way.
        """
        segments = self.segments
        nseg = len(segments)
        table = self.engine.table
        bits = self.plan.bits
        width = chunk.width
        cut = chunk.cut
        source = group_cache if cut >= g.segment else self.clean
        acts = [source.activation(b, cut) for b in range(len(self.batches))]
        if width == 1:
            # A lone candidate needs no fold and no overlay: a plain
            # perturbed replay, the forward a sequential sweep runs.
            spec = chunk.specs[0]
            with table.perturbed((spec.j, bits[spec.n])):
                loss = self._replay(cut, acts)
            _FORWARD_EVALS.add()
            return [(spec.index, _check_finite(loss))]
        # Sparse rows: at each partner layer, every candidate but the
        # spec's own row sees the current in-context weight.
        rows: Dict[int, Dict[int, np.ndarray]] = {}
        for k, spec in enumerate(chunk.specs):
            rows.setdefault(spec.j, {})[k] = table.quantized(spec.j, bits[spec.n])
        totals = [0.0] * width
        with table.batched(segments[cut:], width, rows):
            for b, (xb, yb) in enumerate(self.batches):
                a = fold_candidates(acts[b], width)
                for s in range(cut, nseg):
                    a = segments[s].forward(a)
                # Row-wise folded loss: entry k bitwise equals a solo
                # criterion.forward on candidate k's logit slice.
                losses = folded_cross_entropy(a, yb, width)
                for k in range(width):
                    totals[k] += losses[k] * len(xb)
        _FORWARD_EVALS.add(width)
        _BATCHED_EVALS.add(width)
        _BATCHED_CHUNKS.add()
        _BATCH_WIDTH_MAX.record_max(width)
        return [
            (spec.index, _check_finite(totals[k] / self.n))
            for k, spec in enumerate(chunk.specs)
        ]

    # -- measurement integrity: quarantine-and-remeasure ------------------------
    def health_pass(
        self,
        matrix: np.ndarray,
        single: np.ndarray,
        losses: Dict[int, float],
    ) -> Tuple[np.ndarray, np.ndarray, GMatrixHealth, Dict[str, object]]:
        """Diagnose the assembled Ĝ and quarantine-and-remeasure suspects.

        Flagged entries are re-evaluated — plain suffix replays off the
        *clean* prefix cache, not full sweeps — for up to
        ``config.health_rounds`` rounds.  A re-measurement that agrees with
        the entry's current loss (``HealthPolicy.agrees``) confirms it;
        a clean entry always does, because a plain replay reproduces
        every loss the sweep measured bitwise, stacked or not.  A
        disagreement replaces the loss and leaves the entry active so the
        replacement itself must repeat before being trusted.  After each
        round the matrix is rebuilt from the healed loss table by
        :func:`assemble_from_losses`, so a corrected single reaches every
        pair difference that reads it, and damage done to the assembled
        matrix rather than to a loss is gone.  Updates ``losses`` in place
        and returns ``(matrix, single)``, the post-quarantine report and
        the JSON-safe ``extras["health"]`` summary.
        """
        plan = self.plan
        base_loss = self.base_loss
        policy = HealthPolicy(remeasure_rounds=self.config.health_rounds)
        nb = len(plan.bits)
        # Each measured entry of Ĝ and the one evaluation behind it.
        entry_spec: Dict[Tuple[int, int], EvalSpec] = {}
        pair_specs: Dict[Tuple[int, int], EvalSpec] = {}
        for g in plan.groups:
            entry_spec[(g.i * nb + g.m,) * 2] = g.diag
            for p in g.pairs:
                key = _health.canonical_entry(p.i * nb + p.m, p.j * nb + p.n)
                entry_spec[key] = pair_specs[key] = p

        def diagnose(**frozen) -> GMatrixHealth:
            quads = [
                (key, losses[p.index], base_loss, single[p.i, p.m], single[p.j, p.n])
                for key, p in pair_specs.items()
            ]
            return _health.diagnose_matrix(
                matrix,
                tuple(pair_specs),
                policy,
                cancellation=_health.cancellation_flags(
                    quads, policy.cancellation_eps
                ),
                **frozen,
            )

        report = diagnose()
        report.quarantined = len(report.flagged)
        _health.QUARANTINED.add(report.quarantined)
        pre_summary = report.to_dict(policy.max_listed)

        confirmed: set = set()
        persistent: Dict[Tuple[int, int], float] = {}
        samples: Dict[Tuple[int, int], List[float]] = {}
        remeasured = 0
        active = set(report.flagged)

        for round_ in range(1, policy.remeasure_rounds + 1):
            if not active:
                break
            with telemetry.span("sweep.remeasure", round=round_):
                for key in sorted(active):
                    spec = entry_spec.get(key)
                    if spec is None:
                        # Nothing measurable behind this entry (cannot
                        # happen for plan-built matrices; defensive).
                        active.discard(key)
                        persistent[key] = 0.0
                        continue
                    current = losses[spec.index]
                    samples.setdefault(key, [current])
                    new = self._remeasure_loss(spec, round_)
                    remeasured += 1
                    if policy.agrees(new, current):
                        confirmed.add(key)
                        active.discard(key)
                    else:
                        losses[spec.index] = new
                    samples[key].append(losses[spec.index])
                matrix, single = assemble_from_losses(plan, losses, base_loss)

        for key in sorted(active):
            persistent[key] = float(np.var(np.asarray(samples.get(key, [0.0]))))
        _health.REMEASURED.add(remeasured)
        _health.CONFIRMED.add(len(confirmed))
        _health.PERSISTENT.add(len(persistent))

        # Re-diagnose the (possibly healed) matrix against the *frozen*
        # initial robust scale: the quarantine must not be able to shift
        # the reference distribution under its own feet.
        final = diagnose(scale=report.scale, confirmed=frozenset(confirmed))
        final.persistent = persistent
        final.quarantined = report.quarantined
        final.remeasured = remeasured
        extras: Dict[str, object] = {
            "pre": pre_summary,
            "post": final.to_dict(policy.max_listed),
            "quarantined": report.quarantined,
            "remeasured": remeasured,
            "confirmed": len(confirmed),
            "persistent": len(persistent),
            "rounds": policy.remeasure_rounds,
        }
        return matrix, single, final, extras

    def _remeasure_loss(self, spec: EvalSpec, round_: int) -> float:
        """One quarantine re-evaluation of ``spec`` — a suffix replay.

        Replays from the clean prefix cache at the earliest perturbed
        segment, so a plain replay reproduces the sweep's loss bitwise.
        Scheduled ``outlier_loss`` faults re-corrupt the result while
        their ``times`` budget lasts (``round_`` >= 1 here), which is what
        makes persistent disagreers deterministic in chaos tests.
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
        fault_plan = self.fault_plan
        if fault_plan is not None:
            delta = fault_plan.outlier_delta(spec.index, round_)
            if delta is not None:
                loss += delta * (1.0 + abs(loss))
        return loss
