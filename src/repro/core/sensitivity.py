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

Execution strategies
--------------------
``"naive"`` runs every evaluation as a full forward pass — the literal
Algorithm 1.  ``"segmented"`` (the default whenever the model exposes
``Module.segments``) exploits the locality of weight perturbations:
activations before the earliest perturbed layer are bitwise unchanged, so
the clean prefix is checkpointed once per batch, each anchor perturbation
``(i, b_m)`` replays once from its segment (checkpointing the perturbed
suffix, which *is* the Eq. 12 evaluation), and each pair ``(i, j)`` replays
only from layer ``j``'s segment.  Evaluations can additionally fan out
across fork-based worker processes; the measured matrix is bitwise
identical across strategies and worker counts because losses are keyed by
their plan index before assembly.

Every forward the engine runs is a no-grad forward
(:meth:`repro.nn.Module.no_grad`): no layer keeps a backward cache, and
the sweep freezes (``writeable = False``) every activation it checkpoints,
so a layer writing into its input would raise instead of corrupting the
replays that share the checkpoint.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing as mp
import os
from collections import Counter, deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..nn import (
    BatchedWeightOverlay,
    CrossEntropyLoss,
    fold_candidates,
    folded_cross_entropy,
)
from ..quant import QuantizedWeightTable
from ..robustness import InjectedWorkerCrash, SweepFailure
from ..robustness import faults as _faults
from ..robustness import health as _health
from ..robustness.faults import FaultPlan, resolve_fault_plan
from ..robustness.health import GMatrixHealth, HealthPolicy
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
    select_cuts,
)

__all__ = [
    "SensitivityResult",
    "SensitivityEngine",
    "ShardSession",
    "block_id_from_name",
    "build_pair_list",
    "assemble_from_losses",
    "auto_eval_batch_k",
    "auto_waste_factor",
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_LEASE_TTL",
]

#: Times a failed group is re-queued (to surviving workers, then serially)
#: before the sweep gives up with :class:`SweepFailure`.
DEFAULT_MAX_RETRIES = 2

#: Wall-clock seconds a sharded-sweep lease may go without a heartbeat
#: before the coordinator's reaper revokes it (see ``repro.distrib``).
#: Lives here rather than in ``repro.distrib`` so config layers can name
#: the default without importing the (subprocess-spawning) subsystem.
DEFAULT_LEASE_TTL = 30.0

#: Default number of activation checkpoints each prefix cache may hold.
DEFAULT_CACHE_BUDGET = 16

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

#: Loss evaluations actually executed (naive: full forwards; segmented:
#: replayed evaluations — resumed-from-checkpoint losses do not count).
_FORWARD_EVALS = telemetry.counter("sensitivity.forward_evals")
#: Individual segment forwards the segmented engine paid (prefix + replays).
#: A stacked (config-batched) segment forward counts once: it is one
#: dispatch, however many candidates ride in it.
_SEGMENT_FORWARDS = telemetry.counter("sensitivity.segment_forwards")
#: Evaluations restored from a resume checkpoint instead of re-running.
_RESUMED_EVALS = telemetry.counter("sensitivity.resumed_evals")
#: Evaluations executed through stacked (config-batched) replays.
_BATCHED_EVALS = telemetry.counter("sweep.batched_evals")
#: Stacked replays executed (each carries >= 1 candidate configs).
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
#: Workers terminated because a group exceeded its per-group deadline.
_DEADLINE_KILLS = telemetry.counter("sweep.deadline_kills")
#: Groups the pool could not finish that degraded to serial execution.
_SERIAL_FALLBACK = telemetry.counter("sweep.serial_fallback_groups")


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

    Shared by :meth:`SensitivityEngine.measure` and the sharded-sweep
    protocol (``repro.distrib``): coordinator and spawned workers must
    derive the identical pair list (hence the identical
    :class:`~repro.core.sweep.EvalPlan`) from the same layer set, or the
    plan fingerprints — and the shard merge — disagree.
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
    matrix is independent of execution order, worker count, and of whether
    the losses came from one process or were merged from shard partials —
    the property the distributed sweep's bitwise-equality gate rests on.

    ``fault_plan`` applies the measurement-corruption faults exactly as
    the single-process sweep does: ``outlier_loss`` poisons the loss dict
    (in plan-index order) *before* assembly so corrupted singles cascade
    into every dependent finite difference, and ``asymmetric_pair``
    strikes one direction of an assembled entry afterwards.  Mutates
    ``losses`` in place for the outlier case (callers checkpoint the
    poisoned values, matching the in-process engine).
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
        if g.mirror is not None:
            omega_ii = loss + losses[g.mirror.index] - 2.0 * base_loss
        else:
            omega_ii = 2.0 * (loss - base_loss)
        matrix[g.i * nb + g.m, g.i * nb + g.m] = omega_ii
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
                delta = fault_plan.asymmetry_delta(p.index, 0)
                if delta is not None:
                    r, c = p.i * nb + p.m, p.j * nb + p.n
                    matrix[r, c] += delta * (1.0 + abs(matrix[r, c]))
    return matrix, single


# Worker state for fork-based fan-out: set in the parent immediately before
# the workers are forked, inherited copy-on-write by each child.  The
# quantized-weight table and prefix-cache arrays are shared pages; each
# worker's weight swaps and forward caches stay process-local.
_FORK_STATE: Optional[Tuple["SensitivityEngine", EvalPlan, PrefixCache, list, int]] = None


def _supervised_worker_loop(conn) -> None:
    """Body of one supervised fork worker.

    Receives ``(group_idx, attempt)`` tasks over its pipe, executes them
    against the inherited :data:`_FORK_STATE`, and replies ``("ok" |
    "error", group_idx, payload, pid, telemetry_delta)``.  ``None`` is the
    shutdown sentinel; EOF on the pipe means the parent is gone.  A crash
    (injected or real) simply kills the process — the supervisor observes
    the dead pipe and re-queues the in-flight group.
    """
    _faults.mark_worker()
    engine, plan, clean, batches, n = _FORK_STATE
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
        engine._fault_attempt = attempt
        # The forked child inherited the parent's collector; capture only
        # what this task records and ship the delta home with the result.
        capture = telemetry.fork_capture()
        try:
            with capture:
                result = engine._execute_group(plan, group_idx, clean, batches, n)
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


def _merge_chunk_stats(agg: Dict[str, int], stats: Optional[Dict[str, int]]) -> None:
    if not stats:
        return
    agg["evals"] += stats["evals"]
    agg["chunks"] += stats["chunks"]
    agg["width_max"] = max(agg["width_max"], stats["width_max"])
    agg["extra_flops"] += stats["extra_flops"]


class SensitivityEngine:
    """Runs Algorithm 1 against a model and a quantized-weight table.

    Parameters
    ----------
    strategy:
        ``"auto"`` (segmented when the model supports it), ``"naive"``
        (full forward per evaluation), or ``"segmented"`` (require the
        prefix-cached path; raises if the model exposes no segments).
    num_workers:
        Fork-based worker processes for the segmented path.  ``0`` means
        ``os.cpu_count()``; ``1`` (default) runs in-process.  Falls back
        to serial where ``fork`` is unavailable.
    cache_budget:
        Maximum activation checkpoints per prefix cache (memory bound);
        evaluations starting past an evicted cut recompute from the
        nearest earlier checkpoint.
    eval_batch_k:
        Candidate configurations stacked per segment replay on the
        segmented path.  ``1`` runs every evaluation as its own replay
        (the sequential engine); ``> 1`` caps the stack width; ``0``
        (default) picks a memory-aware width from the mini-batch
        footprint.  Measured matrices are equal across all settings
        within the sweep-equivalence tolerance.
    cache_bytes:
        Byte budget per prefix cache.  When set, cold activation
        checkpoints are LRU-evicted (per-batch anchors are pinned) and
        evaluations past an evicted cut recompute from the nearest
        earlier checkpoint — long sweeps on wide models degrade to
        recompute instead of OOM-killing workers.
    group_deadline:
        Wall-clock seconds one plan group may run on a supervised
        worker before the worker is killed and the group re-queued.
        ``None`` (default) disables the deadline.
    max_retries:
        Times a failed group is re-queued (onto surviving workers,
        finally serially in the parent) before the sweep raises
        :class:`repro.robustness.SweepFailure`.
    fault_plan:
        Deterministic fault-injection schedule (chaos testing); also
        settable via the ``REPRO_FAULT_PLAN`` environment variable.
    """

    def __init__(
        self,
        model,
        table: QuantizedWeightTable,
        criterion: Optional[CrossEntropyLoss] = None,
        *,
        strategy: str = "auto",
        num_workers: int = 1,
        cache_budget: Optional[int] = DEFAULT_CACHE_BUDGET,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 32,
        eval_batch_k: int = 0,
        cache_bytes: Optional[int] = None,
        group_deadline: Optional[float] = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        fault_plan: Optional[FaultPlan] = None,
        health: str = "off",
        health_rounds: int = 2,
        health_policy: Optional[HealthPolicy] = None,
    ) -> None:
        if strategy not in ("auto", "naive", "segmented"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if eval_batch_k < 0:
            raise ValueError(f"eval_batch_k must be >= 0, got {eval_batch_k}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if health not in ("off", "warn", "strict"):
            raise ValueError(f"unknown health mode {health!r}")
        if health_rounds < 0:
            raise ValueError(f"health_rounds must be >= 0, got {health_rounds}")
        self.model = model
        self.table = table
        self.criterion = criterion or CrossEntropyLoss()
        self.strategy = strategy
        self.num_workers = num_workers
        self.cache_budget = cache_budget
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.eval_batch_k = eval_batch_k
        self.cache_bytes = cache_bytes
        self.group_deadline = group_deadline
        self.max_retries = max_retries
        self.fault_plan = fault_plan
        self.health = health
        self.health_rounds = health_rounds
        self.health_policy = health_policy
        self._segments: Optional[list] = None
        self._layer_segments: Optional[Tuple[int, ...]] = None
        self._active_cache_budget: Optional[int] = cache_budget
        self._active_cache_bytes: Optional[int] = cache_bytes
        self._active_eval_batch_k: int = 1
        self._active_waste_factor: float = _WASTE_FACTOR_DISPATCH
        self._active_fault_plan: Optional[FaultPlan] = None
        self._fault_attempt: int = 0
        self._poison_next_loss: bool = False

    # -- loss of the current weight configuration ------------------------------
    def _loss(self, x: np.ndarray, y: np.ndarray, batch_size: int) -> float:
        total = 0.0
        n = len(x)
        self.model.eval()
        for start in range(0, n, batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            total += self.criterion.forward(self.model.forward(xb), yb) * len(xb)
        _FORWARD_EVALS.add()
        return self._check_finite(total / n)

    def _check_finite(self, loss: float) -> float:
        if self._poison_next_loss:
            # Armed by a FaultPlan ``nonfinite_loss`` fault: the very next
            # measured loss comes out NaN, exercising the identical failure
            # path a diverged model would.
            self._poison_next_loss = False
            loss = float("nan")
        if not np.isfinite(loss):
            # A single non-finite measurement silently poisons the whole
            # sensitivity matrix; fail loudly at the source instead.
            raise RuntimeError(
                "non-finite loss during sensitivity measurement "
                "(model diverged or inputs are corrupt)"
            )
        return loss

    @contextlib.contextmanager
    def _no_grad(self) -> Iterator[None]:
        """No-grad mode over the model and the segments the engine replays.

        Segments may be wrappers built outside the model tree (ViT's
        classifier tail), so every segment gets its own ``no_grad``.
        """
        with contextlib.ExitStack() as stack:
            for root in [self.model, *(self._segments or ())]:
                stack.enter_context(root.no_grad())
            yield

    # -- segmented-forward support ---------------------------------------------
    def _segment_map(self) -> Optional[Tuple[list, Tuple[int, ...]]]:
        """(segments, layer->segment) when every searched layer is covered."""
        segments = self.model.segments()
        if segments is None:
            return None
        owner: Dict[int, int] = {}
        for k, seg in enumerate(segments):
            for _, mod in seg.named_modules():
                prev = owner.setdefault(id(mod), k)
                if prev != k:
                    return None  # module reachable from two segments
        layer_segments = []
        for layer in self.table.layers:
            k = owner.get(id(layer.module))
            if k is None:
                return None  # searched layer outside the segment partition
            layer_segments.append(k)
        return list(segments), tuple(layer_segments)

    def _resolve_strategy(self, strategy: Optional[str]) -> str:
        strategy = strategy or self.strategy
        if strategy not in ("auto", "naive", "segmented"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if strategy == "naive":
            return "naive"
        mapping = self._segment_map()
        if mapping is None:
            if strategy == "segmented":
                raise RuntimeError(
                    "segmented strategy requested but the model does not "
                    "expose forward segments covering every searched layer"
                )
            return "naive"
        self._segments, self._layer_segments = mapping
        return "segmented"

    def _resolve_workers(self, num_workers: Optional[int]) -> int:
        workers = self.num_workers if num_workers is None else num_workers
        if workers == 0:
            workers = os.cpu_count() or 1
        if workers > 1 and "fork" not in mp.get_all_start_methods():
            workers = 1  # no COW sharing available (e.g. Windows): run serial
        return max(1, workers)

    def _resolve_eval_batch_k(
        self, eval_batch_k: Optional[int], x: np.ndarray, batch_size: int
    ) -> int:
        """Resolve the candidate-stack width (0 = memory-aware auto)."""
        k = self.eval_batch_k if eval_batch_k is None else eval_batch_k
        if k < 0:
            raise ValueError(f"eval_batch_k must be >= 0, got {k}")
        if k:
            return k
        return auto_eval_batch_k(x, batch_size)

    # -- public API -------------------------------------------------------------
    def measure(
        self,
        x: np.ndarray,
        y: np.ndarray,
        mode: str = "full",
        blocks: Optional[Sequence[str]] = None,
        batch_size: int = 256,
        progress: Optional[Callable[[int, int], None]] = None,
        symmetric_diag: bool = False,
        strategy: Optional[str] = None,
        num_workers: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        cache_budget: Optional[int] = None,
        eval_batch_k: Optional[int] = None,
        cache_bytes: Optional[int] = None,
        group_deadline: Optional[float] = None,
        max_retries: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        health: Optional[str] = None,
        health_rounds: Optional[int] = None,
        health_policy: Optional[HealthPolicy] = None,
        shards: int = 0,
        lease_ttl: Optional[float] = None,
        spool_dir: Optional[str] = None,
        model_spec: Optional[dict] = None,
    ) -> SensitivityResult:
        """Measure the sensitivity matrix on the set ``(x, y)``.

        Parameters
        ----------
        mode:
            ``"full"`` — all pairwise cross terms (CLADO);
            ``"diagonal"`` — layer-specific terms only (CLADO* ablation);
            ``"block"`` — cross terms only within blocks (BRECQ-style
            ablation, Fig. 6).  ``blocks`` gives each layer's block id;
            derived from layer names when omitted.
        progress:
            Optional callback ``(done, total)`` for long sweeps.
        symmetric_diag:
            Extension beyond the paper: measure the layer-specific terms
            with the symmetric second difference
            ``L(w+Δ) + L(w-Δ) - 2L(w)`` instead of Eq. 12's one-sided
            ``2(L(w+Δ) - L(w))``.  Odd-order Taylor terms (including the
            gradient term at a not-fully-converged model) cancel, at the
            cost of ``|B|I`` extra loss evaluations.  Cross terms (Eq. 13)
            already cancel the first order and are unchanged.
        strategy / num_workers / cache_budget / checkpoint_path /
        checkpoint_every / eval_batch_k / cache_bytes / group_deadline /
        max_retries / fault_plan:
            Per-call overrides of the engine-level execution knobs (see
            the class docstring).  ``checkpoint_path`` enables periodic
            persistence of partial losses; re-measuring with the same
            model, data, and plan resumes instead of restarting.
        health / health_rounds / health_policy:
            Measurement-integrity checking (docs/robustness.md): any mode
            other than ``"off"`` diagnoses the assembled matrix
            (:func:`repro.robustness.health.diagnose_matrix`) and — on the
            segmented path — quarantines and re-measures flagged entries
            for up to ``health_rounds`` rounds of suffix replays.  The
            warn/strict distinction is enforced by the caller (see
            ``CLADO._prepare``); the engine only attaches the report as
            ``result.health``.  ``health_policy`` overrides the detection
            thresholds (advanced; defaults derive from ``health_rounds``).
        shards / lease_ttl / spool_dir / model_spec:
            ``shards > 1`` routes the sweep through the crash-tolerant
            work-queue protocol of :mod:`repro.distrib`: the plan's groups
            are partitioned into ``shards`` shards executed by spawned
            worker processes (``num_workers`` of them) that rebuild the
            model from ``model_spec`` (an ``{"import": "module:callable",
            "kwargs": {...}}`` builder spec) plus serialized weights/data
            in ``spool_dir``.  The merged matrix is bitwise identical to
            the single-process sweep.  Requires the segmented strategy
            and a ``model_spec``; see ``docs/distrib.md``.
        """
        if mode not in ("full", "diagonal", "block"):
            raise ValueError(f"unknown mode {mode!r}")
        health_mode = self.health if health is None else health
        if health_mode not in ("off", "warn", "strict"):
            raise ValueError(f"unknown health mode {health_mode!r}")
        rounds = self.health_rounds if health_rounds is None else health_rounds
        if rounds < 0:
            raise ValueError(f"health_rounds must be >= 0, got {rounds}")
        policy = (
            health_policy
            or self.health_policy
            or HealthPolicy(remeasure_rounds=rounds)
        )
        pair_list = build_pair_list(self.table.layers, mode, blocks)

        if shards and shards > 1:
            from ..distrib import measure_sharded

            if self._resolve_strategy(strategy) != "segmented":
                raise RuntimeError(
                    "sharded sweeps require the segmented strategy (the "
                    "shard protocol is keyed by the segmented eval plan)"
                )
            return measure_sharded(
                self,
                x,
                y,
                mode=mode,
                blocks=blocks,
                batch_size=batch_size,
                symmetric_diag=symmetric_diag,
                shards=shards,
                num_workers=self._resolve_workers(num_workers),
                lease_ttl=DEFAULT_LEASE_TTL if lease_ttl is None else lease_ttl,
                spool_dir=spool_dir,
                model_spec=model_spec,
                eval_batch_k=self._resolve_eval_batch_k(eval_batch_k, x, batch_size),
                cache_budget=(
                    self.cache_budget if cache_budget is None else cache_budget
                ),
                cache_bytes=self.cache_bytes if cache_bytes is None else cache_bytes,
                max_retries=self.max_retries if max_retries is None else max_retries,
                fault_plan=resolve_fault_plan(
                    self.fault_plan if fault_plan is None else fault_plan
                ),
                health=health_mode,
                health_policy=policy,
                progress=progress,
            )

        resolved = self._resolve_strategy(strategy)
        # Fork workers inherit the no-grad flags of the parent.
        with self._no_grad():
            if resolved == "naive":
                return self._measure_naive(
                    x, y, mode, pair_list, batch_size, progress, symmetric_diag,
                    health=health_mode, health_policy=policy,
                )
            return self._measure_segmented(
                x,
                y,
                mode,
                pair_list,
                batch_size,
                progress,
                symmetric_diag,
                num_workers=self._resolve_workers(num_workers),
                cache_budget=(
                    self.cache_budget if cache_budget is None else cache_budget
                ),
                checkpoint_path=checkpoint_path or self.checkpoint_path,
                checkpoint_every=(
                    self.checkpoint_every
                    if checkpoint_every is None
                    else checkpoint_every
                ),
                eval_batch_k=self._resolve_eval_batch_k(eval_batch_k, x, batch_size),
                cache_bytes=self.cache_bytes if cache_bytes is None else cache_bytes,
                group_deadline=(
                    self.group_deadline if group_deadline is None else group_deadline
                ),
                max_retries=self.max_retries if max_retries is None else max_retries,
                fault_plan=resolve_fault_plan(
                    self.fault_plan if fault_plan is None else fault_plan
                ),
                health=health_mode,
                health_policy=policy,
            )

    # -- naive strategy: one full forward per evaluation -----------------------
    def _measure_naive(
        self,
        x: np.ndarray,
        y: np.ndarray,
        mode: str,
        pair_list: Sequence[Tuple[int, int]],
        batch_size: int,
        progress: Optional[Callable[[int, int], None]],
        symmetric_diag: bool,
        health: str = "off",
        health_policy: Optional[HealthPolicy] = None,
    ) -> SensitivityResult:
        t0 = telemetry.monotonic()
        bits = self.table.config.bits
        num_layers = len(self.table.layers)
        nb = len(bits)
        nvars = num_layers * nb

        diag_evals = num_layers * nb * (2 if symmetric_diag else 1)
        total_evals = 1 + diag_evals + len(pair_list) * nb * nb
        done = 0

        def tick() -> None:
            nonlocal done
            done += 1
            if progress is not None:
                progress(done, total_evals)

        with telemetry.span("sweep.base"):
            base_loss = self._loss(x, y, batch_size)
        tick()

        matrix = np.zeros((nvars, nvars))
        single = np.zeros((num_layers, nb))
        for i in range(num_layers):
            for m, b in enumerate(bits):
                with telemetry.span("sweep.diag", i=i, b=b):
                    with self.table.perturbed((i, b)):
                        loss = self._loss(x, y, batch_size)
                single[i, m] = loss
                if symmetric_diag:
                    # Mirror point w - Δ = 2w - Q(w): odd orders cancel.
                    with telemetry.span("sweep.mirror", i=i, b=b):
                        with self.table.mirrored(i, b):
                            minus_loss = self._loss(x, y, batch_size)
                    omega_ii = loss + minus_loss - 2.0 * base_loss
                    tick()
                else:
                    omega_ii = 2.0 * (loss - base_loss)
                matrix[i * nb + m, i * nb + m] = omega_ii
                tick()

        quads = []  # (entry key, pair loss, base, single_i, single_j)
        for i, j in pair_list:
            for m, bm in enumerate(bits):
                for n, bn in enumerate(bits):
                    with telemetry.span("sweep.pair", i=i, j=j):
                        with self.table.perturbed((i, bm), (j, bn)):
                            pair_loss = self._loss(x, y, batch_size)
                    omega = pair_loss + base_loss - single[i, m] - single[j, n]
                    matrix[i * nb + m, j * nb + n] = omega
                    matrix[j * nb + n, i * nb + m] = omega
                    quads.append(
                        (
                            _health.canonical_entry(i * nb + m, j * nb + n),
                            pair_loss, base_loss, single[i, m], single[j, n],
                        )
                    )
                    tick()

        extras: Dict[str, object] = {"strategy": "naive", "workers": 1}
        health_report: Optional[GMatrixHealth] = None
        if health != "off":
            # The naive path has no prefix cache to replay from, so it is
            # detection-only: quarantine-and-remeasure needs the segmented
            # engine (the default whenever the model exposes segments).
            policy = health_policy or HealthPolicy()
            with telemetry.span("sweep.health"):
                health_report = _health.diagnose_matrix(
                    matrix,
                    tuple(q[0] for q in quads),
                    policy,
                    cancellation=_health.cancellation_flags(
                        quads, policy.cancellation_eps
                    ),
                )
            health_report.quarantined = len(health_report.flagged)
            _health.QUARANTINED.add(health_report.quarantined)
            summary = health_report.to_dict(policy.max_listed)
            extras["health"] = {
                "pre": summary,
                "post": summary,
                "quarantined": health_report.quarantined,
                "remeasured": 0,
                "confirmed": 0,
                "persistent": 0,
                "rounds": 0,
            }

        return SensitivityResult(
            matrix=matrix,
            base_loss=base_loss,
            single_losses=single,
            num_evals=total_evals,
            wall_time=telemetry.monotonic() - t0,
            mode=mode,
            bits=tuple(bits),
            extras=extras,
            health=health_report,
        )

    # -- segmented strategy: prefix caching + optional process fan-out ----------
    def _measure_segmented(
        self,
        x: np.ndarray,
        y: np.ndarray,
        mode: str,
        pair_list: Sequence[Tuple[int, int]],
        batch_size: int,
        progress: Optional[Callable[[int, int], None]],
        symmetric_diag: bool,
        num_workers: int,
        cache_budget: Optional[int],
        checkpoint_path: Optional[str],
        checkpoint_every: int,
        eval_batch_k: int,
        cache_bytes: Optional[int] = None,
        group_deadline: Optional[float] = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        fault_plan: Optional[FaultPlan] = None,
        health: str = "off",
        health_policy: Optional[HealthPolicy] = None,
    ) -> SensitivityResult:
        t0 = telemetry.monotonic()
        bits = self.table.config.bits
        num_layers = len(self.table.layers)
        nb = len(bits)
        nvars = num_layers * nb
        segments = self._segments
        layer_segments = self._layer_segments
        nseg = len(segments)

        self._active_cache_budget = cache_budget
        self._active_cache_bytes = cache_bytes
        self._active_eval_batch_k = eval_batch_k
        self._active_waste_factor = auto_waste_factor(x, batch_size)
        self._active_fault_plan = fault_plan
        self._fault_attempt = 0
        self._poison_next_loss = False
        with telemetry.span("sweep.plan"):
            plan = build_eval_plan(
                num_layers, bits, pair_list, layer_segments, nseg, symmetric_diag,
                mode,
            )
        total_evals = 1 + plan.num_evals
        done = 0

        def tick(count: int = 1) -> None:
            nonlocal done
            for _ in range(count):
                done += 1
                if progress is not None:
                    progress(done, total_evals)

        t_plan = telemetry.monotonic() - t0

        # Clean prefix pass: one full forward per batch, checkpointing the
        # cuts replays start from; the final outputs give the base loss.
        self.model.eval()
        n = len(x)
        batches = [
            (x[s : s + batch_size], y[s : s + batch_size])
            for s in range(0, n, batch_size)
        ]
        clean_freq: Counter = Counter()
        for g in plan.groups:
            clean_freq[g.segment] += 2 if g.mirror is not None else 1
            for p in g.pairs:
                if p.start_segment < g.segment:
                    clean_freq[p.start_segment] += 1
        clean = PrefixCache(
            segments,
            select_cuts(clean_freq, cache_budget) | {0},
            max_bytes=cache_bytes,
        )
        with telemetry.span("sweep.prefix"):
            base_total = 0.0
            for b, (xb, yb) in enumerate(batches):
                a = xb
                for k, seg in enumerate(segments):
                    clean.put(b, k, a)
                    a = seg.forward(a)
                base_total += self.criterion.forward(a, yb) * len(xb)
            base_loss = self._check_finite(base_total / n)
        _FORWARD_EVALS.add()
        _SEGMENT_FORWARDS.add(nseg * len(batches))
        tick()
        t_prefix = telemetry.monotonic() - t0 - t_plan

        checkpoint: Optional[SweepCheckpoint] = None
        losses: Dict[int, float] = {}
        if checkpoint_path:
            fingerprint = plan.fingerprint(self._data_fingerprint(x, y, batch_size))
            checkpoint = SweepCheckpoint(
                checkpoint_path, fingerprint, every=checkpoint_every,
                fault_plan=fault_plan,
            )
            losses = checkpoint.load()
        # A group reruns in full unless every one of its losses was restored.
        pending = [
            gi
            for gi, g in enumerate(plan.groups)
            if any(s.index not in losses for s in g.specs())
        ]
        resumed = plan.num_evals - sum(
            sum(1 for _ in plan.groups[gi].specs()) for gi in pending
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
        workers = min(num_workers, max(1, len(pending)))
        t_eval_start = telemetry.monotonic()
        try:
            with telemetry.span("sweep.evals", workers=workers):
                if workers > 1:
                    segment_work += self._run_groups_supervised(
                        plan, pending, clean, batches, n, workers,
                        losses, checkpoint, tick, chunk_stats, recovery,
                        max_retries=max_retries, group_deadline=group_deadline,
                    )
                else:
                    for gi in pending:
                        results, work, stats = self._execute_group_resilient(
                            plan, gi, clean, batches, n,
                            max_retries=max_retries, recovery=recovery,
                        )
                        segment_work += work
                        _merge_chunk_stats(chunk_stats, stats)
                        for index, loss in results:
                            losses[index] = loss
                            if checkpoint is not None:
                                checkpoint.record(index, loss)
                        tick(len(results))
        finally:
            if checkpoint is not None:
                checkpoint.flush()
        t_evals = telemetry.monotonic() - t_eval_start

        # Injected measurement corruption (round 0 = the sweep itself) and
        # deterministic reassembly, shared with the distributed merge path.
        matrix, single = assemble_from_losses(plan, losses, base_loss, fault_plan)

        health_report: Optional[GMatrixHealth] = None
        health_extras: Optional[Dict[str, object]] = None
        if health != "off":
            policy = health_policy or HealthPolicy()
            with telemetry.span("sweep.health"):
                health_report, health_extras = self._health_pass(
                    plan, matrix, single, base_loss, losses,
                    clean, batches, n, policy, fault_plan,
                )
            if checkpoint is not None:
                # Accepted re-measurements supersede the checkpointed sweep
                # values; persist them so a resume sees the healed losses.
                for index, loss in losses.items():
                    checkpoint.record(index, loss)
                checkpoint.flush()

        wall = telemetry.monotonic() - t0
        num_batches = len(batches)
        prefix_work = nseg * num_batches
        naive_work = total_evals * nseg * num_batches
        executed = plan.num_evals - resumed
        batch_width_mean = (
            chunk_stats["evals"] / chunk_stats["chunks"]
            if chunk_stats["chunks"]
            else 0.0
        )
        _BATCH_WIDTH_MEAN.set(batch_width_mean)
        extras: Dict[str, object] = {
            "strategy": "segmented",
            "workers": workers,
            "num_segments": nseg,
            "plan_groups": len(plan.groups),
            "plan_evals": plan.num_evals,
            "resumed_evals": resumed,
            "executed_evals": executed,
            "prefix_cuts_cached": clean.num_checkpoints,
            "cache_budget": -1 if cache_budget is None else cache_budget,
            "cache_bytes": -1 if cache_bytes is None else cache_bytes,
            "clean_cache_evictions": clean.evictions,
            "clean_cache_stored_bytes": clean.stored_bytes,
            "eval_batch_k": eval_batch_k,
            "max_retries": max_retries,
            "group_deadline": -1.0 if group_deadline is None else group_deadline,
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
            "time_plan": t_plan,
            "time_prefix": t_prefix,
            "time_evals": t_evals,
            "time_total": wall,
            "evals_per_sec": executed / t_evals if t_evals > 0 else float("inf"),
        }
        if health_extras is not None:
            extras["health"] = health_extras
        return SensitivityResult(
            matrix=matrix,
            base_loss=base_loss,
            single_losses=single,
            num_evals=total_evals,
            wall_time=wall,
            mode=mode,
            bits=tuple(bits),
            extras=extras,
            health=health_report,
        )

    # -- measurement integrity: quarantine-and-remeasure ------------------------

    def _health_pass(
        self,
        plan: EvalPlan,
        matrix: np.ndarray,
        single: np.ndarray,
        base_loss: float,
        losses: Dict[int, float],
        clean: PrefixCache,
        batches: list,
        n: int,
        policy: HealthPolicy,
        fault_plan: Optional[FaultPlan],
    ) -> Tuple[GMatrixHealth, Dict[str, object]]:
        """Diagnose the assembled Ĝ and quarantine-and-remeasure suspects.

        Flagged entries are re-evaluated in place — suffix replays off the
        *clean* prefix cache, not full sweeps — for up to
        ``policy.remeasure_rounds`` rounds.  A re-measurement that agrees
        with the entry's current value (bitwise for the deterministic
        sequential path) confirms it; a disagreement replaces the value
        and leaves the entry active so the replacement itself must repeat
        before being trusted.  Diagonals are processed before pairs within
        each round because a corrected single cascades into every
        dependent pair difference.  Mutates ``matrix`` / ``single`` /
        ``losses`` and returns the post-quarantine report plus the
        JSON-safe ``extras["health"]`` summary.
        """
        nb = len(plan.bits)
        diag_groups: Dict[int, GroupPlan] = {
            g.i * nb + g.m: g for g in plan.groups
        }
        pair_specs: Dict[Tuple[int, int], EvalSpec] = {}
        for g in plan.groups:
            for p in g.pairs:
                key = _health.canonical_entry(p.i * nb + p.m, p.j * nb + p.n)
                pair_specs[key] = p

        def quads() -> list:
            return [
                (key, losses[p.index], base_loss, single[p.i, p.m], single[p.j, p.n])
                for key, p in pair_specs.items()
            ]

        report = _health.diagnose_matrix(
            matrix,
            tuple(pair_specs),
            policy,
            cancellation=_health.cancellation_flags(
                quads(), policy.cancellation_eps
            ),
        )
        report.quarantined = len(report.flagged)
        _health.QUARANTINED.add(report.quarantined)
        pre_summary = report.to_dict(policy.max_listed)

        confirmed: set = set()
        persistent: Dict[Tuple[int, int], float] = {}
        samples: Dict[Tuple[int, int], List[float]] = {}
        remeasured = 0
        active = set(report.flagged)

        def entry_specs(key: Tuple[int, int]) -> List[EvalSpec]:
            r, c = key
            if r == c:
                g = diag_groups.get(r)
                if g is None:
                    return []
                return [g.diag] + ([g.mirror] if g.mirror is not None else [])
            p = pair_specs.get(key)
            return [] if p is None else [p]

        def recompute(key: Tuple[int, int]) -> None:
            """Rewrite the entry (and its dependents) from current losses.

            Always runs after a re-measurement — even a confirming one —
            because asymmetry damage lives in the assembled matrix, not in
            the loss dict, and a symmetric rewrite is what heals it.
            """
            r, c = key
            if r == c:
                g = diag_groups[r]
                loss = losses[g.diag.index]
                single[g.i, g.m] = loss
                if g.mirror is not None:
                    omega = loss + losses[g.mirror.index] - 2.0 * base_loss
                else:
                    omega = 2.0 * (loss - base_loss)
                matrix[r, r] = omega
                self._recompute_dependent_pairs(
                    plan, matrix, single, base_loss, losses, g.i, g.m
                )
            else:
                p = pair_specs[key]
                omega = (
                    losses[p.index] + base_loss - single[p.i, p.m] - single[p.j, p.n]
                )
                matrix[p.i * nb + p.m, p.j * nb + p.n] = omega
                matrix[p.j * nb + p.n, p.i * nb + p.m] = omega

        for round_ in range(1, policy.remeasure_rounds + 1):
            if not active:
                break
            with telemetry.span("sweep.remeasure", round=round_):
                # Diagonal suspects first (sort key: pairs compare False <
                # True), so corrected singles propagate before the pair
                # agreement checks of the same round.
                for key in sorted(active, key=lambda rc: (rc[0] != rc[1], rc)):
                    specs = entry_specs(key)
                    if not specs:
                        # Nothing measurable behind this entry (cannot
                        # happen for plan-built matrices; defensive).
                        active.discard(key)
                        persistent[key] = 0.0
                        continue
                    samples.setdefault(key, [losses[specs[0].index]])
                    agree = True
                    for spec in specs:
                        new = self._remeasure_loss(
                            plan, spec, clean, batches, n, fault_plan, round_
                        )
                        remeasured += 1
                        if not policy.agrees(new, losses[spec.index]):
                            agree = False
                            losses[spec.index] = new
                    samples[key].append(losses[specs[0].index])
                    recompute(key)
                    if agree:
                        confirmed.add(key)
                        active.discard(key)

        for key in sorted(active):
            persistent[key] = float(np.var(np.asarray(samples.get(key, [0.0]))))
        _health.REMEASURED.add(remeasured)
        _health.CONFIRMED.add(len(confirmed))
        _health.PERSISTENT.add(len(persistent))

        # Re-diagnose the (possibly healed) matrix against the *frozen*
        # initial robust scale: the quarantine must not be able to shift
        # the reference distribution under its own feet.
        final = _health.diagnose_matrix(
            matrix,
            tuple(pair_specs),
            policy,
            cancellation=_health.cancellation_flags(
                quads(), policy.cancellation_eps
            ),
            scale=report.scale,
            confirmed=frozenset(confirmed),
        )
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
        return final, extras

    def _remeasure_loss(
        self,
        plan: EvalPlan,
        spec: EvalSpec,
        clean: PrefixCache,
        batches: list,
        n: int,
        fault_plan: Optional[FaultPlan],
        round_: int,
    ) -> float:
        """One quarantine re-evaluation of ``spec`` — a suffix replay.

        Replays from the clean prefix cache at the earliest perturbed
        segment, so the sequential path reproduces the sweep's loss
        bitwise.  Scheduled ``outlier_loss`` faults re-corrupt the result
        while their ``times`` budget lasts (``round_`` >= 1 here), which is
        what makes persistent disagreers deterministic in chaos tests.
        """
        bits = plan.bits
        if spec.kind == "pair":
            start = min(plan.layer_segments[spec.i], plan.layer_segments[spec.j])
            ctx = self.table.perturbed(
                (spec.i, bits[spec.m]), (spec.j, bits[spec.n])
            )
        elif spec.kind == "mirror":
            start = spec.start_segment
            ctx = self.table.mirrored(spec.i, bits[spec.m])
        else:
            start = spec.start_segment
            ctx = self.table.perturbed((spec.i, bits[spec.m]))
        total = 0.0
        work = 0
        # Its own no-grad scope: the sharded coordinator calls the health
        # pass outside measure().
        with ctx, self._no_grad():
            for b, (xb, yb) in enumerate(batches):
                a = clean.activation(b, start)
                a, replayed = self._replay(start, a)
                work += replayed
                total += self.criterion.forward(a, yb) * len(xb)
        _FORWARD_EVALS.add()
        _SEGMENT_FORWARDS.add(work)
        loss = self._check_finite(total / n)
        if fault_plan is not None:
            delta = fault_plan.outlier_delta(spec.index, round_)
            if delta is not None:
                loss += delta * (1.0 + abs(loss))
        return loss

    def _recompute_dependent_pairs(
        self,
        plan: EvalPlan,
        matrix: np.ndarray,
        single: np.ndarray,
        base_loss: float,
        losses: Dict[int, float],
        i: int,
        m: int,
    ) -> None:
        """Rewrite every Ω entry whose finite difference reads ``single[i, m]``.

        A corrected diagonal loss silently heals the pair entries it
        poisoned — they were assembled from the same corrupted single, not
        independently measured wrong.
        """
        nb = len(plan.bits)
        for g in plan.groups:
            for p in g.pairs:
                if (p.i, p.m) == (i, m) or (p.j, p.n) == (i, m):
                    omega = (
                        losses[p.index]
                        + base_loss
                        - single[p.i, p.m]
                        - single[p.j, p.n]
                    )
                    matrix[p.i * nb + p.m, p.j * nb + p.n] = omega
                    matrix[p.j * nb + p.n, p.i * nb + p.m] = omega

    def _data_fingerprint(self, x: np.ndarray, y: np.ndarray, batch_size: int) -> str:
        """Ties a resume checkpoint to the exact data, weights, and batching."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(x).tobytes())
        h.update(np.ascontiguousarray(y).tobytes())
        for original in self.table.original:
            h.update(np.ascontiguousarray(original).tobytes())
        h.update(str(batch_size).encode())
        return h.hexdigest()

    def _execute_group_resilient(
        self,
        plan: EvalPlan,
        group_idx: int,
        clean: PrefixCache,
        batches: list,
        n: int,
        max_retries: int,
        recovery: Dict[str, int],
        start_attempt: int = 0,
    ) -> Tuple[List[Tuple[int, float]], int, Optional[Dict[str, int]]]:
        """Execute one group in-process with bounded retries.

        The retry loop is safe because a failed attempt leaves no partial
        state: ``table.perturbed`` restores weights on unwind and the
        group's suffix cache is rebuilt per attempt, so a retry recomputes
        the identical losses a clean first attempt would.  ``start_attempt``
        keeps the fault-injection attempt counter monotonic for groups that
        already burned attempts on the worker pool.
        """
        last_exc: Optional[BaseException] = None
        for k in range(max_retries + 1):
            self._fault_attempt = start_attempt + k
            try:
                return self._execute_group(plan, group_idx, clean, batches, n)
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

    def _run_groups_supervised(
        self,
        plan: EvalPlan,
        pending: Sequence[int],
        clean: PrefixCache,
        batches: list,
        n: int,
        workers: int,
        losses: Dict[int, float],
        checkpoint: Optional[SweepCheckpoint],
        tick: Callable[[int], None],
        chunk_stats: Dict[str, int],
        recovery: Dict[str, int],
        max_retries: int,
        group_deadline: Optional[float],
    ) -> int:
        """Fan groups out across supervised fork workers; collect by plan index.

        Unlike a bare ``mp.Pool`` (which deadlocks when a worker dies with a
        task in flight), each worker is a dedicated process on a dedicated
        pipe.  The supervisor multiplexes on the pipes: EOF means the worker
        died mid-group (exit-code watch), a per-group deadline kills hung
        workers, and in both cases the in-flight group re-queues onto the
        survivors with bounded retries.  Groups the pool cannot finish —
        retries exhausted or every worker dead — degrade to serial
        execution in the parent, which is also where :class:`SweepFailure`
        is ultimately raised.  Completed losses are checkpointed as they
        arrive, so nothing measured is ever re-measured.
        """
        global _FORK_STATE
        ctx = mp.get_context("fork")
        segment_work = 0
        _FORK_STATE = (self, plan, clean, batches, n)
        pool: List[_SupervisedWorker] = []
        queue = deque(pending)
        attempts: Dict[int, int] = {gi: 0 for gi in pending}
        overflow: List[int] = []  # retries exhausted on the pool -> serial

        def deliver(
            results: List[Tuple[int, float]],
            work: int,
            stats: Optional[Dict[str, int]],
        ) -> None:
            nonlocal segment_work
            segment_work += work
            _merge_chunk_stats(chunk_stats, stats)
            for index, loss in results:
                losses[index] = loss
                if checkpoint is not None:
                    checkpoint.record(index, loss)
            tick(len(results))

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
                ready = mp_connection.wait(
                    [w.conn for w in busy], timeout=0.25
                )
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
                        deliver(*payload)
                    else:
                        _WORKER_ERRORS.add()
                        recovery["worker_errors"] += 1
                        requeue(gi)
                if group_deadline is not None:
                    now = telemetry.monotonic()
                    for worker in [
                        w for w in busy if now - w.started > group_deadline
                    ]:
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
                    *self._execute_group_resilient(
                        plan, gi, clean, batches, n,
                        max_retries=max_retries,
                        recovery=recovery,
                        start_attempt=attempts.get(gi, 0),
                    )
                )
        return segment_work

    def _replay(self, start: int, activation: np.ndarray) -> Tuple[np.ndarray, int]:
        segments = self._segments
        for k in range(start, len(segments)):
            activation = segments[k].forward(activation)
        return activation, len(segments) - start

    def _run_group(
        self,
        plan: EvalPlan,
        group_idx: int,
        clean: PrefixCache,
        batches: list,
        n: int,
    ) -> Tuple[List[Tuple[int, float]], int]:
        """All evaluations of one anchor group ``(i, b_m)``.

        The diagonal replay doubles as the construction pass of the
        group's perturbed-suffix cache: activations entering each partner
        segment (with ``(i, b_m)`` applied) are checkpointed, so every
        pair evaluation replays only from its partner's segment.
        Returns ``((plan_index, loss), ...)`` plus the number of
        segment-forwards spent.
        """
        g = plan.groups[group_idx]
        bits = plan.bits
        segments = self._segments
        nseg = plan.num_segments
        out: List[Tuple[int, float]] = []
        work = 0
        clean_work0 = clean.recomputed_segments

        group_freq = Counter(
            p.start_segment for p in g.pairs if p.start_segment > g.segment
        )
        group_cache = PrefixCache(
            segments,
            select_cuts(group_freq, self._active_cache_budget) | {g.segment},
            max_bytes=self._active_cache_bytes,
        )

        with telemetry.span("sweep.group", i=g.i), self.table.perturbed(
            (g.i, bits[g.m])
        ):
            # Diagonal evaluation + perturbed-suffix checkpointing.
            with telemetry.span("sweep.diag", i=g.i):
                total = 0.0
                for b, (xb, yb) in enumerate(batches):
                    a = clean.activation(b, g.segment)
                    for k in range(g.segment, nseg):
                        group_cache.put(b, k, a)
                        a = segments[k].forward(a)
                        work += 1
                    total += self.criterion.forward(a, yb) * len(xb)
                out.append((g.diag.index, self._check_finite(total / n)))
            _FORWARD_EVALS.add()

            for p in g.pairs:
                with telemetry.span("sweep.pair", i=p.i, j=p.j):
                    with self.table.perturbed((p.j, bits[p.n])):
                        total = 0.0
                        for b, (xb, yb) in enumerate(batches):
                            if p.start_segment >= g.segment:
                                a = group_cache.activation(b, p.start_segment)
                            else:
                                # Partner sits before the anchor segment (layer
                                # enumeration not in forward order): both
                                # perturbations are applied, replay from clean.
                                a = clean.activation(b, p.start_segment)
                            a, replayed = self._replay(p.start_segment, a)
                            work += replayed
                            total += self.criterion.forward(a, yb) * len(xb)
                        out.append((p.index, self._check_finite(total / n)))
                _FORWARD_EVALS.add()

        if g.mirror is not None:
            with telemetry.span("sweep.mirror", i=g.i), self.table.mirrored(
                g.i, bits[g.m]
            ):
                total = 0.0
                for b, (xb, yb) in enumerate(batches):
                    a = clean.activation(b, g.segment)
                    a, replayed = self._replay(g.segment, a)
                    work += replayed
                    total += self.criterion.forward(a, yb) * len(xb)
                out.append((g.mirror.index, self._check_finite(total / n)))
            _FORWARD_EVALS.add()

        work += clean.recomputed_segments - clean_work0
        work += group_cache.recomputed_segments
        _SEGMENT_FORWARDS.add(work)
        return out, work

    def _execute_group(
        self,
        plan: EvalPlan,
        group_idx: int,
        clean: PrefixCache,
        batches: list,
        n: int,
    ) -> Tuple[List[Tuple[int, float]], int, Optional[Dict[str, int]]]:
        """Route one group to the config-batched or sequential executor.

        This is also the fault-injection point for sweep faults: it runs
        identically in supervised workers and in serial execution, and it
        sees the (group, attempt) pair the schedule is keyed by.
        """
        fault = self._active_fault_plan
        if fault is not None:
            if fault.crash_now(group_idx, self._fault_attempt):
                if _faults.in_worker():
                    # Die the way a real worker does (OOM kill, signal):
                    # no cleanup, no reply — the supervisor sees EOF.
                    os._exit(_faults.FAULT_EXIT_CODE)
                raise InjectedWorkerCrash(
                    f"injected worker crash at group {group_idx} "
                    f"(attempt {self._fault_attempt})"
                )
            if fault.nonfinite_now(group_idx, self._fault_attempt):
                self._poison_next_loss = True
        if self._active_eval_batch_k > 1 and plan.groups[group_idx].pairs:
            return self._run_group_batched(plan, group_idx, clean, batches, n)
        out, work = self._run_group(plan, group_idx, clean, batches, n)
        return out, work, None

    @hot_path
    def _run_group_batched(
        self,
        plan: EvalPlan,
        group_idx: int,
        clean: PrefixCache,
        batches: list,
        n: int,
    ) -> Tuple[List[Tuple[int, float]], int, Dict[str, int]]:
        """Config-batched variant of :meth:`_run_group`.

        The diagonal replay is unchanged (it is a single evaluation and it
        builds the perturbed-suffix cache every chunk reads from); the pair
        evaluations are coalesced into waste-bounded :class:`BatchChunk`s
        and each chunk replays its suffix **once** with all member
        configurations stacked on the candidate axis.  Losses land under
        the same plan indices, so reassembly, checkpointing, and resume are
        oblivious to the batching.
        """
        g = plan.groups[group_idx]
        bits = plan.bits
        segments = self._segments
        nseg = plan.num_segments
        out: List[Tuple[int, float]] = []
        work = 0
        clean_work0 = clean.recomputed_segments
        stats = {"evals": 0, "chunks": 0, "width_max": 0, "extra_flops": 0}

        chunks = build_batch_chunks(
            g.pairs,
            nseg,
            self._active_eval_batch_k,
            waste_factor=self._active_waste_factor,
        )
        group_freq = Counter(c.cut for c in chunks if c.cut > g.segment)
        group_cache = PrefixCache(
            segments,
            select_cuts(group_freq, self._active_cache_budget) | {g.segment},
            max_bytes=self._active_cache_bytes,
        )

        with telemetry.span("sweep.group", i=g.i), self.table.perturbed(
            (g.i, bits[g.m])
        ):
            # Diagonal evaluation + perturbed-suffix checkpointing.
            with telemetry.span("sweep.diag", i=g.i):
                total = 0.0
                for b, (xb, yb) in enumerate(batches):
                    a = clean.activation(b, g.segment)
                    for k in range(g.segment, nseg):
                        group_cache.put(b, k, a)
                        a = segments[k].forward(a)
                        work += 1
                    total += self.criterion.forward(a, yb) * len(xb)
                out.append((g.diag.index, self._check_finite(total / n)))
            _FORWARD_EVALS.add()

            for chunk in chunks:
                with telemetry.span(
                    "sweep.chunk", i=g.i, width=chunk.width
                ):
                    results, replayed = self._run_chunk(
                        chunk, g, bits, clean, group_cache, batches, n
                    )
                work += replayed
                out.extend(results)
                stats["evals"] += chunk.width
                stats["chunks"] += 1
                stats["width_max"] = max(stats["width_max"], chunk.width)
                stats["extra_flops"] += (
                    (chunk.width - 1) * (nseg - chunk.cut) * len(batches)
                )

        if g.mirror is not None:
            with telemetry.span("sweep.mirror", i=g.i), self.table.mirrored(
                g.i, bits[g.m]
            ):
                total = 0.0
                for b, (xb, yb) in enumerate(batches):
                    a = clean.activation(b, g.segment)
                    a, replayed = self._replay(g.segment, a)
                    work += replayed
                    total += self.criterion.forward(a, yb) * len(xb)
                out.append((g.mirror.index, self._check_finite(total / n)))
            _FORWARD_EVALS.add()

        work += clean.recomputed_segments - clean_work0
        work += group_cache.recomputed_segments
        _SEGMENT_FORWARDS.add(work)
        return out, work, stats

    @hot_path
    def _run_chunk(
        self,
        chunk: BatchChunk,
        g: GroupPlan,
        bits: Tuple[int, ...],
        clean: PrefixCache,
        group_cache: PrefixCache,
        batches: list,
        n: int,
    ) -> Tuple[List[Tuple[int, float]], int]:
        """One stacked suffix replay evaluating every spec in ``chunk``.

        Runs inside the group's anchor context (``(i, b_m)`` applied
        globally).  Candidate ``k`` overlays its partner layer ``j_k`` with
        ``Q(w, b_{n_k})``; every other overlaid layer shows candidate ``k``
        its current in-context weight, so each candidate row computes
        exactly the sequential pair evaluation it replaces.  When the chunk
        cut sits before the anchor's segment the replay starts from the
        clean cache and re-applies the anchor on the way (same invariant
        as the sequential partner-before-anchor path).
        """
        segments = self._segments
        nseg = len(segments)
        width = chunk.width
        cut = chunk.cut
        # Fetch activation sources before overlays go on: a cache miss
        # recomputes with plain forwards, which must not see folded batches.
        source = group_cache if cut >= g.segment else clean
        acts = [source.activation(b, cut) for b in range(len(batches))]
        # Sparse overlays: at each partner layer, every candidate but the
        # spec's own row sees the current in-context weight, so the layer
        # runs one tall base GEMM plus a per-row slice fixup instead of
        # `width` sliced GEMMs.
        rows_by_layer: Dict[int, Dict[int, np.ndarray]] = {}
        for k, spec in enumerate(chunk.specs):
            rows_by_layer.setdefault(spec.j, {})[k] = self.table.quantized(
                spec.j, bits[spec.n]
            )
        overrides = {
            j: BatchedWeightOverlay(width, self.table.layers[j].weight.data, rows)
            for j, rows in rows_by_layer.items()
        }
        totals = [0.0] * width
        with self.table.batched(overrides):
            for b, (xb, yb) in enumerate(batches):
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
        results = [
            (spec.index, self._check_finite(totals[k] / n))
            for k, spec in enumerate(chunk.specs)
        ]
        # One stacked dispatch per (segment, batch), whatever the width.
        return results, (nseg - cut) * len(batches)


class ShardSession:
    """One process's standing sweep state for the sharded protocol.

    Both sides of :mod:`repro.distrib` open one: the coordinator to run
    the clean prefix pass (base loss), fingerprint the job, and assemble
    the merged losses; each spawned worker to execute its claimed shards'
    plan groups.  Because plan construction, the prefix pass, and group
    execution are deterministic functions of (model weights, data,
    knobs), every session over the same job measures bitwise-identical
    losses — which is what makes shard merges idempotent and the final
    matrix bitwise-equal to the single-process sweep.

    The session requires the segmented strategy and pins the engine's
    active execution knobs for the lifetime of the object; do not
    interleave with other ``measure`` calls on the same engine.  Its
    forwards, the prefix pass and every group, run in no-grad mode.
    """

    def __init__(
        self,
        engine: SensitivityEngine,
        x: np.ndarray,
        y: np.ndarray,
        *,
        mode: str,
        blocks: Optional[Sequence[str]] = None,
        batch_size: int = 256,
        symmetric_diag: bool = False,
        eval_batch_k: int = 1,
        cache_budget: Optional[int] = DEFAULT_CACHE_BUDGET,
        cache_bytes: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.engine = engine
        self.x = x
        self.y = y
        self.batch_size = int(batch_size)
        self.mode = mode
        if engine._resolve_strategy("segmented") != "segmented":
            raise RuntimeError("shard sessions require the segmented strategy")
        pair_list = build_pair_list(engine.table.layers, mode, blocks)
        bits = engine.table.config.bits
        segments = engine._segments
        layer_segments = engine._layer_segments
        self.plan = build_eval_plan(
            len(engine.table.layers), bits, pair_list, layer_segments,
            len(segments), symmetric_diag, mode,
        )
        engine._active_cache_budget = cache_budget
        engine._active_cache_bytes = cache_bytes
        engine._active_eval_batch_k = max(1, int(eval_batch_k))
        engine._active_waste_factor = auto_waste_factor(x, batch_size)
        engine._active_fault_plan = fault_plan
        engine._fault_attempt = 0
        engine._poison_next_loss = False

        engine.model.eval()
        self.n = len(x)
        self.batches = [
            (x[s : s + batch_size], y[s : s + batch_size])
            for s in range(0, self.n, batch_size)
        ]
        clean_freq: Counter = Counter()
        for g in self.plan.groups:
            clean_freq[g.segment] += 2 if g.mirror is not None else 1
            for p in g.pairs:
                if p.start_segment < g.segment:
                    clean_freq[p.start_segment] += 1
        self.clean = PrefixCache(
            segments,
            select_cuts(clean_freq, cache_budget) | {0},
            max_bytes=cache_bytes,
        )
        with telemetry.span("sweep.prefix"), engine._no_grad():
            base_total = 0.0
            for b, (xb, yb) in enumerate(self.batches):
                a = xb
                for k, seg in enumerate(segments):
                    self.clean.put(b, k, a)
                    a = seg.forward(a)
                base_total += engine.criterion.forward(a, yb) * len(xb)
            self.base_loss = engine._check_finite(base_total / self.n)
        _FORWARD_EVALS.add()
        _SEGMENT_FORWARDS.add(len(segments) * len(self.batches))

    def fingerprint(self) -> str:
        """Plan + data + weights + batching hash every shard part must match."""
        return self.plan.fingerprint(
            self.engine._data_fingerprint(self.x, self.y, self.batch_size)
        )

    def group_indices(self, group_idx: int) -> List[int]:
        """Plan-spec indices measured by plan group ``group_idx``."""
        return [s.index for s in self.plan.groups[group_idx].specs()]

    def run_group(self, group_idx: int) -> List[Tuple[int, float]]:
        """Execute one plan group, returning ``(plan_index, loss)`` pairs."""
        with self.engine._no_grad():
            results, _, _ = self.engine._execute_group(
                self.plan, group_idx, self.clean, self.batches, self.n
            )
        return results

    def run_groups(
        self,
        group_indices: Sequence[int],
        heartbeat: Optional[Callable[[], None]] = None,
    ) -> Dict[int, float]:
        """Execute several plan groups, invoking ``heartbeat`` after each."""
        losses: Dict[int, float] = {}
        for gi in group_indices:
            for index, loss in self.run_group(gi):
                losses[index] = loss
            if heartbeat is not None:
                heartbeat()
        return losses

    def assemble(
        self, losses: Dict[int, float], fault_plan: Optional[FaultPlan] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble ``(matrix, single)`` from complete plan-indexed losses."""
        missing = [
            s.index for s in self.plan.specs() if s.index not in losses
        ]
        if missing:
            raise ValueError(
                f"cannot assemble: {len(missing)} plan indices unmeasured "
                f"(first missing: {missing[:5]})"
            )
        return assemble_from_losses(self.plan, losses, self.base_loss, fault_plan)
