"""Sweep planning, prefix-activation caching, and resume for Algorithm 1.

The naive sensitivity sweep re-runs every layer of the network for every
perturbation, although perturbing layer ``i`` leaves all activations before
``i`` bitwise unchanged.  This module holds the machinery the segmented
engine (``repro.core.sensitivity``) uses to exploit that locality:

- :func:`build_eval_plan` — an explicit, deterministic schedule of every
  loss evaluation, grouped by anchor perturbation ``(i, b_m)`` and ordered
  by descending start segment, with a per-eval earliest-perturbed-segment
  and replay-cost estimate;
- :class:`PrefixCache` — per-batch activation checkpoints at the segment
  cuts replays start from;
- :class:`SweepCheckpoint` — per-group persistence of partial losses so a
  killed sweep resumes instead of restarting.

Cost model (see ``docs/algorithm.md`` §3a): with ``K`` segments, the naive
engine pays ``K`` segment-forwards per evaluation.  The segmented engine
pays the clean prefix once per batch, one replay from ``seg(i)`` per group
``(i, b_m)`` (which doubles as the Eq. 12 diagonal evaluation while
checkpointing the perturbed suffix), and only the suffix from ``seg(j)``
for every pair ``(i, j, b_m, b_n)``.  Late-layer pairs become near-free.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..atomicio import atomic_write_npz
from ..nn.module import Activation, ResidualState

__all__ = [
    "EvalSpec",
    "GroupPlan",
    "EvalPlan",
    "build_eval_plan",
    "hot_path",
    "PrefixCache",
    "SweepCheckpoint",
]


def hot_path(fn):
    """Mark a sweep-hot function for the telemetry lint.

    ``scripts/check_telemetry_lint.py`` rejects Python-level GEMM dispatch
    loops (``@`` / ``np.matmul`` / ``einsum`` / ``dot`` inside ``for`` or
    ``while`` bodies) in functions carrying this marker: a hot sweep loop
    hands whole batches to the layer forwards, whose kernels run the
    GEMMs, and never multiplies per iteration itself.
    """
    fn.__sweep_hot__ = True
    return fn


# ---------------------------------------------------------------------------
# Eval plan
# ---------------------------------------------------------------------------

#: Plan specs the determinism audit re-measures.  A fault that hits a
#: fraction ``f`` of replays escapes an audit of this many specs with
#: probability ``(1 - f) ** 16``: 19% at ``f`` = 0.1, 3% at ``f`` = 0.2.
_AUDIT_SPECS = 16


@dataclass(frozen=True)
class EvalSpec:
    """One loss evaluation of the sweep.

    ``index`` is the stable position in plan order — the key under which
    the measured loss is checkpointed and reassembled, which makes the
    resulting matrix independent of execution order and worker count.
    """

    index: int
    kind: str  # "diag" | "pair"
    i: int  # anchor layer
    m: int  # anchor bit-choice index
    j: int = -1  # partner layer (pairs only)
    n: int = -1  # partner bit-choice index (pairs only)
    start_segment: int = 0  # earliest segment the replay must re-run
    cost: int = 0  # segments replayed per batch


@dataclass(frozen=True)
class GroupPlan:
    """All evaluations sharing the anchor perturbation ``(i, b_m)``.

    The group's diagonal evaluation replays from ``segment`` and
    checkpoints the perturbed suffix on the way; every pair evaluation
    then replays only from its partner's segment.
    """

    i: int
    m: int
    segment: int
    diag: EvalSpec
    pairs: Tuple[EvalSpec, ...]

    def specs(self) -> Iterator[EvalSpec]:
        yield self.diag
        yield from self.pairs


@dataclass(frozen=True)
class EvalPlan:
    """Deterministic schedule for one sensitivity sweep."""

    groups: Tuple[GroupPlan, ...]
    num_segments: int
    num_layers: int
    layer_segments: Tuple[int, ...]
    bits: Tuple[int, ...]
    mode: str

    def specs(self) -> Iterator[EvalSpec]:
        for group in self.groups:
            yield from group.specs()

    @property
    def num_evals(self) -> int:
        """Loss evaluations in the plan (the base evaluation not included)."""
        return sum(1 + len(g.pairs) for g in self.groups)

    def audit_specs(self) -> Tuple[int, ...]:
        """Plan indices the determinism audit re-measures, sorted.

        ``min(16, num_evals)`` indices drawn with a fixed seed: they depend
        on the plan alone, so every run of it — any worker count, any
        resume — audits the same specs.
        """
        count = min(_AUDIT_SPECS, self.num_evals)
        drawn = np.random.default_rng(0).choice(
            self.num_evals, size=count, replace=False
        )
        return tuple(sorted(int(i) for i in drawn))

    @property
    def planned_segment_cost(self) -> int:
        """Segment-forwards per batch the plan replays (group setups incl.)."""
        return sum(spec.cost for spec in self.specs())

    @property
    def naive_segment_cost(self) -> int:
        """Segment-forwards per batch a full-forward-per-eval engine pays."""
        return self.num_evals * self.num_segments

    def fingerprint(self, extra: str = "") -> str:
        """Structural hash guarding checkpoint resume against plan drift.

        The model's segmentation is left out: a loss is bitwise the same
        from whichever cut its replay starts, so only the evaluations
        themselves, in plan order, must match.
        """
        payload = json.dumps(
            {
                "mode": self.mode,
                "bits": list(self.bits),
                "evals": [
                    (s.index, s.kind, s.i, s.m, s.j, s.n) for s in self.specs()
                ],
                "extra": extra,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def build_eval_plan(
    num_layers: int,
    bits: Sequence[int],
    pair_list: Sequence[Tuple[int, int]],
    layer_segments: Sequence[int],
    num_segments: int,
    mode: str,
) -> EvalPlan:
    """Schedule every evaluation of Algorithm 1 for segmented execution.

    Groups are ordered by descending start segment (then descending layer
    index): late-layer anchors come first, so their short suffixes drain
    quickly and a killed sweep has checkpointed the cheap evaluations
    before committing to the expensive early-layer ones.  Pair evaluations
    replay from the partner's segment — the anchor perturbation is already
    baked into the group's suffix checkpoints.
    """
    partners: Dict[int, List[int]] = defaultdict(list)
    for i, j in pair_list:
        partners[i].append(j)
    nb = len(bits)
    order = sorted(
        range(num_layers), key=lambda i: (layer_segments[i], i), reverse=True
    )
    groups: List[GroupPlan] = []
    index = 0
    for i in order:
        seg_i = layer_segments[i]
        for m in range(nb):
            diag = EvalSpec(
                index, "diag", i, m,
                start_segment=seg_i, cost=num_segments - seg_i,
            )
            index += 1
            pair_specs: List[EvalSpec] = []
            for j in sorted(partners.get(i, ())):
                seg_j = layer_segments[j]
                for n in range(nb):
                    pair_specs.append(
                        EvalSpec(
                            index, "pair", i, m, j, n,
                            start_segment=seg_j, cost=num_segments - seg_j,
                        )
                    )
                    index += 1
            groups.append(
                GroupPlan(
                    i=i, m=m, segment=seg_i,
                    diag=diag, pairs=tuple(pair_specs),
                )
            )
    return EvalPlan(
        groups=tuple(groups),
        num_segments=num_segments,
        num_layers=num_layers,
        layer_segments=tuple(layer_segments),
        bits=tuple(int(b) for b in bits),
        mode=mode,
    )


# ---------------------------------------------------------------------------
# Prefix-activation cache
# ---------------------------------------------------------------------------


_CACHE_HITS = telemetry.counter("sweep.prefix_cache_hits")

#: Why a resume checkpoint was rejected — one counter per cause, so a
#: fleet of "sweep restarted from scratch" reports can be split into
#: plan/data drift (expected) vs damaged files (needs attention).
_CKPT_FINGERPRINT = telemetry.counter("checkpoint.fingerprint_mismatch")
_CKPT_TRUNCATED = telemetry.counter("checkpoint.truncated")
_CKPT_CORRUPT = telemetry.counter("checkpoint.corrupt")


def _arrays(activation: Activation) -> Tuple[np.ndarray, ...]:
    """The arrays an activation holds: both fields of a residual state."""
    if isinstance(activation, ResidualState):
        return tuple(activation)
    return (activation,)


class PrefixCache:
    """Per-batch activation checkpoints at the cuts replays start from.

    ``put(batch, cut, a)`` keeps ``a`` when ``cut`` is one of
    ``kept_cuts``; ``activation(batch, cut)`` returns it, and a cut that
    was never stored is a ``KeyError``.  An activation is an array or,
    at a cut inside a residual block, a :class:`~repro.nn.ResidualState`.
    The session keeps exactly the cuts its plan replays from, which on
    the zoo models is a few MiB at most (17.75 MiB on resnet_s34 with 64
    samples).

    Every stored array is frozen (``flags.writeable = False``), both
    fields of a state included: many replays read one checkpoint, so a
    forward that wrote into its input would silently change every later
    replay from that cut.  The stored object itself is frozen, not a view
    of it, because it is also the array the caller passes on to the next
    segment.
    """

    def __init__(self, kept_cuts: Iterable[int]) -> None:
        self.kept = frozenset(kept_cuts)
        self._store: Dict[Tuple[int, int], Activation] = {}

    def put(self, batch: int, cut: int, activation: Activation) -> None:
        """Store a checkpoint if ``cut`` is within the kept set."""
        if cut in self.kept:
            for array in _arrays(activation):
                array.flags.writeable = False
            self._store[(batch, cut)] = activation

    def activation(self, batch: int, cut: int) -> Activation:
        stored = self._store[(batch, cut)]
        _CACHE_HITS.add()
        return stored

    @property
    def num_checkpoints(self) -> int:
        return len(self._store)

    @property
    def stored_bytes(self) -> int:
        """Bytes of the distinct arrays stored: a state's skip is the
        block-start checkpoint itself, so it counts once."""
        distinct = {
            id(array): array
            for activation in self._store.values()
            for array in _arrays(activation)
        }
        return sum(int(array.nbytes) for array in distinct.values())


# ---------------------------------------------------------------------------
# Resume checkpointing
# ---------------------------------------------------------------------------


class SweepCheckpoint:
    """Persistence of partial sweep losses for resume.

    Losses are stored as ``(index, loss)`` pairs keyed by the plan order,
    together with the plan fingerprint; a checkpoint written by a
    different plan (model, mode, data, batching...) is ignored rather
    than silently corrupting the matrix.  The sweep saves its whole loss
    table after every group it measures, because a group is the unit a
    resume restores.  Writes are atomic (tmp + rename), so a sweep killed
    mid-save still resumes.
    The parent directory is created when the checkpoint opens.
    """

    def __init__(self, path, fingerprint: str) -> None:
        self.path = str(path)
        self.fingerprint = fingerprint
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)

    def load(self) -> Dict[int, float]:
        """Losses from a prior run of the same plan ({} when none usable).

        Every rejection is attributed to a cause before the empty dict
        comes back — a fingerprint mismatch (plan/data/weights drifted; the
        file is fine but belongs to a different sweep), a truncated zip
        (cut short on disk), or in-archive corruption (parseable container, damaged payload) — so
        operators can tell expected drift from disk problems from the
        ``checkpoint.*`` counters alone.
        """
        if not os.path.exists(self.path):
            return {}
        try:
            # np.load opens a path itself and leaves that file open when
            # the archive fails to parse; a handle of our own always closes.
            with open(self.path, "rb") as fh:
                try:
                    blob = np.load(fh, allow_pickle=False)
                except zipfile.BadZipFile:
                    # Killed mid-write / truncated on disk: the zip
                    # directory at the end of the file is gone.
                    _CKPT_TRUNCATED.add()
                    return {}
                with blob:
                    if str(blob["fingerprint"][()]) != self.fingerprint:
                        _CKPT_FINGERPRINT.add()
                        return {}
                    indices = blob["indices"]
                    losses = blob["losses"]
        except (
            zipfile.BadZipFile, KeyError, ValueError, OSError, EOFError,
            zlib.error,
        ):
            # The container parses but a member is missing or damaged; a
            # member that fails its CRC-32 raises BadZipFile as it is read.
            _CKPT_CORRUPT.add()
            return {}
        except Exception:
            # Unanticipated decode failure: counted like any other
            # corruption — a checkpoint is an optimization, never a reason
            # to crash the resume (lint rule 4: the counter makes this
            # broad handler legal).
            _CKPT_CORRUPT.add()
            return {}
        return {int(i): float(v) for i, v in zip(indices, losses)}

    def save(self, losses: Mapping[int, float]) -> None:
        """Write ``losses`` as the checkpoint, replacing the previous one."""
        indices = np.asarray(sorted(losses), dtype=np.int64)
        values = np.asarray([losses[int(i)] for i in indices], dtype=np.float64)
        atomic_write_npz(
            self.path,
            {
                "indices": indices,
                "losses": values,
                "fingerprint": np.asarray(self.fingerprint),
            },
        )
