"""Tests for the sharded work-queue protocol (``repro.distrib``).

Covers the filesystem primitives (atomic claims, heartbeats, first-wins
completion markers), the deterministic plan partition, part validation
and idempotent merge, in-process shard-session equivalence with the
single-process sweep, and one spawned-worker end-to-end run with an
injected worker loss.  The full four-fault matrix across every zoo model
runs in ``scripts/chaos_smoke.py`` (``make chaos-smoke``).
"""

import json
import shutil

import numpy as np
import pytest

from repro import telemetry
from repro.core import SensitivityConfig
from repro.core.sensitivity import SensitivityEngine, SweepSession
from repro.core.sweep import (
    CheckpointMergeConflict,
    SweepCheckpoint,
    merge_loss_maps,
)
from repro.distrib import (
    ShardProtocolError,
    Spool,
    claim_next,
    heartbeat,
    lease_age,
    lease_expired,
    measure_sharded,
    merge_checkpoints,
    partition_groups,
    publish_done,
    revoke,
    run_worker,
    validate_part,
)
from repro.models.registry import build_model, quantizable_layers
from repro.quant import QuantConfig, QuantizedWeightTable
from repro.quant.export import file_sha256
from repro.robustness import FaultPlan, FaultSpec

MODEL = "resnet_s20"


def _data(n=8, seed=23):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3, 32, 32)).astype(np.float32)
    y = rng.integers(0, 10, size=n)
    return x, y


def _engine():
    model = build_model(MODEL, num_classes=10)
    layers = quantizable_layers(model, MODEL)
    table = QuantizedWeightTable(layers, QuantConfig(bits=(2, 4, 8)))
    return SensitivityEngine(model, table)


_BATCH8 = SensitivityConfig(batch_size=8)


def _model_spec():
    return {
        "import": "repro.models.registry:build_model",
        "kwargs": {"name": MODEL, "num_classes": 10},
    }


# ---------------------------------------------------------------------------
# Lease-file primitives
# ---------------------------------------------------------------------------


class TestLeasePrimitives:
    @pytest.fixture()
    def spool(self, tmp_path):
        s = Spool(tmp_path / "spool")
        s.create()
        return s

    def test_claims_are_exclusive_and_ordered(self, spool):
        spool.issue_ticket(1, 0)
        spool.issue_ticket(0, 0)
        first = claim_next(spool, "wA")
        second = claim_next(spool, "wB")
        assert first is not None and second is not None
        assert (first[0], first[1]) == (0, 0)  # lowest ticket first
        assert (second[0], second[1]) == (1, 0)
        assert claim_next(spool, "wC") is None  # queue drained
        assert first[2].exists() and second[2].exists()
        assert not list(spool.todo.glob("shard-*.json"))

    def test_claim_restarts_the_lease_clock(self, spool):
        import os

        from repro.distrib.spool import wall_now

        spool.issue_ticket(0, 0)
        ticket = spool.ticket_path(0, 0)
        old = wall_now() - 1000.0
        os.utime(ticket, (old, old))  # ticket aged while queued
        _, _, lease = claim_next(spool, "wA")
        # os.replace preserves mtime; the claim must re-stamp it or a
        # slow pickup would look like a dead worker immediately.
        assert lease_age(lease) < 5.0

    def test_heartbeat_refreshes_and_detects_revocation(self, spool):
        import os

        from repro.distrib.spool import wall_now

        spool.issue_ticket(2, 1)
        _, _, lease = claim_next(spool, "wA")
        old = wall_now() - 300.0
        os.utime(lease, (old, old))
        assert lease_age(lease) > 200.0
        assert heartbeat(lease) is True
        assert lease_age(lease) < 5.0
        assert revoke(lease) is True
        assert revoke(lease) is False  # already gone
        assert heartbeat(lease) is False  # revoked under the worker
        assert lease_age(lease) is None

    def test_publish_done_first_wins(self, spool):
        part_a = spool.part_path(3, 0, "wA")
        part_b = spool.part_path(3, 1, "wB")
        assert publish_done(spool, 3, 0, "wA", part_a, "a" * 64) is True
        assert publish_done(spool, 3, 1, "wB", part_b, "b" * 64) is False
        doc = json.loads(spool.done_path(3).read_text())
        assert doc["worker"] == "wA"
        assert doc["generation"] == 0
        assert doc["sha256"] == "a" * 64

    def test_parse_stem_roundtrip(self, spool):
        lease = spool.lease_path(12, 3, "w7")
        assert Spool.parse_stem(lease.name) == (12, 3)
        ticket = spool.ticket_path(4, 0)
        assert Spool.parse_stem(ticket.name) == (4, 0)

    def test_lease_expiry_boundary(self):
        # The reaper's one rule: strictly older than the TTL.  A lease at
        # *exactly* lease_ttl elapsed is still live — a worker that
        # heartbeats on the TTL cadence presents age == ttl to a reaper
        # sharing its clock, and revoke-at->= would race that punctual
        # heartbeat into a double claim of the re-queued ticket.
        assert lease_expired(None, 30.0) is False  # vanished: revoked or done
        assert lease_expired(0.0, 30.0) is False
        assert lease_expired(29.999, 30.0) is False
        assert lease_expired(30.0, 30.0) is False  # exactly TTL: live
        assert lease_expired(30.0 + 1e-9, 30.0) is True
        assert lease_expired(1000.0, 30.0) is True

    def test_reap_then_heartbeat_cannot_double_claim(self, spool):
        import os

        from repro.distrib.spool import wall_now

        spool.issue_ticket(0, 0)
        shard, generation, lease = claim_next(spool, "wA")
        # Coordinator side: the lease ages past the TTL, the reaper
        # confirms expiry with the shared rule, revokes, and re-issues.
        old = wall_now() - 100.0
        os.utime(lease, (old, old))
        assert lease_expired(lease_age(lease), 30.0) is True
        assert revoke(lease) is True
        spool.issue_ticket(shard, generation + 1)
        # Worker side: wA's heartbeat races in just after the reap.  It
        # must report revocation and must NOT resurrect the lease file —
        # a resurrected lease plus the re-issued ticket would let the
        # same shard be claimed twice.
        assert heartbeat(lease) is False
        assert not lease.exists()
        # Exactly one successor claims the re-issued ticket.
        second = claim_next(spool, "wB")
        assert second is not None
        assert (second[0], second[1]) == (shard, generation + 1)
        assert claim_next(spool, "wA") is None  # nothing left to claim
        assert len(list(spool.leases.glob("*.lease"))) == 1


# ---------------------------------------------------------------------------
# Idempotent merge (plan-index keyed)
# ---------------------------------------------------------------------------


class TestMergeLossMaps:
    def test_duplicates_collapse_by_bitwise_identity(self):
        telemetry.enable()
        try:
            before = telemetry.counter("checkpoint.merge_duplicates").value
            merged = merge_loss_maps(
                [
                    ("shard-0", {0: 1.25, 1: 2.5}),
                    ("thief", {1: 2.5, 2: 0.75}),  # stolen shard re-run
                ]
            )
            dups = telemetry.counter("checkpoint.merge_duplicates").value
        finally:
            telemetry.disable()
        assert merged == {0: 1.25, 1: 2.5, 2: 0.75}
        assert dups == before + 1

    def test_conflict_attributes_both_sources(self):
        with pytest.raises(CheckpointMergeConflict) as info:
            merge_loss_maps(
                [("wA.part", {7: 1.0}), ("wB.part", {7: 1.0000001})]
            )
        err = info.value
        assert err.index == 7
        assert err.sources == ("wA.part", "wB.part")
        assert err.values == (1.0, 1.0000001)
        assert "wA.part" in str(err) and "wB.part" in str(err)

    def test_merge_order_does_not_matter(self):
        parts = [("a", {0: 1.0, 2: 3.0}), ("b", {1: 2.0}), ("c", {2: 3.0})]
        assert merge_loss_maps(parts) == merge_loss_maps(parts[::-1])

    def test_three_sources_conflict_attributes_the_conflicting_pair(self):
        # Three sources, two of which conflict on index 5.  The error must
        # attribute the *owning* source (the first to merge the index) and
        # the conflicting one — not whichever source merged last, and not
        # the innocent bystander that only agreed.
        with pytest.raises(CheckpointMergeConflict) as info:
            merge_loss_maps(
                [
                    ("shard-0.wA", {5: 2.0, 6: 1.0}),
                    ("shard-1.wB", {5: 2.0, 7: 3.0}),  # agrees: idempotent dup
                    ("shard-0.wC", {5: 2.5}),  # disagrees: torn re-run
                ]
            )
        err = info.value
        assert err.index == 5
        assert err.sources == ("shard-0.wA", "shard-0.wC")
        assert err.values == (2.0, 2.5)
        # The agreeing bystander is not blamed.
        assert "shard-1.wB" not in str(err)
        assert "shard-0.wA" in str(err) and "shard-0.wC" in str(err)

    def test_three_sources_conflict_on_later_owner(self):
        # The owner of the conflicting index need not come from the first
        # source overall — attribution follows the per-index owner map.
        with pytest.raises(CheckpointMergeConflict) as info:
            merge_loss_maps(
                [
                    ("p0", {0: 1.0}),
                    ("p1", {9: 4.0}),
                    ("p2", {9: 4.5, 0: 1.0}),
                ]
            )
        err = info.value
        assert err.index == 9
        assert err.sources == ("p1", "p2")
        assert err.values == (4.0, 4.5)


# ---------------------------------------------------------------------------
# Part validation
# ---------------------------------------------------------------------------


class TestValidatePart:
    FP = "plan-fingerprint-1"

    def _write(self, path, losses, fingerprint=None):
        part = SweepCheckpoint(
            str(path), fingerprint or self.FP, every=len(losses) + 1
        )
        for i, v in sorted(losses.items()):
            part.record(int(i), float(v))
        part.flush()
        return path

    def test_valid_part_roundtrips(self, tmp_path):
        p = self._write(tmp_path / "p.npz", {0: 1.0, 1: 2.0})
        losses, reason = validate_part(
            p, self.FP, {0, 1}, sha256=file_sha256(p)
        )
        assert reason == "ok"
        assert losses == {0: 1.0, 1: 2.0}

    def test_missing_file_rejected(self, tmp_path):
        losses, reason = validate_part(tmp_path / "nope.npz", self.FP, {0})
        assert losses is None and "missing" in reason

    def test_sha_mismatch_rejected(self, tmp_path):
        p = self._write(tmp_path / "p.npz", {0: 1.0})
        losses, reason = validate_part(p, self.FP, {0}, sha256="0" * 64)
        assert losses is None and "sha256 mismatch" in reason

    def test_torn_payload_rejected_by_published_sha(self, tmp_path):
        # The worker hashes before the (injected) tear, so the marker's
        # sha exposes the damage even when the zip happens to parse.
        p = self._write(tmp_path / "p.npz", {0: 1.0, 1: 2.0})
        sha = file_sha256(p)
        size = p.stat().st_size
        with open(p, "r+b") as fh:
            fh.truncate(size // 2)
        losses, reason = validate_part(p, self.FP, {0, 1}, sha256=sha)
        assert losses is None and "sha256 mismatch" in reason

    def test_foreign_fingerprint_rejected(self, tmp_path):
        p = self._write(tmp_path / "p.npz", {0: 1.0}, fingerprint="other")
        losses, reason = validate_part(p, self.FP, {0})
        assert losses is None and "foreign" in reason

    def test_coverage_mismatch_rejected(self, tmp_path):
        p = self._write(tmp_path / "p.npz", {0: 1.0, 5: 2.0})
        losses, reason = validate_part(p, self.FP, {0, 1})
        assert losses is None and "coverage mismatch" in reason

    def test_merge_checkpoints_conflict_is_typed(self, tmp_path):
        a = self._write(tmp_path / "a.npz", {0: 1.0})
        b = self._write(tmp_path / "b.npz", {0: 2.0})
        la, _ = validate_part(a, self.FP, {0}, sha256=file_sha256(a))
        lb, _ = validate_part(b, self.FP, {0}, sha256=file_sha256(b))
        with pytest.raises(CheckpointMergeConflict):
            merge_checkpoints([("a.npz", la), ("b.npz", lb)])


# ---------------------------------------------------------------------------
# Plan partition + in-process session equivalence
# ---------------------------------------------------------------------------


class TestShardSessionEquivalence:
    def test_partition_covers_groups_exactly_once(self):
        x, y = _data()
        session = SweepSession(_engine(), x, y, _BATCH8, mode="diagonal")
        n_groups = len(session.plan.groups)
        for shards in (1, 2, 3, n_groups + 5):
            groups = partition_groups(session.plan, shards)
            assert len(groups) == min(shards, n_groups)
            flat = [g for shard in groups for g in shard]
            assert sorted(flat) == list(range(n_groups))
            # Deterministic: same partition on every host.
            assert groups == partition_groups(session.plan, shards)
        with pytest.raises(ValueError):
            partition_groups(session.plan, 0)

    def test_sharded_assembly_bitwise_equals_single_process(self):
        x, y = _data()
        reference = _engine().measure(x, y, _BATCH8, mode="diagonal")

        session = SweepSession(_engine(), x, y, _BATCH8, mode="diagonal")
        parts = []
        for si, gis in enumerate(partition_groups(session.plan, 3)):
            parts.append((f"shard-{si}", session.run_groups(gis)))
        # A stolen shard re-measured by a second worker merges idempotently.
        parts.append(("thief", dict(parts[0][1])))
        merged = merge_checkpoints(parts)
        matrix, single = session.assemble(merged)

        assert np.array_equal(matrix, reference.matrix)
        assert np.array_equal(single, reference.single_losses)
        assert session.base_loss == reference.base_loss

    def test_assemble_rejects_incomplete_losses(self):
        x, y = _data()
        session = SweepSession(_engine(), x, y, _BATCH8, mode="diagonal")
        groups = partition_groups(session.plan, 2)
        merged = session.run_groups(groups[0])  # shard 1 never measured
        with pytest.raises(Exception):
            session.assemble(merged)


# ---------------------------------------------------------------------------
# Spawned-worker end-to-end (one worker-loss fault)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sharded_run(tmp_path_factory):
    """One sharded sweep with a worker killed on shard 0's first lease."""
    x, y = _data()
    reference = _engine().measure(x, y, _BATCH8, mode="diagonal")
    spool = tmp_path_factory.mktemp("distrib") / "spool"
    plan = FaultPlan(seed=7, faults=(FaultSpec("shard_loss", at=0, times=1),))
    result = measure_sharded(
        _engine(),
        x,
        y,
        _BATCH8.with_overrides(
            shards=3,
            num_workers=2,
            lease_ttl=1.0,
            spool_dir=str(spool),
            model_spec=_model_spec(),
            fault_plan=plan,
        ),
        mode="diagonal",
    )
    return reference, result, spool


class TestSpawnedWorkers:
    def test_bitwise_identical_despite_worker_loss(self, sharded_run):
        reference, result, _spool = sharded_run
        assert np.array_equal(result.matrix, reference.matrix)
        assert np.array_equal(result.single_losses, reference.single_losses)
        assert result.base_loss == reference.base_loss

    def test_recovery_attributed_in_extras(self, sharded_run):
        _reference, result, _spool = sharded_run
        e = result.extras
        assert e["strategy"] == "distributed"
        assert e["shards"] == 3
        # Shard 0's loss is recovered by whichever fires first: the
        # reaper revoking the aged lease and re-issuing the ticket, or a
        # drained worker stealing the silent shard.  Either way the
        # recovery is attributed, and the dead worker is replaced.
        assert e["leases_expired"] + e["shards_stolen"] >= 1
        assert e["shard_retries"] + e["shards_stolen"] >= 1
        assert e["workers_respawned"] >= 1  # fleet refilled
        assert e["merged_parts"] >= 3

    def test_spool_records_the_protocol_state(self, sharded_run):
        _reference, _result, spool_dir = sharded_run
        spool = Spool(spool_dir)
        job = spool.read_job()
        assert job["model"]["import"] == "repro.models.registry:build_model"
        assert sorted(int(k) for k in job["shards"]) == [0, 1, 2]
        assert spool.stopped()  # STOP sentinel published at drain
        done = sorted(p.name for p in spool.done.glob("shard-*.json"))
        assert len(done) == 3  # exactly one marker per shard, ever
        parts = list(spool.parts.glob("shard-*.npz"))
        assert len(parts) >= 3
        for part in parts:  # every surviving part carries the fingerprint
            losses, reason = validate_part(
                part,
                job["fingerprint"],
                set(
                    SweepCheckpoint(str(part), job["fingerprint"])
                    .load()
                    .keys()
                ),
            )
            assert reason == "ok", reason

    def test_worker_refuses_fingerprint_mismatch(self, sharded_run, tmp_path):
        # A drifted job spec (different data/weights/plan) must kill the
        # worker before it can poison the merge with foreign losses.
        _reference, _result, spool_dir = sharded_run
        clone = tmp_path / "drifted"
        shutil.copytree(spool_dir, clone)
        spool = Spool(clone)
        job = spool.read_job()
        job["fingerprint"] = "0" * 64
        spool.write_job(job)
        assert run_worker(clone, "wX") == 1


class TestRetryExhaustion:
    def test_shard_out_of_retries_raises_protocol_error(self, tmp_path):
        x, y = _data()
        plan = FaultPlan(
            seed=3, faults=(FaultSpec("shard_loss", at=0, times=9),)
        )
        with pytest.raises(ShardProtocolError) as info:
            measure_sharded(
                _engine(),
                x,
                y,
                _BATCH8.with_overrides(
                    shards=2,
                    num_workers=1,
                    lease_ttl=0.5,
                    max_retries=0,
                    spool_dir=str(tmp_path / "spool"),
                    model_spec=_model_spec(),
                    fault_plan=plan,
                ),
                mode="diagonal",
            )
        assert info.value.shard == 0
