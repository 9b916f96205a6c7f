"""Tests for integer weight packing / deployment export."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.quant import (
    CorruptArtifactError,
    PackedTensor,
    export_assignment,
    load_packed,
    pack_tensor,
    quantize_weight,
    save_packed,
    unpack_tensor,
)

weights = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 12)),
    elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False),
)


class TestRoundTrip:
    @given(w=weights, bits=st.sampled_from([2, 3, 4, 6, 8]))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_roundtrip_equals_fake_quant(self, w, bits):
        packed = pack_tensor(w, bits, "symmetric")
        decoded = unpack_tensor(packed)
        expected = quantize_weight(w, bits, "symmetric")
        np.testing.assert_allclose(decoded, expected, rtol=1e-6, atol=1e-9)

    @given(w=weights, bits=st.sampled_from([2, 4, 6, 8]))
    @settings(max_examples=30, deadline=None)
    def test_affine_roundtrip_equals_fake_quant(self, w, bits):
        packed = pack_tensor(w, bits, "affine")
        decoded = unpack_tensor(packed)
        expected = quantize_weight(w, bits, "affine")
        np.testing.assert_allclose(decoded, expected, rtol=1e-6, atol=1e-9)

    def test_4d_conv_weight(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(8, 4, 3, 3))
        packed = pack_tensor(w, 4, "symmetric")
        assert unpack_tensor(packed).shape == w.shape

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            pack_tensor(np.ones(4), 4, "magic")


class TestPackingDensity:
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_payload_size_matches_bits(self, bits):
        w = np.random.default_rng(1).normal(size=1024)
        packed = pack_tensor(w, bits, "symmetric")
        expected_bytes = 1024 * bits / 8
        assert packed.payload_bytes == pytest.approx(expected_bytes, abs=1)

    def test_6bit_packing_density(self):
        w = np.random.default_rng(2).normal(size=400)
        packed = pack_tensor(w, 6, "symmetric")
        assert packed.payload_bytes == int(np.ceil(400 * 6 / 8))

    def test_mixed_assignment_smaller_than_uniform8(self):
        rng = np.random.default_rng(3)

        class _L:
            def __init__(self, name, w):
                self.name = name

                class _P:
                    pass

                self.weight = _P()
                self.weight.data = w

        layers = [_L(f"l{i}", rng.normal(size=256)) for i in range(4)]
        mixed = export_assignment(layers, [2, 4, 4, 8])
        uniform = export_assignment(layers, [8, 8, 8, 8])
        assert sum(t.payload_bytes for t in mixed.values()) < sum(
            t.payload_bytes for t in uniform.values()
        )


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)

        class _L:
            def __init__(self, name, w):
                self.name = name

                class _P:
                    pass

                self.weight = _P()
                self.weight.data = w

        layers = [
            _L("conv1", rng.normal(size=(4, 2, 3, 3))),
            _L("fc", rng.normal(size=(8, 16))),
        ]
        packed = export_assignment(layers, [2, 8], scheme="affine")
        path = tmp_path / "weights.npz"
        save_packed(path, packed)
        loaded = load_packed(path)
        assert set(loaded) == {"conv1", "fc"}
        for name in loaded:
            np.testing.assert_allclose(
                unpack_tensor(loaded[name]), unpack_tensor(packed[name])
            )
            assert loaded[name].bits == packed[name].bits
            assert loaded[name].scheme == packed[name].scheme

    def test_export_length_mismatch(self):
        with pytest.raises(ValueError):
            export_assignment([], [4])


def _small_packed(seed=4):
    rng = np.random.default_rng(seed)

    class _L:
        def __init__(self, name, w):
            self.name = name

            class _P:
                pass

            self.weight = _P()
            self.weight.data = w

    layers = [
        _L("conv1", rng.normal(size=(4, 2, 3, 3))),
        _L("fc", rng.normal(size=(8, 16))),
    ]
    return export_assignment(layers, [2, 8], scheme="affine")


class TestArtifactIntegrity:
    """save/load must be atomic and the payload checksum-verified."""

    def test_checksum_embedded_and_verified(self, tmp_path):
        from repro.atomicio import CHECKSUM_KEY

        path = tmp_path / "weights.npz"
        save_packed(path, _small_packed())
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as blob:
            assert CHECKSUM_KEY in blob.files
        loaded = load_packed(path)
        assert set(loaded) == {"conv1", "fc"}

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "weights.npz"
        save_packed(path, _small_packed())
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "weights.npz"]
        assert leftovers == []

    def test_save_appends_npz_suffix(self, tmp_path):
        # np.savez appended ".npz" to bare paths; the atomic writer must
        # keep that contract so existing callers find their files.
        save_packed(tmp_path / "weights", _small_packed())
        assert (tmp_path / "weights.npz").exists()
        assert load_packed(tmp_path / "weights.npz")

    def test_truncated_artifact_raises_typed(self, tmp_path):
        path = tmp_path / "weights.npz"
        save_packed(path, _small_packed())
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptArtifactError, match="failed to parse"):
            load_packed(path)

    def test_bit_flip_detected(self, tmp_path):
        path = tmp_path / "weights.npz"
        save_packed(path, _small_packed())
        data = bytearray(path.read_bytes())
        # Flip one bit in the middle of the archive payload.  npz members
        # are STORED (uncompressed), so the flip lands in array bytes and
        # must be caught by the checksum, not by the zip layer.
        idx = len(data) // 2
        data[idx] ^= 0x10
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifactError):
            load_packed(path)

    def test_missing_checksum_refused(self, tmp_path):
        # An unstamped artifact (or one with the stamp stripped) must be
        # refused rather than decoded on faith.
        path = tmp_path / "legacy.npz"
        np.savez(path, **{"fc/codes": np.zeros(4, dtype=np.uint8)})
        with pytest.raises(CorruptArtifactError, match="no __checksum__"):
            load_packed(path)

    def test_reserved_name_rejected(self, tmp_path):
        packed = _small_packed()
        packed["__checksum__"] = packed.pop("fc")
        with pytest.raises(ValueError, match="reserved"):
            save_packed(tmp_path / "weights.npz", packed)

    def test_overwrite_preserves_old_artifact_on_failure(self, tmp_path, monkeypatch):
        path = tmp_path / "weights.npz"
        save_packed(path, _small_packed())
        before = path.read_bytes()

        def _dies_mid_write(fh, **payload):
            fh.write(b"partial garbage")
            raise RuntimeError("disk full")

        monkeypatch.setattr("numpy.savez", _dies_mid_write)
        with pytest.raises(RuntimeError, match="disk full"):
            save_packed(path, _small_packed())
        # The half-written tmp file must not have replaced the artifact,
        # and must not be left lying around either.
        assert path.read_bytes() == before
        assert not (tmp_path / "weights.npz.tmp").exists()
        monkeypatch.undo()
        assert load_packed(path)


class TestRealModelExport:
    def test_export_resnet_assignment(self, tmp_path):
        from repro.models import build_model, quantizable_layers

        model = build_model("resnet_s20", num_classes=4)
        layers = quantizable_layers(model, "resnet_s20")
        bits = [2, 4, 8] * (len(layers) // 3) + [8] * (len(layers) % 3)
        packed = export_assignment(layers, bits)
        total_payload = sum(t.payload_bytes for t in packed.values())
        expected = sum(
            int(np.ceil(q.num_params * b / 8))
            for q, b in zip(layers, bits)
        )
        assert total_payload == expected
        path = tmp_path / "model.npz"
        save_packed(path, packed)
        loaded = load_packed(path)
        for q, b in zip(layers, bits):
            np.testing.assert_allclose(
                unpack_tensor(loaded[q.name]),
                quantize_weight(q.weight.data, int(b), "symmetric"),
                rtol=1e-5,
                atol=1e-7,
            )


class TestStaleTmpReap:
    """Orphaned ``*.tmp`` siblings are reaped on save/load (PR 9)."""

    @staticmethod
    def _backdate(path, age):
        import os

        from repro.atomicio import wall_now

        old = wall_now() - age
        os.utime(path, (old, old))

    def test_save_reaps_stale_sibling(self, tmp_path):
        from repro import telemetry
        from repro.atomicio import STALE_TMP_TTL

        stale = tmp_path / "orphan.npz.tmp"
        stale.write_bytes(b"dead writer leftovers")
        self._backdate(stale, STALE_TMP_TTL + 60.0)
        telemetry.enable()
        try:
            before = telemetry.counter("export.stale_tmp_reaped").value
            save_packed(tmp_path / "weights.npz", _small_packed())
            after = telemetry.counter("export.stale_tmp_reaped").value
        finally:
            telemetry.disable()
        assert not stale.exists()
        assert after > before

    def test_load_reaps_stale_sibling(self, tmp_path):
        from repro.atomicio import STALE_TMP_TTL

        path = tmp_path / "weights.npz"
        save_packed(path, _small_packed())
        stale = tmp_path / "orphan.npz.tmp"
        stale.write_bytes(b"x")
        self._backdate(stale, STALE_TMP_TTL + 60.0)
        assert load_packed(path)
        assert not stale.exists()

    def test_young_tmp_survives(self, tmp_path):
        # A concurrent writer mid-save must not have its tmp stolen.
        path = tmp_path / "weights.npz"
        young = tmp_path / "concurrent.npz.tmp"
        young.write_bytes(b"in-flight write")
        save_packed(path, _small_packed())
        assert load_packed(path)
        assert young.exists()

    def test_reap_counts_and_ignores_missing_dir(self, tmp_path):
        from repro.atomicio import STALE_TMP_TTL, reap_stale_tmp

        assert reap_stale_tmp(tmp_path / "nope") == 0
        a = tmp_path / "a.tmp"
        b = tmp_path / "b.tmp"
        a.write_bytes(b"1")
        b.write_bytes(b"2")
        self._backdate(a, STALE_TMP_TTL + 5.0)
        self._backdate(b, STALE_TMP_TTL + 5.0)
        assert reap_stale_tmp(tmp_path) == 2
        assert not a.exists() and not b.exists()
