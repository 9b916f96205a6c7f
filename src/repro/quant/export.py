"""Deployment export: pack mixed-precision weights into integer buffers.

The rest of the library works with *fake-quantized* float weights (the
standard research representation).  This module provides the deployment
half: encode each layer's weights as integer codes bit-packed into bytes,
plus the affine decoding parameters, with an exact round-trip back to the
fake-quantized floats.  The byte sizes realized here are what the Eq. 2
size accounting promises (up to per-layer padding of the bit stream).

Artifact integrity: :func:`save_packed` writes atomically (tmp file +
``os.replace``, so a killed export never leaves a half-written artifact
under the final name) and embeds a SHA-256 checksum over the payload;
:func:`load_packed` verifies it and raises the typed
:class:`CorruptArtifactError` on any damage — a deployment artifact that
fails verification must never decode to silently-wrong weights.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..atomicio import (
    CHECKSUM_KEY as _CHECKSUM_KEY,
    atomic_write_npz,
    payload_checksum as _payload_checksum,
    reap_stale_tmp,
)
from .calibration import affine_minmax_params, mse_optimal_scale
from .quantizers import _qrange

__all__ = ["PackedTensor", "pack_tensor", "unpack_tensor", "export_assignment",
           "save_packed", "load_packed", "CorruptArtifactError"]


class CorruptArtifactError(RuntimeError):
    """A packed-weights artifact failed integrity verification on load.

    Raised for a missing/mismatched checksum, an unparseable container, or
    damaged members — anything where decoding could return wrong weights.
    """


@dataclass
class PackedTensor:
    """Bit-packed integer codes plus decoding parameters."""

    codes: np.ndarray  # uint8 packed bit stream
    bits: int
    shape: tuple
    scheme: str  # "symmetric" | "affine"
    scale: np.ndarray  # scalar (symmetric) or per-channel (affine)
    zero_point: np.ndarray  # empty (symmetric) or per-channel (affine)

    @property
    def num_elements(self) -> int:
        return int(np.prod(self.shape))

    @property
    def payload_bytes(self) -> int:
        """Bytes of the packed code stream (excludes scales/metadata)."""
        return int(self.codes.nbytes)


def _pack_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack unsigned integer codes (< 2**bits) into a uint8 bit stream."""
    if codes.min(initial=0) < 0 or codes.max(initial=0) >= 2**bits:
        raise ValueError("codes out of range for bit-width")
    # (N, bits) boolean matrix, most-significant bit first.
    n = codes.size
    shifts = np.arange(bits - 1, -1, -1)
    bit_matrix = ((codes.reshape(-1, 1) >> shifts) & 1).astype(np.uint8)
    return np.packbits(bit_matrix.reshape(-1))


def _unpack_codes(packed: np.ndarray, bits: int, count: int) -> np.ndarray:
    bit_stream = np.unpackbits(packed, count=count * bits)
    bit_matrix = bit_stream.reshape(count, bits).astype(np.int64)
    shifts = np.arange(bits - 1, -1, -1)
    return (bit_matrix << shifts).sum(axis=1)


def pack_tensor(w: np.ndarray, bits: int, scheme: str = "symmetric") -> PackedTensor:
    """Quantize and bit-pack a weight tensor.

    The decoding of the result equals the library's fake-quantization of
    ``w`` at the same (bits, scheme) — verified by the round-trip tests.
    """
    w = np.asarray(w, dtype=np.float64)
    if scheme == "symmetric":
        scale = mse_optimal_scale(w, bits)
        lo, hi = _qrange(bits, signed=True)
        q = np.clip(np.round(w / scale), lo, hi).astype(np.int64)
        codes = q - lo  # shift to unsigned
        return PackedTensor(
            codes=_pack_codes(codes.ravel(), bits),
            bits=bits,
            shape=w.shape,
            scheme=scheme,
            scale=np.asarray([scale]),
            zero_point=np.zeros(0),
        )
    if scheme == "affine":
        scale, zero_point = affine_minmax_params(w, bits)
        lo, hi = _qrange(bits, signed=False)
        bshape = (w.shape[0],) + (1,) * (w.ndim - 1)
        q = np.clip(
            np.round(w / scale.reshape(bshape)) + zero_point.reshape(bshape), lo, hi
        ).astype(np.int64)
        return PackedTensor(
            codes=_pack_codes(q.ravel(), bits),
            bits=bits,
            shape=w.shape,
            scheme=scheme,
            scale=scale,
            zero_point=zero_point,
        )
    raise ValueError(f"unknown scheme {scheme!r}")


def unpack_tensor(packed: PackedTensor) -> np.ndarray:
    """Decode a packed tensor back to (fake-quantized) float weights."""
    codes = _unpack_codes(packed.codes, packed.bits, packed.num_elements)
    if packed.scheme == "symmetric":
        lo, _ = _qrange(packed.bits, signed=True)
        q = codes + lo
        return (q * float(packed.scale[0])).reshape(packed.shape)
    bshape = (packed.shape[0],) + (1,) * (len(packed.shape) - 1)
    q = codes.reshape(packed.shape).astype(np.float64)
    return (q - packed.zero_point.reshape(bshape)) * packed.scale.reshape(bshape)


def export_assignment(
    layers: Sequence, bits_per_layer: Sequence[int], scheme: str = "symmetric"
) -> Dict[str, PackedTensor]:
    """Pack every searched layer at its assigned bit-width."""
    if len(layers) != len(bits_per_layer):
        raise ValueError("layers / bits length mismatch")
    return {
        layer.name: pack_tensor(layer.weight.data, int(b), scheme)
        for layer, b in zip(layers, bits_per_layer)
    }


def save_packed(path, packed: Dict[str, PackedTensor]) -> None:
    """Serialize an exported assignment to an .npz file, atomically.

    The archive (payload + checksum) is written to a sibling tmp file and
    moved over ``path`` with ``os.replace``: readers only ever see either
    the previous complete artifact or the new complete artifact.
    """
    payload: Dict[str, np.ndarray] = {}
    for name, tensor in packed.items():
        if name == _CHECKSUM_KEY:
            raise ValueError(f"layer name {name!r} is reserved")
        payload[f"{name}/codes"] = tensor.codes
        payload[f"{name}/meta"] = np.array(
            [tensor.bits, *tensor.shape], dtype=np.int64
        )
        payload[f"{name}/scheme"] = np.array(
            [0 if tensor.scheme == "symmetric" else 1], dtype=np.int64
        )
        payload[f"{name}/scale"] = tensor.scale
        payload[f"{name}/zero_point"] = tensor.zero_point
    payload[_CHECKSUM_KEY] = np.array(_payload_checksum(payload))
    # np.savez appends ".npz" to bare str/Path targets; resolve the final
    # name first so tmp and target always live side by side.
    final = os.fspath(path)
    if not final.endswith(".npz"):
        final += ".npz"
    atomic_write_npz(final, payload)


def load_packed(path) -> Dict[str, PackedTensor]:
    """Load and verify a packed-weights artifact.

    Raises :class:`CorruptArtifactError` when the container fails to
    parse, the checksum is absent (artifact predates integrity stamping or
    was tampered with), or the stored digest does not match the payload.

    Loading also reaps aged ``*.tmp`` orphans next to the artifact —
    readers visit artifact directories far more often than writers do, so
    this keeps crash litter bounded even on read-mostly deployments.
    """
    reap_stale_tmp(os.path.dirname(os.fspath(path)) or ".")
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as blob:
            arrays = {key: blob[key] for key in blob.files}
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise CorruptArtifactError(
            f"packed artifact {path!r} failed to parse: {exc}"
        ) from exc
    if _CHECKSUM_KEY not in arrays:
        raise CorruptArtifactError(
            f"packed artifact {path!r} carries no {_CHECKSUM_KEY} entry; "
            "refusing to decode unverifiable weights"
        )
    stored = str(arrays.pop(_CHECKSUM_KEY)[()])
    actual = _payload_checksum(arrays)
    if stored != actual:
        raise CorruptArtifactError(
            f"packed artifact {path!r} checksum mismatch: "
            f"stored {stored[:16]}..., computed {actual[:16]}..."
        )
    names = sorted({key.rsplit("/", 1)[0] for key in arrays})
    out: Dict[str, PackedTensor] = {}
    try:
        for name in names:
            meta = arrays[f"{name}/meta"]
            out[name] = PackedTensor(
                codes=arrays[f"{name}/codes"],
                bits=int(meta[0]),
                shape=tuple(int(v) for v in meta[1:]),
                scheme=(
                    "symmetric" if int(arrays[f"{name}/scheme"][0]) == 0
                    else "affine"
                ),
                scale=arrays[f"{name}/scale"],
                zero_point=arrays[f"{name}/zero_point"],
            )
    except (KeyError, IndexError, ValueError) as exc:
        raise CorruptArtifactError(
            f"packed artifact {path!r} verified but failed to decode: {exc}"
        ) from exc
    return out
