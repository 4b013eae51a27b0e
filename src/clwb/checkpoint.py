"""Checkpoint container for trained nets.

Layout, all integers little-endian:

    "CLWB" | version u16 | meta_len u32 | meta JSON (utf-8) | array payload |
    crc32 u32 over every preceding byte

The meta manifest lists each array's name and shape in payload order; values
are raw float64, full precision, so reloaded nets reproduce forward outputs
bit for bit. The trailing CRC-32 turns any single flipped payload byte into
a corruption error instead of a silently different model.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

from . import CHECKPOINT_FORMAT_VERSION, __version__
from . import backbones as bb
from . import numkit as nk

MAGIC = b"CLWB"
_ISOLATION = {cls.kind: cls for cls in (bb.HatState, bb.SupState)}

__all__ = [
    "CheckpointError",
    "CheckpointFormatError",
    "CheckpointCorruptionError",
    "save_checkpoint",
    "load_checkpoint",
    "write_atomic",
]


class CheckpointError(Exception):
    """Base for unreadable checkpoints."""


class CheckpointFormatError(CheckpointError):
    """Wrong magic, unsupported version, or malformed structure."""


class CheckpointCorruptionError(CheckpointError):
    """Payload bytes fail the checksum."""


def write_atomic(path, blob: bytes) -> None:
    """Write via a temp file + rename so readers never see partial files."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(blob)
    os.replace(tmp, path)


def _pack(meta: dict, arrays: list[tuple[str, np.ndarray]]) -> bytearray:
    manifest = [{"name": n, "shape": list(a.shape)} for n, a in arrays]
    meta = dict(meta, arrays=manifest, format_version=CHECKPOINT_FORMAT_VERSION,
                clwb_version=__version__)
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<H", CHECKPOINT_FORMAT_VERSION)
    out += struct.pack("<I", len(meta_blob))
    out += meta_blob
    for _, a in arrays:
        out += np.ascontiguousarray(a, dtype="<f8").tobytes()
    out += struct.pack("<I", zlib.crc32(out))
    return out


def _unpack(blob: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    if len(blob) < 14:
        raise CheckpointFormatError("file shorter than the fixed header")
    if blob[:4] != MAGIC:
        raise CheckpointFormatError(f"bad magic {blob[:4]!r}")
    (version,) = struct.unpack("<H", blob[4:6])
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointFormatError(
            f"format version {version} unsupported "
            f"(loader handles {CHECKPOINT_FORMAT_VERSION})")
    (stored_crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(memoryview(blob)[:-4]) != stored_crc:
        raise CheckpointCorruptionError("checksum mismatch")
    (meta_len,) = struct.unpack("<I", blob[6:10])
    meta_end = 10 + meta_len
    if meta_end > len(blob) - 4:
        raise CheckpointFormatError("meta length overruns the file")
    try:
        meta = json.loads(blob[10:meta_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointFormatError(f"meta JSON unreadable: {e}") from e
    arrays = {}
    at = meta_end
    for entry in meta.get("arrays", []):
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        nbytes = 8 * count
        if at + nbytes > len(blob) - 4:
            raise CheckpointFormatError(f"array {entry['name']} truncated")
        arrays[entry["name"]] = np.frombuffer(
            blob, dtype="<f8", count=count, offset=at).reshape(entry["shape"])
        at += nbytes
    if at != len(blob) - 4:
        raise CheckpointFormatError("trailing bytes after the last array")
    return meta, arrays


def save_checkpoint(path, net: bb.MaskedNet, extra: dict | None = None) -> None:
    """Serialize a MaskedNet plus optional run metadata (config echo,
    accuracy history). extra must be JSON-serializable."""
    arrays: list[tuple[str, np.ndarray]] = []
    for l, (w, b) in enumerate(zip(net.trunk.weights, net.trunk.biases)):
        arrays.append((f"trunk_w{l}", w))
        arrays.append((f"trunk_b{l}", b))
    for k in sorted(net.heads):
        arrays.append((f"head_w{k}", net.heads[k].weight))
        arrays.append((f"head_b{k}", net.heads[k].bias))
    state_arrays, state_meta = net.isolation.checkpoint_arrays()
    arrays += state_arrays
    meta = dict(state_meta, kind=net.kind, finished=list(net.finished),
                head_kinds={str(k): h.kind for k, h in sorted(net.heads.items())},
                topology={str(k): h.classes
                          for k, h in sorted(net.heads.items())},
                trunk_activations=["relu"] * net.trunk.n_layers,
                extra=extra or {})
    write_atomic(path, _pack(meta, arrays))


def load_checkpoint(path) -> tuple[bb.MaskedNet, dict]:
    """Rebuild the net bit-identically; returns (net, meta)."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise CheckpointError(f"checkpoint file {path}: "
                              f"{type(e).__name__}: {e}") from e
    meta, arrays = _unpack(blob)

    try:
        state_cls = _ISOLATION.get(meta["kind"])
        if state_cls is None:
            raise CheckpointFormatError(
                f"unknown isolation kind {meta['kind']!r}")
        weights, biases, l = [], [], 0
        while f"trunk_w{l}" in arrays:
            weights.append(arrays[f"trunk_w{l}"].copy())
            biases.append(arrays[f"trunk_b{l}"].copy())
            l += 1
        if meta["trunk_activations"] != ["relu"] * len(weights):
            raise CheckpointFormatError(
                f"trunk_activations {meta['trunk_activations']!r} for "
                f"{len(weights)} trunk layers: every trunk layer is relu")
        trunk = nk.DenseNet(weights, biases)
        heads = {}
        for key, kind in meta["head_kinds"].items():
            k = int(key)
            heads[k] = bb.Head(arrays[f"head_w{k}"].copy(),
                               arrays[f"head_b{k}"].copy(), kind)
        state = state_cls.from_checkpoint(meta, arrays, len(weights))
        net = bb.MaskedNet(trunk, heads, state,
                           [int(k) for k in meta["finished"]])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointFormatError(f"malformed checkpoint: {e!r}") from e
    return net, meta
