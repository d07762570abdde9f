"""Binary checkpoints: JSON manifest header plus raw little-endian float32 payload.

Layout:
    PRUNEKIT_CKPT v1\n
    <decimal manifest byte length>\n
    <manifest JSON>          (sorted keys; config, per-layer shapes, tensor index, meta)
    <payload>                (tensors back to back at their declared offsets)

The tensors rebuild a pruned model without the original configuration, and
the manifest's per-layer shapes must agree with them. Per-tensor CRC32
checksums are validated on load.
"""

from __future__ import annotations

import dataclasses
import zlib

import numpy as np

from .data import decode, encode
from .model import ModelConfig, from_arrays
from .tensor import ParameterError

MAGIC = b"PRUNEKIT_CKPT v1\n"


class CheckpointError(ParameterError):
    """Malformed checkpoint or checksum mismatch."""


def save(model, path, meta=None):
    """Write the model to `path`; `meta` is free-form JSON-safe run metadata."""
    tensors = []
    blobs = []
    offset = 0
    for name, p in model.named_parameters():
        arr = np.ascontiguousarray(p.data, dtype="<f4")
        raw = arr.tobytes()
        tensors.append({
            "name": name,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(raw),
            "crc32": zlib.crc32(raw),
        })
        blobs.append(raw)
        offset += len(raw)
    manifest = {
        "format_version": 1,
        "config": dataclasses.asdict(model.config),
        "layer_shapes": [list(s) for s in model.layer_shapes()],
        "tensors": tensors,
        "meta": meta or {},
    }
    header = encode(manifest).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(f"{len(header)}\n".encode("ascii"))
        f.write(header)
        for raw in blobs:
            f.write(raw)


def _split(path, blob):
    """(manifest, payload start) of the checkpoint bytes `blob` read from `path`."""
    if not blob.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    line_end = blob.find(b"\n", len(MAGIC)) + 1 or len(blob)
    try:
        header_len = int(blob[len(MAGIC):line_end].strip())
    except ValueError:
        raise CheckpointError(f"{path}: malformed manifest length") from None
    payload_start = line_end + header_len
    if header_len < 0 or payload_start > len(blob):
        raise CheckpointError(f"{path}: truncated manifest")
    return decode(path, "manifest", blob[line_end:payload_start]), payload_start


def load(path):
    """Rebuild the model (including pruned shapes); returns (model, manifest)."""
    with open(path, "rb") as f:
        blob = f.read()
    manifest, payload_start = _split(path, blob)
    if not isinstance(manifest, dict) or manifest.get("format_version") != 1:
        raise CheckpointError(f"{path}: unsupported format version")
    payload = memoryview(blob)[payload_start:]

    try:
        arrays = {}
        for entry in manifest["tensors"]:
            raw = payload[entry["offset"]:entry["offset"] + entry["nbytes"]]
            if len(raw) != entry["nbytes"]:
                raise CheckpointError(f"{path}: truncated payload at {entry['name']}")
            if zlib.crc32(raw) != entry["crc32"]:
                raise CheckpointError(f"{path}: checksum mismatch for {entry['name']}")
            arrays[entry["name"]] = np.frombuffer(raw, dtype="<f4").reshape(entry["shape"]).copy()
        model = from_arrays(ModelConfig(**manifest["config"]), arrays)
        if model.layer_shapes() != [tuple(s) for s in manifest["layer_shapes"]]:
            raise CheckpointError(f"{path}: manifest layer_shapes {manifest['layer_shapes']} "
                                  f"disagree with the tensors' {model.layer_shapes()}")
        if not isinstance(manifest["meta"], dict):
            raise TypeError(f"meta is a {type(manifest['meta']).__name__}, not an object")
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # ParameterError is a ValueError
        raise CheckpointError(
            f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from exc
    return model, manifest
