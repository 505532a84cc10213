"""Versioned binary checkpoint container.

Layout (all integers little-endian):

    bytes 0..7    magic ``b"LALIGNCK"``
    bytes 8..11   format version (uint32), currently 1
    bytes 12..15  header length in bytes (uint32)
    then          UTF-8 JSON header
    then          raw parameter blobs, in header order, little-endian floats

The JSON header holds the echoed run configuration (flat string map), and
for every parameter its name, shape, dtype and byte offset/length relative
to the start of the blob region.

Writes go to a temporary file in the target directory that is then renamed
over the target, so a failed or interrupted save leaves any earlier
checkpoint at that path intact.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .optim import ParameterSet

MAGIC = b"LALIGNCK"
VERSION = 1


class CheckpointError(Exception):
    pass


def save_checkpoint(path, params: ParameterSet, config_echo: dict[str, str]):
    entries = []
    blobs = []
    offset = 0
    for name, tensor in params.items():
        # asarray keeps 0-d parameters 0-d; tobytes emits C order regardless
        arr = np.asarray(tensor.data, dtype=tensor.data.dtype.newbyteorder("<"))
        raw = arr.tobytes()
        entries.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": arr.dtype.name,
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        blobs.append(raw)
        offset += len(raw)
    header = {
        "config": dict(config_echo),
        "params": entries,
        "k_hat": float(params["k_hat"].data) if "k_hat" in params else None,
    }
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", VERSION, len(payload)))
            fh.write(payload)
            for raw in blobs:
                fh.write(raw)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:8] != MAGIC:
        raise CheckpointError(f"corrupt checkpoint {path}: bad magic")
    version, header_len = struct.unpack_from("<II", raw, 8)
    if version != VERSION:
        raise CheckpointError(f"corrupt checkpoint {path}: unsupported version {version}")
    if len(raw) < 16 + header_len:
        raise CheckpointError(f"corrupt checkpoint {path}: truncated header")
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: unreadable header") from exc
    blob_start = 16 + header_len
    arrays: dict[str, np.ndarray] = {}
    for entry in header["params"]:
        start = blob_start + entry["offset"]
        stop = start + entry["nbytes"]
        if stop > len(raw):
            raise CheckpointError(
                f"corrupt checkpoint {path}: truncated blob for '{entry['name']}'"
            )
        arr = np.frombuffer(raw[start:stop], dtype=np.dtype(entry["dtype"]))
        arrays[entry["name"]] = arr.reshape(entry["shape"]).copy()
    return arrays, header.get("config", {})


def restore_params(arrays: dict[str, np.ndarray], expected_shapes: dict[str, tuple]) -> ParameterSet:
    """Build a ParameterSet from checkpoint arrays, validating the layout."""
    missing = set(expected_shapes) - set(arrays)
    if missing:
        raise CheckpointError(f"checkpoint missing parameters: {sorted(missing)}")
    params = ParameterSet()
    for name, shape in expected_shapes.items():
        arr = arrays[name]
        if tuple(arr.shape) != tuple(shape):
            raise CheckpointError(
                f"shape mismatch for '{name}': checkpoint has {tuple(arr.shape)}, "
                f"model expects {tuple(shape)}"
            )
        params.add(name, Tensor(arr, requires_grad=True))
    return params
