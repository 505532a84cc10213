"""Versioned binary checkpoint container.

Layout (all integers little-endian):

    bytes 0..7    magic ``b"LALIGNCK"``
    bytes 8..11   format version (uint32), currently 2
    bytes 12..15  header length in bytes (uint32)
    then          UTF-8 JSON header
    then          raw parameter blobs, in header order, little-endian floats

The JSON header holds ``config``, the run's ``config_echo.ini`` text
verbatim, and for every parameter its name, shape, dtype and byte
offset/length relative to the start of the blob region.  Version 1 stored
the configuration as a flat ``section.key`` map and is refused.

Writes go to a temporary file in the target directory that is then renamed
over the target, so a failed or interrupted save leaves any earlier
checkpoint at that path intact.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .autodiff import Tensor

MAGIC = b"LALIGNCK"
VERSION = 2
_ENTRY_KEYS = ("name", "shape", "dtype", "offset", "nbytes")
_DTYPES = ("float32", "float64")


class CheckpointError(Exception):
    pass


def save_checkpoint(path, params: dict[str, Tensor], config_echo: str):
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
    header = {"config": config_echo, "params": entries}
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


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], str]:
    """The parameter arrays and the stored config echo text."""
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
    # ValueError: bad UTF-8 or JSON, or an integer past Python's digit limit
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: unreadable header") from exc
    if not isinstance(header, dict) or not isinstance(header.get("params"), list):
        raise CheckpointError(f"corrupt checkpoint {path}: header has no 'params' list")
    config = header.get("config")
    if not isinstance(config, str):
        raise CheckpointError(f"corrupt checkpoint {path}: header has no 'config' text")
    blobs = memoryview(raw)[16 + header_len :]
    arrays = {}
    try:
        for entry in header["params"]:
            name, arr = _read_param(entry, blobs)
            if name in arrays:
                raise ValueError(f"parameter '{name}' appears more than once")
            arrays[name] = arr
    except ValueError as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from None
    return arrays, config


def _read_param(entry, blobs: memoryview) -> tuple[str, np.ndarray]:
    """Check one header entry against the blob region and copy its array out;
    raises ValueError naming what is wrong."""
    if not isinstance(entry, dict) or any(key not in entry for key in _ENTRY_KEYS):
        raise ValueError(f"parameter entry {entry!r} lacks one of {_ENTRY_KEYS}")
    name, shape, dtype, offset, nbytes = (entry[key] for key in _ENTRY_KEYS)
    if not isinstance(name, str) or not isinstance(shape, list):
        raise ValueError(f"bad name or shape in parameter entry {entry!r}")
    if not all(type(n) is int and n >= 0 for n in (offset, nbytes, *shape)):  # bools are ints too
        raise ValueError(f"negative or non-integer offset, size or shape for '{name}'")
    if dtype not in _DTYPES:
        raise ValueError(f"unknown dtype {dtype!r} for '{name}' (expected one of {_DTYPES})")
    dtype = np.dtype(dtype).newbyteorder("<")
    count = math.prod(shape)
    if nbytes != count * dtype.itemsize:
        raise ValueError(f"'{name}' has {nbytes!r} bytes, not {count * dtype.itemsize} for {shape}")
    if offset + nbytes > len(blobs):
        raise ValueError(f"truncated blob for '{name}'")
    return name, np.frombuffer(blobs, dtype, count, offset).reshape(shape).copy()


def restore_params(arrays: dict[str, np.ndarray], expected_shapes: dict[str, tuple]) -> dict[str, Tensor]:
    """Build the parameters from checkpoint arrays, validating the layout."""
    missing = set(expected_shapes) - set(arrays)
    if missing:
        raise CheckpointError(f"checkpoint missing parameters: {sorted(missing)}")
    stray = set(arrays) - set(expected_shapes)
    if stray:
        raise CheckpointError(f"checkpoint has parameters the model lacks: {sorted(stray)}")
    params = {}
    for name, shape in expected_shapes.items():
        arr = arrays[name]
        if tuple(arr.shape) != tuple(shape):
            raise CheckpointError(
                f"shape mismatch for '{name}': checkpoint has {tuple(arr.shape)}, "
                f"model expects {tuple(shape)}"
            )
        params[name] = Tensor(arr, requires_grad=True)
    return params
