import errno
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelalign import checkpoint
from labelalign.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointError,
    load_checkpoint,
    restore_params,
    save_checkpoint,
)
from labelalign.model import DEFAULT_SPEC, ModelSpec, build_model

ECHO = "[train]\nseed = 0\n"


def test_round_trip_keeps_shapes_and_bits(tmp_path):
    params = build_model(DEFAULT_SPEC, seed=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, ECHO)
    arrays, echo = load_checkpoint(path)
    assert echo == ECHO
    assert arrays["head_b"].shape == (DEFAULT_SPEC.classes,)
    restored = restore_params(arrays, DEFAULT_SPEC.param_shapes())
    for name, tensor in params.items():
        assert restored[name].data.dtype == tensor.data.dtype
        np.testing.assert_array_equal(restored[name].data, tensor.data)


def test_restore_rejects_shape_mismatch():
    arrays = {name: t.data for name, t in build_model(DEFAULT_SPEC, seed=0).items()}
    arrays["head_b"] = arrays["head_b"].reshape(1, -1)
    with pytest.raises(CheckpointError, match="shape mismatch for 'head_b'"):
        restore_params(arrays, DEFAULT_SPEC.param_shapes())


def test_restore_rejects_a_parameter_the_model_lacks():
    arrays = {name: t.data for name, t in build_model(DEFAULT_SPEC, seed=0).items()}
    arrays["stray_w"] = np.zeros(3, dtype=np.float32)
    with pytest.raises(CheckpointError, match=r"lacks: \['stray_w'\]"):
        restore_params(arrays, DEFAULT_SPEC.param_shapes())


class _FailingFile:
    """Wraps a real file and fails with ENOSPC once ``limit`` bytes are written."""

    def __init__(self, fh, limit):
        self._fh = fh
        self._left = limit

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        if len(data) > self._left:
            self._fh.write(data[: self._left])
            raise OSError(errno.ENOSPC, "no space left on device")
        self._left -= len(data)
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def test_failed_write_leaves_previous_checkpoint_intact(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, build_model(DEFAULT_SPEC, seed=1), ECHO)
    before = path.read_bytes()

    limit = len(before) // 2  # the blobs dominate the file, so this is mid-blob
    monkeypatch.setattr(
        checkpoint, "open", lambda p, mode: _FailingFile(open(p, mode), limit), raising=False
    )
    with pytest.raises(OSError, match="no space left"):
        save_checkpoint(path, build_model(DEFAULT_SPEC, seed=2), ECHO)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def _small_checkpoint() -> bytes:
    spec = ModelSpec(image_hw=(4, 4), conv_channels=(2,), feature_dim=3, classes=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "small.ckpt"
        save_checkpoint(path, build_model(spec, seed=0), ECHO)
        return path.read_bytes()


VALID = _small_checkpoint()
HEADER_END = 16 + struct.unpack_from("<I", VALID, 12)[0]
HEADER = json.loads(VALID[16:HEADER_END])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def load_bytes(raw: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.ckpt"
        path.write_bytes(raw)
        return load_checkpoint(path)


def loads_or_refuses(raw: bytes):
    """Load ``raw`` as a checkpoint file; anything but CheckpointError fails."""
    try:
        arrays, config = load_bytes(raw)
    except CheckpointError:
        return
    assert all(isinstance(a, np.ndarray) for a in arrays.values())
    assert isinstance(config, str)


@given(st.binary(max_size=64) | st.binary(max_size=64).map(lambda b: MAGIC + b))
@settings(max_examples=150, deadline=None)
def test_arbitrary_bytes_load_or_raise_checkpoint_error(raw):
    loads_or_refuses(raw)


@given(
    st.lists(st.tuples(st.integers(8, HEADER_END - 1), st.integers(0, 255)), min_size=1, max_size=4),
    st.integers(0, len(VALID)),
)
@settings(max_examples=150, deadline=None)
def test_mutated_header_bytes_or_a_cut_blob_raise_only_checkpoint_error(flips, cut):
    raw = bytearray(VALID)
    for pos, value in flips:
        raw[pos] = value
    loads_or_refuses(bytes(raw))
    loads_or_refuses(VALID[:cut])


@given(st.data(), json_values)
@settings(max_examples=200, deadline=None)
def test_any_json_in_a_header_field_raises_only_checkpoint_error(data, value):
    header = json.loads(json.dumps(HEADER))
    index = data.draw(st.integers(0, len(header["params"]) - 1))
    key = data.draw(st.sampled_from(["config", "params", "entry", *checkpoint._ENTRY_KEYS]))
    if key in ("config", "params"):
        header[key] = value
    elif key == "entry":
        header["params"][index] = value
    else:
        header["params"][index][key] = value
    payload = json.dumps(header).encode("utf-8")
    loads_or_refuses(MAGIC + struct.pack("<II", VERSION, len(payload)) + payload + VALID[HEADER_END:])


def first_entry(**changes) -> bytes:
    """A header holding only the first parameter entry, with ``changes``."""
    return json.dumps({"config": ECHO, "params": [{**HEADER["params"][0], **changes}]}).encode()


@pytest.mark.parametrize(
    "payload",
    [
        b"[" * 100_000 + b"]" * 100_000,  # nesting past the recursion limit
        b'{"params": [], "n": ' + b"9" * 5000 + b"}",  # an integer past the digit limit
        first_entry(offset=True),
        first_entry(shape=[True, 18]),  # 18 values, as in the entry's [2, 1, 3, 3]
        first_entry(nbytes=float(HEADER["params"][0]["nbytes"])),
        first_entry(shape=[0, 2**70], nbytes=0),
        json.dumps({"config": ECHO, "params": [HEADER["params"][0]] * 2}).encode(),
    ],
    ids=[
        "deep",
        "long_integer",
        "bool_offset",
        "bool_in_shape",
        "float_nbytes",
        "huge_empty_shape",
        "repeated_name",
    ],
)
def test_malformed_headers_raise_checkpoint_error(payload):
    raw = MAGIC + struct.pack("<II", VERSION, len(payload)) + payload + VALID[HEADER_END:]
    with pytest.raises(CheckpointError):
        load_bytes(raw)
