import errno

import numpy as np
import pytest

from labelalign import checkpoint
from labelalign.checkpoint import CheckpointError, load_checkpoint, restore_params, save_checkpoint
from labelalign.model import DEFAULT_SPEC, build_model

ECHO = {"train.seed": "0"}


def test_round_trip_keeps_shapes_and_bits(tmp_path):
    params = build_model(DEFAULT_SPEC, seed=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, ECHO)
    arrays, echo = load_checkpoint(path)
    assert echo == ECHO
    assert arrays["k_hat"].shape == ()
    restored = restore_params(arrays, DEFAULT_SPEC.param_shapes())
    for name, tensor in params.items():
        assert restored[name].data.dtype == tensor.data.dtype
        np.testing.assert_array_equal(restored[name].data, tensor.data)


def test_restore_rejects_shape_mismatch():
    arrays = {name: t.data for name, t in build_model(DEFAULT_SPEC, seed=0).items()}
    arrays["k_hat"] = arrays["k_hat"].reshape(1)
    with pytest.raises(CheckpointError, match="shape mismatch for 'k_hat'"):
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
