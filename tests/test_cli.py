import bz2
import gzip
import json
import struct

import numpy as np
import pytest

from labelalign.checkpoint import MAGIC, VERSION
from labelalign.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, build_datasets, main
from labelalign.config import load_run_config
from labelalign.model import DEFAULT_SPEC
from labelalign.training import evaluate, train

TINY = """\
[train]
steps = 3
batch_size = 16
val_every = 2
timing = off

[data]
synthetic_source_size = 32
synthetic_target_size = 32
synthetic_val_size = 16
synthetic_test_size = 24
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY)
    return path


def run_train(config, out):
    return main(["train", "--config", str(config), "--out", str(out)])


def test_train_then_eval_matches_evaluate(tmp_path, tiny_config, capsys):
    out = tmp_path / "run"
    assert run_train(tiny_config, out) == EXIT_OK
    capsys.readouterr()

    assert main(["eval", "--checkpoint", str(out / "checkpoint.ckpt")]) == EXIT_OK
    printed = capsys.readouterr().out.strip()

    cfg = load_run_config(tiny_config)
    data = build_datasets(cfg)
    result = train(cfg.train, data, DEFAULT_SPEC)
    assert printed == f"{100 * evaluate(result.params, DEFAULT_SPEC, data.test):.2f}"


def test_rerun_from_echo_is_bitwise_identical(tmp_path, tiny_config):
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_train(tiny_config, first) == EXIT_OK
    assert run_train(first / "config_echo.ini", second) == EXIT_OK
    metrics = (first / "metrics.csv").read_bytes()
    assert metrics == (second / "metrics.csv").read_bytes()
    assert len(metrics.splitlines()) == 4  # header plus one row per step


def test_metrics_every_and_checkpoint_every(tmp_path, tiny_config):
    config = tmp_path / "sparse.ini"
    config.write_text(TINY + "\n[output]\nmetrics_every = 2\ncheckpoint_every = 2\n")
    out = tmp_path / "run"
    assert run_train(config, out) == EXIT_OK
    rows = (out / "metrics.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["2"]
    assert (out / "checkpoint_step2.ckpt").exists()
    assert not (out / "checkpoint_step3.ckpt").exists()


def test_validation_errors_exit_1(tmp_path, tiny_config, capsys):
    assert run_train(tmp_path / "missing.ini", tmp_path / "run") == EXIT_VALIDATION
    assert "cannot read config file" in capsys.readouterr().err

    for bad in (
        TINY.replace("steps = 3", "steps = lots"),
        TINY.replace("[train]\n", "[train]\ngate = ones\n"),
        TINY + "\n[output]\nmetrics_every = 0\n",
    ):
        config = tmp_path / "bad.ini"
        config.write_text(bad)
        assert run_train(config, tmp_path / "run") == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")

    missing = tmp_path / "none.ckpt"
    assert main(["eval", "--checkpoint", str(missing)]) == EXIT_VALIDATION


def hand_built(header) -> bytes:
    """A checkpoint file with the given JSON header and a 16-byte blob region."""
    payload = json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<II", VERSION, len(payload)) + payload + bytes(16)


def entry(**changes):
    base = {"name": "k_hat", "shape": [], "dtype": "float32", "offset": 0, "nbytes": 4}
    return {key: value for key, value in {**base, **changes}.items() if value is not None}


def test_corrupt_checkpoint_exits_2(tmp_path, tiny_config, capsys):
    out = tmp_path / "run"
    assert run_train(tiny_config, out) == EXIT_OK
    whole = (out / "checkpoint.ckpt").read_bytes()
    cases = {
        "garbage": b"not a checkpoint",
        "cut": whole[: len(whole) // 2],
        "header_not_object": hand_built([1, 2]),
        "no_params": hand_built({"config": {}}),
        "config_not_strings": hand_built({"config": {"train.seed": 0}, "params": []}),
        "entry_not_object": hand_built({"params": ["k_hat"]}),
        "entry_without_nbytes": hand_built({"params": [entry(nbytes=None)]}),
        "negative_offset": hand_built({"params": [entry(offset=-4)]}),
        "unknown_dtype": hand_built({"params": [entry(dtype="nonsense")]}),
        "nbytes_not_shape_size": hand_built({"params": [entry(shape=[3], nbytes=4)]}),
        "blob_past_end": hand_built({"params": [entry(shape=[8], nbytes=32)]}),
    }
    for name, raw in cases.items():
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(raw)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(path)]) == EXIT_RUNTIME, name
        assert "corrupt checkpoint" in capsys.readouterr().err, name


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"batch_size = 16": "batch_size = 64"}, "batch_size 64 exceeds the source dataset size 32"),
        (
            {"batch_size = 16": "batch_size = 48", "source_size = 32": "source_size = 64"},
            "batch_size 48 exceeds the target dataset size 32",
        ),
    ],
    ids=["source", "target"],
)
def test_batch_larger_than_a_dataset_exits_1(tmp_path, capsys, edits, message):
    text = TINY
    for old, new in edits.items():
        text = text.replace(old, new)
    config = tmp_path / "big_batch.ini"
    config.write_text(text)
    assert run_train(config, tmp_path / "run") == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_diverging_run_exits_2(tmp_path, capsys):
    config = tmp_path / "diverge.ini"
    config.write_text(TINY.replace("[train]\n", "[train]\nalpha = 1e20\n"))
    with np.errstate(all="ignore"):
        assert run_train(config, tmp_path / "run") == EXIT_RUNTIME
    # the weights stay finite (about 1e20) and the next forward pass overflows
    assert "step 2: thin_svd input contains non-finite" in capsys.readouterr().err


def test_weights_made_non_finite_by_a_step_exit_2_naming_the_step(tmp_path, capsys):
    # 1e39 is finite as a float64 setting but overflows float32 weights
    config = tmp_path / "overflow.ini"
    config.write_text(TINY.replace("[train]\n", "[train]\nalpha = 1e39\n"))
    with np.errstate(all="ignore"):
        assert run_train(config, tmp_path / "run") == EXIT_RUNTIME
    assert "step 1: the weights went non-finite" in capsys.readouterr().err


def test_truncated_compressed_data_file_exits_1_naming_it(tmp_path, capsys):
    rng = np.random.default_rng(0)
    (tmp_path / "mnist").mkdir()
    (tmp_path / "usps").mkdir()
    images = struct.pack(">IIII", 0x803, 4, 28, 28) + rng.integers(0, 256, 4 * 784, dtype=np.uint8).tobytes()
    labels = struct.pack(">II", 0x801, 4) + bytes([1, 2, 3, 4])
    (tmp_path / "mnist/train-images-idx3-ubyte.gz").write_bytes(gzip.compress(images))
    (tmp_path / "mnist/train-labels-idx1-ubyte.gz").write_bytes(gzip.compress(labels))
    usps = "".join("3 " + " ".join(f"{i}:0.5" for i in range(1, 257)) + "\n" for _ in range(8))
    packed = bz2.compress(usps.encode())
    (tmp_path / "usps/usps.bz2").write_bytes(packed[: len(packed) // 2])
    (tmp_path / "usps/usps.t.bz2").write_bytes(packed)
    config = tmp_path / "files.ini"
    config.write_text(f"[data]\ndataset = mnist-usps\ndir = {tmp_path}\n")
    assert run_train(config, tmp_path / "run") == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "usps.bz2: corrupt or truncated text data" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_linear_lab_without_seeds_exits_1(capsys, seeds):
    assert main(["linear-lab", "--sizes", "16x4", "--seeds", seeds]) == EXIT_VALIDATION
    assert "seeds >= 1" in capsys.readouterr().err
