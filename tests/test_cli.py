import bz2
import gzip
import json
import os
import platform
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from labelalign import cli
from labelalign.autodiff import HEAP_TUNED
from labelalign.checkpoint import MAGIC, VERSION, load_checkpoint
from labelalign.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    SOURCE_ROOT,
    build_datasets,
    git_revision,
    main,
)
from labelalign.config import load_run_config
from labelalign.model import DEFAULT_SPEC
from labelalign.plotting import read_metrics
from labelalign.training import evaluate, train

TINY = """\
[train]
steps = 3
batch_size = 16
val_every = 2
timing = off
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY)
    return path


def run_train(config, out):
    return main(["train", "--config", str(config), "--out", str(out)])


def test_train_then_eval_matches_evaluate(tmp_path, tiny_config, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    out = tmp_path / "run"
    assert run_train(tiny_config, out) == EXIT_OK
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 0 and manifest["mode"] == "dla"
    assert manifest["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        "heap_keeps_freed_arrays": HEAP_TUNED,
        "git_revision": checkout_head(SOURCE_ROOT),
        "blas_threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None},
        # the caller and a helper thread where the process may use two CPUs
        "conv_workers": min(2, len(os.sched_getaffinity(0))),
    }
    assert HEAP_TUNED or not (sys.platform == "linux" and platform.libc_ver()[0] == "glibc")

    assert main(["eval", "--checkpoint", str(out / "checkpoint.ckpt")]) == EXIT_OK
    printed = capsys.readouterr().out.strip()

    cfg = load_run_config(tiny_config)
    data = build_datasets(cfg)
    result = train(cfg.train, data, DEFAULT_SPEC)
    assert printed == f"{100 * evaluate(result.params, DEFAULT_SPEC, data.test):.2f}"
    eval_on = ["eval", "--checkpoint", str(out / "checkpoint.ckpt"), "--dataset"]
    for dataset, scored in (("target-val", data.val), ("source-train", data.source)):
        assert main(eval_on + [dataset]) == EXIT_OK
        accuracy = evaluate(result.params, DEFAULT_SPEC, scored)
        assert capsys.readouterr().out.strip() == f"{100 * accuracy:.2f}"
    assert main(eval_on + ["source-test"]) == EXIT_VALIDATION
    assert "synthetic runs have no separate source test set" in capsys.readouterr().err
    # every row train wrote reads back as its step's record
    assert read_metrics(out / "metrics.csv") == [
        {
            "step": r.step,
            "total": r.parts.total,
            "cls": r.parts.cls,
            "align": cfg.train.lam * r.parts.align,
            "k_reg": cfg.train.gamma * r.parts.k_reg,
            "k": r.parts.k,
            "src_acc": r.src_acc,
            "val_acc": r.val_acc,
            "wall_ms": None,
        }
        for r in result.records
    ]


def checkout_head(root):
    """HEAD of the checkout at ``root`` as git reports it, or None."""
    if not (root / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_git_revision_is_head_in_a_checkout_and_none_outside(tmp_path):
    assert git_revision(tmp_path) is None
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false", "-C", str(tmp_path)]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "empty"], check=True)
    revision = git_revision(tmp_path)
    assert revision == checkout_head(tmp_path) and len(revision) == 40


def test_rerun_from_echo_is_bitwise_identical(tmp_path, tiny_config, monkeypatch):
    run, rerun = tmp_path / "run", tmp_path / "rerun"
    assert run_train(tiny_config, run) == EXIT_OK
    assert run_train(run / "config_echo.ini", rerun) == EXIT_OK
    for name in ("config_echo.ini", "metrics.csv", "checkpoint.ckpt"):
        assert (run / name).read_bytes() == (rerun / name).read_bytes(), name
    # the checkpoint stores the echo verbatim
    assert load_checkpoint(run / "checkpoint.ckpt")[1].encode() == (run / "config_echo.ini").read_bytes()
    assert len((run / "metrics.csv").read_bytes().splitlines()) == 4  # header plus one row per step
    config_sha256 = [json.loads((d / "manifest.json").read_text())["config_sha256"] for d in (run, rerun)]
    assert config_sha256[0] == config_sha256[1]

    # the echo names no run directory, so retraining from it without --out
    # writes to the default one and leaves the run it came from alone
    written = {path: path.read_bytes() for path in run.iterdir()}
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--config", str(run / "config_echo.ini")]) == EXIT_OK
    assert {path: path.read_bytes() for path in run.iterdir()} == written
    assert (tmp_path / "runs/latest/metrics.csv").read_bytes() == written[run / "metrics.csv"]


def test_validation_errors_exit_1(tmp_path, tiny_config, capsys):
    assert run_train(tmp_path / "missing.ini", tmp_path / "run") == EXIT_VALIDATION
    assert "cannot read config file" in capsys.readouterr().err

    for bad, named in (
        (TINY.replace("steps = 3", "steps = lots"), "'steps'"),
        (TINY.replace("[train]\n", "[train]\ngate = ones\n"), "'gate'"),
        (TINY + "\n[data]\nsynthetic_val_size = 16\n", "'synthetic_val_size'"),
        (TINY.replace("[train]\n", "[train]\nmode = partial_la\n"), "'partial_la'"),
        (TINY + "\n[output]\ndir = elsewhere\n", "unknown config section [output]"),
        (TINY + "\n[data]\nusps_train = usps/usps.bz2\n", "unknown config key 'usps_train'"),
        # finite as a float, inf as a float32 weight
        (TINY.replace("[train]\n", "[train]\nlam = 1e39\n"), "lam must be at most 3.40282e+38 in float32"),
        (TINY.replace("[train]\n", "[train]\nbeta = 1e39\n"), "beta must be at most 3.40282e+38 in float32"),
    ):
        config = tmp_path / "bad.ini"
        config.write_text(bad)
        assert run_train(config, tmp_path / "run") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "run").exists()

    config = tmp_path / "no_files.ini"
    config.write_text(f"[data]\ndataset = mnist-usps\ndir = {tmp_path / 'nothing'}\n")
    assert run_train(config, tmp_path / "run") == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "dataset files not found" in err
    assert all(name in err for name in ("train-images", "train-labels", "usps.bz2", "usps.t.bz2"))

    missing = tmp_path / "none.ckpt"
    assert main(["eval", "--checkpoint", str(missing)]) == EXIT_VALIDATION

    # a checkpoint from before a config key, a section or a value was
    # removed still echoes it, and eval names it as train --config would
    for echo, named in (
        ("[data]\nstandardize = off\n", "unknown config key 'standardize' in section [data]"),
        ("[data]\nsynthetic_val_size = 256\n", "unknown config key 'synthetic_val_size' in section [data]"),
        ("[output]\ndir = runs/latest\n", "unknown config section [output]"),
        ("[data]\nmnist_train_images = m.gz\n", "unknown config key 'mnist_train_images' in section [data]"),
        ("[train]\nmode = partial_la\n", "got 'partial_la'"),
        ("steps = 3\n", "malformed config in checkpoint"),
    ):
        stale = tmp_path / "stale.ckpt"
        stale.write_bytes(hand_built({"config": echo, "params": []}))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(stale)]) == EXIT_VALIDATION, echo
        assert named in capsys.readouterr().err, echo


def test_eval_dataset_outside_the_four_names_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"), "--dataset", "usps-test"])
    assert exc.value.code == 2
    assert "invalid choice: 'usps-test'" in capsys.readouterr().err
    # so are options that were removed
    for argv in (
        ["linear-lab", "--out", str(tmp_path / "x.csv")],
        ["plot", "--metrics", str(tmp_path / "m.csv"), "--out", str(tmp_path / "c.svg"), "--title", "x"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def hand_built(header, version=VERSION) -> bytes:
    """A checkpoint file with the given JSON header and a 16-byte blob region."""
    payload = json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<II", version, len(payload)) + payload + bytes(16)


def with_params(*entries) -> bytes:
    """A hand-built checkpoint of the default configuration with ``entries``."""
    return hand_built({"config": "", "params": list(entries)})


def entry(**changes):
    base = {"name": "k_hat", "shape": [], "dtype": "float32", "offset": 0, "nbytes": 4}
    return {key: value for key, value in {**base, **changes}.items() if value is not None}


def with_extra_entry(whole: bytes, pick) -> bytes:
    """The checkpoint ``whole`` with one more parameter entry in its header,
    ``pick(entries)``; the blob region stays as it is."""
    header_end = 16 + struct.unpack_from("<I", whole, 12)[0]
    header = json.loads(whole[16:header_end])
    header["params"].append(pick(header["params"]))
    payload = json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<II", VERSION, len(payload)) + payload + whole[header_end:]


def test_corrupt_checkpoint_exits_2(tmp_path, tiny_config, capsys):
    out = tmp_path / "run"
    assert run_train(tiny_config, out) == EXIT_OK
    whole = (out / "checkpoint.ckpt").read_bytes()
    cases = {
        "garbage": (b"not a checkpoint", "bad magic"),
        "cut": (whole[: len(whole) // 2], "truncated blob"),
        "header_not_object": (hand_built([1, 2]), "no 'params' list"),
        "no_params": (hand_built({"config": ""}), "no 'params' list"),
        "no_config": (hand_built({"params": []}), "no 'config' text"),
        "config_as_map": (hand_built({"config": {"train.seed": "0"}, "params": []}), "no 'config' text"),
        "version_1": (
            hand_built({"config": {"train.seed": "0"}, "params": []}, version=1),
            "unsupported version 1",
        ),
        "entry_not_object": (with_params("k_hat"), "lacks one of"),
        "entry_without_nbytes": (with_params(entry(nbytes=None)), "lacks one of"),
        "negative_offset": (with_params(entry(offset=-4)), "negative or non-integer offset"),
        "unknown_dtype": (with_params(entry(dtype="nonsense")), "unknown dtype 'nonsense'"),
        "nbytes_not_shape_size": (with_params(entry(shape=[3], nbytes=4)), "not 12 for [3]"),
        "blob_past_end": (with_params(entry(shape=[8], nbytes=32)), "truncated blob for 'k_hat'"),
    }
    for name, (raw, fragment) in cases.items():
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(raw)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(path)]) == EXIT_RUNTIME, name
        err = capsys.readouterr().err
        assert "corrupt checkpoint" in err and fragment in err, name

    # whole checkpoints with one entry too many, named in the message
    named = {
        "stray_w": with_extra_entry(whole, lambda entries: {**entries[-1], "name": "stray_w"}),
        "conv0_w": with_extra_entry(whole, lambda entries: entries[0]),  # conv0_w twice
    }
    for name, raw in named.items():
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(raw)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(path)]) == EXIT_RUNTIME, name
        assert f"'{name}'" in capsys.readouterr().err, name


@pytest.mark.parametrize(
    "batch, message",
    [
        (40, "batch_size 40 exceeds the source dataset size 32"),
        (28, "batch_size 28 exceeds the target dataset size 24"),
    ],
    ids=["source", "target"],
)
def test_batch_larger_than_a_dataset_exits_1(tmp_path, capsys, batch, message):
    config = write_data_files(tmp_path)
    config.write_text(config.read_text().replace("batch_size = 16", f"batch_size = {batch}"))
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


def test_reused_run_directory_keeps_nothing_of_the_run_before(tmp_path, tiny_config, capsys):
    run = tmp_path / "run"
    assert run_train(tiny_config, run) == EXIT_OK
    written = {path: path.read_bytes() for path in run.iterdir()}
    # a config refused with exit 1 leaves the run it was aimed at as it was
    refused = tmp_path / "refused.ini"
    for text in (
        TINY.replace("steps = 3", "steps = lots"),
        TINY + f"\n[data]\ndataset = mnist-usps\ndir = {tmp_path / 'nothing'}\n",
    ):
        refused.write_text(text)
        assert run_train(refused, run) == EXIT_VALIDATION
        assert {path: path.read_bytes() for path in run.iterdir()} == written
    # a run that starts clears the directory, so one that aborts leaves no
    # checkpoint of the run before
    diverge = tmp_path / "diverge.ini"
    diverge.write_text(TINY.replace("[train]\n", "[train]\nalpha = 1e20\n"))
    with np.errstate(all="ignore"):
        assert run_train(diverge, run) == EXIT_RUNTIME
    assert not (run / "checkpoint.ckpt").exists()
    assert "alpha = 1e+20" in (run / "config_echo.ini").read_text().splitlines()
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint.ckpt")]) == EXIT_VALIDATION
    assert "checkpoint not found" in capsys.readouterr().err


def test_weights_made_non_finite_by_a_step_exit_2_naming_the_step(tmp_path, capsys):
    # 1e39 is finite as a float64 setting but overflows float32 weights
    config = tmp_path / "overflow.ini"
    config.write_text(TINY.replace("[train]\n", "[train]\nalpha = 1e39\n"))
    with np.errstate(all="ignore"):
        assert run_train(config, tmp_path / "run") == EXIT_RUNTIME
    assert "step 1: the weights went non-finite" in capsys.readouterr().err


def usps_text(rng, count: int) -> str:
    return "".join(
        f"{label} " + " ".join(f"{i}:{v:.6f}" for i, v in enumerate(rng.uniform(-1, 1, 256), 1)) + "\n"
        for label in rng.integers(1, 11, count)
    )


def write_data_files(root, mnist_labels=None, usps_train=None, mnist_hw=(28, 28)):
    """MNIST-format (gzip IDX) and USPS-format (bzip2 sparse text) files
    under ``root``: 32 source images, 24 target and 20 target test lines.
    Returns a config that trains ``dla`` on them at batch 16."""
    rng = np.random.default_rng(0)
    (root / "mnist").mkdir()
    (root / "usps").mkdir()
    labels = rng.integers(0, 10, 32, dtype=np.uint8) if mnist_labels is None else mnist_labels
    pixels = rng.integers(0, 256, 32 * mnist_hw[0] * mnist_hw[1], dtype=np.uint8)
    images = struct.pack(">IIII", 0x803, 32, *mnist_hw) + pixels.tobytes()
    (root / "mnist/train-images-idx3-ubyte.gz").write_bytes(gzip.compress(images))
    (root / "mnist/train-labels-idx1-ubyte.gz").write_bytes(
        gzip.compress(struct.pack(">II", 0x801, len(labels)) + labels.tobytes())
    )
    train = bz2.compress(usps_text(rng, 24).encode()) if usps_train is None else usps_train
    (root / "usps/usps.bz2").write_bytes(train)
    (root / "usps/usps.t.bz2").write_bytes(bz2.compress(usps_text(rng, 20).encode()))
    config = root / "files.ini"
    config.write_text(
        "[train]\nsteps = 2\nbatch_size = 16\nval_every = 1\ntiming = off\n\n"
        f"[data]\ndataset = mnist-usps\ndir = {root}\n"
    )
    return config


def test_train_then_eval_on_mnist_usps_files(tmp_path, capsys):
    config = write_data_files(tmp_path)
    out = tmp_path / "run"
    assert run_train(config, out) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out / "checkpoint.ckpt")]) == EXIT_OK
    printed = capsys.readouterr().out.strip()

    cfg = load_run_config(config)
    data = build_datasets(cfg)
    assert [len(data.source), len(data.target), len(data.val), len(data.test)] == [32, 24, 10, 10]
    assert data.target.labels is None
    result = train(cfg.train, data, DEFAULT_SPEC)
    assert printed == f"{100 * evaluate(result.params, DEFAULT_SPEC, data.test):.2f}"


def test_eval_reads_only_the_domain_it_scores(tmp_path, capsys, monkeypatch):
    config = write_data_files(tmp_path)
    mnist = tmp_path / "mnist"
    for name in ("images-idx3", "labels-idx1"):
        shutil.copy(mnist / f"train-{name}-ubyte.gz", mnist / f"t10k-{name}-ubyte.gz")
    checkpoint = tmp_path / "run" / "checkpoint.ckpt"
    assert run_train(config, tmp_path / "run") == EXIT_OK
    printed, load_usps = {}, cli.load_usps

    def usps_test_only(path, **kwargs):
        assert path == tmp_path / "usps/usps.t.bz2", f"{dataset} read {path}"
        return load_usps(path, **kwargs)

    for dataset, other_domain in [
        ("target-test", "load_mnist"),
        ("target-val", "load_mnist"),
        ("source-test", "load_usps"),
        ("source-train", "load_usps"),
    ]:
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(checkpoint), "--dataset", dataset]) == EXIT_OK
        printed[dataset] = capsys.readouterr().out
        with monkeypatch.context() as patch:
            patch.setattr(
                cli, other_domain, lambda *a, **k: pytest.fail(f"{dataset} read {other_domain}")
            )
            if dataset.startswith("target-"):
                patch.setattr(cli, "load_usps", usps_test_only)
            assert main(["eval", "--checkpoint", str(checkpoint), "--dataset", dataset]) == EXIT_OK
        assert capsys.readouterr().out == printed[dataset]
    # a target set is scored without the adaptation pool's file
    (tmp_path / "usps/usps.bz2").unlink()
    for dataset in ("target-test", "target-val"):
        assert main(["eval", "--checkpoint", str(checkpoint), "--dataset", dataset]) == EXIT_OK
        assert capsys.readouterr().out == printed[dataset]


def test_eval_data_dir_flag_finds_moved_files(tmp_path, capsys):
    root = tmp_path / "old"
    root.mkdir()
    checkpoint = tmp_path / "run" / "checkpoint.ckpt"
    assert run_train(write_data_files(root), tmp_path / "run") == EXIT_OK
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(checkpoint)]) == EXIT_OK
    printed = capsys.readouterr().out
    moved = tmp_path / "new"
    root.rename(moved)
    assert main(["eval", "--checkpoint", str(checkpoint)]) == EXIT_VALIDATION
    assert "dataset files not found" in capsys.readouterr().err
    assert main(["eval", "--checkpoint", str(checkpoint), "--data-dir", str(moved)]) == EXIT_OK
    assert capsys.readouterr().out == printed


def test_seed_flag_runs_as_a_config_seed(tmp_path, tiny_config):
    flagged, configured = tmp_path / "flag", tmp_path / "config"
    argv = ["train", "--config", str(tiny_config), "--out", str(flagged), "--seed", "5"]
    assert main(argv) == EXIT_OK
    assert "seed = 5" in (flagged / "config_echo.ini").read_text().splitlines()
    assert json.loads((flagged / "manifest.json").read_text())["seed"] == 5
    seeded = tmp_path / "seeded.ini"
    seeded.write_text(TINY.replace("[train]\n", "[train]\nseed = 5\n"))
    assert run_train(seeded, configured) == EXIT_OK
    assert (flagged / "metrics.csv").read_bytes() == (configured / "metrics.csv").read_bytes()


def test_truncated_compressed_data_file_exits_1_naming_it(tmp_path, capsys):
    packed = bz2.compress(usps_text(np.random.default_rng(1), 8).encode())
    config = write_data_files(tmp_path, usps_train=packed[: len(packed) // 2])
    assert run_train(config, tmp_path / "run") == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "usps.bz2: corrupt or truncated text data" in err
    assert not (tmp_path / "run").exists()


def test_empty_validation_split_exits_1_before_writing(tmp_path, capsys):
    config = write_data_files(tmp_path)
    one_line = usps_text(np.random.default_rng(2), 1)
    (tmp_path / "usps/usps.t.bz2").write_bytes(bz2.compress(one_line.encode()))
    assert run_train(config, tmp_path / "run") == EXIT_VALIDATION
    assert "the val dataset is empty" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_mnist_label_outside_0_to_9_exits_1_before_writing(tmp_path, capsys):
    labels = np.arange(32, dtype=np.uint8) % 10
    labels[5] = 200
    config = write_data_files(tmp_path, mnist_labels=labels)
    assert run_train(config, tmp_path / "run") == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "train-labels-idx1-ubyte.gz: label 200 at index 5 outside 0..9" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("hw", [(20, 20), (0, 28)])
def test_images_the_model_cannot_take_exit_1_before_writing(tmp_path, capsys, hw):
    config = write_data_files(tmp_path, mnist_hw=hw)
    assert run_train(config, tmp_path / "run") == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"source images have shape (1, {hw[0]}, {hw[1]}), the model takes (1, 28, 28)" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_linear_lab_without_seeds_exits_1(capsys, seeds):
    assert main(["linear-lab", "--sizes", "16x4", "--seeds", seeds]) == EXIT_VALIDATION
    assert "seeds >= 1" in capsys.readouterr().err
