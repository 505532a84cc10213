import pytest

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


def test_corrupt_checkpoint_exits_2(tmp_path, tiny_config, capsys):
    out = tmp_path / "run"
    assert run_train(tiny_config, out) == EXIT_OK
    whole = (out / "checkpoint.ckpt").read_bytes()
    for name, raw in (("garbage.ckpt", b"not a checkpoint"), ("cut.ckpt", whole[: len(whole) // 2])):
        path = tmp_path / name
        path.write_bytes(raw)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(path)]) == EXIT_RUNTIME
        assert "corrupt checkpoint" in capsys.readouterr().err
