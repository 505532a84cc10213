import dataclasses

import pytest

from labelalign.config import _SCHEMA, config_from_flat, load_run_config, parse_sections
from labelalign.training import ConfigError, TrainConfig

NON_DEFAULT = {
    "train": {
        "lam": "0.25",
        "gamma": "1e-5",
        "mode": "no_adapt",
        "gradient_mode": "full",
        "dtype": "float64",
        "timing": "off",
        "seed": "17",
    },
    "data": {"dataset": "mnist-usps", "dir": "/srv/digits", "split_seed": "4"},
    "output": {"dir": "runs/x"},
}


def write_ini(path, sections):
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
    path.write_text("\n".join(lines) + "\n")
    return path


def test_train_section_mirrors_train_config():
    assert list(_SCHEMA["train"]) == [f.name for f in dataclasses.fields(TrainConfig)]
    defaults = parse_sections({}).train
    assert defaults == TrainConfig()
    assert sum(len(keys) for keys in _SCHEMA.values()) == 22


@pytest.mark.parametrize("sections", [{}, NON_DEFAULT], ids=["defaults", "non_default"])
def test_echo_and_flat_round_trip(tmp_path, sections):
    cfg = load_run_config(write_ini(tmp_path / "run.ini", sections))
    echo = tmp_path / "echo.ini"
    echo.write_text(cfg.echo_text())
    assert load_run_config(echo) == cfg
    assert config_from_flat(cfg.to_flat()) == cfg
    if sections:
        assert cfg.train.lam == 0.25 and cfg.train.timing is False
        assert cfg.data["split_seed"] == 4 and cfg.output["dir"] == "runs/x"


def test_overrides_replace_file_values(tmp_path):
    path = write_ini(tmp_path / "run.ini", {"train": {"seed": "3"}})
    cfg = load_run_config(path, {("train", "seed"): "9", ("output", "dir"): "elsewhere"})
    assert cfg.train.seed == 9 and cfg.output["dir"] == "elsewhere"


@pytest.mark.parametrize(
    "section, key, message",
    [
        ("train", "gate", "unknown config key 'gate'"),
        ("train", "optimizer", "unknown config key 'optimizer'"),
        ("train", "learning_rate", "unknown config key"),
        ("bogus", "x", r"unknown config section \[bogus\]"),
        ("data", "standardize", r"unknown config key 'standardize' in section \[data\]"),
        ("output", "metrics_every", "unknown config key 'metrics_every'"),
        ("output", "checkpoint_every", "unknown config key 'checkpoint_every'"),
    ],
)
def test_unknown_keys_rejected_on_both_paths(tmp_path, section, key, message):
    path = write_ini(tmp_path / "run.ini", {section: {key: "1"}})
    with pytest.raises(ConfigError, match=message):
        load_run_config(path)
    with pytest.raises(ConfigError, match=message):
        config_from_flat({f"{section}.{key}": "1"})


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("train", "steps", "many", "invalid value for 'steps'"),
        ("train", "timing", "maybe", "expected a boolean"),
        ("train", "mode", "adapt", "mode must be one of"),
        ("train", "lam", "nan", "lam must be finite and >= 0"),
        ("train", "gamma", "inf", "gamma must be finite"),
        ("train", "beta", "nan", "beta must be finite"),
        ("train", "alpha", "-inf", "alpha must be finite and > 0"),
        ("train", "seed", "-1", "seed must be >= 0"),
        ("data", "dataset", "cifar", "dataset must be one of"),
        ("data", "split_seed", "-1", "split_seed must be >= 0"),
    ],
)
def test_bad_values_rejected_on_both_paths(tmp_path, section, key, value, message):
    path = write_ini(tmp_path / "run.ini", {section: {key: value}})
    with pytest.raises(ConfigError, match=message):
        load_run_config(path)
    with pytest.raises(ConfigError, match=message):
        config_from_flat({f"{section}.{key}": value})


def test_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_run_config(tmp_path / "missing.ini")
    bad = tmp_path / "bad.ini"
    bad.write_text("steps = 3\n")
    with pytest.raises(ConfigError, match="malformed config file"):
        load_run_config(bad)
