import codecs
import dataclasses
import locale
from pathlib import Path

import pytest

from labelalign.config import _SCHEMA, load_run_config, parse_run_config, parse_sections
from labelalign.training import ConfigError, TrainConfig

NON_DEFAULT = {
    "train": {
        "lam": "0.25",
        "alpha": "0.002",
        "mode": "no_adapt",
        "gradient_mode": "full",
        "dtype": "float64",
        "timing": "off",
        "seed": "17",
    },
    "data": {"dataset": "mnist-usps", "dir": "/srv/digits", "split_seed": "4"},
}

# [DEFAULT] beside [train]: configparser would fold steps and lam into [train]
DEFAULT_BESIDE_TRAIN = {"DEFAULT": {"steps": "3", "lam": "0.5"}, "train": {"seed": "1"}}


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
    assert sum(len(keys) for keys in _SCHEMA.values()) == 13


@pytest.mark.parametrize("sections", [{}, NON_DEFAULT], ids=["defaults", "non_default"])
def test_echo_round_trip(tmp_path, sections):
    cfg = load_run_config(write_ini(tmp_path / "run.ini", sections))
    echo = tmp_path / "echo.ini"
    echo.write_text(cfg.echo_text())
    assert load_run_config(echo) == cfg
    assert parse_run_config(cfg.echo_text()) == cfg
    if sections:
        assert cfg.train.lam == 0.25 and cfg.train.timing is False
        assert cfg.data["split_seed"] == 4 and cfg.data["dir"] == "/srv/digits"


def test_overrides_replace_file_values(tmp_path):
    path = write_ini(tmp_path / "run.ini", {"train": {"seed": "3"}})
    cfg = load_run_config(path, {("train", "seed"): "9", ("data", "dir"): "elsewhere"})
    assert cfg.train.seed == 9 and cfg.data["dir"] == "elsewhere"


def test_data_files_keep_the_standard_layout_under_data_dir():
    layout = {
        "mnist_train_images": "mnist/train-images-idx3-ubyte.gz",
        "mnist_train_labels": "mnist/train-labels-idx1-ubyte.gz",
        "mnist_test_images": "mnist/t10k-images-idx3-ubyte.gz",
        "mnist_test_labels": "mnist/t10k-labels-idx1-ubyte.gz",
        "usps_train": "usps/usps.bz2",
        "usps_test": "usps/usps.t.bz2",
    }
    default, moved = parse_sections({}), parse_sections({"data": {"dir": "/srv/digits"}})
    for name, relative in layout.items():
        assert default.data_path(name) == Path("data") / relative
        assert moved.data_path(name) == Path("/srv/digits") / relative


@pytest.mark.parametrize(
    "section, key, message",
    [
        ("train", "gate", "unknown config key 'gate'"),
        ("train", "gamma", r"unknown config key 'gamma' in section \[train\]"),
        ("train", "beta", r"unknown config key 'beta' in section \[train\]"),
        ("train", "optimizer", "unknown config key 'optimizer'"),
        ("train", "learning_rate", "unknown config key"),
        ("bogus", "x", r"unknown config section \[bogus\]"),
        ("data", "standardize", r"unknown config key 'standardize' in section \[data\]"),
        ("output", "metrics_every", r"unknown config section \[output\]"),
        ("output", "checkpoint_every", r"unknown config section \[output\]"),
        ("DEFAULT", "steps", r"unknown config section \[DEFAULT\]"),
        pytest.param(
            DEFAULT_BESIDE_TRAIN, None, r"unknown config section \[DEFAULT\]", id="DEFAULT-beside-train"
        ),
    ],
)
def test_unknown_keys_rejected(tmp_path, section, key, message):
    # ``section`` is a whole {section: {key: value}} input where ``key`` is None
    sections = section if key is None else {section: {key: "1"}}
    path = write_ini(tmp_path / "run.ini", sections)
    with pytest.raises(ConfigError, match=message):
        load_run_config(path)


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("train", "steps", "many", "invalid value for 'steps'"),
        ("train", "timing", "maybe", "expected a boolean"),
        ("train", "mode", "adapt", "mode must be one of"),
        ("train", "lam", "nan", "lam must be finite and >= 0"),
        ("train", "lam", "1e39", r"lam must be at most 3.40282e\+38 in float32, got 1e\+39"),
        ("train", "alpha", "-inf", "alpha must be finite and > 0"),
        ("train", "seed", "-1", "seed must be >= 0"),
        ("data", "dataset", "cifar", "dataset must be one of"),
        ("data", "split_seed", "-1", "split_seed must be >= 0"),
    ],
)
def test_bad_values_rejected(tmp_path, section, key, value, message):
    path = write_ini(tmp_path / "run.ini", {section: {key: value}})
    with pytest.raises(ConfigError, match=message):
        load_run_config(path)


def test_a_weight_is_bounded_by_the_runs_dtype():
    TrainConfig(lam=1e39, dtype="float64").validate()
    with pytest.raises(ConfigError, match="lam must be at most"):
        TrainConfig(lam=1e39).validate()


def test_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_run_config(tmp_path / "missing.ini")
    bad = tmp_path / "bad.ini"
    bad.write_text("steps = 3\n")
    with pytest.raises(ConfigError, match="malformed config file"):
        load_run_config(bad)
    with pytest.raises(ConfigError, match="malformed config in checkpoint c.ckpt"):
        parse_run_config("steps = 3\n", source="in checkpoint c.ckpt")


@pytest.mark.skipif(
    codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8",
    reason="config files are read in the locale's encoding",
)
def test_undecodable_file_is_unreadable(tmp_path):
    undecodable = tmp_path / "latin1.ini"
    undecodable.write_bytes(b"[data]\ndir = \xff\n")
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_run_config(undecodable)
