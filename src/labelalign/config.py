"""Run configuration: INI-style ``key = value`` sections, strictly validated.

Unknown sections or keys are hard errors; a silent hyperparameter typo would
invalidate a reproduction.  The effective configuration (defaults plus file
plus CLI overrides) can be re-rendered to text: feeding that echo back in
reproduces the run bitwise.  That echo text is the one serialized form of a
run's configuration; checkpoints store it verbatim and ``eval`` parses it
with the same rules as a config file.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from pathlib import Path

from .training import ConfigError, TrainConfig

DATASETS = ("synthetic", "mnist-usps")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got '{text}'")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# section -> key -> (type tag, default); [train] mirrors TrainConfig, whose
# annotations are the type-tag strings under postponed evaluation
_SCHEMA = {
    "train": {f.name: (f.type, f.default) for f in fields(TrainConfig)},
    "data": {
        "dataset": ("str", "synthetic"),
        "dir": ("str", "data"),
        "split_seed": ("int", 0),
    },
}

# the standard MNIST and USPS file names, relative to [data] dir
DATA_FILES = {
    "mnist_train_images": "mnist/train-images-idx3-ubyte.gz",
    "mnist_train_labels": "mnist/train-labels-idx1-ubyte.gz",
    "mnist_test_images": "mnist/t10k-images-idx3-ubyte.gz",
    "mnist_test_labels": "mnist/t10k-labels-idx1-ubyte.gz",
    "usps_train": "usps/usps.bz2",
    "usps_test": "usps/usps.t.bz2",
}

_PARSERS = {"float": float, "int": int, "str": str, "bool": _parse_bool}


@dataclass
class RunConfig:
    train: TrainConfig
    data: dict

    def sections(self) -> dict[str, dict[str, str]]:
        """Every schema value rendered as text, ``{section: {key: value}}``."""
        values = {"train": vars(self.train), "data": self.data}
        return {
            section: {key: _fmt(values[section][key]) for key in keys}
            for section, keys in _SCHEMA.items()
        }

    def echo_text(self) -> str:
        """Canonical INI rendering of the full effective configuration."""
        lines = []
        for section, values in self.sections().items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in values.items())
            lines.append("")
        return "\n".join(lines)

    def data_path(self, name: str) -> Path:
        """Where the ``DATA_FILES`` entry ``name`` lives under ``[data] dir``."""
        return Path(self.data["dir"]) / DATA_FILES[name]


def parse_sections(raw: dict[str, dict[str, str]]) -> RunConfig:
    """Validate ``{section: {key: raw string}}`` against the schema; keys not
    given take their defaults."""
    for section, values in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in values:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key '{key}' in section [{section}]")

    parsed: dict[str, dict] = {}
    for section, keys in _SCHEMA.items():
        given = raw.get(section, {})
        parsed[section] = {}
        for key, (tag, default) in keys.items():
            if key not in given:
                parsed[section][key] = default
                continue
            try:
                parsed[section][key] = _PARSERS[tag](given[key])
            except ValueError as exc:
                raise ConfigError(f"invalid value for '{key}' in [{section}]: {exc}") from exc

    if parsed["data"]["dataset"] not in DATASETS:
        raise ConfigError(
            f"dataset must be one of {DATASETS}, got '{parsed['data']['dataset']}'"
        )
    if parsed["data"]["split_seed"] < 0:
        raise ConfigError(f"split_seed must be >= 0, got {parsed['data']['split_seed']}")
    return RunConfig(train=TrainConfig(**parsed["train"]).validate(), data=parsed["data"])


def parse_run_config(text: str, overrides: dict | None = None, source: str = "text") -> RunConfig:
    """Parse and validate INI config text; ``overrides`` maps (section, key)
    to raw string values (the CLI flags --seed and --data-dir).  ``source``
    names the text in the malformed-config message."""
    # no default section: configparser would fold a [DEFAULT] section's keys
    # into every section; as "" can name no section, [DEFAULT] is refused as
    # an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {source}: {exc}") from exc

    raw = {section: dict(parser.items(section)) for section in parser.sections()}
    for (section, key), value in (overrides or {}).items():
        raw.setdefault(section, {})[key] = value
    return parse_sections(raw)


def load_run_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a config file; see :func:`parse_run_config`."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_run_config(text, overrides, f"file {path}")
