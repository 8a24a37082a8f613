"""Run configuration: key=value config files with CLI-flag override precedence."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, asdict

from .artifacts import read_text
from .model import TrainingConfig


# The rule file formats ``rules_format`` takes, shared with the --rules-format flag.
RULES_FORMATS = ("normalized", "amie")


class RunConfigError(ValueError):
    """Bad config file or inconsistent option values."""


@dataclass
class RunConfig(TrainingConfig):
    """The training hyperparameters plus file locations and explain's ``top_k``."""

    train_path: str = ""
    valid_path: str = ""
    test_path: str = ""
    rules_path: str = ""
    rules_format: str = "normalized"  # one of RULES_FORMATS
    output_dir: str = "out"
    top_k: int = 3

    def validate(self) -> None:
        super().validate()
        if self.rules_format not in RULES_FORMATS:
            raise RunConfigError(
                f"rules_format must be one of {', '.join(RULES_FORMATS)}, got {self.rules_format!r}"
            )
        if self.top_k < 1:
            raise RunConfigError("top_k must be at least 1")

    def training_config(self) -> TrainingConfig:
        cfg = TrainingConfig(**{f.name: getattr(self, f.name) for f in fields(TrainingConfig)})
        cfg.validate()
        return cfg

    def path_for(self, name: str) -> str:
        return os.path.join(self.output_dir, name)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


# Value parser per field type, shared by config files and command-line flags.
PARSERS = {"int": int, "float": float, "str": str}


def _coerce(name: str, raw: str, where: str):
    kind = _FIELD_TYPES[name]
    try:
        return PARSERS[kind](raw)
    except ValueError:
        raise RunConfigError(f"{where}: cannot parse {name}={raw!r} as {kind}") from None


def load_config_file(path: str | os.PathLike) -> RunConfig:
    cfg = RunConfig()
    apply_config_file(cfg, path)
    return cfg


def apply_config_file(cfg: RunConfig, path: str | os.PathLike) -> None:
    for lineno, line in enumerate(read_text(path, RunConfigError).split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise RunConfigError(f"{where}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise RunConfigError(f"{where}: unknown option {key!r}")
        setattr(cfg, key, _coerce(key, raw.strip(), where))


def write_resolved_config(cfg: RunConfig, path: str | os.PathLike) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in asdict(cfg).items():
            fh.write(f"{key} = {value}\n")
