"""Run configuration: key=value config files with CLI-flag override precedence."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, fields, asdict

from .artifacts import read_text
from .model import ConfigError, TrainingConfig


@dataclass
class RunConfig(TrainingConfig):
    """The training hyperparameters plus file locations and explain's ``top_k``."""

    train_path: str = ""
    valid_path: str = ""
    test_path: str = ""
    rules_path: str = ""
    output_dir: str = "out"
    top_k: int = 3

    def validate(self) -> None:
        super().validate()
        if self.top_k < 1:
            raise ConfigError("top_k must be at least 1")

    def path_for(self, name: str) -> str:
        return os.path.join(self.output_dir, name)


# Every option, config-file key and flag alike, with its type name.
FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


# Value parser per field type, shared by config files and command-line flags.
PARSERS = {"int": int, "float": float, "str": str}


def _coerce(name: str, raw: str, where: str):
    kind = FIELD_TYPES[name]
    try:
        return PARSERS[kind](raw)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {name}={raw!r} as {kind}") from None


# A comment starts at a ``#`` that opens the line or follows whitespace; any
# other ``#`` is part of the value, as in ``output_dir = runs/a#1``.
_COMMENT = re.compile(r"(?:^|\s)#")


def apply_config_file(cfg: RunConfig, path: str | os.PathLike) -> None:
    for lineno, line in enumerate(read_text(path, ConfigError).split("\n"), start=1):
        line = _COMMENT.split(line, 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in FIELD_TYPES:
            raise ConfigError(f"{where}: unknown option {key!r}")
        setattr(cfg, key, _coerce(key, raw.strip(), where))


def write_resolved_config(cfg: RunConfig, path: str | os.PathLike) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in asdict(cfg).items():
            fh.write(f"{key} = {value}\n")
