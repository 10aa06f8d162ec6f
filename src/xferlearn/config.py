"""Flat key=value config files with CLI flag overrides.

Unknown keys are rejected; the fully resolved config is echoed into the
run's output directory so every run can be reproduced from its artifacts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, asdict
from pathlib import Path

from .layers import PRESETS
from .trainer import METHODS, TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class Config(TrainConfig):
    experiment: str = "digits"  # a key of layers.PRESETS
    output_dir: str = "runs/default"
    source_images: str = ""
    source_labels: str = ""
    target_images: str = ""
    target_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    checkpoint: str = ""
    seeds: tuple[int, ...] = (0, 1, 2)
    k_values: tuple[int, ...] = (2, 5)
    methods: tuple[str, ...] = ("target_only", "fine_tune", "full")  # among trainer.METHODS
    source_classes: tuple[int, ...] = ()
    target_classes: tuple[int, ...] = ()
    source_subsample: int = 0  # cap on source training images, 0 = all

    def __post_init__(self):
        super().__post_init__()
        if self.experiment not in PRESETS:
            raise ValueError(f"experiment must be one of {', '.join(PRESETS)}, "
                             f"got {self.experiment!r}")
        if not self.output_dir:
            raise ValueError("output_dir must name a directory, got an empty path")
        if not self.methods:
            raise ValueError("methods must name at least one method")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"methods must be among {', '.join(METHODS)}, got {unknown}")
        if self.source_subsample < 0:
            raise ValueError(f"source_subsample must be >= 0, got {self.source_subsample}")
        if not self.seeds:
            raise ValueError("seeds must name at least one seed")
        if any(s < 0 for s in self.seeds):
            raise ValueError(f"seeds must all be >= 0, got {self.seeds}")
        for key in ("seeds", "k_values", "methods", "source_classes", "target_classes"):
            values = getattr(self, key)
            if len(set(values)) < len(values):
                raise ValueError(f"{key} must not repeat a value, got {values}")
        if not self.k_values:
            raise ValueError("k_values must name at least one k")
        if any(k < 1 for k in self.k_values):
            raise ValueError(f"k_values must all be >= 1, got {self.k_values}")


def _parse_value(name: str, raw: str, kind: str):
    """``raw`` read as the type its field is annotated with, ``kind``."""
    raw = raw.strip()
    # dump_config's one key=value line must read back: no comment, no line
    # break, and no surrogate, which UTF-8 cannot encode
    if "#" in raw or len(raw.splitlines()) > 1 or re.search("[\ud800-\udfff]", raw):
        raise ConfigError(f"{name}: a value cannot hold '#', a line break or a "
                          f"character outside UTF-8, got {raw!r}")
    if kind.startswith("tuple["):
        parts = tuple(p.strip() for p in raw.split(",") if p.strip())
        if kind == "tuple[str, ...]":
            return parts
        try:
            return tuple(int(p) for p in parts)
        except ValueError as e:
            raise ConfigError(f"{name}: expected comma-separated integers, got {raw!r}") from e
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    if kind == "int":
        try:
            return int(raw)
        except ValueError as e:
            raise ConfigError(f"{name}: expected an integer, got {raw!r}") from e
    if kind in ("float", "float | None"):
        if not raw and kind == "float | None":
            return None  # dump_config writes None as empty
        try:
            return float(raw)
        except ValueError as e:
            raise ConfigError(f"{name}: expected a number, got {raw!r}") from e
    return raw


def load_config(path=None, overrides=None) -> Config:
    """Build a Config from an optional file plus --key value overrides."""
    kinds = {f.name: f.type for f in fields(Config)}
    values = {}

    def ingest(key, raw, where):
        if key not in kinds:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        values[key] = _parse_value(key, raw, kinds[key])

    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config file {path}: {e}") from e
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, raw = line.split("=", 1)
            ingest(key.strip(), raw, f"{path}:{lineno}")

    for key, raw in (overrides or {}).items():
        ingest(key, raw, "command line")

    try:
        return Config(**values)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


def dump_config(cfg: Config) -> str:
    lines = []
    for key, value in asdict(cfg).items():
        if isinstance(value, (tuple, list)):
            value = ",".join(str(v) for v in value)
        elif value is None:
            value = ""
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"
