"""Run configuration dataclasses and the flat key-value config file format.

Config files are plain text, one ``section.key = value`` assignment per line.
Blank lines and ``#`` comments are ignored. Unknown keys are rejected so that
typos fail loudly instead of silently training with defaults.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


class ConfigError(ValueError):
    pass


@dataclass
class TrainingConfig:
    """Everything that determines a training run; the seed pins it exactly."""

    d_emb: int = 64
    d_hid: int = 64
    d_z: int = 16
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    batch_size: int = 2
    max_epochs: int = 50
    gradient_clip_norm: float = 5.0
    teacher_forcing_ratio: float = 1.0
    kl_anneal_steps: int = 500
    outline_loss_weight: float = 1.0
    outline_k: int = 0  # 0 means per-report default: max(3, ceil(len/8))
    seed: int = 0
    max_news_len: int = 400
    max_outline_len: int = 64
    max_report_len: int = 400
    freeze_outline: bool = False
    checkpoint_every_epochs: int = 0  # 0 means final checkpoint only

    def __post_init__(self):
        for name in ("d_emb", "d_hid", "d_z", "batch_size",
                     "max_news_len", "max_outline_len", "max_report_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.max_epochs < 0:
            raise ConfigError("max_epochs must be >= 0")
        # chained comparisons against inf: NaN fails every one of them
        for name in ("learning_rate", "adam_epsilon", "gradient_clip_norm"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)")
        if not (0.0 <= self.teacher_forcing_ratio <= 1.0):
            raise ConfigError("teacher_forcing_ratio must lie in [0, 1]")
        if self.kl_anneal_steps < 0:
            raise ConfigError("kl_anneal_steps must be >= 0")
        if not 0 <= self.outline_loss_weight < math.inf:
            raise ConfigError("outline_loss_weight must be finite and >= 0")
        if self.outline_k < 0:
            raise ConfigError("outline_k must be >= 0 (0 selects the default rule)")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def kl_weight(self, step: int) -> float:
        """Linear KL anneal from 0 to 1 over the first kl_anneal_steps updates."""
        if self.kl_anneal_steps <= 0:
            return 1.0
        return min(1.0, step / self.kl_anneal_steps)


@dataclass
class DecodeConfig:
    strategy: str = "greedy"  # greedy | beam | sample
    beam_width: int = 4
    temperature: float = 1.0
    max_outline_len: int = 20
    max_report_len: int = 200
    seed: int = 0
    deterministic_latent: bool = True
    record_attention: bool = False

    def __post_init__(self):
        if self.strategy not in ("greedy", "beam", "sample"):
            raise ConfigError(f"unknown decode strategy {self.strategy!r}")
        if self.beam_width < 1:
            raise ConfigError("beam_width must be >= 1")
        if not 0 < self.temperature < math.inf:
            raise ConfigError("temperature must be finite and > 0")
        if self.max_outline_len < 1 or self.max_report_len < 1:
            raise ConfigError("max decode lengths must be >= 1")


# Keys understood by config files and --set overrides. Paths live under data./output.;
# the rest mirror the two dataclasses above, field for field.
_DATA_KEYS = {
    "data.dataset": str,
    "data.vocab": str,
    "data.min_freq": int,
    "data.max_size": int,
    "output.dir": str,
}


def _field_types(cls):
    return {f.name: f.type for f in dataclasses.fields(cls)}


def _coerce(key: str, raw: str, typ) -> object:
    raw = raw.strip()
    if typ in (bool, "bool"):
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if typ in (int, "int"):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if typ in (float, "float"):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    return raw


def known_keys() -> dict[str, object]:
    keys: dict[str, object] = dict(_DATA_KEYS)
    for name, typ in _field_types(TrainingConfig).items():
        keys[f"training.{name}"] = typ
    for name, typ in _field_types(DecodeConfig).items():
        keys[f"decode.{name}"] = typ
    return keys


def parse_config_lines(lines, source: str = "<config>") -> dict[str, object]:
    """Parse ``section.key = value`` lines into a typed flat dict."""
    keys = known_keys()
    values: dict[str, object] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, raw, keys[key])
    return values


def load_config_file(path) -> dict[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_lines(fh, source=str(path))


def apply_overrides(values: dict[str, object], assignments) -> dict[str, object]:
    """Apply ``key=value`` strings (CLI --set) on top of file values."""
    keys = known_keys()
    out = dict(values)
    for item in assignments or ():
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r}")
        out[key] = _coerce(key, raw, keys[key])
    return out


def training_config_from(values: dict[str, object]) -> TrainingConfig:
    kwargs = {}
    for name in _field_types(TrainingConfig):
        key = f"training.{name}"
        if key in values:
            kwargs[name] = values[key]
    return TrainingConfig(**kwargs)


def decode_config_from(values: dict[str, object]) -> DecodeConfig:
    kwargs = {}
    for name in _field_types(DecodeConfig):
        key = f"decode.{name}"
        if key in values:
            kwargs[name] = values[key]
    return DecodeConfig(**kwargs)
