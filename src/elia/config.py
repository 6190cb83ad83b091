"""Key-value configuration for the pipeline CLI.

The file format is one ``key = value`` pair per line, # starts a comment.
Command-line flags override file values; the API key itself is only ever
read from the environment, never from config or flags.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .core import read_lines
from .errors import ConfigError
from .extraction import DEFAULT_API_KEY_ENV
from .graph import MODES


@dataclass
class Config:
    api_endpoint: str = ""
    api_key_env: str = DEFAULT_API_KEY_ENV
    model_name: str = "text-davinci-003"
    temperature: float = 0.1
    resolution_threshold: float = 0.8
    sampler_seed: int = 0
    concurrency_limit: int = 4
    propagation_mode: str = "full_propagation"

    def __post_init__(self):
        if not 0.0 <= self.temperature <= 2.0:
            raise ConfigError(f"temperature must be in [0, 2], got {self.temperature}")
        if not 0.0 <= self.resolution_threshold <= 1.0:
            raise ConfigError(
                f"resolution_threshold must be in [0, 1], got {self.resolution_threshold}"
            )
        if self.concurrency_limit < 1:
            raise ConfigError("concurrency_limit must be a positive integer")
        if self.propagation_mode not in MODES:
            raise ConfigError(f"unknown propagation_mode: {self.propagation_mode!r}")


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


def load_config(path: str) -> Config:
    values: dict[str, object] = {}
    for lineno, text in read_lines(path, ConfigError):
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, _, raw = text.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        value = _coerce(key, raw, path, lineno)
        try:
            Config(**{key: value})  # each check reads one field; the others keep defaults
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        values[key] = value
    return Config(**values)


def _coerce(key: str, raw: str, path: str, lineno: int):
    kind = _FIELD_TYPES[key]
    try:
        if kind in ("float", float):
            return float(raw)
        if kind in ("int", int):
            return int(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from exc
