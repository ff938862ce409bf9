"""Run configuration shared by every CLI subcommand.

A single flat JSON document mirrors every module default; unknown keys and
mistyped values are rejected so typos fail loudly, and command-line flags win
over file values. The same checks load the training config.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .errors import ConfigError


@dataclass
class RunConfig:
    edge_threshold: float = 1.0
    stages: int = 3
    layers: int = 3
    hidden: int = 768
    align_dim: int = 768
    kappa: float = 1.0
    max_nodes: int = 64
    min_len: int = 2
    k_threads: int = 2
    k_procedure: int = 7
    k_candidates: int = 7
    delta: float = 4.0
    depth: int = 1
    seed: int = 0
    jobs: int = 1

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        return config_from_dict(cls, doc)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return config_from_file(cls, path)

    def override(self, **updates) -> "RunConfig":
        """New config with non-None updates applied (flags win over file)."""
        out = dataclasses.replace(self)
        for key, value in updates.items():
            if value is None:
                continue
            if not hasattr(out, key):
                raise ConfigError(f"unknown config key: {key}")
            setattr(out, key, value)
        return out


def config_from_dict(cls, doc: dict):
    """Instance of the config dataclass ``cls`` with the values in ``doc``.

    Unknown keys, and values whose JSON type does not match the type of the
    field's default, raise ConfigError naming the key; integers are accepted
    for float fields.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    merged = cls()
    for key, value in doc.items():
        default = getattr(merged, key)
        if isinstance(default, bool):
            if not isinstance(value, bool):
                raise ConfigError(f"{key}: expected a boolean")
        elif isinstance(default, int):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{key}: expected an integer")
        elif isinstance(default, float):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{key}: expected a number")
            value = float(value)
        setattr(merged, key, value)
    return merged


def config_from_file(cls, path):
    """``config_from_dict`` on the JSON document in ``path``; invalid JSON is
    a ConfigError too."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(cls, doc)
