"""The one configuration schema, shared by every CLI subcommand.

HiERO trains one hierarchy and then uses it zero-shot for every task, so the
model settings, the task settings and the toy trainer's settings live in one
flat document. Unknown keys and mistyped values are rejected so typos fail
loudly, and command-line flags win over file values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .dataio import finite_number, load_json
from .errors import ConfigError, SchemaError


@dataclass
class RunConfig:
    # model and graph
    edge_threshold: float = 1.0
    stages: int = 3
    layers: int = 3
    hidden: int = 768
    align_dim: int = 768
    # partitioning and the task heads
    kappa: float = 1.0
    max_nodes: int = 64
    k: int = 2
    k_procedure: int = 7
    k_candidates: int = 7
    min_len: int = 2
    delta: float = 4.0
    depth: int = 1
    # toy trainer: linear warmup then cosine decay, window-based alignment
    epochs: int = 15
    batch_size: int = 8
    lr: float = 1e-5
    warmup_epochs: int = 5
    alpha: float = 1.0
    beta: float = 4.0
    temperature: float = 0.05
    # run
    seed: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Config with the values in ``doc``.

        Every field is an integer or a float. Unknown keys, values whose
        JSON type does not match the type of the field's default, NaN or
        infinite floats and a negative ``seed`` raise ConfigError naming the
        key; integers are accepted for float fields.
        """
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        merged = cls()
        for key, value in doc.items():
            if isinstance(getattr(merged, key), int):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigError(f"{key}: expected an integer")
            else:
                try:
                    value = finite_number(value, key)
                except SchemaError as exc:
                    raise ConfigError(str(exc)) from None
            setattr(merged, key, value)
        if merged.seed < 0:  # numpy's generators take only non-negative seeds
            raise ConfigError(f"seed: must be non-negative, got {merged.seed}")
        return merged

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """``from_dict`` on the JSON document in ``path``; invalid JSON is a
        ConfigError too."""
        try:
            doc = load_json(path)
        except SchemaError as exc:
            raise ConfigError(str(exc)) from exc
        return cls.from_dict(doc)

    def override(self, **updates) -> "RunConfig":
        """``from_dict`` on this config with the non-None updates applied
        (flags win over file)."""
        return self.from_dict({**self.to_dict(),
                               **{key: value for key, value in updates.items()
                                  if value is not None}})
