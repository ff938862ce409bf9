"""The one configuration schema, shared by every CLI subcommand.

HiERO trains one hierarchy and then uses it zero-shot for every task, so the
model settings, the task settings and the toy trainer's settings live in one
flat document. Unknown keys and mistyped or out-of-range values are rejected
so typos fail loudly, and command-line flags win over file values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .dataio import finite_number, load_json
from .errors import ConfigError, SchemaError


def check_rules(spec, rules) -> None:
    """A ConfigError naming the first field of ``spec`` whose rule does not
    hold; ``rules`` are (field name, rule text, whether it holds) triples."""
    for name, rule, holds in rules:
        if not holds:
            raise ConfigError(f"{name}: must be {rule}, got {getattr(spec, name)}")


@dataclass(frozen=True)
class RunConfig:
    """Checked on construction, so a config that exists is valid and stays
    so: every field is an integer or a finite float (integers are taken for
    float fields, bools for neither), and the trainer's ranges hold."""

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

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(field.default, int):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigError(f"{field.name}: expected an integer")
            else:
                try:
                    object.__setattr__(self, field.name, finite_number(value, field.name))
                except SchemaError as exc:
                    raise ConfigError(str(exc)) from None
        check_rules(self, [
            # numpy's generators take only non-negative seeds
            ("seed", "non-negative", self.seed >= 0),
            ("epochs", ">= 1", self.epochs >= 1),
            ("batch_size", ">= 1", self.batch_size >= 1),
            ("alpha", f"below beta ({self.beta})", self.alpha < self.beta),
            ("temperature", "positive", self.temperature > 0.0),
        ])

    def to_dict(self) -> dict:
        return dict(vars(self))  # every field is a number: no deep copy (asdict) needed

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Config with the values in ``doc``; a document that is no object
        or has unknown keys raises ConfigError, and so does any value the
        constructor refuses."""
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**doc)

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
