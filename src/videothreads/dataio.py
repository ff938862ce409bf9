"""File formats: binary feature sequences plus JSON narrations, taxonomies,
annotations, and predictions.

The binary feature layout is fixed and framework-neutral:

    bytes 0..7   magic "HIEROFT1"
    u32 LE       N  (segment count)
    u32 LE       D  (feature dimension)
    f64 LE       segment duration in seconds
    N x f64 LE   timestamps (segment start times, strictly increasing)
    N*D x f32 LE features, row-major

The video id is not stored; readers take it from the file name. All JSON
documents are UTF-8 with schemas validated field by field; writing then
reading any value reproduces it bit-exactly (features are kept at f32
precision for that reason).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    PayloadShapeError,
    SchemaError,
    TimestampOrderError,
    TruncatedFileError,
)

FEATURE_MAGIC = b"HIEROFT1"
DEFAULT_SEGMENT_DURATION = 16.0 / 30.0  # 16-frame windows, stride 16, at 30 fps


@dataclass(frozen=True, eq=False)
class FeatureSequence:
    """Timestamped D-dimensional embeddings for one video."""

    video_id: str
    timestamps: np.ndarray
    features: np.ndarray
    segment_duration: float = DEFAULT_SEGMENT_DURATION

    def __post_init__(self):
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=np.float64))
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        if self.features.ndim != 2:
            raise SchemaError("features", "must be a 2-D array")
        if self.timestamps.shape[0] != self.features.shape[0]:
            raise SchemaError("timestamps", "length must equal feature rows")
        if self.timestamps.size and self.timestamps[0] < 0.0:
            raise SchemaError("timestamps", "must be non-negative")
        if self.timestamps.size > 1 and not np.all(np.diff(self.timestamps) > 0.0):
            raise TimestampOrderError("timestamps must be strictly increasing")

    @property
    def num_segments(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])


@dataclass(frozen=True)
class Narration:
    text: str
    timestamp: float
    embedding: np.ndarray


@dataclass(frozen=True)
class NarrationSet:
    """Timestamped textual descriptions with their text embeddings."""

    items: tuple[Narration, ...]

    def __post_init__(self):
        dims = {item.embedding.shape[0] for item in self.items}
        if len(dims) > 1:
            raise SchemaError("items", f"embeddings have mixed dimensions {sorted(dims)}")
        for i, item in enumerate(self.items):
            if item.timestamp < 0.0:
                raise SchemaError(f"items[{i}].timestamp", "must be non-negative")

    def __len__(self) -> int:
        return len(self.items)

    def timestamps(self) -> np.ndarray:
        return np.array([item.timestamp for item in self.items], dtype=np.float64)

    def embeddings(self) -> np.ndarray:
        if not self.items:
            return np.zeros((0, 0))
        return np.stack([item.embedding for item in self.items]).astype(np.float64)


@dataclass(frozen=True, eq=False)
class Taxonomy:
    """Step labels with one text embedding row per label."""

    labels: tuple[str, ...]
    embeddings: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "embeddings", np.asarray(self.embeddings, dtype=np.float64))
        if self.embeddings.ndim != 2 or self.embeddings.shape[0] != len(self.labels):
            raise SchemaError("embeddings", "row count must equal label count")
        norms = np.linalg.norm(self.embeddings, axis=1)
        dead = np.flatnonzero(norms == 0.0)
        if dead.size:
            raise SchemaError(f"embeddings[{int(dead[0])}]", "zero-norm embedding row")


@dataclass(frozen=True)
class StepAnnotation:
    """Ground-truth step intervals; label None marks background."""

    intervals: tuple[tuple[float, float, int | None], ...]

    def __post_init__(self):
        for i, (start, end, _label) in enumerate(self.intervals):
            if not start < end:
                raise SchemaError(f"intervals[{i}]", f"start {start} must be < end {end}")


@dataclass(frozen=True)
class StepPrediction:
    """A predicted step: (start, end) seconds, optional label index, score."""

    start: float
    end: float
    label: int | None
    score: float

    def __post_init__(self):
        if not self.start < self.end:
            raise SchemaError("prediction", f"start {self.start} must be < end {self.end}")


# ---------------------------------------------------------------------------
# binary feature files


def write_feature_file(path, seq: FeatureSequence) -> None:
    timestamps = np.ascontiguousarray(seq.timestamps, dtype="<f8")
    features = np.ascontiguousarray(seq.features, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IId", seq.num_segments, seq.dim, seq.segment_duration))
        fh.write(timestamps.tobytes())
        fh.write(features.tobytes())


def read_feature_file(path) -> FeatureSequence:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < len(FEATURE_MAGIC) or raw[: len(FEATURE_MAGIC)] != FEATURE_MAGIC:
        raise BadMagicError(f"{path}: not a feature file (bad magic)")
    header_end = len(FEATURE_MAGIC) + struct.calcsize("<IId")
    if len(raw) < header_end:
        raise TruncatedFileError(f"{path}: header truncated")
    n, d, segment_duration = struct.unpack_from("<IId", raw, len(FEATURE_MAGIC))
    expected = header_end + 8 * n + 4 * n * d
    if len(raw) < expected:
        raise TruncatedFileError(
            f"{path}: payload holds {len(raw) - header_end} bytes, header needs {expected - header_end}"
        )
    if len(raw) > expected:
        raise PayloadShapeError(f"{path}: {len(raw) - expected} trailing bytes beyond N x D payload")
    timestamps = np.frombuffer(raw, dtype="<f8", count=n, offset=header_end)
    features = np.frombuffer(raw, dtype="<f4", count=n * d, offset=header_end + 8 * n)
    return FeatureSequence(
        video_id=path.stem,
        timestamps=timestamps.astype(np.float64),
        features=features.reshape(n, d).astype(np.float64),
        segment_duration=segment_duration,
    )


# ---------------------------------------------------------------------------
# JSON documents


def _require(doc: dict, key: str, kind, path: str):
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    if key not in doc:
        raise SchemaError(f"{path}.{key}" if path else key, "missing")
    value = doc[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{path}.{key}" if path else key, "expected a number")
        return float(value)
    if not isinstance(value, kind):
        raise SchemaError(f"{path}.{key}" if path else key, f"expected {kind.__name__}")
    return value


def _vector(values, path: str) -> np.ndarray:
    if not isinstance(values, list) or not values:
        raise SchemaError(path, "expected a non-empty number array")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaError(path, "expected a non-empty number array")
    return np.array(values, dtype=np.float64)


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(str(path), f"invalid JSON ({exc})") from exc


def _dump_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_narrations(path) -> NarrationSet:
    doc = _load_json(path)
    items = _require(doc, "items", list, "")
    parsed = []
    for i, item in enumerate(items):
        where = f"items[{i}]"
        text = _require(item, "text", str, where)
        timestamp = _require(item, "timestamp", float, where)
        embedding = _vector(_require(item, "embedding", list, where), f"{where}.embedding")
        parsed.append(Narration(text, timestamp, embedding))
    return NarrationSet(tuple(parsed))


def write_narrations(path, narrations: NarrationSet) -> None:
    _dump_json(path, {
        "items": [
            {"text": n.text, "timestamp": n.timestamp, "embedding": list(map(float, n.embedding))}
            for n in narrations.items
        ]
    })


def read_taxonomy(path) -> Taxonomy:
    doc = _load_json(path)
    labels = _require(doc, "labels", list, "")
    rows = _require(doc, "embeddings", list, "")
    if len(labels) != len(rows):
        raise SchemaError("embeddings", "row count must equal label count")
    for i, label in enumerate(labels):
        if not isinstance(label, str):
            raise SchemaError(f"labels[{i}]", "expected a string")
    matrix = [_vector(row, f"embeddings[{i}]") for i, row in enumerate(rows)]
    return Taxonomy(tuple(labels), np.stack(matrix) if matrix else np.zeros((0, 0)))


def write_taxonomy(path, taxonomy: Taxonomy) -> None:
    _dump_json(path, {
        "labels": list(taxonomy.labels),
        "embeddings": [list(map(float, row)) for row in taxonomy.embeddings],
    })


def read_annotations(path) -> StepAnnotation:
    doc = _load_json(path)
    raw = _require(doc, "intervals", list, "")
    intervals = []
    for i, item in enumerate(raw):
        where = f"intervals[{i}]"
        start = _require(item, "start", float, where)
        end = _require(item, "end", float, where)
        label = item.get("label") if isinstance(item, dict) else None
        if label is not None and (isinstance(label, bool) or not isinstance(label, int)):
            raise SchemaError(f"{where}.label", "expected an integer or null")
        if not start < end:
            raise SchemaError(where, f"start {start} must be < end {end}")
        intervals.append((start, end, label))
    return StepAnnotation(tuple(intervals))


def write_annotations(path, annotation: StepAnnotation) -> None:
    _dump_json(path, {
        "intervals": [
            {"start": start, "end": end, "label": label}
            for start, end, label in annotation.intervals
        ]
    })


def read_predictions(path) -> list[StepPrediction]:
    doc = _load_json(path)
    raw = _require(doc, "predictions", list, "")
    out = []
    for i, item in enumerate(raw):
        where = f"predictions[{i}]"
        start = _require(item, "start", float, where)
        end = _require(item, "end", float, where)
        score = _require(item, "score", float, where)
        label = item.get("label")
        if label is not None and (isinstance(label, bool) or not isinstance(label, int)):
            raise SchemaError(f"{where}.label", "expected an integer or null")
        out.append(StepPrediction(start, end, label, score))
    return out


def write_predictions(path, predictions: list[StepPrediction]) -> None:
    _dump_json(path, {
        "predictions": [
            {"start": p.start, "end": p.end, "label": p.label, "score": p.score}
            for p in predictions
        ]
    })


def read_object(path, *keys: str) -> dict:
    """The JSON object in ``path``, checked to hold every key in ``keys``; a
    SchemaError names the file and the missing field otherwise."""
    doc = _load_json(path)
    for key in keys:
        if not isinstance(doc, dict) or key not in doc:
            raise SchemaError(f"{path}: {key}", "missing")
    return doc
