"""File formats: binary feature sequences plus the JSON documents the
library and the CLI read.

Both binary files, feature sequences here and model parameters in
``model``, share one frame (``write_frame``, ``read_frame``): magic bytes, a
``struct`` header, then exactly the payload the header declares. The binary
feature layout is fixed and framework-neutral:

    bytes 0..7   magic "HIEROFT1"
    u32 LE       N  (segment count)
    u32 LE       D  (feature dimension)
    f64 LE       segment duration in seconds
    N x f64 LE   timestamps (segment start times, strictly increasing)
    N*D x f32 LE features, row-major

The video id is not stored; readers take it from the file name. Each JSON
document has one typed reader, which validates it field by field and names
the file and the field in a SchemaError: narrations, taxonomies, annotations,
predictions, and the CLI's query, MCQ question, label predictions, grounding
queries and MCQ results. All are UTF-8; writing then reading any value a
container accepts reproduces it bit-exactly (features are kept at f32
precision for that reason), and a container refuses what its file cannot hold.
``read_corpus`` reads a training directory of feature and narration file pairs.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _floatrepr
from .errors import (
    BadMagicError,
    PayloadShapeError,
    SchemaError,
    TimestampOrderError,
    TruncatedFileError,
)

FEATURE_MAGIC = b"HIEROFT1"
MCQ_CHOICES = 5  # candidate clips per MCQ question
DEFAULT_SEGMENT_DURATION = 16.0 / 30.0  # 16-frame windows, stride 16, at 30 fps


@dataclass(frozen=True, eq=False)
class FeatureSequence:
    """Timestamped D-dimensional embeddings for one video: at least one
    segment and one feature column, every feature finite at the f32
    precision a feature file stores. It holds read-only copies of its
    arrays, so no later write, into them or into the caller's arrays, can
    undo the check."""

    video_id: str
    timestamps: np.ndarray
    features: np.ndarray
    segment_duration: float = DEFAULT_SEGMENT_DURATION

    def __post_init__(self):
        object.__setattr__(self, "timestamps", _frozen(self.timestamps))
        features = np.asarray(self.features)
        if features.ndim != 2 or 0 in features.shape:
            raise SchemaError("features", "must be a 2-D array of at least one row and column")
        if self.timestamps.shape[0] != features.shape[0]:
            raise SchemaError("timestamps", "length must equal feature rows")
        with np.errstate(over="ignore", invalid="ignore"):  # beyond the f32 range: infinite
            _finite_rows(features.astype(np.float32, copy=False), "features[{}]")
        object.__setattr__(self, "features", _frozen(features))
        _check_timeline(self.timestamps, self.segment_duration)

    @property
    def num_segments(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])


@dataclass(frozen=True, eq=False)
class NarrationSet:
    """Timestamped textual descriptions as three columns: the texts, their
    finite, non-negative times (n,) and their text embeddings (n, d), d >= 1,
    or (0, 0) when empty, each row with a finite squared norm. The arrays
    are read-only copies, as in ``FeatureSequence``."""

    texts: tuple[str, ...]
    timestamps: np.ndarray
    embeddings: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "timestamps", _frozen(self.timestamps))
        object.__setattr__(self, "embeddings", _frozen(self.embeddings))
        n = len(self.texts)
        width = self.embeddings.shape[-1] if self.embeddings.ndim else 0
        if (self.timestamps.shape != (n,) or self.embeddings.shape != (n, width)
                or (n > 0) != (width > 0)):
            raise SchemaError("items", "need one timestamp and one non-empty embedding row per text")
        bad = np.flatnonzero(~((self.timestamps >= 0.0) & (self.timestamps < math.inf)))
        if bad.size:
            raise SchemaError(f"items[{int(bad[0])}].timestamp", "must be finite and non-negative")
        _finite_rows(self.embeddings, "items[{}].embedding", _TEXT_ROW)

    def __len__(self) -> int:
        return len(self.texts)


@dataclass(frozen=True, eq=False)
class Taxonomy:
    """At least one step label, with one text embedding row per label, each
    with a finite, non-zero squared norm. The rows are a read-only copy, as
    in ``FeatureSequence``."""

    labels: tuple[str, ...]
    embeddings: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "embeddings", _frozen(self.embeddings))
        if self.embeddings.ndim != 2 or self.embeddings.shape[0] != len(self.labels):
            raise SchemaError("embeddings", "row count must equal label count")
        if not self.labels:
            raise SchemaError("labels", "a taxonomy needs at least one label")
        dead = np.flatnonzero(_finite_rows(self.embeddings, "embeddings[{}]", _TEXT_ROW) == 0.0)
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


@dataclass(frozen=True, eq=False)
class McqQuestion:
    """A query, candidate clip paths, their spans, and the answer keys given."""

    path: Path
    query: np.ndarray
    candidates: tuple[Path, ...]
    spans: list[tuple[float, float]] | None
    answer: dict

    def read_candidates(self) -> list[FeatureSequence]:
        """The candidate feature files, which must share one feature width."""
        clips = [read_feature_file(p) for p in self.candidates]
        require_constant_dim(clips, f"{self.path}: candidates")
        return clips


def _frozen(values) -> np.ndarray:
    """A read-only float64 copy of ``values``: it shares no memory with the
    caller's array, whose flags stay as they were."""
    held = np.array(values, dtype=np.float64)
    held.setflags(write=False)
    return held


def _finite_rows(rows: np.ndarray, where: str, reason: str = "must be finite") -> np.ndarray:
    """Each row's (a vector's) float64 squared norm; a SchemaError naming
    ``where.format(r)`` for the first row r where it is not finite: a NaN,
    an infinity or, in no f32 row, an overflow."""
    with np.errstate(over="ignore"):  # an overflowing square is infinite, as the check needs
        squares = np.square(rows, dtype=np.float64).sum(axis=-1)
    bad = np.flatnonzero(~np.isfinite(squares))
    if bad.size:
        raise SchemaError(where.format(int(bad[0])), reason)
    return squares


_TEXT_ROW = "must be finite, with a finite squared norm"  # the cosine scorers divide by its root


def _check_timeline(timestamps: np.ndarray, segment_duration: float) -> None:
    """Start times are finite, non-negative and strictly increasing; the duration is positive."""
    if timestamps.size and not (timestamps[0] >= 0.0 and timestamps[-1] < math.inf):
        raise SchemaError("timestamps", "must be finite and non-negative")
    if not np.all(np.diff(timestamps) > 0.0):
        raise TimestampOrderError("timestamps", "must be strictly increasing")
    if not 0.0 < segment_duration < math.inf:
        raise SchemaError("segment_duration", f"must be positive and finite, got {segment_duration}")


def require_constant_dim(sequences, where: str = "features") -> None:
    """A SchemaError naming ``where`` unless all sequences share one width."""
    dims = {seq.dim for seq in sequences}
    if len(dims) > 1:
        raise SchemaError(where, f"mixed feature dimensions across videos: {sorted(dims)}")


# ---------------------------------------------------------------------------
# binary files: feature sequences here, model parameters in ``model``


def write_frame(path, magic: bytes, header: str, fields: tuple, *payload: np.ndarray) -> None:
    """The one binary frame of this package's files: ``magic``, then
    ``fields`` packed by the ``struct`` format ``header``, then the bytes of
    each ``payload`` array in turn."""
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack(header, *fields))
        for block in payload:
            fh.write(block.tobytes())


def read_frame(path, magic: bytes, kind: str, header: str, payload_size) -> tuple[tuple, memoryview]:
    """The header fields and the payload of the ``write_frame`` file
    ``path``, whose payload must hold exactly ``payload_size(*fields)``
    bytes. A DataError names the file: BadMagicError for other leading
    bytes (the file is no ``kind`` file), TruncatedFileError for a header or
    payload cut short, PayloadShapeError for bytes beyond the payload."""
    raw = Path(path).read_bytes()
    if raw[:len(magic)] != magic:
        raise BadMagicError(f"{path}: not a {kind} file (bad magic)")
    start = len(magic) + struct.calcsize(header)
    if len(raw) < start:
        raise TruncatedFileError(f"{path}: header truncated")
    fields = struct.unpack_from(header, raw, len(magic))
    held, needed = len(raw) - start, payload_size(*fields)
    if held < needed:
        raise TruncatedFileError(f"{path}: payload holds {held} bytes, header needs {needed}")
    if held > needed:
        raise PayloadShapeError(f"{path}: {held - needed} trailing bytes beyond the header's payload")
    return fields, memoryview(raw)[start:]


_FEATURE_HEADER = "<IId"  # N, D, segment duration


def write_feature_file(path, seq: FeatureSequence) -> None:
    write_frame(path, FEATURE_MAGIC, _FEATURE_HEADER,
                (seq.num_segments, seq.dim, seq.segment_duration),
                np.asarray(seq.timestamps, dtype="<f8"), np.asarray(seq.features, dtype="<f4"))


def read_feature_file(path) -> FeatureSequence:
    path = Path(path)
    (n, d, segment_duration), payload = read_frame(path, FEATURE_MAGIC, "feature", _FEATURE_HEADER,
                                                   lambda n, d, _: 8 * n + 4 * n * d)
    if n == 0 or d == 0:
        raise PayloadShapeError(f"{path}: header declares {n} segments of {d} features; "
                                "a feature file needs at least one of each")
    timestamps = np.frombuffer(payload, dtype="<f8", count=n)
    features = np.frombuffer(payload, dtype="<f4", offset=8 * n)
    try:
        return FeatureSequence(path.stem, timestamps, features.reshape(n, d), segment_duration)
    except SchemaError as exc:  # name the file, keep the error class
        raise type(exc)(f"{path}: {exc.field}", exc.reason) from None


# ---------------------------------------------------------------------------
# JSON documents


_KINDS = {str: "a string", list: "a list", int: "an integer"}


def _field(doc, key: str, kind=None, path: str = ""):
    """``doc[key]``, ``doc`` being the object at ``path``: any value for no ``kind``,
    a finite float for float, else of a type in ``_KINDS`` (a bool is no int).
    A SchemaError names ``path`` if ``doc`` is no object, else ``path.key``."""
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    where = f"{path}.{key}" if path else key
    if key not in doc:
        raise SchemaError(where, "missing")
    value = doc[key]
    if kind is float:
        return finite_number(value, where)
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise SchemaError(where, f"expected {_KINDS[kind]}")
    return value


def _interval(start: float, end: float, path: str) -> tuple[float, float]:
    """A (start, end) span in seconds; the start must not be after the end."""
    if start > end:
        raise SchemaError(path, f"start {start} is after end {end}")
    return start, end


def _label(item: dict, where: str) -> int | None:
    """The item's optional step label: an integer, or null for background."""
    label = item.get("label")
    if label is not None and (isinstance(label, bool) or not isinstance(label, int)
                              or not -2**63 <= label < 2**63):
        raise SchemaError(f"{where}.label", "expected an int64 integer or null")
    return label


def finite_number(value, path: str) -> float:
    """A JSON number (not a bool) as a finite float, or a SchemaError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, "expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        raise SchemaError(path, "number out of range") from None
    if not math.isfinite(number):  # json.load reads NaN, Infinity and 1e400
        raise SchemaError(path, f"expected a finite number, got {number}")
    return number


def _vector(values, path: str, kind=float) -> np.ndarray:
    """A non-empty JSON list of finite numbers (``kind`` float) or of
    integers (``kind`` int; bools are neither) as a float64 or int64 array."""
    allowed, dtype, what = (((int, float), np.float64, "number") if kind is float
                            else (int, np.int64, "integer"))
    if not isinstance(values, list) or not values or not _all_of(values, allowed):
        raise SchemaError(path, f"expected a non-empty {what} array")
    try:
        array = np.array(values, dtype=dtype)
    except OverflowError:  # an integer beyond the float or int64 range
        raise SchemaError(path, f"{what} out of range") from None
    bad = np.flatnonzero(~np.isfinite(array))
    if bad.size:
        raise SchemaError(f"{path}[{int(bad[0])}]", f"expected a finite number, got {array[bad[0]]}")
    return array


def _all_of(values, allowed) -> bool:
    """Whether every value is of a type in ``allowed`` and none is a bool,
    by one scan over the values' types."""
    return all(issubclass(t, allowed) and not issubclass(t, bool) for t in set(map(type, values)))


def load_json(path):
    """The JSON value in ``path``; invalid JSON is a SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a syntax error, bytes that are not UTF-8, a huge integer
            raise SchemaError(str(path), f"invalid JSON ({exc})") from exc


@contextmanager
def _fields_of(path):
    """The JSON in ``path``; a SchemaError raised inside names the file: ``<path>: items[0]``."""
    doc = load_json(path)
    try:
        yield doc
    except SchemaError as exc:
        field = f"{path}: {exc.field}" if exc.field else str(path)
        raise SchemaError(field, exc.reason) from None


def write_json(path, doc: dict) -> None:
    """Stream ``doc`` as key-sorted JSON indented by one space, plus a
    newline, to the file ``path``; the path "-" means standard output.

    The text is exactly what ``json.dump`` with ``sort_keys=True, indent=1``
    followed by "\\n" writes: ASCII escapes, ``NaN``/``Infinity``/``-Infinity``
    for non-finite floats, shortest-repr floats. It is built here because
    ``json.dump`` with an indent encodes one value at a time in Python. A
    float64 ndarray is taken only as a 2-D matrix of at least one row and
    one column (``forward``'s embeddings, ``write_taxonomy``'s matrix), and
    written as its ``.tolist()`` would be, its rows printed a chunk at a
    time by the numpy kernel in ``_floatrepr``; any other array raises
    TypeError. Two deviations from
    ``json.dump``, neither reachable from the writers in this package: a
    non-``str`` key raises TypeError (``json.dump`` would stringify an int,
    float, bool or None key), and a circular document raises RecursionError,
    not ValueError. The bytes go to the file, or to ``sys.stdout.buffer``
    after ``sys.stdout`` is flushed.
    """
    if str(path) == "-":
        sys.stdout.flush()
        _write_document(sys.stdout.buffer, doc)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            _write_document(fh, doc)


def _write_document(file, doc) -> None:
    out = _Out(file)
    _write_value(out, doc, 0)
    out.write("\n")
    out.flush()


class _Out:
    """Where the writer puts the text: ``write`` gathers str pieces, which go
    to the binary ``file`` joined and encoded at once, before each run of
    float rows (``raw``, bytes straight from the kernel's buffer) and
    whenever ``_PENDING`` have gathered."""

    __slots__ = ("file", "pieces", "write")

    def __init__(self, file):
        self.file, self.pieces = file, []
        self.write = self.pieces.append

    def raw(self, data) -> None:
        self.flush()
        self.file.write(data)

    def flush(self) -> None:
        self.file.write("".join(self.pieces).encode("ascii"))
        self.pieces.clear()


_PENDING = 4096  # str pieces a list gathers before they go to the file
_encode_str = json.encoder.encode_basestring_ascii


def _write_value(out: _Out, value, level: int) -> None:
    write = out.write
    if isinstance(value, str):
        write(_encode_str(value))
    elif value is None:
        write("null")
    elif value is True or value is False:
        write("true" if value else "false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, float):
        write(float.__repr__(value) if math.isfinite(value) else
              "NaN" if value != value else "Infinity" if value > 0.0 else "-Infinity")
    elif isinstance(value, (list, tuple)):
        _write_list(out, value, level)
    elif isinstance(value, dict):
        _write_dict(out, value, level)
    elif isinstance(value, np.ndarray):
        _write_matrix(out, value, level)
    elif isinstance(value, _Row):
        value.rows.write(out, value.index, value.index + 1, level)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_list(out: _Out, items, level: int) -> None:
    if not items:
        out.write("[]")
        return
    inner = "\n" + " " * (level + 1)
    lead, comma = "[" + inner, "," + inner
    write, pieces = out.write, out.pieces
    for item in items:
        write(lead)
        _write_value(out, item, level + 1)
        lead = comma
        if len(pieces) > _PENDING:
            out.flush()
    write("\n" + " " * level + "]")


class _Rows:
    """A 2-D float64 matrix whose rows the writer prints as JSON lists.
    ``_floatrepr`` renders a chunk of rows when the writer reaches it, into
    the workspace this object owns for the write; the lead of each row's
    first element closes the row before it, so a run of rows is one slice
    of the chunk's text. A row longer than ``CHUNK`` takes one call per
    ``CHUNK`` columns, each written as soon as it is rendered."""

    def __init__(self, matrix: np.ndarray):
        count, width = matrix.shape
        self.matrix, self.per = matrix, max(1, _floatrepr.CHUNK // max(width, 1))
        self.work = _floatrepr.Workspace(min(min(self.per, count) * width, _floatrepr.CHUNK))
        self.level, self.start, self.starts = -1, 0, []

    def write(self, out: _Out, first: int, stop: int, level: int) -> int:
        """Write rows ``first`` to ``stop``, or to the end of the chunk
        holding ``first``, as comma-separated lists whose closing brackets
        are indented by ``level``; returns how many rows that is."""
        if level != self.level:  # new leads: the chunk is rendered again
            indent, self.comma = "\n" + " " * (level + 1), ",\n" + " " * level
            self.close = "\n" + " " * level + "]"
            self.leads = tuple(text.encode("ascii") for text in
                               ("," + indent, self.close + self.comma + "[" + indent, "[" + indent))
            self.level, self.starts = level, []
        width = self.matrix.shape[1]
        if width > _floatrepr.CHUNK:
            row = self.matrix[first:first + 1]
            for k in range(0, width, _floatrepr.CHUNK):
                leads = self.leads if k == 0 else self.leads[:1] * 3
                out.raw(_floatrepr.rows(row[:, k:k + _floatrepr.CHUNK], leads, self.work)[0])
            out.write(self.close)
            return 1
        if not 0 <= first - self.start < len(self.starts):
            self._render(first - first % self.per)
        a, b = first - self.start, min(stop - self.start, len(self.starts))
        out.raw(self.text[self.starts[a]:self.ends[b - 1]])
        if b == len(self.starts):
            out.write(self.close)
        return b - a

    def _render(self, start: int) -> None:
        """One ``_floatrepr.rows`` call for the chunk from row ``start``."""
        self.text, offsets = _floatrepr.rows(self.matrix[start:start + self.per], self.leads,
                                             self.work)
        self.start = start
        self.starts = (offsets + len(self.close) + len(self.comma)).tolist()  # each row's "["
        self.starts[0] = 0
        self.ends = (offsets[1:] + len(self.close)).tolist() + [len(self.text)]


@dataclass(slots=True)
class _Row:
    """Stands in a document for row ``index`` of a ``_Rows``; the writer prints that row's list."""
    rows: _Rows
    index: int


def _write_matrix(out: _Out, matrix: np.ndarray, level: int) -> None:
    """A float64 matrix of one or more rows and columns as its ``.tolist()``
    would be written: a list of rows, one ``_Rows.write`` per chunk."""
    if matrix.dtype.type is not np.float64 or matrix.ndim != 2 or not matrix.size:
        raise TypeError(f"Object of type ndarray ({matrix.dtype}, shape {matrix.shape}) "
                        "is not JSON serializable")
    rows, first, inner = _Rows(matrix), 0, "\n" + " " * (level + 1)
    lead = "[" + inner
    while first < len(matrix):
        out.write(lead)
        first += rows.write(out, first, len(matrix), level + 1)
        lead = "," + inner
    out.write("\n" + " " * level + "]")


def _write_dict(out: _Out, doc: dict, level: int) -> None:
    write = out.write
    if not doc:
        write("{}")
        return
    inner = "\n" + " " * (level + 1)
    lead, comma = "{" + inner, "," + inner
    for key in sorted(doc):  # a key that is no str: sorted or _encode_str raises TypeError
        write(lead + _encode_str(key) + ": ")
        _write_value(out, doc[key], level + 1)
        lead = comma
    write("\n" + " " * level + "}")


def _stack(rows: list, where: str) -> np.ndarray:
    """JSON rows that ``_vector`` accepts, all of one width, as a float64
    matrix, (0, 0) for none; row i's field is ``where.format(i)``.

    All values are checked and converted at once, by one ``_vector`` call
    over them. If a check fails, ``_vector`` checks the rows in order, so
    the first bad row, and in it the first bad element, is the one named.
    A row whose width differs from row 0's is named after that.
    """
    if not rows:
        return np.zeros((0, 0))
    flat = None
    if all(isinstance(row, list) and row for row in rows):
        with suppress(SchemaError):
            flat = _vector(list(itertools.chain.from_iterable(rows)), where)
    if flat is None:  # row by row: the first bad row raises
        flat = np.concatenate([_vector(row, where.format(i)) for i, row in enumerate(rows)])
    widths = [len(row) for row in rows]
    for i, width in enumerate(widths):
        if width != widths[0]:
            raise SchemaError(where.format(i), f"has {width} numbers, row 0 has {widths[0]}")
    return flat.reshape(len(rows), -1)


def read_narrations(path) -> NarrationSet:
    """The narration file's items, checked in one pass in order, each field
    by field (``text``, ``timestamp``, ``embedding``), so the first bad
    item, and in it the first bad field, is the one named; ``_stack`` then
    checks the embedding rows."""
    with _fields_of(path) as doc:
        texts, timestamps, rows = [], [], []
        for i, item in enumerate(_field(doc, "items", list)):
            where = f"items[{i}]"
            texts.append(_field(item, "text", str, where))
            timestamps.append(_field(item, "timestamp", float, where))
            rows.append(_field(item, "embedding", list, where))
        return NarrationSet(tuple(texts), timestamps, _stack(rows, "items[{}].embedding"))


def write_narrations(path, narrations: NarrationSet) -> None:
    rows, times = _Rows(narrations.embeddings), narrations.timestamps.tolist()
    write_json(path, {"items": [{"text": text, "timestamp": times[i], "embedding": _Row(rows, i)}
                                for i, text in enumerate(narrations.texts)]})


def read_taxonomy(path) -> Taxonomy:
    with _fields_of(path) as doc:
        labels = _field(doc, "labels", list)
        rows = _field(doc, "embeddings", list)
        for i, label in enumerate(labels):
            if not isinstance(label, str):
                raise SchemaError(f"labels[{i}]", "expected a string")
        return Taxonomy(tuple(labels), _stack(rows, "embeddings[{}]"))


def write_taxonomy(path, taxonomy: Taxonomy) -> None:
    write_json(path, {"labels": list(taxonomy.labels), "embeddings": taxonomy.embeddings})


def read_annotations(path) -> StepAnnotation:
    with _fields_of(path) as doc:
        raw = _field(doc, "intervals", list)
        intervals = []
        for i, item in enumerate(raw):
            where = f"intervals[{i}]"
            start = _field(item, "start", float, where)
            end = _field(item, "end", float, where)
            intervals.append((start, end, _label(item, where)))
        return StepAnnotation(tuple(intervals))


def write_annotations(path, annotation: StepAnnotation) -> None:
    write_json(path, {
        "intervals": [
            {"start": start, "end": end, "label": label}
            for start, end, label in annotation.intervals
        ]
    })


def read_predictions(path) -> list[StepPrediction]:
    with _fields_of(path) as doc:
        raw = _field(doc, "predictions", list)
        out = []
        for i, item in enumerate(raw):
            where = f"predictions[{i}]"
            start = _field(item, "start", float, where)
            end = _field(item, "end", float, where)
            score = _field(item, "score", float, where)
            out.append(StepPrediction(start, end, _label(item, where), score))
        return out


def write_predictions(path, predictions: list[StepPrediction], **fields) -> None:
    """``{"predictions": [...]}``, plus any other top-level ``fields`` (the CLI's ``meta``)."""
    write_json(path, {
        **fields,
        "predictions": [
            {"start": p.start, "end": p.end, "label": p.label, "score": p.score}
            for p in predictions
        ]
    })


def read_query(path) -> np.ndarray:
    """The embedding of a ``{"embedding": [number]}`` query."""
    with _fields_of(path) as doc:
        query = _vector(_field(doc, "embedding"), "embedding")
        _finite_rows(query, "embedding", _TEXT_ROW)
        return query


def read_mcq_question(path) -> McqQuestion:
    """``{"query", "candidates": [path], "spans": null or [[start, end]]}``
    with ``MCQ_CHOICES`` candidate paths, relative to the question's folder;
    no clip file is read here."""
    with _fields_of(path) as doc:
        query = _vector(_field(doc, "query"), "query")
        _finite_rows(query, "query", _TEXT_ROW)
        paths = _field(doc, "candidates")
        if (not isinstance(paths, list) or len(paths) != MCQ_CHOICES
                or not all(isinstance(p, str) for p in paths)):
            raise SchemaError("candidates", f"expected a list of {MCQ_CHOICES} paths")
        spans = doc.get("spans")
        if spans is not None:
            if not isinstance(spans, list) or len(spans) != len(paths):
                raise SchemaError("spans", "expected null or one [start, end] pair per candidate")
            spans = [_vector(span, f"spans[{i}]") for i, span in enumerate(spans)]
            for i, pair in enumerate(spans):
                if pair.size != 2:
                    raise SchemaError(f"spans[{i}]", "expected a [start, end] number pair")
                spans[i] = _interval(*pair.tolist(), f"spans[{i}]")
    base = Path(path).parent
    return McqQuestion(Path(path), query, tuple(base / p for p in paths), spans,
                       {key: doc[key] for key in ("correct", "group") if key in doc})


def read_label_predictions(path) -> tuple[np.ndarray, float, np.ndarray]:
    """What ``procedure-learn`` writes: ``{"timestamps", "segment_duration", "labels"}``,
    one integer label per start time; times are non-negative and increasing."""
    with _fields_of(path) as doc:
        timestamps = _vector(_field(doc, "timestamps"), "timestamps")
        duration = _field(doc, "segment_duration", float)
        labels = _vector(_field(doc, "labels"), "labels", kind=int)
        if labels.size != timestamps.size:
            raise SchemaError("labels", f"{labels.size} labels for {timestamps.size} timestamps")
        _check_timeline(timestamps, duration)
        return timestamps, duration, labels


def read_grounding_queries(path) -> list[tuple[Path, tuple[float, float] | None]]:
    """``{"queries": [{"predictions": path, "gt": {"start", "end"}}]}`` as
    (predictions file, span or None) pairs; a missing, null or empty ``gt``
    is no ground truth. Paths are relative to the document."""
    base = Path(path).parent
    with _fields_of(path) as doc:
        queries = []
        for i, item in enumerate(_field(doc, "queries", list)):
            where = f"queries[{i}]"
            predictions = base / _field(item, "predictions", str, where)
            gt, span = item.get("gt"), None
            if gt is not None and gt != {}:  # anything else must be a span object
                where += ".gt"
                span = _interval(_field(gt, "start", float, where),
                                 _field(gt, "end", float, where), where)
            queries.append((predictions, span))
        return queries


def read_corpus(data_dir) -> list[tuple[FeatureSequence, NarrationSet]]:
    """The ``train-toy`` data directory: every ``<video>/features.hft`` +
    ``narrations.json`` pair under ``data_dir``, in name order. Feature
    widths must agree, and so must the narration embedding widths of the
    videos that have narrations, of which there must be at least one."""
    root = Path(data_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"{root} is not a directory")
    dataset = []
    narrated = None  # (narrations.json, embedding width) of the first narrated video
    for video_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        feature_path = video_dir / "features.hft"
        narration_path = video_dir / "narrations.json"
        if feature_path.exists() and narration_path.exists():
            sequence = read_feature_file(feature_path)
            narrations = read_narrations(narration_path)
            if len(narrations):
                width = narrations.embeddings.shape[1]
                if narrated is None:
                    narrated = (narration_path, width)
                elif width != narrated[1]:
                    raise SchemaError(f"{narration_path}: items",
                                      f"narration embeddings are {width} wide, "
                                      f"{narrated[0]} has {narrated[1]}")
            dataset.append((sequence, narrations))
    if not dataset:
        raise FileNotFoundError(f"no <video>/features.hft + narrations.json pairs under {root}")
    if narrated is None:
        raise SchemaError(str(root), "no video has a narration to train on")
    require_constant_dim([seq for seq, _ in dataset])
    return dataset


def read_mcq_results(path) -> list[tuple[int, int, str]]:
    """``{"results": [{"chosen", "correct", "group"}]}`` as (chosen, correct,
    group) triples; ``group`` is "inter" (the default) or "intra"."""
    with _fields_of(path) as doc:
        choices = []
        for i, item in enumerate(_field(doc, "results", list)):
            where = f"results[{i}]"
            chosen = _field(item, "chosen", int, where)
            correct = _field(item, "correct", int, where)
            group = item.get("group", "inter")
            if group not in ("inter", "intra"):
                raise SchemaError(f"{where}.group", 'expected "inter" or "intra"')
            choices.append((chosen, correct, group))
        return choices
