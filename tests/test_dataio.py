import copy
import dataclasses
import io
import json
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from reference_impl import read_narrations_ref
from videothreads import _floatrepr, dataio
from videothreads.config import RunConfig
from videothreads.dataio import (
    FEATURE_MAGIC,
    FeatureSequence,
    NarrationSet,
    StepAnnotation,
    StepPrediction,
    Taxonomy,
    read_annotations,
    read_corpus,
    read_feature_file,
    read_grounding_queries,
    read_label_predictions,
    read_mcq_question,
    read_mcq_results,
    read_narrations,
    read_predictions,
    read_query,
    read_taxonomy,
    write_annotations,
    write_feature_file,
    write_json,
    write_narrations,
    write_predictions,
    write_taxonomy,
)
from videothreads.errors import (
    BadMagicError,
    ConfigError,
    DataError,
    PayloadShapeError,
    SchemaError,
    TimestampOrderError,
    TruncatedFileError,
)
from videothreads.model import PARAMS_MAGIC, ModelDims, init_params, load_params, save_params


def sample_sequence(n=4, d=3, seed=0):
    rng = np.random.default_rng(seed)
    times = np.arange(n) * (16.0 / 30.0)
    feats = rng.standard_normal((n, d)).astype(np.float32).astype(np.float64)
    return FeatureSequence("sample", times, feats)


class TestFeatureFiles:
    def test_authored_fixture(self, tmp_path):
        seq = sample_sequence()
        path = tmp_path / "sample.hft"
        write_feature_file(path, seq)
        loaded = read_feature_file(path)
        assert loaded.video_id == "sample"
        assert loaded.num_segments == 4
        assert loaded.dim == 3
        assert np.allclose(loaded.timestamps, [0.0, 0.533333, 1.066667, 1.6], atol=1e-5)
        assert loaded.segment_duration == pytest.approx(16.0 / 30.0)

    def test_bitwise_round_trip(self, tmp_path):
        seq = sample_sequence(n=17, d=9, seed=5)
        path = tmp_path / "rt.hft"
        write_feature_file(path, seq)
        loaded = read_feature_file(path)
        assert np.array_equal(loaded.timestamps, seq.timestamps)
        assert np.array_equal(loaded.features, seq.features)
        assert loaded.segment_duration == seq.segment_duration

    def test_truncated_payload(self, tmp_path):
        # header claims 10 rows, payload holds 9
        path = tmp_path / "short.hft"
        n, d = 10, 2
        blob = FEATURE_MAGIC + struct.pack("<IId", n, d, 0.5)
        blob += np.zeros(n, dtype="<f8").tobytes()
        blob += np.zeros((n - 1) * d, dtype="<f4").tobytes()
        path.write_bytes(blob)
        with pytest.raises(TruncatedFileError):
            read_feature_file(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hft"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(BadMagicError):
            read_feature_file(path)

    def test_trailing_bytes(self, tmp_path):
        seq = sample_sequence()
        path = tmp_path / "extra.hft"
        write_feature_file(path, seq)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(PayloadShapeError):
            read_feature_file(path)

    def test_non_increasing_timestamps(self, tmp_path):
        path = tmp_path / "order.hft"
        blob = FEATURE_MAGIC + struct.pack("<IId", 2, 1, 0.5)
        blob += np.array([1.0, 1.0], dtype="<f8").tobytes()
        blob += np.zeros(2, dtype="<f4").tobytes()
        path.write_bytes(blob)
        with pytest.raises(TimestampOrderError):
            read_feature_file(path)

    def test_sequence_validation(self):
        with pytest.raises(SchemaError):
            FeatureSequence("v", np.array([0.0]), np.zeros((2, 3)))
        with pytest.raises(SchemaError):
            FeatureSequence("v", np.array([-1.0]), np.zeros((1, 3)))

    @pytest.mark.parametrize("duration", [0.0, -0.5, float("nan"), float("inf")])
    def test_bad_segment_duration_names_the_file(self, tmp_path, duration):
        path = tmp_path / "duration.hft"
        blob = FEATURE_MAGIC + struct.pack("<IId", 2, 1, duration)
        blob += np.array([0.0, 0.5], dtype="<f8").tobytes()
        blob += np.zeros(2, dtype="<f4").tobytes()
        path.write_bytes(blob)
        with pytest.raises(SchemaError) as info:
            read_feature_file(path)
        assert str(info.value).startswith(f"{path}: segment_duration: must be positive")


class TestNarrations:
    def test_round_trip(self, tmp_path):
        narrs = NarrationSet(("pick up pan", "stir"), np.array([1.25, 3.5]),
                             np.array([[0.5, -0.25, 1.0], [0.1, 0.2, 0.3]]))
        path = tmp_path / "narr.json"
        write_narrations(path, narrs)
        loaded = read_narrations(path)
        assert len(loaded) == 2
        assert loaded.texts[0] == "pick up pan"
        assert np.array_equal(loaded.embeddings, narrs.embeddings)
        assert np.array_equal(loaded.timestamps, narrs.timestamps)

    def test_no_items_read_as_an_empty_set(self, tmp_path):
        path = tmp_path / "narr.json"
        path.write_text(json.dumps({"items": []}))
        loaded = read_narrations(path)
        assert loaded.texts == () and len(loaded) == 0
        assert loaded.timestamps.shape == (0,) and loaded.embeddings.shape == (0, 0)

    def test_mixed_dims_rejected(self, tmp_path):
        path = tmp_path / "narr.json"
        path.write_text(json.dumps({"items": [
            {"text": "a", "timestamp": 0.0, "embedding": [0.0, 0.0]},
            {"text": "b", "timestamp": 1.0, "embedding": [0.0, 0.0, 0.0]}]}))
        with pytest.raises(SchemaError):
            read_narrations(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"items": [{"text": "x", "timestamp": 1.0}]}))
        with pytest.raises(SchemaError) as info:
            read_narrations(path)
        assert "items[0].embedding" in str(info.value)

    @pytest.mark.parametrize("embedding", [[1.0, True, "x"], [True], [1.0, "x"], [1, None]])
    def test_embedding_of_non_numbers_rejected(self, tmp_path, embedding):
        path = tmp_path / "narr.json"
        path.write_text(json.dumps({"items": [{"text": "x", "timestamp": 1.0,
                                               "embedding": embedding}]}))
        with pytest.raises(SchemaError) as info:
            read_narrations(path)
        assert str(info.value) == f"{path}: items[0].embedding: expected a non-empty number array"

    @pytest.mark.parametrize("bad, field, reason", [
        (float("nan"), "items[1].embedding[2]", "expected a finite number, got nan"),
        (1e400, "items[1].embedding[2]", "expected a finite number, got inf"),
        (True, "items[1].embedding", "expected a non-empty number array"),
        (10**400, "items[1].embedding", "number out of range"),
    ])
    def test_first_bad_embedding_element_named(self, tmp_path, bad, field, reason):
        # row 2 holds a second fault and row 3 a width fault; the first row's names the file
        rows = [[0.5, 1, 2.0], [0.5, 1, bad], [None, 1.0, 2.0], [1.0]]
        path = tmp_path / "narr.json"
        path.write_text(json.dumps({"items": [{"text": "x", "timestamp": float(i), "embedding": row}
                                              for i, row in enumerate(rows)]}))
        with pytest.raises(SchemaError) as info:
            read_narrations(path)
        assert str(info.value) == f"{path}: {field}: {reason}"

    def test_embedding_of_ints_and_floats_accepted(self, tmp_path):
        path = tmp_path / "narr.json"
        path.write_text(json.dumps({"items": [{"text": "x", "timestamp": 1.0,
                                               "embedding": [1, 2.5, -3]}]}))
        assert read_narrations(path).embeddings[0].tolist() == [1.0, 2.5, -3.0]

    def test_document_that_is_not_an_object_names_the_file(self, tmp_path):
        path = tmp_path / "narr.json"
        path.write_text("[]")
        with pytest.raises(SchemaError) as info:
            read_narrations(path)
        assert str(info.value) == f"{path}: expected an object"


class TestTaxonomy:
    def test_round_trip(self, tmp_path):
        tax = Taxonomy(("mix", "pour"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        path = tmp_path / "tax.json"
        write_taxonomy(path, tax)
        loaded = read_taxonomy(path)
        assert loaded.labels == ("mix", "pour")
        assert np.array_equal(loaded.embeddings, tax.embeddings)

    def test_zero_embedding_row_rejected(self, tmp_path):
        path = tmp_path / "tax.json"
        path.write_text(json.dumps({"labels": ["a"], "embeddings": [[0.0, 0.0]]}))
        with pytest.raises(SchemaError):
            read_taxonomy(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "tax.json"
        path.write_text(json.dumps({"labels": ["a", "b"], "embeddings": [[1.0]]}))
        with pytest.raises(SchemaError):
            read_taxonomy(path)

    @pytest.mark.parametrize("bad, field, reason", [
        (float("-inf"), "embeddings[1][0]", "expected a finite number, got -inf"),
        (False, "embeddings[1]", "expected a non-empty number array"),
    ])
    def test_first_bad_embedding_element_named(self, tmp_path, bad, field, reason):
        path = tmp_path / "tax.json"
        path.write_text(json.dumps({"labels": ["a", "b", "c"],
                                    "embeddings": [[1, 2], [bad, 2], [float("nan"), 2, 3]]}))
        with pytest.raises(SchemaError) as info:
            read_taxonomy(path)
        assert str(info.value) == f"{path}: {field}: {reason}"

    def test_rows_of_unequal_width_name_the_row(self, tmp_path):
        path = tmp_path / "tax.json"
        path.write_text(json.dumps({"labels": ["a", "b", "c"],
                                    "embeddings": [[1, 2], [1, 2], [1, 2, 3]]}))
        with pytest.raises(SchemaError) as info:
            read_taxonomy(path)
        assert str(info.value).startswith(f"{path}: embeddings[2]: ")


def _matrix(n: int, d: int, finite: bool = False) -> np.ndarray:
    """(n, d) normal floats with the layouts' edge values mixed in, and the
    non-finite ones too unless ``finite`` (a container holds none of them)."""
    m = np.random.default_rng(n * 131 + d).standard_normal((n, d))
    edges = [-0.0, 1e-5, 1e16, 5e-324, -2.5e-308, 1e150]
    if not finite:
        edges += [np.nan, np.inf, -np.inf]
    m.reshape(-1)[::7][:len(edges)] = edges[:m.reshape(-1)[::7].size]
    return m


_ROWS_PER_CHUNK = _floatrepr.CHUNK // 64


class TestMatrixWriters:
    """``write_narrations`` and ``write_taxonomy`` print their embedding
    matrices through ``_floatrepr``, a chunk of rows per call, with the
    bytes ``json.dump`` writes for the list-form document."""

    @pytest.mark.parametrize("n, d", [
        (0, 0), (1, 64), (_ROWS_PER_CHUNK - 1, 64), (_ROWS_PER_CHUNK + 1, 64),
        (2 * _ROWS_PER_CHUNK + 5, 64), (9, 1), (_floatrepr.CHUNK + 1, 1),
        # the same edges for a chunk of 16384 elements: several chunks each now
        (255, 64), (257, 64), (517, 64), (16385, 1),
    ])
    def test_bytes_equal_the_standard_library(self, tmp_path, n, d):
        m = _matrix(n, d, finite=True)
        narrations = NarrationSet(tuple(f"step {i % 5}" for i in range(n)), np.arange(n) * 0.25, m)
        write_narrations(tmp_path / "n.json", narrations)
        assert (tmp_path / "n.json").read_text() == oracle_text({"items": [
            {"text": text, "timestamp": float(t), "embedding": row.tolist()}
            for text, t, row in zip(narrations.texts, narrations.timestamps, m)]})
        if n:  # a taxonomy has at least one label, and no zero-norm row
            m[np.linalg.norm(m, axis=1) == 0.0] = 0.5
            labels = tuple(f"label {i}" for i in range(n))
            write_taxonomy(tmp_path / "t.json", Taxonomy(labels, m))
            assert (tmp_path / "t.json").read_text() == oracle_text(
                {"labels": list(labels), "embeddings": [row.tolist() for row in m]})

    def test_a_long_narration_set_takes_one_kernel_call_per_chunk(self, tmp_path, monkeypatch):
        sizes, rows = [], _floatrepr.rows
        monkeypatch.setattr(_floatrepr, "rows",
                            lambda values, *args: sizes.append(values.size) or rows(values, *args))
        n, d = 3584, 64
        narrations = NarrationSet(("x",) * n, np.arange(n) * 0.5, _matrix(n, d, finite=True))
        write_narrations(tmp_path / "n.json", narrations)
        assert 1 <= len(sizes) <= -(-n * d // _floatrepr.CHUNK) == 28
        assert max(sizes) <= _floatrepr.CHUNK

    def test_a_reused_workspace_leaves_no_stale_bytes(self, tmp_path):
        """One matrix whose chunks print ever shorter texts and switch layout
        (positional, scientific, NaN and infinities, -0.0, subnormal), written
        through one workspace at two nesting levels and so with two sets of
        leads, then at a third through a new one."""
        values = [-0.00012345678901234567, 1.2345678e200, np.nan, -0.0, 5e-324]
        m = np.repeat(values, _ROWS_PER_CHUNK * 64).reshape(-1, 64)
        m[2 * _ROWS_PER_CHUNK:3 * _ROWS_PER_CHUNK, ::3] = np.inf
        m[2 * _ROWS_PER_CHUNK:3 * _ROWS_PER_CHUNK, 1::3] = -np.inf
        m[4 * _ROWS_PER_CHUNK:, ::2] = -5e-324
        rows = dataio._Rows(m)
        doc = {"deep": [[dataio._Row(rows, i)] for i in range(0, len(m), 2)],
               "flat": [dataio._Row(rows, i) for i in range(1, len(m), 2)], "whole": m}
        write_json(tmp_path / "d.json", doc)
        assert (tmp_path / "d.json").read_text() == oracle_text({
            "deep": [[m[i].tolist()] for i in range(0, len(m), 2)],
            "flat": [m[i].tolist() for i in range(1, len(m), 2)], "whole": m.tolist()})

    # traced peak of one write of a 3584 x 64 matrix, measured with numpy 2.4.6:
    # 5.26 MiB (write_json) and 6.30 MiB (write_narrations) with a NUL-padded
    # text matrix per chunk and fresh kernel temporaries, 2.60 and 3.63 MiB with
    # one workspace per write
    PEAK_BOUNDS = {"write_json": 4 * 2**20, "write_narrations": 5 * 2**20}

    @pytest.mark.parametrize("writer", sorted(PEAK_BOUNDS))
    def test_peak_memory_of_one_write(self, tmp_path, writer):
        m = _matrix(3584, 64)
        narrations = NarrationSet(tuple(f"step {i % 5}" for i in range(len(m))),
                                  np.arange(len(m)) * 0.5, _matrix(3584, 64, finite=True))
        write = {"write_json": lambda: write_json(tmp_path / "d.json", {"embeddings": m}),
                 "write_narrations": lambda: write_narrations(tmp_path / "d.json", narrations)}
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            write[writer]()  # the kernel's tables are built on first use
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            write[writer]()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= self.PEAK_BOUNDS[writer], f"{writer} peaked {peak / 2**20:.2f} MiB"


class TestAnnotations:
    def test_round_trip_with_background(self, tmp_path):
        ann = StepAnnotation(((0.0, 2.0, 1), (2.0, 4.0, None)))
        path = tmp_path / "ann.json"
        write_annotations(path, ann)
        loaded = read_annotations(path)
        assert loaded.intervals == ann.intervals

    def test_start_not_before_end_rejected(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({"intervals": [{"start": 2.0, "end": 2.0, "label": 0}]}))
        with pytest.raises(SchemaError):
            read_annotations(path)


class TestPredictions:
    def test_round_trip(self, tmp_path):
        preds = [StepPrediction(0.0, 1.5, 3, 0.75), StepPrediction(2.0, 4.0, None, -0.5)]
        path = tmp_path / "preds.json"
        write_predictions(path, preds)
        assert read_predictions(path) == preds

    def test_invalid_interval(self):
        with pytest.raises(SchemaError):
            StepPrediction(3.0, 2.0, None, 0.0)


# one valid document per JSON reader: (reader, document, the error a malformed one raises)
_READERS = {
    "narrations": (read_narrations, {"items": [
        {"text": "pick up pan", "timestamp": 1.25, "embedding": [0.5, -0.25, 1]},
        {"text": "stir", "timestamp": 3.5, "embedding": [0.1, 0.2, 0.3]}]}, SchemaError),
    "taxonomy": (read_taxonomy, {"labels": ["mix", "pour"],
                                 "embeddings": [[1.0, 0.0], [0.0, 1.0]]}, SchemaError),
    "annotations": (read_annotations, {"intervals": [
        {"start": 0.0, "end": 2.0, "label": 1}, {"start": 2.0, "end": 4.0, "label": None}]},
        SchemaError),
    "predictions": (read_predictions, {"predictions": [
        {"start": 0.0, "end": 1.5, "label": 3, "score": 0.75},
        {"start": 2, "end": 4.0, "label": None, "score": -0.5}]}, SchemaError),
    "query": (read_query, {"embedding": [1.0, 0.5, -2]}, SchemaError),
    "mcq_question": (read_mcq_question, {
        "query": [1.0, 0.0], "candidates": ["a.hft", "clips/b.hft", "c.hft", "d.hft", "e.hft"],
        "spans": [[0, 1.5], [2.0, 3.0], [0, 1], [1, 2], [2, 3]], "correct": 1, "group": "intra"},
        SchemaError),
    "label_predictions": (read_label_predictions, {
        "timestamps": [0.0, 0.5, 1.0], "segment_duration": 0.5, "labels": [0, 1, 1]},
        SchemaError),
    "grounding_queries": (read_grounding_queries, {"queries": [
        {"predictions": "p.json", "gt": {"start": 0.0, "end": 1.0}},
        {"predictions": "q.json", "gt": None}]}, SchemaError),
    "mcq_results": (read_mcq_results, {"results": [
        {"chosen": 1, "correct": 1, "group": "intra"}, {"chosen": 0, "correct": 2}]},
        SchemaError),
    "run_config": (RunConfig.from_file, {"epochs": 3, "lr": 0.001, "kappa": 1.5}, ConfigError),
}

# inserted bytes are JSON syntax half of the time, so that more mutants still parse
_MUTATIONS = st.lists(st.tuples(st.sampled_from(("flip", "insert", "delete")),
                                st.integers(0, 2**16),
                                st.one_of(st.sampled_from(b'0,.-e[]{}"'), st.integers(0, 255))),
                      min_size=1, max_size=4)


def mutate(blob: bytes, mutations) -> bytes:
    """``blob`` with each (kind, position, byte) applied in turn: flip one
    bit of a byte, insert the byte, or delete a byte."""
    data = bytearray(blob)
    for kind, position, value in mutations:
        if kind == "insert":
            data.insert(position % (len(data) + 1), value)
        elif data and kind == "flip":
            data[position % len(data)] ^= 1 << (value % 8)
        elif data:
            del data[position % len(data)]
    return bytes(data)


# structural mutations of the parsed document: (kind, which value or array, which element)
_STRUCTURE_MUTATIONS = st.lists(st.tuples(st.sampled_from(("swap", "drop", "repeat")),
                                          st.integers(0, 2**16), st.integers(0, 2**16)),
                                min_size=1, max_size=3)
_SAMPLES = (None, False, 2, -0.5, "x", [], [0.5], {}, {"a": 1})  # every JSON type


def _json_type(value) -> str:
    return "bool" if isinstance(value, bool) else "number" if isinstance(
        value, (int, float)) else type(value).__name__


def _slots(value):
    """Every (container, key or index) of the values inside ``value``, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(
        value, list) else ()
    for key, child in items:
        yield value, key
        yield from _slots(child)


def mutate_structure(doc, mutations):
    """``doc`` with each (kind, at, pick) applied in turn: swap a value (the
    document itself too) for one of another JSON type, or drop or repeat an
    element of a non-empty array."""
    root = {"doc": copy.deepcopy(doc)}
    for kind, at, pick in mutations:
        if kind == "swap":
            slots = list(_slots(root))
            container, key = slots[at % len(slots)]
            others = [v for v in _SAMPLES if _json_type(v) != _json_type(container[key])]
            container[key] = copy.deepcopy(others[pick % len(others)])
            continue
        arrays = [container[key] for container, key in _slots(root)
                  if isinstance(container[key], list) and container[key]]
        if arrays:
            array = arrays[at % len(arrays)]
            index = pick % len(array)
            if kind == "drop":
                del array[index]
            else:
                array.insert(index, copy.deepcopy(array[index]))
    return root["doc"]


# byte mutations of a binary file: (kind, position, byte)
_BINARY_MUTATIONS = st.lists(st.tuples(st.sampled_from(("flip", "set", "truncate", "extend")),
                                       st.integers(0, 2**16), st.integers(0, 255)),
                             min_size=1, max_size=3)


def mutate_binary(blob: bytes, mutations) -> bytes:
    """``blob`` with each (kind, position, byte) applied in turn: flip one bit
    of a byte, overwrite a byte with the byte, cut the bytes from a position
    on, or append 1 to 16 copies of the byte."""
    data = bytearray(blob)
    for kind, position, value in mutations:
        if kind == "truncate":
            del data[position % (len(data) + 1):]
        elif kind == "extend":
            data += bytes([value]) * (1 + position % 16)
        elif data and kind == "set":
            data[position % len(data)] = value
        elif data:
            data[position % len(data)] ^= 1 << (value % 8)
    return bytes(data)


def params_blob(tmp_path) -> bytes:
    """A parameter file whose every dimension is 1, so that one bit flip can
    make any of them 0."""
    path = tmp_path / "params.bin"
    save_params(path, init_params(ModelDims(d_in=1, d_h=1, d_a=1, d_t=1, stages=1, layers=1)))
    return path.read_bytes()


class TestBinaryReaderMutations:
    """The feature and parameter readers return a value that keeps their
    contract, or raise a DataError that names the file, on any bytes."""

    @given(mutations=_BINARY_MUTATIONS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_mutated_feature_file_is_read_or_rejected(self, tmp_path_factory, mutations):
        path = tmp_path_factory.getbasetemp() / "mutated.hft"
        seq = sample_sequence()
        # features in [1, 2): flipping the top exponent bit of any of them
        # makes it infinite or NaN
        features = 1.0 + np.abs(seq.features) % 1.0
        write_feature_file(path, FeatureSequence("m", seq.timestamps, features))
        path.write_bytes(mutate_binary(path.read_bytes(), mutations))
        try:
            read = read_feature_file(path)
        except DataError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
        assert read.num_segments >= 1 and read.dim >= 1
        assert np.all(np.isfinite(read.features))

    @given(mutations=_BINARY_MUTATIONS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_mutated_params_file_is_read_or_rejected(self, tmp_path_factory, mutations):
        path = tmp_path_factory.getbasetemp() / "mutated_params.bin"
        path.write_bytes(mutate_binary(params_blob(tmp_path_factory.getbasetemp()), mutations))
        try:
            params = load_params(path)
        except DataError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
        assert min(dataclasses.astuple(params.dims)) >= 1
        assert params.to_vector().shape == (params.num_params,)
        assert np.all(np.isfinite(params.to_vector()))

    @pytest.mark.parametrize("n, d", [(0, 3), (4, 0), (0, 0)])
    def test_a_zero_dimension_is_rejected(self, tmp_path, n, d):
        path = tmp_path / "empty.hft"
        path.write_bytes(FEATURE_MAGIC + struct.pack("<IId", n, d, 0.5)
                         + np.zeros(n, dtype="<f8").tobytes())
        with pytest.raises(PayloadShapeError) as info:
            read_feature_file(path)
        assert str(info.value).startswith(f"{path}: header declares {n} segments of {d} features")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_feature_names_its_row(self, tmp_path, value):
        path = tmp_path / "nan.hft"
        seq = sample_sequence(n=5)
        features = seq.features.copy()
        features[3, 1] = value
        features[4, 0] = value
        with pytest.raises(SchemaError, match=r"^features\[3\]: must be finite$"):
            FeatureSequence("nan", seq.timestamps, features)
        path.write_bytes(FEATURE_MAGIC + struct.pack("<IId", 5, 3, seq.segment_duration)
                         + seq.timestamps.astype("<f8").tobytes()
                         + features.astype("<f4").tobytes())
        with pytest.raises(SchemaError) as info:
            read_feature_file(path)
        assert str(info.value) == f"{path}: features[3]: must be finite"

    def test_a_zero_params_dimension_is_rejected(self, tmp_path):
        path = tmp_path / "params.bin"
        blob = bytearray(params_blob(tmp_path))
        blob[len(PARAMS_MAGIC):len(PARAMS_MAGIC) + 4] = struct.pack("<I", 0)  # d_in
        path.write_bytes(bytes(blob))
        with pytest.raises(PayloadShapeError) as info:
            load_params(path)
        assert str(info.value) == f"{path}: d_in must be >= 1"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_parameter_names_its_index(self, tmp_path, value):
        path = tmp_path / "params.bin"
        blob = bytearray(params_blob(tmp_path))
        payload = len(PARAMS_MAGIC) + struct.calcsize("<6IQ")
        for index in (17, 20):
            blob[payload + 8 * index:payload + 8 * index + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(SchemaError) as info:
            load_params(path)
        assert str(info.value) == f"{path}: parameters[17]: must be finite"

    def test_a_huge_stage_count_is_rejected_before_the_layout_is_built(self, tmp_path):
        path = tmp_path / "params.bin"
        blob = bytearray(params_blob(tmp_path))
        blob[len(PARAMS_MAGIC) + 16:len(PARAMS_MAGIC) + 20] = struct.pack("<I", 2**32 - 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(PayloadShapeError, match="parameters, found"):
            load_params(path)


class TestReaderMutations:
    """Every JSON reader returns or raises its own error on any bytes."""

    @pytest.mark.parametrize("name", sorted(_READERS))
    def test_valid_document_is_read(self, tmp_path, name):
        reader, doc, _ = _READERS[name]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        reader(path)

    def test_cli_documents_read_as_typed_values(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_READERS["mcq_question"][1]))
        question = read_mcq_question(path)
        assert question.query.tolist() == [1.0, 0.0]
        assert question.candidates == tuple(tmp_path / name for name in (
            "a.hft", "clips/b.hft", "c.hft", "d.hft", "e.hft"))
        assert question.spans == [(0.0, 1.5), (2.0, 3.0), (0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
        assert question.answer == {"correct": 1, "group": "intra"}
        path.write_text(json.dumps({"queries": [
            {"predictions": "p.json", "gt": {"start": 1, "end": 1.0}},
            {"predictions": "q.json", "gt": {}}, {"predictions": "r.json"}]}))
        assert read_grounding_queries(path) == [(tmp_path / "p.json", (1.0, 1.0)),
                                                (tmp_path / "q.json", None),
                                                (tmp_path / "r.json", None)]
        path.write_text(json.dumps(_READERS["mcq_results"][1]))
        assert read_mcq_results(path) == [(1, 1, "intra"), (0, 2, "inter")]
        path.write_text(json.dumps(_READERS["label_predictions"][1]))
        timestamps, duration, labels = read_label_predictions(path)
        assert (timestamps.tolist(), duration, labels.tolist()) == ([0.0, 0.5, 1.0], 0.5, [0, 1, 1])

    @pytest.mark.parametrize("gt", [0, False, "", [], 1.5, "0 to 1", [0.0, 1.0]])
    def test_grounding_gt_that_is_no_object_is_rejected(self, tmp_path, gt):
        # only null, an empty object or no key at all read as "no ground truth"
        path = tmp_path / "queries.json"
        path.write_text(json.dumps({"queries": [{"predictions": "p.json", "gt": None},
                                                {"predictions": "q.json", "gt": gt}]}))
        with pytest.raises(SchemaError) as info:
            read_grounding_queries(path)
        assert str(info.value) == f"{path}: queries[1].gt: expected an object"

    @pytest.mark.parametrize("name", sorted(_READERS))
    @given(mutations=_MUTATIONS)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_mutated_document_is_read_or_rejected(self, tmp_path_factory, name, mutations):
        reader, doc, error = _READERS[name]
        path = tmp_path_factory.getbasetemp() / f"mutated_{name}.json"
        path.write_bytes(mutate(json.dumps(doc, separators=(",", ":")).encode(), mutations))
        try:
            reader(path)
        except error:
            pass

    @given(mutations=_STRUCTURE_MUTATIONS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_narration_columns_name_what_the_item_walk_names(self, tmp_path_factory, mutations):
        path = tmp_path_factory.getbasetemp() / "walked_narrations.json"
        path.write_text(json.dumps(mutate_structure(_READERS["narrations"][1], mutations)))
        outcomes = []
        for reader in (read_narrations, read_narrations_ref):
            try:
                got = reader(path)
                outcomes.append((got.texts, got.timestamps.tobytes(), got.embeddings.tobytes()))
            except SchemaError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("name", sorted(_READERS))
    @given(mutations=_STRUCTURE_MUTATIONS)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_restructured_document_is_read_or_rejected(self, tmp_path_factory, name, mutations):
        # mutants that parse: wrong types, and arrays one element short or long
        reader, doc, error = _READERS[name]
        path = tmp_path_factory.getbasetemp() / f"restructured_{name}.json"
        path.write_text(json.dumps(mutate_structure(doc, mutations)))
        try:
            reader(path)
        except error:
            pass


def oracle_text(doc) -> str:
    """What the standard library writes for ``doc``: the writer's contract."""
    fh = io.StringIO()
    json.dump(doc, fh, sort_keys=True, indent=1)
    return fh.getvalue() + "\n"


def as_lists(value):
    """``value`` with each ndarray in it replaced by its ``.tolist()``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_lists(item) for item in value]
    return value


_SPECIAL_FLOATS = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _SPECIAL_FLOATS,
                     st.text(max_size=8))
_FLOAT_LISTS = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),  # finite
    st.lists(st.one_of(st.floats(), _SPECIAL_FLOATS), min_size=1, max_size=8),
    st.lists(st.one_of(st.floats(), st.integers(), st.booleans()), max_size=8),
)
_FLOAT_ARRAYS = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
                       elements=st.one_of(st.floats(), _SPECIAL_FLOATS))
_DOCUMENTS = st.dictionaries(st.text(max_size=8), st.recursive(
    st.one_of(_SCALARS, _FLOAT_LISTS, _FLOAT_ARRAYS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
), max_size=4)


class TestCorpus:
    def test_pairs_in_name_order(self, tmp_path):
        for name, n in (("b", 5), ("a", 4)):
            (tmp_path / name).mkdir()
            write_feature_file(tmp_path / name / "features.hft", sample_sequence(n))
            write_narrations(tmp_path / name / "narrations.json",
                             NarrationSet(("x",), [0.5], np.ones((1, 3))))
        (tmp_path / "c").mkdir()  # no feature file: not a video
        (tmp_path / "notes.txt").write_text("")
        assert [seq.num_segments for seq, _ in read_corpus(tmp_path)] == [4, 5]

    def test_no_directory_or_no_video_is_a_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="is not a directory"):
            read_corpus(tmp_path / "absent")
        with pytest.raises(FileNotFoundError, match="no <video>/features.hft"):
            read_corpus(tmp_path)


class TestWriteJson:
    @given(doc=_DOCUMENTS)
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_the_standard_library(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "write_json_property.json"
        write_json(path, doc)
        assert path.read_bytes() == oracle_text(as_lists(doc)).encode("ascii")

    def test_float_subclasses_and_nested_float_rows(self, tmp_path):
        doc = {"b": [np.float64(0.1), 2.0], "a": [[1e-300, -0.0], [], [float("nan"), 1.5]]}
        write_json(tmp_path / "d.json", doc)
        assert (tmp_path / "d.json").read_text() == oracle_text(doc)

    def test_dash_writes_stdout(self, capsys):
        doc = {"é": ["x", 1, 2.5, None, True], "a": {}}
        write_json("-", doc)
        assert capsys.readouterr().out == oracle_text(doc)

    def test_dash_writes_float_rows_after_pending_text(self, capsysbinary):
        m = _matrix(3 * _ROWS_PER_CHUNK + 2, 64)
        doc = {"a": "before", "m": m, "z": ["after", 1.5]}
        print("text first,", end="")
        write_json("-", doc)
        print(" text last", end="")
        assert capsysbinary.readouterr().out == (
            "text first," + oracle_text(as_lists(doc)) + " text last").encode("ascii")

    @pytest.mark.parametrize("doc", [
        {"x": np.zeros(2, dtype=np.int64)},
        {"x": [1.0, np.zeros(2, dtype=np.float32)]},
        {"x": np.array([1.0, "a"], dtype=object)},
        {"x": np.array(1.5)},
        {1: "a"},
        {"x": {"y": 1, 2: "z"}},
        {"x": np.zeros(3)},
        {"x": [np.zeros((2, 3, 4))]},
        {"x": np.zeros((1, 1, 1))},
        {"x": np.zeros((0, 4))},
        {"x": np.zeros((5, 0))},
        {"x": np.zeros(0)},
    ], ids=["int64_array", "float32_array_in_list", "object_array", "0d_array", "int_key",
            "nested_int_key", "1d_array", "3d_array_in_list", "3d_array", "matrix_of_no_row",
            "matrix_of_no_column", "empty_1d_array"])
    def test_type_error(self, tmp_path, doc):
        with pytest.raises(TypeError):
            write_json(tmp_path / "d.json", doc)


_ANY_FLOATS = st.one_of(st.floats(width=32), st.floats(), _SPECIAL_FLOATS)
_TIMES = st.one_of(st.floats(0.0, 1e4), _ANY_FLOATS)  # valid ones half of the time


@st.composite
def _float_matrices(draw):
    """Any (n, d) float64 matrix with n and d in [0, 4], zero sizes and
    non-finite values included."""
    shape = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    return draw(arrays(np.float64, shape, elements=_ANY_FLOATS))


@st.composite
def _rows_with(draw, *columns):
    """A ``_float_matrices`` matrix last, after one list per strategy in
    ``columns``, each as long as the matrix has rows."""
    m = draw(_float_matrices())
    return (*(draw(st.lists(c, min_size=len(m), max_size=len(m))) for c in columns), m)


class TestFrozenContainers:
    """A container holds read-only copies of its checked arrays: a write
    into them raises, and a write into the caller's own arrays, which keep
    their flags, does not reach them."""

    @staticmethod
    def containers():
        times, rows, eye = np.arange(3) * 0.5, np.ones((3, 2)), np.eye(2)
        return [(FeatureSequence("v", times, rows), (times, rows), ("timestamps", "features")),
                (NarrationSet(("a", "b", "c"), times, rows), (times, rows),
                 ("timestamps", "embeddings")),
                (Taxonomy(("a", "b"), eye), (eye,), ("embeddings",))]

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_arrays_refuse_writes(self, which):
        container, given, names = self.containers()[which]
        for name, array in zip(names, given, strict=True):
            held = getattr(container, name)
            before = held.copy()
            assert not np.shares_memory(held, array)
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 7.0
            assert array.flags.writeable
            array[0] = 1e200  # the caller's own array is still theirs to write
            assert np.array_equal(held, before)


class TestContainerRoundTrip:
    """Every container value its constructor accepts is one its file holds:
    written and read back, it is equal (features at the f32 precision the
    feature file stores); every other value is a SchemaError."""

    @given(features=_float_matrices(), start=_TIMES, step=_TIMES, duration=_TIMES)
    @example(features=np.zeros((0, 4)), start=0.0, step=0.5, duration=0.5)
    @example(features=np.zeros((3, 0)), start=0.0, step=0.5, duration=0.5)
    @example(features=np.array([[1.0, 1e300]]), start=0.0, step=0.5, duration=0.5)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_feature_sequence(self, tmp_path_factory, features, start, step, duration):
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0, inf - inf, overflow
            timestamps = start + step * np.arange(len(features))
        try:
            seq = FeatureSequence("v", timestamps, features, duration)
        except SchemaError:
            return
        path = tmp_path_factory.getbasetemp() / "round_trip.hft"
        write_feature_file(path, seq)
        back = read_feature_file(path)
        assert back.segment_duration == seq.segment_duration
        assert back.timestamps.tobytes() == seq.timestamps.tobytes()
        stored = seq.features.astype(np.float32).astype(np.float64)
        assert back.features.shape == stored.shape
        assert back.features.tobytes() == stored.tobytes()

    @given(columns=_rows_with(st.text(max_size=4), _TIMES))
    @example(columns=(["a", "b", "c"], [0.0, 1.0, 2.0], np.zeros((3, 0))))
    @example(columns=(["a"], [0.0], np.array([[np.nan, 1.0]])))
    @example(columns=(["a", "b"], [0.0, 1.0], np.array([[1.0, 0.0], [1e200, 1.0]])))
    @example(columns=(["a"], [0.0], np.array([[1e154, -1e154]])))  # each square fits, not their sum
    @example(columns=([], [], np.zeros((0, 4))))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_narration_set(self, tmp_path_factory, columns):
        texts, times, embeddings = columns
        try:
            narrations = NarrationSet(tuple(texts), times, embeddings)
        except SchemaError:
            return
        path = tmp_path_factory.getbasetemp() / "round_trip_narrations.json"
        write_narrations(path, narrations)
        back = read_narrations(path)
        assert back.texts == narrations.texts
        assert back.timestamps.tobytes() == narrations.timestamps.tobytes()
        assert back.embeddings.shape == narrations.embeddings.shape
        assert back.embeddings.tobytes() == narrations.embeddings.tobytes()

    @given(columns=_rows_with(st.text(max_size=4)))
    @example(columns=([], np.zeros((0, 4))))
    @example(columns=([], np.zeros((0, 0))))
    @example(columns=(["a"], np.array([[1.0, np.inf]])))
    @example(columns=(["big", "small"], np.array([[1e200, 0.0], [0.0, 1.0]])))
    @example(columns=(["a"], np.array([[1e154, 0.0]])))  # a square of 1e308 fits
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_taxonomy(self, tmp_path_factory, columns):
        labels, embeddings = columns
        try:
            taxonomy = Taxonomy(tuple(labels), embeddings)
        except SchemaError:
            return
        path = tmp_path_factory.getbasetemp() / "round_trip_taxonomy.json"
        write_taxonomy(path, taxonomy)
        back = read_taxonomy(path)
        assert len(back.labels) >= 1  # what localize needs
        assert back.labels == taxonomy.labels
        assert back.embeddings.shape == taxonomy.embeddings.shape
        assert back.embeddings.tobytes() == taxonomy.embeddings.tobytes()


def _json_reprs(values: np.ndarray) -> list[str]:
    """The oracle: ``float.__repr__``, with JSON's spellings of non-finite values."""
    texts = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)):
        texts[i] = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[texts[i]]
    return texts


def _kernel_texts(values: np.ndarray) -> list[str]:
    """The kernel's texts, a chunk at a time through one workspace."""
    work, texts = _floatrepr.Workspace(_floatrepr.CHUNK), []
    for k in range(0, values.size, _floatrepr.CHUNK):
        text, _ = _floatrepr.rows(values[k:k + _floatrepr.CHUNK].reshape(1, -1), (b"\n",) * 3, work)
        texts += text.tobytes().decode("ascii").split("\n")[1:]
    return texts


def _assert_reprs(values: np.ndarray) -> None:
    got, want = _kernel_texts(values), _json_reprs(values)
    if got != want:
        bad = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        pytest.fail(f"{values[bad].view(np.uint64):#018x}: kernel {got[bad]!r}, repr {want[bad]!r}")


def _edge_values() -> np.ndarray:
    powers = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
    subnormal = np.arange(1, 2**52, 2**52 // 997, dtype=np.uint64).view(np.float64)
    layout = [1e-5, 1e-4, 1e16, 1e15, 123456789012345678.0, 0.1, 0.3]
    values = np.array(powers + layout + [2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**53 + 1,
                                         np.finfo(float).max, np.finfo(float).tiny])
    with np.errstate(over="ignore"):
        values = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf),
                                 subnormal, np.arange(3000.0)])
    values = values[np.isfinite(values)]
    return np.concatenate([values, -values, [0.0, -0.0, np.nan, np.inf, -np.inf]])


class TestFloatArrays:
    """``_floatrepr`` against ``float.__repr__``, and ``write_json`` of float64
    arrays against ``json.dump`` of their ``.tolist()``."""

    @given(st.lists(st.floats(), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_any_double(self, values):
        _assert_reprs(np.array(values, dtype=np.float64))

    def test_a_million_random_bit_patterns(self):
        bits = np.random.default_rng(20180618).integers(0, 2**64, 10**6, dtype=np.uint64,
                                                        endpoint=False)
        _assert_reprs(bits.view(np.float64))

    def test_edges(self):
        values = _edge_values()
        assert values.size > 8000
        _assert_reprs(values)

    def test_layout_switches_at_1e_minus_4_and_1e16(self):
        texts = _kernel_texts(np.array([1e-5, 0.0001, 9999999999999998.0, 1e16, -0.0, 5e-324]))
        assert texts == ["1e-05", "0.0001", "9999999999999998.0", "1e+16", "-0.0", "5e-324"]

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 3), (6, 5), (2, 31), (40, 2),
                                       (3, 200)])
    def test_write_json_equals_the_list(self, tmp_path, shape):
        a = np.random.default_rng(sum(shape)).standard_normal(shape)
        deeper = {"v": [{"e": a, "k": [a, 1]}]}  # arrays at more nesting levels
        for doc, lists in (({"x": a}, {"x": a.tolist()}),
                           (deeper, {"v": [{"e": a.tolist(), "k": [a.tolist(), 1]}]})):
            write_json(tmp_path / "d.json", doc)
            assert (tmp_path / "d.json").read_text() == oracle_text(lists)

    def test_write_json_of_views_and_many_chunks(self, tmp_path):
        rng = np.random.default_rng(5)
        big = rng.standard_normal((_floatrepr.CHUNK // 64 * 3 + 3, 64))
        big[7, 3], big[9] = np.nan, np.inf
        for a in (big, big.T, big[::3, ::-2], big[:, 5:6], np.asfortranarray(big[:40]),
                  big.reshape(-1)[:13 * (_floatrepr.CHUNK // 5)].reshape(-1, 13)):
            write_json(tmp_path / "d.json", {"x": a})
            assert (tmp_path / "d.json").read_text() == oracle_text({"x": a.tolist()})

    def test_rows_longer_than_a_chunk(self, tmp_path, monkeypatch):
        sizes, rows = [], _floatrepr.rows
        monkeypatch.setattr(_floatrepr, "rows",
                            lambda values, *args: sizes.append(values.size) or rows(values, *args))
        a = _matrix(2, 2 * _floatrepr.CHUNK + 3)
        for doc in ({"x": a}, {"x": a[1:]}, {"x": [a[:, :5], [a.reshape(1, -1)]]}):
            write_json(tmp_path / "d.json", doc)
            assert (tmp_path / "d.json").read_text() == oracle_text(as_lists(doc))
        assert max(sizes) == _floatrepr.CHUNK


def _floor_log2(x: Fraction) -> int:
    """floor(log2 x) of a positive fraction, exactly."""
    r = x.numerator.bit_length() - x.denominator.bit_length()
    return r - (Fraction(2)**r > x)


class TestSchubfachTable:
    """``_floatrepr``'s per-exponent constants against their definitions, in
    exact integers: for v = c 2^q, k = floor(log10 2^q) (floor(log10 (3/4)
    2^q) in the power-of-2 columns), r = floor(log2 10^-k), and G = g 2^h
    with g = floor(10^-k 2^(125 - r)) + 1 and h = q + r + 2."""

    def test_every_biased_exponent_and_power_of_2(self):
        common = _floatrepr._tables().common
        assert common.shape == (7, 2 * 2047)
        for column in range(2 * 2047):
            biased, halved = column % 2047, column >= 2047
            q = max(biased, 1) - 1075
            k = int(common[6, column])
            scale = Fraction(3, 4) if halved else Fraction(1)
            assert Fraction(10)**k <= scale * Fraction(2)**q < Fraction(10)**(k + 1)
            r = _floor_log2(Fraction(10)**-k)
            h = q + r + 2
            assert 2 <= h <= 5
            limbs = common[:5, column].tolist()
            assert all(0 <= limb < 2**28 for limb in limbs)
            big = sum(limb << 28 * b for b, limb in enumerate(limbs))
            g = big >> h
            assert big == g << h and big < 2**140
            assert 2**125 <= g < 2**126
            assert g - 1 <= Fraction(10)**-k * Fraction(2)**(125 - r) < g
