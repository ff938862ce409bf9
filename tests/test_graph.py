from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_impl import interpolate_composed, interpolate_ref, split_videos, vsum
from videothreads.autodiff import Var
from videothreads.dataio import FeatureSequence
from videothreads.errors import GraphError, SchemaError
from videothreads.graph import (
    VideoGraph,
    build_graph,
    directed_edges,
    disjoint_union,
    interpolation_between,
    interpolation_matrix,
    nearest_indices,
    temporal_edges,
    temporal_subsample,
)


def seq(times, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    times = np.asarray(times, dtype=np.float64)
    return FeatureSequence("v", times, rng.standard_normal((len(times), dim)))


def pair_array(pairs):
    """The (E, 2) intp edge format, rows in lexicographic order."""
    return np.array(sorted(pairs), dtype=np.intp).reshape(-1, 2)


def assert_edges(edges, pairs):
    assert edges.dtype == np.intp
    assert np.array_equal(edges, pair_array(pairs))


class TestBuildGraph:
    def test_threshold_edges(self):
        g = build_graph(seq([0.0, 0.5, 1.0, 5.0]), 1.0)
        assert_edges(g.edges, [(0, 1), (0, 2), (1, 2)])
        assert g.level == 0

    def test_single_node_no_edges(self):
        g = build_graph(seq([0.0]), 1.0)
        assert_edges(g.edges, [])

    def test_default_threshold_links_immediate_neighbors(self):
        # uniform 0.533 s spacing and threshold 1.0: interior nodes see one
        # neighbor on each side (2 * 0.533 > 1.0)
        times = np.arange(6) * (16.0 / 30.0)
        g = build_graph(seq(times), 1.0)
        expected = {(i, i + 1) for i in range(5)}
        assert_edges(g.edges, expected)

    def test_empty_sequence_rejected(self):
        # a FeatureSequence holds at least one segment; a graph of no nodes
        # is refused by VideoGraph itself
        with pytest.raises(SchemaError):
            seq([])
        empty = SimpleNamespace(timestamps=np.zeros(0), features=np.zeros((0, 3)))
        with pytest.raises(GraphError, match="at least one node"):
            build_graph(empty, 1.0)

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(GraphError):
            build_graph(seq([0.0, 1.0]), 0.0)

    def test_edge_symmetry_via_directed_edges(self):
        g = build_graph(seq([0.0, 0.4, 0.8, 1.2]), 1.0)
        dst, src = directed_edges(g.edges)
        pairs = set(zip(dst.tolist(), src.tolist()))
        assert all((j, i) in pairs for i, j in pairs)
        assert len(pairs) == 2 * len(g.edges)


class TestTemporalEdges:
    @given(st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=40,
                    unique=True),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=200, deadline=None)
    def test_equals_dense_definition(self, ticks, threshold_ticks):
        # dyadic timestamps and thresholds (multiples of 1/8) make exact ties
        # at the threshold common; N = 1 is included
        t = np.sort(np.asarray(ticks, dtype=np.float64)) / 8.0
        threshold = threshold_ticks / 8.0
        dist = np.abs(t[:, None] - t[None, :])
        ii, jj = np.nonzero(np.triu(dist <= threshold, k=1))
        assert_edges(temporal_edges(t, threshold), zip(ii.tolist(), jj.tolist()))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_non_dyadic_times_match_dense_definition(self, seed):
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.uniform(0.01, 1.0, size=int(rng.integers(1, 60)))) + rng.uniform(0, 1e4)
        threshold = float(rng.uniform(0.05, 3.0))
        dist = np.abs(t[:, None] - t[None, :])
        ii, jj = np.nonzero(np.triu(dist <= threshold, k=1))
        assert_edges(temporal_edges(t, threshold), zip(ii.tolist(), jj.tolist()))


class TestTemporalSubsample:
    def test_even_positions_kept(self):
        g = build_graph(seq([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]), 1.0)
        sub = temporal_subsample(g)
        assert np.array_equal(sub.timestamps, [0.0, 2.0, 4.0])
        assert sub.level == 1

    def test_single_node(self):
        g = build_graph(seq([3.0]), 1.0)
        sub = temporal_subsample(g)
        assert sub.num_nodes == 1
        assert sub.level == 1

    def test_ceil_rule_five_nodes(self):
        g = build_graph(seq([0.0, 1.0, 2.0, 3.0, 4.0]), 1.0)
        sub = temporal_subsample(g)
        assert np.array_equal(sub.timestamps, [0.0, 2.0, 4.0])

    def test_repeated_subsample_ceil_law(self):
        n = 37
        g = build_graph(seq(np.arange(n, dtype=float)), 1.0)
        for level in range(1, 6):
            g = temporal_subsample(g)
            assert g.num_nodes == -(-n // 2 ** level)  # ceil

    def test_edges_rebuilt_with_doubled_threshold(self):
        g = build_graph(seq([0.0, 1.0, 2.0, 3.0]), 1.0)
        sub = temporal_subsample(g)  # nodes at 0, 2; threshold now 2.0
        assert_edges(sub.edges, [(0, 1)])
        assert sub.edge_threshold * 2 ** sub.level == 2.0


class TestTemporalInterpolate:
    def test_linear_midpoint(self):
        g = build_graph(
            FeatureSequence("v", np.array([0.0, 2.0]),
                            np.array([[0.0, 0.0], [2.0, 2.0]])), 10.0)
        out = interpolation_matrix(g.timestamps, [1.0]) @ g.embeddings
        assert np.allclose(out, [[1.0, 1.0]])

    def test_clamped_before_start(self):
        g = build_graph(
            FeatureSequence("v", np.array([1.0, 2.0]),
                            np.array([[5.0], [9.0]])), 10.0)
        out = interpolation_matrix(g.timestamps, [0.0, 3.0]) @ g.embeddings
        assert np.allclose(out, [[5.0], [9.0]])

    def test_identity_at_coarse_timestamps(self):
        g = build_graph(seq([0.0, 0.7, 1.9, 3.2], dim=4, seed=3), 2.0)
        out = interpolation_matrix(g.timestamps, g.timestamps) @ g.embeddings
        assert np.array_equal(out, g.embeddings)

    def test_single_source_node(self):
        g = build_graph(FeatureSequence("v", np.array([5.0]), np.array([[1.0, 2.0]])), 1.0)
        out = interpolation_matrix(g.timestamps, [0.0, 5.0, 9.0]) @ g.embeddings
        assert np.allclose(out, [[1.0, 2.0]] * 3)


class TestInterpolationOperator:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        src = np.cumsum(rng.uniform(0.1, 1.0, size=int(rng.integers(1, 12))))
        values = rng.standard_normal((src.size, 3))
        # targets inside, outside and exactly on the source timestamps
        tgt = np.concatenate([rng.uniform(src[0] - 1.0, src[-1] + 1.0, size=9), src])
        got = interpolation_matrix(src, tgt) @ values
        assert got.shape == (tgt.size, 3)
        assert np.allclose(got, interpolate_ref(src, values, tgt), rtol=0.0, atol=1e-12)

    def test_applies_to_vars(self):
        src = np.array([0.0, 1.0, 3.0])
        values = np.arange(6.0).reshape(3, 2)
        op = interpolation_matrix(src, [0.5, 2.0, 5.0])
        out = op @ Var(values)
        assert isinstance(out, Var)
        assert np.array_equal(out.value, op @ values)


class TestNearestIndices:
    def test_basic(self):
        src = np.array([0.0, 1.0, 2.0])
        assert np.array_equal(nearest_indices(src, [0.1, 0.9, 1.6, 5.0]), [0, 1, 2, 2])
        one = nearest_indices([1.0], [0.0, 1.0, 5.0])  # one source: every query picks it
        assert one.dtype == np.intp and np.array_equal(one, [0, 0, 0])

    def test_tie_picks_earlier(self):
        src = np.array([0.0, 2.0])
        assert nearest_indices(src, [1.0])[0] == 0

    def test_exact_hits(self):
        src = np.array([0.0, 1.0, 2.0])
        assert np.array_equal(nearest_indices(src, src), [0, 1, 2])


def irregular_video(n, rng):
    """An n-segment graph with irregular spacing that starts anywhere in
    [0, 3), so the videos of a union overlap in time."""
    times = rng.uniform(0.0, 3.0) + np.cumsum(rng.uniform(0.05, 0.9, n))
    return build_graph(FeatureSequence("v", times, rng.standard_normal((n, 3))), 1.0)


# 1 to 5 videos of 1, 2, 3, 7 or 16 segments, and a seed for their contents
union_cases = st.tuples(st.lists(st.sampled_from([1, 2, 3, 7, 16]), min_size=1, max_size=5),
                        st.integers(min_value=0, max_value=10_000))


def assert_same_graph(got, want):
    assert got.video_sizes == want.video_sizes
    assert got.level == want.level
    for name in ("embeddings", "timestamps", "edges"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestDisjointUnion:
    @given(union_cases)
    @settings(max_examples=100, deadline=None)
    @example(([16], 0))  # one video
    def test_every_step_acts_on_each_video_alone(self, case):
        sizes, seed = case
        rng = np.random.default_rng(seed)
        graphs = [irregular_video(n, rng) for n in sizes]
        union = disjoint_union(graphs)
        assert union.video_sizes == tuple(sizes)
        coarse = temporal_subsample(union)
        for got, alone in zip(split_videos(union), graphs):
            assert_same_graph(got, alone)
        for got, alone in zip(split_videos(coarse), graphs):
            assert_same_graph(got, temporal_subsample(alone))
        assert_same_graph(coarse, disjoint_union([temporal_subsample(g) for g in graphs]))
        # interpolation clamps at each video's own endpoints
        values = rng.standard_normal((coarse.num_nodes, 2))
        got = interpolation_between(coarse, union) @ values
        for rows, source, alone in zip(union.video_rows(), coarse.video_rows(), graphs):
            want = interpolate_ref(coarse.timestamps[source], values[source], alone.timestamps)
            assert np.allclose(got[rows], want, rtol=0.0, atol=1e-12)
            # and is, bit for bit, the video's own operator
            own = interpolation_matrix(coarse.timestamps[source], alone.timestamps)
            assert got[rows].tobytes() == (own @ values[source]).tobytes()

    @given(union_cases, st.data())
    @settings(max_examples=100, deadline=None)
    def test_validation_rejects_order_breaks_and_crossing_edges(self, case, data):
        sizes, seed = case
        rng = np.random.default_rng(seed)
        union = disjoint_union([irregular_video(n, rng) for n in sizes])
        rows = union.video_rows()

        def rebuilt(timestamps=union.timestamps, edges=union.edges):
            return VideoGraph(union.embeddings, timestamps, edges,
                              video_sizes=union.video_sizes)

        rebuilt()  # times that restart at a video boundary are fine
        long_videos = [r for r in rows if r.stop - r.start >= 2]
        if long_videos:
            r = data.draw(st.sampled_from(long_videos))
            i = data.draw(st.integers(r.start, r.stop - 2))
            swapped = union.timestamps.copy()
            swapped[[i, i + 1]] = swapped[[i + 1, i]]
            with pytest.raises(GraphError, match="within each video"):
                rebuilt(timestamps=swapped)
        if len(rows) >= 2:
            a, b = sorted(data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=2,
                                             max_size=2, unique=True)))
            i = data.draw(st.integers(rows[a].start, rows[a].stop - 1))
            j = data.draw(st.integers(rows[b].start, rows[b].stop - 1))
            with pytest.raises(GraphError, match="two different videos"):
                rebuilt(edges=np.vstack([union.edges, [[i, j]]]))

    def test_split_does_not_rely_on_edge_order(self):
        times = np.array([0.0, 0.5, 1.0, 0.0, 0.5, 1.0])
        edges = np.array([[3, 4], [0, 1], [1, 2], [4, 5]])
        g = VideoGraph(np.zeros((6, 2)), times, edges, video_sizes=(3, 3))
        for video in split_videos(g):
            assert_edges(video.edges, [(0, 1), (1, 2)])

    def test_sizes_must_cover_the_nodes(self):
        g = build_graph(seq([0.0, 1.0, 2.0]), 1.0)
        for sizes in ((), (1, 1), (0, 3), (2, 2)):
            with pytest.raises(GraphError):
                VideoGraph(g.embeddings, g.timestamps, g.edges, video_sizes=sizes)

    def test_members_must_agree(self):
        a = build_graph(seq([0.0, 1.0]), 1.0)
        with pytest.raises(GraphError):
            disjoint_union([a, build_graph(seq([0.0, 1.0]), 2.0)])
        with pytest.raises(GraphError):
            disjoint_union([a, build_graph(seq([0.0, 1.0], dim=4), 1.0)])
        with pytest.raises(GraphError):
            disjoint_union([])


class TestInterpolationNode:
    """``op @ y`` on a Var is one node; the operator composed of the taps'
    gathers and weights and their sum (``tests/reference_impl.py``) is its
    oracle, output and gradient bit for bit."""

    @given(union_cases)
    @settings(max_examples=100, deadline=None, derandomize=True)
    @example(([1], 0))  # one source row: every target clamps to it
    @example(([2, 1, 7], 3))
    def test_matches_the_composed_operator(self, case):
        sizes, seed = case
        rng = np.random.default_rng(seed)
        union = disjoint_union([irregular_video(n, rng) for n in sizes])
        coarse = temporal_subsample(union)
        op = interpolation_between(coarse, union)
        y = rng.standard_normal((coarse.num_nodes, 3))
        upstream = rng.standard_normal((union.num_nodes, 3))
        weights = rng.standard_normal(y.shape)
        assert (op @ y).tobytes() == interpolate_composed(op, y).tobytes()
        results = []
        for apply in (lambda y: op @ y, lambda y: interpolate_composed(op, y)):
            leaf = Var(y)
            out = apply(leaf)
            # y feeds another node too, whose gradient reaches y first, as a
            # decoder stage's output feeds L_ft: the order in which the taps'
            # gradients are added to it then shows in the bytes
            (vsum(leaf * weights) + vsum(out * upstream)).backward()
            results.append((out.value.tobytes(), leaf.grad.tobytes()))
        assert results[0] == results[1]
