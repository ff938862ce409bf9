import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_impl import interpolate_ref
from videothreads.autodiff import Var
from videothreads.dataio import FeatureSequence
from videothreads.errors import GraphError
from videothreads.graph import (
    build_graph,
    directed_edges,
    interpolation_matrix,
    nearest_indices,
    temporal_edges,
    temporal_interpolate,
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
        with pytest.raises(GraphError):
            build_graph(seq([]), 1.0)

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
        assert sub.effective_threshold == 2.0


class TestTemporalInterpolate:
    def test_linear_midpoint(self):
        g = build_graph(
            FeatureSequence("v", np.array([0.0, 2.0]),
                            np.array([[0.0, 0.0], [2.0, 2.0]])), 10.0)
        out = temporal_interpolate(g, [1.0])
        assert np.allclose(out, [[1.0, 1.0]])

    def test_clamped_before_start(self):
        g = build_graph(
            FeatureSequence("v", np.array([1.0, 2.0]),
                            np.array([[5.0], [9.0]])), 10.0)
        out = temporal_interpolate(g, [0.0, 3.0])
        assert np.allclose(out, [[5.0], [9.0]])

    def test_identity_at_coarse_timestamps(self):
        g = build_graph(seq([0.0, 0.7, 1.9, 3.2], dim=4, seed=3), 2.0)
        out = temporal_interpolate(g, g.timestamps)
        assert np.array_equal(out, g.embeddings)

    def test_single_source_node(self):
        g = build_graph(FeatureSequence("v", np.array([5.0]), np.array([[1.0, 2.0]])), 1.0)
        out = temporal_interpolate(g, [0.0, 5.0, 9.0])
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

    def test_tie_picks_earlier(self):
        src = np.array([0.0, 2.0])
        assert nearest_indices(src, [1.0])[0] == 0

    def test_exact_hits(self):
        src = np.array([0.0, 1.0, 2.0])
        assert np.array_equal(nearest_indices(src, src), [0, 1, 2])
