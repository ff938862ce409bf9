import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_impl import batch_partition_ref
from videothreads.dataio import FeatureSequence
from videothreads.errors import (
    ClusteringError,
    NonFiniteError,
    NonFiniteRowError,
    NotSymmetricError,
    ZeroDegreeError,
    ZeroNormRowError,
)
from videothreads.graph import build_graph, disjoint_union, with_embeddings
from videothreads.kernels import sym_eigen
from videothreads.metrics import adjusted_rand_index
from videothreads.partition import (
    approx_partition,
    normalized_laplacian,
    similarity_matrix,
    spectral_partition,
    uniform_subsample_indices,
)
from videothreads.synth import SynthSpec, generate


class TestSimilarityMatrix:
    def test_orthogonal_rows(self):
        s = similarity_matrix(np.eye(3), kappa=0.7)
        off = s[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 1.0)  # exp(0)

    def test_antipodal_rows(self):
        s = similarity_matrix(np.array([[1.0, 0.0], [-1.0, 0.0]]), kappa=1.0)
        assert s[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_duplicated_row(self):
        s = similarity_matrix(np.array([[3.0, 4.0], [3.0, 4.0]]), kappa=0.5)
        assert s[0, 1] == pytest.approx(np.exp(2.0), abs=1e-9)

    def test_bounds_and_diagonal(self):
        x = np.random.default_rng(0).standard_normal((10, 4))
        s = similarity_matrix(x, kappa=2.0)
        assert np.allclose(np.diag(s), np.exp(0.5))
        assert np.all(s >= np.exp(-0.5) - 1e-12) and np.all(s <= np.exp(0.5) + 1e-12)

    def test_zero_norm_row(self):
        with pytest.raises(ZeroNormRowError):
            similarity_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_bad_kappa(self):
        with pytest.raises(ClusteringError):
            similarity_matrix(np.eye(2), kappa=0.0)


class TestNormalizedLaplacian:
    def test_two_node_hand_value(self):
        lap = normalized_laplacian(np.ones((2, 2)))
        assert np.allclose(lap, [[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(np.sort(np.linalg.eigvalsh(lap)), [0.0, 1.0])

    def test_block_diagonal_zero_multiplicity(self):
        w = np.zeros((5, 5))
        w[:3, :3] = 1.0
        w[3:, 3:] = 1.0
        lap = normalized_laplacian(w)
        dec = sym_eigen(lap)
        assert np.all(np.abs(dec.eigenvalues[:2]) <= 1e-10)
        assert dec.eigenvalues[2] > 1e-6
        # zero eigenspace spanned by (degree-scaled) component indicators:
        # each indicator must already lie in the span of the basis
        basis = dec.eigenvectors[:, :2]
        degrees = w.sum(axis=1)
        for mask in (np.arange(5) < 3, np.arange(5) >= 3):
            indicator = np.sqrt(degrees) * mask
            projected = basis @ (basis.T @ indicator)
            assert np.allclose(projected, indicator, atol=1e-8)

    def test_known_null_vector(self):
        w = similarity_matrix(np.random.default_rng(1).standard_normal((8, 3)))
        lap = normalized_laplacian(w)
        null = np.sqrt(w.sum(axis=1))
        assert np.max(np.abs(lap @ null)) <= 1e-10 * np.max(null)

    def test_eigenvalue_range(self):
        w = similarity_matrix(np.random.default_rng(2).standard_normal((10, 4)))
        values = np.linalg.eigvalsh(normalized_laplacian(w))
        assert values[0] >= -1e-10
        assert values[-1] <= 2.0 + 1e-10

    def test_zero_degree_rejected(self):
        with pytest.raises(ZeroDegreeError):
            normalized_laplacian(np.zeros((3, 3)))

    def test_empty_affinity(self):
        lap = normalized_laplacian(np.zeros((0, 0)))
        assert lap.shape == (0, 0)

    def test_single_node(self):
        assert normalized_laplacian([[4.0]]).tolist() == [[0.0]]

    def test_asymmetric_affinity_rejected(self):
        # |0 - 1e-10| is exactly SYMMETRY_ATOL and passes; twice that does not
        normalized_laplacian([[1.0, 0.0], [1e-10, 1.0]])
        with pytest.raises(NotSymmetricError, match=r"^affinity matrix is not symmetric$"):
            normalized_laplacian([[1.0, 0.0], [2e-10, 1.0]])


class TestSpectralPartition:
    def test_two_orthogonal_groups(self):
        x = np.concatenate([np.tile([1.0, 0.0, 0.0], (5, 1)),
                            np.tile([0.0, 1.0, 0.0], (5, 1))])
        part = spectral_partition(x, 2, seed=0)
        labels = np.repeat([0, 1], 5)
        assert adjusted_rand_index(part.assignments, labels) == 1.0

    def test_k_one(self):
        x = np.random.default_rng(3).standard_normal((6, 4))
        part = spectral_partition(x, 1, seed=0)
        assert np.all(part.assignments == 0)

    def test_planted_threads(self):
        ds = generate(SynthSpec(num_threads=3, segments_per_step=20, dim=32,
                                separation=10.0, seed=4))
        part = spectral_partition(ds.sequence.features, 3, seed=0)
        assert adjusted_rand_index(part.assignments, ds.planted.step_labels) >= 0.95

    def test_scale_invariance(self):
        x = np.random.default_rng(5).standard_normal((12, 6))
        a = spectral_partition(x, 3, seed=1)
        b = spectral_partition(x * 37.5, 3, seed=1)
        assert np.array_equal(a.assignments, b.assignments)

    def test_eigengap_matches_decomposition(self):
        x = np.random.default_rng(6).standard_normal((9, 4))
        k = 3
        part = spectral_partition(x, k, seed=0)
        lap = normalized_laplacian(similarity_matrix(x))
        values = sym_eigen(lap).eigenvalues
        assert part.eigengap == pytest.approx(values[k] - values[k - 1], abs=1e-12)
        assert part.eigengap >= -1e-10

    def test_degenerate_eigenspace_is_pinned(self):
        # Six identical rows: the Laplacian is I - J/6, so eigenvalue 1 has
        # multiplicity 5 and the 3 groups come from an arbitrary basis of its
        # eigenspace. The split is deterministic; these are its labels.
        x = np.tile(np.arange(1.0, 5.0), (6, 1))
        part = spectral_partition(x, 3, seed=0)
        assert part.assignments.tolist() == [2, 0, 1, 1, 2, 2]
        assert part.eigengap == 2.220446049250313e-16

    def test_k_equals_n_eigengap_zero(self):
        x = np.random.default_rng(7).standard_normal((4, 3))
        assert spectral_partition(x, 4, seed=0).eigengap == 0.0

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=15),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_k_rules(self, n, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.1, 1.0, (n, 3)) * rng.choice([-1.0, 1.0], (n, 3))  # no zero rows
        part = spectral_partition(x, k, seed=seed % 5)
        capped = spectral_partition(x, min(k, n), seed=seed % 5)
        assert part.assignments.dtype == capped.assignments.dtype
        assert part.assignments.tobytes() == capped.assignments.tobytes()
        assert part.eigengap == capped.eigengap
        assert part.assignments.shape == (n,)
        assert np.all((part.assignments >= 0) & (part.assignments < min(k, n)))
        if k == 1 or n == 1:
            assert not part.assignments.any()
            assert part.eigengap == 0.0
        with pytest.raises(ClusteringError):
            spectral_partition(x, 1 - k)
        with pytest.raises(ClusteringError):
            spectral_partition(x[:0], k)

    def test_k_one_makes_no_decomposition(self):
        # zero rows have no cosine similarity, but one group needs none
        part = spectral_partition(np.zeros((4, 3)), 1)
        assert np.array_equal(part.assignments, [0, 0, 0, 0])
        assert part.eigengap == 0.0


class TestApproxPartition:
    def graph(self, features, spacing=0.5):
        times = np.arange(len(features)) * spacing
        return build_graph(FeatureSequence("v", times, features), 1.0)

    def test_small_graph_identical_to_exact(self):
        x = np.random.default_rng(8).standard_normal((10, 4))
        g = self.graph(x)
        exact = spectral_partition(x, 3, seed=2)
        approx = approx_partition(g, 3, max_nodes=10, seed=2)
        assert np.array_equal(exact.assignments, approx.assignments)
        assert exact.eigengap == approx.eigengap

    def test_planted_two_threads_subsampled(self):
        ds = generate(SynthSpec(num_threads=2, segments_per_step=100, dim=32,
                                separation=10.0, seed=9))
        g = build_graph(ds.sequence, 1.0)
        part = approx_partition(g, 2, max_nodes=64, seed=0)
        assert g.num_nodes == 200
        assert adjusted_rand_index(part.assignments, ds.planted.step_labels) >= 0.9

    def test_tie_takes_earlier_subsampled_node(self):
        # 4 nodes, max_nodes=2 keeps indices 0 and 2; node 1 sits exactly
        # between them and must take node 0's label
        features = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.0, 1.2]])
        g = self.graph(features, spacing=1.0)
        part = approx_partition(g, 2, max_nodes=2, seed=0)
        assert part.assignments[1] == part.assignments[0]

    def test_max_nodes_below_k_rejected(self):
        g = self.graph(np.random.default_rng(0).standard_normal((5, 3)))
        with pytest.raises(ClusteringError):
            approx_partition(g, 3, max_nodes=2)

    def test_k_above_node_count(self):
        # the budget need only hold min(k, nodes) groups
        x = np.random.default_rng(10).standard_normal((5, 3))
        g = self.graph(x)
        exact = spectral_partition(x, 5, seed=1)
        for max_nodes in (5, 6, 64):
            part = approx_partition(g, 9, max_nodes=max_nodes, seed=1)
            assert np.array_equal(part.assignments, exact.assignments)
            assert part.eigengap == exact.eigengap == 0.0
        with pytest.raises(ClusteringError):
            approx_partition(g, 9, max_nodes=4)

    def test_uniform_indices(self):
        idx = uniform_subsample_indices(10, 4)
        assert np.array_equal(idx, [0, 2, 5, 7])
        assert np.array_equal(uniform_subsample_indices(3, 8), [0, 1, 2])


@st.composite
def batch_graphs(draw):
    """A batch graph of 1-6 videos and a request for it: node counts from a
    short list, so that several videos often share a count, some over the
    node budget (which subsamples them to the budget's count); k of 1, 2,
    any up to the budget, or the budget itself (above every smaller video's
    count); widths 1-70, rows free or copied from a few distinct ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    max_nodes = draw(st.sampled_from([2, 5, 8, 16]))
    counts = [1, 2, 3, max_nodes - 1, max_nodes, max_nodes + 1, 2 * max_nodes + 3]
    sizes = draw(st.lists(st.sampled_from(counts), min_size=1, max_size=6))
    k = draw(st.one_of(st.just(1), st.just(2), st.integers(1, max_nodes), st.just(max_nodes)))
    dim = draw(st.integers(1, 70))
    graphs = []
    for n in sizes:
        if draw(st.booleans()):
            x = rng.standard_normal((n, dim))
        else:
            distinct = rng.standard_normal((int(rng.integers(1, 4)), dim))
            x = distinct[rng.integers(0, distinct.shape[0], n)]
        times = rng.uniform(0.0, 3.0) + np.cumsum(rng.uniform(0.05, 1.0, n))
        graphs.append(build_graph(FeatureSequence("v", times, x), 1.0))
    return disjoint_union(graphs), k, max_nodes, draw(st.sampled_from([0.5, 1.0])), \
        draw(st.integers(0, 10_000))


class TestBatchPartition:
    """The videos of a batch graph partitioned together, in one stacked pass
    per node count, against one ``approx_partition`` call per video."""

    @given(case=batch_graphs())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_matches_one_call_per_video(self, case):
        g, k, max_nodes, kappa, seed = case
        got = approx_partition(g, k, kappa, max_nodes, seed)
        want = batch_partition_ref(g, g.embeddings, k, kappa, max_nodes, seed)
        assert got.assignments.dtype == want.assignments.dtype
        assert got.assignments.tobytes() == want.assignments.tobytes()
        assert np.float64(got.eigengap).tobytes() == np.float64(want.eigengap).tobytes()

    def test_stacked_spectral_partition_is_one_call_per_video(self):
        x = np.random.default_rng(14).standard_normal((3, 9, 5))
        stacked = spectral_partition(x, 3, seed=4)
        alone = [spectral_partition(video, 3, seed=4) for video in x]
        assert stacked.assignments.shape == (3, 9)
        assert stacked.assignments.tobytes() == np.stack([p.assignments for p in alone]).tobytes()
        assert stacked.eigengap == min(p.eigengap for p in alone)

    def batch(self, bad_video, bad_row, value):
        # videos 0 and 2 share a node count and a stacked pass; 1 and 3 are alone
        rng = np.random.default_rng(15)
        g = disjoint_union([build_graph(FeatureSequence("v", np.arange(n) * 0.5,
                                                        rng.standard_normal((n, 3))), 1.0)
                            for n in (6, 4, 6, 9)])
        x = g.embeddings.copy()
        x[g.video_rows()[bad_video].start + bad_row] = value
        return with_embeddings(g, x)

    @pytest.mark.parametrize("video", [1, 2])
    def test_zero_norm_row_names_the_batch_video(self, video):
        g = self.batch(video, 3, 0.0)
        with pytest.raises(ZeroNormRowError,
                           match=rf"^row 3 of video {video} of x has zero norm$") as info:
            approx_partition(g, 2, max_nodes=16)
        assert (info.value.video, info.value.row) == (video, 3)

    @pytest.mark.parametrize("video", [1, 2])
    def test_non_finite_row_names_the_batch_video(self, video):
        g = self.batch(video, 2, np.nan)
        with pytest.raises(NonFiniteRowError,
                           match=rf"^row 2 of video {video} of x contains non-finite entries$"):
            approx_partition(g, 2, max_nodes=16)

    def test_stacked_rows_errors_name_the_stack_index(self):
        x = np.ones((3, 4, 2))
        x[2, 1] = 0.0
        with pytest.raises(ZeroNormRowError, match=r"^row 1 of video 2 of x has zero norm$"):
            spectral_partition(x, 2)
        x[1, 3, 0] = np.inf
        with pytest.raises(NonFiniteRowError,
                           match=r"^row 3 of video 1 of x contains non-finite entries$"):
            spectral_partition(x, 2)

    def test_one_matrix_errors_keep_their_messages(self):
        x = np.ones((4, 2))
        x[2] = 0.0
        with pytest.raises(ZeroNormRowError, match=r"^row 2 of x has zero norm$") as info:
            spectral_partition(x, 2)
        assert info.value.video is None
        x[1, 0] = np.nan
        with pytest.raises(NonFiniteError, match=r"^x contains non-finite entries$") as info:
            spectral_partition(x, 2)
        assert not isinstance(info.value, NonFiniteRowError)
