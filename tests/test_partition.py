import numpy as np
import pytest

from videothreads.dataio import FeatureSequence
from videothreads.errors import ClusteringError, ZeroDegreeError, ZeroNormRowError
from videothreads.graph import build_graph
from videothreads.kernels import sym_eigen
from videothreads.metrics import adjusted_rand_index
from videothreads.partition import (
    alt_partition,
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

    def test_k_equals_n_eigengap_zero(self):
        x = np.random.default_rng(7).standard_normal((4, 3))
        assert spectral_partition(x, 4, seed=0).eigengap == 0.0


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

    def test_uniform_indices(self):
        idx = uniform_subsample_indices(10, 4)
        assert np.array_equal(idx, [0, 2, 5, 7])
        assert np.array_equal(uniform_subsample_indices(3, 8), [0, 1, 2])


class TestAltPartition:
    def test_spectral_dispatch_matches(self):
        x = np.random.default_rng(10).standard_normal((8, 3))
        direct = spectral_partition(x, 2, seed=3)
        routed = alt_partition(x, 2, "spectral", seed=3)
        assert np.array_equal(direct.assignments, routed.assignments)

    def test_kmeans_l2_separated_blobs(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.standard_normal((15, 3)) + 50.0,
                            rng.standard_normal((15, 3)) - 50.0])
        part = alt_partition(x, 2, "kmeans_l2", seed=0)
        labels = np.repeat([0, 1], 15)
        assert adjusted_rand_index(part.assignments, labels) == 1.0

    def test_kmeans_cosine_matches_bruteforce_assignment(self):
        # rays at distinct angles with varying magnitudes; the returned
        # assignment must agree with direct cosine argmax to the centroids
        rng = np.random.default_rng(12)
        angles = np.concatenate([rng.uniform(0.0, 0.2, 20), rng.uniform(1.4, 1.6, 20)])
        radii = rng.uniform(0.5, 10.0, 40)
        x = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        part = alt_partition(x, 2, "kmeans_cosine", seed=0)
        labels = np.repeat([0, 1], 20)
        assert adjusted_rand_index(part.assignments, labels) == 1.0
        from videothreads.kernels import kmeans

        result = kmeans(x, 2, metric="cosine", seed=0)
        unit = x / np.linalg.norm(x, axis=1, keepdims=True)
        centroid_unit = result.centroids / np.linalg.norm(result.centroids, axis=1, keepdims=True)
        brute = np.argmax(unit @ centroid_unit.T, axis=1)
        assert np.array_equal(result.assignments, brute)

    def test_unknown_method(self):
        with pytest.raises(ClusteringError):
            alt_partition(np.eye(3), 2, "dbscan")
