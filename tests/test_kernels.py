import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_impl import canonical_signs_ref, kmeans_ref, lloyd_once, sym_eigen_ref
from videothreads import kernels
from videothreads.errors import (
    ClusteringError,
    ConvergenceError,
    NonFiniteError,
    NonFiniteRowError,
    NotSymmetricError,
    ShapeError,
    ZeroNormRowError,
)
from videothreads.kernels import (
    _canonical_signs,
    _draws,
    _kmeanspp_indices,
    cosine_similarity_matrix,
    kmeans,
    sym_eigen,
)
from videothreads.metrics import adjusted_rand_index
from videothreads.partition import normalized_laplacian


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


class TestSymEigen:
    def test_diagonal_matrix(self):
        dec = sym_eigen(np.diag([2.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0])
        assert np.allclose(dec.eigenvectors, [[0.0, 1.0], [1.0, 0.0]])

    def test_exchange_matrix(self):
        dec = sym_eigen([[0.0, 1.0], [1.0, 0.0]])
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
        assert np.allclose(dec.eigenvectors[:, 0], [r, -r])
        assert np.allclose(dec.eigenvectors[:, 1], [r, r])

    def test_reconstruction_seeded_6x6(self):
        # oracle: the decomposition must rebuild the input
        a = random_symmetric(np.random.default_rng(123), 6)
        dec = sym_eigen(a)
        rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        assert np.max(np.abs(rebuilt - a)) <= 1e-8

    def test_orthonormality_and_trace(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 17):
            a = random_symmetric(rng, n)
            dec = sym_eigen(a)
            q = dec.eigenvectors
            assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-8
            assert abs(np.trace(a) - dec.eigenvalues.sum()) <= 1e-8 * max(1.0, abs(np.trace(a)))

    def test_eigenpair_residuals(self):
        a = random_symmetric(np.random.default_rng(5), 12)
        dec = sym_eigen(a)
        scale = np.max(np.abs(a))
        for lam, v in zip(dec.eigenvalues, dec.eigenvectors.T):
            assert np.max(np.abs(a @ v - lam * v)) <= 1e-8 * scale
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-10

    def test_eigenvalues_ascending(self):
        dec = sym_eigen(random_symmetric(np.random.default_rng(11), 9))
        assert np.all(np.diff(dec.eigenvalues) >= 0.0)

    def test_sign_convention(self):
        dec = sym_eigen(random_symmetric(np.random.default_rng(3), 8))
        for v in dec.eigenvectors.T:
            lead = np.flatnonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0]
            assert v[lead] > 0.0

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            sym_eigen(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            sym_eigen([[0.0, 1.0], [0.5, 0.0]])

    def test_asymmetry_message_names_the_largest_difference(self):
        with pytest.raises(NotSymmetricError,
                           match=r"^matrix is not symmetric \(max \|A - A\^T\| = 5\.000e-01\)$"):
            sym_eigen([[0.0, 1.0], [0.5, 0.0]])

    def test_symmetry_tolerance_is_inclusive(self):
        # |0 - 1e-10| is exactly SYMMETRY_ATOL; twice that is rejected
        assert kernels.SYMMETRY_ATOL == 1e-10
        sym_eigen([[0.0, 0.0], [1e-10, 0.0]])
        with pytest.raises(NotSymmetricError, match=r"= 2\.000e-10\)$"):
            sym_eigen([[0.0, 0.0], [2e-10, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            sym_eigen([[np.nan, 0.0], [0.0, 1.0]])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 16))
        a = random_symmetric(rng, n)
        dec = sym_eigen(a)
        rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        assert np.max(np.abs(rebuilt - a)) <= 1e-8 * max(1.0, np.max(np.abs(a)))


def eigenspace_groups(values, tol):
    """Index ranges of ascending ``values`` whose neighbours lie within ``tol``."""
    groups, start = [], 0
    for j in range(1, len(values) + 1):
        if j == len(values) or values[j] - values[j - 1] > tol:
            groups.append(np.arange(start, j))
            start = j
    return groups


class TestSymEigenAgainstReference:
    """LAPACK against the Householder + implicit-shift QL oracle."""

    def test_random_matrices(self):
        rng = np.random.default_rng(2024)
        for n in range(1, 33):
            a = random_symmetric(rng, n)
            dec = sym_eigen(a)
            ref_values, ref_vectors = sym_eigen_ref(a)
            scale = max(1.0, float(np.max(np.abs(ref_values))))
            assert np.max(np.abs(dec.eigenvalues - ref_values)) <= 1e-12 * scale
            gaps = np.diff(ref_values)
            isolated = np.ones(n, dtype=bool)
            isolated[:-1] &= gaps > 1e-6
            isolated[1:] &= gaps > 1e-6
            diff = np.abs(dec.eigenvectors[:, isolated] - ref_vectors[:, isolated])
            assert diff.size == 0 or np.max(diff) <= 1e-8

    @pytest.mark.parametrize("name", ["zero_identity", "scaled_identity", "two_block_laplacian",
                                      "single_node"])
    def test_degenerate_spectra(self, name):
        # Vectors inside a repeated eigenspace are arbitrary; the projector
        # onto the eigenspace is not.
        block = np.ones((5, 5))
        a = {
            "zero_identity": np.zeros((6, 6)),
            "scaled_identity": -2.5 * np.eye(7),
            "two_block_laplacian": normalized_laplacian(
                np.block([[block, np.zeros((5, 4))], [np.zeros((4, 5)), np.ones((4, 4))]])),
            "single_node": np.array([[4.2]]),
        }[name]
        dec = sym_eigen(a)
        ref_values, ref_vectors = sym_eigen_ref(a)
        assert np.max(np.abs(dec.eigenvalues - ref_values)) <= 1e-12 * max(
            1.0, float(np.max(np.abs(ref_values))))
        groups = eigenspace_groups(ref_values, 1e-8)
        if name == "two_block_laplacian":
            assert [g.size for g in groups] == [2, 7]
        for g in groups:
            proj = dec.eigenvectors[:, g] @ dec.eigenvectors[:, g].T
            ref_proj = ref_vectors[:, g] @ ref_vectors[:, g].T
            assert np.max(np.abs(proj - ref_proj)) <= 1e-8

    def test_empty_matrix(self):
        dec = sym_eigen(np.zeros((0, 0)))
        assert dec.eigenvalues.shape == (0,)
        assert dec.eigenvectors.shape == (0, 0)

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(kernels.np.linalg, "eigh", failing_eigh)
        with pytest.raises(ConvergenceError):
            sym_eigen(np.eye(3))


class TestCanonicalSigns:
    """The vectorized sign convention flips exactly the columns the loop flips."""

    def test_matches_loop_on_eigenvectors(self):
        rng = np.random.default_rng(99)
        for n in (1, 2, 7, 33):
            vectors = np.linalg.eigh(random_symmetric(rng, n))[1]
            expected = vectors.copy()
            canonical_signs_ref(expected)
            _canonical_signs(vectors)
            assert np.array_equal(vectors, expected)

    def test_matches_loop_on_edge_columns(self):
        vectors = np.array([
            [0.0, -1e-13, 1e-13, 0.0, -0.5],
            [0.0, 0.7, -0.7, -1e-300, 0.5],
            [0.0, -0.3, 0.3, 0.0, -0.5],
        ])
        expected = vectors.copy()
        canonical_signs_ref(expected)
        _canonical_signs(vectors)
        assert np.array_equal(vectors, expected)
        # The leading 1e-13 is below the threshold, so row 1 decides the sign.
        assert np.array_equal(vectors[:, 1], [-1e-13, 0.7, -0.3])
        assert np.array_equal(vectors[:, 2], [-1e-13, 0.7, -0.3])


class TestKMeans:
    def test_well_separated_pairs(self):
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        result = kmeans(pts, 2, seed=0)
        assert result.assignments[0] == result.assignments[1]
        assert result.assignments[2] == result.assignments[3]
        assert result.assignments[0] != result.assignments[2]

    def test_identical_points_zero_inertia(self):
        pts = np.ones((5, 3))
        result = kmeans(pts, 1, seed=0)
        assert result.inertia == 0.0
        assert np.allclose(result.centroids[0], 1.0)

    def test_planted_blobs_recovered(self):
        # oracle: the generator's own labels
        rng = np.random.default_rng(42)
        centers = rng.standard_normal((3, 8)) * 50.0
        points = np.concatenate([centers[i] + rng.standard_normal((30, 8)) for i in range(3)])
        labels = np.repeat(np.arange(3), 30)
        result = kmeans(points, 3, seed=1)
        assert adjusted_rand_index(result.assignments, labels) == 1.0

    def test_deterministic(self):
        pts = np.random.default_rng(0).standard_normal((40, 4))
        a = kmeans(pts, 4, seed=9)
        b = kmeans(pts, 4, seed=9)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia

    def test_draws_are_cached_read_only_and_differ_by_seed(self):
        first, u = _draws(9, 40, 4, 8)
        again = _draws(9, 40, 4, 8)
        assert again[0] is first and again[1] is u
        assert not first.flags.writeable and not u.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0] = 0.5
        other_first, other_u = _draws(10, 40, 4, 8)
        assert not (np.array_equal(first, other_first) and np.array_equal(u, other_u))
        # what a fresh generator draws for sequential restarts
        rng = np.random.default_rng(9)
        for r in range(8):
            assert first[r] == rng.integers(40)
            assert np.array_equal(u[r], rng.random(3))

    def test_centroids_are_cluster_means(self):
        pts = np.random.default_rng(1).standard_normal((30, 3))
        result = kmeans(pts, 3, seed=2)
        for c in range(3):
            members = pts[result.assignments == c]
            if members.size:
                assert np.allclose(result.centroids[c], members.mean(axis=0))

    def test_inertia_monotone_within_run(self):
        pts = np.random.default_rng(2).standard_normal((60, 5))
        history: list[float] = []
        lloyd_once(pts, 4, np.random.default_rng(3), 100, history=history)
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_permutation_equivariant_on_separated_blobs(self):
        rng = np.random.default_rng(6)
        centers = np.eye(3) * 100.0
        pts = np.concatenate([centers[i] + rng.standard_normal((20, 3)) for i in range(3)])
        perm = rng.permutation(len(pts))
        direct = kmeans(pts, 3, seed=7).assignments
        permuted = kmeans(pts[perm], 3, seed=7).assignments
        assert adjusted_rand_index(direct[perm], permuted) == 1.0

    def test_k_exceeds_rows(self):
        with pytest.raises(ClusteringError):
            kmeans(np.zeros((2, 2)), 3)

    def test_empty_input(self):
        with pytest.raises(ClusteringError):
            kmeans(np.zeros((0, 2)), 1)


@st.composite
def kmeans_inputs(draw):
    """Points with k in [1, n]: free rows, rows copied from a few distinct
    ones (fewer distinct rows than k reaches the all-points-on-a-seed case),
    or coarse half-integer grids full of distance ties."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 128))
    dim = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["free", "duplicates", "grid"]))
    if kind == "free":
        pts = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3)
    elif kind == "duplicates":
        distinct = rng.standard_normal((int(rng.integers(1, 4)), dim))
        pts = distinct[rng.integers(0, distinct.shape[0], n)]
    else:
        pts = np.round(rng.standard_normal((n, dim)) * 2.0) / 2.0
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    return pts, k, draw(st.integers(0, 10_000))


class TestKMeansAgainstReference:
    """All restarts at once against the sequential restart loop."""

    @given(case=kmeans_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_sequential_restarts(self, case):
        pts, k, seed = case
        got = kmeans(pts, k, seed=seed)
        assignments, centroids, inertia = kmeans_ref(pts, k, seed=seed)
        assert np.array_equal(got.assignments, assignments)
        assert got.inertia == inertia
        # an empty cluster keeps its seed row, which the two may draw differently
        used = np.bincount(assignments, minlength=k) > 0
        assert np.array_equal(got.centroids[used], centroids[used])

    def test_seed_when_every_point_sits_on_a_seed(self):
        # Two distinct rows and k = 4: after two seeds every squared distance
        # is zero, and seed i is taken at index floor(u * n) of its uniform.
        pts = np.array([[0.0, 1.0]] * 3 + [[5.0, 5.0]] * 2)
        chosen = _kmeanspp_indices(pts[None], np.array([1, 4]), np.array([[0.5, 0.99, 0.2],
                                                                          [0.1, 0.0, 0.7]]))
        assert chosen[0].tolist() == [[1, 4, 4, 1], [4, 0, 0, 3]]

    def test_means_add_members_in_the_order_mean_does(self):
        # One big value then eight ones: a running sum loses every one, numpy's
        # pairwise sum of a single column keeps them.
        column = np.array([[1e16]] + [[1.0]] * 8)
        assert float(np.cumsum(column)[-1]) != float(np.sum(column))
        for pts in (column, np.hstack([column, column])):
            got = kmeans(pts, 1).centroids[0]
            assert got.tobytes() == pts.mean(axis=0).tobytes()

    def test_distance_table_built_in_blocks(self, monkeypatch):
        # one table row per block gives the table, and so the result, of one block
        pts = np.random.default_rng(13).standard_normal((40, 9))
        whole = kmeans(pts, 5, seed=3)
        monkeypatch.setattr(kernels, "_TABLE_BLOCK", 1)
        blocked = kmeans(pts, 5, seed=3)
        assert np.array_equal(whole.assignments, blocked.assignments)
        assert whole.centroids.tobytes() == blocked.centroids.tobytes()
        assert whole.inertia == blocked.inertia

    @pytest.mark.parametrize("dim", [0, 1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 130, 300])
    def test_sum_squares_adds_in_numpys_last_axis_order(self, dim):
        # magnitudes over 16 decades make every regrouping of the sum visible
        rng = np.random.default_rng(dim)
        x = rng.standard_normal((3, 5, dim)) * 10.0 ** rng.uniform(-8, 8, (3, 5, dim))
        expected = np.sum(x ** 2, axis=-1)
        got = kernels._sum_squares(np.ascontiguousarray(np.moveaxis(x, -1, 0)))
        assert got.tobytes() == expected.tobytes()

    def test_max_iter_stops_unconverged_restarts(self):
        pts = np.random.default_rng(12).standard_normal((60, 3))
        for max_iter in (1, 2, 3):
            got = kmeans(pts, 6, seed=4, max_iter=max_iter)
            assignments, centroids, inertia = kmeans_ref(pts, 6, seed=4, max_iter=max_iter)
            assert np.array_equal(got.assignments, assignments)
            assert np.array_equal(got.centroids, centroids)
            assert got.inertia == inertia


@st.composite
def kmeans_stacks(draw):
    """V point sets of one shape, with k in [1, n], at one column or at 8
    and more (the two ways ``_Lloyd.means`` sums), each set of the kinds
    ``kmeans_inputs`` draws."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    videos = draw(st.integers(1, 6))
    n = draw(st.integers(1, 64))
    dim = draw(st.one_of(st.just(1), st.integers(8, 12)))
    sets = []
    for _ in range(videos):
        kind = draw(st.sampled_from(["free", "duplicates", "grid"]))
        if kind == "free":
            sets.append(rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3))
        elif kind == "duplicates":
            distinct = rng.standard_normal((int(rng.integers(1, 4)), dim))
            sets.append(distinct[rng.integers(0, distinct.shape[0], n)])
        else:
            sets.append(np.round(rng.standard_normal((n, dim)) * 2.0) / 2.0)
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    return np.stack(sets), k, draw(st.integers(0, 10_000))


class TestStackedKernels:
    """A stack along a leading video axis against one call per video."""

    @given(case=kmeans_stacks())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_kmeans_matches_one_call_per_video(self, case):
        pts, k, seed = case
        got = kmeans(pts, k, seed=seed)
        alone = [kmeans(video, k, seed=seed) for video in pts]
        assert got.assignments.tobytes() == np.stack([r.assignments for r in alone]).tobytes()
        assert got.centroids.tobytes() == np.stack([r.centroids for r in alone]).tobytes()
        assert got.inertia.tobytes() == np.array([r.inertia for r in alone]).tobytes()

    def test_kmeans_stack_with_max_iter(self):
        pts = np.random.default_rng(16).standard_normal((3, 40, 3))
        for max_iter in (1, 2):
            got = kmeans(pts, 5, seed=2, max_iter=max_iter)
            for v, video in enumerate(pts):
                assignments, centroids, inertia = kmeans_ref(video, 5, seed=2, max_iter=max_iter)
                assert np.array_equal(got.assignments[v], assignments)
                assert np.array_equal(got.centroids[v], centroids)
                assert got.inertia[v] == inertia

    def test_sym_eigen_matches_one_call_per_matrix(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 9, 33):
            a = np.stack([random_symmetric(rng, n) for _ in range(4)])
            got = sym_eigen(a)
            for v in range(4):
                alone = sym_eigen(a[v])
                assert got.eigenvalues[v].tobytes() == alone.eigenvalues.tobytes()
                assert got.eigenvectors[v].tobytes() == alone.eigenvectors.tobytes()

    def test_canonical_signs_of_a_stack(self):
        rng = np.random.default_rng(18)
        vectors = np.stack([np.linalg.eigh(random_symmetric(rng, 6))[1] for _ in range(3)])
        expected = vectors.copy()
        for matrix in expected:
            canonical_signs_ref(matrix)
        _canonical_signs(vectors)
        assert vectors.tobytes() == expected.tobytes()

    def test_cosine_matches_one_call_per_video(self):
        x = np.random.default_rng(19).standard_normal((4, 7, 5))
        got = cosine_similarity_matrix(x)
        assert got.tobytes() == np.stack([cosine_similarity_matrix(v) for v in x]).tobytes()

    def test_zero_row_names_video_and_row(self):
        x = np.ones((3, 4, 2))
        x[1, 2] = 0.0
        with pytest.raises(ZeroNormRowError, match=r"^row 2 of video 1 of x has zero norm$") as info:
            cosine_similarity_matrix(x)
        assert (info.value.video, info.value.row) == (1, 2)

    def test_non_finite_row_names_video_and_row(self):
        x = np.ones((3, 4, 2))
        x[2, 0, 1] = np.nan
        with pytest.raises(NonFiniteRowError,
                           match=r"^row 0 of video 2 of points contains non-finite entries$") as info:
            kmeans(x, 2)
        assert (info.value.video, info.value.row) == (2, 0)


class TestCosineSimilarityMatrix:
    def test_orthonormal_rows_identity(self):
        assert np.allclose(cosine_similarity_matrix(np.eye(4)), np.eye(4))

    def test_repeated_row_all_ones(self):
        sim = cosine_similarity_matrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert np.allclose(sim, 1.0)

    def test_antipodal(self):
        sim = cosine_similarity_matrix(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert sim[0, 1] == pytest.approx(-1.0)

    def test_symmetric_unit_diagonal_bounded(self):
        x = np.random.default_rng(8).standard_normal((12, 5))
        sim = cosine_similarity_matrix(x)
        assert np.array_equal(sim, sim.T)
        assert np.allclose(np.diag(sim), 1.0, atol=1e-12)
        assert np.all(sim >= -1.0) and np.all(sim <= 1.0)

    def test_zero_row_names_index(self):
        with pytest.raises(ZeroNormRowError) as info:
            cosine_similarity_matrix(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        assert info.value.row == 1
        assert str(info.value) == "row 1 of x has zero norm"
