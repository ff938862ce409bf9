"""Dense linear-algebra and clustering primitives.

Everything here operates on float64 C-order numpy arrays and is pure:
identical inputs (plus seed, where one applies) produce bit-identical
outputs, so the kernels are safe to call from concurrent workers. The
symmetric eigensolve is LAPACK's, through ``numpy.linalg.eigh``; the tests
check it against an independent Householder + implicit-shift QL solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ClusteringError,
    ConvergenceError,
    NonFiniteError,
    NotSymmetricError,
    ShapeError,
    ZeroNormRowError,
)

SYMMETRY_ATOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate ``a`` as a finite 2-D array and return it as float64 C-order."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(out)


def max_asymmetry(a: np.ndarray) -> float:
    """max |A - A^T| of a finite square matrix; 0.0 below two rows.

    ``max_asymmetry(a) <= SYMMETRY_ATOL`` is the symmetry test of this
    package, the predicate ``np.allclose(a, a.T, rtol=0, atol=SYMMETRY_ATOL)``
    in one reduction.
    """
    if a.shape[0] < 2:
        return 0.0
    diff = a - a.T
    return float(np.max(np.abs(diff, out=diff)))


@dataclass(frozen=True)
class EigenDecomposition:
    """Full symmetric eigendecomposition.

    ``eigenvalues`` are sorted ascending; column j of ``eigenvectors`` is the
    unit-norm eigenvector for ``eigenvalues[j]``, with its first non-negligible
    component forced positive so results are reproducible.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eigen(a) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix.

    LAPACK's symmetric solver via ``numpy.linalg.eigh`` (which reads the lower
    triangle; the symmetry check bounds what the upper one may add), followed
    by the sign convention of ``EigenDecomposition``. A LAPACK convergence
    failure is raised as ConvergenceError.
    """
    a = as_matrix(a, "a")
    n, m = a.shape
    if n != m:
        raise ShapeError(f"matrix must be square, got {n}x{m}")
    worst = max_asymmetry(a)
    if worst > SYMMETRY_ATOL:
        raise NotSymmetricError(f"matrix is not symmetric (max |A - A^T| = {worst:.3e})")

    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed to converge: {exc}") from exc
    _canonical_signs(vectors)
    return EigenDecomposition(values, vectors)


def _canonical_signs(vectors: np.ndarray) -> None:
    """Flip eigenvector columns so the first non-negligible entry is positive.

    An entry is non-negligible above 1e-12 times its column's largest
    magnitude; an all-zero column keeps its sign.
    """
    if vectors.size == 0:
        return
    mag = np.abs(vectors)
    threshold = 1e-12 * np.maximum(mag.max(axis=0), 1e-300)
    lead = np.argmax(mag > threshold, axis=0)
    flip = vectors[lead, np.arange(vectors.shape[1])] < 0.0
    vectors[:, flip] *= -1.0


def cosine_similarity_matrix(x) -> np.ndarray:
    """Pairwise cosine similarities between the rows of ``x``.

    Output is exactly symmetric with a unit diagonal and entries clipped to
    [-1, 1]; a zero-norm row raises ZeroNormRowError naming the row.
    """
    x = as_matrix(x, "x")
    norms = np.linalg.norm(x, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroNormRowError(int(zero[0]), "x")
    unit = x / norms[:, None]
    sim = unit @ unit.T
    sim = 0.5 * (sim + sim.T)
    np.clip(sim, -1.0, 1.0, out=sim)
    np.fill_diagonal(sim, 1.0)
    return sim


@dataclass(frozen=True)
class KMeansResult:
    """Lloyd's algorithm output: per-point labels, centroids, final inertia."""

    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float


def kmeans(points, k: int, seed: int = 0, max_iter: int = 100,
           n_init: int = 8) -> KMeansResult:
    """Deterministic euclidean k-means with k-means++ seeding.

    Minimizes within-cluster squared distance. Each restart runs Lloyd
    iterations to an assignment fixpoint or ``max_iter``; the best of
    ``n_init`` seeded restarts (lowest inertia, the first on ties) is
    returned. All restarts run together as (n_init, ...) arrays; they draw
    from one generator in the order sequential restarts would, and every
    sum adds its terms in the order the sequential restart loop in
    ``tests/reference_impl.py`` adds them, so the result is the same to the
    last bit: squared distances as ``np.sum`` over a row's columns
    (``_pairwise_sum``), cluster means as ``mean`` over the members
    (``_Lloyd.means``).
    """
    pts = as_matrix(points, "points")
    n = pts.shape[0]
    if n == 0:
        raise ClusteringError("cannot cluster an empty point set")
    if not 1 <= k <= n:
        raise ClusteringError(f"k={k} must be in [1, {n}]")
    if max_iter < 1:
        raise ClusteringError(f"max_iter={max_iter} must be >= 1")
    if n_init < 1:
        raise ClusteringError(f"n_init={n_init} must be >= 1")

    rng = np.random.default_rng(seed)
    first = np.empty(n_init, dtype=np.intp)
    u = np.empty((n_init, k - 1))
    for r in range(n_init):  # the draw order of sequential restarts
        first[r] = rng.integers(n)
        u[r] = rng.random(k - 1)
    lloyd = _Lloyd(pts, n_init, k)
    centroids = lloyd.cols[:, _kmeanspp_indices(pts, first, u)]
    assignments = lloyd.assign(centroids)
    # A restart at its fixpoint maps to itself, so iterating it along with
    # the others until all have converged leaves it where it stopped.
    for _ in range(max_iter):
        centroids = lloyd.means(assignments, centroids)
        new_assignments = lloyd.assign(centroids)
        if (new_assignments == assignments).all():
            break
        assignments = new_assignments
    inertia = lloyd.inertia(centroids, assignments)
    best = int(np.argmin(inertia))  # the first of equal minima
    return KMeansResult(assignments[best], np.ascontiguousarray(centroids[:, best].T),
                        float(inertia[best]))


# Rows of the seeding's distance table are built a block at a time, so the
# (dim, rows, n) differences stay under this many floats (1 MiB).
_TABLE_BLOCK = 1 << 17


def _kmeanspp_indices(pts: np.ndarray, first: np.ndarray, u: np.ndarray) -> np.ndarray:
    """k-means++ seed rows for every restart at once: (R, k) indices.

    Restart r starts at ``first[r]`` and picks seed i by inverse CDF of the
    squared distance to its nearest seed so far at ``u[r, i - 1]`` (what
    ``Generator.choice(n, p=d2 / d2.sum())`` does with that uniform). When
    every point already sits on a seed, it takes index floor(u * n).

    The n x n squared-distance table is built once; each step gathers the
    rows of its new seeds. It is exactly symmetric, since (a - b)**2 ==
    (b - a)**2 in floating point, so row c holds the distances to point c
    bit for bit as a seed-by-seed computation would. The table holds n**2
    floats, as many as each of the n x n arrays a spectral partition of the
    same points already holds.
    """
    n, dim = pts.shape
    cols = np.ascontiguousarray(pts.T)
    dist = np.empty((n, n))
    rows = max(1, _TABLE_BLOCK // max(1, n * dim))
    for lo in range(0, n, rows):
        dist[lo:lo + rows] = _sum_squares(cols[:, lo:lo + rows, None] - cols[:, None, :])
    chosen = np.empty((first.shape[0], u.shape[1] + 1), dtype=np.intp)
    chosen[:, 0] = first
    uniform = np.minimum((u * n).astype(np.intp), n - 1)
    d2 = dist[first]
    for i in range(1, chosen.shape[1]):
        total = d2.sum(axis=1)
        spread = (total > 0.0)[:, None]
        cdf = np.cumsum(np.divide(d2, total[:, None], out=np.zeros_like(d2), where=spread), axis=1)
        cdf = np.divide(cdf, cdf[:, -1:], out=cdf, where=spread)
        by_cdf = np.sum(cdf <= u[:, i - 1, None], axis=1)
        chosen[:, i] = np.where(spread[:, 0], by_cdf, uniform[:, i - 1])
        np.minimum(d2, dist[chosen[:, i]], out=d2)
    return chosen


def _sum_squares(diff: np.ndarray) -> np.ndarray:
    """``_pairwise_sum`` of ``diff ** 2``, squaring ``diff`` in place."""
    np.square(diff, out=diff)
    return _pairwise_sum(diff)


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in the order ``np.sum(..., axis=-1)`` adds a
    contiguous last axis (numpy's pairwise summation).

    Below 8 terms, one after another. Up to 128, 8 running lanes over
    blocks of 8, joined as ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)),
    then the rest one by one. Above 128, the two halves (split at a
    multiple of 8) each so, then added. numpy starts from 0.0, so an
    all -0.0 sum may differ in sign; sums of squares cannot.
    """
    m = terms.shape[0]
    if m < 8:
        return np.add.reduce(terms, axis=0)
    if m > 128:
        half = m // 2 - (m // 2) % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    lanes = terms[:8].copy()
    end = m - m % 8
    for i in range(8, end, 8):
        lanes += terms[i:i + 8]
    total = (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
             + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
    for i in range(end, m):
        total += terms[i]
    return total


class _Lloyd:
    """Lloyd steps of all restarts at once, with the index arrays and the
    distance workspace of one ``kmeans`` call.

    Points are laid out as (dim, n) columns ``cols`` and the centroids of
    the R restarts as (dim, R, k), so a squared distance is a sum over the
    leading axis (``_sum_squares``).
    """

    def __init__(self, pts: np.ndarray, n_init: int, k: int):
        n, dim = pts.shape
        self.pts = pts
        self.cols = np.ascontiguousarray(pts.T)
        self.work = np.empty((dim, n_init, k, n))
        self.restarts = np.arange(n_init)[:, None]
        # bincount cell of (column c, restart r, cluster j): c * R * k + r * k + j
        self.column_cells = (n_init * k) * np.arange(dim)[:, None]
        self.weights = np.repeat(self.cols[:, None, :], n_init, axis=1).ravel()

    def assign(self, centroids: np.ndarray) -> np.ndarray:
        """Nearest centroid per point for each restart: (R, n) indices."""
        np.subtract(self.cols[:, None, None, :], centroids[:, :, :, None], out=self.work)
        return _sum_squares(self.work).argmin(axis=1)

    def means(self, assignments: np.ndarray, previous: np.ndarray) -> np.ndarray:
        """Member means per restart and cluster; an empty cluster keeps its
        previous centroid.

        Each sum adds its members in the order ``pts[members].mean(axis=0)``
        does. With two or more columns that is row by row in point order from
        0.0, which one bincount over (column, restart, cluster) cells does, as
        in ``autodiff.segment_sum``. A single column is summed pairwise
        instead (the scheme ``_pairwise_sum`` describes), so there each
        group's members are laid out left-aligned in point order and summed
        by one masked reduction, which adds them in that order.
        """
        dim, n_init, k = previous.shape
        groups = (assignments + k * self.restarts).ravel()
        counts = np.bincount(groups, minlength=n_init * k)
        if dim == 1:
            order = np.argsort(groups, kind="stable")
            group = groups[order]
            slot = np.arange(group.size) - (np.cumsum(counts) - counts)[group]
            members = np.zeros((n_init * k, int(counts.max())))
            present = np.zeros(members.shape, dtype=bool)
            members[group, slot] = self.weights[order]
            present[group, slot] = True
            sums = np.add.reduce(members, axis=1, where=present)
        else:
            cells = (groups + self.column_cells).ravel()
            sums = np.bincount(cells, weights=self.weights, minlength=dim * n_init * k)
        counts = counts.reshape(n_init, k)
        means = previous.copy()
        np.divide(sums.reshape(previous.shape), counts, out=means, where=counts > 0)
        return means

    def inertia(self, centroids: np.ndarray, assignments: np.ndarray) -> np.ndarray:
        """Per-restart inertia: summed squared distance to the assigned
        centroid, added over each restart's (n, dim) block as
        ``np.sum((pts - centroids[assignments]) ** 2)`` adds it."""
        picked = centroids.transpose(1, 2, 0)[self.restarts, assignments]
        picked -= self.pts
        return np.square(picked, out=picked).sum(axis=(1, 2))
