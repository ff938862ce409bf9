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
    if n > 1 and not np.allclose(a, a.T, rtol=0.0, atol=SYMMETRY_ATOL):
        worst = float(np.max(np.abs(a - a.T)))
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
    from one generator in the order sequential restarts would.
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
    centroids = pts[_kmeanspp_indices(pts, first, u)]
    assignments = _assign(pts, centroids)
    # A restart at its fixpoint maps to itself, so iterating it along with
    # the others until all have converged leaves it where it stopped.
    for _ in range(max_iter):
        centroids = _cluster_means(pts, assignments, centroids)
        new_assignments = _assign(pts, centroids)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    inertia = _inertia(pts, centroids, assignments)
    best = int(np.argmin(inertia))  # the first of equal minima
    return KMeansResult(assignments[best], centroids[best], float(inertia[best]))


def _kmeanspp_indices(pts: np.ndarray, first: np.ndarray, u: np.ndarray) -> np.ndarray:
    """k-means++ seed rows for every restart at once: (R, k) indices.

    Restart r starts at ``first[r]`` and picks seed i by inverse CDF of the
    squared distance to its nearest seed so far at ``u[r, i - 1]`` (what
    ``Generator.choice(n, p=d2 / d2.sum())`` does with that uniform). When
    every point already sits on a seed, it takes index floor(u * n).
    """
    n = pts.shape[0]
    chosen = np.empty((first.shape[0], u.shape[1] + 1), dtype=np.intp)
    chosen[:, 0] = first
    d2 = np.sum((pts[None, :, :] - pts[first][:, None, :]) ** 2, axis=2)
    for i in range(1, chosen.shape[1]):
        total = d2.sum(axis=1)
        spread = (total > 0.0)[:, None]
        cdf = np.cumsum(np.divide(d2, total[:, None], out=np.zeros_like(d2), where=spread), axis=1)
        cdf = np.divide(cdf, cdf[:, -1:], out=cdf, where=spread)
        by_cdf = np.sum(cdf <= u[:, i - 1, None], axis=1)
        uniform = np.minimum((u[:, i - 1] * n).astype(np.intp), n - 1)
        chosen[:, i] = np.where(spread[:, 0], by_cdf, uniform)
        d2 = np.minimum(d2, np.sum((pts[None, :, :] - pts[chosen[:, i]][:, None, :]) ** 2, axis=2))
    return chosen


def _assign(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per point for each restart: (R, n) from (R, k, dim)."""
    d2 = np.sum((pts[None, :, None, :] - centroids[:, None, :, :]) ** 2, axis=3)
    return np.argmin(d2, axis=2)


def _cluster_means(pts: np.ndarray, assignments: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Member means per restart and cluster; an empty cluster keeps its
    previous centroid.

    Each group's members are laid out left-aligned in point order and summed
    by one masked reduction, which adds them in the order
    ``pts[members].mean(axis=0)`` does (row by row, or pairwise for a single
    column).
    """
    n_init, k, dim = previous.shape
    groups = (assignments + k * np.arange(n_init)[:, None]).ravel()
    counts = np.bincount(groups, minlength=n_init * k)
    order = np.argsort(groups, kind="stable")
    group = groups[order]
    slot = np.arange(group.size) - (np.cumsum(counts) - counts)[group]
    members = np.zeros((n_init * k, int(counts.max()), dim))
    present = np.zeros(members.shape[:2], dtype=bool)
    members[group, slot] = pts[order % pts.shape[0]]
    present[group, slot] = True
    sums = np.add.reduce(members, axis=1, where=present[:, :, None])
    counts = counts.reshape(n_init, k, 1)
    return np.where(counts > 0, sums.reshape(n_init, k, dim) / np.maximum(counts, 1), previous)


def _inertia(pts: np.ndarray, centroids: np.ndarray, assignments: np.ndarray) -> np.ndarray:
    """Per-restart inertia: summed squared distance to the assigned centroid."""
    picked = np.take_along_axis(centroids, assignments[:, :, None], axis=1)
    return np.sum((pts[None, :, :] - picked) ** 2, axis=(1, 2))
