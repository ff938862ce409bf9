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
    """Lloyd's algorithm output: per-point labels, centroids, final inertia.

    For the cosine metric, points are L2-normalized up front and centroids
    are means in that normalized space.
    """

    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float


def kmeans(points, k: int, metric: str = "euclidean", seed: int = 0,
           max_iter: int = 100, n_init: int = 8) -> KMeansResult:
    """Deterministic k-means with k-means++ seeding.

    metric="euclidean" minimizes within-cluster squared distance;
    metric="cosine" assigns by maximum cosine similarity on L2-normalized
    points (inertia is the summed cosine distance). Each restart runs Lloyd
    iterations to an assignment fixpoint or ``max_iter``; the best of
    ``n_init`` seeded restarts (lowest inertia) is returned.
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
    if metric not in ("euclidean", "cosine"):
        raise ClusteringError(f"unknown metric {metric!r}")

    if metric == "cosine":
        norms = np.linalg.norm(pts, axis=1)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ZeroNormRowError(int(zero[0]), "points")
        pts = pts / norms[:, None]

    rng = np.random.default_rng(seed)
    best: KMeansResult | None = None
    for _ in range(n_init):
        result = _lloyd_once(pts, k, metric, rng, max_iter)
        if best is None or result.inertia < best.inertia:
            best = result
    return best


def _lloyd_once(pts: np.ndarray, k: int, metric: str, rng: np.random.Generator,
                max_iter: int, history: list | None = None) -> KMeansResult:
    centroids = _kmeanspp_seeds(pts, k, rng)
    assignments = _assign(pts, centroids, metric)
    if history is not None:
        history.append(_inertia(pts, centroids, assignments, metric))
    for _ in range(max_iter):
        centroids = _cluster_means(pts, assignments, k, centroids)
        new_assignments = _assign(pts, centroids, metric)
        if history is not None:
            history.append(_inertia(pts, centroids, new_assignments, metric))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return KMeansResult(assignments, centroids, _inertia(pts, centroids, assignments, metric))


def _kmeanspp_seeds(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    chosen = np.empty(k, dtype=np.intp)
    chosen[0] = rng.integers(n)
    d2 = np.sum((pts - pts[chosen[0]]) ** 2, axis=1)
    for i in range(1, k):
        total = float(d2.sum())
        if total == 0.0:
            chosen[i] = rng.integers(n)
        else:
            chosen[i] = rng.choice(n, p=d2 / total)
        d2 = np.minimum(d2, np.sum((pts - pts[chosen[i]]) ** 2, axis=1))
    return pts[chosen].copy()


def _assign(pts: np.ndarray, centroids: np.ndarray, metric: str) -> np.ndarray:
    if metric == "euclidean":
        d2 = np.sum((pts[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        return np.argmin(d2, axis=1)
    sims = _cosine_to_centroids(pts, centroids)
    return np.argmax(sims, axis=1)


def _cosine_to_centroids(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # Points are unit rows here; a degenerate zero centroid gets similarity
    # below any cosine so no point prefers it.
    norms = np.linalg.norm(centroids, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    sims = pts @ (centroids / safe[:, None]).T
    sims[:, norms == 0.0] = -2.0
    return sims


def _cluster_means(pts: np.ndarray, assignments: np.ndarray, k: int,
                   previous: np.ndarray) -> np.ndarray:
    centroids = previous.copy()
    for c in range(k):
        members = assignments == c
        if members.any():
            centroids[c] = pts[members].mean(axis=0)
    return centroids


def _inertia(pts: np.ndarray, centroids: np.ndarray, assignments: np.ndarray,
             metric: str) -> float:
    picked = centroids[assignments]
    if metric == "euclidean":
        return float(np.sum((pts - picked) ** 2))
    sims = _cosine_to_centroids(pts, centroids)
    chosen = sims[np.arange(pts.shape[0]), assignments]
    chosen = np.where(chosen < -1.0, 0.0, chosen)  # zero-centroid convention
    return float(np.sum(1.0 - chosen))
