"""Dense linear-algebra and clustering primitives.

Everything here operates on float64 C-order numpy arrays and is pure:
identical inputs (plus seed, where one applies) produce bit-identical
outputs, so the kernels are safe to call from concurrent workers. The
symmetric eigensolve is LAPACK's, through ``numpy.linalg.eigh``; the tests
check it against an independent Householder + implicit-shift QL solver.

The spectral kernels (``cosine_similarity_matrix``, ``sym_eigen``,
``kmeans``) also take a stack of inputs along a leading video axis and treat
each video as a call of its own would, to the last bit; one stacked call
replaces a loop of small ones.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClusteringError,
    ConvergenceError,
    NonFiniteError,
    NonFiniteRowError,
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


def as_stack(a, name: str = "matrix") -> np.ndarray:
    """Validate ``a`` as a finite 2-D array, or a stack of them along a
    leading video axis (3-D), and return it as float64 C-order.

    A 2-D array is checked as ``as_matrix`` checks it; a non-finite entry
    of a stack raises NonFiniteRowError naming its video and row.
    """
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 3:
        return as_matrix(out, name)
    finite = np.isfinite(out).all(axis=2)
    if not finite.all():
        video, row = np.argwhere(~finite)[0]
        raise NonFiniteRowError(int(row), name, int(video))
    return np.ascontiguousarray(out)


def max_asymmetry(a: np.ndarray) -> float:
    """max |A - A^T| over a finite square matrix or a stack of them; 0.0
    below two rows.

    ``max_asymmetry(a) <= SYMMETRY_ATOL`` is the symmetry test of this
    package, the predicate ``np.allclose(a, a.T, rtol=0, atol=SYMMETRY_ATOL)``
    in one reduction.
    """
    if a.shape[-1] < 2 or a.size == 0:
        return 0.0
    diff = a - a.swapaxes(-1, -2)
    return float(np.max(np.abs(diff, out=diff)))


@dataclass(frozen=True)
class EigenDecomposition:
    """Full symmetric eigendecomposition.

    ``eigenvalues`` are sorted ascending; column j of ``eigenvectors`` is the
    unit-norm eigenvector for ``eigenvalues[j]``, with its first non-negligible
    component forced positive so results are reproducible. A stack of
    matrices has a stack of each: (V, n) values and (V, n, n) vectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eigen(a) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, or of each matrix of a
    (V, n, n) stack.

    LAPACK's symmetric solver via ``numpy.linalg.eigh`` (which reads the lower
    triangle; the symmetry check bounds what the upper one may add), followed
    by the sign convention of ``EigenDecomposition``. A stack is one ``eigh``
    call, which solves its matrices one by one as separate calls would. A
    LAPACK convergence failure is raised as ConvergenceError.
    """
    a = as_stack(a, "a")
    n, m = a.shape[-2:]
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
    """Flip eigenvector columns, of one matrix or of each in a stack, so the
    first non-negligible entry is positive.

    An entry is non-negligible above 1e-12 times its column's largest
    magnitude; an all-zero column keeps its sign.
    """
    if vectors.size == 0:
        return
    mag = np.abs(vectors)
    threshold = 1e-12 * np.maximum(mag.max(axis=-2), 1e-300)
    lead = np.argmax(mag > threshold[..., None, :], axis=-2)
    m, c = vectors.shape[-2:]
    matrices = vectors.reshape(-1, m, c)
    first = matrices[np.arange(len(matrices))[:, None], lead.reshape(-1, c), np.arange(c)]
    vectors.swapaxes(-1, -2)[(first < 0.0).reshape(lead.shape)] *= -1.0


def cosine_similarity_matrix(x) -> np.ndarray:
    """Pairwise cosine similarities between the rows of ``x``, or between
    the rows of each video of a (V, n, d) stack.

    Output is exactly symmetric with a unit diagonal and entries clipped to
    [-1, 1]; a zero-norm row raises ZeroNormRowError naming the row (and in
    a stack, its video).
    """
    x = as_stack(x, "x")
    norms = np.linalg.norm(x, axis=-1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        video, row = divmod(int(zero[0]), x.shape[-2])
        raise ZeroNormRowError(row, "x", video if x.ndim == 3 else None)
    unit = x / norms[..., None]
    sim = unit @ unit.swapaxes(-1, -2)
    sim = 0.5 * (sim + sim.swapaxes(-1, -2))
    np.clip(sim, -1.0, 1.0, out=sim)
    diagonal = np.arange(sim.shape[-1])
    sim[..., diagonal, diagonal] = 1.0
    return sim


@dataclass(frozen=True)
class KMeansResult:
    """Lloyd's algorithm output: per-point labels, centroids, final inertia.

    For a (V, n, dim) stack of point sets each field has a leading video
    axis: (V, n) labels, (V, k, dim) centroids and (V,) inertias.
    """

    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float | np.ndarray


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
    (``_sum_squares``), cluster means as ``mean`` over the members
    (``_Lloyd.means``).

    ``points`` may also be a (V, n, dim) stack of V videos' point sets:
    each video is clustered as a call of its own would cluster it (see
    ``KMeansResult``). The draws depend only on ``seed``, n, k and
    ``n_init``, so all V calls would draw the same; the stack draws once.
    For the same reason ``_draws`` caches them per (seed, n, k, n_init), as
    read-only arrays: no point value reaches the generator, so a cached draw
    is the one a fresh generator would make.
    """
    pts = as_stack(points, "points")
    stacked = pts.ndim == 3
    if not stacked:
        pts = pts[None]
    n = pts.shape[1]
    if n == 0 or len(pts) == 0:
        raise ClusteringError("cannot cluster an empty point set")
    if not 1 <= k <= n:
        raise ClusteringError(f"k={k} must be in [1, {n}]")
    if max_iter < 1:
        raise ClusteringError(f"max_iter={max_iter} must be >= 1")
    if n_init < 1:
        raise ClusteringError(f"n_init={n_init} must be >= 1")

    first, u = _draws(operator.index(seed), n, k, n_init)
    lloyd = _Lloyd(pts, n_init, k)
    centroids = lloyd.seeds(_kmeanspp_indices(pts, first, u))
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
    # each video's best run; argmin takes the first of equal minima
    best = n_init * np.arange(len(pts)) + np.argmin(inertia.reshape(-1, n_init), axis=1)
    picked = np.ascontiguousarray(centroids[:, best].transpose(1, 2, 0))
    if stacked:
        return KMeansResult(assignments[best], picked, inertia[best])
    return KMeansResult(assignments[best[0]], picked[0], float(inertia[best[0]]))


@functools.lru_cache(maxsize=128)
def _draws(seed: int, n: int, k: int, n_init: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-means++ draws of ``n_init`` restarts on n points: each
    restart's first seed row (``first``, (n_init,)) and its k - 1 uniforms
    (``u``, (n_init, k - 1)), from one generator in the order sequential
    restarts draw them. Both are read-only, since every call with the same
    arguments shares them."""
    rng = np.random.default_rng(seed)
    first = np.empty(n_init, dtype=np.intp)
    u = np.empty((n_init, k - 1))
    for r in range(n_init):  # the draw order of sequential restarts
        first[r] = rng.integers(n)
        u[r] = rng.random(k - 1)
    first.setflags(write=False)
    u.setflags(write=False)
    return first, u


# Rows of the seeding's distance table are built a block at a time, so the
# (dim, V, rows, n) differences stay under this many floats (1 MiB).
_TABLE_BLOCK = 1 << 17


def _kmeanspp_indices(pts: np.ndarray, first: np.ndarray, u: np.ndarray) -> np.ndarray:
    """k-means++ seed rows for every restart of each video of a (V, n, dim)
    stack at once: (V, R, k) indices, every video from the same ``first``
    and ``u``.

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
    videos, n, dim = pts.shape
    cols = np.ascontiguousarray(pts.transpose(2, 0, 1))
    dist = np.empty((videos, n, n))
    rows = max(1, _TABLE_BLOCK // max(1, pts.size))
    for lo in range(0, n, rows):
        dist[:, lo:lo + rows] = _sum_squares(cols[:, :, lo:lo + rows, None] - cols[:, :, None, :])
    chosen = np.empty((videos, first.shape[0], u.shape[1] + 1), dtype=np.intp)
    chosen[:, :, 0] = first
    uniform = np.minimum((u * n).astype(np.intp), n - 1)
    table_rows = np.arange(videos)[:, None]
    d2 = dist[:, first]
    for i in range(1, chosen.shape[2]):
        total = d2.sum(axis=2)
        spread = (total > 0.0)[:, :, None]
        cdf = np.cumsum(np.divide(d2, total[:, :, None], out=np.zeros_like(d2), where=spread),
                        axis=2)
        cdf = np.divide(cdf, cdf[:, :, -1:], out=cdf, where=spread)
        by_cdf = np.sum(cdf <= u[:, i - 1, None], axis=2)
        chosen[:, :, i] = np.where(spread[:, :, 0], by_cdf, uniform[:, i - 1])
        np.minimum(d2, dist[table_rows, chosen[:, :, i]], out=d2)
    return chosen


def _sum_squares(diff: np.ndarray) -> np.ndarray:
    """Sum of ``diff ** 2`` over axis 0, squaring ``diff`` in place, in the
    order ``np.sum(..., axis=-1)`` adds a contiguous last axis: below 8
    terms one after another, from 8 on numpy's pairwise summation, which
    ``np.sum`` runs on a copy with that axis last. numpy starts from 0.0, so
    an all -0.0 sum may differ in sign; sums of squares cannot."""
    np.square(diff, out=diff)
    if diff.shape[0] < 8:
        return np.add.reduce(diff, axis=0)
    return np.ascontiguousarray(np.moveaxis(diff, 0, -1)).sum(axis=-1)


class _Lloyd:
    """Lloyd steps of all restarts of all videos at once, with the index
    arrays and the distance workspace of one ``kmeans`` call.

    Restart r of video v is run v * R + r of the V * R runs, and each run
    keeps its own copy of its video's points: (dim, V * R, n) columns
    ``cols``. The centroids of the runs are (dim, V * R, k), so a squared
    distance is a sum over the leading axis (``_sum_squares``).
    """

    def __init__(self, pts: np.ndarray, n_init: int, k: int):
        v, n, dim = pts.shape
        self.pts = np.repeat(pts, n_init, axis=0)
        self.cols = np.ascontiguousarray(self.pts.transpose(2, 0, 1))
        self.work = np.empty((dim, v * n_init, k, n))
        self.runs = np.arange(v * n_init)[:, None]
        # bincount cell of (column c, run r, cluster j): c * runs * k + r * k + j
        self.run_cells = k * self.runs
        self.column_cells = (v * n_init * k) * np.arange(dim)[:, None]

    def seeds(self, chosen: np.ndarray) -> np.ndarray:
        """The points at (V, R, k) seed rows, as (dim, V * R, k) centroids."""
        return self.cols[:, self.runs, chosen.reshape(len(self.runs), -1)]

    def assign(self, centroids: np.ndarray) -> np.ndarray:
        """Nearest centroid per point for each run: (V * R, n) indices."""
        np.subtract(self.cols[:, :, None, :], centroids[:, :, :, None], out=self.work)
        return _sum_squares(self.work).argmin(axis=1)

    def means(self, assignments: np.ndarray, previous: np.ndarray) -> np.ndarray:
        """Member means per run and cluster; an empty cluster keeps its
        previous centroid.

        Each sum adds its members in the order ``pts[members].mean(axis=0)``
        does. With two or more columns that is row by row in point order from
        0.0, which one bincount over (column, run, cluster) cells does, as in
        ``autodiff.segment_sum``. A single column is summed pairwise instead
        (numpy's pairwise summation), so there each group's members are laid
        out left-aligned in point order and summed by one masked reduction,
        which adds them in that order.
        """
        dim, runs, k = previous.shape
        groups = (assignments + self.run_cells).ravel()
        counts = np.bincount(groups, minlength=runs * k)
        weights = self.cols.ravel()
        if dim == 1:
            order = np.argsort(groups, kind="stable")
            group = groups[order]
            slot = np.arange(group.size) - (np.cumsum(counts) - counts)[group]
            members = np.zeros((runs * k, int(counts.max())))
            present = np.zeros(members.shape, dtype=bool)
            members[group, slot] = weights[order]
            present[group, slot] = True
            sums = np.add.reduce(members, axis=1, where=present)
        else:
            cells = (groups + self.column_cells).ravel()
            sums = np.bincount(cells, weights=weights, minlength=dim * runs * k)
        counts = counts.reshape(runs, k)
        means = previous.copy()
        np.divide(sums.reshape(previous.shape), counts, out=means, where=counts > 0)
        return means

    def inertia(self, centroids: np.ndarray, assignments: np.ndarray) -> np.ndarray:
        """Per-run inertia: summed squared distance to the assigned
        centroid, added over each run's (n, dim) block as
        ``np.sum((pts - centroids[assignments]) ** 2)`` adds it."""
        picked = centroids.transpose(1, 2, 0)[self.runs, assignments]
        picked -= self.pts
        return np.square(picked, out=picked).sum(axis=(1, 2))
