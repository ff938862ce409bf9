"""Spectral graph partitioning (Cut&Match) and its approximations.

Nodes are grouped by functional similarity: an exponential cosine similarity
graph is built over the embeddings, its normalized Laplacian decomposed, and
K-means run on the rows of the K smallest-eigenvalue eigenvectors. For large
graphs a uniform temporal subsample is partitioned instead and labels are
propagated to the remaining nodes by nearest timestamp.

Every step takes a stack of videos along a leading axis, so the videos of a
batch graph that are partitioned at the same node count share one pass
(``approx_partition``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ClusteringError,
    NonFiniteRowError,
    NotSymmetricError,
    ZeroDegreeError,
    ZeroNormRowError,
)
from .graph import VideoGraph, nearest_indices
from .kernels import (
    SYMMETRY_ATOL,
    as_stack,
    cosine_similarity_matrix,
    kmeans,
    max_asymmetry,
    sym_eigen,
)

DEFAULT_KAPPA = 1.0
DEFAULT_MAX_NODES = 64


@dataclass(frozen=True)
class PartitionResult:
    """Cluster index per node plus the spectral gap of the decomposition used.

    Cluster indices lie in [0, k), k as asked for but at most the node
    count; clusters may be empty. ``eigengap`` is lambda_{k+1} - lambda_k of
    the normalized Laplacian, 0.0 when k is 1 or the node count. The
    partition of a batch graph holds its videos' indices side by side (an
    index compares only within its video), that of a (V, n, d) stack one
    row of indices per video, and either the smallest of their eigengaps.
    """

    assignments: np.ndarray
    eigengap: float


def similarity_matrix(x, kappa: float = DEFAULT_KAPPA) -> np.ndarray:
    """Exponential cosine similarity: S_ij = exp(cos(x_i, x_j) / kappa), of
    the rows of ``x`` or of each video of a (V, n, d) stack.

    Symmetric with diagonal exp(1/kappa) and entries in
    [exp(-1/kappa), exp(1/kappa)].
    """
    if kappa <= 0.0:
        raise ClusteringError(f"kappa={kappa} must be positive")
    return np.exp(cosine_similarity_matrix(x) / kappa)


def normalized_laplacian(w) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} W D^{-1/2}, of one
    affinity or of each of a (V, n, n) stack.

    Requires a symmetric non-negative affinity with strictly positive row
    sums. Eigenvalues lie in [0, 2] with smallest eigenvalue 0.
    """
    w = as_stack(w, "w")
    n, m = w.shape[-2:]
    if n != m:
        raise NotSymmetricError(f"affinity must be square, got {n}x{m}")
    if max_asymmetry(w) > SYMMETRY_ATOL:
        raise NotSymmetricError("affinity matrix is not symmetric")
    if np.any(w < 0.0):
        raise ClusteringError("affinity matrix has negative entries")
    degrees = w.sum(axis=-1)
    dead = np.flatnonzero(degrees == 0.0)
    if dead.size:
        video, row = divmod(int(dead[0]), n)
        where = f"row {row} of video {video}" if w.ndim == 3 else f"row {row}"
        raise ZeroDegreeError(f"{where} has zero degree")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    lap = -w * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]
    lap = 0.5 * (lap + lap.swapaxes(-1, -2))
    diagonal = np.arange(n)
    lap[..., diagonal, diagonal] += 1.0
    return lap


def spectral_partition(x, k: int, kappa: float = DEFAULT_KAPPA, seed: int = 0) -> PartitionResult:
    """Spectral clustering of embedding rows into at most ``k`` groups.

    Pipeline: similarity_matrix -> normalized_laplacian -> sym_eigen ->
    K-means (euclidean) on node rows of the K smallest-eigenvalue
    eigenvectors, with K = min(k, rows). At K = 1 every row is in group 0
    and no decomposition is made. k < 1, or ``x`` without rows, raises
    ClusteringError.

    ``x`` may also be a (V, n, d) stack of V videos' rows. Each video is
    partitioned as a call of its own would partition it, and the result
    holds (V, n) assignments and the smallest of the V eigengaps; a 2-D
    ``x`` is the one-video case of the same steps.
    """
    x = as_stack(x, "x")
    n = x.shape[-2]
    if k < 1:
        raise ClusteringError(f"k={k} must be >= 1")
    if 0 in x.shape[:-1]:
        raise ClusteringError("x has no rows to partition")
    k = min(k, n)
    if k == 1:
        return PartitionResult(np.zeros(x.shape[:-1], dtype=np.intp), 0.0)
    lap = normalized_laplacian(similarity_matrix(x, kappa))
    decomposition = sym_eigen(lap)
    embedding = decomposition.eigenvectors[..., :k]
    labels = kmeans(embedding, k, seed=seed).assignments
    values = decomposition.eigenvalues
    eigengap = float(np.min(values[..., k] - values[..., k - 1])) if k < n else 0.0
    return PartitionResult(labels, eigengap)


def uniform_subsample_indices(n: int, max_nodes: int) -> np.ndarray:
    """``max_nodes`` distinct indices spread uniformly over range(n)."""
    if max_nodes >= n:
        return np.arange(n, dtype=np.intp)
    return (np.arange(max_nodes, dtype=np.intp) * n) // max_nodes


def approx_partition(g: VideoGraph, k: int, kappa: float = DEFAULT_KAPPA,
                     max_nodes: int = DEFAULT_MAX_NODES, seed: int = 0) -> PartitionResult:
    """Spectral partition of each video of ``g`` with a node budget.

    A video at or under ``max_nodes`` nodes is partitioned exactly; a
    larger one is uniformly subsampled in timestamp order, the subsample
    partitioned, and every remaining node given the label of the temporally
    closest subsampled node (ties resolve to the earlier one). The budget
    must hold the min(k, nodes) groups that ``spectral_partition`` makes of
    each video.

    The videos partitioned at the same node count go through one stacked
    ``spectral_partition``, so each gets the labels a call on its own graph
    would give it; the result joins them as ``PartitionResult`` describes.
    An error about a row of a batch graph names the video by its index in
    the batch, and the row among the rows partitioned for it.
    """
    sizes = g.video_sizes
    for n in sizes:
        if max_nodes < min(k, n):
            raise ClusteringError(f"max_nodes={max_nodes} must be >= min(k={k}, nodes={n})")
    videos = g.video_rows()
    stacked = len(sizes) > 1  # a one-video graph's rows go in as a matrix
    picked = [uniform_subsample_indices(n, max_nodes) for n in sizes]
    groups: dict[int, list[int]] = {}  # partitioned node count -> videos
    for v, kept in enumerate(picked):
        groups.setdefault(kept.size, []).append(v)
    labels = [None] * len(sizes)
    eigengap = np.inf
    for members in groups.values():
        rows = [g.embeddings[videos[v]][picked[v]] for v in members]
        try:
            part = spectral_partition(np.stack(rows) if stacked else rows[0], k, kappa, seed)
        except (ZeroNormRowError, NonFiniteRowError) as exc:
            if not stacked:
                raise
            raise type(exc)(exc.row, exc.context, members[exc.video]) from None
        for v, sub in zip(members, part.assignments.reshape(len(members), -1)):
            times = g.timestamps[videos[v]]
            if picked[v].size < times.size:
                sub = sub[nearest_indices(times[picked[v]], times)]
            labels[v] = sub
        eigengap = min(eigengap, part.eigengap)
    return PartitionResult(np.concatenate(labels), eigengap)
