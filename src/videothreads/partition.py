"""Spectral graph partitioning (Cut&Match) and its approximations.

Nodes are grouped by functional similarity: an exponential cosine similarity
graph is built over the embeddings, its normalized Laplacian decomposed, and
K-means run on the rows of the K smallest-eigenvalue eigenvectors. For large
graphs a uniform temporal subsample is partitioned instead and labels are
propagated to the remaining nodes by nearest timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClusteringError, NotSymmetricError, ZeroDegreeError
from .graph import VideoGraph, nearest_indices
from .kernels import (
    SYMMETRY_ATOL,
    as_matrix,
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
    index compares only within its video) and the smallest of their
    eigengaps.
    """

    assignments: np.ndarray
    eigengap: float


def similarity_matrix(x, kappa: float = DEFAULT_KAPPA) -> np.ndarray:
    """Exponential cosine similarity: S_ij = exp(cos(x_i, x_j) / kappa).

    Symmetric with diagonal exp(1/kappa) and entries in
    [exp(-1/kappa), exp(1/kappa)].
    """
    if kappa <= 0.0:
        raise ClusteringError(f"kappa={kappa} must be positive")
    return np.exp(cosine_similarity_matrix(x) / kappa)


def normalized_laplacian(w) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} W D^{-1/2}.

    Requires a symmetric non-negative affinity with strictly positive row
    sums. Eigenvalues lie in [0, 2] with smallest eigenvalue 0.
    """
    w = as_matrix(w, "w")
    n, m = w.shape
    if n != m:
        raise NotSymmetricError(f"affinity must be square, got {n}x{m}")
    if max_asymmetry(w) > SYMMETRY_ATOL:
        raise NotSymmetricError("affinity matrix is not symmetric")
    if np.any(w < 0.0):
        raise ClusteringError("affinity matrix has negative entries")
    degrees = w.sum(axis=1)
    dead = np.flatnonzero(degrees == 0.0)
    if dead.size:
        raise ZeroDegreeError(f"row {int(dead[0])} has zero degree")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    lap = -w * inv_sqrt[:, None] * inv_sqrt[None, :]
    lap = 0.5 * (lap + lap.T)
    np.fill_diagonal(lap, 1.0 + np.diag(lap))
    return lap


def spectral_partition(x, k: int, kappa: float = DEFAULT_KAPPA, seed: int = 0) -> PartitionResult:
    """Spectral clustering of embedding rows into at most ``k`` groups.

    Pipeline: similarity_matrix -> normalized_laplacian -> sym_eigen ->
    K-means (euclidean) on node rows of the K smallest-eigenvalue
    eigenvectors, with K = min(k, rows). At K = 1 every row is in group 0
    and no decomposition is made. k < 1, or ``x`` without rows, raises
    ClusteringError.
    """
    x = as_matrix(x, "x")
    n = x.shape[0]
    if k < 1:
        raise ClusteringError(f"k={k} must be >= 1")
    if n == 0:
        raise ClusteringError("x has no rows to partition")
    k = min(k, n)
    if k == 1:
        return PartitionResult(np.zeros(n, dtype=np.intp), 0.0)
    lap = normalized_laplacian(similarity_matrix(x, kappa))
    decomposition = sym_eigen(lap)
    embedding = decomposition.eigenvectors[:, :k]
    labels = kmeans(embedding, k, seed=seed).assignments
    if k < n:
        eigengap = float(decomposition.eigenvalues[k] - decomposition.eigenvalues[k - 1])
    else:
        eigengap = 0.0
    return PartitionResult(labels, eigengap)


def uniform_subsample_indices(n: int, max_nodes: int) -> np.ndarray:
    """``max_nodes`` distinct indices spread uniformly over range(n)."""
    if max_nodes >= n:
        return np.arange(n, dtype=np.intp)
    return (np.arange(max_nodes, dtype=np.intp) * n) // max_nodes


def approx_partition(g: VideoGraph, k: int, kappa: float = DEFAULT_KAPPA,
                     max_nodes: int = DEFAULT_MAX_NODES, seed: int = 0) -> PartitionResult:
    """Spectral partition with a node budget.

    Graphs at or under ``max_nodes`` are partitioned exactly; larger graphs
    are uniformly subsampled in timestamp order, the subsample partitioned,
    and every remaining node given the label of the temporally closest
    subsampled node (ties resolve to the earlier one). The budget must hold
    the min(k, nodes) groups that ``spectral_partition`` makes.
    """
    n = g.num_nodes
    if max_nodes < min(k, n):
        raise ClusteringError(f"max_nodes={max_nodes} must be >= min(k={k}, nodes={n})")
    if n <= max_nodes:
        return spectral_partition(g.embeddings, k, kappa, seed)
    picked = uniform_subsample_indices(n, max_nodes)
    sub = spectral_partition(g.embeddings[picked], k, kappa, seed)
    closest = nearest_indices(g.timestamps[picked], g.timestamps)
    return PartitionResult(sub.assignments[closest], sub.eigengap)
