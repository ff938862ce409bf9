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
    sym_eigen,
)

DEFAULT_KAPPA = 1.0
DEFAULT_MAX_NODES = 64

PARTITION_METHODS = ("kmeans_l2", "kmeans_cosine", "spectral")


@dataclass(frozen=True)
class PartitionResult:
    """Cluster index per node plus the spectral gap of the decomposition used.

    ``eigengap`` is lambda_{K+1} - lambda_K of the normalized Laplacian
    (0.0 when K equals the node count or no decomposition was involved).
    Cluster indices in [0, K); clusters may be empty.
    """

    assignments: np.ndarray
    k: int
    eigengap: float

    def members(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == cluster)


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
    if not np.allclose(w, w.T, rtol=0.0, atol=SYMMETRY_ATOL):
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
    """Spectral clustering of embedding rows into ``k`` groups.

    Pipeline: similarity_matrix -> normalized_laplacian -> sym_eigen ->
    K-means (euclidean) on node rows of the K smallest-eigenvalue
    eigenvectors.
    """
    x = as_matrix(x, "x")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ClusteringError(f"k={k} must be in [1, {n}]")
    lap = normalized_laplacian(similarity_matrix(x, kappa))
    decomposition = sym_eigen(lap)
    embedding = decomposition.eigenvectors[:, :k]
    labels = kmeans(embedding, k, metric="euclidean", seed=seed).assignments
    if k < n:
        eigengap = float(decomposition.eigenvalues[k] - decomposition.eigenvalues[k - 1])
    else:
        eigengap = 0.0
    return PartitionResult(labels, k, eigengap)


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
    subsampled node (ties resolve to the earlier one).
    """
    if max_nodes < k:
        raise ClusteringError(f"max_nodes={max_nodes} must be >= k={k}")
    n = g.num_nodes
    if n <= max_nodes:
        return spectral_partition(g.embeddings, k, kappa, seed)
    picked = uniform_subsample_indices(n, max_nodes)
    sub = spectral_partition(g.embeddings[picked], k, kappa, seed)
    closest = nearest_indices(g.timestamps[picked], g.timestamps)
    return PartitionResult(sub.assignments[closest], k, sub.eigengap)


def alt_partition(x, k: int, method: str, seed: int = 0,
                  kappa: float = DEFAULT_KAPPA) -> PartitionResult:
    """Dispatch between the clustering strategies under one output contract."""
    if method == "spectral":
        return spectral_partition(x, k, kappa, seed)
    if method == "kmeans_l2":
        labels = kmeans(x, k, metric="euclidean", seed=seed).assignments
        return PartitionResult(labels, k, 0.0)
    if method == "kmeans_cosine":
        labels = kmeans(x, k, metric="cosine", seed=seed).assignments
        return PartitionResult(labels, k, 0.0)
    raise ClusteringError(f"unknown partition method {method!r}; expected one of {PARTITION_METHODS}")


def single_partition(n: int) -> PartitionResult:
    """The trivial partition placing all ``n`` nodes in one cluster."""
    return PartitionResult(np.zeros(n, dtype=np.intp), 1, 0.0)
