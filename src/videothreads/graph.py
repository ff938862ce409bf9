"""Temporal video graphs: construction, coarsening, and interpolation.

A video is a set of timestamped segment embeddings; nodes are segments and
edges connect segments whose temporal distance is at most a threshold that
doubles with every coarsening level, keeping the average degree constant as
node density halves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import take_rows
from .errors import GraphError
from .kernels import as_matrix


@dataclass(frozen=True, eq=False)
class VideoGraph:
    """One resolution level of a video's temporal graph.

    ``edges`` is an (E, 2) intp array of undirected pairs (i, j), i < j, in
    lexicographic order; two nodes are linked exactly when
    |t_i - t_j| <= edge_threshold * 2**level. ``edge_threshold`` is the
    level-0 base value.
    """

    embeddings: np.ndarray
    timestamps: np.ndarray
    edges: np.ndarray
    level: int = 0
    edge_threshold: float = 1.0

    def __post_init__(self):
        if self.embeddings.shape[0] != self.timestamps.shape[0]:
            raise GraphError("embeddings and timestamps disagree on node count")
        if self.num_nodes == 0:
            raise GraphError("a video graph needs at least one node")
        if self.num_nodes > 1 and not np.all(np.diff(self.timestamps) > 0.0):
            raise GraphError("timestamps must be strictly increasing")
        if self.edge_threshold <= 0.0:
            raise GraphError("edge_threshold must be positive")

    @property
    def num_nodes(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def effective_threshold(self) -> float:
        return self.edge_threshold * float(2 ** self.level)


def directed_edges(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dst, src) index arrays covering both directions of an (E, 2) edge
    array: every (i, j) in order, then every (j, i)."""
    return (np.concatenate([edges[:, 0], edges[:, 1]]),
            np.concatenate([edges[:, 1], edges[:, 0]]))


def temporal_edges(timestamps: np.ndarray, threshold: float) -> np.ndarray:
    """All pairs (i, j), i < j, with |t_i - t_j| <= threshold, as an (E, 2)
    intp array in lexicographic order.

    ``timestamps`` must be ascending, so the pairs form a band: some pair at
    offset j - i = k links only if some pair at offset k - 1 does.
    """
    t = np.asarray(timestamps, dtype=np.float64)
    bands = [np.empty((0, 2), dtype=np.intp)]
    for k in range(1, t.shape[0]):
        i = np.flatnonzero(t[k:] - t[:-k] <= threshold)
        if i.size == 0:
            break
        bands.append(np.stack([i, i + k], axis=1))
    edges = np.concatenate(bands)
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def build_graph(seq, edge_threshold: float) -> VideoGraph:
    """Level-0 graph for a feature sequence."""
    if edge_threshold <= 0.0:
        raise GraphError("edge_threshold must be positive")
    features = as_matrix(seq.features, "features")
    timestamps = np.asarray(seq.timestamps, dtype=np.float64)
    if features.shape[0] == 0:
        raise GraphError("cannot build a graph from an empty sequence")
    return VideoGraph(
        embeddings=features,
        timestamps=timestamps,
        edges=temporal_edges(timestamps, edge_threshold),
        level=0,
        edge_threshold=float(edge_threshold),
    )


def with_embeddings(g: VideoGraph, embeddings: np.ndarray) -> VideoGraph:
    """Same graph structure, new node embeddings."""
    return VideoGraph(
        embeddings=embeddings,
        timestamps=g.timestamps,
        edges=g.edges,
        level=g.level,
        edge_threshold=g.edge_threshold,
    )


def temporal_subsample(g: VideoGraph) -> VideoGraph:
    """Halve the temporal resolution by keeping even timestamp-order positions.

    The level increments and edges are rebuilt under the doubled threshold,
    so degree stays roughly constant. ceil(N/2) nodes survive.
    """
    keep = np.arange(0, g.num_nodes, 2)
    timestamps = g.timestamps[keep]
    level = g.level + 1
    return VideoGraph(
        embeddings=g.embeddings[keep],
        timestamps=timestamps,
        edges=temporal_edges(timestamps, g.edge_threshold * float(2 ** level)),
        level=level,
        edge_threshold=g.edge_threshold,
    )


@dataclass(frozen=True, eq=False)
class Interpolation:
    """Two-tap linear interpolation operator: target row r is
    (1 - weight[r]) * y[left[r]] + weight[r] * y[right[r]].

    ``op @ y`` applies it to a (sources x d) ndarray or autodiff Var.
    """

    left: np.ndarray
    right: np.ndarray
    weight: np.ndarray

    def __matmul__(self, y):
        w = self.weight[:, None]
        return take_rows(y, self.left) * (1.0 - w) + take_rows(y, self.right) * w


def interpolation_matrix(source_times: np.ndarray, target_times: np.ndarray) -> Interpolation:
    """Linear-in-time interpolation from sorted ``source_times`` onto
    ``target_times``; targets outside the source range clamp to the nearest
    endpoint."""
    src = np.asarray(source_times, dtype=np.float64)
    tgt = np.asarray(target_times, dtype=np.float64)
    if src.shape[0] == 1:
        zeros = np.zeros(tgt.shape[0], dtype=np.intp)
        return Interpolation(zeros, zeros, np.zeros(tgt.shape[0]))
    left = np.clip(np.searchsorted(src, tgt, side="right") - 1, 0, src.shape[0] - 2)
    right = left + 1
    w = (tgt - src[left]) / (src[right] - src[left])
    return Interpolation(left, right, np.clip(w, 0.0, 1.0))


def temporal_interpolate(coarse: VideoGraph, target_timestamps) -> np.ndarray:
    """Resample coarse node embeddings onto target timestamps.

    Linear per dimension in time; targets outside the coarse range clamp to
    the nearest endpoint, and targets equal to coarse timestamps reproduce
    the coarse rows exactly.
    """
    return interpolation_matrix(coarse.timestamps, target_timestamps) @ coarse.embeddings


def nearest_indices(source_times: np.ndarray, query_times: np.ndarray) -> np.ndarray:
    """Index of the temporally closest source per query; ties pick the earlier."""
    src = np.asarray(source_times, dtype=np.float64)
    qry = np.asarray(query_times, dtype=np.float64)
    if src.shape[0] == 1:
        return np.zeros(qry.shape[0], dtype=np.intp)
    right = np.clip(np.searchsorted(src, qry, side="left"), 0, src.shape[0] - 1)
    left = np.clip(right - 1, 0, src.shape[0] - 1)
    pick_left = np.abs(qry - src[left]) <= np.abs(src[right] - qry)
    return np.where(pick_left, left, right)
