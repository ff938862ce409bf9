"""Temporal video graphs: construction, coarsening, and interpolation.

A video is a set of timestamped segment embeddings; nodes are segments and
edges connect segments whose temporal distance is at most a threshold that
doubles with every coarsening level, keeping the average degree constant as
node density halves.

One graph may also hold a batch of videos as a disjoint union
(``disjoint_union``): node rows are concatenated, edges never cross videos,
and timestamps increase within each video. Coarsening, edge building and
interpolation then act on each video separately, so a video's part of a
union is the graph it would have on its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Var, joint_node, segment_sum, value
from .errors import GraphError
from .kernels import as_matrix


@dataclass(frozen=True, eq=False)
class VideoGraph:
    """One resolution level of a video's temporal graph, or of a batch of
    videos as a disjoint union.

    ``edges`` is an (E, 2) intp array of undirected pairs (i, j), i < j, in
    lexicographic order; two nodes are linked exactly when they belong to
    the same video and |t_i - t_j| <= edge_threshold * 2**level.
    ``edge_threshold`` is the level-0 base value. ``video_sizes`` counts
    each video's rows, in row order; it defaults to one video holding every
    node. Timestamps increase strictly within each video.
    """

    embeddings: np.ndarray
    timestamps: np.ndarray
    edges: np.ndarray
    level: int = 0
    edge_threshold: float = 1.0
    video_sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        n = self.timestamps.shape[0]
        if self.embeddings.shape[0] != n:
            raise GraphError("embeddings and timestamps disagree on node count")
        if n == 0:
            raise GraphError("a video graph needs at least one node")
        sizes = (n,) if self.video_sizes is None else tuple(int(s) for s in self.video_sizes)
        if not sizes or min(sizes) < 1 or sum(sizes) != n:
            raise GraphError(f"video_sizes {sizes} must be positive and sum to {n} nodes")
        object.__setattr__(self, "video_sizes", sizes)
        rising = np.diff(self.timestamps) > 0.0
        if len(sizes) > 1:
            # a video may start before the previous one ends
            rising[[rows.stop - 1 for rows in row_slices(sizes[:-1])]] = True
            video = np.repeat(np.arange(len(sizes)), sizes)
            if np.any(video[self.edges[:, 0]] != video[self.edges[:, 1]]):
                raise GraphError("an edge links two different videos")
        if not np.all(rising):
            raise GraphError("timestamps must be strictly increasing within each video")
        if self.edge_threshold <= 0.0:
            raise GraphError("edge_threshold must be positive")

    @property
    def num_nodes(self) -> int:
        return int(self.timestamps.shape[0])

    def video_rows(self) -> list[slice]:
        """Each video's rows, in order."""
        return row_slices(self.video_sizes)


def row_slices(sizes) -> list[slice]:
    """Consecutive row slices of the given sizes, from row 0."""
    return [slice(stop - size, stop) for size, stop in zip(sizes, itertools.accumulate(sizes))]


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
    features = as_matrix(seq.features, "features")
    timestamps = np.asarray(seq.timestamps, dtype=np.float64)
    return VideoGraph(
        embeddings=features,
        timestamps=timestamps,
        edges=temporal_edges(timestamps, edge_threshold),
        level=0,
        edge_threshold=float(edge_threshold),
    )


def disjoint_union(graphs: list[VideoGraph]) -> VideoGraph:
    """One graph holding ``graphs`` side by side, in order: rows
    concatenated, each graph's edges shifted by its first row. The graphs
    must share their level, edge threshold and embedding width."""
    if not graphs:
        raise GraphError("a union needs at least one graph")
    first = graphs[0]
    for g in graphs[1:]:
        if (g.level, g.edge_threshold) != (first.level, first.edge_threshold):
            raise GraphError("union members must share their level and edge_threshold")
        if g.embeddings.shape[1:] != first.embeddings.shape[1:]:
            raise GraphError("union members must share their embedding width")
    rows = row_slices([g.num_nodes for g in graphs])
    return VideoGraph(
        embeddings=np.concatenate([g.embeddings for g in graphs]),
        timestamps=np.concatenate([g.timestamps for g in graphs]),
        edges=np.concatenate([g.edges + r.start for g, r in zip(graphs, rows)]),
        level=first.level,
        edge_threshold=first.edge_threshold,
        video_sizes=tuple(size for g in graphs for size in g.video_sizes),
    )


def with_embeddings(g: VideoGraph, embeddings: np.ndarray) -> VideoGraph:
    """Same graph structure, new node embeddings."""
    return replace(g, embeddings=embeddings)


def coarse_rows(g: VideoGraph) -> np.ndarray:
    """The rows ``temporal_subsample`` keeps: each video's even positions."""
    return np.concatenate([np.arange(r.start, r.stop, 2) for r in g.video_rows()])


def temporal_subsample(g: VideoGraph, embeddings: np.ndarray | None = None) -> VideoGraph:
    """Halve the temporal resolution by keeping even timestamp-order
    positions of each video (the rows ``coarse_rows`` lists).

    The level increments and each video's edges are rebuilt under the
    doubled threshold, so degree stays roughly constant. ceil(N/2) nodes of
    an N-node video survive. ``embeddings`` are the kept nodes' embeddings,
    for a caller that already has them; by default they are gathered from
    ``g``.
    """
    level = g.level + 1
    threshold = g.edge_threshold * float(2 ** level)
    times = [g.timestamps[rows][::2] for rows in g.video_rows()]
    sizes = tuple(t.shape[0] for t in times)
    edges = [temporal_edges(t, threshold) + rows.start
             for t, rows in zip(times, row_slices(sizes))]
    return VideoGraph(
        embeddings=g.embeddings[coarse_rows(g)] if embeddings is None else embeddings,
        timestamps=np.concatenate(times),
        edges=np.concatenate(edges),
        level=level,
        edge_threshold=g.edge_threshold,
        video_sizes=sizes,
    )


@dataclass(frozen=True, eq=False)
class Interpolation:
    """Two-tap linear interpolation operator: target row r is
    (1 - weight[r]) * y[left[r]] + weight[r] * y[right[r]].

    ``op @ y`` applies it to a (sources x d) ndarray, or to an autodiff Var
    as one node that lists ``y`` once per tap: its gradient is the left
    tap's scatter-add, then the right tap's, added in that order, as when
    each tap was a gather node of its own.
    """

    left: np.ndarray
    right: np.ndarray
    weight: np.ndarray

    def __matmul__(self, y):
        w = self.weight[:, None]
        yv = value(y)
        out = yv[self.left] * (1.0 - w) + yv[self.right] * w
        if not isinstance(y, Var):
            return out
        n = yv.shape[0]
        return joint_node(out, (y, y), lambda g: (segment_sum(g * (1.0 - w), self.left, n),
                                                  segment_sum(g * w, self.right, n)))


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


def interpolation_between(source: VideoGraph, target: VideoGraph) -> Interpolation:
    """``interpolation_matrix`` from each video of ``source`` onto the same
    video of ``target``, so every target row clamps at its own video's
    endpoints and no value crosses videos."""
    if len(source.video_sizes) != len(target.video_sizes):
        raise GraphError(f"source holds {len(source.video_sizes)} videos, "
                         f"target {len(target.video_sizes)}")
    ops = [(interpolation_matrix(source.timestamps[s], target.timestamps[t]), s.start)
           for s, t in zip(source.video_rows(), target.video_rows())]
    return Interpolation(np.concatenate([op.left + start for op, start in ops]),
                         np.concatenate([op.right + start for op, start in ops]),
                         np.concatenate([op.weight for op, _ in ops]))


def nearest_indices(source_times: np.ndarray, query_times: np.ndarray) -> np.ndarray:
    """Index of the temporally closest source per query; ties pick the earlier."""
    src = np.asarray(source_times, dtype=np.float64)
    qry = np.asarray(query_times, dtype=np.float64)
    right = np.clip(np.searchsorted(src, qry, side="left"), 0, src.shape[0] - 1)
    left = np.clip(right - 1, 0, src.shape[0] - 1)
    pick_left = np.abs(qry - src[left]) <= np.abs(src[right] - qry)
    return np.where(pick_left, left, right)
