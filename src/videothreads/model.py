"""Hierarchical encoder/decoder over temporal video graphs.

The temporal encoder stacks TDGC layers (temporal-distance-gated graph
convolutions) with coarsening between stages; the function-aware decoder
walks back up, fusing lateral encoder features with interpolated deeper
features, partitioning each stage's graph into functional groups, and
reasoning within each group separately before merging.

The same forward code serves two modes: plain float64 arrays for inference,
or autodiff Vars (when the parameter leaves are Vars) so the training losses
can backpropagate through the whole stack.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .autodiff import Var, affine, joint_node, l2_normalize_rows, segment_sum, take_rows, value
from .dataio import read_frame, write_frame
from .errors import PayloadShapeError, SchemaError, ShapeError
from .graph import (
    VideoGraph,
    coarse_rows,
    directed_edges,
    interpolation_between,
    temporal_subsample,
    with_embeddings,
)
from .partition import DEFAULT_KAPPA, DEFAULT_MAX_NODES, PartitionResult, approx_partition

PARAMS_MAGIC = b"HIEROPM1"


@dataclass(frozen=True)
class ModelDims:
    """Architecture sizes; defaults follow the reference configuration."""

    d_in: int
    d_h: int = 768
    d_a: int = 768
    d_t: int = 768
    stages: int = 3
    layers: int = 3

    def __post_init__(self):
        for name in ("d_in", "d_h", "d_a", "d_t", "stages", "layers"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be >= 1")


@dataclass
class LinearParams:
    w: object  # (in, out) ndarray or Var
    b: object  # (out,)


@dataclass
class TdgcLayerParams:
    """One TDGC layer: neighbor projection, residual projection, and the
    scalar-distance gate MLP (1 -> d_h -> d_h, relu hidden, linear out)."""

    w_n: object
    b_n: object
    w_r: object
    b_r: object
    gate_w1: object
    gate_b1: object
    gate_w2: object
    gate_b2: object


@dataclass
class ModelParams:
    """All learnable tensors, grouped; ``_build`` fixes their flat order."""

    dims: ModelDims
    input_proj: LinearParams
    encoder: list[list[TdgcLayerParams]]
    decoder: list[list[TdgcLayerParams]]
    h_v: LinearParams
    h_t: LinearParams

    # -- canonical flat representation --------------------------------------

    def leaves(self) -> list:
        """Parameter arrays in serialization order (see ``_build``): each
        group's fields in declaration order."""
        layers = [layer for branch in (self.encoder, self.decoder)
                  for stage in branch for layer in stage]
        groups = [self.input_proj, *layers, self.h_v, self.h_t]
        return [getattr(group, f.name) for group in groups for f in fields(group)]

    def to_vector(self) -> np.ndarray:
        return np.concatenate([value(leaf).ravel() for leaf in self.leaves()])

    def with_vector(self, vec: np.ndarray) -> "ModelParams":
        return _from_vector(self.dims, np.asarray(vec, dtype=np.float64))

    def to_vars(self) -> tuple["ModelParams", list[Var]]:
        """Copy with Var leaves (for gradient computation) plus the leaf list."""
        leaf_vars = [Var(value(leaf)) for leaf in self.leaves()]
        it = iter(leaf_vars)
        return _build(self.dims, lambda name, shape: next(it)), leaf_vars

    @property
    def num_params(self) -> int:
        return int(sum(value(leaf).size for leaf in self.leaves()))


def _build(dims: ModelDims, leaf) -> ModelParams:
    """The parameter layout: calls ``leaf(name, shape)`` once per array, in
    serialization order, and groups the results.

    The order is the input projection (w, b); the encoder stages, then the
    decoder stages, each layer by layer as w_n, b_n, w_r, b_r, gate_w1,
    gate_b1, gate_w2, gate_b2; then h_v and h_t (w, b each). ``name`` is the
    field name.
    """
    h = dims.d_h

    def linear(d_in, d_out):
        return LinearParams(w=leaf("w", (d_in, d_out)), b=leaf("b", (d_out,)))

    def tdgc_layer():
        return TdgcLayerParams(
            w_n=leaf("w_n", (h, h)), b_n=leaf("b_n", (h,)),
            w_r=leaf("w_r", (h, h)), b_r=leaf("b_r", (h,)),
            gate_w1=leaf("gate_w1", (1, h)), gate_b1=leaf("gate_b1", (h,)),
            gate_w2=leaf("gate_w2", (h, h)), gate_b2=leaf("gate_b2", (h,)),
        )

    def branch():
        return [[tdgc_layer() for _ in range(dims.layers)] for _ in range(dims.stages)]

    input_proj = linear(dims.d_in, h)
    encoder = branch()
    decoder = branch()
    return ModelParams(dims, input_proj, encoder, decoder,
                       linear(h, dims.d_a), linear(dims.d_t, dims.d_a))


def _param_count(dims: ModelDims) -> int:
    """The number of parameters ``_build`` lays out for ``dims``, counted
    without building the layout."""
    h = dims.d_h
    layer = 3 * h * h + 5 * h  # w_n, w_r and gate_w2; b_n, b_r, gate_w1, gate_b1 and gate_b2
    return ((dims.d_in + 1) * h + 2 * dims.stages * dims.layers * layer
            + (h + 1) * dims.d_a + (dims.d_t + 1) * dims.d_a)


def _from_vector(dims: ModelDims, vec: np.ndarray) -> ModelParams:
    """Parameters read in serialization order from a flat vector that holds
    exactly as many values as ``dims`` needs (ShapeError otherwise, raised
    before the layout is built: a file's header may declare 2**32 - 1 stages)."""
    if vec.shape != (_param_count(dims),):
        raise ShapeError(f"expected {_param_count(dims)} parameters, found {vec.size}")
    sizes = [math.prod(shape) for shape in _build(dims, lambda name, shape: shape).leaves()]
    blocks = iter(np.split(vec, np.cumsum(sizes)[:-1]))
    return _build(dims, lambda name, shape: next(blocks).reshape(shape).copy())


def init_params(dims: ModelDims, seed: int = 0) -> ModelParams:
    """Glorot-uniform weights, zero biases, drawn in serialization order."""
    rng = np.random.default_rng(seed)

    def leaf(name, shape):
        if len(shape) == 1:
            return np.zeros(shape)
        a = np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-a, a, size=shape)

    return _build(dims, leaf)


def identity_params(dims: ModelDims) -> ModelParams:
    """A structure-preserving configuration: projections embed the input into
    the leading dimensions, every TDGC layer passes features through
    unchanged, and the gate MLPs emit zero. The forward pass then reduces to
    multi-scale temporal averaging of the raw features, which is the
    untrained baseline the zero-shot tasks run on when no trained parameters
    are supplied."""
    return _build(dims, lambda name, shape: np.eye(*shape) if name in ("w", "w_r")
                  else np.zeros(shape))


_PARAMS_HEADER = "<6IQ"  # the ModelDims fields in order, then the parameter count


def save_params(path, params: ModelParams) -> None:
    vec = params.to_vector()
    write_frame(path, PARAMS_MAGIC, _PARAMS_HEADER, (*astuple(params.dims), vec.size),
                np.asarray(vec, dtype="<f8"))


def load_params(path) -> ModelParams:
    path = Path(path)
    (*dims, _), payload = read_frame(path, PARAMS_MAGIC, "parameter", _PARAMS_HEADER,
                                     lambda *fields: 8 * fields[-1])
    vec = np.frombuffer(payload, dtype="<f8")
    bad = np.flatnonzero(~np.isfinite(vec))
    if bad.size:
        raise SchemaError(f"{path}: parameters[{int(bad[0])}]", "must be finite")
    try:
        return _from_vector(ModelDims(*dims), vec.astype(np.float64))
    except ShapeError as exc:  # a zero dimension, or dimensions that need another count
        raise PayloadShapeError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# forward pass


@dataclass(frozen=True, eq=False)
class _NeighborTable:
    """The directed edges of one graph, laid out in bands for TDGC
    aggregation; every layer of a stage shares it.

    ``dt`` holds the distinct signed time offsets t[dst] - t[src] and
    ``edge_class`` each directed edge's index into it, with the edges in
    ``directed_edges`` order: every (i, j), i < j, then every (j, i).
    ``steps`` adds the edges into their destinations and ``transposed``
    into their sources (the gradient), one band direction at a time. Each
    step is (destination rows, source rows, dt classes, ``edge_class``
    positions): the rows are a slice for a band without gaps and index
    arrays otherwise.

    The gate's input columns ``abs_dt`` (|dt|) and ``sign_dt`` (sign(dt)),
    one row per dt class, and ``inv_degree`` (1 / in-degree, 0 for isolated
    nodes), one row per node, are what every TDGC layer over the table
    reads, so they are built here once instead of in each layer. They are
    read-only and depend only on the edges and timestamps the table is
    built from, never on features or parameters, so no layer can see a
    stale one.
    """

    dt: np.ndarray
    edge_class: np.ndarray
    steps: tuple
    transposed: tuple
    abs_dt: np.ndarray
    sign_dt: np.ndarray
    inv_degree: np.ndarray


def _neighbor_table(edges: np.ndarray, timestamps: np.ndarray) -> _NeighborTable:
    """Neighbor table of an (E, 2) undirected edge array over ``timestamps``.

    The edges (i, i + k) of one offset k form a band. Band by band, the
    steps add each node's later neighbors by offset ascending, then its
    earlier neighbors by offset descending; the gradient steps add each
    node's earlier destinations by offset descending, then its later ones
    by offset ascending. On the lexicographic i < j edges of
    ``temporal_edges``, or a subset of them, that is the ``directed_edges``
    row order: the order in which a scatter-add over those rows sums each
    node's rows from 0.0, and the recorded output bytes came from such a
    scatter-add.
    """
    n = timestamps.shape[0]
    dst, src = directed_edges(edges)
    dt, edge_class = np.unique(timestamps[dst] - timestamps[src], return_inverse=True)
    offset = edges[:, 1] - edges[:, 0]
    bands = []  # (i's, (i + k)'s, the edges' rows) for each offset k, ascending
    for k in np.unique(offset):
        rows = np.flatnonzero(offset == k)
        lo = edges[rows, 0]
        lo, hi = (slice(0, n - k), slice(k, n)) if lo.size == n - k else (lo, lo + k)
        bands.append((lo, hi, rows))

    def step(targets, sources, rows):
        return targets, sources, edge_class[rows], rows

    # edge (i, i + k) at row r of ``edges`` is directed row r as i <- i + k
    # and directed row r + E as i + k <- i
    e = edges.shape[0]
    steps = ([step(lo, hi, rows) for lo, hi, rows in bands]
             + [step(hi, lo, rows + e) for lo, hi, rows in reversed(bands)])
    transposed = ([step(hi, lo, rows) for lo, hi, rows in reversed(bands)]
                  + [step(lo, hi, rows + e) for lo, hi, rows in bands])
    degree = np.bincount(dst, minlength=n)
    inv_degree = np.divide(1.0, degree, out=np.zeros(n), where=degree > 0)
    columns = np.abs(dt)[:, None], np.sign(dt)[:, None], inv_degree[:, None]
    for column in columns:
        column.setflags(write=False)
    return _NeighborTable(dt, edge_class, tuple(steps), tuple(transposed), *columns)


def _band_pass(gate: np.ndarray, y: np.ndarray, steps) -> np.ndarray:
    """Sum ``gate[classes] * y[src]`` into the rows ``dst`` of zeros, step
    by step; no destination repeats within a step."""
    out = np.zeros_like(y)
    for dst, src, classes, _ in steps:
        product = gate[classes]
        product *= y[src]
        out[dst] += product
    return out


def _band_grads(gate: np.ndarray, y: np.ndarray, up: np.ndarray, table: _NeighborTable):
    """The gradients for ``gate`` and ``y`` of ``_band_pass(gate, y, table.steps)``
    under the upstream ``up``, summed as the gradient of one gathered message
    per directed edge would be: each dt class over its edges in edge order."""
    per_edge = np.empty((table.edge_class.size, up.shape[1]))  # each edge is in one step
    for dst, src, _, rows in table.steps:
        per_edge[rows] = up[dst] * y[src]
    return (segment_sum(per_edge, table.edge_class, table.dt.size),
            _band_pass(gate, up, table.transposed))


def _tdgc_apply(x, table: _NeighborTable, layer: TdgcLayerParams):
    """One TDGC layer on embeddings ``x`` (rows = nodes): one node over ``x``
    and the layer's eight leaves with a hand-derived backward, an ndarray
    when none is a Var. ``tests/reference_impl.py`` composes it of nodes.

    Neighbor features pass through relu(x @ w_n + b_n), get gated by an MLP
    of |dt| and signed by temporal order, and are mean-aggregated per node;
    nodes without neighbors receive a zero aggregate. The gate is evaluated
    once per distinct dt and gathered per edge.
    """
    if not table.steps:
        return affine(x, layer.w_r, layer.b_r)
    leaves = (layer.w_n, layer.b_n, layer.w_r, layer.b_r, layer.gate_w1, layer.gate_b1,
              layer.gate_w2, layer.gate_b2)
    xv, w_n, b_n, w_r, b_r, w1, b1, w2, b2 = (v.value if isinstance(v, Var) else v
                                              for v in (x, *leaves))
    # the composed layer's arithmetic, in its order, so inference keeps its
    # output bytes; each x @ w + b adds its bias in place, as ``affine`` does
    residual = xv @ w_r
    residual += b_r
    projected = xv @ w_n
    projected += b_n
    np.maximum(projected, 0.0, out=projected)
    hidden = table.abs_dt @ w1
    hidden += b1
    np.maximum(hidden, 0.0, out=hidden)
    signed_gate = hidden @ w2
    signed_gate += b2
    signed_gate *= table.sign_dt
    out = _band_pass(signed_gate, projected, table.steps)
    out *= table.inv_degree
    out += residual

    def grads(g):
        d_gate, d_pre = _band_grads(signed_gate, projected, g * table.inv_degree, table)
        d_gate *= table.sign_dt
        d_pre *= projected > 0.0
        d_hidden = (d_gate @ w2.T) * (hidden > 0.0)
        return (g @ w_r.T + d_pre @ w_n.T, xv.T @ d_pre, d_pre.sum(axis=0), xv.T @ g,
                g.sum(axis=0), table.abs_dt.T @ d_hidden, d_hidden.sum(axis=0),
                hidden.T @ d_gate, d_gate.sum(axis=0))

    return joint_node(out, (x, *leaves), grads)


def _encode(g: VideoGraph, params: ModelParams):
    x = affine(g.embeddings, params.input_proj.w, params.input_proj.b)
    graphs, xs = [], []
    for stage in params.encoder:
        table = _neighbor_table(g.edges, g.timestamps)
        for layer in stage:
            x = _tdgc_apply(x, table, layer)
        x = take_rows(x, coarse_rows(g))
        g = temporal_subsample(g, value(x))
        graphs.append(g)
        xs.append(x)
    return graphs, xs


@dataclass(frozen=True)
class Stage:
    """One level of the hierarchy as the decoder left it.

    ``graph`` is the lateral encoder graph (the encoder's embeddings, with
    the stage's timestamps and edges), ``partition`` the stage's functional
    threads, and ``output`` the decoder's output at the graph's nodes.
    """

    graph: VideoGraph
    partition: PartitionResult
    output: object  # (nodes, d_h) ndarray, or Var when the parameters are Vars


@dataclass
class ForwardTrace:
    """Everything the forward pass produced.

    ``stages`` run deepest first: with S stages, stages[i] holds
    ceil(N / 2**(S - i)) nodes of each N-node video. ``output`` is at input
    resolution (one row per input node, at ``output_timestamps``). Like every
    stage output it is an ndarray for array parameters and a Var, carrying
    the live graph, for Var parameters.
    """

    stages: list[Stage]
    output: object
    output_timestamps: np.ndarray


def forward(g0: VideoGraph, params: ModelParams, k: int = 1,
            kappa: float = DEFAULT_KAPPA, max_nodes: int = DEFAULT_MAX_NODES,
            seed: int = 0,
            fixed_partitions: list[PartitionResult] | None = None) -> ForwardTrace:
    """Full encoder + decoder pass on a level-0 graph.

    The encoder halves the graph once per stage. Top-down, each decoder
    stage then interpolates the deeper decoder output onto its lateral
    encoder stage's timestamps, sums the two, partitions the fused graph
    into at most ``k`` functional threads (``spectral_partition`` sets the
    rules for k), and runs the stage's TDGC layers once over the union of
    the groups' induced sub-graphs, so no message crosses a group boundary.
    The shallowest stage's output is finally interpolated to the input
    timestamps.

    ``g0`` may hold a batch of videos (``graph.disjoint_union``): every
    layer then runs once over the whole batch, while coarsening,
    interpolation and partitioning act on each video alone, so each video's
    rows of the result are its own forward pass up to last-bit float
    rounding.

    ``fixed_partitions`` (deepest first) bypasses clustering entirely, which
    keeps the loss surface smooth for finite-difference checks.
    """
    if g0.level != 0:
        raise ShapeError("forward input must be a level-0 graph")
    laterals, xs = _encode(g0, params)

    stages: list[Stage] = []
    y = None
    for depth, s in enumerate(range(len(laterals) - 1, -1, -1)):
        lateral = laterals[s]
        fused = xs[s] if y is None else xs[s] + interpolation_between(laterals[s + 1], lateral) @ y
        if fixed_partitions is not None:
            part = fixed_partitions[depth]
        else:
            part = approx_partition(with_embeddings(lateral, value(fused)), k, kappa,
                                    max_nodes, seed)
        # A group's induced sub-graph is the lateral graph's edges whose two
        # ends share a group (the same |t_i - t_j| <= threshold test on the
        # same timestamps), so one pass over those edges serves every group.
        a = part.assignments
        table = _neighbor_table(lateral.edges[a[lateral.edges[:, 0]] == a[lateral.edges[:, 1]]],
                               lateral.timestamps)
        y = fused
        for layer in params.decoder[s]:
            y = _tdgc_apply(y, table, layer)
        stages.append(Stage(lateral, part, y))

    out_times = np.asarray(g0.timestamps, dtype=np.float64)
    return ForwardTrace(stages, interpolation_between(laterals[0], g0) @ y, out_times)


def project_visual(x, params: ModelParams):
    """h_v: linear projection to the alignment space, rows L2-normalized."""
    return l2_normalize_rows(affine(x, params.h_v.w, params.h_v.b))


def project_text(x, params: ModelParams):
    """h_t: linear projection to the alignment space, rows L2-normalized."""
    return l2_normalize_rows(affine(x, params.h_t.w, params.h_t.b))
