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

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Var, l2_normalize_rows, relu, slot_sum, take_rows, value
from .errors import BadMagicError, ClusteringError, ShapeError, TruncatedFileError
from .graph import (
    VideoGraph,
    directed_edges,
    interpolation_matrix,
    temporal_subsample,
    with_embeddings,
)
from .partition import (
    DEFAULT_KAPPA,
    DEFAULT_MAX_NODES,
    PartitionResult,
    approx_partition,
    single_partition,
)

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
    """All learnable tensors, grouped; see leaves() for the canonical flat order."""

    dims: ModelDims
    input_proj: LinearParams
    encoder: list[list[TdgcLayerParams]]
    decoder: list[list[TdgcLayerParams]]
    h_v: LinearParams
    h_t: LinearParams

    # -- canonical flat representation --------------------------------------

    def leaves(self) -> list:
        """Parameter arrays in serialization order: input projection, encoder
        stages (layer-major: w_n, b_n, w_r, b_r, gate_w1, gate_b1, gate_w2,
        gate_b2), decoder stages likewise, then h_v and h_t."""
        out = [self.input_proj.w, self.input_proj.b]
        for branch in (self.encoder, self.decoder):
            for stage in branch:
                for layer in stage:
                    out.extend([layer.w_n, layer.b_n, layer.w_r, layer.b_r,
                                layer.gate_w1, layer.gate_b1, layer.gate_w2, layer.gate_b2])
        out.extend([self.h_v.w, self.h_v.b, self.h_t.w, self.h_t.b])
        return out

    def _rebuild(self, leaves: list) -> "ModelParams":
        it = iter(leaves)
        input_proj = LinearParams(next(it), next(it))
        branches = []
        for _ in range(2):
            stages = []
            for _ in range(self.dims.stages):
                stage = []
                for _ in range(self.dims.layers):
                    stage.append(TdgcLayerParams(*(next(it) for _ in range(8))))
                stages.append(stage)
            branches.append(stages)
        h_v = LinearParams(next(it), next(it))
        h_t = LinearParams(next(it), next(it))
        return ModelParams(self.dims, input_proj, branches[0], branches[1], h_v, h_t)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([value(leaf).ravel() for leaf in self.leaves()])

    def with_vector(self, vec: np.ndarray) -> "ModelParams":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.num_params,):
            raise ShapeError(f"expected a flat vector of length {self.num_params}")
        new_leaves = []
        offset = 0
        for leaf in self.leaves():
            size = value(leaf).size
            new_leaves.append(vec[offset:offset + size].reshape(value(leaf).shape).copy())
            offset += size
        return self._rebuild(new_leaves)

    def to_vars(self) -> tuple["ModelParams", list[Var]]:
        """Copy with Var leaves (for gradient computation) plus the leaf list."""
        leaf_vars = [Var(value(leaf)) for leaf in self.leaves()]
        return self._rebuild(list(leaf_vars)), leaf_vars

    @property
    def num_params(self) -> int:
        return int(sum(value(leaf).size for leaf in self.leaves()))


def init_params(dims: ModelDims, seed: int = 0) -> ModelParams:
    """Glorot-uniform weights, zero biases, drawn in serialization order."""
    rng = np.random.default_rng(seed)

    def glorot(shape):
        a = np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-a, a, size=shape)

    def linear(d_in, d_out):
        return LinearParams(glorot((d_in, d_out)), np.zeros(d_out))

    def tdgc_layer():
        return TdgcLayerParams(
            w_n=glorot((dims.d_h, dims.d_h)), b_n=np.zeros(dims.d_h),
            w_r=glorot((dims.d_h, dims.d_h)), b_r=np.zeros(dims.d_h),
            gate_w1=glorot((1, dims.d_h)), gate_b1=np.zeros(dims.d_h),
            gate_w2=glorot((dims.d_h, dims.d_h)), gate_b2=np.zeros(dims.d_h),
        )

    input_proj = linear(dims.d_in, dims.d_h)
    encoder = [[tdgc_layer() for _ in range(dims.layers)] for _ in range(dims.stages)]
    decoder = [[tdgc_layer() for _ in range(dims.layers)] for _ in range(dims.stages)]
    h_v = linear(dims.d_h, dims.d_a)
    h_t = linear(dims.d_t, dims.d_a)
    return ModelParams(dims, input_proj, encoder, decoder, h_v, h_t)


def identity_params(dims: ModelDims) -> ModelParams:
    """A structure-preserving configuration: projections embed the input into
    the leading dimensions, every TDGC layer passes features through
    unchanged, and the gate MLPs emit zero. The forward pass then reduces to
    multi-scale temporal averaging of the raw features, which is the
    untrained baseline the zero-shot tasks run on when no trained parameters
    are supplied."""
    d_h = dims.d_h

    def tdgc_layer():
        return TdgcLayerParams(
            w_n=np.zeros((d_h, d_h)), b_n=np.zeros(d_h),
            w_r=np.eye(d_h), b_r=np.zeros(d_h),
            gate_w1=np.zeros((1, d_h)), gate_b1=np.zeros(d_h),
            gate_w2=np.zeros((d_h, d_h)), gate_b2=np.zeros(d_h),
        )

    def stages():
        return [[tdgc_layer() for _ in range(dims.layers)] for _ in range(dims.stages)]

    return ModelParams(
        dims,
        LinearParams(np.eye(dims.d_in, d_h), np.zeros(d_h)),
        stages(),
        stages(),
        LinearParams(np.eye(d_h, dims.d_a), np.zeros(dims.d_a)),
        LinearParams(np.eye(dims.d_t, dims.d_a), np.zeros(dims.d_a)),
    )


def save_params(path, params: ModelParams) -> None:
    d = params.dims
    vec = params.to_vector()
    with open(path, "wb") as fh:
        fh.write(PARAMS_MAGIC)
        fh.write(struct.pack("<6IQ", d.d_in, d.d_h, d.d_a, d.d_t, d.stages, d.layers, vec.size))
        fh.write(np.ascontiguousarray(vec, dtype="<f8").tobytes())


def load_params(path) -> ModelParams:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < len(PARAMS_MAGIC) or raw[: len(PARAMS_MAGIC)] != PARAMS_MAGIC:
        raise BadMagicError(f"{path}: not a parameter file (bad magic)")
    header = struct.calcsize("<6IQ")
    if len(raw) < len(PARAMS_MAGIC) + header:
        raise TruncatedFileError(f"{path}: header truncated")
    d_in, d_h, d_a, d_t, stages, layers, count = struct.unpack_from("<6IQ", raw, len(PARAMS_MAGIC))
    dims = ModelDims(d_in, d_h, d_a, d_t, stages, layers)
    vec = np.frombuffer(raw, dtype="<f8", count=-1, offset=len(PARAMS_MAGIC) + header)
    template = identity_params(dims)
    if vec.size != count or count != template.num_params:
        raise TruncatedFileError(f"{path}: expected {template.num_params} parameters, found {vec.size}")
    return template.with_vector(vec.astype(np.float64))


# ---------------------------------------------------------------------------
# forward pass


@dataclass(frozen=True, eq=False)
class _NeighborTable:
    """The directed edges of one graph, laid out for TDGC aggregation; every
    layer of a stage shares it.

    Edges are sorted stably by destination. ``slots`` (N, D) lists each
    node's incoming edge ids in that order, with E marking an empty slot.
    ``dt`` holds the distinct signed time offsets t[dst] - t[src] and
    ``dt_class`` each edge's index into it; ``inv_degree`` is 1 / in-degree,
    0 for isolated nodes.
    """

    src: np.ndarray
    slots: np.ndarray
    dt: np.ndarray
    dt_class: np.ndarray
    inv_degree: np.ndarray


def _neighbor_table(edges: np.ndarray, timestamps: np.ndarray) -> _NeighborTable:
    """Neighbor table of an (E, 2) undirected edge array over ``timestamps``."""
    n = timestamps.shape[0]
    dst, src = directed_edges(edges)
    order = np.argsort(dst, kind="stable")
    dst, src = dst[order], src[order]
    degree = np.bincount(dst, minlength=n)
    first = np.cumsum(degree) - degree
    slots = np.full((n, int(degree.max(initial=0))), dst.size, dtype=np.intp)
    slots[dst, np.arange(dst.size) - first[dst]] = np.arange(dst.size)
    dt, dt_class = np.unique(timestamps[dst] - timestamps[src], return_inverse=True)
    inv_degree = np.divide(1.0, degree, out=np.zeros(n), where=degree > 0)
    return _NeighborTable(src, slots, dt, dt_class, inv_degree)


def _tdgc_apply(x, table: _NeighborTable, layer: TdgcLayerParams):
    """One TDGC layer on embeddings ``x`` (rows = nodes).

    Neighbor features pass through relu(x @ w_n + b_n), get gated by an MLP
    of |dt| and signed by temporal order, and are mean-aggregated per node;
    nodes without neighbors receive a zero aggregate. The gate is evaluated
    once per distinct dt and gathered per edge.
    """
    residual = x @ layer.w_r + layer.b_r
    if table.src.size == 0:
        return residual
    projected = relu(x @ layer.w_n + layer.b_n)
    gate_in = np.abs(table.dt)[:, None]
    gate = relu(gate_in @ layer.gate_w1 + layer.gate_b1) @ layer.gate_w2 + layer.gate_b2
    signed_gate = np.sign(table.dt)[:, None] * gate
    messages = take_rows(signed_gate, table.dt_class) * take_rows(projected, table.src)
    return residual + slot_sum(messages, table.slots) * table.inv_degree[:, None]


def tdgc_forward(g: VideoGraph, layer: TdgcLayerParams) -> np.ndarray:
    """Apply one TDGC layer to a graph's embeddings.

    ``forward`` does not call this: it builds each stage's neighbor table
    once for all of the stage's layers. This single-layer entry point lets a
    layer be checked in isolation, against the dense-loop reference, so that
    a mismatch of the full pass can be pinned to one layer.
    """
    d = g.embeddings.shape[1]
    w_n = value(layer.w_n)
    if w_n.shape[0] != d:
        raise ShapeError(f"layer expects dimension {w_n.shape[0]}, graph has {d}")
    return value(_tdgc_apply(g.embeddings, _neighbor_table(g.edges, g.timestamps), layer))


def _encode(g0: VideoGraph, params: ModelParams):
    x = g0.embeddings @ params.input_proj.w + params.input_proj.b
    g = with_embeddings(g0, value(x))
    graphs, xs = [], []
    for stage in params.encoder:
        table = _neighbor_table(g.edges, g.timestamps)
        for layer in stage:
            x = _tdgc_apply(x, table, layer)
        keep = np.arange(0, g.num_nodes, 2)
        x = take_rows(x, keep)
        g = with_embeddings(temporal_subsample(g), value(x))
        graphs.append(g)
        xs.append(x)
    return graphs, xs


@dataclass
class ForwardTrace:
    """Everything the forward pass produced.

    ``encoder_graphs`` run shallowest stage first (stage i holds
    ceil(N / 2**(i+1)) nodes); ``decoder_graphs`` and ``partitions`` run
    deepest stage first; ``output`` is at input resolution (one row per input
    node). When the forward ran in autodiff mode, ``output_var`` and
    ``decoder_vars`` carry the live graph.
    """

    encoder_graphs: list[VideoGraph]
    decoder_graphs: list[VideoGraph]
    partitions: list[PartitionResult]
    output: np.ndarray
    output_timestamps: np.ndarray
    output_var: Var | None = None
    decoder_vars: list | None = None


def forward(g0: VideoGraph, params: ModelParams, k: int = 1,
            kappa: float = DEFAULT_KAPPA, max_nodes: int = DEFAULT_MAX_NODES,
            seed: int = 0,
            fixed_partitions: list[PartitionResult] | None = None) -> ForwardTrace:
    """Full encoder + decoder pass on a level-0 graph.

    The encoder halves the graph once per stage. Top-down, each decoder
    stage then interpolates the deeper decoder output onto its lateral
    encoder stage's timestamps, sums the two, partitions the fused graph
    into ``k`` functional threads (one group when k == 1 or the stage holds
    a single node), and runs the stage's TDGC layers once over the union of
    the groups' induced sub-graphs, so no message crosses a group boundary.
    The shallowest stage's output is finally interpolated to the input
    timestamps.

    ``fixed_partitions`` (deepest first) bypasses clustering entirely, which
    keeps the loss surface smooth for finite-difference checks.
    """
    if g0.level != 0:
        raise ShapeError("forward input must be a level-0 graph")
    if k < 1:
        raise ClusteringError(f"k={k} must be >= 1")
    encoder_graphs, xs = _encode(g0, params)

    dec_graphs: list[VideoGraph] = []
    dec_vars: list = []
    partitions: list[PartitionResult] = []
    y = None
    y_times: np.ndarray | None = None
    for depth, s in enumerate(range(len(encoder_graphs) - 1, -1, -1)):
        lateral = encoder_graphs[s]
        fused = xs[s] if y is None else xs[s] + interpolation_matrix(y_times, lateral.timestamps) @ y
        stage_k = min(k, lateral.num_nodes)  # deep stages may hold fewer nodes than k
        if fixed_partitions is not None:
            part = fixed_partitions[depth]
        elif stage_k == 1:
            part = single_partition(lateral.num_nodes)
        else:
            part = approx_partition(with_embeddings(lateral, value(fused)), stage_k, kappa,
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
        y_times = lateral.timestamps
        dec_graphs.append(with_embeddings(lateral, value(y)))
        dec_vars.append(y)
        partitions.append(part)

    out_times = np.asarray(g0.timestamps, dtype=np.float64)
    out = interpolation_matrix(y_times, out_times) @ y
    grad_mode = isinstance(out, Var)
    return ForwardTrace(
        encoder_graphs=encoder_graphs,
        decoder_graphs=dec_graphs,
        partitions=partitions,
        output=value(out),
        output_timestamps=out_times,
        output_var=out if grad_mode else None,
        decoder_vars=dec_vars if grad_mode else None,
    )


def project_visual(x, params: ModelParams):
    """h_v: linear projection to the alignment space, rows L2-normalized."""
    return l2_normalize_rows(x @ params.h_v.w + params.h_v.b)


def project_text(x, params: ModelParams):
    """h_t: linear projection to the alignment space, rows L2-normalized."""
    return l2_normalize_rows(x @ params.h_t.w + params.h_t.b)
