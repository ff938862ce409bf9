"""Training objectives and a toy-scale trainer.

Two contrastive losses drive the model: window-based video-narration
alignment (nodes pull toward narrations inside a 2**alpha-second window and
push away from narrations in the 2**beta annulus or from other videos in the
batch) and a functional-threads objective that tightens each decoder
partition in the aligned feature space. Gradients are exact, computed by
reverse-mode autodiff through the full forward pass with cluster assignments
held constant, and are validated against central finite differences.

Each loss is one autodiff node over the projected nodes (and narrations),
in the blockwise-recompute style of Chen et al. (2016): its forward builds
the logits z and their masks a block of node rows at a time and keeps only
each row's and column's log-sum-exp over its positives and over its
denominator, each taken with its own running max shift (Rabe & Staats,
2021), so a small temperature cannot overflow exp; its backward rebuilds
dL/dz block by block from those sums. No (nodes x narrations) or
(stage nodes)^2 array is held, and L_ft never builds one across videos.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import joint_node, value
from .config import RunConfig
from .dataio import FeatureSequence, NarrationSet
from .errors import (
    EmptyBatchError,
    GradientError,
    NonFiniteError,
    ShapeError,
    TrainingDivergedError,
)
from .graph import VideoGraph, build_graph, disjoint_union, row_slices
from .model import (
    ForwardTrace,
    ModelDims,
    ModelParams,
    forward,
    init_params,
    project_text,
    project_visual,
)
from .partition import PartitionResult

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AlignmentBatch:
    """Parallel lists of level-0 graphs and their narration sets. The loss
    runs one forward pass on the graphs' disjoint union, in list order."""

    graphs: list[VideoGraph]
    narrations: list[NarrationSet]

    def __post_init__(self):
        if len(self.graphs) != len(self.narrations):
            raise ShapeError("graphs and narrations must be parallel lists")


@dataclass(frozen=True)
class LossValue:
    """The total loss L = L_vna + L_ft, its two terms, the gradient of L
    over the flat parameter vector (None when it was not asked for), and the
    partitions it was taken under: one per decoder stage, deepest first, of
    the batch's union graph (see ``PartitionResult``)."""

    value: float
    vna: float
    ft: float
    gradient: np.ndarray | None
    partitions: list[PartitionResult]


# ---------------------------------------------------------------------------
# loss internals: each loss is one autodiff node, built a block at a time

# floats in one block of a loss's logits z; a block holds whole rows
_BLOCK = 1 << 15


def _row_blocks(rows: list[slice], cols: list[slice], width: int) -> list[tuple[slice, slice]]:
    """(rows, cols) of each block: video v's rows ``rows[v]`` in slices of at
    most ``_BLOCK // width`` rows (at least one), each with the video's
    columns ``cols[v]``."""
    step = max(1, _BLOCK // max(width, 1))
    return [(slice(r, min(r + step, own.stop)), col)
            for own, col in zip(rows, cols) for r in range(own.start, own.stop, step)]


def _log(x: np.ndarray) -> np.ndarray:
    """log x, -inf where x is 0."""
    return np.log(x, out=np.full(x.shape, -np.inf), where=x > 0.0)


def _along(v: np.ndarray, axis: int) -> np.ndarray:
    """Per-row (axis 1) or per-column (axis 0) values, shaped to broadcast
    over a block."""
    return v[:, None] if axis == 1 else v


class _LogSumExp:
    """log sum exp(x) along ``axis`` of a masked array x (-inf off the mask)
    that arrives a block at a time, ``at`` picking the block's entries: the
    running maximum is the shift, and the sum so far is rescaled when it
    grows (Rabe & Staats, 2021)."""

    def __init__(self, size: int, axis: int):
        self.axis = axis
        self.top = np.full(size, -np.inf)
        self.total = np.zeros(size)  # in units of exp(top)

    def add(self, x: np.ndarray, at: slice) -> None:
        top = np.maximum(x.max(axis=self.axis, initial=-np.inf), self.top[at])
        shift = np.where(top > -np.inf, top, 0.0)
        part = np.exp(x - _along(shift, self.axis)).sum(axis=self.axis)
        self.total[at] = self.total[at] * np.exp(self.top[at] - shift) + part
        self.top[at] = top

    def log(self) -> np.ndarray:
        return self.top + _log(self.total)


class _LogRatios:
    """The terms -log(pos / den) of the rows (axis 1) or the columns (axis 0)
    of the logits z, where pos sums exp(z) over an entry's positives and den
    over its denominator, the positives included; an entry without positives
    has no term. Blocks arrive as zp, z with -inf off the positives, and zd,
    z with -inf off the denominator, each with the slice of entries it
    covers."""

    def __init__(self, size: int, axis: int):
        self.axis = axis
        self.pos = _LogSumExp(size, axis)
        self.den = _LogSumExp(size, axis)

    def add(self, zp: np.ndarray, pos_at: slice, zd: np.ndarray, den_at: slice) -> None:
        self.pos.add(zp, pos_at)
        self.den.add(zd, den_at)

    def finish(self, video: np.ndarray, videos: int | None = None) -> tuple[float, bool]:
        """The sum over videos of each video's mean term (entry r belongs to
        video ``video[r]``), divided by ``videos`` (by default the number of
        videos with a term), and whether any entry has a term. Keeps what
        ``shares`` needs: each entry's log sums less the log of its weight."""
        log_pos, log_den = self.pos.log(), self.den.log()
        del self.pos, self.den
        keep = log_pos > -np.inf
        count = np.bincount(video, weights=keep)
        if not count.any():
            return 0.0, False
        videos = np.count_nonzero(count) if videos is None else videos
        weight = np.divide(keep, count[video], out=np.zeros(keep.shape), where=keep)
        terms = np.subtract(log_den, log_pos, out=np.zeros(keep.shape), where=keep)
        log_weight = _log(weight / videos)
        # an entry without a term gets shifts of +inf, so its shares are 0
        self.pos_shift = np.subtract(log_pos, log_weight, out=np.full(keep.shape, np.inf),
                                     where=keep)
        self.den_shift = np.subtract(log_den, log_weight, out=np.full(keep.shape, np.inf),
                                     where=keep)
        return float(np.sum(terms * weight) / videos), True

    def shares(self, zp: np.ndarray, pos_at: slice, zd: np.ndarray, den_at: slice):
        """Each entry's weighted softmax share in its den and in its pos; the
        block's dL/dz is the first less the second."""
        axis = self.axis
        return (np.exp(zd - _along(self.den_shift[den_at], axis)),
                np.exp(zp - _along(self.pos_shift[pos_at], axis)))


def _vna_scalar(batch: AlignmentBatch, output, params: ModelParams, config: RunConfig):
    """Video-narration alignment loss over the forward output of a batch
    (its graphs' rows stacked in order), as one node over the projected
    nodes and narrations.

    A node's positives are its video's narrations within 2**alpha seconds;
    its negatives are its video's narrations in the (2**alpha, 2**beta]
    annulus plus every narration of the other videos (likewise for a
    narration's nodes). A node or narration without positives adds no term.
    The logits are built a block of one video's node rows at a time; only
    the block's own-video columns need the time windows.
    """
    sets = [narrs for narrs in batch.narrations if len(narrs)]  # (0, 0) embeddings stack with none
    if not sets:
        raise EmptyBatchError("batch has no narrations")
    videos = np.arange(len(batch.graphs))
    node_sizes = [g.num_nodes for g in batch.graphs]
    narr_sizes = [len(narrs) for narrs in batch.narrations]
    node_times = np.concatenate([g.timestamps for g in batch.graphs])
    narr_times = np.concatenate([narrs.timestamps for narrs in sets])
    near, far, tau = 2.0 ** config.alpha, 2.0 ** config.beta, config.temperature

    vh = project_visual(output, params)
    th = project_text(np.concatenate([narrs.embeddings for narrs in sets]), params)
    vhv, thv = value(vh), value(th)
    every = slice(None)
    blocks = _row_blocks(row_slices(node_sizes), row_slices(narr_sizes), len(narr_times))

    def block(rows: slice, own: slice):
        z = (vhv[rows] @ thv.T) / tau
        dt = np.abs(node_times[rows, None] - narr_times[own])
        zp = np.where(dt <= near, z[:, own], -np.inf)
        z[:, own][dt > far] = -np.inf
        return rows, own, zp, z

    per_node, per_narration = _LogRatios(len(node_times), 1), _LogRatios(len(narr_times), 0)
    for rows, own, zp, zd in (block(*b) for b in blocks):
        per_node.add(zp, rows, zd, rows)
        per_narration.add(zp, own, zd, every)
    v2t, any_term = per_node.finish(np.repeat(videos, node_sizes))
    if not any_term:
        raise EmptyBatchError("no narration falls inside any node's alignment window")
    t2v, _ = per_narration.finish(np.repeat(videos, narr_sizes))

    def grads(g):
        dvh, dth = np.empty_like(vhv), np.zeros_like(thv)
        for rows, own, zp, zd in (block(*b) for b in blocks):
            dz, pos = per_node.shares(zp, rows, zd, rows)
            narr_den, narr_pos = per_narration.shares(zp, own, zd, every)
            dz += narr_den
            pos += narr_pos
            dz[:, own] -= pos
            dvh[rows] = dz @ thv
            dth += dz.T @ vhv[rows]
        scale = g / tau
        return dvh * scale, dth * scale

    return joint_node(v2t + t2v, (vh, th), grads)


def _ft_stage(stage, params: ModelParams, temperature: float, videos: int):
    """One decoder stage's functional-threads term, divided by ``videos``,
    as one node over the stage's projected nodes; None when no node has a
    same-cluster partner in its video. A node's positives are the other
    nodes of its video and cluster, its denominator every other node of its
    video; each video's (n_v x n_v) logits are built a block of rows at a
    time."""
    sizes = stage.graph.video_sizes
    video = np.repeat(np.arange(len(sizes)), sizes)
    labels = stage.partition.assignments
    _, partners = np.unique(np.stack([video, labels], axis=1), axis=0, return_counts=True)
    if not np.any(partners > 1):
        return None
    vh = project_visual(stage.output, params)
    vhv = value(vh)
    per_video = row_slices(sizes)
    blocks = _row_blocks(per_video, per_video, max(sizes))

    def block(rows: slice, own: slice):
        z = (vhv[rows] @ vhv[own].T) / temperature
        diagonal = np.arange(rows.start, rows.stop)[:, None] == np.arange(own.start, own.stop)
        same = labels[rows, None] == labels[own]
        same &= ~diagonal
        zp = np.where(same, z, -np.inf)
        z[diagonal] = -np.inf
        return rows, own, zp, z

    per_node = _LogRatios(len(labels), 1)
    for rows, _, zp, zd in (block(*b) for b in blocks):
        per_node.add(zp, rows, zd, rows)
    loss, _ = per_node.finish(video, videos)

    def grads(g):
        dvh = np.zeros_like(vhv)
        for rows, own, zp, zd in (block(*b) for b in blocks):
            dz, pos = per_node.shares(zp, rows, zd, rows)
            dz -= pos
            dvh[rows] += dz @ vhv[own]
            dvh[own] += dz.T @ vhv[rows]
        return (dvh * (g / temperature),)

    return joint_node(loss, (vh,), grads)


def _ft_scalar(trace: ForwardTrace, params: ModelParams, temperature: float):
    """Functional-threads loss: per decoder depth, pull each video's
    same-cluster nodes together in the h_v space, averaged over the videos
    of the trace's graph; returns None when no node is eligible."""
    videos = len(trace.stages[0].graph.video_sizes)
    terms = [term for stage in trace.stages
             if (term := _ft_stage(stage, params, temperature, videos)) is not None]
    return sum(terms[1:], terms[0]) if terms else None


def _collect_gradient(leaves) -> np.ndarray:
    parts = []
    for leaf in leaves:
        grad = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
        parts.append(np.asarray(grad).ravel())
    gradient = np.concatenate(parts)
    if not np.all(np.isfinite(gradient)):
        raise GradientError("gradient contains non-finite entries")
    return gradient


# ---------------------------------------------------------------------------
# the loss


class TotalLossOp:
    """Callable computing L = L_vna + L_ft under one run config.

    It reads ``k``, ``kappa``, ``max_nodes`` and ``seed`` (the decoder's
    partitions), ``alpha`` and ``beta`` (the alignment windows) and
    ``temperature``, whose ranges ``RunConfig`` checks.
    """

    def __init__(self, config: RunConfig):
        self.config = config

    def __call__(self, params: ModelParams, batch: AlignmentBatch, *,
                 gradient: bool = True,
                 partitions: list[list[PartitionResult]] | None = None) -> LossValue:
        """The loss at ``params``. With ``gradient`` the forward pass runs
        in autodiff mode and the result carries dL/dparams; without it the
        pass runs on plain arrays and ``gradient`` is None.

        ``partitions`` (as ``LossValue.partitions`` returns them) fixes the
        cluster assignments, so repeated calls (finite
        differences) see a smooth function of the parameters; by default
        each call partitions the batch afresh. Assignments are discrete and
        carry no gradient; an L_ft with no eligible node is 0 and adds
        nothing to the gradient.
        """
        cfg = self.config
        if gradient:
            params, leaves = params.to_vars()
        trace = forward(disjoint_union(batch.graphs), params, k=cfg.k, kappa=cfg.kappa,
                        max_nodes=cfg.max_nodes, seed=cfg.seed, fixed_partitions=partitions)
        vna = _vna_scalar(batch, trace.output, params, cfg)
        ft = _ft_scalar(trace, params, cfg.temperature)
        if ft is None:
            logger.info("functional-threads loss skipped: no eligible node in batch")
        total = vna if ft is None else vna + ft
        grad = None
        if gradient:
            total.backward()
            grad = _collect_gradient(leaves)
        return LossValue(float(value(total)), float(value(vna)),
                         0.0 if ft is None else float(value(ft)), grad,
                         [s.partition for s in trace.stages])


def grad_check(loss_op, params: ModelParams, batch: AlignmentBatch,
               epsilon: float = 1e-5, seed: int = 0,
               sample_threshold: int = 2000, min_sample: int = 200) -> float:
    """Max relative error between the analytic gradient and central finite
    differences, every evaluation under the analytic call's partitions.

    Every coordinate is checked unless the parameter count exceeds
    ``sample_threshold``, in which case a seeded random subset of
    ``min_sample`` coordinates is used. The error per coordinate is
    |analytic - numeric| / max(1, |numeric|). A non-finite finite-difference
    quotient raises GradientError naming its coordinate.
    """
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ShapeError(f"epsilon must be positive and finite, got {epsilon}")
    analytic = loss_op(params, batch)
    if not np.all(np.isfinite(analytic.gradient)):
        raise GradientError("analytic gradient is not finite")
    vec = params.to_vector()
    total = vec.size
    if total > sample_threshold:
        rng = np.random.default_rng(seed)
        coords = np.sort(rng.choice(total, size=min_sample, replace=False))
    else:
        coords = np.arange(total)

    worst = 0.0
    for c in coords:
        shifted = vec.copy()
        shifted[c] = vec[c] + epsilon
        f_plus = loss_op(params.with_vector(shifted), batch, gradient=False,
                         partitions=analytic.partitions).value
        shifted[c] = vec[c] - epsilon
        f_minus = loss_op(params.with_vector(shifted), batch, gradient=False,
                          partitions=analytic.partitions).value
        numeric = (f_plus - f_minus) / (2.0 * epsilon)
        if not math.isfinite(numeric):
            raise GradientError(f"numeric derivative at coordinate {c} is not finite")
        err = abs(analytic.gradient[c] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# toy trainer


def lr_at_step(config: RunConfig, step: int, steps_per_epoch: int) -> float:
    """Linear 0 -> lr over the warmup epochs, then cosine decay toward 0."""
    warmup = config.warmup_epochs * steps_per_epoch
    total = config.epochs * steps_per_epoch
    if warmup > 0 and step < warmup:
        return config.lr * step / warmup
    span = max(total - warmup, 1)
    progress = min((step - warmup) / span, 1.0)
    return config.lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def train_toy(dataset: list[tuple[FeatureSequence, NarrationSet]],
              config: RunConfig) -> tuple[ModelParams, list[dict]]:
    """Gradient-descent training on an in-memory dataset.

    ``config.seed`` seeds the initialization, the batch order and the
    clustering. Each batch is a set of videos, taken in dataset order.
    Returns the final parameters and a per-epoch history of the mean total
    loss and of its two terms (``vna``, ``ft``). The text width d_t is read
    from the videos with narrations. Raises EmptyBatchError when no video
    has a narration, and TrainingDivergedError (with the epoch index) if the
    loss goes non-finite.
    """
    op = TotalLossOp(config)
    if not dataset:
        raise ShapeError("dataset must not be empty")
    d_in = dataset[0][0].dim
    narrated = [narrs for _, narrs in dataset if len(narrs)]
    if not narrated:
        raise EmptyBatchError("no video of the dataset has a narration")
    d_t = narrated[0].embeddings.shape[1]
    dims = ModelDims(d_in=d_in, d_h=config.hidden, d_a=config.align_dim,
                     d_t=d_t, stages=config.stages, layers=config.layers)
    params = init_params(dims, seed=config.seed)
    graphs = [build_graph(seq, config.edge_threshold) for seq, _ in dataset]
    narration_sets = [narrs for _, narrs in dataset]

    rng = np.random.default_rng(config.seed)
    steps_per_epoch = max(1, math.ceil(len(dataset) / config.batch_size))
    history: list[dict] = []
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset))
        losses = []
        for start in range(0, len(dataset), config.batch_size):
            chosen = np.sort(order[start:start + config.batch_size])
            batch = AlignmentBatch([graphs[i] for i in chosen],
                                   [narration_sets[i] for i in chosen])
            try:
                loss = op(params, batch)
            except (NonFiniteError, GradientError) as exc:
                raise TrainingDivergedError(epoch) from exc
            if not math.isfinite(loss.value):
                raise TrainingDivergedError(epoch)
            lr = lr_at_step(config, step, steps_per_epoch)
            updated = params.to_vector() - lr * loss.gradient
            if not np.all(np.isfinite(updated)):
                raise TrainingDivergedError(epoch)
            params = params.with_vector(updated)
            losses.append((loss.value, loss.vna, loss.ft))
            step += 1
        mean_loss, vna, ft = (float(np.mean(column)) for column in zip(*losses))
        history.append({"epoch": epoch, "mean_loss": mean_loss, "vna": vna, "ft": ft,
                        "lr": lr_at_step(config, step - 1, steps_per_epoch)})
    return params, history
