"""Training objectives and a toy-scale trainer.

Two contrastive losses drive the model: window-based video-narration
alignment (nodes pull toward narrations inside a 2**alpha-second window and
push away from narrations in the 2**beta annulus or from other videos in the
batch) and a functional-threads objective that tightens each decoder
partition in the aligned feature space. Gradients are exact, computed by
reverse-mode autodiff through the full forward pass with cluster assignments
held constant, and are validated against central finite differences.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import value, vexp, vlog, vsum
from .config import RunConfig
from .dataio import FeatureSequence, NarrationSet
from .errors import (
    ConfigError,
    EmptyBatchError,
    GradientError,
    NonFiniteError,
    ShapeError,
    TrainingDivergedError,
)
from .graph import VideoGraph, build_graph, disjoint_union
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
# loss internals (shared by the ndarray and autodiff paths)


def _masked_log_ratio(expz, pos_mask: np.ndarray, den_mask: np.ndarray, axis: int):
    """Per-row (axis=1) or per-column (axis=0) -log(pos / den) with rows
    lacking positives excluded; returns (terms, contributing mask)."""
    contributing = pos_mask.any(axis=axis)
    num = vsum(expz * pos_mask, axis=axis)
    den = vsum(expz * den_mask, axis=axis)
    keep = contributing.astype(np.float64)
    num_safe = num * keep + (1.0 - keep)  # excluded entries see log(1) = 0
    den_safe = den * keep + (1.0 - keep)
    return vlog(den_safe) - vlog(num_safe), contributing


def _video_sum(terms, keep: np.ndarray, video: np.ndarray):
    """Sum over videos of each video's mean term over its ``keep`` rows
    (row r belongs to video ``video[r]``), and the number of videos that
    keep a row; a video that keeps none adds nothing."""
    count = np.bincount(video, weights=keep)
    weight = np.divide(keep, count[video], out=np.zeros(keep.shape), where=keep)
    return vsum(terms * weight), int(np.count_nonzero(count))


def _vna_scalar(batch: AlignmentBatch, output, params: ModelParams, config: RunConfig):
    """Video-narration alignment loss over the forward output of a batch
    (its graphs' rows stacked in order).

    A node's positives are its video's narrations within 2**alpha seconds;
    its negatives are its video's narrations in the (2**alpha, 2**beta]
    annulus plus every narration of the other videos (likewise for a
    narration's nodes). A node or narration without positives adds no term.
    """
    sets = [narrs for narrs in batch.narrations if len(narrs)]  # (0, 0) embeddings stack with none
    if not sets:
        raise EmptyBatchError("batch has no narrations")
    videos = np.arange(len(batch.graphs))
    node_times = np.concatenate([g.timestamps for g in batch.graphs])
    node_video = np.repeat(videos, [g.num_nodes for g in batch.graphs])
    narr_times = np.concatenate([narrs.timestamps for narrs in sets])
    narr_video = np.repeat(videos, [len(narrs) for narrs in batch.narrations])

    near, far = 2.0 ** config.alpha, 2.0 ** config.beta
    same = node_video[:, None] == narr_video[None, :]
    dt = np.abs(node_times[:, None] - narr_times[None, :])
    pos_mask = (same & (dt <= near)).astype(np.float64)
    den_mask = (same & (dt <= far) | ~same).astype(np.float64)
    if pos_mask.sum() == 0.0:
        raise EmptyBatchError("no narration falls inside any node's alignment window")

    vh = project_visual(output, params)
    th = project_text(np.concatenate([narrs.embeddings for narrs in sets]), params)
    expz = vexp((vh @ th.T) / config.temperature)

    def batch_mean(axis, video):
        video_sum, videos = _video_sum(*_masked_log_ratio(expz, pos_mask, den_mask, axis),
                                       video)
        return video_sum / videos

    return batch_mean(1, node_video) + batch_mean(0, narr_video)


def _ft_scalar(trace: ForwardTrace, params: ModelParams, temperature: float):
    """Functional-threads loss: per decoder depth, pull each video's
    same-cluster nodes together in the h_v space, averaged over the videos
    of the trace's graph; returns None when no node is eligible."""
    total = None
    for stage in trace.stages:
        sizes = stage.graph.video_sizes
        video = np.repeat(np.arange(len(sizes)), sizes)
        labels = stage.partition.assignments
        den_mask = (video[:, None] == video[None, :]) & ~np.eye(labels.shape[0], dtype=bool)
        same = den_mask & (labels[:, None] == labels[None, :])
        if not same.any():
            continue
        vh = project_visual(stage.output, params)
        expz = vexp((vh @ vh.T) / temperature)
        terms, keep = _masked_log_ratio(expz, same.astype(np.float64),
                                        den_mask.astype(np.float64), axis=1)
        contribution, _ = _video_sum(terms, keep, video)
        total = contribution if total is None else total + contribution
    return None if total is None else total / len(trace.stages[0].graph.video_sizes)


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
    ``temperature``; out-of-range loss settings raise ConfigError naming
    the key.
    """

    def __init__(self, config: RunConfig):
        if not config.alpha < config.beta:
            raise ConfigError(f"alpha: {config.alpha} must be below beta ({config.beta})")
        if config.temperature <= 0.0:
            raise ConfigError(f"temperature: {config.temperature} must be positive")
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
    from the videos with narrations. Raises ConfigError naming the key for
    fewer than one epoch or batch size below one, EmptyBatchError when no
    video has a narration, and TrainingDivergedError (with the epoch index)
    if the loss goes non-finite.
    """
    for key in ("epochs", "batch_size"):
        if getattr(config, key) < 1:
            raise ConfigError(f"{key}: {getattr(config, key)} must be >= 1")
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
