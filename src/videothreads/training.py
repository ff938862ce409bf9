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

from .autodiff import segment_sum, value, vexp, vlog, vsum
from .dataio import FeatureSequence, Narration, NarrationSet
from .errors import (
    EmptyBatchError,
    GradientError,
    NonFiniteError,
    ShapeError,
    TrainingDivergedError,
)
from .graph import VideoGraph, build_graph
from .model import (
    ForwardTrace,
    ModelDims,
    ModelParams,
    forward,
    init_params,
    project_text,
    project_visual,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AlignmentBatch:
    """Parallel lists of level-0 graphs and their narration sets."""

    graphs: list[VideoGraph]
    narrations: list[NarrationSet]
    alpha: float = 1.0
    beta: float = 4.0
    temperature: float = 0.05

    def __post_init__(self):
        if len(self.graphs) != len(self.narrations):
            raise ShapeError("graphs and narrations must be parallel lists")
        if not self.alpha < self.beta:
            raise ShapeError(f"alpha={self.alpha} must be < beta={self.beta}")
        if self.temperature <= 0.0:
            raise ShapeError("temperature must be positive")


@dataclass(frozen=True)
class LossValue:
    """A scalar loss with its gradient over the flat parameter vector."""

    value: float
    gradient: np.ndarray


def sample_windows(node_time: float, narrations: NarrationSet,
                   others: list[NarrationSet], alpha: float, beta: float
                   ) -> tuple[list[Narration], list[Narration]]:
    """Positive and negative narrations for one node.

    Positives: same-video narrations within 2**alpha seconds. Negatives:
    same-video narrations in the (2**alpha, 2**beta] annulus plus every
    narration from the other videos in the batch.
    """
    if not alpha < beta:
        raise ShapeError(f"alpha={alpha} must be < beta={beta}")
    near, far = 2.0 ** alpha, 2.0 ** beta
    positives, negatives = [], []
    for item in narrations.items:
        distance = abs(node_time - item.timestamp)
        if distance <= near:
            positives.append(item)
        elif distance <= far:
            negatives.append(item)
    for other in others:
        negatives.extend(other.items)
    return positives, negatives


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


def _vna_scalar(batch: AlignmentBatch, outputs, params: ModelParams):
    """Video-narration alignment loss over a batch of forward outputs."""
    node_times, node_video = [], []
    narr_times, narr_video, narr_embeddings = [], [], []
    for i, (g, narrs) in enumerate(zip(batch.graphs, batch.narrations)):
        node_times.append(g.timestamps)
        node_video.append(np.full(g.num_nodes, i))
        if len(narrs):
            narr_times.append(narrs.timestamps())
            narr_video.append(np.full(len(narrs), i))
            narr_embeddings.append(narrs.embeddings())
    if not narr_times:
        raise EmptyBatchError("batch has no narrations")
    node_times = np.concatenate(node_times)
    node_video = np.concatenate(node_video)
    narr_times = np.concatenate(narr_times)
    narr_video = np.concatenate(narr_video)

    near, far = 2.0 ** batch.alpha, 2.0 ** batch.beta
    same = node_video[:, None] == narr_video[None, :]
    dt = np.abs(node_times[:, None] - narr_times[None, :])
    pos_mask = (same & (dt <= near)).astype(np.float64)
    den_mask = (same & (dt <= far) | ~same).astype(np.float64)
    if pos_mask.sum() == 0.0:
        raise EmptyBatchError("no narration falls inside any node's alignment window")

    vh = project_visual(_vstack(outputs), params)
    th = project_text(np.concatenate(narr_embeddings, axis=0), params)
    expz = vexp((vh @ th.T) / batch.temperature)

    v2t_terms, v2t_keep = _masked_log_ratio(expz, pos_mask, den_mask, axis=1)
    t2v_terms, t2v_keep = _masked_log_ratio(expz, pos_mask, den_mask, axis=0)

    def batch_mean(terms, keep, video_of):
        total = None
        videos = 0
        for i in range(len(batch.graphs)):
            members = keep & (video_of == i)
            count = int(members.sum())
            if count == 0:
                continue
            videos += 1
            contribution = vsum(terms * (members.astype(np.float64) / count))
            total = contribution if total is None else total + contribution
        return total / videos

    return batch_mean(v2t_terms, v2t_keep, node_video) + batch_mean(t2v_terms, t2v_keep, narr_video)


def _ft_scalar(traces: list[ForwardTrace], params: ModelParams, temperature: float,
               depth_mask: list[bool] | None = None, decoder_values=None):
    """Functional-threads loss: per decoder depth, pull same-cluster nodes
    together in the h_v space; returns None when no node is eligible."""
    total = None
    eligible_any = False
    for t_idx, trace in enumerate(traces):
        stages = decoder_values[t_idx] if decoder_values is not None else [
            g.embeddings for g in trace.decoder_graphs
        ]
        for depth, (stage_x, part) in enumerate(zip(stages, trace.partitions)):
            if depth_mask is not None and not depth_mask[depth]:
                continue
            labels = part.assignments
            n = labels.shape[0]
            if n < 2:
                continue
            same = (labels[:, None] == labels[None, :]) & ~np.eye(n, dtype=bool)
            if not same.any():
                continue
            eligible_any = True
            vh = project_visual(stage_x, params)
            expz = vexp((vh @ vh.T) / temperature)
            den_mask = (~np.eye(n, dtype=bool)).astype(np.float64)
            terms, keep = _masked_log_ratio(expz, same.astype(np.float64), den_mask, axis=1)
            count = int(keep.sum())
            contribution = vsum(terms * (keep.astype(np.float64) / count))
            total = contribution if total is None else total + contribution
    if not eligible_any:
        return None
    return total / len(traces)


def _vstack(blocks):
    """Rows of every block in order; Var blocks keep their gradient paths."""
    sizes = [value(b).shape[0] for b in blocks]
    n = sum(sizes)
    starts = np.cumsum([0] + sizes[:-1])
    return sum(segment_sum(b, start + np.arange(size), n)
               for b, start, size in zip(blocks, starts, sizes))


def _collect_gradient(leaves) -> np.ndarray:
    parts = []
    for leaf in leaves:
        grad = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
        parts.append(np.asarray(grad).ravel())
    gradient = np.concatenate(parts)
    if not np.all(np.isfinite(gradient)):
        raise GradientError("gradient contains non-finite entries")
    return gradient


def _rerun_traces(traces: list[ForwardTrace], params_v: ModelParams) -> list[ForwardTrace]:
    reruns = []
    for trace in traces:
        if trace.input_graph is None:
            raise ShapeError("trace lacks its input graph; build it with forward()")
        reruns.append(forward(trace.input_graph, params_v,
                              fixed_partitions=trace.partitions))
    return reruns


# ---------------------------------------------------------------------------
# public loss operations


def loss_vna(batch: AlignmentBatch, traces: list[ForwardTrace],
             params: ModelParams) -> LossValue:
    """Alignment loss and its gradient over all parameters.

    The forward pass is replayed with gradient tracking, reusing the traces'
    cluster assignments as constants (assignments are discrete and carry no
    gradient).
    """
    if len(traces) != len(batch.graphs):
        raise ShapeError("one trace per batch graph required")
    params_v, leaves = params.to_vars()
    reruns = _rerun_traces(traces, params_v)
    scalar = _vna_scalar(batch, [t.output_var for t in reruns], params_v)
    scalar.backward()
    return LossValue(scalar.item(), _collect_gradient(leaves))


def loss_ft(traces: list[ForwardTrace], params: ModelParams, temperature: float,
            depth_mask: list[bool] | None = None) -> LossValue:
    """Functional-threads loss and gradient; zero with an empty gradient when
    no decoder partition has two members sharing a cluster."""
    params_v, leaves = params.to_vars()
    reruns = _rerun_traces(traces, params_v)
    scalar = _ft_scalar(reruns, params_v, temperature, depth_mask,
                        decoder_values=[t.decoder_vars for t in reruns])
    if scalar is None:
        logger.info("functional-threads loss skipped: no eligible node in batch")
        return LossValue(0.0, np.zeros(params.num_params))
    scalar.backward()
    return LossValue(scalar.item(), _collect_gradient(leaves))


class TotalLossOp:
    """Callable computing L_vna + L_ft with cluster assignments frozen at the
    first evaluation, so repeated calls (finite differences) see a smooth
    function of the parameters."""

    def __init__(self, k: int = 1, kappa: float = 1.0, max_nodes: int = 64,
                 cluster_enabled: bool = True, seed: int = 0,
                 depth_mask: list[bool] | None = None):
        self.k = k
        self.kappa = kappa
        self.max_nodes = max_nodes
        self.cluster_enabled = cluster_enabled
        self.seed = seed
        self.depth_mask = depth_mask
        self._partitions: list | None = None

    def _forward_all(self, params, batch: AlignmentBatch) -> list[ForwardTrace]:
        traces = []
        for i, g in enumerate(batch.graphs):
            fixed = self._partitions[i] if self._partitions is not None else None
            traces.append(forward(
                g, params, k=self.k, kappa=self.kappa, max_nodes=self.max_nodes,
                cluster_enabled=self.cluster_enabled, seed=self.seed,
                fixed_partitions=fixed,
            ))
        if self._partitions is None:
            self._partitions = [t.partitions for t in traces]
        return traces

    def value_only(self, params: ModelParams, batch: AlignmentBatch) -> float:
        traces = self._forward_all(params, batch)
        vna = _vna_scalar(batch, [t.output for t in traces], params)
        ft = _ft_scalar(traces, params, batch.temperature, self.depth_mask)
        total = float(value(vna))
        if ft is not None:
            total += float(value(ft))
        return total

    def __call__(self, params: ModelParams, batch: AlignmentBatch) -> LossValue:
        params_v, leaves = params.to_vars()
        traces = self._forward_all(params_v, batch)
        scalar = _vna_scalar(batch, [t.output_var for t in traces], params_v)
        ft = _ft_scalar(traces, params_v, batch.temperature, self.depth_mask,
                        decoder_values=[t.decoder_vars for t in traces])
        if ft is not None:
            scalar = scalar + ft
        scalar.backward()
        return LossValue(scalar.item(), _collect_gradient(leaves))


def grad_check(loss_op, params: ModelParams, batch: AlignmentBatch,
               epsilon: float = 1e-5, seed: int = 0,
               sample_threshold: int = 2000, min_sample: int = 200) -> float:
    """Max relative error between the analytic gradient and central finite
    differences.

    Every coordinate is checked unless the parameter count exceeds
    ``sample_threshold``, in which case a seeded random subset of
    ``min_sample`` coordinates is used. The error per coordinate is
    |analytic - numeric| / max(1, |numeric|).
    """
    if epsilon <= 0.0:
        raise ShapeError("epsilon must be positive")
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

    value_of = getattr(loss_op, "value_only", None)
    if value_of is None:
        value_of = lambda p, b: loss_op(p, b).value  # noqa: E731

    worst = 0.0
    for c in coords:
        shifted = vec.copy()
        shifted[c] = vec[c] + epsilon
        f_plus = value_of(params.with_vector(shifted), batch)
        shifted[c] = vec[c] - epsilon
        f_minus = value_of(params.with_vector(shifted), batch)
        numeric = (f_plus - f_minus) / (2.0 * epsilon)
        err = abs(analytic.gradient[c] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# toy trainer


@dataclass
class TrainConfig:
    """Plain gradient descent with linear warmup and cosine decay."""

    epochs: int = 15
    batch_size: int = 8
    lr: float = 1e-5
    warmup_epochs: int = 5
    hidden: int = 768
    align_dim: int = 768
    stages: int = 3
    layers: int = 3
    edge_threshold: float = 1.0
    alpha: float = 1.0
    beta: float = 4.0
    temperature: float = 0.05
    k: int = 2
    kappa: float = 1.0
    max_nodes: int = 64
    cluster_enabled: bool = True


def lr_at_step(config: TrainConfig, step: int, steps_per_epoch: int) -> float:
    """Linear 0 -> lr over the warmup epochs, then cosine decay toward 0."""
    warmup = config.warmup_epochs * steps_per_epoch
    total = config.epochs * steps_per_epoch
    if warmup > 0 and step < warmup:
        return config.lr * step / warmup
    span = max(total - warmup, 1)
    progress = min((step - warmup) / span, 1.0)
    return config.lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def train_toy(dataset: list[tuple[FeatureSequence, NarrationSet]],
              config: TrainConfig, seed: int = 0
              ) -> tuple[ModelParams, list[dict]]:
    """Gradient-descent training on an in-memory dataset.

    Returns the final parameters and a per-epoch history of mean total loss.
    Raises TrainingDivergedError (with the epoch index) if the loss goes
    non-finite.
    """
    if not dataset:
        raise ShapeError("dataset must not be empty")
    d_in = dataset[0][0].dim
    d_t = dataset[0][1].embeddings().shape[1]
    dims = ModelDims(d_in=d_in, d_h=config.hidden, d_a=config.align_dim,
                     d_t=d_t, stages=config.stages, layers=config.layers)
    params = init_params(dims, seed=seed)
    graphs = [build_graph(seq, config.edge_threshold) for seq, _ in dataset]
    narration_sets = [narrs for _, narrs in dataset]

    rng = np.random.default_rng(seed)
    steps_per_epoch = max(1, math.ceil(len(dataset) / config.batch_size))
    history: list[dict] = []
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset))
        losses = []
        for start in range(0, len(dataset), config.batch_size):
            chosen = order[start:start + config.batch_size]
            batch = AlignmentBatch(
                graphs=[graphs[i] for i in chosen],
                narrations=[narration_sets[i] for i in chosen],
                alpha=config.alpha, beta=config.beta,
                temperature=config.temperature,
            )
            op = TotalLossOp(k=config.k, kappa=config.kappa,
                             max_nodes=config.max_nodes,
                             cluster_enabled=config.cluster_enabled, seed=seed)
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
            losses.append(loss.value)
            step += 1
        history.append({"epoch": epoch, "mean_loss": float(np.mean(losses)),
                        "lr": lr_at_step(config, step - 1, steps_per_epoch)})
    return params, history
