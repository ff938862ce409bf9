"""Naive reference implementations used as oracles.

Everything here is written with explicit Python loops, directly off the
layer equations, independent of the vectorized production code: neighbor
sums are accumulated per node, interpolation walks the timestamp list, and
the decoder recomputes partition sub-graphs by scanning pairwise distances.
Partitions are taken as given inputs (they are discrete context, not part of
the numerics under test).

The symmetric eigensolver oracle is Householder tridiagonalization followed
by implicit-shift QL, with the per-column sign convention applied in a loop;
production code calls LAPACK instead.

The k-means oracle runs its restarts one after another, each seeded with
``Generator.choice`` and iterated to its own fixpoint; production code runs
all restarts at once.

The assignment oracle enumerates every row-to-column matching; production
code runs the Hungarian algorithm.

The scatter-add oracle is numpy's unbuffered ``np.add.at`` into zeros;
production code runs one ``np.bincount`` over (segment, column) cells.

The TDGC aggregation oracle gathers one message per directed edge and
scatter-adds the messages into their destinations (``segment_sum``), for
ndarrays and autodiff Vars alike; production code adds each band of
temporal offsets with shifted slices in the same per-node order, so the two
agree bit for bit, gradients included.

The backward oracle keeps the gradient of every node it reaches;
production ``Var.backward`` drops each non-leaf gradient once it has passed
it to the node's parents, and must leave the same leaf gradients.

The training-loss oracles compose each loss out of autodiff Var nodes:
exp(z) over the whole (nodes x narrations) or (stage nodes)^2 logits, masked
sums along an axis and their log ratio, with no max shift; production code
builds each loss as one node a block of rows at a time, with a max-shifted
log-sum-exp per row and per column, and rebuilds dL/dz in its backward.

``tdgc_forward`` applies one TDGC layer through the production layer code
on its own, so that a mismatch of the full pass can be pinned to one layer
against the dense-loop ``tdgc_layer_ref``.

The procedure F1/IoU oracle finds the ground-truth steps by testing every
id in ``range(num_steps)``; production code takes the distinct labels that
occur and keeps those in range, so its time does not grow with num_steps.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from videothreads.autodiff import (
    _topological_order,
    segment_sum,
    take_rows,
    value,
    vexp,
    vlog,
    vsum,
)
from videothreads.errors import ConvergenceError, ShapeError
from videothreads.graph import directed_edges
from videothreads.metrics import hungarian
from videothreads.model import _neighbor_table, _tdgc_apply, project_text, project_visual

QL_MAX_SWEEPS = 60


def sym_eigen_ref(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and sign-canonical eigenvectors of symmetric ``a``."""
    a = np.asarray(a, dtype=np.float64)
    diag, offdiag, q = householder_tridiagonalize(a)
    ql_implicit_shift(diag, offdiag, q)
    order = np.argsort(diag, kind="stable")
    vectors = q[:, order]
    canonical_signs_ref(vectors)
    return diag[order], vectors


def householder_tridiagonalize(a: np.ndarray):
    """Reduce symmetric ``a`` to tridiagonal form, accumulating the transform.

    Returns (diag, offdiag, q) with offdiag[i] the coupling between i and i+1
    (offdiag[n-1] unused) and q the orthogonal accumulation such that
    q @ T @ q.T reconstructs ``a``.
    """
    n = a.shape[0]
    t = a.copy()
    q = np.eye(n)
    for k in range(n - 2):
        x = t[k + 1 :, k]
        norm_x = float(np.linalg.norm(x))
        if norm_x == 0.0:
            continue
        v = x.copy()
        v[0] += math.copysign(norm_x, x[0])  # avoids cancellation
        v_norm = float(np.linalg.norm(v))
        if v_norm == 0.0:
            continue
        v /= v_norm
        # Apply P = I - 2 v v^T symmetrically to the trailing block.
        t[k + 1 :, k:] -= 2.0 * np.outer(v, v @ t[k + 1 :, k:])
        t[:, k + 1 :] -= 2.0 * np.outer(t[:, k + 1 :] @ v, v)
        q[:, k + 1 :] -= 2.0 * np.outer(q[:, k + 1 :] @ v, v)
    diag = np.diag(t).copy()
    offdiag = np.zeros(n)
    if n > 1:
        sub = np.diag(t, -1)
        sup = np.diag(t, 1)
        offdiag[: n - 1] = 0.5 * (sub + sup)  # rounding left tiny asymmetry
    return diag, offdiag, q


def ql_implicit_shift(d: np.ndarray, e: np.ndarray, z: np.ndarray) -> None:
    """QL iterations with implicit Wilkinson shifts on a tridiagonal matrix.

    ``d`` and ``e`` are updated in place; accumulated rotations are applied to
    the columns of ``z``. On return ``d`` holds the eigenvalues (unordered)
    and the columns of ``z`` the matching eigenvectors.
    """
    n = d.size
    if n <= 1:
        return
    eps = np.finfo(np.float64).eps
    for l in range(n):
        for sweep in range(QL_MAX_SWEEPS + 1):
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= eps * dd:
                    break
                m += 1
            if m == l:
                break
            if sweep == QL_MAX_SWEEPS:
                raise ConvergenceError(f"QL failed to converge for eigenvalue {l}")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            broke_down = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    broke_down = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                col = z[:, i + 1].copy()
                z[:, i + 1] = s * z[:, i] + c * col
                z[:, i] = c * z[:, i] - s * col
            if broke_down:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0


def canonical_signs_ref(vectors: np.ndarray) -> None:
    """Flip eigenvector columns so the first non-negligible entry is positive."""
    n = vectors.shape[1]
    for j in range(n):
        col = vectors[:, j]
        threshold = 1e-12 * max(float(np.max(np.abs(col))), 1e-300)
        nz = np.flatnonzero(np.abs(col) > threshold)
        lead = nz[0] if nz.size else 0
        if col[lead] < 0.0:
            vectors[:, j] = -col


def kmeans_ref(points, k: int, seed: int = 0, max_iter: int = 100,
               n_init: int = 8) -> tuple[np.ndarray, np.ndarray, float]:
    """(assignments, centroids, inertia) of the best of ``n_init`` sequential
    restarts, the first on ties. Inputs are assumed valid."""
    pts = np.asarray(points, dtype=np.float64)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        result = lloyd_once(pts, k, rng, max_iter)
        if best is None or result[2] < best[2]:
            best = result
    return best


def lloyd_once(pts: np.ndarray, k: int, rng: np.random.Generator, max_iter: int,
               history: list | None = None):
    centroids = kmeanspp_seeds(pts, k, rng)
    assignments = assign(pts, centroids)
    if history is not None:
        history.append(inertia(pts, centroids, assignments))
    for _ in range(max_iter):
        centroids = cluster_means(pts, assignments, k, centroids)
        new_assignments = assign(pts, centroids)
        if history is not None:
            history.append(inertia(pts, centroids, new_assignments))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return assignments, centroids, inertia(pts, centroids, assignments)


def kmeanspp_seeds(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    chosen = np.empty(k, dtype=np.intp)
    chosen[0] = rng.integers(n)
    d2 = np.sum((pts - pts[chosen[0]]) ** 2, axis=1)
    for i in range(1, k):
        total = float(d2.sum())
        if total == 0.0:
            chosen[i] = rng.integers(n)
        else:
            chosen[i] = rng.choice(n, p=d2 / total)
        d2 = np.minimum(d2, np.sum((pts - pts[chosen[i]]) ** 2, axis=1))
    return pts[chosen].copy()


def assign(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = np.sum((pts[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1)


def cluster_means(pts: np.ndarray, assignments: np.ndarray, k: int,
                  previous: np.ndarray) -> np.ndarray:
    centroids = previous.copy()
    for c in range(k):
        members = assignments == c
        if members.any():
            centroids[c] = pts[members].mean(axis=0)
    return centroids


def inertia(pts: np.ndarray, centroids: np.ndarray, assignments: np.ndarray) -> float:
    return float(np.sum((pts - centroids[assignments]) ** 2))


def relu_vec(v):
    return np.array([x if x > 0.0 else 0.0 for x in v])


def gate_vector(dt_abs: float, layer) -> np.ndarray:
    hidden = relu_vec(dt_abs * np.asarray(layer.gate_w1)[0] + np.asarray(layer.gate_b1))
    d = hidden.shape[0]
    out = np.zeros(d)
    for j in range(d):
        acc = 0.0
        for i in range(d):
            acc += hidden[i] * np.asarray(layer.gate_w2)[i, j]
        out[j] = acc + np.asarray(layer.gate_b2)[j]
    return out


def tdgc_layer_ref(x: np.ndarray, times: np.ndarray, neighbor_sets: list[set],
                   layer) -> np.ndarray:
    n, d = x.shape
    w_n = np.asarray(layer.w_n)
    w_r = np.asarray(layer.w_r)
    out = np.zeros((n, d))
    projected = np.zeros((n, d))
    for j in range(n):
        projected[j] = relu_vec(x[j] @ w_n + np.asarray(layer.b_n))
    for i in range(n):
        base = x[i] @ w_r + np.asarray(layer.b_r)
        neighbors = sorted(neighbor_sets[i])
        if neighbors:
            acc = np.zeros(d)
            for j in neighbors:
                s = math.copysign(1.0, times[i] - times[j]) if times[i] != times[j] else 0.0
                acc += s * gate_vector(abs(times[i] - times[j]), layer) * projected[j]
            base = base + acc / len(neighbors)
        out[i] = base
    return out


def neighbors_from_times(times: np.ndarray, threshold: float) -> list[set]:
    n = len(times)
    sets: list[set] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and abs(times[i] - times[j]) <= threshold:
                sets[i].add(j)
    return sets


def interpolate_ref(src_times, src_values, dst_times) -> np.ndarray:
    src_times = list(src_times)
    out = []
    for t in dst_times:
        if t <= src_times[0] or len(src_times) == 1:
            out.append(np.array(src_values[0]))
            continue
        if t >= src_times[-1]:
            out.append(np.array(src_values[-1]))
            continue
        for a in range(len(src_times) - 1):
            if src_times[a] <= t <= src_times[a + 1]:
                w = (t - src_times[a]) / (src_times[a + 1] - src_times[a])
                out.append((1 - w) * np.asarray(src_values[a]) + w * np.asarray(src_values[a + 1]))
                break
    return np.stack(out)


def forward_ref(g0, params, partitions) -> np.ndarray:
    """Full encoder/decoder forward with loops; ``partitions`` supplies the
    per-decoder-stage assignments (deepest stage first)."""
    x = np.asarray(g0.embeddings) @ np.asarray(params.input_proj.w) + np.asarray(params.input_proj.b)
    times = np.asarray(g0.timestamps, dtype=np.float64)
    threshold = g0.edge_threshold

    stage_values, stage_times, stage_levels = [], [], []
    level = 0
    for stage in params.encoder:
        sets = neighbors_from_times(times, threshold * 2.0 ** level)
        for layer in stage:
            x = tdgc_layer_ref(x, times, sets, layer)
        x = x[::2]
        times = times[::2]
        level += 1
        stage_values.append(x.copy())
        stage_times.append(times.copy())
        stage_levels.append(level)

    y = None
    y_times = None
    depth = 0
    for s in range(len(params.encoder) - 1, -1, -1):
        lateral_x, lateral_t = stage_values[s], stage_times[s]
        if y is None:
            fused = lateral_x.copy()
        else:
            fused = lateral_x + interpolate_ref(y_times, y, lateral_t)
        assignments = np.asarray(partitions[depth].assignments)
        merged = np.zeros_like(fused)
        for cluster in sorted(set(assignments.tolist())):
            members = [i for i in range(len(lateral_t)) if assignments[i] == cluster]
            sub_t = lateral_t[members]
            sub_x = fused[members]
            sets = neighbors_from_times(sub_t, threshold * 2.0 ** stage_levels[s])
            for layer in params.decoder[s]:
                sub_x = tdgc_layer_ref(sub_x, sub_t, sets, layer)
            for row, i in enumerate(members):
                merged[i] = sub_x[row]
        y = merged
        y_times = lateral_t
        depth += 1

    return interpolate_ref(y_times, y, np.asarray(g0.timestamps))


def brute_force_assignment(cost) -> float:
    """Exhaustive minimum assignment cost (for small matrices)."""
    cost = np.asarray(cost, dtype=np.float64)
    rows, cols = cost.shape
    if rows <= cols:
        return min(
            sum(cost[i, p[i]] for i in range(rows))
            for p in itertools.permutations(range(cols), rows)
        )
    return brute_force_assignment(cost.T)


def segment_sum_ref(x, seg: np.ndarray, n: int) -> np.ndarray:
    """Row s of the (n, ...) result sums the rows r of ``x`` with
    ``seg[r] == s``, added one row at a time into zeros."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros((n,) + x.shape[1:])
    np.add.at(out, seg, x)
    return out


def backward_ref(root) -> None:
    """``Var.backward`` that leaves a .grad on every node the root reaches:
    grads reset, then a node's first contribution stored C-ordered and
    later ones added, in reverse topological order."""
    order = _topological_order(root)
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        for parent, fn in zip(node._parents, node._grad_fns):
            contribution = fn(node.grad)
            if parent.grad is None:
                parent.grad = np.asarray(contribution, order="C")
            else:
                parent.grad = parent.grad + contribution


def tdgc_aggregate_ref(signed_gate, projected, edges: np.ndarray, timestamps: np.ndarray):
    """Row v sums signed_gate[c] * projected[u] over the directed edges
    (v, u) of an (E, 2) edge array, c being the edge's index among the
    sorted distinct t_v - t_u; one gathered message per edge, scatter-added
    in ``directed_edges`` row order."""
    dst, src = directed_edges(edges)
    _, dt_class = np.unique(timestamps[dst] - timestamps[src], return_inverse=True)
    messages = take_rows(signed_gate, dt_class) * take_rows(projected, src)
    return segment_sum(messages, dst, timestamps.shape[0])


def procedure_f1_iou_ref(pred_labels, gt_labels, num_steps: int) -> tuple[float, float]:
    """``metrics.procedure_f1_iou`` scanning every step id below num_steps."""
    pred, gt = np.asarray(pred_labels), np.asarray(gt_labels)
    pred_ids = np.unique(pred)
    gt_ids = [s for s in range(num_steps) if np.any(gt == s)]
    if not gt_ids:
        return 0.0, 0.0
    overlap = np.zeros((pred_ids.size, len(gt_ids)))
    for a, p in enumerate(pred_ids):
        for b, s in enumerate(gt_ids):
            overlap[a, b] = np.sum((pred == p) & (gt == s))
    mapping, _ = hungarian(-overlap)
    matched = {gt_ids[col]: pred_ids[row] for row, col in mapping.items()}
    f1s, ious = [], []
    for s in gt_ids:
        gt_mask = gt == s
        if s not in matched:
            f1s.append(0.0)
            ious.append(0.0)
            continue
        pred_mask = pred == matched[s]
        inter = float(np.sum(gt_mask & pred_mask))
        precision = inter / max(float(np.sum(pred_mask)), 1.0)
        recall = inter / float(np.sum(gt_mask))
        f1 = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
        union = float(np.sum(gt_mask | pred_mask))
        f1s.append(f1)
        ious.append(inter / union if union else 0.0)
    return float(np.mean(f1s)), float(np.mean(ious))


def tdgc_forward(g, layer) -> np.ndarray:
    """One TDGC layer applied to a graph's embeddings by the production layer
    code (``forward`` builds each stage's neighbor table once for all of the
    stage's layers instead)."""
    d = g.embeddings.shape[1]
    w_n = value(layer.w_n)
    if w_n.shape[0] != d:
        raise ShapeError(f"layer expects dimension {w_n.shape[0]}, graph has {d}")
    return value(_tdgc_apply(g.embeddings, _neighbor_table(g.edges, g.timestamps), layer))


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


def vna_composed(batch, output, params, config):
    """``training._vna_scalar`` composed of Var nodes over the whole
    (nodes x narrations) logits."""
    sets = [narrs for narrs in batch.narrations if len(narrs)]
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

    vh = project_visual(output, params)
    th = project_text(np.concatenate([narrs.embeddings for narrs in sets]), params)
    expz = vexp((vh @ th.T) / config.temperature)

    def batch_mean(axis, video):
        video_sum, videos = _video_sum(*_masked_log_ratio(expz, pos_mask, den_mask, axis),
                                       video)
        return video_sum / videos

    return batch_mean(1, node_video) + batch_mean(0, narr_video)


def ft_composed(trace, params, temperature: float):
    """``training._ft_scalar`` composed of Var nodes over each stage's whole
    (stage nodes)^2 logits; None when no node is eligible."""
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
