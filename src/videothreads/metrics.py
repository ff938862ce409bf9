"""Benchmark metrics: Hungarian-matched F1/IoU, Recall@IoU, mAP@IoU, label
accuracy, MCQ accuracy, and the adjusted Rand index of the planted oracles.

All IoU threshold comparisons are inclusive (>=).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, ShapeError

RECALL_KS = (1, 5)
RECALL_THRESHOLDS = (0.3, 0.5)
MAP_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass
class MetricReport:
    """Named scalar metrics plus counts of what was evaluated."""

    scalars: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "scalars": {k: float(v) for k, v in sorted(self.scalars.items())},
            "counts": {k: int(v) for k, v in sorted(self.counts.items())},
        }


def temporal_iou(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Intersection over union of two closed time intervals."""
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0.0:
        return 0.0
    union = max(a[1], b[1]) - min(a[0], b[0])
    return inter / union


def _contingency(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted distinct values of two equal-shape label arrays and the
    int64 table counting the items labeled (a value, b value), one cell each."""
    a_values, a_ids = np.unique(a, return_inverse=True)
    b_values, b_ids = np.unique(b, return_inverse=True)
    cells = a_ids.ravel() * b_values.size + b_ids.ravel()
    table = np.bincount(cells, minlength=a_values.size * b_values.size)
    return a_values, b_values, table.reshape(a_values.size, b_values.size)


def hungarian(cost) -> tuple[dict[int, int], float]:
    """Minimum-cost assignment on a (possibly rectangular) cost matrix.

    The matrix is zero-padded to square; the returned mapping covers only
    real row -> real column pairs, and the total is their summed cost.
    Shortest-augmenting-path implementation with potentials, O(n^3).
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ShapeError(f"cost must be 2-D, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise NonFiniteError("cost matrix contains non-finite entries")
    rows, cols = cost.shape
    n = max(rows, cols)
    padded = np.zeros((n, n))
    padded[:rows, :cols] = cost

    INF = float("inf")
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match = np.zeros(n + 1, dtype=np.intp)  # match[j] = row assigned to column j
    way = np.zeros(n + 1, dtype=np.intp)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = np.full(n + 1, INF)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = padded[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1

    mapping = {}
    total = 0.0
    for j in range(1, n + 1):
        row = int(match[j]) - 1
        col = j - 1
        if row < rows and col < cols:
            mapping[row] = col
            total += float(cost[row, col])
    return mapping, total


def procedure_f1_iou(pred_labels, gt_labels, num_steps: int) -> tuple[float, float]:
    """Hungarian-matched per-step F1 and IoU, averaged over ground-truth steps.

    Predicted cluster ids and ground-truth step ids are matched by maximal
    frame overlap. A frame whose ground-truth label is not a step id in
    [0, num_steps), such as background, is part of no ground-truth step; it
    still counts against precision when a matched cluster covers it.
    Steps with no ground-truth frames are skipped; unmatched steps score 0.
    """
    pred = np.asarray(pred_labels)
    gt = np.asarray(gt_labels)
    if pred.shape != gt.shape:
        raise ShapeError(f"label sequences differ in length: {pred.shape} vs {gt.shape}")

    _, gt_values, table = _contingency(pred, gt)
    steps = [b for b, s in enumerate(gt_values) if 0 <= s < num_steps and s == int(s)]
    if not steps:
        return 0.0, 0.0

    overlap = table[:, steps]
    mapping, _ = hungarian(-overlap)
    pred_sizes, gt_sizes = table.sum(axis=1), overlap.sum(axis=0)
    f1s, ious = np.zeros(len(steps)), np.zeros(len(steps))  # an unmatched step scores 0
    for a, b in mapping.items():
        inter = float(overlap[a, b])
        precision = inter / float(pred_sizes[a])
        recall = inter / float(gt_sizes[b])
        if precision + recall:
            f1s[b] = 2.0 * precision * recall / (precision + recall)
        ious[b] = inter / (float(pred_sizes[a] + gt_sizes[b]) - inter)
    return float(np.mean(f1s)), float(np.mean(ious))


def label_accuracy(predictions, gt_intervals) -> float:
    """Share of predictions whose label is the label of the labeled
    (start, end, label) interval they overlap with the highest IoU, the
    first such on ties. A prediction that overlaps no labeled interval is
    wrong; no predictions score 0.0."""
    labeled = [(start, end, label) for start, end, label in gt_intervals if label is not None]
    correct = 0
    for p in predictions:
        iou, label = max(((temporal_iou((p.start, p.end), (start, end)), label)
                          for start, end, label in labeled),
                         key=lambda pair: pair[0], default=(0.0, None))
        correct += iou > 0.0 and p.label == label
    return correct / len(predictions) if predictions else 0.0


def recall_at_iou(queries, ks=RECALL_KS, thresholds=RECALL_THRESHOLDS) -> MetricReport:
    """Recall@k at IoU thresholds over (ranked predictions, gt interval) queries.

    A query hits (k, theta) when any of its top-k predictions reaches IoU >=
    theta with the ground-truth interval. Queries with no ground truth are
    excluded from the denominators but reported under counts.
    """
    hits = {(k, th): 0 for k in ks for th in thresholds}
    evaluated = 0
    skipped = 0
    for predictions, gt_interval in queries:
        if gt_interval is None:
            skipped += 1
            continue
        evaluated += 1
        ious = [temporal_iou((p.start, p.end), gt_interval) for p in predictions]
        for k in ks:
            best = max(ious[:k], default=0.0)
            for th in thresholds:
                if best >= th:
                    hits[(k, th)] += 1
    report = MetricReport()
    report.counts["queries"] = evaluated
    report.counts["skipped_queries"] = skipped
    for k in ks:
        for th in thresholds:
            rate = 100.0 * hits[(k, th)] / evaluated if evaluated else 0.0
            report.scalars[f"R@{k}@{th:g}"] = rate
    return report


def _average_precision(scores: np.ndarray, is_tp: np.ndarray, num_gt: int) -> float:
    """Area under the all-point interpolated precision-recall curve, for
    ``num_gt`` >= 1 ground-truth intervals."""
    order = np.argsort(-scores, kind="stable")
    tp = np.cumsum(is_tp[order])
    fp = np.cumsum(~is_tp[order])
    recall = tp / num_gt
    precision = tp / np.maximum(tp + fp, 1)
    # precision envelope: best precision at any recall >= r
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_recall = 0.0
    area = 0.0
    for r, p in zip(recall, envelope):
        area += (r - prev_recall) * p
        prev_recall = r
    return float(area)


def map_at_iou(predictions, gt_intervals, thresholds=MAP_THRESHOLDS) -> MetricReport:
    """Mean average precision over classes, per IoU threshold plus the average.

    ``predictions``: StepPrediction list (labels and scores required).
    ``gt_intervals``: (start, end, label) triples; label None rows are
    ignored. Score-descending predictions greedily claim the unmatched
    ground-truth interval of the same class with the highest IoU >= theta.
    Classes with no ground truth are excluded from the mean.
    """
    gt_by_class: dict[int, list[tuple[float, float]]] = {}
    for start, end, label in gt_intervals:
        if label is None:
            continue
        gt_by_class.setdefault(int(label), []).append((start, end))
    classes = sorted(gt_by_class)

    report = MetricReport()
    report.counts["predictions"] = len(predictions)
    report.counts["gt_instances"] = sum(len(v) for v in gt_by_class.values())
    report.counts["classes"] = len(classes)
    if not classes:
        for th in thresholds:
            report.scalars[f"mAP@{th:g}"] = 0.0
        report.scalars["mAP@avg"] = 0.0
        return report

    per_threshold = []
    for th in thresholds:
        aps = []
        for cls in classes:
            gts = gt_by_class[cls]
            preds = [p for p in predictions if p.label == cls]
            preds.sort(key=lambda p: (-p.score, p.start))
            claimed = [False] * len(gts)
            is_tp = np.zeros(len(preds), dtype=bool)
            for idx, p in enumerate(preds):
                best_iou, best_gt = 0.0, -1
                for gi, interval in enumerate(gts):
                    if claimed[gi]:
                        continue
                    iou = temporal_iou((p.start, p.end), interval)
                    if iou > best_iou:
                        best_iou, best_gt = iou, gi
                if best_gt >= 0 and best_iou >= th:
                    claimed[best_gt] = True
                    is_tp[idx] = True
            scores = np.array([p.score for p in preds])
            aps.append(_average_precision(scores, is_tp, len(gts)))
        mean_ap = float(np.mean(aps))
        report.scalars[f"mAP@{th:g}"] = mean_ap
        per_threshold.append(mean_ap)
    report.scalars["mAP@avg"] = float(np.mean(per_threshold))
    return report


def mcq_accuracy(choices) -> MetricReport:
    """Accuracy per question group from (chosen, correct, group) triples.

    Groups are "inter" or "intra"; an empty group is absent from the report
    rather than scored zero.
    """
    totals: dict[str, int] = {}
    correct: dict[str, int] = {}
    for chosen, answer, group in choices:
        totals[group] = totals.get(group, 0) + 1
        if chosen == answer:
            correct[group] = correct.get(group, 0) + 1
    report = MetricReport()
    for group, total in sorted(totals.items()):
        report.counts[f"{group}_questions"] = total
        report.scalars[f"{group}_accuracy"] = 100.0 * correct.get(group, 0) / total
    return report


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two partitions of the same items."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise ShapeError("label arrays must have equal length")
    n = a.size
    table = _contingency(a, b)[2]

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_rows * sum_cols / total if total else 0.0
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))
