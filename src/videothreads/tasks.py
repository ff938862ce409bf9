"""Zero-shot procedural tasks as clustering + cosine matching.

Every task reduces to the same recipe: run the forward pass, cluster either
a decoder stage (procedure learning) or the final output (candidate steps),
then rank or label candidates by cosine similarity against query or taxonomy
embeddings. No task-specific training is involved.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .autodiff import value
from .dataio import _TEXT_ROW, MCQ_CHOICES, FeatureSequence, StepPrediction, Taxonomy, _finite_rows
from .errors import SchemaError, TaskError
from .graph import build_graph, nearest_indices
from .model import ForwardTrace, ModelParams, forward, project_text, project_visual
from .partition import PartitionResult, spectral_partition


@dataclass(frozen=True)
class CandidateStep:
    """A run of consecutive same-cluster segments with its aligned embedding."""

    start: float
    end: float
    embedding: np.ndarray


def procedure_learning(trace: ForwardTrace, k: int, depth: int = 1,
                       seed: int = 0, kappa: float = 1.0) -> np.ndarray:
    """Per-segment step assignments from clustering one decoder stage.

    ``depth`` indexes trace.stages (0 = deepest stage), whose decoder output
    is clustered. The stage's cluster labels are upsampled to input
    resolution by nearest timestamp.
    """
    if not 0 <= depth < len(trace.stages):
        raise TaskError(f"depth {depth} out of range for {len(trace.stages)} decoder stages")
    stage = trace.stages[depth]
    part = spectral_partition(value(stage.output), k, kappa=kappa, seed=seed)
    pick = nearest_indices(stage.graph.timestamps, trace.output_timestamps)
    return part.assignments[pick]


def _head_partition(rows, k: int, kappa: float, seed: int) -> PartitionResult:
    """``spectral_partition`` of the candidate head's rows (an ndarray, or a
    Var's value).

    Every ``ground`` and ``localize`` call on one features file clusters the
    same forward output, so a process that makes several of them repeats one
    solve. The last partition made here is kept, keyed by the exact rows
    (their float64 bytes and shape) and k, kappa and seed, and shared with
    read-only assignments. A call that raises is not kept, so the same input
    raises again. A process that makes one call pays the key's copy for
    nothing.
    """
    rows = np.ascontiguousarray(value(rows), dtype=np.float64)
    return _cached_partition(rows.shape, rows.tobytes(), k, kappa, seed)


@functools.lru_cache(maxsize=1)
def _cached_partition(shape: tuple[int, ...], data: bytes, k: int, kappa: float,
                      seed: int) -> PartitionResult:
    part = spectral_partition(np.frombuffer(data, dtype=np.float64).reshape(shape), k,
                              kappa=kappa, seed=seed)
    part.assignments.setflags(write=False)
    return part


def candidate_runs(labels, min_len: int) -> list[tuple[int, int]]:
    """Maximal runs of equal consecutive labels, as half-open index ranges,
    keeping only runs of at least ``min_len`` segments."""
    if min_len < 1:
        raise TaskError(f"min_len={min_len} must be >= 1")
    labels = np.asarray(labels)
    n = labels.shape[0]
    runs: list[tuple[int, int]] = []
    start = 0
    for i in range(1, n + 1):
        if i < n and labels[i] == labels[start]:
            continue
        if i - start >= min_len:
            runs.append((start, i))
        start = i
    return runs


def extract_candidates(trace: ForwardTrace, params: ModelParams, k: int,
                       min_len: int = 2, kappa: float = 1.0, seed: int = 0,
                       segment_duration: float | None = None) -> list[CandidateStep]:
    """Candidate steps from clustering the final decoder output.

    Runs of consecutive same-cluster segments become candidates; runs shorter
    than ``min_len`` segments are discarded as background. Each candidate's
    embedding is the mean of its members' h_v projections. Returns an empty
    list when nothing survives.
    """
    n = trace.output.shape[0]
    labels = _head_partition(trace.output, k, kappa, seed).assignments
    projected = value(project_visual(trace.output, params))
    times = trace.output_timestamps
    duration = segment_duration if segment_duration is not None else (
        float(times[1] - times[0]) if n > 1 else 1.0
    )
    return [
        CandidateStep(
            start=float(times[lo]),
            end=float(times[hi - 1] + duration),
            embedding=projected[lo:hi].mean(axis=0),
        )
        for lo, hi in candidate_runs(labels, min_len)
    ]


def _squared_norms(rows: np.ndarray, where: str) -> np.ndarray:
    """Each row's (a vector's) squared norm, after the check the CLI readers
    make on text embeddings (``dataio._finite_rows``): a row whose squared
    norm is not finite is a TaskError naming ``where.format(row)``, so that
    no scorer below divides by an infinite norm and scores the row 0."""
    try:
        return _finite_rows(rows, where, _TEXT_ROW)
    except SchemaError as exc:
        raise TaskError(str(exc)) from None


def _query(query_embedding) -> np.ndarray:
    """A text-space query as float64; a TaskError if its squared norm is
    not finite or is zero."""
    query = np.asarray(query_embedding, dtype=np.float64)
    if _squared_norms(query, "query embedding") == 0.0:
        raise TaskError("query embedding has zero norm")
    return query


def _cosines(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Cosine of each row of ``matrix`` with ``vector``; a row or a vector of norm 0 scores 0."""
    norms = np.linalg.norm(matrix, axis=1)
    norm = float(np.linalg.norm(vector))
    return (matrix @ vector) / (np.where(norms > 0.0, norms, 1.0) * (norm if norm > 0.0 else 1.0))


def step_grounding(candidates: list[CandidateStep], query_embedding,
                   params: ModelParams | None = None) -> list[StepPrediction]:
    """Candidates ranked by descending cosine similarity to the query.

    A text-space query is mapped into the alignment space through h_t when
    ``params`` is given; pass None for a query already in that space. Score
    ties are broken by start time, so the ranking is stable under any
    positive rescaling of the query. No candidate gives an empty ranking; a
    zero-norm query, or a query or candidate embedding whose squared norm
    overflows, is a TaskError either way.
    """
    query = _query(query_embedding)
    if not candidates:
        return []
    if params is not None:
        query = value(project_text(query[None, :], params))[0]
    embeddings = np.stack([c.embedding for c in candidates])
    _squared_norms(embeddings, "candidates[{}].embedding")
    scores = _cosines(embeddings, query)
    order = sorted(range(len(candidates)), key=lambda i: (-scores[i], candidates[i].start))
    return [
        StepPrediction(candidates[i].start, candidates[i].end, None, float(scores[i]))
        for i in order
    ]


def step_localization(candidates: list[CandidateStep], taxonomy: Taxonomy,
                      params: ModelParams | None = None) -> list[StepPrediction]:
    """Label each candidate with its argmax-cosine taxonomy row.

    Taxonomy rows pass through h_t into the alignment space when ``params``
    is given. Exact ties pick the lower index; output stays time-sorted and
    non-overlapping because candidates are disjoint runs. A taxonomy row or
    candidate embedding whose squared norm overflows is a TaskError.
    """
    rows = taxonomy.embeddings
    _squared_norms(rows, "taxonomy.embeddings[{}]")
    if candidates:
        _squared_norms(np.stack([c.embedding for c in candidates]), "candidates[{}].embedding")
    if params is not None:
        rows = value(project_text(rows, params))
    predictions = []
    for c in sorted(candidates, key=lambda c: c.start):
        sims = _cosines(rows, c.embedding)
        label = int(np.argmax(sims))
        predictions.append(StepPrediction(c.start, c.end, label, float(sims[label])))
    return predictions


def clip_embedding(seq: FeatureSequence, params: ModelParams,
                   edge_threshold: float = 1.0, seed: int = 0) -> np.ndarray:
    """L2-normalized mean of h_v outputs for one clip, clustering disabled."""
    g0 = build_graph(seq, edge_threshold)
    trace = forward(g0, params, k=1, seed=seed)
    projected = value(project_visual(trace.output, params))
    mean = projected.mean(axis=0)
    norm = np.linalg.norm(mean)
    return mean / norm if norm > 0.0 else mean


def extend_clip(seq: FeatureSequence, span: tuple[float, float] | None,
                context: float) -> FeatureSequence:
    """Restrict a sequence to [span - context, span + context].

    With no span the whole sequence is the clip and extension is a no-op
    (there is nothing beyond it to include).
    """
    if span is None:
        return seq
    lo, hi = span[0] - context, span[1] + context
    keep = (seq.timestamps >= lo) & (seq.timestamps <= hi)
    if not keep.any():
        raise TaskError(f"no segments fall inside clip span {span} +- {context}")
    return FeatureSequence(
        video_id=seq.video_id,
        timestamps=seq.timestamps[keep],
        features=seq.features[keep],
        segment_duration=seq.segment_duration,
    )


def mcq_retrieval(query_embedding, candidates: list[FeatureSequence],
                  params: ModelParams, context: float = 4.0,
                  clip_spans: list[tuple[float, float]] | None = None,
                  edge_threshold: float = 1.0, seed: int = 0) -> int:
    """Pick which of the ``MCQ_CHOICES`` candidate clips matches the query embedding.

    Each clip is widened by ``context`` seconds on both sides (when its span
    inside a longer sequence is known), embedded with clustering disabled,
    and scored by cosine against the h_t-projected query; ties pick the
    lower index. A zero-norm query, or one whose squared norm overflows, is
    a TaskError.
    """
    if len(candidates) != MCQ_CHOICES:
        raise TaskError(f"expected exactly {MCQ_CHOICES} candidate clips, got {len(candidates)}")
    query = _query(query_embedding)
    query = value(project_text(query[None, :], params))[0]
    scores = []
    for i, seq in enumerate(candidates):
        span = clip_spans[i] if clip_spans is not None else None
        clip = extend_clip(seq, span, context)
        scores.append(float(clip_embedding(clip, params, edge_threshold, seed) @ query))
    return int(np.argmax(scores))
