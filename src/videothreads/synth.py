"""Synthetic planted-structure corpora.

Generates feature sequences whose segments are grouped into steps (and steps
into threads) around well-separated centers, together with matching
narrations, a taxonomy, and ground-truth annotations. Because the generator
keeps the planted labels, it serves as the oracle for clustering, task, and
training tests without any real video data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import (
    DEFAULT_SEGMENT_DURATION,
    FeatureSequence,
    NarrationSet,
    StepAnnotation,
    Taxonomy,
)
from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one planted video.

    ``separation`` is the distance between step centers in units of the noise
    scale sigma (taken as an absolute distance when sigma is zero, so the
    noiseless limit stays well defined). ``interleave`` shuffles the order of
    the per-step segment blocks so threads alternate in time.
    """

    num_threads: int = 3
    steps_per_thread: int = 1
    segments_per_step: int = 20
    segment_duration: float = DEFAULT_SEGMENT_DURATION
    dim: int = 64
    separation: float = 10.0
    sigma: float = 1.0
    interleave: bool = True
    seed: int = 0

    def __post_init__(self):
        for name in ("num_threads", "steps_per_thread", "segments_per_step", "dim"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be >= 1")
        for name in ("segment_duration", "separation", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ShapeError(f"{name} must be finite")
        if self.segment_duration <= 0.0:
            raise ShapeError("segment_duration must be positive")
        if self.separation <= 0.0:
            raise ShapeError("separation must be positive")
        if self.sigma < 0.0:
            raise ShapeError("sigma must be non-negative")
        if self.seed < 0:  # as RunConfig's: numpy's generators take only non-negative seeds
            raise ConfigError(f"seed: must be non-negative, got {self.seed}")

    @property
    def num_steps(self) -> int:
        return self.num_threads * self.steps_per_thread

    @property
    def num_segments(self) -> int:
        return self.num_steps * self.segments_per_step


@dataclass(frozen=True)
class PlantedLabels:
    """Ground truth per segment, at both granularities."""

    step_labels: np.ndarray
    thread_labels: np.ndarray


@dataclass(frozen=True)
class SynthDataset:
    sequence: FeatureSequence
    narrations: NarrationSet
    taxonomy: Taxonomy
    annotation: StepAnnotation
    planted: PlantedLabels


def _orthonormal_directions(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """``count`` orthonormal rows via Gram-Schmidt on Gaussian draws."""
    if count > dim:
        raise ShapeError(f"cannot draw {count} orthogonal directions in dimension {dim}")
    basis = np.zeros((count, dim))
    made = 0
    while made < count:
        candidate = rng.standard_normal(dim)
        for row in basis[:made]:
            candidate -= (candidate @ row) * row
        norm = np.linalg.norm(candidate)
        if norm < 1e-8:
            continue
        basis[made] = candidate / norm
        made += 1
    return basis


def generate(spec: SynthSpec) -> SynthDataset:
    """Build one planted video with matching weak supervision.

    Steps of the same thread share a dominant thread direction plus a smaller
    step-specific offset, so clustering at K = num_threads recovers threads
    and K = num_steps recovers steps. Narrations sit at segment midpoints
    with embeddings near the step center; taxonomy rows are the step centers
    themselves. Features are rounded to float32 so the binary file format
    round-trips them bit-exactly.
    """
    rng = np.random.default_rng(spec.seed)
    scale = spec.separation * (spec.sigma if spec.sigma > 0.0 else 1.0)
    thread_scale = scale / np.sqrt(2.0)  # orthogonal pair distance == scale
    step_scale = thread_scale / 2.0

    thread_dirs = _orthonormal_directions(rng, spec.num_threads, spec.dim)
    if spec.steps_per_thread > 1:
        step_dirs = _orthonormal_directions(rng, spec.num_steps, spec.dim)

    centers = np.zeros((spec.num_steps, spec.dim))
    for step in range(spec.num_steps):
        thread = step // spec.steps_per_thread
        centers[step] = thread_scale * thread_dirs[thread]
        if spec.steps_per_thread > 1:
            centers[step] += step_scale * step_dirs[step]

    block_order = np.arange(spec.num_steps)
    if spec.interleave:
        block_order = rng.permutation(spec.num_steps)

    step_labels = np.repeat(block_order, spec.segments_per_step)
    thread_labels = step_labels // spec.steps_per_thread
    n = spec.num_segments
    timestamps = np.arange(n) * spec.segment_duration

    features = centers[step_labels] + spec.sigma * rng.standard_normal((n, spec.dim))
    features = features.astype(np.float32).astype(np.float64)

    narr_noise = 0.5 * spec.sigma * rng.standard_normal((n, spec.dim))
    narrations = NarrationSet(
        texts=tuple(f"step {step}" for step in step_labels.tolist()),
        timestamps=timestamps + 0.5 * spec.segment_duration,
        embeddings=(centers[step_labels] + narr_noise).astype(np.float32).astype(np.float64),
    )

    taxonomy = Taxonomy(
        labels=tuple(f"step {s}" for s in range(spec.num_steps)),
        embeddings=centers.astype(np.float32).astype(np.float64),
    )

    intervals = []
    for block, step in enumerate(block_order):
        start = block * spec.segments_per_step * spec.segment_duration
        end = start + spec.segments_per_step * spec.segment_duration
        intervals.append((float(start), float(end), int(step)))

    return SynthDataset(
        sequence=FeatureSequence(
            video_id=f"synth-{spec.seed}",
            timestamps=timestamps,
            features=features,
            segment_duration=spec.segment_duration,
        ),
        narrations=narrations,
        taxonomy=taxonomy,
        annotation=StepAnnotation(tuple(intervals)),
        planted=PlantedLabels(step_labels.copy(), thread_labels.copy()),
    )


def segment_labels_from_annotation(annotation: StepAnnotation,
                                   timestamps: np.ndarray,
                                   segment_duration: float,
                                   background: int = -1) -> np.ndarray:
    """Rasterize intervals to one label per segment (midpoint membership)."""
    timestamps = np.asarray(timestamps, dtype=np.float64)
    midpoints = timestamps + 0.5 * segment_duration
    labels = np.full(timestamps.shape[0], background, dtype=np.int64)
    for start, end, label in annotation.intervals:
        inside = (midpoints >= start) & (midpoints < end)
        labels[inside] = background if label is None else label
    return labels
