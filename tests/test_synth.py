import json

import numpy as np
import pytest

from videothreads.cli import EXIT_ERROR, main
from videothreads.errors import ShapeError
from videothreads.metrics import adjusted_rand_index
from videothreads.kernels import kmeans
from videothreads.partition import spectral_partition
from videothreads.synth import (
    SynthSpec,
    generate,
    segment_labels_from_annotation,
)


class TestGenerate:
    def test_deterministic(self):
        a = generate(SynthSpec(seed=5))
        b = generate(SynthSpec(seed=5))
        assert np.array_equal(a.sequence.features, b.sequence.features)
        assert np.array_equal(a.planted.step_labels, b.planted.step_labels)
        assert a.annotation.intervals == b.annotation.intervals
        assert np.array_equal(a.narrations.embeddings, b.narrations.embeddings)

    def test_shapes_and_consistency(self):
        spec = SynthSpec(num_threads=3, steps_per_thread=2, segments_per_step=5,
                         dim=32, seed=1)
        ds = generate(spec)
        assert ds.sequence.num_segments == 30
        assert ds.sequence.dim == 32
        assert len(ds.narrations) == 30
        assert len(ds.taxonomy.labels) == 6
        assert len(ds.annotation.intervals) == 6
        assert set(ds.planted.step_labels) == set(range(6))
        assert np.array_equal(ds.planted.thread_labels, ds.planted.step_labels // 2)

    def test_noiseless_limit_perfect_recovery(self):
        ds = generate(SynthSpec(num_threads=3, segments_per_step=10, dim=16,
                                separation=5.0, sigma=0.0, seed=2))
        x = ds.sequence.features
        labels = ds.planted.step_labels
        found = [spectral_partition(x, 3, seed=0).assignments,
                 kmeans(x, 3, seed=0).assignments]
        for assignments in found:
            assert adjusted_rand_index(assignments, labels) == 1.0
        # every in-step feature identical
        for s in range(3):
            rows = x[labels == s]
            assert np.all(rows == rows[0])

    def test_ten_sigma_spectral_recovery(self):
        ds = generate(SynthSpec(num_threads=3, segments_per_step=20, dim=32,
                                separation=10.0, seed=3))
        part = spectral_partition(ds.sequence.features, 3, seed=0)
        assert adjusted_rand_index(part.assignments, ds.planted.step_labels) >= 0.95

    def test_labels_round_trip_through_annotation(self):
        ds = generate(SynthSpec(num_threads=4, steps_per_thread=1, segments_per_step=7,
                                seed=4))
        rebuilt = segment_labels_from_annotation(
            ds.annotation, ds.sequence.timestamps, ds.sequence.segment_duration)
        assert np.array_equal(rebuilt, ds.planted.step_labels)

    def test_separation_monotone_trend(self):
        # mean ARI over a seeded ensemble must not decrease with separation
        def mean_ari(separation):
            scores = []
            for seed in range(8):
                ds = generate(SynthSpec(num_threads=3, segments_per_step=8, dim=16,
                                        separation=separation, seed=seed))
                part = spectral_partition(ds.sequence.features, 3, seed=seed)
                scores.append(adjusted_rand_index(part.assignments, ds.planted.step_labels))
            return float(np.mean(scores))

        scores = [mean_ari(s) for s in (1.0, 4.0, 10.0)]
        assert scores[0] <= scores[1] + 1e-9
        assert scores[1] <= scores[2] + 1e-9

    def test_orthogonality_needs_enough_dims(self):
        with pytest.raises(ShapeError):
            generate(SynthSpec(num_threads=5, steps_per_thread=1, dim=3, seed=0))

    @pytest.mark.parametrize("flag, value", [
        ("--separation", "nan"), ("--sigma", "nan"), ("--sigma", "inf"),
        ("--segment-duration", "0"), ("--segment-duration", "-1"),
        ("--segment-duration", "nan"),
    ])
    def test_bad_float_rejected_before_writing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "c"
        assert main(["synth", "--out", str(out), flag, value]) == EXIT_ERROR
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ShapeError"
        assert flag[2:].replace("-", "_") in error["message"]
        assert not out.exists()

    def test_narrations_near_step_centers(self):
        ds = generate(SynthSpec(num_threads=2, segments_per_step=6, dim=16,
                                separation=10.0, sigma=1.0, seed=6))
        embeddings = ds.narrations.embeddings
        centers = ds.taxonomy.embeddings
        for i, step in enumerate(ds.planted.step_labels):
            own = np.linalg.norm(embeddings[i] - centers[step])
            other = min(np.linalg.norm(embeddings[i] - centers[s])
                        for s in range(len(centers)) if s != step)
            assert own < other

    def test_interleave_changes_block_order(self):
        plain = generate(SynthSpec(num_threads=4, segments_per_step=3, interleave=False, seed=7))
        mixed = generate(SynthSpec(num_threads=4, segments_per_step=3, interleave=True, seed=7))
        assert np.array_equal(np.sort(plain.planted.step_labels), np.sort(mixed.planted.step_labels))
        assert not np.array_equal(plain.planted.step_labels, mixed.planted.step_labels)

    def test_features_survive_float32_round_trip(self, tmp_path):
        from videothreads.dataio import read_feature_file, write_feature_file

        ds = generate(SynthSpec(seed=8))
        path = tmp_path / "x.hft"
        write_feature_file(path, ds.sequence)
        assert np.array_equal(read_feature_file(path).features, ds.sequence.features)
