import numpy as np
import pytest

from videothreads import kernels, tasks
from videothreads.dataio import FeatureSequence, Taxonomy
from videothreads.errors import ConvergenceError, TaskError, ZeroNormRowError
from videothreads.graph import build_graph
from videothreads.metrics import procedure_f1_iou, temporal_iou
from videothreads.model import ModelDims, forward, identity_params, init_params
from videothreads.synth import SynthSpec, generate
from videothreads.tasks import (
    CandidateStep,
    candidate_runs,
    extract_candidates,
    mcq_retrieval,
    procedure_learning,
    step_grounding,
    step_localization,
)


def planted_trace(spec, k, seed=0):
    ds = generate(spec)
    g0 = build_graph(ds.sequence, 1.0)
    dims = ModelDims(d_in=spec.dim, d_h=spec.dim, d_a=spec.dim, d_t=spec.dim)
    params = identity_params(dims)
    trace = forward(g0, params, k=k, seed=seed)
    return ds, params, trace


class TestProcedureLearning:
    def test_k_one_constant_labels(self):
        spec = SynthSpec(num_threads=2, segments_per_step=8, dim=8, seed=0)
        _, _, trace = planted_trace(spec, k=2)
        labels = procedure_learning(trace, k=1, depth=1, seed=0)
        assert np.all(labels == 0)
        assert labels.shape[0] == trace.output.shape[0]

    def test_at_most_k_distinct_labels(self):
        spec = SynthSpec(num_threads=3, segments_per_step=10, dim=16, seed=1)
        _, _, trace = planted_trace(spec, k=3)
        labels = procedure_learning(trace, k=4, depth=2, seed=0)
        assert len(np.unique(labels)) <= 4

    def test_planted_seven_steps(self):
        spec = SynthSpec(num_threads=7, segments_per_step=28, dim=64,
                         separation=10.0, seed=2)
        ds, _, trace = planted_trace(spec, k=7, seed=2)
        labels = procedure_learning(trace, k=7, depth=1, seed=2)
        f1, _ = procedure_f1_iou(labels, ds.planted.step_labels, 7)
        assert f1 >= 0.9

    def test_bad_depth(self):
        spec = SynthSpec(num_threads=2, segments_per_step=6, dim=8, seed=3)
        _, _, trace = planted_trace(spec, k=2)
        with pytest.raises(TaskError):
            procedure_learning(trace, k=2, depth=99)


class TestCandidateRuns:
    def test_run_length_rule(self):
        assert candidate_runs([0, 0, 1, 1, 1, 0], min_len=2) == [(0, 2), (2, 5)]

    def test_min_len_one_keeps_every_run(self):
        assert candidate_runs([0, 0, 1, 1, 1, 0], min_len=1) == [(0, 2), (2, 5), (5, 6)]

    def test_all_same(self):
        assert candidate_runs([3, 3, 3], min_len=2) == [(0, 3)]

    def test_invalid_min_len(self):
        with pytest.raises(TaskError):
            candidate_runs([0], min_len=0)


class TestExtractCandidates:
    def test_planted_three_steps_intervals(self):
        spec = SynthSpec(num_threads=3, segments_per_step=15, dim=32,
                         separation=10.0, seed=4)
        ds, params, trace = planted_trace(spec, k=3, seed=4)
        candidates = extract_candidates(trace, params, k=3, min_len=2, seed=4,
                                        segment_duration=ds.sequence.segment_duration)
        assert len(candidates) == 3
        for cand in candidates:
            best = max(temporal_iou((cand.start, cand.end), (a, b))
                       for a, b, _ in ds.annotation.intervals)
            assert best >= 0.8

    def test_embedding_dimension_is_alignment_space(self):
        spec = SynthSpec(num_threads=2, segments_per_step=6, dim=8, seed=5)
        ds, params, trace = planted_trace(spec, k=2, seed=5)
        candidates = extract_candidates(trace, params, k=2, min_len=1, seed=5,
                                        segment_duration=ds.sequence.segment_duration)
        assert all(c.embedding.shape == (8,) for c in candidates)


def toy_candidates():
    return [
        CandidateStep(0.0, 2.0, np.array([0.9, 0.0])),
        CandidateStep(2.0, 4.0, np.array([0.2, 0.1])),
        CandidateStep(4.0, 6.0, np.array([0.5, 0.3])),
    ]


class TestStepGrounding:
    def test_exact_match_ranked_first(self):
        cands = toy_candidates()
        ranked = step_grounding(cands, cands[0].embedding)
        assert ranked[0].start == 0.0
        assert ranked[0].score == pytest.approx(1.0)

    def test_orthogonal_query_stable_order(self):
        cands = [
            CandidateStep(4.0, 6.0, np.array([1.0, 0.0])),
            CandidateStep(0.0, 2.0, np.array([2.0, 0.0])),
        ]
        ranked = step_grounding(cands, np.array([0.0, 1.0]))
        assert [p.score for p in ranked] == [pytest.approx(0.0), pytest.approx(0.0)]
        assert [p.start for p in ranked] == [0.0, 4.0]  # ties sort by start

    def test_sort_by_descending_cosine(self):
        cands = toy_candidates()
        ranked = step_grounding(cands, np.array([1.0, 0.0]))
        scores = [p.score for p in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_rescaled_query_same_ranking(self):
        cands = toy_candidates()
        a = [p.start for p in step_grounding(cands, np.array([0.3, 0.8]))]
        b = [p.start for p in step_grounding(cands, np.array([0.3, 0.8]) * 250.0)]
        assert a == b

    def test_zero_query_rejected(self):
        with pytest.raises(TaskError):
            step_grounding(toy_candidates(), np.zeros(2))

    def test_no_candidates_rejected(self):
        # no candidate is an empty ranking; a zero-norm query is still an error
        assert step_grounding([], np.ones(2)) == []
        with pytest.raises(TaskError):
            step_grounding([], np.zeros(2))

    @pytest.mark.parametrize("projected", [False, True])
    def test_overflowing_query_rejected(self, projected):
        # its squared norm overflows: scored, every candidate would get cosine 0
        cands = [CandidateStep(0.0, 1.0, np.array([0.0, 1.0])),
                 CandidateStep(1.0, 2.0, np.array([1.0, 0.0]))]
        params = identity_params(ModelDims(d_in=2, d_h=2, d_a=2, d_t=2)) if projected else None
        with pytest.raises(TaskError, match="^query embedding: must be finite"):
            step_grounding(cands, np.array([1e200, 1.0]), params)

    def test_overflowing_candidate_rejected(self):
        cands = [CandidateStep(0.0, 1.0, np.array([0.0, 1.0])),
                 CandidateStep(1.0, 2.0, np.array([1e200, 0.0]))]
        with pytest.raises(TaskError, match=r"^candidates\[1\]\.embedding: must be finite"):
            step_grounding(cands, np.array([1.0, 0.0]))


class TestStepLocalization:
    def test_exact_taxonomy_row(self):
        taxonomy = Taxonomy(("a", "b", "c", "d"), np.eye(4))
        cands = [CandidateStep(0.0, 1.0, np.eye(4)[3])]
        preds = step_localization(cands, taxonomy)
        assert preds[0].label == 3
        assert preds[0].score == pytest.approx(1.0)

    def test_tie_picks_lower_index(self):
        taxonomy = Taxonomy(("a", "b"), np.array([[1.0, 0.0], [1.0, 0.0]]))
        cands = [CandidateStep(0.0, 1.0, np.array([2.0, 0.0]))]
        assert step_localization(cands, taxonomy)[0].label == 0

    def test_outputs_non_overlapping_and_sorted(self):
        taxonomy = Taxonomy(("a", "b"), np.eye(2))
        cands = [
            CandidateStep(4.0, 6.0, np.array([1.0, 0.0])),
            CandidateStep(0.0, 2.0, np.array([0.0, 1.0])),
        ]
        preds = step_localization(cands, taxonomy)
        assert [p.start for p in preds] == [0.0, 4.0]
        for a, b in zip(preds, preds[1:]):
            assert a.end <= b.start

    @pytest.mark.parametrize("projected", [False, True])
    def test_overflowing_taxonomy_row_rejected(self, projected):
        # ``Taxonomy`` refuses such a row and any write into its rows, but a
        # library caller can still hand the head an array it never checked
        taxonomy = Taxonomy(("a", "b"), np.eye(2))
        object.__setattr__(taxonomy, "embeddings", np.array([[1.0, 0.0], [1e200, 1.0]]))
        cands = [CandidateStep(0.0, 1.0, np.array([1.0, 0.0]))]
        params = identity_params(ModelDims(d_in=2, d_h=2, d_a=2, d_t=2)) if projected else None
        with pytest.raises(TaskError, match=r"^taxonomy\.embeddings\[1\]: must be finite"):
            step_localization(cands, taxonomy, params)

    def test_overflowing_candidate_rejected(self):
        cands = [CandidateStep(0.0, 1.0, np.array([1e200, 1.0]))]
        with pytest.raises(TaskError, match=r"^candidates\[0\]\.embedding: must be finite"):
            step_localization(cands, Taxonomy(("a", "b"), np.eye(2)))

    def test_planted_label_accuracy(self):
        spec = SynthSpec(num_threads=4, segments_per_step=12, dim=32,
                         separation=10.0, seed=6)
        ds, params, trace = planted_trace(spec, k=4, seed=6)
        candidates = extract_candidates(trace, params, k=4, min_len=2, seed=6,
                                        segment_duration=ds.sequence.segment_duration)
        preds = step_localization(candidates, ds.taxonomy, params)
        correct = 0
        for p in preds:
            best = max(ds.annotation.intervals,
                       key=lambda iv: temporal_iou((p.start, p.end), (iv[0], iv[1])))
            correct += int(p.label == best[2])
        assert correct / len(preds) >= 0.9


class TestMcqRetrieval:
    def clips_and_taxonomy(self, seed):
        spec = SynthSpec(num_threads=5, steps_per_thread=1, segments_per_step=10,
                         dim=32, separation=6.0, sigma=1.0, interleave=False, seed=seed)
        ds = generate(spec)
        clips = []
        for s in range(5):
            mask = ds.planted.step_labels == s
            clips.append(FeatureSequence(
                f"clip{s}", ds.sequence.timestamps[mask], ds.sequence.features[mask],
                ds.sequence.segment_duration))
        return clips, ds.taxonomy

    def test_identical_candidate_wins(self):
        clips, taxonomy = self.clips_and_taxonomy(seed=0)
        params = identity_params(ModelDims(d_in=32, d_h=32, d_a=32, d_t=32))
        for s in range(5):
            assert mcq_retrieval(taxonomy.embeddings[s], clips, params) == s

    def test_seeded_trials_all_correct(self):
        # planted separation >= 5 sigma: 100 seeded questions, perfect accuracy
        params = identity_params(ModelDims(d_in=32, d_h=32, d_a=32, d_t=32))
        rng = np.random.default_rng(0)
        hits = 0
        for trial in range(20):
            clips, taxonomy = self.clips_and_taxonomy(seed=trial)
            for s in range(5):
                query = taxonomy.embeddings[s] + 0.1 * rng.standard_normal(32)
                hits += int(mcq_retrieval(query, clips, params) == s)
        assert hits == 100

    def test_requires_five_candidates(self):
        clips, taxonomy = self.clips_and_taxonomy(seed=1)
        params = identity_params(ModelDims(d_in=32, d_h=32, d_a=32, d_t=32))
        with pytest.raises(TaskError):
            mcq_retrieval(taxonomy.embeddings[0], clips[:4], params)

    @pytest.mark.parametrize("head, message", [(1e200, "query embedding: must be finite"),
                                               (0.0, "query embedding has zero norm")])
    def test_overflowing_or_zero_query_rejected(self, head, message):
        clips, _ = self.clips_and_taxonomy(seed=1)
        params = identity_params(ModelDims(d_in=32, d_h=32, d_a=32, d_t=32))
        query = np.zeros(32)
        query[0] = head
        with pytest.raises(TaskError, match=f"^{message}"):
            mcq_retrieval(query, clips, params)

    def test_clip_span_extension(self):
        clips, taxonomy = self.clips_and_taxonomy(seed=2)
        params = identity_params(ModelDims(d_in=32, d_h=32, d_a=32, d_t=32))
        spans = [(float(c.timestamps[0]), float(c.timestamps[-1])) for c in clips]
        chosen = mcq_retrieval(taxonomy.embeddings[2], clips, params,
                               context=4.0, clip_spans=spans)
        assert chosen == 2


class TestGradientModeTrace:
    """A forward pass with Var parameters gives Var stage outputs; the heads
    partition their values, as on the ndarray trace."""

    def test_heads_match_the_ndarray_trace(self):
        ds = generate(SynthSpec(num_threads=2, segments_per_step=12, dim=8, seed=5))
        g0 = build_graph(ds.sequence, 1.0)
        params = init_params(ModelDims(d_in=8, d_h=8, d_a=8, d_t=8), seed=1)
        var_params, _ = params.to_vars()
        plain = forward(g0, params, k=2, seed=0)
        graded = forward(g0, var_params, k=2, seed=0)

        for depth in range(len(plain.stages)):
            assert np.array_equal(procedure_learning(graded, k=2, depth=depth),
                                  procedure_learning(plain, k=2, depth=depth))
        tasks._cached_partition.cache_clear()  # each side solves its own partition
        want = extract_candidates(plain, params, k=2, min_len=1)
        tasks._cached_partition.cache_clear()
        got = extract_candidates(graded, var_params, k=2, min_len=1)
        assert len(got) == len(want) > 1
        for a, b in zip(got, want):
            assert (a.start, a.end) == (b.start, b.end)
            assert np.array_equal(a.embedding, b.embedding)


def rows(seed=0, shape=(12, 4)):
    return np.random.default_rng(seed).standard_normal(shape)


class TestHeadPartition:
    """The candidate head keeps the last partition it made, keyed by the
    exact rows and k, kappa and seed; procedure learning keeps none."""

    @pytest.fixture(autouse=True)
    def solves(self, monkeypatch):
        """Clears the memo and counts the partitions that reach the solver."""
        tasks._cached_partition.cache_clear()
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        solve = tasks.spectral_partition
        monkeypatch.setattr(tasks, "spectral_partition", counted)
        yield calls
        tasks._cached_partition.cache_clear()

    def test_same_input_solved_once(self, solves):
        x = rows()
        first = tasks._head_partition(x, 3, 1.0, 0)
        assert tasks._head_partition(x.copy(), 3, 1.0, 0) is first
        assert len(solves) == 1
        assert tasks._cached_partition.cache_info()[:2] == (1, 1)  # hits, misses

    @pytest.mark.parametrize("change", ["last_bit", "k", "kappa", "seed", "shape"])
    def test_any_change_misses(self, solves, change):
        x = rows()
        args = [x, 3, 1.0, 0]
        first = tasks._head_partition(*args)
        if change == "last_bit":
            x = x.copy()
            x[5, 2] = np.nextafter(x[5, 2], np.inf)
            args[0] = x
        elif change == "shape":
            args[0] = x.reshape(8, 6)  # the same bytes
            assert args[0].tobytes() == x.tobytes()
        else:
            i = {"k": 1, "kappa": 2, "seed": 3}[change]
            args[i] = {"k": 4, "kappa": 0.5, "seed": 1}[change]
        again = tasks._head_partition(*args)
        assert len(solves) == 2 and again is not first
        assert tasks._cached_partition.cache_info()[:2] == (0, 2)

    def test_zero_norm_row_raises_every_time(self, solves):
        x = rows()
        x[4] = 0.0
        for _ in range(2):
            with pytest.raises(ZeroNormRowError):
                tasks._head_partition(x, 3, 1.0, 0)
        assert len(solves) == 2
        assert tasks._cached_partition.cache_info().currsize == 0

    def test_solver_failure_raises_every_time(self, solves, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        x = rows()
        with monkeypatch.context() as patch:
            patch.setattr(kernels.np.linalg, "eigh", failing_eigh)
            for _ in range(2):
                with pytest.raises(ConvergenceError):
                    tasks._head_partition(x, 3, 1.0, 0)
        assert len(solves) == 2
        # nothing was kept: with the solver back, the same input is solved
        tasks._head_partition(x, 3, 1.0, 0)
        assert len(solves) == 3

    def test_shared_assignments_are_read_only(self, solves):
        spec = SynthSpec(num_threads=2, segments_per_step=8, dim=8, seed=0)
        _, params, trace = planted_trace(spec, k=2)
        part = tasks._head_partition(trace.output, 2, 1.0, 0)
        with pytest.raises(ValueError):
            part.assignments[0] = 1
        assert extract_candidates(trace, params, k=2, min_len=1)
        assert len(solves) == 1  # the candidate head reused the kept partition

    def test_procedure_learning_solves_every_call(self, solves):
        spec = SynthSpec(num_threads=2, segments_per_step=8, dim=8, seed=0)
        _, _, trace = planted_trace(spec, k=2)
        first = procedure_learning(trace, k=2, depth=2, seed=0)
        again = procedure_learning(trace, k=2, depth=2, seed=0)
        assert len(solves) == 2
        assert tasks._cached_partition.cache_info().currsize == 0  # nothing kept, nothing evicted
        assert np.array_equal(first, again)
        first[0] = 1 - first[0]  # the head's answer is the caller's own array

    def test_second_input_evicts_the_first(self, solves):
        a, b = rows(0), rows(1)
        for x in (a, b, a):
            tasks._head_partition(x, 3, 1.0, 0)
        assert len(solves) == 3
        info = tasks._cached_partition.cache_info()
        assert (info.hits, info.misses, info.currsize, info.maxsize) == (0, 3, 1, 1)
