import dataclasses
import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from videothreads import training
from videothreads.autodiff import Var
from videothreads.config import RunConfig
from videothreads.dataio import FeatureSequence, NarrationSet
from videothreads.errors import EmptyBatchError, GradientError, TrainingDivergedError
from videothreads.graph import build_graph, disjoint_union
from videothreads.model import ModelDims, forward, identity_params, init_params
from videothreads.partition import PartitionResult
from videothreads.synth import SynthSpec, generate
from videothreads.training import (
    AlignmentBatch,
    TotalLossOp,
    _collect_gradient,
    _ft_scalar,
    _vna_scalar,
    grad_check,
    lr_at_step,
    train_toy,
)

from reference_impl import ft_composed, vna_composed

TAU = 0.05
WIDE_TAU = 1.0  # keeps every logit's share of a softmax well above rounding


def narration_set(entries, dim=4, fill=1.0):
    rows = [np.full(dim, fill) if e is None else np.asarray(e, dtype=float) for _, e in entries]
    return NarrationSet(tuple(f"n{i}" for i in range(len(entries))), [t for t, _ in entries],
                        np.stack(rows) if rows else np.zeros((0, 0)))


def video(times, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((len(times), dim))
    return build_graph(FeatureSequence("v", np.asarray(times, dtype=float), feats), 1.0)


def single_stage_setup(n=8, dim=4, features=None, times=None):
    dims = ModelDims(d_in=dim, d_h=dim, d_a=dim, d_t=dim, stages=1, layers=1)
    params = identity_params(dims)
    if features is None:
        features = np.tile(np.ones(dim), (n, 1))
    if times is None:
        times = np.arange(n, dtype=float) * 0.5
    g = build_graph(FeatureSequence("v", times, np.asarray(features, dtype=float)), 1.0)
    return params, g


def loss_op(**settings):
    """The loss at the windows and temperature these tests use unless a
    test sets its own."""
    return TotalLossOp(RunConfig(**{"alpha": 1.0, "beta": 4.0, "temperature": TAU, **settings}))


def nce(anchor, positives, negatives, tau=WIDE_TAU):
    """-log(sum_pos / (sum_pos + sum_neg)) over exp(cosine / tau) scores."""
    def score(v):
        cos = float(np.dot(anchor, v) / (np.linalg.norm(anchor) * np.linalg.norm(v)))
        return math.exp(cos / tau)
    pos = sum(score(v) for v in positives)
    return -math.log(pos / (pos + sum(score(v) for v in negatives)))


class TestSampleWindows:
    """The positive window 2**alpha, the negative annulus up to 2**beta and
    the other-video negatives, as the training loss applies them. Each video
    is one node under identity parameters, so its output is its feature."""

    def check(self, videos, alpha, beta, expected):
        params = identity_params(ModelDims(d_in=4, d_h=4, d_a=4, d_t=4, stages=1, layers=1))
        graphs = [single_stage_setup(n=1, features=[f], times=[t])[1] for t, f, _ in videos]
        narrations = [narration_set(narrs) for _, _, narrs in videos]
        batch = AlignmentBatch(graphs, narrations)
        config = RunConfig(k=1, alpha=alpha, beta=beta, temperature=WIDE_TAU)
        vna = TotalLossOp(config)(params, batch).vna
        outputs = [forward(g, params).output for g in graphs]
        assert vna == pytest.approx(oracle_vna(batch, outputs, params, config), abs=1e-12)
        assert vna == pytest.approx(expected, abs=1e-12)

    def test_window_arithmetic(self):
        f = np.array([1.0, 2.0, 3.0, 4.0])
        e = np.eye(4)
        # from the node at 10 s: 9.5 and 11.0 lie inside 2^1, 13.0 in the
        # (2^1, 2^4] annulus, and 50.0 is 40 s away, beyond 2^4
        narrs = [(9.5, e[0]), (11.0, e[1]), (13.0, e[2]), (50.0, e[3])]
        # each positive narration sees only the node, so its t2v term is 0
        self.check([(10.0, f, narrs)], 1.0, 4.0, nce(f, [e[0], e[1]], [e[2]]))

    def test_empty_positives(self):
        fa, fb = np.array([1.0, 0.0, 2.0, 0.0]), np.array([0.0, 1.0, 1.0, 3.0])
        ea, eb = np.array([2.0, 1.0, 0.0, 1.0]), np.array([1.0, 1.0, 0.0, 0.0])
        # video a's node and narration have no positive (30 s apart, inside
        # 2^6): they add no term, rather than a zero term, to the batch means
        videos = [(0.0, fa, [(30.0, ea)]), (0.0, fb, [(0.5, eb)])]
        expected = nce(fb, [eb], [ea]) + nce(eb, [fb], [fa])
        self.check(videos, 1.0, 6.0, expected)

    def test_other_videos_always_negative(self):
        fa, fb = np.array([1.0, 0.0, 2.0, 0.0]), np.array([0.0, 1.0, 1.0, 3.0])
        ea = np.array([2.0, 1.0, 0.0, 1.0])
        eb_near, eb_far = np.array([1.0, 1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 1.0])
        # video b's narrations at 0.4 s and 99 s are both negatives for video
        # a's node at 0 s; for b's own node at 99 s the one at 0.4 s is
        # beyond 2^4 and has no positive of its own
        videos = [(0.0, fa, [(0.5, ea)]), (99.0, fb, [(0.4, eb_near), (99.0, eb_far)])]
        v2t = (nce(fa, [ea], [eb_near, eb_far]) + nce(fb, [eb_far], [ea])) / 2
        t2v = (nce(ea, [fa], [fb]) + nce(eb_far, [fb], [fa])) / 2
        self.check(videos, 1.0, 4.0, v2t + t2v)


class TestLossVna:
    def test_one_positive_one_equal_negative_is_ln2(self):
        # one node; two narrations with identical embeddings, one inside the
        # positive window and one in the annulus -> equal logits, term ln 2
        params, g = single_stage_setup(n=1, times=[10.0])
        narrs = narration_set([(10.5, None), (14.0, None)])
        batch = AlignmentBatch([g], [narrs])
        lv = loss_op(k=1, seed=0)(params, batch)
        assert lv.vna == pytest.approx(math.log(2.0), abs=1e-10)

    def test_single_positive_no_negatives_is_zero(self):
        params, g = single_stage_setup(n=1, times=[10.0])
        narrs = narration_set([(10.5, None)])
        batch = AlignmentBatch([g], [narrs])
        lv = loss_op(k=1, seed=0)(params, batch)
        assert lv.vna == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(17)
        dims = ModelDims(d_in=4, d_h=5, d_a=6, d_t=4, stages=2, layers=1)
        params = init_params(dims, seed=17)
        graphs, narrations = [], []
        for v in range(2):
            graphs.append(video(np.arange(6) * 0.7, dim=4, seed=v))
            narrations.append(narration_set(
                [(float(t), rng.standard_normal(4)) for t in rng.uniform(0, 4.2, 5)]))
        batch = AlignmentBatch(graphs, narrations)
        op = loss_op(k=2, seed=0, beta=3.0)
        lv = op(params, batch)
        traces = [forward(g, params, k=2, seed=0) for g in graphs]
        want = oracle_vna(batch, [t.output for t in traces], params, op.config)
        assert lv.vna == pytest.approx(want, abs=1e-10)

    def test_gradient_length(self):
        params, g = single_stage_setup(n=4)
        narrs = narration_set([(0.5, None), (3.0, None)])
        batch = AlignmentBatch([g], [narrs])
        lv = loss_op(k=1, seed=0)(params, batch)
        assert lv.gradient.shape == (params.num_params,)

    def test_empty_batch_rejected(self):
        params, g = single_stage_setup(n=2, times=[0.0, 0.5])
        narrs = narration_set([(500.0, None)])
        batch = AlignmentBatch([g], [narrs])
        with pytest.raises(EmptyBatchError):
            loss_op(k=1, seed=0)(params, batch)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        dims = ModelDims(d_in=3, d_h=4, d_a=4, d_t=3, stages=1, layers=1)
        params = init_params(dims, seed=3)
        graphs = [video(np.arange(5) * 0.5, dim=3, seed=v) for v in range(2)]
        narrs = [narration_set([(float(t), rng.standard_normal(3)) for t in rng.uniform(0, 2.5, 4)])
                 for _ in range(2)]
        batch = AlignmentBatch(graphs, narrs)
        base = loss_op(k=1, seed=0)(params, batch).vna

        flipped = AlignmentBatch(graphs[::-1], narrs[::-1])
        assert loss_op(k=1, seed=0)(params, flipped).vna == pytest.approx(base, abs=1e-12)

        shuffled = [NarrationSet(ns.texts[::-1], ns.timestamps[::-1], ns.embeddings[::-1])
                    for ns in narrs]
        batch2 = AlignmentBatch(graphs, shuffled)
        assert loss_op(k=1, seed=0)(params, batch2).vna == pytest.approx(base, abs=1e-12)

    def test_invariant_to_positive_rescaling_before_projection(self):
        # with zero projection bias, L2 normalization absorbs any positive
        # per-row scale applied before h_v
        rng = np.random.default_rng(9)
        dims = ModelDims(d_in=3, d_h=3, d_a=4, d_t=3, stages=1, layers=1)
        params = init_params(dims, seed=1)
        g = video(np.arange(4) * 0.5, dim=3, seed=2)
        narrs = narration_set([(float(t), rng.standard_normal(3)) for t in (0.4, 1.1, 1.9)])
        batch = AlignmentBatch([g], [narrs])
        outputs = rng.standard_normal((4, 3))
        scaled = outputs.copy()
        scaled[2] *= 12.5
        config = loss_op().config
        a = float(_vna_scalar(batch, outputs, params, config))
        b = float(_vna_scalar(batch, scaled, params, config))
        assert b == pytest.approx(a, rel=1e-9)


class TestLossFt:
    def fixed_trace(self, params, g, assignments):
        fixed = [PartitionResult(np.asarray(assignments), 0.0)]
        return forward(g, params, fixed_partitions=fixed)

    def test_two_equal_clusters_identical_features(self):
        params, g = single_stage_setup(n=8)  # one stage: decoder sees 4 nodes
        trace = self.fixed_trace(params, g, [0, 0, 1, 1])
        ft = float(_ft_scalar(trace, params, TAU))
        assert ft == pytest.approx(-math.log(1.0 / 3.0), abs=1e-10)

    def test_single_cluster_identical_features_zero(self):
        params, g = single_stage_setup(n=8)
        trace = self.fixed_trace(params, g, [0, 0, 0, 0])
        ft = float(_ft_scalar(trace, params, TAU))
        assert ft == pytest.approx(0.0, abs=1e-12)

    def test_no_eligible_nodes_zero_loss_empty_gradient(self):
        params, g = single_stage_setup(n=8)
        trace = self.fixed_trace(params, g, [0, 1, 2, 3])  # singleton clusters
        assert _ft_scalar(trace, params, TAU) is None  # no term, so no gradient
        # in the total loss: a video whose every decoder stage holds one node
        params, g = single_stage_setup(n=1, times=[10.0])
        batch = AlignmentBatch([g], [narration_set([(10.5, None), (14.0, None)])])
        lv = loss_op(k=1, seed=0)(params, batch)
        assert lv.ft == 0.0
        assert lv.value == lv.vna

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(23)
        dims = ModelDims(d_in=4, d_h=5, d_a=6, d_t=4, stages=2, layers=1)
        params = init_params(dims, seed=23)
        g = video(np.arange(8) * 0.5, dim=4, seed=5)
        narrs = narration_set([(1.0, rng.standard_normal(4)), (2.5, rng.standard_normal(4))])
        batch = AlignmentBatch([g], [narrs])
        lv = loss_op(k=2, seed=3)(params, batch)
        want = oracle_ft(forward(g, params, k=2, seed=3), params, TAU)
        assert lv.ft == pytest.approx(want, abs=1e-10)

    def test_batch_is_the_mean_over_its_videos(self):
        # the union's stages hold every video; pairs never cross videos
        rng = np.random.default_rng(31)
        params = init_params(ModelDims(d_in=4, d_h=5, d_a=6, d_t=4, stages=2, layers=1), seed=31)
        graphs = [video(np.arange(n) * 0.5 + shift, dim=4, seed=n)
                  for n, shift in ((8, 0.0), (6, 0.7), (1, 0.2))]
        narrs = [narration_set([(t, rng.standard_normal(4))]) for t in (1.0, 1.5, 0.2)]
        lv = loss_op(k=2, seed=3)(params, AlignmentBatch(graphs, narrs))
        trace = forward(disjoint_union(graphs), params, k=2, seed=3)
        per_video = []
        for i in range(len(graphs)):
            stages = []
            for s in trace.stages:
                rows = s.graph.video_rows()[i]
                part = SimpleNamespace(assignments=s.partition.assignments[rows])
                stages.append(SimpleNamespace(output=s.output[rows], partition=part))
            per_video.append(oracle_ft(SimpleNamespace(stages=stages), params, TAU))
        assert lv.ft > 0.0
        assert lv.ft == pytest.approx(sum(per_video) / len(graphs), abs=1e-10)


@st.composite
def loss_cases(draw):
    """Per-video node and narration counts (some video narrated), the widths
    (d_h, d_a, d_t), a temperature, a seed for the float data, and the
    losses' block size: the default, or 24 floats, which splits each
    video's rows over several blocks."""
    videos = draw(st.integers(1, 4))
    nodes = draw(st.lists(st.integers(1, 12), min_size=videos, max_size=videos))
    narrations = draw(st.lists(st.integers(0, 12), min_size=videos, max_size=videos).filter(any))
    widths = draw(st.tuples(*[st.integers(2, 6)] * 3))
    return (nodes, narrations, widths, draw(st.sampled_from([0.05, 0.01])),
            draw(st.integers(0, 999)), draw(st.sampled_from([training._BLOCK, 24])))


class TestLossesAgainstComposedOracle:
    """The block-built loss nodes against the same losses composed of Var
    nodes over the whole logits (``reference_impl``): values within 1e-12 and
    gradients within 1e-10, relative to the oracle's largest magnitude or 1
    if that is smaller (a loss near 0 is a difference of nearly equal logs,
    in both)."""

    @staticmethod
    def value_and_gradient(loss, outputs, params):
        params_v, leaves = params.to_vars()
        outputs = [Var(o) for o in outputs]
        total = loss(outputs, params_v)
        if total is None:
            return None
        total.backward()
        grads = [np.zeros_like(v.value) if v.grad is None else v.grad for v in outputs + leaves]
        return float(total.value), np.concatenate([np.ravel(g) for g in grads])

    def check(self, loss, oracle, outputs, params, block):
        with mock.patch.object(training, "_BLOCK", block):
            got = self.value_and_gradient(loss, outputs, params)
        want = self.value_and_gradient(oracle, outputs, params)
        if want is None:
            assert got is None
            return
        assert abs(got[0] - want[0]) <= 1e-12 * max(abs(want[0]), 1.0)
        assert np.max(np.abs(got[1] - want[1])) <= 1e-10 * max(np.max(np.abs(want[1])), 1.0)

    @staticmethod
    def draw_data(case):
        nodes, narrations, (d_h, d_a, d_t), tau, seed, block = case
        rng = np.random.default_rng(seed)
        params = init_params(ModelDims(d_in=2, d_h=d_h, d_a=d_a, d_t=d_t, stages=1, layers=1),
                             seed=seed)
        return rng, params, d_h, d_t, tau, block

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(loss_cases())
    def test_vna(self, case):
        rng, params, d_h, d_t, tau, block = self.draw_data(case)
        nodes, narrations = case[:2]
        graphs = [video(np.sort(rng.uniform(0.0, 20.0, n)), dim=2, seed=i)
                  for i, n in enumerate(nodes)]
        narrs = [narration_set([(t, rng.standard_normal(d_t))
                                for t in np.sort(rng.uniform(0.0, 20.0, m))], dim=d_t)
                 for m in narrations]
        # alpha = 1: some node must have a narration of its video within 2 s
        assume(any(np.any(np.abs(g.timestamps[:, None] - n.timestamps) <= 2.0)
                   for g, n in zip(graphs, narrs)))
        batch = AlignmentBatch(graphs, narrs)
        config = RunConfig(alpha=1.0, beta=3.0, temperature=tau)
        output = rng.standard_normal((sum(nodes), d_h))
        self.check(lambda o, p: _vna_scalar(batch, o[0], p, config),
                   lambda o, p: vna_composed(batch, o[0], p, config), [output], params, block)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(loss_cases(), st.integers(1, 3), st.integers(1, 4))
    def test_ft(self, case, stages, clusters):
        rng, params, d_h, _, tau, block = self.draw_data(case)
        videos = len(case[0])
        sizes = [rng.integers(1, 12, videos) for _ in range(stages)]
        labels = [rng.integers(0, clusters, int(n.sum())) for n in sizes]
        outputs = [rng.standard_normal((int(n.sum()), d_h)) for n in sizes]

        def trace(outputs):
            return SimpleNamespace(stages=[
                SimpleNamespace(graph=SimpleNamespace(video_sizes=n), output=o,
                                partition=PartitionResult(a, 0.0))
                for n, o, a in zip(sizes, outputs, labels)])

        self.check(lambda o, p: _ft_scalar(trace(o), p, tau),
                   lambda o, p: ft_composed(trace(o), p, tau), outputs, params, block)


class TestGradCheck:
    def toy(self):
        rng = np.random.default_rng(42)
        graphs, narrations = [], []
        for v in range(2):
            spec = SynthSpec(num_threads=2, steps_per_thread=1, segments_per_step=5,
                             segment_duration=0.5, dim=6, separation=4.0, sigma=1.0,
                             seed=40 + v)
            ds = generate(spec)
            graphs.append(build_graph(ds.sequence, 1.0))
            narrations.append(ds.narrations)
        batch = AlignmentBatch(graphs, narrations)
        dims = ModelDims(d_in=6, d_h=8, d_a=8, d_t=6, stages=2, layers=2)
        return init_params(dims, seed=7), batch

    def test_toy_model_meets_contract(self):
        params, batch = self.toy()
        op = loss_op(k=2, kappa=1.0, max_nodes=64, seed=0)
        worst = grad_check(op, params, batch, epsilon=1e-5, seed=0)
        assert worst <= 1e-4

    def test_corrupted_gradient_detected(self):
        params, batch = self.toy()
        op = loss_op(k=2, seed=0)

        class Corrupt:
            def __init__(self, inner):
                self.inner = inner

            def __call__(self, p, b, *, gradient=True, partitions=None):
                lv = self.inner(p, b, gradient=gradient, partitions=partitions)
                if not gradient:
                    return lv
                grad = lv.gradient.copy()
                grad[int(np.argmin(np.abs(grad)))] += 1.0
                return dataclasses.replace(lv, gradient=grad)

        worst = grad_check(Corrupt(op), params, batch, epsilon=1e-5, seed=0,
                           sample_threshold=10**9)  # check every coordinate
        assert worst >= 0.5

    def test_non_finite_numeric_derivative_names_its_coordinate(self):
        params, batch = self.toy()
        op = loss_op(k=2, seed=0)
        base = params.to_vector()

        class NanShift:
            def __init__(self, inner):
                self.inner = inner

            def __call__(self, p, b, *, gradient=True, partitions=None):
                lv = self.inner(p, b, gradient=gradient, partitions=partitions)
                if gradient or p.to_vector()[5] == base[5]:
                    return lv
                return dataclasses.replace(lv, value=float("nan"))

        with pytest.raises(GradientError, match="coordinate 5 "):
            grad_check(NanShift(op), params, batch, epsilon=1e-5, seed=0,
                       sample_threshold=10**9)

    def test_zero_sensitivity_coordinate(self):
        # h_t bias coordinates are unused when no narration exists in the
        # loss under test; pick the ft-only loss on a fixed partition
        params, g = single_stage_setup(n=8)
        params_v, leaves = params.to_vars()
        trace = forward(g, params_v, fixed_partitions=[PartitionResult(np.array([0, 0, 1, 1]), 0.0)])
        _ft_scalar(trace, params_v, TAU).backward()
        gradient = _collect_gradient(leaves)
        # locate h_t weight block at the end of the flat layout
        tail = sum(np.asarray(a).size for a in params.leaves()[-2:])
        assert not np.any(gradient[-tail:])


class TestFrozenPartitions:
    """One op on several batches: each call partitions its own batch."""

    params = init_params(ModelDims(6, 8, 8, 6, 2, 2), seed=0)

    @staticmethod
    def batch(segments_per_step, seed):
        ds = generate(SynthSpec(num_threads=2, steps_per_thread=1,
                                segments_per_step=segments_per_step, segment_duration=0.5,
                                dim=6, separation=4.0, sigma=1.0, seed=seed))
        return AlignmentBatch([build_graph(ds.sequence, 1.0)], [ds.narrations])

    @staticmethod
    def op():
        return loss_op(k=2, kappa=1.0, max_nodes=64, seed=0)

    def loss(self, op, batch):
        return op(self.params, batch, gradient=False).value

    def test_second_batch_of_another_size(self):
        op = self.op()
        self.loss(op, self.batch(4, 0))
        second = self.batch(6, 0)
        assert self.loss(op, second) == self.loss(self.op(), second)

    def test_second_batch_of_the_same_size(self):
        op = self.op()
        self.loss(op, self.batch(6, 5))
        second = self.batch(6, 1)
        assert self.loss(op, second) == self.loss(self.op(), second)

    def test_given_partitions_replace_clustering(self):
        batch = self.batch(6, 1)
        single = loss_op(k=1)(self.params, batch, gradient=False)
        fixed = self.op()(self.params, batch, gradient=False, partitions=single.partitions)
        assert fixed.value == single.value
        assert fixed.partitions == single.partitions


class TestBatchTape:
    """The loss runs one forward pass per batch, so a layer records one
    node however many videos the batch holds."""

    @staticmethod
    def affine_nodes(monkeypatch, batch):
        from videothreads import autodiff

        roots = []
        backward = autodiff.Var.backward

        def recording(self):
            roots.append(self)
            backward(self)

        params = init_params(ModelDims(d_in=8, d_h=8, d_a=8, d_t=8, stages=2, layers=2), seed=0)
        with monkeypatch.context() as patch:
            patch.setattr(autodiff.Var, "backward", recording)
            loss_op(k=2, temperature=WIDE_TAU)(params, batch)
        (root,) = roots
        return sum(1 for node in autodiff._topological_order(root)
                   if node._grad_fns and node._grad_fns[0].__qualname__.startswith("affine."))

    def test_eight_copies_record_as_many_affine_nodes_as_one_video(self, monkeypatch):
        ds = generate(SynthSpec(num_threads=2, steps_per_thread=2, segments_per_step=8,
                                dim=8, separation=3.0, sigma=1.0, seed=4))
        g = build_graph(ds.sequence, 1.0)
        one = self.affine_nodes(monkeypatch, AlignmentBatch([g], [ds.narrations]))
        eight = self.affine_nodes(monkeypatch, AlignmentBatch([g] * 8, [ds.narrations] * 8))
        assert one > 0
        assert eight == one


class TestBackwardMemory:
    """One training step's backward frees each intermediate gradient once
    it is passed on, so its extra memory stays near the few arrays in
    flight rather than growing with the tape."""

    # traced peak above backward's starting point on the batch below, with
    # numpy 2.4.6: 2.10 MB when only the leaves keep .grad, 7.10 MB when
    # every node does
    BOUND_BYTES = 3_000_000

    def test_backward_adds_a_bounded_traced_peak(self, monkeypatch):
        from videothreads import autodiff

        videos = [generate(SynthSpec(num_threads=2, steps_per_thread=2, segments_per_step=16,
                                     dim=8, separation=3.0, seed=i)) for i in range(4)]
        batch = AlignmentBatch([build_graph(v.sequence, 1.0) for v in videos],
                               [v.narrations for v in videos])
        d_t = videos[0].narrations.embeddings.shape[1]
        params = init_params(ModelDims(d_in=8, d_h=16, d_a=16, d_t=d_t, stages=3, layers=3),
                             seed=0)
        peaks = []
        backward = autodiff.Var.backward

        def traced(self):
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                backward(self)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                if not tracing:
                    tracemalloc.stop()

        monkeypatch.setattr(autodiff.Var, "backward", traced)
        loss_op(k=2, seed=0)(params, batch)
        assert sum(g.num_nodes for g in batch.graphs) == 256
        (peak,) = peaks
        assert peak <= self.BOUND_BYTES, f"backward added {peak / 1e6:.2f} MB"


class TestLossCallMemory:
    """A whole loss call (forward pass, both losses and backward) builds
    the losses' logits a block at a time, so its traced peak stays near the
    forward tape rather than growing with (nodes x narrations)."""

    # traced peak of the call below, run first in its process, with numpy
    # 2.4.6: 7.68 MB with the block-built loss nodes (6.65 MB after other
    # tests), 38.34 MB with the losses composed of Var nodes over the whole
    # logits
    BOUND_BYTES = 9_000_000

    def test_one_call_has_a_bounded_traced_peak(self):
        videos = [generate(SynthSpec(num_threads=2, steps_per_thread=2, segments_per_step=16,
                                     dim=8, separation=3.0, seed=i)) for i in range(8)]
        batch = AlignmentBatch([build_graph(v.sequence, 1.0) for v in videos],
                               [v.narrations for v in videos])
        params = init_params(ModelDims(d_in=8, d_h=16, d_a=16, d_t=8, stages=3, layers=3),
                             seed=0)
        op = loss_op(k=2, seed=0)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            op(params, batch)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert sum(g.num_nodes for g in batch.graphs) == 512
        assert peak <= self.BOUND_BYTES, f"the loss call peaked {peak / 1e6:.2f} MB above its start"


class TestTrainToy:
    def dataset(self, count=4, seed=200):
        data = []
        for i in range(count):
            spec = SynthSpec(num_threads=2, steps_per_thread=2, segments_per_step=8,
                             dim=8, separation=3.0, sigma=1.0, seed=seed + i)
            ds = generate(spec)
            data.append((ds.sequence, ds.narrations))
        return data

    def config(self, **overrides):
        base = dict(epochs=2, batch_size=8, lr=0.05, warmup_epochs=1, hidden=8,
                    align_dim=8, stages=2, layers=1, alpha=2.0, beta=5.0,
                    temperature=TAU, k=2)
        base.update(overrides)
        return RunConfig(**base)

    def test_zero_lr_leaves_params_bitwise_unchanged(self):
        data = self.dataset()
        cfg = self.config(lr=0.0)
        params, _ = train_toy(data, cfg)
        fresh = init_params(ModelDims(d_in=8, d_h=8, d_a=8, d_t=8, stages=2, layers=1), seed=0)
        assert np.array_equal(params.to_vector(), fresh.to_vector())

    def test_warmup_starts_at_zero(self):
        cfg = self.config(epochs=10, warmup_epochs=5, lr=0.1)
        assert lr_at_step(cfg, 0, steps_per_epoch=3) == 0.0
        assert lr_at_step(cfg, 15, steps_per_epoch=3) == pytest.approx(0.1)
        assert lr_at_step(cfg, 30, steps_per_epoch=3) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self):
        data = self.dataset()
        cfg = self.config(seed=3)
        a, hist_a = train_toy(data, cfg)
        b, hist_b = train_toy(data, cfg)
        assert np.array_equal(a.to_vector(), b.to_vector())
        assert hist_a == hist_b

    def test_divergence_raises_with_epoch(self):
        data = self.dataset()
        cfg = self.config(lr=1e200, warmup_epochs=0, epochs=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as info:
                train_toy(data, cfg)
        assert info.value.epoch >= 0

    def test_loss_decreases(self):
        data = self.dataset(count=6)
        cfg = self.config(epochs=8, warmup_epochs=2, seed=1)
        _, history = train_toy(data, cfg)
        assert history[-1]["mean_loss"] < history[0]["mean_loss"]


# ---------------------------------------------------------------------------
# direct-summation oracles, written with explicit loops


def _normalize(v):
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def _hv(row, params):
    return _normalize(np.asarray(row) @ np.asarray(params.h_v.w) + np.asarray(params.h_v.b))


def _ht(row, params):
    return _normalize(np.asarray(row) @ np.asarray(params.h_t.w) + np.asarray(params.h_t.b))


def oracle_vna(batch, outputs, params, config):
    near, far = 2.0 ** config.alpha, 2.0 ** config.beta
    tau = config.temperature
    all_narrs = []
    for vid, narrs in enumerate(batch.narrations):
        for timestamp, embedding in zip(narrs.timestamps, narrs.embeddings):
            all_narrs.append((vid, timestamp, _ht(embedding, params)))
    v2t_video_means, t2v_video_means = [], []
    for vid, g in enumerate(batch.graphs):
        node_terms = []
        for j in range(g.num_nodes):
            p = g.timestamps[j]
            hv = _hv(outputs[vid][j], params)
            num = den = 0.0
            has_pos = False
            for (nvid, t, ht) in all_narrs:
                z = math.exp(float(hv @ ht) / tau)
                if nvid == vid and abs(p - t) <= near:
                    num += z
                    den += z
                    has_pos = True
                elif nvid == vid and abs(p - t) <= far:
                    den += z
                elif nvid != vid:
                    den += z
            if has_pos:
                node_terms.append(-math.log(num / den))
        if node_terms:
            v2t_video_means.append(sum(node_terms) / len(node_terms))
    all_nodes = []
    for vid, g in enumerate(batch.graphs):
        for j in range(g.num_nodes):
            all_nodes.append((vid, g.timestamps[j], _hv(outputs[vid][j], params)))
    for vid, narrs in enumerate(batch.narrations):
        narr_terms = []
        for timestamp, embedding in zip(narrs.timestamps, narrs.embeddings):
            ht = _ht(embedding, params)
            num = den = 0.0
            has_pos = False
            for (nvid, p, hv) in all_nodes:
                z = math.exp(float(hv @ ht) / tau)
                if nvid == vid and abs(p - timestamp) <= near:
                    num += z
                    den += z
                    has_pos = True
                elif nvid == vid and abs(p - timestamp) <= far:
                    den += z
                elif nvid != vid:
                    den += z
            if has_pos:
                narr_terms.append(-math.log(num / den))
        if narr_terms:
            t2v_video_means.append(sum(narr_terms) / len(narr_terms))
    return sum(v2t_video_means) / len(v2t_video_means) + sum(t2v_video_means) / len(t2v_video_means)


def oracle_ft(trace, params, tau):
    total = 0.0
    for stage in trace.stages:
        rows = [_hv(r, params) for r in stage.output]
        labels = stage.partition.assignments
        n = len(rows)
        terms = []
        for i in range(n):
            num = den = 0.0
            eligible = False
            for j in range(n):
                if j == i:
                    continue
                z = math.exp(float(rows[i] @ rows[j]) / tau)
                den += z
                if labels[j] == labels[i]:
                    num += z
                    eligible = True
            if eligible:
                terms.append(-math.log(num / den))
        if terms:
            total += sum(terms) / len(terms)
    return total  # single trace: batch mean over one video
