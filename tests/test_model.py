import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from videothreads.autodiff import Var
from videothreads.dataio import FeatureSequence
from videothreads.errors import BadMagicError, ClusteringError, ShapeError, TruncatedFileError
from videothreads.graph import (
    VideoGraph,
    build_graph,
    disjoint_union,
    interpolation_matrix,
    nearest_indices,
)
from videothreads.metrics import adjusted_rand_index
from videothreads.model import (
    LinearParams,
    ModelDims,
    TdgcLayerParams,
    _band_grads,
    _band_pass,
    _neighbor_table,
    _param_count,
    _tdgc_apply,
    forward,
    identity_params,
    init_params,
    load_params,
    save_params,
)
from videothreads.partition import PartitionResult
from videothreads.synth import SynthSpec, generate

from reference_impl import (
    forward_ref,
    neighbors_from_times,
    split_videos,
    tdgc_aggregate_ref,
    tdgc_forward,
    tdgc_layer_composed,
    tdgc_layer_ref,
    vsum,
)


def make_graph(n=8, d=6, spacing=0.5, seed=0):
    rng = np.random.default_rng(seed)
    seq = FeatureSequence("v", np.arange(n) * spacing, rng.standard_normal((n, d)))
    return build_graph(seq, 1.0)


def identity_layer(params):
    layer = params.encoder[0][0]
    d = layer.w_r.shape[0]
    layer.w_n = np.zeros((d, d))
    layer.w_r = np.eye(d)
    layer.gate_w1 = np.zeros((1, d))
    layer.gate_w2 = np.zeros((d, d))
    return layer


class TestInitParams:
    def test_deterministic(self):
        dims = ModelDims(d_in=4, d_h=6, d_a=5, d_t=4, stages=2, layers=2)
        a = init_params(dims, seed=3).to_vector()
        b = init_params(dims, seed=3).to_vector()
        assert np.array_equal(a, b)

    def test_biases_zero(self):
        params = init_params(ModelDims(d_in=4, d_h=6, d_a=5, d_t=4, stages=1, layers=1), seed=0)
        assert np.all(params.input_proj.b == 0.0)
        assert np.all(params.encoder[0][0].b_n == 0.0)
        assert np.all(params.h_v.b == 0.0)

    def test_glorot_range(self):
        dims = ModelDims(d_in=10, d_h=20, d_a=20, d_t=10, stages=1, layers=1)
        params = init_params(dims, seed=1)
        bound = np.sqrt(6.0 / (10 + 20))
        assert np.max(np.abs(params.input_proj.w)) <= bound
        bound_h = np.sqrt(6.0 / 40)
        assert np.max(np.abs(params.encoder[0][0].w_r)) <= bound_h


    def test_identity_params_equal_overwritten_random_init(self):
        dims = ModelDims(d_in=3, d_h=5, d_a=6, d_t=4, stages=2, layers=3)
        params = init_params(dims, seed=0)
        params.input_proj = LinearParams(np.eye(dims.d_in, dims.d_h), np.zeros(dims.d_h))
        for branch in (params.encoder, params.decoder):
            for stage in branch:
                for layer in stage:
                    layer.w_n = np.zeros((dims.d_h, dims.d_h))
                    layer.w_r = np.eye(dims.d_h)
                    layer.gate_w1 = np.zeros((1, dims.d_h))
                    layer.gate_w2 = np.zeros((dims.d_h, dims.d_h))
        params.h_v = LinearParams(np.eye(dims.d_h, dims.d_a), np.zeros(dims.d_a))
        params.h_t = LinearParams(np.eye(dims.d_t, dims.d_a), np.zeros(dims.d_a))
        assert np.array_equal(identity_params(dims).to_vector(), params.to_vector())


class TestSerialization:
    def test_vector_round_trip(self):
        dims = ModelDims(d_in=3, d_h=5, d_a=4, d_t=3, stages=2, layers=1)
        params = init_params(dims, seed=2)
        vec = params.to_vector()
        again = params.with_vector(vec)
        assert np.array_equal(again.to_vector(), vec)

    def test_layout_is_the_documented_order(self):
        # six distinct sizes, so a swapped dimension or array shows in a shape
        dims = ModelDims(d_in=5, d_h=3, d_a=4, d_t=6, stages=2, layers=1)
        layer = [(3, 3), (3,), (3, 3), (3,), (1, 3), (3,), (3, 3), (3,)]
        order = [(5, 3), (3,)] + layer * 4 + [(3, 4), (4,), (6, 4), (4,)]
        params = init_params(dims, seed=11)
        assert [leaf.shape for leaf in params.leaves()] == order
        assert _param_count(dims) == params.num_params
        rng = np.random.default_rng(11)
        draws = [rng.uniform(-np.sqrt(6.0 / sum(s)), np.sqrt(6.0 / sum(s)), size=s)
                 if len(s) == 2 else np.zeros(s) for s in order]
        assert np.array_equal(params.to_vector(), np.concatenate([d.ravel() for d in draws]))

    def test_file_round_trip(self, tmp_path):
        dims = ModelDims(d_in=3, d_h=4, d_a=4, d_t=3, stages=2, layers=2)
        params = init_params(dims, seed=7)
        path = tmp_path / "params.bin"
        save_params(path, params)
        loaded = load_params(path)
        assert loaded.dims == dims
        assert np.array_equal(loaded.to_vector(), params.to_vector())

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 64)
        with pytest.raises(BadMagicError):
            load_params(path)

    def test_truncated(self, tmp_path):
        dims = ModelDims(d_in=3, d_h=4, d_a=4, d_t=3, stages=1, layers=1)
        path = tmp_path / "short.bin"
        save_params(path, init_params(dims, seed=0))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(TruncatedFileError):
            load_params(path)


class TestTdgcForward:
    def test_identity_configuration(self):
        g = make_graph()
        params = init_params(ModelDims(d_in=6, d_h=6, d_a=6, d_t=6, stages=1, layers=1), seed=0)
        layer = identity_layer(params)
        out = tdgc_forward(g, layer)
        assert np.allclose(out, g.embeddings)

    def test_isolated_node_keeps_input(self):
        seq = FeatureSequence("v", np.array([0.0, 100.0]), np.random.default_rng(0).standard_normal((2, 4)))
        g = build_graph(seq, 1.0)
        params = init_params(ModelDims(d_in=4, d_h=4, d_a=4, d_t=4, stages=1, layers=1), seed=1)
        layer = params.encoder[0][0]
        layer.w_r = np.eye(4)
        layer.b_r = np.zeros(4)
        out = tdgc_forward(g, layer)
        assert np.allclose(out, g.embeddings)  # empty neighborhoods contribute zero

    def test_matches_dense_loop_reference(self):
        g = make_graph(n=3, d=5, seed=4)
        params = init_params(ModelDims(d_in=5, d_h=5, d_a=5, d_t=5, stages=1, layers=1), seed=9)
        layer = params.encoder[0][0]
        got = tdgc_forward(g, layer)
        sets = neighbors_from_times(g.timestamps, g.edge_threshold * 2 ** g.level)
        want = tdgc_layer_ref(g.embeddings, g.timestamps, sets, layer)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_shape_mismatch(self):
        g = make_graph(d=6)
        params = init_params(ModelDims(d_in=4, d_h=4, d_a=4, d_t=4, stages=1, layers=1), seed=0)
        with pytest.raises(ShapeError):
            tdgc_forward(g, params.encoder[0][0])


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def check_against_scatter_oracle(edges, times, seed, d=3):
    """The band aggregation against the gather + scatter-add oracle, bit for
    bit: the output on ndarrays, and on Vars the output and both gradients."""
    rng = np.random.default_rng(seed)
    table = _neighbor_table(edges, times)
    gate = rng.standard_normal((table.dt.size, d))
    projected = rng.standard_normal((times.shape[0], d))
    # -0.0 operands: a sum from 0.0 turns a lone -0.0 message into +0.0
    gate[rng.random(gate.shape) < 0.2] = -0.0
    projected[rng.random(projected.shape) < 0.2] = -0.0
    upstream = rng.standard_normal(projected.shape)
    assert_same_bits(_band_pass(gate, projected, table.steps),
                     tdgc_aggregate_ref(gate, projected, edges, times))
    g, p = Var(gate), Var(projected)
    out = tdgc_aggregate_ref(g, p, edges, times)
    vsum(out * upstream).backward()
    want = [out.value] + [np.zeros_like(v.value) if v.grad is None else v.grad for v in (g, p)]
    got = [_band_pass(gate, projected, table.steps), *_band_grads(gate, projected, upstream, table)]
    for pair in zip(got, want):
        assert_same_bits(*pair)


def union_of(times_per_video, threshold):
    return disjoint_union([build_graph(FeatureSequence("v", t, np.zeros((t.size, 1))), threshold)
                           for t in times_per_video])


def cut_graph(sizes, threshold, seed, groups):
    """The edges and timestamps of a union of videos with quarter-second gaps
    (exact sums, so unequal offsets share a dt class), keeping only the edges
    inside one of ``groups`` random groups, as a decoder stage does: bands
    with gaps, and isolated nodes."""
    rng = np.random.default_rng(seed)
    g = union_of([0.25 * (rng.integers(0, 8) + np.cumsum(rng.integers(1, 4, n)))
                  for n in sizes], threshold)
    a = rng.integers(0, groups, g.num_nodes)
    return g.edges[a[g.edges[:, 0]] == a[g.edges[:, 1]]], g.timestamps


NAMED_GRAPHS = ["path", "irregular", "same_group", "three_videos", "isolated_nodes", "one_node"]


def named_graph(case):
    rng = np.random.default_rng(7)
    if case == "path":
        return union_of([np.arange(40) * (8 / 15)], 1.0)
    if case == "irregular":  # offsets up to 7, one dt class per edge
        return union_of([np.cumsum(rng.uniform(0.05, 0.9, 60))], 2.0)
    if case == "same_group":
        g = union_of([np.cumsum(rng.uniform(0.05, 0.9, 60))], 2.0)
        a = np.repeat([0, 1, 0, 2], 15)  # groups scattered in time, like a clustering
        return VideoGraph(g.embeddings, g.timestamps,
                          g.edges[a[g.edges[:, 0]] == a[g.edges[:, 1]]])
    if case == "three_videos":  # seams leave gaps in every band
        return union_of([np.arange(9) * 0.5, np.cumsum(rng.uniform(0.1, 0.6, 12)),
                         np.arange(7) * 0.25 + 3.0], 1.0)
    if case == "isolated_nodes":
        return union_of([np.array([0.0, 0.5, 10.0, 20.0, 20.5, 21.0, 40.0])], 1.0)
    return union_of([np.array([3.0])], 1.0)


graph_cases = (st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3),
               st.sampled_from([0.5, 1.0, 2.0]), st.integers(min_value=0, max_value=10_000),
               st.integers(min_value=1, max_value=4))


class TestNeighborTable:
    """TDGC adds each node's messages, and each gate and source gradient, in
    the row order of a scatter-add over ``directed_edges``; the band layout
    must reproduce those sums bit for bit."""

    @given(*graph_cases)
    @settings(max_examples=100, deadline=None)
    def test_bands_match_the_scatter_oracle(self, sizes, threshold, seed, groups):
        check_against_scatter_oracle(*cut_graph(sizes, threshold, seed, groups), seed)

    @pytest.mark.parametrize("case", NAMED_GRAPHS)
    def test_named_graphs_match_the_scatter_oracle(self, case):
        g = named_graph(case)
        check_against_scatter_oracle(g.edges, g.timestamps, seed=len(case))

    @pytest.mark.parametrize("edges", ["none", "all", "cut"])
    def test_gate_columns_are_the_per_layer_expressions(self, edges):
        # a batch graph of three videos: seams, and bands with gaps once cut
        g = named_graph("three_videos")
        kept = {"none": np.zeros(g.edges.shape[0], dtype=bool),
                "all": np.ones(g.edges.shape[0], dtype=bool),
                "cut": np.arange(g.edges.shape[0]) % 3 != 0}[edges]
        table = _neighbor_table(g.edges[kept], g.timestamps)
        degree = np.bincount(g.edges[kept].ravel(), minlength=g.num_nodes)
        inv_degree = np.divide(1.0, degree, out=np.zeros(g.num_nodes), where=degree > 0)
        for column, want in ((table.abs_dt, np.abs(table.dt)[:, None]),
                             (table.sign_dt, np.sign(table.dt)[:, None]),
                             (table.inv_degree, inv_degree[:, None])):
            assert_same_bits(column, want)
            assert not column.flags.writeable
        assert (table.dt.size == 0) == (edges == "none")


def check_layer_against_composed(edges, times, seed, d):
    """The one-node TDGC layer against the layer composed of autodiff nodes,
    on random leaves: the output bit for bit on ndarrays and on Vars, and
    the gradients for the input and each leaf within 1e-10 of the larger of
    1 and the oracle's largest entry."""
    rng = np.random.default_rng(seed)
    table = _neighbor_table(edges, times)
    params = init_params(ModelDims(d_in=d, d_h=d, d_a=d, d_t=d, stages=1, layers=1))
    layer = params.with_vector(rng.standard_normal(params.num_params)).encoder[0][0]
    x = rng.standard_normal((times.shape[0], d))
    upstream = rng.standard_normal(x.shape)
    assert_same_bits(_tdgc_apply(x, table, layer), tdgc_layer_composed(x, edges, times, layer))
    results = []
    for apply in (lambda x, layer: _tdgc_apply(x, table, layer),
                  lambda x, layer: tdgc_layer_composed(x, edges, times, layer)):
        leaves = [Var(x)] + [Var(getattr(layer, f.name)) for f in dataclasses.fields(layer)]
        out = apply(leaves[0], TdgcLayerParams(*leaves[1:]))
        vsum(out * upstream).backward()
        results.append([out.value] + [np.zeros_like(v.value) if v.grad is None else v.grad
                                      for v in leaves])
    (got, *got_grads), (want, *want_grads) = results
    assert_same_bits(got, want)
    for got_grad, want_grad in zip(got_grads, want_grads):
        assert np.max(np.abs(got_grad - want_grad)) <= 1e-10 * max(np.max(np.abs(want_grad)), 1.0)


class TestLayerNode:
    """``_tdgc_apply`` is one node with a hand-derived backward; the layer
    composed of autodiff nodes (``tests/reference_impl.py``) is its oracle."""

    @given(*graph_cases, st.integers(min_value=1, max_value=5))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_matches_the_composed_oracle(self, sizes, threshold, seed, groups, d):
        check_layer_against_composed(*cut_graph(sizes, threshold, seed, groups), seed, d)

    @pytest.mark.parametrize("case", NAMED_GRAPHS)
    def test_named_graphs_match_the_composed_oracle(self, case):
        g = named_graph(case)
        check_layer_against_composed(g.edges, g.timestamps, seed=len(case), d=4)

    def test_one_node_per_layer(self):
        g = named_graph("three_videos")
        params = init_params(ModelDims(d_in=3, d_h=3, d_a=3, d_t=3, stages=1, layers=1))
        layer = params.to_vars()[0].encoder[0][0]
        out = _tdgc_apply(Var(np.ones((g.num_nodes, 3))), _neighbor_table(g.edges, g.timestamps),
                          layer)
        assert len(out._parents) == 9
        assert all(not parent._parents for parent in out._parents)


class TestForwardMemory:
    """The TDGC layer's ndarray path allocates no array the layer composed
    of autodiff nodes did not (its bias adds and relus work in place), so
    an inference ``forward`` peaks no higher."""

    # traced peak of a warm call below, with numpy 2.4.6: 10.80 MiB for the
    # composed layer and for the one-node layer, 12.56 MiB when the layer
    # keeps its (N, d) pre-activation alive until it returns
    BOUND_BYTES = 11 * 2**20

    def test_identity_forward_has_a_bounded_traced_peak(self):
        ds = generate(SynthSpec(num_threads=7, segments_per_step=512, dim=64,
                                separation=10.0, seed=1000))
        g = build_graph(ds.sequence, 1.0)
        params = identity_params(ModelDims(d_in=64, d_h=64, d_a=64, d_t=64))
        assert g.num_nodes == 3584
        forward(g, params, k=7)  # the first call also fills one-time caches
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            forward(g, params, k=7)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= self.BOUND_BYTES, f"forward peaked {peak / 2**20:.2f} MiB above its start"


class TestEncoderForward:
    def test_halving_node_counts(self):
        g = make_graph(n=8, d=4)
        params = init_params(ModelDims(d_in=4, d_h=4, d_a=4, d_t=4, stages=3, layers=1), seed=0)
        stages = forward(g, params).stages
        assert [s.graph.num_nodes for s in reversed(stages)] == [4, 2, 1]

    def test_identity_layers_reproduce_subsampled_input(self):
        g = make_graph(n=8, d=4, seed=2)
        params = init_params(ModelDims(d_in=4, d_h=4, d_a=4, d_t=4, stages=2, layers=2), seed=0)
        params.input_proj.w = np.eye(4)
        for stage in params.encoder:
            for layer in stage:
                layer.w_n = np.zeros((4, 4))
                layer.w_r = np.eye(4)
                layer.gate_w1 = np.zeros((1, 4))
                layer.gate_w2 = np.zeros((4, 4))
        deep, shallow = forward(g, params).stages
        assert np.allclose(shallow.graph.embeddings, g.embeddings[::2])
        assert np.allclose(deep.graph.embeddings, g.embeddings[::4])


class TestFullForward:
    def test_matches_dense_loop_reference(self):
        # 20 seeded parameter draws on N=12, clustering disabled (k = 1) and enabled
        g = make_graph(n=12, d=5, seed=1)
        dims = ModelDims(d_in=5, d_h=7, d_a=6, d_t=5, stages=3, layers=2)
        worst = 0.0
        for seed in range(20):
            params = init_params(dims, seed=seed)
            trace = forward(g, params, k=2 if seed % 2 == 0 else 1, seed=seed)
            want = forward_ref(g, params, [s.partition for s in trace.stages])
            worst = max(worst, float(np.max(np.abs(trace.output - want))))
        assert worst <= 1e-9

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_dense_loop_reference_irregular_times(self, k):
        # Irregular timestamps give many distinct dt values per stage, and up
        # to four groups leave each group's nodes scattered in time.
        worst = 0.0
        for seed in range(6):
            rng = np.random.default_rng(100 * k + seed)
            n = int(rng.integers(12, 30))
            times = np.cumsum(rng.uniform(0.05, 0.9, n))
            g = build_graph(FeatureSequence("v", times, rng.standard_normal((n, 5))), 1.0)
            params = init_params(ModelDims(d_in=5, d_h=6, d_a=6, d_t=5, stages=3, layers=2))
            params = params.with_vector(rng.uniform(-1.0, 1.0, params.num_params))
            trace = forward(g, params, k=k, seed=seed)
            want = forward_ref(g, params, [s.partition for s in trace.stages])
            worst = max(worst, float(np.max(np.abs(trace.output - want))))
        assert worst <= 1e-9

    def test_output_rows_match_input(self):
        dims = ModelDims(d_in=3, d_h=4, d_a=4, d_t=3, stages=3, layers=1)
        params = init_params(dims, seed=0)
        for n in (1, 2, 5, 9):
            g = make_graph(n=n, d=3, seed=n)
            trace = forward(g, params, k=2, seed=0)
            assert trace.output.shape == (n, 4)

    def test_temporal_shift_equivariance(self):
        g = make_graph(n=10, d=4, spacing=0.5, seed=3)
        shifted = build_graph(
            FeatureSequence("v", g.timestamps + 1000.0, g.embeddings), 1.0)
        params = init_params(ModelDims(d_in=4, d_h=6, d_a=6, d_t=4, stages=3, layers=2), seed=5)
        a = forward(g, params, k=2, seed=0)
        b = forward(shifted, params, k=2, seed=0)
        assert np.max(np.abs(a.output - b.output)) <= 1e-12

    def test_no_cluster_equals_k_one(self):
        g = make_graph(n=9, d=4, seed=6)
        params = init_params(ModelDims(d_in=4, d_h=5, d_a=5, d_t=4, stages=2, layers=2), seed=2)
        # k = 1 is the one way to say "no clustering": one group per stage
        one = forward(g, params, k=1, seed=0)
        single = [PartitionResult(np.zeros(s.graph.num_nodes, dtype=np.intp), 0.0)
                  for s in one.stages]
        off = forward(g, params, fixed_partitions=single)
        for got, want in zip(one.stages, single):
            assert np.array_equal(got.partition.assignments, want.assignments)
        assert np.array_equal(off.output, one.output)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_rejected(self, k):
        g = make_graph(n=9, d=4, seed=6)
        params = init_params(ModelDims(d_in=4, d_h=5, d_a=5, d_t=4, stages=2, layers=2), seed=2)
        with pytest.raises(ClusteringError):
            forward(g, params, k=k)

    def test_identity_layers_give_interpolated_lateral_sum(self):
        g = make_graph(n=8, d=4, seed=7)
        dims = ModelDims(d_in=4, d_h=4, d_a=4, d_t=4, stages=2, layers=1)
        params = identity_params(dims)
        trace = forward(g, params, k=1, seed=0)
        deep, shallow = (s.graph for s in trace.stages)
        fused = shallow.embeddings + (
            interpolation_matrix(deep.timestamps, shallow.timestamps) @ deep.embeddings)
        expected = interpolation_matrix(shallow.timestamps, g.timestamps) @ fused
        assert np.allclose(trace.output, expected, atol=1e-12)

    def test_planted_two_threads_partition_quality(self):
        ds = generate(SynthSpec(num_threads=2, segments_per_step=40, dim=16,
                                separation=10.0, seed=11))
        g = build_graph(ds.sequence, 1.0)
        params = identity_params(ModelDims(d_in=16, d_h=16, d_a=16, d_t=16))
        trace = forward(g, params, k=2, seed=0)
        # every decoder stage's partition should recover the planted threads
        for stage in trace.stages:
            gt = ds.planted.thread_labels[
                nearest_indices(g.timestamps, stage.graph.timestamps)]
            assert adjusted_rand_index(stage.partition.assignments, gt) >= 0.9


class TestBatchForward:
    """A batch graph (the disjoint union of several videos) runs each layer
    once for the whole batch; every video's rows are still its own pass."""

    @given(st.lists(st.sampled_from([1, 2, 3, 7, 16]), min_size=1, max_size=5),
           st.sampled_from([1, 2, 9]), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_each_video_matches_its_own_forward(self, sizes, k, seed):
        rng = np.random.default_rng(seed)
        graphs = []
        for n in sizes:
            times = rng.uniform(0.0, 3.0) + np.cumsum(rng.uniform(0.05, 0.9, n))
            graphs.append(build_graph(FeatureSequence("v", times, rng.standard_normal((n, 4))),
                                      1.0))
        params = init_params(ModelDims(d_in=4, d_h=5, d_a=5, d_t=4, stages=3, layers=2))
        params = params.with_vector(rng.uniform(-1.0, 1.0, params.num_params))
        union = disjoint_union(graphs)
        trace = forward(union, params, k=k, seed=seed % 7)
        assert trace.output.shape == (sum(sizes), 5)
        for i, (g, rows) in enumerate(zip(graphs, union.video_rows())):
            alone = forward(g, params, k=k, seed=seed % 7)
            for stage, own in zip(trace.stages, alone.stages):
                video = split_videos(stage.graph)[i]
                assert video.num_nodes == own.graph.num_nodes
                assert np.array_equal(video.timestamps, own.graph.timestamps)
            partitions = [PartitionResult(s.partition.assignments[s.graph.video_rows()[i]], 0.0)
                          for s in trace.stages]
            want = forward_ref(g, params, partitions)
            assert np.max(np.abs(trace.output[rows] - want)) <= 1e-9

    def test_each_video_is_partitioned_on_its_own(self):
        # two planted videos with different thread embeddings: clustering the
        # whole batch at once would split it by video instead of by thread
        specs = [SynthSpec(num_threads=2, segments_per_step=20, dim=16, separation=10.0,
                           seed=seed) for seed in (11, 12)]
        sets = [generate(spec) for spec in specs]
        graphs = [build_graph(ds.sequence, 1.0) for ds in sets]
        params = identity_params(ModelDims(d_in=16, d_h=16, d_a=16, d_t=16))
        trace = forward(disjoint_union(graphs), params, k=2, seed=0)
        for stage in trace.stages:
            for ds, g, rows in zip(sets, graphs, stage.graph.video_rows()):
                times = stage.graph.timestamps[rows]
                gt = ds.planted.thread_labels[nearest_indices(g.timestamps, times)]
                assert adjusted_rand_index(stage.partition.assignments[rows], gt) >= 0.9

    def test_one_video_union_is_the_plain_forward(self):
        g = make_graph(n=13, d=4, seed=8)
        params = init_params(ModelDims(d_in=4, d_h=5, d_a=5, d_t=4, stages=3, layers=2), seed=1)
        a = forward(g, params, k=2, seed=0)
        b = forward(disjoint_union([g]), params, k=2, seed=0)
        assert a.output.tobytes() == b.output.tobytes()
        for x, y in zip(a.stages, b.stages):
            assert np.array_equal(x.partition.assignments, y.partition.assignments)
            assert x.partition.eigengap == y.partition.eigengap

