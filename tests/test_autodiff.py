import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_impl import (
    backward_ref,
    l2_normalize_rows_composed,
    relu,
    segment_sum_ref,
    vexp,
    vlog,
    vsegment_sum,
    vsqrt,
    vsum,
)
from videothreads.autodiff import (
    Var,
    _topological_order,
    affine,
    l2_normalize_rows,
    segment_sum,
    take_rows,
    value,
)


def finite_difference_check(fn, shapes, seed=0, eps=1e-6, tol=1e-7):
    """Compare analytic gradients of a scalar-valued fn against central FD."""
    rng = np.random.default_rng(seed)
    base = [rng.standard_normal(s) for s in shapes]
    variables = [Var(b.copy()) for b in base]
    fn(*variables).backward()
    worst = 0.0
    for k, arr in enumerate(base):
        grad = variables[k].grad
        grad = np.zeros_like(arr) if grad is None else grad
        flat = arr.ravel()
        gflat = np.asarray(grad).ravel()
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + eps
            up = float(value(fn(*[Var(b) for b in base])))
            flat[idx] = keep - eps
            down = float(value(fn(*[Var(b) for b in base])))
            flat[idx] = keep
            numeric = (up - down) / (2 * eps)
            worst = max(worst, abs(numeric - gflat[idx]) / max(1.0, abs(numeric)))
    assert worst <= tol, worst


def test_matmul_bias_relu():
    finite_difference_check(lambda a, w, b: vsum(relu(a @ w + b)), [(3, 4), (4, 5), (5,)])


def test_constant_left_matmul_and_transpose():
    weights = np.arange(8.0).reshape(2, 4)
    finite_difference_check(
        lambda w: vsum(weights @ w) + vsum(w.T @ np.ones((4, 2))), [(4, 3)])


def test_exp_log_div():
    finite_difference_check(lambda a, b: vsum(vlog(vexp(a) / (vexp(b) + 1.0))),
                            [(3, 3), (3, 3)])


def test_row_normalization():
    scale = np.arange(12.0).reshape(4, 3)
    finite_difference_check(lambda x: vsum(l2_normalize_rows(x) * scale), [(4, 3)])


def test_sqrt_keepdims_sum():
    finite_difference_check(
        lambda x: vsum(vsqrt(vsum(x * x, axis=1, keepdims=True) + 1.0)), [(4, 3)])


def test_axis_sums_and_broadcast():
    col = np.arange(4.0).reshape(4, 1)
    finite_difference_check(lambda x: vsum(vsum(x, axis=0) * np.arange(3.0))
                            + vsum((col * x) * x), [(4, 3)])


def test_rsub_rdiv_neg():
    finite_difference_check(lambda x: vsum(1.0 - x) + vsum(2.0 / (vexp(x) + 3.0)) + vsum(-x * x),
                            [(3, 3)])


def test_take_rows_repeated_indices():
    idx = np.array([2, 0, 2, 2, 1])  # row 3 is never taken; row 2 three times
    weights = np.arange(15.0).reshape(5, 3)
    finite_difference_check(lambda x: vsum(take_rows(x, idx) * weights), [(4, 3)])


def test_segment_sum_empty_segments():
    seg = np.array([3, 0, 3, 5])  # segments 1, 2 and 4 receive no row
    weights = np.arange(18.0).reshape(6, 3) - 7.0
    finite_difference_check(lambda x: vsum(vexp(vsegment_sum(x, seg, 6)) * weights), [(4, 3)])


def test_gather_scatter_values():
    x = np.arange(8.0).reshape(4, 2)
    idx = np.array([3, 1, 3])
    assert np.array_equal(take_rows(x, idx), x[idx])
    summed = segment_sum(x, np.array([2, 2, 0, 2]), 4)
    assert np.array_equal(summed, [[4.0, 5.0], [0.0, 0.0], [8.0, 11.0], [0.0, 0.0]])
    assert np.array_equal(vsegment_sum(Var(x), np.array([2, 2, 0, 2]), 4).value, summed)
    assert np.array_equal(take_rows(Var(x), idx).value, x[idx])


@st.composite
def scatter_inputs(draw):
    """Rows of shape (), (1,) or (3,) over up to 6 segments; segment ids
    repeat, come unsorted and leave segments empty, and the values include
    -0.0 and large opposite-signed pairs, so both the order of the sums and
    their starting 0.0 show in the result bytes."""
    n = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.integers(min_value=0, max_value=12))
    seg = np.array(draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                 min_size=rows, max_size=rows)), dtype=np.intp)
    tail = draw(st.sampled_from([(), (1,), (3,)]))
    size = rows * math.prod(tail)
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16]),
                       st.floats(min_value=-1e6, max_value=1e6))
    x = np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=np.float64)
    return x.reshape((rows,) + tail), seg, n


@given(case=scatter_inputs())
@settings(max_examples=300, deadline=None)
def test_segment_sum_matches_scatter_add_oracle(case):
    x, seg, n = case
    out = segment_sum(x, seg, n)
    ref = segment_sum_ref(x, seg, n)
    assert out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()  # array_equal would let -0.0 pass for 0.0


def test_diamond_graph_gradient_accumulates():
    x = Var(np.array([2.0]))
    y = x * 3.0
    z = y + y * y  # x reaches the output along two paths
    z.backward()
    # d/dx (3x + 9x^2) = 3 + 18x = 39
    assert x.grad[0] == pytest.approx(39.0)


def test_backward_requires_scalar():
    x = Var(np.ones((2, 2)))
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_repeated_backward_resets_grads():
    x = Var(np.array([1.5]))
    loss = x * x
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    assert np.array_equal(x.grad, first)


TAPE_OPS = ("square", "add", "transpose", "affine", "relu", "take_rows", "segment_sum")


@st.composite
def random_tapes(draw):
    """A scalar root over a random tape and the leaves it was built from.

    Each step applies one op to a node drawn from everything built so far;
    ``add`` joins two nodes of one shape (the same node twice, or two that
    share ancestors, is a diamond), and the root sums weighted copies of up
    to three nodes, so a node can feed several consumers."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    leaves = []

    def leaf(shape):
        leaves.append(Var(rng.standard_normal(shape)))
        return leaves[-1]

    def size():
        return draw(st.integers(min_value=1, max_value=4))

    pool = [leaf((size(), size()))]
    for op in draw(st.lists(st.sampled_from(TAPE_OPS), min_size=1, max_size=12)):
        x = pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
        rows, cols = x.shape
        if op == "square":
            y = x * x
        elif op == "add":
            same = [p for p in pool if p.shape == x.shape]
            y = x + same[draw(st.integers(min_value=0, max_value=len(same) - 1))]
        elif op == "transpose":
            y = x.T
        elif op == "affine":
            width = size()
            y = affine(x, leaf((cols, width)), leaf((width,)))
        elif op == "relu":
            y = relu(x)
        elif op == "take_rows":
            y = take_rows(x, rng.integers(0, rows, size=size()))
        else:
            n = size()
            y = vsegment_sum(x, rng.integers(0, n, size=rows), n)
        pool.append(y)
    picks = draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1),
                          min_size=1, max_size=3))
    root = None
    for i in picks:
        term = vsum(pool[i] * rng.standard_normal(pool[i].shape))
        root = term if root is None else root + term
    return root, leaves


def leaf_grads(leaves):
    return [None if v.grad is None else (v.grad.shape, v.grad.tobytes()) for v in leaves]


@given(tape=random_tapes())
@settings(max_examples=200, deadline=None)
def test_backward_keeps_the_oracle_leaf_grads_and_drops_the_rest(tape):
    root, leaves = tape
    backward_ref(root)
    expected = leaf_grads(leaves)
    root.backward()
    assert leaf_grads(leaves) == expected
    assert all(node.grad is None for node in _topological_order(root) if node._parents)
    root.backward()
    assert leaf_grads(leaves) == expected


def test_value_passthrough():
    arr = np.ones(3)
    assert value(arr) is not None
    assert np.array_equal(value(Var(arr)), arr)
    assert isinstance(relu(arr), np.ndarray)
    assert isinstance(vsum(arr), np.floating) or np.isscalar(vsum(arr))


@pytest.mark.parametrize("build", [
    lambda a, b, c: a * b + c,
    lambda a, b, c: b @ a,
    lambda a, b, c: (c - a) / b - b @ a.T.T,
])
def test_constant_operands_stay_off_the_tape(build):
    rng = np.random.default_rng(0)
    b = rng.standard_normal((3, 3))
    c = rng.standard_normal((3, 3))
    a = Var(rng.standard_normal((3, 3)))
    root = vsum(build(a, b, c))
    assert [node for node in _topological_order(root) if not node._parents] == [a]
    root.backward()
    assert a.grad.shape == a.shape


def test_gradient_through_transpose_only_is_c_ordered():
    weights = np.arange(12.0).reshape(4, 3)
    x = Var(np.ones((3, 4)))
    vsum(x.T * weights).backward()
    assert x.grad.flags.c_contiguous
    assert np.array_equal(x.grad, weights.T)


@pytest.mark.parametrize("is_var", list(itertools.product([False, True], repeat=3)))
def test_affine_is_matmul_plus_bias_bit_for_bit(is_var):
    rng = np.random.default_rng(1)
    arrays = [rng.standard_normal((5, 3)), rng.standard_normal((3, 4)), rng.standard_normal(4)]
    weights = rng.standard_normal((5, 4))

    def operands():
        return [Var(arr) if v else arr for arr, v in zip(arrays, is_var)]

    fused_ops, ref_ops = operands(), operands()
    fused = affine(*fused_ops)
    ref = ref_ops[0] @ ref_ops[1] + ref_ops[2]
    assert value(fused).tobytes() == value(ref).tobytes()
    if not any(is_var):
        assert type(fused) is np.ndarray
        return
    vsum(vexp(fused) * weights).backward()
    vsum(vexp(ref) * weights).backward()
    for f, r in zip(fused_ops, ref_ops):
        if isinstance(f, Var):
            assert f.grad.shape == r.grad.shape
            assert f.grad.tobytes() == r.grad.tobytes()


@st.composite
def normalize_inputs(draw):
    """One row or a batch of rows, some of them zero, holding -0.0 and
    entries of very different scales, and a random upstream gradient."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = draw(st.sampled_from([1, 2, 9]))
    cols = draw(st.integers(min_value=1, max_value=5))
    x = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-3, 4, size=(rows, 1))
    x[rng.random(x.shape) < 0.2] = -0.0
    x[rng.random(rows) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    return x, rng.standard_normal(x.shape)


@given(case=normalize_inputs())
@settings(max_examples=200, deadline=None, derandomize=True)
@example(case=(np.zeros((1, 3)), np.array([[1.0, -2.0, 0.5]])))
@example(case=(np.array([[3.0, 4.0], [0.0, -0.0]]), np.array([[1.0, 2.0], [3.0, 4.0]])))
def test_row_normalization_node_matches_the_composed_rows_bit_for_bit(case):
    x, upstream = case
    assert l2_normalize_rows(x).tobytes() == l2_normalize_rows_composed(x).tobytes()
    results = []
    for normalize in (l2_normalize_rows, l2_normalize_rows_composed):
        leaf = Var(x)
        out = normalize(leaf)
        vsum(out * upstream).backward()
        results.append((out.value.tobytes(), leaf.grad.tobytes()))
    assert results[0] == results[1]
    assert np.all(np.isfinite(np.frombuffer(results[0][1])))
