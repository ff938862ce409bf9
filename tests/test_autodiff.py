import numpy as np
import pytest

from videothreads.autodiff import (
    Var,
    l2_normalize_rows,
    relu,
    segment_sum,
    take_rows,
    value,
    vexp,
    vlog,
    vsqrt,
    vsum,
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
    finite_difference_check(lambda x: vsum(vexp(segment_sum(x, seg, 6)) * weights), [(4, 3)])


def test_gather_scatter_values():
    x = np.arange(8.0).reshape(4, 2)
    idx = np.array([3, 1, 3])
    assert np.array_equal(take_rows(x, idx), x[idx])
    summed = segment_sum(x, np.array([2, 2, 0, 2]), 4)
    assert np.array_equal(summed, [[4.0, 5.0], [0.0, 0.0], [8.0, 11.0], [0.0, 0.0]])
    assert np.array_equal(segment_sum(Var(x), np.array([2, 2, 0, 2]), 4).value, summed)
    assert np.array_equal(take_rows(Var(x), idx).value, x[idx])


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


def test_value_passthrough():
    arr = np.ones(3)
    assert value(arr) is not None
    assert np.array_equal(value(Var(arr)), arr)
    assert isinstance(relu(arr), np.ndarray)
    assert isinstance(vsum(arr), np.floating) or np.isscalar(vsum(arr))
