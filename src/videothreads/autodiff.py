"""Minimal reverse-mode automatic differentiation over numpy arrays.

Covers exactly the operations the network forward pass and the contrastive
losses need (2-D matmul, broadcast arithmetic, relu, exp/log/sqrt, axis
sums, row gather and row scatter-add). The helper functions dispatch on type,
so the same forward code runs on plain ndarrays when no gradient is wanted.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    grad = np.asarray(grad)
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Var:
    """A node in the computation graph wrapping a float64 array."""

    __slots__ = ("value", "grad", "_parents", "_grad_fns")
    __array_ufunc__ = None  # make numpy defer binary ops to us

    def __init__(self, value, parents=(), grad_fns=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._grad_fns = grad_fns

    @property
    def shape(self):
        return self.value.shape

    @property
    def T(self) -> "Var":
        return Var(self.value.T, (self,), (lambda g: g.T,))

    def item(self) -> float:
        return float(self.value)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_var(other)
        return Var(
            self.value + other.value,
            (self, other),
            (lambda g: _unbroadcast(g, self.shape), lambda g: _unbroadcast(g, other.shape)),
        )

    __radd__ = __add__

    def __neg__(self):
        return Var(-self.value, (self,), (lambda g: -g,))

    def __sub__(self, other):
        return self + (-as_var(other))

    def __rsub__(self, other):
        return as_var(other) + (-self)

    def __mul__(self, other):
        other = as_var(other)
        return Var(
            self.value * other.value,
            (self, other),
            (
                lambda g: _unbroadcast(g * other.value, self.shape),
                lambda g: _unbroadcast(g * self.value, other.shape),
            ),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_var(other)
        out = self.value / other.value
        return Var(
            out,
            (self, other),
            (
                lambda g: _unbroadcast(g / other.value, self.shape),
                lambda g: _unbroadcast(-g * out / other.value, other.shape),
            ),
        )

    def __rtruediv__(self, other):
        return as_var(other) / self

    def __matmul__(self, other):
        other = as_var(other)
        return Var(
            self.value @ other.value,
            (self, other),
            (lambda g: g @ other.value.T, lambda g: self.value.T @ g),
        )

    def __rmatmul__(self, other):
        return as_var(other) @ self

    # -- backward pass ------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad across the graph.

        ``self`` must be scalar-valued. Grads are reset on every node this
        graph reaches before accumulation starts.
        """
        if self.value.size != 1:
            raise ValueError("backward() requires a scalar root")
        order = _topological_order(self)
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node.grad is None:
                continue
            for parent, fn in zip(node._parents, node._grad_fns):
                contribution = fn(node.grad)
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.value)
                parent.grad = parent.grad + contribution


def _topological_order(root: Var) -> list[Var]:
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def value(x) -> np.ndarray:
    """Underlying ndarray of a Var, or ``x`` itself."""
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


# -- dispatching element-wise helpers ---------------------------------------


def relu(x):
    if isinstance(x, Var):
        mask = x.value > 0.0
        return Var(np.where(mask, x.value, 0.0), (x,), (lambda g: g * mask,))
    return np.maximum(x, 0.0)


def vexp(x):
    if isinstance(x, Var):
        out = np.exp(x.value)
        return Var(out, (x,), (lambda g: g * out,))
    return np.exp(x)


def vlog(x):
    if isinstance(x, Var):
        return Var(np.log(x.value), (x,), (lambda g: g / x.value,))
    return np.log(x)


def vsqrt(x):
    if isinstance(x, Var):
        out = np.sqrt(x.value)
        return Var(out, (x,), (lambda g: 0.5 * g / out,))
    return np.sqrt(x)


def vsum(x, axis=None, keepdims: bool = False):
    if isinstance(x, Var):
        out = np.sum(x.value, axis=axis, keepdims=keepdims)
        shape = x.shape

        def grad_fn(g):
            if axis is None:
                return np.broadcast_to(g, shape).copy()
            if not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, shape).copy()

        return Var(out, (x,), (grad_fn,))
    return np.sum(x, axis=axis, keepdims=keepdims)


def take_rows(x, idx: np.ndarray):
    """Gather ``x[idx]`` along the first axis; ``idx`` may repeat rows."""
    if isinstance(x, Var):
        n = x.shape[0]
        return Var(x.value[idx], (x,), (lambda g: segment_sum(g, idx, n),))
    return x[idx]


def segment_sum(x, seg: np.ndarray, n: int):
    """Scatter-add: row s of the (n, ...) result sums the rows r of ``x`` with
    ``seg[r] == s``; segments no row maps to stay zero."""
    if isinstance(x, Var):
        return Var(segment_sum(x.value, seg, n), (x,), (lambda g: g[seg],))
    out = np.zeros((n,) + x.shape[1:])
    np.add.at(out, seg, x)
    return out


def l2_normalize_rows(x):
    """Rows scaled to unit norm; a tiny floor keeps zero rows finite."""
    sq = vsum(x * x, axis=1, keepdims=True)
    return x / vsqrt(sq + 1e-30)
