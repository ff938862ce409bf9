"""Minimal reverse-mode automatic differentiation over numpy arrays.

Covers the operations the network forward pass needs outside its TDGC
layers (2-D matmul, the fused affine map ``affine``, broadcast arithmetic,
sqrt, axis sums, row gather and row scatter-add), and ``joint_node`` for a
node whose operands' gradients come from one function, such as a TDGC layer
or a training loss computed a block at a time.
The helper functions dispatch on type, so the same forward code runs on
plain ndarrays when no gradient is wanted. Only Var operands are recorded on
the tape: an ndarray or scalar operand is a constant and gets no node.
"""

from __future__ import annotations

import math

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    grad = np.asarray(grad)
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def node(out, *operands) -> "Var":
    """A Var over ``out`` whose parents are the Var operands among the
    ``(operand, grad_fn)`` pairs; the other operands are constants."""
    recorded = [pair for pair in operands if isinstance(pair[0], Var)]
    return Var(out, tuple(p for p, _ in recorded), tuple(fn for _, fn in recorded))


def joint_node(out, operands, grads):
    """A Var over ``out`` whose gradients for all ``operands`` come from one
    call ``grads(g)``, which returns one gradient per operand; ``out`` itself
    when no operand is a Var. The first of the node's grad functions that
    ``backward`` calls makes that call, and each one hands on its own part."""
    recorded = [i for i, operand in enumerate(operands) if isinstance(operand, Var)]
    if not recorded:
        return out
    held: dict[int, np.ndarray] = {}

    def part(i):
        def grad_fn(g):
            if not held:
                every = grads(g)
                held.update((j, every[j]) for j in recorded)
            return held.pop(i)

        return grad_fn

    return Var(out, tuple(operands[i] for i in recorded), tuple(part(i) for i in recorded))


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

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        b = value(other)
        return node(self.value + b,
                    (self, lambda g: _unbroadcast(g, self.shape)),
                    (other, lambda g: _unbroadcast(g, b.shape)))

    __radd__ = __add__

    def __neg__(self):
        return Var(-self.value, (self,), (lambda g: -g,))

    def __sub__(self, other):
        b = value(other)
        return node(self.value - b,
                    (self, lambda g: _unbroadcast(g, self.shape)),
                    (other, lambda g: -_unbroadcast(g, b.shape)))

    def __rsub__(self, other):
        return Var(value(other) - self.value, (self,),
                   (lambda g: -_unbroadcast(g, self.shape),))

    def __mul__(self, other):
        b = value(other)
        return node(self.value * b,
                    (self, lambda g: _unbroadcast(g * b, self.shape)),
                    (other, lambda g: _unbroadcast(g * self.value, b.shape)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = value(other)
        out = self.value / b
        return node(out,
                    (self, lambda g: _unbroadcast(g / b, self.shape)),
                    (other, lambda g: _unbroadcast(-g * out / b, b.shape)))

    def __rtruediv__(self, other):
        out = value(other) / self.value
        return Var(out, (self,), (lambda g: _unbroadcast(-g * out / self.value, self.shape),))

    def __matmul__(self, other):
        b = value(other)
        return node(self.value @ b,
                    (self, lambda g: g @ b.T),
                    (other, lambda g: self.value.T @ g))

    def __rmatmul__(self, other):
        a = value(other)
        return Var(a @ self.value, (self,), (lambda g: a.T @ g,))

    # -- backward pass ------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into the leaves' .grad.

        ``self`` must be scalar-valued. Grads are reset on every node this
        graph reaches before accumulation starts. A node's first incoming
        contribution becomes its C-ordered .grad and later ones are added to
        it, so a node's contributions sum in reverse visit order. A node with
        parents drops its .grad once it has passed it on, so afterwards only
        the leaves hold one; the tape stays, and calling ``backward`` again
        gives the same leaf grads.
        """
        if self.value.size != 1:
            raise ValueError("backward() requires a scalar root")
        order = _topological_order(self)
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            g = node.grad
            if g is None:
                continue
            for parent, fn in zip(node._parents, node._grad_fns):
                contribution = fn(g)
                if parent.grad is None:
                    # C order matters: BLAS sums F-ordered operands differently
                    parent.grad = np.asarray(contribution, order="C")
                else:
                    parent.grad = parent.grad + contribution
            if node._parents:
                node.grad = None


def _topological_order(root: Var) -> list[Var]:
    """Nodes reachable from ``root``, every node after its parents, in the
    post-order of a depth-first walk that visits a node's parents last to
    first. Shared leaves sum their contributions in this order."""
    order: list[Var] = []
    seen: set[Var] = set()
    append, mark = order.append, seen.add
    stack: list[tuple[Var, bool]] = [(root, False)]
    push, pop = stack.append, stack.pop
    while stack:
        node, expanded = pop()
        if expanded:
            append(node)
            continue
        if node in seen:
            continue
        mark(node)
        push((node, True))
        for parent in node._parents:
            if parent not in seen:
                push((parent, False))
    return order


def value(x) -> np.ndarray:
    """Underlying ndarray of a Var, or ``x`` itself."""
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def affine(x, w, b):
    """``x @ w + b`` as one node (an ndarray when no operand is a Var)."""
    xv, wv, bv = value(x), value(w), value(b)
    out = xv @ wv
    out += bv  # in place: one fresh array per call, not two
    if not isinstance(x, Var) and not isinstance(w, Var) and not isinstance(b, Var):
        return out
    return node(out,
                (x, lambda g: g @ wv.T),
                (w, lambda g: xv.T @ g),
                (b, lambda g: _unbroadcast(g, bv.shape)))


# -- dispatching element-wise helpers ---------------------------------------


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
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, shape)

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
    # one bincount over (segment, column) cells sums each cell's rows in
    # row order, starting from 0.0, like a row-by-row scatter-add loop
    x = np.asarray(x, dtype=np.float64)
    width = math.prod(x.shape[1:])
    cells = (np.asarray(seg)[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(cells, weights=x.reshape(-1), minlength=n * width)
    return out.reshape((n,) + x.shape[1:])


def l2_normalize_rows(x):
    """Rows scaled to unit norm; a tiny floor keeps zero rows finite."""
    sq = vsum(x * x, axis=1, keepdims=True)
    return x / vsqrt(sq + 1e-30)
