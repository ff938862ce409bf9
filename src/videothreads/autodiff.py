"""Minimal reverse-mode automatic differentiation over numpy arrays.

Covers the operations a training step records outside its TDGC layers and
losses: addition, the fused affine map ``affine``, row gather ``take_rows``
(whose gradient is the ndarray scatter-add ``segment_sum``) and
``l2_normalize_rows``. Every op node is built by ``joint_node``: a node
whose operands' gradients all come from one function, such as a TDGC layer,
a training loss computed a block at a time, or a graph interpolation.
The helpers dispatch on type, so the same forward code runs on plain
ndarrays when no gradient is wanted. Only Var operands are recorded on the
tape: an ndarray or scalar operand is a constant and gets no node.
"""

from __future__ import annotations

import functools
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


def joint_node(out, operands, grads):
    """A Var over ``out`` whose parents are the Var ``operands``, in order;
    ``out`` itself when no operand is a Var. ``grads(g)`` returns one
    gradient per operand (any value, such as None, for one that is no Var),
    and the node keeps it as its backward function."""
    recorded = [i for i, operand in enumerate(operands) if isinstance(operand, Var)]
    if not recorded:
        return out
    backward = grads
    if len(recorded) < len(operands):

        @functools.wraps(grads)  # the node keeps its op's name
        def backward(g):
            parts = grads(g)
            return tuple(parts[i] for i in recorded)

    return Var(out, tuple(operands[i] for i in recorded), backward)


class Var:
    """A node in the computation graph wrapping a float64 array: a leaf, or
    an op node whose ``_backward(g)`` returns one gradient per parent."""

    __slots__ = ("value", "grad", "_parents", "_backward")
    __array_ufunc__ = None  # make numpy defer binary ops to us

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        b = value(other)
        return joint_node(self.value + b, (self, other),
                          lambda g: (_unbroadcast(g, self.shape), _unbroadcast(g, b.shape)))

    __radd__ = __add__

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
            if g is None or not node._parents:
                continue
            for parent, contribution in zip(node._parents, node._backward(g)):
                if parent.grad is None:
                    # C order matters: BLAS sums F-ordered operands differently
                    parent.grad = np.asarray(contribution, order="C")
                else:
                    parent.grad = parent.grad + contribution
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

    def grads(g):
        return (g @ wv.T if isinstance(x, Var) else None, xv.T @ g, _unbroadcast(g, bv.shape))

    return joint_node(out, (x, w, b), grads)


def take_rows(x, idx: np.ndarray):
    """Gather ``x[idx]`` along the first axis; ``idx`` may repeat rows."""
    if not isinstance(x, Var):
        return x[idx]
    n = x.shape[0]
    return joint_node(x.value[idx], (x,), lambda g: (segment_sum(g, idx, n),))


def segment_sum(x: np.ndarray, seg: np.ndarray, n: int) -> np.ndarray:
    """Scatter-add: row s of the (n, ...) result sums the rows r of ``x`` with
    ``seg[r] == s``; segments no row maps to stay zero."""
    # one bincount over (segment, column) cells sums each cell's rows in
    # row order, starting from 0.0, like a row-by-row scatter-add loop
    x = np.asarray(x, dtype=np.float64)
    width = math.prod(x.shape[1:])
    cells = (np.asarray(seg)[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(cells, weights=x.reshape(-1), minlength=n * width)
    return out.reshape((n,) + x.shape[1:])


def l2_normalize_rows(x):
    """Rows scaled to unit norm, as one node (an ndarray for an ndarray);
    a tiny floor keeps zero rows finite. Forward and backward do the
    arithmetic of the row norm composed of nodes (``x * x``, a row sum, the
    floor, sqrt, the division), in its order, so both keep its bytes."""
    xv = value(x)
    norm = np.sqrt(np.sum(xv * xv, axis=1, keepdims=True) + 1e-30)
    out = xv / norm
    if not isinstance(x, Var):
        return out

    def grads(g):
        # the division's share, then the square's two, one per operand
        d_sq = 0.5 * _unbroadcast(-g * out / norm, norm.shape) / norm
        c = d_sq * xv
        return ((g / norm + c) + c,)

    return joint_node(out, (x,), grads)
