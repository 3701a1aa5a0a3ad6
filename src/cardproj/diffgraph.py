"""Reverse-mode automatic differentiation over dense vectors and matrices.

The engine is deliberately small.  A :class:`Tape` records nodes in
construction order, which is already a topological order of the computation
graph, so :meth:`Tape.backward` can seed the root adjoint and sweep the node
list in reverse, letting each node push its adjoint into its parents through
a closure captured at construction time.

A value enters a tape as a leaf (:meth:`Tape.leaf`, a checked float64 copy
of a value from outside), as a constant (:meth:`Tape.constant`, shared as it
is, never given an adjoint) or bound as ``Var(tape, buffer)``, which shares a
float64 buffer the caller owns, as a model's parameters do.  Shared arrays
must not change while the tape is live.  An adjoint is zero-filled the first
time it is touched, and the sweep skips nodes nothing reached.  The tape
holds its nodes weakly, so reference counting frees a finished graph.

All buffers are float64.  Unrolled inference stacks dozens of projection
layers on a single tape, and anything less than double precision loses too
much gradient fidelity for finite-difference verification.

A tape is single-writer: build and differentiate it from one thread.
Independent tapes share nothing and may be used concurrently.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = [
    "Tape",
    "Var",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "scale",
    "shift",
    "relu",
    "sigmoid",
    "clip",
    "clip01",
    "softmax",
    "log",
    "logsumexp",
    "dot",
    "vsum",
    "pick",
    "cumsum",
    "sort_desc",
    "matvec",
    "matvec_t",
    "matvec_sparse",
]


class Var:
    """A node on a tape: a value buffer, an adjoint buffer, a backward closure."""

    __slots__ = ("tape", "value", "_adjoint", "_index", "_backward", "__weakref__")

    def __init__(self, tape: "Tape", value: np.ndarray, backward=None):
        self.tape = tape
        self.value = value
        self._adjoint = None
        self._backward = backward
        self._index = len(tape._nodes)
        tape._nodes.append(weakref.ref(self))

    @property
    def adjoint(self) -> np.ndarray:
        """The adjoint of the last sweep, zero-filled when first touched."""
        adjoint = self._adjoint
        if adjoint is None:
            adjoint = self._adjoint = np.zeros(self.value.shape)
        return adjoint

    @adjoint.setter
    def adjoint(self, value):
        self._adjoint = value

    @property
    def shape(self):
        return self.value.shape

    def __len__(self):
        return self.value.shape[0]

    def __add__(self, other):
        if isinstance(other, Var):
            return add(self, other)
        return shift(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Var):
            return sub(self, other)
        return shift(self, -float(other))

    def __rsub__(self, other):
        return shift(neg(self), float(other))

    def __mul__(self, other):
        if isinstance(other, Var):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Var):
            return div(self, other)
        return scale(self, 1.0 / float(other))

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"Var(shape={self.value.shape}, node={self._index})"


class _Constant(Var):
    """A node that keeps no adjoint: what a consumer adds into it is dropped."""

    __slots__ = ()
    _adjoint = property(lambda self: None, lambda self, value: None)


class Tape:
    """Ordered record of one computation, ready for a reverse sweep."""

    def __init__(self):
        self._nodes: list[weakref.ref] = []  # a node lives as long as its users

    def __len__(self):
        return len(self._nodes)

    def leaf(self, value) -> Var:
        """Record an input node.  The tape owns a float64 copy of the value."""
        arr = np.array(value, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("leaf value must be finite")
        return Var(self, arr)

    def constant(self, value) -> Var:
        """Record a value as it is, with no copy, no check and no adjoint.

        Wrapping a Var's current value in a constant detaches it from the
        graph.
        """
        return _Constant(self, np.asarray(value, dtype=np.float64))

    def backward(self, root: Var, seed=1.0) -> None:
        """Accumulate adjoints of every node with respect to ``root``.

        ``seed`` is the adjoint assigned to the root (a scalar broadcasts
        over vector roots).  Adjoint buffers are reset on every call, so
        repeated sweeps do not accumulate across calls.
        """
        if root.tape is not self:
            raise ValueError("root lives on a different tape")
        nodes = [ref() for ref in self._nodes]
        for node in nodes:
            if node is not None:
                node._adjoint = None
        root.adjoint = root.adjoint + np.asarray(seed, dtype=np.float64)
        for node in nodes[root._index :: -1]:
            if node is not None and node._adjoint is not None and node._backward is not None:
                node._backward(node._adjoint)


def _reduce_to(grad: np.ndarray, shape: tuple) -> np.ndarray:
    # undo scalar-to-vector broadcasting in the backward direction
    if grad.shape == shape:
        return grad
    if shape == ():
        return np.asarray(grad.sum())
    if shape == (1,):
        return np.asarray([grad.sum()])
    raise ValueError(f"cannot reduce gradient of shape {grad.shape} to {shape}")


def _check_same_tape(*vs: Var) -> Tape:
    t = vs[0].tape
    for v in vs[1:]:
        if v.tape is not t:
            raise ValueError("operands live on different tapes")
    return t


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Var, b: Var) -> Var:
    t = _check_same_tape(a, b)
    out = a.value + b.value

    def bwd(g):
        a.adjoint += _reduce_to(g, a.value.shape)
        b.adjoint += _reduce_to(g, b.value.shape)

    return Var(t, out, bwd)


def sub(a: Var, b: Var) -> Var:
    t = _check_same_tape(a, b)
    out = a.value - b.value

    def bwd(g):
        a.adjoint += _reduce_to(g, a.value.shape)
        b.adjoint -= _reduce_to(g, b.value.shape)

    return Var(t, out, bwd)


def mul(a: Var, b: Var) -> Var:
    t = _check_same_tape(a, b)
    out = a.value * b.value

    def bwd(g):
        a.adjoint += _reduce_to(g * b.value, a.value.shape)
        b.adjoint += _reduce_to(g * a.value, b.value.shape)

    return Var(t, out, bwd)


def div(a: Var, b: Var) -> Var:
    t = _check_same_tape(a, b)
    out = a.value / b.value

    def bwd(g):
        a.adjoint += _reduce_to(g / b.value, a.value.shape)
        b.adjoint -= _reduce_to(g * a.value / b.value**2, b.value.shape)

    return Var(t, out, bwd)


def neg(x: Var) -> Var:
    def bwd(g):
        x.adjoint -= g

    return Var(x.tape, -x.value, bwd)


def scale(x: Var, k: float) -> Var:
    """Multiply by a plain float without recording a constant node."""
    k = float(k)

    def bwd(g):
        x.adjoint += k * g

    return Var(x.tape, k * x.value, bwd)


def shift(x: Var, k: float) -> Var:
    """Add a plain float without recording a constant node."""

    def bwd(g):
        x.adjoint += g

    return Var(x.tape, x.value + float(k), bwd)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def relu(x: Var) -> Var:
    """max(x, 0); the subgradient at exactly zero is taken as zero."""
    mask = (x.value > 0.0).astype(np.float64)

    def bwd(g):
        x.adjoint += g * mask

    return Var(x.tape, np.maximum(x.value, 0.0), bwd)


def sigmoid(x: Var) -> Var:
    out = _sigmoid_values(x.value)

    def bwd(g):
        x.adjoint += g * out * (1.0 - out)

    return Var(x.tape, out, bwd)


def _sigmoid_values(v: np.ndarray) -> np.ndarray:
    # split by sign so the exponential never overflows
    out = np.empty_like(v, dtype=np.float64)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    e = np.exp(v[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def clip(x: Var, lo=None, hi=None) -> Var:
    """Clamp into [lo, hi]; gradient is 1 strictly inside, 0 elsewhere."""
    v = x.value
    inside = np.ones_like(v)
    if lo is not None:
        inside = inside * (v > lo)
    if hi is not None:
        inside = inside * (v < hi)

    def bwd(g):
        x.adjoint += g * inside

    return Var(x.tape, np.clip(v, lo, hi), bwd)


def clip01(x: Var) -> Var:
    return clip(x, 0.0, 1.0)


def log(x: Var) -> Var:
    if np.any(x.value <= 0.0):
        raise ValueError("log requires strictly positive input")

    def bwd(g):
        x.adjoint += g / x.value

    return Var(x.tape, np.log(x.value), bwd)


# ---------------------------------------------------------------------------
# reductions and rearrangements


def softmax(x: Var) -> Var:
    """Normalized exponential, stabilized by max subtraction."""
    e = np.exp(x.value - x.value.max())
    p = e / e.sum()

    def bwd(g):
        x.adjoint += p * (g - np.dot(g, p))

    return Var(x.tape, p, bwd)


def logsumexp(x: Var) -> Var:
    m = x.value.max()
    e = np.exp(x.value - m)
    s = e.sum()

    def bwd(g):
        x.adjoint += g * (e / s)

    return Var(x.tape, np.asarray(m + np.log(s)), bwd)


def dot(a: Var, b: Var) -> Var:
    t = _check_same_tape(a, b)
    if a.value.shape != b.value.shape or a.value.ndim != 1:
        raise ValueError("dot requires two vectors of equal length")

    def bwd(g):
        a.adjoint += g * b.value
        b.adjoint += g * a.value

    return Var(t, np.asarray(np.dot(a.value, b.value)), bwd)


def vsum(x: Var) -> Var:
    def bwd(g):
        x.adjoint += g

    return Var(x.tape, np.asarray(x.value.sum()), bwd)


def pick(x: Var, i: int) -> Var:
    """Extract coordinate ``i`` as a scalar node."""
    i = int(i)

    def bwd(g):
        x.adjoint[i] += g

    return Var(x.tape, np.asarray(x.value[i]), bwd)


def cumsum(x: Var) -> Var:
    def bwd(g):
        x.adjoint += np.cumsum(g[::-1])[::-1]

    return Var(x.tape, np.cumsum(x.value), bwd)


def sort_desc(x: Var) -> tuple[Var, np.ndarray]:
    """Sort descending; returns the sorted node and the permutation applied.

    ``perm[i]`` is the source index of output position ``i``.  Ties keep the
    lower source index first.  The backward pass scatters the adjoint back
    through the permutation, so gradients follow whichever coordinate
    produced each sorted position.
    """
    if x.value.ndim != 1:
        raise ValueError("sort_desc requires a vector")
    perm = np.argsort(-x.value, kind="stable")

    def bwd(g):
        back = np.empty_like(g)
        back[perm] = g
        x.adjoint += back

    return Var(x.tape, x.value[perm], bwd), perm


# ---------------------------------------------------------------------------
# linear maps


def matvec(w: Var, x: Var) -> Var:
    t = _check_same_tape(w, x)
    if w.value.ndim != 2 or x.value.ndim != 1 or w.value.shape[1] != x.value.shape[0]:
        raise ValueError(
            f"matvec shape mismatch: {w.value.shape} @ {x.value.shape}"
        )

    def bwd(g):
        w.adjoint += np.outer(g, x.value)
        x.adjoint += w.value.T @ g

    return Var(t, w.value @ x.value, bwd)


def matvec_t(w: Var, x: Var) -> Var:
    """w.T @ x without materializing the transpose."""
    t = _check_same_tape(w, x)
    if w.value.ndim != 2 or x.value.ndim != 1 or w.value.shape[0] != x.value.shape[0]:
        raise ValueError(
            f"matvec_t shape mismatch: {w.value.shape}.T @ {x.value.shape}"
        )

    def bwd(g):
        w.adjoint += np.outer(x.value, g)
        x.adjoint += w.value @ g

    return Var(t, w.value.T @ x.value, bwd)


def matvec_sparse(w: Var, idx: np.ndarray, vals: np.ndarray) -> Var:
    """w @ x for a sparse input given as (indices, values) constants."""
    idx = np.asarray(idx, dtype=np.intp)
    vals = np.asarray(vals, dtype=np.float64)
    if w.value.ndim != 2:
        raise ValueError("matvec_sparse requires a matrix")
    if idx.size and idx.max() >= w.value.shape[1]:
        raise ValueError("sparse index exceeds matrix width")
    out = w.value[:, idx] @ vals if idx.size else np.zeros(w.value.shape[0])

    def bwd(g):
        if idx.size:
            w.adjoint[:, idx] += np.outer(g, vals)

    return Var(w.tape, out, bwd)
