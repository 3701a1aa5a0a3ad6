"""Reverse-mode automatic differentiation over rows of numbers.

A value is one row (a vector) or a minibatch of rows stacked along a
leading axis, and every op works along the last axis, row by row, so one
tape records a whole minibatch in as many nodes as a single example needs.
Parameters keep their own shapes: a bias of shape ``(n,)`` added to rows of
shape ``(B, n)`` broadcasts over the batch, and its adjoint sums over it.
The forward value of each row never depends on the other rows of its
batch: matrix products go row by row (:func:`rows_times`) and reductions
run along the contiguous last axis, so a row gives the same bits alone as
inside any batch.

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
    "rows_times",
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
    # undo broadcasting in the backward direction: sum over the leading axes
    # an operand lacked (a bias over a batch) and over its axes of length one
    if grad.shape == shape:
        return grad
    lead = grad.ndim - len(shape)
    if lead < 0:
        raise ValueError(f"cannot reduce gradient of shape {grad.shape} to {shape}")
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and grad.shape[lead + i] != 1
    )
    return np.asarray(grad.sum(axis=axes)).reshape(shape)


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


def shift(x: Var, k) -> Var:
    """Add a plain float, or one per row, without recording a constant node."""

    def bwd(g):
        x.adjoint += g

    return Var(x.tape, x.value + np.asarray(k, dtype=np.float64), bwd)


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


def _softmax_values(v: np.ndarray) -> np.ndarray:
    # subtract each row's maximum so the exponential never overflows
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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
    """Normalized exponential of each row, stabilized by max subtraction."""
    p = _softmax_values(x.value)

    def bwd(g):
        x.adjoint += p * (g - (g * p).sum(axis=-1, keepdims=True))

    return Var(x.tape, p, bwd)


def logsumexp(x: Var) -> Var:
    """log(sum(exp(row))) of each row."""
    m = x.value.max(axis=-1, keepdims=True)
    e = np.exp(x.value - m)
    s = e.sum(axis=-1, keepdims=True)

    def bwd(g):
        x.adjoint += g[..., None] * (e / s)

    return Var(x.tape, np.asarray((m + np.log(s))[..., 0]), bwd)


def dot(a: Var, b: Var) -> Var:
    """Inner product of matching rows; a single vector operand serves every row."""
    t = _check_same_tape(a, b)
    if a.value.ndim == 0 or b.value.ndim == 0 or a.value.shape[-1] != b.value.shape[-1]:
        raise ValueError("dot requires rows of equal length")
    out = np.asarray((a.value * b.value).sum(axis=-1))

    def bwd(g):
        g = g[..., None]
        a.adjoint += _reduce_to(g * b.value, a.value.shape)
        b.adjoint += _reduce_to(g * a.value, b.value.shape)

    return Var(t, out, bwd)


def vsum(x: Var) -> Var:
    """Sum of each row."""

    def bwd(g):
        x.adjoint += g[..., None]

    return Var(x.tape, np.asarray(x.value.sum(axis=-1)), bwd)


def pick(x: Var, i) -> Var:
    """Coordinate ``i`` of each row: an int for every row, or one per row."""
    if np.ndim(i) == 0:
        i = int(i)
        at = (..., i)
    else:
        at = (np.arange(len(i)), np.asarray(i, dtype=np.intp))

    def bwd(g):
        x.adjoint[at] += g

    return Var(x.tape, np.asarray(x.value[at]), bwd)


def cumsum(x: Var) -> Var:
    """Running sums along each row."""

    def bwd(g):
        x.adjoint += np.cumsum(g[..., ::-1], axis=-1)[..., ::-1]

    return Var(x.tape, np.cumsum(x.value, axis=-1), bwd)


def sort_desc(x: Var) -> tuple[Var, np.ndarray]:
    """Sort each row descending; returns the sorted node and the permutation.

    ``perm[..., i]`` is the source index of output position ``i``.  Ties keep
    the lower source index first.  The backward pass scatters the adjoint
    back through the permutation, so gradients follow whichever coordinate
    produced each sorted position.
    """
    if x.value.ndim == 0:
        raise ValueError("sort_desc requires rows")
    perm = np.argsort(-x.value, axis=-1, kind="stable")

    def bwd(g):
        back = np.empty_like(g)
        np.put_along_axis(back, perm, g, axis=-1)
        x.adjoint += back

    return Var(x.tape, np.take_along_axis(x.value, perm, axis=-1), bwd), perm


# ---------------------------------------------------------------------------
# linear maps


def rows_times(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x @ m`` for one row or a batch of rows, one row at a time.

    A batched product lets BLAS block the rows together, which changes the
    summation order, and so the last bits, of every row with the batch it
    is in.  Taking each row's product alone keeps a row's value the same in
    any batch, at a few microseconds per batch.
    """
    return np.matmul(x[..., None, :], m)[..., 0, :]


def matvec(w: Var, x: Var) -> Var:
    """``w @ row`` for each row of ``x``: ``x @ w.T``."""
    t = _check_same_tape(w, x)
    if w.value.ndim != 2 or x.value.ndim not in (1, 2) or w.value.shape[1] != x.value.shape[-1]:
        raise ValueError(
            f"matvec shape mismatch: {w.value.shape} @ {x.value.shape}"
        )

    def bwd(g):
        w.adjoint += np.atleast_2d(g).T @ np.atleast_2d(x.value)
        x.adjoint += g @ w.value

    return Var(t, rows_times(x.value, w.value.T), bwd)


def matvec_t(w: Var, x: Var) -> Var:
    """``w.T @ row`` for each row of ``x``: ``x @ w``, with no transpose made."""
    t = _check_same_tape(w, x)
    if w.value.ndim != 2 or x.value.ndim not in (1, 2) or w.value.shape[0] != x.value.shape[-1]:
        raise ValueError(
            f"matvec_t shape mismatch: {w.value.shape}.T @ {x.value.shape}"
        )

    def bwd(g):
        w.adjoint += np.atleast_2d(x.value).T @ np.atleast_2d(g)
        x.adjoint += g @ w.value.T

    return Var(t, rows_times(x.value, w.value), bwd)


def matvec_sparse(w: Var, indices, values, indptr=None) -> Var:
    """``w @ x`` for sparse inputs: one vector, or a CSR batch of rows.

    Without ``indptr`` the input is one vector given as (indices, values)
    and the output a vector.  With it the input is a batch in CSR form: row
    r holds ``indices[indptr[r]:indptr[r + 1]]`` and the matching values,
    and the output has one row per input row.  The forward pass gathers the
    columns it needs and sums each row's terms in index order; the backward
    pass adds into only the columns that appear, so the adjoint of a wide
    input layer costs what the batch's nonzeros cost.
    """
    idx = np.asarray(indices, dtype=np.intp)
    vals = np.asarray(values, dtype=np.float64)
    if w.value.ndim != 2:
        raise ValueError("matvec_sparse requires a matrix")
    single = indptr is None
    ptr = np.array([0, idx.size]) if single else np.asarray(indptr, dtype=np.intp)
    nonempty = np.diff(ptr) > 0
    terms = w.value.T[idx] * vals[:, None]
    out = np.zeros((ptr.size - 1, w.value.shape[0]))
    if idx.size:
        out[nonempty] = np.add.reduceat(terms, ptr[:-1][nonempty], axis=0)
    row_of = np.repeat(np.arange(ptr.size - 1), np.diff(ptr))

    def bwd(g):
        if idx.size:
            g_rows = np.atleast_2d(g)
            np.add.at(w.adjoint.T, idx, g_rows[row_of] * vals[:, None])

    return Var(w.tape, out[0] if single else out, bwd)
