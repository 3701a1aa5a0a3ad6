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

The engine is deliberately small.  Ops are plain functions (``add(a, b)``,
``scale(x, k)``) and a :class:`Var` defines no arithmetic operators, so
every node a program records is spelled out where it is made.  A
:class:`Tape` records nodes in construction order, which is already a
topological order of the computation graph, so :meth:`Tape.backward` can
seed the root adjoint and sweep the node list in reverse, letting each node
push its adjoint into its parents through a closure captured at
construction time.

A program's value enters a tape as ``Var(tape, array)``, a node with no
backward pass that shares a float64 array the caller owns, unchecked: a
model's parameters, the vectors ``cardproj project`` has read, and
constants such as a target alike.  Wrapping a node's current value in a new
``Var`` detaches it from the graph.  Shared arrays must not change while
the tape is live.  :meth:`Tape.leaf` records a checked float64 copy of a
value; the tests build their inputs with it, and no program path does.  An
adjoint is zero-filled the first time it is touched, and the sweep skips
nodes nothing reached.  The tape holds its nodes weakly, so reference
counting frees a finished graph.

The operands of an op share one tape and have rows of one width, and
nothing here re-checks that: a program records each computation on one
tape with one bound model, whose config fixes every operand's shape, and
an op puts its output on its first operand's tape.  Every value a program
records was checked where it entered the program.

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
    "scale",
    "shift",
    "relu",
    "sigmoid",
    "clip",
    "softmax",
    "log",
    "logsumexp",
    "dot",
    "vsum",
    "pick",
    "matvec",
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

    def __repr__(self):
        return f"Var(shape={self.value.shape}, node={self._index})"


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

    def backward(self, root: Var) -> None:
        """Accumulate adjoints of every node with respect to ``root``.

        The root's adjoint is one (in every coordinate of a vector root).
        Adjoint buffers are reset on every call, so repeated sweeps do not
        accumulate across calls.
        """
        nodes = [ref() for ref in self._nodes]
        for node in nodes:
            if node is not None:
                node._adjoint = None
        root.adjoint = root.adjoint + 1.0
        for node in nodes[root._index :: -1]:
            if node is not None and node._adjoint is not None and node._backward is not None:
                node._backward(node._adjoint)


def _reduce_to(grad: np.ndarray, shape: tuple) -> np.ndarray:
    # undo broadcasting in the backward direction: sum over the leading axes
    # an operand lacked (a bias over a batch) and over its axes of length one
    if grad.shape == shape:
        return grad
    lead = grad.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and grad.shape[lead + i] != 1
    )
    return np.asarray(grad.sum(axis=axes)).reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Var, b: Var) -> Var:
    out = a.value + b.value

    def bwd(g):
        a.adjoint += _reduce_to(g, a.value.shape)
        b.adjoint += _reduce_to(g, b.value.shape)

    return Var(a.tape, out, bwd)


def sub(a: Var, b: Var) -> Var:
    out = a.value - b.value

    def bwd(g):
        a.adjoint += _reduce_to(g, a.value.shape)
        b.adjoint -= _reduce_to(g, b.value.shape)

    return Var(a.tape, out, bwd)


def mul(a: Var, b: Var) -> Var:
    out = a.value * b.value

    def bwd(g):
        a.adjoint += _reduce_to(g * b.value, a.value.shape)
        b.adjoint += _reduce_to(g * a.value, b.value.shape)

    return Var(a.tape, out, bwd)


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


def log(x: Var) -> Var:
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
    out = np.asarray((a.value * b.value).sum(axis=-1))

    def bwd(g):
        g = g[..., None]
        a.adjoint += _reduce_to(g * b.value, a.value.shape)
        b.adjoint += _reduce_to(g * a.value, b.value.shape)

    return Var(a.tape, out, bwd)


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

    def bwd(g):
        w.adjoint += np.atleast_2d(g).T @ np.atleast_2d(x.value)
        x.adjoint += g @ w.value

    return Var(w.tape, rows_times(x.value, w.value.T), bwd)


def matvec_sparse(w: Var, indices, values, indptr=None) -> Var:
    """``w @ x`` for sparse inputs: one vector, or a CSR batch of rows.

    Without ``indptr`` the input is one vector given as (indices, values)
    and the output a vector.  With it the input is a batch in CSR form: row
    r holds ``indices[indptr[r]:indptr[r + 1]]`` and the matching values,
    and the output has one row per input row.  The forward pass gathers the
    columns it needs and sums each row's terms in index order.

    The backward pass sums the nonzeros' contributions with one
    ``np.bincount`` over the flat indices ``arange(H) * D + idx`` of the
    (H, D) weight, each bin from zero in nonzero order, as a scatter-add
    into a fresh adjoint does.  When nothing else has reached the weight's
    adjoint, the sums become it, so a wide input layer's backward makes one
    (H, D) array and no other pass over it.
    """
    idx = np.asarray(indices, dtype=np.intp)
    vals = np.asarray(values, dtype=np.float64)
    single = indptr is None
    ptr = np.array([0, idx.size]) if single else np.asarray(indptr, dtype=np.intp)
    counts = np.diff(ptr)
    terms = w.value.T[idx] * vals[:, None]
    out = np.zeros((ptr.size - 1, w.value.shape[0]))
    if idx.size:
        nonempty = counts > 0
        out[nonempty] = np.add.reduceat(terms, ptr[:-1][nonempty], axis=0)

    def bwd(g):
        if idx.size:
            hidden, inputs = w.value.shape
            row_of = np.repeat(np.arange(counts.size), counts)
            contrib = np.atleast_2d(g)[row_of] * vals[:, None]
            flat = np.arange(hidden)[:, None] * inputs + idx
            sums = np.bincount(flat.ravel(), weights=contrib.T.ravel(),
                               minlength=hidden * inputs).reshape(hidden, inputs)
            if w._adjoint is None:
                w.adjoint = sums  # an empty bin holds +0.0, as a fresh adjoint does
            else:
                w.adjoint += sums

    return Var(w.tape, out[0] if single else out, bwd)
