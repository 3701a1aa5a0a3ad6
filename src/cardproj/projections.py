"""Projections onto the simplex and onto its intersection with the unit box.

The feasible set for a cardinality budget ``z`` over ``L`` labels is

    Z = { y : 0 <= y_i <= 1,  sum_i y_i = z },

the simplex scaled to mass ``z`` and capped at one per coordinate.  Two
routes onto it are implemented:

* ``project_capped_exact`` solves the Euclidean projection in closed form
  by bisecting over the breakpoints of the piecewise-linear mass function
  g(lam) = sum_i clamp(v_i - lam, 0, 1), after one sort of each row, for
  every row of a batch at once.  On a tape node it records one node whose
  backward pass is the closed-form Jacobian on the free set, which is how
  the exact replay of unrolled inference is differentiated.
* ``project_capped_dykstra`` alternates between the unit upper box and the
  scaled simplex with Dykstra correction terms, the simplex step being a
  differentiable surrogate of the sorted-pivot projection.  This is what
  the unrolled inference layers use.

The soft alternation runs in plain numpy and records one tape node, whose
hand-written backward pass (a VJP) returns the adjoints of the input and of
a mass node.  The forward pass uses the same expressions as the alternation
composed from ``diffgraph`` ops, and the VJP adds up every floating-point
term in the order that a reverse sweep over the composed graph would, so
values and gradients agree with it bit for bit; the tests keep that
composed version as their reference.  The forward pass keeps only the
arrays it computes anyway: the input, the running sums, the softmax
weights, each round's box input and the pre-relu difference.  What only
the VJP reads is built there: the stable order of each row's sort (the
forward pass sorts values only) and the 0/1 masks of the box and of the
relu.  A projection that is never swept backward, as in evaluation, never
runs an ``argsort`` or builds a mask.  Running sums call
``np.add.accumulate``, which gives the bits of ``np.cumsum`` with less
call overhead, and reductions call ``np.add.reduce`` and
``np.maximum.reduce``, as the array methods do.

Every operator projects one vector or each row of a matrix, with one budget
for every row or one per row: a float64 array (0-d, or one value per row)
or, for the capped operators, a tape node of that shape.
``project_simplex_exact`` takes its rows as an array,
``project_capped_dykstra`` as a tape node and ``project_capped_exact`` as
either; on a tape node a row whose budget is zero projects to the origin
and passes no gradient.  The operators read the label count from the rows'
width and check nothing, as the ``diffgraph`` ops do: budgets, ``rounds``
and tapes are checked where they enter the program (``check_budget``,
``InferenceConfig``, ``cardproj project``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .diffgraph import Var

# the unrolled layers' operating point, not a feasibility guarantee: the
# tests pin only pc states at L in {6, 12} within 0.05 of the budget and in
# [-0.02, 1.25] (test_feasibility_envelope_at_full_defaults); N(0,1) inputs
# at L=159 and 983 miss the budget by up to 0.057, and pc states leave the box
# by 0.25 and more
DEFAULT_SHARPNESS = 20.0
DEFAULT_ROUNDS = 2
# rounds of the row/column alternation of project_matrix_rows_cols
MATRIX_ROUNDS = 100

__all__ = [
    "ProjectionResult",
    "InfeasibleSpecError",
    "check_budget",
    "project_simplex_exact",
    "project_capped_exact",
    "project_capped_dykstra",
    "project_matrix_rows_cols",
    "DEFAULT_SHARPNESS",
    "DEFAULT_ROUNDS",
    "MATRIX_ROUNDS",
]


class InfeasibleSpecError(ValueError):
    """The requested mass budget cannot be met inside the unit box."""


def check_budget(mass, dim: int) -> None:
    """Refuse a capped-simplex budget outside [0, dim], nan included.

    ``mass`` is one value or one per row; the first value outside is named.
    """
    masses = np.atleast_1d(np.asarray(mass, dtype=np.float64))
    outside = masses[~((masses >= 0.0) & (masses <= dim))]  # nan too
    if outside.size:
        raise InfeasibleSpecError(f"mass budget {outside[0]} outside [0, {dim}]")


@dataclass
class ProjectionResult:
    """Projected point plus feasibility diagnostics.

    ``residual_sum`` is |sum(y) - mass| and ``residual_box`` the largest
    excursion outside [0, 1], both measured on the returned values when
    they are read and both the worst over the rows of a batch, as floats.
    """

    y: object  # a Var, or an ndarray
    mass: object  # a number, or one per row

    def values(self) -> np.ndarray:
        return self.y.value if isinstance(self.y, Var) else self.y

    @property
    def residual_sum(self) -> float:
        return float(np.abs(self.values().sum(axis=-1) - self.mass).max())

    @property
    def residual_box(self) -> float:
        values = self.values()
        return max(0.0, float((-values).max()), float((values - 1.0).max()))


# ---------------------------------------------------------------------------
# exact operators


def project_simplex_exact(v: np.ndarray, mass=1.0) -> np.ndarray:
    """Euclidean projection onto { y >= 0, sum y = mass }, row by row.

    ``v`` is one vector, or a matrix whose rows are projected at once, each
    to the bits it gets alone, with one mass per row (or one for all).
    Sorted-pivot method (Duchi et al. 2008): with mu the descending sort of
    a row and cumulative sums cssv, the pivot is the largest rho with
    mu_rho > theta_rho = (cssv_rho - mass) / rho, and every coordinate is
    shifted down by theta_rho, then floored at zero.  The pivot runs on
    v - max(v), which leaves the projection unchanged and keeps rho = 1
    passing when the coordinates span many orders of magnitude.
    """
    v = np.asarray(v, dtype=np.float64)
    m = np.asarray(mass, dtype=np.float64)[..., None]
    v = v - v.max(axis=-1, keepdims=True)
    mu = np.sort(v, axis=-1)[..., ::-1]
    cssv = np.cumsum(mu, axis=-1)
    idx = np.arange(1, v.shape[-1] + 1)
    theta = (cssv - m) / idx
    pivot = idx == (idx * (mu > theta)).max(axis=-1, keepdims=True)
    return np.maximum(v - theta[pivot].reshape(v.shape[:-1] + (1,)), 0.0)


def _capped_rows(v: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Projection of each row of ``v`` onto the capped simplex of its mass.

    The optimal point is clamp(v - lam, 0, 1) where lam solves
    g(lam) = sum_i relu(v_i - lam) - sum_i relu(v_i - 1 - lam) = mass.  g is
    piecewise linear and non-increasing with breakpoints at v_i and v_i - 1,
    so the root is found by bracketing over breakpoints and solving the
    linear piece: with n1 coordinates clamped at one and an active set A
    strictly inside (0, 1), lam = (sum_{i in A} v_i - (mass - n1)) / |A|.

    Both relu sums at a breakpoint come from one sort of the row, its suffix
    sums and the count of its entries at or below the breakpoint (the
    sort-and-scan of Wang & Lu, "Projection onto the capped simplex").  The
    bracket is the last distinct breakpoint where g >= mass, found by the
    bisection that ``np.searchsorted`` runs, one step for every row at a
    time and evaluating g only where it probes: O(L log L) time and O(L)
    memory per row.  Rounding can leave the computed g a little off
    monotone; the probe order then decides which crossing a row settles
    on, and it is the order of a search over that row alone, so a row gets
    the same bits in any batch.
    """
    L = v.shape[-1]
    point = np.zeros_like(v)
    point[mass >= L] = 1.0
    live = np.flatnonzero((mass > 0.0) & (mass < L))
    if live.size == 0:
        return point
    v, z = v[live], mass[live]
    rows = np.arange(len(v))

    ascending = np.sort(v, axis=-1)
    # suffix[r, i] is the sum of ascending[r, i:], with a zero past the end
    suffix = np.zeros((len(v), L + 1))
    suffix[:, :L] = np.cumsum(ascending[:, ::-1], axis=-1)[:, ::-1]
    suffix = suffix.ravel()
    # (row, value) as complex numbers, which numpy orders by real and then
    # imaginary part, so one searchsorted counts each row's entries <= t
    keys = np.empty((len(v), L), dtype=np.complex128)
    keys.real = rows[:, None]
    keys.imag = ascending
    keys = keys.ravel()
    probe = np.empty((2, len(v)), dtype=np.complex128)
    probe.real = rows
    t = probe.imag  # a view: one point per row, and the point + 1
    key_base, suffix_base = rows * L, rows * (L + 1)

    def g(point):
        # g at one point per row: the relu sums at t and t + 1
        t[0] = point
        np.add(point, 1.0, out=t[1])
        above = keys.searchsorted(probe, side="right") - key_base
        relu = suffix[suffix_base + above] - t * (L - above)
        return relu[0] - relu[1]

    # every row's distinct breakpoints, ascending, in one flat array:
    # row r's are bps[start[r]:start[r] + count[r]]
    merged = np.concatenate([v, v - 1.0], axis=-1)
    merged.sort(axis=-1)
    first = np.ones(merged.shape, dtype=bool)
    first[:, 1:] = merged[:, 1:] != merged[:, :-1]
    bps = merged[first]
    count = first.sum(axis=-1)
    start = np.cumsum(count) - count

    lo, hi = np.zeros_like(count), count
    for _ in range(int(count.max()).bit_length()):
        mid = (lo + hi) >> 1
        step = (g(bps[start + mid]) >= z) & (lo < hi)
        lo = np.where(step, mid + 1, lo)
        hi = np.where(step, hi, mid)
    # g is 0 < mass at the top breakpoint, max(v), so lo < count; a row
    # whose search ends at lo = 0 takes its top breakpoint as the one below,
    # as index -1 does in a search over one row
    below = bps[start + (lo - 1) % count]
    mid = 0.5 * (below + bps[start + lo])
    shifted = v - mid[:, None]
    n1 = (shifted >= 1.0).sum(axis=-1)
    active = (shifted > 0.0) & (shifted < 1.0)
    na = active.sum(axis=-1)
    # flat piece: any lam on it yields the same point
    lam = np.where(g(below) == z, below, mid)
    # each sloped row sums its active entries alone: numpy's pairwise sum
    # groups a longer, zero-padded row differently
    sloped = np.flatnonzero(na)
    ends = np.cumsum(na[sloped])
    entries = v[active]
    sums = np.array([entries[a:b].sum() for a, b in zip(ends - na[sloped], ends)])
    lam[sloped] = (sums - (z[sloped] - n1[sloped])) / na[sloped]
    point[live] = np.clip(v - lam[:, None], 0.0, 1.0)
    return point


def project_capped_exact(v, mass):
    """Closed-form Euclidean projection onto the capped simplex.

    Takes one vector or a batch of rows: an ndarray, and returns one, or a
    tape node, and records one node.  Either way one pivot runs on every
    row at once, and each row gets the bits it gets alone.  The node's
    backward pass is the closed-form Jacobian of the projection on the free
    set A = {i : 0 < y_i < 1} of each row, as for sparsemax (Martins &
    Astudillo 2016): the input's adjoint on A gets ``g[A] - mean(g[A])``
    and a mass node's adjoint gets ``mean(g[A])``.  Coordinates clamped at
    zero or one pass no gradient, and when A is empty, as at budgets 0 and
    the label count, nothing passes.
    """
    values = v.value if isinstance(v, Var) else np.asarray(v, dtype=np.float64)
    m, mass_node = _mass_operand(mass)
    masses = np.broadcast_to(m, values.shape[:-1])
    point = _capped_rows(values.reshape(-1, values.shape[-1]), masses.reshape(-1))
    point = point.reshape(values.shape)
    if not isinstance(v, Var):
        return point
    free = (point > 0.0) & (point < 1.0)
    n_free = free.sum(axis=-1, keepdims=True)

    def bwd(g):
        g_mean = (g * free).sum(axis=-1, keepdims=True) / np.maximum(n_free, 1)
        v.adjoint += free * (g - g_mean)
        if mass_node is not None:
            mass_node.adjoint += g_mean[..., 0]

    return Var(v.tape, point, bwd)


# ---------------------------------------------------------------------------
# soft operators


def _simplex_soft_forward(v: np.ndarray, mass, sharpness: float):
    """Values of the soft simplex surrogate at ``v``, plus what its VJP reads.

    The surrogate follows the sorted-pivot method of
    :func:`project_simplex_exact` but replaces its two discrete choices with
    smooth stand-ins: the positivity test of each pivot candidate goes
    through a softsign, and the argmax over candidates through a softmax of
    index-weighted scores.  ``sharpness`` scales both, and the surrogate
    approaches the exact projection as it grows.

    ``v`` is one vector or a batch of rows, and ``mass`` the budget's
    value: 0-d, or one per row.  The expressions are those of
    the surrogate composed node by node (a sort, running sums, the softsign
    x / (1 + |x|), softmax, dot, relu), in the same order, so the values
    agree bit for bit; every reduction runs along the rows.

    The sort is of values, not of indices: tied values are equal in every
    bit except that a 0.0 and a -0.0 may come out in either order, and on
    a positive budget that moves no value; on a zero budget the caller
    zeroes the row.  The VJP state keeps ``v``, from which
    :func:`_simplex_soft_vjp` finds the stable order, and the difference
    before the relu, from which it builds the relu's mask.
    """
    m = np.asarray(mass, dtype=np.float64)[..., None]
    idx = _positions(v.shape[-1])
    mu = np.negative(v)
    mu.sort(axis=-1)
    np.negative(mu, out=mu)
    cssv = np.add.accumulate(mu, axis=-1)
    margin = mu * idx - (cssv - m)
    scaled = sharpness * margin
    denom = 1.0 + np.abs(scaled)
    logits = sharpness * (scaled / denom * idx)
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    weights = e / np.add.reduce(e, axis=-1, keepdims=True)
    num = np.add.reduce(cssv * weights, axis=-1, keepdims=True) - m
    count = np.add.reduce(idx * weights, axis=-1, keepdims=True)
    diff = v - num / count
    return np.maximum(diff, 0.0), (v, idx, cssv, denom, weights, num, count, diff)


def _simplex_soft_vjp(saved, sharpness: float, g, g_in, g_mass) -> None:
    """Pull the output adjoint ``g`` back through one soft simplex surrogate.

    Adds the input's adjoint into ``g_in`` and subtracts the mass's from
    ``g_mass`` (when not None), both in place and row by row.  Every
    floating-point sum runs in the order in which a reverse sweep over the
    composed surrogate would accumulate it, so the adjoints agree with that
    sweep bit for bit: ``g_in`` gets the relu term and then the scattered
    sort term, and ``g_mass`` the numerator term and then the margin term.
    The scatter follows each row's stable descending order, ties by index,
    which is found here from the saved input rather than in the forward
    pass, as is the relu's mask, from the saved difference.  A tied 0.0
    and -0.0 that the forward sort put the other way round can flip only
    the sign of zero terms here; an accumulator that starts at 0.0 never
    holds -0.0, and adding a zero of either sign to it changes nothing.
    """
    v, idx, cssv, denom, weights, num, count, diff = saved
    g_diff = g * (diff > 0.0)
    g_in += g_diff
    g_theta = -np.add.reduce(g_diff, axis=-1, keepdims=True)
    g_num = g_theta / count
    g_count = -(g_theta * num / count**2)
    g_weights = g_count * idx + g_num * cssv
    g_logits = weights * (g_weights - np.add.reduce(g_weights * weights, axis=-1, keepdims=True))
    g_margin = sharpness * ((sharpness * g_logits) * idx / denom**2)
    if g_mass is not None:
        g_mass -= g_num[..., 0]
        g_mass -= np.add.reduce(-g_margin, axis=-1)
    tail = np.add.accumulate((g_num * weights - g_margin)[..., ::-1], axis=-1)[..., ::-1]
    g_mu = g_margin * idx + tail
    # each row's stable descending order, as an index into v
    perm = np.argsort(-v, axis=-1, kind="stable")
    perm = (perm,) if v.ndim == 1 else (np.arange(len(v))[:, None], perm)
    back = np.empty_like(g_mu)
    back[perm] = g_mu
    g_in += back


@functools.cache
def _positions(L: int) -> np.ndarray:
    """The candidate positions 1..L as floats, read-only: one array per L."""
    idx = np.arange(1, L + 1, dtype=np.float64)
    idx.flags.writeable = False
    return idx


def _mass_operand(mass):
    """The mass as the forward pass reads it, and its node (None otherwise)."""
    if isinstance(mass, Var):
        return mass.value, mass
    return np.asarray(mass, dtype=np.float64), None


def _dykstra(y: np.ndarray, rounds: int, first, second) -> np.ndarray:
    """Dykstra's alternation from ``y``: each round projects with ``first``
    and then ``second``, each step correcting its input by the residual it
    left in the previous round (p and q)."""
    p = q = np.zeros_like(y)
    for _ in range(rounds):
        yp = y + p
        t = first(yp)
        p = yp - t
        tq = t + q
        y = second(tq)
        q = tq - y
    return y


def project_capped_dykstra(
    v: Var,
    mass,
    rounds: int = DEFAULT_ROUNDS,
    sharpness: float = DEFAULT_SHARPNESS,
) -> ProjectionResult:
    """Project onto the capped simplex by alternating two easy projections.

    Each round clamps into { y <= 1 } and then applies the soft simplex
    surrogate, with Dykstra correction terms carried between rounds so the
    alternation heads for the intersection projection rather than for an
    arbitrary feasible point.  All rounds are recorded on the tape of ``v``
    as one node, whose backward pass returns the gradients of the whole
    alternation, correction terms included.  The node keeps each round's
    input to the box and the soft step's state; the box's 0/1 mask is built
    from the former by the backward pass.
    """
    sharpness = float(sharpness)
    m, mass_node = _mass_operand(mass)
    # a zero budget's only feasible point is the origin: such rows give
    # zeros and pass no gradient
    live = (m > 0.0)[..., None]
    dead = not live.all()
    boxed, inners = [], []  # what each round's steps leave for the backward pass

    def box(yp):
        boxed.append(yp)
        return np.minimum(yp, 1.0)

    def simplex(tq):
        y, inner = _simplex_soft_forward(tq, m, sharpness)
        inners.append(inner)
        return y

    y = _dykstra(v.value, rounds, box, simplex)
    if dead:
        y = np.where(live, y, 0.0)

    def bwd(g):
        # adjoints of the last round's corrections p and q are zero; each
        # round's tq adjoint starts from the adjoint of the q it produced
        g_mass = None if mass_node is None else mass_node.adjoint
        g_p = np.zeros(v.shape)
        g_tq = np.zeros(v.shape)
        g_y = g * live if dead else g
        for inner, yp in zip(reversed(inners), reversed(boxed)):
            _simplex_soft_vjp(inner, sharpness, g_y, g_tq, g_mass)
            g_yp = g_p + (g_tq - g_p) * (yp < 1.0)
            g_y = g_yp - g_tq
            g_p = g_yp
        v.adjoint += g_p

    return ProjectionResult(Var(v.tape, y, bwd), m)


# ---------------------------------------------------------------------------
# matrix extension


def project_matrix_rows_cols(
    y: np.ndarray, col_mass: np.ndarray, rounds: int = MATRIX_ROUNDS
) -> np.ndarray:
    """Dykstra alternation between row and column simplex constraints.

    Rows are projected onto the unit simplex (each row sums to one) and
    columns onto nonnegative vectors of prescribed mass ``col_mass[j]``; a
    column of zero mass is set to zero.  Consistency requires sum(col_mass)
    to equal the number of rows, since both constraint sets fix the total
    mass of the matrix; ``cardproj project`` checks that, the count and the
    signs of the masses.  Each step projects every row, or every column, in
    one call.
    """
    y = np.asarray(y, dtype=np.float64)
    col_mass = np.asarray(col_mass, dtype=np.float64)
    live = col_mass > 0.0
    live_mass = col_mass[live]

    def columns(m):
        out = np.zeros_like(m.T)
        out[live] = project_simplex_exact(m.T[live], live_mass)
        return out.T

    return _dykstra(y, rounds, project_simplex_exact, columns)
