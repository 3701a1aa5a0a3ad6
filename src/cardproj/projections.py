"""Projections onto the simplex, the unit box, and their intersection.

The feasible set for a cardinality budget ``z`` over ``L`` labels is

    Z = { y : 0 <= y_i <= 1,  sum_i y_i = z },

the simplex scaled to mass ``z`` and capped at one per coordinate.  Three
routes onto it are implemented:

* ``project_capped_exact`` solves the Euclidean projection in closed form
  by scanning the breakpoints of the piecewise-linear mass function
  g(lam) = sum_i clamp(v_i - lam, 0, 1) over one sort of ``v``.  On a tape
  node it records one node whose backward pass is the closed-form Jacobian
  on the free set, which is how the exact replay of unrolled inference is
  differentiated.
* ``project_capped_bisection`` solves the same root-finding problem by a
  long scalar bisection.  It exists purely as an independent oracle.
* ``project_capped_dykstra`` alternates between the unit upper box and the
  scaled simplex with Dykstra correction terms.  In ``soft`` mode the
  simplex step is a differentiable surrogate, which is what the unrolled
  inference layers use.

The soft simplex surrogate and the soft alternation each run in plain numpy
and record one tape node, whose hand-written backward pass (a VJP) returns
the adjoints of the input and of a mass node.  The forward pass uses the
same expressions as the surrogate composed from ``diffgraph`` ops, and the
VJP adds up every floating-point term in the order that a reverse sweep
over the composed graph would, so values and gradients agree with it bit
for bit; the tests keep that composed version as their reference.

Exact operators take plain numpy arrays, and ``project_capped_exact`` and
``project_box_upper`` also tape nodes.  Soft operators take tape nodes and
return tape nodes.  The operators on tape nodes project one vector or each
row of a minibatch, with one budget for every row or one per row; a row
whose budget is zero projects to the origin and passes no gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffgraph as dg
from .diffgraph import Var

# calibrated so two soft Dykstra rounds hold trajectory states within the
# feasibility tolerances used by the inference invariants
DEFAULT_SHARPNESS = 20.0
DEFAULT_ROUNDS = 2

__all__ = [
    "CappedSimplexSpec",
    "ProjectionResult",
    "InfeasibleSpecError",
    "project_simplex_exact",
    "project_simplex_soft",
    "project_box_upper",
    "project_capped_exact",
    "project_capped_bisection",
    "project_capped_dykstra",
    "project_matrix_rows_cols",
    "matrix_residuals",
    "DEFAULT_SHARPNESS",
    "DEFAULT_ROUNDS",
]


class InfeasibleSpecError(ValueError):
    """The requested mass budget cannot be met inside the unit box."""


@dataclass(frozen=True)
class CappedSimplexSpec:
    """Feasible-set description: dimension and mass budget.

    The mass may be a float, one float per row of a batch, or a tape node of
    either shape; a node's current value is validated, and soft projections
    keep it on the graph so gradients reach whatever predicted the budget.
    """

    dim: int
    mass: object

    def __post_init__(self):
        if self.dim < 1:
            raise InfeasibleSpecError(f"dimension must be positive, got {self.dim}")
        for mass in np.atleast_1d(self.mass_value):
            if not 0.0 <= mass <= self.dim:
                raise InfeasibleSpecError(
                    f"mass budget {mass} outside [0, {self.dim}]"
                )

    @property
    def mass_value(self):
        """The budget as a float, or as an array of one per row."""
        mass = self.mass.value if isinstance(self.mass, Var) else self.mass
        if isinstance(mass, np.ndarray) and mass.ndim:
            return mass.astype(np.float64, copy=False)
        return float(mass)


@dataclass
class ProjectionResult:
    """Projected point plus feasibility diagnostics.

    ``residual_sum`` is |sum(y) - mass| and ``residual_box`` the largest
    excursion outside [0, 1], both measured on the returned values when
    they are read and both the worst over the rows of a batch, as floats.
    """

    y: object  # Var in soft mode, ndarray in exact mode
    mass: object  # float, or one per row

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


def project_simplex_exact(v: np.ndarray, mass: float = 1.0) -> np.ndarray:
    """Euclidean projection onto { y >= 0, sum y = mass }.

    Sorted-pivot method: with mu the descending sort of v and cumulative
    sums cssv, the pivot index is the largest rho such that
    mu_rho - (cssv_rho - mass) / rho > 0, and every coordinate is shifted
    down by theta = (cssv_rho - mass) / rho, then floored at zero.  The
    pivot runs on v - max(v), which leaves the projection unchanged and
    keeps the always-valid candidate rho = 1 positive when the coordinates
    span many orders of magnitude.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a non-empty vector")
    if mass <= 0:
        raise InfeasibleSpecError(f"simplex mass must be positive, got {mass}")
    v = v - v.max()
    mu = np.sort(v)[::-1]
    cssv = np.cumsum(mu)
    idx = np.arange(1, v.size + 1)
    rho = idx[mu - (cssv - mass) / idx > 0][-1]
    theta = (cssv[rho - 1] - mass) / rho
    return np.maximum(v - theta, 0.0)


def project_box_upper(y):
    """Projection onto { y <= 1 }: clamp from above only.

    Accepts a tape node or an ndarray; the tape form has gradient one
    strictly below the cap and zero above it.
    """
    if isinstance(y, Var):
        return dg.clip(y, hi=1.0)
    return np.minimum(np.asarray(y, dtype=np.float64), 1.0)


def _capped_pivot(v: np.ndarray, mass: float) -> tuple[np.ndarray, float]:
    """Projection onto the capped simplex, returning (point, threshold).

    The optimal point is clamp(v - lam, 0, 1) where lam solves
    g(lam) = sum_i relu(v_i - lam) - sum_i relu(v_i - 1 - lam) = mass.  g is
    piecewise linear and non-increasing with breakpoints at v_i and v_i - 1,
    so the root is found by bracketing over breakpoints and solving the
    linear piece: with n1 coordinates clamped at one and an active set A
    strictly inside (0, 1), lam = (sum_{i in A} v_i - (mass - n1)) / |A|.

    Both relu sums at every breakpoint come from one sort of ``v``, its
    suffix sums and ``np.searchsorted`` (the sort-and-scan of Wang & Lu,
    "Projection onto the capped simplex"), so the scan takes O(L log L) time
    and O(L) memory.
    """
    L = v.size
    if mass <= 0.0:
        return np.zeros(L), float(v.max())
    if mass >= L:
        return np.ones(L), float(v.min() - 1.0)

    ascending = np.sort(v)
    # suffix[i] is the sum of ascending[i:], with a zero past the end
    suffix = np.append(np.cumsum(ascending[::-1])[::-1], 0.0)

    def relu_sums(t):
        # sum_i relu(v_i - t) for each entry of t
        above = np.searchsorted(ascending, t, side="right")
        return suffix[above] - t * (L - above)

    bps = np.unique(np.concatenate([v, v - 1.0]))
    masses = relu_sums(bps) - relu_sums(bps + 1.0)
    # masses is non-increasing in lam; locate the last breakpoint still >= mass
    k = int(np.searchsorted(-masses, -mass, side="right")) - 1
    if k == len(bps) - 1:
        return np.clip(v - bps[k], 0.0, 1.0), float(bps[k])
    mid = 0.5 * (bps[k] + bps[k + 1])
    shifted = v - mid
    n1 = int((shifted >= 1.0).sum())
    active = (shifted > 0.0) & (shifted < 1.0)
    na = int(active.sum())
    if na == 0:
        # flat piece: any lam on it yields the same point
        lam = bps[k] if masses[k] == mass else mid
    else:
        lam = (v[active].sum() - (mass - n1)) / na
    return np.clip(v - lam, 0.0, 1.0), float(lam)


def project_capped_exact(v, spec: CappedSimplexSpec):
    """Closed-form Euclidean projection onto the capped simplex.

    Takes an ndarray and returns one, or takes a tape node, one vector or a
    batch of rows, and records one node, which runs the pivot row by row.
    That node's backward pass is the closed-form Jacobian of the projection
    on the free set A = {i : 0 < y_i < 1} of each row, as for sparsemax
    (Martins & Astudillo 2016): the input's adjoint on A gets
    ``g[A] - mean(g[A])`` and a mass node's adjoint gets ``mean(g[A])``.
    Coordinates clamped at zero or one pass no gradient, and when A is
    empty, as at budgets 0 and ``dim``, nothing passes.
    """
    if not isinstance(v, Var):
        values = np.asarray(v, dtype=np.float64)
        if values.ndim != 1 or values.size != spec.dim:
            raise ValueError(f"expected a vector of length {spec.dim}")
        return _capped_pivot(values, spec.mass_value)[0]
    values = v.value
    if values.ndim not in (1, 2) or values.shape[-1] != spec.dim:
        raise ValueError(f"expected rows of length {spec.dim}")
    masses = np.broadcast_to(spec.mass_value, values.shape[:-1])
    point = np.empty_like(values)
    for row in np.ndindex(values.shape[:-1]):
        point[row] = _capped_pivot(values[row], float(masses[row]))[0]
    _, mass_node = _mass_operand(v.tape, spec.mass)
    free = (point > 0.0) & (point < 1.0)
    n_free = free.sum(axis=-1, keepdims=True)

    def bwd(g):
        g_mean = (g * free).sum(axis=-1, keepdims=True) / np.maximum(n_free, 1)
        v.adjoint += free * (g - g_mean)
        if mass_node is not None:
            mass_node.adjoint += g_mean[..., 0]

    return Var(v.tape, point, bwd)


def project_capped_bisection(
    v: np.ndarray, spec: CappedSimplexSpec, iterations: int = 200
) -> np.ndarray:
    """Reference oracle: bisect the threshold until the mass budget is met.

    Deliberately naive; kept as an independent cross-check for
    ``project_capped_exact`` and for diagnostics.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size != spec.dim:
        raise ValueError(f"expected a vector of length {spec.dim}")
    mass = spec.mass_value
    lo, hi = float(v.min() - 1.0), float(v.max())
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid, 0.0, 1.0).sum() >= mass:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi), 0.0, 1.0)


# ---------------------------------------------------------------------------
# soft operators


def _simplex_soft_forward(v: np.ndarray, mass, sharpness: float):
    """Values of the soft simplex surrogate at ``v``, plus what its VJP reads.

    ``v`` is one vector or a batch of rows, and ``mass`` a float or the
    value of a mass node: 0-d, or one per row.  The expressions are those of
    the surrogate composed from ``diffgraph`` ops (sort, cumsum, the
    softsign x / (1 + |x|), softmax, dot, relu), in the same order, so the
    values agree bit for bit; every reduction runs along the rows.
    """
    m = np.asarray(mass, dtype=np.float64)[..., None]
    L = v.shape[-1]
    # each row's stable descending order, as an index into v
    perm = np.argsort(-v, axis=-1, kind="stable")
    perm = (perm,) if v.ndim == 1 else (np.arange(len(v))[:, None], perm)
    mu = v[perm]
    cssv = np.cumsum(mu, axis=-1)
    idx = np.arange(1, L + 1, dtype=np.float64)
    margin = mu * idx - (cssv - m)
    scaled = sharpness * margin
    denom = 1.0 + np.abs(scaled)
    logits = sharpness * (scaled / denom * idx)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    num = (cssv * weights).sum(axis=-1, keepdims=True) - m
    count = (idx * weights).sum(axis=-1, keepdims=True)
    diff = v - num / count
    mask = (diff > 0.0).astype(np.float64)
    return np.maximum(diff, 0.0), (perm, idx, cssv, denom, weights, num, count, mask)


def _simplex_soft_vjp(saved, sharpness: float, g, g_in, g_mass) -> None:
    """Pull the output adjoint ``g`` back through one soft simplex surrogate.

    Adds the input's adjoint into ``g_in`` and subtracts the mass's from
    ``g_mass`` (when not None), both in place and row by row.  Every
    floating-point sum runs in the order in which a reverse sweep over the
    composed surrogate would accumulate it, so the adjoints agree with that
    sweep bit for bit: ``g_in`` gets the relu term and then the scattered
    sort term, and ``g_mass`` the numerator term and then the margin term.
    """
    perm, idx, cssv, denom, weights, num, count, mask = saved
    g_diff = g * mask
    g_in += g_diff
    g_theta = -g_diff.sum(axis=-1, keepdims=True)
    g_num = g_theta / count
    g_count = -(g_theta * num / count**2)
    g_weights = g_count * idx + g_num * cssv
    g_logits = weights * (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True))
    g_margin = sharpness * ((sharpness * g_logits) * idx / denom**2)
    if g_mass is not None:
        g_mass -= g_num[..., 0]
        g_mass -= (-g_margin).sum(axis=-1)
    g_mu = g_margin * idx + np.cumsum((g_num * weights - g_margin)[..., ::-1], axis=-1)[..., ::-1]
    back = np.empty_like(g_mu)
    back[perm] = g_mu
    g_in += back


def _mass_operand(tape, mass):
    """The mass as the forward pass reads it, and its node (None otherwise)."""
    if isinstance(mass, Var):
        if mass.tape is not tape:
            raise ValueError("operands live on different tapes")
        return mass.value, mass
    return np.asarray(mass, dtype=np.float64), None


def project_simplex_soft(v: Var, mass, sharpness: float = DEFAULT_SHARPNESS) -> Var:
    """Differentiable surrogate of the simplex projection, as one tape node.

    Follows the sorted-pivot method but replaces its two discrete choices
    with smooth stand-ins: the positivity test of each pivot candidate goes
    through a softsign, and the argmax over candidates through a softmax of
    index-weighted scores.  ``sharpness`` scales both, and the surrogate
    approaches the exact projection as it grows.

    ``mass`` may be a float or a scalar node; in the latter case gradients
    flow into whatever produced the mass budget.
    """
    if not isinstance(mass, Var) and np.any(np.asarray(mass) <= 0):
        raise InfeasibleSpecError(f"simplex mass must be positive, got {mass}")
    m, mass_node = _mass_operand(v.tape, mass)
    sharpness = float(sharpness)
    out, saved = _simplex_soft_forward(v.value, m, sharpness)

    def bwd(g):
        _simplex_soft_vjp(saved, sharpness, g, v.adjoint,
                          None if mass_node is None else mass_node.adjoint)

    return Var(v.tape, out, bwd)


def project_capped_dykstra(
    v,
    spec: CappedSimplexSpec,
    rounds: int = DEFAULT_ROUNDS,
    sharpness: float = DEFAULT_SHARPNESS,
    mode: str = "soft",
) -> ProjectionResult:
    """Project onto the capped simplex by alternating two easy projections.

    Each round applies the upper-box clamp and then the scaled-simplex
    projection, with Dykstra correction terms carried between rounds so the
    alternation converges to the intersection projection rather than to an
    arbitrary feasible point.

    ``mode='exact'`` runs on plain arrays with exact sub-projections.
    ``mode='soft'`` uses the soft simplex surrogate and records all rounds
    on the tape of ``v`` as one node, whose backward pass returns the
    gradients of the whole alternation, correction terms included.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if mode == "exact":
        return _dykstra_exact(np.asarray(v, dtype=np.float64), spec, rounds)
    if mode == "soft":
        if not isinstance(v, Var):
            raise TypeError("soft mode projects a tape node")
        return _dykstra_soft(v, spec, rounds, float(sharpness))
    raise ValueError(f"unknown mode {mode!r}")


def _dykstra_exact(v: np.ndarray, spec: CappedSimplexSpec, rounds: int):
    if v.ndim != 1 or v.size != spec.dim:
        raise ValueError(f"expected a vector of length {spec.dim}")
    mass = spec.mass_value
    if mass == 0.0:
        return ProjectionResult(np.zeros_like(v), mass)
    y, p, q = v.copy(), np.zeros_like(v), np.zeros_like(v)
    for _ in range(rounds):
        t = project_box_upper(y + p)
        p = y + p - t
        y2 = project_simplex_exact(t + q, mass)
        q = t + q - y2
        y = y2
    return ProjectionResult(y, mass)


def _dykstra_soft(v: Var, spec, rounds, sharpness):
    m, mass_node = _mass_operand(v.tape, spec.mass)
    # a zero budget's only feasible point is the origin: such rows give
    # zeros and pass no gradient
    live = (m > 0.0)[..., None]
    dead = not live.all()
    y = v.value
    p = q = np.zeros(v.shape)
    saved = []
    for _ in range(rounds):
        yp = y + p
        t = project_box_upper(yp)
        inside = (yp < 1.0).astype(np.float64)
        p = yp - t
        tq = t + q
        y, inner = _simplex_soft_forward(tq, m, sharpness)
        q = tq - y
        saved.append((inner, inside))
    if dead:
        y = np.where(live, y, 0.0)

    def bwd(g):
        # adjoints of the last round's corrections p and q are zero; each
        # round's tq adjoint starts from the adjoint of the q it produced
        g_mass = None if mass_node is None else mass_node.adjoint
        g_p = np.zeros(v.shape)
        g_tq = np.zeros(v.shape)
        g_y = g * live if dead else g
        for inner, inside in reversed(saved):
            _simplex_soft_vjp(inner, sharpness, g_y, g_tq, g_mass)
            g_yp = g_p + (g_tq - g_p) * inside
            g_y = g_yp - g_tq
            g_p = g_yp
        v.adjoint += g_p

    return ProjectionResult(Var(v.tape, y, bwd), spec.mass_value)


# ---------------------------------------------------------------------------
# matrix extension


def project_matrix_rows_cols(
    y: np.ndarray, col_mass: np.ndarray, rounds: int = 100
) -> np.ndarray:
    """Dykstra alternation between row and column simplex constraints.

    Rows are projected onto the unit simplex (each row sums to one) and
    columns onto nonnegative vectors of prescribed mass ``col_mass[j]``.
    Consistency requires sum(col_mass) to equal the number of rows, since
    both constraint sets fix the total mass of the matrix.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError("expected a matrix")
    n_rows, n_cols = y.shape
    col_mass = np.asarray(col_mass, dtype=np.float64)
    if col_mass.shape != (n_cols,):
        raise ValueError(f"expected {n_cols} column masses")
    if np.any(col_mass < 0):
        raise InfeasibleSpecError("column masses must be nonnegative")
    if abs(col_mass.sum() - n_rows) > 1e-8:
        raise InfeasibleSpecError(
            f"column masses sum to {col_mass.sum()}, expected {n_rows}"
        )
    cur = y.copy()
    p = np.zeros_like(y)
    q = np.zeros_like(y)
    for _ in range(rounds):
        t = _rows_to_simplex(cur + p)
        p = cur + p - t
        cur2 = _cols_to_mass(t + q, col_mass)
        q = t + q - cur2
        cur = cur2
    return cur


def _rows_to_simplex(m: np.ndarray) -> np.ndarray:
    out = np.empty_like(m)
    for i in range(m.shape[0]):
        out[i] = project_simplex_exact(m[i], 1.0)
    return out


def _cols_to_mass(m: np.ndarray, col_mass: np.ndarray) -> np.ndarray:
    out = np.empty_like(m)
    for j in range(m.shape[1]):
        if col_mass[j] == 0.0:
            out[:, j] = 0.0
        else:
            out[:, j] = project_simplex_exact(m[:, j], col_mass[j])
    return out


def matrix_residuals(y: np.ndarray, col_mass: np.ndarray) -> tuple[float, float]:
    """Worst row-sum and column-sum violations of a candidate matrix."""
    row = float(np.abs(y.sum(axis=1) - 1.0).max())
    col = float(np.abs(y.sum(axis=0) - np.asarray(col_mass)).max())
    return row, col
