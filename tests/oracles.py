"""Reference implementations that the tests check shipped code against.

No program path calls any of these.  Each is one of three things:

* an independent route to what a shipped operator computes: a long scalar
  bisection for the capped projection, Dykstra's alternation with exact
  steps, the capped sort-and-scan and the simplex sorted pivot on one
  vector, and the matrix alternation one row and one column at a time,
  which the shipped batched forms must match bit for bit;
* the composed form of a fused node, built from ``diffgraph`` ops node by
  node, which the fused node must match bit for bit in its value and in
  every adjoint: the global potential's gradient, the bucket score, the
  soft-F1 loss, the trajectory loss scored one state at a time, an ascent
  step's velocity and trial point, the sort and running sums of the soft
  simplex surrogate, and the sparse input layer with a scatter-add
  backward.  ``div`` and ``matvec_t`` are ops only these composed forms
  use;
* ``project_simplex_soft``, which wraps shipped code: the soft simplex
  step of ``project_capped_dykstra`` as a node of its own, so that step
  can be tested apart from the alternation.
"""

import numpy as np

from cardproj import diffgraph as dg
from cardproj import projections as pj
from cardproj import training as tr
from cardproj.diffgraph import Var


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


def cumsum(x: Var) -> Var:
    """Running sums along each row."""

    def bwd(g):
        x.adjoint += np.cumsum(g[..., ::-1], axis=-1)[..., ::-1]

    return Var(x.tape, np.cumsum(x.value, axis=-1), bwd)


def div(a: Var, b: Var) -> Var:
    out = a.value / b.value

    def bwd(g):
        a.adjoint += dg._reduce_to(g / b.value, a.value.shape)
        b.adjoint -= dg._reduce_to(g * a.value / b.value**2, b.value.shape)

    return Var(a.tape, out, bwd)


def matvec_t(w: Var, x: Var) -> Var:
    """``w.T @ row`` for each row of ``x``: ``x @ w``, with no transpose made."""

    def bwd(g):
        w.adjoint += np.atleast_2d(x.value).T @ np.atleast_2d(g)
        x.adjoint += g @ w.value.T

    return Var(w.tape, dg.rows_times(x.value, w.value), bwd)


def matvec_sparse(w: Var, indices, values, indptr=None) -> Var:
    """``dg.matvec_sparse`` with its backward as a scatter-add of every
    nonzero's contribution into the transposed adjoint, in nonzero order."""
    idx = np.asarray(indices, dtype=np.intp)
    vals = np.asarray(values, dtype=np.float64)
    single = indptr is None
    ptr = np.array([0, idx.size]) if single else np.asarray(indptr, dtype=np.intp)
    nonempty = np.diff(ptr) > 0
    out = np.zeros((ptr.size - 1, w.value.shape[0]))
    if idx.size:
        terms = w.value.T[idx] * vals[:, None]
        out[nonempty] = np.add.reduceat(terms, ptr[:-1][nonempty], axis=0)
    row_of = np.repeat(np.arange(ptr.size - 1), np.diff(ptr))

    def bwd(g):
        if idx.size:
            np.add.at(w.adjoint.T, idx, np.atleast_2d(g)[row_of] * vals[:, None])

    return Var(w.tape, out[0] if single else out, bwd)


def grad_global_score(tm, y: Var) -> Var:
    """The gradient of the global potential as composed nodes: a detached
    step mask, a ``mul`` and a transposed product."""
    p = tm.vars
    pre = dg.rows_times(y.value, p["global.w1"].value.T)
    mask = dg.Var(tm.tape, (pre > 0.0).astype(np.float64))
    return matvec_t(p["global.w1"], dg.mul(p["global.w2"], mask))


def velocity(c: Var, score_grads: list, previous, momentum: float) -> Var:
    """An ascent step's velocity as composed ``add`` and ``scale`` nodes."""
    grad = c
    for score_grad in score_grads:
        grad = dg.add(grad, score_grad)
    if previous is None:
        return grad
    return dg.add(dg.scale(previous, momentum), grad)


def trial(y: Var, velocity: Var, step_size: float) -> Var:
    """An ascent step's trial point as a composed ``scale`` and ``add``."""
    return dg.add(y, dg.scale(velocity, step_size))


def soft_f1_loss(y: Var, target: np.ndarray) -> Var:
    """The soft-F1 loss of ``training.soft_f1_loss`` as composed nodes."""
    t_sum = target.sum(axis=-1)
    empty = (t_sum == 0.0) & ~np.any(y.value, axis=-1)
    overlap = dg.dot(y, dg.Var(y.tape, target))
    total = dg.shift(dg.vsum(y), t_sum + empty)
    return div(dg.scale(overlap, -2.0), total)


def weighted_trajectory_loss(trajectory, target: np.ndarray, loss_config) -> Var:
    """``training.weighted_trajectory_loss`` as a chain of nodes: each state
    scored on its own step-loss node, scaled by its weight and added to the
    running total, left to right."""
    states = trajectory.states[1:]
    step_loss = tr._STEP_LOSSES[loss_config.single_step]
    horizon = len(states)
    total = None
    for t, y in enumerate(states, start=1):
        term = dg.scale(step_loss(y, target), 1.0 / (horizon * (horizon - t + 1)))
        total = term if total is None else dg.add(total, term)
    return total


def global_score(tm, y: Var) -> Var:
    """The global potential w2 . relu(W1 y) of each row, whose gradient
    ``model.grad_global_score`` computes."""
    p = tm.vars
    return dg.dot(p["global.w2"], dg.relu(dg.matvec(p["global.w1"], y)))


def sc_cardinality_score(tm, y: Var) -> Var:
    """Weighted soft bucket score sum_k w_k I_k (1 - I_{k+1}), composed node
    by node: the graph whose gradient and adjoints ``model.grad_sc_score``
    reproduces as one node."""
    w = tm.vars["sc.weights"]
    z = tm.config.max_cardinality
    total = dg.vsum(y)
    ind = [dg.sigmoid(dg.shift(total, -float(k))) for k in range(1, z + 2)]
    score = None
    for k in range(1, z + 1):
        term = dg.mul(dg.mul(dg.pick(w, k - 1), ind[k - 1]),
                      dg.shift(dg.scale(ind[k], -1.0), 1.0))
        score = term if score is None else dg.add(score, term)
    return score


def project_capped_bisection(v: np.ndarray, mass: float) -> np.ndarray:
    """Bisect the threshold until the mass budget is met: a deliberately
    naive cross-check of ``project_capped_exact``."""
    v = np.asarray(v, dtype=np.float64)
    lo, hi = float(v.min() - 1.0), float(v.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid, 0.0, 1.0).sum() >= mass:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi), 0.0, 1.0)


def project_capped_pivot(v: np.ndarray, mass: float) -> tuple[np.ndarray, float]:
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
    # (the mass at the top breakpoint, max(v), is 0 < mass, so k + 1 exists)
    k = int(np.searchsorted(-masses, -mass, side="right")) - 1
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


def project_simplex_pivot(v: np.ndarray, mass: float) -> np.ndarray:
    """The sorted-pivot simplex projection of one vector, written for a
    vector alone: the pivot is the last candidate that passes."""
    v = np.asarray(v, dtype=np.float64)
    v = v - v.max()
    mu = np.sort(v)[::-1]
    cssv = np.cumsum(mu)
    idx = np.arange(1, v.size + 1)
    rho = idx[mu - (cssv - mass) / idx > 0][-1]
    theta = (cssv[rho - 1] - mass) / rho
    return np.maximum(v - theta, 0.0)


def project_matrix_rows_cols(y: np.ndarray, col_mass, rounds: int) -> np.ndarray:
    """The row/column alternation of ``pj.project_matrix_rows_cols`` with one
    pivot per row and per column; a column of zero mass gives zeros."""

    def rows_to_mass(m, masses):
        out = np.zeros_like(m)
        for i, mass in enumerate(masses):
            if mass > 0.0:
                out[i] = project_simplex_pivot(m[i], mass)
        return out

    y = np.asarray(y, dtype=np.float64)
    col_mass = np.asarray(col_mass, dtype=np.float64)
    return pj._dykstra(y, rounds, lambda m: rows_to_mass(m, np.ones(len(m))),
                       lambda m: rows_to_mass(m.T, col_mass).T)


def project_capped_dykstra_exact(v: np.ndarray, mass, rounds: int) -> pj.ProjectionResult:
    """The shipped alternation with exact steps: the clamp into { y <= 1 }
    and the exact scaled-simplex projection, on one vector or on each row
    of a matrix.  It converges to the capped projection as the rounds grow;
    the budget must be positive, one value or one per row."""
    y = pj._dykstra(np.asarray(v, dtype=np.float64), rounds, lambda x: np.minimum(x, 1.0),
                    lambda x: pj.project_simplex_exact(x, mass))
    return pj.ProjectionResult(y, mass)


def project_simplex_soft(v: Var, mass, sharpness: float = pj.DEFAULT_SHARPNESS) -> Var:
    """The shipped soft simplex surrogate as one tape node.

    ``mass`` is a float or a node on the tape of ``v``, and gradients reach
    it through the same VJP that soft Dykstra runs each round.
    """
    m, mass_node = pj._mass_operand(mass)
    out, saved = pj._simplex_soft_forward(v.value, m, sharpness)

    def bwd(g):
        pj._simplex_soft_vjp(saved, sharpness, g, v.adjoint,
                             None if mass_node is None else mass_node.adjoint)

    return Var(v.tape, out, bwd)
