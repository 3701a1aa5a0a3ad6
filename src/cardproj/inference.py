"""Unrolled inference: label trajectories by differentiable gradient ascent.

Prediction is an optimization problem: find the label vector maximizing the
combined score (unary plus global, plus the soft bucket score in the
soft-cardinality variant).  Each variant runs a fixed number of momentum
ascent steps and records every iterate on the tape, so a training loss over
the trajectory backpropagates into all model parameters:

* ``pc``     projects each step onto the capped simplex of the predicted
             cardinality budget (the main method);
* ``sc``     adds the bucket score to the objective and clamps each step
             into the unit box;
* ``topz``   no iterations at all: exact top-budget decoding of the unary
             coefficients, the sort-based oracle.

The ascent direction is assembled from analytic gradient nodes
(``grad_global_score`` and friends), not by differentiating the tape, so a
single reverse sweep through the unrolled graph suffices for training.  A
step records the score gradients, one velocity node, one trial-point node
and the projection or clamp, each with a hand-written VJP.

One run covers one example or a minibatch (a CSR input with its row
pointer, see ``model``): every state is then a batch of rows on one tape,
and the budget one value per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffgraph as dg
from . import fields as fl
from . import model as md
from . import projections as pj
from .diffgraph import Var

# smallest projection budget used during training; keeps the capped simplex
# non-degenerate (a zero budget collapses every state to the origin and
# kills all gradients) while staying well under one predicted label
MIN_BUDGET = 0.01

VARIANTS = ("pc", "sc", "topz")

__all__ = [
    "InferenceConfig",
    "Trajectory",
    "MIN_BUDGET",
    "VARIANTS",
    "init_labels",
    "run_inference",
    "exact_topz",
    "decode_labels",
]


@dataclass(frozen=True)
class InferenceConfig:
    """Knobs for one inference run.

    ``z_source`` is either the string ``"predictor"`` (budget from the
    cardinality head, differentiable in ``expected`` mode, modal integer in
    ``argmax`` mode) or a plain number used verbatim.  ``projection``
    selects the soft alternation or an exact replay with the closed-form
    projection, whose states are feasible to machine precision.  Both are
    differentiable: each exact state is one node whose backward pass is the
    projection's Jacobian on its free set, so gradients reach the trial
    point and the budget.  ``steps=0`` is the degenerate trajectory
    ``[y0]``, which is how the plain unary baseline is trained.
    """

    variant: str = "pc"
    steps: int = 10
    step_size: float = 0.1
    momentum: float = 0.9
    proj_rounds: int = pj.DEFAULT_ROUNDS
    sharpness: float = pj.DEFAULT_SHARPNESS
    z_source: object = "predictor"
    z_mode: str = "expected"
    projection: str = "soft"
    decode: str = "threshold"

    def __post_init__(self):
        fl.choice("variant", self.variant, VARIANTS)
        fl.number("steps", self.steps, int, ">= 0")
        fl.number("step_size", self.step_size, float, "> 0")
        fl.number("momentum", self.momentum, float, ">= 0", "< 1")
        fl.number("proj_rounds", self.proj_rounds, int, ">= 1")
        fl.number("sharpness", self.sharpness, float, "> 0")
        if self.z_source != "predictor":
            fl.number("z_source", self.z_source)
        fl.choice("z_mode", self.z_mode, ("expected", "argmax"))
        fl.choice("projection", self.projection, ("soft", "exact"))
        fl.choice("decode", self.decode, ("threshold", "topz"))
        if self.decode == "topz" and self.variant == "sc":
            raise ValueError("decode 'topz' needs a budget, and variant 'sc' has none")


@dataclass
class Trajectory:
    """All iterates of one inference run, y0 first, plus the budget used.

    ``z_used`` is None for the unconstrained variants; otherwise a float64
    array of one value per row, 0-d for one example.  States are tape
    nodes; ``final_values`` is the plain array of the last iterate.
    ``cardinality_logits`` is the cardinality head's output on the same
    tape.  ``run_inference`` computes it once per run, whatever the variant
    and budget source, so the budget, the auxiliary training loss and the
    modal counts all read this one node.
    """

    states: list
    z_used: object = None
    cardinality_logits: Var | None = None

    def final(self) -> Var:
        return self.states[-1]

    def final_values(self) -> np.ndarray:
        return np.array(self.final().value)


def init_labels(c: Var) -> Var:
    """Starting point of every ascent: sigmoid of the unary coefficients."""
    return dg.sigmoid(c)


def _resolve_budget(tm: md.TapedModel, logits: Var, rows: tuple, cfg: InferenceConfig):
    """Projection budget as (mass node or array, value array).

    ``rows`` is () for one example and (B,) for a batch, the shape of the
    value.  An expected budget is a differentiable function of the head's
    ``logits``; a modal budget reads them without a gradient path.  A fixed
    budget is checked here, once, as it is used: rounded under ``topz``, as
    given under ``pc``.  A predicted one is not: it lies in [MIN_BUDGET,
    max_cardinality] up to rounding, which may put it a rounding step above
    the label count under ``pc``, and it rounds into [0, label_count].
    """
    if cfg.z_source == "predictor":
        if cfg.z_mode == "expected":
            z = dg.clip(md.expected_cardinality(tm, logits), lo=MIN_BUDGET)
            return z, np.asarray(z.value)
        z = md.modal_cardinality(logits).astype(np.float64)
        return z, z
    z = np.full(rows, float(cfg.z_source))
    pj.check_budget(np.round(z) if cfg.variant == "topz" else z, tm.config.label_count)
    return z, z


def run_inference(tm: md.TapedModel, feature_indices, feature_values,
                  cfg: InferenceConfig, indptr=None) -> Trajectory:
    """Run one inference variant on one example, or on a CSR batch with
    ``indptr``, recording every iterate.

    The cardinality head runs exactly once, for every variant and budget
    source, and its logits come back on the trajectory.  ``topz`` returns
    its one decoded state with the rounded budget.
    """
    c = md.unary_scores(tm, feature_indices, feature_values, indptr)
    logits = md.cardinality_logits(tm, feature_indices, feature_values, indptr)
    rows = c.shape[:-1]
    if cfg.variant == "topz":
        _, z_value = _resolve_budget(tm, logits, rows, cfg)
        z = np.asarray(np.round(z_value))
        return Trajectory([Var(tm.tape, exact_topz(np.array(c.value), z))], z, logits)

    y = init_labels(c)
    states = [y]
    mass = z_used = None
    if cfg.variant == "pc":
        mass, z_used = _resolve_budget(tm, logits, rows, cfg)
    velocity = None

    for _ in range(cfg.steps):
        score_grads = [md.grad_global_score(tm, y)]
        if cfg.variant == "sc":
            score_grads.append(md.grad_sc_score(tm, y))
        velocity = _velocity(c, score_grads, velocity, cfg.momentum)
        trial = _trial(y, velocity, cfg.step_size)
        if cfg.variant == "pc":
            y = _project_state(trial, mass, cfg)
        else:
            y = dg.clip(trial, 0.0, 1.0)
        states.append(y)
    return Trajectory(states, z_used, logits)


def _velocity(c: Var, score_grads: list, previous: Var | None, momentum: float) -> Var:
    """One step's velocity as one node: ``c`` plus the score gradients, left
    to right, plus ``momentum`` times the previous velocity if there is
    one.  Value and adjoints are bit-identical to the composed ``add`` and
    ``scale`` nodes in ``tests/oracles.py``."""
    out = c.value
    for grad in score_grads:
        out = out + grad.value
    k = float(momentum)
    if previous is not None:
        out = k * previous.value + out

    def bwd(g):
        if previous is not None:
            previous.adjoint += k * g
        c.adjoint += g
        for grad in score_grads:
            grad.adjoint += g

    return Var(c.tape, out, bwd)


def _trial(y: Var, velocity: Var, step_size: float) -> Var:
    """The trial point ``y + step_size * velocity`` as one node, bit-identical
    to the composed ``scale`` and ``add``."""
    k = float(step_size)

    def bwd(g):
        y.adjoint += g
        velocity.adjoint += k * g

    return Var(y.tape, y.value + k * velocity.value, bwd)


def _project_state(trial: Var, mass, cfg: InferenceConfig) -> Var:
    if cfg.projection == "soft":
        return pj.project_capped_dykstra(
            trial, mass, rounds=cfg.proj_rounds, sharpness=cfg.sharpness
        ).y
    # exact replay: closed-form projection of the same trial point, one node
    # whose Jacobian carries the gradient on to the trial point and the budget
    return pj.project_capped_exact(trial, mass)


def exact_topz(c: np.ndarray, z) -> np.ndarray:
    """Binary vector activating the z largest coefficients, row by row.

    This solves max_y c . y over binary y with exactly z ones, the
    cardinality-constrained decoding that needs only a sort.  ``c`` is one
    vector with an integer budget, or a batch of rows with one budget per
    row.  Ties go to the lower index.  Both callers round the budget, which
    ``run_inference`` has checked or a predictor has bounded to [0, L].
    """
    c = np.asarray(c, dtype=np.float64)
    k = np.asarray(z).astype(np.intp)
    order = np.argsort(-c, axis=-1, kind="stable")
    chosen = (np.arange(c.shape[-1]) < k[..., None]).astype(np.float64)
    out = np.empty_like(c)
    np.put_along_axis(out, order, np.broadcast_to(chosen, c.shape), axis=-1)
    return out


def decode_labels(values: np.ndarray, mode: str = "threshold", z=None) -> np.ndarray:
    """Turn relaxed label vectors into binary predictions, row by row.

    ``threshold`` activates coordinates at or above one half; ``topz``
    activates the ``round(z)`` largest coordinates, with one budget per row
    for a batch.  ``InferenceConfig`` has checked the mode and that a
    ``topz`` decode has a budget.
    """
    values = np.asarray(values, dtype=np.float64)
    if mode == "threshold":
        return (values >= 0.5).astype(np.float64)
    return exact_topz(values, np.round(np.asarray(z, dtype=np.float64)))
