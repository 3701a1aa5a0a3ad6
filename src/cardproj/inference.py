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
single reverse sweep through the unrolled graph suffices for training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diffgraph as dg
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
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not isinstance(self.steps, (int, np.integer)) or self.steps < 0:
            raise ValueError(f"steps must be a non-negative integer, got {self.steps!r}")
        if not self.step_size > 0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not isinstance(self.proj_rounds, (int, np.integer)) or self.proj_rounds < 1:
            raise ValueError(f"proj_rounds must be a positive integer, got {self.proj_rounds!r}")
        if not self.sharpness > 0:
            raise ValueError(f"sharpness must be positive, got {self.sharpness}")
        if self.z_source != "predictor" and not isinstance(
            self.z_source, (int, float, np.integer, np.floating)
        ):
            raise ValueError(
                f"z_source must be 'predictor' or a number, got {self.z_source!r}"
            )
        if self.z_mode not in ("expected", "argmax"):
            raise ValueError(f"z_mode must be 'expected' or 'argmax', got {self.z_mode!r}")
        if self.projection not in ("soft", "exact"):
            raise ValueError(f"projection must be 'soft' or 'exact', got {self.projection!r}")
        if self.decode not in ("threshold", "topz"):
            raise ValueError(f"decode must be 'threshold' or 'topz', got {self.decode!r}")


@dataclass
class Trajectory:
    """All iterates of one inference run, y0 first, plus the budget used.

    ``z_used`` is None for the unconstrained variants.  States are tape
    nodes; ``final_values`` is the plain array of the last iterate.
    ``cardinality_logits`` holds the cardinality head's output when a pass
    over this example already computed it on the tape: inference sets it
    for a modal budget, which reads it without a gradient path, and the
    auxiliary training loss for its own head.  Later passes reuse it
    instead of running the head again.
    """

    states: list
    z_used: float | None = None
    cardinality_logits: Var | None = None

    def final(self) -> Var:
        return self.states[-1]

    def final_values(self) -> np.ndarray:
        return np.array(self.final().value)


def init_labels(c: Var) -> Var:
    """Starting point of every ascent: sigmoid of the unary coefficients."""
    return dg.sigmoid(c)


def _resolve_budget(tm: md.TapedModel, indices, values, cfg: InferenceConfig):
    """Projection budget as (graph-or-float mass, numeric value, head logits).

    The logits are returned only for the modal budget: it reads them
    without a gradient path, so other passes may share them.
    """
    if cfg.z_source == "predictor":
        if cfg.z_mode == "expected":
            z = md.predict_cardinality(tm, indices, values, mode="expected")
            z = dg.clip(z, lo=MIN_BUDGET)
            return z, float(z.value), None
        logits = md.cardinality_logits(tm, indices, values)
        z = float(md.modal_cardinality(logits))
        return z, z, logits
    z = float(cfg.z_source)
    return z, z, None


def run_inference(tm: md.TapedModel, feature_indices, feature_values,
                  cfg: InferenceConfig) -> Trajectory:
    """Run one inference variant on one example, recording every iterate."""
    if cfg.variant == "topz":
        return _topz_trajectory(tm, feature_indices, feature_values, cfg)

    c = md.unary_scores(tm, feature_indices, feature_values)
    y = init_labels(c)
    states = [y]
    z_used = logits = spec = None
    if cfg.variant == "pc":
        mass, z_used, logits = _resolve_budget(tm, feature_indices, feature_values, cfg)
        spec = pj.CappedSimplexSpec(tm.config.label_count, mass)
    velocity = None

    for _ in range(cfg.steps):
        grad = dg.add(c, md.grad_global_score(tm, y))
        if cfg.variant == "sc":
            grad = dg.add(grad, md.grad_sc_score(tm, y))
        velocity = (
            grad
            if velocity is None
            else dg.add(dg.scale(velocity, cfg.momentum), grad)
        )
        trial = dg.add(y, dg.scale(velocity, cfg.step_size))
        if cfg.variant == "pc":
            y = _project_state(trial, spec, cfg)
        else:
            y = dg.clip01(trial)
        states.append(y)
    return Trajectory(states, z_used, logits)


def _project_state(trial: Var, spec: pj.CappedSimplexSpec, cfg: InferenceConfig) -> Var:
    if cfg.projection == "soft":
        return pj.project_capped_dykstra(
            trial,
            spec,
            rounds=cfg.proj_rounds,
            sharpness=cfg.sharpness,
            mode="soft",
        ).y
    # exact replay: closed-form projection of the same trial point, one node
    # whose Jacobian carries the gradient on to the trial point and the budget
    return pj.project_capped_exact(trial, spec)


def _topz_trajectory(tm, indices, values, cfg) -> Trajectory:
    c = md.unary_scores(tm, indices, values)
    _, z_value, logits = _resolve_budget(tm, indices, values, cfg)
    z = int(round(z_value))
    y = tm.tape.constant(exact_topz(np.array(c.value), z))
    return Trajectory([y], float(z), logits)


def exact_topz(c: np.ndarray, z: int) -> np.ndarray:
    """Binary vector activating the z largest coefficients.

    This solves max_y c . y over binary y with exactly z ones, the
    cardinality-constrained decoding that needs only a sort.  Ties go to
    the lower index.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 1:
        raise ValueError("expected a coefficient vector")
    if isinstance(z, (float, np.floating)) and not float(z).is_integer():
        raise ValueError(f"budget must be an integer, got {z}")
    z = int(z)
    if z < 0 or z > c.size:
        raise ValueError(f"budget {z} out of range [0, {c.size}]")
    out = np.zeros(c.size)
    out[np.argsort(-c, kind="stable")[:z]] = 1.0
    return out


def decode_labels(values: np.ndarray, mode: str = "threshold", z=None) -> np.ndarray:
    """Turn a relaxed label vector into a binary prediction.

    ``threshold`` activates coordinates at or above one half; ``topz``
    activates the ``round(z)`` largest coordinates.
    """
    values = np.asarray(values, dtype=np.float64)
    if mode == "threshold":
        return (values >= 0.5).astype(np.float64)
    if mode == "topz":
        if z is None:
            raise ValueError("topz decoding needs a budget")
        return exact_topz(values, int(round(float(z))))
    raise ValueError(f"unknown decode mode {mode!r}")

