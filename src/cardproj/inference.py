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

One run covers one example or a minibatch (a CSR input with its row
pointer, see ``model``): every state is then a batch of rows on one tape,
and the budget one value per row.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        # JSON true is a Python int: a boolean never stands for a number
        for name in ("steps", "step_size", "momentum", "proj_rounds", "sharpness",
                     "z_source"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
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

    ``z_used`` is None for the unconstrained variants; otherwise a float
    for one example and one value per row for a batch.  States are tape
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
    """Projection budget as (graph-or-float mass, numeric value).

    ``rows`` is () for one example and (B,) for a batch; the numeric value
    is a float or one per row.  An expected budget is a differentiable
    function of the head's ``logits``; a modal budget reads them without a
    gradient path.
    """
    if cfg.z_source == "predictor":
        if cfg.z_mode == "expected":
            z = dg.clip(md.expected_cardinality(tm, logits), lo=MIN_BUDGET)
            return z, _numbers(z.value)
        z = _numbers(np.asarray(md.modal_cardinality(logits), dtype=np.float64))
        return z, z
    z = _numbers(np.full(rows, float(cfg.z_source)))
    return z, z


def _numbers(values: np.ndarray):
    # a float for one example, an array for a batch
    return float(values) if values.ndim == 0 else values


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
        z = _numbers(np.round(np.asarray(z_value)))
        return Trajectory([tm.tape.constant(exact_topz(np.array(c.value), z))], z, logits)

    y = init_labels(c)
    states = [y]
    z_used = spec = None
    if cfg.variant == "pc":
        mass, z_used = _resolve_budget(tm, logits, rows, cfg)
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


def exact_topz(c: np.ndarray, z) -> np.ndarray:
    """Binary vector activating the z largest coefficients, row by row.

    This solves max_y c . y over binary y with exactly z ones, the
    cardinality-constrained decoding that needs only a sort.  ``c`` is one
    vector with an integer budget, or a batch of rows with one budget per
    row.  Ties go to the lower index.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim not in (1, 2):
        raise ValueError("expected a coefficient vector")
    z = np.asarray(z)
    if np.any(z != np.round(z)):
        raise ValueError(f"budget must be an integer, got {z}")
    k = z.astype(np.intp)
    if np.any(k < 0) or np.any(k > c.shape[-1]):
        raise ValueError(f"budget {z} out of range [0, {c.shape[-1]}]")
    order = np.argsort(-c, axis=-1, kind="stable")
    chosen = (np.arange(c.shape[-1]) < k[..., None]).astype(np.float64)
    out = np.empty_like(c)
    np.put_along_axis(out, order, np.broadcast_to(chosen, c.shape), axis=-1)
    return out


def decode_labels(values: np.ndarray, mode: str = "threshold", z=None) -> np.ndarray:
    """Turn relaxed label vectors into binary predictions, row by row.

    ``threshold`` activates coordinates at or above one half; ``topz``
    activates the ``round(z)`` largest coordinates, with one budget per row
    for a batch.
    """
    values = np.asarray(values, dtype=np.float64)
    if mode == "threshold":
        return (values >= 0.5).astype(np.float64)
    if mode == "topz":
        if z is None:
            raise ValueError("topz decoding needs a budget")
        return exact_topz(values, np.round(np.asarray(z, dtype=np.float64)))
    raise ValueError(f"unknown decode mode {mode!r}")
