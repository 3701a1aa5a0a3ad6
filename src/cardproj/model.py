"""Learned scoring components for cardinality-constrained label prediction.

Four pieces share one parameter store:

* a feature network mapping a sparse input to per-label unary coefficients
  ``c``, so the unary part of the score is the linear form ``c . y``;
* a global potential, a one-hidden-layer ReLU network over the label vector
  alone, independent of the input by construction;
* a cardinality predictor, a one-hidden-layer ReLU network whose softmax
  output is a distribution over label-set sizes ``{0, ..., Z}``;
* optional per-bucket weights for the sigmoid-indicator cardinality score
  used by the soft-cardinality ascent variant.

Ascent needs only the gradients of the two label-vector scores, so the
global potential and the bucket score enter the program as their gradient
nodes (``grad_global_score``, ``grad_sc_score``) and are never evaluated
themselves.

``ScoreModel`` owns plain float64 buffers, checked when a model is built or
loaded.  Forward passes never touch the buffers directly: bind the model to
a tape with ``TapedModel`` and call the operation functions, which build
differentiable graphs and leave gradients in the bound nodes after a
backward sweep.  Binding shares the buffers, so they must not change while
a bound tape is live; training updates them only between tapes.

Every operation takes one example or a minibatch.  One example's sparse
input is a pair (indices, values) and gives vectors; a minibatch is the
same pair in CSR form plus its row pointer ``indptr`` and gives one row per
example (see ``diffgraph.matvec_sparse``); both are the arrays of a
``data.Dataset``.  Inputs are validated once, where a corpus enters the
program (``data.load_sparse_multilabel`` and ``data.generate_synthetic``);
here only the index range is checked.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import diffgraph as dg
from . import fields as fl
from .diffgraph import Tape, Var

CHECKPOINT_FORMAT = "cardproj-checkpoint-v1"

__all__ = [
    "ModelConfig",
    "ScoreModel",
    "TapedModel",
    "CHECKPOINT_FORMAT",
    "unary_scores",
    "grad_global_score",
    "cardinality_logits",
    "predict_cardinality",
    "expected_cardinality",
    "modal_cardinality",
    "grad_sc_score",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture sizes, fixed at construction.

    ``max_cardinality`` is the largest representable label-set size; the
    cardinality predictor emits ``max_cardinality + 1`` probabilities so the
    empty set is representable too.
    """

    input_dim: int
    label_count: int
    max_cardinality: int
    feature_hidden: int = 150
    feature_dim: int = 150
    global_hidden: int = 150
    cardinality_hidden: int = 150
    with_sc: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("input_dim", "label_count", "max_cardinality", "feature_hidden",
                     "feature_dim", "global_hidden", "cardinality_hidden"):
            fl.number(name, getattr(self, name), int, ">= 1")
        fl.flag("with_sc", self.with_sc)
        fl.number("seed", self.seed, int, ">= 0")
        if self.max_cardinality > self.label_count:
            raise ValueError(
                f"max_cardinality {self.max_cardinality} exceeds "
                f"label_count {self.label_count}"
            )


def _param_shapes(config: ModelConfig) -> dict[str, tuple[tuple, float]]:
    """Each buffer's shape and initial gain, in the order a seed draws them.

    A buffer of gain g starts as N(0, g / fan_in) draws, fan-in being its
    last axis: He scaling (g = 2) before each ReLU, inverse fan-in (g = 1)
    for linear outputs.  Gain 0 buffers (biases, the SC weights) start at
    zero and draw nothing.
    """
    d, l = config.input_dim, config.label_count
    h1, f = config.feature_hidden, config.feature_dim
    h2, h3 = config.global_hidden, config.cardinality_hidden
    buckets = config.max_cardinality + 1
    shapes = {
        "feature.w1": ((h1, d), 2.0),
        "feature.b1": ((h1,), 0.0),
        "feature.w2": ((f, h1), 1.0),
        "feature.b2": ((f,), 0.0),
        "unary.w": ((l, f), 1.0),
        "unary.b": ((l,), 0.0),
        "global.w1": ((h2, l), 2.0),
        "global.b1": ((h2,), 0.0),
        "global.w2": ((h2,), 1.0),
        "global.b2": ((), 0.0),
        "cardinality.w1": ((h3, d), 2.0),
        "cardinality.b1": ((h3,), 0.0),
        "cardinality.w2": ((buckets, h3), 1.0),
        "cardinality.b2": ((buckets,), 0.0),
    }
    if config.with_sc:
        shapes["sc.weights"] = ((config.max_cardinality,), 0.0)
    return shapes


def _init_params(config: ModelConfig) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(config.seed)
    return {
        name: rng.normal(0.0, np.sqrt(gain / shape[-1]), size=shape) if gain
        else np.zeros(shape)
        for name, (shape, gain) in _param_shapes(config).items()
    }


class ScoreModel:
    """Parameter container.  Forward passes go through :class:`TapedModel`."""

    def __init__(self, config: ModelConfig, params: dict | None = None):
        self.config = config
        self.params = _init_params(config) if params is None else params
        for name, buf in self.params.items():
            if not np.all(np.isfinite(buf)):
                raise ValueError(f"parameter buffer {name} contains non-finite values")

    def copy(self) -> "ScoreModel":
        return ScoreModel(
            self.config, {k: np.array(v) for k, v in self.params.items()}
        )


class TapedModel:
    """One model bound to one tape: every buffer becomes a node sharing it.

    A fresh binding is needed per tape; nodes from one tape cannot mix
    with nodes of another.  After ``tape.backward`` the per-buffer
    gradients, the adjoints themselves, are read off with :meth:`grads`.
    """

    def __init__(self, model: ScoreModel, tape: Tape):
        self.config = model.config
        self.tape = tape
        self.vars = {name: Var(tape, buf) for name, buf in model.params.items()}

    def grads(self) -> dict[str, np.ndarray]:
        return {name: v.adjoint for name, v in self.vars.items()}


def _check_sparse_input(tm: TapedModel, indices, values):
    idx = np.asarray(indices, dtype=np.intp)
    vals = np.asarray(values, dtype=np.float64)
    if idx.shape != vals.shape or idx.ndim != 1:
        raise ValueError("indices and values must be equal-length vectors")
    if idx.size and (idx.min() < 0 or idx.max() >= tm.config.input_dim):
        raise ValueError(
            f"feature index out of range for input_dim {tm.config.input_dim}"
        )
    return idx, vals


# ---------------------------------------------------------------------------
# score components


def unary_scores(tm: TapedModel, feature_indices, feature_values, indptr=None) -> Var:
    """Per-label unary coefficients c(x): (label_count,) per example."""
    idx, vals = _check_sparse_input(tm, feature_indices, feature_values)
    p = tm.vars
    hidden = dg.relu(dg.add(dg.matvec_sparse(p["feature.w1"], idx, vals, indptr),
                            p["feature.b1"]))
    feats = dg.add(dg.matvec(p["feature.w2"], hidden), p["feature.b2"])
    return dg.add(dg.matvec(p["unary.w"], feats), p["unary.b"])


def grad_global_score(tm: TapedModel, y: Var) -> Var:
    """Gradient of the global potential with respect to ``y``, on the tape.

    The potential of each row is w2 . relu(W1 y + b1) + b2, and its gradient
    is W1' (w2 * step(W1 y + b1)).  The step mask enters as a detached
    constant: the potential's second derivative in ``y`` is zero almost
    everywhere, so a constant mask is exact away from kinks, while the
    returned node stays differentiable with respect to the parameters.
    """
    p = tm.vars
    pre = dg.rows_times(y.value, p["global.w1"].value.T) + p["global.b1"].value
    mask = tm.tape.constant((pre > 0.0).astype(np.float64))
    return dg.matvec_t(p["global.w1"], dg.mul(p["global.w2"], mask))


def cardinality_logits(tm: TapedModel, feature_indices, feature_values, indptr=None) -> Var:
    """Unnormalized scores over label-set sizes {0, ..., max_cardinality}."""
    idx, vals = _check_sparse_input(tm, feature_indices, feature_values)
    p = tm.vars
    hidden = dg.relu(
        dg.add(dg.matvec_sparse(p["cardinality.w1"], idx, vals, indptr),
               p["cardinality.b1"])
    )
    return dg.add(dg.matvec(p["cardinality.w2"], hidden), p["cardinality.b2"])


def predict_cardinality(tm: TapedModel, feature_indices, feature_values, mode="expected",
                        indptr=None):
    """Predicted label-set size of each example.

    ``expected`` returns the distribution mean as a node, so the budget
    stays differentiable; ``argmax`` returns the modal size as a plain int
    (an int array for a batch), detached from the graph.
    """
    if mode not in ("expected", "argmax"):
        raise ValueError(f"unknown cardinality mode {mode!r}")
    logits = cardinality_logits(tm, feature_indices, feature_values, indptr)
    if mode == "argmax":
        return modal_cardinality(logits)
    return expected_cardinality(tm, logits)


def expected_cardinality(tm: TapedModel, logits: Var) -> Var:
    """Mean label-set size under the head's logits, on the tape."""
    support = tm.tape.constant(
        np.arange(tm.config.max_cardinality + 1, dtype=np.float64)
    )
    return dg.dot(dg.softmax(logits), support)


def modal_cardinality(logits: Var):
    """The most probable label-set size under the head's logits.

    A plain int for one example, an int array for a batch.  Takes the
    argmax of the probabilities ``dg.softmax`` computes, from the same
    helper, not of the logits, and records nothing on the tape: the count is
    read off, never differentiated.
    """
    modal = np.argmax(dg._softmax_values(logits.value), axis=-1)
    return int(modal) if modal.ndim == 0 else modal


# ---------------------------------------------------------------------------
# sigmoid-indicator cardinality score (soft-cardinality ascent variant)


def grad_sc_score(tm: TapedModel, y: Var) -> Var:
    """Gradient of the bucket score with respect to ``y``, as one tape node.

    The bucket score of a row is sum_k w_k I_k (1 - I_{k+1}) over
    k = 1..max_cardinality, where I_k = sigmoid(sum(y) - k) softly tests
    whether at least k labels are active, so I_k (1 - I_{k+1}) peaks when
    the total mass sits near k.  It depends on ``y`` only through its sum,
    so the gradient of a row is a constant vector ``slope * 1``, one slope
    per row, with

        slope = sum_k w_k (I_k' (1 - I_{k+1}) - I_k I_{k+1}'),

    where I' = I (1 - I).  The slope is smooth in ``y``.  For an output
    adjoint ``g`` the node's backward pass gives every coordinate of ``y``
    the adjoint sum(g) * d(slope)/d(sum(y)), the second-order term that the
    unrolled ascent backpropagates through, and each weight w_k the adjoint
    sum(g) times the bracket of bucket k.

    Value and adjoints are bit-identical to the graph composed of
    ``diffgraph`` nodes (sum, shifted sigmoids, one product chain per
    bucket): the forward pass evaluates the same expressions, and the
    backward pass adds every term in the order of that graph's reverse
    sweep.
    """
    if "sc.weights" not in tm.vars:
        raise ValueError("model was built without sc weights (with_sc=False)")
    w = tm.vars["sc.weights"]
    if w.tape is not y.tape:
        raise ValueError("operands live on different tapes")
    z = tm.config.max_cardinality
    # I_1 .. I_{z+1} of each row, through the same sigmoid as dg.sigmoid
    ind = dg._sigmoid_values(y.value.sum(axis=-1)[..., None] - np.arange(1.0, z + 2.0))
    ik, ik1 = ind[..., :-1], ind[..., 1:]
    rest, rest1 = 1.0 - ik, 1.0 - ik1
    dik, dik1 = ik * rest, ik1 * rest1
    diff = dik * rest1 - ik * dik1
    # left-to-right sum, as the chain of add nodes accumulates it
    slope = np.cumsum(w.value * diff, axis=-1)[..., -1:]

    def bwd(g):
        gs = g.sum(axis=-1)[..., None]
        g_diff = gs * w.value
        g_dik1 = -g_diff * ik
        g_dik = g_diff * rest1
        # indicator adjoints: bucket k's terms for I_k, then bucket k-1's
        # for I_k (as its I_{k+1}), as the sweep meets them last bucket first
        g_ind = np.zeros(ind.shape)
        g_ind[..., :-1] = -g_diff * dik1 + g_dik * rest - g_dik * ik
        g_ind[..., 1:] = g_ind[..., 1:] - g_diff * dik + g_dik1 * rest1 - g_dik1 * ik1
        g_shift = g_ind * ind * (1.0 - ind)
        # the shifted sums reach sum(y) last indicator first
        y.adjoint += np.cumsum(g_shift[..., ::-1], axis=-1)[..., -1:]
        w.adjoint += dg._reduce_to(gs * diff, w.value.shape)

    return Var(y.tape, np.repeat(slope, y.shape[-1], axis=-1), bwd)


# ---------------------------------------------------------------------------
# checkpoints


def save_model(model: ScoreModel, path) -> None:
    """Write parameters plus architecture metadata to an .npz container at
    exactly ``path``: through an open file, so no ``.npz`` suffix is added."""
    meta = json.dumps(
        {"format": CHECKPOINT_FORMAT, "config": asdict(model.config)}
    )
    arrays = dict(model.params)
    arrays["__meta__"] = np.array(meta)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def load_model(path) -> ScoreModel:
    """Read a checkpoint written by :func:`save_model`.

    A file that is not such a checkpoint, or whose metadata or buffers do
    not make a valid model, raises a ``ValueError`` naming ``path``.
    """
    try:
        # numpy leaves a file it opened itself open when it is not a zip
        with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as archive:
            if "__meta__" not in archive:
                raise ValueError("not a model checkpoint (missing metadata)")
            meta = json.loads(str(archive["__meta__"]))
            if not isinstance(meta, dict):
                raise ValueError("metadata is not a JSON object")
            if meta.get("format") != CHECKPOINT_FORMAT:
                raise ValueError(
                    f"unsupported checkpoint format {meta.get('format')!r}, "
                    f"expected {CHECKPOINT_FORMAT!r}"
                )
            # a missing, unknown or non-mapping config field is a TypeError here
            config = ModelConfig(**meta.get("config"))
            params = {}
            for name, (shape, _) in _param_shapes(config).items():
                if name not in archive:
                    raise ValueError(f"missing parameter buffer {name}")
                buf = np.asarray(archive[name], dtype=np.float64)
                if buf.shape != shape:
                    raise ValueError(f"buffer {name} has shape {buf.shape}, expected {shape}")
                params[name] = buf
        return ScoreModel(config, params)
    except (ValueError, TypeError, EOFError, zipfile.BadZipFile) as err:
        raise ValueError(f"checkpoint {path}: {err}") from None
