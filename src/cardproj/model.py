"""Learned scoring components for cardinality-constrained label prediction.

Four pieces share one parameter store:

* a feature network mapping a sparse input to per-label unary coefficients
  ``c``, so the unary part of the score is the linear form ``c . y``;
* a global potential, a bias-free one-hidden-layer ReLU network over the
  label vector alone, independent of the input by construction;
* a cardinality predictor, a one-hidden-layer ReLU network whose softmax
  output is a distribution over label-set sizes ``{0, ..., Z}``;
* optional per-bucket weights for the sigmoid-indicator cardinality score
  used by the soft-cardinality ascent variant.

Ascent needs only the gradients of the two label-vector scores, so the
global potential and the bucket score enter the program as their gradient
nodes (``grad_global_score``, ``grad_sc_score``) and are never evaluated
themselves.

``ScoreModel`` owns plain float64 buffers, checked when loaded.  Forward
passes never touch the buffers directly: bind the model to a tape with
``TapedModel`` and call the operation functions, which build
differentiable graphs and leave gradients in the bound nodes after a
backward sweep.  Binding shares the buffers, so they must not change while
a bound tape is live; training updates them only between tapes.

Every operation takes one example or a minibatch.  One example's sparse
input is a pair (indices, values) and gives vectors; a minibatch is the
same pair in CSR form plus its row pointer ``indptr`` and gives one row per
example (see ``diffgraph.matvec_sparse``); both are the arrays of a
``data.Dataset``.  Inputs are validated once, where a corpus enters the
program (``data.load_sparse_multilabel`` and ``data.generate_synthetic``),
and a model meets only datasets whose dimensions match its own; nothing
here checks them again.
"""

from __future__ import annotations

import io
import json
import math
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import data as dt
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
        "global.w2": ((h2,), 1.0),
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

    def copy(self) -> "ScoreModel":
        return ScoreModel(
            self.config, {k: np.array(v) for k, v in self.params.items()}
        )


class TapedModel:
    """One model bound to one tape: every buffer becomes a node sharing it.

    A fresh binding is needed per tape; nodes from one tape must not mix
    with nodes of another, and nothing checks that they do not.  After
    ``tape.backward`` the per-buffer gradients, the adjoints themselves, are
    read off with :meth:`grads`.
    """

    def __init__(self, model: ScoreModel, tape: Tape):
        self.config = model.config
        self.tape = tape
        self.vars = {name: Var(tape, buf) for name, buf in model.params.items()}

    def grads(self) -> dict[str, np.ndarray]:
        return {name: v.adjoint for name, v in self.vars.items()}


# ---------------------------------------------------------------------------
# score components


def unary_scores(tm: TapedModel, feature_indices, feature_values, indptr=None) -> Var:
    """Per-label unary coefficients c(x): (label_count,) per example."""
    p = tm.vars
    hidden = dg.relu(dg.add(dg.matvec_sparse(p["feature.w1"], feature_indices,
                                             feature_values, indptr),
                            p["feature.b1"]))
    feats = dg.add(dg.matvec(p["feature.w2"], hidden), p["feature.b2"])
    return dg.add(dg.matvec(p["unary.w"], feats), p["unary.b"])


def grad_global_score(tm: TapedModel, y: Var) -> Var:
    """Gradient of the global potential with respect to ``y``, as one tape node.

    The potential of each row is w2 . relu(W1 y), the bias-free global
    energy of a structured prediction energy network, and its gradient is
    W1' (w2 * step(W1 y)).  The step mask is held fixed: the potential's
    second derivative in ``y`` is zero almost everywhere, so a constant mask
    is exact away from kinks, and the node passes no adjoint to ``y``.  It
    stays differentiable with respect to the parameters.  Value and
    adjoints are bit-identical to the composed graph of a mask constant, a
    ``mul`` and a transposed product in ``tests/oracles.py``.
    """
    w1, w2 = tm.vars["global.w1"], tm.vars["global.w2"]
    mask = (dg.rows_times(y.value, w1.value.T) > 0.0).astype(np.float64)
    gated = w2.value * mask

    def bwd(g):
        w1.adjoint += np.atleast_2d(gated).T @ np.atleast_2d(g)
        w2.adjoint += dg._reduce_to((g @ w1.value.T) * mask, w2.value.shape)

    return Var(y.tape, dg.rows_times(gated, w1.value), bwd)


def cardinality_logits(tm: TapedModel, feature_indices, feature_values, indptr=None) -> Var:
    """Unnormalized scores over label-set sizes {0, ..., max_cardinality}."""
    p = tm.vars
    hidden = dg.relu(
        dg.add(dg.matvec_sparse(p["cardinality.w1"], feature_indices, feature_values,
                                indptr),
               p["cardinality.b1"])
    )
    return dg.add(dg.matvec(p["cardinality.w2"], hidden), p["cardinality.b2"])


def predict_cardinality(tm: TapedModel, feature_indices, feature_values, mode="expected",
                        indptr=None):
    """Predicted label-set size of each example.

    ``expected`` returns the distribution mean as a node, so the budget
    stays differentiable; ``argmax`` returns the modal size as an int
    array (0-d for one example), detached from the graph.
    """
    logits = cardinality_logits(tm, feature_indices, feature_values, indptr)
    if mode == "argmax":
        return modal_cardinality(logits)
    return expected_cardinality(tm, logits)


def expected_cardinality(tm: TapedModel, logits: Var) -> Var:
    """Mean label-set size under the head's logits, on the tape."""
    support = Var(tm.tape, np.arange(tm.config.max_cardinality + 1, dtype=np.float64))
    return dg.dot(dg.softmax(logits), support)


def modal_cardinality(logits: Var):
    """The most probable label-set size under the head's logits.

    An int array, 0-d for one example and one per row for a batch.  Takes
    the argmax of the probabilities ``dg.softmax`` computes, from the same
    helper, not of the logits, and records nothing on the tape: the count is
    read off, never differentiated.
    """
    return np.asarray(np.argmax(dg._softmax_values(logits.value), axis=-1))


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
    sweep.  The model holds ``sc.weights``: ``cardproj train`` and
    ``gradcheck`` build them for ``sc``, and ``eval`` refuses a checkpoint
    without them.
    """
    w = tm.vars["sc.weights"]
    z = tm.config.max_cardinality
    # I_1 .. I_{z+1} of each row, through the same sigmoid as dg.sigmoid
    ind = dg._sigmoid_values(y.value.sum(axis=-1)[..., None] - np.arange(1.0, z + 2.0))
    ik, ik1 = ind[..., :-1], ind[..., 1:]
    rest, rest1 = 1.0 - ik, 1.0 - ik1
    dik, dik1 = ik * rest, ik1 * rest1
    diff = dik * rest1 - ik * dik1
    # left-to-right sum, as the chain of add nodes accumulates it
    slope = np.add.accumulate(w.value * diff, axis=-1)[..., -1:]

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
        y.adjoint += np.add.accumulate(g_shift[..., ::-1], axis=-1)[..., -1:]
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
    with dt._open_new(path, "wb") as handle:
        np.savez(handle, **arrays)


def _npy_header(shape: tuple) -> bytes:
    """The ``.npy`` header that ``np.savez`` writes for a C-order float64
    array of ``shape``: format 1.0, as numpy picks for a header this short."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        out, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return out.getvalue()


def _read_member(archive: zipfile.ZipFile, name: str,
                 shape: tuple | None = None) -> np.ndarray:
    """Member ``name`` of the archive, read once.

    With the ``shape`` the config gives, a member laid out exactly as
    :func:`save_model` writes it, the header of :func:`_npy_header` and
    then the C-order data, is copied straight from its bytes.  Any other
    member, and ``__meta__``, is parsed as ``np.load`` parses it: no
    pickles.
    """
    raw = archive.read(f"{name}.npy")
    if shape is not None:
        header = _npy_header(shape)
        if raw.startswith(header) and len(raw) == len(header) + 8 * math.prod(shape):
            data = np.frombuffer(raw, "<f8", offset=len(header))
            return data.reshape(shape).astype(np.float64)  # an owned, writable copy
    return np.lib.format.read_array(io.BytesIO(raw), allow_pickle=False)


def load_model(path) -> ScoreModel:
    """Read a checkpoint written by :func:`save_model`.

    A file that is not such a checkpoint, or whose metadata or buffers do
    not make a valid model, raises a ``ValueError`` naming ``path``.  Only
    the buffers the config names are read: a checkpoint that still holds
    the global potential's former biases ``global.b1`` and ``global.b2``
    loads as one without them.  Each member is read once.  A buffer that
    starts with the exact header ``save_model`` writes for the shape the
    config gives, and holds exactly that shape's data, is copied from its
    bytes without parsing the header; a fresh header is built on every
    load, so nothing is cached across calls.  Any other member, a float32
    or Fortran-order buffer say, is parsed as ``np.load(...,
    allow_pickle=False)`` parses it and converted to float64: an object
    array is refused, and a wrong shape or a truncated member fails with
    its message.  Every buffer is checked for its shape and finite values.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            members = set(archive.namelist())
            if "__meta__.npy" not in members:
                raise ValueError("not a model checkpoint (missing metadata)")
            meta = json.loads(str(_read_member(archive, "__meta__")))
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
                if f"{name}.npy" not in members:
                    raise ValueError(f"missing parameter buffer {name}")
                buf = np.asarray(_read_member(archive, name, shape), dtype=np.float64)
                if buf.shape != shape:
                    raise ValueError(f"buffer {name} has shape {buf.shape}, expected {shape}")
                if not np.all(np.isfinite(buf)):
                    raise ValueError(f"parameter buffer {name} contains non-finite values")
                params[name] = buf
        return ScoreModel(config, params)
    except (ValueError, TypeError, EOFError, zipfile.BadZipFile) as err:
        raise ValueError(f"checkpoint {path}: {err}") from None
