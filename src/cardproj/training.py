"""Losses, the outer optimizer, the training loop, and gradient checking.

Training differentiates through the unrolled inference procedure: every
ascent state of the relaxed label trajectory is scored against the true
label set, later states weighted more heavily, and the resulting scalar is
backpropagated through projections, momentum, and the cardinality head in
one reverse sweep.  An auxiliary cross-entropy on the cardinality buckets
keeps the counter trained even when the trajectory loss plateaus.

Each minibatch, a ``data.Dataset`` of rows gathered from the train split,
runs on one tape: inference, the per-example losses and their mean are
recorded row-wise over the batch, so one reverse sweep leaves the averaged
gradient in the parameter adjoints.  ``_minibatch_loss`` is that objective,
and ``gradcheck`` differentiates it as a training step does.  The outer
optimizer is diagonal AdaGrad.  Training is deterministic for a fixed seed
(the shuffle is the only randomness).  ``predict`` is the one decode pass:
it walks a split in fixed-size chunks, one tape each, and a row's decoded
labels do not depend on the chunk it ran in.  ``evaluate``, and through it
the per-epoch metrics log, scores what ``predict`` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import data as dt
from . import diffgraph as dg
from . import fields as fl
from . import inference as inf
from . import model as md
from .diffgraph import Tape, Var

# examples per tape in predict.  A pc-5 chunk of 32 (hidden 150) peaks
# at about 1.6 MiB of traced memory with 30 labels and 23 MiB
# with 983, the paper's largest label count; per example it is at most 11%
# slower than the fastest of the chunk sizes 16, 32, 64 and 128 at either.
# `cardproj project` cuts its runs of equal-length lines at this size too,
# untuned for that path, where a chunk only shares per-call overhead: on
# N(0,1) files at z=4 (medians of 15 interleaved runs on 2 CPUs, in each of
# three processes), dykstra at 159 labels is 1.7-1.8x faster at 32 rows than
# a line at a time and within 8% of 8, 16 and 64; at 983 labels 8 rows was
# 1-10% faster than 32, and the command's traced peak on a 64-line file is
# 2.2 MiB at 8 rows and 6.6 MiB at 32.  capped costs 51, 32, 22 and 24 us a
# row at 159 labels in chunks of 8, 16, 32 and 64 rows, and 92, 72, 98 and
# 98 at 983 (288 and 430 us for one row alone; medians of 15 interleaved
# runs at z=4).
EVAL_CHUNK = 32

__all__ = [
    "LossConfig",
    "TrainConfig",
    "AdaGrad",
    "TrainingDivergedError",
    "MetricsRecord",
    "TrainResult",
    "soft_f1_loss",
    "binary_cross_entropy",
    "weighted_trajectory_loss",
    "cardinality_cross_entropy",
    "example_loss",
    "predict",
    "evaluate",
    "train",
    "gradcheck",
]


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss, gradient or parameter stops being finite."""


@dataclass(frozen=True)
class LossConfig:
    """Which per-state loss to use and how much auxiliary counting loss."""

    single_step: str = "soft_f1"
    aux_cardinality_weight: float = 1.0

    def __post_init__(self):
        fl.choice("single_step", self.single_step, tuple(_STEP_LOSSES))
        fl.number("aux_cardinality_weight", self.aux_cardinality_weight, float, ">= 0")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 32
    learning_rate: float = 0.1
    seed: int = 0
    patience: int = 10

    def __post_init__(self):
        fl.number("epochs", self.epochs, int, ">= 0")
        fl.number("batch_size", self.batch_size, int, ">= 1")
        fl.number("learning_rate", self.learning_rate, float, "> 0")
        fl.number("seed", self.seed, int, ">= 0")
        fl.number("patience", self.patience, int, ">= 1")


class AdaGrad:
    """Diagonal AdaGrad over a named parameter dictionary.

    Each coordinate moves by -lr * g / (sqrt(G + g^2) + EPSILON) where G is
    the squared-gradient total accumulated before this step; the accumulator
    then advances to G + g^2.  Accumulators never decrease.
    """

    EPSILON = 1e-8

    def __init__(self, params: dict, learning_rate: float = 0.1):
        self.learning_rate = float(learning_rate)
        self.accumulators = {name: np.zeros_like(buf) for name, buf in params.items()}

    def step(self, params: dict, grads: dict) -> None:
        """Move ``params`` by ``grads``, the adjoints of the same buffers."""
        for name, g in grads.items():
            acc = self.accumulators[name]
            acc += g * g
            params[name] -= self.learning_rate * g / (np.sqrt(acc) + self.EPSILON)


# ---------------------------------------------------------------------------
# losses


def soft_f1_loss(y: Var, target: np.ndarray) -> Var:
    """Negative soft overlap score -2 y.t / sum(y + t), in [-1, 0], per row,
    as one tape node.

    ``target`` is a binary array of the shape of ``y``'s rows, or of ``y``
    with any leading axes dropped, which it is broadcast over: one target
    scores a stack of states.  Sums run along the last axis, so a row's
    loss has the same bits in any stack or batch.  Reaches -1 exactly
    when y equals a nonempty binary target.  When both the relaxed state and
    the target are identically zero the loss is the constant 0 (agreement on
    the empty set, no gradient).  Value and adjoint are bit-identical to the
    composed graph in ``tests/oracles.py``, whose sweep adds the
    denominator's term into ``y``'s adjoint before the overlap's.
    """
    t_sum = target.sum(axis=-1)
    # a row where both are empty divides its zero overlap by one
    empty = (t_sum == 0.0) & ~np.any(y.value, axis=-1)
    scaled = -2.0 * (y.value * target).sum(axis=-1)
    total = y.value.sum(axis=-1) + (t_sum + empty)

    def bwd(g):
        y.adjoint += (-(g * scaled / total**2))[..., None]
        y.adjoint += (-2.0 * (g / total))[..., None] * target

    return Var(y.tape, scaled / total, bwd)


def binary_cross_entropy(y: Var, target: np.ndarray) -> Var:
    """Mean label-wise cross entropy per row against a binary ``target`` of
    the shape of ``y``, probabilities clamped away from {0, 1}."""
    eps = 1e-7
    p = dg.clip(y, lo=eps, hi=1.0 - eps)
    pos = dg.mul(Var(y.tape, target), dg.log(p))
    neg = dg.mul(Var(y.tape, 1.0 - target), dg.log(dg.shift(dg.scale(p, -1.0), 1.0)))
    return dg.scale(dg.vsum(dg.add(pos, neg)), -1.0 / target.shape[-1])


_STEP_LOSSES = {"soft_f1": soft_f1_loss, "cross_entropy": binary_cross_entropy}


def weighted_trajectory_loss(trajectory: inf.Trajectory, target: np.ndarray,
                             loss_config: LossConfig) -> Var:
    """Mean per-state loss, discounted toward early ascent states.

    State t of T contributes with weight 1 / (T * (T - t + 1)), so the
    final state carries the largest share.  The initialization (state 0)
    is not scored, so a trajectory needs at least one ascent state.

    The T states are stacked into one node, the step loss scores that
    (T, ...) value once against the broadcast target, and one node adds
    the weighted losses left to right.  Where the loss is the last node to
    read the states, as in ``example_loss``, value and adjoints are
    bit-identical to scoring each state on its own node and chaining
    ``scale`` and ``add`` nodes, the form ``tests/oracles.py`` keeps.
    """
    states = trajectory.states[1:]
    horizon = len(states)
    losses = _STEP_LOSSES[loss_config.single_step](_stacked(states), target)
    weights = np.array([1.0 / (horizon * (horizon - t + 1)) for t in range(1, horizon + 1)])
    weights = weights.reshape((horizon,) + (1,) * (losses.value.ndim - 1))

    def bwd(g):
        losses.adjoint += weights * g

    # summed left to right from the first term, as the chain of add nodes
    # sums, so a total of -0.0 keeps its sign
    return Var(losses.tape, np.add.accumulate(weights * losses.value)[-1], bwd)


def _stacked(states: list) -> Var:
    """The states as one node of shape (T, ...); each gets its slice of the
    adjoint."""

    def bwd(g):
        for y, g_y in zip(states, g):
            y.adjoint += g_y

    return Var(states[0].tape, np.stack([y.value for y in states]), bwd)


def cardinality_cross_entropy(logits: Var, true_count) -> Var:
    """Cross entropy of the bucket distribution against an integer count,
    or of each row's distribution against its own count."""
    k = np.asarray(true_count, dtype=np.intp)
    return dg.sub(dg.logsumexp(logits), dg.pick(logits, k))


def example_loss(tm: md.TapedModel, batch: dt.Dataset, target,
                 inference_config: inf.InferenceConfig,
                 loss_config: LossConfig):
    """Training loss of each example; returns (loss node, trajectory).

    With a (B, L) target matrix, ``batch`` holds B examples that run on one
    tape as CSR rows, and the loss has one entry per row.  A target vector
    gives the 0-d loss of a one-row dataset, a path only the benchmark's
    replay in ``bench/workloads.py`` takes.  Targets are the 0/1 rows that
    ``Dataset.targets`` or ``Dataset.target`` build from a checked corpus,
    so nothing here checks them again.  With zero ascent steps the
    single-step loss is applied directly to the initial relaxed state,
    which turns the model into a plain feedforward label scorer (the
    unconstrained baseline).
    The top-z variant produces a single decoded state, so it is scored the
    same way (useful for evaluation; it carries no gradient).  The
    auxiliary loss reads the cardinality logits the trajectory returns, so
    the head runs once, for the budget and the loss alike.
    """
    single = target.ndim == 1
    traj = inf.run_inference(tm, batch.feature_indices, batch.feature_values,
                             inference_config, indptr=None if single else batch.indptr)
    if inference_config.steps == 0 or inference_config.variant == "topz":
        loss = _STEP_LOSSES[loss_config.single_step](traj.final(), target)
    else:
        loss = weighted_trajectory_loss(traj, target, loss_config)
    if loss_config.aux_cardinality_weight > 0.0:
        count = np.minimum(target.sum(axis=-1), tm.config.max_cardinality)
        aux = cardinality_cross_entropy(traj.cardinality_logits, count)
        loss = dg.add(loss, dg.scale(aux, loss_config.aux_cardinality_weight))
    return loss, traj


# ---------------------------------------------------------------------------
# dataset-level passes


def _check_dims(model: md.ScoreModel, dataset: dt.Dataset) -> None:
    cfg = model.config
    if dataset.label_count != cfg.label_count or dataset.input_dim != cfg.input_dim:
        raise ValueError(
            f"model expects input_dim={cfg.input_dim}, label_count={cfg.label_count}; "
            f"dataset has input_dim={dataset.input_dim}, label_count={dataset.label_count}"
        )


def predict(model: md.ScoreModel, dataset: dt.Dataset,
            inference_config: inf.InferenceConfig, loss_config: LossConfig,
            targets: np.ndarray):
    """Decoded label matrix, modal counts and per-example losses of a split,
    which is not empty: ``cardproj eval`` and ``train`` refuse empty splits.

    Runs chunks of up to ``EVAL_CHUNK`` consecutive examples, one tape each,
    and decodes with the modal budget.  Each chunk's losses read its rows of
    ``targets``, the split's ``targets()``, which the caller builds once and
    may read again.  The budget, the auxiliary loss and the modal count all
    read the one cardinality head output that inference returns.
    """
    _check_dims(model, dataset)
    cfg = replace(inference_config, z_mode="argmax")
    chunks = []
    for start in range(0, len(dataset), EVAL_CHUNK):
        stop = min(start + EVAL_CHUNK, len(dataset))
        chunks.append(_decode_chunk(model, dataset.batch(np.arange(start, stop)),
                                    targets[start:stop], cfg, loss_config))
    return tuple(np.concatenate(parts) for parts in zip(*chunks))


def _decode_chunk(model: md.ScoreModel, batch: dt.Dataset, target: np.ndarray,
                  cfg: inf.InferenceConfig, loss_config: LossConfig) -> tuple:
    """Decoded labels, modal counts and losses of one chunk; only arrays come
    back, so its graph is gone before the next chunk's."""
    tm = md.TapedModel(model, Tape())
    loss, traj = example_loss(tm, batch, target, cfg, loss_config)
    labels = inf.decode_labels(traj.final_values(), cfg.decode, z=traj.z_used)
    return labels, md.modal_cardinality(traj.cardinality_logits), loss.value


def evaluate(model: md.ScoreModel, dataset: dt.Dataset,
             inference_config: inf.InferenceConfig,
             loss_config: LossConfig = LossConfig()) -> dict:
    """Mean loss plus the metrics of what ``predict`` decodes; the split's
    targets are built once for both and dropped when the pass returns."""
    targets = dataset.targets()
    labels, counts, losses = predict(model, dataset, inference_config, loss_config, targets)
    f1, f1_label = dt.eval_f1(labels, targets)
    return {
        "loss": float(losses.mean()),
        "f1": f1,
        "f1_label": f1_label,
        "card_mse": float(np.mean((counts - dataset.cardinalities()) ** 2)),
    }


# ---------------------------------------------------------------------------
# the training loop


@dataclass(frozen=True)
class MetricsRecord:
    epoch: int
    split: str
    loss: float
    f1: float
    f1_label: float
    card_mse: float

    def line(self) -> str:
        return (
            f"epoch={self.epoch} split={self.split} loss={self.loss:.6f} "
            f"f1={self.f1:.6f} f1_label={self.f1_label:.6f} "
            f"card_mse={self.card_mse:.6f}"
        )


@dataclass
class TrainResult:
    model: md.ScoreModel
    records: list
    best_epoch: int


def _check_finite(kind: str, buffers: dict, where: str) -> None:
    # the squared norm overflows once any entry passes ~1e154, where every
    # product with another such entry is infinite: the step has diverged
    # even if the entries themselves are still finite
    for name, buf in buffers.items():
        norm_sq = float(np.vdot(buf, buf))
        if not math.isfinite(norm_sq):
            raise TrainingDivergedError(
                f"{kind} buffer {name} has squared norm {norm_sq} {where}"
            )


def _minibatch_loss(model: md.ScoreModel, batch: dt.Dataset,
                    inference_config: inf.InferenceConfig, loss_config: LossConfig,
                    where="example {}".format) -> tuple:
    """The training objective: the mean loss over the rows of ``batch``,
    recorded on a fresh tape; returns (taped model, mean node).

    A non-finite row loss raises :class:`TrainingDivergedError`, which
    names the first such row ``i`` by ``where(i)``, by default as example
    ``i`` of ``batch``.
    """
    tm = md.TapedModel(model, Tape())
    losses, _ = example_loss(tm, batch, batch.targets(), inference_config, loss_config)
    bad = np.flatnonzero(~np.isfinite(losses.value))
    if bad.size:
        raise TrainingDivergedError(
            f"non-finite loss {losses.value[bad[0]]} at {where(bad[0])}"
        )
    return tm, dg.scale(dg.vsum(losses), 1.0 / len(batch))


def _batch_grads(model: md.ScoreModel, batch: dt.Dataset,
                 inference_config: inf.InferenceConfig, loss_config: LossConfig,
                 where="example {}".format) -> dict:
    """Gradient of the training objective on ``batch``; the batch's graph is
    gone before the next batch's."""
    tm, mean = _minibatch_loss(model, batch, inference_config, loss_config, where)
    tm.tape.backward(mean)
    return tm.grads()


def train(model: md.ScoreModel, train_set: dt.Dataset,
          inference_config: inf.InferenceConfig,
          loss_config: LossConfig = LossConfig(),
          train_config: TrainConfig = TrainConfig(epochs=1),
          dev_set: dt.Dataset = None,
          log_stream=None) -> TrainResult:
    """Minibatch AdaGrad on the unrolled inference loss.

    The caller's model is never mutated.  Metrics for the train split and
    the dev split, if any, are recorded before training (epoch 0) and after
    every epoch; each record is also written to ``log_stream`` as one
    stable-schema line.  With a dev set, training stops once dev F1 has not
    improved for ``patience`` consecutive epochs and the best-scoring
    parameters are returned; without one, the final parameters are, and the
    best epoch is the last one run.

    A non-finite loss, averaged batch gradient or updated parameter buffer
    raises :class:`TrainingDivergedError` naming where it happened; a buffer
    counts as non-finite once its squared norm overflows.
    """
    if inference_config.variant == "topz":
        raise ValueError("topz inference has no relaxed trajectory to train through")
    splits = [("train", train_set)] + ([] if dev_set is None else [("dev", dev_set)])
    for _, ds in splits:
        _check_dims(model, ds)

    model = model.copy()
    optimizer = AdaGrad(model.params, train_config.learning_rate)
    rng = np.random.default_rng(train_config.seed)
    records = []

    # the last split's F1, dev's when there is one, picks the best epoch
    def emit(epoch: int) -> float:
        for split, ds in splits:
            record = MetricsRecord(epoch, split,
                                   **evaluate(model, ds, inference_config, loss_config))
            records.append(record)
            if log_stream is not None:
                log_stream.write(record.line() + "\n")
        return record.f1

    best_f1, best_epoch, stale = emit(0), 0, 0
    # without a dev split every epoch is the best yet: nothing to copy
    best = model if dev_set is None else model.copy()
    count = len(train_set)
    for epoch in range(1, train_config.epochs + 1):
        order = rng.permutation(count)
        for number, start in enumerate(range(0, count, train_config.batch_size), 1):
            rows = order[start : start + train_config.batch_size]
            grads = _batch_grads(
                model, train_set.batch(rows), inference_config, loss_config,
                lambda i: f"example {int(rows[i])} in epoch {epoch}")
            where = f"in epoch {epoch}, batch {number}"
            _check_finite("gradient", grads, where)
            optimizer.step(model.params, grads)
            _check_finite("parameter", model.params, where)
        f1 = emit(epoch)
        if dev_set is None or f1 > best_f1:
            best_f1, best_epoch, stale = f1, epoch, 0
            best = model if dev_set is None else model.copy()
        else:
            stale += 1
            if stale >= train_config.patience:
                break
    return TrainResult(model=best, records=records, best_epoch=best_epoch)


# ---------------------------------------------------------------------------
# gradient checking


def gradcheck(model: md.ScoreModel, batch: dt.Dataset,
              inference_config: inf.InferenceConfig,
              loss_config: LossConfig = LossConfig()) -> dict:
    """Relative error of each buffer's training gradient on ``batch``
    against central finite differences of the same objective.

    The gradient is the one a training step applies to ``batch``, and
    each parameter moves by 1e-5 either way.  The per-buffer metric is
    max|analytic - fd| / max(max|fd|, 1e-8), so buffers with vanishing
    gradients are compared at absolute scale.  A non-finite row loss
    raises as in training, naming the row as an example of ``batch``.
    ``topz`` decodes without a relaxed trajectory, so nothing it returns
    has a gradient to check.
    """
    if inference_config.variant == "topz":
        raise ValueError("topz inference has no relaxed trajectory to differentiate")
    step = 1e-5
    model = model.copy()

    def loss_value() -> float:
        _, mean = _minibatch_loss(model, batch, inference_config, loss_config)
        return float(mean.value)

    analytic = _batch_grads(model, batch, inference_config, loss_config)
    errors = {}
    for name, buf in model.params.items():
        fd = np.zeros_like(buf)
        it = np.nditer(buf, flags=["multi_index"])
        for _ in it:
            at = it.multi_index
            orig = buf[at]
            buf[at] = orig + step
            hi = loss_value()
            buf[at] = orig - step
            lo = loss_value()
            buf[at] = orig
            fd[at] = (hi - lo) / (2.0 * step)
        scale = max(float(np.abs(fd).max(initial=0.0)), 1e-8)
        errors[name] = float(np.abs(analytic[name] - fd).max(initial=0.0)) / scale
    return errors
