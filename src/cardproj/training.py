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
gradient in the parameter adjoints.  The outer
optimizer is diagonal AdaGrad.  Training is deterministic for a fixed seed
(the shuffle is the only randomness).  Evaluation and prediction walk a
split in fixed-size chunks, one tape each, and a row's decoded labels do
not depend on the chunk it ran in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import data as dt
from . import diffgraph as dg
from . import fields as fl
from . import inference as inf
from . import model as md
from .diffgraph import Tape, Var

SINGLE_STEP_LOSSES = ("soft_f1", "cross_entropy")

# examples per tape in evaluate and predict.  A pc-5 chunk of 32 peaks at
# about 3 MiB of traced memory with 30 labels and 53 MiB with 983, the
# paper's largest label count; per example it is at most 11% slower than
# the fastest of the chunk sizes 16, 32, 64 and 128 at either size.
EVAL_CHUNK = 32

__all__ = [
    "LossConfig",
    "TrainConfig",
    "AdaGrad",
    "TrainingDivergedError",
    "MetricsRecord",
    "TrainResult",
    "GradCheckReport",
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
        fl.choice("single_step", self.single_step, SINGLE_STEP_LOSSES)
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
        fl.number("learning_rate", learning_rate, float, "> 0")
        self.learning_rate = float(learning_rate)
        self.accumulators = {name: np.zeros_like(buf) for name, buf in params.items()}

    def step(self, params: dict, grads: dict) -> None:
        for name, grad in grads.items():
            if name not in self.accumulators:
                raise ValueError(f"unknown parameter {name!r}")
            g = np.asarray(grad, dtype=np.float64)
            acc = self.accumulators[name]
            if g.shape != acc.shape:
                raise ValueError(f"gradient shape {g.shape} != {acc.shape} for {name!r}")
            acc += g * g
            params[name] -= self.learning_rate * g / (np.sqrt(acc) + self.EPSILON)


# ---------------------------------------------------------------------------
# losses


def soft_f1_loss(y: Var, target: np.ndarray) -> Var:
    """Negative soft overlap score -2 y.t / sum(y + t), in [-1, 0], per row.

    ``target`` is a binary array of the shape of ``y``.  Reaches -1 exactly
    when y equals a nonempty binary target.  When both the relaxed state and
    the target are identically zero the loss is the constant 0 (agreement on
    the empty set, no gradient).
    """
    t_sum = target.sum(axis=-1)
    # a row where both are empty divides its zero overlap by one
    empty = (t_sum == 0.0) & ~np.any(y.value, axis=-1)
    overlap = dg.dot(y, y.tape.constant(target))
    total = dg.shift(dg.vsum(y), t_sum + empty)
    return dg.div(dg.scale(overlap, -2.0), total)


def binary_cross_entropy(y: Var, target: np.ndarray) -> Var:
    """Mean label-wise cross entropy per row against a binary ``target`` of
    the shape of ``y``, probabilities clamped away from {0, 1}."""
    eps = 1e-7
    p = dg.clip(y, lo=eps, hi=1.0 - eps)
    pos = dg.mul(y.tape.constant(target), dg.log(p))
    neg = dg.mul(y.tape.constant(1.0 - target), dg.log(dg.shift(dg.neg(p), 1.0)))
    return dg.scale(dg.vsum(dg.add(pos, neg)), -1.0 / target.shape[-1])


_STEP_LOSSES = {"soft_f1": soft_f1_loss, "cross_entropy": binary_cross_entropy}


def weighted_trajectory_loss(trajectory: inf.Trajectory, target: np.ndarray,
                             loss_config: LossConfig) -> Var:
    """Mean per-state loss, discounted toward early ascent states.

    State t of T contributes with weight 1 / (T * (T - t + 1)), so the
    final state carries the largest share.  The initialization (state 0)
    is not scored; a trajectory without ascent states is an error.
    """
    states = trajectory.states[1:]
    if not states:
        raise ValueError("trajectory has no ascent states to score")
    step_loss = _STEP_LOSSES[loss_config.single_step]
    horizon = len(states)
    total = None
    for t, y in enumerate(states, start=1):
        term = dg.scale(step_loss(y, target), 1.0 / (horizon * (horizon - t + 1)))
        total = term if total is None else dg.add(total, term)
    return total


def cardinality_cross_entropy(logits: Var, true_count) -> Var:
    """Cross entropy of the bucket distribution against an integer count,
    or of each row's distribution against its own count."""
    k = np.asarray(true_count, dtype=np.intp)
    buckets = logits.shape[-1]
    if np.any(k < 0) or np.any(k >= buckets):
        raise ValueError(f"count {true_count} outside the {buckets} buckets")
    return dg.sub(dg.logsumexp(logits), dg.pick(logits, k))


def example_loss(tm: md.TapedModel, batch: dt.Dataset, target,
                 inference_config: inf.InferenceConfig,
                 loss_config: LossConfig):
    """Training loss of each example; returns (loss node, trajectory).

    With a (B, L) target matrix, ``batch`` holds B examples that run on one
    tape as CSR rows, and the loss has one entry per row.  A target vector
    gives the 0-d loss of a one-row dataset.  This is where a target is
    checked: it must be binary and of the shape the labels give.  With zero
    ascent steps the single-step loss is applied directly to the initial
    relaxed state, which turns the model into a plain feedforward label
    scorer (the unconstrained baseline).
    The top-z variant produces a single decoded state, so it is scored the
    same way (useful for evaluation; it carries no gradient).  The
    auxiliary loss reads the cardinality logits the trajectory returns, so
    the head runs once, for the budget and the loss alike.
    """
    target = np.asarray(target, dtype=np.float64)
    single = target.ndim == 1
    if single and len(batch) != 1:
        raise ValueError(f"a target vector scores one example, got {len(batch)}")
    shape = (tm.config.label_count,) if single else (len(batch), tm.config.label_count)
    if target.shape != shape:
        raise ValueError(f"target shape {target.shape} does not match {shape}")
    if not np.all((target == 0.0) | (target == 1.0)):
        raise ValueError("target must be binary")
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


def _decode_split(model: md.ScoreModel, dataset: dt.Dataset,
                  inference_config: inf.InferenceConfig, loss_config: LossConfig):
    """Targets, losses, decoded labels and modal counts of a whole split.

    Runs chunks of up to ``EVAL_CHUNK`` consecutive examples, one tape each,
    and decodes with the modal budget.  The budget, the auxiliary loss and
    the modal count all read the one cardinality head output that inference
    returns.
    """
    _check_dims(model, dataset)
    if len(dataset) == 0:
        raise ValueError("cannot decode an empty split")
    cfg = replace(inference_config, z_mode="argmax")
    chunks = []
    for start in range(0, len(dataset), EVAL_CHUNK):
        batch = dataset.batch(np.arange(start, min(start + EVAL_CHUNK, len(dataset))))
        targets = batch.targets()
        tm = md.TapedModel(model, Tape())
        loss, traj = example_loss(tm, batch, targets, cfg, loss_config)
        labels = inf.decode_labels(traj.final_values(), cfg.decode, z=traj.z_used)
        chunks.append((targets, loss.value, labels,
                       md.modal_cardinality(traj.cardinality_logits)))
    return [np.concatenate(parts) for parts in zip(*chunks)]


def predict(model: md.ScoreModel, dataset: dt.Dataset,
            inference_config: inf.InferenceConfig):
    """Decoded label matrix and argmax cardinality predictions: the labels
    and counts that ``evaluate`` scores."""
    _, _, labels, counts = _decode_split(model, dataset, inference_config, LossConfig())
    return labels, counts.astype(np.float64)


def evaluate(model: md.ScoreModel, dataset: dt.Dataset,
             inference_config: inf.InferenceConfig,
             loss_config: LossConfig = LossConfig()) -> dict:
    """Mean loss plus decoded metrics; the budget uses the argmax bucket."""
    truth, losses, labels, counts = _decode_split(model, dataset, inference_config,
                                                  loss_config)
    f1, f1_label = dt.eval_f1(labels, truth)
    card_mse = float(np.mean((counts - dataset.cardinalities()) ** 2))
    return {
        "loss": float(losses.mean()),
        "f1": f1,
        "f1_label": f1_label,
        "card_mse": card_mse,
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
        if not np.isfinite(norm_sq):
            raise TrainingDivergedError(
                f"{kind} buffer {name} has squared norm {norm_sq} {where}"
            )


def train(model: md.ScoreModel, train_set: dt.Dataset,
          inference_config: inf.InferenceConfig,
          loss_config: LossConfig = LossConfig(),
          train_config: TrainConfig = TrainConfig(epochs=1),
          dev_set: dt.Dataset = None,
          log_stream=None) -> TrainResult:
    """Minibatch AdaGrad on the unrolled inference loss.

    The caller's model is never mutated.  Metrics for both splits are
    recorded before training (epoch 0) and after every epoch; each record
    is also written to ``log_stream`` as one stable-schema line.  With a
    dev set, training stops once dev F1 has not improved for
    ``patience`` consecutive epochs and the best-scoring parameters are
    returned; without one, the final parameters are.

    A non-finite loss, averaged batch gradient or updated parameter buffer
    raises :class:`TrainingDivergedError` naming where it happened; a buffer
    counts as non-finite once its squared norm overflows.
    """
    if inference_config.variant == "topz":
        raise ValueError("topz inference has no relaxed trajectory to train through")
    _check_dims(model, train_set)
    if dev_set is not None:
        _check_dims(model, dev_set)

    model = model.copy()
    optimizer = AdaGrad(model.params, train_config.learning_rate)
    rng = np.random.default_rng(train_config.seed)
    records = []

    def emit(epoch: int):
        dev_f1 = None
        for split, ds in (("train", train_set), ("dev", dev_set)):
            if ds is None:
                continue
            metrics = evaluate(model, ds, inference_config, loss_config)
            record = MetricsRecord(epoch, split, metrics["loss"], metrics["f1"],
                                   metrics["f1_label"], metrics["card_mse"])
            records.append(record)
            if log_stream is not None:
                log_stream.write(record.line() + "\n")
            if split == "dev":
                dev_f1 = record.f1
        return dev_f1

    best_f1 = emit(0)
    best_params = model.copy()
    best_epoch = 0
    stale = 0
    count = len(train_set)
    for epoch in range(1, train_config.epochs + 1):
        order = rng.permutation(count)
        for number, start in enumerate(range(0, count, train_config.batch_size), 1):
            rows = order[start : start + train_config.batch_size]
            batch = train_set.batch(rows)
            tm = md.TapedModel(model, Tape())
            losses, _ = example_loss(tm, batch, batch.targets(), inference_config,
                                     loss_config)
            bad = np.flatnonzero(~np.isfinite(losses.value))
            if bad.size:
                raise TrainingDivergedError(
                    f"non-finite loss {losses.value[bad[0]]} at example "
                    f"{int(rows[bad[0]])} in epoch {epoch}"
                )
            tm.tape.backward(dg.scale(dg.vsum(losses), 1.0 / len(rows)))
            grads = tm.grads()
            where = f"in epoch {epoch}, batch {number}"
            _check_finite("gradient", grads, where)
            optimizer.step(model.params, grads)
            _check_finite("parameter", model.params, where)
        dev_f1 = emit(epoch)
        if dev_set is None:
            best_epoch = epoch
            continue
        if best_f1 is None or dev_f1 > best_f1:
            best_f1 = dev_f1
            best_params = model.copy()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= train_config.patience:
                break
    if dev_set is not None:
        model = best_params
    return TrainResult(model=model, records=records, best_epoch=best_epoch)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass(frozen=True)
class GradCheckReport:
    per_buffer: dict

    @property
    def max_rel_error(self) -> float:
        return max(self.per_buffer.values())

    def lines(self):
        width = max(len(name) for name in self.per_buffer)
        return [
            f"{name:<{width}}  rel_err={err:.3e}"
            for name, err in sorted(self.per_buffer.items())
        ]


def gradcheck(model: md.ScoreModel, example: dt.Dataset, target,
              inference_config: inf.InferenceConfig,
              loss_config: LossConfig = LossConfig()) -> GradCheckReport:
    """Compare backward-pass gradients against central finite differences.

    Each parameter moves by 1e-5 either way.  The per-buffer metric is
    max|analytic - fd| / max(max|fd|, 1e-8), so buffers with vanishing
    gradients are compared at absolute scale.  ``topz`` decodes without a
    relaxed trajectory, so nothing it returns has a gradient to check.
    """
    if inference_config.variant == "topz":
        raise ValueError("topz inference has no relaxed trajectory to differentiate")
    step = 1e-5
    model = model.copy()

    def loss_value() -> float:
        tape = Tape()
        tm = md.TapedModel(model, tape)
        loss, _ = example_loss(tm, example, target, inference_config, loss_config)
        return float(loss.value)

    tape = Tape()
    tm = md.TapedModel(model, tape)
    loss, _ = example_loss(tm, example, target, inference_config, loss_config)
    tape.backward(loss)
    analytic = tm.grads()

    report = {}
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
        report[name] = float(np.abs(analytic[name] - fd).max(initial=0.0)) / scale
    return GradCheckReport(report)
