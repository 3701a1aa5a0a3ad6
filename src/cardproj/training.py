"""Losses, the outer optimizer, the training loop, and gradient checking.

Training differentiates through the unrolled inference procedure: every
ascent state of the relaxed label trajectory is scored against the true
label set, later states weighted more heavily, and the resulting scalar is
backpropagated through projections, momentum, and the cardinality head in
one reverse sweep.  An auxiliary cross-entropy on the cardinality buckets
keeps the counter trained even when the trajectory loss plateaus.

The outer optimizer is diagonal AdaGrad.  Minibatch gradients are
accumulated per example in a fixed order, so training is deterministic
for a fixed seed (the shuffle is the only randomness).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import data as dt
from . import diffgraph as dg
from . import inference as inf
from . import model as md
from .diffgraph import Tape, Var

SINGLE_STEP_LOSSES = ("soft_f1", "cross_entropy")

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
    "single_step_loss",
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
        if self.single_step not in SINGLE_STEP_LOSSES:
            raise ValueError(
                f"single_step must be one of {SINGLE_STEP_LOSSES}, "
                f"got {self.single_step!r}"
            )
        w = self.aux_cardinality_weight
        if not (isinstance(w, (int, float)) and np.isfinite(w) and w >= 0):
            raise ValueError("aux_cardinality_weight must be finite and >= 0")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 32
    learning_rate: float = 0.1
    seed: int = 0
    patience: int = 10

    def __post_init__(self):
        if not isinstance(self.epochs, int) or isinstance(self.epochs, bool) or self.epochs < 0:
            raise ValueError("epochs must be a nonnegative integer")
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive")
        if not isinstance(self.patience, int) or self.patience < 1:
            raise ValueError("patience must be a positive integer")


class AdaGrad:
    """Diagonal AdaGrad over a named parameter dictionary.

    Each coordinate moves by -lr * g / (sqrt(G + g^2) + eps) where G is the
    squared-gradient total accumulated before this step; the accumulator
    then advances to G + g^2.  Accumulators never decrease.
    """

    def __init__(self, params: dict, learning_rate: float = 0.1, epsilon: float = 1e-8):
        if not (np.isfinite(learning_rate) and learning_rate > 0):
            raise ValueError("learning_rate must be positive")
        if not epsilon > 0:
            raise ValueError("epsilon must be positive")
        self.learning_rate = float(learning_rate)
        self.epsilon = float(epsilon)
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
            params[name] -= self.learning_rate * g / (np.sqrt(acc) + self.epsilon)


# ---------------------------------------------------------------------------
# losses


def _check_target(target, size: int) -> np.ndarray:
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (size,):
        raise ValueError(f"target shape {target.shape} does not match ({size},)")
    if not np.all((target == 0.0) | (target == 1.0)):
        raise ValueError("target must be binary")
    return target


def soft_f1_loss(y: Var, target) -> Var:
    """Negative soft overlap score -2 y.t / sum(y + t), in [-1, 0].

    Reaches -1 exactly when y equals a nonempty binary target.  When both
    the relaxed state and the target are identically zero the loss is the
    constant 0 (agreement on the empty set, no gradient).
    """
    target = _check_target(target, y.value.size)
    if target.sum() == 0.0 and not np.any(y.value):
        return y.tape.constant(0.0)
    overlap = dg.dot(y, y.tape.constant(target))
    total = dg.shift(dg.vsum(y), float(target.sum()))
    return dg.div(dg.scale(overlap, -2.0), total)


def binary_cross_entropy(y: Var, target) -> Var:
    """Mean label-wise cross entropy, probabilities clamped away from {0, 1}."""
    target = _check_target(target, y.value.size)
    eps = 1e-7
    p = dg.clip(y, lo=eps, hi=1.0 - eps)
    pos = dg.mul(y.tape.constant(target), dg.log(p))
    neg = dg.mul(y.tape.constant(1.0 - target), dg.log(dg.shift(dg.neg(p), 1.0)))
    return dg.scale(dg.vsum(dg.add(pos, neg)), -1.0 / target.size)


def single_step_loss(kind: str, y: Var, target) -> Var:
    if kind == "soft_f1":
        return soft_f1_loss(y, target)
    if kind == "cross_entropy":
        return binary_cross_entropy(y, target)
    raise ValueError(f"unknown single-step loss {kind!r}")


def weighted_trajectory_loss(trajectory: inf.Trajectory, target, loss_config: LossConfig) -> Var:
    """Mean per-state loss, discounted toward early ascent states.

    State t of T contributes with weight 1 / (T * (T - t + 1)), so the
    final state carries the largest share.  The initialization (state 0)
    is not scored; a trajectory without ascent states is an error.
    """
    states = trajectory.states[1:]
    if not states:
        raise ValueError("trajectory has no ascent states to score")
    horizon = len(states)
    total = None
    for t, y in enumerate(states, start=1):
        step = single_step_loss(loss_config.single_step, y, target)
        term = dg.scale(step, 1.0 / (horizon * (horizon - t + 1)))
        total = term if total is None else dg.add(total, term)
    return total


def cardinality_cross_entropy(logits: Var, true_count: int) -> Var:
    """Cross entropy of the bucket distribution against an integer count."""
    k = int(true_count)
    if not 0 <= k < logits.value.size:
        raise ValueError(f"count {k} outside the {logits.value.size} buckets")
    return dg.sub(dg.logsumexp(logits), dg.pick(logits, k))


def example_loss(tm: md.TapedModel, example: dt.Example, target,
                 inference_config: inf.InferenceConfig,
                 loss_config: LossConfig):
    """Full training loss of one example; returns (loss node, trajectory).

    With zero ascent steps the single-step loss is applied directly to the
    initial relaxed state, which turns the model into a plain feedforward
    label scorer (the unconstrained baseline).  The top-z variant produces
    a single decoded state, so it is scored the same way (useful for
    evaluation; it carries no gradient).  The auxiliary loss reads the
    trajectory's cardinality logits when inference already computed them
    (a modal budget), and otherwise records its own there.
    """
    target = _check_target(target, tm.config.label_count)
    traj = inf.run_inference(tm, example.feature_indices, example.feature_values,
                             inference_config)
    if inference_config.steps == 0 or inference_config.variant == "topz":
        loss = single_step_loss(loss_config.single_step, traj.final(), target)
    else:
        loss = weighted_trajectory_loss(traj, target, loss_config)
    if loss_config.aux_cardinality_weight > 0.0:
        if traj.cardinality_logits is None:
            traj.cardinality_logits = md.cardinality_logits(
                tm, example.feature_indices, example.feature_values)
        count = min(int(target.sum()), tm.config.max_cardinality)
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


def _modal_count(tm: md.TapedModel, example: dt.Example, traj: inf.Trajectory) -> int:
    # the argmax count, from the head output the trajectory holds if any
    logits = traj.cardinality_logits
    if logits is None:
        logits = md.cardinality_logits(tm, example.feature_indices, example.feature_values)
    return md.modal_cardinality(logits)


def predict(model: md.ScoreModel, dataset: dt.Dataset,
            inference_config: inf.InferenceConfig):
    """Decoded label matrix and argmax cardinality predictions."""
    _check_dims(model, dataset)
    labels = np.zeros((len(dataset), model.config.label_count))
    counts = np.zeros(len(dataset))
    for i, ex in enumerate(dataset.examples):
        tape = Tape()
        tm = md.TapedModel(model, tape)
        traj = inf.run_inference(tm, ex.feature_indices, ex.feature_values,
                                 inference_config)
        labels[i] = inf.decode_labels(traj.final_values(), inference_config.decode,
                                      z=traj.z_used)
        counts[i] = _modal_count(tm, ex, traj)
    return labels, counts


def evaluate(model: md.ScoreModel, dataset: dt.Dataset,
             inference_config: inf.InferenceConfig,
             loss_config: LossConfig = LossConfig()) -> dict:
    """Mean loss plus decoded metrics; the budget uses the argmax bucket.

    The budget, the auxiliary loss and the modal count all read one
    cardinality head output per example.
    """
    _check_dims(model, dataset)
    eval_cfg = replace(inference_config, z_mode="argmax")
    losses = np.zeros(len(dataset))
    labels = np.zeros((len(dataset), model.config.label_count))
    counts = np.zeros(len(dataset))
    for i, ex in enumerate(dataset.examples):
        tape = Tape()
        tm = md.TapedModel(model, tape)
        target = dataset.target(i)
        loss, traj = example_loss(tm, ex, target, eval_cfg, loss_config)
        losses[i] = float(loss.value)
        labels[i] = inf.decode_labels(traj.final_values(), eval_cfg.decode,
                                      z=traj.z_used)
        counts[i] = _modal_count(tm, ex, traj)
    truth = np.stack([dataset.target(i) for i in range(len(dataset))])
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
            batch = order[start : start + train_config.batch_size]
            sums = {name: np.zeros_like(buf) for name, buf in model.params.items()}
            for i in batch:
                tape = Tape()
                tm = md.TapedModel(model, tape)
                loss, _ = example_loss(tm, train_set.examples[i], train_set.target(i),
                                       inference_config, loss_config)
                value = float(loss.value)
                if not np.isfinite(value):
                    raise TrainingDivergedError(
                        f"non-finite loss {value} at example {int(i)} in epoch {epoch}"
                    )
                tape.backward(loss)
                for name, grad in tm.grads().items():
                    sums[name] += grad
            inv = 1.0 / batch.size
            grads = {k: v * inv for k, v in sums.items()}
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


def gradcheck(model: md.ScoreModel, example: dt.Example, target,
              inference_config: inf.InferenceConfig,
              loss_config: LossConfig = LossConfig(),
              step: float = 1e-5) -> GradCheckReport:
    """Compare backward-pass gradients against central finite differences.

    The per-buffer metric is max|analytic - fd| / max(max|fd|, 1e-8), so
    buffers with vanishing gradients are compared at absolute scale.
    """
    model = model.copy()
    target = _check_target(target, model.config.label_count)

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
