"""Sparse multi-label datasets: loading, synthesis, splits, and metrics.

The on-disk corpus format is the svmlight-style multi-label text layout:
one example per line, a comma-separated label list (possibly empty, marked
by a leading space) followed by whitespace-separated ``index:value``
feature pairs.  The synthetic generator plants a recoverable cardinality
signal: the label-set size is a deterministic function of how many distinct
words an example activates, and the label identities come from a fixed
random linear map, so both the counter and the labels are learnable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fields as fl

__all__ = [
    "DataFormatError",
    "Example",
    "Dataset",
    "Batch",
    "load_sparse_multilabel",
    "save_sparse_multilabel",
    "generate_synthetic",
    "split_dataset",
    "take",
    "eval_f1",
    "eval_cardinality_mse",
    "reference_cardinality_mse",
]


class DataFormatError(ValueError):
    """A corpus line that cannot be parsed, with its location."""


@dataclass
class Example:
    """One sparse input with its active label set.

    Feature indices are kept sorted and must be unique; values float64.
    ``labels`` holds the sorted indices of active labels.
    """

    feature_indices: np.ndarray
    feature_values: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.feature_indices, dtype=np.intp)
        vals = np.asarray(self.feature_values, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.intp)
        if idx.ndim != 1 or vals.ndim != 1 or labels.ndim != 1:
            raise ValueError("example fields must be vectors")
        if idx.shape != vals.shape:
            raise ValueError("feature indices and values differ in length")
        if idx.size and idx.min() < 0:
            raise ValueError("negative feature index")
        if labels.size and labels.min() < 0:
            raise ValueError("negative label index")
        if np.unique(idx).size != idx.size:
            raise ValueError("duplicate feature indices")
        if np.unique(labels).size != labels.size:
            raise ValueError("duplicate label indices")
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite feature value")
        order = np.argsort(idx)
        object.__setattr__(self, "feature_indices", idx[order])
        object.__setattr__(self, "feature_values", vals[order])
        object.__setattr__(self, "labels", np.sort(labels))

    def cardinality(self) -> int:
        return int(self.labels.size)


@dataclass
class Dataset:
    """Examples plus the feature/label dimensions they live in."""

    examples: list
    input_dim: int
    label_count: int

    def __post_init__(self):
        if self.input_dim < 1 or self.label_count < 1:
            raise ValueError("dimensions must be positive")
        for pos, ex in enumerate(self.examples):
            if ex.feature_indices.size and ex.feature_indices.max() >= self.input_dim:
                raise ValueError(
                    f"example {pos}: feature index {ex.feature_indices.max()} "
                    f"exceeds input_dim {self.input_dim}"
                )
            if ex.labels.size and ex.labels.max() >= self.label_count:
                raise ValueError(
                    f"example {pos}: label index {ex.labels.max()} "
                    f"exceeds label_count {self.label_count}"
                )

    def __len__(self):
        return len(self.examples)

    def target(self, i: int) -> np.ndarray:
        """Dense binary label vector of example i."""
        out = np.zeros(self.label_count)
        out[self.examples[i].labels] = 1.0
        return out

    def cardinalities(self) -> np.ndarray:
        return np.array([ex.cardinality() for ex in self.examples], dtype=np.float64)

    def batch(self, rows) -> "Batch":
        """The examples at positions ``rows``, stacked for one tape."""
        rows = np.asarray(rows, dtype=np.intp)
        examples = [self.examples[i] for i in rows]
        indptr = np.zeros(rows.size + 1, dtype=np.intp)
        np.cumsum([ex.feature_indices.size for ex in examples], out=indptr[1:])
        targets = np.zeros((rows.size, self.label_count))
        for r, ex in enumerate(examples):
            targets[r, ex.labels] = 1.0
        return Batch(
            rows,
            indptr,
            np.concatenate([ex.feature_indices for ex in examples]),
            np.concatenate([ex.feature_values for ex in examples]),
            targets,
        )


@dataclass(frozen=True)
class Batch:
    """Examples of one dataset stacked as rows: CSR inputs, dense targets.

    Row r holds the example at dataset position ``rows[r]``: its features
    are ``feature_indices[indptr[r]:indptr[r + 1]]`` with the matching
    ``feature_values``, and its binary label vector is ``targets[r]``.  The
    examples were validated when they were built, so a batch is not checked
    again.
    """

    rows: np.ndarray
    indptr: np.ndarray
    feature_indices: np.ndarray
    feature_values: np.ndarray
    targets: np.ndarray

    def __len__(self):
        return self.rows.size


# ---------------------------------------------------------------------------
# corpus reading and writing


def _parse_line(line: str):
    if line[0] in " \t":
        label_field = ""
        feature_tokens = line.split()
    else:
        tokens = line.split()
        label_field = tokens[0]
        feature_tokens = tokens[1:]
        if ":" in label_field:
            raise ValueError(
                "missing label field (a feature pair appeared first; an empty "
                "label set is written as a leading space)"
            )
    labels = []
    if label_field:
        for token in label_field.split(","):
            try:
                value = int(token)
            except ValueError:
                raise ValueError(f"bad label token {token!r}") from None
            labels.append(value)
    indices, values = [], []
    for token in feature_tokens:
        head, sep, tail = token.partition(":")
        if not sep:
            raise ValueError(f"feature pair {token!r} has no colon")
        try:
            indices.append(int(head))
            values.append(float(tail))
        except ValueError:
            raise ValueError(f"bad feature pair {token!r}") from None
    return Example(np.array(indices), np.array(values), np.array(labels))


def load_sparse_multilabel(path, label_count=None, input_dim=None) -> Dataset:
    """Read a multi-label corpus; every malformed line is rejected by number.

    Dimensions default to one past the largest index seen; passing them
    explicitly turns out-of-range indices into load errors.
    """
    examples = []
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.rstrip("\r\n")
            if line == "":
                continue
            try:
                ex = _parse_line(line)
            except ValueError as err:
                raise DataFormatError(f"{path}:{lineno}: {err}") from None
            if label_count is not None and ex.labels.size and ex.labels.max() >= label_count:
                raise DataFormatError(
                    f"{path}:{lineno}: label index {ex.labels.max()} "
                    f"exceeds label_count {label_count}"
                )
            if input_dim is not None and ex.feature_indices.size and (
                ex.feature_indices.max() >= input_dim
            ):
                raise DataFormatError(
                    f"{path}:{lineno}: feature index {ex.feature_indices.max()} "
                    f"exceeds input_dim {input_dim}"
                )
            examples.append(ex)
    if label_count is None:
        label_count = 1 + max((int(e.labels.max()) for e in examples if e.labels.size), default=0)
    if input_dim is None:
        input_dim = 1 + max(
            (int(e.feature_indices.max()) for e in examples if e.feature_indices.size),
            default=0,
        )
    return Dataset(examples, input_dim, label_count)


def save_sparse_multilabel(dataset: Dataset, path) -> None:
    """Write the corpus format read by :func:`load_sparse_multilabel`.

    Feature values are printed with enough digits to round-trip float64
    exactly.  An example with no labels gets the leading-space marker.
    """
    with open(path, "w") as handle:
        for ex in dataset.examples:
            labels = ",".join(str(int(l)) for l in ex.labels)
            feats = " ".join(
                f"{int(i)}:{v:.17g}"
                for i, v in zip(ex.feature_indices, ex.feature_values)
            )
            line = (labels + " " + feats).rstrip() or " "
            handle.write(line + "\n")


# ---------------------------------------------------------------------------
# synthetic task with planted cardinality structure


def generate_synthetic(
    n: int,
    label_count: int,
    input_dim: int,
    modulus: int = 10,
    seed: int = 0,
    min_words: int = 5,
    max_words: int = 34,
) -> Dataset:
    """Random binary bags whose label-set size is a function of bag size.

    Each example activates m distinct words (uniform in [min_words,
    max_words]) with unit values; its labels are the top-k rows of a fixed
    random linear map applied to the bag, with k = 1 + (m mod modulus).
    Deterministic given the seed.
    """
    if n < 1:
        raise ValueError("need at least one example")
    if not 1 <= min_words <= max_words <= input_dim:
        raise ValueError(
            f"need 1 <= min_words <= max_words <= input_dim, got "
            f"[{min_words}, {max_words}] with input_dim {input_dim}"
        )
    fl.number("modulus", modulus, int, ">= 1")
    rng = np.random.default_rng(seed)
    mix = rng.normal(0.0, 1.0, size=(label_count, input_dim))
    examples = []
    for _ in range(n):
        m = int(rng.integers(min_words, max_words + 1))
        idx = np.sort(rng.choice(input_dim, size=m, replace=False))
        vals = np.ones(m)
        k = 1 + m % modulus
        if k > label_count:
            raise ValueError(
                f"cardinality rule maps {m} words to {k} labels, "
                f"outside [1, {label_count}]"
            )
        scores = mix[:, idx] @ vals
        labels = np.sort(np.argsort(-scores, kind="stable")[:k])
        examples.append(Example(idx, vals, labels))
    return Dataset(examples, input_dim, label_count)


# ---------------------------------------------------------------------------
# splits


def take(dataset: Dataset, indices) -> Dataset:
    """Sub-dataset at the given example indices (order preserved)."""
    indices = np.asarray(indices, dtype=np.intp)
    if indices.ndim != 1:
        raise ValueError("indices must be a vector")
    if indices.size:
        if indices.min() < 0 or indices.max() >= len(dataset):
            raise ValueError(
                f"index out of range for dataset of {len(dataset)} examples"
            )
        if np.unique(indices).size != indices.size:
            raise ValueError("duplicate example indices")
    return Dataset([dataset.examples[i] for i in indices], dataset.input_dim,
                   dataset.label_count)


def split_dataset(dataset: Dataset, fractions=(0.8, 0.1, 0.1), seed: int = 0):
    """Shuffle once and cut into train/dev/test; disjoint and covering."""
    fractions = np.asarray(fractions, dtype=np.float64)
    if fractions.shape != (3,) or np.any(fractions < 0):
        raise ValueError("need three nonnegative fractions")
    if abs(fractions.sum() - 1.0) > 1e-9:
        raise ValueError(f"fractions sum to {fractions.sum()}, expected 1")
    perm = np.random.default_rng(seed).permutation(len(dataset))
    n_train = int(fractions[0] * len(dataset))
    n_dev = int(fractions[1] * len(dataset))
    cuts = (perm[:n_train], perm[n_train : n_train + n_dev], perm[n_train + n_dev :])
    return tuple(take(dataset, part) for part in cuts)


# ---------------------------------------------------------------------------
# metrics


def _as_binary_matrix(rows, what: str) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{what} must be a list of equal-length vectors")
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValueError(f"{what} must be binary")
    return arr


def eval_f1(predictions, targets) -> tuple[float, float]:
    """Example-averaged F1 and the label-macro variant.

    Per example, F1 = 2|pred ∩ true| / (|pred| + |true|), defined as 1 when
    both sets are empty (agreement on absence).  The label-macro variant
    applies the same formula per label column and averages over labels,
    with the same both-empty convention.
    """
    pred = _as_binary_matrix(predictions, "predictions")
    true = _as_binary_matrix(targets, "targets")
    if pred.shape != true.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {true.shape}")
    inter = (pred * true).sum(axis=1)
    sizes = pred.sum(axis=1) + true.sum(axis=1)
    per_example = np.where(sizes > 0, 2.0 * inter / np.maximum(sizes, 1e-300), 1.0)
    inter_l = (pred * true).sum(axis=0)
    sizes_l = pred.sum(axis=0) + true.sum(axis=0)
    per_label = np.where(sizes_l > 0, 2.0 * inter_l / np.maximum(sizes_l, 1e-300), 1.0)
    return float(per_example.mean()), float(per_label.mean())


def eval_cardinality_mse(predicted, targets, train_targets=None, seed: int = 0):
    """MSE of a cardinality predictor against two reference baselines.

    Returns (predictor, constant, random); the baselines are those of
    :func:`reference_cardinality_mse`.  ``train_targets`` defaults to
    ``targets``.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predicted.shape != targets.shape or predicted.ndim != 1:
        raise ValueError("predicted and targets must be equal-length vectors")
    mse_h = float(np.mean((predicted - targets) ** 2))
    return (mse_h, *reference_cardinality_mse(targets, train_targets, seed))


def reference_cardinality_mse(targets, train_targets=None, seed: int = 0):
    """MSE of the two reference cardinality predictors: (constant, random).

    The constant baseline predicts the mean cardinality of the training
    split, the random baseline draws uniform integers over the training
    split's observed cardinality range.  ``train_targets`` defaults to
    ``targets``.
    """
    targets = np.asarray(targets, dtype=np.float64)
    reference = targets if train_targets is None else np.asarray(train_targets, np.float64)
    if reference.size == 0:
        raise ValueError("empty reference cardinalities")
    mse_const = float(np.mean((reference.mean() - targets) ** 2))
    lo, hi = int(reference.min()), int(reference.max())
    draws = np.random.default_rng(seed).integers(lo, hi + 1, size=targets.size)
    mse_rand = float(np.mean((draws - targets) ** 2))
    return mse_const, mse_rand
