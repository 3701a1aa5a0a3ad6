"""Sparse multi-label datasets: loading, synthesis, splits, and metrics.

The on-disk corpus format is the svmlight-style multi-label text layout:
one example per line, a comma-separated label list (possibly empty, marked
by a leading space) followed by whitespace-separated ``index:value``
feature pairs.  One container, :class:`Dataset`, holds rows as CSR arrays:
a corpus, a split, a minibatch and a single example alike.  A corpus is
checked once where it enters the program, by the loader or the synthetic
generator; splits, minibatches and examples are rows gathered or viewed
from a checked corpus and check nothing again.  The synthetic
generator plants a recoverable cardinality signal: the label-set size is a
deterministic function of how many distinct words an example activates,
and the label identities come from a fixed random linear map, so both the
counter and the labels are learnable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fields as fl

__all__ = [
    "DataFormatError",
    "Dataset",
    "load_sparse_multilabel",
    "save_sparse_multilabel",
    "generate_synthetic",
    "split_dataset",
    "eval_f1",
    "reference_cardinality_mse",
]


class DataFormatError(ValueError):
    """A corpus line that cannot be parsed, with its location."""


def _offsets(sizes) -> np.ndarray:
    """CSR row pointer of rows with the given sizes."""
    indptr = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=indptr[1:])
    return indptr


def _gather(indptr: np.ndarray, rows: np.ndarray):
    """Row pointer of CSR ``rows`` stacked in order, and their entries' positions."""
    starts, sizes = indptr[rows], indptr[rows + 1] - indptr[rows]
    out = _offsets(sizes)
    return out, np.arange(out[-1]) + np.repeat(starts - out[:-1], sizes)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows as CSR arrays, plus the feature/label dimensions they live in: a
    corpus, a split, a minibatch or one example.

    Row i has features ``feature_indices[indptr[i]:indptr[i + 1]]``, sorted
    and unique, with the matching float64 ``feature_values``, and the sorted,
    unique labels ``labels[label_indptr[i]:label_indptr[i + 1]]``.  Every
    index lies inside its dimension and every value is finite.  The
    constructor checks nothing: a corpus comes from
    :func:`load_sparse_multilabel` or :func:`generate_synthetic`, which
    check it once, and every other dataset holds rows of a corpus
    (:meth:`batch`, :attr:`examples`).  The arrays are made read-only, so
    rows handed out as views stay valid.
    """

    indptr: np.ndarray
    feature_indices: np.ndarray
    feature_values: np.ndarray
    label_indptr: np.ndarray
    labels: np.ndarray
    input_dim: int
    label_count: int

    def __post_init__(self):
        for arr in (self.indptr, self.feature_indices, self.feature_values,
                    self.label_indptr, self.labels):
            arr.flags.writeable = False

    def __len__(self):
        return self.indptr.size - 1

    @cached_property
    def examples(self) -> tuple:
        """Every row as a one-row dataset of read-only views, built on first use."""
        f, l = self.indptr.tolist(), self.label_indptr.tolist()
        return tuple(
            Dataset(_offsets([f[i + 1] - f[i]]), self.feature_indices[f[i] : f[i + 1]],
                    self.feature_values[f[i] : f[i + 1]], _offsets([l[i + 1] - l[i]]),
                    self.labels[l[i] : l[i + 1]], self.input_dim, self.label_count)
            for i in range(len(self))
        )

    def target(self, i: int) -> np.ndarray:
        """Dense binary label vector of example i."""
        out = np.zeros(self.label_count)
        out[self.labels[self.label_indptr[i] : self.label_indptr[i + 1]]] = 1.0
        return out

    def targets(self) -> np.ndarray:
        """Dense binary label matrix, one row per example."""
        out = np.zeros((len(self), self.label_count))
        out[np.repeat(np.arange(len(self)), np.diff(self.label_indptr)), self.labels] = 1.0
        return out

    def cardinalities(self) -> np.ndarray:
        return np.diff(self.label_indptr).astype(np.float64)

    def batch(self, rows) -> "Dataset":
        """The rows at positions ``rows``, in order, without any check: a
        minibatch for one tape, or a split of a shuffled corpus."""
        rows = np.asarray(rows, dtype=np.intp)
        indptr, at = _gather(self.indptr, rows)
        label_indptr, label_at = _gather(self.label_indptr, rows)
        return Dataset(indptr, self.feature_indices[at], self.feature_values[at],
                       label_indptr, self.labels[label_at], self.input_dim,
                       self.label_count)


# ---------------------------------------------------------------------------
# the one check of a corpus


def _follows(indptr: np.ndarray, size: int) -> np.ndarray:
    """Mask over entries 1.. of a CSR array: entry k shares a row with k - 1."""
    starts = np.zeros(size, dtype=bool)
    starts[indptr[:-1][indptr[:-1] < size]] = True
    return ~starts[1:]


def _row_order(indptr: np.ndarray, values: np.ndarray):
    """Stable permutation sorting each CSR row ascending; the whole-array
    slice when every row already is strictly ascending, as a written corpus is."""
    if np.all((np.diff(values) > 0) | ~_follows(indptr, values.size)):
        return slice(None)
    return np.lexsort((values, np.repeat(np.arange(indptr.size - 1), np.diff(indptr))))


def _repeats(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted CSR rows equal to the entry before them."""
    repeated = np.zeros(values.size, dtype=bool)
    repeated[1:] = (np.diff(values) == 0) & _follows(indptr, values.size)
    return repeated


def _first_fault(indptr, feature_indices, feature_values, label_indptr, labels,
                 input_dim, label_count):
    """(row, message) of the first row that breaks a corpus rule, or None.

    Rows must be sorted within themselves.  The rules are tried in a fixed
    order, the dimensions last, which are skipped when None; the earliest
    row wins, then the earliest rule.
    """
    rules = [
        (indptr, feature_indices < 0, lambda row: "negative feature index"),
        (label_indptr, labels < 0, lambda row: "negative label index"),
        (indptr, _repeats(indptr, feature_indices), lambda row: "duplicate feature indices"),
        (label_indptr, _repeats(label_indptr, labels), lambda row: "duplicate label indices"),
        (indptr, ~np.isfinite(feature_values), lambda row: "non-finite feature value"),
    ]
    if label_count is not None:
        rules.append((label_indptr, labels >= label_count, lambda row: (
            f"label index {labels[label_indptr[row + 1] - 1]} "
            f"exceeds label_count {label_count}")))
    if input_dim is not None:
        rules.append((indptr, feature_indices >= input_dim, lambda row: (
            f"feature index {feature_indices[indptr[row + 1] - 1]} "
            f"exceeds input_dim {input_dim}")))
    first = None
    for row_ptr, broken, message in rules:
        if broken.any():
            row = int(np.searchsorted(row_ptr, broken.argmax(), side="right")) - 1
            if first is None or row < first[0]:
                first = (row, message(row))
    return first


# ---------------------------------------------------------------------------
# corpus reading and writing


def _convert(kind, tokens: list, dtype):
    """``kind(token)`` of every token as one array, and None; or, when
    ``kind`` rejects a token, the array up to the first such token and its
    position."""
    try:
        return np.fromiter(map(kind, tokens), dtype, count=len(tokens)), None
    except (ValueError, OverflowError) as err:
        failure = err
    for pos, token in enumerate(tokens):
        try:
            np.fromiter((kind(token),), dtype, count=1)
        except (ValueError, OverflowError):
            return np.fromiter(map(kind, tokens[:pos]), dtype, count=pos), pos
    raise failure


_TWO_COLONS = re.compile(r":[^ :]*:")
# rows converted at a time: bounds the token strings alive at once
_BLOCK_ROWS = 1024


def _feature_pairs(texts: list, sizes: list):
    """Indices and values of the ``index:value`` tokens of every row, each
    row's tokens joined by single spaces in ``texts``; and, at the first
    token that is not such a pair, the arrays up to it, its position and
    the token itself."""
    indices, values, done = [], [], 0
    for start in range(0, len(texts), _BLOCK_ROWS):
        joined = " ".join(filter(None, texts[start : start + _BLOCK_ROWS]))
        count = sum(sizes[start : start + _BLOCK_ROWS])
        halves = joined.replace(":", " ").split()
        # these alternate index, value exactly when no token holds two
        # colons, there are as many colons as tokens, and no colon has an
        # empty side
        if (_TWO_COLONS.search(joined) or joined.count(":") != count
                or len(halves) != 2 * count):
            # split each token at its first colon, as a line-by-line reader does
            halves = [half for token in joined.split() for half in token.partition(":")[::2]]
        block_indices, bad_index = _convert(int, halves[0::2], np.intp)
        block_values, bad_value = _convert(float, halves[1::2], np.float64)
        indices.append(block_indices)
        values.append(block_values)
        bad = min((pos for pos in (bad_index, bad_value) if pos is not None), default=None)
        if bad is not None:
            return (np.concatenate(indices), np.concatenate(values), done + bad,
                    joined.split()[bad])
        done += count
    return (np.concatenate([np.empty(0, np.intp)] + indices),
            np.concatenate([np.empty(0)] + values), None, None)


def load_sparse_multilabel(path, label_count=None, input_dim=None) -> Dataset:
    """Read a multi-label corpus; every malformed line is rejected by number.

    One pass splits the lines into label and feature tokens; the built-in
    ``int`` and ``float`` convert all of them in bulk, and the corpus is
    checked once.  The first bad line is reported, with the message a
    line-by-line reader would give.  Dimensions default to one past the
    largest index seen; passing them explicitly turns out-of-range indices
    into load errors.
    """
    linenos, label_tokens, label_sizes, feature_texts, feature_sizes = [], [], [], [], []
    faults = []  # (row, rank within a row, message) of unparseable lines
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            linenos.append(lineno)
            tokens = line.split()
            if line[0] in " \t":
                labels = []
            elif tokens and ":" not in tokens[0]:
                labels = tokens.pop(0).split(",")
            else:
                faults.append((len(linenos) - 1, 0,
                               "missing label field (a feature pair appeared first; an "
                               "empty label set is written as a leading space)"))
                break
            label_tokens += labels
            label_sizes.append(len(labels))
            feature_texts.append(" ".join(tokens))
            feature_sizes.append(len(tokens))

    label_indptr, indptr = _offsets(label_sizes), _offsets(feature_sizes)
    labels, bad = _convert(int, label_tokens, np.intp)
    if bad is not None:
        row = int(np.searchsorted(label_indptr, bad, side="right")) - 1
        faults.append((row, 1, f"bad label token {label_tokens[bad]!r}"))
    indices, values, bad, token = _feature_pairs(feature_texts, feature_sizes)
    if bad is not None:
        row = int(np.searchsorted(indptr, bad, side="right")) - 1
        faults.append((row, 2, f"feature pair {token!r} has no colon" if ":" not in token
                       else f"bad feature pair {token!r}"))

    # rows before the first unparseable line are checked; it stands if they pass
    fault = min(faults, default=None)
    parsed = len(feature_sizes) if fault is None else fault[0]
    indptr, label_indptr = indptr[: parsed + 1], label_indptr[: parsed + 1]
    indices, values = indices[: indptr[-1]], values[: indptr[-1]]
    labels = labels[: label_indptr[-1]]
    order = _row_order(indptr, indices)
    indices, values = indices[order], values[order]
    labels = labels[_row_order(label_indptr, labels)]
    found = _first_fault(indptr, indices, values, label_indptr, labels, input_dim, label_count)
    if found is None and fault is not None:
        found = (fault[0], fault[2])
    if found is not None:
        raise DataFormatError(f"{path}:{linenos[found[0]]}: {found[1]}")
    if label_count is None:
        label_count = 1 + int(labels.max()) if labels.size else 1
    if input_dim is None:
        input_dim = 1 + int(indices.max()) if indices.size else 1
    return Dataset(indptr, indices, values, label_indptr, labels, input_dim, label_count)


def save_sparse_multilabel(dataset: Dataset, path) -> None:
    """Write the corpus format read by :func:`load_sparse_multilabel`.

    Feature values are printed with enough digits to round-trip float64
    exactly.  An example with no labels gets the leading-space marker.
    """
    pairs = list(map("{}:{:.17g}".format, dataset.feature_indices.tolist(),
                     dataset.feature_values.tolist()))
    labels = list(map(str, dataset.labels.tolist()))
    indptr, label_indptr = dataset.indptr.tolist(), dataset.label_indptr.tolist()
    with open(path, "w") as handle:
        for i in range(len(dataset)):
            line = (",".join(labels[label_indptr[i] : label_indptr[i + 1]]) + " "
                    + " ".join(pairs[indptr[i] : indptr[i + 1]])).rstrip() or " "
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
    bags, label_sets = [], []
    for _ in range(n):
        m = int(rng.integers(min_words, max_words + 1))
        idx = np.sort(rng.choice(input_dim, size=m, replace=False))
        k = 1 + m % modulus
        if k > label_count:
            raise ValueError(
                f"cardinality rule maps {m} words to {k} labels, "
                f"outside [1, {label_count}]"
            )
        scores = mix[:, idx] @ np.ones(m)
        bags.append(idx)
        label_sets.append(np.sort(np.argsort(-scores, kind="stable")[:k]))
    indptr = _offsets([idx.size for idx in bags])
    return Dataset(indptr, np.concatenate(bags, dtype=np.intp), np.ones(indptr[-1]),
                   _offsets([labels.size for labels in label_sets]),
                   np.concatenate(label_sets, dtype=np.intp), input_dim, label_count)


# ---------------------------------------------------------------------------
# splits


def _check_fractions(fractions) -> np.ndarray:
    """Three nonnegative split fractions summing to 1, as a float array: the
    check of ``split_dataset`` and of the ``data.fractions`` config key."""
    fractions = np.asarray(fractions, dtype=np.float64)
    if fractions.shape != (3,) or np.any(fractions < 0):
        raise ValueError("need three nonnegative fractions")
    if abs(fractions.sum() - 1.0) > 1e-9:
        raise ValueError(f"fractions sum to {fractions.sum()}, expected 1")
    return fractions


def split_dataset(dataset: Dataset, fractions=(0.8, 0.1, 0.1), seed: int = 0):
    """Shuffle once and cut into train/dev/test; disjoint and covering."""
    fractions = _check_fractions(fractions)
    perm = np.random.default_rng(seed).permutation(len(dataset))
    n_train = int(fractions[0] * len(dataset))
    n_dev = int(fractions[1] * len(dataset))
    cuts = (perm[:n_train], perm[n_train : n_train + n_dev], perm[n_train + n_dev :])
    return tuple(dataset.batch(part) for part in cuts)


# ---------------------------------------------------------------------------
# metrics


def eval_f1(predictions, targets) -> tuple[float, float]:
    """Example-averaged F1 and the label-macro variant.

    Per example, F1 = 2|pred ∩ true| / (|pred| + |true|), defined as 1 when
    both sets are empty (agreement on absence).  The label-macro variant
    applies the same formula per label column and averages over labels,
    with the same both-empty convention.  Both are 0/1 matrices of one
    shape: decoded labels and a split's targets.
    """
    pred = np.asarray(predictions, dtype=np.float64)
    true = np.asarray(targets, dtype=np.float64)
    inter = (pred * true).sum(axis=1)
    sizes = pred.sum(axis=1) + true.sum(axis=1)
    per_example = np.where(sizes > 0, 2.0 * inter / np.maximum(sizes, 1e-300), 1.0)
    inter_l = (pred * true).sum(axis=0)
    sizes_l = pred.sum(axis=0) + true.sum(axis=0)
    per_label = np.where(sizes_l > 0, 2.0 * inter_l / np.maximum(sizes_l, 1e-300), 1.0)
    return float(per_example.mean()), float(per_label.mean())


def reference_cardinality_mse(targets, train_targets=None, seed: int = 0):
    """MSE of the two reference cardinality predictors: (constant, random).

    The constant baseline predicts the mean cardinality of the training
    split, the random baseline draws uniform integers over the training
    split's observed cardinality range.  ``train_targets`` defaults to
    ``targets``; both are the counts of non-empty splits.
    """
    targets = np.asarray(targets, dtype=np.float64)
    reference = targets if train_targets is None else np.asarray(train_targets, np.float64)
    mse_const = float(np.mean((reference.mean() - targets) ** 2))
    lo, hi = int(reference.min()), int(reference.max())
    draws = np.random.default_rng(seed).integers(lo, hi + 1, size=targets.size)
    mse_rand = float(np.mean((draws - targets) ** 2))
    return mse_const, mse_rand
