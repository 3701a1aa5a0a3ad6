import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardproj import data as dt


def corpus(rows, input_dim, label_count):
    """A dataset of ``(feature_indices, feature_values, labels)`` rows, written
    in the corpus format and loaded, so every test corpus passes the loader's
    one check."""
    lines = []
    for indices, values, labels in rows:
        pairs = "".join(f" {int(i)}:{float(v)!r}" for i, v in zip(indices, values))
        lines.append(",".join(str(int(label)) for label in labels) + pairs or " ")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.txt"
        path.write_text("".join(line + "\n" for line in lines))
        return dt.load_sparse_multilabel(path, label_count, input_dim)


def toy_dataset():
    return corpus([([0, 5], [1.0, 2.0], [1, 3]), ([2], [-0.5], []), ([], [], [0])],
                  input_dim=6, label_count=4)


class TestDataset:
    def test_target_vectors(self):
        ds = toy_dataset()
        np.testing.assert_array_equal(ds.target(0), [0, 1, 0, 1])
        np.testing.assert_array_equal(ds.target(1), [0, 0, 0, 0])
        np.testing.assert_array_equal(ds.cardinalities(), [2, 0, 1])
        np.testing.assert_array_equal(ds.targets(), [ds.target(i) for i in range(3)])


class TestCorpusFormat:
    def test_worked_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("1,3 0:1 5:2\n")
        ds = dt.load_sparse_multilabel(path, label_count=4, input_dim=6)
        assert len(ds) == 1
        np.testing.assert_array_equal(ds.examples[0].labels, [1, 3])
        np.testing.assert_array_equal(ds.examples[0].feature_indices, [0, 5])
        np.testing.assert_array_equal(ds.examples[0].feature_values, [1.0, 2.0])

    def test_empty_label_field_is_leading_space(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(" 0:1 2:0.5\n")
        ds = dt.load_sparse_multilabel(path, label_count=4, input_dim=6)
        assert ds.examples[0].labels.size == 0
        np.testing.assert_array_equal(ds.examples[0].feature_indices, [0, 2])

    def test_missing_label_field_is_an_error(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0:1 5:2\n")
        with pytest.raises(dt.DataFormatError, match=r":1: missing label field"):
            dt.load_sparse_multilabel(path)

    @pytest.mark.parametrize(
        "line, pattern",
        [
            ("1 abc", "no colon"),
            ("1 2:xx", "bad feature pair"),
            ("a,b 0:1", "bad label token"),
            ("1, 0:1", "bad label token"),
            ("1 0:1 0:2", "duplicate feature"),
            ("1,1 0:1", "duplicate label"),
            ("-2 0:1", "negative label"),
            ("1 -3:1", "negative feature"),
            ("1 0:nan", "non-finite feature value"),
        ],
    )
    def test_malformed_lines_rejected_with_number(self, tmp_path, line, pattern):
        path = tmp_path / "c.txt"
        path.write_text("0 1:1\n" + line + "\n")
        with pytest.raises(dt.DataFormatError, match=":2: "):
            dt.load_sparse_multilabel(path)
        with pytest.raises(dt.DataFormatError, match=pattern):
            dt.load_sparse_multilabel(path)

    def test_explicit_dims_reject_overflow(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 1:1\n3 0:1\n")
        with pytest.raises(dt.DataFormatError, match=r":2: label index 3"):
            dt.load_sparse_multilabel(path, label_count=2)
        path.write_text("0 1:1\n0 9:1\n")
        with pytest.raises(dt.DataFormatError, match=r":2: feature index 9 exceeds input_dim 5"):
            dt.load_sparse_multilabel(path, input_dim=5)

    def test_inferred_dims(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("1,3 0:1 5:2\n0 2:1\n")
        ds = dt.load_sparse_multilabel(path)
        assert ds.label_count == 4
        assert ds.input_dim == 6

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("1 0:1\n\n2 1:1\n")
        assert len(dt.load_sparse_multilabel(path)) == 2

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        rows = []
        for _ in range(40):
            m = int(rng.integers(0, 6))
            idx = rng.choice(12, size=m, replace=False)
            vals = rng.normal(0, 3, size=m)
            k = int(rng.integers(0, 4))
            labels = rng.choice(5, size=k, replace=False)
            rows.append((idx, vals, labels))
        ds = corpus(rows, input_dim=12, label_count=5)
        path = tmp_path / "c.txt"
        dt.save_sparse_multilabel(ds, path)
        back = dt.load_sparse_multilabel(path, label_count=5, input_dim=12)
        assert len(back) == len(ds)
        for a, b in zip(ds.examples, back.examples):
            np.testing.assert_array_equal(a.feature_indices, b.feature_indices)
            np.testing.assert_array_equal(a.feature_values, b.feature_values)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_saving_over_a_corpus_writes_a_new_file(self, tmp_path):
        # a reader of the old corpus keeps it whole; the path holds the new one
        path = tmp_path / "c.txt"
        dt.save_sparse_multilabel(dt.generate_synthetic(20, 6, 12, modulus=4, min_words=2,
                                                        max_words=8), path)
        old = path.read_bytes()
        ds = toy_dataset()
        with open(path, "rb") as reader:
            dt.save_sparse_multilabel(ds, path)
            assert reader.read() == old
        back = dt.load_sparse_multilabel(path, label_count=4, input_dim=6)
        for name in ("indptr", "feature_indices", "feature_values", "label_indptr", "labels"):
            np.testing.assert_array_equal(getattr(back, name), getattr(ds, name))

    def test_round_trip_preserves_exact_floats(self, tmp_path):
        ds = corpus([([0], [0.1 + 0.2], [0])], input_dim=1, label_count=1)
        path = tmp_path / "c.txt"
        dt.save_sparse_multilabel(ds, path)
        back = dt.load_sparse_multilabel(path, label_count=1, input_dim=1)
        assert back.examples[0].feature_values[0] == 0.1 + 0.2


def reference_parse_line(line: str):
    """One corpus line read token by token, the reader the bulk loader
    replaced: its sorted feature indices, their values and its sorted labels."""
    if line[0] in " \t":
        label_field, feature_tokens = "", line.split()
    else:
        label_field, *feature_tokens = line.split()
        if ":" in label_field:
            raise ValueError(
                "missing label field (a feature pair appeared first; an empty "
                "label set is written as a leading space)"
            )
    labels = []
    for token in label_field.split(",") if label_field else []:
        try:
            labels.append(int(token))
        except ValueError:
            raise ValueError(f"bad label token {token!r}") from None
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
    order = np.argsort(np.array(indices, dtype=np.intp))
    indices = np.array(indices, dtype=np.intp)[order]
    values = np.array(values, dtype=np.float64)[order]
    labels = np.sort(np.array(labels, dtype=np.intp))
    for broken, message in [
        (indices < 0, "negative feature index"),
        (labels < 0, "negative label index"),
        (np.diff(indices) == 0, "duplicate feature indices"),
        (np.diff(labels) == 0, "duplicate label indices"),
        (~np.isfinite(values), "non-finite feature value"),
    ]:
        if broken.any():
            raise ValueError(message)
    return indices, values, labels


def reference_load(path, label_count=None, input_dim=None):
    """The line-by-line reader: the loaded arrays and dimensions, or the
    DataFormatError it raises first."""
    rows = []
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.rstrip("\r\n")
            if line == "":
                continue
            try:
                indices, values, labels = reference_parse_line(line)
            except ValueError as err:
                raise dt.DataFormatError(f"{path}:{lineno}: {err}") from None
            if label_count is not None and labels.size and labels.max() >= label_count:
                raise dt.DataFormatError(f"{path}:{lineno}: label index {labels.max()} "
                                         f"exceeds label_count {label_count}")
            if input_dim is not None and indices.size and indices.max() >= input_dim:
                raise dt.DataFormatError(f"{path}:{lineno}: feature index "
                                         f"{indices.max()} exceeds input_dim {input_dim}")
            rows.append((indices, values, labels))
    arrays = stacked_rows(rows)
    if label_count is None:
        label_count = 1 + int(arrays["labels"].max()) if arrays["labels"].size else 1
    if input_dim is None:
        input_dim = (1 + int(arrays["feature_indices"].max())
                     if arrays["feature_indices"].size else 1)
    return dt.Dataset(**arrays, input_dim=input_dim, label_count=label_count)


def stacked_rows(rows):
    """The CSR arrays of ``(feature_indices, feature_values, labels)`` rows,
    stacked one row at a time, by name."""
    def stacked(k, dtype):
        return np.concatenate([np.empty(0, dtype)] + [np.asarray(row[k], dtype) for row in rows])

    def offsets(k):
        return np.cumsum([0] + [len(row[k]) for row in rows], dtype=np.intp)

    return {"indptr": offsets(0), "feature_indices": stacked(0, np.intp),
            "feature_values": stacked(1, np.float64), "label_indptr": offsets(2),
            "labels": stacked(2, np.intp)}


DATASET_ARRAYS = ("indptr", "feature_indices", "feature_values", "label_indptr", "labels")

# well-formed pieces, in any order, and the ways a line can go wrong
VALUES = st.sampled_from(["1", "0.5", "-2.25", "1e-3", "+.5", "1_0", "7.", "-0"])
CLEAN_LABELS = st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True)
CLEAN_FEATURES = st.lists(st.integers(0, 9), max_size=6, unique=True).flatmap(
    lambda idx: st.lists(VALUES, min_size=len(idx), max_size=len(idx)).map(
        lambda vals: [f"{i}:{v}" for i, v in zip(idx, vals)]))
ANY_LABELS = st.one_of(
    CLEAN_LABELS, st.lists(st.integers(-1, 6), min_size=1, max_size=4),
    st.sampled_from([["x"], ["1", ""], ["2", "", "3"], ["1:2"]]))
ANY_FEATURES = st.lists(st.one_of(
    st.builds("{}:{}".format, st.integers(-1, 9),
              st.one_of(VALUES, st.sampled_from(["nan", "inf", "1e999", "x"]))),
    st.sampled_from(["abc", "3:", ":4", "1:2:3", "x:1", "7"])), max_size=5)
SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t "])


@st.composite
def corpus_lines(draw, clean):
    labels = draw(st.one_of(st.none(), CLEAN_LABELS if clean else ANY_LABELS))
    tokens = draw(CLEAN_FEATURES if clean else ANY_FEATURES)
    # no label field: the empty label set, marked by a leading space or tab
    lead = draw(st.sampled_from([" ", "\t"])) if labels is None else ""
    parts = ([] if labels is None else [",".join(map(str, labels))]) + tokens
    body = "".join(tok + draw(SEPARATORS) for tok in parts[:-1]) + (parts[-1] if parts else "")
    return lead + body + draw(st.sampled_from(["", " ", "\t"]))


@st.composite
def corpora(draw):
    lines = draw(st.lists(st.one_of(corpus_lines(clean=True), st.just("")),
                          min_size=1, max_size=8))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(corpus_lines(clean=False)))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


class TestColumnarLoader:
    @given(text=corpora(), explicit=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_line_by_line_reader(self, text, explicit):
        dims = dict(label_count=5, input_dim=8) if explicit else {}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.txt"
            path.write_bytes(text.encode())
            try:
                want = reference_load(path, **dims)
            except dt.DataFormatError as err:
                with pytest.raises(dt.DataFormatError) as got:
                    dt.load_sparse_multilabel(path, **dims)
                assert str(got.value) == str(err)
                return
            got = dt.load_sparse_multilabel(path, **dims)
        assert (got.input_dim, got.label_count) == (want.input_dim, want.label_count)
        for name in DATASET_ARRAYS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_rows_past_the_first_block(self, tmp_path):
        # more rows than one conversion block, and a bad token in a later one
        path = tmp_path / "c.txt"
        ds = dt.generate_synthetic(1100, label_count=12, input_dim=40, seed=2, max_words=9)
        dt.save_sparse_multilabel(ds, path)
        lines = path.read_text().split("\n")
        path.write_text("\n".join(lines[:1050] + [lines[1050] + " 9:x"] + lines[1051:]))
        with pytest.raises(dt.DataFormatError, match=r":1051: bad feature pair '9:x'"):
            dt.load_sparse_multilabel(path)
        path.write_text("\n".join(lines))
        got, want = dt.load_sparse_multilabel(path), reference_load(path)
        for name in DATASET_ARRAYS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_worked_messy_corpus(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"3,1 5:0.25 0:1e-3\r\n\r\n 2:7\r\n0\t4:-1.5   1:2\n\t0:1\n")
        ds = dt.load_sparse_multilabel(path)
        np.testing.assert_array_equal(ds.indptr, [0, 2, 3, 5, 6])
        np.testing.assert_array_equal(ds.feature_indices, [0, 5, 2, 1, 4, 0])
        np.testing.assert_array_equal(ds.feature_values, [1e-3, 0.25, 7.0, 2.0, -1.5, 1.0])
        np.testing.assert_array_equal(ds.label_indptr, [0, 2, 2, 3, 3])
        np.testing.assert_array_equal(ds.labels, [1, 3, 0])
        assert (ds.input_dim, ds.label_count) == (6, 4)

    def test_bad_line_after_a_bad_row_is_not_reported(self, tmp_path):
        # the duplicate on line 2 comes first, though line 3 fails to parse
        path = tmp_path / "c.txt"
        path.write_text("0 1:1\n0 5:1 5:1\n0 zz\n")
        with pytest.raises(dt.DataFormatError, match=r":2: duplicate feature"):
            dt.load_sparse_multilabel(path)

    @pytest.mark.parametrize("line, pattern", [
        ("1 7 1:2:3", "'7' has no colon"),
        ("1 5: 2:1", "bad feature pair '5:'"),
    ])
    def test_colon_counts_that_balance_out_are_caught(self, tmp_path, line, pattern):
        # as many colons and halves as a well-formed line has, wrongly placed
        path = tmp_path / "c.txt"
        path.write_text("0 1:1\n" + line + "\n")
        with pytest.raises(dt.DataFormatError, match=f":2: .*{pattern}"):
            dt.load_sparse_multilabel(path)

    def test_blank_looking_line_is_a_format_error(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 1:1\n\x0c\n")
        with pytest.raises(dt.DataFormatError, match=r":2: missing label field"):
            dt.load_sparse_multilabel(path)

    def test_rows_are_read_only_and_built_once(self):
        ds = dt.generate_synthetic(5, label_count=12, input_dim=20, seed=1, max_words=10)
        ex = ds.examples[2]
        with pytest.raises(ValueError, match="read-only"):
            ex.feature_values[0] = 2.0
        assert ds.examples is ds.examples


class TestSyntheticGenerator:
    @pytest.mark.parametrize("args, kwargs, digest", [
        ((60, 12, 30), dict(seed=4, min_words=3, max_words=20, modulus=7),
         "fb8b9f4a72b7f315a1dd0146669777b74716bc7bf0ed35b8be8cc1f198b0af51"),
        ((40, 30, 40), dict(seed=1, min_words=5, max_words=14),
         "4e3b6947d44d3cb08f5b8d2f17dba9bb260112a1da89a9747c4383cdee484b53"),
    ])
    def test_written_corpus_is_pinned(self, tmp_path, args, kwargs, digest):
        # the digests of the per-example generator and writer this one replaced
        path = tmp_path / "c.txt"
        dt.save_sparse_multilabel(dt.generate_synthetic(*args, **kwargs), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_deterministic(self):
        a = dt.generate_synthetic(30, label_count=12, input_dim=20, seed=5, max_words=18)
        b = dt.generate_synthetic(30, label_count=12, input_dim=20, seed=5, max_words=18)
        for x, y in zip(a.examples, b.examples):
            np.testing.assert_array_equal(x.feature_indices, y.feature_indices)
            np.testing.assert_array_equal(x.labels, y.labels)

    def test_seed_changes_data(self):
        a = dt.generate_synthetic(30, label_count=12, input_dim=20, seed=5, max_words=18)
        b = dt.generate_synthetic(30, label_count=12, input_dim=20, seed=6, max_words=18)
        same = all(
            x.feature_indices.size == y.feature_indices.size
            and np.array_equal(x.feature_indices, y.feature_indices)
            for x, y in zip(a.examples, b.examples)
        )
        assert not same

    def test_cardinality_follows_rule(self):
        ds = dt.generate_synthetic(200, label_count=12, input_dim=40, seed=1)
        for ex in ds.examples:
            m = ex.feature_indices.size
            assert ex.labels.size == 1 + m % 10
            assert 1 <= ex.labels.size <= 10

    def test_bags_are_binary_unique(self):
        ds = dt.generate_synthetic(50, label_count=11, input_dim=40, seed=2)
        for ex in ds.examples:
            np.testing.assert_array_equal(ex.feature_values, np.ones(ex.feature_values.size))
            assert np.unique(ex.feature_indices).size == ex.feature_indices.size

    def test_labels_are_top_scores_of_fixed_map(self):
        seed = 9
        ds = dt.generate_synthetic(20, label_count=13, input_dim=25, seed=seed, max_words=22)
        mix = np.random.default_rng(seed).normal(0.0, 1.0, size=(13, 25))
        for ex in ds.examples:
            scores = mix[:, ex.feature_indices] @ ex.feature_values
            want = np.sort(np.argsort(-scores, kind="stable")[: ex.labels.size])
            np.testing.assert_array_equal(ex.labels, want)

    def test_infeasible_rule_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            dt.generate_synthetic(5, label_count=3, input_dim=20, seed=0, max_words=18,
                                  modulus=99)

    @pytest.mark.parametrize("modulus", [0, True])
    def test_modulus_validated(self, modulus):
        with pytest.raises(ValueError, match="modulus must be an integer"):
            dt.generate_synthetic(5, label_count=3, input_dim=40, modulus=modulus)

    def test_word_range_validated(self):
        with pytest.raises(ValueError, match="min_words"):
            dt.generate_synthetic(5, label_count=3, input_dim=10, seed=0,
                                  min_words=8, max_words=30)


class TestSplits:
    def test_disjoint_and_covering(self):
        ds = dt.generate_synthetic(101, label_count=15, input_dim=40, seed=0)
        for seed in range(4):
            train, dev, test = dt.split_dataset(ds, (0.8, 0.1, 0.1), seed=seed)
            assert len(train) + len(dev) + len(test) == len(ds)
            keys = set()
            for part in (train, dev, test):
                for ex in part.examples:
                    keys.add((tuple(ex.feature_indices), tuple(ex.labels)))
            whole = {
                (tuple(ex.feature_indices), tuple(ex.labels)) for ex in ds.examples
            }
            assert keys == whole

    def test_split_deterministic(self):
        ds = dt.generate_synthetic(60, label_count=15, input_dim=40, seed=0)
        a = dt.split_dataset(ds, seed=3)
        b = dt.split_dataset(ds, seed=3)
        for pa, pb in zip(a, b):
            for x, y in zip(pa.examples, pb.examples):
                np.testing.assert_array_equal(x.feature_indices, y.feature_indices)

    def test_fraction_validation(self):
        ds = dt.generate_synthetic(10, label_count=15, input_dim=40, seed=0)
        with pytest.raises(ValueError, match="sum"):
            dt.split_dataset(ds, (0.5, 0.2, 0.2))
        with pytest.raises(ValueError, match="nonnegative|three"):
            dt.split_dataset(ds, (1.2, -0.1, -0.1))


class TestBatch:
    def test_matches_per_example_stacking(self):
        base = dt.generate_synthetic(12, label_count=12, input_dim=20, seed=3, max_words=9)
        rows = [(ex.feature_indices, ex.feature_values, ex.labels) for ex in base.examples]
        empty, bare = ([], [], []), ([], [], [2, 5])
        ds = corpus([empty, *rows[:6], bare, *rows[6:], empty], input_dim=20, label_count=12)
        rng = np.random.default_rng(0)
        for size in [1, 1, 2, 5, 15, 15]:
            picked = rng.choice(len(ds), size=size, replace=False)
            examples = [ds.examples[i] for i in picked]
            want = stacked_rows([(ex.feature_indices, ex.feature_values, ex.labels)
                                 for ex in examples])
            want["targets"] = np.zeros((size, 12))
            for r, ex in enumerate(examples):
                want["targets"][r, ex.labels] = 1.0
            got = ds.batch(picked)
            assert (got.input_dim, got.label_count) == (20, 12)
            for name, a in want.items():
                b = got.targets() if name == "targets" else getattr(got, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestEvalF1:
    def test_worked_example(self):
        f1, _ = dt.eval_f1([[1, 1, 0]], [[1, 0, 0]])
        assert f1 == pytest.approx(2.0 / 3.0)

    def test_perfect_is_one(self):
        pred = [[1, 0, 1], [0, 1, 0]]
        f1, macro = dt.eval_f1(pred, pred)
        assert f1 == 1.0
        assert macro == 1.0

    def test_both_empty_counts_as_one(self):
        f1, _ = dt.eval_f1([[0, 0], [1, 0]], [[0, 0], [1, 0]])
        assert f1 == 1.0

    def test_disjoint_is_zero(self):
        f1, macro = dt.eval_f1([[1, 0]], [[0, 1]])
        assert f1 == 0.0
        assert macro == pytest.approx(0.0)

    def test_label_macro_differs_from_example_average(self):
        # one label always wrong, one always right
        pred = [[1, 1], [1, 1]]
        true = [[0, 1], [0, 1]]
        f1, macro = dt.eval_f1(pred, true)
        assert f1 == pytest.approx(2.0 / 3.0)
        assert macro == pytest.approx(0.5)

    def test_example_order_invariance(self):
        rng = np.random.default_rng(11)
        pred = (rng.random((20, 6)) < 0.4).astype(float)
        true = (rng.random((20, 6)) < 0.4).astype(float)
        base = dt.eval_f1(pred, true)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(20)
            assert dt.eval_f1(pred[perm], true[perm]) == pytest.approx(base)

    def test_range_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pred = (rng.random((8, 5)) < 0.5).astype(float)
            true = (rng.random((8, 5)) < 0.5).astype(float)
            f1, macro = dt.eval_f1(pred, true)
            assert 0.0 <= f1 <= 1.0
            assert 0.0 <= macro <= 1.0


class TestEvalCardinalityMse:
    """The cardinality errors ``cardproj eval`` prints: the head's MSE, taken
    inline as ``training.evaluate`` takes it, against the two references."""

    def test_exact_predictor_is_zero(self):
        counts, targets = np.array([1.0, 3.0]), np.array([1.0, 3.0])
        assert float(np.mean((counts - targets) ** 2)) == 0.0

    def test_constant_baseline_worked_example(self):
        mse_const, _ = dt.reference_cardinality_mse([1, 3])
        assert mse_const == pytest.approx(1.0)

    def test_constant_baseline_is_variance(self):
        rng = np.random.default_rng(3)
        targets = rng.integers(1, 9, size=50).astype(float)
        mse_const, _ = dt.reference_cardinality_mse(targets)
        assert mse_const == pytest.approx(np.var(targets))

    def test_random_baseline_seeded(self):
        a = dt.reference_cardinality_mse([1, 3], seed=5)
        b = dt.reference_cardinality_mse([1, 3], seed=5)
        assert a == b

    def test_random_baseline_uses_reference_range(self):
        # reference range is a single value: random baseline predicts it
        _, mse_rand = dt.reference_cardinality_mse([4.0, 4.0], train_targets=[4, 4], seed=0)
        assert mse_rand == 0.0

    def test_explicit_train_targets_shift_constant(self):
        mse_const, _ = dt.reference_cardinality_mse([1.0, 3.0], train_targets=[5, 5])
        assert mse_const == pytest.approx(((5 - 1) ** 2 + (5 - 3) ** 2) / 2)
