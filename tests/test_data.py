import numpy as np
import pytest

from cardproj import data as dt


def toy_dataset():
    examples = [
        dt.Example(np.array([0, 5]), np.array([1.0, 2.0]), np.array([1, 3])),
        dt.Example(np.array([2]), np.array([-0.5]), np.array([], dtype=int)),
        dt.Example(np.array([], dtype=int), np.array([]), np.array([0])),
    ]
    return dt.Dataset(examples, input_dim=6, label_count=4)


class TestExample:
    def test_sorts_indices(self):
        ex = dt.Example(np.array([5, 0]), np.array([2.0, 1.0]), np.array([3, 1]))
        np.testing.assert_array_equal(ex.feature_indices, [0, 5])
        np.testing.assert_array_equal(ex.feature_values, [1.0, 2.0])
        np.testing.assert_array_equal(ex.labels, [1, 3])

    def test_rejects_duplicate_features(self):
        with pytest.raises(ValueError, match="duplicate feature"):
            dt.Example(np.array([1, 1]), np.array([1.0, 2.0]), np.array([0]))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate label"):
            dt.Example(np.array([0]), np.array([1.0]), np.array([2, 2]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            dt.Example(np.array([0, 1]), np.array([1.0]), np.array([0]))

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError, match="negative feature"):
            dt.Example(np.array([-1]), np.array([1.0]), np.array([0]))
        with pytest.raises(ValueError, match="non-finite"):
            dt.Example(np.array([0]), np.array([np.nan]), np.array([0]))


class TestDataset:
    def test_target_vectors(self):
        ds = toy_dataset()
        np.testing.assert_array_equal(ds.target(0), [0, 1, 0, 1])
        np.testing.assert_array_equal(ds.target(1), [0, 0, 0, 0])
        np.testing.assert_array_equal(ds.cardinalities(), [2, 0, 1])

    def test_rejects_out_of_range_label(self):
        ex = dt.Example(np.array([0]), np.array([1.0]), np.array([7]))
        with pytest.raises(ValueError, match="label index 7"):
            dt.Dataset([ex], input_dim=3, label_count=4)

    def test_rejects_out_of_range_feature(self):
        ex = dt.Example(np.array([9]), np.array([1.0]), np.array([0]))
        with pytest.raises(ValueError, match="feature index 9"):
            dt.Dataset([ex], input_dim=3, label_count=4)


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
        with pytest.raises(dt.DataFormatError, match=r":2: feature index 9"):
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
        examples = []
        for _ in range(40):
            m = int(rng.integers(0, 6))
            idx = rng.choice(12, size=m, replace=False)
            vals = rng.normal(0, 3, size=m)
            k = int(rng.integers(0, 4))
            labels = rng.choice(5, size=k, replace=False)
            examples.append(dt.Example(idx, vals, labels))
        ds = dt.Dataset(examples, input_dim=12, label_count=5)
        path = tmp_path / "c.txt"
        dt.save_sparse_multilabel(ds, path)
        back = dt.load_sparse_multilabel(path, label_count=5, input_dim=12)
        assert len(back) == len(ds)
        for a, b in zip(ds.examples, back.examples):
            np.testing.assert_array_equal(a.feature_indices, b.feature_indices)
            np.testing.assert_array_equal(a.feature_values, b.feature_values)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_round_trip_preserves_exact_floats(self, tmp_path):
        ex = dt.Example(np.array([0]), np.array([0.1 + 0.2]), np.array([0]))
        ds = dt.Dataset([ex], input_dim=1, label_count=1)
        path = tmp_path / "c.txt"
        dt.save_sparse_multilabel(ds, path)
        back = dt.load_sparse_multilabel(path, label_count=1, input_dim=1)
        assert back.examples[0].feature_values[0] == 0.1 + 0.2


class TestSyntheticGenerator:
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
            assert ex.cardinality() == 1 + m % 10
            assert 1 <= ex.cardinality() <= 10

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
            want = np.sort(np.argsort(-scores, kind="stable")[: ex.cardinality()])
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

    def test_take_validates(self):
        ds = dt.generate_synthetic(10, label_count=15, input_dim=40, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            dt.take(ds, [0, 10])
        with pytest.raises(ValueError, match="duplicate"):
            dt.take(ds, [1, 1])
        sub = dt.take(ds, [3, 0])
        np.testing.assert_array_equal(
            sub.examples[0].feature_indices, ds.examples[3].feature_indices
        )


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

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            dt.eval_f1([[1, 0]], [[1, 0, 0]])
        with pytest.raises(ValueError, match="binary"):
            dt.eval_f1([[0.5, 0]], [[1, 0]])


class TestEvalCardinalityMse:
    def test_exact_predictor_is_zero(self):
        mse_h, _, _ = dt.eval_cardinality_mse([1.0, 3.0], [1, 3])
        assert mse_h == 0.0

    def test_constant_baseline_worked_example(self):
        _, mse_const, _ = dt.eval_cardinality_mse([0.0, 0.0], [1, 3])
        assert mse_const == pytest.approx(1.0)

    def test_constant_baseline_is_variance(self):
        rng = np.random.default_rng(3)
        targets = rng.integers(1, 9, size=50).astype(float)
        _, mse_const, _ = dt.eval_cardinality_mse(np.zeros(50), targets)
        assert mse_const == pytest.approx(np.var(targets))

    def test_random_baseline_seeded(self):
        a = dt.eval_cardinality_mse([2.0, 2.0], [1, 3], seed=5)
        b = dt.eval_cardinality_mse([2.0, 2.0], [1, 3], seed=5)
        assert a == b

    def test_random_baseline_uses_reference_range(self):
        # reference range is a single value: random baseline predicts it
        _, _, mse_rand = dt.eval_cardinality_mse(
            [0.0, 0.0], [4.0, 4.0], train_targets=[4, 4], seed=0
        )
        assert mse_rand == 0.0

    def test_explicit_train_targets_shift_constant(self):
        _, mse_const, _ = dt.eval_cardinality_mse(
            [0.0, 0.0], [1.0, 3.0], train_targets=[5, 5]
        )
        assert mse_const == pytest.approx(((5 - 1) ** 2 + (5 - 3) ** 2) / 2)

    def test_validation(self):
        with pytest.raises(ValueError, match="equal-length"):
            dt.eval_cardinality_mse([1.0], [1.0, 2.0])
