"""Package-level acceptance checks.

Each test freezes one end-to-end claim: the closed-form capped projection
agrees with an independent scalar-bisection oracle, the alternating
projection converges at operating round counts, the soft surrogate tracks
the exact simplex projection and sharpens monotonically, gradients flow
exactly through the full unrolled pipeline, budgeted decoding matches
exhaustive search, the loss identities hold to near machine accuracy, and
the two desk-scale training studies reproduce their expected orderings.
Wall-clock bounds are part of the contract and asserted where stated.
"""

import itertools
import time
from dataclasses import replace

import numpy as np

from cardproj import data as dt
from cardproj import diffgraph as dg
from cardproj import inference as inf
from cardproj import model as md
from cardproj import projections as pj
from cardproj import training as tr

import oracles


def capped_bisection_batch(raw, masses, iterations=100):
    """Row-wise scalar bisection on gap(theta) = sum(clip(v - theta, 0, 1)).

    Written from the threshold characterization alone so the closed-form
    breakpoint scan is checked against a second, independent derivation.
    """
    raw = np.asarray(raw, dtype=np.float64)
    lo = raw.min(axis=1) - 1.0
    hi = raw.max(axis=1)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        over = np.clip(raw - mid[:, None], 0.0, 1.0).sum(axis=1) >= masses
        lo = np.where(over, mid, lo)
        hi = np.where(over, hi, mid)
    return np.clip(raw - (0.5 * (lo + hi))[:, None], 0.0, 1.0)


class TestCappedProjectionOracle:
    def test_matches_scalar_bisection_on_ten_thousand_instances(self):
        start = time.time()
        rng = np.random.default_rng(0)
        worst = 0.0
        for dim in range(2, 9):
            count = 1429  # 7 sizes x 1429 covers the 10000-instance budget
            raw = rng.normal(0.0, 2.0, size=(count, dim))
            masses = rng.integers(0, dim + 1, size=count).astype(np.float64)
            ref = capped_bisection_batch(raw, masses)
            got = pj.project_capped_exact(raw, masses)
            worst = max(worst, float(np.abs(got - ref).max()))
        assert worst <= 1e-8
        assert time.time() - start < 10.0


class TestAlternatingProjectionConvergence:
    def test_exact_mode_converges_at_operating_rounds(self):
        # instances sit one ascent-step-sized perturbation off the feasible
        # set, which is what the unrolled updates actually hand the operator
        rng = np.random.default_rng(1)
        zs, vs, refs = [], [], []
        for _ in range(1000):
            z = float(rng.integers(1, 11))
            feasible = pj.project_capped_exact(rng.normal(0.0, 2.0, 20), z)
            v = feasible + rng.normal(0.0, 0.1, 20)
            zs.append(z)
            vs.append(v)
            refs.append(pj.project_capped_exact(v, z))
        # all instances at once: each row alternates as it would alone
        zs = np.array(zs)
        slow = oracles.project_capped_dykstra_exact(np.array(vs), zs, rounds=50)
        fast = oracles.project_capped_dykstra_exact(np.array(vs), zs, rounds=2)
        assert np.abs(slow.y - np.array(refs)).max() <= 1e-4
        assert np.abs(fast.y - np.array(refs)).max() <= 0.1


class TestSoftSimplexFidelity:
    def test_sharp_surrogate_tracks_exact_projection(self):
        rng = np.random.default_rng(2)
        total_dev = {1.0: 0.0, 10.0: 0.0, 50.0: 0.0}
        worst_sharp = 0.0
        drawn = 0
        while drawn < 1000:
            v = rng.normal(0.0, 1.0, size=10)
            if np.diff(np.sort(v)).min() < 1e-3:
                continue  # tie-free instances only
            drawn += 1
            mass = float(rng.integers(1, 6))
            ref = pj.project_simplex_exact(v, mass)
            for sharpness in total_dev:
                tape = dg.Tape()
                out = oracles.project_simplex_soft(tape.leaf(v), mass, sharpness)
                dev = float(np.abs(out.value - ref).max())
                total_dev[sharpness] += dev
                if sharpness == 50.0:
                    worst_sharp = max(worst_sharp, dev)
        assert worst_sharp <= 1e-2
        assert total_dev[50.0] <= total_dev[10.0] <= total_dev[1.0]


class TestUnrolledPipelineGradient:
    def test_backward_matches_finite_differences(self):
        start = time.time()
        data = dt.generate_synthetic(
            4, label_count=5, input_dim=8, seed=3, min_words=2, max_words=6,
            modulus=4,
        )
        config = md.ModelConfig(
            input_dim=8, label_count=5, max_cardinality=4, feature_hidden=4,
            feature_dim=3, global_hidden=4, cardinality_hidden=4, seed=0,
        )
        model = md.ScoreModel(config)
        setup = inf.InferenceConfig(variant="pc", steps=3, proj_rounds=2)
        errors = tr.gradcheck(model, data.examples[0], setup)
        assert set(errors) == set(model.params)
        assert all(err < 1e-3 for err in errors.values())
        assert time.time() - start < 60.0


class TestBudgetedDecodingExactness:
    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(4)
        subsets = list(itertools.combinations(range(12), 4))
        for _ in range(200):
            c = rng.normal(0.0, 1.0, size=12)
            best = max(subsets, key=lambda chosen: c[list(chosen)].sum())
            want = np.zeros(12)
            want[list(best)] = 1.0
            np.testing.assert_array_equal(inf.exact_topz(c, 4), want)


class TestCardinalityRecoveryStudy:
    def test_learned_predictor_beats_reference_baselines(self):
        start = time.time()
        full = dt.generate_synthetic(5000, label_count=30, input_dim=40,
                                     seed=0, min_words=5, max_words=14)
        train_set, dev_set, _ = dt.split_dataset(full, seed=0)
        config = md.ModelConfig(input_dim=40, label_count=30,
                                max_cardinality=10, feature_hidden=16,
                                feature_dim=8, global_hidden=8,
                                cardinality_hidden=96, seed=0)
        setup = inf.InferenceConfig(variant="pc", steps=0)
        losses = tr.LossConfig(single_step="cross_entropy",
                               aux_cardinality_weight=1.0)
        schedule = tr.TrainConfig(epochs=4, batch_size=16, learning_rate=0.3,
                                  seed=0)
        result = tr.train(md.ScoreModel(config), train_set, setup, losses,
                          schedule)
        _, counts, _ = tr.predict(result.model, dev_set,
                                  replace(setup, z_mode="argmax"), losses,
                                  dev_set.targets())
        mse_h = float(np.mean((counts - dev_set.cardinalities()) ** 2))
        mse_const, mse_rand = dt.reference_cardinality_mse(
            dev_set.cardinalities(), train_targets=train_set.cardinalities(), seed=0)
        # measured 3.28 / 8.70 / 18.10 under these seeds
        assert mse_h < mse_const < mse_rand
        assert time.time() - start < 300.0


class TestStructuredGainStudy:
    def test_budgeted_inference_beats_both_baselines(self):
        # every arm gets the same six-epoch budget: four warm-up epochs of
        # plain unary training, then two variant-specific epochs with
        # best-on-dev selection over the whole fine-tuning phase
        start = time.time()
        full = dt.generate_synthetic(5000, label_count=30, input_dim=40,
                                     seed=0, min_words=5, max_words=14)
        train_set, dev_set, _ = dt.split_dataset(full, seed=0)
        warm_setup = inf.InferenceConfig(variant="pc", steps=0,
                                         decode="threshold")

        def fit(model, setup, single_step, epochs):
            losses = tr.LossConfig(single_step=single_step,
                                   aux_cardinality_weight=1.0)
            schedule = tr.TrainConfig(epochs=epochs, batch_size=16,
                                      learning_rate=0.1, seed=0, patience=50)
            return tr.train(model, train_set, setup, losses, schedule,
                            dev_set=dev_set).model

        def arm(variant, steps, decode, with_sc=False):
            config = md.ModelConfig(input_dim=40, label_count=30,
                                    max_cardinality=10, feature_hidden=64,
                                    feature_dim=64, global_hidden=16,
                                    cardinality_hidden=96, with_sc=with_sc,
                                    seed=0)
            warm = fit(md.ScoreModel(config), warm_setup, "cross_entropy", 4)
            if steps == 0:
                tuned = fit(warm, warm_setup, "cross_entropy", 2)
                return tr.evaluate(tuned, dev_set, warm_setup)["f1"]
            setup = inf.InferenceConfig(variant=variant, steps=steps,
                                        step_size=0.1, momentum=0.9,
                                        decode=decode)
            tuned = fit(warm, setup, "soft_f1", 2)
            return tr.evaluate(tuned, dev_set, setup)["f1"]

        budgeted = arm("pc", 5, "topz")
        unary_mlp = arm("pc", 0, "threshold")
        shaped = arm("sc", 5, "threshold", with_sc=True)
        # measured 0.7767 / 0.7260 / 0.7232 under these seeds
        assert budgeted - unary_mlp >= 0.03
        assert budgeted > shaped
        assert time.time() - start < 900.0


class TestLossIdentities:
    def test_overlap_loss_worked_values(self):
        cases = [
            ([1.0, 0.0, 1.0], [1.0, 0.0, 1.0], -1.0),
            ([0.0, 0.0], [1.0, 0.0], 0.0),
            ([0.5, 0.5], [1.0, 0.0], -0.5),
        ]
        for raw, target, want in cases:
            tape = dg.Tape()
            loss = tr.soft_f1_loss(tape.leaf(raw), np.array(target))
            assert abs(loss.value - want) <= 1e-12

    def test_trajectory_weighting_worked_values(self):
        target = np.array([1.0, 0.0])
        losses = tr.LossConfig(single_step="soft_f1")

        tape = dg.Tape()
        one_step = inf.Trajectory([tape.leaf([0.3, 0.3]),
                                   tape.leaf([0.5, 0.5])])
        got = tr.weighted_trajectory_loss(one_step, target, losses)
        assert abs(got.value - (-0.5)) <= 1e-12

        tape = dg.Tape()
        two_perfect = inf.Trajectory([tape.leaf([0.5, 0.5]),
                                      tape.leaf(target), tape.leaf(target)])
        got = tr.weighted_trajectory_loss(two_perfect, target, losses)
        assert abs(got.value - (-0.75)) <= 1e-12

        tape = dg.Tape()
        four_perfect = inf.Trajectory(
            [tape.leaf([0.5, 0.5])] + [tape.leaf(target) for _ in range(4)])
        got = tr.weighted_trajectory_loss(four_perfect, target, losses)
        harmonic = sum(1.0 / k for k in range(1, 5))
        assert abs(got.value - (-harmonic / 4.0)) <= 1e-12


class TestMatrixProjectionFeasibility:
    def test_row_and_column_sums_meet_targets(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            y = rng.random((6, 4))
            col_mass = rng.dirichlet(np.ones(4)) * 6.0
            out = pj.project_matrix_rows_cols(y, col_mass, rounds=100)
            np.testing.assert_allclose(out.sum(axis=1), np.ones(6), atol=1e-4)
            np.testing.assert_allclose(out.sum(axis=0), col_mass, atol=1e-4)
