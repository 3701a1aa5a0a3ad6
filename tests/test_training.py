import gc
import io
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from cardproj import data as dt
from cardproj import diffgraph as dg
from cardproj import inference as inf
from cardproj import model as md
from cardproj import training as tr
from cardproj.diffgraph import Tape
from test_data import corpus
from test_diffgraph import assert_bits, eager_backward

import oracles


def tiny_config(**overrides):
    base = dict(
        input_dim=12,
        label_count=5,
        max_cardinality=4,
        feature_hidden=4,
        feature_dim=3,
        global_hidden=4,
        cardinality_hidden=4,
        seed=0,
    )
    base.update(overrides)
    return md.ModelConfig(**base)


def tiny_dataset(n=24, seed=0):
    # cardinalities 1..4 fit the tiny model's bucket range
    return dt.generate_synthetic(
        n, label_count=5, input_dim=12, seed=seed,
        modulus=4,
        min_words=2, max_words=9,
    )


def quick_inference(**overrides):
    base = dict(variant="pc", steps=2, step_size=0.1, momentum=0.9)
    base.update(overrides)
    return inf.InferenceConfig(**base)


class TestLossConfig:
    def test_defaults(self):
        cfg = tr.LossConfig()
        assert cfg.single_step == "soft_f1"
        assert cfg.aux_cardinality_weight == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(single_step="hinge"),
            dict(aux_cardinality_weight=-0.5),
            dict(aux_cardinality_weight=np.inf),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            tr.LossConfig(**kwargs)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epochs=-1),
            dict(epochs=1.5),
            dict(epochs=2, batch_size=0),
            dict(epochs=2, learning_rate=0.0),
            dict(epochs=2, learning_rate=np.nan),
            dict(epochs=2, patience=0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            tr.TrainConfig(**kwargs)


class TestAdaGrad:
    def test_first_step_moves_by_learning_rate(self):
        params = {"w": np.zeros(3)}
        opt = tr.AdaGrad(params, learning_rate=0.1)
        opt.step(params, {"w": np.ones(3)})
        np.testing.assert_allclose(params["w"], -0.1, rtol=1e-7)

    def test_second_step_shrinks_by_sqrt_two(self):
        params = {"w": np.zeros(1)}
        opt = tr.AdaGrad(params, learning_rate=0.1)
        opt.step(params, {"w": np.ones(1)})
        opt.step(params, {"w": np.ones(1)})
        want = -0.1 / (1.0 + 1e-8) - 0.1 / (np.sqrt(2.0) + 1e-8)
        np.testing.assert_allclose(params["w"], want, rtol=1e-12)

    def test_zero_gradient_is_a_no_op(self):
        params = {"w": np.full(2, 0.7)}
        opt = tr.AdaGrad(params, learning_rate=0.5)
        opt.step(params, {"w": np.ones(2)})
        before = params["w"].copy()
        acc_before = opt.accumulators["w"].copy()
        opt.step(params, {"w": np.zeros(2)})
        np.testing.assert_array_equal(params["w"], before)
        np.testing.assert_array_equal(opt.accumulators["w"], acc_before)

    def test_accumulators_never_decrease(self):
        rng = np.random.default_rng(0)
        params = {"a": np.zeros((2, 3)), "b": np.zeros(4)}
        opt = tr.AdaGrad(params, learning_rate=0.1)
        prev = {k: v.copy() for k, v in opt.accumulators.items()}
        for _ in range(30):
            grads = {k: rng.normal(0, 2, v.shape) for k, v in params.items()}
            opt.step(params, grads)
            for name, acc in opt.accumulators.items():
                assert np.all(acc >= prev[name])
                prev[name] = acc.copy()

    def test_denominator_includes_current_gradient(self):
        # one huge gradient must not produce a huge step
        params = {"w": np.zeros(1)}
        opt = tr.AdaGrad(params, learning_rate=0.1)
        opt.step(params, {"w": np.array([1e12])})
        np.testing.assert_allclose(params["w"], -0.1, rtol=1e-7)


class TestSoftF1Loss:
    def loss_at(self, y_values, target):
        tape = Tape()
        y = tape.leaf(np.asarray(y_values, dtype=np.float64))
        return tr.soft_f1_loss(y, np.asarray(target, dtype=np.float64))

    def test_exact_match_is_minus_one(self):
        loss = self.loss_at([1.0, 0.0, 1.0], [1, 0, 1])
        assert float(loss.value) == pytest.approx(-1.0)

    def test_disjoint_is_zero(self):
        loss = self.loss_at([0.0, 0.0], [1, 0])
        assert float(loss.value) == 0.0

    def test_half_mass_is_minus_half(self):
        loss = self.loss_at([0.5, 0.5], [1, 0])
        assert float(loss.value) == pytest.approx(-0.5)

    def test_both_empty_is_zero_constant(self):
        loss = self.loss_at([0.0, 0.0, 0.0], [0, 0, 0])
        assert float(loss.value) == 0.0

    def test_range_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            size = int(rng.integers(1, 8))
            y = rng.random(size)
            target = (rng.random(size) < 0.5).astype(np.float64)
            if target.sum() == 0 and y.sum() == 0:
                continue
            value = float(self.loss_at(y, target).value)
            assert -1.0 - 1e-12 <= value <= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            y_values = rng.uniform(0.1, 0.9, size=6)
            target = np.zeros(6)
            target[rng.choice(6, size=2, replace=False)] = 1.0
            tape = Tape()
            y = tape.leaf(y_values.copy())
            loss = tr.soft_f1_loss(y, target)
            tape.backward(loss)
            got = y.adjoint.copy()
            fd = np.zeros(6)
            h = 1e-6
            for j in range(6):
                for sign in (1.0, -1.0):
                    t2 = Tape()
                    shifted = y_values.copy()
                    shifted[j] += sign * h
                    fd[j] += sign * float(
                        tr.soft_f1_loss(t2.leaf(shifted), target).value
                    )
                fd[j] /= 2.0 * h
            np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-8)


class TestFusedSoftF1Node:
    @staticmethod
    def _sweep(loss_fn, y0, target, seed):
        # y feeds nodes before and after the loss, so the adjoints the loss
        # adds land between other contributions
        rng = np.random.default_rng(seed)
        tape = Tape()
        y = tape.leaf(y0)
        before = dg.vsum(dg.mul(y, y))
        loss = loss_fn(y, target)
        after = dg.dot(dg.scale(y, -0.5), dg.Var(tape, rng.standard_normal(y0.shape)))
        root = dg.add(dg.add(dg.scale(loss, 0.3), after), before)
        while root.value.ndim:
            root = dg.vsum(root)
        tape.backward(root)
        return loss.value, y.adjoint

    @pytest.mark.parametrize("rows", [(), (1,), (6,)])
    def test_value_and_adjoint_bit_identical_to_composed_graph(self, rows):
        rng = np.random.default_rng(sum(rows))
        for case in range(12):
            y0 = rng.choice([0.0, -0.0, 0.2, 0.7, 1.0], size=rows + (5,))
            target = (rng.random(rows + (5,)) < 0.4).astype(np.float64)
            if case % 3 == 0:
                # a row whose target and state are both empty scores 0
                y0.reshape(-1, 5)[0] = [0.0, -0.0, 0.0, 0.0, -0.0]
                target.reshape(-1, 5)[0] = 0.0
            assert_bits(self._sweep(tr.soft_f1_loss, y0, target, case),
                        self._sweep(oracles.soft_f1_loss, y0, target, case))

    def test_records_exactly_one_node(self):
        tape = Tape()
        y = tape.leaf(np.full((3, 4), 0.5))
        before = len(tape)
        tr.soft_f1_loss(y, np.eye(3, 4))
        assert len(tape) == before + 1


class TestBinaryCrossEntropy:
    def test_worked_example(self):
        tape = Tape()
        y = tape.leaf(np.array([0.9, 0.2]))
        loss = tr.binary_cross_entropy(y, np.array([1.0, 0.0]))
        want = -(np.log(0.9) + np.log(0.8)) / 2.0
        assert float(loss.value) == pytest.approx(want, rel=1e-12)

    def test_saturated_predictions_stay_finite(self):
        tape = Tape()
        y = tape.leaf(np.array([0.0, 1.0]))
        loss = tr.binary_cross_entropy(y, np.array([1.0, 0.0]))
        assert np.isfinite(float(loss.value))
        assert float(loss.value) == pytest.approx(-np.log(1e-7), rel=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        y_values = rng.uniform(0.2, 0.8, size=5)
        target = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        tape = Tape()
        y = tape.leaf(y_values.copy())
        loss = tr.binary_cross_entropy(y, target)
        tape.backward(loss)
        fd = np.zeros(5)
        h = 1e-6
        for j in range(5):
            up, down = y_values.copy(), y_values.copy()
            up[j] += h
            down[j] -= h
            fd[j] = (
                float(tr.binary_cross_entropy(Tape().leaf(up), target).value)
                - float(tr.binary_cross_entropy(Tape().leaf(down), target).value)
            ) / (2.0 * h)
        np.testing.assert_allclose(y.adjoint, fd, rtol=1e-6)


class TestWeightedTrajectoryLoss:
    def fake_trajectory(self, tape, states):
        nodes = [dg.Var(tape, np.asarray(s, dtype=np.float64)) for s in states]
        return inf.Trajectory(nodes)

    def test_single_step_equals_plain_loss(self):
        tape = Tape()
        traj = self.fake_trajectory(tape, [[0.5, 0.5], [0.7, 0.1]])
        target = np.array([1.0, 0.0])
        got = tr.weighted_trajectory_loss(traj, target, tr.LossConfig())
        want = tr.soft_f1_loss(dg.Var(tape, np.array([0.7, 0.1])), target)
        assert float(got.value) == pytest.approx(float(want.value), rel=1e-12)

    def test_two_perfect_states_give_three_quarters(self):
        tape = Tape()
        target = np.array([1.0, 0.0, 1.0])
        traj = self.fake_trajectory(tape, [[0.5] * 3, target, target])
        got = tr.weighted_trajectory_loss(traj, target, tr.LossConfig())
        assert float(got.value) == pytest.approx(-0.75, rel=1e-12)

    def test_all_perfect_gives_harmonic_mean_weighting(self):
        tape = Tape()
        target = np.array([0.0, 1.0])
        horizon = 4
        traj = self.fake_trajectory(tape, [[0.5, 0.5]] + [target] * horizon)
        got = tr.weighted_trajectory_loss(traj, target, tr.LossConfig())
        harmonic = sum(1.0 / k for k in range(1, horizon + 1))
        assert float(got.value) == pytest.approx(-harmonic / horizon, rel=1e-12)

    def test_initial_state_is_not_scored(self):
        tape = Tape()
        target = np.array([1.0, 0.0])
        # terrible initialization, perfect ascent state
        traj = self.fake_trajectory(tape, [[0.0, 1.0], target])
        got = tr.weighted_trajectory_loss(traj, target, tr.LossConfig())
        assert float(got.value) == pytest.approx(-1.0)

    def test_bounded_by_worst_state_loss(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            horizon = int(rng.integers(1, 6))
            size = int(rng.integers(2, 6))
            states = rng.random((horizon + 1, size))
            target = np.zeros(size)
            target[rng.choice(size, size=1)] = 1.0
            tape = Tape()
            traj = self.fake_trajectory(tape, list(states))
            total = float(
                tr.weighted_trajectory_loss(traj, target, tr.LossConfig()).value
            )
            worst = max(
                abs(float(tr.soft_f1_loss(dg.Var(tape, s), target).value))
                for s in states[1:]
            )
            assert abs(total) <= worst + 1e-12


class TestCardinalityCrossEntropy:
    def test_uniform_logits(self):
        tape = Tape()
        logits = tape.leaf(np.zeros(3))
        loss = tr.cardinality_cross_entropy(logits, 1)
        assert float(loss.value) == pytest.approx(np.log(3.0), rel=1e-12)

    def test_confident_correct_bucket_is_near_zero(self):
        tape = Tape()
        logits = tape.leaf(np.array([0.0, 0.0, 30.0]))
        loss = tr.cardinality_cross_entropy(logits, 2)
        assert float(loss.value) < 1e-12

    def test_gradient_is_probabilities_minus_onehot(self):
        tape = Tape()
        values = np.array([0.3, -0.4, 1.1])
        logits = tape.leaf(values.copy())
        loss = tr.cardinality_cross_entropy(logits, 0)
        tape.backward(loss)
        probs = np.exp(values) / np.exp(values).sum()
        want = probs - np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(logits.adjoint, want, rtol=1e-12)


class TestExampleLoss:
    def test_zero_steps_equals_single_step_on_initialization(self):
        model = md.ScoreModel(tiny_config(seed=3))
        ds = tiny_dataset(4, seed=1)
        cfg = quick_inference(steps=0)
        lcfg = tr.LossConfig(single_step="cross_entropy", aux_cardinality_weight=0.0)
        tape = Tape()
        tm = md.TapedModel(model, tape)
        loss, traj = tr.example_loss(tm, ds.examples[0], ds.target(0), cfg, lcfg)
        assert len(traj.states) == 1
        ex = ds.examples[0]
        tape2 = Tape()
        tm2 = md.TapedModel(model, tape2)
        y0 = inf.init_labels(md.unary_scores(tm2, ex.feature_indices, ex.feature_values))
        want = tr.binary_cross_entropy(y0, ds.target(0))
        assert float(loss.value) == pytest.approx(float(want.value), rel=1e-12)

    def test_aux_weight_adds_cardinality_cross_entropy(self):
        model = md.ScoreModel(tiny_config(seed=4))
        ds = tiny_dataset(4, seed=2)
        cfg = quick_inference()
        ex, target = ds.examples[1], ds.target(1)

        def value(weight):
            tape = Tape()
            tm = md.TapedModel(model, tape)
            loss, _ = tr.example_loss(
                tm, ex, target, cfg, tr.LossConfig(aux_cardinality_weight=weight)
            )
            return float(loss.value)

        tape = Tape()
        tm = md.TapedModel(model, tape)
        logits = md.cardinality_logits(tm, ex.feature_indices, ex.feature_values)
        aux = float(tr.cardinality_cross_entropy(logits, int(target.sum())).value)
        assert value(2.0) - value(0.0) == pytest.approx(2.0 * aux, rel=1e-9)

    def test_oversized_label_set_clamps_to_top_bucket(self):
        model = md.ScoreModel(tiny_config(seed=5))
        cfg = quick_inference()
        ex = corpus([([0, 3], [1.0, 1.0], range(5))], input_dim=12, label_count=5)
        target = np.ones(5)  # five labels, but only buckets 0..4 exist
        tape = Tape()
        tm = md.TapedModel(model, tape)
        loss, _ = tr.example_loss(tm, ex, target, cfg, tr.LossConfig())
        assert np.isfinite(float(loss.value))


class TestStackedTrajectoryLoss:
    """The one-pass trajectory loss against the per-state chain it replaces."""

    @staticmethod
    def _sweep(loss_fn, states0, target, single_step, seed):
        # every state feeds nodes recorded before the loss, as the next
        # ascent step reads it, so the adjoints the loss adds land ahead of
        # other contributions, and in the order the sweep adds them
        rng = np.random.default_rng(seed)
        tape = Tape()
        states = [tape.leaf(s) for s in states0]
        root = None
        for y in states:
            term = dg.add(dg.vsum(dg.mul(y, y)),
                          dg.dot(dg.scale(y, -0.5), dg.Var(tape, rng.standard_normal(y.shape))))
            root = term if root is None else dg.add(root, term)
        loss = loss_fn(inf.Trajectory(states), target, tr.LossConfig(single_step=single_step))
        root = dg.add(dg.scale(loss, 0.3), root)
        while root.value.ndim:
            root = dg.vsum(root)
        tape.backward(root)
        return [loss.value] + [y.adjoint for y in states]

    @pytest.mark.parametrize("rows", [(), (16,)])
    @pytest.mark.parametrize("horizon", [1, 2, 5])
    @pytest.mark.parametrize("single_step", ["soft_f1", "cross_entropy"])
    def test_value_and_adjoints_bit_identical_to_the_chain(self, single_step, horizon, rows):
        rng = np.random.default_rng(horizon + sum(rows))
        for case in range(6):
            pool = [0.0, -0.0, 0.2, 0.7, 1.0] if case % 2 else [0.0, -0.0]
            states0 = [np.where(rng.random(rows + (7,)) < 0.5, rng.choice(pool, rows + (7,)),
                                rng.random(rows + (7,)))
                       for _ in range(horizon + 1)]
            target = (rng.random(rows + (7,)) < 0.4).astype(np.float64)
            # a row whose target is empty, and so is its state in the first
            # and last ascent states
            target.reshape(-1, 7)[0] = 0.0
            states0[1].reshape(-1, 7)[0] = [0.0, -0.0, 0.0, 0.0, -0.0, 0.0, 0.0]
            states0[-1].reshape(-1, 7)[0] = -0.0
            assert_bits(
                self._sweep(tr.weighted_trajectory_loss, states0, target, single_step, case),
                self._sweep(oracles.weighted_trajectory_loss, states0, target, single_step, case))


class TestExampleTape:
    """What one training example, or one minibatch, leaves on its tape."""

    @staticmethod
    def _loss(variant):
        model = md.ScoreModel(tiny_config(seed=7, with_sc=variant == "sc"))
        ds = tiny_dataset(4, seed=3)
        tape = Tape()
        tm = md.TapedModel(model, tape)
        loss, _ = tr.example_loss(tm, ds.examples[0], ds.target(0),
                                  quick_inference(variant=variant, steps=5),
                                  tr.LossConfig())
        return tape, tm, loss

    # one node per fused projection, score gradient, velocity and trial
    # point, and three for the trajectory loss (the stacked states, one
    # soft-F1 node over them, the weighted sum), whatever the batch size: a
    # test fails here when a fused node is split into its composed graph
    # again or an op stops working on whole batches
    @pytest.mark.parametrize("variant, nodes", [("pc", 59), ("sc", 61)])
    def test_node_count_of_a_five_step_minibatch(self, variant, nodes):
        model = md.ScoreModel(tiny_config(seed=7, with_sc=variant == "sc"))
        ds = tiny_dataset(16, seed=3)
        for size in (1, 16):
            tm, _ = tr._minibatch_loss(model, ds.batch(np.arange(size)),
                                       quick_inference(variant=variant, steps=5),
                                       tr.LossConfig())
            assert len(tm.tape) == nodes, size

    # a run computes the head even when neither the budget nor the loss
    # reads it: five forward-only nodes more than these counts had before
    @pytest.mark.parametrize("variant, z_source, nodes",
                             [("pc", 2.0, 50), ("sc", "predictor", 56)])
    def test_node_count_without_the_auxiliary_loss(self, variant, z_source, nodes):
        model = md.ScoreModel(tiny_config(seed=7, with_sc=variant == "sc"))
        ds = tiny_dataset(16, seed=3)
        tm, _ = tr._minibatch_loss(model, ds.batch(np.arange(16)),
                                   quick_inference(variant=variant, steps=5,
                                                   z_source=z_source),
                                   tr.LossConfig(aux_cardinality_weight=0.0))
        assert len(tm.tape) == nodes

    @pytest.mark.parametrize("z_source", ["predictor", 2.0])
    @pytest.mark.parametrize("variant", ["pc", "sc"])
    def test_auxiliary_loss_reads_the_head_of_the_run(self, variant, z_source, monkeypatch):
        model = md.ScoreModel(tiny_config(seed=7, with_sc=variant == "sc"))
        ds = tiny_dataset(4, seed=3)
        calls = []
        original = md.cardinality_logits

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(md, "cardinality_logits", counted)
        tr._minibatch_loss(model, ds.batch(np.arange(4)),
                           quick_inference(variant=variant, steps=2, z_source=z_source),
                           tr.LossConfig(aux_cardinality_weight=1.0))
        assert len(calls) == 1

    @pytest.mark.parametrize("variant", ["pc", "sc"])
    def test_gradients_match_the_eager_zero_fill_sweep(self, variant):
        tape, tm, loss = self._loss(variant)
        tape.backward(loss)
        lazy = tm.grads()
        tape, tm, loss = self._loss(variant)
        eager_backward(tape, loss)
        for name, grad in tm.grads().items():
            assert lazy[name].tobytes() == grad.tobytes(), name

    def test_tape_is_freed_without_the_cycle_collector(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            tape, tm, loss = self._loss("pc")
            tape.backward(loss)
            tm.grads()
            ref = weakref.ref(tape)
            del tape, tm, loss
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


def mixed_dataset():
    """Synthetic rows plus two examples without features, one of them with
    an empty label set; under the crafted head below both get budget 0."""
    ds = dt.generate_synthetic(9, label_count=12, input_dim=16, seed=5,
                               min_words=3, max_words=8)
    rows = [(ex.feature_indices, ex.feature_values, ex.labels) for ex in ds.examples]
    return corpus([*rows[:4], ([], [], []), *rows[4:], ([], [], [3, 7])],
                  input_dim=16, label_count=12)


def mixed_model(with_sc):
    m = md.ScoreModel(md.ModelConfig(
        input_dim=16, label_count=12, max_cardinality=5, feature_hidden=6,
        feature_dim=5, global_hidden=4, cardinality_hidden=6, with_sc=with_sc,
        seed=3))
    # at zero input the head favours bucket 0; any features push bucket 1 up
    m.params["cardinality.b1"][:] = 0.0
    m.params["cardinality.b2"][0] = 1.0
    m.params["cardinality.w2"][1] += 3.0
    if with_sc:
        m.params["sc.weights"][:] = np.linspace(-1.0, 1.0, 5)
    return m


BATCH_CONFIGS = {
    "pc-expected": (dict(variant="pc", steps=5), {}),
    "pc-argmax": (dict(variant="pc", steps=5, z_mode="argmax"), {}),
    "pc-aux0": (dict(variant="pc", steps=5), dict(aux_cardinality_weight=0.0)),
    "pc-argmax-aux0": (dict(variant="pc", steps=5, z_mode="argmax"),
                       dict(aux_cardinality_weight=0.0)),
    "pc-exact": (dict(variant="pc", steps=5, projection="exact"), {}),
    "pc-exact-argmax": (dict(variant="pc", steps=5, projection="exact", z_mode="argmax"), {}),
    "sc": (dict(variant="sc", steps=5), {}),
    "sc-aux0": (dict(variant="sc", steps=5), dict(aux_cardinality_weight=0.0)),
    "pc-ce": (dict(variant="pc", steps=5), dict(single_step="cross_entropy")),
    "steps0-ce": (dict(variant="pc", steps=0), dict(single_step="cross_entropy")),
    "steps0-ce-aux0": (dict(variant="pc", steps=0),
                       dict(single_step="cross_entropy", aux_cardinality_weight=0.0)),
}


class TestBatchEquivalence:
    """One tape per minibatch computes what its rows compute alone."""

    @staticmethod
    def _step(model, ds, rows, icfg, lcfg):
        # the training objective and gradient, plus the batch's row losses
        batch = ds.batch(rows)
        tm, mean = tr._minibatch_loss(model, batch, icfg, lcfg)
        tm.tape.backward(mean)
        losses, _ = tr.example_loss(md.TapedModel(model, Tape()), batch, batch.targets(),
                                    icfg, lcfg)
        return float(mean.value), losses.value.copy(), tm.grads()

    @pytest.mark.parametrize("name", list(BATCH_CONFIGS))
    def test_batch_is_the_mean_of_its_rows(self, name):
        ikw, lkw = BATCH_CONFIGS[name]
        icfg, lcfg = inf.InferenceConfig(**ikw), tr.LossConfig(**lkw)
        model = mixed_model(icfg.variant == "sc")
        ds = mixed_dataset()
        rows = np.arange(len(ds))
        if icfg.z_mode == "argmax":
            tm = md.TapedModel(model, Tape())
            batch = ds.batch(rows)
            budgets = md.predict_cardinality(tm, batch.feature_indices,
                                             batch.feature_values, "argmax",
                                             indptr=batch.indptr)
            assert budgets[4] == budgets[-1] == 0 and np.count_nonzero(budgets) == len(ds) - 2
        loss, losses, grads = self._step(model, ds, rows, icfg, lcfg)
        alone = [self._step(model, ds, [i], icfg, lcfg) for i in rows]
        np.testing.assert_allclose(losses, [a[0] for a in alone], rtol=1e-12, atol=0)
        assert loss == pytest.approx(np.mean([a[0] for a in alone]), rel=1e-12)
        if icfg.z_mode == "argmax" and lcfg.aux_cardinality_weight == 0.0:
            # the empty target with an all-zero state scores the constant 0
            assert losses[4] == 0.0
        for buf, grad in grads.items():
            mean = np.mean([a[2][buf] for a in alone], axis=0)
            scale = max(float(np.abs(mean).max()), 1e-300)
            assert float(np.abs(grad - mean).max()) <= 1e-12 * scale, buf

    @pytest.mark.parametrize("name", ["pc-expected", "pc-argmax", "pc-exact", "sc"])
    def test_a_row_gives_the_same_bits_alone_as_in_a_batch(self, name):
        ikw, _ = BATCH_CONFIGS[name]
        icfg = inf.InferenceConfig(**ikw)
        model = mixed_model(icfg.variant == "sc")
        ds = mixed_dataset()
        batch = ds.batch(np.arange(len(ds)))
        traj = inf.run_inference(md.TapedModel(model, Tape()), batch.feature_indices,
                                 batch.feature_values, icfg, indptr=batch.indptr)
        for r, ex in enumerate(ds.examples):
            one = inf.run_inference(md.TapedModel(model, Tape()), ex.feature_indices,
                                    ex.feature_values, icfg)
            assert one.final_values().tobytes() == traj.final_values()[r].tobytes()
            if one.z_used is not None:
                assert one.z_used == traj.z_used[r]


def composed_nodes(monkeypatch):
    """Record every fused node of a training step as its composed graph."""
    monkeypatch.setattr(dg, "matvec_sparse", oracles.matvec_sparse)
    monkeypatch.setattr(md, "grad_global_score", oracles.grad_global_score)
    monkeypatch.setattr(inf, "_velocity", oracles.velocity)
    monkeypatch.setattr(inf, "_trial", oracles.trial)
    monkeypatch.setitem(tr._STEP_LOSSES, "soft_f1", oracles.soft_f1_loss)
    monkeypatch.setattr(tr, "weighted_trajectory_loss", oracles.weighted_trajectory_loss)


class TestFusedTrainingStep:
    """A training step with the fused nodes against the same step composed
    node by node: same loss and gradients, bit for bit, on fewer nodes."""

    @staticmethod
    def _step(model, batch, icfg, lcfg):
        tm, mean = tr._minibatch_loss(model, batch, icfg, lcfg)
        tm.tape.backward(mean)
        return len(tm.tape), [mean.value, *tm.grads().values()]

    @pytest.mark.parametrize("name", [*BATCH_CONFIGS, "pc-momentum0"])
    def test_bit_identical_to_the_composed_step(self, name, monkeypatch):
        ikw, lkw = BATCH_CONFIGS.get(name, (dict(variant="pc", steps=5, momentum=0.0), {}))
        icfg, lcfg = inf.InferenceConfig(**ikw), tr.LossConfig(**lkw)
        model = mixed_model(icfg.variant == "sc")
        ds = mixed_dataset()
        # the whole split, with its featureless rows and its empty target,
        # then one-row batches
        for rows in (np.arange(len(ds)), [4], [len(ds) - 1], [0]):
            nodes, got = self._step(model, ds.batch(rows), icfg, lcfg)
            with monkeypatch.context() as patch:
                composed_nodes(patch)
                composed, want = self._step(model, ds.batch(rows), icfg, lcfg)
            assert_bits(got, want)
            assert nodes < composed or icfg.steps == 0

    @pytest.mark.parametrize("variant, nodes, composed", [("pc", 57, 116), ("sc", 59, 123)])
    def test_one_example_path(self, variant, nodes, composed, monkeypatch):
        # the one-vector path of bench/workloads.py's replay: a target vector
        # and no batch mean
        model = md.ScoreModel(tiny_config(seed=7, with_sc=variant == "sc"))
        ds = tiny_dataset(4, seed=3)
        icfg = quick_inference(variant=variant, steps=5)

        def sweep():
            tm = md.TapedModel(model, Tape())
            loss, _ = tr.example_loss(tm, ds.examples[1], ds.target(1), icfg, tr.LossConfig())
            tm.tape.backward(loss)
            return len(tm.tape), [loss.value, *tm.grads().values()]

        got = sweep()
        with monkeypatch.context() as patch:
            composed_nodes(patch)
            want = sweep()
        assert (got[0], want[0]) == (nodes, composed)
        assert_bits(got[1], want[1])


class TestPredictEvaluate:
    def test_predict_shapes_and_binary_output(self):
        model = md.ScoreModel(tiny_config(seed=6))
        ds = tiny_dataset(8, seed=3)
        labels, counts, losses = tr.predict(model, ds, quick_inference(), tr.LossConfig(),
                                            ds.targets())
        assert labels.shape == (8, 5)
        assert np.all((labels == 0.0) | (labels == 1.0))
        assert counts.shape == (8,)
        assert np.all(counts == counts.astype(int))
        assert losses.shape == (8,) and np.all(np.isfinite(losses))

    def test_evaluate_keys_and_consistency_with_predict(self):
        from dataclasses import replace

        model = md.ScoreModel(tiny_config(seed=7))
        ds = tiny_dataset(8, seed=4)
        cfg = quick_inference()
        metrics = tr.evaluate(model, ds, cfg)
        assert set(metrics) == {"loss", "f1", "f1_label", "card_mse"}
        labels, counts, losses = tr.predict(model, ds, replace(cfg, z_mode="argmax"),
                                            tr.LossConfig(), ds.targets())
        truth = np.stack([ds.target(i) for i in range(len(ds))])
        f1, f1_label = dt.eval_f1(labels, truth)
        assert metrics["loss"] == pytest.approx(losses.mean())
        assert metrics["f1"] == pytest.approx(f1)
        assert metrics["f1_label"] == pytest.approx(f1_label)
        assert metrics["card_mse"] == pytest.approx(
            np.mean((counts - ds.cardinalities()) ** 2)
        )

    @pytest.mark.parametrize("decode", ["threshold", "topz"])
    def test_predict_decodes_what_evaluate_scores(self, decode):
        # under the default expected budget both decode with the modal one
        model = md.ScoreModel(tiny_config(seed=0))
        ds = tiny_dataset(24, seed=4)
        cfg = inf.InferenceConfig(steps=5, decode=decode)
        assert cfg.z_mode == "expected"
        metrics = tr.evaluate(model, ds, cfg)
        labels, counts, losses = tr.predict(model, ds, cfg, tr.LossConfig(), ds.targets())
        truth = np.stack([ds.target(i) for i in range(len(ds))])
        f1, f1_label = dt.eval_f1(labels, truth)
        assert float(losses.mean()) == metrics["loss"]
        assert f1 == metrics["f1"]
        assert f1_label == metrics["f1_label"]
        assert float(np.mean((counts - ds.cardinalities()) ** 2)) == metrics["card_mse"]

    @pytest.mark.parametrize(
        "variant, aux", [("pc", 1.0), ("pc", 0.0), ("sc", 1.0), ("sc", 0.0), ("topz", 1.0)]
    )
    def test_evaluate_runs_the_cardinality_head_once_per_example(
        self, variant, aux, monkeypatch
    ):
        # the budget, the auxiliary loss and the modal count share one head
        # output, and the count is the one predict_cardinality returns
        model = md.ScoreModel(tiny_config(seed=7, with_sc=True))
        ds = tiny_dataset(8, seed=4)
        counts = np.array([
            md.predict_cardinality(md.TapedModel(model, Tape()), ex.feature_indices,
                                   ex.feature_values, mode="argmax")
            for ex in ds.examples
        ])
        rows = []
        original = md.cardinality_logits

        def counted(*args, **kwargs):
            logits = original(*args, **kwargs)
            rows.append(logits.value.shape[0] if logits.value.ndim == 2 else 1)
            return logits

        monkeypatch.setattr(md, "cardinality_logits", counted)
        metrics = tr.evaluate(model, ds, quick_inference(variant=variant),
                              tr.LossConfig(aux_cardinality_weight=aux))
        assert sum(rows) == len(ds)
        assert metrics["card_mse"] == float(np.mean((counts - ds.cardinalities()) ** 2))

    @pytest.mark.parametrize("variant", ["pc", "sc", "topz"])
    def test_chunks_do_not_change_the_results(self, variant, monkeypatch):
        # a row's values do not depend on the chunk it runs in
        model = md.ScoreModel(tiny_config(seed=7, with_sc=True))
        ds = tiny_dataset(8, seed=4)
        cfg = quick_inference(variant=variant,
                              decode="threshold" if variant == "sc" else "topz")
        whole = tr.evaluate(model, ds, cfg), tr.predict(model, ds, cfg, tr.LossConfig(),
                                                        ds.targets())
        monkeypatch.setattr(tr, "EVAL_CHUNK", 3)
        chunked = tr.evaluate(model, ds, cfg), tr.predict(model, ds, cfg, tr.LossConfig(),
                                                        ds.targets())
        assert chunked[0] == whole[0]
        for a, b in zip(chunked[1], whole[1]):
            np.testing.assert_array_equal(a, b)

    def test_evaluate_builds_the_targets_once(self, monkeypatch):
        # each chunk's losses read its rows of the one matrix the metrics use
        model = md.ScoreModel(tiny_config(seed=7))
        ds = tiny_dataset(8, seed=4)
        built, chunks = [], []
        targets, decode = dt.Dataset.targets, tr._decode_chunk

        def counted(dataset):
            built.append(len(dataset))
            return targets(dataset)

        def spy(model, batch, target, *args):
            np.testing.assert_array_equal(target, targets(batch))
            chunks.append(len(batch))
            return decode(model, batch, target, *args)

        monkeypatch.setattr(tr, "EVAL_CHUNK", 3)
        monkeypatch.setattr(dt.Dataset, "targets", counted)
        monkeypatch.setattr(tr, "_decode_chunk", spy)
        tr.evaluate(model, ds, quick_inference())
        assert built == [8] and chunks == [3, 3, 2]

    def test_dimension_mismatch_is_an_error(self):
        model = md.ScoreModel(tiny_config(seed=8))
        wrong = dt.generate_synthetic(
            4, label_count=5, input_dim=9, seed=0, modulus=4, min_words=2, max_words=8,
        )
        with pytest.raises(ValueError, match="input_dim=12.*input_dim=9"):
            tr.predict(model, wrong, quick_inference(), tr.LossConfig(), wrong.targets())


class TestOneGraphAtATime:
    """A pass over many chunks or minibatches peaks near one of them: the
    previous tape is gone before the next one is recorded."""

    CHUNKS = 3

    @staticmethod
    def peak(run, rows):
        ds = dt.generate_synthetic(rows, label_count=30, input_dim=40, seed=0,
                                   modulus=10, min_words=5, max_words=20)
        model = md.ScoreModel(md.ModelConfig(
            input_dim=40, label_count=30, max_cardinality=10, feature_hidden=16,
            feature_dim=16, global_hidden=16, cardinality_hidden=16, seed=0))
        tracemalloc.start()
        try:
            run(model, ds, inf.InferenceConfig(steps=5))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_evaluate_peaks_at_one_chunk(self):
        one = self.peak(tr.evaluate, tr.EVAL_CHUNK)
        assert self.peak(tr.evaluate, self.CHUNKS * tr.EVAL_CHUNK) <= 1.25 * one

    def test_training_steps_peak_at_one_minibatch(self):
        def run(model, ds, cfg):
            tr.train(model, ds, cfg, train_config=tr.TrainConfig(epochs=1, batch_size=32))

        one = self.peak(run, 32)
        assert self.peak(run, self.CHUNKS * 32) <= 1.25 * one


class TestTrain:
    def run_small(self, epochs=2, seed=0, **kwargs):
        model = md.ScoreModel(tiny_config(seed=9))
        ds = tiny_dataset(20, seed=5)
        dev = tiny_dataset(8, seed=6)
        stream = io.StringIO()
        result = tr.train(
            model, ds, quick_inference(),
            train_config=tr.TrainConfig(epochs=epochs, batch_size=8, seed=seed),
            dev_set=dev, log_stream=stream, **kwargs,
        )
        return model, result, stream.getvalue()

    def test_zero_epochs_leaves_model_unchanged(self):
        model, result, _ = self.run_small(epochs=0)
        for name, buf in model.params.items():
            np.testing.assert_array_equal(result.model.params[name], buf)
        assert result.best_epoch == 0

    def test_caller_model_is_not_mutated(self):
        model = md.ScoreModel(tiny_config(seed=9))
        before = {k: v.copy() for k, v in model.params.items()}
        ds = tiny_dataset(12, seed=5)
        tr.train(model, ds, quick_inference(),
                 train_config=tr.TrainConfig(epochs=1, batch_size=6))
        for name, buf in model.params.items():
            np.testing.assert_array_equal(buf, before[name])

    def test_without_a_dev_set_the_model_is_copied_once(self, monkeypatch):
        # the caller's model is copied; with no best epoch to keep, nothing else is
        copies = []
        original = md.ScoreModel.copy
        monkeypatch.setattr(md.ScoreModel, "copy",
                            lambda model: copies.append(None) or original(model))
        tr.train(md.ScoreModel(tiny_config(seed=9)), tiny_dataset(12, seed=5),
                 quick_inference(), train_config=tr.TrainConfig(epochs=2, batch_size=6))
        assert len(copies) == 1

    def test_without_a_dev_set_the_last_epoch_is_returned(self):
        model = md.ScoreModel(tiny_config(seed=9))
        ds = tiny_dataset(12, seed=5)
        cfg = quick_inference()
        result = tr.train(model, ds, cfg,
                          train_config=tr.TrainConfig(epochs=3, batch_size=6))
        assert result.best_epoch == 3
        assert [r.split for r in result.records] == ["train"] * 4
        last = result.records[-1]
        assert tr.evaluate(result.model, ds, cfg) == {
            "loss": last.loss, "f1": last.f1, "f1_label": last.f1_label,
            "card_mse": last.card_mse}
        assert any(not np.array_equal(result.model.params[name], buf)
                   for name, buf in model.params.items())

    def test_metrics_log_schema(self):
        _, result, text = self.run_small(epochs=2)
        lines = text.strip().split("\n")
        assert len(lines) == len(result.records) == 2 * 3  # epochs 0..2, two splits
        pattern = re.compile(
            r"^epoch=\d+ split=(train|dev) loss=-?\d+\.\d{6} f1=\d\.\d{6} "
            r"f1_label=\d\.\d{6} card_mse=\d+\.\d{6}$"
        )
        for line, record in zip(lines, result.records):
            assert pattern.match(line), line
            assert line == record.line()
        assert [r.epoch for r in result.records] == [0, 0, 1, 1, 2, 2]
        assert [r.split for r in result.records[:2]] == ["train", "dev"]

    def test_same_seed_reproduces_metrics_log(self):
        _, _, first = self.run_small(epochs=2, seed=11)
        _, _, second = self.run_small(epochs=2, seed=11)
        assert first == second

    def test_training_improves_the_loss(self):
        _, result, _ = self.run_small(epochs=4)
        train_losses = [r.loss for r in result.records if r.split == "train"]
        assert train_losses[-1] < train_losses[0]

    def test_returned_model_matches_best_dev_epoch(self):
        model = md.ScoreModel(tiny_config(seed=10))
        ds = tiny_dataset(20, seed=7)
        dev = tiny_dataset(8, seed=8)
        cfg = quick_inference()
        result = tr.train(
            model, ds, cfg,
            train_config=tr.TrainConfig(epochs=3, batch_size=8, seed=0),
            dev_set=dev,
        )
        dev_f1 = [r.f1 for r in result.records if r.split == "dev"]
        best = max(dev_f1)
        assert dev_f1[result.best_epoch] == best
        metrics = tr.evaluate(result.model, dev, cfg)
        assert metrics["f1"] == pytest.approx(best)

    def test_early_stopping_respects_patience(self):
        model = md.ScoreModel(tiny_config(seed=11))
        ds = tiny_dataset(12, seed=9)
        dev = tiny_dataset(6, seed=10)
        # learning rate so small that dev F1 cannot improve
        result = tr.train(
            model, ds, quick_inference(),
            train_config=tr.TrainConfig(
                epochs=50, batch_size=6, learning_rate=1e-12, seed=0, patience=2
            ),
            dev_set=dev,
        )
        epochs_run = max(r.epoch for r in result.records)
        assert epochs_run <= 3

    def test_non_finite_loss_names_the_example(self, monkeypatch):
        model = md.ScoreModel(tiny_config(seed=12))
        ds = tiny_dataset(6, seed=11)
        original = tr.example_loss
        marked = ds.examples[2].feature_indices.tobytes()
        assert [ex.feature_indices.tobytes() for ex in ds.examples].count(marked) == 1

        def sabotaged(tm, batch, target, icfg, lcfg):
            # the row of example 2, known by its features, loses its finite loss
            losses, traj = original(tm, batch, target, icfg, lcfg)
            spoil = [np.nan if ex.feature_indices.tobytes() == marked else 1.0
                     for ex in batch.examples]
            return dg.mul(losses, dg.Var(tm.tape, np.array(spoil))), traj

        monkeypatch.setattr(tr, "example_loss", sabotaged)
        with pytest.raises(tr.TrainingDivergedError, match=r"example 2 in epoch 1"):
            tr.train(model, ds, quick_inference(),
                     train_config=tr.TrainConfig(epochs=1, batch_size=3))

    def test_non_finite_gradient_names_the_buffer(self, monkeypatch):
        model = md.ScoreModel(tiny_config(seed=12))
        ds = tiny_dataset(6, seed=11)
        original = md.TapedModel.grads

        def sabotaged(tm):
            grads = original(tm)
            grads["cardinality.b2"][0] = np.nan
            return grads

        monkeypatch.setattr(md.TapedModel, "grads", sabotaged)
        with pytest.raises(tr.TrainingDivergedError,
                           match=r"gradient buffer cardinality.b2 .* in epoch 1, batch 1"):
            tr.train(model, ds, quick_inference(),
                     train_config=tr.TrainConfig(epochs=1, batch_size=3))

    def test_topz_variant_rejected(self):
        model = md.ScoreModel(tiny_config(seed=13))
        ds = tiny_dataset(4, seed=12)
        with pytest.raises(ValueError, match="topz"):
            tr.train(model, ds, quick_inference(variant="topz", steps=0),
                     train_config=tr.TrainConfig(epochs=1))


class TestGradCheck:
    def test_full_pipeline_is_below_tolerance(self):
        model = md.ScoreModel(tiny_config(seed=14))
        ds = tiny_dataset(2, seed=13)
        errors = tr.gradcheck(model, ds.examples[0], quick_inference())
        assert set(errors) == set(model.params)
        assert max(errors.values()) < 1e-3

    def test_baseline_path_is_near_exact(self):
        model = md.ScoreModel(tiny_config(seed=15))
        ds = tiny_dataset(2, seed=14)
        cfg = quick_inference(steps=0)
        lcfg = tr.LossConfig(single_step="cross_entropy", aux_cardinality_weight=0.0)
        errors = tr.gradcheck(model, ds.examples[1], cfg, lcfg)
        assert max(errors.values()) < 1e-6

    def test_corrupted_backward_is_detected(self, monkeypatch):
        model = md.ScoreModel(tiny_config(seed=16))
        ds = tiny_dataset(2, seed=15)
        original = md.grad_global_score

        def corrupted(tm, y):
            # same forward values, but half the adjoint is routed through a
            # detached constant, so only the backward pass is wrong
            node = original(tm, y)
            frozen = dg.Var(tm.tape, 0.5 * node.value)
            return dg.add(dg.scale(node, 0.5), frozen)

        monkeypatch.setattr(md, "grad_global_score", corrupted)
        errors = tr.gradcheck(model, ds.examples[0], quick_inference())
        assert max(errors.values()) > 1e-1

    def test_checks_the_mean_over_a_batch(self, monkeypatch):
        # the gradient of a training step sums the rows of a batch into each
        # bias; one row alone cannot tell that sum from its first term
        model = md.ScoreModel(tiny_config(seed=14))
        ds = tiny_dataset(3, seed=13)
        errors = tr.gradcheck(model, ds, quick_inference())
        assert set(errors) == set(model.params)
        assert max(errors.values()) < 1e-3
        original = dg._reduce_to

        def first_row_only(grad, shape):
            lead = grad.ndim - len(shape)
            return original(grad[(slice(0, 1),) * lead], shape)

        monkeypatch.setattr(dg, "_reduce_to", first_row_only)
        assert tr.gradcheck(model, ds.examples[0], quick_inference())["unary.b"] < 1e-3
        assert tr.gradcheck(model, ds, quick_inference())["unary.b"] > 1e-1

    @staticmethod
    def _check_directions_at_159_labels(**arm):
        # one arm at Bibtex's label count, hidden 8: per buffer, the analytic
        # derivative along 3 seeded unit directions against central
        # differences at steps 1e-5 and 1e-6.  Where the two steps disagree,
        # a relu or clamp crossing lies within a step of the point along that
        # direction: it is flagged as a kink and gated at the smaller step
        # alone.  Under these seeds no arm has a kink.  The sc states sum to
        # about 80, where 10 buckets would leave the bucket score flat to
        # within e^-70 and its gradient unchecked, so sc has a bucket for
        # every label count, with seeded weights
        data = dt.generate_synthetic(8, label_count=159, input_dim=60, seed=1)
        with_sc = arm.get("variant") == "sc"
        buckets = 159 if with_sc else 10
        model = md.ScoreModel(md.ModelConfig(
            input_dim=60, label_count=159, max_cardinality=buckets, feature_hidden=8,
            feature_dim=8, global_hidden=8, cardinality_hidden=8, with_sc=with_sc,
            seed=1))
        if with_sc:
            model.params["sc.weights"][:] = np.random.default_rng(2).normal(size=buckets)
        setup = quick_inference(steps=5, **arm)

        def loss():
            return tr._minibatch_loss(model, data, setup, tr.LossConfig())

        tm, mean = loss()
        tm.tape.backward(mean)
        grads = tm.grads()
        rng = np.random.default_rng(1)
        kinks = []
        for name, buf in model.params.items():
            checks = []
            for _ in range(3):
                u = rng.standard_normal(buf.shape)
                u /= np.linalg.norm(u)
                fd = []
                for step in (1e-5, 1e-6):
                    orig = buf.copy()
                    buf += step * u
                    hi = float(loss()[1].value)
                    buf[...] = orig - step * u
                    lo = float(loss()[1].value)
                    buf[...] = orig
                    fd.append((hi - lo) / (2 * step))
                checks.append((float((grads[name] * u).sum()), *fd))
            scale = max(max(abs(f) for _, *fds in checks for f in fds), 1e-8)
            for analytic, coarse, fine in checks:
                if abs(coarse - fine) / scale >= 1e-3:
                    kinks.append(name)
                    errors = [abs(analytic - fine) / scale]
                else:
                    errors = [abs(analytic - coarse) / scale, abs(analytic - fine) / scale]
                assert max(errors) < 1e-3, (name, analytic, coarse, fine)
        assert len(kinks) <= 1, kinks

    def test_exact_arm_directional_derivatives_at_159_labels(self):
        self._check_directions_at_159_labels(projection="exact")

    def test_soft_arm_directional_derivatives_at_159_labels(self):
        self._check_directions_at_159_labels()

    def test_sc_arm_directional_derivatives_at_159_labels(self):
        self._check_directions_at_159_labels(variant="sc")

    def test_topz_variant_rejected(self):
        # topz decodes without a relaxed trajectory: most buffers would
        # compare a zero gradient with a zero difference
        model = md.ScoreModel(tiny_config(seed=14))
        ds = tiny_dataset(2, seed=13)
        with pytest.raises(ValueError, match="topz"):
            tr.gradcheck(model, ds.examples[0], quick_inference(variant="topz"))
