"""Value and gradient checks for the learned scoring components.

Worked values pin the architecture wiring (zero-weight reductions, one-hot
cases) and every differentiable path is verified against central finite
differences that rebuild the forward pass from scratch per perturbation.
"""

import tempfile
import zipfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cardproj import diffgraph as dg
from cardproj import model as md

import oracles
from test_diffgraph import assert_bits

FD_STEP = 1e-5
FD_TOL = 1e-4


def small_config(**overrides):
    base = dict(
        input_dim=6,
        label_count=4,
        max_cardinality=3,
        feature_hidden=5,
        feature_dim=3,
        global_hidden=7,
        cardinality_hidden=5,
        with_sc=True,
        seed=0,
    )
    base.update(overrides)
    return md.ModelConfig(**base)


def fd_param_grad(scalar_fn, model, name, step=FD_STEP):
    """Central differences of scalar_fn(model) w.r.t. one parameter buffer."""
    buf = model.params[name]
    grad = np.zeros_like(buf)
    it = np.nditer(buf, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        saved = buf[i]
        buf[i] = saved + step
        up = scalar_fn(model)
        buf[i] = saved - step
        down = scalar_fn(model)
        buf[i] = saved
        grad[i] = (up - down) / (2 * step)
    return grad


def zero_params(model):
    for buf in model.params.values():
        buf[...] = 0.0


class TestModelConfig:
    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError, match="label_count"):
            small_config(label_count=0)

    def test_rejects_cardinality_above_label_count(self):
        with pytest.raises(ValueError, match="max_cardinality"):
            small_config(max_cardinality=5)

    def test_rejects_non_integer_sizes(self):
        with pytest.raises(ValueError, match="input_dim"):
            small_config(input_dim=2.5)

    def test_init_is_deterministic_in_seed(self):
        a = md.ScoreModel(small_config(seed=11))
        b = md.ScoreModel(small_config(seed=11))
        c = md.ScoreModel(small_config(seed=12))
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])
        assert any(
            not np.array_equal(a.params[n], c.params[n]) for n in a.params
        )

    def test_sc_weights_only_when_requested(self):
        with_sc = md.ScoreModel(small_config(with_sc=True))
        without = md.ScoreModel(small_config(with_sc=False))
        assert "sc.weights" in with_sc.params
        assert "sc.weights" not in without.params

    def test_copy_is_deep(self):
        a = md.ScoreModel(small_config())
        b = a.copy()
        b.params["unary.b"][0] = 99.0
        assert a.params["unary.b"][0] == 0.0


class TestUnaryScores:
    def test_zero_weights_give_bias(self):
        m = md.ScoreModel(small_config())
        zero_params(m)
        m.params["unary.b"][:] = [0.5, -1.0, 2.0, 0.0]
        tm = md.TapedModel(m, dg.Tape())
        c = md.unary_scores(tm, [0, 3], [1.0, 2.0])
        np.testing.assert_allclose(c.value, [0.5, -1.0, 2.0, 0.0], atol=1e-15)

    def test_identity_wiring_routes_one_hot_input(self):
        cfg = md.ModelConfig(
            input_dim=3,
            label_count=3,
            max_cardinality=2,
            feature_hidden=3,
            feature_dim=3,
            global_hidden=2,
            cardinality_hidden=2,
        )
        m = md.ScoreModel(cfg)
        zero_params(m)
        m.params["feature.w1"][:] = np.eye(3)
        m.params["feature.w2"][:] = np.eye(3)
        m.params["unary.w"][:] = np.eye(3)
        tm = md.TapedModel(m, dg.Tape())
        c = md.unary_scores(tm, [1], [1.0])
        np.testing.assert_allclose(c.value, [0.0, 1.0, 0.0], atol=1e-15)

    def test_gradients_match_fd(self):
        # seed chosen so no hidden pre-activation sits within 1e-3 of a kink
        m = md.ScoreModel(small_config(seed=3))
        idx, vals = np.array([0, 2, 5]), np.array([1.0, -0.5, 2.0])

        def forward(model):
            tm = md.TapedModel(model, dg.Tape())
            return float(dg.vsum(md.unary_scores(tm, idx, vals)).value)

        tape = dg.Tape()
        tm = md.TapedModel(m, tape)
        pre = m.params["feature.w1"][:, idx] @ vals + m.params["feature.b1"]
        assert np.min(np.abs(pre)) > 1e-3
        tape.backward(dg.vsum(md.unary_scores(tm, idx, vals)))
        grads = tm.grads()
        for name in ("feature.w1", "feature.b1", "feature.w2", "feature.b2", "unary.w", "unary.b"):
            want = fd_param_grad(forward, m, name)
            np.testing.assert_allclose(grads[name], want, rtol=FD_TOL, atol=FD_TOL)


class TestGlobalScore:
    def test_zero_weights_give_zero(self):
        m = md.ScoreModel(small_config())
        zero_params(m)
        tm = md.TapedModel(m, dg.Tape())
        y = tm.tape.leaf([0.2, 0.9, 0.1, 0.5])
        assert float(oracles.global_score(tm, y).value) == 0.0

    def test_zero_input_gives_zero(self):
        # no bias: the empty label vector scores zero under any weights
        m = md.ScoreModel(small_config(seed=5))
        tm = md.TapedModel(m, dg.Tape())
        y = tm.tape.leaf(np.zeros(4))
        assert float(oracles.global_score(tm, y).value) == 0.0

    def test_independent_of_input_features(self):
        m = md.ScoreModel(small_config(seed=1))
        tape = dg.Tape()
        tm = md.TapedModel(m, tape)
        md.unary_scores(tm, [0], [1.0])
        y = tape.leaf([0.3, 0.8, 0.1, 0.6])
        first = float(oracles.global_score(tm, y).value)
        md.unary_scores(tm, [1, 4], [5.0, -2.0])
        second = float(oracles.global_score(tm, y).value)
        assert first == second

    def test_gradient_wrt_y_matches_fd(self):
        m = md.ScoreModel(small_config(seed=2))
        y0 = np.array([0.3, 0.8, 0.1, 0.6])
        pre = m.params["global.w1"] @ y0
        assert np.min(np.abs(pre)) > 1e-3

        tape = dg.Tape()
        tm = md.TapedModel(m, tape)
        y = tape.leaf(y0)
        tape.backward(oracles.global_score(tm, y))

        def forward(vec):
            tm2 = md.TapedModel(m, dg.Tape())
            return float(oracles.global_score(tm2, tm2.tape.leaf(vec)).value)

        want = np.array(
            [
                (forward(y0 + FD_STEP * e) - forward(y0 - FD_STEP * e)) / (2 * FD_STEP)
                for e in np.eye(4)
            ]
        )
        np.testing.assert_allclose(y.adjoint, want, rtol=FD_TOL, atol=FD_TOL)

    def test_gradient_wrt_parameters_matches_fd(self):
        m = md.ScoreModel(small_config(seed=2))
        y0 = np.array([0.3, 0.8, 0.1, 0.6])

        def forward(model):
            tm = md.TapedModel(model, dg.Tape())
            return float(oracles.global_score(tm, tm.tape.leaf(y0)).value)

        tape = dg.Tape()
        tm = md.TapedModel(m, tape)
        tape.backward(oracles.global_score(tm, tape.leaf(y0)))
        grads = tm.grads()
        for name in ("global.w1", "global.w2"):
            want = fd_param_grad(forward, m, name)
            np.testing.assert_allclose(grads[name], want, rtol=FD_TOL, atol=FD_TOL)

    def test_grad_node_equals_backward_adjoint(self):
        m = md.ScoreModel(small_config(seed=4))
        tape = dg.Tape()
        tm = md.TapedModel(m, tape)
        y = tape.leaf([0.3, 0.8, 0.1, 0.6])
        grad_node = md.grad_global_score(tm, y)
        tape.backward(oracles.global_score(tm, y))
        np.testing.assert_allclose(grad_node.value, y.adjoint, rtol=1e-12, atol=1e-12)

    def test_grad_node_differentiable_in_parameters(self):
        # first coordinate of the gradient, differentiated w.r.t. w2
        m = md.ScoreModel(small_config(seed=4))
        y0 = np.array([0.3, 0.8, 0.1, 0.6])

        def forward(model):
            tm = md.TapedModel(model, dg.Tape())
            node = md.grad_global_score(tm, tm.tape.leaf(y0))
            return float(dg.pick(node, 0).value)

        tape = dg.Tape()
        tm = md.TapedModel(m, tape)
        tape.backward(dg.pick(md.grad_global_score(tm, tape.leaf(y0)), 0))
        want = fd_param_grad(forward, m, "global.w2")
        np.testing.assert_allclose(tm.grads()["global.w2"], want, rtol=FD_TOL, atol=FD_TOL)


class TestFusedGlobalGradNode:
    @staticmethod
    def _sweep(grad_fn, model, y0, seed):
        # y and both weights also feed nodes before and after the gradient
        # node, so the adjoints it adds land between other contributions
        rng = np.random.default_rng(seed)
        tape = dg.Tape()
        tm = md.TapedModel(model, tape)
        w1, w2 = tm.vars["global.w1"], tm.vars["global.w2"]
        y = tape.leaf(y0)
        before = dg.add(dg.matvec(w1, y), dg.scale(w2, 0.5))
        grad = grad_fn(tm, y)
        after = dg.mul(dg.add(grad, y), y)
        readout = dg.Var(tape, rng.choice([0.0, -0.0, 1.5, -1.0], size=y0.shape))
        root = dg.add(dg.vsum(dg.mul(after, readout)), dg.dot(w2, dg.relu(before)))
        while root.value.ndim:
            root = dg.vsum(root)
        tape.backward(root)
        return grad.value, y.adjoint, w1.adjoint, w2.adjoint

    @pytest.mark.parametrize("rows", [(), (1,), (6,)])
    def test_value_and_adjoints_bit_identical_to_composed_graph(self, rows):
        rng = np.random.default_rng(sum(rows))
        for case in range(8):
            m = md.ScoreModel(small_config(label_count=9, global_hidden=7, seed=case))
            # zero weights and zero labels send signed zeros through the mask
            m.params["global.w2"][::3] = 0.0
            y0 = rng.choice([0.0, -0.0, 0.3, 1.0, -0.4], size=rows + (9,))
            y0[..., 0] = 0.0
            assert_bits(self._sweep(md.grad_global_score, m, y0, case),
                        self._sweep(oracles.grad_global_score, m, y0, case))

    def test_records_exactly_one_node(self):
        tape = dg.Tape()
        tm = md.TapedModel(md.ScoreModel(small_config()), tape)
        y = tape.leaf(np.full((3, 4), 0.4))
        before = len(tape)
        md.grad_global_score(tm, y)
        assert len(tape) == before + 1


class TestCardinalityPredictor:
    def test_zero_weights_give_uniform_distribution(self):
        m = md.ScoreModel(small_config())
        zero_params(m)
        tm = md.TapedModel(m, dg.Tape())
        probs = dg.softmax(md.cardinality_logits(tm, [1], [1.0]))
        np.testing.assert_allclose(probs.value, np.full(4, 0.25), atol=1e-15)

    def test_uniform_over_five_buckets_expects_two(self):
        cfg = md.ModelConfig(
            input_dim=3,
            label_count=5,
            max_cardinality=4,
            feature_hidden=2,
            feature_dim=2,
            global_hidden=2,
            cardinality_hidden=2,
        )
        m = md.ScoreModel(cfg)
        zero_params(m)
        tm = md.TapedModel(m, dg.Tape())
        z = md.predict_cardinality(tm, [0], [1.0], mode="expected")
        assert float(z.value) == pytest.approx(2.0, abs=1e-12)

    def test_one_hot_distribution_agrees_across_modes(self):
        m = md.ScoreModel(small_config())
        zero_params(m)
        m.params["cardinality.b2"][3] = 50.0
        tm = md.TapedModel(m, dg.Tape())
        expected = md.predict_cardinality(tm, [1], [1.0], mode="expected")
        modal = md.predict_cardinality(tm, [1], [1.0], mode="argmax")
        assert float(expected.value) == pytest.approx(3.0, abs=1e-8)
        assert modal == 3
        assert modal.shape == () and modal.dtype.kind == "i"

    def test_distribution_normalized_for_random_models(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            m = md.ScoreModel(small_config(seed=seed))
            tm = md.TapedModel(m, dg.Tape())
            idx = rng.choice(6, size=3, replace=False)
            probs = dg.softmax(md.cardinality_logits(tm, idx, rng.normal(size=3)))
            assert abs(float(probs.value.sum()) - 1.0) < 1e-8
            assert probs.value.min() >= 0.0

    @pytest.mark.parametrize("rows", [(), (3,)])
    def test_modal_count_records_nothing_on_the_tape(self, rows):
        m = md.ScoreModel(small_config(seed=3))
        m.params["cardinality.b2"][:] = [0.5, 2.0, -1.0, 2.0]  # a near tie
        tape = dg.Tape()
        tm = md.TapedModel(m, tape)
        if rows:
            logits = md.cardinality_logits(tm, [0, 4, 1, 2], [1.0, 1.5, -2.0, 0.5],
                                           indptr=np.array([0, 2, 3, 4]))
        else:
            logits = md.cardinality_logits(tm, [0, 4], [1.0, 1.5])
        before = len(tape)
        modal = md.modal_cardinality(logits)
        assert len(tape) == before
        want = np.argmax(dg.softmax(logits).value, axis=-1)
        np.testing.assert_array_equal(modal, want)
        assert modal.shape == rows and modal.dtype.kind == "i"

    def test_expected_mode_is_differentiable(self):
        m = md.ScoreModel(small_config(seed=6))
        idx, vals = np.array([0, 4]), np.array([1.0, 1.5])

        def forward(model):
            tm = md.TapedModel(model, dg.Tape())
            return float(md.predict_cardinality(tm, idx, vals, mode="expected").value)

        tape = dg.Tape()
        tm = md.TapedModel(m, tape)
        tape.backward(md.predict_cardinality(tm, idx, vals, mode="expected"))
        want = fd_param_grad(forward, m, "cardinality.w2")
        np.testing.assert_allclose(
            tm.grads()["cardinality.w2"], want, rtol=FD_TOL, atol=FD_TOL
        )


class TestScCardinalityScore:
    def test_soft_indicator_at_exact_count_is_half(self):
        # sum(y) = 3 makes the third indicator sigmoid(0) = 1/2; with a
        # one-hot weight on bucket 3 the score is I3 (1 - I4)
        m = md.ScoreModel(small_config())
        zero_params(m)
        m.params["sc.weights"][2] = 1.0
        tm = md.TapedModel(m, dg.Tape())
        y = tm.tape.leaf([1.0, 1.0, 1.0, 0.0])
        score = oracles.sc_cardinality_score(tm, y)
        sig = lambda a: 1.0 / (1.0 + np.exp(-a))
        assert float(score.value) == pytest.approx(0.5 * (1.0 - sig(-1.0)), abs=1e-12)

    def test_zero_weights_give_zero_score(self):
        m = md.ScoreModel(small_config())
        tm = md.TapedModel(m, dg.Tape())
        y = tm.tape.leaf([0.9, 0.2, 0.7, 0.4])
        assert float(oracles.sc_cardinality_score(tm, y).value) == 0.0

    def test_gradient_wrt_y_matches_fd(self):
        m = md.ScoreModel(small_config(seed=8))
        m.params["sc.weights"][:] = [0.5, -1.0, 2.0]
        y0 = np.array([0.9, 0.2, 0.7, 0.4])

        def forward(vec):
            tm = md.TapedModel(m, dg.Tape())
            return float(oracles.sc_cardinality_score(tm, tm.tape.leaf(vec)).value)

        tape = dg.Tape()
        tm = md.TapedModel(m, tape)
        y = tape.leaf(y0)
        tape.backward(oracles.sc_cardinality_score(tm, y))
        want = np.array(
            [
                (forward(y0 + FD_STEP * e) - forward(y0 - FD_STEP * e)) / (2 * FD_STEP)
                for e in np.eye(4)
            ]
        )
        np.testing.assert_allclose(y.adjoint, want, rtol=FD_TOL, atol=FD_TOL)

    def test_grad_node_equals_backward_adjoint(self):
        m = md.ScoreModel(small_config(seed=8))
        m.params["sc.weights"][:] = [0.5, -1.0, 2.0]
        tape = dg.Tape()
        tm = md.TapedModel(m, tape)
        y = tape.leaf([0.9, 0.2, 0.7, 0.4])
        grad_node = md.grad_sc_score(tm, y)
        tape.backward(oracles.sc_cardinality_score(tm, y))
        np.testing.assert_allclose(grad_node.value, y.adjoint, rtol=1e-12, atol=1e-12)

    def test_grad_node_carries_second_order_terms(self):
        # differentiate one gradient coordinate w.r.t. y; the sigmoid chain
        # must supply the curvature that a detached slope would drop
        m = md.ScoreModel(small_config(seed=8))
        m.params["sc.weights"][:] = [0.5, -1.0, 2.0]
        y0 = np.array([0.9, 0.2, 0.7, 0.4])

        def grad0(vec):
            tm = md.TapedModel(m, dg.Tape())
            return float(md.grad_sc_score(tm, tm.tape.leaf(vec)).value[0])

        tape = dg.Tape()
        tm = md.TapedModel(m, tape)
        y = tape.leaf(y0)
        tape.backward(dg.pick(md.grad_sc_score(tm, y), 0))
        want = np.array(
            [
                (grad0(y0 + FD_STEP * e) - grad0(y0 - FD_STEP * e)) / (2 * FD_STEP)
                for e in np.eye(4)
            ]
        )
        assert np.abs(want).max() > 1e-4
        np.testing.assert_allclose(y.adjoint, want, rtol=FD_TOL, atol=FD_TOL)


def composed_grad_sc_score(tm, y):
    """The bucket-score gradient as a graph of diffgraph ops, bucket by bucket.

    Reference for the fused node: one sum, one shifted sigmoid per
    indicator, and one product chain per bucket, added left to right.
    """
    w = tm.vars["sc.weights"]
    z = tm.config.max_cardinality
    total = dg.vsum(y)
    ind = [dg.sigmoid(dg.shift(total, -float(k))) for k in range(1, z + 2)]
    slope = None
    for k in range(1, z + 1):
        ik, ik1 = ind[k - 1], ind[k]
        dik = dg.mul(ik, dg.shift(dg.scale(ik, -1.0), 1.0))
        dik1 = dg.mul(ik1, dg.shift(dg.scale(ik1, -1.0), 1.0))
        term = dg.mul(
            dg.pick(w, k - 1),
            dg.sub(dg.mul(dik, dg.shift(dg.scale(ik1, -1.0), 1.0)), dg.mul(ik, dik1)),
        )
        slope = term if slope is None else dg.add(slope, term)
    ones = dg.Var(y.tape, np.ones(len(y)))
    return dg.mul(ones, slope)


class TestFusedScGradNode:
    @staticmethod
    def _sweep(grad_fn, model, y0, seed):
        # y and the weights also feed nodes before and after the gradient
        # node, so the adjoints it adds land between other contributions
        rng = np.random.default_rng(seed)
        tape = dg.Tape()
        tm = md.TapedModel(model, tape)
        y = tape.leaf(y0)
        w = tm.vars["sc.weights"]
        before = dg.add(dg.mul(y, y), dg.scale(y, 0.5))
        grad = grad_fn(tm, y)
        after = dg.mul(dg.add(grad, before), y)
        loss = dg.add(
            dg.dot(after, dg.Var(tape, rng.normal(size=len(y)))),
            dg.mul(dg.vsum(w), dg.vsum(y)),
        )
        tape.backward(loss)
        return grad.value, y.adjoint, w.adjoint

    @pytest.mark.parametrize(
        "labels, z", [(1, 1), (3, 1), (3, 3), (5, 3), (10, 10), (14, 10), (30, 30), (40, 30)]
    )
    def test_value_and_adjoints_bit_identical_to_composed_graph(self, labels, z):
        m = md.ScoreModel(small_config(input_dim=2, label_count=labels, max_cardinality=z))
        rng = np.random.default_rng(labels * 100 + z)
        # sums at a bucket, between two buckets, and far outside all of them
        sums = [0.0, 1.0, z / 2.0, z / 2.0 + 0.5, z - 0.25, z + 1.0, -40.0,
                z + 40.0, -1000.0, z + 1000.0]
        for case, total in enumerate(sums):
            m.params["sc.weights"][:] = 0.0 if case == 0 else rng.normal(0, 2, z)
            shares = rng.uniform(0.1, 1.0, labels)
            y0 = shares / shares.sum() * total
            want = self._sweep(composed_grad_sc_score, m, y0, case)
            got = self._sweep(md.grad_sc_score, m, y0, case)
            for name, a, b in zip(("value", "y adjoint", "weight adjoint"), want, got):
                assert np.all(np.isfinite(b)), f"sum {total}: {name} not finite"
                assert np.array_equal(a, b), f"sum {total}: {name} differs"

    def test_records_exactly_one_node(self):
        m = md.ScoreModel(small_config(label_count=12, max_cardinality=10))
        tape = dg.Tape()
        tm = md.TapedModel(m, tape)
        y = tape.leaf(np.full(12, 0.4))
        before = len(tape)
        md.grad_sc_score(tm, y)
        assert len(tape) == before + 1


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        m = md.ScoreModel(small_config(seed=9))
        m.params["sc.weights"][:] = [1.0, 2.0, 3.0]
        path = tmp_path / "model.npz"
        md.save_model(m, path)
        loaded = md.load_model(path)
        assert loaded.config == m.config
        assert set(loaded.params) == set(m.params)
        for name in m.params:
            np.testing.assert_array_equal(loaded.params[name], m.params[name])

    def test_loaded_model_reproduces_forward_pass(self, tmp_path):
        m = md.ScoreModel(small_config(seed=10))
        path = tmp_path / "model.npz"
        md.save_model(m, path)
        loaded = md.load_model(path)
        c1 = md.unary_scores(md.TapedModel(m, dg.Tape()), [0, 2], [1.0, 2.0])
        c2 = md.unary_scores(md.TapedModel(loaded, dg.Tape()), [0, 2], [1.0, 2.0])
        np.testing.assert_array_equal(c1.value, c2.value)

    def test_load_draws_no_initialization(self, tmp_path, monkeypatch):
        # buffer shapes come from the config, not from a fresh random model
        m = md.ScoreModel(small_config(seed=4))
        path = tmp_path / "model.npz"
        md.save_model(m, path)
        monkeypatch.setattr(np.random, "default_rng", None)
        loaded = md.load_model(path)
        for name in m.params:
            np.testing.assert_array_equal(loaded.params[name], m.params[name])

    def test_former_global_biases_are_ignored(self, tmp_path):
        # checkpoints written while the global potential had biases hold
        # global.b1 and global.b2 as well; they load as the same model
        m = md.ScoreModel(small_config(seed=6))
        path = tmp_path / "model.npz"
        md.save_model(m, path)
        data = dict(np.load(path, allow_pickle=False))
        data["global.b1"] = np.zeros(m.config.global_hidden)
        data["global.b2"] = np.zeros(())
        np.savez(path, **data)
        loaded = md.load_model(path)
        assert loaded.config == m.config
        assert list(loaded.params) == list(m.params)
        for name in m.params:
            assert np.array_equal(loaded.params[name], m.params[name])

    def test_rejects_archive_without_metadata(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError, match="checkpoint"):
            md.load_model(path)

    def test_rejects_unknown_format(self, tmp_path):
        m = md.ScoreModel(small_config())
        path = tmp_path / "model.npz"
        md.save_model(m, path)
        data = dict(np.load(path, allow_pickle=False))
        data["__meta__"] = np.array(
            str(data["__meta__"]).replace("checkpoint-v1", "checkpoint-v9")
        )
        np.savez(path, **data)
        with pytest.raises(ValueError, match="format"):
            md.load_model(path)

    def test_rejects_object_array(self, tmp_path):
        # a pickled buffer is never unpickled: its member is refused as it is
        m = md.ScoreModel(small_config())
        path = tmp_path / "model.npz"
        md.save_model(m, path)
        data = dict(np.load(path, allow_pickle=False))
        data["unary.b"] = np.array([0.0, None], dtype=object)
        np.savez(path, **data)
        with pytest.raises(ValueError, match="^checkpoint .*: Object arrays cannot be "
                                             "loaded when allow_pickle=False$"):
            md.load_model(path)

    def test_rejects_shape_mismatch(self, tmp_path):
        m = md.ScoreModel(small_config())
        path = tmp_path / "model.npz"
        md.save_model(m, path)
        data = dict(np.load(path, allow_pickle=False))
        data["unary.b"] = np.zeros(7)
        np.savez(path, **data)
        with pytest.raises(ValueError, match="shape"):
            md.load_model(path)

    # buffers np.savez writes in another layout than save_model's are parsed
    # by numpy's reader and loaded as float64 values

    @pytest.mark.parametrize("layout", [
        lambda buf: buf.astype(np.float32),
        np.asfortranarray,
    ], ids=["float32", "fortran-order"])
    def test_loads_a_buffer_in_another_layout(self, tmp_path, layout):
        m = md.ScoreModel(small_config(seed=3))
        path = tmp_path / "model.npz"
        md.save_model(m, path)
        data = dict(np.load(path, allow_pickle=False))
        data["unary.w"] = layout(data["unary.w"])
        np.savez(path, **data)
        loaded = md.load_model(path)
        assert loaded.params["unary.w"].dtype == np.float64
        np.testing.assert_array_equal(loaded.params["unary.w"],
                                      data["unary.w"].astype(np.float64))
        for name in set(m.params) - {"unary.w"}:
            assert_bits([loaded.params[name]], [m.params[name]])

    def test_shape_mismatch_message(self, tmp_path):
        # the same number of values in the transposed shape: a byte count
        # alone would take it for the (4, 3) buffer
        m = md.ScoreModel(small_config())
        path = tmp_path / "model.npz"
        md.save_model(m, path)
        data = dict(np.load(path, allow_pickle=False))
        data["unary.w"] = np.zeros((3, 4))
        np.savez(path, **data)
        with pytest.raises(ValueError, match=r"^checkpoint .*: buffer unary\.w has shape "
                                             r"\(3, 4\), expected \(4, 3\)$"):
            md.load_model(path)

    def test_truncated_member_message(self, tmp_path):
        m = md.ScoreModel(small_config())
        whole, path = tmp_path / "whole.npz", tmp_path / "model.npz"
        md.save_model(m, whole)
        with zipfile.ZipFile(whole) as src, zipfile.ZipFile(path, "w") as dst:
            for name in src.namelist():
                raw = src.read(name)
                dst.writestr(name, raw[:-8] if name == "unary.w.npy" else raw)
        with pytest.raises(ValueError, match="^checkpoint .*: EOF: reading array data, "
                                             "expected 96 bytes got 88$"):
            md.load_model(path)

    def test_only_the_metadata_is_parsed_by_numpy(self, tmp_path, monkeypatch):
        # a buffer save_model wrote is copied from its bytes; a numpy whose
        # headers differ from the ones load_model builds fails here
        path = tmp_path / "model.npz"
        md.save_model(md.ScoreModel(small_config()), path)
        parsed = []
        original = np.lib.format.read_array

        def counted(fp, *args, **kwargs):
            array = original(fp, *args, **kwargs)
            parsed.append(array.dtype.kind)
            return array

        monkeypatch.setattr(np.lib.format, "read_array", counted)
        md.load_model(path)
        assert parsed == ["U"]


# finite float64 values, with signed zeros, subnormals and huge magnitudes
BUFFER_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300])


@st.composite
def saved_models(draw):
    sizes = st.integers(1, 4)
    labels = draw(sizes)
    config = md.ModelConfig(
        input_dim=draw(sizes), label_count=labels, max_cardinality=draw(st.integers(1, labels)),
        feature_hidden=draw(sizes), feature_dim=draw(sizes), global_hidden=draw(sizes),
        cardinality_hidden=draw(sizes), with_sc=draw(st.booleans()))
    return md.ScoreModel(config, {
        name: draw(hnp.arrays(np.float64, shape, elements=BUFFER_VALUES))
        for name, (shape, _) in md._param_shapes(config).items()
    })


class TestCheckpointBytes:
    """Buffers copied straight from the archive's bytes are np.load's buffers."""

    @settings(max_examples=60, deadline=None)
    @given(model=saved_models())
    def test_buffers_match_np_load(self, model):
        raws, parsed = [], []
        read, parse = zipfile.ZipFile.read, np.lib.format.read_array

        def kept(archive, name, pwd=None):
            raws.append(read(archive, name, pwd))
            return raws[-1]

        def counted(*args, **kwargs):
            parsed.append(args)
            return parse(*args, **kwargs)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.npz"
            md.save_model(model, path)
            with mock.patch.object(zipfile.ZipFile, "read", kept), \
                    mock.patch.object(np.lib.format, "read_array", counted):
                loaded = md.load_model(path)
            with np.load(path, allow_pickle=False) as saved:
                want = {name: saved[name] for name in model.params}
        assert len(parsed) == 1  # the metadata; every buffer took the byte path
        assert list(loaded.params) == list(model.params)
        for name, buf in loaded.params.items():
            assert buf.dtype == np.float64 and buf.shape == want[name].shape
            assert buf.tobytes() == want[name].tobytes()
            assert buf.flags.writeable and buf.flags.c_contiguous and buf.flags.owndata
            assert not any(np.shares_memory(buf, np.frombuffer(raw, np.uint8)) for raw in raws)


class TestTapedModel:
    def test_grads_cover_every_buffer(self):
        m = md.ScoreModel(small_config(seed=1))
        tape = dg.Tape()
        tm = md.TapedModel(m, tape)
        y = tape.leaf([0.3, 0.8, 0.1, 0.6])
        total = dg.add(
            dg.add(
                dg.vsum(md.unary_scores(tm, [0, 1], [1.0, 1.0])),
                oracles.global_score(tm, y),
            ),
            dg.add(
                oracles.sc_cardinality_score(tm, y),
                md.predict_cardinality(tm, [0, 1], [1.0, 1.0], mode="expected"),
            ),
        )
        tape.backward(total)
        grads = tm.grads()
        assert set(grads) == set(m.params)
        for name, g in grads.items():
            assert g.shape == m.params[name].shape
            assert np.all(np.isfinite(g))

    def test_binding_shares_buffers(self):
        m = md.ScoreModel(small_config())
        tm = md.TapedModel(m, dg.Tape())
        for name, buf in m.params.items():
            assert tm.vars[name].value is buf

    def test_grads_are_the_adjoints_with_zeros_where_none_arrived(self):
        m = md.ScoreModel(small_config(seed=2))
        tape = dg.Tape()
        tm = md.TapedModel(m, tape)
        tape.backward(dg.vsum(md.unary_scores(tm, [0, 3], [1.0, 0.5])))
        grads = tm.grads()
        assert grads["unary.w"] is tm.vars["unary.w"].adjoint
        for name in ("global.w1", "global.w2", "cardinality.w2", "sc.weights"):
            assert grads[name].shape == m.params[name].shape
            assert not grads[name].any()
