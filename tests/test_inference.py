"""Trajectory semantics, worked decoding examples, and end-to-end gradients.

The unrolled variants are checked three ways: worked values on hand-built
models (zeroed weights with planted unary biases), invariants over seeded
random models (feasibility, monotone score, determinism, variant
equivalence), and finite differences of a trajectory loss with respect to
every parameter buffer, straight through the unrolled graph.
"""

import itertools

import numpy as np
import pytest

from cardproj import diffgraph as dg
from cardproj import inference as inf
from cardproj import model as md
from cardproj.projections import InfeasibleSpecError

import oracles
from test_diffgraph import assert_bits

FD_STEP = 1e-5


def tiny_config(L=5, D=4, Z=4, seed=0, with_sc=True):
    return md.ModelConfig(
        input_dim=D,
        label_count=L,
        max_cardinality=Z,
        feature_hidden=3,
        feature_dim=3,
        global_hidden=4,
        cardinality_hidden=3,
        with_sc=with_sc,
        seed=seed,
    )


def bias_model(unary_bias, **cfg_kw):
    """All-zero model except a planted unary bias, so c is exactly the bias
    and the global potential vanishes."""
    unary_bias = np.asarray(unary_bias, dtype=np.float64)
    cfg = tiny_config(L=unary_bias.size, Z=min(unary_bias.size, 4), **cfg_kw)
    m = md.ScoreModel(cfg)
    for buf in m.params.values():
        buf[...] = 0.0
    m.params["unary.b"][:] = unary_bias
    return m


def run(m, icfg, idx=(0,), vals=(1.0,)):
    tm = md.TapedModel(m, dg.Tape())
    return inf.run_inference(tm, list(idx), list(vals), icfg)


class TestInferenceConfig:
    def test_defaults_are_valid(self):
        cfg = inf.InferenceConfig()
        assert cfg.variant == "pc" and cfg.steps == 10

    def test_zero_steps_allowed(self):
        assert inf.InferenceConfig(steps=0).steps == 0

    @pytest.mark.parametrize(
        "kw",
        [
            dict(steps=-1),
            dict(step_size=0.0),
            dict(momentum=1.0),
            dict(momentum=-0.1),
            dict(proj_rounds=0),
            dict(variant="exact"),
            dict(z_source="three"),
            dict(z_mode="modal"),
            dict(projection="hard"),
            dict(decode="round"),
            dict(sharpness=0.0),
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            inf.InferenceConfig(**kw)


class TestInitLabels:
    def test_zero_scores_start_at_half(self):
        tape = dg.Tape()
        y0 = inf.init_labels(tape.leaf(np.zeros(4)))
        np.testing.assert_array_equal(y0.value, np.full(4, 0.5))

    def test_log_three_gives_three_quarters(self):
        tape = dg.Tape()
        y0 = inf.init_labels(tape.leaf([np.log(3.0)]))
        np.testing.assert_allclose(y0.value, [0.75], atol=1e-15)

    def test_large_scores_saturate_at_one(self):
        tape = dg.Tape()
        y0 = inf.init_labels(tape.leaf([1000.0, -1000.0]))
        np.testing.assert_array_equal(y0.value, [1.0, 0.0])


class TestExactTopz:
    def test_worked_example(self):
        np.testing.assert_array_equal(inf.exact_topz([3.0, 1.0, 2.0], 2), [1, 0, 1])

    def test_zero_budget_gives_all_zeros(self):
        np.testing.assert_array_equal(inf.exact_topz([3.0, 1.0, 2.0], 0), [0, 0, 0])

    def test_full_budget_gives_all_ones(self):
        np.testing.assert_array_equal(inf.exact_topz([3.0, 1.0, 2.0], 3), [1, 1, 1])

    def test_ties_break_toward_lower_index(self):
        np.testing.assert_array_equal(inf.exact_topz([1.0, 1.0, 0.0], 1), [1, 0, 0])

    # a fixed budget is checked where it enters, in run_inference, once
    # rounded; a predicted one rounds into [0, L] and is not checked
    @pytest.mark.parametrize("z", [-1, 4])
    def test_rejects_out_of_range_budgets(self, z):
        m = bias_model([3.0, 1.0, 2.0])
        with pytest.raises(InfeasibleSpecError) as err:
            run(m, inf.InferenceConfig(variant="topz", z_source=z + 0.4))
        assert str(err.value) == f"mass budget {float(z)} outside [0, 3]"

    @pytest.mark.parametrize("z, want", [(-0.4, [0, 0, 0]), (3.4, [1, 1, 1])])
    def test_accepts_budgets_that_round_into_range(self, z, want):
        m = bias_model([3.0, 1.0, 2.0])
        traj = run(m, inf.InferenceConfig(variant="topz", z_source=z))
        np.testing.assert_array_equal(traj.final_values(), want)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            c = rng.normal(0, 1, 10)
            z = int(rng.integers(0, 11))
            got = inf.exact_topz(c, z)
            best = max(
                itertools.combinations(range(10), z),
                key=lambda s: sum(c[i] for i in s),
                default=(),
            )
            want = np.zeros(10)
            want[list(best)] = 1.0
            assert c[got.astype(bool)].sum() == pytest.approx(
                c[want.astype(bool)].sum(), abs=1e-12
            )


class TestDecodeLabels:
    def test_threshold_at_half_inclusive(self):
        out = inf.decode_labels([0.49, 0.5, 0.91], "threshold")
        np.testing.assert_array_equal(out, [0, 1, 1])

    def test_topz_decoding(self):
        out = inf.decode_labels([0.2, 0.9, 0.4], "topz", z=2.4)
        np.testing.assert_array_equal(out, [0, 1, 1])


class TestTrajectoryShapes:
    @pytest.mark.parametrize("variant", ["pc", "sc"])
    def test_records_initial_state_plus_one_per_step(self, variant):
        m = md.ScoreModel(tiny_config(seed=1))
        icfg = inf.InferenceConfig(variant=variant, steps=4, z_source=2.0)
        traj = run(m, icfg)
        assert len(traj.states) == 5
        assert all(len(s) == 5 for s in traj.states)

    @pytest.mark.parametrize("variant", ["pc", "sc"])
    def test_zero_steps_returns_initial_labels_only(self, variant):
        m = md.ScoreModel(tiny_config(seed=1))
        icfg = inf.InferenceConfig(variant=variant, steps=0, z_source=2.0)
        traj = run(m, icfg)
        tm = md.TapedModel(m, dg.Tape())
        y0 = inf.init_labels(md.unary_scores(tm, [0], [1.0]))
        assert len(traj.states) == 1
        np.testing.assert_array_equal(traj.final_values(), y0.value)

    def test_topz_variant_returns_binary_decode(self):
        m = bias_model([3.0, 1.0, 2.0])
        icfg = inf.InferenceConfig(variant="topz", z_source=2.0)
        traj = run(m, icfg)
        assert len(traj.states) == 1
        assert traj.z_used == 2.0
        np.testing.assert_array_equal(traj.final_values(), [1, 0, 1])

    @pytest.mark.parametrize("icfg", [
        inf.InferenceConfig(variant="pc", steps=1),
        inf.InferenceConfig(variant="pc", steps=1, z_mode="argmax"),
        inf.InferenceConfig(variant="pc", steps=1, z_source=2.0),
        inf.InferenceConfig(variant="topz"),
    ], ids=["expected", "argmax", "fixed", "topz"])
    def test_budget_is_one_float_array_per_row(self, icfg):
        # 0-d for one example, one value per row for a batch
        m = md.ScoreModel(tiny_config(seed=1))
        one = run(m, icfg)
        assert isinstance(one.z_used, np.ndarray)
        assert one.z_used.shape == () and one.z_used.dtype == np.float64
        tm = md.TapedModel(m, dg.Tape())
        batch = inf.run_inference(tm, [0, 1, 2], [1.0, 0.5, 1.0], icfg, indptr=[0, 1, 3])
        assert batch.z_used.shape == (2,) and batch.z_used.dtype == np.float64

    def test_budget_variants_record_z_while_free_variants_do_not(self):
        m = md.ScoreModel(tiny_config(seed=1))
        pc = run(m, inf.InferenceConfig(variant="pc", steps=1, z_source=2.0))
        sc = run(m, inf.InferenceConfig(variant="sc", steps=1))
        assert pc.z_used == 2.0
        assert sc.z_used is None


class TestCardinalityHead:
    """Every run computes the head once and returns its logits."""

    @pytest.mark.parametrize("batch", [False, True], ids=["example", "batch"])
    @pytest.mark.parametrize("z_source", ["predictor", 2.0])
    @pytest.mark.parametrize("variant", ["pc", "sc", "topz"])
    def test_run_inference_runs_the_head_once(self, variant, z_source, batch, monkeypatch):
        m = md.ScoreModel(tiny_config(seed=2))
        outputs = []
        original = md.cardinality_logits

        def counted(*args, **kwargs):
            outputs.append(original(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(md, "cardinality_logits", counted)
        tm = md.TapedModel(m, dg.Tape())
        icfg = inf.InferenceConfig(variant=variant, steps=2, z_source=z_source)
        if batch:
            traj = inf.run_inference(tm, [0, 2, 1], [1.0, -0.5, 2.0], icfg,
                                     indptr=np.array([0, 2, 3]))
        else:
            traj = inf.run_inference(tm, [0, 2], [1.0, -0.5], icfg)
        assert len(outputs) == 1
        assert traj.cardinality_logits is outputs[0]
        assert traj.cardinality_logits.shape == ((2, 5) if batch else (5,))


class TestUnrolledPgd:
    def test_single_big_step_concentrates_on_top_two_exact(self):
        # one huge step with the budget at two: the exact projection lands
        # on the top-2 vertex, matching the sort-based decoder
        m = bias_model([3.0, 1.0, 2.0])
        icfg = inf.InferenceConfig(
            variant="pc", steps=1, step_size=50.0, z_source=2.0, projection="exact"
        )
        y1 = run(m, icfg).final_values()
        np.testing.assert_allclose(y1, inf.exact_topz([3.0, 1.0, 2.0], 2), atol=1e-9)

    def test_single_step_ordering_soft(self):
        # soft projection blurs hard at very large steps, so the ordering
        # check runs at a moderate one
        m = bias_model([3.0, 1.0, 2.0])
        icfg = inf.InferenceConfig(variant="pc", steps=1, step_size=0.5, z_source=2.0)
        y1 = run(m, icfg).final_values()
        assert y1[0] > y1[1] and y1[2] > y1[1]

    @pytest.mark.parametrize("z", [-1.0, 7.0])
    def test_infeasible_fixed_budget_rejected(self, z):
        m = md.ScoreModel(tiny_config(seed=1))
        with pytest.raises(InfeasibleSpecError):
            run(m, inf.InferenceConfig(variant="pc", steps=1, z_source=z))

    def test_expected_budget_is_clamped_away_from_zero(self):
        m = md.ScoreModel(tiny_config(seed=1))
        for buf in m.params.values():
            buf[...] = 0.0
        m.params["cardinality.b2"][0] = 50.0
        traj = run(m, inf.InferenceConfig(variant="pc", steps=2))
        assert traj.z_used == pytest.approx(inf.MIN_BUDGET)

    def test_argmax_zero_budget_collapses_states_to_origin(self):
        m = md.ScoreModel(tiny_config(seed=1))
        for buf in m.params.values():
            buf[...] = 0.0
        m.params["cardinality.b2"][0] = 50.0
        traj = run(m, inf.InferenceConfig(variant="pc", steps=2, z_mode="argmax"))
        assert traj.z_used == 0.0
        for state in traj.states[1:]:
            np.testing.assert_array_equal(state.value, np.zeros(5))

    # head logits, found by random search, whose expected count over sizes
    # 0..10 rounds to 10.000000000000002
    ABOVE_L_LOGITS = [
        -17.520925154662006, -13.808584980385826, -12.591874063797363,
        -11.155018104635086, -46.79530206577194, -7.16416854808167,
        -5.966656553734302, -24.984670599697598, -6.755226131363006,
        -2.8694906109453626, 32.90212898995094,
    ]

    @pytest.mark.parametrize("projection", ["soft", "exact"])
    def test_predicted_budget_a_rounding_step_above_label_count(self, projection):
        # with max_cardinality == label_count, a predicted budget may exceed
        # the label count by rounding; it projects like a budget of L
        m = md.ScoreModel(tiny_config(L=10, Z=10, seed=2))
        for name in ("cardinality.w1", "cardinality.b1", "cardinality.w2"):
            m.params[name][...] = 0.0
        m.params["cardinality.b2"][:] = self.ABOVE_L_LOGITS
        traj = run(m, inf.InferenceConfig(variant="pc", steps=2, projection=projection))
        assert traj.z_used > 10.0
        for state in traj.states:
            assert np.isfinite(state.value).all()
        decoded = inf.decode_labels(traj.final_values(), "topz", traj.z_used)
        np.testing.assert_array_equal(decoded, np.ones(10))
        topz = run(m, inf.InferenceConfig(variant="topz"))
        np.testing.assert_array_equal(topz.final_values(), np.ones(10))

    def test_feasibility_in_calibrated_regime(self):
        # projected states must track the budget: |sum - z| < 0.05 and no
        # coordinate outside [-0.02, 1.02].  Holds at default sharpness and
        # two rounds for plain projected ascent whose starting point is
        # budget-consistent (a trained model's regime); measured worst over
        # these 40 seeds: sum 0.035, box 0.018.
        L, z = 6, 2.0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            cfg = md.ModelConfig(
                input_dim=8, label_count=L, max_cardinality=5,
                feature_hidden=6, feature_dim=4, global_hidden=6,
                cardinality_hidden=5, with_sc=True, seed=seed,
            )
            m = md.ScoreModel(cfg)
            m.params["unary.b"][:] = np.log(z / (L - z)) + rng.normal(0, 0.3, L)
            m.params["unary.w"][:] *= 0.3
            icfg = inf.InferenceConfig(
                variant="pc", steps=10, step_size=0.1, momentum=0.0, z_source=z
            )
            tm = md.TapedModel(m, dg.Tape())
            idx = rng.choice(8, size=3, replace=False)
            traj = inf.run_inference(tm, idx, rng.normal(0, 1, 3), icfg)
            for state in traj.states[1:]:
                v = state.value
                assert abs(v.sum() - z) < 0.05
                assert v.min() > -0.02 and v.max() < 1.02

    def test_feasibility_envelope_at_full_defaults(self):
        # with momentum 0.9 the velocity is not projected, so late trial
        # points drift far from the feasible set and two soft rounds leave
        # a visible box excursion.  Measured worst over these seeds:
        # sum 0.046, box 0.167 (L=6); the sum tolerance still holds.
        for L in (6, 12):
            for seed in range(25):
                rng = np.random.default_rng(seed)
                cfg = md.ModelConfig(
                    input_dim=8, label_count=L, max_cardinality=5,
                    feature_hidden=6, feature_dim=4, global_hidden=6,
                    cardinality_hidden=5, with_sc=True, seed=seed,
                )
                m = md.ScoreModel(cfg)
                icfg = inf.InferenceConfig(variant="pc", steps=10)
                tm = md.TapedModel(m, dg.Tape())
                idx = rng.choice(8, size=3, replace=False)
                traj = inf.run_inference(tm, idx, rng.normal(0, 1, 3), icfg)
                for state in traj.states[1:]:
                    v = state.value
                    assert abs(v.sum() - traj.z_used) < 0.05
                    assert v.min() > -0.02 and v.max() < 1.25

    def test_exact_replay_is_feasible_to_machine_precision(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            m = md.ScoreModel(tiny_config(seed=seed))
            icfg = inf.InferenceConfig(variant="pc", steps=10, projection="exact")
            tm = md.TapedModel(m, dg.Tape())
            idx = rng.choice(4, size=2, replace=False)
            traj = inf.run_inference(tm, idx, rng.normal(0, 1, 2), icfg)
            for state in traj.states[1:]:
                v = state.value
                assert abs(v.sum() - traj.z_used) < 1e-6
                assert v.min() > -1e-6 and v.max() < 1.0 + 1e-6

    def test_score_monotone_under_small_exact_steps(self):
        # projected ascent with a tiny step cannot decrease the objective
        for seed in range(10):
            rng = np.random.default_rng(seed)
            m = md.ScoreModel(tiny_config(seed=seed))
            icfg = inf.InferenceConfig(
                variant="pc",
                steps=20,
                step_size=1e-3,
                momentum=0.0,
                z_source=2.0,
                projection="exact",
            )
            tape = dg.Tape()
            tm = md.TapedModel(m, tape)
            idx = rng.choice(4, size=2, replace=False)
            vals = rng.normal(0, 1, 2)
            traj = inf.run_inference(tm, idx, vals, icfg)
            c = md.unary_scores(tm, idx, vals)
            scores = [
                float(np.dot(c.value, y.value)) + float(oracles.global_score(tm, y).value)
                for y in traj.states[1:]
            ]
            for earlier, later in zip(scores, scores[1:]):
                assert later >= earlier - 1e-6

    def test_threshold_decode_matches_topz_for_linear_scores(self):
        # with the global potential zeroed the score is linear, so enough
        # exact-projection steps land on the top-z vertex
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 20:
            c = rng.normal(0, 1, 8)
            gaps = np.abs(np.subtract.outer(c, c))[~np.eye(8, dtype=bool)]
            if gaps.min() < 1e-2:
                continue
            m = bias_model(c)
            icfg = inf.InferenceConfig(
                variant="pc",
                steps=30,
                step_size=0.5,
                momentum=0.0,
                z_source=3.0,
                projection="exact",
            )
            decoded = inf.decode_labels(run(m, icfg).final_values(), "threshold")
            np.testing.assert_array_equal(decoded, inf.exact_topz(c, 3))
            checked += 1

    def test_trajectories_are_deterministic(self):
        m = md.ScoreModel(tiny_config(seed=7))
        icfg = inf.InferenceConfig(variant="pc", steps=5)
        a = run(m, icfg, idx=[0, 2], vals=[1.0, -0.5])
        b = run(m, icfg, idx=[0, 2], vals=[1.0, -0.5])
        assert a.z_used == b.z_used
        for sa, sb in zip(a.states, b.states):
            np.testing.assert_array_equal(sa.value, sb.value)


class TestUnrolledSc:
    def test_zero_bucket_weights_reduce_to_clipped_ascent(self):
        m = md.ScoreModel(tiny_config(seed=2))
        m.params["sc.weights"][:] = 0.0
        icfg = inf.InferenceConfig(variant="sc", steps=6, step_size=0.4)
        traj = run(m, icfg, idx=[0, 3], vals=[1.0, 2.0])

        # reference: same ascent with the projection replaced by a [0, 1] clip
        tape = dg.Tape()
        tm = md.TapedModel(m, tape)
        c = md.unary_scores(tm, [0, 3], [1.0, 2.0])
        y = inf.init_labels(c)
        want = [y.value.copy()]
        velocity = None
        for _ in range(6):
            grad = dg.add(c, md.grad_global_score(tm, y))
            velocity = (
                grad if velocity is None else dg.add(dg.scale(velocity, 0.9), grad)
            )
            y = dg.clip(dg.add(y, dg.scale(velocity, 0.4)), 0.0, 1.0)
            want.append(y.value.copy())
        for got, ref in zip(traj.states, want):
            np.testing.assert_array_equal(got.value, ref)

    def test_states_stay_exactly_inside_unit_box(self):
        m = md.ScoreModel(tiny_config(seed=9))
        m.params["sc.weights"][:] = [2.0, -1.0, 3.0, 0.5]
        icfg = inf.InferenceConfig(variant="sc", steps=8, step_size=5.0)
        traj = run(m, icfg, idx=[1], vals=[2.0])
        for state in traj.states[1:]:
            assert state.value.min() >= 0.0 and state.value.max() <= 1.0


class TestFusedStepNodes:
    """One ascent step's velocity and trial nodes against the composed adds
    and scales they replace."""

    @staticmethod
    def _sweep(velocity_fn, trial_fn, arrays, momentum, first, with_sc, seed):
        # every input also feeds a node before the step and the velocity one
        # after it, as the next step's velocity does
        rng = np.random.default_rng(seed)
        tape = dg.Tape()
        c, grad, sc_grad, previous, y = (tape.leaf(a) for a in arrays)
        before = dg.mul(dg.add(c, previous), dg.add(y, dg.scale(sc_grad, 0.5)))
        velocity = velocity_fn(c, [grad, sc_grad] if with_sc else [grad],
                               None if first else previous, momentum)
        trial = trial_fn(y, velocity, 0.3)
        readout = dg.Var(tape, rng.choice([0.0, -0.0, 1.0, -2.0], size=y.shape))
        after = dg.add(dg.mul(dg.relu(trial), readout),
                       dg.mul(dg.scale(velocity, 0.7), dg.add(y, grad)))
        root = dg.add(after, before)
        while root.value.ndim:
            root = dg.vsum(root)
        tape.backward(root)
        return (velocity.value, trial.value, c.adjoint, grad.adjoint, sc_grad.adjoint,
                previous.adjoint, y.adjoint)

    @pytest.mark.parametrize("rows", [(), (1,), (5,)])
    def test_bit_identical_to_composed_step(self, rows):
        rng = np.random.default_rng(sum(rows))
        pool = np.array([0.0, -0.0, 0.25, -1.5, 3.0, 1e-300])
        for case, (momentum, first, with_sc) in enumerate(
                itertools.product([0.9, 0.0], [True, False], [False, True])):
            arrays = [rng.choice(pool, size=rows + (6,)) for _ in range(5)]
            assert_bits(
                self._sweep(inf._velocity, inf._trial, arrays, momentum, first, with_sc, case),
                self._sweep(oracles.velocity, oracles.trial, arrays, momentum, first, with_sc,
                            case))

    @pytest.mark.parametrize("first", [True, False])
    def test_records_one_node_each(self, first):
        tape = dg.Tape()
        c, grad, previous, y = (tape.leaf(np.full((2, 3), 0.5)) for _ in range(4))
        before = len(tape)
        inf._trial(y, inf._velocity(c, [grad], None if first else previous, 0.9), 0.1)
        assert len(tape) == before + 2


class TestGradientsThroughUnroll:
    """Finite differences of a trajectory loss through the whole unroll.

    Loss = w . y_T for a fixed random w; every parameter buffer of the
    model is perturbed coordinate by coordinate and the full forward pass
    is rebuilt.  Measured worst relative error is below 1e-8 for all
    variants and for the exact replay at this seed; the contract bound is
    1e-3.
    """

    @staticmethod
    def _forward(m, idx, vals, icfg, w_loss):
        tape = dg.Tape()
        tm = md.TapedModel(m, tape)
        traj = inf.run_inference(tm, idx, vals, icfg)
        loss = dg.dot(dg.Var(tape, w_loss), traj.final())
        return tape, tm, loss

    @pytest.mark.parametrize(
        "variant, projection",
        [("pc", "soft"), ("sc", "soft"), ("pc", "exact")],
        ids=["pc", "sc", "pc-exact"],
    )
    def test_full_unroll_matches_fd(self, variant, projection):
        m = md.ScoreModel(tiny_config(seed=0))
        rng = np.random.default_rng(0)
        idx = np.array([0, 2, 3])
        vals = rng.normal(0, 1.0, 3)
        w_loss = np.random.default_rng(1234).normal(0, 1, 5)
        kw = dict(variant=variant, steps=3, step_size=0.1, momentum=0.9,
                  projection=projection)
        if variant == "pc":
            kw.update(z_source="predictor", z_mode="expected")
        icfg = inf.InferenceConfig(**kw)

        tape, tm, loss = self._forward(m, idx, vals, icfg, w_loss)
        tape.backward(loss)
        grads = tm.grads()

        nontrivial = 0
        for name, buf in m.params.items():
            fd = np.zeros_like(buf)
            it = np.nditer(buf, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                saved = buf[i]
                buf[i] = saved + FD_STEP
                up = float(self._forward(m, idx, vals, icfg, w_loss)[2].value)
                buf[i] = saved - FD_STEP
                down = float(self._forward(m, idx, vals, icfg, w_loss)[2].value)
                buf[i] = saved
                fd[i] = (up - down) / (2 * FD_STEP)
            scale = max(float(np.abs(fd).max()), 1e-8)
            rel = float(np.abs(grads[name] - fd).max()) / scale
            assert rel < 1e-3, f"{variant}/{name}: rel err {rel}"
            if np.abs(fd).max() > 1e-6:
                nontrivial += 1
        assert nontrivial >= 6

    def test_budget_gradient_reaches_cardinality_head(self):
        # expected-mode budget: loss must be sensitive to the predictor
        m = md.ScoreModel(tiny_config(seed=0))
        icfg = inf.InferenceConfig(variant="pc", steps=3)
        tape = dg.Tape()
        tm = md.TapedModel(m, tape)
        traj = inf.run_inference(tm, [0, 2], [1.0, -0.5], icfg)
        tape.backward(dg.vsum(traj.final()))
        grads = tm.grads()
        assert np.abs(grads["cardinality.w2"]).max() > 1e-8
