"""Exact and soft projection operators, each checked against an independent route.

The closed-form capped projection is cross-checked against a long scalar
bisection on the mass function g(lam) = sum clamp(v - lam, 0, 1); the soft
operators are checked against their exact counterparts at high sharpness and
against finite differences for gradients.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardproj import diffgraph as dg
from cardproj import projections as pj
from cardproj.projections import InfeasibleSpecError

import oracles


def simplex_bisection_oracle(v, mass, iterations=200):
    """Independent simplex oracle: bisect theta until sum(max(v-theta,0)) = mass."""
    lo, hi = v.min() - mass, v.max()
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if np.maximum(v - mid, 0.0).sum() >= mass:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


class TestSimplexExact:
    def test_uniform_input_splits_evenly(self):
        out = pj.project_simplex_exact(np.array([0.5, 0.5, 0.5]), 1.0)
        np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_dominant_coordinate_takes_all(self):
        out = pj.project_simplex_exact(np.array([2.0, 1.0, 0.1]), 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-12)
        oracle = simplex_bisection_oracle(np.array([2.0, 1.0, 0.1]), 1.0)
        np.testing.assert_allclose(out, oracle, atol=1e-8)

    def test_feasible_point_is_fixed(self):
        out = pj.project_simplex_exact(np.array([0.7, 0.3]), 1.0)
        np.testing.assert_allclose(out, [0.7, 0.3], atol=1e-12)

    def test_matches_bisection_oracle_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            v = rng.standard_normal(rng.integers(2, 9)) * 2.0
            mass = float(rng.integers(1, v.size + 1))
            np.testing.assert_allclose(
                pj.project_simplex_exact(v, mass),
                simplex_bisection_oracle(v, mass),
                atol=1e-8,
            )

    @staticmethod
    def _rows(rng, n, L):
        scale = 10.0 ** rng.uniform(-6, 8)
        v = rng.standard_normal((n, L)) * scale
        if rng.random() < 0.5:
            # ties: a few distinct values, repeated along each row
            v = np.round(v / scale, 1) * scale
        return v

    @pytest.mark.parametrize("L", [1, 2, 3, 7, 30, 159, 983])
    def test_rows_match_one_vector_calls_bit_for_bit(self, L):
        rng = np.random.default_rng(L)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            v = self._rows(rng, n, L)
            masses = rng.choice([0.5, 1.0, float(L), 2.5 * L, 1e-3], size=n)
            out = pj.project_simplex_exact(v, masses)
            assert out.shape == v.shape
            for row, mass, got in zip(v, masses, out):
                want = pj.project_simplex_exact(row, mass)
                assert np.array_equal(got, want)
                assert np.array_equal(want, oracles.project_simplex_pivot(row, mass))

    def test_one_mass_serves_every_row(self):
        v = np.random.default_rng(3).standard_normal((4, 6))
        out = pj.project_simplex_exact(v, 2.0)
        for row, got in zip(v, out):
            assert np.array_equal(got, pj.project_simplex_exact(row, 2.0))

    def test_non_expansive(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            u = rng.standard_normal(6)
            v = rng.standard_normal(6)
            du = pj.project_simplex_exact(u, 2.0) - pj.project_simplex_exact(v, 2.0)
            assert np.linalg.norm(du) <= np.linalg.norm(u - v) + 1e-12


class TestCappedExact:
    def test_worked_example_with_pivot(self):
        v = np.array([1.5, 0.8, -0.2])
        out, lam = oracles.project_capped_pivot(v, 2.0)
        np.testing.assert_allclose(out, [1.0, 1.0, 0.0], atol=1e-12)
        assert abs(lam - (-0.2)) < 1e-12
        assert np.array_equal(pj.project_capped_exact(v, 2.0), out)

    def test_zero_mass_gives_zeros(self):
        out = pj.project_capped_exact(np.array([0.3, 0.3]), 0.0)
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_full_mass_gives_ones(self):
        out = pj.project_capped_exact(np.array([0.1, 0.2, 0.3]), 3.0)
        np.testing.assert_array_equal(out, [1.0, 1.0, 1.0])

    def test_infeasible_spec_rejected(self):
        with pytest.raises(InfeasibleSpecError, match=r"^mass budget 4.0 outside \[0, 3\]$"):
            pj.check_budget(4.0, 3)
        with pytest.raises(InfeasibleSpecError, match=r"^mass budget -0.5 outside \[0, 3\]$"):
            pj.check_budget(np.array([1.0, -0.5, 7.0]), 3)
        pj.check_budget(np.array([0.0, 1.5, 3.0]), 3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_mass_rejected_in_every_form(self, bad):
        # the check a fixed budget meets where it enters: one float, or one
        # mass per row
        for mass in (bad, np.array([1.0, bad])):
            with pytest.raises(InfeasibleSpecError, match=f"^mass budget {bad} outside"):
                pj.check_budget(mass, 3)

    def test_real_valued_mass_accepted(self):
        out = pj.project_capped_exact(np.array([0.9, 0.1, 0.0]), 1.5)
        assert abs(out.sum() - 1.5) < 1e-10

    def test_flat_segment_instance(self):
        # two coordinates pinned at one, the rest at zero; g is flat at the root
        v = np.array([5.0, 5.0, -5.0])
        out = pj.project_capped_exact(v, 2.0)
        np.testing.assert_allclose(out, [1.0, 1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("L", [1, 2, 30, 159, 983])
    def test_rows_match_one_vector_calls_bit_for_bit(self, L):
        rng = np.random.default_rng(L)
        rows = np.concatenate([
            rng.choice([-1.0, 1.0], (3, L)) * 10.0 ** rng.uniform(-6, 8, (3, L)),
            np.round(rng.uniform(-1.0, 2.0, (3, L)), 1),  # ties
            rng.normal(size=(3, L)),
        ])
        per_row = rng.uniform(0, L, len(rows))
        per_row[:2] = [0.0, L]
        for mass in (0.5 * L, per_row):
            got = pj.project_capped_exact(rows, mass)
            masses = np.broadcast_to(mass, len(rows))
            for row, m, y in zip(rows, masses, got):
                assert np.array_equal(y, pj.project_capped_exact(row, m))

    @staticmethod
    def _pivot_rows(rows, masses):
        masses = np.broadcast_to(masses, len(rows))
        return np.stack([oracles.project_capped_pivot(row, float(m))[0]
                         for row, m in zip(rows, masses)])

    @pytest.mark.parametrize("L", [1, 2, 3, 30, 159, 983])
    def test_rows_match_reference_pivot_bit_for_bit(self, L):
        # N(0,1), one-decimal ties, magnitudes 1e-6 to 1e8 and half-integers,
        # plus rows offset by 1e15, where rounding leaves the computed g off
        # monotone: budgets within 1e-9 of 0 and of L then make it cross the
        # budget more than once, or end the search below the lowest breakpoint
        rng = np.random.default_rng(L)
        rows = np.concatenate([
            rng.normal(size=(4, L)),
            np.round(rng.uniform(-1.0, 2.0, (4, L)), 1),  # ties
            rng.choice([-1.0, 1.0], (4, L)) * 10.0 ** rng.uniform(-6, 8, (4, L)),
            rng.integers(-4, 6, (4, L)) * 0.5,  # half-integers
            1e15 + 1e8 * rng.normal(size=(4, L)),
        ])
        n = len(rows)
        budgets = np.concatenate([
            [0.0, float(L)], rng.integers(0, L + 1, 6).astype(float),
            rng.uniform(0, L, 6), [1e-9 * L, L - 1e-9 * L] * 3,
        ])
        for mass in (rng.permutation(budgets)[:n], 0.5 * L, float(L // 2)):
            got = pj.project_capped_exact(rows, mass)
            want = self._pivot_rows(rows, mass)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_flat_pieces_in_a_batch_match_reference_pivot(self):
        # rows whose root lies on a flat piece of g (two coordinates pinned
        # at one, half-integers at integer budgets) among ordinary rows
        rng = np.random.default_rng(5)
        rows = np.concatenate([
            [[5.0, 5.0, -5.0, -5.0, -5.0, -5.0]],
            rng.integers(-4, 6, (5, 6)) * 0.5,
            rng.normal(size=(4, 6)),
            [[5.0, 5.0, -5.0, 0.5, -0.0, 0.0]],
        ])
        masses = np.array([2.0, 1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.5, 3.0, 4.5, 2.0])
        got = pj.project_capped_exact(rows, masses)
        assert np.array_equal(got, self._pivot_rows(rows, masses))
        np.testing.assert_array_equal(got[0], [1.0, 1.0, 0.0, 0.0, 0.0, 0.0])

    def test_feasibility_and_idempotence(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            L = int(rng.integers(2, 10))
            v = rng.standard_normal(L) * 2.0
            z = float(rng.integers(0, L + 1))
            u = pj.project_capped_exact(v, z)
            assert abs(u.sum() - z) < 1e-10
            assert u.min() >= -1e-12 and u.max() <= 1.0 + 1e-12
            np.testing.assert_allclose(
                pj.project_capped_exact(u, z), u, atol=1e-10
            )

    def test_non_expansive(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            u = rng.standard_normal(7) * 2.0
            v = rng.standard_normal(7) * 2.0
            du = pj.project_capped_exact(u, 3.0) - pj.project_capped_exact(v, 3.0)
            assert np.linalg.norm(du) <= np.linalg.norm(u - v) + 1e-12

    @given(
        st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=8),
        st.integers(0, 8),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_bisection_oracle_property(self, vals, z_raw, data):
        v = np.asarray(vals, dtype=np.float64)
        z = float(min(z_raw, v.size))
        np.testing.assert_allclose(
            pj.project_capped_exact(v, z),
            oracles.project_capped_bisection(v, z),
            atol=1e-8,
        )

    @pytest.mark.parametrize("L", [159, 983])
    def test_matches_bisection_oracle_at_paper_label_counts(self, L):
        # Gaussian inputs, and the same rounded to one decimal so that many
        # coordinates and breakpoints tie
        rng = np.random.default_rng(L)
        for rounded in (False, True):
            for _ in range(4):
                v = rng.standard_normal(L) * 2.0
                if rounded:
                    v = np.round(v, 1)
                budgets = (0.0, float(L), float(rng.integers(1, L)),
                           float(rng.uniform(0.5, L - 0.5)))
                for z in budgets:
                    np.testing.assert_allclose(
                        pj.project_capped_exact(v, z),
                        oracles.project_capped_bisection(v, z),
                        atol=1e-8,
                    )

    def test_pivot_memory_is_linear_in_label_count(self):
        # measured peaks 0.11 MB for one row of 983 labels and 3.4 MB for
        # 32 rows (14 and 13 times the input); a breakpoint-by-label table
        # of float64 alone would take 15 MB a row
        for rows, bound in ((1, 64), (32, 32)):
            v = np.random.default_rng(0).standard_normal((rows, 983))
            tracemalloc.start()
            try:
                pj.project_capped_exact(v, 5.5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * v.nbytes, rows


class TestSimplexSoft:
    def test_uniform_input_at_high_sharpness(self):
        tape = dg.Tape()
        out = oracles.project_simplex_soft(tape.leaf([0.5, 0.5, 0.5]), 1.0, 1000.0)
        np.testing.assert_allclose(out.value, [1 / 3, 1 / 3, 1 / 3], atol=1e-3)

    def test_feasible_interior_point_is_nearly_fixed(self):
        tape = dg.Tape()
        out = oracles.project_simplex_soft(tape.leaf([0.5, 0.3, 0.2]), 1.0, 1000.0)
        np.testing.assert_allclose(out.value, [0.5, 0.3, 0.2], atol=1e-3)

    def test_dominant_coordinate_example(self):
        tape = dg.Tape()
        out = oracles.project_simplex_soft(tape.leaf([2.0, 1.0, 0.1]), 1.0, 50.0)
        np.testing.assert_allclose(out.value, [1.0, 0.0, 0.0], atol=1e-2)

    def test_deviation_from_exact_non_increasing_in_sharpness(self):
        rng = np.random.default_rng(4)
        cases = []
        while len(cases) < 200:
            v = rng.standard_normal(10)
            if np.min(np.abs(np.diff(np.sort(v)))) < 1e-3:
                continue
            cases.append((v, float(rng.integers(1, 6))))
        devs = []
        for tau in (1.0, 10.0, 100.0):
            worst = 0.0
            for v, z in cases:
                tape = dg.Tape()
                soft = oracles.project_simplex_soft(tape.leaf(v), z, tau).value
                worst = max(worst, np.abs(soft - pj.project_simplex_exact(v, z)).max())
            devs.append(worst)
        assert devs[0] >= devs[1] >= devs[2]

    def test_gradient_of_output_sum_matches_fd(self):
        # measured worst relative error 2.4e-06 over this sweep; bound 1e-3
        rng = np.random.default_rng(21)
        step = 1e-5
        checked = 0
        for _ in range(40):
            v = rng.standard_normal(10)
            z = float(rng.integers(1, 6))
            tape = dg.Tape()
            x = tape.leaf(v)
            out = oracles.project_simplex_soft(x, z, 10.0)
            j = int(np.argmax(out.value))
            theta = v[j] - out.value[j]
            if min(np.abs(v - theta).min(), np.abs(np.diff(np.sort(v))).min()) < 5e-3:
                continue
            checked += 1
            tape.backward(dg.vsum(out))

            def f(u):
                t2 = dg.Tape()
                return float(oracles.project_simplex_soft(t2.leaf(u), z, 10.0).value.sum())

            want = np.array(
                [
                    (f(v + step * e) - f(v - step * e)) / (2 * step)
                    for e in np.eye(10)
                ]
            )
            denom = np.maximum.reduce(
                [np.abs(x.adjoint), np.abs(want), np.full(10, 1e-4)]
            )
            assert (np.abs(x.adjoint - want) / denom).max() < 1e-3
        assert checked >= 20

    def test_mass_budget_as_tape_node_receives_gradient(self):
        tape = dg.Tape()
        v = tape.leaf([0.9, 0.4, 0.1])
        mass = tape.leaf(1.0)
        out = oracles.project_simplex_soft(v, mass, 50.0)
        tape.backward(dg.vsum(out))
        # pushing the budget up must raise the output mass
        assert float(mass.adjoint) > 0.5


class TestDykstra:
    def test_feasible_point_is_fixed(self):
        res = oracles.project_capped_dykstra_exact(np.array([0.5, 0.5, 1.0]), 2.0, rounds=2)
        np.testing.assert_allclose(res.values(), [0.5, 0.5, 1.0], atol=1e-12)
        assert res.residual_sum < 1e-12 and res.residual_box < 1e-12

    def test_worked_example_converges(self):
        res = oracles.project_capped_dykstra_exact(np.array([1.5, 0.8, -0.2]), 2.0, rounds=50)
        np.testing.assert_allclose(res.values(), [1.0, 1.0, 0.0], atol=1e-6)

    def test_matches_closed_form_at_moderate_budget(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v = rng.standard_normal(8) * 2.0
            res = oracles.project_capped_dykstra_exact(v, 3.0, rounds=50)
            np.testing.assert_allclose(
                res.values(), pj.project_capped_exact(v, 3.0), atol=1e-4
            )

    def test_zero_mass_short_circuits(self):
        res = pj.project_capped_dykstra(dg.Tape().leaf([0.3, -0.3]), 0.0, rounds=2)
        np.testing.assert_array_equal(res.values(), [0.0, 0.0])

    def test_soft_mode_runs_on_tape_and_is_nearly_feasible(self):
        # near-feasible inputs, the regime the unrolled layers produce;
        # measured worst residuals on this sweep: sum 0.066, box 0.024
        rng = np.random.default_rng(6)
        for _ in range(100):
            z = float(rng.integers(1, 6))
            base = pj.project_capped_exact(rng.standard_normal(10) * 2.0, z)
            v = base + rng.standard_normal(10) * 0.1
            tape = dg.Tape()
            res = pj.project_capped_dykstra(tape.leaf(v), z, rounds=2, sharpness=10.0)
            assert res.residual_sum < 0.1
            assert res.residual_box < 0.05

    def test_soft_mode_gradient_matches_fd(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal(6)
        base = pj.project_capped_exact(rng.standard_normal(6), 2.0)
        v = base + rng.standard_normal(6) * 0.1

        def f(u):
            tape = dg.Tape()
            res = pj.project_capped_dykstra(tape.leaf(u), 2.0, 2, 10.0)
            return float(np.dot(w, res.y.value))

        tape = dg.Tape()
        x = tape.leaf(v)
        res = pj.project_capped_dykstra(x, 2.0, 2, 10.0)
        tape.backward(dg.dot(res.y, dg.Var(tape, w)))
        step = 1e-5
        want = np.array(
            [(f(v + step * e) - f(v - step * e)) / (2 * step) for e in np.eye(6)]
        )
        np.testing.assert_allclose(x.adjoint, want, rtol=1e-3, atol=1e-5)


def softsign(x):
    """x / (1 + |x|) as one node, with the values and adjoints of the fused VJP."""
    denom = 1.0 + np.abs(x.value)

    def bwd(g):
        x.adjoint += g / denom**2

    return dg.Var(x.tape, x.value / denom, bwd)


def composed_simplex_soft(v, mass, sharpness):
    """The soft simplex surrogate built from diffgraph primitives, node by node."""
    tape = v.tape
    if not isinstance(mass, dg.Var):
        mass = dg.Var(tape, np.asarray(float(mass)))
    idx = dg.Var(tape, np.arange(1, len(v) + 1, dtype=np.float64))
    mu, _ = oracles.sort_desc(v)
    cssv = oracles.cumsum(mu)
    margin = dg.sub(dg.mul(mu, idx), dg.sub(cssv, mass))
    sign = softsign(dg.scale(margin, sharpness))
    weights = dg.softmax(dg.scale(dg.mul(sign, idx), sharpness))
    theta = oracles.div(dg.sub(dg.dot(cssv, weights), mass), dg.dot(idx, weights))
    return dg.relu(dg.sub(v, theta))


def composed_dykstra_soft(v, mass, rounds, sharpness):
    """Soft Dykstra alternation with every step and correction on the tape."""
    tape = v.tape
    y = v
    p = dg.Var(tape, np.zeros(len(v)))
    q = dg.Var(tape, np.zeros(len(v)))
    for _ in range(rounds):
        yp = dg.add(y, p)
        t = dg.clip(yp, hi=1.0)
        p = dg.sub(yp, t)
        tq = dg.add(t, q)
        y = composed_simplex_soft(tq, mass, sharpness)
        q = dg.sub(tq, y)
    return y


class TestFusedSoftNode:
    """The fused soft projections against the composed surrogate they replace."""

    @staticmethod
    def _run(project, v, z, node_mass, readout):
        # x and the mass feed other nodes before and after the projection,
        # so the test also pins where the fused node's adjoints are summed in
        tape = dg.Tape()
        x = tape.leaf(v)
        mass = tape.leaf(z) if node_mass else z
        root = dg.dot(dg.scale(x, 0.7), dg.Var(tape, readout[::-1].copy()))
        y = project(x, mass)
        root = dg.add(root, dg.dot(y, dg.Var(tape, readout)))
        root = dg.add(root, dg.vsum(dg.scale(x, -0.3)))
        if node_mass:
            root = dg.add(root, dg.scale(mass, 1.5))
        tape.backward(root)
        return y.value, x.adjoint, mass.adjoint if node_mass else None

    def _assert_same(self, fused, composed, v, z, node_mass, readout):
        got = self._run(fused, v, z, node_mass, readout)
        want = self._run(composed, v, z, node_mass, readout)
        self._assert_bits(got[: 2 + node_mass], want[: 2 + node_mass])

    @pytest.mark.parametrize("L", [3, 30, 159, 983])
    def test_bit_identical_to_composed_surrogate(self, L):
        rng = np.random.default_rng(L)
        for rounds in (1, 2, 3):
            for node_mass in (False, True):
                z = float(rng.uniform(0.5, L - 0.5))
                v = rng.standard_normal(L) + z / L
                readout = rng.standard_normal(L)
                self._assert_same(
                    lambda x, m: pj.project_capped_dykstra(x, m, rounds, 20.0).y,
                    lambda x, m: composed_dykstra_soft(x, m, rounds, 20.0),
                    v, z, node_mass, readout,
                )
                self._assert_same(
                    lambda x, m: oracles.project_simplex_soft(x, m, 50.0),
                    lambda x, m: composed_simplex_soft(x, m, 50.0),
                    v, z, node_mass, readout,
                )

    @staticmethod
    def _tie_heavy_rows(rng, L, count):
        # drawn from 0.0, -0.0 and a few values, two of which the box clamps
        # to 1.0; every fourth row is one value repeated
        pool = np.array([0.0, -0.0, 0.25, -0.5, 1.0, 1.5, 2.0])
        for i in range(count):
            if i % 4 == 0:
                yield np.full(L, pool[i // 4 % len(pool)])
            else:
                yield rng.choice(pool[: rng.integers(3, len(pool) + 1)], size=L)

    @staticmethod
    def _run_alone(project, v, z, node_mass, readout):
        # nothing else feeds the adjoints of x and the mass, so a zero of the
        # wrong sign in what the projection adds would show
        tape = dg.Tape()
        x = tape.leaf(v)
        mass = tape.leaf(z) if node_mass else z
        y = project(x, mass)
        tape.backward(dg.dot(y, dg.Var(tape, readout)))
        return y.value, x.adjoint, mass.adjoint if node_mass else np.zeros(())

    @staticmethod
    def _assert_bits(got, want):
        for g, w in zip(got, want):
            np.testing.assert_array_equal(
                np.atleast_1d(g).view(np.int64), np.atleast_1d(w).view(np.int64))

    @pytest.mark.parametrize("L", [3, 8, 30])
    def test_ties_and_signed_zeros_bit_identical_to_composed(self, L):
        # ties decide the order of the sort, which the values and the VJP
        # must both follow; assert_array_equal would let -0.0 pass for 0.0
        rng = np.random.default_rng(L)
        for v in self._tie_heavy_rows(rng, L, 16):
            z = float(rng.choice([0.5, 1.0, L / 2, L - 0.5]))
            sparse = rng.choice([0.0, -0.0, 0.5, -1.0], size=L)
            for readout in (sparse, rng.standard_normal(L)):
                for rounds in (1, 2, 3):
                    pairs = [
                        (lambda x, m: pj.project_capped_dykstra(x, m, rounds, 20.0).y,
                         lambda x, m: composed_dykstra_soft(x, m, rounds, 20.0)),
                        (lambda x, m: oracles.project_simplex_soft(x, m, 50.0),
                         lambda x, m: composed_simplex_soft(x, m, 50.0)),
                    ]
                    for fused, composed in pairs:
                        for node_mass in (False, True):
                            self._assert_bits(
                                self._run_alone(fused, v, z, node_mass, readout),
                                self._run_alone(composed, v, z, node_mass, readout))

    @pytest.mark.parametrize("L", [3, 30])
    def test_batch_with_zero_budgets_matches_rows_alone(self, L):
        # tie-heavy rows and N(0,1) rows, some of each on a zero budget
        rng = np.random.default_rng(L)
        v = np.vstack([list(self._tie_heavy_rows(rng, L, 6)), rng.standard_normal((2, L))])
        z = rng.choice([0.0, 1.0, L / 2], size=len(v))
        z[[0, 1, -1]] = 0.0
        readout = rng.standard_normal(v.shape)
        for rounds in (1, 2, 3):
            for node_mass in (False, True):
                def project(x, m):
                    return pj.project_capped_dykstra(x, m, rounds, 20.0).y

                batch = self._run_alone(project, v, z, node_mass, readout)
                for i in range(len(v)):
                    alone = self._run_alone(project, v[i], z[i], node_mass, readout[i])
                    self._assert_bits([part[i] if part.ndim else part for part in batch], alone)

    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_only_the_reverse_sweep_argsorts(self, monkeypatch, rounds):
        # the forward pass sorts values; the stable order is found once per
        # round, by the VJP, so evaluation never pays for it
        calls = []
        argsort = np.argsort

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        rng = np.random.default_rng(rounds)
        tape = dg.Tape()
        x = tape.leaf(rng.standard_normal((4, 30)))
        mass = tape.leaf(np.array([0.0, 1.0, 3.0, 7.5]))
        y = pj.project_capped_dykstra(x, mass, rounds, 20.0).y
        assert calls == []
        tape.backward(dg.dot(y, dg.Var(tape, rng.standard_normal((4, 30)))))
        assert len(calls) == rounds

    def test_one_node_per_projection(self):
        tape = dg.Tape()
        x = tape.leaf(np.linspace(-1.0, 2.0, 30))
        mass = tape.leaf(4.0)
        before = len(tape)
        pj.project_capped_dykstra(x, mass, 3, 20.0)
        oracles.project_simplex_soft(x, mass)
        assert len(tape) == before + 2

    @pytest.mark.parametrize("L, z", [(159, 10.0), (983, 20.0)])
    def test_gradient_matches_fd_at_paper_label_counts(self, L, z):
        # a shuffled grid keeps coordinates 3 / (L - 1) apart, far more than
        # the step, so no difference straddles a tie of the sort; measured
        # worst absolute errors 7e-9 (L=159) and 2e-6 (L=983), mass 3e-9
        rng = np.random.default_rng(L)
        v = rng.permutation(np.linspace(-1.0, 2.0, L))
        readout = rng.standard_normal(L)

        def f(u, mass):
            tape = dg.Tape()
            res = pj.project_capped_dykstra(tape.leaf(u), mass, 2, 20.0)
            return float(np.dot(readout, res.y.value))

        tape = dg.Tape()
        x = tape.leaf(v)
        mass = tape.leaf(z)
        res = pj.project_capped_dykstra(x, mass, 2, 20.0)
        tape.backward(dg.dot(res.y, dg.Var(tape, readout)))
        step = 1e-6
        want = np.array(
            [(f(v + step * e, z) - f(v - step * e, z)) / (2 * step) for e in np.eye(L)]
        )
        want_mass = (f(v, z + step) - f(v, z - step)) / (2 * step)
        assert np.count_nonzero(want) > 20
        np.testing.assert_allclose(x.adjoint, want, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(float(mass.adjoint), want_mass, rtol=1e-4, atol=1e-7)


class TestCappedExactNode:
    """The exact projection on a tape node: one node, closed-form Jacobian."""

    @staticmethod
    def _loss_and_adjoints(v, z, readout):
        # x and the mass feed other nodes too, so the test also pins that
        # the projection adds into their adjoints rather than overwriting
        tape = dg.Tape()
        x = tape.leaf(v)
        mass = tape.leaf(z)
        y = pj.project_capped_exact(x, mass)
        root = dg.add(dg.dot(y, dg.Var(tape, readout)), dg.vsum(dg.scale(x, 0.5)))
        root = dg.add(root, dg.scale(mass, -1.5))
        tape.backward(root)
        return y.value, x.adjoint, float(mass.adjoint)

    @pytest.mark.parametrize("L", [1, 3, 30, 159, 983])
    def test_value_equals_array_form(self, L):
        rng = np.random.default_rng(L)
        for _ in range(5):
            v = rng.standard_normal(L) * 2.0
            for z in (0.0, float(L), float(rng.integers(0, L + 1)), float(rng.uniform(0, L))):
                want = pj.project_capped_exact(v, z)
                tape = dg.Tape()
                for mass in (z, tape.leaf(z)):
                    got = pj.project_capped_exact(tape.leaf(v), mass)
                    np.testing.assert_array_equal(got.value, want)

    @pytest.mark.parametrize("L, z", [(3, 0.9), (30, 7.5), (159, 10.25), (983, 20.6)])
    def test_adjoints_match_fd(self, L, z):
        # the projection is piecewise linear, so central differences are
        # exact up to rounding wherever no coordinate of v - lam sits within
        # a step of the clamps at 0 and 1; measured worst absolute errors
        # 2e-8 (input, L=983) and 6e-9 (mass)
        rng = np.random.default_rng(L)
        v = rng.permutation(np.linspace(-0.2, 1.2, L)) + rng.uniform(-0.01, 0.01, L)
        readout = rng.standard_normal(L)
        _, lam = oracles.project_capped_pivot(v, z)
        assert min(np.abs(v - lam).min(), np.abs(v - lam - 1.0).min()) > 1e-4

        def f(u, mass):
            y = pj.project_capped_exact(u, mass)
            return float(np.dot(readout, y)) + 0.5 * u.sum() - 1.5 * mass

        y, got, got_mass = self._loss_and_adjoints(v, z, readout)
        free = (y > 0.0) & (y < 1.0)
        assert free.sum() >= min(2, L)
        step = 1e-6
        want = np.array(
            [(f(v + step * e, z) - f(v - step * e, z)) / (2 * step) for e in np.eye(L)]
        )
        want_mass = (f(v, z + step) - f(v, z - step)) / (2 * step)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(got_mass, want_mass, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("L", [1, 4, 30])
    def test_degenerate_budgets_pass_no_gradient(self, L):
        rng = np.random.default_rng(L)
        v = rng.standard_normal(L)
        readout = rng.standard_normal(L)
        for z, corner in ((0.0, 0.0), (float(L), 1.0)):
            y, got, got_mass = self._loss_and_adjoints(v, z, readout)
            np.testing.assert_array_equal(y, np.full(L, corner))
            # only the extra readouts of x and of the mass remain
            np.testing.assert_array_equal(got, np.full(L, 0.5))
            assert got_mass == -1.5

    def test_one_node_per_call(self):
        tape = dg.Tape()
        x = tape.leaf(np.linspace(-1.0, 2.0, 30))
        mass = tape.leaf(4.0)
        before = len(tape)
        pj.project_capped_exact(x, mass)
        pj.project_capped_exact(x, 4.0)
        assert len(tape) == before + 2


class TestMatrixExtension:
    def test_identity_is_fixed_point(self):
        y = np.eye(2)
        out = pj.project_matrix_rows_cols(y, np.array([1.0, 1.0]), rounds=5)
        np.testing.assert_allclose(out, y, atol=1e-12)

    def test_uniform_matrix_is_fixed_point(self):
        y = np.full((2, 2), 0.5)
        out = pj.project_matrix_rows_cols(y, np.array([1.0, 1.0]), rounds=5)
        np.testing.assert_allclose(out, y, atol=1e-12)

    def test_worked_4x3(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal((4, 3))
        col_mass = np.array([2.0, 1.0, 1.0])
        out = pj.project_matrix_rows_cols(y, col_mass, rounds=100)
        assert pj.ProjectionResult(out, 1.0).residual_sum < 1e-4
        assert pj.ProjectionResult(out.T, col_mass).residual_sum < 1e-4

    def test_zero_mass_column_stays_zero(self):
        # the column step leaves a column of zero mass at zero; the rows
        # then share their mass among the other columns
        rng = np.random.default_rng(4)
        y = rng.standard_normal((4, 3))
        col_mass = np.array([2.5, 1.5, 0.0])
        out = pj.project_matrix_rows_cols(y, col_mass, rounds=100)
        np.testing.assert_array_equal(out[:, 2], 0.0)
        assert pj.ProjectionResult(out, 1.0).residual_sum < 1e-4
        assert pj.ProjectionResult(out.T, col_mass).residual_sum < 1e-4
        assert out.min() >= 0.0

    @pytest.mark.parametrize("shape", [(1, 1), (3, 2), (6, 4), (12, 9), (40, 30)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_matches_per_row_and_column_reference(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for case in range(3):
            y = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
            col_mass = rng.dirichlet(np.ones(shape[1])) * shape[0]
            if case and shape[1] > 1:
                # a column of zero mass, its share moved to another
                col_mass[0] += col_mass[-1]
                col_mass[-1] = 0.0
            rounds = int(rng.integers(1, 30))
            out = pj.project_matrix_rows_cols(y, col_mass, rounds=rounds)
            assert np.array_equal(out, oracles.project_matrix_rows_cols(y, col_mass, rounds))
