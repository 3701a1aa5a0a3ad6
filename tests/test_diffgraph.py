"""Gradient and value checks for the tape engine.

Every primitive is verified against central finite differences computed by
an independent closure over raw numpy values.  Random inputs are drawn with
rejection so no coordinate sits on a kink (relu/clip corners) or ties
another coordinate (sort order changes).
"""

import numpy as np
import pytest

from cardproj import diffgraph as dg

import oracles

FD_STEP = 1e-5
FD_TOL = 1e-4


def fd_grad(f, x, step=FD_STEP):
    """Central finite differences of a scalar-valued f at vector x."""
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (f(hi) - f(lo)) / (2 * step)
    return g


def tie_free(rng, n, gap=1e-2):
    """Draw a standard normal vector with no near-ties and no near-kinks."""
    while True:
        v = rng.standard_normal(n)
        flat = np.concatenate([v, v - 1.0, [0.0, 1.0]])
        if np.min(np.abs(np.subtract.outer(flat, flat))[~np.eye(flat.size, dtype=bool)]) > gap:
            return v


def eager_backward(tape, root):
    """The sweep without lazy adjoints: zero-fill every node, visit all of them."""
    nodes = [ref() for ref in tape._nodes]
    for node in nodes:
        if node is not None:
            node.adjoint = np.zeros(node.value.shape)
    root.adjoint += 1.0
    for node in nodes[root._index :: -1]:
        if node is not None and node._backward is not None:
            node._backward(node.adjoint)


def assert_bits(got, want):
    """Arrays equal bit for bit: -0.0 differs from 0.0, as a nan from itself does not."""
    for g, w in zip(got, want, strict=True):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape
        np.testing.assert_array_equal(np.atleast_1d(g).view(np.int64),
                                      np.atleast_1d(w).view(np.int64))


def check_unary(op, np_op, v):
    """Compare tape gradient of sum(op(v)) against finite differences."""
    tape = dg.Tape()
    x = tape.leaf(v)
    out = dg.vsum(op(x))
    tape.backward(out)
    want = fd_grad(lambda u: np_op(u).sum(), v)
    np.testing.assert_allclose(x.adjoint, want, rtol=FD_TOL, atol=FD_TOL)


class TestElementwise:
    def test_relu_values(self):
        tape = dg.Tape()
        x = tape.leaf([-1.0, 0.0, 2.5])
        np.testing.assert_array_equal(dg.relu(x).value, [0.0, 0.0, 2.5])

    def test_sigmoid_values(self):
        tape = dg.Tape()
        x = tape.leaf([0.0, np.log(3.0)])
        np.testing.assert_allclose(dg.sigmoid(x).value, [0.5, 0.75], atol=1e-12)

    def test_sigmoid_extreme_inputs_do_not_overflow(self):
        tape = dg.Tape()
        x = tape.leaf([-1000.0, 1000.0])
        out = dg.sigmoid(x).value
        assert out[0] == 0.0 and out[1] == 1.0

    def test_clip_values(self):
        tape = dg.Tape()
        x = tape.leaf([-0.5, 0.25, 1.5])
        np.testing.assert_array_equal(dg.clip(x, 0.0, 1.0).value, [0.0, 0.25, 1.0])

    def test_upper_clip_gradient(self):
        tape = dg.Tape()
        x = tape.leaf([0.5, 1.5])
        out = dg.clip(x, hi=1.0)
        np.testing.assert_array_equal(out.value, [0.5, 1.0])
        tape.backward(dg.vsum(out))
        np.testing.assert_array_equal(x.adjoint, [1.0, 0.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_unary_gradients_match_fd(self, seed):
        rng = np.random.default_rng(seed)
        v = tie_free(rng, 6)
        check_unary(dg.relu, lambda u: np.maximum(u, 0.0), v)
        check_unary(dg.sigmoid, lambda u: 1 / (1 + np.exp(-u)), v)
        check_unary(lambda x: dg.clip(x, 0.0, 1.0), lambda u: np.clip(u, 0, 1), v)
        check_unary(oracles.cumsum, np.cumsum, v)
        check_unary(dg.softmax, lambda u: np.exp(u) / np.exp(u).sum(), v)

    def test_log_gradient(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(0.1, 2.0, size=5)
        check_unary(dg.log, np.log, v)


class TestArithmetic:
    def test_binary_ops_with_broadcast(self):
        tape = dg.Tape()
        v = tape.leaf([1.0, 2.0, 3.0])
        s = tape.leaf(2.0)
        np.testing.assert_array_equal(dg.add(v, s).value, [3.0, 4.0, 5.0])
        np.testing.assert_array_equal(dg.sub(v, s).value, [-1.0, 0.0, 1.0])
        np.testing.assert_array_equal(dg.mul(v, s).value, [2.0, 4.0, 6.0])
        np.testing.assert_array_equal(oracles.div(v, s).value, [0.5, 1.0, 1.5])

    def test_broadcast_backward_sums_over_vector(self):
        tape = dg.Tape()
        v = tape.leaf([1.0, 2.0, 3.0])
        s = tape.leaf(2.0)
        out = dg.vsum(dg.mul(v, s))
        tape.backward(out)
        np.testing.assert_allclose(s.adjoint, 6.0)
        np.testing.assert_allclose(v.adjoint, [2.0, 2.0, 2.0])

    def test_scale_and_shift_by_floats(self):
        tape = dg.Tape()
        v = tape.leaf([1.0, -2.0])
        out = dg.shift(dg.scale(dg.shift(dg.scale(v, 2.0), 1.0), 0.5), -0.5)
        np.testing.assert_allclose(out.value, [1.0, -2.0])
        tape.backward(dg.vsum(out))
        np.testing.assert_allclose(v.adjoint, [1.0, 1.0])
        # a node has no arithmetic operators: every op is recorded by name
        with pytest.raises(TypeError):
            1.0 - v

    @pytest.mark.parametrize("seed", range(3))
    def test_div_gradient_matches_fd(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(4)
        b = rng.uniform(0.5, 2.0, size=4)

        tape = dg.Tape()
        va, vb = tape.leaf(a), tape.leaf(b)
        tape.backward(dg.vsum(oracles.div(va, vb)))
        np.testing.assert_allclose(
            va.adjoint, fd_grad(lambda u: (u / b).sum(), a), atol=FD_TOL
        )
        np.testing.assert_allclose(
            vb.adjoint, fd_grad(lambda u: (a / u).sum(), b), atol=FD_TOL
        )


class TestLinearMaps:
    def test_matvec_value(self):
        tape = dg.Tape()
        w = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
        x = tape.leaf([1.0, 1.0])
        np.testing.assert_array_equal(dg.matvec(w, x).value, [3.0, 7.0])

    def test_matvec_shape_mismatch(self):
        tape = dg.Tape()
        w = tape.leaf([[1.0, 2.0]])
        x = tape.leaf([1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            dg.matvec(w, x)

    @pytest.mark.parametrize("seed", range(3))
    def test_matvec_gradients_match_fd(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((3, 4))
        x = rng.standard_normal(4)
        tape = dg.Tape()
        vw, vx = tape.leaf(w), tape.leaf(x)
        tape.backward(dg.vsum(dg.matvec(vw, vx)))
        np.testing.assert_allclose(
            vx.adjoint, fd_grad(lambda u: (w @ u).sum(), x), atol=FD_TOL
        )
        flat = fd_grad(lambda u: (u.reshape(3, 4) @ x).sum(), w.ravel())
        np.testing.assert_allclose(vw.adjoint, flat.reshape(3, 4), atol=FD_TOL)

    def test_matvec_t_matches_transpose(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((3, 4))
        x = rng.standard_normal(3)
        tape = dg.Tape()
        vw, vx = tape.leaf(w), tape.leaf(x)
        out = oracles.matvec_t(vw, vx)
        np.testing.assert_allclose(out.value, w.T @ x)
        tape.backward(dg.vsum(out))
        np.testing.assert_allclose(
            vx.adjoint, fd_grad(lambda u: (w.T @ u).sum(), x), atol=FD_TOL
        )
        flat = fd_grad(lambda u: (u.reshape(3, 4).T @ x).sum(), w.ravel())
        np.testing.assert_allclose(vw.adjoint, flat.reshape(3, 4), atol=FD_TOL)

    def test_matvec_sparse_agrees_with_dense(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((4, 9))
        idx = np.array([1, 4, 7])
        vals = np.array([2.0, -1.0, 0.5])
        dense = np.zeros(9)
        dense[idx] = vals

        tape = dg.Tape()
        vw = tape.leaf(w)
        out = dg.matvec_sparse(vw, idx, vals)
        np.testing.assert_allclose(out.value, w @ dense)
        tape.backward(dg.vsum(out))

        tape2 = dg.Tape()
        vw2 = tape2.leaf(w)
        tape2.backward(dg.vsum(dg.matvec(vw2, tape2.leaf(dense))))
        np.testing.assert_allclose(vw.adjoint, vw2.adjoint)


class TestSparseAdjoint:
    """The bincount backward of matvec_sparse against the scatter-add one."""

    @staticmethod
    def _sweep(layer, w0, idx, vals, indptr, readout, extra=False):
        # with ``extra``, a second product of the weight recorded after the
        # layer reaches the weight's adjoint first in the sweep
        tape = dg.Tape()
        w = tape.leaf(w0)
        out = layer(w, idx, vals, indptr)
        root = dg.vsum(dg.mul(dg.relu(out), dg.Var(tape, readout)))
        if extra:
            x = tape.leaf(np.linspace(-1.0, 1.0, w0.shape[1]))
            root = dg.add(root, dg.vsum(dg.matvec(w, x)))
        tape.backward(root)
        return out.value, w.adjoint

    @staticmethod
    def _batch(rng, rows, dim):
        # every third row has no features, and some values are zero
        counts = [0 if r % 3 == 1 else int(rng.integers(1, dim)) for r in range(rows)]
        idx = np.concatenate([np.sort(rng.choice(dim, c, replace=False)) for c in counts]
                             + [np.zeros(0, dtype=int)])
        vals = rng.choice([0.0, -0.0, 1.0, -2.5, 0.3], size=idx.size)
        return idx, vals, np.concatenate([[0], np.cumsum(counts)])

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_bit_identical_to_scatter_add(self, rows):
        rng = np.random.default_rng(rows)
        for case in range(6):
            w0 = rng.standard_normal((5, 9))
            idx, vals, ptr = self._batch(rng, rows, 9)
            # zeros in the readout send signed zeros into the sums
            readout = rng.choice([0.0, -0.0, 1.0, -1.5], size=(rows, 5))
            assert_bits(self._sweep(dg.matvec_sparse, w0, idx, vals, ptr, readout),
                        self._sweep(oracles.matvec_sparse, w0, idx, vals, ptr, readout))

    def test_one_vector_and_empty_inputs(self):
        rng = np.random.default_rng(3)
        w0 = rng.standard_normal((4, 6))
        readout = rng.standard_normal(4)
        for idx, vals, ptr in [([1, 4], [2.0, -0.5], None), ([], [], None),
                               ([], [], [0, 0, 0]), ([2], [1.5], [0, 0, 1])]:
            out = readout if ptr is None else np.tile(readout, (len(ptr) - 1, 1))
            assert_bits(self._sweep(dg.matvec_sparse, w0, idx, vals, ptr, out),
                        self._sweep(oracles.matvec_sparse, w0, idx, vals, ptr, out))

    def test_adds_onto_what_another_consumer_left(self):
        rng = np.random.default_rng(5)
        w0 = rng.standard_normal((5, 9))
        idx, vals, ptr = self._batch(rng, 6, 9)
        readout = rng.standard_normal((6, 5))
        got = self._sweep(dg.matvec_sparse, w0, idx, vals, ptr, readout, extra=True)
        want = self._sweep(oracles.matvec_sparse, w0, idx, vals, ptr, readout, extra=True)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=1e-12)


class TestRearrangements:
    def test_sort_desc_worked_example(self):
        tape = dg.Tape()
        x = tape.leaf([3.0, 1.0, 2.0])
        out, perm = oracles.sort_desc(x)
        np.testing.assert_array_equal(out.value, [3.0, 2.0, 1.0])
        np.testing.assert_array_equal(perm, [0, 2, 1])

    def test_sort_desc_stable_ties(self):
        tape = dg.Tape()
        x = tape.leaf([5.0, 5.0, 1.0])
        _, perm = oracles.sort_desc(x)
        np.testing.assert_array_equal(perm, [0, 1, 2])

    def test_sort_output_is_permutation_of_input(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.standard_normal(8)
            tape = dg.Tape()
            out, perm = oracles.sort_desc(tape.leaf(v))
            assert sorted(perm.tolist()) == list(range(8))
            np.testing.assert_array_equal(np.sort(out.value)[::-1], out.value)
            np.testing.assert_array_equal(np.sort(out.value), np.sort(v))

    def test_sort_gradient_is_exact_on_tie_free_input(self):
        # sorting is locally a fixed permutation, so FD agrees to roundoff
        rng = np.random.default_rng(2)
        v = tie_free(rng, 7)
        tape = dg.Tape()
        x = tape.leaf(v)
        out, _ = oracles.sort_desc(x)
        tape.backward(dg.pick(out, 0))
        want = fd_grad(lambda u: np.sort(u)[::-1][0], v)
        np.testing.assert_allclose(x.adjoint, want, atol=1e-9)

    def test_cumsum_value(self):
        tape = dg.Tape()
        x = tape.leaf([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(oracles.cumsum(x).value, [1.0, 3.0, 6.0])

    def test_pick_scatters_gradient(self):
        tape = dg.Tape()
        x = tape.leaf([1.0, 2.0, 3.0])
        tape.backward(dg.pick(x, 2))
        np.testing.assert_array_equal(x.adjoint, [0.0, 0.0, 1.0])


class TestReductions:
    def test_softmax_is_normalized_and_stable(self):
        tape = dg.Tape()
        x = tape.leaf([1000.0, 0.0, -1000.0])
        p = dg.softmax(x).value
        assert abs(p.sum() - 1.0) < 1e-12
        assert p[0] > 0.999

    def test_logsumexp_matches_direct(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(6)
        tape = dg.Tape()
        x = tape.leaf(v)
        out = dg.logsumexp(x)
        np.testing.assert_allclose(out.value, np.log(np.exp(v).sum()), atol=1e-12)
        tape.backward(out)
        np.testing.assert_allclose(
            x.adjoint, fd_grad(lambda u: np.log(np.exp(u).sum()), v), atol=FD_TOL
        )

    def test_dot_and_vsum_gradients(self):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        tape = dg.Tape()
        va, vb = tape.leaf(a), tape.leaf(b)
        tape.backward(dg.dot(va, vb))
        np.testing.assert_allclose(va.adjoint, b)
        np.testing.assert_allclose(vb.adjoint, a)

        tape2 = dg.Tape()
        v = tape2.leaf(a)
        tape2.backward(dg.vsum(v))
        np.testing.assert_allclose(v.adjoint, np.ones(5))


class TestBackwardSemantics:
    def test_root_adjoint_is_one(self):
        tape = dg.Tape()
        x = tape.leaf([1.0, 2.0])
        out = dg.vsum(x)
        tape.backward(out)
        np.testing.assert_allclose(out.adjoint, 1.0)

    def test_backward_is_linear_in_seed(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal(5)
        tape = dg.Tape()
        x = tape.leaf(v)
        out = dg.vsum(dg.sigmoid(x))
        tape.backward(out)
        g1 = x.adjoint.copy()
        tape.backward(dg.scale(out, 2.0))
        np.testing.assert_allclose(x.adjoint, 2.0 * g1, rtol=1e-12)

    def test_repeated_backward_does_not_accumulate(self):
        tape = dg.Tape()
        x = tape.leaf([1.0, 2.0])
        out = dg.vsum(x)
        tape.backward(out)
        tape.backward(out)
        np.testing.assert_allclose(x.adjoint, [1.0, 1.0])

    def test_fanout_accumulates(self):
        tape = dg.Tape()
        x = tape.leaf([1.0])
        out = dg.add(x, x)
        tape.backward(dg.vsum(out))
        np.testing.assert_allclose(x.adjoint, [2.0])

    def test_nonfinite_leaf_rejected(self):
        tape = dg.Tape()
        with pytest.raises(ValueError):
            tape.leaf([1.0, np.nan])

    @pytest.mark.parametrize("seed", range(4))
    def test_composite_chain_matches_fd(self, seed):
        # a deep composite touching most primitives at once
        rng = np.random.default_rng(100 + seed)
        v = tie_free(rng, 6)
        w = rng.standard_normal((6, 6)) * 0.5

        def compute(values, on_tape):
            if on_tape:
                tape = dg.Tape()
                x = tape.leaf(values)
                m = dg.Var(tape, w)
                h = dg.sigmoid(dg.matvec(m, x))
                s, _ = oracles.sort_desc(h)
                c = oracles.cumsum(s)
                p = dg.softmax(c)
                r = dg.relu(x)
                # r >= 0, so r / (1 + r) is the softsign r / (1 + |r|)
                return tape, x, dg.dot(p, oracles.div(r, dg.shift(r, 1.0)))
            h = 1 / (1 + np.exp(-(w @ values)))
            c = np.cumsum(np.sort(h)[::-1])
            p = np.exp(c) / np.exp(c).sum()
            r = np.maximum(values, 0.0)
            return np.dot(p, r / (1 + np.abs(r)))

        tape, x, out = compute(v, True)
        np.testing.assert_allclose(out.value, compute(v, False), atol=1e-12)
        tape.backward(out)
        want = fd_grad(lambda u: compute(u, False), v)
        np.testing.assert_allclose(x.adjoint, want, rtol=FD_TOL, atol=FD_TOL)


class TestLazyAdjoints:
    def test_bound_value_is_shared_and_unchecked(self):
        tape = dg.Tape()
        x = tape.leaf([1.0, 2.0, 3.0])
        w = np.array([0.5, -1.0, 2.0])
        c = dg.Var(tape, w)
        assert c.value is w
        dg.Var(tape, np.array([np.nan, np.inf]))  # recorded as is, no finiteness scan
        tape.backward(dg.dot(x, c))
        np.testing.assert_array_equal(x.adjoint, w)

    def test_unreached_node_gets_no_adjoint_buffer(self):
        tape = dg.Tape()
        x = tape.leaf([1.0, 2.0])
        unused = tape.leaf([3.0])
        side = dg.sigmoid(x)
        out = dg.vsum(x)
        tape.backward(out)
        # nothing was allocated for them, and reading gives zeros
        assert unused._adjoint is None and side._adjoint is None
        assert not side.adjoint.any()
        np.testing.assert_array_equal(x.adjoint, [1.0, 1.0])

    def test_node_consumed_twice_gets_the_sum_of_both_adjoints(self):
        tape = dg.Tape()
        v = np.array([0.3, -1.7, 2.2])
        x = tape.leaf(v)
        out = dg.vsum(dg.add(dg.scale(x, 2.0), dg.mul(x, x)))
        tape.backward(out)
        # the sweep meets the product first (both of its operands), the scale last
        want = ((0.0 + v) + v) + 2.0
        assert x.adjoint.tobytes() == want.tobytes()

    def test_two_sweeps_give_identical_adjoints(self):
        rng = np.random.default_rng(4)
        tape = dg.Tape()
        x = tape.leaf(rng.standard_normal(5))
        w = tape.leaf(rng.standard_normal((3, 5)))
        h = dg.sigmoid(dg.matvec(w, x))
        out = dg.add(dg.dot(h, h), dg.pick(dg.softmax(x), 2))
        tape.backward(out)
        first = [x.adjoint, w.adjoint, h.adjoint]
        tape.backward(out)
        for a, b in zip(first, [x.adjoint, w.adjoint, h.adjoint]):
            assert a.tobytes() == b.tobytes()

    def test_first_accumulation_does_not_alias_the_adjoint_it_came_from(self):
        tape = dg.Tape()
        x = tape.leaf([1.0, 2.0])
        y = dg.shift(x, 1.0)
        tape.backward(dg.vsum(y))
        assert not np.shares_memory(x.adjoint, y.adjoint)

    def test_matches_eager_zero_fill_sweep_bit_for_bit(self):
        # x and y each get one contribution, -0.0 where w is zero: scale(-1)
        # sends -w to x and sub sends 0 - w to y; the eager sweep adds both
        # into zeros, which gives +0.0, so the first lazy accumulation must too
        w = np.array([0.0, 1.0, -2.0, 0.0])

        def build():
            tape = dg.Tape()
            x = tape.leaf([0.4, -0.3, 1.1, 0.2])
            y = tape.leaf([0.9, 0.1, -0.5, 0.0])
            z = tape.leaf([0.3, 0.3, 0.3, 0.3])
            wc = dg.Var(tape, w)
            a = dg.dot(dg.scale(x, -1.0), wc)
            b = dg.dot(dg.sub(dg.sigmoid(z), y), wc)
            return tape, (x, y, z), dg.add(a, b)

        tape, leaves, root = build()
        tape.backward(root)
        lazy = [v.adjoint for v in leaves]
        tape, leaves, root = build()
        eager_backward(tape, root)
        for got, want in zip(lazy, [v.adjoint for v in leaves]):
            assert got.tobytes() == want.tobytes()
        for got in lazy[:2]:
            assert not np.signbit(got[w == 0.0]).any()
