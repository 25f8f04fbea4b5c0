import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from outline2report.numerics import (
    FLOAT, LSTMCell, NonFiniteLossError, Parameter, clip_global_norm,
    finite_difference_gradient, gradient_check, log_softmax,
    masked_row_softmax, run_lstm, run_lstm_backward, uniform_init)

from model_oracles import (REL_TOL, lstm_cell_step, reference_gates, reference_log_softmax,
                           reference_lstm_step, reference_masked_row_softmax,
                           reference_run_lstm, reference_run_lstm_backward,
                           reference_step_backward, relative_error, sigmoid, softmax)


finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], rtol=0, atol=1e-15)

    def test_closed_form_ln2(self):
        # e^0 = 1, e^(ln 2) = 2
        np.testing.assert_allclose(softmax([0.0, math.log(2.0)]),
                                   [1 / 3, 2 / 3], atol=1e-15)

    @given(st.lists(finite_floats, min_size=1, max_size=12), finite_floats)
    def test_shift_invariance(self, values, c):
        v = np.array(values, dtype=FLOAT)
        np.testing.assert_allclose(softmax(v + c), softmax(v), atol=1e-12)

    @given(st.lists(finite_floats, min_size=1, max_size=12))
    def test_valid_distribution(self, values):
        p = softmax(np.array(values, dtype=FLOAT))
        assert (p >= 0).all()
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([], dtype=FLOAT))

    def test_matrix_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.zeros((2, 2)))


class TestMaskedRowSoftmax:
    def test_masked_positions_exactly_zero(self):
        scores = np.array([[1.0, 2.0, 3.0]])
        mask = np.array([[True, False, True]])
        w = masked_row_softmax(scores, mask)
        assert w[0, 1] == 0.0
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError, match="masked"):
            masked_row_softmax(np.zeros((1, 3)), np.zeros((1, 3), dtype=bool))


def assert_same_bits(got, want):
    """Equal shape, dtype and bit pattern: -0.0 differs from +0.0 here."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


def softmax_inputs(rng, shape):
    """Score arrays of `shape` at scales 1, +-1e8 and subnormal, with -0.0
    and -inf entries, and rows that mix +1e8 and -1e8."""
    base = rng.normal(size=shape)
    out = [base, base * 1e8, -np.abs(base) * 1e8,
           rng.integers(-1000, 1000, size=shape) * 5e-324, base * 1e-310]
    signed = base.copy()
    signed[rng.random(shape) < 0.2] = -0.0
    out.append(signed)
    holes = base * 3.0
    holes[rng.random(shape) < 0.3] = -math.inf
    holes[..., 0] = 0.5         # no last-axis row all -inf
    out.append(holes)
    mixed = base.copy()
    mixed[..., 0], mixed[..., -1] = 1e8, -1e8
    out.append(mixed)
    return out


class TestSoftmaxBits:
    """Both softmaxes give the bits of their np.max/np.sum references."""

    SHAPES = [(1, 183), (1, 2000), (7, 183), (3, 4, 11), (2, 5, 1)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_log_softmax(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        for x in softmax_inputs(rng, shape):
            assert_same_bits(log_softmax(x), reference_log_softmax(x))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_masked_row_softmax(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[-1] + 1)
        T = shape[-1]
        single = np.arange(T) == rng.integers(T, size=shape[:-1] + (1,))
        ragged = np.arange(T) < rng.integers(1, T + 1, size=shape[:-1] + (1,))
        for mask in (np.ones(shape, dtype=bool), single, ragged):   # each holds a finite score
            for scores in softmax_inputs(rng, shape):
                scores = np.where(single & (scores == -math.inf), 0.0, scores)
                assert_same_bits(masked_row_softmax(scores, mask),
                                 reference_masked_row_softmax(scores, mask))

    def test_attention_mask_broadcast(self):
        rng = np.random.default_rng(9)
        mask = np.arange(6) < np.array([[1], [6], [3]])
        for scale in (1.0, 1e8):
            scores = rng.normal(size=(3, 4, 6)) * scale
            assert_same_bits(masked_row_softmax(scores, mask[:, None]),
                             reference_masked_row_softmax(scores, mask[:, None]))


def _oracle_lstm_step(x, h_prev, c_prev, W_x, W_h, b):
    """Scalar-loop reimplementation used as an independent oracle."""
    H = len(h_prev)
    a = [sum(W_x[r][j] * x[j] for j in range(len(x)))
         + sum(W_h[r][j] * h_prev[j] for j in range(H)) + b[r]
         for r in range(4 * H)]
    h, c = [], []
    for d in range(H):
        i = 1.0 / (1.0 + math.exp(-a[d]))
        f = 1.0 / (1.0 + math.exp(-a[H + d]))
        o = 1.0 / (1.0 + math.exp(-a[2 * H + d]))
        g = math.tanh(a[3 * H + d])
        cd = f * c_prev[d] + i * g
        c.append(cd)
        h.append(o * math.tanh(cd))
    return np.array(h), np.array(c)


class TestLstmCellStep:
    def test_all_zero(self):
        H, D = 3, 2
        h, c = lstm_cell_step(np.zeros(D), np.zeros(H), np.zeros(H),
                              np.zeros((4 * H, D)), np.zeros((4 * H, H)),
                              np.zeros(4 * H))
        assert not h.any() and not c.any()

    def test_zero_weights_carry_half_cell(self):
        # gates all sigmoid(0) = 0.5, candidate tanh(0) = 0
        H = 4
        v = np.array([1.0, -2.0, 0.5, 3.0])
        h, c = lstm_cell_step(np.zeros(2), np.zeros(H), v,
                              np.zeros((4 * H, 2)), np.zeros((4 * H, H)),
                              np.zeros(4 * H))
        np.testing.assert_allclose(c, 0.5 * v, atol=1e-15)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * v), atol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            H, D = 3, 4
            x = rng.normal(size=D)
            hp = rng.normal(size=H)
            cp = rng.normal(size=H)
            W_x = rng.normal(size=(4 * H, D))
            W_h = rng.normal(size=(4 * H, H))
            b = rng.normal(size=4 * H)
            h, c = lstm_cell_step(x, hp, cp, W_x, W_h, b)
            ho, co = _oracle_lstm_step(x, hp, cp, W_x, W_h, b)
            np.testing.assert_allclose(h, ho, atol=1e-12)
            np.testing.assert_allclose(c, co, atol=1e-12)

    def test_hidden_bounded(self):
        rng = np.random.default_rng(5)
        H, D = 6, 3
        h, _ = lstm_cell_step(rng.normal(size=D) * 10, rng.normal(size=H),
                              rng.normal(size=H) * 10,
                              rng.normal(size=(4 * H, D)),
                              rng.normal(size=(4 * H, H)), rng.normal(size=4 * H))
        assert np.isfinite(h).all()
        assert (np.abs(h) < 1.0).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            lstm_cell_step(np.zeros(2), np.zeros(3), np.zeros(3),
                           np.zeros((12, 5)), np.zeros((12, 3)), np.zeros(12))


def random_cell(rng, d_in, d_hid, scale=1.0):
    cell = LSTMCell("cell", d_in, d_hid, rng)
    for p in cell.parameters():
        p.value[...] = scale * rng.normal(size=p.value.shape)
    return cell


def assert_same_step(got, want):
    """Outputs and every cached array equal to the bit, shapes included."""
    (h, c, cache), (h_ref, c_ref, cache_ref) = got, want
    assert len(cache) == len(cache_ref)
    for a, b in zip((h, c, *cache), (h_ref, c_ref, *cache_ref)):
        assert a.shape == b.shape and np.array_equal(a, b)


class TestInPlaceLstmStep:
    """LSTMCell has one gate formula: input_gates(x) = x @ W_xᵀ + b, then step
    adds h @ W_hᵀ and runs its gate kernel, partly in place. Given the same
    pre-activation the kernel equals the plain gates (reference_gates) to the
    bit; the whole step equals the plain formula (reference_lstm_step), which
    sums in another order, at REL_TOL."""

    @staticmethod
    def kernel(cell, a, c):
        """The gate kernel alone: with a zero W_hᵀ its pre-activation is a."""
        h = np.ones(a.shape[:-1] + (cell.d_hid,))
        return cell.step(a, h, c, np.zeros((cell.d_hid, 4 * cell.d_hid)))

    @staticmethod
    def hoisted_step(cell, x, h, c):
        return cell.step(cell.input_gates(x), h, c, cell.W_h.value.T)

    @staticmethod
    def steps_close(got, want):
        (h, c, cache), (h_ref, c_ref, cache_ref) = got, want
        return all(relative_error(a, b) <= REL_TOL
                   for a, b in zip((h, c, *cache), (h_ref, c_ref, *cache_ref)))

    @pytest.mark.parametrize("H", [1, 3, 32, 64])
    def test_rows(self, H):
        rng = np.random.default_rng(100 + H)
        for B in range(1, 18):
            cell = random_cell(rng, 1, H)
            a = float(rng.choice([0.1, 1.0, 4.0])) * rng.normal(size=(B, 4 * H))
            c = rng.normal(size=(B, H))
            assert_same_step(self.kernel(cell, a, c), reference_gates(cell, a, c))

    @pytest.mark.parametrize("H", [1, 3, 32, 64])
    def test_row_stacks(self, H):
        rng = np.random.default_rng(200 + H)
        for n in (1, 2, 4, 9, 16):
            cell = random_cell(rng, 1, H)
            a, c = rng.normal(size=(n, 1, 4 * H)), rng.normal(size=(n, 1, H))
            assert_same_step(self.kernel(cell, a, c), reference_gates(cell, a, c))

    def test_saturated_gates(self):
        # pre-activations far beyond +-709: exp overflows to inf, sigmoid to 0
        rng = np.random.default_rng(3)
        cell = random_cell(rng, 1, 8)
        a, c = 3000.0 * rng.normal(size=(6, 32)), rng.normal(size=(6, 8))
        with np.errstate(over="ignore"):
            got, want = self.kernel(cell, a, c), reference_gates(cell, a, c)
        assert_same_step(got, want)
        assert {0.0, 1.0} <= set(np.unique(got[2][1][:, :8]))  # saturated input gate

    def test_swapped_i_and_f_are_caught(self):
        rng = np.random.default_rng(5)
        cell = random_cell(rng, 1, 4)
        a, c = rng.normal(size=(3, 16)), rng.normal(size=(3, 4))
        swapped = np.concatenate([a[:, 4:8], a[:, :4], a[:, 8:]], axis=1)
        got, want = self.kernel(cell, swapped, c), reference_gates(cell, a, c)
        assert not np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("H", [1, 3, 32, 64])
    def test_input_gates_over_all_rows(self, H):
        rng = np.random.default_rng(400 + H)
        for T, B in ((1, 1), (3, 2), (20, 16)):
            D = int(rng.integers(1, 40))
            cell = random_cell(rng, D, H)
            X = rng.normal(size=(T * B, D))
            want = np.concatenate([X[r:r + 1] @ cell.W_x.value.T + cell.b.value
                                   for r in range(T * B)])
            assert relative_error(cell.input_gates(X), want) <= REL_TOL

    @pytest.mark.parametrize("H", [1, 3, 32, 64])
    def test_hoisted_input_product(self, H):
        rng = np.random.default_rng(300 + H)
        for B in (1, 2, 8, 16):
            D = int(rng.integers(1, 40))
            cell = random_cell(rng, D, H)
            x, h, c = (rng.normal(size=(B, n)) for n in (D, H, H))
            assert self.steps_close(self.hoisted_step(cell, x, h, c),
                                    reference_lstm_step(cell, x, h, c))

    def test_hoisted_input_product_without_its_bias_is_caught(self):
        rng = np.random.default_rng(4)
        cell = random_cell(rng, 6, 5)
        x, h, c = (rng.normal(size=(4, n)) for n in (6, 5, 5))
        no_bias = cell.step(x @ cell.W_x.value.T, h, c, cell.W_h.value.T)
        assert not self.steps_close(no_bias, reference_lstm_step(cell, x, h, c))


class TestBlockStepBackward:
    """LSTMCell.step_backward takes the sigmoid derivative s(1 - s) of i, f
    and o as one [B,3H] block. Each product is the same IEEE operation, in
    the same order, as in the per-gate formula (reference_step_backward), so
    da, dh_prev and dc_prev equal it bit for bit, one step at a time."""

    @staticmethod
    def assert_same_backward(cell, a, c, rng):
        _, _, cache = TestInPlaceLstmStep.kernel(cell, a, c)
        dh, dc = rng.normal(size=c.shape), rng.normal(size=c.shape)
        da = np.empty_like(a)
        dh_prev, dc_prev = cell.step_backward(cache, dh, dc, da)
        for got, want in zip((da, dh_prev, dc_prev), reference_step_backward(cell, cache, dh, dc)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("H", [1, 3, 32, 64])
    def test_rows(self, H):
        rng = np.random.default_rng(500 + H)
        for B in range(1, 18):
            cell = random_cell(rng, 1, H)
            a = float(rng.choice([0.1, 1.0, 4.0])) * rng.normal(size=(B, 4 * H))
            self.assert_same_backward(cell, a, rng.normal(size=(B, H)), rng)

    def test_saturated_gates(self):
        rng = np.random.default_rng(6)
        cell = random_cell(rng, 1, 8)
        with np.errstate(over="ignore"):
            self.assert_same_backward(cell, 3000.0 * rng.normal(size=(6, 32)),
                                      rng.normal(size=(6, 8)), rng)


def lstm_masks(B, T, rng):
    """Masks whose time columns are all valid, mix valid and padded rows
    (left-aligned or scattered), or are valid only in column 0."""
    lengths = rng.integers(1, T + 1, size=B)
    lengths[0], lengths[1] = T, 1  # at least one full row and one short one
    return {
        "all-valid": np.ones((B, T), dtype=bool),
        "mixed": np.arange(T)[None, :] < lengths[:, None],
        "column-0": np.tile(np.arange(T) == 0, (B, 1)),
        "scattered": rng.random((B, T)) < 0.5,
    }


MASK_KINDS = ["all-valid", "mixed", "column-0", "scattered"]


def forward_and_backward(cell, X, mask, reverse, seed, reference=False, fold_at=None):
    """Outputs of one forward and backward pass from a random h0, with random
    grads on every state and on the final one, the weight grads included.

    The reference takes the final state's grad as its own argument; run_lstm's
    caller folds it into dH at the final position, H[:, 0] in reverse and
    H[:, -1] forward, or at `fold_at` to plant a fault."""
    rng = np.random.default_rng(seed)
    B, T, _ = X.shape
    H = cell.d_hid
    h0, dh_fin = (rng.normal(size=(B, H)) for _ in range(2))
    dH = rng.normal(size=(B, T, H))
    for p in cell.parameters():
        p.zero_grad()
    end = 0 if reverse else T - 1
    if reference:
        states, (h, _), run = reference_run_lstm(cell, X, mask, reverse, h0, np.zeros_like(h0))
        assert np.array_equal(h, states[:, end])
        grads = reference_run_lstm_backward(cell, run, dH, dh_fin)
    else:
        states, cache = run_lstm(cell, X, mask, reverse=reverse, h0=h0)
        dH[:, end if fold_at is None else fold_at] += dh_fin
        grads = run_lstm_backward(cell, cache, dH)
    return (states, *grads) + tuple(p.grad.copy() for p in cell.parameters())


def runs_close(got, want):
    return all(relative_error(a, b) <= REL_TOL for a, b in zip(got, want))


class TestMaskedRecurrence:
    """run_lstm forms the input product, and run_lstm_backward the weight
    gradients and dX, once over all steps; both carry padded rows with
    np.where and skip the carry on fully valid columns. They must equal the
    step-at-a-time references that blend m*new + (1-m)*old at every step at
    REL_TOL: the sums run in another order."""

    B, T, D, H = 6, 9, 5, 4

    def cell_inputs_masks(self, seed):
        rng = np.random.default_rng(seed)
        cell = random_cell(rng, self.D, self.H)
        X = rng.normal(size=(self.B, self.T, self.D))
        return cell, X, lstm_masks(self.B, self.T, rng)

    @pytest.mark.parametrize("kind", MASK_KINDS)
    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_matches_blend_every_step(self, kind, reverse):
        for seed in range(3):
            cell, X, masks = self.cell_inputs_masks(seed)
            got = forward_and_backward(cell, X, masks[kind], reverse, seed)
            want = forward_and_backward(cell, X, masks[kind], reverse, seed, reference=True)
            assert runs_close(got, want)

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_folding_the_final_grad_at_the_wrong_end_is_caught(self, reverse):
        # The final state is H[:, -1] forward and H[:, 0] in reverse; its grad
        # folded in at the other end must fail the comparison above.
        cell, X, masks = self.cell_inputs_masks(2)
        for kind in ("all-valid", "mixed"):
            want = forward_and_backward(cell, X, masks[kind], reverse, 2, reference=True)
            got = forward_and_backward(cell, X, masks[kind], reverse, 2,
                                       fold_at=self.T - 1 if reverse else 0)
            assert not runs_close(got, want), kind

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_skipping_the_blend_on_a_mixed_column_is_caught(self, reverse):
        # Skipping the carry on column t computes what run_lstm computes when
        # the mask marks every row of column t valid; that planted fault must
        # fail the comparison above, on each mixed column in turn.
        cell, X, masks = self.cell_inputs_masks(0)
        mask = masks["mixed"]
        want = forward_and_backward(cell, X, mask, reverse, 0, reference=True)
        mixed = [t for t in range(self.T) if not mask[:, t].all()]
        assert mixed
        for t in mixed:
            planted = mask.copy()
            planted[:, t] = True
            got = forward_and_backward(cell, X, planted, reverse, 0)
            assert not runs_close(got, want), t

    @pytest.mark.parametrize("B", [1, B])
    def test_feed_replaces_later_inputs_from_the_state_before(self, B):
        # Each row feed forms from the state after step t - 1 replaces X[:, t]
        # for t > 0: the run equals one over those rows as plain inputs, its
        # cache holds them, and X keeps its values (for B = 1 the time-major
        # form of X would otherwise be a view of it).
        cell, X, masks = self.cell_inputs_masks(3)
        X, mask = X[:B], masks["mixed"][:B]
        P = np.random.default_rng(4).normal(size=(self.H, self.D))
        given, fed = [], []

        def feed(t, h):
            given.append(h.copy())
            fed.append(np.tanh(h @ P))
            return fed[-1]

        before = X.copy()
        states, cache = run_lstm(cell, X, mask, feed=feed)
        assert np.array_equal(X, before)
        assert len(fed) == self.T - 1
        for t in range(1, self.T):
            assert np.array_equal(given[t - 1], states[:, t - 1]), t
        plain = np.concatenate([X[:, :1], np.stack(fed, axis=1)], axis=1)
        assert np.array_equal(cache.inputs.transpose(1, 0, 2), plain)
        assert relative_error(states, run_lstm(cell, plain, mask)[0]) <= REL_TOL

    def test_swapped_gate_weights_are_caught(self):
        # The input and forget rows of W_h swapped in the reference only: a
        # fault of the order of one gate must fail the comparison.
        cell, X, masks = self.cell_inputs_masks(1)
        got = forward_and_backward(cell, X, masks["mixed"], False, 1)
        H = self.H
        W_h = cell.W_h.value
        W_h[:2 * H] = np.concatenate([W_h[H:2 * H], W_h[:H]])
        want = forward_and_backward(cell, X, masks["mixed"], False, 1, reference=True)
        assert not runs_close(got, want)


class TestRecurrenceGradients:
    """Finite differences through run_lstm for the inputs, the initial h
    and the three weight blocks, with gradients arriving on every state and,
    once more, on the final one, folded into dH at its position."""

    B, T, D, H = 3, 4, 3, 2

    @pytest.mark.parametrize("kind", MASK_KINDS)
    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_gradcheck(self, kind, reverse):
        rng = np.random.default_rng(7)
        cell = random_cell(rng, self.D, self.H, scale=0.5)
        mask = lstm_masks(self.B, self.T, rng)[kind]
        X = Parameter("X", rng.normal(size=(self.B, self.T, self.D)))
        h0 = Parameter("h0", rng.normal(size=(self.B, self.H)))
        dH = rng.normal(size=(self.B, self.T, self.H))
        dh_fin = rng.normal(size=(self.B, self.H))
        end = 0 if reverse else -1

        def loss():
            states, _ = run_lstm(cell, X.value, mask, reverse, h0.value)
            return float((states * dH).sum() + (states[:, end] * dh_fin).sum())

        blocks = cell.parameters() + [X, h0]
        numeric = finite_difference_gradient(loss, blocks)
        for p in cell.parameters():
            p.zero_grad()
        _, cache = run_lstm(cell, X.value, mask, reverse, h0.value)
        dH[:, end] += dh_fin
        dX, dh0 = run_lstm_backward(cell, cache, dH)
        analytic = {p.name: p.grad.copy() for p in cell.parameters()}
        analytic.update(X=dX, h0=dh0)
        report = gradient_check(analytic, numeric, tol=1e-7)
        assert report.passed, report.format_table()


class TestFiniteDifference:
    def test_quadratic_at_three(self):
        p = Parameter("theta", np.array([3.0]))

        grads = finite_difference_gradient(lambda: float(p.value[0] ** 2), [p])
        assert abs(grads["theta"][0] - 6.0) < 1e-8

    def test_constant_loss(self):
        p = Parameter("theta", np.array([1.0, -2.0]))
        grads = finite_difference_gradient(lambda: 7.5, [p])
        assert not grads["theta"].any()

    def test_value_restored_exactly(self):
        p = Parameter("theta", np.array([0.25, -1.5]))
        before = p.value.copy()
        finite_difference_gradient(lambda: float(p.value.sum()), [p])
        assert (p.value == before).all()

    def test_nonfinite_loss_rejected(self):
        p = Parameter("theta", np.array([1.0]))
        with pytest.raises(NonFiniteLossError):
            finite_difference_gradient(lambda: float("nan"), [p])


class TestGradientCheck:
    def test_identical_pass(self):
        g = {"w": np.array([1.0, 2.0])}
        report = gradient_check(g, {"w": g["w"].copy()})
        assert report.passed
        assert report.worst == 0.0

    def test_factor_two_fails(self):
        n = np.array([1.0, 1.0])
        report = gradient_check({"w": 2 * n}, {"w": n}, tol=1e-4)
        assert not report.passed
        # |a - n| / (|a| + |n|) = 1/3 for a = 2n
        assert abs(report.blocks[0].rel_error - 1 / 3) < 1e-12

    def test_mismatched_names_rejected(self):
        with pytest.raises(ValueError):
            gradient_check({"a": np.ones(2)}, {"b": np.ones(2)})


class TestUniformInit:
    def test_range_and_dtype(self):
        rng = np.random.default_rng(0)
        w = uniform_init(rng, (50, 16))
        assert w.dtype == FLOAT
        assert (np.abs(w) <= 1.0 / math.sqrt(16)).all()

    def test_seeded_repeatable(self):
        a = uniform_init(np.random.default_rng(3), (4, 4))
        b = uniform_init(np.random.default_rng(3), (4, 4))
        assert (a == b).all()


class TestClipGlobalNorm:
    def test_noop_below_threshold(self):
        p = Parameter("w", np.zeros(3))
        p.grad[:] = [0.1, 0.2, 0.2]
        clip_global_norm([p], 5.0)
        np.testing.assert_allclose(p.grad, [0.1, 0.2, 0.2])

    def test_scales_to_max_norm(self):
        p = Parameter("w", np.zeros(2))
        p.grad[:] = [3.0, 4.0]
        clip_global_norm([p], 1.0)
        assert abs(math.sqrt(float(np.sum(p.grad ** 2))) - 1.0) < 1e-12

    def test_squares_add_left_to_right(self):
        # each parameter's squares sum to 2^-53, which 1 + 2^-53 rounds away
        # at every addition; a compensated sum (the builtin sum() on CPython
        # 3.12+, math.fsum) keeps all four and returns 1.0000000000000002
        params = [Parameter("one", np.zeros(1))]
        params[0].grad[:] = 1.0
        for i in range(4):
            params.append(Parameter(f"tiny{i}", np.zeros(2)))
            params[-1].grad[:] = 2.0 ** -27
        squares = [float(np.sum(p.grad * p.grad)) for p in params]
        assert math.sqrt(math.fsum(squares)) == 1.0000000000000002
        assert clip_global_norm(params, 5.0) == 1.0

    def test_joint_scaling_preserves_direction(self):
        p1 = Parameter("a", np.zeros(1))
        p2 = Parameter("b", np.zeros(1))
        p1.grad[:] = 6.0
        p2.grad[:] = 8.0
        clip_global_norm([p1, p2], 5.0)
        assert abs(p1.grad[0] / p2.grad[0] - 6.0 / 8.0) < 1e-12


def test_log_softmax_agrees_with_softmax():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 9))
    lp = log_softmax(x)
    np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-12)
    for row in range(4):
        np.testing.assert_allclose(np.exp(lp[row]), softmax(x[row]), atol=1e-12)


def test_log_softmax_is_never_positive():
    # beam_search's early stop rests on this: x - max <= 0, and the log of a
    # sum that holds exp(0) = 1 is >= 0
    rows = [np.array([[3.0]]), np.array([[-7.5]]), np.full((2, 5), 0.1),
            np.array([[1e8, -1e8, 1e8 - 4.0, 0.0], [-1e8, -1e8, -1e8, 1e-8]]),
            np.array([[-math.inf, 2.0, -math.inf, 2.0 + 1e-15], [0.0, -math.inf, 1e8, -3.0]])]
    rows += [np.random.default_rng(3).normal(scale=s, size=(6, 9)) for s in (1e-8, 1.0, 1e8)]
    for x in rows:
        assert (log_softmax(x) <= 0).all(), x


def test_sigmoid_midpoint():
    assert sigmoid(0.0) == 0.5


def test_parameter_zero_grad():
    p = Parameter("w", np.ones((2, 2)))
    p.grad += 3.0
    p.zero_grad()
    assert not p.grad.any()
