import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outline2report.numerics import (
    FLOAT, NonFiniteLossError, Parameter, clip_global_norm,
    finite_difference_gradient, gradient_check, log_softmax,
    masked_row_softmax, sigmoid, uniform_init)

from model_oracles import lstm_cell_step, softmax


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


def test_sigmoid_midpoint():
    assert sigmoid(0.0) == 0.5


def test_parameter_zero_grad():
    p = Parameter("w", np.ones((2, 2)))
    p.grad += 3.0
    p.zero_grad()
    assert not p.grad.any()
