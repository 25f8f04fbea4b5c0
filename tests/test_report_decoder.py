import math
from unittest.mock import Mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outline2report.corpus import BOS, PAD
from outline2report.encoder import Embedding
from outline2report.numerics import (
    Parameter, finite_difference_gradient, gradient_check)
from outline2report.outline_decoder import sequence_nll
from outline2report.report_decoder import (
    ReportDecoder, fuse_news_outline, gaussian_kl, masked_mean_pool,
    reparameterize)

from model_oracles import (REL_TOL, ReferenceRun, emittable_argmax, lstm_cell_step,
                           outline_loss, ranked_head, reference_lstm_step,
                           reference_run_lstm_backward, reference_xent, relative_error,
                           report_loss)

LN20 = math.log(20.0)


class TestMaskedMeanPool:
    def test_averages_only_unmasked(self):
        X = np.array([[[2.0, 4.0], [6.0, 8.0], [99.0, 99.0]]])
        mask = np.array([[True, True, False]])
        pooled, weights = masked_mean_pool(X, mask)
        np.testing.assert_allclose(pooled[0], [4.0, 6.0], atol=1e-15)
        assert weights[0, 2] == 0.0
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(pooled, np.einsum("bt,btd->bd", weights, X), atol=1e-15)

    def test_fully_masked_rejected(self):
        with pytest.raises(ValueError, match="masked"):
            masked_mean_pool(np.zeros((1, 2, 3)), np.zeros((1, 2), dtype=bool))


class TestFuseNewsOutline:
    def test_zero_pools(self):
        u, _ = fuse_news_outline(np.zeros((1, 3, 4)), np.ones((1, 3), dtype=bool),
                                 np.zeros((1, 2, 2)), np.ones((1, 2), dtype=bool))
        assert u.shape == (1, 6)
        assert not u.any()

    def test_single_state_concatenation(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(1, 1, 4))
        s = rng.normal(size=(1, 1, 2))
        ones = np.ones((1, 1), dtype=bool)
        u, _ = fuse_news_outline(h, ones, s, ones)
        np.testing.assert_allclose(u[0], np.concatenate([h[0, 0], s[0, 0]]), atol=1e-15)

    def test_position_permutation_invariant(self):
        rng = np.random.default_rng(1)
        H = rng.normal(size=(1, 5, 4))
        S = rng.normal(size=(1, 3, 2))
        ones_h = np.ones((1, 5), dtype=bool)
        ones_s = np.ones((1, 3), dtype=bool)
        u0, _ = fuse_news_outline(H, ones_h, S, ones_s)
        perm = np.array([4, 2, 0, 1, 3])
        u1, _ = fuse_news_outline(H[:, perm], ones_h, S, ones_s)
        np.testing.assert_allclose(u0, u1, atol=1e-12)

    def test_padding_excluded(self):
        rng = np.random.default_rng(2)
        H = rng.normal(size=(1, 4, 2))
        mask = np.array([[True, True, False, False]])
        S = rng.normal(size=(1, 2, 2))
        smask = np.ones((1, 2), dtype=bool)
        u, _ = fuse_news_outline(H, mask, S, smask)
        np.testing.assert_allclose(u[0, :2], H[0, :2].mean(axis=0), atol=1e-12)


class TestReparameterize:
    def test_zero_noise_returns_mean(self):
        mu = np.array([[0.4, -1.0]])
        sample = reparameterize(mu, np.array([[0.3, 0.7]]), np.zeros((1, 2)))
        np.testing.assert_array_equal(sample.z, mu)

    def test_unit_gaussian_passthrough(self):
        eps = np.array([[1.5, -2.0]])
        sample = reparameterize(np.zeros((1, 2)), np.zeros((1, 2)), eps)
        np.testing.assert_array_equal(sample.z, eps)

    def test_scale_is_exp_half_logvar(self):
        sample = reparameterize(np.zeros((1, 1)), np.array([[math.log(4.0)]]),
                                np.array([[3.0]]))
        assert abs(sample.z[0, 0] - 6.0) < 1e-12


class TestGaussianKl:
    def test_standard_normal_zero(self):
        assert gaussian_kl(np.zeros(3), np.zeros(3)) == 0.0

    def test_unit_mean(self):
        assert abs(gaussian_kl(np.array([1.0]), np.array([0.0])) - 0.5) < 1e-15

    def test_variance_four(self):
        kl = gaussian_kl(np.array([0.0]), np.array([math.log(4.0)]))
        assert abs(kl - 0.5 * (4.0 - 1.0 - math.log(4.0))) < 1e-15
        assert abs(kl - 0.8068528194400547) < 1e-12

    def test_batched_rows(self):
        kl = gaussian_kl(np.array([[1.0], [0.0]]), np.array([[0.0], [0.0]]))
        np.testing.assert_allclose(kl, [0.5, 0.0], atol=1e-15)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_zero_only_at_standard(self, seed):
        rng = np.random.default_rng(seed)
        mu = rng.normal(size=4)
        lv = rng.normal(size=4)
        kl = gaussian_kl(mu, lv)
        assert kl >= 0.0
        if kl == 0.0:
            assert not mu.any() and not lv.any()


def fused_report_loss(logits, targets, mask, kl, beta):
    """report_loss with the chunked NLL that ReportDecoder runs, on states
    whose projection through W = I is exactly `logits`."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    logits = np.asarray(logits, dtype=float)
    nll = sequence_nll(logits, Parameter("W", np.eye(logits.shape[-1])), targets, mask)[0]
    return nll + beta * float(np.mean(kl))


class TestReportLoss:
    """Closed forms for the chunked NLL plus KL and for the full-logit oracle."""

    LOSSES = (fused_report_loss, report_loss)

    def test_perfect_predictions_leave_weighted_kl(self):
        logits = np.zeros((1, 2, 6))
        targets = np.array([[3, 1]])
        logits[0, 0, 3] = 1000.0
        logits[0, 1, 1] = 1000.0
        mask = np.ones((1, 2), dtype=bool)
        for loss_fn in self.LOSSES:
            loss = loss_fn(logits, targets, mask, kl=0.5, beta=0.6)
            assert abs(loss - 0.3) < 1e-15

    def test_uniform_two_steps(self):
        logits = np.zeros((1, 2, 20))
        for loss_fn in self.LOSSES:
            loss = loss_fn(logits, np.array([[7, 0]]), np.ones((1, 2), dtype=bool),
                           kl=0.0, beta=1.0)
            assert abs(loss - 2 * LN20) < 1e-12

    def test_beta_zero_is_pure_nll(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(2, 3, 9))
        targets = rng.integers(0, 9, size=(2, 3))
        mask = rng.random((2, 3)) < 0.8
        with_term = fused_report_loss(logits, targets, mask, kl=123.0, beta=0.0)
        assert with_term == sequence_nll(logits, Parameter("W", np.eye(9)), targets, mask)[0]
        assert report_loss(logits, targets, mask, kl=123.0, beta=0.0) == outline_loss(
            logits, targets, mask)
        assert abs(with_term - outline_loss(logits, targets, mask)) <= 1e-12 * with_term

    def test_negative_beta_rejected(self):
        for loss_fn in self.LOSSES:
            with pytest.raises(ValueError):
                loss_fn(np.zeros((1, 1, 4)), np.array([[0]]),
                        np.ones((1, 1), dtype=bool), kl=0.0, beta=-0.1)

    def test_kl_term_is_batch_mean(self):
        logits = np.zeros((2, 1, 4))
        targets = np.array([[0], [0]])
        mask = np.ones((2, 1), dtype=bool)
        for loss_fn in self.LOSSES:
            loss = loss_fn(logits, targets, mask, kl=np.array([1.0, 3.0]), beta=1.0)
            assert abs(loss - (math.log(4.0) + 2.0)) < 1e-12


def tiny_decoder(vocab=7, d_emb=3, d_hid=2, d_u=4, d_z=2, seed=0):
    return ReportDecoder(vocab, d_emb, d_hid, d_u, d_z,
                         np.random.default_rng(seed))


class TestLatentInference:
    def test_zero_noise_gives_mean(self):
        dec = tiny_decoder()
        rng = np.random.default_rng(1)
        u = rng.normal(size=(2, 4))
        summary = rng.normal(size=(2, 3))
        latent = dec.infer_latent(u, summary, np.zeros((2, 2)))
        np.testing.assert_array_equal(latent.z, latent.mean)

    def test_zero_affines_identity_noise(self):
        dec = tiny_decoder()
        for p in (dec.W_mu, dec.b_mu, dec.W_lv, dec.b_lv):
            p.value[:] = 0.0
        eps = np.random.default_rng(2).normal(size=(2, 2))
        latent = dec.infer_latent(np.ones((2, 4)), np.ones((2, 3)), eps)
        assert not latent.mean.any() and not latent.logvar.any()
        np.testing.assert_array_equal(latent.z, eps)

    def test_recorded_noise_reproduces_sample(self):
        dec = tiny_decoder()
        rng = np.random.default_rng(4)
        latent = dec.infer_latent(rng.normal(size=(1, 4)), rng.normal(size=(1, 3)),
                                  rng.normal(size=(1, 2)))
        np.testing.assert_allclose(
            latent.z,
            reparameterize(latent.mean, latent.logvar, latent.noise).z,
            atol=1e-15)


class TestReportSteps:
    def test_zero_weights_zero_state(self):
        dec = tiny_decoder()
        for p in dec.cell.parameters():
            p.value[:] = 0.0
        s, c = dec.step(np.ones((1, 3)), (np.zeros((1, 2)), np.zeros((1, 2))))
        assert not s.any() and not c.any()

    def test_purity(self):
        dec = tiny_decoder(seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 3))
        s0, c0 = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
        a = dec.step(x, (s0, c0))
        b = dec.step(x, (s0, c0))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_matches_functional_cell(self):
        dec = tiny_decoder(seed=7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 3))
        s0, c0 = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
        s, c = dec.step(x, (s0, c0))
        h_ref, c_ref = lstm_cell_step(x[0], s0[0], c0[0], dec.cell.W_x.value,
                                      dec.cell.W_h.value, dec.cell.b.value)
        np.testing.assert_allclose(s[0], h_ref, atol=1e-12)
        np.testing.assert_allclose(c[0], c_ref, atol=1e-12)

    def test_initial_state_from_latent_and_fusion(self):
        dec = tiny_decoder(seed=9)
        rng = np.random.default_rng(10)
        z = rng.normal(size=(2, 2))
        u = rng.normal(size=(2, 4))
        h0 = dec.initial_state(z, u)
        ref = np.tanh(np.concatenate([z, u], axis=1) @ dec.W_init.value.T
                      + dec.b_init.value)
        np.testing.assert_allclose(h0, ref, atol=1e-12)


class TestReportPathGradients:
    def test_full_pass_gradients(self):
        rng = np.random.default_rng(11)
        vocab, d_emb, d_hid, d_u, d_z = 7, 3, 2, 4, 2
        B, K = 2, 3
        emb = Embedding(vocab, d_emb, rng)
        dec = ReportDecoder(vocab, d_emb, d_hid, d_u, d_z, rng)
        u = Parameter("u", rng.normal(size=(B, d_u)))
        summary = Parameter("summary", rng.normal(size=(B, d_emb)))
        noise = rng.normal(size=(B, d_z))
        beta = 0.7  # != 0 and != 1 so a dropped factor shows up
        gold_in = np.array([[BOS, 4, 5], [BOS, 6, PAD]])
        targets = np.array([[4, 5, 2], [6, 2, PAD]])
        tmask = targets != PAD

        def loss():
            fwd = dec.forward_teacher(emb, u.value, summary.value,
                                      gold_in, targets, tmask, noise, beta)
            return fwd.loss

        params = dec.parameters() + [emb.table, u, summary]
        numeric = finite_difference_gradient(loss, params)

        for p in params:
            p.zero_grad()
        fwd = dec.forward_teacher(emb, u.value, summary.value,
                                  gold_in, targets, tmask, noise, beta)
        du, d_summary, dX = dec.backward(fwd)
        emb.accumulate_grad(fwd.input_ids, dX)
        analytic = {p.name: p.grad for p in dec.parameters()}
        analytic["embedding.table"] = emb.table.grad
        analytic["u"] = du
        analytic["summary"] = d_summary
        report = gradient_check(analytic, numeric, tol=1e-4)
        assert report.passed, report.format_table()

    def test_fixed_noise_is_deterministic(self):
        rng = np.random.default_rng(12)
        emb = Embedding(7, 3, rng)
        dec = tiny_decoder(seed=13)
        u = rng.normal(size=(1, 4))
        summary = rng.normal(size=(1, 3))
        noise = rng.normal(size=(1, 2))
        gold_in = np.array([[BOS, 4]])
        targets = np.array([[4, 2]])
        tmask = targets != PAD
        a = dec.forward_teacher(emb, u, summary, gold_in, targets, tmask, noise, 0.5)
        a_dW = dec.W_out.grad.copy()
        dec.W_out.zero_grad()
        b = dec.forward_teacher(emb, u, summary, gold_in, targets, tmask, noise, 0.5)
        assert a.loss == b.loss
        np.testing.assert_array_equal(a.d_hidden, b.d_hidden)
        assert a_dW.any()
        np.testing.assert_array_equal(a_dW, dec.W_out.grad)
        # and it is the loss of the logits the states give, to float64 rounding
        want = report_loss(a.states @ dec.W_out.value.T, targets, tmask, a.kl_rows, 0.5)
        assert abs(a.loss - want) <= 1e-12 * abs(want)

    def test_scheduled_sampling_draws_a_coin_per_row_and_later_step(self):
        rng = np.random.default_rng(16)
        emb = Embedding(7, 3, rng)
        dec = tiny_decoder(seed=17)
        gold_in = np.array([[BOS, 4, 5, 6], [BOS, 6, PAD, PAD]])
        targets = np.array([[4, 5, 6, 2], [6, 2, PAD, PAD]])
        coins = Mock(wraps=np.random.default_rng(0))
        fwd = dec.forward_teacher(emb, rng.normal(size=(2, 4)), rng.normal(size=(2, 3)),
                                  gold_in, targets, targets != PAD, rng.normal(size=(2, 2)),
                                  0.5, sample_rng=coins, teacher_forcing_ratio=0.0)
        assert [name for name, _, _ in coins.mock_calls] == ["random"] * 3
        assert [call.args for call in coins.random.call_args_list] == [(2,)] * 3
        # ratio 0 feeds the model's own argmax at every later step
        for t in range(1, gold_in.shape[1]):
            logits = fwd.states[:, t - 1] @ dec.W_out.value.T
            np.testing.assert_array_equal(fwd.input_ids[:, t], emittable_argmax(logits))

    def test_scheduled_sampling_feeds_neither_pad_nor_bos(self):
        # a head that ranks PAD first and BOS second: the feed takes the third
        rng = np.random.default_rng(16)
        emb = Embedding(7, 3, rng)
        dec = tiny_decoder(seed=17)
        dec.logits = ranked_head(7, 5)
        gold_in = np.array([[BOS, 4, 5, 6], [BOS, 6, PAD, PAD]])
        targets = np.array([[4, 5, 6, 2], [6, 2, PAD, PAD]])
        fwd = dec.forward_teacher(emb, rng.normal(size=(2, 4)), rng.normal(size=(2, 3)),
                                  gold_in, targets, targets != PAD, rng.normal(size=(2, 2)),
                                  0.5, sample_rng=np.random.default_rng(0),
                                  teacher_forcing_ratio=0.0)
        np.testing.assert_array_equal(fwd.input_ids[:, 0], BOS)
        np.testing.assert_array_equal(fwd.input_ids[:, 1:], 5)

    def test_loss_dominates_pure_nll(self):
        # NLL + beta*KL >= NLL since KL >= 0
        rng = np.random.default_rng(14)
        emb = Embedding(7, 3, rng)
        dec = tiny_decoder(seed=15)
        u = rng.normal(size=(1, 4))
        summary = rng.normal(size=(1, 3))
        noise = rng.normal(size=(1, 2))
        gold_in = np.array([[BOS, 4]])
        targets = np.array([[4, 2]])
        tmask = targets != PAD
        with_kl = dec.forward_teacher(emb, u, summary, gold_in, targets, tmask, noise, 1.0)
        pure = dec.forward_teacher(emb, u, summary, gold_in, targets, tmask, noise, 0.0)
        assert pure.loss == sequence_nll(pure.states, dec.W_out, targets, tmask)[0]
        assert with_kl.loss >= pure.loss


def step_at_a_time(dec, emb, u, summary, gold_in, targets, tmask, noise, beta,
                   sample_rng=None, ratio=1.0, lag=1):
    """Reference report pass: the recognition maps, the sample and the seed as
    plain formulas, the plain LSTM step once per step, feeding the argmax of
    the state `lag` steps back where a coin picks the model (lag 1 is the
    model's rule), and the backward passes once per step on the way back.
    Returns the forward values and the input gradients, and leaves the
    parameter gradients in dec."""
    for p in dec.parameters():
        p.zero_grad()
    B, K = gold_in.shape
    fmask = tmask.astype(float)
    recog_in = np.concatenate([u, summary], axis=1)
    mean = recog_in @ dec.W_mu.value.T + dec.b_mu.value
    logvar = recog_in @ dec.W_lv.value.T + dec.b_lv.value
    z = mean + np.exp(0.5 * logvar) * noise
    kl_rows = 0.5 * np.sum(np.exp(logvar) + mean * mean - 1.0 - logvar, axis=1)
    init_in = np.concatenate([z, u], axis=1)
    h0 = np.tanh(init_in @ dec.W_init.value.T + dec.b_init.value)
    h, c = h0, np.zeros_like(h0)
    input_ids = gold_in.copy()
    history, steps = [h0], []  # at step t, history[-k] is the state after step t - k
    for t in range(K):
        if ratio < 1.0 and t > 0:
            use_model = sample_rng.random(B) >= ratio
            logits = history[-lag] @ dec.W_out.value.T
            input_ids[:, t] = np.where(use_model, emittable_argmax(logits), gold_in[:, t])
        m = fmask[:, t:t + 1]
        x = emb.lookup(input_ids[:, t])
        h_new, c_new, cache = reference_lstm_step(dec.cell, x, h, c)
        steps.append((x, h, cache))
        h = m * h_new + (1.0 - m) * h
        c = m * c_new + (1.0 - m) * c
        history.append(h)
    states = np.stack(history[1:], axis=1)
    nll, dS, dW_out = reference_xent(states, dec.W_out.value, targets, tmask)
    dec.W_out.grad += dW_out
    dX, dh0 = reference_run_lstm_backward(dec.cell, ReferenceRun(steps, fmask, False), dS,
                                          np.zeros_like(h0))
    d_pre = dh0 * (1.0 - h0 * h0)
    dec.W_init.grad += d_pre.T @ init_in
    dec.b_init.grad += d_pre.sum(axis=0)
    d_init_in = d_pre @ dec.W_init.value
    dz, du = d_init_in[:, :dec.d_z], d_init_in[:, dec.d_z:]
    d_mean = (beta / B) * mean + dz
    d_logvar = (beta / B) * 0.5 * (np.exp(logvar) - 1.0) + dz * noise * 0.5 * np.exp(0.5 * logvar)
    for W, b, d in ((dec.W_mu, dec.b_mu, d_mean), (dec.W_lv, dec.b_lv, d_logvar)):
        W.grad += d.T @ recog_in
        b.grad += d.sum(axis=0)
    d_recog_in = d_mean @ dec.W_mu.value + d_logvar @ dec.W_lv.value
    d_u = u.shape[1]
    return {"loss": nll + beta * float(np.mean(kl_rows)), "d_hidden": dS, "states": states,
            "input_ids": input_ids, "d_u": du + d_recog_in[:, :d_u],
            "d_report_summary": d_recog_in[:, d_u:], "dX": dX}


class TestStepAtATimePass:
    """The report decoder runs one recurrence, scheduled-sampled ones
    included, then the chunked softmax cross-entropy. The fed inputs equal
    the step-at-a-time reference exactly; the loss, the NLL gradient the
    forward record holds, the states and every gradient equal it at REL_TOL."""

    # (B, K, d_hid); the second is the train-hier benchmark's batch and width
    SHAPES = [(2, 3, 3), (16, 11, 64)]

    def _fixture(self, B, K, H, vocab=40, d_z=8):
        rng = np.random.default_rng(B + K + H)
        emb = Embedding(vocab, H, rng)
        dec = ReportDecoder(vocab, H, H, 3 * H, d_z, rng)
        ids = np.full((B, K + 1), PAD)
        for b, n in enumerate(rng.integers(1, K + 1, size=B)):
            ids[b, :n + 1] = [BOS, *rng.integers(4, vocab, size=n - 1), 2]
        targets = ids[:, 1:]
        return (dec, emb, rng.normal(size=(B, 3 * H)), rng.normal(size=(B, H)),
                ids[:, :-1], targets, targets != PAD, rng.normal(size=(B, d_z)), 0.7)

    def _batched(self, dec, emb, *case, ratio):
        for p in dec.parameters():
            p.zero_grad()
        fwd = dec.forward_teacher(emb, *case, sample_rng=np.random.default_rng(3),
                                  teacher_forcing_ratio=ratio)
        d_u, d_summary, dX = dec.backward(fwd)
        return {"loss": fwd.loss, "d_hidden": fwd.d_hidden, "states": fwd.states,
                "input_ids": fwd.input_ids, "d_u": d_u, "d_report_summary": d_summary,
                "dX": dX}

    @pytest.mark.parametrize("ratio", [1.0, 0.5])
    @pytest.mark.parametrize("B,K,H", SHAPES)
    def test_matches_step_at_a_time(self, B, K, H, ratio):
        dec, emb, *case = self._fixture(B, K, H)
        ref = step_at_a_time(dec, emb, *case, np.random.default_rng(3), ratio)
        ref_grads = {p.name: p.grad.copy() for p in dec.parameters()}
        got = self._batched(dec, emb, *case, ratio=ratio)
        assert np.array_equal(got.pop("input_ids"), ref["input_ids"])
        for name in got:
            assert relative_error(got[name], ref[name]) <= REL_TOL, name
        for p in dec.parameters():
            assert relative_error(p.grad, ref_grads[p.name]) <= REL_TOL, p.name

    def test_feeding_the_state_two_steps_back_is_caught(self):
        # A reference whose sampled inputs read the argmax of the state two
        # steps back: the fed ids and everything after them must differ.
        dec, emb, *case = self._fixture(16, 11, 64)
        ref = step_at_a_time(dec, emb, *case, np.random.default_rng(3), 0.5, lag=2)
        got = self._batched(dec, emb, *case, ratio=0.5)
        assert not np.array_equal(got["input_ids"], ref["input_ids"])
        for name in ("loss", "states", "d_u", "dX"):
            assert relative_error(got[name], ref[name]) > REL_TOL, name

    @pytest.mark.parametrize("B,K,H", SHAPES)
    def test_scheduled_sampling_steps_the_cell_once_per_column(self, B, K, H):
        dec, emb, *case = self._fixture(B, K, H)
        dec.cell.step = Mock(wraps=dec.cell.step)
        dec.forward_teacher(emb, *case, sample_rng=np.random.default_rng(3),
                            teacher_forcing_ratio=0.5)
        assert dec.cell.step.call_count == K
