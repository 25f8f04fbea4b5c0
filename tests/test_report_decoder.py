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
from outline2report.report_decoder import (
    ReportDecoder, fuse_news_outline, gaussian_kl, masked_mean_pool,
    reparameterize)

from model_oracles import lstm_cell_step, outline_loss, report_loss

LN20 = math.log(20.0)


class TestMaskedMeanPool:
    def test_averages_only_unmasked(self):
        X = np.array([[[2.0, 4.0], [6.0, 8.0], [99.0, 99.0]]])
        mask = np.array([[True, True, False]])
        pooled, lengths = masked_mean_pool(X, mask)
        np.testing.assert_allclose(pooled[0], [4.0, 6.0], atol=1e-15)
        assert lengths[0] == 2.0

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


class TestReportLoss:
    def test_perfect_predictions_leave_weighted_kl(self):
        logits = np.zeros((1, 2, 6))
        targets = np.array([[3, 1]])
        logits[0, 0, 3] = 1000.0
        logits[0, 1, 1] = 1000.0
        mask = np.ones((1, 2), dtype=bool)
        loss = report_loss(logits, targets, mask, kl=0.5, beta=0.6)
        assert abs(loss - 0.3) < 1e-15

    def test_uniform_two_steps(self):
        logits = np.zeros((1, 2, 20))
        loss = report_loss(logits, np.array([[7, 0]]), np.ones((1, 2), dtype=bool),
                           kl=0.0, beta=1.0)
        assert abs(loss - 2 * LN20) < 1e-12

    def test_beta_zero_is_pure_nll(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(2, 3, 9))
        targets = rng.integers(0, 9, size=(2, 3))
        mask = rng.random((2, 3)) < 0.8
        with_term = report_loss(logits, targets, mask, kl=123.0, beta=0.0)
        assert with_term == outline_loss(logits, targets, mask)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            report_loss(np.zeros((1, 1, 4)), np.array([[0]]),
                        np.ones((1, 1), dtype=bool), kl=0.0, beta=-0.1)

    def test_kl_term_is_batch_mean(self):
        logits = np.zeros((2, 1, 4))
        targets = np.array([[0], [0]])
        mask = np.ones((2, 1), dtype=bool)
        loss = report_loss(logits, targets, mask, kl=np.array([1.0, 3.0]), beta=1.0)
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
        latent, _ = dec.infer_latent(u, summary, np.zeros((2, 2)))
        np.testing.assert_array_equal(latent.z, latent.mean)

    def test_zero_affines_identity_noise(self):
        dec = tiny_decoder()
        for p in (dec.W_mu, dec.b_mu, dec.W_lv, dec.b_lv):
            p.value[:] = 0.0
        eps = np.random.default_rng(2).normal(size=(2, 2))
        latent, _ = dec.infer_latent(np.ones((2, 4)), np.ones((2, 3)), eps)
        assert not latent.mean.any() and not latent.logvar.any()
        np.testing.assert_array_equal(latent.z, eps)

    def test_prior_latent_deterministic_mode(self):
        dec = tiny_decoder()
        latent = dec.prior_latent(3)
        assert not latent.mean.any() and not latent.logvar.any()
        assert not latent.z.any()

    def test_prior_latent_sampled_mode(self):
        dec = tiny_decoder()
        eps = np.random.default_rng(3).normal(size=(3, 2))
        latent = dec.prior_latent(3, noise=eps)
        np.testing.assert_array_equal(latent.z, eps)
        assert not latent.mean.any()

    def test_recorded_noise_reproduces_sample(self):
        dec = tiny_decoder()
        rng = np.random.default_rng(4)
        latent, _ = dec.infer_latent(rng.normal(size=(1, 4)), rng.normal(size=(1, 3)),
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
        s, c, _ = dec.cell.step(np.ones((1, 3)), np.zeros((1, 2)), np.zeros((1, 2)))
        assert not s.any() and not c.any()

    def test_purity(self):
        dec = tiny_decoder(seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 3))
        s0, c0 = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
        a = dec.cell.step(x, s0, c0)
        b = dec.cell.step(x, s0, c0)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_matches_functional_cell(self):
        dec = tiny_decoder(seed=7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 3))
        s0, c0 = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
        s, c, _ = dec.cell.step(x, s0, c0)
        h_ref, c_ref = lstm_cell_step(x[0], s0[0], c0[0], dec.cell.W_x.value,
                                      dec.cell.W_h.value, dec.cell.b.value)
        np.testing.assert_allclose(s[0], h_ref, atol=1e-12)
        np.testing.assert_allclose(c[0], c_ref, atol=1e-12)

    def test_initial_state_from_latent_and_fusion(self):
        dec = tiny_decoder(seed=9)
        rng = np.random.default_rng(10)
        z = rng.normal(size=(2, 2))
        u = rng.normal(size=(2, 4))
        h0, c0, init_in = dec.initial_state(z, u)
        assert not c0.any()
        ref = np.tanh(np.concatenate([z, u], axis=1) @ dec.W_init.value.T
                      + dec.b_init.value)
        np.testing.assert_allclose(h0, ref, atol=1e-12)
        np.testing.assert_array_equal(init_in, np.concatenate([z, u], axis=1))


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
        du, d_summary, dX = dec.backward(fwd, targets, tmask)
        emb.accumulate_grad(fwd.input_ids, dX)
        emb.freeze_pad_row()
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
        b = dec.forward_teacher(emb, u, summary, gold_in, targets, tmask, noise, 0.5)
        assert a.loss == b.loss
        np.testing.assert_array_equal(a.logits, b.logits)

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
        np.testing.assert_array_equal(fwd.input_ids[:, 1:], np.argmax(fwd.logits[:, :-1], axis=2))

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
        assert with_kl.loss >= with_kl.nll
