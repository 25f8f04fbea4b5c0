import math
from unittest.mock import Mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outline2report.corpus import BOS, PAD
from outline2report.encoder import Embedding
from outline2report.numerics import (
    LSTMRunCache, Parameter, finite_difference_gradient, gradient_check, log_softmax,
    run_lstm_backward)
from outline2report.outline_decoder import (
    OutlineDecoder, attend, attend_backward, sequence_nll, sequence_nll_backward)

from model_oracles import lstm_cell_step, outline_loss

LN20 = math.log(20.0)


def mats(d_enc, d_hid, rng=None):
    rng = rng or np.random.default_rng(0)
    W_a = Parameter("W_a", rng.normal(size=(d_enc, d_hid)))
    W_c = Parameter("W_c", rng.normal(size=(d_hid, d_enc + d_hid)))
    return W_a, W_c


class TestAttend:
    def test_identical_states_uniform(self):
        v = np.array([0.3, -1.2])
        H = np.tile(v, (1, 4, 1))
        W_a, W_c = mats(2, 3)
        step = attend(H, np.ones((1, 3)), np.ones((1, 4), dtype=bool), W_a, W_c)
        np.testing.assert_allclose(step.weights[0], 0.25, atol=1e-12)
        np.testing.assert_allclose(step.context[0], v, atol=1e-12)

    def test_single_unmasked_position(self):
        rng = np.random.default_rng(1)
        H = rng.normal(size=(1, 5, 4))
        mask = np.zeros((1, 5), dtype=bool)
        mask[0, 2] = True
        W_a, W_c = mats(4, 2, rng)
        step = attend(H, rng.normal(size=(1, 2)), mask, W_a, W_c)
        assert step.weights[0, 2] == 1.0
        assert step.weights.sum() == 1.0
        np.testing.assert_allclose(step.context[0], H[0, 2], atol=1e-12)

    def test_hand_scores_two_thirds(self):
        # query = W_a s = [1, 0]; scores h.query = (ln 2, 0) -> softmax (2/3, 1/3)
        H = np.array([[[math.log(2.0), 0.0], [0.0, 1.0]]])
        s = np.array([[1.0]])
        W_a = Parameter("W_a", np.array([[1.0], [0.0]]))
        W_c = Parameter("W_c", np.zeros((1, 3)))
        step = attend(H, s, np.ones((1, 2), dtype=bool), W_a, W_c)
        np.testing.assert_allclose(step.weights[0], [2 / 3, 1 / 3], atol=1e-12)
        np.testing.assert_allclose(
            step.context[0], [2 / 3 * math.log(2.0), 1 / 3], atol=1e-12)

    def test_all_masked_rejected(self):
        W_a, W_c = mats(2, 2)
        with pytest.raises(ValueError, match="masked"):
            attend(np.zeros((1, 3, 2)), np.zeros((1, 2)),
                   np.zeros((1, 3), dtype=bool), W_a, W_c)

    def test_masked_weights_exactly_zero(self):
        rng = np.random.default_rng(2)
        W_a, W_c = mats(4, 3, rng)
        mask = np.array([[True, False, True, False]])
        step = attend(rng.normal(size=(1, 4, 4)), rng.normal(size=(1, 3)),
                      mask, W_a, W_c)
        assert step.weights[0, 1] == 0.0 and step.weights[0, 3] == 0.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        W_a, W_c = mats(4, 3, rng)
        H = rng.normal(size=(1, 5, 4))
        s = rng.normal(size=(1, 3))
        mask = np.array([[True, True, True, True, False]])
        perm = np.array([3, 0, 4, 1, 2])
        base = attend(H, s, mask, W_a, W_c)
        shuffled = attend(H[:, perm], s, mask[:, perm], W_a, W_c)
        np.testing.assert_allclose(shuffled.weights[0], base.weights[0][perm], atol=1e-12)
        np.testing.assert_allclose(shuffled.context, base.context, atol=1e-12)
        np.testing.assert_allclose(shuffled.combined, base.combined, atol=1e-12)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_weights_form_distribution(self, seed):
        rng = np.random.default_rng(seed)
        B, T, d_hid = 2, 5, 3
        W_a, W_c = mats(2 * d_hid, d_hid, rng)
        mask = rng.random((B, T)) < 0.7
        mask[:, 0] = True
        step = attend(rng.normal(size=(B, T, 2 * d_hid)) * 3,
                      rng.normal(size=(B, d_hid)), mask, W_a, W_c)
        assert (step.weights >= 0).all()
        np.testing.assert_allclose(step.weights.sum(axis=1), 1.0, atol=1e-9)
        assert (step.weights[~mask] == 0).all()

    def test_context_in_convex_hull(self):
        rng = np.random.default_rng(5)
        W_a, W_c = mats(4, 2, rng)
        H = rng.normal(size=(1, 6, 4))
        step = attend(H, rng.normal(size=(1, 2)),
                      np.ones((1, 6), dtype=bool), W_a, W_c)
        lo, hi = H[0].min(axis=0), H[0].max(axis=0)
        assert (step.context[0] >= lo - 1e-12).all()
        assert (step.context[0] <= hi + 1e-12).all()

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        B, T, d_hid = 2, 4, 3
        W_a, W_c = mats(2 * d_hid, d_hid, rng)
        H = Parameter("H", rng.normal(size=(B, T, 2 * d_hid)))
        s = Parameter("s", rng.normal(size=(B, d_hid)))
        mask = np.array([[True] * 4, [True, True, False, False]])
        W = rng.normal(size=(B, d_hid))

        def loss():
            return float((attend(H.value, s.value, mask, W_a, W_c).combined * W).sum())

        numeric = finite_difference_gradient(loss, [W_a, W_c, H, s])
        for p in (W_a, W_c, H, s):
            p.zero_grad()
        step = attend(H.value, s.value, mask, W_a, W_c)
        dH, d_state = attend_backward(step, W.copy(), W_a, W_c)
        analytic = {"W_a": W_a.grad, "W_c": W_c.grad, "H": dH, "s": d_state}
        report = gradient_check(analytic, numeric, tol=1e-6)
        assert report.passed, report.format_table()


def token_distribution(dec, combined):
    """softmax(W_o . combined) over the vocabulary, per row."""
    return np.exp(log_softmax(combined @ dec.W_o.value.T, axis=-1))


class TestTokenDistribution:
    def _decoder(self, vocab=9, seed=0):
        return OutlineDecoder(vocab, d_emb=4, d_hid=3, rng=np.random.default_rng(seed))

    def test_zero_projection_uniform(self):
        dec = self._decoder(vocab=9)
        dec.W_o.value[:] = 0.0
        p = token_distribution(dec, np.random.default_rng(0).normal(size=(2, 3)))
        np.testing.assert_allclose(p, 1 / 9, atol=1e-15)

    def test_rows_sum_to_one(self):
        dec = self._decoder()
        p = token_distribution(dec, np.random.default_rng(1).normal(size=(4, 3)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_uniform_logit_shift_preserves_distribution(self):
        combined = np.random.default_rng(2).normal(size=(1, 3))
        dec = self._decoder()
        base = token_distribution(dec, combined)
        dec.W_o.value += 0.0  # same weights
        logits = combined @ dec.W_o.value.T
        shifted = np.exp(logits + 7.5) / np.exp(logits + 7.5).sum()
        assert np.argmax(shifted) == np.argmax(base)


class TestOutlineLoss:
    def test_uniform_three_steps(self):
        logits = np.zeros((1, 3, 20))
        targets = np.array([[4, 0, 19]])
        mask = np.ones((1, 3), dtype=bool)
        assert abs(outline_loss(logits, targets, mask) - 3 * LN20) < 1e-12

    def test_certain_gold_token_zero_loss(self):
        logits = np.zeros((1, 2, 6))
        targets = np.array([[3, 1]])
        logits[0, 0, 3] = 1000.0
        logits[0, 1, 1] = 1000.0
        assert outline_loss(logits, targets, np.ones((1, 2), dtype=bool)) == 0.0

    def test_hand_half_quarter(self):
        # softmax([ln 2, 0, 0]) = (0.5, 0.25, 0.25)
        logits = np.zeros((1, 2, 3))
        logits[:, :, 0] = math.log(2.0)
        targets = np.array([[0, 1]])
        loss = outline_loss(logits, targets, np.ones((1, 2), dtype=bool))
        assert abs(loss - (-math.log(0.5) - math.log(0.25))) < 1e-12
        assert abs(loss - math.log(8.0)) < 1e-12

    def test_out_of_range_target_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            outline_loss(np.zeros((1, 1, 5)), np.array([[5]]),
                         np.ones((1, 1), dtype=bool))

    def test_mask_excludes_steps(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(1, 3, 8))
        targets = np.array([[1, 2, 3]])
        m_full = np.array([[True, True, False]])
        both = outline_loss(logits, targets, m_full)
        first_two = outline_loss(logits[:, :2], targets[:, :2],
                                 np.ones((1, 2), dtype=bool))
        assert abs(both - first_two) < 1e-12

    def test_batch_mean_reduction(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(2, 2, 5))
        targets = np.array([[0, 1], [2, 3]])
        mask = np.ones((2, 2), dtype=bool)
        together = outline_loss(logits, targets, mask)
        separate = [outline_loss(logits[b:b + 1], targets[b:b + 1], mask[b:b + 1])
                    for b in range(2)]
        assert abs(together - sum(separate) / 2) < 1e-12

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(2, 3, 6)) * 5
        targets = rng.integers(0, 6, size=(2, 3))
        mask = rng.random((2, 3)) < 0.8
        assert outline_loss(logits, targets, mask) >= 0.0

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        logits = Parameter("logits", rng.normal(size=(2, 3, 5)))
        targets = np.array([[0, 4, 2], [1, 1, 3]])
        mask = np.array([[True, True, True], [True, False, False]])

        def loss():
            return outline_loss(logits.value, targets, mask)

        numeric = finite_difference_gradient(loss, [logits])
        _, probs = sequence_nll(logits.value, targets, mask)
        analytic = sequence_nll_backward(probs, targets, mask)
        report = gradient_check({"logits": analytic}, numeric, tol=1e-6)
        assert report.passed, report.format_table()


class TestDecoderSteps:
    def test_zero_weights_zero_state(self):
        dec = OutlineDecoder(5, 3, 2, np.random.default_rng(0))
        for p in dec.cell.parameters():
            p.value[:] = 0.0
        (s, c), _ = dec.step(np.ones((1, 3)), (np.zeros((1, 2)), np.zeros((1, 2))))
        assert not s.any() and not c.any()

    def test_step_matches_functional_cell(self):
        rng = np.random.default_rng(1)
        dec = OutlineDecoder(5, 3, 2, rng)
        x = rng.normal(size=(1, 3))
        s0, c0 = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
        (s, c), _ = dec.step(x, (s0, c0))
        h_ref, c_ref = lstm_cell_step(
            x[0], s0[0], c0[0], dec.cell.W_x.value, dec.cell.W_h.value,
            dec.cell.b.value)
        np.testing.assert_allclose(s[0], h_ref, atol=1e-12)
        np.testing.assert_allclose(c[0], c_ref, atol=1e-12)

    def test_initial_state_bridge(self):
        dec = OutlineDecoder(5, 3, 2, np.random.default_rng(2))
        h_fin = np.random.default_rng(3).normal(size=(2, 2))
        s0, c0 = dec.initial_state(h_fin)
        assert not c0.any()
        ref = np.tanh(h_fin @ dec.bridge_W.value.T + dec.bridge_b.value)
        np.testing.assert_allclose(s0, ref, atol=1e-12)
        assert (np.abs(s0) < 1).all()


class TestTeacherForcedPass:
    def _fixture(self, seed=0, vocab=7, d_emb=3, d_hid=2, B=2, T_enc=3, K=3):
        rng = np.random.default_rng(seed)
        emb = Embedding(vocab, d_emb, rng)
        dec = OutlineDecoder(vocab, d_emb, d_hid, rng)
        enc_states = Parameter("enc_states", rng.normal(size=(B, T_enc, 2 * d_hid)))
        h_fwd_fin = Parameter("h_fwd_fin", rng.normal(size=(B, d_hid)))
        enc_mask = np.array([[True] * T_enc, [True, True, False]])
        gold_in = np.array([[BOS, 4, 5], [BOS, 6, PAD]])
        targets = np.array([[4, 5, 2], [6, 2, PAD]])
        tmask = targets != PAD
        return emb, dec, enc_states, h_fwd_fin, enc_mask, gold_in, targets, tmask

    def test_full_pass_gradients(self):
        (emb, dec, enc_states, h_fwd_fin, enc_mask,
         gold_in, targets, tmask) = self._fixture()

        def loss():
            fwd = dec.forward_teacher(emb, enc_states.value, enc_mask,
                                      h_fwd_fin.value, gold_in, targets, tmask)
            return fwd.loss

        params = dec.parameters() + [emb.table, enc_states, h_fwd_fin]
        numeric = finite_difference_gradient(loss, params)

        for p in params:
            p.zero_grad()
        fwd = dec.forward_teacher(emb, enc_states.value, enc_mask,
                                  h_fwd_fin.value, gold_in, targets, tmask)
        d_enc, d_in_emb, d_h_fin = dec.backward(fwd, targets, tmask)
        emb.accumulate_grad(fwd.input_ids, d_in_emb)
        emb.freeze_pad_row()
        analytic = {p.name: p.grad for p in dec.parameters()}
        analytic["embedding.table"] = emb.table.grad
        analytic["enc_states"] = d_enc
        analytic["h_fwd_fin"] = d_h_fin
        report = gradient_check(analytic, numeric, tol=1e-4)
        assert report.passed, report.format_table()

    def test_loss_scale_multiplies_gradients(self):
        (emb, dec, enc_states, h_fwd_fin, enc_mask,
         gold_in, targets, tmask) = self._fixture(seed=1)
        grads = {}
        for scale in (1.0, 2.0):
            for p in dec.parameters():
                p.zero_grad()
            fwd = dec.forward_teacher(emb, enc_states.value, enc_mask,
                                      h_fwd_fin.value, gold_in, targets, tmask)
            dec.backward(fwd, targets, tmask, loss_scale=scale)
            grads[scale] = {p.name: p.grad.copy() for p in dec.parameters()}
        for name in grads[1.0]:
            np.testing.assert_allclose(grads[2.0][name], 2.0 * grads[1.0][name],
                                       atol=1e-12)

    def test_teacher_forced_inputs_are_gold(self):
        (emb, dec, enc_states, h_fwd_fin, enc_mask,
         gold_in, targets, tmask) = self._fixture(seed=2)
        fwd = dec.forward_teacher(emb, enc_states.value, enc_mask,
                                  h_fwd_fin.value, gold_in, targets, tmask)
        np.testing.assert_array_equal(fwd.input_ids, gold_in)

    def test_scheduled_sampling_feeds_own_argmax(self):
        (emb, dec, enc_states, h_fwd_fin, enc_mask,
         gold_in, targets, tmask) = self._fixture(seed=3)
        rng = np.random.default_rng(0)
        fwd = dec.forward_teacher(emb, enc_states.value, enc_mask,
                                  h_fwd_fin.value, gold_in, targets, tmask,
                                  sample_rng=rng, teacher_forcing_ratio=0.0)
        np.testing.assert_array_equal(fwd.input_ids[:, 0], gold_in[:, 0])
        for t in range(1, gold_in.shape[1]):
            np.testing.assert_array_equal(
                fwd.input_ids[:, t], np.argmax(fwd.logits[:, t - 1], axis=1))

    def test_scheduled_sampling_is_seed_deterministic(self):
        (emb, dec, enc_states, h_fwd_fin, enc_mask,
         gold_in, targets, tmask) = self._fixture(seed=4)
        runs = []
        for _ in range(2):
            fwd = dec.forward_teacher(emb, enc_states.value, enc_mask,
                                      h_fwd_fin.value, gold_in, targets, tmask,
                                      sample_rng=np.random.default_rng(42),
                                      teacher_forcing_ratio=0.5)
            runs.append(fwd.input_ids.copy())
        np.testing.assert_array_equal(runs[0], runs[1])


def scaled_mats(d_enc, d_hid, rng):
    """W_a, W_c at the init scale, so tanh does not saturate at d_hid = 64."""
    W_a = Parameter("W_a", rng.normal(size=(d_enc, d_hid)) / math.sqrt(d_hid))
    W_c = Parameter("W_c", rng.normal(size=(d_hid, d_enc + d_hid)) / math.sqrt(d_enc + d_hid))
    return W_a, W_c


def prefix_mask(rng, B, T, min_len=1):
    return np.arange(T)[None, :] < rng.integers(min_len, T + 1, size=(B, 1))


# (B, K, T_enc, d_hid); the second is the train-hier benchmark's shape, where
# BLAS sizes differ enough to expose a change of summation order.
SHAPES = [(2, 3, 4, 3), (16, 11, 40, 64)]


class TestStepBatchedAttention:
    @pytest.mark.parametrize("B,K,T,H", SHAPES)
    def test_equals_one_call_per_step(self, B, K, T, H):
        rng = np.random.default_rng(B * K)
        W_a, W_c = scaled_mats(2 * H, H, rng)
        enc = rng.normal(size=(B, T, 2 * H))
        mask = prefix_mask(rng, B, T)
        states = rng.normal(size=(B, K, H))
        d_combined = rng.normal(size=(B, K, H))

        batched = attend(enc, states, mask, W_a, W_c)
        d_enc, d_states = attend_backward(batched, d_combined, W_a, W_c)
        grads = {"W_a": W_a.grad.copy(), "W_c": W_c.grad.copy()}

        W_a.zero_grad()
        W_c.zero_grad()
        ref_enc = np.zeros_like(enc)
        for k in range(K):
            step = attend(enc, states[:, k], mask, W_a, W_c)
            for field in ("query", "weights", "context", "combined"):
                assert np.array_equal(getattr(batched, field)[:, k], getattr(step, field)), field
            dH, d_state = attend_backward(step, d_combined[:, k], W_a, W_c)
            ref_enc += dH
            assert np.array_equal(d_states[:, k], d_state)
        assert np.array_equal(d_enc, ref_enc)
        assert np.array_equal(grads["W_a"], W_a.grad)
        assert np.array_equal(grads["W_c"], W_c.grad)


def step_at_a_time(dec, emb, enc_states, enc_mask, h_fwd_fin, gold_in, targets,
                   tmask, d_states_extra, loss_scale, sample_rng=None, ratio=1.0):
    """Reference teacher-forced pass: dec.step and attend once per step, and
    attend_backward once per step on the way back. Returns the forward values
    and the input gradients, and leaves the parameter gradients in dec."""
    for p in dec.parameters():
        p.zero_grad()
    B, K = gold_in.shape
    fmask = tmask.astype(float)
    s0, c = dec.initial_state(h_fwd_fin)
    s = s0
    input_ids = gold_in.copy()
    states, caches, steps, logits = [], [], [], []
    for t in range(K):
        if ratio < 1.0 and t > 0:
            use_model = sample_rng.random(B) >= ratio
            input_ids[:, t] = np.where(use_model, np.argmax(logits[-1], axis=1), gold_in[:, t])
        m = fmask[:, t:t + 1]
        (s_new, c_new), cache = dec.step(emb.lookup(input_ids[:, t]), (s, c))
        s = m * s_new + (1.0 - m) * s
        c = m * c_new + (1.0 - m) * c
        attn = attend(enc_states, s, enc_mask, dec.W_a, dec.W_c)
        states.append(s)
        caches.append(cache)
        steps.append(attn)
        logits.append(attn.combined @ dec.W_o.value.T)
    logits = np.stack(logits, axis=1)
    loss, probs = sequence_nll(logits, targets, tmask)

    combined = np.stack([a.combined for a in steps], axis=1)
    d_logits = sequence_nll_backward(probs, targets, tmask, scale=loss_scale)
    dec.W_o.grad += np.einsum("btv,bth->vh", d_logits, combined)
    d_combined = np.einsum("btv,vh->bth", d_logits, dec.W_o.value)
    d_enc = np.zeros_like(enc_states)
    dS = d_states_extra.copy()
    for t in range(K):
        dH, d_state = attend_backward(steps[t], d_combined[:, t], dec.W_a, dec.W_c)
        d_enc += dH
        dS[:, t] += d_state
    dX, ds0, _ = run_lstm_backward(dec.cell, LSTMRunCache(caches, fmask, False), dS)
    d_pre = ds0 * (1.0 - s0 * s0)
    dec.bridge_W.grad += d_pre.T @ h_fwd_fin
    dec.bridge_b.grad += d_pre.sum(axis=0)
    return {"loss": loss, "logits": logits, "states": np.stack(states, axis=1),
            "input_ids": input_ids, "d_enc": d_enc, "dX": dX,
            "d_h_fwd_fin": d_pre @ dec.bridge_W.value}


class TestStepBatchedPass:
    """The decoder runs one recurrence, then one attention call over all
    steps; every number must equal the step-at-a-time reference bit for bit."""

    def _fixture(self, B, K, T, H, vocab=40):
        rng = np.random.default_rng(B + K + T + H)
        emb = Embedding(vocab, H, rng)
        dec = OutlineDecoder(vocab, H, H, rng)
        enc_states = rng.normal(size=(B, T, 2 * H))
        enc_mask = prefix_mask(rng, B, T)
        h_fwd_fin = rng.normal(size=(B, H))
        ids = np.full((B, K + 1), PAD)
        for b, n in enumerate(rng.integers(1, K + 1, size=B)):
            ids[b, :n + 1] = [BOS, *rng.integers(4, vocab, size=n - 1), 2]
        targets = ids[:, 1:]
        extra = rng.normal(size=(B, K, H))
        return emb, dec, enc_states, enc_mask, h_fwd_fin, ids[:, :-1], targets, targets != PAD, extra

    @pytest.mark.parametrize("ratio", [1.0, 0.5])
    @pytest.mark.parametrize("B,K,T,H", SHAPES)
    def test_matches_step_at_a_time(self, B, K, T, H, ratio):
        emb, dec, enc, enc_mask, h_fin, gold_in, targets, tmask, extra = self._fixture(B, K, T, H)
        ref = step_at_a_time(dec, emb, enc, enc_mask, h_fin, gold_in, targets, tmask,
                             extra, 0.7, np.random.default_rng(3), ratio)
        ref_grads = {p.name: p.grad.copy() for p in dec.parameters()}

        for p in dec.parameters():
            p.zero_grad()
        fwd = dec.forward_teacher(emb, enc, enc_mask, h_fin, gold_in, targets, tmask,
                                  sample_rng=np.random.default_rng(3),
                                  teacher_forcing_ratio=ratio)
        d_enc, dX, d_h_fwd_fin = dec.backward(fwd, targets, tmask,
                                              d_states_extra=extra, loss_scale=0.7)
        got = {"loss": fwd.loss, "logits": fwd.logits, "states": fwd.states,
               "input_ids": fwd.input_ids, "d_enc": d_enc, "dX": dX,
               "d_h_fwd_fin": d_h_fwd_fin}
        for name, value in ref.items():
            assert np.array_equal(got[name], value), name
        for p in dec.parameters():
            assert np.array_equal(p.grad, ref_grads[p.name]), p.name

    def test_scheduled_sampling_draws_a_coin_per_row_and_later_step(self):
        B, K = 3, 5
        emb, dec, enc, enc_mask, h_fin, gold_in, targets, tmask, _ = self._fixture(B, K, 4, 3)
        coins = Mock(wraps=np.random.default_rng(0))
        dec.forward_teacher(emb, enc, enc_mask, h_fin, gold_in, targets, tmask,
                            sample_rng=coins, teacher_forcing_ratio=0.5)
        assert [call.args for call in coins.random.call_args_list] == [(B,)] * (K - 1)
        assert [name for name, _, _ in coins.mock_calls] == ["random"] * (K - 1)
