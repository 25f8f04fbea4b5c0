import math
import threading
import tracemalloc
import warnings
from unittest.mock import Mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outline2report import outline_decoder
from outline2report.corpus import BOS, PAD
from outline2report.encoder import BiLSTMEncoder, Embedding
from outline2report.numerics import (
    Parameter, finite_difference_gradient, gradient_check, log_softmax)
from outline2report.outline_decoder import OutlineDecoder, attend, attend_backward, sequence_nll

from model_oracles import (REL_TOL, emittable_argmax, lstm_cell_step, outline_loss,
                           ranked_head, reference_attend_steps, reference_lstm_step,
                           reference_run_lstm, reference_run_lstm_backward, reference_xent,
                           ReferenceRun, relative_error, two_pass_sequence_nll,
                           two_pass_sequence_nll_backward)

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
        step = attend(H, np.ones((1, 1, 3)), np.ones((1, 4), dtype=bool), W_a, W_c)
        np.testing.assert_allclose(step.weights[0, 0], 0.25, atol=1e-12)
        np.testing.assert_allclose(step.context[0, 0], v, atol=1e-12)

    def test_single_unmasked_position(self):
        rng = np.random.default_rng(1)
        H = rng.normal(size=(1, 5, 4))
        mask = np.zeros((1, 5), dtype=bool)
        mask[0, 2] = True
        W_a, W_c = mats(4, 2, rng)
        step = attend(H, rng.normal(size=(1, 1, 2)), mask, W_a, W_c)
        assert step.weights[0, 0, 2] == 1.0
        assert step.weights.sum() == 1.0
        np.testing.assert_allclose(step.context[0, 0], H[0, 2], atol=1e-12)

    def test_hand_scores_two_thirds(self):
        # query = W_a s = [1, 0]; scores h.query = (ln 2, 0) -> softmax (2/3, 1/3)
        H = np.array([[[math.log(2.0), 0.0], [0.0, 1.0]]])
        s = np.array([[[1.0]]])
        W_a = Parameter("W_a", np.array([[1.0], [0.0]]))
        W_c = Parameter("W_c", np.zeros((1, 3)))
        step = attend(H, s, np.ones((1, 2), dtype=bool), W_a, W_c)
        np.testing.assert_allclose(step.weights[0, 0], [2 / 3, 1 / 3], atol=1e-12)
        np.testing.assert_allclose(
            step.context[0, 0], [2 / 3 * math.log(2.0), 1 / 3], atol=1e-12)

    def test_all_masked_rejected(self):
        W_a, W_c = mats(2, 2)
        with pytest.raises(ValueError, match="masked"):
            attend(np.zeros((1, 3, 2)), np.zeros((1, 1, 2)),
                   np.zeros((1, 3), dtype=bool), W_a, W_c)

    def test_masked_weights_exactly_zero(self):
        rng = np.random.default_rng(2)
        W_a, W_c = mats(4, 3, rng)
        mask = np.array([[True, False, True, False]])
        step = attend(rng.normal(size=(1, 4, 4)), rng.normal(size=(1, 1, 3)),
                      mask, W_a, W_c)
        assert step.weights[0, 0, 1] == 0.0 and step.weights[0, 0, 3] == 0.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        W_a, W_c = mats(4, 3, rng)
        H = rng.normal(size=(1, 5, 4))
        s = rng.normal(size=(1, 1, 3))
        mask = np.array([[True, True, True, True, False]])
        perm = np.array([3, 0, 4, 1, 2])
        base = attend(H, s, mask, W_a, W_c)
        shuffled = attend(H[:, perm], s, mask[:, perm], W_a, W_c)
        np.testing.assert_allclose(shuffled.weights[0, 0], base.weights[0, 0][perm], atol=1e-12)
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
                      rng.normal(size=(B, 1, d_hid)), mask, W_a, W_c)
        weights = step.weights[:, 0]
        assert (weights >= 0).all()
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)
        assert (weights[~mask] == 0).all()

    def test_context_in_convex_hull(self):
        rng = np.random.default_rng(5)
        W_a, W_c = mats(4, 2, rng)
        H = rng.normal(size=(1, 6, 4))
        step = attend(H, rng.normal(size=(1, 1, 2)),
                      np.ones((1, 6), dtype=bool), W_a, W_c)
        lo, hi = H[0].min(axis=0), H[0].max(axis=0)
        assert (step.context[0, 0] >= lo - 1e-12).all()
        assert (step.context[0, 0] <= hi + 1e-12).all()

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        B, T, d_hid = 2, 4, 3
        W_a, W_c = mats(2 * d_hid, d_hid, rng)
        H = Parameter("H", rng.normal(size=(B, T, 2 * d_hid)))
        s = Parameter("s", rng.normal(size=(B, 1, d_hid)))
        mask = np.array([[True] * 4, [True, True, False, False]])
        W = rng.normal(size=(B, 1, d_hid))

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

    def test_backward_matches_finite_differences_for_k_queries(self):
        # K queries per row, as a teacher-forced pass attends; row 1 partly masked
        rng = np.random.default_rng(8)
        B, K, T, d_hid = 2, 3, 4, 3
        W_a, W_c = mats(2 * d_hid, d_hid, rng)
        H = Parameter("H", rng.normal(size=(B, T, 2 * d_hid)))
        s = Parameter("s", rng.normal(size=(B, K, d_hid)))
        mask = np.array([[True] * 4, [True, False, True, False]])
        W = rng.normal(size=(B, K, d_hid))

        def loss():
            return float((attend(H.value, s.value, mask, W_a, W_c).combined * W).sum())

        numeric = finite_difference_gradient(loss, [W_a, W_c, H, s])
        for p in (W_a, W_c, H, s):
            p.zero_grad()
        step = attend(H.value, s.value, mask, W_a, W_c)
        dH, d_state = attend_backward(step, W.copy(), W_a, W_c)
        assert not dH[1, [1, 3]].any()  # masked positions get no gradient
        analytic = {"W_a": W_a.grad, "W_c": W_c.grad, "H": dH, "s": d_state}
        report = gradient_check(analytic, numeric, tol=1e-6)
        assert report.passed, report.format_table()


def token_distribution(dec, combined):
    """softmax(W_o . combined) over the vocabulary, per row."""
    return np.exp(log_softmax(combined @ dec.W_o.value.T))


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


def nll_and_grads(hidden, W, targets, mask, scale=1.0):
    """sequence_nll on a weight array W [V,H]: (loss, d_hidden, dW), dW what
    the call adds into the grad of a fresh Parameter, which starts at zero."""
    W = Parameter("W", W)
    return (*sequence_nll(hidden, W, targets, mask, scale), W.grad)


def fused_loss(logits, targets, mask):
    """sequence_nll on states whose projection through W = I is exactly
    `logits` (each logit is x * 1 plus zeros), so closed forms apply."""
    logits = np.asarray(logits, dtype=float)
    return nll_and_grads(logits, np.eye(logits.shape[-1]), targets, mask)[0]


class TestOutlineLoss:
    """Closed forms for the chunked kernel and for the full-logit oracle."""

    LOSSES = (fused_loss, outline_loss)

    def test_uniform_three_steps(self):
        logits = np.zeros((1, 3, 20))
        targets = np.array([[4, 0, 19]])
        mask = np.ones((1, 3), dtype=bool)
        for loss in self.LOSSES:
            assert abs(loss(logits, targets, mask) - 3 * LN20) < 1e-12

    def test_certain_gold_token_zero_loss(self):
        logits = np.zeros((1, 2, 6))
        targets = np.array([[3, 1]])
        logits[0, 0, 3] = 1000.0
        logits[0, 1, 1] = 1000.0
        for loss in self.LOSSES:
            assert loss(logits, targets, np.ones((1, 2), dtype=bool)) == 0.0

    def test_hand_half_quarter(self):
        # softmax([ln 2, 0, 0]) = (0.5, 0.25, 0.25)
        logits = np.zeros((1, 2, 3))
        logits[:, :, 0] = math.log(2.0)
        targets = np.array([[0, 1]])
        for loss_fn in self.LOSSES:
            loss = loss_fn(logits, targets, np.ones((1, 2), dtype=bool))
            assert abs(loss - (-math.log(0.5) - math.log(0.25))) < 1e-12
            assert abs(loss - math.log(8.0)) < 1e-12

    def test_out_of_range_target_rejected(self):
        for loss in self.LOSSES:
            with pytest.raises(ValueError, match="out of range"):
                loss(np.zeros((1, 1, 5)), np.array([[5]]), np.ones((1, 1), dtype=bool))

    def test_mask_excludes_steps(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(1, 3, 8))
        targets = np.array([[1, 2, 3]])
        m_full = np.array([[True, True, False]])
        for loss in self.LOSSES:
            both = loss(logits, targets, m_full)
            first_two = loss(logits[:, :2], targets[:, :2], np.ones((1, 2), dtype=bool))
            assert abs(both - first_two) < 1e-12

    def test_batch_mean_reduction(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(2, 2, 5))
        targets = np.array([[0, 1], [2, 3]])
        mask = np.ones((2, 2), dtype=bool)
        for loss in self.LOSSES:
            together = loss(logits, targets, mask)
            separate = [loss(logits[b:b + 1], targets[b:b + 1], mask[b:b + 1])
                        for b in range(2)]
            assert abs(together - sum(separate) / 2) < 1e-12

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        hidden = rng.normal(size=(2, 3, 4)) * 5
        W = rng.normal(size=(6, 4))
        targets = rng.integers(0, 6, size=(2, 3))
        mask = rng.random((2, 3)) < 0.8
        assert nll_and_grads(hidden, W, targets, mask)[0] >= 0.0
        assert outline_loss(hidden @ W.T, targets, mask) >= 0.0

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        hidden = Parameter("hidden", rng.normal(size=(2, 3, 4)))
        W = Parameter("W", rng.normal(size=(5, 4)))
        targets = np.array([[0, 4, 2], [1, 1, 3]])
        mask = np.array([[True, True, True], [True, False, False]])

        def loss():
            return nll_and_grads(hidden.value, W.value, targets, mask)[0]

        numeric = finite_difference_gradient(loss, [hidden, W])
        _, d_hidden, dW = nll_and_grads(hidden.value, W.value, targets, mask)
        report = gradient_check({"hidden": d_hidden, "W": dW}, numeric, tol=1e-6)
        assert report.passed, report.format_table()


def xent_case(rng, B, T, n_valid, H=6, V=13):
    """A problem with exactly n_valid valid rows at random places, so small
    counts leave whole rows of the batch masked."""
    mask = np.zeros(B * T, dtype=bool)
    mask[rng.choice(B * T, size=n_valid, replace=False)] = True
    return (rng.normal(size=(B, T, H)), rng.normal(size=(V, H)),
            rng.integers(0, V, size=(B, T)), mask.reshape(B, T))


def xent_errors(hidden, W, targets, mask, scale=0.7):
    """Relative errors of the chunked loss and gradients against the
    full-logit reference: loss, d_hidden, dW."""
    loss, d_hidden, dW = nll_and_grads(hidden, W, targets, mask, scale)
    ref_loss, ref_d_hidden, ref_dW = reference_xent(hidden, W, targets, mask, scale)
    return {"loss": abs(loss - ref_loss) / abs(ref_loss),
            "d_hidden": relative_error(d_hidden, ref_d_hidden),
            "dW": relative_error(dW, ref_dW)}


class TestChunkedXent:
    """The chunked, fused softmax cross-entropy equals the full-logit
    log-softmax reference to rel 1e-12: float64 rounding of a V-term sum
    and a different summation order, nothing more."""

    TOL = 1e-12

    # with 4-row chunks: one partial chunk, exactly one, one plus a row,
    # exactly two, several with a remainder, an exact multiple
    @pytest.mark.parametrize("n_valid", [1, 3, 4, 5, 8, 13, 16])
    def test_matches_reference_at_small_chunks(self, monkeypatch, n_valid):
        monkeypatch.setattr(outline_decoder, "XENT_CHUNK", 4)
        case = xent_case(np.random.default_rng(n_valid), B=4, T=6, n_valid=n_valid)
        errors = xent_errors(*case)
        assert max(errors.values()) <= self.TOL, errors

    def test_matches_reference_at_the_module_chunk(self):
        # about 210 valid rows: one full 128-row chunk and a partial one
        rng = np.random.default_rng(21)
        hidden, W = rng.normal(size=(3, 100, 8)), rng.normal(size=(50, 8))
        targets = rng.integers(0, 50, size=(3, 100))
        mask = rng.random((3, 100)) < 0.7
        assert outline_decoder.XENT_CHUNK < mask.sum() < 2 * outline_decoder.XENT_CHUNK
        errors = xent_errors(hidden, W, targets, mask)
        assert max(errors.values()) <= self.TOL, errors

    def test_one_chunk_equals_many(self, monkeypatch):
        case = xent_case(np.random.default_rng(5), B=3, T=7, n_valid=17)
        one = xent_errors(*case)
        monkeypatch.setattr(outline_decoder, "XENT_CHUNK", 2)
        many = xent_errors(*case)
        assert max(one.values()) <= self.TOL and max(many.values()) <= self.TOL, (one, many)

    def test_masked_rows_get_exactly_zero_gradient(self):
        rng = np.random.default_rng(6)
        hidden, W, targets, mask = xent_case(rng, B=4, T=5, n_valid=7)
        mask[1] = False
        mask[3] = True
        _, d_hidden, _ = nll_and_grads(hidden, W, targets, mask)
        assert not d_hidden[~mask].any()
        assert d_hidden[mask].all()
        assert max(xent_errors(hidden, W, targets, mask).values()) <= self.TOL

    def test_out_of_range_target_rejected(self):
        hidden, W, targets, mask = xent_case(np.random.default_rng(7), B=2, T=3, n_valid=4)
        for bad in (W.shape[0], -1):
            targets[0, 0] = bad
            with pytest.raises(ValueError, match="out of range"):
                nll_and_grads(hidden, W, targets, mask)

    def test_dropped_mask_fails_the_comparison(self):
        hidden, W, targets, mask = xent_case(np.random.default_rng(8), B=3, T=4, n_valid=6)
        loss = nll_and_grads(hidden, W, targets, np.ones_like(mask))[0]
        ref_loss = reference_xent(hidden, W, targets, mask)[0]
        assert abs(loss - ref_loss) / abs(ref_loss) > 1e-3

    def test_gradient_from_the_wrong_rows_fails_the_comparison(self, monkeypatch):
        # A planted fault: the chunk kernel pairs the softmax block's rows
        # with the chunk's rows in reverse; the loss is untouched, both
        # gradients move.
        case = xent_case(np.random.default_rng(9), B=3, T=4, n_valid=6)
        kernel = outline_decoder.sequence_nll_backward

        def planted(p, X_c, W, dW_c):
            return kernel(p[::-1], X_c, W, dW_c)

        monkeypatch.setattr(outline_decoder, "sequence_nll_backward", planted)
        errors = xent_errors(*case)
        assert errors["loss"] <= self.TOL, errors
        assert errors["d_hidden"] > 1e-4 and errors["dW"] > 1e-4, errors

    def test_nonfinite_row_warns_as_numpy_does(self, monkeypatch):
        # an inf in the last chunk's row: its block subtracts inf from inf,
        # which warns once, and not at all under the caller's errstate
        monkeypatch.setattr(outline_decoder, "XENT_CHUNK", 4)
        hidden, W, targets, mask = case = xent_case(
            np.random.default_rng(13), B=4, T=6, n_valid=13)
        hidden.reshape(-1, hidden.shape[-1])[np.flatnonzero(mask)[-1], 0] = np.inf
        with pytest.warns(RuntimeWarning) as got:
            assert math.isnan(nll_and_grads(*case)[0])
        assert [str(w.message) for w in got] == ["invalid value encountered in subtract"]
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not math.isfinite(nll_and_grads(*case)[0])


class TestFusedXentBits:
    """sequence_nll forms each chunk's logits once and takes the loss and the
    gradients from them with the same IEEE operations, in the same order, as
    the two-pass pair it replaced (a loss pass keeping each row's log-sum-exp,
    then a gradient pass forming the logits again): loss and d_hidden equal
    the pair's bit for bit. Each chunk's weight gradient goes straight into
    a zeroed W.grad, which equals the pair's summed dW added into a zeroed
    grad, the two-array form the library used before, bit for bit."""

    @staticmethod
    def assert_bits_equal(hidden, W, targets, mask, scale):
        loss, d_hidden, dW = nll_and_grads(hidden, W, targets, mask, scale)
        want_loss, lse = two_pass_sequence_nll(hidden, W, targets, mask)
        want_d_hidden, want_dW = two_pass_sequence_nll_backward(
            hidden, W, targets, mask, lse, scale)
        grad = np.zeros_like(W)
        grad += want_dW
        assert loss.hex() == want_loss.hex()
        np.testing.assert_array_equal(d_hidden, want_d_hidden)
        assert dW.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("scale", [1.0, 0.7])
    @pytest.mark.parametrize("n_valid", [1, 3, 4, 5, 8, 13, 16])
    def test_small_chunks(self, monkeypatch, n_valid, scale):
        monkeypatch.setattr(outline_decoder, "XENT_CHUNK", 4)
        case = xent_case(np.random.default_rng(n_valid), B=4, T=6, n_valid=n_valid)
        self.assert_bits_equal(*case, scale)

    @pytest.mark.parametrize("scale", [1.0, 0.7])
    def test_module_chunk(self, scale):
        rng = np.random.default_rng(21)
        hidden, W = rng.normal(size=(3, 100, 64)), rng.normal(size=(183, 64))
        targets = rng.integers(0, 183, size=(3, 100))
        mask = rng.random((3, 100)) < 0.7
        assert outline_decoder.XENT_CHUNK < mask.sum() < 2 * outline_decoder.XENT_CHUNK
        self.assert_bits_equal(hidden, W, targets, mask, scale)

    @pytest.mark.parametrize("scale", [1.0, 0.7])
    def test_scratch_block_ends_mid_chunk(self, scale):
        # V = 6000 gives XENT_SCRATCH // V = 5-row blocks: a 128-row chunk
        # ends 3 rows into its last block, and the second chunk is shorter
        # than one block.
        rng = np.random.default_rng(22)
        hidden, W = rng.normal(size=(2, 70, 8)), rng.normal(size=(6000, 8))
        targets = rng.integers(0, 6000, size=(2, 70))
        mask = np.ones((2, 70), dtype=bool)
        mask[1, -8:] = False
        block = outline_decoder.XENT_SCRATCH // W.shape[0]
        chunk = outline_decoder.XENT_CHUNK
        assert chunk % block and mask.sum() % chunk < block
        self.assert_bits_equal(hidden, W, targets, mask, scale)

    @pytest.mark.parametrize("scratch", [1, 13, 3 * 13])
    def test_small_scratch(self, monkeypatch, scratch):
        # blocks of one row (a scratch smaller than a row), one, and three
        # rows, inside 4-row chunks
        monkeypatch.setattr(outline_decoder, "XENT_CHUNK", 4)
        monkeypatch.setattr(outline_decoder, "XENT_SCRATCH", scratch)
        case = xent_case(np.random.default_rng(23), B=3, T=5, n_valid=11)
        self.assert_bits_equal(*case, 0.7)

    def test_no_valid_rows(self):
        hidden, W, targets, mask = xent_case(np.random.default_rng(24), B=2, T=3, n_valid=0)
        loss, d_hidden, dW = nll_and_grads(hidden, W, targets, mask)
        assert loss == 0.0 and not d_hidden.any() and not dW.any()

    # 29 of 40 rows valid, some whole batch rows masked: 29 chunks, 10, 3 and
    # one; and a batch with no valid row at each chunk size
    @pytest.mark.parametrize("n_valid", [29, 0])
    @pytest.mark.parametrize("chunk", [1, 3, 13, 128])
    def test_grad_from_zero_at_each_chunk_size(self, monkeypatch, chunk, n_valid):
        monkeypatch.setattr(outline_decoder, "XENT_CHUNK", chunk)
        case = xent_case(np.random.default_rng(26), B=4, T=10, n_valid=n_valid)
        self.assert_bits_equal(*case, 0.7)

    @pytest.mark.parametrize("chunk", [4, 128])
    def test_adds_to_the_grad_it_finds(self, monkeypatch, chunk):
        # 17 valid rows: five chunks, then one. With one chunk the sum is a
        # single IEEE addition; with five only its order differs.
        monkeypatch.setattr(outline_decoder, "XENT_CHUNK", chunk)
        hidden, W, targets, mask = xent_case(np.random.default_rng(27), B=3, T=7, n_valid=17)
        W = Parameter("W", W)
        before = np.random.default_rng(28).normal(size=W.value.shape)
        W.grad += before
        _, d_hidden = sequence_nll(hidden, W, targets, mask, 0.7)
        _, want_d_hidden, dW = nll_and_grads(hidden, W.value, targets, mask, 0.7)
        np.testing.assert_array_equal(d_hidden, want_d_hidden)
        if chunk > mask.sum():
            np.testing.assert_array_equal(W.grad, before + dW)
        assert relative_error(W.grad, before + dW) <= 1e-13
        assert relative_error(W.grad, dW) > 0.1

    def test_holds_one_logits_block_and_one_weight_gradient(self):
        # V = 2000, H = 128 over three chunks. A record's summed dW beside a
        # fresh dW_c and logits block per chunk would hold two [V,H] blocks
        # more than the budget.
        rng = np.random.default_rng(29)
        B, T, H, V = 3, 100, 128, 2000
        hidden, W = rng.normal(size=(B, T, H)), Parameter("W", rng.normal(size=(V, H)))
        targets = rng.integers(0, V, size=(B, T))
        mask = np.ones((B, T), dtype=bool)
        chunk = outline_decoder.XENT_CHUNK
        assert 2 * chunk < mask.sum() < 3 * chunk
        floats = (chunk * V                                   # the logits block
                  + V * H                                     # the chunk gradient
                  + outline_decoder.XENT_SCRATCH // V * V     # the scratch
                  + B * T * H                                 # d_hidden
                  + 2 * chunk * H)                            # X_c and dX_c
        slack = V * H * 8 // 8                                # indices, row sums
        tracemalloc.start()
        try:
            sequence_nll(hidden, W, targets, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < floats * 8 + slack, (peak, floats * 8)

    def test_large_vocabulary_starts_no_thread(self, monkeypatch):
        # V = 2000 over three 128-row chunks: every block is formed on the
        # calling thread, with the same bits
        def refused(thread):
            raise AssertionError(f"sequence_nll started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refused)
        rng = np.random.default_rng(25)
        hidden, W = rng.normal(size=(3, 100, 8)), rng.normal(size=(2000, 8))
        targets = rng.integers(0, 2000, size=(3, 100))
        mask = np.ones((3, 100), dtype=bool)
        assert mask.sum() > 2 * outline_decoder.XENT_CHUNK
        self.assert_bits_equal(hidden, W, targets, mask, 0.7)


class TestDecoderSteps:
    def test_zero_weights_zero_state(self):
        dec = OutlineDecoder(5, 3, 2, np.random.default_rng(0))
        for p in dec.cell.parameters():
            p.value[:] = 0.0
        s, c = dec.step(np.ones((1, 3)), (np.zeros((1, 2)), np.zeros((1, 2))))
        assert not s.any() and not c.any()

    def test_step_matches_functional_cell(self):
        rng = np.random.default_rng(1)
        dec = OutlineDecoder(5, 3, 2, rng)
        x = rng.normal(size=(1, 3))
        s0, c0 = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
        s, c = dec.step(x, (s0, c0))
        h_ref, c_ref = lstm_cell_step(
            x[0], s0[0], c0[0], dec.cell.W_x.value, dec.cell.W_h.value,
            dec.cell.b.value)
        np.testing.assert_allclose(s[0], h_ref, atol=1e-12)
        np.testing.assert_allclose(c[0], c_ref, atol=1e-12)

    def test_initial_state_bridge(self):
        dec = OutlineDecoder(5, 3, 2, np.random.default_rng(2))
        enc_states = np.random.default_rng(3).normal(size=(2, 4, 4))
        s0 = dec.initial_state(enc_states)
        ref = np.tanh(enc_states[:, -1, :2] @ dec.bridge_W.value.T + dec.bridge_b.value)
        np.testing.assert_allclose(s0, ref, atol=1e-12)
        assert (np.abs(s0) < 1).all()

    def test_seed_is_each_rows_forward_state_at_its_last_valid_token(self):
        # A padded batch through the real encoder: each row's seed must be the
        # bridge applied to the forward state after its own last token, as the
        # step-at-a-time reference computes it on that row alone.
        rng = np.random.default_rng(4)
        B, T, d_emb, H = 4, 6, 3, 5
        encoder = BiLSTMEncoder(d_emb, H, rng)
        dec = OutlineDecoder(7, d_emb, H, rng)
        X = rng.normal(size=(B, T, d_emb))
        lengths = np.array([T, 1, 3, 5])
        mask = np.arange(T)[None, :] < lengths[:, None]
        enc_states, _ = encoder.forward(X, mask)
        s0 = dec.initial_state(enc_states)
        for b, n in enumerate(lengths):
            zeros = np.zeros((1, H))
            _, (h_last, _), _ = reference_run_lstm(
                encoder.fwd, X[b:b + 1, :n], np.ones((1, n), dtype=bool), False, zeros, zeros)
            want = np.tanh(h_last @ dec.bridge_W.value.T + dec.bridge_b.value)
            assert relative_error(s0[b:b + 1], want) <= REL_TOL, b


class TestTeacherForcedPass:
    def _fixture(self, seed=0, vocab=7, d_emb=3, d_hid=2, B=2, T_enc=3, K=3):
        rng = np.random.default_rng(seed)
        emb = Embedding(vocab, d_emb, rng)
        dec = OutlineDecoder(vocab, d_emb, d_hid, rng)
        enc_states = Parameter("enc_states", rng.normal(size=(B, T_enc, 2 * d_hid)))
        enc_mask = np.array([[True] * T_enc, [True, True, False]])
        gold_in = np.array([[BOS, 4, 5], [BOS, 6, PAD]])
        targets = np.array([[4, 5, 2], [6, 2, PAD]])
        tmask = targets != PAD
        return emb, dec, enc_states, enc_mask, gold_in, targets, tmask

    def test_full_pass_gradients(self):
        # enc_states feeds attention and, through enc_states[:, -1, :H], the
        # seed: its gradient checks both, with the bridge's where it lands.
        emb, dec, enc_states, enc_mask, gold_in, targets, tmask = self._fixture()
        # a weight on every encoder and decoder state stands in for the
        # fusion pools' gradients
        extra_rng = np.random.default_rng(9)
        enc_extra = extra_rng.normal(size=enc_states.value.shape)
        extra = extra_rng.normal(size=(2, 3, 2))

        def loss():
            fwd = dec.forward_teacher(emb, enc_states.value, enc_mask, gold_in, targets, tmask)
            return (fwd.loss + float((fwd.attention.state * extra).sum())
                    + float((enc_states.value * enc_extra).sum()))

        params = dec.parameters() + [emb.table, enc_states]
        numeric = finite_difference_gradient(loss, params)

        for p in params:
            p.zero_grad()
        fwd = dec.forward_teacher(emb, enc_states.value, enc_mask, gold_in, targets, tmask)
        d_enc, d_in_emb = dec.backward(fwd, enc_extra, extra)
        emb.accumulate_grad(fwd.input_ids, d_in_emb)
        analytic = {p.name: p.grad for p in dec.parameters()}
        analytic["embedding.table"] = emb.table.grad
        analytic["enc_states"] = d_enc
        report = gradient_check(analytic, numeric, tol=1e-4)
        assert report.passed, report.format_table()

    def test_loss_scale_multiplies_gradients(self):
        emb, dec, enc_states, enc_mask, gold_in, targets, tmask = self._fixture(seed=1)
        grads = {}
        for scale in (1.0, 2.0):
            for p in dec.parameters():
                p.zero_grad()
            fwd = dec.forward_teacher(emb, enc_states.value, enc_mask, gold_in, targets, tmask,
                                      loss_scale=scale)
            dec.backward(fwd, np.zeros_like(enc_states.value), np.zeros_like(fwd.attention.state))
            grads[scale] = {p.name: p.grad.copy() for p in dec.parameters()}
        for name in grads[1.0]:
            np.testing.assert_allclose(grads[2.0][name], 2.0 * grads[1.0][name],
                                       atol=1e-12)

    def test_teacher_forced_inputs_are_gold(self):
        emb, dec, enc_states, enc_mask, gold_in, targets, tmask = self._fixture(seed=2)
        fwd = dec.forward_teacher(emb, enc_states.value, enc_mask, gold_in, targets, tmask)
        np.testing.assert_array_equal(fwd.input_ids, gold_in)

    def test_scheduled_sampling_feeds_own_argmax(self):
        emb, dec, enc_states, enc_mask, gold_in, targets, tmask = self._fixture(seed=3)
        rng = np.random.default_rng(0)
        fwd = dec.forward_teacher(emb, enc_states.value, enc_mask, gold_in, targets, tmask,
                                  sample_rng=rng, teacher_forcing_ratio=0.0)
        np.testing.assert_array_equal(fwd.input_ids[:, 0], gold_in[:, 0])
        for t in range(1, gold_in.shape[1]):
            logits = fwd.attention.combined[:, t - 1] @ dec.W_o.value.T
            np.testing.assert_array_equal(fwd.input_ids[:, t], emittable_argmax(logits))

    def test_scheduled_sampling_feeds_neither_pad_nor_bos(self):
        # a head that ranks PAD first and BOS second: the feed takes the third
        emb, dec, enc_states, enc_mask, gold_in, targets, tmask = self._fixture(seed=3)
        dec.logits = ranked_head(emb.vocab_size, 5)
        fwd = dec.forward_teacher(emb, enc_states.value, enc_mask, gold_in, targets, tmask,
                                  sample_rng=np.random.default_rng(0), teacher_forcing_ratio=0.0)
        np.testing.assert_array_equal(fwd.input_ids[:, 0], BOS)
        np.testing.assert_array_equal(fwd.input_ids[:, 1:], 5)

    def test_scheduled_sampling_is_seed_deterministic(self):
        emb, dec, enc_states, enc_mask, gold_in, targets, tmask = self._fixture(seed=4)
        runs = []
        for _ in range(2):
            fwd = dec.forward_teacher(emb, enc_states.value, enc_mask, gold_in, targets, tmask,
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
    """attend over all K steps, and attend_backward with one GEMM per weight
    gradient and d_enc as two batched products, equal attention run one step
    at a time (reference_attend_steps) at REL_TOL."""

    @staticmethod
    def batched_and_reference(B, K, T, H, planted_mask=None):
        rng = np.random.default_rng(B * K)
        W_a, W_c = scaled_mats(2 * H, H, rng)
        enc = rng.normal(size=(B, T, 2 * H))
        mask = prefix_mask(rng, B, T)
        states = rng.normal(size=(B, K, H))
        d_combined = rng.normal(size=(B, K, H))

        batched = attend(enc, states, mask if planted_mask is None else planted_mask, W_a, W_c)
        d_enc, d_states = attend_backward(batched, d_combined, W_a, W_c)
        got = {name: getattr(batched, name) for name in ("query", "weights", "context", "combined")}
        got.update(d_enc=d_enc, d_states=d_states, W_a=W_a.grad.copy(), W_c=W_c.grad.copy())

        W_a.zero_grad()
        W_c.zero_grad()
        want, ref_enc, ref_states = reference_attend_steps(enc, states, mask, W_a, W_c, d_combined)
        want.update(d_enc=ref_enc, d_states=ref_states, W_a=W_a.grad, W_c=W_c.grad)
        return got, want, mask

    @pytest.mark.parametrize("B,K,T,H", SHAPES)
    def test_equals_one_call_per_step(self, B, K, T, H):
        got, want, mask = self.batched_and_reference(B, K, T, H)
        assert not mask.all()  # a padded row, so the mask is exercised
        for name in want:
            assert relative_error(got[name], want[name]) <= REL_TOL, name

    @pytest.mark.parametrize("B,K,T,H", SHAPES)
    def test_dropped_mask_is_caught(self, B, K, T, H):
        _, _, mask = self.batched_and_reference(B, K, T, H)
        got, want, _ = self.batched_and_reference(B, K, T, H, np.ones_like(mask))
        for name in want.keys() - {"query"}:  # the query is computed before the mask
            assert relative_error(got[name], want[name]) > REL_TOL, name


def step_at_a_time(dec, emb, enc_states, enc_mask, gold_in, targets, tmask,
                   d_enc_extra, d_states_extra, loss_scale, sample_rng=None, ratio=1.0):
    """Reference teacher-forced pass: the bridge from the forward final
    encoder state enc_states[:, -1, :H], the plain LSTM step and attention
    once per step, and their backward passes once per step on the way back.
    Returns the forward values and the input gradients, and leaves the
    parameter gradients in dec."""
    for p in dec.parameters():
        p.zero_grad()
    B, K = gold_in.shape
    fmask = tmask.astype(float)
    h_fwd_fin = enc_states[:, -1, :dec.cell.d_hid]
    s0 = np.tanh(h_fwd_fin @ dec.bridge_W.value.T + dec.bridge_b.value)
    s, c = s0, np.zeros_like(s0)
    input_ids = gold_in.copy()
    states, steps, combined = [], [], []  # combined feeds the sampled inputs
    for t in range(K):
        if ratio < 1.0 and t > 0:
            use_model = sample_rng.random(B) >= ratio
            logits = combined[-1] @ dec.W_o.value.T
            input_ids[:, t] = np.where(use_model, emittable_argmax(logits), gold_in[:, t])
        m = fmask[:, t:t + 1]
        x = emb.lookup(input_ids[:, t])
        s_new, c_new, cache = reference_lstm_step(dec.cell, x, s, c)
        steps.append((x, s, cache))
        s = m * s_new + (1.0 - m) * s
        c = m * c_new + (1.0 - m) * c
        states.append(s)
        fields, _, _ = reference_attend_steps(enc_states, s[:, None], enc_mask, dec.W_a, dec.W_c,
                                              np.zeros((B, 1, s.shape[1])))
        combined.append(fields["combined"][:, 0])
    loss, d_combined, dW_o = reference_xent(np.stack(combined, axis=1), dec.W_o.value,
                                                 targets, tmask, loss_scale)
    dec.W_o.grad += dW_o
    dec.W_a.zero_grad()
    dec.W_c.zero_grad()
    states = np.stack(states, axis=1)
    _, d_enc, dS = reference_attend_steps(enc_states, states, enc_mask, dec.W_a, dec.W_c,
                                          d_combined)
    dS += d_states_extra
    dX, ds0 = reference_run_lstm_backward(dec.cell, ReferenceRun(steps, fmask, False), dS,
                                          np.zeros_like(s0))
    d_pre = ds0 * (1.0 - s0 * s0)
    dec.bridge_W.grad += d_pre.T @ h_fwd_fin
    dec.bridge_b.grad += d_pre.sum(axis=0)
    d_enc += d_enc_extra
    d_enc[:, -1, :dec.cell.d_hid] += d_pre @ dec.bridge_W.value
    return {"loss": loss, "d_hidden": d_combined, "states": states,
            "input_ids": input_ids, "d_enc": d_enc, "dX": dX}


class TestStepBatchedPass:
    """The decoder runs one recurrence, then one attention call over all
    steps, then the chunked softmax cross-entropy. The fed inputs equal the
    step-at-a-time reference exactly. The states, loss, the loss gradient the
    forward record holds and every
    gradient equal it at REL_TOL: the hoisted recurrence GEMMs, the batched
    attention and the chunked softmax-CE each sum in another order than the
    per-step products and the full-logit einsums, which moves each array by
    about 1e-15 of its norm."""

    def _fixture(self, B, K, T, H, vocab=40):
        rng = np.random.default_rng(B + K + T + H)
        emb = Embedding(vocab, H, rng)
        dec = OutlineDecoder(vocab, H, H, rng)
        enc_states = rng.normal(size=(B, T, 2 * H))
        enc_mask = prefix_mask(rng, B, T)
        ids = np.full((B, K + 1), PAD)
        for b, n in enumerate(rng.integers(1, K + 1, size=B)):
            ids[b, :n + 1] = [BOS, *rng.integers(4, vocab, size=n - 1), 2]
        targets = ids[:, 1:]
        extras = (rng.normal(size=enc_states.shape), rng.normal(size=(B, K, H)))
        return emb, dec, enc_states, enc_mask, ids[:, :-1], targets, targets != PAD, extras

    @pytest.mark.parametrize("ratio", [1.0, 0.5])
    @pytest.mark.parametrize("B,K,T,H", SHAPES)
    def test_matches_step_at_a_time(self, B, K, T, H, ratio):
        emb, dec, enc, enc_mask, gold_in, targets, tmask, extras = self._fixture(B, K, T, H)
        ref = step_at_a_time(dec, emb, enc, enc_mask, gold_in, targets, tmask,
                             *extras, 0.7, np.random.default_rng(3), ratio)
        ref_grads = {p.name: p.grad.copy() for p in dec.parameters()}

        for p in dec.parameters():
            p.zero_grad()
        fwd = dec.forward_teacher(emb, enc, enc_mask, gold_in, targets, tmask,
                                  sample_rng=np.random.default_rng(3),
                                  teacher_forcing_ratio=ratio, loss_scale=0.7)
        d_enc, dX = dec.backward(fwd, *extras)
        got = {"loss": fwd.loss, "d_hidden": fwd.d_hidden, "states": fwd.attention.state,
               "input_ids": fwd.input_ids, "d_enc": d_enc, "dX": dX}
        assert np.array_equal(got["input_ids"], ref["input_ids"])
        for name in ("states", "loss", "d_hidden", "d_enc", "dX"):
            assert relative_error(got[name], ref[name]) <= REL_TOL, name
        for p in dec.parameters():
            assert relative_error(p.grad, ref_grads[p.name]) <= REL_TOL, p.name

    def test_transposed_bridge_is_caught(self):
        # The bridge weight transposed in the reference only (it is square):
        # every state and gradient must move beyond REL_TOL.
        emb, dec, enc, enc_mask, gold_in, targets, tmask, extras = self._fixture(2, 3, 4, 3)
        fwd = dec.forward_teacher(emb, enc, enc_mask, gold_in, targets, tmask, loss_scale=0.7)
        d_enc, dX = dec.backward(fwd, *extras)
        dec.bridge_W.value[...] = dec.bridge_W.value.T.copy()
        ref = step_at_a_time(dec, emb, enc, enc_mask, gold_in, targets, tmask, *extras, 0.7)
        for name, value in (("states", fwd.attention.state), ("d_enc", d_enc), ("dX", dX)):
            assert relative_error(value, ref[name]) > REL_TOL, name

    def test_scheduled_sampling_draws_a_coin_per_row_and_later_step(self):
        B, K = 3, 5
        emb, dec, enc, enc_mask, gold_in, targets, tmask, _ = self._fixture(B, K, 4, 3)
        coins = Mock(wraps=np.random.default_rng(0))
        dec.forward_teacher(emb, enc, enc_mask, gold_in, targets, tmask,
                            sample_rng=coins, teacher_forcing_ratio=0.5)
        assert [call.args for call in coins.random.call_args_list] == [(B,)] * (K - 1)
        assert [name for name, _, _ in coins.mock_calls] == ["random"] * (K - 1)

    @pytest.mark.parametrize("B,K,T,H", SHAPES)
    def test_scheduled_sampling_steps_the_cell_once_per_column(self, B, K, T, H):
        emb, dec, enc, enc_mask, gold_in, targets, tmask, _ = self._fixture(B, K, T, H)
        dec.cell.step = Mock(wraps=dec.cell.step)
        dec.forward_teacher(emb, enc, enc_mask, gold_in, targets, tmask,
                            sample_rng=np.random.default_rng(3), teacher_forcing_ratio=0.5)
        assert dec.cell.step.call_count == K

    def test_teacher_forcing_draws_no_coins(self):
        emb, dec, enc, enc_mask, gold_in, targets, tmask, _ = self._fixture(3, 5, 4, 3)
        coins = Mock(wraps=np.random.default_rng(0))
        fwd = dec.forward_teacher(emb, enc, enc_mask, gold_in, targets, tmask,
                                  sample_rng=coins, teacher_forcing_ratio=1.0)
        assert fwd.input_ids is gold_in
        assert coins.mock_calls == []
