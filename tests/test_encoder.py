import numpy as np
import pytest

from outline2report.corpus import PAD
from outline2report.encoder import BiLSTMEncoder, Embedding
from outline2report.numerics import (
    Parameter, finite_difference_gradient, gradient_check)

from model_oracles import encode_bilstm


def make_embedding(vocab=11, d_emb=5, seed=0):
    return Embedding(vocab, d_emb, np.random.default_rng(seed))


class TestEmbedding:
    def test_pad_row_is_zero(self):
        emb = make_embedding()
        assert not emb.lookup([PAD]).any()

    def test_same_id_identical(self):
        emb = make_embedding()
        v = emb.lookup([7, 7])
        assert (v[0] == v[1]).all()

    def test_one_hot_equivalence(self):
        emb = make_embedding()
        i = 4
        one_hot = np.zeros(emb.vocab_size)
        one_hot[i] = 1.0
        np.testing.assert_array_equal(emb.lookup([i])[0], one_hot @ emb.table.value)

    def test_out_of_range_rejected(self):
        emb = make_embedding(vocab=6)
        with pytest.raises(ValueError, match="out of range"):
            emb.lookup([6])
        with pytest.raises(ValueError, match="out of range"):
            emb.lookup([-1])

    def test_accumulate_grad_sums_repeats(self):
        emb = make_embedding(vocab=5, d_emb=2)
        emb.table.zero_grad()
        emb.accumulate_grad([3, 3, 1], np.array([[1.0, 0.0], [2.0, 0.0], [5.0, 5.0]]))
        np.testing.assert_array_equal(emb.table.grad[3], [3.0, 0.0])
        np.testing.assert_array_equal(emb.table.grad[1], [5.0, 5.0])
        assert not emb.table.grad[0].any()

    def test_freeze_pad_row(self):
        emb = make_embedding(vocab=5, d_emb=2)
        emb.table.zero_grad()
        emb.accumulate_grad([PAD], np.ones((1, 2)))
        emb.freeze_pad_row()
        assert not emb.table.grad[PAD].any()


def zeroed_encoder(d_emb, d_hid):
    enc = BiLSTMEncoder(d_emb, d_hid, np.random.default_rng(0))
    for p in enc.parameters():
        p.value[:] = 0.0
    return enc


class TestEncodeBilstm:
    def test_single_position_shape(self):
        enc = BiLSTMEncoder(4, 3, np.random.default_rng(1))
        out = encode_bilstm(np.ones((1, 4)), enc)
        assert len(out) == 1
        assert out.states.shape == (1, 6)
        assert out.final_forward.shape == (3,)

    def test_zero_weights_zero_states(self):
        enc = zeroed_encoder(4, 3)
        out = encode_bilstm(np.random.default_rng(2).normal(size=(5, 4)), enc)
        assert not out.states.any()
        assert not out.final_forward.any()
        assert not out.final_backward.any()

    def test_reversal_swaps_directions(self):
        rng = np.random.default_rng(3)
        enc = BiLSTMEncoder(4, 3, rng)
        # tie the two directions so only the scan order differs
        enc.bwd.W_x.value[:] = enc.fwd.W_x.value
        enc.bwd.W_h.value[:] = enc.fwd.W_h.value
        enc.bwd.b.value[:] = enc.fwd.b.value
        x = rng.normal(size=(6, 4))
        fwd_half = encode_bilstm(x, enc).states[:, :3]
        bwd_half_rev = encode_bilstm(x[::-1], enc).states[:, 3:]
        np.testing.assert_allclose(fwd_half, bwd_half_rev[::-1], atol=1e-12)

    def test_empty_rejected(self):
        enc = BiLSTMEncoder(4, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            encode_bilstm(np.zeros((0, 4)), enc)

    def test_length_preserved(self):
        enc = BiLSTMEncoder(2, 5, np.random.default_rng(0))
        for m in (1, 2, 9):
            out = encode_bilstm(np.ones((m, 2)), enc)
            assert out.states.shape == (m, 10)

    def test_final_states_match_sequence_ends(self):
        rng = np.random.default_rng(4)
        enc = BiLSTMEncoder(3, 4, rng)
        out = encode_bilstm(rng.normal(size=(5, 3)), enc)
        np.testing.assert_array_equal(out.final_forward, out.states[-1, :4])
        np.testing.assert_array_equal(out.final_backward, out.states[0, 4:])


class TestBatchIndependence:
    def test_padding_does_not_leak(self):
        rng = np.random.default_rng(5)
        enc = BiLSTMEncoder(3, 4, rng)
        x0 = rng.normal(size=(5, 3))
        x1 = rng.normal(size=(2, 3))
        X = np.zeros((2, 5, 3))
        X[0] = x0
        X[1, :2] = x1
        mask = np.array([[True] * 5, [True, True, False, False, False]])
        H, hf, hb, _ = enc.forward(X, mask)
        solo0 = encode_bilstm(x0, enc)
        solo1 = encode_bilstm(x1, enc)
        np.testing.assert_allclose(H[0], solo0.states, atol=1e-12)
        np.testing.assert_allclose(H[1, :2], solo1.states, atol=1e-12)
        np.testing.assert_allclose(hf[0], solo0.final_forward, atol=1e-12)
        np.testing.assert_allclose(hf[1], solo1.final_forward, atol=1e-12)
        np.testing.assert_allclose(hb[1], solo1.final_backward, atol=1e-12)


class TestEncoderGradients:
    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        B, T, d_emb, d_hid = 2, 4, 3, 3
        enc = BiLSTMEncoder(d_emb, d_hid, rng)
        x_param = Parameter("X", rng.normal(size=(B, T, d_emb)))
        mask = np.array([[True] * 4, [True, True, True, False]])
        # weight the loss only at unmasked positions; padded states are
        # carried values the contract tells consumers to mask out
        W = rng.normal(size=(B, T, 2 * d_hid)) * mask[:, :, None]
        wf = rng.normal(size=(B, d_hid))
        wb = rng.normal(size=(B, d_hid))

        def loss():
            H, hf, hb, _ = enc.forward(x_param.value, mask)
            return float((H * W).sum() + (hf * wf).sum() + (hb * wb).sum())

        params = enc.parameters() + [x_param]
        numeric = finite_difference_gradient(loss, params)

        for p in params:
            p.zero_grad()
        _, _, _, cache = enc.forward(x_param.value, mask)
        dX = enc.backward(cache, W.copy(), dh_fwd_fin=wf.copy(), dh_bwd_fin=wb.copy())
        analytic = {p.name: p.grad for p in enc.parameters()}
        analytic["X"] = dX
        report = gradient_check(analytic, numeric, tol=1e-6)
        assert report.passed, report.format_table()
