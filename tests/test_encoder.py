import numpy as np
import pytest

from outline2report.corpus import PAD
from outline2report.encoder import BiLSTMEncoder, Embedding
from outline2report.numerics import Parameter, finite_difference_gradient, gradient_check

from model_oracles import REL_TOL, encode_bilstm, reference_run_lstm, relative_error


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

    @pytest.mark.parametrize("shape", [(37,), (4, 9), (3, 1), (1,)])
    def test_accumulate_grad_matches_a_row_loop(self, shape):
        # unsorted ids, many repeats and PAD rows, added onto a non-zero grad
        rng = np.random.default_rng(len(shape) * 10 + shape[0])
        emb = make_embedding(vocab=7, d_emb=3)
        emb.table.grad[...] = rng.normal(size=emb.table.grad.shape)
        ids = rng.choice([PAD, 2, 5, 5, 5, 6, 3], size=shape)
        dvecs = rng.normal(size=shape + (3,))
        want = emb.table.grad.copy()
        for i, d in zip(ids.reshape(-1), dvecs.reshape(-1, 3)):
            want[i] += d
        emb.accumulate_grad(ids, dvecs)
        assert relative_error(emb.table.grad, want) <= REL_TOL
        untouched = np.setdiff1d(np.arange(7), ids)
        np.testing.assert_array_equal(emb.table.grad[untouched], want[untouched])

    def test_accumulate_grad_of_no_ids_is_a_no_op(self):
        emb = make_embedding(vocab=4, d_emb=2)
        emb.table.grad[...] = 1.5
        emb.accumulate_grad(np.zeros((2, 0), dtype=np.int64), np.zeros((2, 0, 2)))
        assert (emb.table.grad == 1.5).all()


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
        # the forward direction's final state is H[:, -1, :d] and the backward
        # direction's H[:, 0, d:]: each equals the final state of a reference
        # run one step at a time, and the forward one, on left-aligned rows,
        # each row's last valid state
        rng = np.random.default_rng(4)
        enc = BiLSTMEncoder(3, 4, rng)
        X = rng.normal(size=(4, 5, 3))
        lengths = np.array([5, 3, 1, 4])
        masks = {"mixed": np.arange(5) < lengths[:, None], "scattered": rng.random((4, 5)) < 0.5}
        zeros = np.zeros((4, 4))
        for kind, mask in masks.items():
            H, _ = enc.forward(X, mask)
            _, (hf, _), _ = reference_run_lstm(enc.fwd, X, mask, False, zeros, zeros)
            _, (hb, _), _ = reference_run_lstm(enc.bwd, X, mask, True, zeros, zeros)
            assert relative_error(H[:, -1, :4], hf) <= REL_TOL, kind
            assert relative_error(H[:, 0, 4:], hb) <= REL_TOL, kind
            assert relative_error(H[:, 0, :4], hf) > REL_TOL, kind  # the other end is not it
            if kind == "mixed":
                np.testing.assert_array_equal(H[:, -1, :4], H[np.arange(4), lengths - 1, :4])


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
        H, _ = enc.forward(X, mask)
        hf = H[:, -1, :4]
        solo0 = encode_bilstm(x0, enc)
        solo1 = encode_bilstm(x1, enc)
        np.testing.assert_allclose(H[0], solo0.states, atol=1e-12)
        np.testing.assert_allclose(H[1, :2], solo1.states, atol=1e-12)
        np.testing.assert_allclose(hf[0], solo0.final_forward, atol=1e-12)
        np.testing.assert_allclose(hf[1], solo1.final_forward, atol=1e-12)
        np.testing.assert_allclose(H[1, 0, 4:], solo1.final_backward, atol=1e-12)


class TestRunCaches:
    @pytest.mark.parametrize("B", [1, 2])
    def test_both_directions_share_one_copy_of_the_inputs(self, B):
        rng = np.random.default_rng(7)
        enc = BiLSTMEncoder(3, 4, rng)
        X = rng.normal(size=(B, 5, 3))
        _, (fwd_run, bwd_run) = enc.forward(X, np.ones((B, 5), dtype=bool))
        assert np.shares_memory(fwd_run.inputs, bwd_run.inputs)
        assert not np.shares_memory(fwd_run.inputs, X)
        assert np.array_equal(fwd_run.inputs, X.transpose(1, 0, 2))


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
            H, _ = enc.forward(x_param.value, mask)
            hf = H[:, -1, :d_hid]  # the forward direction's final state
            hb = H[:, 0, d_hid:]  # the backward direction's final state
            return float((H * W).sum() + (hf * wf).sum() + (hb * wb).sum())

        params = enc.parameters() + [x_param]
        numeric = finite_difference_gradient(loss, params)

        for p in params:
            p.zero_grad()
        _, cache = enc.forward(x_param.value, mask)
        dH = W.copy()
        dH[:, -1, :d_hid] += wf
        dH[:, 0, d_hid:] += wb
        dX = enc.backward(cache, dH)
        analytic = {p.name: p.grad for p in enc.parameters()}
        analytic["X"] = dX
        report = gradient_check(analytic, numeric, tol=1e-6)
        assert report.passed, report.format_table()
