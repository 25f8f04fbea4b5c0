"""Token embedding and the bidirectional LSTM news encoder.

Each position of the encoded sequence is the concatenation of the forward and
backward LSTM states, so encoder states have dimension 2 * d_hid.
"""

from __future__ import annotations

import numpy as np

from .corpus import PAD
from .numerics import LSTMCell, Parameter, run_lstm, run_lstm_backward, uniform_init


class Embedding:
    """Embedding table whose PAD row starts at zero and gets no gradient."""

    def __init__(self, vocab_size, d_emb, rng):
        table = uniform_init(rng, (vocab_size, d_emb))
        table[PAD] = 0.0
        self.table = Parameter("embedding.table", table)

    @property
    def vocab_size(self):
        return self.table.value.shape[0]

    @property
    def d_emb(self):
        return self.table.value.shape[1]

    def lookup(self, ids):
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise ValueError(
                f"token id out of range [0, {self.vocab_size}) in embedding lookup")
        return self.table.value[ids]

    def accumulate_grad(self, ids, dvecs):
        """Segment sums of dvecs over the stably sorted ids, one per id."""
        ids = ids.reshape(-1)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        starts = np.flatnonzero(np.diff(ids, prepend=ids[:1] - 1))
        dvecs = dvecs.reshape(-1, self.d_emb)[order]
        self.table.grad[ids[starts]] += np.add.reduceat(dvecs, starts, axis=0)


class BiLSTMEncoder:
    """Forward pass left-to-right, backward pass right-to-left, concatenated."""

    def __init__(self, d_emb, d_hid, rng):
        self.d_hid = d_hid
        self.fwd = LSTMCell("encoder.fwd", d_emb, d_hid, rng)
        self.bwd = LSTMCell("encoder.bwd", d_emb, d_hid, rng)

    def parameters(self):
        return self.fwd.parameters() + self.bwd.parameters()

    def forward(self, X, mask):
        """X [B,T,d_emb], mask [B,T] -> (H [B,T,2*d_hid], (fwd_run, bwd_run)).

        Padded positions are carried, never computed into downstream values;
        consumers must apply the same mask. The forward direction's final
        state is H[:, -1, :d_hid], the backward direction's H[:, 0, d_hid:].
        """
        X = np.swapaxes(X, 0, 1).copy().swapaxes(0, 1)  # both runs share one time-major copy
        Hf, fwd_run = run_lstm(self.fwd, X, mask, reverse=False)
        Hb, bwd_run = run_lstm(self.bwd, X, mask, reverse=True)
        return np.concatenate([Hf, Hb], axis=2), (fwd_run, bwd_run)

    def backward(self, cache, dH):
        """dH [B,T,2*d_hid], grads on the final states included -> dX."""
        d = self.d_hid
        fwd_run, bwd_run = cache
        dXf, _ = run_lstm_backward(self.fwd, fwd_run, dH[:, :, :d])
        dXb, _ = run_lstm_backward(self.bwd, bwd_run, dH[:, :, d:])
        return dXf + dXb
