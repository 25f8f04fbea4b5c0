"""Token embedding and the bidirectional LSTM news encoder.

Each position of the encoded sequence is the concatenation of the forward and
backward LSTM states, so encoder states have dimension 2 * d_hid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import PAD
from .numerics import LSTMCell, Parameter, run_lstm, run_lstm_backward, uniform_init


class Embedding:
    """Embedding table with the PAD row pinned at zero."""

    def __init__(self, vocab_size, d_emb, rng, pad_id=PAD):
        table = uniform_init(rng, (vocab_size, d_emb))
        table[pad_id] = 0.0
        self.table = Parameter("embedding.table", table)
        self.pad_id = pad_id

    @property
    def vocab_size(self):
        return self.table.value.shape[0]

    @property
    def d_emb(self):
        return self.table.value.shape[1]

    def lookup(self, ids):
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise ValueError(
                f"token id out of range [0, {self.vocab_size}) in embedding lookup")
        return self.table.value[ids]

    def accumulate_grad(self, ids, dvecs):
        ids = np.asarray(ids).reshape(-1)
        dvecs = np.asarray(dvecs).reshape(-1, self.d_emb)
        np.add.at(self.table.grad, ids, dvecs)

    def freeze_pad_row(self):
        self.table.grad[self.pad_id] = 0.0


@dataclass
class EncoderCache:
    fwd_run: object
    bwd_run: object


class BiLSTMEncoder:
    """Forward pass left-to-right, backward pass right-to-left, concatenated."""

    def __init__(self, d_emb, d_hid, rng):
        self.d_hid = d_hid
        self.fwd = LSTMCell("encoder.fwd", d_emb, d_hid, rng)
        self.bwd = LSTMCell("encoder.bwd", d_emb, d_hid, rng)

    def parameters(self):
        return self.fwd.parameters() + self.bwd.parameters()

    def forward(self, X, mask):
        """X [B,T,d_emb], mask [B,T] -> (H [B,T,2*d_hid], h_fwd_fin, h_bwd_fin, cache).

        Padded positions are carried, never computed into downstream values;
        consumers must apply the same mask.
        """
        Hf, (hf_fin, _), fwd_run = run_lstm(self.fwd, X, mask, reverse=False)
        Hb, (hb_fin, _), bwd_run = run_lstm(self.bwd, X, mask, reverse=True)
        H = np.concatenate([Hf, Hb], axis=2)
        return H, hf_fin, hb_fin, EncoderCache(fwd_run, bwd_run)

    def backward(self, cache: EncoderCache, dH, dh_fwd_fin=None, dh_bwd_fin=None):
        """dH [B,T,2*d_hid] plus optional grads on the final states -> dX."""
        d = self.d_hid
        dXf, _, _ = run_lstm_backward(self.fwd, cache.fwd_run, dH[:, :, :d], dh_fin=dh_fwd_fin)
        dXb, _, _ = run_lstm_backward(self.bwd, cache.bwd_run, dH[:, :, d:], dh_fin=dh_bwd_fin)
        return dXf + dXb

