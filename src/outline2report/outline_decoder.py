"""Attention-equipped LSTM decoder for the outline stage.

Per step: one LSTM update on the embedded previous token, dot-product
attention over the encoder states (with the decoder state projected into the
encoder dimension first, since encoder states are twice as wide), a tanh
combination of context and state, and a softmax over the vocabulary. The
attention output never re-enters the recurrence, so a teacher-forced pass runs
the recurrence over all steps first, then attends for all of them in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (FLOAT, LSTMCell, Parameter, affine_backward, masked_row_softmax,
                       run_lstm, run_lstm_backward, scheduled_inputs, uniform_init)


@dataclass
class AttentionStep:
    """Cache of one attention application, enough to run its backward pass."""

    enc_states: np.ndarray  # [B, T, E]
    state: np.ndarray       # [B, K, H]
    query: np.ndarray       # [B, K, E]
    weights: np.ndarray     # [B, K, T], exactly 0 at masked positions
    context: np.ndarray     # [B, K, E]
    combined: np.ndarray    # [B, K, H], tanh output


def attend(enc_states, state, mask, W_a: Parameter, W_c: Parameter) -> AttentionStep:
    """Score, normalize, mix, combine: attention over a batch.

    scores_j = h_j . (W_a s); weights = softmax over unmasked positions;
    context = sum_j weights_j h_j; combined = tanh(W_c [context; s]).
    state holds K queries per row [B,K,H]: all steps of a teacher-forced pass
    (without input feeding, attention is off the recurrence), or K=1 for one
    decoding step. Products run per batch row, so [n,1,H] rows are each
    bit-equal to a lone row.
    """
    query = state @ W_a.value.T                                  # [B, K, E]
    scores = query @ enc_states.transpose(0, 2, 1)               # [B, K, T]
    weights = masked_row_softmax(scores, mask[:, None])
    context = weights @ enc_states
    combined = np.tanh(np.concatenate([context, state], axis=2) @ W_c.value.T)
    return AttentionStep(enc_states, state, query, weights, context, combined)


def attend_backward(step: AttentionStep, d_combined, W_a: Parameter, W_c: Parameter):
    """Backward through attend; accumulates W_a/W_c grads, returns
    (d_enc_states [B,T,E], d_state [B,K,H])."""
    enc, state, query, weights, context, combined = (
        step.enc_states, step.state, step.query, step.weights, step.context, step.combined)
    B, K, E = query.shape
    d_pre = (d_combined * (1.0 - combined * combined)).reshape(B * K, -1)  # a row per query
    W_c.grad += d_pre.T @ np.concatenate([context, state], axis=2).reshape(B * K, -1)
    d_combo_in = (d_pre @ W_c.value).reshape(B, K, -1)
    d_context = d_combo_in[:, :, :E]
    d_state = d_combo_in[:, :, E:]

    d_weights = d_context @ enc.transpose(0, 2, 1)
    # softmax backward; masked weights are exactly 0 so those scores get 0.
    inner = (d_weights * weights).sum(axis=2, keepdims=True)
    d_scores = weights * (d_weights - inner)
    d_query = (d_scores @ enc).reshape(B * K, E)
    W_a.grad += d_query.T @ state.reshape(B * K, -1)
    d_state += (d_query @ W_a.value).reshape(B, K, -1)
    d_enc = weights.transpose(0, 2, 1) @ d_context
    d_enc += d_scores.transpose(0, 2, 1) @ query
    return d_enc, d_state


# Valid rows projected onto the vocabulary at once: one [XENT_CHUNK, V] logits
# block and one [V, H] chunk gradient are the only vocabulary-sized arrays the
# loss ever holds, beside a scratch of about XENT_SCRATCH floats for row sums.
XENT_CHUNK = 128
XENT_SCRATCH = 1 << 15


def sequence_nll(hidden, W, targets, mask, scale=1.0):
    """Batch-mean of per-row summed negative log-likelihoods under
    softmax(hidden @ W.value.T). Adds the gradient of scale times it in W into
    W.grad, as affine_backward does (a caller that reads W.grad zeroes it
    first), and returns (loss, d_hidden [B,T,H]), 0 at masked rows.

    hidden [B,T,H], W the output layer's Parameter [V,H], targets [B,T] int,
    mask [B,T] bool. The valid rows are projected XENT_CHUNK at a time into
    one logits block that every chunk reuses: its row sums of exp(z - peak)
    are taken in a scratch, so z stays intact and becomes the chunk's softmax
    gradient factor * (softmax - onehot(gold)) in place.
    """
    V = W.value.shape[0]
    if targets.size and (targets.min() < 0 or targets.max() >= V):
        raise ValueError(f"target id out of range [0, {V})")
    rows = np.flatnonzero(mask)
    X, gold = hidden.reshape(-1, hidden.shape[-1]), targets.reshape(-1)[rows]
    d_hidden = np.zeros_like(X)
    log_sum, gold_shifted = np.empty(rows.size, dtype=FLOAT), np.empty(rows.size, dtype=FLOAT)
    block = max(1, XENT_SCRATCH // V)
    scratch = np.empty((min(block, rows.size), V), dtype=FLOAT)
    logits, dW_c = np.empty((min(XENT_CHUNK, rows.size), V), dtype=FLOAT), np.empty_like(W.value)
    factor = scale / len(hidden)
    for lo in range(0, rows.size, XENT_CHUNK):
        part = slice(lo, lo + XENT_CHUNK)
        X_c = X[rows[part]]
        z = np.matmul(X_c, W.value.T, out=logits[:len(X_c)])
        peak = z.max(axis=1)
        gold_shifted[part] = z[np.arange(len(z)), gold[part]] - peak
        sums = log_sum[part]
        for r in range(0, len(z), block):
            z_r = z[r:r + block]
            e = np.subtract(z_r, peak[r:r + block, None], out=scratch[:len(z_r)])
            sums[r:r + block] = np.exp(e, out=e).sum(axis=1)
        np.log(sums, out=sums)
        z -= (peak + sums)[:, None]
        np.exp(z, out=z)
        z[np.arange(len(z)), gold[part]] -= 1.0
        z *= factor
        d_hidden[rows[part]] = sequence_nll_backward(z, X_c, W.value, dW_c)
        W.grad += dW_c
    # -log p(gold) = log_sum - (z_gold - peak): no cancellation against a large peak
    loss = float((log_sum - gold_shifted).sum() / len(hidden))
    return loss, d_hidden.reshape(hidden.shape)


def sequence_nll_backward(p, X_c, W, dW_c):
    """One chunk's gradients from its softmax gradient p [n,V] (the loss's
    factor times softmax - onehot(gold)): writes dW_c [V,H] = p.T @ X_c in
    place and returns dX_c [n,H] = p @ W."""
    np.matmul(p.T, X_c, out=dW_c)
    return p @ W


@dataclass
class OutlineForward:
    loss: float               # of the decoder's own loss, unscaled
    d_hidden: np.ndarray      # [B, K, H], d(loss_scale * loss) / d(attention.combined)
    input_ids: np.ndarray     # [B, K] ids actually fed (teacher forcing or sampled)
    attention: AttentionStep  # all K steps; holds enc_states and the decoder states
    run_cache: object         # mask is the target mask; h_prev[0] is the seed s0


class OutlineDecoder:
    """Bridge from the encoder, LSTM recurrence, attention, output softmax."""

    def __init__(self, vocab_size, d_emb, d_hid, rng):
        d_enc = 2 * d_hid
        self.bridge_W = Parameter("outline.bridge.W", uniform_init(rng, (d_hid, d_hid)))
        self.bridge_b = Parameter("outline.bridge.b", np.zeros(d_hid, dtype=FLOAT))
        self.cell = LSTMCell("outline.lstm", d_emb, d_hid, rng)
        self.W_a = Parameter("outline.attn.W_a", uniform_init(rng, (d_enc, d_hid)))
        self.W_c = Parameter("outline.attn.W_c", uniform_init(rng, (d_hid, d_enc + d_hid)))
        self.W_o = Parameter("outline.out.W_o", uniform_init(rng, (vocab_size, d_hid)))

    def parameters(self):
        return ([self.bridge_W, self.bridge_b] + self.cell.parameters()
                + [self.W_a, self.W_c, self.W_o])

    def initial_state(self, enc_states):
        """The seed s0: the encoder's forward final state, which carry-through
        masking leaves at enc_states[:, -1, :H] (each row's state at its last
        valid token), projected into the decoder space."""
        H = self.bridge_W.value.shape[0]
        return np.tanh(enc_states[:, -1, :H] @ self.bridge_W.value.T + self.bridge_b.value)

    def step(self, x_emb, state):
        """One recurrence step from state, an (s, c) pair of [B, H] arrays, to
        the next such pair."""
        return self.cell.step(self.cell.input_gates(x_emb), *state, self.cell.W_h.value.T)[:2]

    def logits(self, enc_states, enc_mask, s):
        """The outline head: attention over enc_states for states s [B,K,H],
        then the vocabulary projection -> [B,K,V]."""
        return attend(enc_states, s, enc_mask, self.W_a, self.W_c).combined @ self.W_o.value.T

    def forward_teacher(self, embedding, enc_states, enc_mask, gold_in_ids, targets,
                        target_mask, sample_rng=None, teacher_forcing_ratio=1.0,
                        loss_scale=1.0) -> OutlineForward:
        """Teacher-forced pass over a batch (optionally scheduled-sampled).

        gold_in_ids[:, 0] must be BOS. With ratio < 1 each later input is the
        gold token with probability ratio, else the previous step's emittable
        argmax; the coin flips consume sample_rng one draw per (step, row).
        W_o's gradient of loss_scale * loss is added into W_o.grad here (zero it
        first to read it), the rest by backward.
        """
        input_ids, feed = scheduled_inputs(
            embedding.lookup, gold_in_ids,
            lambda s: self.logits(enc_states, enc_mask, s[:, None])[:, 0],
            sample_rng, teacher_forcing_ratio)
        states, run_cache = run_lstm(self.cell, embedding.lookup(input_ids), target_mask,
                                     h0=self.initial_state(enc_states), feed=feed)
        attn = attend(enc_states, states, enc_mask, self.W_a, self.W_c)
        loss, d_hidden = sequence_nll(attn.combined, self.W_o, targets, target_mask, loss_scale)
        return OutlineForward(loss=loss, d_hidden=d_hidden, input_ids=input_ids,
                              attention=attn, run_cache=run_cache)

    def backward(self, fwd: OutlineForward, d_enc_extra, d_states_extra):
        """Backward through the whole teacher-forced pass, of forward's loss_scale * loss.

        d_enc_extra [B,T,E] and d_states_extra [B,K,H] carry gradients flowing
        into the encoder and decoder states from elsewhere (the fusion
        pooling). Returns (d_enc_states, d_input_embeddings), d_enc_states
        with the seed's gradient added at enc_states[:, -1, :H] after
        d_enc_extra; accumulates parameter grads.
        """
        d_enc, dS = attend_backward(fwd.attention, fwd.d_hidden, self.W_a, self.W_c)
        dS += d_states_extra
        dX, ds0 = run_lstm_backward(self.cell, fwd.run_cache, dS)

        s0 = fwd.run_cache.h_prev[0]
        H = s0.shape[1]
        dx = affine_backward(fwd.attention.enc_states[:, -1, :H], ds0 * (1.0 - s0 * s0),
                             self.bridge_W, self.bridge_b)
        d_enc += d_enc_extra
        d_enc[:, -1, :H] += dx
        return d_enc, dX
