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

from .numerics import (FLOAT, LSTMCell, Parameter, log_softmax, masked_row_softmax, run_lstm,
                       run_lstm_backward, scheduled_inputs, uniform_init)


@dataclass
class AttentionStep:
    """Cache of one attention application, enough to run its backward pass."""

    enc_states: np.ndarray  # [B, T, E]
    state: np.ndarray       # [B, (K,) H]
    query: np.ndarray       # [B, (K,) E]
    weights: np.ndarray     # [B, (K,) T], exactly 0 at masked positions
    context: np.ndarray     # [B, (K,) E]
    combined: np.ndarray    # [B, (K,) H], tanh output


def per_step_matmul(X, W):
    """X [B,K,n] @ W [n,m] as one [B,n] x [n,m] product per step, so each
    row is summed as in a step-at-a-time loop; BLAS may sum a row differently
    in the per-batch-row products of a plain X @ W."""
    return np.ascontiguousarray((X.transpose(1, 0, 2) @ W).transpose(1, 0, 2))


def per_step_outer_sum(A, X):
    """sum_k A[:, k].T @ X[:, k], one product per step, added in step order."""
    return np.matmul(A.transpose(1, 2, 0), X.transpose(1, 0, 2)).sum(axis=0)


def attend(enc_states, state, mask, W_a: Parameter, W_c: Parameter) -> AttentionStep:
    """Score, normalize, mix, combine: attention over a batch.

    scores_j = h_j . (W_a s); weights = softmax over unmasked positions;
    context = sum_j weights_j h_j; combined = tanh(W_c [context; s]).
    state is one query per row [B,H] or K of them [B,K,H] (all steps of a
    teacher-forced pass: without input feeding, attention is off the recurrence).
    """
    enc_states = np.asarray(enc_states, dtype=FLOAT)
    state = np.asarray(state, dtype=FLOAT)
    if enc_states.shape[-1] != W_a.value.shape[0]:
        raise ValueError(
            f"encoder dim {enc_states.shape[-1]} != score projection rows {W_a.value.shape[0]}")
    single = state.ndim == 2
    S = state[:, None] if single else state
    query = per_step_matmul(S, W_a.value.T)                      # [B, K, E]
    scores = np.einsum("bte,bke->bkt", enc_states, query)        # [B, K, T]
    weights = masked_row_softmax(scores, np.asarray(mask)[:, None])
    context = np.einsum("bkt,bte->bke", weights, enc_states)
    combined = np.tanh(per_step_matmul(np.concatenate([context, S], axis=2), W_c.value.T))
    if single:
        query, weights, context, combined = (a[:, 0] for a in (query, weights, context, combined))
    return AttentionStep(enc_states, state, query, weights, context, combined)


def attend_backward(step: AttentionStep, d_combined, W_a: Parameter, W_c: Parameter):
    """Backward through attend; accumulates W_a/W_c grads, returns
    (d_enc_states, d_state) with d_state shaped like step.state."""
    single = step.state.ndim == 2
    enc = step.enc_states
    state, query, weights, context, combined, d_combined = (
        a[:, None] if single else a for a in (
            step.state, step.query, step.weights, step.context, step.combined, d_combined))
    E = enc.shape[-1]
    d_pre = d_combined * (1.0 - combined * combined)
    W_c.grad += per_step_outer_sum(d_pre, np.concatenate([context, state], axis=2))
    d_combo_in = per_step_matmul(d_pre, W_c.value)
    d_context = d_combo_in[:, :, :E]
    d_state = d_combo_in[:, :, E:]

    d_weights = np.einsum("bke,bte->bkt", d_context, enc)
    # softmax backward; masked weights are exactly 0 so those scores get 0.
    inner = (d_weights * weights).sum(axis=2, keepdims=True)
    d_scores = weights * (d_weights - inner)
    d_query = np.einsum("bkt,bte->bke", d_scores, enc)
    W_a.grad += per_step_outer_sum(d_query, state)
    d_state += per_step_matmul(d_query, W_a.value)
    # step by step: a [B,K,T,E] temporary would hold K copies of enc
    d_enc = np.zeros_like(enc)
    for k in range(weights.shape[1]):
        dH = weights[:, k, :, None] * d_context[:, k, None, :]
        dH += d_scores[:, k, :, None] * query[:, k, None, :]
        d_enc += dH
    return d_enc, (d_state[:, 0] if single else d_state)


def sequence_nll(logits, targets, mask):
    """Batch-mean of per-row summed negative log-likelihoods.

    logits [B,T,V], targets [B,T] int, mask [B,T] bool. Uses log-softmax
    internally; returns (loss, probs) with probs cached for backward.
    """
    logits = np.asarray(logits, dtype=FLOAT)
    targets = np.asarray(targets)
    B, T, V = logits.shape
    if targets.size and (targets.min() < 0 or targets.max() >= V):
        raise ValueError(f"target id out of range [0, {V})")
    logp = log_softmax(logits, axis=-1)
    rows = np.arange(B)[:, None], np.arange(T)[None, :]
    gold_logp = logp[rows[0], rows[1], targets]
    loss = float(-(gold_logp * mask).sum() / B)
    return loss, np.exp(logp)


def sequence_nll_backward(probs, targets, mask, scale=1.0):
    """d loss / d logits for sequence_nll; scale folds in any loss weight."""
    B, T, V = probs.shape
    d = probs.copy()
    rows = np.arange(B)[:, None], np.arange(T)[None, :]
    d[rows[0], rows[1], targets] -= 1.0
    d *= (np.asarray(mask, dtype=FLOAT) * (scale / B))[:, :, None]
    return d


@dataclass
class OutlineForward:
    states: np.ndarray        # [B, K, H] decoder LSTM states
    logits: np.ndarray        # [B, K, V]
    probs: np.ndarray         # [B, K, V]
    loss: float
    input_ids: np.ndarray     # [B, K] ids actually fed (teacher forcing or sampled)
    attention: AttentionStep  # all K steps, combined [B, K, H]
    run_cache: object
    bridge_out: np.ndarray    # s0 [B, H], post-tanh
    bridge_input: np.ndarray  # final forward encoder state [B, H]


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

    def initial_state(self, h_fwd_fin):
        """Project the final forward encoder state into the decoder space."""
        s0 = np.tanh(h_fwd_fin @ self.bridge_W.value.T + self.bridge_b.value)
        c0 = np.zeros_like(s0)
        return s0, c0

    def step(self, x_emb, state):
        """One recurrence step; state is an (s, c) pair of [B, H] arrays."""
        s, c = state
        s_new, c_new, cache = self.cell.step(x_emb, s, c)
        return (s_new, c_new), cache

    def forward_teacher(self, embedding, enc_states, enc_mask, h_fwd_fin,
                        gold_in_ids, targets, target_mask,
                        sample_rng=None, teacher_forcing_ratio=1.0) -> OutlineForward:
        """Teacher-forced pass over a batch (optionally scheduled-sampled).

        gold_in_ids[:, 0] must be BOS. With ratio < 1 each later input is the
        gold token with probability ratio, else the previous argmax; the coin
        flips consume sample_rng one draw per (step, row).
        """
        s0, c0 = self.initial_state(h_fwd_fin)
        input_ids = gold_in_ids
        if teacher_forcing_ratio < 1.0:
            def logits_at(s):
                return attend(enc_states, s, enc_mask, self.W_a, self.W_c).combined @ self.W_o.value.T

            input_ids = scheduled_inputs(self.cell, embedding.lookup, gold_in_ids, target_mask,
                                         s0, c0, logits_at, sample_rng, teacher_forcing_ratio)
        states, _, run_cache = run_lstm(self.cell, embedding.lookup(input_ids), target_mask,
                                        h0=s0, c0=c0)
        attn = attend(enc_states, states, enc_mask, self.W_a, self.W_c)
        logits = per_step_matmul(attn.combined, self.W_o.value.T)
        loss, probs = sequence_nll(logits, targets, target_mask)
        return OutlineForward(
            states=states, logits=logits, probs=probs, loss=loss,
            input_ids=input_ids, attention=attn, run_cache=run_cache,
            bridge_out=s0, bridge_input=h_fwd_fin)

    def backward(self, fwd: OutlineForward, targets, target_mask,
                 d_states_extra=None, loss_scale=1.0):
        """Backward through the whole teacher-forced pass.

        d_states_extra [B,K,H] carries gradients flowing into the decoder
        states from elsewhere (the fusion pooling). Returns (d_enc_states,
        d_input_embeddings, d_h_fwd_fin); accumulates parameter grads.
        """
        d_logits = sequence_nll_backward(fwd.probs, targets, target_mask, scale=loss_scale)
        self.W_o.grad += np.einsum("btv,bth->vh", d_logits, fwd.attention.combined)
        d_combined = np.einsum("btv,vh->bth", d_logits, self.W_o.value)
        d_enc, dS = attend_backward(fwd.attention, d_combined, self.W_a, self.W_c)
        if d_states_extra is not None:
            dS += d_states_extra
        dX, ds0, _ = run_lstm_backward(self.cell, fwd.run_cache, dS)

        s0 = fwd.bridge_out
        d_pre = ds0 * (1.0 - s0 * s0)
        self.bridge_W.grad += d_pre.T @ fwd.bridge_input
        self.bridge_b.grad += d_pre.sum(axis=0)
        d_h_fwd_fin = d_pre @ self.bridge_W.value
        return d_enc, dX, d_h_fwd_fin
