"""Single-example and closed-form references for the batched model code.

None of these runs in training or generation. Each restates one piece of the
model in its plainest form, so the tests can hold the batched code to it:
a 1-D softmax, the log-softmax and masked row softmax through numpy's
module reductions, one LSTM step on vectors, the batched LSTM step and its
backward as their plain per-gate formulas, the masked recurrence one step
at a time (its products and weight gradients formed step by step, blending
every step), attention one decoder step at a time, the softmax
cross-entropy over a full [B,T,V] logit array and as the chunked two-pass
pair (loss, then gradients from the kept log-sum-exps),
the two stage losses as scalars, their sum, the encoder run on one
unpadded sequence, the argmax over the ids a decoder may emit, and a
stand-in head that ranks PAD and BOS first.

The step-at-a-time references sum in another order than the library, which
forms each product once over all steps, so the tests hold the library to
them at REL_TOL, not to the bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from outline2report import outline_decoder
from outline2report.corpus import BOS, PAD
from outline2report.numerics import (FLOAT, NonFiniteLossError, log_softmax,
                                     masked_row_softmax)

# Relative error allowed between the library and a reference that sums in
# another order: a few hundred float64 ulps of an array's norm.
REL_TOL = 1e-12


def reference_log_softmax(x):
    """numerics.log_softmax through np.max and np.sum: the same IEEE
    operations in the same order, so the library must match it bit for bit."""
    m = np.max(x, axis=-1, keepdims=True)
    shifted = x - m
    lse = np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    return shifted - lse


def reference_masked_row_softmax(scores, mask):
    """numerics.masked_row_softmax through np.max, bit for bit as above."""
    neg = np.where(np.asarray(mask, dtype=bool), np.asarray(scores, dtype=FLOAT), -np.inf)
    m = np.max(neg, axis=-1, keepdims=True)
    e = np.exp(neg - m)
    return e / e.sum(axis=-1, keepdims=True)


def emittable_argmax(logits):
    """Row-wise argmax of logits [B, V] over the ids a decoder may emit: all
    but PAD and BOS."""
    logits = np.array(logits, dtype=FLOAT)
    logits[:, [PAD, BOS]] = -math.inf
    return np.argmax(logits, axis=1)


def ranked_head(vocab, third):
    """A stand-in decoder head whose logits [..., V] rank PAD first, BOS
    second and `third` third, at every row and step."""
    def head(*args):
        logits = np.zeros(np.shape(args[-1])[:-1] + (vocab,))
        logits[..., [PAD, BOS, third]] = [3.0, 2.0, 1.0]
        return logits
    return head


def relative_error(got, want):
    """|got - want| / |want| over the whole array; inf on a shape mismatch."""
    if np.shape(got) != np.shape(want):
        return math.inf
    return float(np.linalg.norm(np.subtract(got, want)) / np.linalg.norm(want))


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def softmax(v):
    """Probability vector from a 1-D score vector, max-subtracted for stability."""
    v = np.asarray(v, dtype=FLOAT)
    if v.ndim != 1:
        raise ValueError(f"softmax expects a vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("softmax of an empty vector")
    shifted = v - np.max(v)
    e = np.exp(shifted)
    return e / e.sum()


def lstm_cell_step(x, h_prev, c_prev, W_x, W_h, b):
    """One step of a standard four-gate LSTM for a single example.

    Gate order along the fused weight rows is input, forget, output,
    candidate:

        i, f, o = sigmoid(W x + U h + b),  g = tanh(...)
        c = f * c_prev + i * g
        h = o * tanh(c)
    """
    x = np.asarray(x, dtype=FLOAT)
    h_prev = np.asarray(h_prev, dtype=FLOAT)
    c_prev = np.asarray(c_prev, dtype=FLOAT)
    H = h_prev.shape[-1]
    if W_x.shape != (4 * H, x.shape[-1]) or W_h.shape != (4 * H, H) or b.shape != (4 * H,):
        raise ValueError(
            f"inconsistent LSTM shapes: x {x.shape}, h {h_prev.shape}, "
            f"W_x {W_x.shape}, W_h {W_h.shape}, b {b.shape}")
    if c_prev.shape != h_prev.shape:
        raise ValueError(f"c_prev shape {c_prev.shape} != h_prev shape {h_prev.shape}")
    a = W_x @ x + W_h @ h_prev + b
    i = sigmoid(a[:H])
    f = sigmoid(a[H:2 * H])
    o = sigmoid(a[2 * H:3 * H])
    g = np.tanh(a[3 * H:])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c


def reference_gates(cell, a, c_prev):
    """LSTMCell.step's gate arithmetic as the plain formula on the
    pre-activation a [..., 4H], one allocating call per gate: (h, c, cache)
    with the cache the cell keeps, (c_prev, sigmoids (i, f, o) [..., 3H],
    g, tanh(c))."""
    H = cell.d_hid
    i = sigmoid(a[..., :H])
    f = sigmoid(a[..., H:2 * H])
    o = sigmoid(a[..., 2 * H:3 * H])
    g = np.tanh(a[..., 3 * H:])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return o * tc, c, (c_prev, np.concatenate([i, f, o], axis=-1), g, tc)


def reference_lstm_step(cell, x, h_prev, c_prev):
    """One LSTM step as the plain formula x @ W_xᵀ + h @ W_hᵀ + b, then the gates."""
    a = x @ cell.W_x.value.T + h_prev @ cell.W_h.value.T + cell.b.value
    return reference_gates(cell, a, c_prev)


def reference_step_backward(cell, cache, dh, dc):
    """LSTMCell.step_backward as the derivative of each gate on its own:
    (da [B,4H], dh_prev, dc_prev). The cell takes the sigmoid block's
    derivative at once, with the same products in the same order, so it must
    match this bit for bit."""
    c_prev, s, g, tc = cache
    H = cell.d_hid
    i, f, o = s[:, :H], s[:, H:2 * H], s[:, 2 * H:]
    do = dh * tc
    dc_tot = dc + dh * o * (1.0 - tc * tc)
    di = dc_tot * g
    df = dc_tot * c_prev
    dg = dc_tot * i
    da = np.concatenate(
        [di * i * (1.0 - i), df * f * (1.0 - f), do * o * (1.0 - o), dg * (1.0 - g * g)], axis=1)
    return da, da @ cell.W_h.value, dc_tot * f


def reference_lstm_step_backward(cell, x, h_prev, cache, dh, dc):
    """Backward through one step with its own weight-gradient products:
    (dx, dh_prev, dc_prev), adding this step's share to the cell's grads."""
    da, dh_prev, dc_prev = reference_step_backward(cell, cache, dh, dc)
    cell.W_x.grad += da.T @ x
    cell.W_h.grad += da.T @ h_prev
    cell.b.grad += da.sum(axis=0)
    return da @ cell.W_x.value, dh_prev, dc_prev


@dataclass
class ReferenceRun:
    steps: list             # per position t: (x, h_prev, step cache)
    fmask: np.ndarray       # [B, T] float 0/1
    reverse: bool


def reference_run_lstm(cell, X, mask, reverse, h0, c0):
    """run_lstm one step at a time with the carry-through blend
    m*new + (1-m)*old at every step: (H, (h, c), ReferenceRun)."""
    B, T, _ = X.shape
    fmask = np.asarray(mask, dtype=FLOAT).reshape(B, T)
    h, c = h0, c0
    H = np.zeros((B, T, cell.d_hid), dtype=FLOAT)
    steps = [None] * T
    for t in (range(T - 1, -1, -1) if reverse else range(T)):
        m = fmask[:, t:t + 1]
        h_new, c_new, cache = reference_lstm_step(cell, X[:, t], h, c)
        steps[t] = (X[:, t], h, cache)
        h = m * h_new + (1.0 - m) * h
        c = m * c_new + (1.0 - m) * c
        H[:, t] = h
    return H, (h, c), ReferenceRun(steps, fmask, reverse)


def reference_run_lstm_backward(cell, run, dH, dh_fin):
    """run_lstm_backward one step at a time, masking and blending the
    gradients at every step: (dX, dh0), accumulating the cell's grads."""
    B, T = run.fmask.shape
    dh, dc = dh_fin, np.zeros_like(dh_fin)
    dX = np.zeros((B, T, cell.d_in), dtype=FLOAT)
    for t in (range(T) if run.reverse else range(T - 1, -1, -1)):
        m = run.fmask[:, t:t + 1]
        dh_tot = dh + dH[:, t]
        dX[:, t], dh_prev, dc_prev = reference_lstm_step_backward(
            cell, *run.steps[t], m * dh_tot, m * dc)
        dh = (1.0 - m) * dh_tot + dh_prev
        dc = (1.0 - m) * dc + dc_prev
    return dX, dh


def reference_attend_steps(enc, states, mask, W_a, W_c, d_combined):
    """Attention for each decoder step k on its own ([B,H] products), then its
    backward one step at a time, adding each step's d_enc and weight grads.

    enc [B,T,E], states [B,K,H], d_combined [B,K,H]. Returns (forward fields
    query, weights, context and combined, each [B,K,*]; d_enc; d_states)."""
    E = enc.shape[-1]
    fields = {name: [] for name in ("query", "weights", "context", "combined")}
    d_enc = np.zeros_like(enc)
    d_states = np.zeros_like(states)
    for k in range(states.shape[1]):
        s = states[:, k]
        query = s @ W_a.value.T
        weights = masked_row_softmax(np.einsum("bte,be->bt", enc, query), mask)
        context = np.einsum("bt,bte->be", weights, enc)
        combo_in = np.concatenate([context, s], axis=1)
        combined = np.tanh(combo_in @ W_c.value.T)
        for name, value in zip(fields, (query, weights, context, combined)):
            fields[name].append(value)

        d_pre = d_combined[:, k] * (1.0 - combined * combined)
        W_c.grad += d_pre.T @ combo_in
        d_combo_in = d_pre @ W_c.value
        d_context, d_states[:, k] = d_combo_in[:, :E], d_combo_in[:, E:]
        d_weights = np.einsum("be,bte->bt", d_context, enc)
        d_scores = weights * (d_weights - (d_weights * weights).sum(axis=1, keepdims=True))
        d_query = np.einsum("bt,bte->be", d_scores, enc)
        W_a.grad += d_query.T @ s
        d_states[:, k] += d_query @ W_a.value
        d_enc += weights[:, :, None] * d_context[:, None, :]
        d_enc += d_scores[:, :, None] * query[:, None, :]
    return {name: np.stack(v, axis=1) for name, v in fields.items()}, d_enc, d_states


def reference_sequence_nll(logits, targets, mask):
    """Batch-mean of per-row summed negative log-likelihoods.

    logits [B,T,V], targets [B,T] int, mask [B,T] bool. Uses log-softmax
    over every row, masked or not; returns (loss, probs).
    """
    logits = np.asarray(logits, dtype=FLOAT)
    targets = np.asarray(targets)
    B, T, V = logits.shape
    if targets.size and (targets.min() < 0 or targets.max() >= V):
        raise ValueError(f"target id out of range [0, {V})")
    logp = log_softmax(logits)
    rows = np.arange(B)[:, None], np.arange(T)[None, :]
    gold_logp = logp[rows[0], rows[1], targets]
    loss = float(-(gold_logp * mask).sum() / B)
    return loss, np.exp(logp)


def reference_sequence_nll_backward(probs, targets, mask, scale=1.0):
    """d loss / d logits for reference_sequence_nll; scale folds in a loss weight."""
    B, T, V = probs.shape
    d = probs.copy()
    rows = np.arange(B)[:, None], np.arange(T)[None, :]
    d[rows[0], rows[1], targets] -= 1.0
    d *= (np.asarray(mask, dtype=FLOAT) * (scale / B))[:, :, None]
    return d


def reference_xent(hidden, W, targets, mask, scale=1.0):
    """The softmax cross-entropy of logits hidden @ W.T with its gradients, through
    the whole [B,T,V] logit array: (loss, d_hidden, dW)."""
    logits = np.einsum("bth,vh->btv", hidden, W)
    loss, probs = reference_sequence_nll(logits, targets, mask)
    d_logits = reference_sequence_nll_backward(probs, targets, mask, scale)
    return (loss, np.einsum("btv,vh->bth", d_logits, W),
            np.einsum("btv,bth->vh", d_logits, hidden))


def _valid_rows(hidden, W, targets, mask):
    """(hidden as [B*T, H], flat indices of the valid rows, their gold ids)."""
    hidden = np.asarray(hidden, dtype=FLOAT)
    targets = np.asarray(targets)
    V = W.shape[0]
    if targets.size and (targets.min() < 0 or targets.max() >= V):
        raise ValueError(f"target id out of range [0, {V})")
    rows = np.flatnonzero(mask)
    return hidden.reshape(-1, hidden.shape[-1]), rows, targets.reshape(-1)[rows]


def two_pass_sequence_nll(hidden, W, targets, mask):
    """The chunked loss as a forward pass of its own: (loss, lse), lse the
    log-sum-exp of each valid row's logits. With two_pass_sequence_nll_backward,
    the same IEEE operations in the same order as outline_decoder.sequence_nll
    forms in one pass, chunked by the library's XENT_CHUNK as it stands."""
    X, rows, gold = _valid_rows(hidden, W, targets, mask)
    peak, log_sum, gold_shifted = (np.empty(rows.size, dtype=FLOAT) for _ in range(3))
    for lo in range(0, rows.size, outline_decoder.XENT_CHUNK):
        part = slice(lo, lo + outline_decoder.XENT_CHUNK)
        z = X[rows[part]] @ W.T
        peak[part] = z.max(axis=1)
        z -= peak[part, None]
        gold_shifted[part] = z[np.arange(len(z)), gold[part]]
        np.exp(z, out=z)
        log_sum[part] = np.log(z.sum(axis=1))
    # -log p(gold) = log_sum - (z_gold - peak): no cancellation against a large peak
    loss = float((log_sum - gold_shifted).sum() / len(hidden))
    return loss, peak + log_sum


def two_pass_sequence_nll_backward(hidden, W, targets, mask, lse, scale=1.0):
    """Gradients of scale * two_pass_sequence_nll: (d_hidden [B,T,H], dW [V,H]),
    each chunk's logits formed again and its softmax recomputed from lse."""
    X, rows, gold = _valid_rows(hidden, W, targets, mask)
    d_hidden = np.zeros_like(X)
    dW = np.zeros_like(W)
    factor = scale / len(hidden)
    for lo in range(0, rows.size, outline_decoder.XENT_CHUNK):
        part = slice(lo, lo + outline_decoder.XENT_CHUNK)
        X_c = X[rows[part]]
        p = X_c @ W.T
        p -= lse[part, None]
        np.exp(p, out=p)
        p[np.arange(len(p)), gold[part]] -= 1.0
        p *= factor
        dW += p.T @ X_c
        d_hidden[rows[part]] = p @ W
    return d_hidden.reshape(np.shape(hidden)), dW


def outline_loss(logits, targets, mask):
    """Sum of gold-token negative log-probabilities over unmasked steps,
    averaged over the batch."""
    loss, _ = reference_sequence_nll(logits, targets, mask)
    return loss


def report_loss(logits, targets, mask, kl, beta):
    """Token-level NLL over unmasked steps plus beta * KL (batch means)."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    nll, _ = reference_sequence_nll(logits, targets, mask)
    return nll + beta * float(np.mean(kl))


def joint_loss(l_outline: float, l_report: float) -> float:
    """Plain sum of the two stage losses; the reported model objective."""
    if not (math.isfinite(l_outline) and math.isfinite(l_report)):
        raise NonFiniteLossError(
            f"non-finite stage loss: outline={l_outline!r} report={l_report!r}")
    return l_outline + l_report


@dataclass
class EncoderStates:
    """Per-example view of the encoder output: one 2*d_hid state per token."""

    states: np.ndarray          # [m, 2*d_hid], forward half then backward half
    final_forward: np.ndarray   # [d_hid], the forward half of the last state
    final_backward: np.ndarray  # [d_hid], the backward half of the first state

    def __len__(self):
        return self.states.shape[0]


def encode_bilstm(embedded, encoder) -> EncoderStates:
    """Encode a single already-embedded sequence [m, d_emb] into EncoderStates."""
    embedded = np.asarray(embedded, dtype=FLOAT)
    if embedded.ndim != 2 or embedded.shape[0] == 0:
        raise ValueError("encode_bilstm expects a non-empty [m, d_emb] sequence")
    m = embedded.shape[0]
    mask = np.ones((1, m), dtype=bool)
    H, _ = encoder.forward(embedded[None, :, :], mask)
    return EncoderStates(states=H[0], final_forward=H[0, -1, :encoder.d_hid],
                         final_backward=H[0, 0, encoder.d_hid:])
