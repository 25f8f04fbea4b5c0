"""Single-example and closed-form references for the batched model code.

None of these runs in training or generation. Each restates one piece of the
model in its plainest form, so the tests can hold the batched code to it:
a 1-D softmax, one LSTM step on vectors, the two stage losses as scalars,
their sum, and the encoder run on one unpadded sequence.
"""

import math
from dataclasses import dataclass

import numpy as np

from outline2report.numerics import FLOAT, NonFiniteLossError, sigmoid
from outline2report.outline_decoder import sequence_nll


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


def outline_loss(logits, targets, mask):
    """Sum of gold-token negative log-probabilities over unmasked steps,
    averaged over the batch."""
    loss, _ = sequence_nll(logits, targets, mask)
    return loss


def report_loss(logits, targets, mask, kl, beta):
    """Token-level NLL over unmasked steps plus beta * KL (batch means)."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    nll, _ = sequence_nll(logits, targets, mask)
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
    final_forward: np.ndarray   # [d_hid]
    final_backward: np.ndarray  # [d_hid]

    def __len__(self):
        return self.states.shape[0]


def encode_bilstm(embedded, encoder) -> EncoderStates:
    """Encode a single already-embedded sequence [m, d_emb] into EncoderStates."""
    embedded = np.asarray(embedded, dtype=FLOAT)
    if embedded.ndim != 2 or embedded.shape[0] == 0:
        raise ValueError("encode_bilstm expects a non-empty [m, d_emb] sequence")
    m = embedded.shape[0]
    mask = np.ones((1, m), dtype=bool)
    H, hf_fin, hb_fin, _ = encoder.forward(embedded[None, :, :], mask)
    return EncoderStates(states=H[0], final_forward=hf_fin[0], final_backward=hb_fin[0])
