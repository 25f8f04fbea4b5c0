"""VAE-based report decoder: fusion, recognition network, latent sampling,
KL term, and the LSTM that writes the report.

The conditioning vector u concatenates the mean-pooled encoder states with
the mean-pooled outline decoder states. During training the recognition
network sees u together with a mean-pooled embedding of the gold report and
produces a diagonal Gaussian; the sampled latent (reparameterized) and u
initialize the decoder state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (FLOAT, LSTMCell, Parameter, affine_backward, run_lstm,
                       run_lstm_backward, scheduled_inputs, uniform_init)
from .outline_decoder import sequence_nll, sequence_nll_backward


def masked_mean_pool(X, mask):
    """Mean over unmasked positions of X [B,T,D]; returns ([B,D], weights [B,T]),
    each weight row the mask over its length, which is also d(pool)/d(X)."""
    fmask = np.asarray(mask, dtype=FLOAT)
    lengths = fmask.sum(axis=1, keepdims=True)
    if np.any(lengths == 0):
        raise ValueError("mean pool over a fully masked row")
    return np.einsum("bt,btd->bd", fmask, X) / lengths, fmask / lengths


def fuse_news_outline(enc_states, enc_mask, outline_states, outline_mask):
    """u = [mean-pool(encoder states) ; mean-pool(outline states)], with the
    two pools' weights."""
    pool_enc, w_enc = masked_mean_pool(enc_states, enc_mask)
    pool_out, w_out = masked_mean_pool(outline_states, outline_mask)
    return np.concatenate([pool_enc, pool_out], axis=1), (w_enc, w_out)


@dataclass
class LatentSample:
    mean: np.ndarray     # [B, d_z]
    logvar: np.ndarray   # [B, d_z]
    z: np.ndarray        # [B, d_z]
    noise: np.ndarray    # [B, d_z], the epsilon actually used


def reparameterize(mean, logvar, noise) -> LatentSample:
    """z = mean + exp(logvar / 2) * noise, with the noise recorded."""
    z = mean + np.exp(0.5 * logvar) * noise
    return LatentSample(mean=mean, logvar=logvar, z=z, noise=noise)


def gaussian_kl(mean, logvar):
    """KL(N(mean, diag(exp(logvar))) || N(0, I)), summed over the last axis.

    0.5 * sum(exp(logvar) + mean^2 - 1 - logvar); nonnegative, zero exactly
    at (0, 0). Returns a scalar for vectors, a per-row array for matrices.
    """
    return 0.5 * np.sum(np.exp(logvar) + mean * mean - 1.0 - logvar, axis=-1)


@dataclass
class ReportForward:
    recog_in: np.ndarray
    latent: LatentSample
    kl_rows: np.ndarray
    u: np.ndarray             # the fusion vector
    states: np.ndarray        # [B, K, H]
    lse: np.ndarray           # log-sum-exp of each valid step's logits
    loss: float               # NLL + beta * mean KL
    beta: float
    input_ids: np.ndarray
    targets: np.ndarray       # [B, K] gold ids
    run_cache: object         # mask is the target mask; h_prev[0] is the seed h0


class ReportDecoder:
    """Recognition affine maps, latent-to-state bridge, LSTM, output softmax."""

    def __init__(self, vocab_size, d_emb, d_hid, d_u, d_z, rng):
        self.d_z = d_z
        d_recog = d_u + d_emb
        self.W_mu = Parameter("report.recog.W_mu", uniform_init(rng, (d_z, d_recog)))
        self.b_mu = Parameter("report.recog.b_mu", np.zeros(d_z, dtype=FLOAT))
        self.W_lv = Parameter("report.recog.W_lv", uniform_init(rng, (d_z, d_recog)))
        self.b_lv = Parameter("report.recog.b_lv", np.zeros(d_z, dtype=FLOAT))
        self.W_init = Parameter("report.init.W", uniform_init(rng, (d_hid, d_z + d_u)))
        self.b_init = Parameter("report.init.b", np.zeros(d_hid, dtype=FLOAT))
        self.cell = LSTMCell("report.lstm", d_emb, d_hid, rng)
        self.W_out = Parameter("report.out.W", uniform_init(rng, (vocab_size, d_hid)))

    def parameters(self):
        return ([self.W_mu, self.b_mu, self.W_lv, self.b_lv, self.W_init, self.b_init]
                + self.cell.parameters() + [self.W_out])

    def infer_latent(self, u, report_summary, noise) -> tuple[LatentSample, np.ndarray]:
        """Recognition pass: affine maps from [u ; report summary] to the
        Gaussian parameters, then the reparameterized sample."""
        recog_in = np.concatenate([u, report_summary], axis=1)
        mean = recog_in @ self.W_mu.value.T + self.b_mu.value
        logvar = recog_in @ self.W_lv.value.T + self.b_lv.value
        return reparameterize(mean, logvar, noise), recog_in

    def initial_state(self, z, u):
        """The seed h0 = tanh(W_init [z ; u] + b_init)."""
        return np.tanh(np.concatenate([z, u], axis=1) @ self.W_init.value.T + self.b_init.value)

    def step(self, x_emb, state):
        return self.cell.step(self.cell.input_gates(x_emb), *state, self.cell.W_h.value.T)[:2]

    def logits(self, h):
        """The report head: states h [..., H] -> vocabulary logits [..., V]."""
        return h @ self.W_out.value.T

    def forward_teacher(self, embedding, u, report_summary,
                        gold_in_ids, targets, target_mask, noise, beta,
                        sample_rng=None, teacher_forcing_ratio=1.0) -> ReportForward:
        """Teacher-forced report pass with a freshly sampled latent."""
        latent, recog_in = self.infer_latent(u, report_summary, noise)
        kl_rows = gaussian_kl(latent.mean, latent.logvar)
        input_ids, feed = scheduled_inputs(
            embedding.lookup, gold_in_ids, self.logits, sample_rng, teacher_forcing_ratio)
        states, run_cache = run_lstm(self.cell, embedding.lookup(input_ids), target_mask,
                                     h0=self.initial_state(latent.z, u), feed=feed)
        nll, lse = sequence_nll(states, self.W_out.value, targets, target_mask)
        loss = nll + beta * float(np.mean(kl_rows))
        return ReportForward(
            recog_in=recog_in, latent=latent, kl_rows=kl_rows, u=u,
            states=states, lse=lse, loss=loss, beta=beta, input_ids=input_ids,
            targets=targets, run_cache=run_cache)

    def backward(self, fwd: ReportForward):
        """Backward through NLL + beta*KL; accumulates parameter grads.

        Returns (d_u, d_report_summary, d_input_embeddings).
        """
        B = fwd.states.shape[0]
        dS, dW_out = sequence_nll_backward(fwd.states, self.W_out.value, fwd.targets,
                                           fwd.run_cache.mask, fwd.lse)
        self.W_out.grad += dW_out
        dX, dh0 = run_lstm_backward(self.cell, fwd.run_cache, dS)

        h0 = fwd.run_cache.h_prev[0]
        latent = fwd.latent
        d_init_in = affine_backward(np.concatenate([latent.z, fwd.u], axis=1),
                                    dh0 * (1.0 - h0 * h0), self.W_init, self.b_init)
        dz = d_init_in[:, :self.d_z]
        du = d_init_in[:, self.d_z:]

        # KL term (batch mean, weighted by beta); then the sample path.
        d_mean = (fwd.beta / B) * latent.mean
        d_logvar = (fwd.beta / B) * 0.5 * (np.exp(latent.logvar) - 1.0)
        d_mean += dz
        d_logvar += dz * latent.noise * 0.5 * np.exp(0.5 * latent.logvar)

        d_recog_in = (affine_backward(fwd.recog_in, d_mean, self.W_mu, self.b_mu)
                      + affine_backward(fwd.recog_in, d_logvar, self.W_lv, self.b_lv))
        d_u_dim = du.shape[1]
        du += d_recog_in[:, :d_u_dim]
        d_report_summary = d_recog_in[:, d_u_dim:]
        return du, d_report_summary, dX
