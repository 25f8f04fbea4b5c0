"""Full two-stage model: news encoder, outline decoder, report decoder.

One forward pass runs encoder -> teacher-forced outline decoder -> fusion ->
recognition/latent -> teacher-forced report decoder and returns all three
losses; one backward pass propagates the joint objective back to every
parameter, including the report loss's path through the fused outline and
encoder states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainingConfig
from .corpus import PAD, Batch, Vocabulary
from .encoder import BiLSTMEncoder, Embedding
from .numerics import FLOAT
from .outline_decoder import OutlineDecoder, OutlineForward
from .report_decoder import ReportDecoder, ReportForward, fuse_news_outline


def shifted_targets(ids):
    """Decoder views of a wrapped id matrix: inputs, targets, target mask."""
    inputs = ids[:, :-1]
    targets = ids[:, 1:]
    return inputs, targets, targets != PAD


@dataclass
class ModelForward:
    batch: Batch
    news_emb: np.ndarray
    enc_states: np.ndarray          # [B, T, 2H]
    enc_cache: object
    outline: OutlineForward
    outline_targets: np.ndarray
    outline_tmask: np.ndarray
    summary_weights: np.ndarray     # [B, T_rep], rows sum to 1
    u: np.ndarray
    pool_lengths: tuple
    report: ReportForward
    report_targets: np.ndarray
    report_tmask: np.ndarray
    loss_outline: float
    loss_report: float
    loss_model: float
    kl: float
    beta: float


class NewsToReportModel:
    """Shared embedding table plus the three trainable stages."""

    def __init__(self, vocab_size: int, cfg: TrainingConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.vocab_size = vocab_size
        self.embedding = Embedding(vocab_size, cfg.d_emb, rng)
        self.encoder = BiLSTMEncoder(cfg.d_emb, cfg.d_hid, rng)
        self.outline_decoder = OutlineDecoder(vocab_size, cfg.d_emb, cfg.d_hid, rng)
        d_u = 2 * cfg.d_hid + cfg.d_hid
        self.report_decoder = ReportDecoder(
            vocab_size, cfg.d_emb, cfg.d_hid, d_u, cfg.d_z, rng)

    # -- parameter bookkeeping -------------------------------------------------

    def parameters(self):
        return ([self.embedding.table] + self.encoder.parameters()
                + self.outline_decoder.parameters()
                + self.report_decoder.parameters())

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    # -- forward / backward ----------------------------------------------------

    def summarize_report(self, report_ids, report_mask):
        """Mean-pooled embeddings of the gold report tokens (PAD excluded)."""
        emb = self.embedding.lookup(report_ids)
        fmask = np.asarray(report_mask, dtype=FLOAT)
        lengths = fmask.sum(axis=1)
        if np.any(lengths == 0):
            raise ValueError("cannot summarize an empty report row")
        weights = fmask / lengths[:, None]
        return np.einsum("bt,btd->bd", weights, emb), weights

    def forward(self, batch: Batch, noise, beta, sample_rng=None,
                teacher_forcing_ratio=1.0) -> ModelForward:
        news_emb = self.embedding.lookup(batch.news_ids)
        enc_states, hf_fin, hb_fin, enc_cache = self.encoder.forward(
            news_emb, batch.news_mask)

        o_in, o_tgt, o_tmask = shifted_targets(batch.outline_ids)
        out_fwd = self.outline_decoder.forward_teacher(
            self.embedding, enc_states, batch.news_mask, hf_fin,
            o_in, o_tgt, o_tmask,
            sample_rng=sample_rng, teacher_forcing_ratio=teacher_forcing_ratio)

        report_summary, summary_weights = self.summarize_report(
            batch.report_ids, batch.report_mask)
        u, pool_lengths = fuse_news_outline(
            enc_states, batch.news_mask, out_fwd.states, o_tmask)

        r_in, r_tgt, r_tmask = shifted_targets(batch.report_ids)
        rep_fwd = self.report_decoder.forward_teacher(
            self.embedding, u, report_summary,
            r_in, r_tgt, r_tmask, noise, beta,
            sample_rng=sample_rng, teacher_forcing_ratio=teacher_forcing_ratio)

        w = self.cfg.outline_loss_weight
        loss_outline = out_fwd.loss
        loss_report = rep_fwd.loss
        loss_model = w * loss_outline + loss_report
        return ModelForward(
            batch=batch, news_emb=news_emb, enc_states=enc_states,
            enc_cache=enc_cache, outline=out_fwd, outline_targets=o_tgt,
            outline_tmask=o_tmask, summary_weights=summary_weights, u=u,
            pool_lengths=pool_lengths, report=rep_fwd, report_targets=r_tgt,
            report_tmask=r_tmask, loss_outline=loss_outline, loss_report=loss_report,
            loss_model=loss_model, kl=float(np.mean(rep_fwd.kl_rows)),
            beta=beta)

    def backward(self, fwd: ModelForward):
        """Gradients of loss_model into every parameter's .grad."""
        batch = fwd.batch
        du, d_rep_summary, dX_rep = self.report_decoder.backward(
            fwd.report, fwd.report_targets, fwd.report_tmask)
        self.embedding.accumulate_grad(fwd.report.input_ids, dX_rep)
        # report summary is a weighted sum of report-token embeddings
        d_sum_emb = fwd.summary_weights[:, :, None] * d_rep_summary[:, None, :]
        self.embedding.accumulate_grad(batch.report_ids, d_sum_emb)

        d_enc_dim = fwd.enc_states.shape[2]
        dpool_enc = du[:, :d_enc_dim]
        dpool_out = du[:, d_enc_dim:]
        len_enc, len_out = fwd.pool_lengths
        news_fmask = np.asarray(batch.news_mask, dtype=FLOAT)
        out_fmask = np.asarray(fwd.outline_tmask, dtype=FLOAT)
        dH_fusion = (news_fmask / len_enc[:, None])[:, :, None] * dpool_enc[:, None, :]
        dS_fusion = (out_fmask / len_out[:, None])[:, :, None] * dpool_out[:, None, :]

        d_enc, dX_out, dh_fwd_fin = self.outline_decoder.backward(
            fwd.outline, fwd.outline_targets, fwd.outline_tmask,
            d_states_extra=dS_fusion, loss_scale=self.cfg.outline_loss_weight)
        self.embedding.accumulate_grad(fwd.outline.input_ids, dX_out)

        dX_news = self.encoder.backward(
            fwd.enc_cache, d_enc + dH_fusion, dh_fwd_fin=dh_fwd_fin)
        self.embedding.accumulate_grad(batch.news_ids, dX_news)
        self.embedding.freeze_pad_row()


def build_model(vocab: Vocabulary, cfg: TrainingConfig) -> NewsToReportModel:
    """Model with parameters initialized from the config seed's init stream."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    return NewsToReportModel(len(vocab), cfg, rng)
