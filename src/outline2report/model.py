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
from .outline_decoder import OutlineDecoder, OutlineForward
from .report_decoder import ReportDecoder, ReportForward, fuse_news_outline, masked_mean_pool


def shifted_targets(ids):
    """Decoder views of a wrapped id matrix: inputs, targets, target mask."""
    inputs = ids[:, :-1]
    targets = ids[:, 1:]
    return inputs, targets, targets != PAD


@dataclass
class ModelForward:
    batch: Batch
    enc_cache: object               # encoder run caches; their inputs are the news embeddings
    outline: OutlineForward         # attention.enc_states: the encoder states [B, T, 2H]
    summary_weights: np.ndarray     # [B, T_rep], rows sum to 1
    pool_weights: tuple             # ([B, T], [B, K]): the fusion pools' weights
    report: ReportForward
    loss_model: float


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

    def forward(self, batch: Batch, noise, beta, sample_rng=None) -> ModelForward:
        """The joint pass; cfg.teacher_forcing_ratio < 1 draws its coins from sample_rng."""
        ratio = self.cfg.teacher_forcing_ratio
        enc_states, enc_cache = self.encoder.forward(
            self.embedding.lookup(batch.news_ids), batch.news_mask)

        o_in, o_tgt, o_tmask = shifted_targets(batch.outline_ids)
        out_fwd = self.outline_decoder.forward_teacher(
            self.embedding, enc_states, batch.news_mask, o_in, o_tgt, o_tmask,
            sample_rng=sample_rng, teacher_forcing_ratio=ratio)

        report_summary, summary_weights = masked_mean_pool(
            self.embedding.lookup(batch.report_ids), batch.report_mask)
        u, pool_weights = fuse_news_outline(
            enc_states, batch.news_mask, out_fwd.attention.state, o_tmask)

        r_in, r_tgt, r_tmask = shifted_targets(batch.report_ids)
        rep_fwd = self.report_decoder.forward_teacher(
            self.embedding, u, report_summary,
            r_in, r_tgt, r_tmask, noise, beta, sample_rng=sample_rng, teacher_forcing_ratio=ratio)

        return ModelForward(
            batch=batch, enc_cache=enc_cache, outline=out_fwd, summary_weights=summary_weights,
            pool_weights=pool_weights, report=rep_fwd,
            loss_model=self.cfg.outline_loss_weight * out_fwd.loss + rep_fwd.loss)

    def backward(self, fwd: ModelForward):
        """Gradients of loss_model into every parameter's .grad."""
        batch = fwd.batch
        du, d_rep_summary, dX_rep = self.report_decoder.backward(fwd.report)
        self.embedding.accumulate_grad(fwd.report.input_ids, dX_rep)
        # report summary is a weighted sum of report-token embeddings
        d_sum_emb = fwd.summary_weights[:, :, None] * d_rep_summary[:, None, :]
        self.embedding.accumulate_grad(batch.report_ids, d_sum_emb)

        d_enc_dim = fwd.outline.attention.enc_states.shape[2]
        dpool_enc = du[:, :d_enc_dim]
        dpool_out = du[:, d_enc_dim:]
        w_enc, w_out = fwd.pool_weights
        dH_fusion = w_enc[:, :, None] * dpool_enc[:, None, :]
        dS_fusion = w_out[:, :, None] * dpool_out[:, None, :]

        dH, dX_out = self.outline_decoder.backward(
            fwd.outline, dH_fusion, dS_fusion, self.cfg.outline_loss_weight)
        self.embedding.accumulate_grad(fwd.outline.input_ids, dX_out)
        dX_news = self.encoder.backward(fwd.enc_cache, dH)
        self.embedding.accumulate_grad(batch.news_ids, dX_news)
        self.embedding.freeze_pad_row()


def build_model(vocab: Vocabulary, cfg: TrainingConfig) -> NewsToReportModel:
    """Model with parameters initialized from the config seed's init stream."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    return NewsToReportModel(len(vocab), cfg, rng)
