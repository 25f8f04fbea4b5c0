"""Per-hypothesis references for the batched beam search.

`reference_beam_search` is the search as it was written before beam search
stepped all live hypotheses in one call: one step_fn call per hypothesis, one
object per (hypothesis, token) expansion, one sort of them all. Its step
contract is the single-row one, step_fn(state, token) -> (logp [V], state).
`reference_beam_generate` runs the full pipeline on it, stepping each
hypothesis as a lone [1, H] row.
"""

import math
from dataclasses import dataclass

import numpy as np

from outline2report.corpus import BOS, EOS, PAD, wrap_ids
from outline2report.generation import DecodedSequence
from outline2report.numerics import log_softmax, run_lstm
from outline2report.outline_decoder import attend
from outline2report.report_decoder import fuse_news_outline


@dataclass
class _Hypothesis:
    tokens: tuple
    total: float
    state: object


def reference_beam_search(step_fn, init_state, width, max_len, bos_id=BOS):
    if width < 1:
        raise ValueError("beam width must be >= 1")
    active = [_Hypothesis((), 0.0, init_state)]
    finished = []
    for _ in range(max_len):
        if not active:
            break
        expansions = []
        for hyp in active:
            prev = hyp.tokens[-1] if hyp.tokens else bos_id
            logp, state = step_fn(hyp.state, prev)
            for tok in range(len(logp)):
                lp = float(logp[tok])
                if lp == -math.inf:
                    continue
                expansions.append(_Hypothesis(hyp.tokens + (tok,), hyp.total + lp, state))
        expansions.sort(key=lambda h: (-h.total, h.tokens))
        active = []
        for hyp in expansions[:width]:
            (finished if hyp.tokens[-1] == EOS else active).append(hyp)
    pool = finished + active
    if not pool:
        return DecodedSequence((), 0.0)
    best = min(pool, key=lambda h: (-(h.total / len(h.tokens)), h.tokens))
    return DecodedSequence(best.tokens, best.total)


def prefix_step(table):
    """Single-row step over a prefix table; the state is the prefix tuple."""
    def step_fn(prefix, token):
        prefix = prefix if token is None else prefix + (token,)
        return table[prefix], prefix
    return step_fn


def _emission_mask(logits):
    logp = log_softmax(logits)
    logp[PAD] = -math.inf
    logp[BOS] = -math.inf
    return logp


def reference_beam_generate(news_tokens, model, vocab, dcfg):
    """(outline, report) DecodedSequences of generate(..., strategy="beam")."""
    ids = np.array([wrap_ids(list(news_tokens), vocab, model.cfg.max_news_len)], dtype=np.int64)
    mask = ids != PAD
    emb = model.embedding
    enc_states, _ = model.encoder.forward(emb.lookup(ids), mask)
    odec = model.outline_decoder
    rdec = model.report_decoder

    def outline_step(state, token):
        s, c = odec.step(emb.lookup(np.array([token], dtype=np.int64)), state)
        attn = attend(enc_states, s[:, None], mask, odec.W_a, odec.W_c)
        return _emission_mask((attn.combined[:, 0] @ odec.W_o.value.T)[0]), (s, c)

    def report_step(state, token):
        h, c = rdec.step(emb.lookup(np.array([token], dtype=np.int64)), state)
        return _emission_mask((h @ rdec.W_out.value.T)[0]), (h, c)

    s0 = odec.initial_state(enc_states)
    outline = reference_beam_search(outline_step, (s0, np.zeros_like(s0)), dcfg.beam_width,
                                    dcfg.max_outline_len)
    fed = np.array([(BOS,) + outline.tokens[:-1]], dtype=np.int64)
    fed_mask = np.ones(fed.shape, dtype=bool)
    states, _ = run_lstm(odec.cell, emb.lookup(fed), fed_mask, h0=s0)
    u, _ = fuse_news_outline(enc_states, mask, states, fed_mask)
    rng = np.random.default_rng(np.random.SeedSequence([dcfg.seed, 3]))
    z = (np.zeros((1, model.cfg.d_z)) if dcfg.deterministic_latent
         else rng.standard_normal((1, model.cfg.d_z)))
    h0 = rdec.initial_state(z, u)
    report = reference_beam_search(report_step, (h0, np.zeros_like(h0)), dcfg.beam_width,
                                   dcfg.max_report_len)
    return outline, report
