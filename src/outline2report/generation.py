"""Inference-time decoding (greedy, beam, sampling) for outlines and reports,
plus BLEU and repetition metrics.

All decoders share one step contract: step_fn(state, tokens) feeds one token
to each of the n rows of `state`, a tuple of arrays holding the rows along
axis 0, and returns (log-probs [n, V], new state). The first call feeds BOS
to every row, and a row ends when it emits EOS. Greedy and sampling step one
row; beam search steps every live hypothesis in one call. Each search
returns a DecodedSequence: the emitted tokens and their summed log-prob,
added in emission order as the tokens are chosen. A model-backed step feeds
the tokens' embedding rows to the decoder's cell step on [n, 1, H] stacks,
then runs the head, one log-softmax and the emission rule,
numerics.mask_unemittable. The fed ids are BOS or ids the search took from
the V columns, so they index the table directly; Embedding.lookup's range
check runs on the news and the replay.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .config import DecodeConfig
from .corpus import BOS, EOS, PAD, Vocabulary, wrap_ids
from .model import shifted_targets
from .numerics import left_sum, log_softmax, mask_unemittable, run_lstm
from .outline_decoder import attend
from .report_decoder import fuse_news_outline


# -- generic search ------------------------------------------------------------


@dataclass
class DecodedSequence:
    tokens: tuple          # emitted ids, including the terminal EOS if reached
    logprob: float         # summed model log-prob of the emitted tokens


def _decode_row(step_fn, init_state, max_len, choose):
    """Step one row, feeding back the token `choose(logp)` picks, until EOS
    or max_len tokens."""
    state = init_state
    prev = [BOS]
    tokens: list[int] = []
    total = 0.0
    for _ in range(max_len):
        logp, state = step_fn(state, prev)
        row = logp[0]
        tok = choose(row)
        tokens.append(tok)
        total += float(row[tok])
        if tok == EOS:
            break
        prev = [tok]
    return DecodedSequence(tuple(tokens), total)


def greedy_decode(step_fn, init_state, max_len):
    """Argmax at every step; ties go to the smallest token id."""
    return _decode_row(step_fn, init_state, max_len, lambda row: int(row.argmax()))


def sample_decode(step_fn, init_state, max_len, rng, temperature=1.0):
    """Ancestral sampling; temperature rescales logits before normalizing.

    The summed log-prob is that of the unscaled model distribution.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")

    def draw(row):
        scaled = log_softmax(row / temperature)
        return int(rng.choice(len(row), p=np.exp(scaled)))

    return _decode_row(step_fn, init_state, max_len, draw)


def beam_search(step_fn, init_state, width, max_len):
    """Length-normalized beam search from a one-row state tuple.

    Each step keeps the `width` best expansions by cumulative log-prob; any
    of those ending in EOS retire to the finished pool (their slot is not
    refilled) and are never pruned afterwards. Final ranking is the summed
    log-prob over the length, EOS counted in both; ties break toward the
    lexicographically smaller token-id sequence.

    One step_fn call per step covers every live hypothesis, one state row
    each. The live rows have one length and are kept in lexicographic order
    of their tokens, so ordering the flattened [rows, V] expansions stably on
    -total orders them as (-total, tokens) does. np.argpartition picks the
    `width` smallest -totals; when more entries than that tie with the
    boundary value (the -inf ones included), the pick among them is
    arbitrary, so a stable argsort takes its place. Sorted by flat index, the
    picks with finite log-prob extend their parents' token tuples and totals
    in token order; those that end in EOS retire. State rows are gathered by
    parent unless all live on in place; no array handed in is written to.

    The search stops early, with the result it would reach at max_len, once
    the best finished score is strictly greater than the largest live total
    divided by max_len. Premise of the contract: every finite log-prob that
    step_fn returns is <= 0 (log_softmax gives x - max <= 0 minus the log of
    a sum >= exp(0) = 1). Then a live total t <= 0 only falls, as rounded
    addition of a value <= 0 is monotone; any completion, of length at most
    max_len, scores at most t / max_len, and correctly rounded division keeps
    that order. So no later hypothesis can beat or tie the best finished one,
    and the live ones at the stop, scoring t / len <= t / max_len, cannot
    win either. The finished scores are the ranking's own divisions.
    """
    if width < 1:
        raise ValueError("beam width must be >= 1")
    if max_len < 1:
        return DecodedSequence((), 0.0)
    state = init_state
    hyps, totals, prev = [()], [0.0], [BOS]   # live hypotheses, in token order
    finished, best_done = [], -math.inf
    length = 0
    while length < max_len and hyps and not (finished and best_done > max(totals) / max_len):
        logp, state = step_fn(state, prev)
        cand = np.array(totals)[:, None] + logp
        order = -cand.ravel()
        k = min(width, order.size)
        best = np.argpartition(order, k - 1)[:k]
        if np.count_nonzero(order <= order[best[-1]]) > k:
            best = np.argsort(order, kind="stable")[:k]
        length += 1
        parents, live, sums = [], [], []
        for i in sorted(best.tolist()):
            lp = logp.item(i)
            if lp == -math.inf:
                continue
            parent, tok = divmod(i, logp.shape[1])
            hyp, total = hyps[parent] + (tok,), totals[parent] + lp
            if tok == EOS:
                finished.append((hyp, total))
                best_done = max(best_done, total / length)
            else:
                parents.append(parent)
                live.append(hyp)
                sums.append(total)
        if parents != list(range(len(hyps))):
            state = tuple(part.take(parents, axis=0) for part in state)
        hyps, totals, prev = live, sums, [h[-1] for h in live]
    pool = finished + list(zip(hyps, totals))
    if not pool:
        return DecodedSequence((), 0.0)
    best_tokens, best_total = min(pool, key=lambda h: (-(h[1] / len(h[0])), h[0]))
    return DecodedSequence(best_tokens, best_total)


# -- model-backed generation ---------------------------------------------------


@dataclass
class GenerationResult:
    outline_ids: tuple
    report_ids: tuple
    logprob: float                       # sum over both emitted sequences
    attention: np.ndarray | None = field(default=None, repr=False)

    def to_record(self, pair_id, vocab: Vocabulary) -> dict:
        """The JSON record: both sequences decoded to words, specials dropped."""
        rec = {
            "id": pair_id,
            "outline": vocab.decode(self.outline_ids),
            "report": vocab.decode(self.report_ids),
            "logprob": self.logprob,
        }
        if self.attention is not None:
            rec["attention"] = [[float(w) for w in row] for row in self.attention]
        return rec


@np.errstate(over="ignore")  # a sigmoid gate whose exp overflows is exactly 0
def generate(news_tokens, model, vocab: Vocabulary, dcfg: DecodeConfig) -> GenerationResult:
    """Full pipeline on one news item: encode, decode an outline, fuse it
    with the encoding, take the latent (zero, or a prior draw from the decode
    seed's stream), decode the report."""
    news_tokens = list(news_tokens)
    if not news_tokens:
        raise ValueError("cannot generate from empty news input")
    ids = np.array([wrap_ids(news_tokens, vocab, model.cfg.max_news_len)], dtype=np.int64)
    mask = ids != PAD
    emb = model.embedding
    enc_states, _ = model.encoder.forward(emb.lookup(ids), mask)

    odec, rdec = model.outline_decoder, model.report_decoder
    rng = (np.random.default_rng(np.random.SeedSequence([dcfg.seed, 3]))
           if dcfg.strategy == "sample" or not dcfg.deterministic_latent else None)

    def search(decoder, head, seed, max_len):
        """Decode one stage with dcfg's strategy from the seed state and, as in
        run_lstm, a zero cell state. Rows step as [n,1,H] stacks: x @ W.T on
        one is a [1,H] product per row, bit-equal to stepping the row alone,
        where an [n,H] GEMM may sum a row in another order."""
        def step_fn(state, tokens):
            state = decoder.step(emb.table.value[tokens][:, None], state)
            return mask_unemittable(log_softmax(head(state[0])[:, 0])), state

        init = (seed[:, None], np.zeros_like(seed[:, None]))
        if dcfg.strategy == "beam":
            return beam_search(step_fn, init, dcfg.beam_width, max_len)
        if dcfg.strategy == "sample":
            return sample_decode(step_fn, init, max_len, rng, dcfg.temperature)
        return greedy_decode(step_fn, init, max_len)

    s0 = odec.initial_state(enc_states)
    # the n query rows attend over the one news row, which matmul broadcasts
    outline = search(odec, lambda s: odec.logits(enc_states, mask, s), s0, dcfg.max_outline_len)

    # replay the chosen outline in one pass to collect the decoder states for
    # fusion (and the attention rows, if asked for)
    fed, _, fed_mask = shifted_targets(np.array([(BOS,) + outline.tokens], dtype=np.int64))
    states, _ = run_lstm(odec.cell, emb.lookup(fed), fed_mask, h0=s0)
    u, _ = fuse_news_outline(enc_states, mask, states, fed_mask)
    attention = (attend(enc_states, states, mask, odec.W_a, odec.W_c).weights[0]
                 if dcfg.record_attention else None)

    z = (np.zeros((1, rdec.d_z)) if dcfg.deterministic_latent
         else rng.standard_normal((1, rdec.d_z)))
    report = search(rdec, rdec.logits, rdec.initial_state(z, u), dcfg.max_report_len)

    return GenerationResult(
        outline_ids=outline.tokens, report_ids=report.tokens,
        logprob=outline.logprob + report.logprob,
        attention=attention)


# -- metrics -------------------------------------------------------------------


def ngrams(tokens, n) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def clipped_counts(candidate, reference, n):
    """(clipped matches, total candidate n-grams), before smoothing."""
    cand = ngrams(candidate, n)
    ref = ngrams(reference, n)
    clipped = sum(min(count, ref[gram]) for gram, count in cand.items())
    return clipped, sum(cand.values())


def bleu(candidate, reference) -> float:
    """Sentence 4-gram BLEU: geometric mean of the modified 1- to 4-gram
    precisions times the brevity penalty. Smoothing is add-1 on numerator and
    denominator for n >= 2 only, so a zero unigram overlap, like an empty
    candidate, scores 0.
    """
    candidate = list(candidate)
    reference = list(reference)
    if not reference:
        raise ValueError("reference must be non-empty")
    return corpus_bleu([(candidate, reference)])


def corpus_bleu(pairs) -> float:
    """Corpus BLEU: counts pooled over all (candidate, reference) pairs, the
    same add-1 smoothing applied once to the pooled counts for n >= 2; 0 when
    every candidate is empty."""
    pairs = [(list(c), list(r)) for c, r in pairs]
    if not pairs:
        raise ValueError("corpus_bleu needs at least one pair")
    cand_len = sum(len(c) for c, _ in pairs)
    ref_len = sum(len(r) for _, r in pairs)
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for n in (1, 2, 3, 4):
        clipped = total = 0
        for cand, ref in pairs:
            c, t = clipped_counts(cand, ref, n)
            clipped += c
            total += t
        if n >= 2:
            clipped += 1
            total += 1
        if clipped == 0 or total == 0:
            return 0.0
        log_sum += math.log(clipped / total)
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return bp * math.exp(log_sum / 4)


def repetition_rate(tokens) -> float:
    """1 - distinct/total bigrams, the repeated-term failure measure; 0 for
    fewer than 2 tokens."""
    tokens = list(tokens)
    total = len(tokens) - 1
    if total <= 0:
        return 0.0
    grams = ngrams(tokens, 2)
    # (total - distinct)/total, not 1 - distinct/total: bit-exact at e.g. 2/3
    return (total - len(grams)) / total


def length_stats(sequences) -> dict:
    lengths = [len(s) for s in sequences]
    if not lengths:
        return {"count": 0, "mean": 0.0, "min": 0, "max": 0}
    return {"count": len(lengths), "mean": sum(lengths) / len(lengths),
            "min": min(lengths), "max": max(lengths)}


def evaluation_report(candidates_by_id: dict, references_by_id: dict) -> dict:
    """Metrics block for generated outputs against gold reports.

    Keys of `candidates_by_id` must all resolve in `references_by_id`.
    """
    missing = [i for i in candidates_by_id if i not in references_by_id]
    if missing:
        raise ValueError(f"generated ids missing from reference dataset: {missing}")
    ids = sorted(candidates_by_id)
    cands = [candidates_by_id[i] for i in ids]
    refs = [references_by_id[i] for i in ids]
    sent = [bleu(c, r) for c, r in zip(cands, refs)]
    cand_rep = [repetition_rate(c) for c in cands]
    ref_rep = [repetition_rate(r) for r in refs]
    return {
        "pairs": len(ids),
        "mean_sentence_bleu": left_sum(sent) / len(sent) if sent else 0.0,
        "corpus_bleu": corpus_bleu(zip(cands, refs)) if ids else 0.0,
        "candidate_repetition": left_sum(cand_rep) / len(cand_rep) if cand_rep else 0.0,
        "reference_repetition": left_sum(ref_rep) / len(ref_rep) if ref_rep else 0.0,
        "candidate_lengths": length_stats(cands),
        "reference_lengths": length_stats(refs),
    }
