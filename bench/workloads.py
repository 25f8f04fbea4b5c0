"""The benchmark's workloads, built only from the package's public API.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns. Every input comes from the workload seed.

- ``train-hier``: ``Trainer.train_one_step`` on the hierarchical corpus. The
  vocabulary is small (about 183 words), so the LSTM recurrence and the
  per-step attention dominate.
- ``train-vocab``: the same loop on a Zipfian corpus of about 2k words with
  long reports, so the vocabulary-sized projections and the softmax
  cross-entropy dominate and the recurrence matters less.
- ``decode-greedy`` / ``decode-beam``: ``generate`` on held-out news items
  with a checkpoint trained, saved and loaded during set-up. No backward
  pass, no optimizer and no softmax cross-entropy run; the cell runs one row
  at a time. Greedy and beam decoding are separate workloads so that each
  run reports one kind of operation.
"""

from __future__ import annotations

import hashlib
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from outline2report import (DecodeConfig, NewsReportPair, TrainingConfig, Trainer,
                            build_model, build_vocabulary, derive_outlines, generate,
                            training)
from outline2report.corpus import EOS, LengthCaps, wrap_ids
from outline2report.harness import decode_lengths_for, make_hierarchical_corpus

BENCH_DIR = Path(__file__).resolve().parent

# Zipfian corpus for train-vocab. 64 pairs of Zipf(1.0) draws over 4000
# words realise only 2022-2145 distinct words (seeds 0-59), and step time
# follows that count closely, so the vocabulary is capped at 2000 entries
# (rarer words become <unk>) to give every seed the same V. The realised
# count is printed with every run.
ZIPF = {"pairs": 64, "words": 4000, "exponent": 1.0, "news_len": 40, "report_len": 120}
ZIPF_VOCAB_SIZE = 2000

# The decode checkpoint is trained on a fixed corpus with a fixed seed, so
# every workload seed decodes with the same model. Trained from the workload
# seed, the model's choice of when to emit EOS changes beam-4 time by up to
# 3x between seeds, which would swamp any change to the code.
CHECKPOINT_SEED = 0
CHECKPOINT = {"pairs": 32, "d": 32, "batch_size": 4, "learning_rate": 2e-2, "epochs": 12}
HELD_OUT_ITEMS = 256


def zipf_word(rank: int) -> str:
    """Distinct all-letter word for each rank (bijective base 26), so the
    tokenizer keeps it whole."""
    letters = []
    n = rank + 1
    while n:
        n, r = divmod(n - 1, 26)
        letters.append(chr(ord("a") + r))
    return "".join(reversed(letters))


def make_zipf_corpus(seed: int, pairs: int, words: int, exponent: float,
                     news_len: int, report_len: int) -> list[NewsReportPair]:
    """Pairs whose news and report tokens are i.i.d. Zipf(exponent) draws
    over ``words`` ranked words; lengths are fixed, so every batch has the
    same shape."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    weights = np.arange(1, words + 1, dtype=np.float64) ** -exponent
    weights /= weights.sum()
    vocab = [zipf_word(r) for r in range(words)]
    out = []
    for i in range(pairs):
        ids = rng.choice(words, size=news_len + report_len, p=weights)
        tokens = tuple(vocab[j] for j in ids)
        out.append(NewsReportPair(id=f"zipf{i}", news=tokens[:news_len],
                                  report=tokens[news_len:]))
    return out


@dataclass
class OpResult:
    ok: bool             # the output passed the per-operation checks
    tokens: int          # emitted tokens when decoding; training counts them per epoch
    record: tuple        # the output, compared bit for bit across runs


@dataclass
class TrainState:
    trainer: Trainer
    epoch_tokens: int    # non-PAD target tokens, outline plus report, per epoch
    realised_words: int  # distinct words in the corpus


@dataclass
class DecodeState:
    model: object
    vocab: object
    dcfg: DecodeConfig


class TrainWorkload:
    """Training steps; a run ends on an epoch boundary so that the number of
    target tokens behind the measured steps is exact."""

    op_metric = "train_step_ms"
    tokens_metric = "train_tokens_per_s"
    root_span = "training.train_one_step"
    setup_repeats = 5

    def __init__(self, name, corpus_fn, params, cfg_kwargs, check_ops, vocab_max_size=50000):
        self.name = name
        self.corpus_fn = corpus_fn
        self.params = params
        self.cfg_kwargs = cfg_kwargs
        self.check_ops = check_ops
        self.vocab_max_size = vocab_max_size

    def inputs(self, seed):
        return None

    def setup(self, seed) -> TrainState:
        pairs = derive_outlines(self.corpus_fn(seed))
        vocab = build_vocabulary(pairs, max_size=self.vocab_max_size)
        cfg = TrainingConfig(seed=seed, **self.cfg_kwargs)
        trainer = Trainer(build_model(vocab, cfg), pairs, vocab, cfg)
        caps = LengthCaps(news=cfg.max_news_len, outline=cfg.max_outline_len,
                          report=cfg.max_report_len)
        # decoder targets are the wrapped rows without their BOS
        epoch_tokens = sum(len(wrap_ids(p.outline, vocab, caps.outline)) - 1
                           + len(wrap_ids(p.report, vocab, caps.report)) - 1
                           for p in pairs)
        words = {tok for p in pairs for tok in p.news + p.report}
        return TrainState(trainer, epoch_tokens, len(words))

    def describe(self, state: TrainState) -> dict:
        return {**self.params, "realised_words": state.realised_words,
                "vocab": len(state.trainer.vocab),
                "steps_per_epoch": state.trainer.num_batches}

    def call(self, state: TrainState, i, inputs):
        return state.trainer.train_one_step()

    def inspect(self, state: TrainState, rec) -> OpResult:
        losses = (rec.loss_outline, rec.loss_report, rec.loss_model)
        return OpResult(all(math.isfinite(x) for x in losses), 0, losses)

    def may_stop(self, state: TrainState) -> bool:
        return state.trainer.step % state.trainer.num_batches == 0

    def total_tokens(self, state: TrainState, results) -> int:
        return state.epoch_tokens * (state.trainer.step // state.trainer.num_batches)

    def run_checks(self, state: TrainState, results, expected):
        """Checks over the whole run. Each failure marks the operations it
        concerns as failed; returns (messages, values the recorded ones are
        compared with)."""
        messages = []
        first, last = results[0].record[2], results[-1].record[2]
        if not last < first:
            fail(results, [-1], f"final L_model {last!r} is not below the first {first!r}",
                 messages)
        k = self.check_ops
        observed = {"loss_model_at_check": results[k - 1].record[2],
                    "vocab_size": len(state.trainer.vocab)}
        if expected is not None:
            want, got = expected["loss_model_at_check"], observed["loss_model_at_check"]
            if not abs(got - want) <= 1e-6 * abs(want):
                fail(results, [k - 1], f"L_model after {k} steps is {got!r}, recorded {want!r}",
                     messages)
            if observed["vocab_size"] != expected["vocab_size"]:
                fail(results, range(k), f"vocabulary size {observed['vocab_size']}, "
                     f"recorded {expected['vocab_size']}", messages)
        return messages, observed


class DecodeWorkload:
    """One ``generate`` call per operation on held-out news items, in order."""

    root_span = "generation.generate"
    setup_repeats = 3   # each trains a checkpoint for about 2 s

    def __init__(self, name, strategy, check_ops):
        self.name = name
        self.strategy = strategy
        self.check_ops = check_ops
        self.op_metric = f"{strategy}_ms_per_item"
        self.tokens_metric = f"{strategy}_tokens_per_s"
        self.params = {"strategy": strategy, "beam_width": 4, "checkpoint": CHECKPOINT,
                       "checkpoint_seed": CHECKPOINT_SEED}

    @staticmethod
    def _train_pairs():
        return make_hierarchical_corpus(CHECKPOINT["pairs"], seed=CHECKPOINT_SEED)

    def inputs(self, seed):
        seen = {p.news for p in self._train_pairs()}
        pool = make_hierarchical_corpus(HELD_OUT_ITEMS + CHECKPOINT["pairs"], seed=seed)
        return [p.news for p in pool if p.news not in seen][:HELD_OUT_ITEMS]

    def setup(self, seed) -> DecodeState:
        pairs = derive_outlines(self._train_pairs())
        vocab = build_vocabulary(pairs)
        d = CHECKPOINT["d"]
        cfg = TrainingConfig(d_emb=d, d_hid=d, batch_size=CHECKPOINT["batch_size"],
                             learning_rate=CHECKPOINT["learning_rate"],
                             seed=CHECKPOINT_SEED)
        trainer = Trainer(build_model(vocab, cfg), pairs, vocab, cfg)
        trainer.run(max_epochs=CHECKPOINT["epochs"])
        with tempfile.TemporaryDirectory(prefix=".ckpt-", dir=BENCH_DIR) as tmp:
            path = Path(tmp) / "model.ckpt"
            trainer.save(path)
            # through the module, so the traced run's patch of it applies
            model = training.restore_model(training.load_checkpoint(path), vocab)
        max_outline, max_report = decode_lengths_for(pairs)
        dcfg = DecodeConfig(strategy=self.strategy, beam_width=4,
                            max_outline_len=max_outline, max_report_len=max_report)
        return DecodeState(model, vocab, dcfg)

    def describe(self, state: DecodeState) -> dict:
        return {**self.params, "vocab": len(state.vocab),
                "max_outline_len": state.dcfg.max_outline_len,
                "max_report_len": state.dcfg.max_report_len}

    def call(self, state: DecodeState, i, inputs):
        return generate(list(inputs[i % len(inputs)]), state.model, state.vocab, state.dcfg)

    def inspect(self, state: DecodeState, res) -> OpResult:
        v = len(state.vocab)
        ok = (well_formed(res.outline_ids, v, state.dcfg.max_outline_len)
              and well_formed(res.report_ids, v, state.dcfg.max_report_len))
        return OpResult(ok, len(res.outline_ids) + len(res.report_ids),
                        (res.outline_ids, res.report_ids, res.logprob))

    def may_stop(self, state: DecodeState) -> bool:
        return True

    def total_tokens(self, state: DecodeState, results) -> int:
        return sum(r.tokens for r in results)

    def run_checks(self, state: DecodeState, results, expected):
        k = self.check_ops
        observed = {"token_digest": token_digest(r.record for r in results[:k])}
        messages = []
        if expected is not None and observed["token_digest"] != expected["token_digest"]:
            fail(results, range(k), f"digest of the first {k} items' tokens "
                 f"{observed['token_digest']} differs from the recorded one", messages)
        return messages, observed


def fail(results, indices, message: str, messages: list) -> None:
    """Mark the operations at ``indices`` failed and record why."""
    for i in indices:
        results[i].ok = False
    messages.append(message)


def well_formed(ids, vocab_size: int, cap: int) -> bool:
    """Every id is in the vocabulary; the sequence ends at EOS or the cap."""
    in_vocab = all(0 <= i < vocab_size for i in ids)
    terminated = (len(ids) > 0 and ids[-1] == EOS) or len(ids) == cap
    return in_vocab and terminated


def token_digest(records) -> str:
    h = hashlib.sha256()
    for outline_ids, report_ids, _ in records:
        h.update(repr((tuple(outline_ids), tuple(report_ids))).encode())
    return h.hexdigest()


_TRAIN_CFG = {"d_emb": 64, "d_hid": 64, "d_z": 16, "teacher_forcing_ratio": 1.0}

WORKLOADS = {
    w.name: w for w in (
        TrainWorkload("train-hier", lambda seed: make_hierarchical_corpus(64, seed=seed),
                      {"corpus": "hierarchical", "pairs": 64, "batch_size": 16},
                      {**_TRAIN_CFG, "batch_size": 16}, check_ops=8),
        TrainWorkload("train-vocab", lambda seed: make_zipf_corpus(seed, **ZIPF),
                      {"corpus": "zipf", **ZIPF, "vocab_max_size": ZIPF_VOCAB_SIZE,
                       "batch_size": 8},
                      {**_TRAIN_CFG, "batch_size": 8}, check_ops=8,
                      vocab_max_size=ZIPF_VOCAB_SIZE),
        DecodeWorkload("decode-greedy", "greedy", check_ops=32),
        DecodeWorkload("decode-beam", "beam", check_ops=4),
    )
}
