"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Every test prints a single ``ACCEPTANCE <n> <name>: PASS|FAIL`` line on the
real stdout before asserting, so the gate's verdict survives output capture.
"""

import math
import time
from dataclasses import replace

import numpy as np

from outline2report.config import TrainingConfig
from outline2report.corpus import (build_vocabulary, derive_outlines,
                                   read_dataset)
from outline2report.generation import beam_search, bleu, repetition_rate
from outline2report.gradcheck import run_suite
from outline2report.harness import (make_hierarchical_corpus,
                                    make_toy_corpus, run_comparative)
from outline2report.model import build_model
from outline2report.numerics import Parameter
from outline2report.outline_decoder import attend
from outline2report.report_decoder import gaussian_kl
from outline2report.training import Trainer, load_checkpoint, resume_trainer

from criterion5 import overfit
from table_oracles import ROOT, exhaustive_best, make_step, mean_logp, random_table

TOY_PATH = "data/toy_corpus.jsonl"


def report(capsys, number: int, name: str, ok: bool) -> bool:
    """Print the verdict line on the real terminal, past any capture."""
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {name}: {verdict}", flush=True)
    return ok


def test_criterion_1_gradient_oracle(capsys):
    t0 = time.time()
    suite = run_suite(seed=0, epsilon=1e-5, tol=1e-4)
    elapsed = time.time() - t0
    names = [b.name for b in suite.blocks]
    covered = (any(n.startswith("encoder.") for n in names)
               and any(n.startswith("report.") for n in names)
               and {"outline.attn.W_a", "outline.attn.W_c",
                    "outline.out.W_o"} <= set(names))
    ok = (suite.passed
          and all(b.rel_error <= 1e-4 for b in suite.blocks)
          and covered
          and elapsed < 60.0)
    assert report(capsys, 1, "gradient oracle", ok), (
        f"worst {suite.worst:.3e}, elapsed {elapsed:.1f}s\n{suite.format_table()}")


def test_criterion_2_attention_contract(capsys):
    rng = np.random.default_rng(20)
    instances = 0
    worst_sum = 0.0
    worst_perm = 0.0
    ok = True
    while instances < 1000:
        batch = 10
        T = int(rng.integers(2, 7))
        enc_dim = int(rng.integers(2, 6))
        d_state = int(rng.integers(2, 6))
        W_a = Parameter("W_a", rng.normal(size=(enc_dim, d_state)))
        W_c = Parameter("W_c", rng.normal(size=(d_state, enc_dim + d_state)))
        states = rng.normal(size=(batch, T, enc_dim))
        query_state = rng.normal(size=(batch, 1, d_state))
        mask = (rng.random((batch, T)) < 0.7).astype(float)
        mask[np.arange(batch), rng.integers(0, T, size=batch)] = 1.0

        weights = attend(states, query_state, mask, W_a, W_c).weights[:, 0]
        ok &= bool(np.all(weights >= 0.0))
        worst_sum = max(worst_sum, float(np.max(np.abs(weights.sum(axis=1) - 1.0))))
        ok &= bool(np.all(weights[mask == 0.0] == 0.0))

        perm = rng.permutation(T)
        shuffled = attend(states[:, perm], query_state, mask[:, perm], W_a, W_c).weights[:, 0]
        worst_perm = max(worst_perm, float(np.max(np.abs(shuffled - weights[:, perm]))))
        instances += batch
    ok &= worst_sum <= 1e-9 and worst_perm <= 1e-12
    assert report(capsys, 2, "attention contract", ok), (
        f"{instances} instances, worst sum dev {worst_sum:.2e}, "
        f"worst permutation dev {worst_perm:.2e}")


def test_criterion_3_kl_contract(capsys):
    rng = np.random.default_rng(30)
    mean = rng.normal(size=(1000, 3))
    logvar = rng.uniform(-4.0, 2.0, size=(1000, 3))
    nonneg = bool(np.all(gaussian_kl(mean, logvar) >= 0.0))

    at_origin = gaussian_kl(np.zeros(4), np.zeros(4))
    hand = 0.5 * (4.0 - 1.0 - math.log(4.0))
    at_var_four = gaussian_kl(np.zeros(1), np.log(np.full(1, 4.0)))
    ok = (nonneg
          and abs(at_origin) <= 1e-12
          and round(hand, 5) == 0.80685
          and abs(at_var_four - hand) <= 1e-6)
    assert report(capsys, 3, "KL contract", ok), (
        f"origin {at_origin!r}, var-four {at_var_four!r} vs hand {hand!r}")


def test_criterion_4_loss_additivity(capsys):
    pairs = derive_outlines(read_dataset(TOY_PATH))
    vocab = build_vocabulary(pairs)
    cfg = TrainingConfig(d_emb=8, d_hid=8, d_z=4, batch_size=5, max_epochs=3,
                         kl_anneal_steps=10, seed=4)
    trainer = Trainer(build_model(vocab, cfg), pairs, vocab, cfg)
    history = trainer.run()
    exact = all(rec.loss_model == rec.loss_outline + rec.loss_report
                for rec in history)
    ok = bool(history) and exact
    assert report(capsys, 4, "loss additivity", ok), (
        [(rec.loss_model, rec.loss_outline + rec.loss_report) for rec in history])


def test_criterion_5_toy_corpus_overfit(capsys):
    t0 = time.time()
    bundled = read_dataset(TOY_PATH)
    built = make_toy_corpus()
    same = ([(p.id, p.news, p.report) for p in bundled]
            == [(p.id, p.news, p.report) for p in built])
    lengths_ok = all(20 <= len(p.report) <= 60 for p in bundled)

    history, matches = overfit(bundled, seed=0)
    ratio = history[-1].loss_model / history[0].loss_model
    elapsed = time.time() - t0
    ok = (len(bundled) == 10 and same and lengths_ok
          and ratio < 0.05 and matches >= 9 and elapsed < 600.0)
    assert report(capsys, 5, "toy corpus overfit", ok), (
        f"pairs {len(bundled)}, bundled matches generator {same}, "
        f"loss ratio {ratio:.4%}, greedy matches {matches}/10, "
        f"elapsed {elapsed:.1f}s")


def test_criterion_6_determinism_and_resume(capsys):
    pairs = derive_outlines(read_dataset(TOY_PATH))
    vocab = build_vocabulary(pairs)
    cfg = TrainingConfig(d_emb=8, d_hid=8, d_z=4, batch_size=5, max_epochs=3,
                         kl_anneal_steps=20, seed=11)

    def trace(history):
        return [rec.csv_row() for rec in history]

    run_a = Trainer(build_model(vocab, cfg), pairs, vocab, cfg).run()
    run_b = Trainer(build_model(vocab, cfg), pairs, vocab, cfg).run()
    identical = trace(run_a) == trace(run_b)

    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "mid.o2r"
        first = Trainer(build_model(vocab, cfg), pairs, vocab, cfg)
        head = first.run(max_epochs=1)
        first.save(ckpt)
        resumed = resume_trainer(load_checkpoint(ckpt), pairs, vocab)
        tail = resumed.run(max_epochs=3)
    stitched = trace(head) + trace(tail)
    resumable = stitched == trace(run_a)
    ok = identical and resumable
    assert report(capsys, 6, "determinism and resume", ok), (
        f"identical runs {identical}, resume matches {resumable}")


def test_criterion_7_metric_oracles(capsys):
    samples = [["a"], ["a", "b"], ["the", "the", "the"],
               "a quick brown fox jumps".split(), list("xyzxyz")]
    identity = all(bleu(x, x) == 1.0 for x in samples)

    clipping = bleu("the the the the".split(), "the cat sat".split())
    clip_ok = abs(clipping - (1.0 / 96.0) ** 0.25) <= 1e-9

    rep_ok = repetition_rate(["a", "a", "a", "a"], 2) == 2.0 / 3.0

    beam_ok = True
    for seed in range(250):
        table, V, max_len, eos = random_table(seed)
        want_tokens, want_score = exhaustive_best(table, V, max_len, eos)
        got = beam_search(make_step(table), ROOT, V ** max_len + 1, max_len, eos_id=eos)
        if got.tokens != tuple(want_tokens) or abs(mean_logp(got) - want_score) > 1e-12:
            beam_ok = False
            break

    ok = identity and clip_ok and rep_ok and beam_ok
    assert report(capsys, 7, "metric oracles", ok), (
        f"identity {identity}, clipping {clipping!r}, "
        f"repetition {repetition_rate(['a', 'a', 'a', 'a'], 2)!r}, beam {beam_ok}")


def test_criterion_8_comparative_harness(capsys):
    pairs = make_hierarchical_corpus(200, seed=8)
    cfg = TrainingConfig(d_emb=16, d_hid=16, d_z=4, batch_size=20,
                         kl_anneal_steps=20, seed=8)
    rows, table = run_comparative(pairs, base_cfg=cfg, epochs=2, eval_limit=25)
    systems = [row["system"] for row in rows]
    metric_keys = {"mean_sentence_bleu", "corpus_bleu",
                   "candidate_repetition", "reference_repetition"}
    ok = (len(pairs) >= 200
          and systems == ["two_stage", "outline_weight_zero"]
          and all(metric_keys <= set(row) for row in rows)
          and all(name in table for name in systems)
          and len(table.splitlines()) >= 3)
    assert report(capsys, 8, "comparative harness", ok), f"rows {rows}\n{table}"
