"""Acceptance criterion 5's run: train on the bundled toy corpus until it
overfits, then greedy-decode every pair.

`test_criterion_5_toy_corpus_overfit` runs it at seed 0 and
`scripts/criterion5_sweep.py` over a range of seeds; both take their settings
from SETTINGS. `overfit` imports the package only when called, so the sweep
can first put another version's source tree on the path.
"""

SETTINGS = {
    "training": {"d_emb": 32, "d_hid": 32, "d_z": 8, "batch_size": 2, "max_epochs": 500,
                 "learning_rate": 3e-3, "kl_anneal_steps": 500},
    "decode": {"strategy": "greedy", "max_outline_len": 20, "max_report_len": 60},
}


def overfit(bundled, seed, max_epochs=None):
    """Train on the pairs `bundled` at `seed`, for `max_epochs` epochs if
    given -> (loss history, number of pairs whose greedy report equals the
    gold one)."""
    from outline2report.config import DecodeConfig, TrainingConfig
    from outline2report.corpus import build_vocabulary, derive_outlines
    from outline2report.generation import generate
    from outline2report.model import build_model
    from outline2report.training import Trainer

    pairs = derive_outlines(bundled)
    vocab = build_vocabulary(pairs)
    cfg = TrainingConfig(**SETTINGS["training"], seed=seed)
    trainer = Trainer(build_model(vocab, cfg), pairs, vocab, cfg)
    history = trainer.run(max_epochs)
    dcfg = DecodeConfig(**SETTINGS["decode"])
    matches = sum(generate(list(p.news), trainer.model, vocab, dcfg).report_tokens
                  == list(p.report) for p in pairs)
    return history, matches
