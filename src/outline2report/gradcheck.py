"""Finite-difference verification of the hand-derived backward pass.

The fixture is a deliberately small model (d_emb = d_hid = 8, d_z = 4,
vocabulary of 20) on a 2-pair batch with unequal lengths, so the padding and
masking paths are probed too. Every named parameter array is its own block.
"""

from __future__ import annotations

import numpy as np

from .config import TrainingConfig
from .corpus import SPECIAL_TOKENS, NewsReportPair, Vocabulary, encode_batch
from .model import build_model
from .numerics import GradientCheckReport, finite_difference_gradient, gradient_check

_WORDS = ("alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta",
          "iota", "kappa", "lam", "mu", "nu", "xi", "omicron", "pi")

_PAIRS = (
    NewsReportPair(
        id="g0",
        news=("alpha", "beta", "gamma", "delta", "eps", "zeta"),
        report=("gamma", "delta", "eta", "theta", "iota", "gamma", "kappa"),
        outline=("gamma", "theta")),
    NewsReportPair(
        id="g1",
        news=("mu", "nu", "xi", "omicron"),
        report=("pi", "mu", "lam", "nu", "pi"),
        outline=("pi", "mu", "lam")),
)


def run_suite(seed: int = 0, epsilon: float = 1e-5,
              tol: float = 1e-4) -> GradientCheckReport:
    """Analytic vs central-difference gradients for every parameter block."""
    cfg = TrainingConfig(d_emb=8, d_hid=8, d_z=4, seed=seed)
    vocab = Vocabulary(SPECIAL_TOKENS + _WORDS)
    model = build_model(vocab, cfg)
    batch = encode_batch(list(_PAIRS), vocab)
    noise_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    noise = noise_rng.standard_normal((batch.size, cfg.d_z))
    beta = 0.7  # a KL weight below 1, so a dropped beta factor cannot cancel out
    model.backward(model.forward(batch, noise, beta))
    analytic = {p.name: p.grad.copy() for p in model.parameters()}

    def loss_fn():
        return model.forward(batch, noise, beta).loss_model

    numeric = finite_difference_gradient(loss_fn, model.parameters(), epsilon)
    return gradient_check(analytic, numeric, tol=tol)
