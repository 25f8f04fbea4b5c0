"""Finite-difference verification of the hand-derived backward pass.

The fixture is a deliberately small model (d_emb = d_hid = 8, d_z = 4,
vocabulary of 20) on a 2-pair batch with unequal lengths, so the padding and
masking paths are probed too. Every named parameter array is its own block.
"""

from __future__ import annotations

import numpy as np

from .config import TrainingConfig
from .corpus import SPECIAL_TOKENS, NewsReportPair, Vocabulary, encode_batch
from .model import NewsToReportModel, build_model
from .numerics import (FLOAT, GradientCheckReport, finite_difference_gradient,
                       gradient_check)

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


def gradcheck_vocabulary() -> Vocabulary:
    return Vocabulary(SPECIAL_TOKENS + _WORDS)


def build_fixture(seed: int = 0):
    """(model, batch, noise, beta) for the finite-difference suite."""
    cfg = TrainingConfig(d_emb=8, d_hid=8, d_z=4, seed=seed)
    vocab = gradcheck_vocabulary()
    model = build_model(vocab, cfg)
    batch = encode_batch(list(_PAIRS), vocab)
    noise_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    noise = noise_rng.standard_normal((batch.size, cfg.d_z))
    # partial KL weight so a dropped beta factor cannot cancel out
    return model, batch, noise, 0.7


def analytic_gradients(model: NewsToReportModel, batch, noise, beta) -> dict:
    model.zero_grad()
    fwd = model.forward(batch, noise, beta)
    model.backward(fwd)
    return {p.name: p.grad.copy() for p in model.parameters()}


def run_suite(seed: int = 0, epsilon: float = 1e-5,
              tol: float = 1e-4) -> GradientCheckReport:
    """Analytic vs central-difference gradients for every parameter block."""
    model, batch, noise, beta = build_fixture(seed)
    analytic = analytic_gradients(model, batch, noise, beta)

    def loss_fn():
        return model.forward(batch, noise, beta).loss_model

    numeric = finite_difference_gradient(loss_fn, model.parameters(), epsilon)
    # the PAD embedding row is frozen by construction; the numeric probe sees
    # zero sensitivity there as well, so no special-casing is needed
    return gradient_check(analytic, numeric, tol=tol)
