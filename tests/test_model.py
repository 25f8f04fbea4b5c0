import numpy as np
import pytest

from outline2report.config import TrainingConfig
from outline2report.corpus import (
    PAD, NewsReportPair, build_vocabulary, encode_batch)
from outline2report.model import build_model, shifted_targets

from model_oracles import REL_TOL, ranked_head, relative_error


def batch_fixture(ratio):
    """A model and a batch whose rows differ in news, outline and report length."""
    rows = [
        ("1", "rain hit the coast", "the coast saw heavy rain overnight", "coast rain"),
        ("2", "crops grew fast this year", "farmers say crops grew", "crops"),
        ("3", "the port opened", "ships entered the port after long repairs at last",
         "ships port repairs"),
    ]
    pairs = [NewsReportPair(id=i, news=tuple(n.split()), report=tuple(r.split()),
                            outline=tuple(o.split())) for i, n, r, o in rows]
    vocab = build_vocabulary(pairs)
    cfg = TrainingConfig(d_emb=6, d_hid=5, d_z=3, seed=3, teacher_forcing_ratio=ratio)
    batch = encode_batch(pairs, vocab)
    noise = np.random.default_rng(1).standard_normal((batch.size, cfg.d_z))
    return build_model(vocab, cfg), batch, noise


class TestForward:
    def test_fusion_pools_only_the_valid_outline_steps(self):
        model, batch, noise = batch_fixture(1.0)
        _, _, o_mask = shifted_targets(batch.outline_ids)
        lengths = o_mask.sum(axis=1)
        assert len(set(lengths.tolist())) > 1  # carried padding steps exist
        fwd = model.forward(batch, noise, 0.5)
        states = fwd.outline.attention.state
        want = np.stack([states[b, :n].mean(axis=0) for b, n in enumerate(lengths)])
        got = fwd.report.u[:, 2 * model.cfg.d_hid:]
        assert relative_error(got, want) <= REL_TOL


class TestBackward:
    @pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0])
    def test_no_gradient_reaches_the_pad_row(self, ratio):
        # Both heads rank PAD first, so a feed without the emission rule
        # would feed PAD at valid positions; the rule feeds the third id.
        model, batch, noise = batch_fixture(ratio)
        V = model.vocab_size
        model.outline_decoder.logits = ranked_head(V, 4)
        model.report_decoder.logits = ranked_head(V, 4)
        assert (batch.news_ids == PAD).any() and (batch.report_ids == PAD).any()
        model.zero_grad()
        model.backward(model.forward(batch, noise, 0.5, np.random.default_rng(2)))
        pad_grad = model.embedding.table.grad[PAD]
        assert (pad_grad == 0.0).all() and not np.signbit(pad_grad).any()
        assert model.embedding.table.grad[4].any()
