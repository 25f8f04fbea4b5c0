import numpy as np

from outline2report.config import TrainingConfig
from outline2report.corpus import derive_outlines, read_dataset, write_dataset
from outline2report.harness import (
    COMPARATIVE_SYSTEMS, decode_lengths_for, format_comparative_table,
    make_hierarchical_corpus, make_toy_corpus, pairs_to_records,
    run_comparative)


class TestToyCorpus:
    def test_ten_pairs_with_distinct_ids(self):
        pairs = make_toy_corpus()
        assert len(pairs) == 10
        assert len({p.id for p in pairs}) == 10

    def test_report_lengths_in_band(self):
        for p in make_toy_corpus():
            assert 20 <= len(p.report) <= 60

    def test_deterministic(self):
        a = make_toy_corpus()
        b = make_toy_corpus()
        assert a == b

    def test_news_reports_distinct_across_pairs(self):
        pairs = make_toy_corpus()
        assert len({p.news for p in pairs}) == 10
        assert len({p.report for p in pairs}) == 10

    def test_round_trips_through_dataset_file(self, tmp_path):
        pairs = make_toy_corpus()
        path = tmp_path / "toy.jsonl"
        write_dataset(path, pairs_to_records(pairs))
        loaded = read_dataset(path)
        assert [(p.id, p.news, p.report) for p in loaded] == \
               [(p.id, p.news, p.report) for p in pairs]


class TestHierarchicalCorpus:
    def test_size_and_ids(self):
        pairs = make_hierarchical_corpus(num_pairs=40, seed=0)
        assert len(pairs) == 40
        assert len({p.id for p in pairs}) == 40

    def test_seeded_determinism(self):
        a = make_hierarchical_corpus(num_pairs=20, seed=7)
        b = make_hierarchical_corpus(num_pairs=20, seed=7)
        c = make_hierarchical_corpus(num_pairs=20, seed=8)
        assert a == b
        assert a != c

    def test_news_keywords_appear_in_report(self):
        for p in make_hierarchical_corpus(num_pairs=30, seed=1):
            shared = set(p.news) & set(p.report)
            # the topic keywords named in the news recur in the report body
            content = shared - {"the", "and", "this", "week", ".", "in", "a"}
            assert len(content) >= 3

    def test_report_lengths_in_band(self):
        for p in make_hierarchical_corpus(num_pairs=50, seed=2):
            assert 20 <= len(p.report) <= 90


class TestDecodeLengths:
    def test_twice_longest_plus_wrapping(self):
        pairs = derive_outlines(make_toy_corpus(), k=4)
        max_out, max_rep = decode_lengths_for(pairs)
        longest_outline = max(len(p.outline) for p in pairs)
        longest_report = max(len(p.report) for p in pairs)
        assert max_out == 2 * longest_outline + 2
        assert max_rep == 2 * longest_report + 2


class TestComparative:
    def test_systems_roster(self):
        assert COMPARATIVE_SYSTEMS == (("two_stage", 1.0), ("outline_weight_zero", 0.0))

    def test_run_produces_rows_and_table(self):
        pairs = make_hierarchical_corpus(num_pairs=10, seed=3)
        cfg = TrainingConfig(d_emb=8, d_hid=8, d_z=4, batch_size=5,
                             max_epochs=1, seed=3)
        notes = []
        rows, table = run_comparative(pairs, base_cfg=cfg, epochs=1,
                                      eval_limit=4, progress=notes.append)
        assert [r["system"] for r in rows] == ["two_stage", "outline_weight_zero"]
        for row in rows:
            assert row["pairs"] == 4
            assert 0.0 <= row["mean_sentence_bleu"] <= 1.0
            assert 0.0 <= row["candidate_repetition"] <= 1.0
        assert len(notes) == 2
        for line in table.splitlines()[2:]:
            assert line.split()[0] in ("two_stage", "outline_weight_zero")

    def test_zero_epochs_reports_steps_without_a_final_loss(self):
        pairs = make_hierarchical_corpus(num_pairs=6, seed=3)
        cfg = TrainingConfig(d_emb=8, d_hid=8, d_z=4, batch_size=3, seed=3)
        notes = []
        rows, _ = run_comparative(pairs, base_cfg=cfg, epochs=0, eval_limit=2,
                                  progress=notes.append)
        assert [r["system"] for r in rows] == ["two_stage", "outline_weight_zero"]
        assert notes == ["two_stage: trained 0 steps",
                         "outline_weight_zero: trained 0 steps"]

    def test_table_formatting(self):
        rows = [{"system": "two_stage", "mean_sentence_bleu": 0.5,
                 "corpus_bleu": 0.25, "candidate_repetition": 0.125,
                 "reference_repetition": 0.0625}]
        table = format_comparative_table(rows)
        assert "two_stage" in table
        assert "0.5000" in table and "0.2500" in table
        assert table.splitlines()[0].startswith("system")
