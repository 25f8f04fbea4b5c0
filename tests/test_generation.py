import itertools
import json
import math
from collections import Counter
from unittest.mock import DEFAULT, Mock

import numpy as np
import pytest

from outline2report import generation
from outline2report.config import DecodeConfig, TrainingConfig
from outline2report.corpus import (
    BOS, EOS, PAD, NewsReportPair, build_vocabulary, derive_outlines, tokenize)
from outline2report.generation import (
    beam_search, bleu, corpus_bleu, evaluation_report, generate,
    greedy_decode, length_stats, repetition_rate, sample_decode)
from outline2report.model import build_model
from outline2report.numerics import LSTMCell, Parameter, log_softmax
from outline2report.outline_decoder import attend
from outline2report.training import Trainer

from decode_oracles import prefix_step, reference_beam_generate, reference_beam_search
from table_oracles import (
    ROOT, exhaustive_best, make_step, mean_logp, path_logprob, random_table)

NEG = -math.inf


class TestBeamSearch:
    def test_certain_chain_any_width(self):
        table = {
            (): np.array([NEG, 0.0, NEG, NEG]),
            (1,): np.array([NEG, NEG, NEG, 0.0]),
            (1, 3): np.array([NEG, NEG, 0.0, NEG]),
        }
        for width in (1, 2, 5):
            out = beam_search(make_step(table), ROOT, width, 3)
            assert out.tokens == (1, 3, EOS)
            assert out.logprob == 0.0 and type(out.logprob) is float

    def test_greedy_trap_beaten_by_width_two(self):
        # greedy takes token 0 (p=.6) and tops out at .6*.5 = .3 total mass;
        # the .4 branch continues with p=.99 for a total of .396 (V = 2, so
        # neither can end before the cap)
        table = {
            (): np.log(np.array([0.6, 0.4])),
            (0,): np.log(np.array([0.5, 0.5])),
            (1,): np.log(np.array([0.01, 0.99])),
        }
        step = make_step(table)
        greedy = beam_search(step, ROOT, 1, 2)
        wide = beam_search(step, ROOT, 2, 2)
        assert greedy.tokens == (0, 0)
        assert wide.tokens == (1, 1)
        assert mean_logp(wide) > mean_logp(greedy)
        assert abs(mean_logp(wide) - math.log(0.4 * 0.99) / 2) < 1e-12

    def test_exact_tie_breaks_lexicographically(self):
        table = {
            (): np.log(np.array([0.4, 0.4, 0.2])),
            (0,): np.array([NEG, NEG, 0.0]),
            (1,): np.array([NEG, NEG, 0.0]),
        }
        out = beam_search(make_step(table), ROOT, 4, 2)
        assert out.tokens == (0, EOS)

    def test_width_one_equals_greedy_on_random_instances(self):
        for seed in range(60):
            table, V, max_len = random_table(seed)
            step = make_step(table)
            g = greedy_decode(step, ROOT, max_len)
            b = beam_search(step, ROOT, 1, max_len)
            assert g.tokens == b.tokens, f"seed {seed}"
            assert g.logprob == b.logprob, f"seed {seed}"

    def test_wide_beam_equals_exhaustive_argmax(self):
        for seed in range(120):
            table, V, max_len = random_table(seed)
            want_tokens, want_score = exhaustive_best(table, V, max_len)
            got = beam_search(make_step(table), ROOT, V ** max_len + 1, max_len)
            assert got.tokens == tuple(want_tokens), f"seed {seed}"
            assert abs(mean_logp(got) - want_score) < 1e-12, f"seed {seed}"

    def test_score_non_decreasing_in_width(self):
        for seed in range(120):
            table, V, max_len = random_table(seed)
            step = make_step(table)
            prev = -math.inf
            for width in range(1, 9):
                out = beam_search(step, ROOT, width, max_len)
                assert mean_logp(out) >= prev - 1e-12, f"seed {seed} width {width}"
                prev = mean_logp(out)

    def test_eos_only_terminal(self):
        for seed in range(40):
            table, V, max_len = random_table(seed)
            out = beam_search(make_step(table), ROOT, 3, max_len)
            assert len(out.tokens) <= max_len
            assert EOS not in out.tokens[:-1]

    def test_zero_length_cap_decodes_nothing(self):
        table, V, max_len = random_table(1)
        step = make_step(table)
        for out in (greedy_decode(step, ROOT, 0), beam_search(step, ROOT, 3, 0)):
            assert (out.tokens, out.logprob) == ((), 0.0)
            assert type(out.logprob) is float

    def test_width_zero_rejected(self):
        with pytest.raises(ValueError):
            beam_search(lambda s, t: (np.zeros(2), s), (), 0, 3)


def tied_table(seed, vocab=(EOS + 1, 6), lengths=(1, 5)):
    """Random prefix table whose log-probs come from a few dyadic levels, so
    totals tie exactly; some entries and whole rows are -inf. V and max_len
    are drawn from the half-open ranges `vocab` and `lengths`."""
    rng = np.random.default_rng(seed)
    V = int(rng.integers(*vocab))
    max_len = int(rng.integers(*lengths))
    levels = np.array([NEG, -2.0, -1.0, -0.5, -0.25])
    table = {}
    for length in range(max_len):
        for prefix in itertools.product(range(V), repeat=length):
            if EOS in prefix:
                continue
            row = levels[rng.integers(0, len(levels), size=V)]
            table[prefix] = np.full(V, NEG) if rng.random() < 0.1 else row
    assert all((row <= 0).all() for row in table.values())  # beam_search's premise
    return table, V, max_len


def rows_per_step(table, max_len, width):
    """(rows of each batched step_fn call, the reference's step_fn calls per
    prefix length). The reference steps each live hypothesis alone and runs
    to the cap or until no hypothesis is live, with no early stop."""
    rows, ref_steps = [], []
    step, ref_step = make_step(table), prefix_step(table)

    def counting(state, tokens):
        rows.append(len(state[0]))
        return step(state, tokens)

    def ref_counting(prefix, token):
        logp, fed = ref_step(prefix, token)
        ref_steps.append(len(fed))
        return logp, fed

    beam_search(counting, ROOT, width, max_len)
    reference_beam_search(ref_counting, (), width, max_len, bos_id=None)
    per_step = Counter(ref_steps)
    return rows, [per_step[t] for t in range(len(per_step))]


def reference_feeds(table, width, max_len):
    """The hypotheses the per-hypothesis reference feeds, by length: each
    prefix whose last token it feeds, the empty one at the first step."""
    feeds, step = {}, prefix_step(table)

    def recording(prefix, token):
        logp, fed = step(prefix, token)
        feeds.setdefault(len(fed), []).append(fed)
        return logp, fed

    reference_beam_search(recording, (), width, max_len, bos_id=None)
    return feeds


def routing_step(table, feeds, moves):
    """make_step that checks the search's routing of its state rows. Each row
    carries the tokens fed to it, BOS first. On every call the rows' prefixes,
    each extended by the token fed to it, must be the hypotheses that the
    reference fed at this length, in token order. `moves` counts the calls
    whose rows are the previous call's rows in place ("kept") and those
    whose rows were reordered, duplicated or dropped ("moved")."""
    step, last = make_step(table), []

    def step_fn(state, tokens):
        rows = state[0].tolist()
        hyps = [tuple(row[1:]) + (tok,) for row, tok in zip(rows, np.asarray(tokens).tolist())]
        if not last:
            hyps = [()]   # the first call feeds BOS to the root
        assert hyps == sorted(hyps) == sorted(feeds[len(hyps[0])]), hyps
        if last:
            parents = [last.index(row) for row in rows]
            moves["kept" if parents == list(range(len(last))) else "moved"] += 1
        logp, state = step(state, tokens)
        last[:] = state[0].tolist()
        return logp, state

    return step_fn


def read_only_step(table):
    """make_step whose log-probs and state arrays cannot be written."""
    step = make_step(table)

    def step_fn(state, tokens):
        logp, state = step(state, tokens)
        for array in (logp, *state):
            array.flags.writeable = False
        return logp, state

    return step_fn


class TestBatchedBeam:
    """beam_search against the per-hypothesis reference in decode_oracles."""

    def _assert_same(self, table, max_len, width, where):
        got = beam_search(make_step(table), ROOT, width, max_len)
        want = reference_beam_search(prefix_step(table), (), width, max_len, bos_id=None)
        assert got.tokens == want.tokens, where
        assert got.logprob == want.logprob, where
        assert all(type(t) is int for t in got.tokens), where
        assert type(got.logprob) is float, where

    def test_equals_reference_on_random_tables(self):
        for seed in range(80):
            table, V, max_len = random_table(seed)
            for width in range(1, 9):
                self._assert_same(table, max_len, width, f"seed {seed} width {width}")

    def test_equals_reference_with_ties_and_dead_rows(self):
        dead_roots = 0
        for seed in range(300):
            table, V, max_len = tied_table(seed)
            dead_roots += bool(np.all(table[()] == NEG))
            for width in range(1, 9):
                self._assert_same(table, max_len, width, f"seed {seed} width {width}")
        assert dead_roots  # the empty result is among the cases

    @pytest.mark.parametrize("tables", ["random", "tied"])
    def test_logprob_is_the_reference_total_bit_for_bit(self, tables):
        # the result reports the total the search ranked by: the reference's
        # total and the table's log-probs added along the tokens, not the
        # length-normalized score
        make_table = {"random": random_table, "tied": tied_table}[tables]
        for seed in range(80):
            table, V, max_len = make_table(seed)
            for width in range(1, 9):
                got = beam_search(make_step(table), ROOT, width, max_len)
                want = reference_beam_search(prefix_step(table), (), width, max_len, bos_id=None)
                bits = {got.logprob.hex(), want.logprob.hex(),
                        path_logprob(table, got.tokens).hex()}
                assert len(bits) == 1, f"seed {seed} width {width}: {bits}"

    def test_one_step_call_per_step_covers_every_live_row(self):
        # each step's one call covers the reference's calls at that prefix
        # length, up to the step where the batched search stopped
        for seed in range(40):
            table, V, max_len = random_table(seed)
            rows, ref_rows = rows_per_step(table, max_len, 3)
            assert len(rows) <= max_len and max(rows) <= 3, f"seed {seed}"
            assert rows == ref_rows[:len(rows)], f"seed {seed}"

    def test_early_stop_on_deep_tables_equals_reference(self):
        # caps of 6-8 tokens give the stop room to fire; dyadic levels make
        # finished scores tie the bound or each other exactly
        stopped = cases = 0
        for seed in range(100):
            table, V, max_len = tied_table(seed, vocab=(EOS + 1, 5), lengths=(6, 9))
            for width in (1, 2, 3, 5):
                where = f"seed {seed} width {width}"
                self._assert_same(table, max_len, width, where)
                rows, ref_rows = rows_per_step(table, max_len, width)
                assert rows == ref_rows[:len(rows)], where
                stopped += len(rows) < len(ref_rows)
                cases += 1
        assert stopped >= cases // 4, f"the stop fired in {stopped} of {cases} cases"

    def test_state_rows_follow_their_hypotheses(self):
        # rows stay in place when every hypothesis lives on with one token;
        # otherwise the survivors' parents are gathered, duplicated or not
        moves = Counter()
        cases = [(tied_table(seed, vocab=(EOS + 1, 5), lengths=(6, 9)), "tied")
                 for seed in range(40)]
        cases += [(random_table(seed), "random") for seed in range(40)]
        for (table, V, max_len), kind in cases:
            for width in range(1, 9):
                feeds = reference_feeds(table, width, max_len)
                got = beam_search(routing_step(table, feeds, moves), ROOT, width, max_len)
                want = reference_beam_search(prefix_step(table), (), width, max_len, bos_id=None)
                assert (got.tokens, got.logprob) == (want.tokens, want.logprob), (kind, width)
        assert moves["kept"] and moves["moved"], moves

    def test_search_writes_nothing_it_is_handed(self):
        root = (ROOT[0].copy(),)
        root[0].flags.writeable = False
        for seed in range(60):
            table, V, max_len = tied_table(seed, lengths=(1, 8))
            for width in (1, 2, 4, 8):
                got = beam_search(read_only_step(table), root, width, max_len)
                want = reference_beam_search(prefix_step(table), (), width, max_len, bos_id=None)
                assert (got.tokens, got.logprob) == (want.tokens, want.logprob), (seed, width)

    def test_stop_waits_while_the_bound_ties_the_best_finished(self):
        # after step 1, EOS scores -0.5 and the live total -1 bounds every
        # completion by -1 / 2 = -0.5, equal to it: the search must go on,
        # and (0, 1) ties EOS's score and wins as the smaller sequence
        table = {(): np.array([-1.0, NEG, -0.5]), (0,): np.array([NEG, 0.0, NEG])}
        rows, _ = rows_per_step(table, 2, 2)
        assert rows == [1, 1]
        self._assert_same(table, 2, 2, "bound equals the best finished score")
        assert beam_search(make_step(table), ROOT, 2, 2).tokens == (0, 1)

    def test_stop_after_one_call_when_an_early_eos_wins(self):
        # EOS scores -0.25 at step 1; the live total -2 bounds every
        # completion by -2 / 4 = -0.5, so nothing later can win
        table = {(): np.array([-2.0, NEG, -0.25])}
        table.update({(0,) * n: np.array([-1.0, NEG, -1.0]) for n in range(1, 4)})
        rows, ref_rows = rows_per_step(table, 4, 2)
        assert rows == [1] and len(ref_rows) == 4
        self._assert_same(table, 4, 2, "early EOS")
        assert beam_search(make_step(table), ROOT, 2, 4).tokens == (EOS,)

    def test_ties_across_the_width_cut_take_the_stable_sort(self, monkeypatch):
        # width 3 of the root's -totals [0, 0, 2, 2] cuts between EOS (2)
        # and token 3, so the stable sort picks and keeps EOS; keeping token 3
        # would let (3, EOS) win at -1.25. Step 2's cut falls on no tie.
        table = {(): np.array([0.0, 0.0, -2.0, -2.0]),
                 (3,): np.array([NEG, NEG, -0.5, NEG]),
                 (0,): np.array([NEG, NEG, -8.0, -9.0]),
                 (1,): np.array([NEG, NEG, -8.5, NEG])}
        argsort = Mock(wraps=np.argsort)
        monkeypatch.setattr(np, "argsort", argsort)
        self._assert_same(table, 2, 3, "tie across the cut")
        assert beam_search(make_step(table), ROOT, 3, 2).tokens == (EOS,)
        assert argsort.call_count == 2  # once per search, at its first step

    def test_generate_equals_per_hypothesis_reference(self, monkeypatch):
        model, vocab, pairs = trained_fixture()
        stages = record_searches(monkeypatch, "beam_search")
        for width, latent in ((2, True), (3, False), (5, True)):
            dcfg = DecodeConfig(strategy="beam", beam_width=width, max_outline_len=5,
                                max_report_len=9, deterministic_latent=latent, seed=4)
            for pair in pairs:
                stages.clear()
                got = generate(pair.news, model, vocab, dcfg)
                outline, report = reference_beam_generate(pair.news, model, vocab, dcfg)
                assert stages == [outline, report]
                assert (got.outline_ids, got.report_ids) == (outline.tokens, report.tokens)
                assert got.logprob == outline.logprob + report.logprob

    def test_greedy_generate_equals_lone_row_reference(self, monkeypatch):
        # width 1 keeps the argmax, smallest id on ties, as greedy does; the
        # reference steps a lone [1,H] row where generate steps a stack of one
        model, vocab, pairs = trained_fixture()
        stages = record_searches(monkeypatch, "greedy_decode")
        for latent in (True, False):
            greedy = DecodeConfig(max_outline_len=5, max_report_len=9,
                                  deterministic_latent=latent, seed=4)
            width_one = DecodeConfig(strategy="beam", beam_width=1, max_outline_len=5,
                                     max_report_len=9, deterministic_latent=latent, seed=4)
            for pair in pairs:
                stages.clear()
                got = generate(pair.news, model, vocab, greedy)
                outline, report = reference_beam_generate(pair.news, model, vocab, width_one)
                assert stages == [outline, report]
                assert (got.outline_ids, got.report_ids) == (outline.tokens, report.tokens)


def record_searches(monkeypatch, name):
    """Wrap generation's `name` search; the returned list collects the
    DecodedSequence of each stage that generate runs through it."""
    results = []
    search = getattr(generation, name)

    def recording(*args, **kwargs):
        results.append(search(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(generation, name, recording)
    return results


class TestGreedyDecode:
    def test_follows_argmax_and_stops_at_eos(self):
        table = {
            (): np.log(np.array([0.1, 0.7, 0.2])),
            (1,): np.log(np.array([0.8, 0.1, 0.1])),
            (1, 0): np.log(np.array([0.05, 0.05, 0.9])),
        }
        out = greedy_decode(make_step(table), ROOT, 10)
        assert out.tokens == (1, 0, EOS)
        assert out.logprob == path_logprob(table, out.tokens)
        assert type(out.logprob) is float
        want = (math.log(0.7), math.log(0.8), math.log(0.9))
        assert abs(mean_logp(out) - sum(want) / 3) < 1e-12

    def test_argmax_is_taken_after_the_log_softmax(self):
        # subtracting the log-sum-exp rounds -1e-17 and 0.0 to one log-prob,
        # so the tie goes to id 0, where the raw logits' argmax says 1
        raw = np.array([[-1e-17, 0.0]])
        logp = log_softmax(raw)
        assert logp[0, 0] == logp[0, 1] and np.argmax(raw) == 1
        out = greedy_decode(lambda state, tokens: (log_softmax(raw), state), ROOT, 1)
        assert out.tokens == (0,)

    def test_max_len_caps_undecided_sequences(self):
        table = {prefix: np.log(np.array([0.9, 0.1]))
                 for length in range(4)
                 for prefix in [tuple([0] * length)]}
        out = greedy_decode(make_step(table), ROOT, 4)
        assert out.tokens == (0, 0, 0, 0)


class TestSampleDecode:
    def _table(self):
        rng = np.random.default_rng(7)
        table = {}
        for length in range(3):
            import itertools
            for prefix in itertools.product(range(3), repeat=length):
                if EOS in prefix:
                    continue
                x = rng.normal(size=3)
                table[prefix] = x - np.log(np.exp(x).sum())
        return table

    def test_seeded_reproducibility(self):
        table = self._table()
        a = sample_decode(make_step(table), ROOT, 3, np.random.default_rng(5))
        b = sample_decode(make_step(table), ROOT, 3, np.random.default_rng(5))
        assert a.tokens == b.tokens
        assert a.logprob == b.logprob

    def test_recorded_logps_are_unscaled(self):
        table = self._table()
        out = sample_decode(make_step(table), ROOT, 3, np.random.default_rng(3),
                            temperature=50.0)
        assert out.logprob == path_logprob(table, out.tokens)
        assert type(out.logprob) is float

    def test_temperature_reshapes_the_draw(self):
        # one seeded draw picks a different token at each temperature
        logp = np.log([[0.5, 0.3, 0.2]])
        tokens = []
        for temperature in (0.2, 1.0, 20.0):
            out = sample_decode(lambda s, t: (logp, s), (), 1, np.random.default_rng(1),
                                temperature=temperature)
            scaled = np.exp(logp[0] / temperature)
            want = np.random.default_rng(1).choice(3, p=scaled / scaled.sum())
            assert out.tokens == (want,)
            tokens.append(want)
        assert len(set(tokens)) > 1

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            sample_decode(lambda s, t: (np.zeros(2), s), (), 3,
                          np.random.default_rng(0), temperature=0.0)


class TestStepContract:
    """Every search feeds BOS to every row first and steps a state tuple."""

    SEARCHES = {
        "greedy": lambda step, max_len: greedy_decode(step, ROOT, max_len),
        "sample": lambda step, max_len: sample_decode(
            step, ROOT, max_len, np.random.default_rng(0)),
        "beam": lambda step, max_len: beam_search(step, ROOT, 3, max_len),
    }

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_first_call_feeds_bos_and_every_call_a_tuple_state(self, search):
        for seed in range(20):
            table, V, max_len = random_table(seed)
            step = make_step(table)
            calls = []

            def recording(state, tokens):
                calls.append((state, np.asarray(tokens).tolist()))
                return step(state, tokens)

            self.SEARCHES[search](recording, max_len)
            (first_state, first_tokens), *_ = calls
            assert first_tokens == [BOS] * len(first_state[0]), f"seed {seed}"
            assert all(type(state) is tuple for state, _ in calls), f"seed {seed}"


class TestBleu:
    def test_identity(self):
        assert bleu(list("abcdefg"), list("abcdefg")) == 1.0

    def test_identity_shorter_than_max_n(self):
        assert bleu(["a", "b"], ["a", "b"]) == 1.0
        assert bleu(["a"], ["a"]) == 1.0

    def test_zero_unigram_overlap(self):
        assert bleu(["x", "y"], ["a", "b"]) == 0.0

    def test_clipping_hand_case(self):
        # p1 = 1/4 (clipped), p2 = 1/4, p3 = 1/3, p4 = 1/2 after add-1; BP = 1
        got = bleu("the the the the".split(), "the cat sat".split())
        assert abs(got - (1 / 96) ** 0.25) < 1e-9

    def test_brevity_penalty(self):
        # all precisions 1 after smoothing; candidate 2 vs reference 3 tokens
        got = bleu("the cat".split(), "the cat sat".split())
        assert abs(got - math.exp(1 - 3 / 2)) < 1e-12

    def test_empty_candidate_scores_zero(self):
        assert bleu([], ["a"]) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            bleu(["a"], [])

    def test_range(self):
        rng = np.random.default_rng(11)
        words = list("abcde")
        for _ in range(50):
            cand = [words[i] for i in rng.integers(0, 5, size=rng.integers(1, 12))]
            ref = [words[i] for i in rng.integers(0, 5, size=rng.integers(1, 12))]
            score = bleu(cand, ref)
            assert 0.0 <= score <= 1.0


class TestCorpusBleu:
    def test_identity(self):
        pairs = [(list("abcd"), list("abcd")), (list("xyzw"), list("xyzw"))]
        assert corpus_bleu(pairs) == 1.0

    def test_pooled_counts_hand_case(self):
        # two copies of the clipping case pool to p1=2/8, p2=1/7, p3=1/5, p4=1/3
        pair = ("the the the the".split(), "the cat sat".split())
        got = corpus_bleu([pair, pair])
        want = (2 / 8 * 1 / 7 * 1 / 5 * 1 / 3) ** 0.25
        assert abs(got - want) < 1e-12

    def test_all_empty_scores_zero(self):
        assert corpus_bleu([([], ["a"])]) == 0.0

    def test_no_pairs_rejected(self):
        with pytest.raises(ValueError):
            corpus_bleu([])


class TestRepetitionRate:
    def test_all_same_token(self):
        assert repetition_rate(["a", "a", "a", "a"]) == 2 / 3

    def test_all_distinct(self):
        assert repetition_rate(["a", "b", "c", "d"]) == 0.0

    def test_too_short_scores_zero(self):
        assert repetition_rate(["a"]) == 0.0

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            toks = [str(i) for i in rng.integers(0, 4, size=rng.integers(2, 15))]
            assert 0.0 <= repetition_rate(toks) < 1.0


class TestLengthStats:
    def test_basic(self):
        stats = length_stats([["a"], ["a", "b", "c"]])
        assert stats == {"count": 2, "mean": 2.0, "min": 1, "max": 3}

    def test_empty(self):
        assert length_stats([])["count"] == 0


class TestEvaluationReport:
    def test_identity_scores(self):
        refs = {"1": ["a", "b", "c"], "2": ["d", "e", "f", "g"]}
        report = evaluation_report(dict(refs), refs)
        assert report["pairs"] == 2
        assert report["mean_sentence_bleu"] == 1.0
        assert report["corpus_bleu"] == 1.0
        assert report["candidate_repetition"] == report["reference_repetition"]
        assert report["candidate_lengths"]["mean"] == 3.5

    def test_unknown_candidate_ids_rejected(self):
        with pytest.raises(ValueError, match="9"):
            evaluation_report({"1": ["a"], "9": ["b"]}, {"1": ["a"]})

    def test_candidate_subset_of_references_allowed(self):
        report = evaluation_report({"1": ["a"]}, {"1": ["a"], "2": ["b"]})
        assert report["pairs"] == 1
        assert report["mean_sentence_bleu"] == 1.0

    def test_means_add_left_to_right(self, monkeypatch):
        # 1 + 2^-53 rounds back to 1 at each addition; a compensated sum
        # (the builtin sum() on CPython 3.12+) keeps 4 * 2^-53 and moves the
        # mean by one ulp
        scores = [1.0] + [2.0 ** -53] * 4
        assert math.fsum(scores) / 5 != 0.2
        score = {f"w{i}": x for i, x in enumerate(scores)}
        monkeypatch.setattr(generation, "bleu", lambda c, r: score[c[0]])
        monkeypatch.setattr(generation, "repetition_rate", lambda tokens: score[tokens[0]])
        pairs = {str(i): [f"w{i}"] for i in range(5)}
        report = evaluation_report(pairs, pairs)
        assert report["mean_sentence_bleu"] == 0.2
        assert report["candidate_repetition"] == report["reference_repetition"] == 0.2

    def test_empty_candidate_still_scores(self):
        refs = {"1": ["a", "b"], "2": ["c", "d"]}
        cands = {"1": ["a", "b"], "2": []}
        report = evaluation_report(cands, refs)
        assert report["mean_sentence_bleu"] == 0.5


def pipeline_fixture():
    rows = [
        ("1", "rain hit the coast", "the coast saw heavy rain overnight"),
        ("2", "crops grew fast", "farmers say crops grew fast this year"),
        ("3", "the port opened", "ships entered the port after repairs"),
    ]
    pairs = derive_outlines(
        [NewsReportPair(id=i, news=tuple(n.split()), report=tuple(r.split()))
         for i, n, r in rows], k=3)
    vocab = build_vocabulary(pairs)
    cfg = TrainingConfig(d_emb=6, d_hid=5, d_z=3, batch_size=2, seed=3)
    return build_model(vocab, cfg), vocab, pairs


def trained_fixture(steps=40):
    model, vocab, pairs = pipeline_fixture()
    cfg = TrainingConfig(d_emb=6, d_hid=5, d_z=3, batch_size=2, seed=3, learning_rate=2e-2)
    trainer = Trainer(model, pairs, vocab, cfg)
    for _ in range(steps):
        trainer.train_one_step()
    return model, vocab, pairs


class TestStackedRows:
    """A model step gives a row the same bits alone as in an [n,1,H] stack."""

    def test_cell_attention_and_logits(self):
        rng = np.random.default_rng(0)
        for trial in range(40):
            n = int(rng.integers(1, 9))
            d_in, H, T, V = (int(v) for v in rng.integers(1, 70, size=4))
            cell = LSTMCell("c", d_in, H, rng)
            x, h, c = rng.normal(size=(n, d_in)), rng.normal(size=(n, H)), rng.normal(size=(n, H))
            hs, cs, _ = cell.step(cell.input_gates(x[:, None]), h[:, None], c[:, None],
                                  cell.W_h.value.T)
            enc = rng.normal(size=(1, T, 2 * H))
            mask = np.arange(T)[None] < rng.integers(1, T + 1)
            W_a = Parameter("W_a", rng.normal(size=(2 * H, H)))
            W_c = Parameter("W_c", rng.normal(size=(H, 3 * H)))
            W_o = rng.normal(size=(V, H))
            # as generate attends: n query rows over the one news row, which
            # matmul broadcasts
            attn = attend(enc, hs, mask, W_a, W_c)
            logits = (attn.combined @ W_o.T)[:, 0]
            for i in range(n):
                h1, c1, _ = cell.step(cell.input_gates(x[i:i + 1]), h[i:i + 1], c[i:i + 1],
                                      cell.W_h.value.T)
                assert np.array_equal(hs[i], h1) and np.array_equal(cs[i], c1), trial
                one = attend(enc, h1[:, None], mask, W_a, W_c)
                for name in ("weights", "combined"):
                    assert np.array_equal(getattr(attn, name)[i], getattr(one, name)[0]), trial
                assert np.array_equal(logits[i], (one.combined @ W_o.T)[0, 0]), trial
                assert np.array_equal((hs @ W_o.T)[i, 0], (h1 @ W_o.T)[0]), trial


class TestGenerate:
    def _dcfg(self, **kw):
        base = dict(strategy="greedy", max_outline_len=4, max_report_len=6, seed=0)
        base.update(kw)
        return DecodeConfig(**base)

    def test_greedy_deterministic(self):
        model, vocab, _ = pipeline_fixture()
        news = ["rain", "hit", "the", "coast"]
        a = generate(news, model, vocab, self._dcfg())
        b = generate(news, model, vocab, self._dcfg())
        assert a.report_ids == b.report_ids
        assert a.outline_ids == b.outline_ids
        assert a.logprob == b.logprob

    @pytest.mark.parametrize("strategy,search", [
        ("greedy", "greedy_decode"), ("beam", "beam_search"), ("sample", "sample_decode")])
    def test_each_stage_runs_the_strategys_search(self, monkeypatch, strategy, search):
        searches = {name: Mock(wraps=getattr(generation, name))
                    for name in ("greedy_decode", "beam_search", "sample_decode")}
        for name, mock in searches.items():
            monkeypatch.setattr(generation, name, mock)
        states = []

        def record_rng_state(step_fn, init, max_len, rng, *rest):
            states.append(rng.bit_generator.state)   # before the search draws
            return DEFAULT                           # then the wrapped search runs

        searches["sample_decode"].side_effect = record_rng_state
        model, vocab, _ = pipeline_fixture()
        dcfg = self._dcfg(strategy=strategy, beam_width=2, temperature=0.7, seed=11)
        generate(["rain", "hit", "the", "coast"], model, vocab, dcfg)
        for name, mock in searches.items():
            assert mock.call_count == (2 if name == search else 0), name
        if strategy == "beam":
            assert [c.args[2] for c in searches[search].call_args_list] == [2, 2]
        if strategy == "sample":
            (outline_args, _), (report_args, _) = searches[search].call_args_list
            assert outline_args[3] is report_args[3]
            assert outline_args[4:] == report_args[4:] == (0.7,)
            seeded = np.random.default_rng(np.random.SeedSequence([11, 3]))
            assert states[0] == seeded.bit_generator.state

    @pytest.mark.parametrize("strategy,search", [
        ("greedy", "greedy_decode"), ("beam", "beam_search"), ("sample", "sample_decode")])
    def test_logprob_adds_the_two_searches_totals(self, monkeypatch, strategy, search):
        stages = record_searches(monkeypatch, search)
        model, vocab, _ = pipeline_fixture()
        dcfg = self._dcfg(strategy=strategy, beam_width=3, temperature=1.3)
        out = generate(["rain", "hit", "the", "coast"], model, vocab, dcfg)
        outline, report = stages
        assert out.logprob == outline.logprob + report.logprob
        assert type(out.logprob) is float

    @pytest.mark.parametrize("strategy", ["greedy", "beam", "sample"])
    def test_lookup_embeds_only_the_news_and_the_outline_replay(self, strategy):
        # the searches' fed ids index the table directly
        model, vocab, _ = pipeline_fixture()
        emb = model.embedding
        emb.lookup = Mock(wraps=emb.lookup)
        news = ["rain", "hit", "the", "coast"]
        out = generate(news, model, vocab, self._dcfg(strategy=strategy, beam_width=3))
        (news_ids,), (replay_ids,) = (c.args for c in emb.lookup.call_args_list)
        assert news_ids.shape == (1, len(news) + 2)
        assert replay_ids.tolist() == [[BOS, *out.outline_ids[:-1]]]

    @pytest.mark.parametrize("strategy,deterministic_latent,built", [
        ("greedy", True, 0), ("beam", True, 0), ("sample", True, 1), ("greedy", False, 1)])
    def test_generator_built_only_when_something_draws(self, monkeypatch, strategy,
                                                         deterministic_latent, built):
        model, vocab, _ = pipeline_fixture()
        dcfg = self._dcfg(strategy=strategy, deterministic_latent=deterministic_latent)
        default_rng = Mock(wraps=np.random.default_rng)
        monkeypatch.setattr(np.random, "default_rng", default_rng)
        generate(["rain", "hit"], model, vocab, dcfg)
        assert default_rng.call_count == built

    def test_greedy_picks_from_the_normalized_row(self):
        # a report head whose raw argmax is id 3 while EOS ties it after the
        # log-softmax: greedy emits EOS, the smaller id
        model, vocab, _ = pipeline_fixture()
        V = len(vocab)

        def head(h):
            logits = np.full(h.shape[:-1] + (V,), -math.inf)
            logits[..., EOS], logits[..., 3] = -1e-17, 0.0
            return logits

        model.report_decoder.logits = head
        assert EOS < 3
        out = generate(["rain", "hit"], model, vocab, self._dcfg())
        assert out.report_ids == (EOS,)

    def test_beam_width_one_matches_greedy(self):
        model, vocab, _ = pipeline_fixture()
        news = ["crops", "grew", "fast"]
        g = generate(news, model, vocab, self._dcfg(strategy="greedy"))
        b = generate(news, model, vocab, self._dcfg(strategy="beam", beam_width=1))
        assert g.outline_ids == b.outline_ids
        assert g.report_ids == b.report_ids

    def test_greedy_ignores_temperature(self):
        model, vocab, _ = pipeline_fixture()
        news = ["the", "port", "opened"]
        a = generate(news, model, vocab, self._dcfg(temperature=1.0))
        b = generate(news, model, vocab, self._dcfg(temperature=9.0))
        assert a.report_ids == b.report_ids

    def test_no_reserved_ids_in_output(self):
        model, vocab, _ = pipeline_fixture()
        for strategy in ("greedy", "beam"):
            out = generate(["rain", "hit", "the", "coast"], model, vocab,
                           self._dcfg(strategy=strategy, beam_width=3))
            for seq in (out.outline_ids, out.report_ids):
                assert PAD not in seq
                assert BOS not in seq
                assert EOS not in seq[:-1]
                assert len(seq) >= 1

    def test_length_caps_respected(self):
        model, vocab, _ = pipeline_fixture()
        out = generate(["rain", "hit"], model, vocab,
                       self._dcfg(max_outline_len=2, max_report_len=3))
        assert len(out.outline_ids) <= 2
        assert len(out.report_ids) <= 3

    def test_decoded_tokens_strip_specials(self):
        model, vocab, _ = pipeline_fixture()
        rec = generate(["rain", "hit"], model, vocab, self._dcfg()).to_record("pair-1", vocab)
        for tok in rec["outline"] + rec["report"]:
            assert tok not in ("<pad>", "<bos>", "<eos>")

    def test_empty_news_rejected(self):
        model, vocab, _ = pipeline_fixture()
        with pytest.raises(ValueError, match="empty"):
            generate([], model, vocab, self._dcfg())
        with pytest.raises(ValueError, match="empty"):
            generate(tokenize(""), model, vocab, self._dcfg())

    def test_attention_recorded_on_request(self):
        model, vocab, _ = pipeline_fixture()
        news = ["rain", "hit", "the", "coast"]
        plain = generate(news, model, vocab, self._dcfg())
        traced = generate(news, model, vocab, self._dcfg(record_attention=True))
        assert plain.attention is None
        assert traced.attention is not None
        rows, cols = traced.attention.shape
        assert rows == len(traced.outline_ids)
        assert cols == len(news) + 2  # BOS ... EOS wrapping
        np.testing.assert_allclose(traced.attention.sum(axis=1), 1.0, atol=1e-9)

    def test_record_serialization(self):
        model, vocab, _ = pipeline_fixture()
        out = generate(["rain", "hit"], model, vocab,
                       self._dcfg(record_attention=True))
        rec = out.to_record("pair-1", vocab)
        blob = json.loads(json.dumps(rec))
        assert blob["id"] == "pair-1"
        assert blob["outline"] == vocab.decode(out.outline_ids)
        assert blob["report"] == vocab.decode(out.report_ids)
        assert isinstance(blob["logprob"], float)
        assert isinstance(blob["attention"][0][0], float)
        plain = generate(["rain", "hit"], model, vocab, self._dcfg())
        assert "attention" not in plain.to_record("pair-1", vocab)

    def test_sampling_seeded(self):
        model, vocab, _ = pipeline_fixture()
        news = ["crops", "grew", "fast"]
        dcfg = self._dcfg(strategy="sample", temperature=1.5, seed=11)
        a = generate(news, model, vocab, dcfg)
        b = generate(news, model, vocab, dcfg)
        assert a.report_ids == b.report_ids

    def test_prior_latent_draw_seeded(self):
        model, vocab, _ = pipeline_fixture()
        news = ["the", "port", "opened"]
        dcfg = self._dcfg(deterministic_latent=False, seed=5)
        a = generate(news, model, vocab, dcfg)
        b = generate(news, model, vocab, dcfg)
        assert a.report_ids == b.report_ids
        assert a.logprob == b.logprob

    @staticmethod
    def _latent(dcfg):
        """The z that generate seeds the report decoder with."""
        model, vocab, _ = pipeline_fixture()
        rdec = model.report_decoder
        rdec.initial_state = Mock(wraps=rdec.initial_state)
        generate(["the", "port", "opened"], model, vocab, dcfg)
        rdec.initial_state.assert_called_once()
        return rdec.initial_state.call_args.args[0]

    def test_latent_is_zero_by_default(self):
        z = self._latent(self._dcfg())
        assert z.shape == (1, 3) and not z.any()

    def test_sample_latent_draws_from_the_decode_seed(self):
        # greedy outline decoding draws nothing, so the latent is the first
        # standard-normal draw of the decode seed's stream
        z = self._latent(self._dcfg(deterministic_latent=False, seed=5))
        stream = np.random.default_rng(np.random.SeedSequence([5, 3]))
        np.testing.assert_array_equal(z, stream.standard_normal((1, 3)))

    def test_unknown_news_words_map_to_unk(self):
        model, vocab, _ = pipeline_fixture()
        out = generate(["meteor", "shower", "tonight"], model, vocab, self._dcfg())
        assert len(out.report_ids) >= 1
