import errno
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outline2report.corpus import (
    BOS, EOS, PAD, SPECIAL_TOKENS, UNK, CorpusError, DocumentFrequencies, NewsReportPair,
    Vocabulary, build_vocabulary, derive_outlines, derive_silver_outline, encode_batch,
    read_dataset, read_text_lines, replaced_file, tokenize, wrap_ids, write_dataset)


def make_pair(pid, news, report, outline=None):
    return NewsReportPair(id=pid, news=tuple(news), report=tuple(report),
                          outline=tuple(outline) if outline is not None else None)


token_text = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF),
                     max_size=40)


class TestTokenize:
    def test_digits_and_punctuation_detached(self):
        assert tokenize("GDP rose 3%") == ["gdp", "rose", "3", "%"]

    def test_empty(self):
        assert tokenize("") == []

    def test_duplicates_preserved(self):
        assert tokenize("a a") == ["a", "a"]

    def test_interior_punctuation_splits(self):
        assert tokenize("U.S.-based") == ["u", ".", "s", ".", "-", "based"]

    def test_number_glued_to_word(self):
        assert tokenize("7days") == ["7", "days"]

    @given(token_text)
    def test_no_empty_tokens_and_lowercase(self, text):
        toks = tokenize(text)
        assert all(toks)
        assert all(t == t.lower() for t in toks)

    @given(token_text)
    def test_idempotent_on_own_output(self, text):
        toks = tokenize(text)
        assert tokenize(" ".join(toks)) == toks


class TestBuildVocabulary:
    def test_min_freq_filters(self):
        pairs = [make_pair("1", ["a", "a"], ["a", "b"])]
        v = build_vocabulary(pairs, min_freq=2, max_size=10)
        assert v.tokens == ["<pad>", "<bos>", "<eos>", "<unk>", "a"]

    def test_lexicographic_tie_break(self):
        pairs = [make_pair("1", ["c", "a"], ["b", "a"]),
                 make_pair("2", ["b", "c"], ["d"])]
        # a, b, c all occur twice; room for only two
        v = build_vocabulary(pairs, min_freq=1, max_size=6)
        assert v.tokens[4:] == ["a", "b"]

    def test_no_filtering_keeps_all(self):
        pairs = [make_pair("1", ["x", "y"], ["z"])]
        v = build_vocabulary(pairs, min_freq=1, max_size=100)
        assert set(v.tokens[4:]) == {"x", "y", "z"}

    def test_empty_vocabulary_rejected(self):
        pairs = [make_pair("1", ["a"], ["b"])]
        with pytest.raises(CorpusError, match="empty vocabulary"):
            build_vocabulary(pairs, min_freq=99, max_size=10)

    @given(st.permutations(list(range(4))))
    def test_pair_order_invariance(self, order):
        base = [make_pair(str(i), [w], [w, "common"])
                for i, w in enumerate(["ant", "bee", "cat", "dog"])]
        v0 = build_vocabulary(base, min_freq=1, max_size=50)
        v1 = build_vocabulary([base[i] for i in order], min_freq=1, max_size=50)
        assert v0.tokens == v1.tokens


class TestVocabulary:
    def test_specials_lead(self):
        v = Vocabulary(("<pad>", "<bos>", "<eos>", "<unk>", "word"))
        assert v.encode(["<pad>", "<bos>", "<eos>", "<unk>"]) == [PAD, BOS, EOS, UNK]

    def test_bad_specials_rejected(self):
        with pytest.raises(CorpusError):
            Vocabulary(("<bos>", "<pad>", "<eos>", "<unk>", "word"))

    def test_oov_maps_to_unk(self):
        v = build_vocabulary([make_pair("1", ["a"], ["b"])])
        assert v.encode(["zzz"]) == [UNK]

    def test_encode_decode_round_trip(self):
        v = build_vocabulary([make_pair("1", ["a", "b"], ["c"])])
        toks = ["a", "c", "b"]
        assert v.decode(v.encode(toks)) == toks

    def test_save_load_digest(self, tmp_path):
        v = build_vocabulary([make_pair("1", ["a", "b"], ["c", "d"])])
        p = tmp_path / "vocab.txt"
        v.save(p)
        w = Vocabulary.load(p)
        assert w.tokens == v.tokens
        assert w.digest() == v.digest()

    def test_failed_save_leaves_the_previous_file(self, tmp_path):
        p = tmp_path / "vocab.txt"
        build_vocabulary([make_pair("1", ["a"], ["b"])]).save(p)
        before = p.read_bytes()
        with pytest.raises(UnicodeEncodeError):
            Vocabulary(list(SPECIAL_TOKENS) + ["c", "\ud800", "d"]).save(p)
        assert p.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [p]

    def test_duplicate_token_named(self):
        with pytest.raises(CorpusError, match=r"^vocabulary: duplicate token 'a' \(ids 4 and 8\)$"):
            Vocabulary(("<pad>", "<bos>", "<eos>", "<unk>", "a", "b", "c", "b", "a"))

    def test_digest_sensitive_to_content(self):
        v1 = build_vocabulary([make_pair("1", ["a"], ["b"])])
        v2 = build_vocabulary([make_pair("1", ["a"], ["c"])])
        assert v1.digest() != v2.digest()


class TestSilverOutline:
    def _stats_with_the_everywhere(self):
        pairs = [
            make_pair("1", ["n"], ["the", "rate", "fell", "the", "rate"]),
            make_pair("2", ["n"], ["the", "cat"]),
            make_pair("3", ["n"], ["the", "dog"]),
        ]
        return pairs[0], DocumentFrequencies.from_pairs(pairs)

    def test_tfidf_drops_ubiquitous_token(self):
        pair, stats = self._stats_with_the_everywhere()
        # idf("the") = ln(3/3) = 0, so it loses to rate (2 ln 3) and fell (ln 3)
        assert derive_silver_outline(pair, stats, k=2) == ["rate", "fell"]

    def test_fewer_distinct_than_k(self):
        pair = make_pair("1", ["n"], ["a"])
        stats = DocumentFrequencies.from_pairs([pair])
        assert derive_silver_outline(pair, stats, k=5) == ["a"]

    def test_huge_k_returns_all_distinct_in_first_occurrence_order(self):
        pair = make_pair("1", ["n"], ["b", "a", "b", "c", "a"])
        stats = DocumentFrequencies.from_pairs([pair])
        assert derive_silver_outline(pair, stats, k=10 ** 6) == ["b", "a", "c"]

    def test_tie_prefers_earlier_position(self):
        pair = make_pair("1", ["n"], ["x", "y"])
        stats = DocumentFrequencies.from_pairs(
            [pair, make_pair("2", ["n"], ["q"])])
        # x and y have identical tf and df
        assert derive_silver_outline(pair, stats, k=1) == ["x"]

    def test_k_zero_rejected(self):
        pair = make_pair("1", ["n"], ["a"])
        with pytest.raises(CorpusError):
            derive_silver_outline(pair, DocumentFrequencies.from_pairs([pair]), 0)

    @given(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=20),
           st.integers(min_value=1, max_value=8))
    def test_subsequence_of_report(self, report, k):
        pair = make_pair("1", ["n"], report)
        stats = DocumentFrequencies.from_pairs([pair])
        outline = derive_silver_outline(pair, stats, k)
        firsts = [t for i, t in enumerate(report) if t not in report[:i]]
        positions = [firsts.index(t) for t in outline]
        assert positions == sorted(positions)
        assert len(outline) == min(k, len(firsts))

    def test_default_k_rule(self):
        report = ["w%d" % i for i in range(30)]
        pairs = derive_outlines([make_pair("1", ["n"], report)])
        assert len(pairs[0].outline) == max(3, math.ceil(30 / 8))

    def test_existing_outline_untouched(self):
        pair = make_pair("1", ["n"], ["a", "b"], outline=["b"])
        assert derive_outlines([pair])[0].outline == ("b",)


class TestDocumentFrequencies:
    def test_idf_convention(self):
        pairs = [make_pair(str(i), ["n"], ["common"] + (["rare"] if i == 0 else []))
                 for i in range(4)]
        stats = DocumentFrequencies.from_pairs(pairs)
        assert stats.idf("common") == 0.0
        assert abs(stats.idf("rare") - math.log(4)) < 1e-15

    def test_unseen_token_uses_df_one(self):
        stats = DocumentFrequencies.from_pairs([make_pair("1", ["n"], ["a"])] * 3)
        assert abs(stats.idf("never") - math.log(3)) < 1e-15


class TestEncodeBatch:
    def _vocab(self):
        return build_vocabulary([make_pair("1", ["a", "b"], ["c"], ["c"])])

    def test_single_token_row(self):
        v = self._vocab()
        pair = make_pair("1", ["a"], ["c"], outline=["c"])
        batch = encode_batch([pair], v)
        assert batch.news_ids[0, :3].tolist() == [BOS, v.index["a"], EOS]
        assert batch.news_mask[0].sum() == 3
        assert batch.news_mask[0, :3].all()

    def test_oov_becomes_unk(self):
        v = self._vocab()
        pair = make_pair("1", ["zzz"], ["c"], outline=["c"])
        batch = encode_batch([pair], v)
        assert batch.news_ids[0, 1] == UNK

    def test_identical_pairs_identical_rows(self):
        v = self._vocab()
        pair = make_pair("1", ["a", "b"], ["c"], outline=["c"])
        batch = encode_batch([pair, pair], v)
        assert (batch.news_ids[0] == batch.news_ids[1]).all()
        assert (batch.report_ids[0] == batch.report_ids[1]).all()

    def test_empty_list_rejected(self):
        with pytest.raises(CorpusError):
            encode_batch([], self._vocab())

    def test_missing_outline_rejected(self):
        v = self._vocab()
        with pytest.raises(CorpusError, match="outline"):
            encode_batch([make_pair("1", ["a"], ["c"])], v)

    def test_truncation_keeps_eos(self):
        v = self._vocab()
        row = wrap_ids(["a", "b", "a", "b", "a"], v, cap=4)
        assert len(row) == 4
        assert row[0] == BOS and row[-1] == EOS

    def test_short_row_padded(self):
        v = self._vocab()
        pairs = [make_pair("1", ["a"], ["c"], ["c"]),
                 make_pair("2", ["a", "b", "a"], ["c", "c"], ["c"])]
        batch = encode_batch(pairs, v)
        assert batch.news_mask.sum(axis=1).tolist() == [3, 5]
        assert batch.news_ids[0, 3:].tolist() == [PAD] * (batch.news_ids.shape[1] - 3)


class TestReplacedFile:
    @pytest.mark.parametrize("mode,data", [("w", "naïve\n"), ("wb", b"\x00\xff")])
    def test_success_replaces_the_file(self, tmp_path, mode, data):
        path = tmp_path / "out"
        path.write_text("previous\n")
        with replaced_file(path, mode) as fh:
            fh.write(data)
            assert path.read_text() == "previous\n"
        assert path.read_bytes() == (data if mode == "wb" else data.encode("utf-8"))
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("exc", [
        ValueError("bad value"), KeyboardInterrupt(), OSError(errno.ENOSPC, "No space left")])
    def test_exception_leaves_the_previous_file(self, tmp_path, exc):
        path = tmp_path / "out"
        path.write_text("previous\n")
        with pytest.raises(type(exc)):
            with replaced_file(path) as fh:
                fh.write("partial")
                fh.flush()
                raise exc
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_os_error_names_the_path(self, tmp_path):
        path = tmp_path / "out"
        with pytest.raises(OSError) as info:
            with replaced_file(path):
                raise OSError(errno.ENOSPC, "No space left on device")
        assert info.value.errno == errno.ENOSPC
        assert str(info.value) == f"[Errno 28] No space left on device: '{path}'"
        assert not path.exists()

    def test_os_error_of_another_file_passes_through(self, tmp_path):
        other = OSError(errno.ENOENT, "No such file or directory", str(tmp_path / "other"))
        with pytest.raises(OSError) as info:
            with replaced_file(tmp_path / "out"):
                raise other
        assert info.value is other

    def test_other_exception_passes_through_unchanged(self, tmp_path):
        exc = ValueError("bad value")
        with pytest.raises(ValueError) as info:
            with replaced_file(tmp_path / "out"):
                raise exc
        assert info.value is exc

    def test_failed_open_names_the_path(self, tmp_path):
        path = tmp_path / "missing" / "out"
        with pytest.raises(FileNotFoundError, match=f"'{path}'"):
            with replaced_file(path):
                pass


class TestDataset:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_dataset(path, [
            {"id": "p1", "news": "GDP rose 3%", "report": "growth up", "outline": "growth"},
            {"id": "p2", "news": "rain fell", "report": "wet season ahead"},
        ])
        pairs = read_dataset(path)
        assert [p.id for p in pairs] == ["p1", "p2"]
        assert pairs[0].news == ("gdp", "rose", "3", "%")
        assert pairs[0].outline == ("growth",)
        assert pairs[1].outline is None

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "1", "news": "a", "report": "b"}\nnot json\n')
        with pytest.raises(CorpusError, match=r"bad\.jsonl:2"):
            read_dataset(path)

    def test_missing_field_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "1", "news": "a"}\n')
        with pytest.raises(CorpusError, match=r"bad\.jsonl:1"):
            read_dataset(path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.text(st.sampled_from("ab\r\n\x85\u2028é"), max_size=30).map(str.encode)
           | st.text(max_size=30).map(str.encode) | st.binary(max_size=30))
    def test_lines_split_as_text_mode_splits_them(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "lines.txt"
        path.write_bytes(data)
        try:
            with open(path, encoding="utf-8") as fh:
                want = fh.readlines()
        except UnicodeDecodeError:
            with pytest.raises(CorpusError, match=r"lines\.txt:\d+: not UTF-8 text"):
                read_text_lines(path)
            return
        assert read_text_lines(path) == want

    @pytest.mark.parametrize("field", ["id", "news", "report", "outline"])
    def test_lone_surrogate_names_the_line_and_field(self, tmp_path, field):
        record = {"id": "p2", "news": "a", "report": "b", "outline": "b"}
        record[field] += "\ud800"  # JSON spells it, but UTF-8 cannot encode it
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "p1", "news": "a", "report": "b"}\n' + json.dumps(record) + "\n")
        with pytest.raises(CorpusError, match=rf"bad\.jsonl:2: field '{field}' is not UTF-8 "
                                              r"text \(lone surrogate U\+D800\)$"):
            read_dataset(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "1", "news": "a", "report": "b"}\n\n')
        assert len(read_dataset(path)) == 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
# records with the dataset's field names, holding any JSON value
json_records = st.fixed_dictionaries(
    {}, optional={key: json_values | token_text for key in ("id", "news", "report", "outline")})


class TestDatasetFuzz:
    @settings(max_examples=300, deadline=None)
    @given(record=json_values | json_records)
    def test_random_record_parses_or_raises_corpus_error(self, tmp_path_factory, record):
        path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        try:
            pairs = read_dataset(path)
        except CorpusError:
            return
        assert len(pairs) == 1 and pairs[0].news and pairs[0].report
