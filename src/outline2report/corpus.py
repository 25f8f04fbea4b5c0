"""Corpus ingestion: tokenization, vocabulary, silver outlines, padded batches.

Datasets are JSON-lines files, one object per line with fields ``id``,
``news``, ``report`` and optionally ``outline`` (all strings, UTF-8). The
vocabulary is persisted as plain text, one token per line, line number = id.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

PAD, BOS, EOS, UNK = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

# Maximal letter runs, maximal digit runs, any other single non-space char.
_TOKEN_RE = re.compile(r"[^\W\d_]+|\d+|[^\w\s]|_")


class CorpusError(ValueError):
    pass


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, detach punctuation and digit runs.

    "GDP rose 3%" -> ["gdp", "rose", "3", "%"]. Deterministic; empty input
    gives an empty sequence.
    """
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class NewsReportPair:
    """One training example; outline is None until derived."""

    id: str
    news: tuple
    report: tuple
    outline: tuple | None = None

    def __post_init__(self):
        if len(self.news) < 1:
            raise CorpusError(f"pair {self.id!r}: empty news")
        if len(self.report) < 1:
            raise CorpusError(f"pair {self.id!r}: empty report")


def pair_from_record(record, where: str = "<record>") -> NewsReportPair:
    if not isinstance(record, dict):
        raise CorpusError(f"{where}: expected a JSON object, got {type(record).__name__}")
    for field in ("id", "news", "report"):
        if field not in record:
            raise CorpusError(f"{where}: missing field {field!r}")
    outline = record.get("outline")
    for field in ("news", "report") + (("outline",) if outline is not None else ()):
        if not isinstance(record[field], str):
            raise CorpusError(f"{where}: field {field!r} must be a string, "
                              f"got {type(record[field]).__name__}")
    try:
        return NewsReportPair(
            id=str(record["id"]),
            news=tuple(tokenize(record["news"])),
            report=tuple(tokenize(record["report"])),
            outline=tuple(tokenize(outline)) if outline is not None else None,
        )
    except CorpusError as exc:
        raise CorpusError(f"{where}: {exc}") from None


def read_text_lines(path) -> list[str]:
    """A UTF-8 text file's lines as text mode splits them; a bad byte names path:line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None).readlines()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise CorpusError(f"{path}:{line}: not UTF-8 text (byte 0x{data[exc.start]:02x})") from None


def read_json_lines(path):
    """(line number, record) for each non-blank line of a JSON-lines file;
    a line that is not JSON names path:line."""
    for lineno, line in enumerate(read_text_lines(path), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from None
        yield lineno, record


def read_dataset(path) -> list[NewsReportPair]:
    return [pair_from_record(record, where=f"{path}:{lineno}")
            for lineno, record in read_json_lines(path)]


def write_dataset(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


class Vocabulary:
    """Bijective token<->id map with the four reserved ids fixed up front."""

    def __init__(self, tokens, source="vocabulary"):
        tokens = list(tokens)
        if tokens[:4] != list(SPECIAL_TOKENS):
            raise CorpusError(f"{source}: must start with the special tokens {' '.join(SPECIAL_TOKENS)}")
        self.tokens = tokens
        self.index = {tok: i for i, tok in enumerate(tokens)}
        if len(self.index) != len(tokens):
            i, tok = next((i, tok) for i, tok in enumerate(tokens) if self.index[tok] != i)
            raise CorpusError(f"{source}: duplicate token {tok!r} (ids {i} and {self.index[tok]})")

    def __len__(self):
        return len(self.tokens)

    def encode(self, tokens) -> list[int]:
        return [self.index.get(tok, UNK) for tok in tokens]

    def decode(self, ids) -> list[str]:
        out = []
        for i in ids:
            i = int(i)
            if not 0 <= i < len(self.tokens):
                raise CorpusError(f"token id {i} out of range for vocabulary of size {len(self.tokens)}")
            if i in (PAD, BOS, EOS, UNK):
                continue
            out.append(self.tokens[i])
        return out

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.tokens:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        tokens = [line.rstrip("\n") for line in read_text_lines(path)]
        while tokens and tokens[-1] == "":
            tokens.pop()
        return cls(tokens, source=str(path))

    def digest(self) -> str:
        h = hashlib.sha256()
        for tok in self.tokens:
            h.update(tok.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


def build_vocabulary(pairs, min_freq: int = 1, max_size: int = 50000) -> Vocabulary:
    """Tokens from news and reports with frequency >= min_freq, most frequent
    first, ties broken lexicographically, truncated to max_size - 4."""
    if not pairs:
        raise CorpusError("cannot build a vocabulary from an empty pair list")
    if min_freq < 1:
        raise CorpusError("min_freq must be >= 1")
    if max_size <= 4:
        raise CorpusError("max_size must leave room beyond the special tokens")
    counts = Counter()
    for pair in pairs:
        counts.update(pair.news)
        counts.update(pair.report)
    for special in SPECIAL_TOKENS:
        counts.pop(special, None)
    survivors = [(tok, n) for tok, n in counts.items() if n >= min_freq]
    if not survivors:
        raise CorpusError("empty vocabulary: every token fell below min_freq")
    survivors.sort(key=lambda item: (-item[1], item[0]))
    kept = [tok for tok, _ in survivors[: max_size - 4]]
    return Vocabulary(list(SPECIAL_TOKENS) + kept)


@dataclass
class DocumentFrequencies:
    """Per-token report document counts for the TF-IDF outline rule."""

    df: dict
    num_docs: int

    @classmethod
    def from_pairs(cls, pairs) -> "DocumentFrequencies":
        df = Counter()
        for pair in pairs:
            df.update(set(pair.report))
        return cls(df=dict(df), num_docs=len(pairs))

    def idf(self, token: str) -> float:
        return math.log(self.num_docs / max(self.df.get(token, 0), 1))


def derive_silver_outline(pair: NewsReportPair, stats: DocumentFrequencies, k: int) -> list[str]:
    """Top-k distinct report tokens by TF-IDF, emitted in first-occurrence order.

    Score ties prefer the token occurring earlier in the report. With fewer
    than k distinct candidates, all of them are kept.
    """
    if k < 1:
        raise CorpusError("k must be >= 1")
    tf = Counter(pair.report)
    first_pos = {}
    for pos, tok in enumerate(pair.report):
        if tok not in first_pos and tok not in SPECIAL_TOKENS:
            first_pos[tok] = pos
    scores = {tok: tf[tok] * stats.idf(tok) for tok in first_pos}
    candidates = sorted(first_pos, key=lambda tok: (-scores[tok], first_pos[tok]))
    chosen = candidates[:k]
    chosen.sort(key=lambda tok: first_pos[tok])
    return chosen


def derive_outlines(pairs, k: int = 0):
    """Fill missing outlines across a corpus; k = 0 uses max(3, ceil(len/8))."""
    stats = DocumentFrequencies.from_pairs(pairs)
    out = []
    for pair in pairs:
        if pair.outline is not None:
            out.append(pair)
            continue
        k_eff = k if k > 0 else max(3, math.ceil(len(pair.report) / 8))
        out.append(replace(pair, outline=tuple(derive_silver_outline(pair, stats, k_eff))))
    return out


@dataclass(frozen=True)
class LengthCaps:
    news: int = 400
    outline: int = 64
    report: int = 400


@dataclass
class Batch:
    """Padded id matrices, each row BOS ... EOS PAD..., and the non-PAD masks
    of news and report; the model masks the outline by its shifted targets."""

    news_ids: np.ndarray
    news_mask: np.ndarray
    outline_ids: np.ndarray
    report_ids: np.ndarray
    report_mask: np.ndarray

    @property
    def size(self) -> int:
        return len(self.news_ids)


def wrap_ids(tokens, vocab: Vocabulary, cap: int) -> list[int]:
    """BOS ... EOS with unknowns mapped to UNK, truncated to cap keeping EOS."""
    row = [BOS] + vocab.encode(tokens) + [EOS]
    if len(row) > cap:
        row = row[: cap - 1] + [EOS]
    return row


def _pad_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    width = max(len(r) for r in rows)
    ids = np.full((len(rows), width), PAD, dtype=np.int64)
    for b, row in enumerate(rows):
        ids[b, : len(row)] = row
    return ids, ids != PAD


def encode_batch(pairs, vocab: Vocabulary, caps: LengthCaps = LengthCaps()) -> Batch:
    if not pairs:
        raise CorpusError("encode_batch needs at least one pair")
    for pair in pairs:
        if pair.outline is None:
            raise CorpusError(f"pair {pair.id!r}: outline not derived yet")
    news = [wrap_ids(p.news, vocab, caps.news) for p in pairs]
    outline = [wrap_ids(p.outline, vocab, caps.outline) for p in pairs]
    report = [wrap_ids(p.report, vocab, caps.report) for p in pairs]
    n_ids, n_mask = _pad_rows(news)
    o_ids, _ = _pad_rows(outline)
    r_ids, r_mask = _pad_rows(report)
    return Batch(news_ids=n_ids, news_mask=n_mask, outline_ids=o_ids,
                 report_ids=r_ids, report_mask=r_mask)
