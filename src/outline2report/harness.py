"""Synthetic corpora and the comparative experiment.

Two generators: a fixed 10-pair toy corpus small enough to memorize, and a
seeded hierarchical corpus whose reports expand a sampled keyword skeleton
into templated sentences. The comparative runner trains the full model and a
baseline with the outline loss weight set to 0 on the same corpus and tables
BLEU plus bigram repetition for both.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import DecodeConfig, TrainingConfig
from .corpus import NewsReportPair, build_vocabulary, derive_outlines, tokenize
from .generation import evaluation_report, generate
from .model import build_model
from .training import Trainer

# subject, place, object, verb, quality; every row's words are unique to it
_TOY_TOPICS = (
    ("mine", "andes", "copper", "expand", "output"),
    ("port", "rotterdam", "cargo", "upgrade", "capacity"),
    ("bridge", "delta", "steel", "repair", "traffic"),
    ("refinery", "gulf", "crude", "restart", "supply"),
    ("railway", "plateau", "freight", "extend", "timetable"),
    ("harvest", "valley", "wheat", "store", "yield"),
    ("festival", "harbor", "music", "host", "attendance"),
    ("election", "province", "ballot", "monitor", "turnout"),
    ("storm", "coast", "wind", "survey", "damage"),
    ("merger", "exchange", "shares", "approve", "valuation"),
)


def make_toy_corpus() -> list[NewsReportPair]:
    """Ten fixed pairs with reports of 20 to 60 tokens; fully deterministic."""
    pairs = []
    for i, (subject, place, obj, verb, quality) in enumerate(_TOY_TOPICS):
        news = (f"officials in {place} said the {subject} will {verb} "
                f"{obj} {quality} this season .")
        report = (
            f"the {subject} in {place} will {verb} its {obj} {quality} . "
            f"local officials said the {subject} plan is ready and the {obj} "
            f"teams will begin soon . "
            f"experts expect the {quality} of the {place} {subject} to improve "
            f"once the {verb} work ends . "
            f"residents hope the {obj} {quality} will support jobs .")
        pairs.append(NewsReportPair(
            id=f"toy{i}", news=tuple(tokenize(news)), report=tuple(tokenize(report))))
    return pairs


_HIER_TOPICS = (
    ("flood", "the flood covered the low roads and closed the river crossings"),
    ("drought", "the drought cut the water supply and dried the grain fields"),
    ("wildfire", "the wildfire burned the dry hills and forced families to move"),
    ("strike", "the strike halted the assembly lines and emptied the factory gates"),
    ("outbreak", "the outbreak filled the clinics and slowed the border traffic"),
    ("blackout", "the blackout stopped the trams and darkened the city squares"),
    ("landslide", "the landslide buried the mountain pass and blocked the relief convoys"),
    ("heatwave", "the heatwave strained the power grid and wilted the garden crops"),
    ("frost", "the frost damaged the orchard blossoms and delayed the spring planting"),
    ("protest", "the protest filled the main avenue and paused the council session"),
    ("recall", "the recall pulled the engines from dealers and worried the parts suppliers"),
    ("shortage", "the shortage raised the fuel prices and lengthened the station queues"),
    ("scandal", "the scandal toppled the board chairman and rattled the investor meetings"),
    ("accident", "the accident shut the harbor crane and rerouted the container ships"),
    ("storms", "the storms snapped the coastal lines and grounded the ferry fleet"),
    ("layoffs", "the layoffs emptied the office towers and crowded the job fairs"),
    ("tariffs", "the tariffs squeezed the export margins and rerouted the soy shipments"),
    ("vandals", "the vandals defaced the station murals and broke the platform lamps"),
    ("audit", "the audit exposed the missing ledgers and froze the agency budgets"),
    ("breach", "the breach leaked the customer records and triggered the password resets"),
)

_HIER_OPENERS = (
    "correspondents describe a difficult week across the region .",
    "the regional bulletin opens with several developing situations .",
    "observers summarize the latest developments below .",
)

_HIER_CLOSERS = (
    "officials promise a full briefing once the assessments finish .",
    "agencies continue to watch the situation closely .",
    "a follow up report is expected within days .",
)


def make_hierarchical_corpus(num_pairs: int = 200, seed: int = 0) -> list[NewsReportPair]:
    """Keyword-skeleton corpus: each pair samples 3 to 5 topics; the news
    names them, the report expands each into its templated sentence."""
    if num_pairs < 1:
        raise ValueError("num_pairs must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    pairs = []
    for i in range(num_pairs):
        k = int(rng.integers(3, 6))
        chosen = sorted(int(j) for j in rng.choice(len(_HIER_TOPICS), size=k, replace=False))
        keywords = [_HIER_TOPICS[j][0] for j in chosen]
        news = ("reports from the region mention the "
                + " and the ".join(keywords) + " this week .")
        sentences = [_HIER_OPENERS[int(rng.integers(len(_HIER_OPENERS)))]]
        sentences += [f"{_HIER_TOPICS[j][1]} ." for j in chosen]
        sentences.append(_HIER_CLOSERS[int(rng.integers(len(_HIER_CLOSERS)))])
        report = " ".join(sentences)
        pairs.append(NewsReportPair(
            id=f"hier{i}", news=tuple(tokenize(news)), report=tuple(tokenize(report))))
    return pairs


def pairs_to_records(pairs) -> list[dict]:
    """Dataset records (text fields) whose tokenization round-trips exactly."""
    records = []
    for p in pairs:
        rec = {"id": p.id, "news": " ".join(p.news), "report": " ".join(p.report)}
        if p.outline is not None:
            rec["outline"] = " ".join(p.outline)
        records.append(rec)
    return records


def decode_lengths_for(pairs) -> tuple[int, int]:
    """(max outline steps, max report steps): twice the longest seen, plus
    room for the terminal token."""
    longest_report = max(len(p.report) for p in pairs)
    outlines = [p.outline for p in pairs if p.outline is not None]
    longest_outline = max((len(o) for o in outlines), default=8)
    return 2 * longest_outline + 2, 2 * longest_report + 2


COMPARATIVE_SYSTEMS = (("two_stage", 1.0), ("outline_weight_zero", 0.0))


def run_comparative(pairs, base_cfg: TrainingConfig | None = None,
                    epochs: int = 3, eval_limit: int | None = None,
                    progress=None):
    """Train both systems on `pairs`, decode greedily, score, and table.

    Returns (rows, table text); each row carries the metrics block from
    evaluation_report plus the system name.
    """
    outlined = derive_outlines(pairs)
    vocab = build_vocabulary(outlined)
    if base_cfg is None:
        base_cfg = TrainingConfig(batch_size=8, max_epochs=epochs)
    max_out, max_rep = decode_lengths_for(outlined)
    dcfg = DecodeConfig(strategy="greedy", max_outline_len=max_out,
                        max_report_len=max_rep)
    subset = outlined if eval_limit is None else outlined[:eval_limit]
    rows = []
    for name, weight in COMPARATIVE_SYSTEMS:
        cfg = replace(base_cfg, outline_loss_weight=weight)
        model = build_model(vocab, cfg)
        trainer = Trainer(model, outlined, vocab, cfg)
        trainer.run(max_epochs=epochs)
        if progress is not None:
            final = (f", final L_model {trainer.history[-1].loss_model:.3f}"
                     if trainer.history else "")
            progress(f"{name}: trained {trainer.step} steps{final}")
        candidates = {}
        for p in subset:
            candidates[p.id] = generate(list(p.news), model, vocab, dcfg).report_tokens
        references = {p.id: list(p.report) for p in subset}
        metrics = evaluation_report(candidates, references)
        rows.append({"system": name, **metrics})
    return rows, format_comparative_table(rows)


def format_comparative_table(rows) -> str:
    header = f"{'system':<20}  {'sent_bleu':>10}  {'corpus_bleu':>11}  {'cand_rep':>9}  {'ref_rep':>8}"
    rule = "-" * len(header)
    lines = [header, rule]
    for row in rows:
        lines.append(
            f"{row['system']:<20}  {row['mean_sentence_bleu']:>10.4f}  "
            f"{row['corpus_bleu']:>11.4f}  {row['candidate_repetition']:>9.4f}  "
            f"{row['reference_repetition']:>8.4f}")
    return "\n".join(lines)
