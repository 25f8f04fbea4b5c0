"""Command-line pipeline: build-vocab, train, generate, evaluate, gradcheck.

Settings have one precedence rule: the optional flat file of
``section.key = value`` lines, then ``--set key=value`` items, then the flags
that stand for a config key (each flag's argparse ``dest`` is its key). All
diagnostics go to stderr; exit code 0 means success.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

from .config import (DecodeConfig, TrainingConfig, load_config_file, parse_config_lines,
                     section_config)
from .corpus import (Vocabulary, build_vocabulary, derive_outlines, read_dataset,
                     read_json_lines, tokenize)
from .generation import evaluation_report, generate
from .gradcheck import run_suite
from .model import build_model
from .numerics import NonFiniteLossError
from .training import (LOSS_LOG_HEADER, CheckpointError, Trainer,
                       load_checkpoint, restore_model, resume_trainer)


class CliError(RuntimeError):
    pass


def _load_values(args) -> dict:
    """The config file, then --set items, then config-key flags, each laid
    over the last. --beam implies the beam strategy unless a flag names one."""
    values = load_config_file(args.config) if args.config else {}
    values.update(parse_config_lines(args.set or (), source="--set"))
    flags = {key: value for key, value in vars(args).items()
             if "." in key and value is not None}
    if "decode.beam_width" in flags:
        flags.setdefault("decode.strategy", "beam")
    values.update(flags)
    return values


def _require(value, what: str):
    if value is None:
        raise CliError(f"missing {what}; pass the flag or set it in the config file")
    return value


def cmd_build_vocab(args) -> int:
    values = _load_values(args)
    pairs = read_dataset(_require(values.get("data.dataset"), "dataset path"))
    vocab = build_vocabulary(pairs, min_freq=values.get("data.min_freq", 1),
                             max_size=values.get("data.max_size", 50000))
    vocab.save(args.out)
    counts = Counter(tok for p in pairs for tok in p.news + p.report)
    total = sum(counts.values())
    oov = sum(c for tok, c in counts.items() if tok not in vocab.index)
    print(f"vocabulary size: {len(vocab)} (including 4 reserved tokens)")
    print(f"distinct tokens seen: {len(counts)}")
    print(f"OOV occurrences: {oov} / {total} "
          f"({(oov / total if total else 0.0):.4%} mapped to <unk>)")
    print(f"wrote {args.out}")
    return 0


def _resumed_log(path: Path, step: int) -> str:
    """The loss log that a run resumed at `step` appends to: the log at `path`
    cut to its header and its rows of steps 0 to step-1, or the header alone
    where there is no log yet."""
    if not path.exists():
        return LOSS_LOG_HEADER + "\n"
    header, *rows = path.read_text(encoding="utf-8").splitlines() or [""]
    if header != LOSS_LOG_HEADER:
        raise CliError(f"{path}: first line is not the loss log header")
    kept = []
    for lineno, row in enumerate(rows, start=2):
        fields = row.split(",")
        try:
            row_step = int(fields[1])
            parsed = (len(fields) == 5 and int(fields[0]) >= 0
                      and all(math.isfinite(float(v)) for v in fields[2:]))
        except (IndexError, ValueError):
            parsed = False
        if not parsed:
            raise CliError(f"{path}:{lineno}: not a loss log row: {row!r}")
        if row_step < step:
            kept.append((row_step, row))
    if len(kept) != step or any(row_step != i for i, (row_step, _) in enumerate(kept)):
        raise CliError(f"{path}: its rows below step {step} are not steps 0 to {step - 1} in order")
    return "\n".join([header] + [row for _, row in kept]) + "\n"


def cmd_train(args) -> int:
    values = _load_values(args)
    dataset = _require(values.get("data.dataset"), "dataset path")
    vocab_path = _require(values.get("data.vocab"), "vocabulary path")
    out_dir = Path(_require(values.get("output.dir"), "output directory"))
    if args.epochs is not None and args.epochs < 0:
        raise CliError("--epochs must be >= 0")
    if args.resume:  # a resumed run keeps the settings it was started with
        state = load_checkpoint(args.resume)
        prefix = "training."
        differ = sorted(key for key, value in values.items() if key.startswith(prefix)
                        and value != getattr(state.config, key[len(prefix):]))
        if differ:
            raise CliError(f"--resume takes training.* from the checkpoint; "
                           f"{', '.join(differ)} differ from it")
        cfg = state.config
    else:
        cfg = section_config(TrainingConfig, "training", values)
    epochs = cfg.max_epochs if args.epochs is None else args.epochs

    pairs = read_dataset(dataset)
    if not pairs:
        raise CliError(f"{dataset}: no training pairs")
    vocab = Vocabulary.load(vocab_path)
    pairs = derive_outlines(pairs, k=cfg.outline_k)

    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "loss_log.csv"
    if args.resume:
        trainer = resume_trainer(state, pairs, vocab)
        del state  # its arrays view the whole file, which the trainer has copied
        log_text = _resumed_log(log_path, trainer.step)
        print(f"resumed from {args.resume} at step {trainer.step}", file=sys.stderr)
    else:
        trainer = Trainer(build_model(vocab, cfg), pairs, vocab, cfg)
        log_text = LOSS_LOG_HEADER + "\n"
    tmp_path = out_dir / "loss_log.csv.tmp"  # replaced into place, as checkpoints are
    tmp_path.write_text(log_text, encoding="utf-8")
    os.replace(tmp_path, log_path)
    final_path = out_dir / "checkpoint.o2r"
    with open(log_path, "a", encoding="utf-8") as log:
        def on_step(rec):
            log.write(rec.csv_row() + "\n")

        def on_epoch_end(epoch):
            every = cfg.checkpoint_every_epochs
            if every > 0 and (epoch + 1) % every == 0:
                trainer.save(out_dir / f"checkpoint_epoch{epoch + 1:04d}.o2r")

        trainer.run(max_epochs=epochs, on_step=on_step, on_epoch_end=on_epoch_end)
    trainer.save(final_path)
    if trainer.history:
        last = trainer.history[-1]
        print(f"trained {trainer.step} steps over {epochs} epochs; "
              f"final L_model {last.loss_model:.6f}")
    else:
        print("no training steps requested; wrote the initial checkpoint")
    print(f"checkpoint: {final_path}")
    print(f"loss log: {log_path}")
    return 0


def cmd_generate(args) -> int:
    if (args.input is None) == (args.news is None):
        raise CliError("pass exactly one of --input or --news")
    values = _load_values(args)
    dcfg = section_config(DecodeConfig, "decode", values)
    vocab = Vocabulary.load(_require(values.get("data.vocab"), "vocabulary path"))
    model = restore_model(load_checkpoint(args.checkpoint), vocab)

    if args.news is not None:
        items = [("news0", tokenize(args.news))]
    else:
        items = [(p.id, list(p.news)) for p in read_dataset(args.input)]

    sink = open(f"{args.out}.tmp", "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for pair_id, news_tokens in items:
            result = generate(news_tokens, model, vocab, dcfg)
            sink.write(json.dumps(result.to_record(pair_id, vocab), ensure_ascii=False) + "\n")
    except BaseException:
        if args.out:
            sink.close()
            os.remove(sink.name)  # a previous output stays as it was
        raise
    if args.out:
        sink.close()
        os.replace(sink.name, args.out)
        print(f"wrote {len(items)} generations to {args.out}", file=sys.stderr)
    return 0


def read_generations(path) -> dict:
    """id -> report token list from a generation JSON-lines file."""
    out = {}
    for lineno, rec in read_json_lines(path):
        if not isinstance(rec, dict) or "id" not in rec or "report" not in rec:
            raise CliError(f"{path}:{lineno}: record needs 'id' and 'report'")
        report = rec["report"]
        if not (isinstance(report, list) and all(isinstance(t, str) for t in report)):
            raise CliError(f"{path}:{lineno}: 'report' must be a list of token strings")
        pair_id = str(rec["id"])
        if pair_id in out:
            raise CliError(f"{path}:{lineno}: duplicate id {pair_id!r}")
        out[pair_id] = report
    return out


def cmd_evaluate(args) -> int:
    candidates = read_generations(args.generated)
    references = {}
    for p in read_dataset(args.dataset):
        if p.id in references:
            raise CliError(f"{args.dataset}: duplicate id {p.id!r}")
        references[p.id] = list(p.report)
    try:
        metrics = evaluation_report(candidates, references)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    print(f"pairs evaluated      : {metrics['pairs']}")
    print(f"mean sentence BLEU   : {metrics['mean_sentence_bleu']:.6f}")
    print(f"corpus BLEU          : {metrics['corpus_bleu']:.6f}")
    print(f"candidate bigram rep : {metrics['candidate_repetition']:.6f}")
    print(f"reference bigram rep : {metrics['reference_repetition']:.6f}")
    for side in ("candidate", "reference"):
        stats = metrics[f"{side}_lengths"]
        print(f"{side} lengths    : mean {stats['mean']:.1f}, "
              f"min {stats['min']}, max {stats['max']}")
    return 0


def cmd_gradcheck(args) -> int:
    report = run_suite(seed=args.seed, epsilon=args.epsilon, tol=args.tol)
    print(report.format_table())
    print(f"worst relative error: {report.worst:.3e} (tolerance {report.tol:.1e})")
    if not report.passed:
        print("gradient check FAILED", file=sys.stderr)
        return 1
    print("all blocks pass")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outline2report",
        description="Two-stage news-to-report generation: outline first, then report.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="flat config file of section.key = value lines")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")

    # a flag that stands for a config key stores under that key (see _load_values)
    p = sub.add_parser("build-vocab", help="build a vocabulary file from a dataset")
    add_config_args(p)
    p.add_argument("--dataset", dest="data.dataset", help="JSON-lines dataset")
    p.add_argument("--out", required=True, help="vocabulary file to write")
    p.add_argument("--min-freq", type=int, dest="data.min_freq")
    p.add_argument("--max-size", type=int, dest="data.max_size")
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train from a dataset and vocabulary")
    add_config_args(p)
    p.add_argument("--dataset", dest="data.dataset")
    p.add_argument("--vocab", dest="data.vocab")
    p.add_argument("--out", dest="output.dir",
                   help="output directory for checkpoints and the loss log")
    p.add_argument("--epochs", type=int,
                   help="epochs to train to (default training.max_epochs); not saved")
    p.add_argument("--resume", help="checkpoint to continue from, with its training.* settings")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="decode outlines and reports from news")
    add_config_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", dest="data.vocab")
    p.add_argument("--input", help="JSON-lines dataset of news items")
    p.add_argument("--news", help="a single news text")
    p.add_argument("--out", help="output JSON-lines file (default stdout)")
    strategy = p.add_mutually_exclusive_group()
    strategy.add_argument("--strategy", dest="decode.strategy",
                          choices=("greedy", "beam", "sample"))
    strategy.add_argument("--greedy", action="store_const", const="greedy",
                          dest="decode.strategy", help="shorthand for --strategy greedy")
    p.add_argument("--beam", type=int, dest="decode.beam_width", metavar="WIDTH",
                   help="beam width (implies --strategy beam unless set)")
    p.add_argument("--temperature", type=float, dest="decode.temperature")
    p.add_argument("--max-outline-len", type=int, dest="decode.max_outline_len")
    p.add_argument("--max-report-len", type=int, dest="decode.max_report_len")
    p.add_argument("--seed", type=int, dest="decode.seed")
    p.add_argument("--sample-latent", action="store_const", const=False,
                   dest="decode.deterministic_latent",
                   help="draw the latent from the prior instead of using zero")
    p.add_argument("--record-attention", action="store_const", const=True,
                   dest="decode.record_attention")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score a generation file against gold reports")
    p.add_argument("--generated", required=True, help="JSON-lines from the generate command")
    p.add_argument("--dataset", required=True, help="reference dataset")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference check of every gradient block")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, CheckpointError, NonFiniteLossError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
