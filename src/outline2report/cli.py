"""Command-line pipeline: build-vocab, train, generate, evaluate, gradcheck.

Config values come from an optional flat file of ``section.key = value``
lines; ``--set key=value`` overrides win over the file, and the few direct
flags (dataset, vocabulary, output paths) win over both. All diagnostics go
to stderr; exit code 0 means success.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from .config import (ConfigError, apply_overrides, decode_config_from,
                     load_config_file, training_config_from)
from .corpus import (CorpusError, Vocabulary, build_vocabulary,
                     derive_outlines, read_dataset, tokenize)
from .generation import evaluation_report, generate
from .gradcheck import run_suite
from .model import build_model
from .numerics import NonFiniteLossError
from .training import (LOSS_LOG_HEADER, CheckpointError, Trainer,
                       load_checkpoint, restore_model, resume_trainer)


class CliError(RuntimeError):
    pass


def _load_values(args) -> dict:
    values = load_config_file(args.config) if getattr(args, "config", None) else {}
    return apply_overrides(values, getattr(args, "set", None))


def _require(value, what: str):
    if value is None:
        raise CliError(f"missing {what}; pass the flag or set it in the config file")
    return value


def cmd_build_vocab(args) -> int:
    values = _load_values(args)
    dataset = _require(args.dataset or values.get("data.dataset"), "dataset path")
    out = _require(args.out, "output path")
    min_freq = args.min_freq if args.min_freq is not None else int(values.get("data.min_freq", 1))
    max_size = args.max_size if args.max_size is not None else int(values.get("data.max_size", 50000))
    pairs = read_dataset(dataset)
    vocab = build_vocabulary(pairs, min_freq=min_freq, max_size=max_size)
    vocab.save(out)
    counts = Counter(tok for p in pairs for tok in p.news + p.report)
    total = sum(counts.values())
    oov = sum(c for tok, c in counts.items() if tok not in vocab.index)
    print(f"vocabulary size: {len(vocab)} (including 4 reserved tokens)")
    print(f"distinct tokens seen: {len(counts)}")
    print(f"OOV occurrences: {oov} / {total} "
          f"({(oov / total if total else 0.0):.4%} mapped to <unk>)")
    print(f"wrote {out}")
    return 0


def cmd_train(args) -> int:
    values = _load_values(args)
    dataset = _require(args.dataset or values.get("data.dataset"), "dataset path")
    vocab_path = _require(args.vocab or values.get("data.vocab"), "vocabulary path")
    out_dir = Path(_require(args.out or values.get("output.dir"), "output directory"))
    cfg = training_config_from(values)
    if args.epochs is not None:
        if args.epochs < 0:
            raise CliError("--epochs must be >= 0")
        epochs = args.epochs
    else:
        epochs = cfg.max_epochs

    pairs = read_dataset(dataset)
    if not pairs:
        raise CliError(f"{dataset}: no training pairs")
    vocab = Vocabulary.load(vocab_path)
    if any(p.outline is None for p in pairs):
        pairs = derive_outlines(pairs, k=cfg.outline_k)

    out_dir.mkdir(parents=True, exist_ok=True)
    if args.resume:
        trainer = resume_trainer(args.resume, pairs, vocab)
        cfg = trainer.cfg
        print(f"resumed from {args.resume} at step {trainer.step}", file=sys.stderr)
    else:
        trainer = Trainer(build_model(vocab, cfg), pairs, vocab, cfg)

    log_path = out_dir / "loss_log.csv"
    log_mode = "a" if args.resume else "w"
    final_path = out_dir / "checkpoint.o2r"
    with open(log_path, log_mode, encoding="utf-8") as log:
        if not args.resume:
            log.write(LOSS_LOG_HEADER + "\n")

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


def _decode_flags_to_values(args, values) -> dict:
    flag_map = {
        "strategy": "decode.strategy",
        "beam_width": "decode.beam_width",
        "temperature": "decode.temperature",
        "max_outline_len": "decode.max_outline_len",
        "max_report_len": "decode.max_report_len",
        "seed": "decode.seed",
    }
    out = dict(values)
    for attr, key in flag_map.items():
        val = getattr(args, attr, None)
        if val is not None:
            out[key] = val
    if getattr(args, "greedy", False):
        out["decode.strategy"] = "greedy"
    if getattr(args, "sample_latent", False):
        out["decode.deterministic_latent"] = False
    if getattr(args, "record_attention", False):
        out["decode.record_attention"] = True
    return out


def cmd_generate(args) -> int:
    values = _decode_flags_to_values(args, _load_values(args))
    dcfg = decode_config_from(values)
    vocab = Vocabulary.load(_require(args.vocab, "vocabulary path"))
    state = load_checkpoint(_require(args.checkpoint, "checkpoint path"))
    model = restore_model(state, vocab)

    if (args.input is None) == (args.news is None):
        raise CliError("pass exactly one of --input or --news")
    if args.news is not None:
        items = [("news0", tokenize(args.news))]
    else:
        items = [(p.id, list(p.news)) for p in read_dataset(args.input)]

    sink = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for pair_id, news_tokens in items:
            result = generate(news_tokens, model, vocab, dcfg)
            sink.write(json.dumps(result.to_record(pair_id), ensure_ascii=False) + "\n")
    finally:
        if sink is not sys.stdout:
            sink.close()
    if args.out:
        print(f"wrote {len(items)} generations to {args.out}", file=sys.stderr)
    return 0


def read_generations(path) -> dict:
    """id -> report token list from a generation JSON-lines file."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CliError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from None
            if not isinstance(rec, dict) or "id" not in rec or "report" not in rec:
                raise CliError(f"{path}:{lineno}: record needs 'id' and 'report'")
            report = rec["report"]
            if not (isinstance(report, list) and all(isinstance(t, str) for t in report)):
                raise CliError(f"{path}:{lineno}: 'report' must be a list of token strings")
            out[str(rec["id"])] = report
    return out


def cmd_evaluate(args) -> int:
    candidates = read_generations(args.generated)
    references = {p.id: list(p.report) for p in read_dataset(args.dataset)}
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

    p = sub.add_parser("build-vocab", help="build a vocabulary file from a dataset")
    add_config_args(p)
    p.add_argument("--dataset", help="JSON-lines dataset")
    p.add_argument("--out", required=True, help="vocabulary file to write")
    p.add_argument("--min-freq", type=int, dest="min_freq")
    p.add_argument("--max-size", type=int, dest="max_size")
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train from a dataset and vocabulary")
    add_config_args(p)
    p.add_argument("--dataset")
    p.add_argument("--vocab")
    p.add_argument("--out", help="output directory for checkpoints and the loss log")
    p.add_argument("--epochs", type=int, help="override training.max_epochs")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="decode outlines and reports from news")
    add_config_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", help="JSON-lines dataset of news items")
    p.add_argument("--news", help="a single news text")
    p.add_argument("--out", help="output JSON-lines file (default stdout)")
    p.add_argument("--strategy", choices=("greedy", "beam", "sample"))
    p.add_argument("--greedy", action="store_true", help="shorthand for --strategy greedy")
    p.add_argument("--beam", type=int, dest="beam_width", metavar="WIDTH",
                   help="beam width (implies --strategy beam unless set)")
    p.add_argument("--temperature", type=float)
    p.add_argument("--max-outline-len", type=int, dest="max_outline_len")
    p.add_argument("--max-report-len", type=int, dest="max_report_len")
    p.add_argument("--seed", type=int)
    p.add_argument("--sample-latent", action="store_true", dest="sample_latent",
                   help="draw the latent from the prior instead of using zero")
    p.add_argument("--record-attention", action="store_true", dest="record_attention")
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
    if getattr(args, "beam_width", None) is not None and not args.strategy \
            and not getattr(args, "greedy", False):
        args.strategy = "beam"
    try:
        return args.func(args)
    except (CliError, ConfigError, CorpusError, CheckpointError, NonFiniteLossError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
