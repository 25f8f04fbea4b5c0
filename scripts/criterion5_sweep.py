#!/usr/bin/env python3
"""Acceptance criterion 5 over a range of seeds: train on the bundled toy
corpus with the test's settings (tests/criterion5.py), then greedy-decode
every pair.

    PYTHONPATH=src python3 scripts/criterion5_sweep.py --seeds 0-7 --jobs 2

Prints one JSON line per seed, in seed order: the final L_model, the ratio of
the final to the first L_model, and how many of the pairs decode to their
gold report. `--src DIR` runs another version's package source, so a parent
and a change can be compared line by line. Each seed runs in its own worker
process, at most `--jobs` at a time, with BLAS pinned to one thread.
"""

import argparse
import json
import multiprocessing
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOY_PATH = ROOT / "data" / "toy_corpus.jsonl"

# Before numpy loads here or in a worker, which inherits the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def seed_range(text):
    """'3' -> [3]; '0-7' -> [0, ..., 7]."""
    try:
        lo, _, hi = text.partition("-")
        seeds = list(range(int(lo), int(hi or lo) + 1))
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(f"expected SEED or FIRST-LAST, got {text!r}")
    return seeds


def positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def run_seed(job):
    seed, epochs = job
    from criterion5 import overfit
    from outline2report.corpus import read_dataset

    history, matches = overfit(read_dataset(TOY_PATH), seed, epochs)
    final = history[-1].loss_model
    return {"seed": seed, "final_l_model": final,
            "loss_ratio": final / history[0].loss_model, "greedy_matches": matches}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="one seed or an inclusive range such as 0-7")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="package source tree to run (default: this checkout's src/)")
    parser.add_argument("--jobs", type=positive, default=1,
                        help="seeds run at once, each in its own process (default: 1)")
    parser.add_argument("--epochs", type=positive, default=None,
                        help="training epochs (default: the test's)")
    args = parser.parse_args()
    if not (args.src / "outline2report" / "__init__.py").is_file():
        parser.error(f"no outline2report package under {args.src}")
    # spawned workers start with this process's sys.path
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "tests")]

    jobs = [(seed, args.epochs) for seed in args.seeds]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=min(args.jobs, len(jobs)), maxtasksperchild=1) as pool:
        for row in pool.imap(run_seed, jobs):
            print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
