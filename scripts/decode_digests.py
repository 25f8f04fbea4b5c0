#!/usr/bin/env python3
"""Digests of what generate decodes on the benchmark's held-out news items,
one line per decode mode.

    python3 scripts/decode_digests.py [--src DIR] [--items N]

Trains the benchmark's decode checkpoint as bench/workloads.py's set-up does
(trained, saved and loaded), then decodes the first N of its seed-0 held-out
items under four modes: greedy, beam-4, sampling at temperature 1.3 with a
sampled latent, and greedy with recorded attention. Each line is the mode
and a sha256 over every item's outline ids, report ids, the bits of its
log-prob and the bytes of its attention rows. `--src DIR` runs another
version's package source, so a parent and a change that claims bit-identical
decoding can be compared line by line. BLAS is pinned to one thread.
"""

import argparse
import dataclasses
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SEED = 0
MODES = {
    "greedy": {"strategy": "greedy"},
    "beam4": {"strategy": "beam", "beam_width": 4},
    "sample-t1.3-latent": {"strategy": "sample", "temperature": 1.3,
                           "deterministic_latent": False},
    "greedy-attention": {"strategy": "greedy", "record_attention": True},
}


def positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(repr((tuple(res.outline_ids), tuple(res.report_ids),
                       float(res.logprob).hex())).encode())
        if res.attention is not None:
            h.update(repr(res.attention.shape).encode())
            h.update(res.attention.astype("<f8").tobytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="package source tree to run (default: this checkout's src/)")
    parser.add_argument("--items", type=positive, default=None,
                        help="held-out items to decode (default: all of them)")
    args = parser.parse_args()
    src = args.src.resolve()
    if not (src / "outline2report" / "__init__.py").is_file():
        parser.error(f"no outline2report package under {args.src}")
    sys.path[:0] = [str(src), str(ROOT / "bench")]

    import outline2report
    from workloads import WORKLOADS

    if Path(outline2report.__file__).resolve().parent != src / "outline2report":
        parser.error(f"outline2report loaded from {outline2report.__file__}, not {src}")
    wl = WORKLOADS["decode-greedy"]
    state = wl.setup(SEED)
    items = wl.inputs(SEED)[:args.items]
    for mode, fields in MODES.items():
        dcfg = dataclasses.replace(state.dcfg, **fields)
        results = [outline2report.generate(list(news), state.model, state.vocab, dcfg)
                   for news in items]
        print(f"{mode} {digest(results)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
