"""Benchmark of the outline2report package, run from a source checkout.

    python3 bench/run.py --workload train-hier --seed 0 --seconds 20 --trace 0

Workloads: train-hier, train-vocab, decode-greedy, decode-beam (see
workloads.py for why each exists). With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it reports per-layer metrics from a
traced run (see measure.py). Every metric is printed by name with its unit,
and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run uses one process and one thread, with BLAS pinned to one thread and
numpy's huge-page advice off, both set before numpy loads. It imports the
package from ``src/`` of the checkout the script sits in and exits with
status 2 when that is missing.

Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # Whether numpy's large arrays get transparent huge pages depends on what
    # the kernel has free at the moment, which made peak RSS jump by 14 MiB
    # between identical runs; small pages keep it a property of the program.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    if not (SRC / "outline2report" / "__init__.py").is_file():
        print(f"bench: no outline2report package under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import measure  # imports numpy and the package
    import_s = time.perf_counter() - t0
    if args.workload not in measure.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(measure.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        result = measure.run_traced(args.workload, args.seed, args.seconds)
    else:
        result = measure.run_untraced(args.workload, args.seed, args.seconds, import_s)

    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print("env " + json.dumps(measure.environment()))
    print("params " + json.dumps(result["params"]))
    print("samples " + json.dumps(result["samples"]))
    for name, (value, unit) in result["named"].items():
        print(f"  {name:<48} {value:>14.6f} {unit}")
    print(f"operations attempted {result['attempted']}  failed {result['failed']}")
    if result["observed"]:
        print("observed " + json.dumps(result["observed"]))
    for msg in result["failed_checks"]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
