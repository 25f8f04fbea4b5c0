#!/usr/bin/env python3
"""Every digest of a parent's package source against this checkout's, line
by line.

    python3 scripts/digest_diff.py PARENT_SRC [--explained FILE]

Runs scripts/artifact_digests.sh (15 artifact lines) and
scripts/decode_digests.py (4 decode lines over every held-out item) on
PARENT_SRC and on this checkout's src/. Both trees run this checkout's
scripts, with BLAS pinned to one thread. Prints each line whose hash differs
as `NAME PARENT_HASH -> CHANGE_HASH`, and each name that only one tree
printed as `NAME only in parent` or `NAME only in change`.

Exits 1 when a name is on one side only, or when a changed hash's first 12
hex digits do not appear in the text of FILE. In CI, FILE holds the lines a
pull request adds to CHANGES.md, so a change that moves a digest passes only
by naming the new hash. Exits 0 otherwise.
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
PREFIX = 12   # hex digits of a new hash that the explanation must hold


def compare(parent_lines, change_lines, explained=""):
    """Two lists of `NAME HASH` lines -> (report lines, passed).

    A name whose hash differs is reported as `NAME OLD -> NEW` and passes
    only if NEW[:PREFIX] occurs in `explained`. A name on one side only is
    reported and never passes. Report lines follow the parent's order, then
    the names only the change printed."""
    parent = dict(line.split() for line in parent_lines)
    change = dict(line.split() for line in change_lines)
    report, passed = [], True
    for name in [*parent, *(n for n in change if n not in parent)]:
        old, new = parent.get(name), change.get(name)
        if old == new:
            continue
        if new is None or old is None:
            report.append(f"{name} only in {'parent' if new is None else 'change'}")
            passed = False
        else:
            report.append(f"{name} {old} -> {new}")
            passed = passed and new[:PREFIX] in explained
    return report, passed


def run(cmd) -> str:
    return subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE, text=True,
                          check=True).stdout


def tree_digests(src: Path, work: Path) -> list:
    """The `NAME HASH` lines of both digest scripts run on the source tree src."""
    artifacts = run(["sh", SCRIPTS / "artifact_digests.sh", work, src]).splitlines()
    lines = [" ".join(line.split()[::-1]) for line in artifacts]   # sha256sum prints HASH NAME
    return lines + run([sys.executable, SCRIPTS / "decode_digests.py", "--src", src]).splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="the parent's package source tree")
    parser.add_argument("--explained", type=Path, default=None, metavar="FILE",
                        help="text that names every hash the change moves (default: none)")
    args = parser.parse_args()
    if not (args.parent_src / "outline2report" / "__init__.py").is_file():
        parser.error(f"no outline2report package under {args.parent_src}")
    explained = args.explained.read_text(encoding="utf-8") if args.explained else ""

    import decode_digests  # noqa: F401  pins BLAS in os.environ, which the runs inherit

    with tempfile.TemporaryDirectory() as tmp:
        try:
            parent = tree_digests(args.parent_src.resolve(), Path(tmp) / "parent")
            change = tree_digests(ROOT / "src", Path(tmp) / "change")
        except subprocess.CalledProcessError as err:
            parser.exit(2, f"error: {' '.join(err.cmd)} exited with {err.returncode}\n")
    report, passed = compare(parent, change, explained)
    for line in report:
        print(line)
    print(f"{len(change)} digests compared, {len(report)} differ: "
          f"{'pass' if passed else 'FAIL'}", file=sys.stderr)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
