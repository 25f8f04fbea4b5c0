#!/usr/bin/env python3
"""Mutation probe: plant each fault of a fixed table in a copy of the package
and check that the tests named for it fail.

    python3 scripts/mutants.py

Copies src/, tests/, bench/ and pyproject.toml into a temporary directory; a
copy of src/ alone is not enough, because pyproject.toml's
`pythonpath = ["src"]` puts the checkout's own src/ first. Runs every named
test once on the unmutated copy, where all must pass. Then, for each mutant,
replaces its old text with its new text in the copy's
src/outline2report/FILE, runs only its named tests inside the copy, and puts
the file back. A mutant is killed when pytest reports a failing test.

Prints one line per mutant and a summary. Exits 1 when a mutant that is not
marked equivalent survives, when one marked equivalent is killed, when a
mutant's old text does not occur exactly once in its file, or when pytest
ends other than by passing or failing (a test id that does not exist, say).
Exits 0 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str                 # under src/outline2report/
    old: str                  # must occur exactly once in the file
    new: str
    tests: tuple              # pytest ids, run from the copy's root
    equivalent: str = ""      # why no test can tell it apart, if none can


CLI = "tests/test_cli.py::"
REPLACED = "tests/test_corpus.py::TestReplacedFile"
SHAPE_CHECKED = ("tests/test_training.py::TestCheckpointing::"
                 "test_saved_shape_is_checked_before_the_model_is_built")

MUTANTS = [
    Mutant("replaced_file keeps its temporary file on a failure", "corpus.py",
           "os.remove(tmp)", "pass",
           (REPLACED, CLI + "TestBuildVocab::test_failed_write_leaves_the_previous_vocabulary")),
    Mutant("replaced_file replaces the file on an exception", "corpus.py",
           "os.remove(tmp)", "os.replace(tmp, path)",
           (REPLACED, CLI + "TestGenerate::test_failed_run_leaves_the_previous_output")),
    Mutant("replaced_file's OSError leaves out the path", "corpus.py",
           "raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc", "raise",
           (REPLACED,)),
    Mutant("train commits its loss log before the checkpoint is written", "cli.py",
           "            log.flush()\n            trainer.save(path)",
           "            log.flush()\n        trainer.save(path)",
           (CLI + "TestTrain::test_full_disk_leaves_the_previous_checkpoint_and_log",)),
    Mutant("restore_model builds the model before checking embedding.table", "training.py",
           '    _saved_array(state, "embedding.table", (state.vocab_size, cfg.d_emb))\n', "",
           (SHAPE_CHECKED,)),
    Mutant("restore_model builds the model before checking encoder.fwd.W_h", "training.py",
           '    _saved_array(state, "encoder.fwd.W_h", (4 * cfg.d_hid, cfg.d_hid))\n', "",
           (SHAPE_CHECKED,)),
    Mutant("restore_model builds the model before checking report.recog.W_mu", "training.py",
           '    _saved_array(state, "report.recog.W_mu", (cfg.d_z, 3 * cfg.d_hid + cfg.d_emb))\n',
           "", (SHAPE_CHECKED,)),
    Mutant("manifest entries may leave gaps in the payload", "training.py",
           'if entry["offset"] != start:', 'if entry["offset"] < start:',
           (CLI + "TestMalformedInput::test_header_that_does_not_fit_the_saved_arrays",)),
    Mutant("_resumed_log takes any first line as the header", "cli.py",
           "if header != LOSS_LOG_HEADER:", "if False:",
           (CLI + "TestTrain::test_resume_onto_a_malformed_log",)),
    Mutant("_resumed_log takes rows out of step order", "cli.py",
           "if len(kept) != step or any(row_step != i for i, (row_step, _) in enumerate(kept)):",
           "if len(kept) != step:",
           (CLI + "TestTrain::test_resume_onto_a_malformed_log",)),
    Mutant("clip_global_norm scales a norm equal to max_norm", "numerics.py",
           "math.inf > total > max_norm > 0", "math.inf > total >= max_norm > 0",
           ("tests/test_numerics.py::TestClipGlobalNorm",),
           equivalent="a norm equal to max_norm scales every gradient by exactly 1.0"),
    Mutant("scheduled sampling feeds gold on a coin equal to the ratio", "numerics.py",
           "rng.random(len(input_ids)) >= ratio", "rng.random(len(input_ids)) > ratio",
           ("tests/test_outline_decoder.py::TestTeacherForcedPass",
            "tests/test_outline_decoder.py::TestStepBatchedPass"),
           equivalent="a draw of [0, 1) equals the ratio with probability about 2**-53"),
]


def run_tests(copy: Path, tests) -> tuple:
    """(pytest's exit code, its output) for `tests` run inside `copy`."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=copy, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, check=False)
    return proc.returncode, proc.stdout


def probe(copy: Path, mutant: Mutant) -> str:
    """The fault in `mutant`'s line of the report, or "" if it behaved as marked."""
    path = copy / "src" / "outline2report" / mutant.file
    source = path.read_text(encoding="utf-8")
    if source.count(mutant.old) != 1:
        return f"old text occurs {source.count(mutant.old)} times in {mutant.file}"
    path.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        code, output = run_tests(copy, mutant.tests)
    finally:
        path.write_text(source, encoding="utf-8")
    if code not in (0, 1):
        return f"pytest exited {code}:\n{output}"
    if mutant.equivalent:
        return "equivalent, but killed" if code == 1 else ""
    return "survived" if code == 0 else ""


def main() -> int:
    start = time.monotonic()
    faults = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".ckpt-*")
        for name in ("src", "tests", "bench"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        tests = sorted({test for mutant in MUTANTS for test in mutant.tests})
        code, output = run_tests(copy, tests)
        if code != 0:
            print(f"the named tests fail on the unmutated copy:\n{output}")
            return 1
        for mutant in MUTANTS:
            fault = probe(copy, mutant)
            faults += bool(fault)
            status = "equivalent" if mutant.equivalent else "killed"
            print(f"{'FAULT' if fault else status:<10} {mutant.name}"
                  + (f": {fault}" if fault else ""), flush=True)
    print(f"{len(MUTANTS)} mutants, {faults} faults, {time.monotonic() - start:.0f} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
