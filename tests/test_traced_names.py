"""Every function the benchmark's traced run wraps still exists under its name.

`bench/measure.py`'s TRACED list names (span, owner, attribute) targets, and
`spans.Patches` looks each one up as `owner.__dict__[attr]`, so a renamed or
deleted function ends `bench/run.py --trace 1` in a KeyError. This catches
the rename in tier-1, without running a workload.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import measure  # noqa: E402


@pytest.mark.parametrize("span,owner,attr", measure.TRACED, ids=[t[0] for t in measure.TRACED])
def test_traced_target_resolves(span, owner, attr):
    assert attr in owner.__dict__, f"{span}: {owner.__name__} has no {attr!r}"
