"""scripts/unused_imports.py, the stdlib-only check that CI runs over src,
tests, scripts and bench."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from unused_imports import main, unused_imports  # noqa: E402

PLANTED = '''\
from __future__ import annotations
import os
import os.path as osp  # noqa: F401
import json  # noqa
import re  # noqa: E402
from typing import (Dict,
                    List)  # noqa: F401
import collections.abc
from a import b, c
from m import e, g  # a name only a string holds counts as unused
__all__ = ["e"]


def f(x: "Sequence[int]") -> None:
    from t import Sequence
    return c.d + collections.abc.Mapping + Sequence
'''


def test_planted_imports(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text(PLANTED)
    assert unused_imports(path) == [(2, "os"), (5, "re"), (9, "b"), (10, "e"), (10, "g")]


def test_exit_codes_and_lines(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("from .x import y\n")  # a re-export
    (tmp_path / "pkg" / "x.py").write_text("import os\nimport sys\nprint(sys)\n")
    assert main([str(tmp_path)]) == 1
    assert capsys.readouterr().out == f"{tmp_path / 'pkg' / 'x.py'}:1:os\n"
    (tmp_path / "pkg" / "x.py").write_text("import sys\nprint(sys)\n")
    assert main([str(tmp_path)]) == 0


def test_the_repository_has_none(capsys):
    assert main([str(ROOT / name) for name in ("src", "tests", "scripts", "bench")]) == 0, (
        capsys.readouterr().out)
