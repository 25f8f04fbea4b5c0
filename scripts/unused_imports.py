#!/usr/bin/env python3
"""Imports that a module never uses, found with the standard library's ast.

    python3 scripts/unused_imports.py PATH...

Each PATH is a .py file or a directory searched for them. An import counts
as used when the name it binds appears anywhere in its module as a name
(the root of an attribute chain is one). The check is module-wide, not per
scope, so it misses an import that only a shadowing name uses. A name used
only inside a string, such as a quoted annotation or `__all__`, does not
count: mark its import `# noqa: F401`, which exempts an import statement
when it stands on one of its lines (a bare `# noqa` does too).
`__init__.py` files are skipped, since their imports are the package's
re-exports.

Prints `file:line:name` for each unused import and exits 1 if there is one,
else exits 0.
"""

import ast
import re
import sys
from pathlib import Path

NOQA = re.compile(r"#\s*noqa(:[\s,A-Z0-9]*)?")


def _ignored(lines, node) -> bool:
    """Whether a line of the import statement `node` carries a noqa for F401."""
    for line in lines[node.lineno - 1:node.end_lineno]:
        m = NOQA.search(line)
        if m and (not m.group(1) or "F401" in m.group(1)):
            return True
    return False


def unused_imports(path: Path) -> list:
    """(line, name) of each import in the file at `path` that its module never uses."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or _ignored(lines, node):
            continue
        for alias in node.names:
            name = alias.asname or (alias.name.split(".")[0] if isinstance(node, ast.Import)
                                    else alias.name)
            if name != "*" and name not in used:
                found.append((node.lineno, name))
    return sorted(found)


def python_files(paths):
    for arg in paths:
        path = Path(arg)
        if not path.exists():
            raise SystemExit(f"error: {arg}: no such file or directory")
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            if file.name != "__init__.py":
                yield file


def main(argv) -> int:
    if not argv:
        print("usage: unused_imports.py PATH...", file=sys.stderr)
        return 2
    bad = 0
    for file in python_files(argv):
        try:
            found = unused_imports(file)
        except SyntaxError as exc:
            found = [(exc.lineno, "<syntax error>")]
        for line, name in found:
            print(f"{file}:{line}:{name}")
        bad += len(found)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
