"""No module in the package or the tests imports a name it never uses.

A stdlib-``ast`` scan: every name bound by an import must be read somewhere
in the same file.  Names listed in ``__all__`` count as used, and so do names
inside string annotations; ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted((ROOT / "src" / "peakhc").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def _imported(tree) -> dict:
    """Bound name -> line of every import in the file (except __future__)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree) -> set:
    """Names read anywhere in the file, plus ``__all__`` and string annotations."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out.update(
                elt.value for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                out.update(
                    n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                    if isinstance(n, ast.Name)
                )
    return out


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return sorted(
        (line, name) for name, line in _imported(tree).items() if name not in used
    )


def test_scan_covers_package_and_tests():
    names = {p.name for p in SCANNED}
    assert {"hopf.py", "characteristic.py", "test_imports.py"} <= names


def test_scanner_flags_an_unused_import(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from json import dumps, loads as _loads\n"
        "from typing import List\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'List[int]') -> None:\n"
        "    return sys.argv\n"
    )
    assert unused_imports(sample) == [(2, "os"), (3, "_loads")]


def test_no_unused_imports():
    found = [
        "%s:%d %s" % (path.relative_to(ROOT), line, name)
        for path in SCANNED
        for line, name in unused_imports(path)
    ]
    assert not found, "imported but never used:\n" + "\n".join(found)
