"""Two stdlib-``ast`` scans of the package, the benchmark and the tests.

No module imports a name it never uses: every name bound by an import must
be read somewhere in the same file.  Names listed in ``__all__`` count as
used, and so do names inside string annotations; ``from __future__``
imports are exempt.

No public name lacks a caller outside the tests: every name X in the
``__all__`` of a package module M is bound by M and read somewhere in the
package or the benchmark outside its own top-level ``def`` or ``class``.
A read must reach M: a bare ``ast.Name`` read counts in M itself or in a
file that binds it by ``from .M import X`` (or ``from pkg.M import X``),
an ``ast.Attribute`` read ``.X`` counts in M, in a file that imports M as
a module, or in a file that holds the string ``"M"`` (the benchmark
reaches modules as ``pk["M"]``).  So a same-named local or method of an
unrelated object is no caller.  A name that only the tests read belongs
in the tests (``tests/oracles.py``).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "peakhc").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
SCANNED = PACKAGE + BENCH + sorted((ROOT / "tests").glob("*.py"))


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


def _exported(tree) -> list:
    """The strings of the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _bound(tree) -> set:
    """Names the module binds at top level."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(a.asname or a.name.split(".")[0] for a in node.names)
    return out


def _reads(tree) -> set:
    """(owner, is_attribute, name) for every name read in the file: an
    ``ast.Name`` in load context or an ``ast.Attribute``; owner is the
    top-level def or class the read sits in, None at module level."""
    out = set()
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add((owner, False, node.id))
            elif isinstance(node, ast.Attribute):
                out.add((owner, True, node.attr))
    return out


def _links(tree) -> tuple:
    """How a file reaches other modules, each named by the last part of its
    dotted name: {M: {local name: X}} for every ``from ..M import X [as
    local]``, the modules it may import as modules (``import pkg.M``, ``from
    pkg import M``), and its string constants."""
    names, modules, strings = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            bound = names.setdefault((node.module or "").rsplit(".", 1)[-1], {})
            for alias in node.names:
                bound[alias.asname or alias.name] = alias.name
                modules.add(alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.add(node.value)
    return names, modules, strings


def _reaches(path, name, reader, read, links) -> bool:
    """Whether ``read``, an entry of ``_reads`` of the file ``reader`` with
    ``_links`` ``links``, reads ``name`` from the module at ``path``."""
    owner, is_attribute, local = read
    module = path.stem
    if reader == path:
        return local == name and owner != name
    names, modules, strings = links
    if is_attribute:
        return local == name and (module in modules or module in strings)
    return names.get(module, {}).get(local) == name


def public_names_without_caller(modules: list, readers: list) -> list:
    """(module stem, name, why) for every name in an ``__all__`` of
    ``modules`` that its module does not bind ("unbound"), or that no file
    of ``readers`` reads, through a read that reaches its module, outside
    the name's own def or class ("unread")."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in modules + readers}
    reads = {path: _reads(trees[path]) for path in readers}
    links = {path: _links(trees[path]) for path in readers}
    found = []
    for path in modules:
        bound = _bound(trees[path])
        for name in _exported(trees[path]):
            if name not in bound:
                found.append((path.stem, name, "unbound"))
            elif not any(
                _reaches(path, name, reader, read, links[reader])
                for reader in readers
                for read in reads[reader]
            ):
                found.append((path.stem, name, "unread"))
    return found


def test_scan_covers_package_and_tests():
    names = {p.name for p in SCANNED}
    assert {"hopf.py", "characteristic.py", "workloads.py", "test_imports.py"} <= names


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


def test_scanner_flags_a_public_name_without_caller(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        '__all__ = ["used", "recursive", "documented", "missing", "LIMIT"]\n'
        "LIMIT = 3\n"
        "def used(n):\n"
        "    return n < LIMIT\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def documented():\n"
        '    """Calls used()."""\n'
    )
    reader = tmp_path / "reader.py"
    reader.write_text(
        "import module\n"
        "print(module.used(2))\n"
        "documented = 'a string, not a read'\n"
    )
    assert public_names_without_caller([module], [module, reader]) == [
        ("module", "recursive", "unread"),
        ("module", "documented", "unread"),
        ("module", "missing", "unbound"),
    ]


def test_scanner_matches_reads_against_their_module(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        '__all__ = ["trace", "kept", "aliased", "reached", "bare"]\n'
        "def trace(m):\n    return m\n"
        "def kept():\n    return 1\n"
        "def aliased():\n    return 2\n"
        "def reached():\n    return 3\n"
        "def bare():\n    return 4\n"
    )
    # trace is read only as a method of an unrelated object and as a local
    # function of the same name; bare only by a file that imports it from
    # another module
    unrelated = tmp_path / "unrelated.py"
    unrelated.write_text(
        "from other import bare\n"
        "def trace(x):\n    return x.trace()\n"
        "print(trace(object()), bare)\n"
    )
    reader = tmp_path / "reader.py"
    reader.write_text(
        "from module import kept\n"
        "from pkg.module import aliased as al\n"
        "print(kept(), al())\n"
    )
    bench = tmp_path / "bench.py"
    bench.write_text('def run(pk):\n    return pk["module"].reached()\n')
    readers = [module, unrelated, reader, bench]
    assert public_names_without_caller([module], readers) == [
        ("module", "trace", "unread"),
        ("module", "bare", "unread"),
    ]


def test_every_public_name_has_a_caller_outside_the_tests():
    found = [
        "%s.%s (%s)" % entry for entry in public_names_without_caller(PACKAGE, PACKAGE + BENCH)
    ]
    assert not found, (
        "public names that only the tests read (move them to tests/oracles.py):\n"
        + "\n".join(found)
    )
