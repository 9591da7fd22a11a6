"""Only ``peakhc.scalars`` calls the ``GaussianRational`` constructor.

Every other module makes a value of Q(i) through ``scalars.gaussian`` or the
scalar operators, which demote a real result to ``int`` or ``Fraction``; a
``GaussianRational`` built anywhere else could hold a real value.  A
stdlib-``ast`` scan, like ``test_imports``: a call counts when it names
``GaussianRational`` directly, through an import alias, or as an attribute.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "peakhc").glob("*.py"))


def constructor_calls(path: Path) -> list:
    """Lines of the file that call the ``GaussianRational`` constructor."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {"GaussianRational"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname for a in node.names if a.name == "GaussianRational" and a.asname)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                lines.append(node.lineno)
    return sorted(lines)


def test_scanner_flags_a_constructor_call(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from peakhc import scalars\n"
        "from peakhc.scalars import GaussianRational, GaussianRational as G\n"
        "x = GaussianRational(0, 1)\n"
        "y = scalars.GaussianRational(1)\n"
        "z = G(0, 2)\n"
        "w = isinstance(x, GaussianRational) and scalars.gaussian(0, 1)\n"
    )
    assert constructor_calls(sample) == [3, 4, 5]


def test_only_scalars_calls_the_gaussian_rational_constructor():
    assert {p.name for p in PACKAGE} >= {"scalars.py", "linalg.py", "expressions.py"}
    found = [
        "%s:%d" % (path.relative_to(ROOT), line)
        for path in PACKAGE
        if path.name != "scalars.py"
        for line in constructor_calls(path)
    ]
    assert not found, "GaussianRational( outside scalars.py:\n" + "\n".join(found)
