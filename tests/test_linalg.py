import ast
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest

from peakhc.linalg import (
    Echelon,
    SparseMatrix,
    SpanSolver,
    _invert_scalar,
    nullspace,
    solve_unique,
    vec_add_term,
    vec_iadd_scaled,
    vec_scale,
)
from peakhc.scalars import GAUSS_I, GaussianRational, as_gauss, as_scalar, gaussian


def _int_while_integral(x):
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _one_representation(x):
    """The scalar contract: a real value is int while integral, else a
    Fraction; a GaussianRational is never real, and its components follow
    the same rule; nothing else (no float) is a scalar."""
    if type(x) is GaussianRational:
        return bool(x.im) and _int_while_integral(x.re) and _int_while_integral(x.im)
    return _int_while_integral(x)


def _components_op(op, x, y):
    """op on (re, im) pairs of as_gauss(x) and as_gauss(y), by the formulas."""
    a, b = as_gauss(x), as_gauss(y)
    if op == "+":
        return a.re + b.re, a.im + b.im
    if op == "-":
        return a.re - b.re, a.im - b.im
    if op == "*":
        return a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re
    nrm = Fraction(b.re * b.re + b.im * b.im)
    return (a.re * b.re + a.im * b.im) / nrm, (a.im * b.re - a.re * b.im) / nrm


def test_gaussian_rational_field():
    a = GaussianRational(1, 2)
    b = GaussianRational(Fraction(1, 3), -1)
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a / b) * b == a
    assert GAUSS_I * GAUSS_I == -1 and type(GAUSS_I * GAUSS_I) is int
    assert a.conjugate().conjugate() == a
    norm = a * a.conjugate()
    assert norm == 5 and type(norm) is int
    assert a - a == 0 and type(a - a) is int
    assert type(a + a.conjugate()) is int and type(b + b.conjugate()) is Fraction
    # a real value promoted by as_gauss still compares and hashes as itself
    assert GaussianRational(2) == 2 == Fraction(2) == as_gauss(2)
    assert hash(GaussianRational(2)) == hash(2)
    assert str(GaussianRational(1, -1)) == "1-i"
    assert str(GaussianRational(0, Fraction(3, 4))) == "3/4i"
    assert not GaussianRational(0, 0)
    # a real result is int while integral and Fraction after a real
    # division; a non-real one keeps int components while integral
    third = GaussianRational(1) / 3
    assert third == Fraction(1, 3) and type(third) is Fraction
    third_i = GaussianRational(1, 3) / 3
    assert third_i == GaussianRational(Fraction(1, 3), 1)
    assert type(third_i.re) is Fraction and type(third_i.im) is int
    half_of_four = GaussianRational(4) / 2
    assert half_of_four == 2 and type(half_of_four) is int
    quotient = GaussianRational(1, 1) / GaussianRational(1, -1)
    assert quotient == GAUSS_I
    assert type(quotient.re) is int and type(quotient.im) is int
    assert type(2 / GaussianRational(1, 1)) is GaussianRational
    assert type(Fraction(1, 2) / GaussianRational(0, 1)) is GaussianRational
    two = GaussianRational(Fraction(6, 3))
    assert two.re == 2 and type(two.re) is int
    assert gaussian(Fraction(6, 3), 0) == 2 and type(gaussian(Fraction(6, 3), 0)) is int
    assert as_scalar(as_gauss(Fraction(1, 2))) == Fraction(1, 2)
    assert type(as_scalar(as_gauss(Fraction(1, 2)))) is Fraction
    with pytest.raises(TypeError):
        GaussianRational(1.0)
    with pytest.raises(TypeError):
        GaussianRational(0, 0.5)
    with pytest.raises(TypeError):
        a + 0.5
    with pytest.raises(TypeError):
        as_scalar(0.5)
    assert _invert_scalar(GaussianRational(3)) == Fraction(1, 3)
    assert type(_invert_scalar(GaussianRational(3))) is Fraction
    with pytest.raises(ZeroDivisionError):
        a / GaussianRational(0)
    # every operation with a GaussianRational operand, promoted or not,
    # returns its value in the one representation
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
    rng = random.Random(3)
    for _ in range(400):
        x = _random_scalar(rng, gaussian=True)
        y = _random_scalar(rng, gaussian=rng.random() < 0.7)
        for u, v in ((x, y), (y, x)):
            for op, fn in ops.items():
                if op == "/" and not v:
                    continue
                got = fn(u, v)
                assert _one_representation(got), (u, op, v, got)
                assert as_gauss(got) == GaussianRational(*_components_op(op, u, v))
        for got in (-x, +x, x.conjugate()):
            assert _one_representation(got), (x, got)


def test_sparse_matrix_ops():
    one = Fraction(1)
    a = SparseMatrix.from_entries(2, 2, [(0, 0, one), (0, 1, one), (1, 1, one)])
    b = SparseMatrix.from_entries(2, 2, [(0, 0, one), (1, 0, one * 2)])
    ab = a @ b
    assert ab.get(0, 0) == 3 and ab.get(1, 0) == 2 and ab.get(0, 1) is None
    assert (a - a).is_zero()
    assert a.transpose().transpose() == a
    ident = SparseMatrix.identity(2, one)
    assert a @ ident == a
    assert ident.trace() == 2
    v = a.apply({0: one, 1: one})
    assert v == {0: Fraction(2), 1: Fraction(1)}


def test_echelon_and_nullspace():
    rows = [
        {0: Fraction(1), 1: Fraction(2)},
        {0: Fraction(2), 1: Fraction(4)},
        {1: Fraction(1), 2: Fraction(1)},
    ]
    e = Echelon()
    for r in rows:
        e.add(r)
    assert e.rank == 2
    basis = nullspace(rows, [0, 1, 2])
    assert len(basis) == 1
    x = basis[0]
    for r in rows:
        s = sum(v * x.get(c, Fraction(0)) for c, v in r.items())
        assert s == 0


def test_nullspace_gaussian():
    rows = [{0: 1, 1: GAUSS_I}]
    basis = nullspace(rows, [0, 1])
    assert len(basis) == 1
    x = basis[0]
    assert x[0] * 1 + x[1] * GAUSS_I == 0


def test_span_solver_roundtrip():
    rng = random.Random(7)
    vecs = {}
    solver = SpanSolver()
    for t in range(5):
        v = {i: Fraction(rng.randint(-3, 3)) for i in range(6)}
        v = {k: c for k, c in v.items() if c}
        vecs[t] = v
        solver.add(t, v)
    # an arbitrary combination must be expressed exactly
    combo = {}
    coeffs = {t: Fraction(rng.randint(-2, 2)) for t in vecs}
    for t, c in coeffs.items():
        for k, val in vecs[t].items():
            combo[k] = combo.get(k, Fraction(0)) + c * val
    combo = {k: v for k, v in combo.items() if v}
    rep = solver.express(combo)
    assert rep is not None
    rebuilt = {}
    for t, c in rep.items():
        for k, val in vecs[t].items():
            rebuilt[k] = rebuilt.get(k, Fraction(0)) + c * val
    assert {k: v for k, v in rebuilt.items() if v} == combo
    assert solver.express({0: Fraction(1), 17: Fraction(1)}) is None


def test_span_solver_add_or_express_matches_add_and_express():
    rng = random.Random(11)
    one_pass, two_pass = SpanSolver(), SpanSolver()
    for t in range(12):
        v = {i: Fraction(rng.randint(-2, 2)) for i in range(5)}
        v = {k: c for k, c in v.items() if c}
        want = two_pass.express(v)
        if want is None:
            assert two_pass.add(t, v)
        assert one_pass.add_or_express(t, v) == want
        assert one_pass.rows == two_pass.rows and one_pass.reps == two_pass.reps
    assert one_pass.add_or_express(99, {}) == {}


def test_solve_unique():
    # x + y = 3, x - y = 1  ->  x = 2, y = 1
    rows = [({"x": Fraction(1), "y": Fraction(1)}, Fraction(3)),
            ({"x": Fraction(1), "y": Fraction(-1)}, Fraction(1))]
    sol = solve_unique(rows)
    assert sol == {"x": Fraction(2), "y": Fraction(1)}
    with pytest.raises(ValueError):
        solve_unique(rows + [({"x": Fraction(1), "y": Fraction(1)}, Fraction(0))])


def test_vec_iadd_scaled_dict_and_pairs():
    u = {0: Fraction(1), 1: Fraction(2)}
    assert vec_iadd_scaled(u, {1: Fraction(1), 2: Fraction(3)}, Fraction(1, 2)) is u
    assert u == {0: 1, 1: Fraction(5, 2), 2: Fraction(3, 2)}
    pairs = [(2, Fraction(1)), (3, Fraction(1)), (2, Fraction(1))]
    vec_iadd_scaled(u, pairs, 2)
    assert u == {0: 1, 1: Fraction(5, 2), 2: Fraction(11, 2), 3: 2}
    # a generator is consumed once
    vec_iadd_scaled(u, ((k, Fraction(1)) for k in (0, 4)), -1)
    assert u == {1: Fraction(5, 2), 2: Fraction(11, 2), 3: 2, 4: -1}


def test_vec_iadd_scaled_cancellation_and_zero_scale():
    u = {"a": Fraction(2), "b": Fraction(1)}
    vec_iadd_scaled(u, {"a": Fraction(1)}, -2)
    assert u == {"b": 1} and "a" not in u
    before = dict(u)
    assert vec_iadd_scaled(u, {"b": Fraction(5), "c": Fraction(7)}, 0) is u
    assert vec_iadd_scaled(u, {"b": Fraction(5)}, Fraction(0)) == before
    # int times int stays int; a Fraction scale gives a Fraction
    w = {}
    vec_iadd_scaled(w, {0: 3}, 2)
    assert w == {0: 6} and type(w[0]) is int
    vec_iadd_scaled(w, {0: 1}, Fraction(1, 2))
    assert w[0] == Fraction(13, 2) and isinstance(w[0], Fraction)


def test_vec_iadd_scaled_gaussian():
    u = {0: 1}
    vec_iadd_scaled(u, {0: GAUSS_I, 1: 1}, GAUSS_I)
    assert u == {1: GAUSS_I}
    vec_iadd_scaled(u, [(1, 1)], GaussianRational(0, -1))
    assert u == {}


def _generic_iadd_scaled(u, items, c):
    """The operator loop of vec_iadd_scaled, without the Q(i) branch."""
    for k, val in items:
        s = u.get(k)
        s = c * val if s is None else s + c * val
        if s:
            u[k] = s
        else:
            u.pop(k, None)
    return u


def _random_scalar(rng, gaussian):
    def part():
        if rng.random() < 0.3:
            return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
        return rng.randint(-2, 2)

    if not gaussian:
        return part()
    return GaussianRational(part(), part() if rng.random() < 0.6 else 0)


def test_fused_gaussian_axpy_matches_generic_loop():
    # u holds scalars in the one representation; v mixes them with reals
    # promoted by as_gauss; c is mostly non-real, sometimes real or promoted
    rng = random.Random(7)
    for trial in range(400):
        keys = range(12)
        u = {}
        for k in rng.sample(keys, rng.randint(0, 8)):
            val = as_scalar(_random_scalar(rng, gaussian=rng.random() < 0.85))
            if val:
                u[k] = val
        c = _random_scalar(rng, gaussian=True)
        if trial % 5 == 0:
            c = as_scalar(c)
        if not c or trial % 7 == 0:
            c = GaussianRational(Fraction(1, 2), Fraction(-3, 2))
        v = {}
        for k in rng.sample(keys, rng.randint(0, 8)):
            if k in u and rng.random() < 0.4:
                v[k] = -as_gauss(u[k]) / c  # full cancellation
            elif rng.random() < 0.1:
                v[k] = GaussianRational(rng.randint(1, 3)) / c  # c * v[k] integral
            else:
                v[k] = _random_scalar(rng, gaussian=rng.random() < 0.8)
        items = list(v.items())
        want = _generic_iadd_scaled(dict(u), items, c)
        got = vec_iadd_scaled(dict(u), dict(v), c)
        assert got == want and list(got) == list(want), (u, v, c)
        assert vec_iadd_scaled(dict(u), iter(items), c) == want
        for k, val in got.items():
            assert _one_representation(val), (u, v, c, k, val)


def test_invert_scalar():
    rng = random.Random(11)
    for _ in range(300):
        c = _random_scalar(rng, gaussian=rng.random() < 0.7)
        if not c:
            continue
        inv = _invert_scalar(c)
        assert _one_representation(inv), (c, inv)
        assert (type(inv) is GaussianRational) == (type(c) is GaussianRational and bool(c.im))
        assert inv == Fraction(1) / c and c * inv == 1
    assert _invert_scalar(GAUSS_I) == -GAUSS_I
    with pytest.raises(ZeroDivisionError):
        _invert_scalar(GaussianRational(0))
    with pytest.raises(ZeroDivisionError):
        _invert_scalar(0)
    for c in (1, -1):
        assert _invert_scalar(c) == c and type(_invert_scalar(c)) is int
        assert _invert_scalar(as_gauss(c)) == c and type(_invert_scalar(as_gauss(c))) is int
    assert _invert_scalar(-2) == Fraction(-1, 2)
    assert _invert_scalar(Fraction(-1, 3)) == -3 and type(_invert_scalar(Fraction(-1, 3))) is int
    assert _invert_scalar(Fraction(2, 3)) == Fraction(3, 2)


def test_span_solver_rep_integral_after_a_fraction_pivot():
    solver = SpanSolver()
    solver.add("t", {0: Fraction(1, 3), 1: 1})
    rep = solver.express({0: 1, 1: 3})
    assert rep == {"t": 3} and type(rep["t"]) is int


def test_int_pivots_keep_int_rows_and_reps():
    ech = Echelon()
    assert ech.add({0: -1, 1: 3}) == 0
    assert ech.rows == {0: {0: 1, 1: -3}}
    assert all(type(v) is int for v in ech.rows[0].values())
    solver = SpanSolver()
    assert solver.add("t", {0: -1, 1: 3})
    # the rep writes minus the stored row: -(-t) = t
    assert solver.rows == {0: {0: 1, 1: -3}} and solver.reps == {0: {"t": 1}}
    assert all(type(v) is int for v in solver.rows[0].values())
    assert type(solver.reps[0]["t"]) is int
    assert solver.add_or_express("u", {1: -1, 2: 5}) is None
    expr = solver.add_or_express("w", {0: 2, 1: -4, 2: -10})
    assert expr == {"t": -2, "u": -2} and all(type(c) is int for c in expr.values())
    assert all(type(v) is int for row in solver.rows.values() for v in row.values())
    assert all(type(v) is int for rep in solver.reps.values() for v in rep.values())


def test_fraction_rows_store_int_while_integral():
    # the pivot 1/3 inverts to 3: the scaled row is {0: 1, 1: 3}, both int
    ech = Echelon()
    ech.add({0: Fraction(1, 3), 1: 1})
    assert ech.rows == {0: {0: 1, 1: 3}}
    assert all(type(v) is int for v in ech.rows[0].values())
    ech = Echelon()
    ech.add({0: Fraction(2, 3), 1: Fraction(4, 3)})
    assert ech.rows == {0: {0: 1, 1: 2}}
    assert all(type(v) is int for v in ech.rows[0].values())
    # a proper fraction stays a Fraction, a Gaussian product a GaussianRational
    assert vec_scale({0: 1, 1: 3}, Fraction(1, 2)) == {0: Fraction(1, 2), 1: Fraction(3, 2)}
    scaled = vec_scale({0: GaussianRational(1, 1)}, Fraction(1, 2))
    assert type(scaled[0]) is GaussianRational


def _gauss_new_calls(source: str) -> list:
    """Lines of ``X.__new__(...)`` calls that name GaussianRational as the
    owner or as an argument."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__new__"):
            continue
        names = [node.func.value] + list(node.args)
        if any(isinstance(n, ast.Name) and n.id == "GaussianRational" for n in names):
            out.append(node.lineno)
    return out


def test_gaussian_rationals_are_built_through_init():
    # every instance goes through __init__, so the constructor count of the
    # benchmark's tracer (scalars.gauss_new) is exact
    assert _gauss_new_calls("x = object.__new__(GaussianRational)\n") == [1]
    assert _gauss_new_calls("x = GaussianRational.__new__(GaussianRational)\n") == [1]
    assert _gauss_new_calls("x = FreeElement.__new__(FreeElement)\n") == []
    src = Path(__file__).resolve().parent.parent / "src" / "peakhc"
    files = sorted(src.glob("*.py"))
    assert files
    for path in files:
        assert _gauss_new_calls(path.read_text()) == [], path


def test_vec_add_term():
    u = {}
    vec_add_term(u, "x", Fraction(1, 3))
    assert u == {"x": Fraction(1, 3)}
    vec_add_term(u, "x", Fraction(2, 3))
    assert u == {"x": 1}
    vec_add_term(u, "x", -1)
    assert u == {}
    vec_add_term(u, "y", 0)
    assert u == {}
    vec_add_term(u, "z", GAUSS_I)
    vec_add_term(u, "z", 1)
    assert u == {"z": GaussianRational(1, 1)}
