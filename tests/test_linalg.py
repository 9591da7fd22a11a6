import random
from fractions import Fraction

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
)
from peakhc.scalars import GAUSS_I, GAUSS_ONE, GaussianRational


def test_gaussian_rational_field():
    a = GaussianRational(1, 2)
    b = GaussianRational(Fraction(1, 3), -1)
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a / b) * b == a
    assert GAUSS_I * GAUSS_I == -1
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).is_rational()
    assert GaussianRational(2) == 2 == Fraction(2)
    assert hash(GaussianRational(2)) == hash(2)
    assert str(GaussianRational(1, -1)) == "1-i"
    assert str(GaussianRational(0, Fraction(3, 4))) == "3/4i"
    assert not GaussianRational(0, 0)
    third = GaussianRational(1) / 3
    assert third == GaussianRational(Fraction(1, 3))
    # components stay int while integral and become Fraction only after a
    # real division; floats never get in
    assert type(third.re) is Fraction and type(third.im) is int
    half_of_four = GaussianRational(4) / 2
    assert half_of_four == 2
    assert type(half_of_four.re) is int and type(half_of_four.im) is int
    quotient = GaussianRational(1, 1) / GaussianRational(1, -1)
    assert quotient == GAUSS_I
    assert type(quotient.re) is int and type(quotient.im) is int
    two = GaussianRational(Fraction(6, 3))
    assert two.re == 2 and type(two.re) is int
    with pytest.raises(TypeError):
        GaussianRational(1.0)
    with pytest.raises(TypeError):
        GaussianRational(0, 0.5)
    assert _invert_scalar(GaussianRational(3)) == Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        a / GaussianRational(0)


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
    rows = [{0: GAUSS_ONE, 1: GAUSS_I}]
    basis = nullspace(rows, [0, 1])
    assert len(basis) == 1
    x = basis[0]
    assert x[0] * GAUSS_ONE + x[1] * GAUSS_I == 0


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
    u = {0: GAUSS_ONE}
    vec_iadd_scaled(u, {0: GAUSS_I, 1: GAUSS_ONE}, GAUSS_I)
    assert u == {1: GAUSS_I}
    vec_iadd_scaled(u, [(1, GAUSS_ONE)], GaussianRational(0, -1))
    assert u == {}


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
    vec_add_term(u, "z", GAUSS_ONE)
    assert u == {"z": GaussianRational(1, 1)}
