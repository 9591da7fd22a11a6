import random
from fractions import Fraction

import pytest

from peakhc.combinat import (
    Composition,
    PeakSet,
    compositions_of,
    peak_sets_in,
    strict_partitions_of,
)
from peakhc.heisenberg import (
    DoubleElement,
    filtration_component,
    fock_action,
    fock_action_on_word,
    free_basis_over_omega,
    hilbert_series_identity,
)
from peakhc.hopf import (
    FreeElement,
    convert,
    coproduct,
    product,
    term,
    unit,
)
from peakhc.linalg import SpanSolver


def C(*parts):
    return Composition(tuple(parts))


def PS(n, *elems):
    return PeakSet(n, frozenset(elems))


def Qpeak(m):
    return convert(term("NSym", "Q", C(m)), "Xi", "Peak")


def Nword(*parts):
    return term("PeakDual", "N", C(*parts))


def test_fock_examples():
    # Q_1 . N_1 = 2 (the scalar in degree zero)
    got = fock_action(Qpeak(1), Nword(1))
    assert got == unit("PeakDual", "K").scale(2)
    # Q_m kills the vacuum
    for m in (1, 2, 3):
        assert not fock_action(Qpeak(m), unit("PeakDual", "K"))
    # Q_1 . N_{(1,1)} = 2 N_{(1)}
    got = fock_action(Qpeak(1), Nword(1, 1))
    assert got == convert(Nword(1), "K").scale(2)


def test_fock_matches_deconcatenation_rule():
    for n in range(1, 6):
        for a in compositions_of(n):
            for m in range(1, n + 1):
                via_coproduct = fock_action(Qpeak(m), convert(Nword(*a.parts), "K"))
                via_rule = fock_action_on_word(m, a)
                assert via_coproduct == via_rule, (a, m)


def test_module_algebra_law():
    # Q_m . (x y) = sum (Q_m)_1 . x * (Q_m)_2 . y
    rng = random.Random(2)
    keys = [P for n in (1, 2, 3) for P in peak_sets_in(n)]
    for _ in range(12):
        x = term("PeakDual", "K", rng.choice(keys), rng.randint(1, 3))
        y = term("PeakDual", "K", rng.choice(keys), rng.randint(1, 3))
        for m in (1, 2, 3):
            lhs = fock_action(Qpeak(m), product(x, y))
            rhs = FreeElement.zero("PeakDual", "K")
            dq = coproduct(Qpeak(m))
            for (a1, a2), c in dq.coeffs.items():
                left = fock_action(term("Peak", "Xi", a1), x)
                right = fock_action(term("Peak", "Xi", a2), y)
                if left and right:
                    rhs = rhs + product(left, right).scale(c)
                elif left and not right:
                    continue
            assert lhs == rhs, (x, y, m)


def test_double_smash_rule():
    one_k = unit("PeakDual", "K")
    one_xi = unit("Peak", "Xi")
    n1 = convert(Nword(1), "K")
    q1 = Qpeak(1)
    lhs = DoubleElement.from_elements(one_k, q1) * DoubleElement.from_elements(
        n1, one_xi
    )
    expected = DoubleElement.from_elements(one_k, one_xi).scale(
        2
    ) + DoubleElement.from_elements(n1, q1)
    assert lhs == expected
    # subalgebra laws
    x = term("PeakDual", "K", PS(2))
    y = term("PeakDual", "K", PS(1))
    lhs = DoubleElement.from_elements(x, one_xi) * DoubleElement.from_elements(
        y, one_xi
    )
    assert lhs == DoubleElement.from_elements(product(x, y), one_xi)
    a = Qpeak(1)
    b = Qpeak(2)
    lhs = DoubleElement.from_elements(one_k, a) * DoubleElement.from_elements(
        one_k, b
    )
    assert lhs == DoubleElement.from_elements(one_k, product(a, b))


def test_double_associative_random():
    rng = random.Random(8)
    keys_k = [P for n in (0, 1, 2) for P in (peak_sets_in(n) if n else [PS(0)])]
    keys_xi = keys_k
    for _ in range(6):
        def rand_double():
            kx = rng.choice(keys_k)
            ka = rng.choice(keys_xi)
            return DoubleElement({(kx, ka): Fraction(rng.randint(1, 2))})

        u, v, w = rand_double(), rand_double(), rand_double()
        assert (u * v) * w == u * (v * w)


def test_fock_space_is_double_module():
    rng = random.Random(5)
    keys = [P for n in (0, 1, 2) for P in (peak_sets_in(n) if n else [PS(0)])]
    for _ in range(6):
        u = DoubleElement({(rng.choice(keys), rng.choice(keys)): Fraction(1)})
        v = DoubleElement({(rng.choice(keys), rng.choice(keys)): Fraction(1)})
        x = term("PeakDual", "K", rng.choice(keys))
        assert (u * v).apply(x) == u.apply(v.apply(x))


def test_filtration_levels():
    # level 0 in degree 3: the q-ring piece has dimension 2
    _basis, rank = filtration_component(0, 3)
    assert rank == len(strict_partitions_of(3)) == 2
    _basis, rank = filtration_component(0, 1)
    assert rank == 1
    # full space once the level reaches the degree
    for d in (1, 2, 3, 4):
        _basis, rank = filtration_component(d, d)
        assert rank == len(peak_sets_in(d))
    # levels increase
    prev = 0
    for level in range(0, 5):
        _b, rank = filtration_component(level, 4)
        assert rank >= prev
        prev = rank


def test_lowering_property():
    # Q_m . N_alpha lands in the span of words shorter than alpha
    for n in range(1, 6):
        for a in compositions_of(n):
            level = a.length - 1
            for m in range(1, n + 1):
                img = fock_action_on_word(m, a)
                if not img:
                    continue
                deg = n - m
                basis, rank = filtration_component(level, deg)
                solver = SpanSolver()
                for i, b in enumerate(basis):
                    solver.add(
                        i,
                        {k: v for k, v in convert(b, "K").coeffs.items()},
                    )
                vec = {k: v for k, v in img.coeffs.items()}
                assert solver.contains(vec), (a, m)


def test_freeness_certificate():
    cert = free_basis_over_omega(6)
    assert cert.ok
    assert all(rec["ok"] for rec in cert.per_degree)
    # expected generator counts: 1 in degree 0, none until degree 4
    gdegs = sorted(d for d, _g in cert.generators)
    assert gdegs[0] == 0 and all(d >= 4 for d in gdegs[1:])
    rep = hilbert_series_identity(6)
    assert rep["status"] == "verified"


def test_freeness_suite_builds_one_certificate(monkeypatch):
    # the Hilbert report reads the certificate the suite already built
    from peakhc import heisenberg, verification

    calls = []

    def counted(max_degree=8):
        calls.append(max_degree)
        return free_basis_over_omega(max_degree)

    monkeypatch.setattr(heisenberg, "free_basis_over_omega", counted)
    monkeypatch.setattr(verification, "free_basis_over_omega", counted)
    reports = verification.run_suite("freeness", max_degree=6)
    assert calls == [6]
    assert [r["status"] for r in reports] == ["verified", "verified"]
    assert reports[1] == hilbert_series_identity(6)


def test_vacuum_submodule_dimensions():
    # the double-submodule generated by the vacuum has the q-ring dimensions
    for d in range(0, 6):
        _basis, rank = filtration_component(0, d)
        assert rank == (len(strict_partitions_of(d)) if d else 1)


def test_double_element_rejects_float():
    key = (PeakSet(0, frozenset()), PeakSet(0, frozenset()))
    with pytest.raises(TypeError):
        DoubleElement({key: 0.1})
    with pytest.raises(TypeError):
        DoubleElement({key: 1}).scale(0.5)
    assert DoubleElement({key: Fraction(1, 2)}).scale(2) == DoubleElement({key: 1})
