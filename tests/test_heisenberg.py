import random
from fractions import Fraction
from functools import lru_cache

import pytest

from peakhc.combinat import (
    Composition,
    PeakSet,
    ResourceLimitError,
    compositions_of,
    peak_sets_in,
    strict_partitions_of,
)
from peakhc import heisenberg
from peakhc.heisenberg import (
    MAX_FREENESS_DEGREE,
    _omega_basis_in_k,
    filtration_component,
    fock_action,
    fock_action_on_word,
    free_basis_over_omega,
    in_filtration,
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

from oracles import DoubleElement, fock_route_mismatch


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


def test_fock_action_on_n_words_matches_k_input():
    # both lift to M along vartheta and deconcatenate there: an N word
    # lifts to one M word, a K_P to its F_P expanded in M
    rng = random.Random(5)
    for n in range(1, 6):
        keys = [P for d in range(n + 1) for P in peak_sets_in(d)]
        a = FreeElement("Peak", "Xi", {P: rng.randint(-2, 2) for P in rng.sample(keys, min(4, len(keys)))})
        for alpha in compositions_of(n):
            x = Nword(*alpha.parts)
            assert fock_action(a, x) == fock_action(a, convert(x, "K")), (a, alpha)
        words = rng.sample(compositions_of(n), min(3, 2 ** (n - 1)))
        x = FreeElement("PeakDual", "N", {w: Fraction(rng.randint(1, 3), 2) for w in words})
        assert fock_action(a, x) == fock_action(a, convert(x, "K"))


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


@lru_cache(maxsize=None)
def reference_solver(level, degree):
    """The filtration piece built from scratch, word by word in degree
    order, into a fresh solver."""
    solver = SpanSolver()
    count = 0
    words = [Composition(())]
    for d in range(1, degree + 1):
        if level >= 1:
            words += [a for a in compositions_of(d) if a.length <= level]
    for alpha in words:
        rest = degree - alpha.n
        if rest < 0:
            continue
        nalpha = convert(term("PeakDual", "N", alpha), "K")
        for _lam, omega_elt in _omega_basis_in_k(rest):
            prod = product(omega_elt, nalpha) if alpha.parts else omega_elt
            if prod:
                solver.add(count, prod.coeffs)
            count += 1
    return solver


def test_filtration_matches_reference_builder():
    for degree in range(0, 8):
        for level in range(0, degree + 1):
            basis, rank = filtration_component(level, degree, max_degree=7)
            ref_solver = reference_solver(level, degree)
            assert rank == ref_solver.rank == len(basis), (level, degree)
            # equal ranks and one span inside the other: equal spans
            assert all(ref_solver.contains(b.coeffs) for b in basis), (level, degree)


def test_in_filtration_agrees_with_reference_on_lowering_images():
    for n in range(1, 8):
        for a in compositions_of(n):
            for m in range(1, n + 1):
                img = fock_action_on_word(m, a)
                for level in (a.length - 2, a.length - 1):
                    if level < 0:
                        continue
                    ref = reference_solver(level, n - m)
                    assert in_filtration(img, level, n - m) == ref.contains(img.coeffs), (
                        a, m, level,
                    )


def test_in_filtration_separates_adjacent_levels():
    # negative control: where a piece grows, its newest element is new
    grew = 0
    for degree in range(1, 8):
        for level in range(0, degree):
            below, rank_below = filtration_component(level, degree, max_degree=7)
            above, rank_above = filtration_component(level + 1, degree, max_degree=7)
            if rank_above == rank_below:
                continue
            grew += 1
            x = above[-1]
            assert not in_filtration(x, level, degree), (level, degree)
            assert in_filtration(x, level + 1, degree), (level, degree)
    assert grew


def test_filtration_guard_leaves_cache_unchanged():
    before = heisenberg._length_filtration.cache_info().currsize
    too_big = MAX_FREENESS_DEGREE + 1
    with pytest.raises(ResourceLimitError):
        in_filtration(unit("PeakDual", "K"), 0, too_big)
    with pytest.raises(ResourceLimitError):
        filtration_component(0, too_big, max_degree=too_big)
    with pytest.raises(ValueError):
        in_filtration(unit("PeakDual", "K"), 0, -1)
    assert heisenberg._length_filtration.cache_info().currsize == before


def test_fock_lowering_report_sees_a_dropped_coefficient(monkeypatch):
    # N_beta for the cut alpha = beta . gamma with |gamma| = m, without the
    # pairing <Q_m, M_gamma>: still in the right filtration piece, but wrong
    from peakhc import verification

    def uncoefficiented(m, alpha):
        parts = alpha.parts
        for cut in range(len(parts)):
            if sum(parts[cut:]) == m:
                return convert(Nword(*parts[:cut]), "K")
        return FreeElement.zero("PeakDual", "K")

    monkeypatch.setattr(verification, "fock_action_on_word", uncoefficiented)
    reports = {r["claim"]: r for r in verification.suite_heisenberg(max_degree=4)}
    assert reports["fock-lowering"]["status"] == "failed"


def test_fock_action_agrees_with_tensor_route():
    # every Xi_P and Q_1 + ... + Q_n against every K_Q (the unit among
    # them), every N_alpha and a Fraction combination of N words, through
    # degree 6
    assert fock_route_mismatch(6) == []


def test_fock_route_sees_one_wrong_scalar(monkeypatch):
    # N_(1,1,1,1) = K_{}, read as 2 K_{} by the deconcatenation route alone:
    # [Q_4, N_(1,1,1,1)] comes out doubled
    from peakhc import hopf, verification

    target = C(1, 1, 1, 1).code

    def doubled(code):
        table = hopf._n_in_k(code)
        return tuple((q, 2 * c) for q, c in table) if code == target else table

    monkeypatch.setattr(heisenberg, "_n_in_k", doubled)
    reports = {r["claim"]: r for r in verification.suite_heisenberg(max_degree=4)}
    assert reports["fock-lowering"]["status"] == "failed"
    assert fock_route_mismatch(4)


def test_heisenberg_suite_takes_three_coproducts(monkeypatch):
    # one coproduct of Q_m per m in {1, 2, 3}, none per sample or per action
    from peakhc import hopf, verification

    calls = []

    def counted(x):
        calls.append(x)
        return coproduct(x)

    monkeypatch.setattr(hopf, "coproduct", counted)
    monkeypatch.setattr(verification, "coproduct", counted)
    reports = verification.suite_heisenberg(max_degree=4)
    assert len(calls) == 3
    assert all(r["status"] == "verified" for r in reports)


def test_filtration_component_reads_to_the_freeness_bound():
    # the default bound is the guard of the cached filtration, not below it
    _basis, rank = filtration_component(0, 9)
    assert rank == len(strict_partitions_of(9))


def test_freeness_certificate():
    cert = free_basis_over_omega(6)
    assert cert.ok
    assert all(rec["ok"] for rec in cert.per_degree)
    # expected generator counts: 1 in degree 0, none until degree 4
    gdegs = sorted(d for d, _g in cert.generators)
    assert gdegs[0] == 0 and all(d >= 4 for d in gdegs[1:])
    ok, witness = cert.hilbert_identity()
    assert ok and witness["mismatches"] == []


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
    assert (True, reports[1]["witness"]) == free_basis_over_omega(6).hilbert_identity()


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
