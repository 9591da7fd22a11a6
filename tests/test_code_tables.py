"""The code-keyed tables of ``hopf`` against Composition-keyed oracles.

Inside ``hopf`` every table is keyed by the int code of a composition or
peak set and computed by bit operations.  The oracles below are the tables
as they were written on ``Composition`` and ``PeakSet`` keys, kept here as
plain code: descent sets, ``itertools`` enumerations and part tuples.  Each
code table, decoded, must equal its oracle through degree 7, and every
conversion among H/E/R, M/F, Xi and K/N must agree with a conversion
assembled from the oracles through degree 6.
"""

import itertools
import random
from fractions import Fraction

import pytest

from peakhc import hopf
from peakhc.combinat import (
    Composition,
    PeakSet,
    composition_from_descents,
    compositions_of,
    partitions_of,
    peak_sets_in,
    symmetric_difference_shift,
)
from peakhc.hopf import (
    FreeElement,
    MembershipError,
    convert,
    coproduct,
    pairing,
    peak_pairing,
    product,
    term,
    theta_transform,
    vartheta_map,
)
from peakhc.linalg import SpanSolver, vec_add_term, vec_iadd_scaled

MAX_TABLE_DEGREE = 7
MAX_CONVERT_DEGREE = 6


def _compositions(d):
    return compositions_of(d) if d else [Composition(())]


def _peak_sets(d):
    return peak_sets_in(d)


def _sign(k):
    return -1 if k % 2 else 1


# ---------------------------------------------------------------------------
# oracles: the Composition-keyed tables
# ---------------------------------------------------------------------------


def oracle_coarsenings(alpha):
    d = sorted(alpha.descent_set())
    return [
        composition_from_descents(alpha.n, keep)
        for r in range(len(d) + 1)
        for keep in itertools.combinations(d, r)
    ]


def oracle_refinements(alpha):
    if not alpha.parts:
        return [Composition(())]
    pieces = [compositions_of(p) for p in alpha.parts]
    return [
        Composition(tuple(p for c in combo for p in c.parts))
        for combo in itertools.product(*pieces)
    ]


def _concat_product(a, b):
    out = {}
    for ka, ca in a.items():
        vec_iadd_scaled(out, ((Composition(ka.parts + kb.parts), cb) for kb, cb in b.items()), ca)
    return out


def oracle_e_in_h(k):
    if k == 0:
        return {Composition(()): 1}
    return {b: _sign(k - b.length) for b in compositions_of(k)}


def oracle_q_in_h(m):
    if m == 0:
        return {Composition(()): 1}
    out = {}
    for k in range(m + 1):
        tail = () if m == k else (m - k,)
        for b, c in oracle_e_in_h(k).items():
            vec_add_term(out, Composition(b.parts + tail), c)
    return out


def oracle_h_expansion(basis, alpha):
    if basis == "H":
        return {alpha: 1}
    if basis == "R":
        return {b: _sign(b.length - alpha.length) for b in oracle_coarsenings(alpha)}
    table = oracle_e_in_h if basis == "E" else oracle_q_in_h
    acc = {Composition(()): 1}
    for p in alpha.parts:
        acc = _concat_product(acc, table(p))
    return acc


def oracle_h_to_r(alpha):
    return {b: 1 for b in oracle_coarsenings(alpha)}


def oracle_h_to_e(alpha):
    return oracle_h_expansion("E", alpha)


def oracle_f_to_m(alpha):
    return {b: 1 for b in oracle_refinements(alpha)}


def oracle_m_to_f(alpha):
    return {b: _sign(b.length - alpha.length) for b in oracle_refinements(alpha)}


def oracle_k_in_f(P):
    if P.n == 0:
        return {Composition(()): 1}
    c = 2 ** (len(P.elements) + 1)
    return {
        a: c for a in compositions_of(P.n)
        if P.elements <= symmetric_difference_shift(a.descent_set())
    }


def oracle_k_in_m(P):
    if P.n == 0:
        return {Composition(()): 1}
    out = {}
    for a in compositions_of(P.n):
        d = a.descent_set()
        if P.elements <= d | {x + 1 for x in d}:
            out[a] = 2 ** a.length
    return out


def oracle_n_in_k(alpha):
    out = {}
    for b, c in oracle_m_to_f(alpha).items():
        vec_add_term(out, b.peak_set(), c)
    return out


def oracle_coprod_h_single(alpha):
    acc = {(Composition(()), Composition(())): 1}
    for part in alpha.parts:
        nxt = {}
        for (b, g), c in acc.items():
            for k in range(part + 1):
                left = b if k == 0 else Composition(b.parts + (k,))
                right = g if k == part else Composition(g.parts + (part - k,))
                vec_add_term(nxt, (left, right), c)
        acc = nxt
    return acc


def oracle_coprod_m_single(alpha):
    parts = alpha.parts
    return {
        (Composition(parts[:i]), Composition(parts[i:])): 1 for i in range(len(parts) + 1)
    }


def oracle_classes(n, kind):
    key = Composition.peak_set if kind == "peak" else Composition.to_partition
    members, class_of = {}, {}
    for a in _compositions(n):
        k = class_of[a] = key(a)
        members.setdefault(k, []).append(a)
    return {k: tuple(v) for k, v in members.items()}, class_of


# ---------------------------------------------------------------------------
# decoding the code tables
# ---------------------------------------------------------------------------


def comp(code):
    return hopf._comp(code)


def peak(code):
    return hopf._peak(code)


def decoded(pairs, key=comp):
    """A code table's (code, coefficient) pairs as a dict on decoded keys;
    every key appears once."""
    out = {key(k): c for k, c in pairs}
    assert len(out) == len(tuple(pairs))
    return out


def decoded_pairs(pairs):
    out = {(comp(a), comp(b)): c for (a, b), c in pairs}
    assert len(out) == len(tuple(pairs))
    return out


# ---------------------------------------------------------------------------
# the code tables against their oracles
# ---------------------------------------------------------------------------


def test_decoding_gives_canonical_instances():
    for n in range(MAX_TABLE_DEGREE + 2):
        for a in _compositions(n):
            assert comp(a.code) == a and comp(a.code) is comp(a.code)
            assert comp(a.code) is hopf._comp(Composition(a.parts).code)
        for P in _peak_sets(n):
            assert peak(P.code) == P and peak(P.code) is peak(P.code)


def test_composition_tables_match_oracles():
    for n in range(MAX_TABLE_DEGREE + 1):
        for a in _compositions(n):
            c = a.code
            assert sorted(map(comp, hopf._coarsenings(c))) == sorted(oracle_coarsenings(a))
            assert sorted(map(comp, hopf._refinements(c))) == sorted(oracle_refinements(a))
            for basis in "HREQ":
                want = oracle_h_expansion(basis, a)
                assert decoded(hopf._h_expansion(basis, c)) == want, (basis, a)
            assert decoded(hopf._h_to_r(c)) == oracle_h_to_r(a)
            assert decoded(hopf._h_to_e(c)) == oracle_h_to_e(a)
            assert decoded(hopf._f_to_m(c)) == oracle_f_to_m(a)
            assert decoded(hopf._m_to_f(c)) == oracle_m_to_f(a)
            assert decoded(hopf._n_in_k(c), peak) == oracle_n_in_k(a)
            assert decoded_pairs(hopf._coprod_h_single(c)) == oracle_coprod_h_single(a)
            assert decoded_pairs(hopf._coprod_m_single(c)) == oracle_coprod_m_single(a)


def test_degree_tables_match_oracles():
    for k in range(MAX_TABLE_DEGREE + 1):
        assert decoded(hopf._e_in_h(k)) == oracle_e_in_h(k)
        assert decoded(hopf._q_in_h(k)) == oracle_q_in_h(k)
        # the table is listed in canonical order
        assert [a for a, _c in hopf._q_in_h(k)] == sorted(a for a, _c in hopf._q_in_h(k))


def test_peak_tables_match_oracles():
    for n in range(MAX_TABLE_DEGREE + 1):
        for P in _peak_sets(n):
            assert decoded(hopf._k_in_f(P.code)) == oracle_k_in_f(P)
            assert decoded(hopf._k_in_m(P.code)) == oracle_k_in_m(P)
            members = oracle_classes(n, "peak")[0]
            assert tuple(map(comp, dict(hopf._xi_in_r(P.code)))) == members[P]


def test_peak_tables_match_their_slow_routes():
    # _xi_in_h(P): the oracle R -> H expansion of Xi_P's class;
    # _theta_in_xi(alpha): the oracle Q expansion, read H -> R, then by peak class
    for n in range(MAX_TABLE_DEGREE + 1):
        members = oracle_classes(n, "peak")[0]
        for P in _peak_sets(n):
            want = oracle_to_h("R", {a: 1 for a in members[P]})
            assert decoded(hopf._xi_in_h(P.code)) == {a: c for a, c in want.items() if c}
        for a in _compositions(n):
            r = oracle_from_h("R", oracle_h_expansion("Q", a))
            want = _regroup(r, n, "peak", "Theta(H_alpha) outside Peak")
            assert decoded(hopf._theta_in_xi(a.code), peak) == want, a


def test_class_tables_match_oracles():
    for n in range(MAX_TABLE_DEGREE + 1):
        for kind, key in (("peak", peak), ("part", lambda lam: lam)):
            members, class_of = hopf._classes(n, kind)
            want_members, want_class_of = oracle_classes(n, kind)
            assert {key(k): tuple(map(comp, v)) for k, v in members.items()} == want_members
            assert {comp(a): key(k) for a, k in class_of.items()} == want_class_of
            assert list(map(key, members)) == list(want_members)


def test_peak_code_is_a_bit_operation():
    for n in range(MAX_TABLE_DEGREE + 2):
        for a in _compositions(n):
            assert hopf._peak_code(a.code) == a.peak_set().code
            assert hopf._parts(a.code) == a.parts
            assert hopf._partition(a.code) == a.to_partition()


# ---------------------------------------------------------------------------
# conversions assembled from the oracles
# ---------------------------------------------------------------------------


def _expand(coeffs, table):
    out = {}
    for k, c in coeffs.items():
        vec_iadd_scaled(out, table(k), c)
    return out


def _regroup(coeffs, d, kind, message):
    members, class_of = oracle_classes(d, kind)
    out = {}
    for k, group in members.items():
        vals = {coeffs.get(a, 0) for a in group}
        if len(vals) > 1:
            raise MembershipError(message)
        out[k] = vals.pop()
    return {k: c for k, c in out.items() if c}


def _f_to_k(coeffs, d):
    solver = SpanSolver()
    for P in _peak_sets(d):
        solver.add(P, {a.code: c for a, c in oracle_k_in_f(P).items()})
    rep = solver.express({a.code: c for a, c in coeffs.items()})
    if rep is None:
        raise MembershipError("outside the peak quasisymmetric span")
    return {P: c for P, c in rep.items() if c}


def oracle_to_h(basis, coeffs):
    return _expand(coeffs, lambda a: oracle_h_expansion(basis, a))


def oracle_from_h(basis, coeffs):
    if basis == "H":
        return dict(coeffs)
    return _expand(coeffs, oracle_h_to_r if basis == "R" else oracle_h_to_e)


def oracle_convert(source, target, coeffs, d):
    """The conversion between (algebra, basis) pairs, on one degree d, from
    the oracle tables; MembershipError when outside the subalgebra."""
    if source == target:
        return dict(coeffs)
    salg, sbasis = source
    talg, tbasis = target
    if salg == "Peak":
        r = _expand(coeffs, lambda P: {a: 1 for a in oracle_classes(d, "peak")[0][P]})
        return oracle_convert(("NSym", "R"), target, r, d)
    if salg == "NSym" and talg == "Peak":
        r = oracle_from_h("R", oracle_to_h(sbasis, coeffs))
        return _regroup(r, d, "peak", "outside Peak")
    if salg == "NSym":
        return oracle_from_h(tbasis, oracle_to_h(sbasis, coeffs))
    if (salg, sbasis) == ("PeakDual", "N"):
        return oracle_convert(("PeakDual", "K"), target, _expand(coeffs, oracle_n_in_k), d)
    if (salg, sbasis) == ("PeakDual", "K"):
        f = _expand(coeffs, oracle_k_in_f)
        return oracle_convert(("QSym", "F"), target, f, d)
    if talg == "PeakDual":
        f = coeffs if sbasis == "F" else _expand(coeffs, oracle_m_to_f)
        return _f_to_k(f, d)
    return _expand(coeffs, oracle_f_to_m if sbasis == "F" else oracle_m_to_f)


NSYM_SIDE = [("NSym", "H"), ("NSym", "E"), ("NSym", "R"), ("Peak", "Xi")]
QSYM_SIDE = [("QSym", "M"), ("QSym", "F"), ("PeakDual", "K"), ("PeakDual", "N")]


def _basis_indices(pair, d):
    return _peak_sets(d) if pair in (("Peak", "Xi"), ("PeakDual", "K")) else _compositions(d)


def _outcome(thunk):
    try:
        return thunk()
    except MembershipError:
        return MembershipError


@pytest.mark.parametrize("side", [NSYM_SIDE, QSYM_SIDE], ids=["nsym", "qsym"])
def test_every_conversion_matches_oracles_through_degree_6(side):
    memberships = 0
    for d in range(MAX_CONVERT_DEGREE + 1):
        for source in side:
            indices = _basis_indices(source, d)
            samples = [{i: 1} for i in indices]
            mixed = {i: k % 3 - 1 + Fraction(1, 2) * (k % 2) for k, i in enumerate(indices)}
            samples.append(mixed)
            for coeffs in samples:
                x = hopf.FreeElement(*source, coeffs)
                for target in side:
                    if target == ("PeakDual", "N"):
                        continue  # an input-only tag
                    got = _outcome(lambda: convert(x, target[1], target[0]).coeffs)
                    want = _outcome(lambda: oracle_convert(source, target, x.coeffs, d))
                    if want is not MembershipError:
                        want = {k: c for k, c in want.items() if c}
                    assert got == want, (source, target, coeffs)
                    memberships += got is MembershipError
    assert memberships > 0


def test_oracle_tables_have_int_entries():
    # the oracles obey the same contract as the tables they check
    for n in range(MAX_TABLE_DEGREE + 1):
        for a in _compositions(n):
            for basis in "HREQ":
                assert all(type(c) is int for c in oracle_h_expansion(basis, a).values())
        for P in _peak_sets(n):
            assert all(type(c) is int for c in oracle_k_in_f(P).values())
            assert all(type(c) is int for c in oracle_k_in_m(P).values())


def test_tables_are_cached_per_code():
    hopf._h_to_r.cache_clear()
    for _ in range(3):
        for a in compositions_of(5):
            hopf._h_to_r(a.code)
    info = hopf._h_to_r.cache_info()
    assert (info.misses, info.currsize) == (16, 16)
    hopf._peak_sets_by_code.cache_clear()
    for n in range(6):
        for P in peak_sets_in(n):
            assert hopf._peak(P.code) is hopf._peak(P.code)
    assert hopf._peak_sets_by_code.cache_info().currsize == 6


def test_term_round_trip_keeps_the_public_key_types():
    x = term("NSym", "R", (2, 1, 3)) + term("NSym", "R", (6,))
    y = convert(convert(x, "H"), "R")
    assert y == x and all(type(k) is Composition for k in y.coeffs)
    z = convert(term("PeakDual", "K", PeakSet(5, frozenset({2, 4}))), "F", "QSym")
    back = convert(z, "K", "PeakDual")
    assert all(type(k) is PeakSet for k in back.coeffs)
    assert back == term("PeakDual", "K", PeakSet(5, frozenset({2, 4})))


def test_theta_r_table_is_the_h_route():
    for n in range(MAX_TABLE_DEGREE + 1):
        for a in _compositions(n):
            via_h = {}
            for b, c in hopf._h_expansion("R", a.code):
                vec_iadd_scaled(via_h, hopf._theta_in_xi(b), c)
            assert dict(hopf._theta_r_in_xi(a.code)) == via_h, a
            r = term("NSym", "R", a)
            assert theta_transform(r) == theta_transform(convert(r, "H")), a


# ---------------------------------------------------------------------------
# elements keep code keys; readers see canonical instances, in the old order
# ---------------------------------------------------------------------------

SEED_COEFFS = (-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3))


def _seed_indices(kind, basis, d):
    if kind == "comp":
        return compositions_of(d)
    if kind == "peak":
        return peak_sets_in(d)
    return [lam for lam in partitions_of(d) if basis != "podd" or all(p % 2 for p in lam)]


def seeded_elements(seed=22):
    """(x, y) per basis: x has up to three seeded terms of degree <= 3 (4
    for peak sets), y is the first basis element of the lowest degree."""
    rng = random.Random(seed)
    out = []
    for algebra, bases in hopf.BASES.items():
        for basis in bases:
            kind = hopf._BASES[(algebra, basis)][0]
            coeffs = {}
            for _ in range(3):
                d = rng.randint(1, 3) + (kind == "peak")
                coeffs[rng.choice(_seed_indices(kind, basis, d))] = rng.choice(SEED_COEFFS)
            first = _seed_indices(kind, basis, 1 + (kind == "peak"))[0]
            out.append((FreeElement(algebra, basis, coeffs), term(algebra, basis, first)))
    return out


# str(x), str(coproduct(x)), str(product(x, y)) and repr(x.terms()) of
# seeded_elements(), as printed when elements were keyed by Composition
# and PeakSet instances
PINNED = [
    (
        '-H[1] + 3*H[1,2] - 2*H[2,1]',
        (
            '-1*H[](x)H[1] + 3*H[](x)H[1,2] + -2*H[](x)H[2,1] + -1*H[1](x)H[] + '
            '1*H[1](x)H[2] + 1*H[1](x)H[1,1] + 1*H[2](x)H[1] + 1*H[1,1](x)H[1] + '
            '3*H[1,2](x)H[] + -2*H[2,1](x)H[]'
        ),
        '-H[1,1] + 3*H[1,2,1] - 2*H[2,1,1]',
        '[(Composition(1), -1), (Composition(1, 2), 3), (Composition(2, 1), -2)]',
    ),
    (
        'E[1] - 2/3*E[1,1,1]',
        (
            '1*E[](x)E[1] + -2/3*E[](x)E[1,1,1] + 1*E[1](x)E[] + -2*E[1](x)E[1,1] + '
            '-2*E[1,1](x)E[1] + -2/3*E[1,1,1](x)E[]'
        ),
        'E[1,1] - 2/3*E[1,1,1,1]',
        '[(Composition(1), 1), (Composition(1, 1, 1), Fraction(-2, 3))]',
    ),
    (
        '-R[2] - 2*R[3] + R[2,1]',
        (
            '-1*R[](x)R[2] + -2*R[](x)R[3] + 1*R[](x)R[2,1] + -1*R[1](x)R[1] + '
            '-1*R[1](x)R[2] + 1*R[1](x)R[1,1] + -1*R[2](x)R[] + -1*R[2](x)R[1] + '
            '1*R[1,1](x)R[1] + -2*R[3](x)R[] + 1*R[2,1](x)R[]'
        ),
        '-R[3] - R[2,1] - 2*R[4] + R[2,2] - 2*R[3,1] + R[2,1,1]',
        '[(Composition(2), -1), (Composition(3), -2), (Composition(2, 1), 1)]',
    ),
    (
        '1/2*Q[1] - Q[1,1] + Q[2,1]',
        (
            '1*H[](x)H[1] + -4*H[](x)H[1,1] + 4*H[](x)H[1,1,1] + 1*H[1](x)H[] + '
            '-8*H[1](x)H[1] + 12*H[1](x)H[1,1] + -4*H[1,1](x)H[] + 12*H[1,1](x)H[1] + '
            '4*H[1,1,1](x)H[]'
        ),
        '2*H[1,1] - 8*H[1,1,1] + 8*H[1,1,1,1]',
        '[(Composition(1), Fraction(1, 2)), (Composition(1, 1), -1), (Composition(2, 1), 1)]',
    ),
    (
        'M[2] - 2*M[1,1]',
        '1*M[](x)M[2] + -2*M[](x)M[1,1] + -2*M[1](x)M[1] + 1*M[2](x)M[] + -2*M[1,1](x)M[]',
        'M[3] - M[1,2] - M[2,1] - 6*M[1,1,1]',
        '[(Composition(2), 1), (Composition(1, 1), -2)]',
    ),
    (
        '1/2*F[1,1] + 3*F[1,1,1]',
        (
            '1/2*F[](x)F[1,1] + 3*F[](x)F[1,1,1] + 1/2*F[1](x)F[1] + 3*F[1](x)F[1,1] + '
            '1/2*F[1,1](x)F[] + 3*F[1,1](x)F[1] + 3*F[1,1,1](x)F[]'
        ),
        (
            '1/2*F[1,2] + 1/2*F[2,1] + 1/2*F[1,1,1] + 3*F[1,1,2] + 3*F[1,2,1] + 3*F[2,1,1] + '
            '3*F[1,1,1,1]'
        ),
        '[(Composition(1, 1), Fraction(1, 2)), (Composition(1, 1, 1), 3)]',
    ),
    (
        '-2*Xi{2}@4',
        (
            '-2*Xi{}@0(x)Xi{2}@4 + -2*Xi{}@1(x)Xi{}@3 + -4*Xi{}@1(x)Xi{2}@3 + '
            '-4*Xi{}@2(x)Xi{}@2 + -2*Xi{}@3(x)Xi{}@1 + -4*Xi{2}@3(x)Xi{}@1 + '
            '-2*Xi{2}@4(x)Xi{}@0'
        ),
        '-2*Xi{2}@6 - 2*Xi{2,4}@6 - 2*Xi{2,5}@6',
        '[(PeakSet(4, [2]), -2)]',
    ),
    (
        '1/2*K{2}@4 + 1/2*K{3}@4',
        (
            '1/2*K{}@0(x)K{2}@4 + 1/2*K{}@0(x)K{3}@4 + 1/2*K{}@1(x)K{}@3 + '
            '1/2*K{}@1(x)K{2}@3 + 1*K{}@2(x)K{}@2 + 1/2*K{}@3(x)K{}@1 + 1/2*K{2}@3(x)K{}@1 + '
            '1/2*K{2}@4(x)K{}@0 + 1/2*K{3}@4(x)K{}@0'
        ),
        'K{2}@6 + 3*K{3}@6 + 3*K{4}@6 + 5/2*K{2,4}@6 + K{5}@6 + 2*K{2,5}@6 + 5/2*K{3,5}@6',
        '[(PeakSet(4, [2]), Fraction(1, 2)), (PeakSet(4, [3]), Fraction(1, 2))]',
    ),
    (
        '-2*N[1] - 2*N[2] - 2*N[1,1]',
        (
            '-2*N[](x)N[1] + -2*N[](x)N[2] + -2*N[](x)N[1,1] + -2*N[1](x)N[] + '
            '-2*N[1](x)N[1] + -2*N[2](x)N[] + -2*N[1,1](x)N[]'
        ),
        '-4*K{}@2 - 4*K{}@3 - 2*K{2}@3',
        '[(Composition(1), -2), (Composition(2), -2), (Composition(1, 1), -2)]',
    ),
    (
        '-h[1] - h[2,1]',
        (
            '-1*h[](x)h[1] + -1*h[](x)h[2,1] + -1*h[1](x)h[] + -1*h[1](x)h[1,1] + '
            '-1*h[1](x)h[2] + -1*h[1,1](x)h[1] + -1*h[2](x)h[1] + -1*h[2,1](x)h[]'
        ),
        '-h[1,1] - h[2,1,1]',
        '[((1,), -1), ((2, 1), -1)]',
    ),
    (
        'm[1] - m[2,1]',
        (
            '1*h[](x)h[1] + 2*h[](x)h[1,1,1] + -5*h[](x)h[2,1] + 3*h[](x)h[3] + 1*h[1](x)h[] + '
            '1*h[1](x)h[1,1] + -2*h[1](x)h[2] + 1*h[1,1](x)h[1] + -2*h[2](x)h[1] + '
            '2*h[1,1,1](x)h[] + -5*h[2,1](x)h[] + 3*h[3](x)h[]'
        ),
        '2*m[1,1] + m[2] - 2*m[2,1,1] - 2*m[2,2] - m[3,1]',
        '[((1,), 1), ((2, 1), -1)]',
    ),
    (
        '-2*p[1] - 2/3*p[3]',
        '-2*p[](x)p[1] + -2/3*p[](x)p[3] + -2*p[1](x)p[] + -2/3*p[3](x)p[]',
        '-2*p[1,1] - 2/3*p[3,1]',
        '[((1,), -2), ((3,), Fraction(-2, 3))]',
    ),
    (
        '-2*r[1]',
        '-2*h[](x)h[1] + -2*h[1](x)h[]',
        '-2*h[1,1]',
        '[(Composition(1), -2)]',
    ),
    (
        'q[1,1,1] + 3*q[2,1] + 1/2*q[3]',
        (
            '62/3*podd[](x)podd[1,1,1] + 1/3*podd[](x)podd[3] + 62*podd[1](x)podd[1,1] + '
            '62*podd[1,1](x)podd[1] + 62/3*podd[1,1,1](x)podd[] + 1/3*podd[3](x)podd[]'
        ),
        '124/3*podd[1,1,1,1] + 2/3*podd[3,1]',
        '[((1, 1, 1), 1), ((2, 1), 3), ((3,), Fraction(1, 2))]',
    ),
    (
        '-2*podd[1] - 2*podd[1,1,1]',
        (
            '-2*podd[](x)podd[1] + -2*podd[](x)podd[1,1,1] + -2*podd[1](x)podd[] + '
            '-6*podd[1](x)podd[1,1] + -6*podd[1,1](x)podd[1] + -2*podd[1,1,1](x)podd[]'
        ),
        '-2*podd[1,1] - 2*podd[1,1,1,1]',
        '[((1,), -2), ((1, 1, 1), -2)]',
    ),
]


def _is_canonical(k):
    if isinstance(k, Composition):
        if not k.n:
            return k is hopf._comp(0)
        return any(k is a for a in compositions_of(k.n))
    if isinstance(k, PeakSet):
        return any(k is P for P in peak_sets_in(k.n))
    return type(k) is tuple


def _canonical_order(k):
    return (sum(k), k) if type(k) is tuple else (k.n, k.code)


def test_readers_see_canonical_keys_in_the_old_order():
    elements = seeded_elements()
    assert len(elements) == len(PINNED) == sum(map(len, hopf.BASES.values()))
    for (x, y), pinned in zip(elements, PINNED):
        t, prod = coproduct(x), product(x, y)
        assert (str(x), str(t), str(prod), repr(x.terms())) == pinned
        for z in (x, prod):
            assert all(_is_canonical(k) for k in z.coeffs), z
            assert FreeElement(z.algebra, z.basis, z.coeffs) == z
            assert [k for k, _ in z.terms()] == sorted(z.coeffs, key=_canonical_order)
        assert all(_is_canonical(a) and _is_canonical(b) for a, b in t.coeffs), t
        assert t.coeffs is t.coeffs  # decoded once, on the first read
        with pytest.raises(TypeError):
            x.coeffs[next(iter(x.coeffs))] = 0


class _Decoded(Exception):
    pass


def _refuse(code):
    raise _Decoded(code)


def test_duality_chain_decodes_no_key(monkeypatch):
    """The chain of the hopf benchmark, <Theta(R_a), F_b> = <R_a,
    vartheta(F_b)> = [Theta(R_a), vartheta(F_b)], passes code-keyed dicts
    from call to call: with the decoders made to raise it still runs."""
    monkeypatch.setattr(hopf, "_comp", _refuse)
    monkeypatch.setattr(hopf, "_peak", _refuse)
    nonzero = 0
    for n in range(1, 6):
        for a in compositions_of(n):
            for b in compositions_of(n):
                ta = theta_transform(term("NSym", "R", a))
                fb = term("QSym", "F", b)
                lhs = pairing(convert(ta, "H", "NSym"), fb)
                mid = pairing(term("NSym", "R", a), convert(vartheta_map(fb), "F", "QSym"))
                assert lhs == mid == peak_pairing(ta, vartheta_map(fb)), (a, b)
                nonzero += lhs != 0
    assert nonzero > 0
    # the patched decoders are the ones a reader of the keys reaches
    with pytest.raises(_Decoded):
        ta.coeffs
