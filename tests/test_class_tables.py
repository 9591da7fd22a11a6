"""The per-degree class tables against the full scans they replaced.

``hopf`` reads membership in Peak and Sym off cached class tables,
``characteristic`` reads the ribbon window off one cached row per
composition, and the Gessel counts and route (i) of the Cartan image off
one table of descent pairs per n.  Each fast route is cross-checked here
against an oracle: the slow route kept as plain code that rescans every
composition, peak set or permutation.
"""

import itertools
import math

import pytest

from peakhc import characteristic, hopf, verification
from peakhc.combinat import (
    Composition,
    PeakSet,
    compositions_of,
    partitions_of,
    peak_sets_in,
    symmetric_difference_shift,
    word_descents,
    word_inverse,
)
from peakhc.hopf import FreeElement, MembershipError, convert
from peakhc.linalg import SpanSolver, vec_add_term

from oracles import cartan_walk

MAX_DEGREE = 6
MAX_GESSEL_N = 5
MAX_CARTAN_WALK_N = 7


def _compositions(d):
    return compositions_of(d) if d else [Composition(())]


# ---------------------------------------------------------------------------
# oracles: the full scans
# ---------------------------------------------------------------------------


def _scan_regroup(coeffs, key, message):
    """Per degree, group every composition by ``key`` and require constancy
    on each group (absent compositions count as 0)."""
    out = {}
    for d in sorted({a.n for a in coeffs}):
        groups = {}
        for a in _compositions(d):
            groups.setdefault(key(a), []).append(coeffs.get(a, 0))
        for k, vals in groups.items():
            if any(v != vals[0] for v in vals):
                raise MembershipError(message % d)
            if vals[0]:
                out[k] = vals[0]
    return out


def oracle_nsym_to_xi(coeffs_r):
    return _scan_regroup(coeffs_r, Composition.peak_set, "degree %d outside Peak")


def oracle_qsym_to_m(coeffs_m):
    return _scan_regroup(coeffs_m, Composition.to_partition, "degree %d not symmetric")


def oracle_xi_in_r(P):
    return {a: 1 for a in _compositions(P.n) if a.peak_set() == P}


def oracle_h_to_m(coeffs_h):
    """An exact solve per degree against the span of the m_lambda in QSym."""
    out = {}
    for d in sorted({sum(lam) for lam in coeffs_h}):
        solver = SpanSolver()
        for lam in partitions_of(d):
            solver.add(lam, {a: 1 for a in _compositions(d) if a.to_partition() == lam})
        target = {}
        for lam, c in coeffs_h.items():
            if sum(lam) == d:
                for a, v in hopf._sym_in_m("h", lam).items():
                    vec_add_term(target, hopf._comp(a), c * v)
        rep = solver.express(target)
        assert rep is not None
        out.update(rep)
    return {lam: c for lam, c in out.items() if c}


def oracle_coprod_part_h(lam):
    """Delta h_lam = prod over parts of sum_k h_k (x) h_(part-k)."""
    acc = {((), ()): 1}
    for part in lam:
        nxt = {}
        for (b, g), c in acc.items():
            for k in range(part + 1):
                left = b if k == 0 else tuple(sorted(b + (k,), reverse=True))
                right = g if k == part else tuple(sorted(g + (part - k,), reverse=True))
                vec_add_term(nxt, (left, right), c)
        acc = nxt
    return acc


def oracle_theta_rows(n):
    """[Theta(R_alpha), K_P] = 2^(|P|+1) [P inside D .. (D+1)], row by row."""
    rows = []
    for a in compositions_of(n):
        window = symmetric_difference_shift(a.descent_set())
        row = {}
        for P in peak_sets_in(n):
            if P.elements <= window:
                row[P] = 2 ** (len(P.elements) + 1)
        rows.append((a, row))
    return rows


def oracle_descent_pair_count(a, b):
    """Permutations w of S_n with Des w = D(a) and Des w^-1 = D(b)."""
    da, db = a.descent_set(), b.descent_set()
    return sum(
        1
        for w in itertools.permutations(range(1, a.n + 1))
        if word_descents(w) == da and word_descents(word_inverse(w)) == db
    )


# ---------------------------------------------------------------------------
# fast and slow agree
# ---------------------------------------------------------------------------


def _outcome(fn, coeffs):
    try:
        return fn(coeffs)
    except MembershipError:
        return MembershipError


def _assert_same_on_samples(fast, slow, samples):
    """Both routes give the same dict or both raise; both cases occur."""
    outcomes = set()
    for coeffs in samples:
        got = _outcome(fast, coeffs)
        assert got == _outcome(slow, coeffs), coeffs
        outcomes.add(got is MembershipError)
    assert outcomes == {True, False}


def _class_sums(key, d):
    """Sums of whole classes (inside), and each with one member perturbed or
    dropped (outside unless the class is a single composition)."""
    classes = {}
    for a in _compositions(d):
        classes.setdefault(key(a), []).append(a)
    inside = {}
    out = []
    for i, members in enumerate(classes.values()):
        for a in members:
            inside[a] = i + 1
        whole = {a: 3 for a in members}
        out += [whole, {**whole, members[-1]: 5}, {a: 3 for a in members[:-1]}]
    return [inside] + out


def _samples(key):
    """Every basis element through MAX_DEGREE, class sums inside and outside
    the subalgebra, and inhomogeneous sums of both."""
    out = []
    for d in range(MAX_DEGREE + 1):
        out.extend({a: 1} for a in _compositions(d))
        out.extend(_class_sums(key, d))
    mixed = {}
    for d in range(MAX_DEGREE + 1):
        mixed.update(_class_sums(key, d)[0])
    out += [mixed, {**mixed, Composition((1, 2, 3)): 7}]
    return out


def _nsym_to_xi_on_codes(coeffs):
    """hopf._nsym_to_xi, which reads and writes codes, on public keys."""
    xi = hopf._nsym_to_xi({a.code: c for a, c in coeffs.items()})
    return {hopf._peak(P): c for P, c in xi.items()}


def test_nsym_to_xi_matches_full_scan():
    samples = _samples(Composition.peak_set)
    _assert_same_on_samples(_nsym_to_xi_on_codes, oracle_nsym_to_xi, samples)
    _assert_same_on_samples(
        lambda c: convert(FreeElement("NSym", "R", c), "Xi", "Peak").coeffs,
        lambda c: oracle_nsym_to_xi({a: v for a, v in c.items() if v}),
        samples,
    )


def test_qsym_to_sym_conversion_matches_full_scan():
    _assert_same_on_samples(
        lambda c: convert(FreeElement("QSym", "M", c), "m", "Sym").coeffs,
        oracle_qsym_to_m,
        _samples(Composition.to_partition),
    )


def test_xi_in_r_reads_its_class():
    for d in range(MAX_DEGREE + 1):
        for P in peak_sets_in(d):
            assert {hopf._comp(a): c for a, c in hopf._xi_in_r(P.code)} == oracle_xi_in_r(P)


def test_h_to_m_matches_exact_solve():
    every = {}
    for d in range(MAX_DEGREE + 1):
        for i, lam in enumerate(partitions_of(d)):
            assert hopf._sym_as({lam: 1}, "h", "m") == oracle_h_to_m({lam: 1})
            every[lam] = i - 2
    assert hopf._sym_as(every, "h", "m") == oracle_h_to_m(every)


def test_coproduct_of_h_matches_per_part_loop():
    for d in range(MAX_DEGREE + 1):
        for lam in partitions_of(d):
            assert dict(hopf._coprod_part_h(lam)) == oracle_coprod_part_h(lam)


def test_read_classes_rejects_a_full_class_with_unequal_values():
    # the class of peak set {} at n = 3 is {(3), (1,2), (1,1,1)}: all present
    r = {Composition((3,)): 1, Composition((1, 2)): 2, Composition((1, 1, 1)): 1}
    with pytest.raises(MembershipError):
        hopf._nsym_to_xi({a.code: c for a, c in r.items()})
    with pytest.raises(MembershipError):
        _nsym_to_xi_on_codes(r)
    with pytest.raises(MembershipError):
        convert(FreeElement("NSym", "R", r), "Xi", "Peak")
    # the class of the partition (2,1) is {(2,1), (1,2)}: both present
    m = FreeElement("QSym", "M", {Composition((2, 1)): 1, Composition((1, 2)): 2})
    with pytest.raises(MembershipError):
        convert(m, "m", "Sym")


def test_theta_row_matches_window_scan():
    for n in range(1, MAX_DEGREE + 1):
        for a, row in oracle_theta_rows(n):
            assert list(characteristic._theta_row(a).items()) == list(row.items())


def test_decompose_projective_runs_over_the_window():
    for n in range(1, MAX_DEGREE + 1):
        for a, row in oracle_theta_rows(n):
            assert characteristic.decompose_projective(a) == [
                (P, 2 ** ((len(P.elements) + 1) // 2)) for P in row
            ]


def test_gessel_counts_match_per_pair_enumeration():
    for n in range(1, MAX_GESSEL_N + 1):
        table = characteristic._descent_pair_counts(n)
        assert sum(sum(row.values()) for row in table.values()) == math.factorial(n)
        for a in compositions_of(n):
            for b in compositions_of(n):
                count = oracle_descent_pair_count(a, b)
                assert characteristic.gessel_pairing(a, b) == count, (a, b)


def test_gessel_enumerates_each_symmetric_group_once():
    characteristic._descent_pair_counts.cache_clear()
    for a in compositions_of(4):
        for b in compositions_of(4):
            characteristic.gessel_pairing(a, b)
    info = characteristic._descent_pair_counts.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_cartan_route_one_reads_the_descent_pair_table(monkeypatch):
    for n in range(1, MAX_CARTAN_WALK_N + 1):
        for a in compositions_of(n):
            assert characteristic.cartan_image(a)[0] == cartan_walk(a), a
    # the package walks no descent class for it
    def _boom(*_args):
        raise AssertionError("walked a descent class")

    monkeypatch.setattr(characteristic, "descent_class", _boom)
    reports = verification.suite_cartan(MAX_CARTAN_WALK_N)
    assert [r["status"] for r in reports] == ["verified"] * MAX_CARTAN_WALK_N


def test_one_wrong_descent_pair_count_fails_both_reports(monkeypatch):
    table = characteristic._descent_pair_counts

    def off_by_one(n):
        rows = {A: dict(row) for A, row in table(n).items()}
        if n == 3:
            row = rows[frozenset({1})]
            B = next(iter(row))
            row[B] += 1
        return rows

    monkeypatch.setattr(characteristic, "_descent_pair_counts", off_by_one)
    for suite in (verification.suite_gessel, verification.suite_cartan):
        statuses = [r["status"] for r in suite(3)]
        assert statuses == ["verified", "verified", "failed"], suite


def test_gessel_and_cartan_share_one_ribbon_image_per_composition():
    n = 5
    characteristic._ribbon_in_f.cache_clear()
    characteristic._descent_pair_counts.cache_clear()
    verification.suite_gessel(n)
    verification.suite_cartan(n)
    ribbons = characteristic._ribbon_in_f.cache_info()
    assert ribbons.misses == ribbons.currsize == sum(2 ** (k - 1) for k in range(1, n + 1))
    assert characteristic._descent_pair_counts.cache_info().misses == n


def test_class_tables_are_cached_per_degree():
    members, class_of = hopf._classes(4, "peak")
    assert hopf._classes(4, "peak")[0] is members
    assert set(class_of) == {a.code for a in compositions_of(4)}
    assert sorted(members) == [P.code for P in peak_sets_in(4)]
    assert sorted(map(hopf._peak, members)) == peak_sets_in(4)
    empty = Composition(()).code
    assert hopf._classes(0, "part") == ({(): (empty,)}, {empty: ()})
    assert hopf._classes(0, "peak")[0] == {PeakSet(0, frozenset()).code: (empty,)}
