import itertools
from math import comb, factorial

import pytest

from peakhc.combinat import (
    _compositions_of,
    Composition,
    PeakSet,
    ResourceLimitError,
    composition_from_descents,
    compositions_of,
    descent_class,
    min_coset_reps,
    partitions_of,
    peak_sets_in,
    peak_sets_within,
    strict_partitions_of,
    symmetric_difference_shift,
    swap_values,
    word_compose,
    word_descents,
    word_inverse,
    word_length,
    word_peaks,
    word_reduced,
)
from peakhc.hopf import term

from oracles import bruhat_leq, coset_factorize, peak_sets_by_subset_walk


def _mask(d) -> int:
    # bit i-1 for every member i of a descent set
    return sum(1 << (x - 1) for x in d)


def test_compositions_counts_and_order():
    assert [c.parts for c in compositions_of(1)] == [(1,)]
    three = {c.parts for c in compositions_of(3)}
    assert three == {(3,), (2, 1), (1, 2), (1, 1, 1)}
    assert len(compositions_of(6)) == 32
    # canonical order: ascending descent-set bitmask
    masks = [_mask(c.descent_set()) for c in compositions_of(5)]
    assert masks == sorted(masks)


def test_compositions_reject_zero():
    with pytest.raises(ValueError):
        compositions_of(0)


def test_descents_roundtrip():
    assert Composition((1, 2, 1)).descent_set() == frozenset({1, 3})
    assert Composition((4,)).descent_set() == frozenset()
    assert Composition(()).descent_set() == frozenset()
    assert composition_from_descents(4, frozenset({2})).parts == (2, 2)
    assert composition_from_descents(0, frozenset()) == Composition(())
    # any iterable of ints is read as a set
    assert composition_from_descents(5, [3, 1, 3]).parts == (1, 2, 2)
    for n in range(1, 9):
        for c in compositions_of(n):
            assert composition_from_descents(n, c.descent_set()) == c
    # bijection with subsets of [n-1]
    for n in range(1, 9):
        masks = {_mask(c.descent_set()) for c in compositions_of(n)}
        assert masks == set(range(1 << (n - 1)))


def test_counterparts():
    three = Composition((3,))
    assert three.reverse().parts == (3,)
    assert three.complement().parts == (1, 1, 1) and three.conjugate().parts == (1, 1, 1)
    assert Composition((1, 2)).conjugate().parts == (1, 2)
    assert Composition((2, 1)).reverse().parts == (1, 2)
    for n in range(1, 8):
        for a in compositions_of(n):
            rev, comp, conj = a.reverse(), a.complement(), a.conjugate()
            assert rev.descent_set() == frozenset(n - i for i in a.descent_set())
            assert comp.descent_set() == frozenset(range(1, n)) - a.descent_set()
            assert rev.reverse() == a and comp.complement() == a and conj.conjugate() == a
            assert conj == a.reverse().complement() == a.complement().reverse()


def test_peak_and_valley():
    a = Composition((2, 2))
    assert sorted(a.peak_set().elements) == [2] and sorted(a.valley_set()) == [1, 3]
    a = Composition((5,))
    assert a.peak_set().elements == frozenset() and a.valley_set() == frozenset({1})
    # derived from the definitions: D((1,1,1)) = {1,2} puts the single valley at 3
    a = Composition((1, 1, 1))
    assert a.peak_set().elements == frozenset() and a.valley_set() == frozenset({3})
    for n in range(1, 9):
        for a in compositions_of(n):
            assert len(a.valley_set()) == len(a.peak_set().elements) + 1


def test_peak_conjugate_symmetry():
    # i is a peak of alpha iff n+1-i is a peak of the conjugate
    for n in range(2, 8):
        for a in compositions_of(n):
            pa = a.peak_set().elements
            pc = a.conjugate().peak_set().elements
            for i in range(2, n):
                assert (i in pa) == (n + 1 - i in pc)


def test_peak_sets_enumeration():
    assert [sorted(p.elements) for p in peak_sets_in(2)] == [[]]
    five = {tuple(sorted(p.elements)) for p in peak_sets_in(5)}
    assert five == {(), (2,), (3,), (4,), (2, 4)}
    fib = {0: 1, 1: 1}
    for n in range(2, 11):
        fib[n] = fib[n - 1] + fib[n - 2]
    for n in range(1, 11):
        assert len(peak_sets_in(n)) == fib[n - 1]
    assert len(peak_sets_in(8)) == 21


def test_peak_sets_match_the_subset_walk():
    # slow route: every subset of [2, n-1], the sparse ones kept
    for n in range(0, 15):
        fast, slow = peak_sets_in(n), peak_sets_by_subset_walk(n)
        assert [(p.n, p.elements) for p in fast] == [(p.n, p.elements) for p in slow], n


def test_peak_sets_within_a_window_keep_the_bitmask_order():
    got = peak_sets_within(9, {1, 2, 3, 5, 6, 8, 9})
    assert [sorted(p.elements) for p in got] == [
        [], [2], [3], [5], [2, 5], [3, 5], [6], [2, 6], [3, 6],
        [8], [2, 8], [3, 8], [5, 8], [2, 5, 8], [3, 5, 8], [6, 8], [2, 6, 8], [3, 6, 8],
    ]
    assert peak_sets_within(5, ()) == [PeakSet(5, frozenset())]


def test_peak_set_validation():
    with pytest.raises(ValueError):
        PeakSet(5, frozenset({2, 3}))
    with pytest.raises(ValueError):
        PeakSet(4, frozenset({1}))


@pytest.mark.parametrize(
    "bad", [2.0, 2.7, "2", True], ids=["int-valued-float", "float", "str", "bool"]
)
def test_constructors_reject_a_part_that_is_not_int(bad):
    # int() would turn each of these into a valid part or entry
    with pytest.raises(TypeError):
        Composition((bad, 1))
    with pytest.raises(TypeError):
        composition_from_descents(4, frozenset({bad}))
    with pytest.raises(TypeError):
        PeakSet(5, frozenset({bad}))
    with pytest.raises(TypeError):
        term("NSym", "H", (bad, 1))
    with pytest.raises(TypeError):
        term("Sym", "h", (bad,))


def test_descent_classes():
    assert descent_class((2, 1)) == [(1, 3, 2), (2, 3, 1)]
    assert descent_class((3,)) == [(1, 2, 3)]
    assert descent_class((1, 1, 1)) == [(3, 2, 1)]
    for n in range(1, 8):
        assert sum(len(descent_class(a)) for a in compositions_of(n)) == factorial(n)
        for a in compositions_of(n):
            words = descent_class(a)
            assert words == sorted(words)
            assert all(word_descents(w) == a.descent_set() for w in words)
    with pytest.raises(ResourceLimitError):
        descent_class((6, 6))


def test_perm_stats():
    w = (2, 3, 1)
    assert word_descents(w) == frozenset({2})
    assert composition_from_descents(3, word_descents(w)).parts == (2, 1)
    # 2 < 3 > 1 is a peak at position 2, matching P(c(w)) for c(w) = (2,1)
    assert word_peaks(w) == frozenset({2})
    assert word_length(w) == 2
    assert word_inverse(w) == (3, 1, 2)
    assert word_compose(w, w) == (3, 1, 2) and word_compose(w, (2, 1, 3)) == (3, 2, 1)
    identity = (1, 2, 3, 4)
    assert composition_from_descents(4, word_descents(identity)).parts == (4,)
    assert word_length(identity) == 0 and word_reduced(identity) == ()
    longest = (3, 2, 1)
    assert word_descents(longest) == frozenset({1, 2}) and word_length(longest) == 3
    assert word_peaks(()) == word_peaks((1,)) == word_peaks((2, 1)) == frozenset()
    # P(w) = P(c(w)) and sparsity, reduced words multiply back
    for n in range(1, 7):
        identity = tuple(range(1, n + 1))
        for w in itertools.permutations(identity):
            c = composition_from_descents(n, word_descents(w))
            assert PeakSet(n, word_peaks(w)) == c.peak_set()
            reduced = word_reduced(w)
            assert len(reduced) == word_length(w)
            acc = identity
            for i in reduced[::-1]:
                # w = s_{j_1} ... s_{j_s}: fold from the right
                acc = swap_values(i, acc)
            assert acc == w
            assert word_compose(w, word_inverse(w)) == identity
            assert word_compose(word_inverse(w), w) == identity
            assert word_length(word_inverse(w)) == word_length(w)


def test_swap_values_matches_the_value_map():
    # the value map i <-> i+1 applied letter by letter, on every word of n <= 6
    for n in range(2, 7):
        for w in itertools.permutations(range(1, n + 1)):
            for i in range(1, n):
                want = tuple(i + 1 if x == i else i if x == i + 1 else x for x in w)
                assert swap_values(i, w) == want


def test_symmetric_difference_shift():
    assert symmetric_difference_shift(frozenset({1})) == frozenset({1, 2})
    assert symmetric_difference_shift(frozenset()) == frozenset()
    assert symmetric_difference_shift(frozenset({1, 2})) == frozenset({1, 3})


def test_min_coset_reps():
    assert min_coset_reps(1, 1) == [(1, 2), (2, 1)]
    assert len(min_coset_reps(2, 1)) == comb(3, 1)
    reps = min_coset_reps(2, 2)
    assert len(reps) == 6 and reps == sorted(reps)
    for w in reps:
        assert word_descents(w) <= {2}  # no descent inside either block
    for m, n in [(1, 2), (2, 2), (3, 2)]:
        for w in itertools.permutations(range(1, m + n + 1)):
            x, u = coset_factorize(w, m)
            assert x in min_coset_reps(m, n)
            assert word_compose(x, u) == w
            assert word_length(w) == word_length(x) + word_length(u)


def test_bruhat():
    assert bruhat_leq((1, 2, 3), (3, 2, 1))
    assert bruhat_leq((2, 1, 3), (2, 3, 1))
    assert not bruhat_leq((3, 2, 1), (2, 3, 1))
    # Bruhat comparabilities respect length strictly
    for v in itertools.permutations((1, 2, 3, 4)):
        for w in itertools.permutations((1, 2, 3, 4)):
            if v != w and bruhat_leq(v, w):
                assert word_length(v) < word_length(w)


def test_reduced_word_choice_independent():
    # T_w is independent of the reduced word; here we check that the
    # canonical word has the length of w
    for w in itertools.permutations((1, 2, 3, 4)):
        assert len(word_reduced(w)) == word_length(w)


def test_partitions():
    assert partitions_of(0) == [()]
    assert set(partitions_of(4)) == {(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}
    assert set(strict_partitions_of(4)) == {(4,), (3, 1)}
    # Euler: strict partitions and odd partitions are equinumerous
    for n in range(0, 13):
        odd = [p for p in partitions_of(n) if all(x % 2 for x in p)]
        assert len(strict_partitions_of(n)) == len(odd)


# ---------------------------------------------------------------------------
# codes: bit s-1 for every partial sum s of a composition; peak bitmask plus
# the top bit for a peak set
# ---------------------------------------------------------------------------

MAX_CODE_N = 8


def _all_compositions(n):
    return compositions_of(n) if n else [Composition(())]


def test_composition_code_round_trip():
    assert Composition(()).code == 0 and PeakSet(0, frozenset()).code == 0
    for n in range(1, MAX_CODE_N + 1):
        top = 1 << (n - 1)
        codes = []
        for a in compositions_of(n):
            sums = set(itertools.accumulate(a.parts))
            assert a.code == sum(1 << (s - 1) for s in sums)
            assert a.code == _mask(a.descent_set()) | top
            assert a.code.bit_length() == a.n == n and a.code.bit_count() == a.length
            assert _compositions_of(n)[a.code ^ top] == a
            codes.append(a.code)
        assert codes == list(range(top, 2 * top))


def test_code_of_concatenation():
    for n in range(MAX_CODE_N + 1):
        for m in range(MAX_CODE_N + 1 - n):
            for a in _all_compositions(n):
                for b in _all_compositions(m):
                    ab = Composition(a.parts + b.parts)
                    assert ab.code == a.code | b.code << a.n


def test_peak_code_of_a_composition():
    for n in range(MAX_CODE_N + 1):
        for a in _all_compositions(n):
            d = a.code
            top = 1 << (n - 1) if n else 0
            peak = top | d & ~(d << 1) & ~1
            assert peak == a.peak_set().code
        for P in peak_sets_in(n):
            assert P.code == (P.bitmask() | 1 << (n - 1) if n else 0)


def test_code_order_is_canonical_order():
    comps = [a for n in range(MAX_CODE_N + 1) for a in _all_compositions(n)]
    assert sorted(comps, key=lambda a: a.code) == comps
    assert sorted(reversed(comps)) == comps
    peaks = [P for n in range(MAX_CODE_N + 1) for P in peak_sets_in(n)]
    assert sorted(peaks, key=lambda P: P.code) == peaks
    assert sorted(reversed(peaks)) == peaks


def test_equal_codes_iff_equal_objects():
    comps = [a for n in range(MAX_CODE_N + 1) for a in _all_compositions(n)]
    fresh = [Composition(tuple(a.parts)) for a in comps]
    for a, b in zip(comps, fresh):
        assert a == b and hash(a) == hash(b) == a.code and a is not b
    assert len({a.code for a in comps}) == len(comps) == len(set(fresh))
    for a, b in itertools.combinations(comps[:64], 2):
        assert (a == b) == (a.code == b.code) == (a.parts == b.parts)
    peaks = [P for n in range(MAX_CODE_N + 1) for P in peak_sets_in(n)]
    for P in peaks:
        Q = PeakSet(P.n, frozenset(P.elements))
        assert P == Q and hash(P) == hash(Q) == P.code
    assert len({P.code for P in peaks}) == len(peaks)
    for P, Q in itertools.combinations(peaks, 2):
        assert (P == Q) == (P.code == Q.code) == ((P.n, P.elements) == (Q.n, Q.elements))
    # a composition and a peak set never compare equal, even with equal codes
    assert Composition((2,)) != PeakSet(2, frozenset()) and Composition((2,)).code == 2
    assert Composition((1, 2)) != (1, 2)


def test_ambient_size_must_be_an_int():
    for bad in (True, False, 3.0, "3", None):
        with pytest.raises(TypeError, match="size n must be int"):
            PeakSet(bad, frozenset())
        with pytest.raises(TypeError, match="size n must be int"):
            composition_from_descents(bad, frozenset())
    with pytest.raises(TypeError):
        composition_from_descents(3.0, frozenset({1}))
    for make in (PeakSet, composition_from_descents):
        with pytest.raises(ValueError, match="size n must be nonnegative"):
            make(-1, frozenset())
    assert PeakSet(1, frozenset()).code == 1
    assert composition_from_descents(3, frozenset({1})).code == 0b101


def test_descent_set_entries_must_lie_in_the_range():
    for n, bad in ((4, 0), (4, 4), (4, -1), (1, 1), (0, 1)):
        with pytest.raises(ValueError, match="not inside"):
            composition_from_descents(n, frozenset({bad}))


def test_order_is_only_between_objects_of_one_type():
    a, P = Composition((2,)), PeakSet(3, frozenset({2}))
    for left, right in ((a, P), (P, a), (a, 5), (P, 5), (a, (2,)), (5, a)):
        with pytest.raises(TypeError):
            left < right
        with pytest.raises(TypeError):
            left > right
    assert Composition((1, 1)) > a > Composition((1,))
    assert PeakSet(4, frozenset({2})) > P > PeakSet(3, frozenset())
