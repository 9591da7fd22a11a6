import itertools
import math
import random
from fractions import Fraction

import pytest

from peakhc.combinat import (
    ResourceLimitError,
    compositions_of,
    word_length,
    word_reduced,
)
import peakhc.hecke_clifford as hc
from peakhc.hecke_clifford import (
    MAX_TABLE_SWEEP_N,
    MORPHISM_TAGS,
    AlgebraElement,
    RankMismatchError,
    _clifford_sign,
    _demazure_sign,
    _left_mul,
    _relation_text,
    _t_times_c,
    act_terms,
    algebra_basis,
    apply_morphism,
    associativity_failure,
    basis_element,
    defining_relations,
    failing_relation,
    frobenius_failure,
    frobenius_gram,
    gen_T,
    gen_c,
    generators,
    morphism_matrix,
    multiply,
    normal_word,
    unit,
)
from peakhc.linalg import Echelon, vec_add_term
from peakhc.scalars import GAUSS_I, GaussianRational, as_gauss
from peakhc.supermodules import generator_keys, induce_clifford, projective_hecke, simple_hecke
from peakhc.verification import suite_algebra

import oracles
from oracles import (
    bruhat_leq,
    failing_relation_by_products,
    frobenius_by_gram,
    frobenius_form,
    leading_term_check,
    regular_associativity_failure,
    regular_frobenius_gram,
    regular_generator_matrix,
    table_walk_mismatch,
    tau_sweep_failure,
    trace,
)


def T(i, n):
    return gen_T(i, n)


def c(j, n):
    return gen_c(j, n)


def test_basis_size():
    for n in range(0, 5):
        assert len(algebra_basis(n)) == 2 ** n * math.factorial(n)


def test_defining_relation_examples():
    n = 2
    assert multiply(T(1, n), c(1, n)) == multiply(c(2, n), T(1, n))
    assert multiply(T(1, n), T(1, n)) == -T(1, n)
    # T_1 c_{1,2} = -c_{1,2}(T_1 + 1) + 1
    lhs = multiply(T(1, n), basis_element({1, 2}, (1, 2), n))
    c12 = basis_element({1, 2}, (1, 2), n)
    rhs = multiply(-c12, T(1, n) + unit(n)) + unit(n)
    assert lhs == rhs


def _all_relations_hold(n):
    one = unit(n)
    for i in range(1, n):
        Ti = T(i, n)
        assert multiply(Ti, Ti) == -Ti
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) > 1:
                assert multiply(T(i, n), T(j, n)) == multiply(T(j, n), T(i, n))
    for i in range(1, n - 1):
        lhs = multiply(multiply(T(i, n), T(i + 1, n)), T(i, n))
        rhs = multiply(multiply(T(i + 1, n), T(i, n)), T(i + 1, n))
        assert lhs == rhs
    for i in range(1, n + 1):
        assert multiply(c(i, n), c(i, n)) == -one
        for j in range(1, n + 1):
            if i != j:
                assert multiply(c(i, n), c(j, n)) == -multiply(c(j, n), c(i, n))
    for i in range(1, n):
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                assert multiply(T(i, n), c(j, n)) == multiply(c(j, n), T(i, n))
        assert multiply(T(i, n), c(i, n)) == multiply(c(i + 1, n), T(i, n))
        assert multiply(T(i, n) + one, c(i + 1, n)) == multiply(
            c(i, n), T(i, n) + one
        )


def test_all_defining_relations():
    for n in range(1, 5):
        _all_relations_hold(n)
        # the length rule: T_i T_w = T_{s_i w} when l(s_i w) > l(w), else -T_w
        for w in itertools.permutations(range(1, n + 1)):
            tw = basis_element(set(), w, n)
            for i in range(1, n):
                siw = tuple(i + 1 if v == i else i if v == i + 1 else v for v in w)
                up = word_length(siw) > word_length(w)
                expected = basis_element(set(), siw, n) if up else -tw
                assert multiply(T(i, n), tw) == expected, (i, w)


def test_relation_routes_agree_on_the_algebra():
    # the walk under right multiplication from the unit and the products of
    # ``multiply`` agree on the generators, on the images of the four
    # (anti-)involutions defined on all of the algebra, and, as negative
    # controls, on images with c_1 doubled or T_1 negated, n <= 4
    for n in range(1, 5):
        cases = [generators(n)]
        cases += [hc._morphism_generator_images(tag, n) for tag in MORPHISM_TAGS[:4]]
        for key, change in ((("c", 1), 2), (("T", 1), -1)):
            if key in generators(n):
                cases.append({**generators(n), key: generators(n)[key].scale(change)})
        answers = [hc._failing_product_relation(images, n) for images in cases]
        assert answers == [failing_relation_by_products(images, multiply, unit(n))
                           for images in cases]
        assert answers[:3] == [None] * 3
        assert answers[-1] is not None


def test_failing_relation_walks_words_on_vectors():
    # left multiplication applies each word right to left, so on the unit
    # the relations hold; applied left to right it is the opposite algebra,
    # where T_1 c_1 = c_2 T_1 fails, the first relation not closed under
    # reversing its words
    for n in range(1, 5):
        assert failing_relation(generators(n), _left_mul, [unit(n).terms]) is None
    one = unit(2).terms
    assert failing_relation(generators(2), _left_mul, [one], anti=True) == "T_1 c_1 = c_2 T_1"
    # an empty sum gives one empty vector per input vector
    assert act_terms({}, _left_mul, [one, one]) == [{}, {}]


def _random_homogeneous(rng, n, parity):
    basis = algebra_basis(n)
    terms = {}
    for _ in range(3):
        d, w = rng.choice(basis)
        if len(d) % 2 != parity:
            continue
        terms[(d, w)] = GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2))
    return AlgebraElement(n, terms)


def test_associativity_random():
    rng = random.Random(42)
    for n in range(1, 5):
        for _ in range(60):
            a = _random_homogeneous(rng, n, rng.randint(0, 1))
            b = _random_homogeneous(rng, n, rng.randint(0, 1))
            z = _random_homogeneous(rng, n, rng.randint(0, 1))
            assert multiply(multiply(a, b), z) == multiply(a, multiply(b, z))


@pytest.fixture
def fresh_tables():
    """Empty every table of hecke_clifford and of the oracles before and
    after the test, so that no entry filled under a patched rule outlives
    it."""

    # collected before any patch, so the teardown also clears a table that
    # a test has patched over
    tables = [
        obj
        for module in (hc, oracles)
        for obj in vars(module).values()
        if hasattr(obj, "cache_clear")
    ]

    def clear():
        for table in tables:
            table.cache_clear()

    clear()
    yield
    clear()


def test_associativity_certificate():
    # the table certificate, the generator sweep and the regular-representation
    # oracle agree
    for n in range(0, 5):
        assert associativity_failure(n) is None, n
        assert tau_sweep_failure(n) is None, n
        assert regular_associativity_failure(n) is None, n
    # the Frobenius certificate and the Gram share the guard of the certificate
    for sweep in (associativity_failure, tau_sweep_failure, regular_associativity_failure,
                  frobenius_failure, frobenius_gram):
        with pytest.raises(ResourceLimitError):
            sweep(MAX_TABLE_SWEEP_N + 1)


def test_certificate_makes_no_multiply_call(monkeypatch, fresh_tables):
    def boom(*_args):
        raise AssertionError("multiply called")

    monkeypatch.setattr(hc, "multiply", boom)
    assert associativity_failure(4) is None


def test_first_letter_is_the_least_left_descent():
    # T_w = T_i T_{s_i w} with l(s_i w) = l(w) - 1, i the least value whose
    # successor stands left of it
    for n in range(2, 6):
        for w in itertools.permutations(range(1, n + 1)):
            if list(w) == sorted(w):
                continue
            (kind, i), (d, rest) = hc._first_letter(frozenset(), w)
            assert kind == "T" and not d
            assert i == min(j for j in range(1, n) if w.index(j + 1) < w.index(j))
            assert word_length(rest) == word_length(w) - 1


def test_tables_equal_their_walks():
    # each table entry is filled by one generator step on a shorter entry;
    # the oracle walks the whole generator word of the left factor
    for n in range(0, 5):
        assert table_walk_mismatch(n) is None, n


def _algebra_relations(max_n):
    return [r for r in suite_algebra(max_n=max_n) if r["claim"] == "algebra-relations"]


def _patch_entry(monkeypatch, name, key, change):
    """Patch the table ``name`` so that its entry at ``key`` is ``change``
    of the true one."""
    real = getattr(hc, name)
    monkeypatch.setattr(hc, name, lambda *args: change(real(*args)) if args == key else real(*args))


def _flip_one_entry(monkeypatch, name, key):
    """Patch the table ``name`` so that the entry at ``key`` changes sign."""
    if name == "_t_times_c":
        _patch_entry(monkeypatch, name, key, lambda e: tuple((-k, d, u) for k, d, u in e))
    else:
        _patch_entry(monkeypatch, name, key, lambda e: (-e[0], e[1]))


def test_certificate_fails_on_one_flipped_clifford_sign(monkeypatch, fresh_tables):
    # c_{1,2} c_3 = c_{1,2,3}; no defining relation multiplies these two
    _flip_one_entry(monkeypatch, "_clifford_sign", (frozenset({1, 2}), frozenset({3})))
    assert hc._failing_product_relation(generators(3), 3) is None
    assert failing_relation_by_products(generators(3), multiply, unit(3)) is None
    assert associativity_failure(3) is not None
    assert tau_sweep_failure(3) is not None
    assert regular_associativity_failure(3) is not None
    reports = _algebra_relations(3)
    assert [r["status"] for r in reports] == ["verified", "verified", "failed"]
    assert reports[-1]["witness"] == associativity_failure(3)


def test_certificate_fails_on_one_broken_rewriting_case(monkeypatch, fresh_tables):
    # T_1 c_D T_w with 1, 2 in D loses its sign; the tables, the left-regular
    # matrices and the relations all read the broken rule
    real = hc._left_mul_T

    def broken(i, terms):
        out = {}
        for (d, w), c in terms.items():
            for key, v in real(i, {(d, w): c}).items():
                vec_add_term(out, key, -v if i == 1 and {1, 2} <= d else v)
        return out

    monkeypatch.setattr(hc, "_left_mul_T", broken)
    assert hc._failing_product_relation(generators(3), 3) is None
    assert failing_relation_by_products(generators(3), multiply, unit(3)) is None
    reports = _algebra_relations(3)
    assert [r["status"] for r in reports] == ["verified", "failed", "failed"]
    assert reports[-1]["witness"] == associativity_failure(3)
    assert tau_sweep_failure(3) is not None
    assert regular_associativity_failure(3) is not None


@pytest.mark.parametrize(
    "name, key",
    [
        # T_w0 c_1: no defining relation moves the longest element past a c
        ("_t_times_c", ((3, 2, 1), frozenset({1}))),
        # T_w0 T_w0 = -T_w0: no defining relation multiplies it by itself
        ("_demazure_sign", ((3, 2, 1), (3, 2, 1))),
    ],
)
def test_certificate_fails_on_one_flipped_table_entry(monkeypatch, fresh_tables, name, key):
    # no shorter entry is filled from one of w0, so the flip stays in one entry
    _flip_one_entry(monkeypatch, name, key)
    assert hc._failing_product_relation(generators(3), 3) is None
    assert failing_relation_by_products(generators(3), multiply, unit(3)) is None
    assert associativity_failure(3) is not None
    assert tau_sweep_failure(3) is not None
    assert regular_associativity_failure(3) is not None
    reports = _algebra_relations(3)
    assert [r["status"] for r in reports] == ["verified", "verified", "failed"]
    assert reports[-1]["witness"] == associativity_failure(3)
    # the table Gram reads the flipped entry, the regular route does not
    assert frobenius_gram(3) != regular_frobenius_gram(3)


@pytest.mark.parametrize(
    "name, key, check",
    [
        # T_1 T_2 = T_{s_1 s_2}: read by the braid relation and by T_v = T_f T_{s_f v}
        ("_demazure_sign", ((2, 1, 3), (1, 3, 2)), "(P)"),
        # T_1 c_2, a length-1 entry: (K) compares it with M_{T_1}(c_2 (x) 1),
        # which reads the same entry, so only the relations of the moves see it
        ("_t_times_c", ((2, 1, 3), frozenset({2})), "(R)"),
        # T_{s_1 s_2} c_1, a length-2 entry: no relation of the moves reads it
        ("_t_times_c", ((2, 3, 1), frozenset({1})), "(K)"),
    ],
)
def test_each_presentation_check_reports_its_own_control(monkeypatch, fresh_tables, name, key,
                                                         check):
    _flip_one_entry(monkeypatch, name, key)
    witness = associativity_failure(3)
    assert witness is not None and witness.startswith(check + " "), witness
    assert tau_sweep_failure(3) is not None
    assert regular_associativity_failure(3) is not None


def test_parity_grading():
    rng = random.Random(9)
    for n in (2, 3):
        for pa in (0, 1):
            for pb in (0, 1):
                a = _random_homogeneous(rng, n, pa)
                b = _random_homogeneous(rng, n, pb)
                prod = multiply(a, b)
                if prod:
                    assert prod.parity() == (pa + pb) % 2


def test_rank_mismatch():
    with pytest.raises(RankMismatchError):
        multiply(T(1, 2), T(1, 3))


def _subsets(n):
    return [frozenset(i + 1 for i in range(n) if mask >> i & 1) for mask in range(1 << n)]


def _in_one_representation(v):
    """A real coefficient is int while integral, else a Fraction; a
    GaussianRational is never real; no float anywhere."""

    def real(x):
        return type(x) is int or (type(x) is Fraction and x.denominator != 1)

    if type(v) is GaussianRational:
        return bool(v.im) and real(v.re) and real(v.im)
    return real(v)


def _promoted(x):
    """x with every coefficient promoted to a GaussianRational by as_gauss,
    stored past the constructor, which would demote it again."""
    return x._make({k: as_gauss(v) for k, v in x.terms.items()})


def test_multiply_agrees_on_promoted_operands():
    # slow route: the old all-GaussianRational representation of the
    # operands gives the same products, and every product coefficient is
    # in the one representation whichever way its operands were stored
    for n in range(1, 4):
        gens = list(generators(n).values())
        mixed = [g.scale(GAUSS_I) + h.scale(Fraction(1, 2)) for g, h in zip(gens, gens[1:])]
        elems = [unit(n)] + gens + mixed
        assert all(type(v) is GaussianRational for x in elems for v in _promoted(x).terms.values())
        for x in elems:
            for y in elems:
                want = multiply(x, y)
                assert all(_in_one_representation(v) for v in want.terms.values()), (x, y)
                for a, b in ((_promoted(x), _promoted(y)), (_promoted(x), y), (x, _promoted(y))):
                    got = multiply(a, b)
                    assert got == want, (x, y)
                    assert all(_in_one_representation(v) for v in got.terms.values()), (x, y)


def test_integer_structure_constants():
    n = 3
    for (d, w) in algebra_basis(n):
        for (e, v) in algebra_basis(n):
            prod = multiply(basis_element(d, w, n), basis_element(e, v, n))
            for coeff in prod.terms.values():
                assert type(coeff) is int and coeff
    # the three tables behind multiply hold int coefficients and signs
    perms = list(itertools.permutations(range(1, n + 1)))
    for w in perms:
        for e in _subsets(n):
            for k, _d, _u in _t_times_c(w, e):
                assert type(k) is int and k
        for v in perms:
            t, _uv = _demazure_sign(w, v)
            assert type(t) is int and t in (1, -1)
    for d in _subsets(n):
        for e in _subsets(n):
            s, de = _clifford_sign(d, e)
            assert type(s) is int and s in (1, -1) and de == d ^ e


def _multiply_by_walk(a, b):
    """The reference product: b walked through the generator word of each
    term of a, one generator at a time."""
    return AlgebraElement(a.rank, act_terms(a.terms, _left_mul, [b.terms])[0])


def _random_coefficient(rng, kind):
    if kind == "int":
        return rng.choice((-3, -2, -1, 1, 2, 3))
    if kind == "fraction":
        return Fraction(rng.choice((-5, -3, -1, 1, 2, 4)), rng.randint(1, 4))
    return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                            rng.choice((-2, -1, 1, 3)))


def _random_element(rng, n, parity, kind):
    """One to four basis terms of parity 0 or 1, or for "mixed" one term of
    each parity and up to two more, with coefficients of one kind."""
    basis = algebra_basis(n)
    if parity == "mixed":
        pools = [[k for k in basis if len(k[0]) % 2 == p] for p in (0, 1)]
        pools += [basis] * rng.randint(0, 2)
    else:
        pools = [[k for k in basis if len(k[0]) % 2 == parity]] * rng.randint(1, 4)
    return AlgebraElement(n, {rng.choice(p): _random_coefficient(rng, kind) for p in pools})


def test_multiply_matches_the_generator_walk():
    rng = random.Random(2024)
    for n in range(0, 6):
        for kind in ("int", "fraction", "gauss"):
            for _ in range(30):
                pa, pb = (rng.choice((0, 1, "mixed")) for _ in range(2))
                if n == 0:
                    pa = pb = 0
                a = _random_element(rng, n, pa, kind)
                b = _random_element(rng, n, pb, kind)
                prod = multiply(a, b)
                assert prod == _multiply_by_walk(a, b), (a, b)
                assert all(prod.terms.values()), prod.terms


def test_multiply_drops_a_complete_cancellation():
    # T_i (T_i + 1) = T_i^2 + T_i = 0, term by term
    for n in (2, 3, 4):
        for i in range(1, n):
            prod = multiply(T(i, n), T(i, n) + unit(n))
            assert prod.terms == {} and prod == _multiply_by_walk(T(i, n), T(i, n) + unit(n))
    # the same cancellation with imaginary and with Gaussian coefficients
    assert multiply(T(1, 3).scale(GAUSS_I), T(1, 3) + unit(3)).terms == {}
    assert multiply((T(2, 3) + unit(3)).scale(GAUSS_I), T(2, 3).scale(GAUSS_I + 2)).terms == {}


def test_table_sizes_stay_within_their_bounds():
    # summed over the ranks 1..3 that suite_algebra(max_n=3) visits:
    # n! 2^n entries of T_w c_E, 4^n Clifford signs, (n!)^2 Demazure signs
    tables = {
        _t_times_c: sum(math.factorial(n) * 2 ** n for n in range(1, 4)),
        _clifford_sign: sum(4 ** n for n in range(1, 4)),
        _demazure_sign: sum(math.factorial(n) ** 2 for n in range(1, 4)),
    }
    for table in tables:
        table.cache_clear()
    assert all(r["status"] == "verified" for r in suite_algebra(max_n=3))
    for table, bound in tables.items():
        assert 0 < table.cache_info().currsize <= bound, (table, bound)


def _assert_int_components(values, where):
    # integral real values are plain int: no Fraction, no GaussianRational
    for v in values:
        assert type(v) is int and v, (where, v)


def _entries(mat):
    return [v for _i, _j, v in mat.entries()]


def test_integral_matrices_keep_int_components():
    # structure constants, morphisms, the trace form and the actions of
    # induced simples and projectives are integral, so every entry is a
    # plain int
    for n in range(1, 4):
        for i in range(1, n):
            mat = regular_generator_matrix("T", i, n)
            _assert_int_components(_entries(mat), ("T", i, n))
        for j in range(1, n + 1):
            mat = regular_generator_matrix("c", j, n)
            _assert_int_components(_entries(mat), ("c", j, n))
        for tag in MORPHISM_TAGS:
            if tag == "phi_bar":
                continue
            _assert_int_components(_entries(morphism_matrix(tag, n)), (tag, n))
        for d, w in algebra_basis(n):
            if not d:
                img = apply_morphism("phi_bar", basis_element(d, w, n))
                _assert_int_components(img.terms.values(), ("phi_bar", w))
        _assert_int_components(_entries(frobenius_gram(n)), ("gram", n))
    for alpha in compositions_of(3):
        for module in (induce_clifford(simple_hecke(alpha)),
                       induce_clifford(projective_hecke(alpha))):
            for key, mat in module.actions.items():
                _assert_int_components(_entries(mat), (alpha, key))


def test_leading_term():
    sign, image = leading_term_check((2, 1), {1, 2})
    assert sign == -1 and image == frozenset({1, 2})
    sign, image = leading_term_check((1, 2, 3), {2})
    assert sign == 1 and image == frozenset({2})
    sign, image = leading_term_check((2, 3, 1), {1})
    assert sign == 1 and image == frozenset({2})


def test_leading_term_against_multiply():
    # T_w c_D = sign * c_{w(D)} T_w + strictly Bruhat-lower terms; the lower
    # terms keep |E| <= |D| with matching parity (they need not sit inside D:
    # T_1 c_2 = c_1(T_1 + 1) - c_2 already has E = {1}).
    for n in range(1, 5):
        for wt in itertools.permutations(range(1, n + 1)):
            tw = AlgebraElement(n, {(frozenset(), wt): 1})
            for mask in range(1 << n):
                d = frozenset(i + 1 for i in range(n) if mask >> i & 1)
                prod = multiply(tw, basis_element(d, (tuple(range(1, n + 1))), n))
                sign, image = leading_term_check(wt, d)
                assert prod.terms.get((image, wt)) == GaussianRational(sign)
                for (e, v), coeff in prod.terms.items():
                    if v == wt:
                        assert (e, v) == (image, wt)
                    else:
                        assert len(e) <= len(d) and len(e) % 2 == len(d) % 2
                        assert word_length(v) < word_length(wt)
                        assert bruhat_leq(v, wt)


def test_trace_examples():
    assert trace(basis_element(set(), (2, 1), 2)) == 1
    assert trace(basis_element({1}, (2, 1), 2)) == 0
    # (T_1, T_1) = tr(-T_1) = -1 at rank 2 where T_1 = T_{w_0}
    assert frobenius_form(T(1, 2), T(1, 2)) == -1


def test_frobenius_gram_matches_products():
    for n in (1, 2, 3):
        basis = algebra_basis(n)
        gram = frobenius_gram(n)
        for i, (d, w) in enumerate(basis):
            for j, (e, v) in enumerate(basis):
                expected = frobenius_form(
                    basis_element(d, w, n), basis_element(e, v, n)
                )
                got = gram.get(i, j) or GaussianRational(0)
                assert got == expected


def test_frobenius_gram_matches_the_regular_route():
    # the Gram read from the three tables equals the walk of e_w0 through
    # the transposed left-regular matrices
    for n in range(0, 5):
        assert frobenius_gram(n) == regular_frobenius_gram(n), n


def test_frobenius_form_properties():
    rng = random.Random(4)
    for n in (2, 3):
        one = unit(n)
        for _ in range(20):
            a = _random_homogeneous(rng, n, rng.randint(0, 1))
            b = _random_homogeneous(rng, n, rng.randint(0, 1))
            z = _random_homogeneous(rng, n, rng.randint(0, 1))
            # invariance (ab, c) = (a, bc)
            assert frobenius_form(multiply(a, b), z) == frobenius_form(
                a, multiply(b, z)
            )
        # evenness: mixed parities pair to zero
        a = _random_homogeneous(rng, n, 0)
        b = _random_homogeneous(rng, n, 1)
        assert frobenius_form(a, b) == 0


def test_gram_invertible():
    for n in (1, 2, 3):
        gram = frobenius_gram(n)
        ech = Echelon()
        for j in range(gram.ncols):
            ech.add(dict(gram.cols[j]))
        assert ech.rank == gram.ncols


def test_morphisms_are_involutions_and_check_relations():
    rng = random.Random(17)
    for n in (2, 3):
        for tag in ("phi", "phi_prime", "psi", "psi_prime"):
            gens = [T(i, n) for i in range(1, n)] + [c(j, n) for j in range(1, n + 1)]
            for g in gens:
                assert apply_morphism(tag, apply_morphism(tag, g)) == g
            for _ in range(12):
                a = _random_homogeneous(rng, n, rng.randint(0, 1))
                b = _random_homogeneous(rng, n, rng.randint(0, 1))
                img = apply_morphism(tag, multiply(a, b))
                if tag in ("psi", "psi_prime"):
                    assert img == multiply(apply_morphism(tag, b), apply_morphism(tag, a))
                else:
                    assert img == multiply(apply_morphism(tag, a), apply_morphism(tag, b))


def _gen(key, n):
    kind, idx = key
    return gen_T(idx, n) if kind == "T" else gen_c(idx, n)


def test_normal_word_spells_the_basis_element():
    # left-multiply the unit by the word's generators, one single-key
    # element at a time, right to left
    for n in range(0, 5):
        for d, w in algebra_basis(n):
            acc = unit(n)
            for key in reversed(normal_word(d, w)):
                acc = multiply(_gen(key, n), acc)
            assert acc == basis_element(d, w, n), (d, w)


def _apply_morphism_by_products(tag, a):
    """The product route: the images of c_j (j in D increasing) and of the
    letters of a reduced word of w multiplied up from the unit, in reversed
    order for the anti-involutions."""
    from peakhc.hecke_clifford import _morphism_generator_images

    n = a.rank
    images = _morphism_generator_images(tag, n)
    out = AlgebraElement(n, {})
    for (d, w), coeff in a.terms.items():
        factors = [images[("c", j)] for j in sorted(d)]
        factors += [images[("T", i)] for i in word_reduced(w)]
        if tag in ("psi", "psi_prime"):
            factors.reverse()
        acc = unit(n)
        for f in factors:
            acc = multiply(acc, f)
        out = out + acc.scale(coeff)
    return out


def test_apply_morphism_matches_products():
    for n in range(1, 4):
        for tag in MORPHISM_TAGS:
            for d, w in algebra_basis(n):
                if tag == "phi_bar" and d:
                    continue
                elt = basis_element(d, w, n)
                assert apply_morphism(tag, elt) == _apply_morphism_by_products(tag, elt)


def test_morphism_matrix_matches_the_walk():
    # the prefix-built columns against apply_morphism, one walk per element
    for n in range(1, 5):
        pos = {key: k for k, key in enumerate(algebra_basis(n))}
        for tag in ("phi", "phi_prime", "psi", "psi_prime"):
            mat = morphism_matrix(tag, n)
            for col, (d, w) in enumerate(algebra_basis(n)):
                img = apply_morphism(tag, basis_element(d, w, n))
                assert mat.cols[col] == {pos[k]: v for k, v in img.terms.items()}, (tag, d, w)
        with pytest.raises(ValueError):
            morphism_matrix("phi_bar", n)


def test_morphism_examples():
    n = 3
    assert apply_morphism("phi", c(1, n)) == -c(3, n)
    assert apply_morphism("psi", T(1, n)) == T(1, n) + multiply(c(1, n), c(2, n))
    assert apply_morphism("phi", apply_morphism("phi", T(1, n))) == T(1, n)
    assert apply_morphism("phi_bar", T(1, n)) == T(2, n)
    with pytest.raises(ValueError):
        apply_morphism("phi_bar", c(1, n))


def test_nakayama_identity_small():
    # (a, b) = (-1)^{|a||b|} (phi(b), a) on the full basis, n <= 3
    for n in (1, 2, 3):
        basis = algebra_basis(n)
        gram = frobenius_gram(n)
        phi = morphism_matrix("phi", n)
        for i, (d, w) in enumerate(basis):
            for j, (e, v) in enumerate(basis):
                sign = (-1) ** (len(d) * len(e))
                lhs = gram.get(i, j) or GaussianRational(0)
                # (phi(e_j), e_i) = sum_k phi[k, j] gram[k, i]
                rhs = GaussianRational(0)
                for k, coeff in phi.cols[j].items():
                    g = gram.get(k, i)
                    if g is not None:
                        rhs = rhs + coeff * g
                assert lhs == sign * rhs


def test_frobenius_certificate_agrees_with_the_gram_route():
    for n in range(0, 5):
        assert frobenius_failure(n) is None, n
        assert frobenius_by_gram(n) is None, n


def test_frobenius_report_builds_no_gram(monkeypatch):
    def boom(*_args):
        raise AssertionError("Gram or phi matrix built")

    for name in ("frobenius_gram", "morphism_matrix"):
        monkeypatch.setattr(hc, name, boom)
    reports = [r for r in suite_algebra(4) if r["claim"] == "frobenius-form"]
    assert [r["status"] for r in reports] == ["verified"] * 4


S1, S2, W0, ID3 = (2, 1, 3), (1, 3, 2), (3, 2, 1), (1, 2, 3)


def _patch_phi(monkeypatch, images):
    """Patch the images of phi by ``images(n)``: {generator key: element}."""
    real = hc._morphism_generator_images
    monkeypatch.setattr(hc, "_morphism_generator_images",
                        lambda tag, n: {**real(tag, n), **images(n)})


# each fault sits in one entry: the tables are filled before the patch, so
# no entry is refilled from a patched one
FROBENIUS_CONTROLS = {
    # T_1 T_1 = T_w0, one longer than l(T_1) + l(T_1)
    "(D)": lambda mp: _patch_entry(mp, "_demazure_sign", (S1, S1), lambda e: (1, W0)),
    # T_1 T_2 = 2 T_{s_1 s_2}
    "(D) sign": lambda mp: _patch_entry(mp, "_demazure_sign", (S1, S2), lambda e: (2, e[1])),
    # c_1 c_2 = 1: a second D' with c_D c_D' on the unit
    "(S)": lambda mp: _patch_entry(
        mp, "_clifford_sign", (frozenset({1}), frozenset({2})), lambda e: (1, frozenset())),
    # T_1 c_1 = c_2 T_1 + c_1 T_2: a second term of length l(T_1)
    "(L)": lambda mp: _patch_entry(
        mp, "_t_times_c", (S1, frozenset({1})), lambda e: e + ((1, frozenset({1}), S2),)),
    # T_1 c_1 = c_1 T_1: the leading term at the wrong u(E)
    "(L) u(E)": lambda mp: _patch_entry(
        mp, "_t_times_c", (S1, frozenset({1})),
        lambda e: tuple((k, frozenset({1}), u) for k, _d, u in e)),
    # T_1 c_1 = c_2 T_1 + c_{1,2}: an even term in an odd entry
    "(E)": lambda mp: _patch_entry(
        mp, "_t_times_c", (S1, frozenset({1})), lambda e: e + ((1, frozenset({1, 2}), ID3),)),
    # c_1 -> -2 c_n breaks c_1 c_1 = -1
    "(M)": lambda mp: _patch_phi(mp, lambda n: {("c", 1): gen_c(n, n).scale(-2)}),
    # c_j -> +c_{n+1-j} keeps every relation but is not the Nakayama map
    "(N)": lambda mp: _patch_phi(
        mp, lambda n: {("c", j): gen_c(n + 1 - j, n) for j in range(1, n + 1)}),
}


@pytest.mark.parametrize("label", sorted(FROBENIUS_CONTROLS))
def test_each_frobenius_check_reports_its_own_control(monkeypatch, fresh_tables, label):
    assert frobenius_failure(3) is None
    FROBENIUS_CONTROLS[label](monkeypatch)
    witness = frobenius_failure(3)
    assert witness is not None and witness.startswith(label.split()[0] + " "), witness
    # the slow route sees each of these faults too, except (S): the Gram
    # reads c_D c_D' at D' = D alone
    assert (frobenius_by_gram(3) is None) == (label == "(S)")


def test_nakayama_check_reaches_one_below_the_longest_element(monkeypatch, fresh_tables):
    # T_1 T_{s_1 w0} = -T_w0 at n = 4 keeps (D) to (M): the relations of the
    # phi images read products of length <= 3 < 5, so only (N) at
    # l(u) = l(w0) - 1 sees it, and (N) may skip no further
    assert frobenius_failure(4) is None
    _flip_one_entry(monkeypatch, "_demazure_sign", ((2, 1, 3, 4), (4, 3, 1, 2)))
    assert frobenius_failure(4) == "(N) tr(a g) at a = T[4,3,1,2], g = T_3"
    assert frobenius_by_gram(4) is not None


def test_a_failed_frobenius_check_fails_its_report(monkeypatch, fresh_tables):
    FROBENIUS_CONTROLS["(N)"](monkeypatch)
    reports = suite_algebra(3)
    assert [(r["claim"], r["status"]) for r in reports] == [
        ("algebra-relations", "verified"), ("frobenius-form", "failed")] * 3
    assert reports[-1]["witness"] == frobenius_failure(3)
    assert all(r["witness"].startswith("(N) ") for r in reports[1::2])
    assert frobenius_failure(4).startswith("(N) ")


def test_regular_representation():
    from peakhc.linalg import SparseMatrix

    m = regular_generator_matrix("c", 1, 1)
    assert (m @ m) == SparseMatrix.identity(2, 1).scale(-1)
    t = regular_generator_matrix("T", 1, 2)
    assert (t @ t) == t.scale(-1)
    t1 = regular_generator_matrix("T", 1, 3)
    t2 = regular_generator_matrix("T", 2, 3)
    assert (t1 @ t2 @ t1) == (t2 @ t1 @ t2)
    with pytest.raises(ResourceLimitError):
        regular_generator_matrix("T", 1, 6)


def test_str_forms():
    x = T(1, 2) + c(1, 2).scale(GAUSS_I).scale(2)
    s = str(x)
    assert "T[2,1]" in s and "c{1}" in s and "2i" in s


def _relation(text):
    """Parse "T_1 c_2 + c_2 = c_1 T_1 + c_1" into a pair of word sums."""

    def side(part):
        terms = []
        for term in part.split(" + "):
            coeff = -1 if term.startswith("-") else 1
            letters = term.lstrip("-").split()
            word = () if letters == ["1"] else tuple((x[0], int(x[2:])) for x in letters)
            terms.append((coeff, word))
        return tuple(terms)

    lhs, rhs = text.split(" = ")
    return side(lhs), side(rhs)


_CLIFFORD_3 = [
    "c_1 c_1 = -1", "c_1 c_2 = -c_2 c_1", "c_1 c_3 = -c_3 c_1",
    "c_2 c_2 = -1", "c_2 c_3 = -c_3 c_2", "c_3 c_3 = -1",
]


@pytest.mark.parametrize(
    "blocks, algebra, expected",
    [
        ((2,), "HCl", [
            "T_1 T_1 = -T_1",
            "c_1 c_1 = -1", "c_1 c_2 = -c_2 c_1", "c_2 c_2 = -1",
            "T_1 c_1 = c_2 T_1", "T_1 c_2 + c_2 = c_1 T_1 + c_1",
        ]),
        ((3,), "HCl", [
            "T_1 T_1 = -T_1", "T_1 T_2 T_1 = T_2 T_1 T_2", "T_2 T_2 = -T_2",
            *_CLIFFORD_3,
            "T_1 c_3 = c_3 T_1", "T_1 c_1 = c_2 T_1", "T_1 c_2 + c_2 = c_1 T_1 + c_1",
            "T_2 c_1 = c_1 T_2", "T_2 c_2 = c_3 T_2", "T_2 c_3 + c_3 = c_2 T_2 + c_2",
        ]),
        ((2, 1), "HCl", [
            "T_1 T_1 = -T_1",
            *_CLIFFORD_3,
            "T_1 c_3 = c_3 T_1", "T_1 c_1 = c_2 T_1", "T_1 c_2 + c_2 = c_1 T_1 + c_1",
        ]),
        ((3,), "H", ["T_1 T_1 = -T_1", "T_1 T_2 T_1 = T_2 T_1 T_2", "T_2 T_2 = -T_2"]),
        ((2, 2), "H", ["T_1 T_1 = -T_1", "T_1 T_3 = T_3 T_1", "T_3 T_3 = -T_3"]),
    ],
    ids=["HCl-2", "HCl-3", "HCl-2-1", "H-3", "H-2-2"],
)
def test_defining_relations_pinned(blocks, algebra, expected):
    rels = defining_relations(generator_keys(blocks, algebra))
    assert rels == [_relation(text) for text in expected]
    assert [_relation_text(*r) for r in rels] == expected
