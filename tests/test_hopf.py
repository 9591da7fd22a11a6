import itertools
import random
from fractions import Fraction

import pytest

from peakhc import hopf
from peakhc.combinat import (
    Composition,
    PeakSet,
    compositions_of,
    descent_class,
    partitions_of,
    peak_sets_in,
    strict_partitions_of,
    symmetric_difference_shift,
)
from peakhc.hopf import (
    BASES,
    ConversionError,
    FreeElement,
    MembershipError,
    TensorElement,
    convert,
    coproduct,
    forgetful_pi,
    graded_rank,
    k_expansions,
    omega_inner_product,
    omega_into_peakdual,
    pairing,
    peak_pairing,
    product,
    sym_into_qsym,
    term,
    theta_sym,
    theta_transform,
    unit,
    vartheta_map,
)
from peakhc.linalg import vec_add_term


def C(*parts):
    return Composition(tuple(parts))


def PS(n, *elems):
    return PeakSet(n, frozenset(elems))


def H(*parts):
    return term("NSym", "H", C(*parts))


def E(*parts):
    return term("NSym", "E", C(*parts))


def R(*parts):
    return term("NSym", "R", C(*parts))


def Q(*parts):
    return term("NSym", "Q", C(*parts))


def M(*parts):
    return term("QSym", "M", C(*parts))


def F(*parts):
    return term("QSym", "F", C(*parts))


def Xi(n, *elems):
    return term("Peak", "Xi", PS(n, *elems))


def K(n, *elems):
    return term("PeakDual", "K", PS(n, *elems))


def N(*parts):
    return term("PeakDual", "N", C(*parts))


def h(*parts):
    return term("Sym", "h", tuple(parts))


def p(*parts):
    return term("Sym", "p", tuple(parts))


def _random_element(rng, algebra, basis, degrees, nterms=3):
    out = FreeElement.zero(algebra, basis)
    for _ in range(nterms):
        d = rng.choice(degrees)
        alpha = rng.choice(compositions_of(d))
        coeff = Fraction(rng.randint(-4, 4))
        if coeff:
            out = out + term(algebra, basis, alpha, coeff)
    return out


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------


def test_convert_examples():
    assert convert(Q(2), "H") == 2 * H(1, 1)
    assert convert(R(1, 1), "H") == H(1, 1) - H(2)
    assert convert(F(2), "M") == M(2) + M(1, 1)
    assert convert(E(2), "H") == H(1, 1) - H(2)


def test_convert_roundtrips():
    for n in range(1, 6):
        for a in compositions_of(n):
            for basis in ("E", "R"):
                x = term("NSym", basis, a)
                assert convert(convert(x, "H"), basis) == x
            x = term("QSym", "M", a)
            assert convert(convert(x, "F"), "M") == x
            y = term("QSym", "F", a)
            assert convert(convert(y, "M"), "F") == y


def test_convert_no_path():
    with pytest.raises(ConversionError):
        convert(H(2), "Q")
    with pytest.raises(ConversionError):
        convert(K(3, 2), "N")
    assert convert(N(2), "N") == N(2)  # identity conversion is allowed
    assert convert(N(2), "K").algebra == "PeakDual"


def test_peak_membership():
    # Q_2 lies in the peak subalgebra, H_2 does not
    x = convert(Q(2), "Xi", "Peak")
    assert x == 2 * Xi(2)
    with pytest.raises(MembershipError):
        convert(H(2), "Xi", "Peak")
    with pytest.raises(MembershipError):
        convert(F(2), "K", "PeakDual")


def test_sym_conversions():
    # Newton recursions
    assert convert(p(2), "h") == 2 * h(2) - h(1, 1)
    assert convert(h(2), "p") == Fraction(1, 2) * (p(1, 1) + p(2))
    for n in range(1, 7):
        for lam in [tuple([n]), (1,) * n]:
            x = term("Sym", "h", lam)
            assert convert(convert(x, "p"), "h") == x
    # m <-> h round-trip
    for lam in [(2,), (1, 1), (2, 1), (3, 1), (2, 2)]:
        x = term("Sym", "m", lam)
        assert convert(convert(x, "h"), "m") == x
    # h_n = sum of all monomials of degree n
    exp = convert(h(3), "m")
    assert exp == term("Sym", "m", (3,)) + term("Sym", "m", (2, 1)) + term(
        "Sym", "m", (1, 1, 1)
    )


# the power-sum route: Newton's identities, kept as the oracle of every
# conversion that hopf reads off the image of Sym in QSym

NEWTON_MAX_DEGREE = 7


def _merge(a, b):
    return tuple(sorted(a + b, reverse=True))


def newton_p_in_h(n):
    """Newton: p_n = n h_n - sum_{k=1}^{n-1} h_k p_{n-k}."""
    out = {(n,): n}
    for k in range(1, n):
        for lam, c in newton_p_in_h(n - k).items():
            vec_add_term(out, _merge((k,), lam), -c)
    return out


def newton_h_in_p(n):
    """Newton: h_n = (1/n) sum_{k=1}^{n} p_k h_{n-k}."""
    if n == 0:
        return {(): 1}
    out = {}
    for k in range(1, n + 1):
        for lam, c in newton_h_in_p(n - k).items():
            vec_add_term(out, _merge((k,), lam), Fraction(c, n))
    return out


def newton_expand(coeffs, single):
    """sum of c_lam prod_{part in lam} single(part), multiplied on partitions."""
    out = {}
    for lam, c in coeffs.items():
        acc = {(): c}
        for part in lam:
            nxt = {}
            for a, ca in acc.items():
                for b, cb in single(part).items():
                    vec_add_term(nxt, _merge(a, b), ca * cb)
            acc = nxt
        for a, ca in acc.items():
            vec_add_term(out, a, ca)
    return out


def ribbon_in_h(alpha):
    """r_alpha = sum over coarsenings beta of alpha of (-1)^(l(alpha)-l(beta)) h_(sorted beta)."""
    cuts = set(itertools.accumulate(alpha.parts[:-1]))
    out = {}
    for beta in compositions_of(alpha.n) if alpha.n else [alpha]:
        if set(itertools.accumulate(beta.parts[:-1])) <= cuts:
            sign = (-1) ** (len(alpha.parts) - len(beta.parts))
            vec_add_term(out, tuple(sorted(beta.parts, reverse=True)), sign)
    return out


def test_convert_h_p_matches_newton():
    for n in range(NEWTON_MAX_DEGREE + 1):
        for lam in partitions_of(n):
            want = newton_expand({lam: 1}, newton_h_in_p)
            assert convert(term("Sym", "h", lam), "p") == FreeElement("Sym", "p", want), lam
            want = newton_expand({lam: 1}, newton_p_in_h)
            assert convert(term("Sym", "p", lam), "h") == FreeElement("Sym", "h", want), lam


def test_sym_into_qsym_matches_the_power_sum_route():
    # every h, r, m and p basis element goes into QSym as prod M_(k) of its
    # Newton p-expansion; m reaches h through convert, r through ribbon_in_h
    p_image = {(): {Composition(()): 1}}
    for n in range(1, NEWTON_MAX_DEGREE + 1):
        for lam in partitions_of(n):
            x = unit("QSym", "M")
            for k in lam:
                x = product(x, M(k))
            p_image[lam] = x.coeffs

    def power_sum_route(coeffs_h):
        out = {}
        for lam, c in newton_expand(coeffs_h, newton_h_in_p).items():
            for a, v in p_image[lam].items():
                vec_add_term(out, a, c * v)
        return FreeElement("QSym", "M", out)

    for n in range(NEWTON_MAX_DEGREE + 1):
        for lam in partitions_of(n):
            assert sym_into_qsym(term("Sym", "h", lam)) == power_sum_route({lam: 1}), lam
            assert sym_into_qsym(term("Sym", "p", lam)) == FreeElement(
                "QSym", "M", p_image[lam]
            ), lam
            m = term("Sym", "m", lam)
            assert sym_into_qsym(m) == power_sum_route(convert(m, "h").coeffs), lam
        for alpha in compositions_of(n) if n else [C()]:
            r = term("Sym", "r", alpha)
            assert sym_into_qsym(r) == power_sum_route(ribbon_in_h(alpha)), alpha


def test_qsym_to_sym_membership():
    x = sym_into_qsym(h(2, 1))
    back = convert(x, "h", "Sym")
    assert back == h(2, 1)
    with pytest.raises(MembershipError):
        convert(M(2, 1), "m", "Sym")


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_product_examples():
    assert product(H(2), H(1)) == H(2, 1)
    assert product(M(1), M(1)) == 2 * M(1, 1) + M(2)
    # Q_1 * Q_1 = 4 H_{(1,1)} = 2 Q_2 inside the peak subalgebra
    q1 = convert(Q(1), "Xi", "Peak")
    sq = product(q1, q1)
    assert sq == 4 * Xi(2)
    assert convert(sq, "H", "NSym") == 4 * H(1, 1)


def _mono_eval(alpha, nvars):
    """Monomial quasisymmetric function as a polynomial dict (oracle)."""
    out = {}
    r = len(alpha)
    for idxs in itertools.combinations(range(nvars), r):
        expo = [0] * nvars
        for pos, part in zip(idxs, alpha):
            expo[pos] = part
        out[tuple(expo)] = out.get(tuple(expo), 0) + 1
    return out


def _poly_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def test_quasi_shuffle_against_power_series():
    # the product on the M basis agrees with truncated power-series products
    nvars = 4
    cases = []
    for d1 in range(1, 4):
        for d2 in range(1, 6 - d1):
            for a in compositions_of(d1):
                for b in compositions_of(d2):
                    cases.append((a, b))
    for a, b in cases:
        prod = product(term("QSym", "M", a), term("QSym", "M", b))
        lhs = {}
        for alpha, c in prod.coeffs.items():
            for expo, mult in _mono_eval(alpha.parts, nvars).items():
                lhs[expo] = lhs.get(expo, 0) + c * mult
        rhs = _poly_mul(_mono_eval(a.parts, nvars), _mono_eval(b.parts, nvars))
        assert {k: v for k, v in lhs.items() if v} == rhs


def test_product_associative_random():
    rng = random.Random(11)
    for _ in range(10):
        x = _random_element(rng, "NSym", "H", [1, 2])
        y = _random_element(rng, "NSym", "H", [1, 2])
        z = _random_element(rng, "NSym", "H", [1, 2])
        assert product(product(x, y), z) == product(x, product(y, z))
        u = _random_element(rng, "QSym", "M", [1, 2])
        v = _random_element(rng, "QSym", "M", [1, 2])
        w = _random_element(rng, "QSym", "M", [1, 2])
        assert product(product(u, v), w) == product(u, product(v, w))
        assert product(u, v) == product(v, u)


def test_peak_closed_under_product():
    for n1 in range(1, 4):
        for n2 in range(1, 4):
            for P1 in peak_sets_in(n1):
                for P2 in peak_sets_in(n2):
                    prod = product(
                        term("Peak", "Xi", P1), term("Peak", "Xi", P2)
                    )
                    assert prod.algebra == "Peak"
                    kprod = product(
                        term("PeakDual", "K", P1), term("PeakDual", "K", P2)
                    )
                    assert kprod.algebra == "PeakDual"


# The PeakDual structure maps lift to QSym along vartheta; the oracles below
# compute in QSym instead and come back through the membership solve
# (convert QSym -> PeakDual), touching only the public API.


def _peakdual_basis(max_n):
    """(degree, element) for every K_P and N_alpha of degree <= max_n, the
    unit included."""
    out = [(0, K(0))]
    for n in range(1, max_n + 1):
        out += [(n, term("PeakDual", "K", P)) for P in peak_sets_in(n)]
        out += [(n, term("PeakDual", "N", a)) for a in compositions_of(n)]
    return out


def _solved_in_k(coeffs_m: dict) -> dict:
    return convert(FreeElement("QSym", "M", coeffs_m), "K", "PeakDual").coeffs


def _tensor_solved_in_k(t: TensorElement) -> TensorElement:
    """An M (x) M tensor of Pi (x) Pi in K (x) K: solve each fiber of the
    right slot, then each fiber of the left one."""
    fibers, half = {}, {}
    for (a, b), c in t.coeffs.items():
        fibers.setdefault(b, {})[a] = c
    for b, fib in fibers.items():
        for P, c in _solved_in_k(fib).items():
            half.setdefault(P, {})[b] = c
    out = {}
    for P, fib in half.items():
        for Q, c in _solved_in_k(fib).items():
            out[(P, Q)] = c
    return TensorElement("PeakDual", "K", out)


def test_peakdual_product_matches_membership_solve():
    basis = _peakdual_basis(8)
    for (dx, x), (dy, y) in itertools.product(basis, repeat=2):
        if dx + dy > 8:
            continue
        solved = convert(
            product(convert(x, "M", "QSym"), convert(y, "M", "QSym")), "K", "PeakDual"
        )
        assert product(x, y) == solved, (x, y)


def test_peakdual_coproduct_matches_membership_solve():
    for _n, x in _peakdual_basis(7):
        got = coproduct(x)
        if x.basis == "N":
            assert got.basis == "N"
            terms, got = got.coeffs.items(), TensorElement("PeakDual", "K", {})
            for (a, b), c in terms:
                na = convert(term("PeakDual", "N", a), "K")
                nb = convert(term("PeakDual", "N", b), "K")
                got = got + TensorElement(
                    "PeakDual", "K",
                    {(P, Q): c * ca * cb for P, ca in na.coeffs.items()
                     for Q, cb in nb.coeffs.items()},
                )
        assert got == _tensor_solved_in_k(coproduct(convert(x, "M", "QSym"))), x


def test_omega_into_peakdual_matches_membership_solve():
    inputs = []
    for n in range(1, 11):
        for lam in strict_partitions_of(n):
            q = term("Omega", "q", lam)
            inputs += [q, convert(q, "podd")]
        inputs += [
            term("Omega", "podd", lam)
            for lam in partitions_of(n) if all(part % 2 for part in lam)
        ]
    for x in inputs:
        solved = convert(sym_into_qsym(convert(x, "p", "Sym")), "K", "PeakDual")
        assert omega_into_peakdual(x) == solved, x


# ---------------------------------------------------------------------------
# coproducts
# ---------------------------------------------------------------------------


def test_coproduct_examples():
    t = coproduct(H(2))
    expected = {
        (C(), C(2)): Fraction(1),
        (C(1), C(1)): Fraction(1),
        (C(2), C()): Fraction(1),
    }
    assert t.coeffs == expected
    t = coproduct(M(2, 1))
    assert t.coeffs == {
        (C(), C(2, 1)): Fraction(1),
        (C(2,), C(1,)): Fraction(1),
        (C(2, 1), C()): Fraction(1),
    }
    u = unit("NSym", "H")
    t = coproduct(u)
    assert t.coeffs == {(C(), C()): Fraction(1)}


def test_coproduct_coassociative():
    rng = random.Random(5)
    for algebra, basis in [("NSym", "H"), ("QSym", "M"), ("QSym", "F"), ("NSym", "R")]:
        for _ in range(5):
            x = _random_element(rng, algebra, basis, [1, 2, 3])
            t = coproduct(x)
            left = {}
            right = {}
            for (a, b), c in t.coeffs.items():
                ta = coproduct(term(algebra, t.basis, a))
                for (a1, a2), c2 in ta.coeffs.items():
                    key = (a1, a2, b)
                    left[key] = left.get(key, Fraction(0)) + c * c2
                tb = coproduct(term(algebra, t.basis, b))
                for (b1, b2), c2 in tb.coeffs.items():
                    key = (a, b1, b2)
                    right[key] = right.get(key, Fraction(0)) + c * c2
            assert {k: v for k, v in left.items() if v} == {
                k: v for k, v in right.items() if v
            }


def test_coproduct_algebra_morphism():
    rng = random.Random(23)
    for algebra, basis in [
        ("NSym", "H"),
        ("QSym", "M"),
        ("Peak", "Xi"),
        ("PeakDual", "K"),
        ("Sym", "h"),
        ("Omega", "podd"),
    ]:
        for _ in range(4):
            if basis == "Xi":
                keys = [P for n in (1, 2, 3) for P in peak_sets_in(n)]
                x = term(algebra, basis, rng.choice(keys), rng.randint(1, 3))
                y = term(algebra, basis, rng.choice(keys), rng.randint(-3, -1))
            elif basis == "K":
                keys = [P for n in (1, 2, 3) for P in peak_sets_in(n)]
                x = term(algebra, basis, rng.choice(keys), rng.randint(1, 3))
                y = term(algebra, basis, rng.choice(keys), rng.randint(1, 2))
            elif algebra in ("Sym", "Omega"):
                parts = [(1,), (2, 1), (3,)] if algebra == "Sym" else [(1,), (3,), (1, 1)]
                x = term(algebra, basis, rng.choice(parts), rng.randint(1, 3))
                y = term(algebra, basis, rng.choice(parts), rng.randint(1, 3))
            else:
                x = _random_element(rng, algebra, basis, [1, 2])
                y = _random_element(rng, algebra, basis, [1, 2])
            lhs = coproduct(product(x, y))
            rhs = coproduct(x).product(coproduct(y))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------


def test_pairing_examples():
    assert pairing(H(2, 1), M(2, 1)) == 1
    assert pairing(R(2), F(1, 1)) == 0
    assert pairing(H(1, 1), F(2)) == 1
    # <R_a, F_b> = delta in every degree <= 5
    for n in range(1, 6):
        for a in compositions_of(n):
            for b in compositions_of(n):
                assert pairing(R(*a.parts), F(*b.parts)) == (1 if a == b else 0)


_PAIRING_LEFT = [("NSym", "H"), ("NSym", "R"), ("NSym", "E"), ("NSym", "Q"), ("Peak", "Xi")]
_PAIRING_RIGHT = [("QSym", "M"), ("QSym", "F"), ("PeakDual", "K"), ("PeakDual", "N")]
_PAIRING_RIGHT += [("Sym", b) for b in BASES["Sym"]] + [("Omega", b) for b in BASES["Omega"]]


def test_pairing_basis_independent():
    rng = random.Random(3)
    for _ in range(20):
        x = _random_element(rng, "NSym", "H", [1, 2, 3])
        y = _random_element(rng, "QSym", "M", [1, 2, 3])
        v = pairing(x, y)
        assert pairing(convert(x, "R"), convert(y, "F")) == v
        assert pairing(convert(x, "E"), y) == v
    # whichever dual pair pairing reads, (R, F) or (H, M), the value is the
    # one of both sides converted to (H, M) by hand, on every accepted pair
    rng = random.Random(41)
    for left in _PAIRING_LEFT:
        for right in _PAIRING_RIGHT:
            for _ in range(3):
                x = _fraction_element(rng, *left)
                y = _fraction_element(rng, *right)
                a = convert(x, "H", "NSym").coeffs
                b = convert(y, "M", "QSym").coeffs
                want = sum(c * b.get(k, 0) for k, c in a.items())
                assert pairing(x, y) == want, (left, right, x, y)


def test_peak_pairing():
    assert peak_pairing(Xi(3), K(3, 2)) == 0
    q1 = convert(Q(1), "Xi", "Peak")
    assert peak_pairing(q1, K(1)) == 2
    for n in range(1, 7):
        for P in peak_sets_in(n):
            for Qs in peak_sets_in(n):
                assert peak_pairing(term("Peak", "Xi", P), term("PeakDual", "K", Qs)) == (
                    1 if P == Qs else 0
                )


def test_duality_chain():
    # <Theta(F), f> = <F, vartheta(f)> = [Theta(F), vartheta(f)]
    for n in range(1, 6):
        for a in compositions_of(n):
            for b in compositions_of(n):
                big_f = R(*a.parts)
                small_f = F(*b.parts)
                lhs = pairing(convert(theta_transform(big_f), "H", "NSym"), small_f)
                mid = pairing(big_f, convert(vartheta_map(small_f), "F", "QSym"))
                rhs = peak_pairing(theta_transform(big_f), vartheta_map(small_f))
                assert lhs == mid == rhs


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


def test_theta_transform_examples():
    assert theta_transform(R(2)) == 2 * Xi(2)
    assert theta_transform(R(1, 1)) == 2 * Xi(2)
    x = theta_transform(H(1, 1, 1))
    assert convert(x, "H", "NSym") == 8 * H(1, 1, 1)


def test_theta_transform_matches_the_two_step_route():
    # the old route: H_alpha -> Q_alpha in NSym, then the class read into Peak
    rng = random.Random(23)
    for basis in ("H", "R", "E", "Q"):
        for _ in range(25):
            x = _random_element(rng, "NSym", basis, [1, 2, 3, 4, 5, 6])
            q = FreeElement("NSym", "Q", convert(x, "H").coeffs)
            assert theta_transform(x) == convert(q, "Xi", "Peak"), x


def test_theta_ribbon_formula():
    # Theta(R_alpha) = sum over peak sets P inside D(alpha) triangle (D+1)
    # of 2^(|P|+1) Xi_P
    for n in range(1, 7):
        for a in compositions_of(n):
            image = theta_transform(R(*a.parts))
            window = symmetric_difference_shift(a.descent_set())
            expected = FreeElement.zero("Peak", "Xi")
            for P in peak_sets_in(n):
                if P.elements <= window:
                    expected = expected + term(
                        "Peak", "Xi", P, 2 ** (len(P.elements) + 1)
                    )
            assert image == expected


def test_vartheta_examples():
    # P((2,1)) = {2} (its descent class {132, 231} has the literal peak at 2)
    # while P((1,2)) is empty
    assert vartheta_map(F(2, 1)) == K(3, 2)
    assert vartheta_map(F(1, 2)) == K(3)
    assert vartheta_map(F(3)) == K(3)
    assert vartheta_map(M(1)) == K(1)


def test_pi_theta_examples():
    assert forgetful_pi(H(2, 1)) == h(2, 1)
    assert theta_sym(p(2)) == FreeElement.zero("Omega", "podd")
    assert theta_sym(p(3)) == 2 * term("Omega", "podd", (3,))
    q1 = theta_sym(h(1))
    assert q1 == convert(term("Omega", "q", (1,)), "podd")


def test_square_diagram_commutes():
    # pi(Theta(x)) = theta(pi(x)) checked in the power-sum basis, on the
    # generators and on 200 random elements of degree at most 6
    rng = random.Random(77)
    elements = [H(n) for n in range(1, 7)]
    for _ in range(200):
        elements.append(_random_element(rng, "NSym", "H", [1, 2, 3, 4, 5, 6]))
    for x in elements:
        lhs = convert(forgetful_pi(convert(theta_transform(x), "H", "NSym")), "p")
        rhs = convert(convert(theta_sym(forgetful_pi(x)), "p", "Sym"), "p")
        assert lhs == rhs


def test_vartheta_restricted_to_sym_is_theta():
    for lam in [(1,), (2,), (2, 1), (3,), (1, 1, 1), (3, 1)]:
        g = term("Sym", "h", lam)
        lhs = vartheta_map(convert(sym_into_qsym(g), "F", "QSym"))
        rhs = omega_into_peakdual(theta_sym(g))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# peak functions
# ---------------------------------------------------------------------------


def test_k_expansion_examples():
    f, m = k_expansions(PS(2))
    assert f == 2 * F(2) + 2 * F(1, 1)
    # derived from the definition: only (2,1) and (1,2) have 2 in D triangle (D+1)
    f, m = k_expansions(PS(3, 2))
    assert f == 4 * F(2, 1) + 4 * F(1, 2)
    assert m == 4 * M(2, 1) + 4 * M(1, 2) + 8 * M(1, 1, 1)
    f, m = k_expansions(PS(1))
    assert f == 2 * F(1) and m == 2 * M(1)


def test_k_expansions_agree():
    for n in range(1, 9):
        for P in peak_sets_in(n):
            f, m = k_expansions(P)
            assert convert(m, "F") == f
    # K_{empty_n} = q_n = 2 sum_alpha F_alpha
    for n in range(1, 9):
        f, m = k_expansions(PeakSet(n, frozenset()))
        total = FreeElement.zero("QSym", "F")
        for a in compositions_of(n):
            total = total + term("QSym", "F", a, 2)
        assert f == total
        qn = omega_into_peakdual(theta_sym(h(n)))
        assert qn == term("PeakDual", "K", PeakSet(n, frozenset()))


def test_peak_dims():
    # dim Peak_n = dim PeakDual_n = number of peak sets (perfect pairing)
    for n in range(1, 9):
        xs = [convert(term("Peak", "Xi", P), "R", "NSym") for P in peak_sets_in(n)]
        assert graded_rank(xs, n) == len(peak_sets_in(n))
        ys = [convert(term("PeakDual", "K", P), "F", "QSym") for P in peak_sets_in(n)]
        assert graded_rank(ys, n) == len(peak_sets_in(n))


# ---------------------------------------------------------------------------
# inner product on the q-generated ring
# ---------------------------------------------------------------------------


def test_omega_inner_product():
    p1 = term("Omega", "podd", (1,))
    p3 = term("Omega", "podd", (3,))
    p11 = term("Omega", "podd", (1, 1))
    assert omega_inner_product(p1, p1) == Fraction(1, 2)
    assert omega_inner_product(p3, p1) == 0
    assert omega_inner_product(p11, p11) == Fraction(1, 2)
    assert omega_inner_product(p3, p3) == Fraction(3, 2)
    with pytest.raises(MembershipError):
        omega_inner_product(convert(p(2), "p"), p1)


def test_graded_rank_examples():
    assert graded_rank([H(2), H(1, 1)], 2) == 2
    q2 = convert(Q(2), "H")
    assert graded_rank([q2, H(1, 1)], 2) == 1
    assert graded_rank([], 2) == 0


# ---------------------------------------------------------------------------
# Euler relations and the generator identity (small degrees; acceptance
# re-runs them at the full stated bounds)
# ---------------------------------------------------------------------------


def test_euler_relations_small():
    for n in range(1, 7):
        total = FreeElement.zero("NSym", "H")
        for r in range(0, n + 1):
            qr = convert(Q(*([r] if r else [])), "H") if r else unit("NSym", "H")
            qs = convert(Q(*([n - r] if n - r else [])), "H") if n - r else unit(
                "NSym", "H"
            )
            total = total + product(qr, qs).scale((-1) ** r)
        assert not total


def test_generator_ribbon_identity_small():
    for n in range(1, 7):
        rhs = FreeElement.zero("NSym", "R")
        for k in range(n):
            rhs = rhs + term("NSym", "R", C(*([1] * k + [n - k])), 2)
        assert convert(Q(n), "R") == rhs


def test_gessel_formula_small():
    # <R_beta, r_alpha> equals the double-descent-class count
    for n in range(1, 6):
        comps = compositions_of(n)
        classes = {a: set(descent_class(a)) for a in comps}
        inv_class = {}
        for a, ws in classes.items():
            for w in ws:
                inv_class[w] = a
        for a in comps:
            r_a = sym_into_qsym(forgetful_pi(R(*a.parts)))
            for b in comps:
                count = 0
                from peakhc.combinat import word_inverse

                for w in classes[a]:
                    if inv_class[word_inverse(w)] == b:
                        count += 1
                assert pairing(R(*b.parts), r_a) == count


def test_strict_partition_dims():
    # dim Omega_n = number of strict partitions; q-monomials on strict
    # partitions span exactly
    for n in range(1, 9):
        qs = [
            convert(term("Omega", "q", lam), "podd")
            for lam in strict_partitions_of(n)
        ]
        assert graded_rank(qs, n) == len(strict_partitions_of(n))


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        FreeElement("NSym", "H", {C(2): 0.5})
    with pytest.raises(TypeError):
        term("QSym", "F", C(1, 1), 1.0)
    with pytest.raises(TypeError):
        term("NSym", "R", C(2)).scale(0.5)
    with pytest.raises(TypeError):
        coproduct(term("NSym", "H", C(1))).scale(0.5)
    with pytest.raises(TypeError):
        TensorElement("NSym", "H", {(C(1), C(1)): 0.5})
    assert term("NSym", "H", C(2), Fraction(1, 2)).coefficient(C(2)) == Fraction(1, 2)


def test_constructors_add_the_coefficients_of_one_index():
    # a tuple and a Composition spell the same index: their coefficients
    # add up, and a sum that cancels leaves no term
    x = FreeElement("NSym", "H", {(1, 2): 1, C(1, 2): 2})
    assert x == term("NSym", "H", C(1, 2), 3) and str(x) == "3*H[1,2]"
    assert FreeElement("NSym", "H", {(1, 2): 1, C(1, 2): -1}) == FreeElement.zero("NSym", "H")
    assert str(FreeElement("NSym", "H", {(1, 2): 1, C(1, 2): -1})) == "0"
    assert FreeElement("NSym", "H", {(1, 2): 1, C(1, 2): 0}) == term("NSym", "H", C(1, 2))
    # a partition index is read as a tuple of its parts, so range(2, 0, -1) is (2, 1)
    y = FreeElement("Sym", "h", {(2, 1): Fraction(1, 2), range(2, 0, -1): Fraction(1, 2)})
    assert y == term("Sym", "h", (2, 1)) and type(y.coefficient((2, 1))) is int
    t = TensorElement("NSym", "H", {((1,), (2,)): 1, (C(1), C(2)): 2, ((2,), C(1)): 1})
    assert t.coeffs == {(C(1), C(2)): 3, (C(2), C(1)): 1}
    assert TensorElement("NSym", "H", {((1,), (2,)): 1, (C(1), C(2)): -1}).coeffs == {}


def test_term_equals_the_constructor_on_every_basis():
    # term builds its one-key element directly; it must agree with the
    # FreeElement constructor, tuple and instance indices alike, and raise
    # what the constructor raises
    coeffs = [1, -3, Fraction(2, 3), Fraction(4, 2), True, 0]
    for algebra, bases in BASES.items():
        for basis in bases:
            for n in range(5):
                for idx in _indices(algebra, basis, n):
                    spellings = [idx] if isinstance(idx, PeakSet) else [idx, tuple(idx)]
                    for index in spellings:
                        for c in coeffs:
                            got = term(algebra, basis, index, c)
                            want = FreeElement(algebra, basis, {index: c})
                            assert got == want and str(got) == str(want), (basis, idx, c)
                            assert all(type(v) is int or type(v) is Fraction
                                       for v in got.coeffs.values())
    for bad in [(True, 1), (2.0,), (1, 1.5), (0, 2), (2, -1), ("2",)]:
        for basis in ("H", "R"):
            for build in (lambda: term("NSym", basis, bad),
                          lambda: FreeElement("NSym", basis, {bad: 1})):
                want = ValueError if all(type(x) is int for x in bad) else TypeError
                with pytest.raises(want, match="composition parts must be"):
                    build()
    with pytest.raises(ConversionError):
        term("NSym", "F", (1,))
    with pytest.raises(TypeError):
        term("NSym", "H", (1,), 0.5)
    with pytest.raises(TypeError):
        term("Peak", "Xi", (1,))
    with pytest.raises(ValueError):
        term("Sym", "h", (1, 2))
    # a zero coefficient gives zero before the index is read, as in the
    # constructor
    assert not term("NSym", "H", (0,), 0) and not FreeElement("NSym", "H", {(0,): 0})


# the dependent input tags and the basis their products land in
_DEPENDENT = {("NSym", "Q"): "H", ("PeakDual", "N"): "K", ("Sym", "r"): "h", ("Omega", "q"): "podd"}


def test_bases_lists_the_table_rows_per_algebra_in_order():
    assert list(BASES.items()) == [
        ("NSym", ("H", "E", "R", "Q")),
        ("QSym", ("M", "F")),
        ("Peak", ("Xi",)),
        ("PeakDual", ("K", "N")),
        ("Sym", ("h", "m", "p", "r")),
        ("Omega", ("q", "podd")),
    ]
    assert list(hopf._BASES) == [(a, b) for a, bases in BASES.items() for b in bases]
    assert {key: row[1] for key, row in hopf._BASES.items() if row[1]} == _DEPENDENT


@pytest.mark.parametrize(
    "x",
    [H(2, 1), term("Peak", "Xi", PeakSet(4, frozenset({2}))), term("PeakDual", "K", PeakSet(4, frozenset({2}))),
     M(1, 2), h(2, 1), term("Sym", "m", (2, 1)), term("Sym", "p", (3,)), term("Omega", "podd", (3,))],
    ids=["H", "Xi", "K", "M", "h", "m", "p", "podd"],
)
@pytest.mark.parametrize("algebra, tag", list(_DEPENDENT), ids=[t for _a, t in _DEPENDENT])
def test_no_conversion_goes_into_a_dependent_tag(algebra, tag, x):
    # refused before any conversion is tried: M_(1,2) lies outside PeakDual,
    # and into N it meets the refusal, not the membership test
    with pytest.raises(ConversionError) as info:
        convert(x, tag, algebra)
    assert str(info.value) == "cannot convert into the dependent tag %s" % tag


@pytest.mark.parametrize("algebra, tag", list(_DEPENDENT), ids=[t for _a, t in _DEPENDENT])
def test_a_dependent_tag_converts_into_itself_and_multiplies_into_its_table_basis(algebra, tag):
    index = {"Q": (2, 1), "N": (2, 1), "r": (1, 2), "q": (3, 1)}[tag]
    x = term(algebra, tag, index) + term(algebra, tag, (1,))
    assert convert(x, tag) is x
    prod = product(x, x)
    assert prod.basis == _DEPENDENT[(algebra, tag)] == hopf._BASES[(algebra, tag)][1]
    y = convert(x, prod.basis)
    assert prod == product(y, y) and prod


def _indices(algebra, basis, n):
    if basis in ("Xi", "K"):
        return peak_sets_in(n) if n else [PeakSet(0, frozenset())]
    if (algebra, basis) in (("Sym", "h"), ("Sym", "m"), ("Sym", "p"), ("Omega", "q")):
        return partitions_of(n)
    if basis == "podd":
        return [lam for lam in partitions_of(n) if all(x % 2 for x in lam)]
    return compositions_of(n) if n else [Composition(())]


def _exact(values):
    return all(type(v) is int or isinstance(v, Fraction) for v in values)


def test_coefficients_stay_exact_through_degree_5():
    elements = [
        term(alg, basis, idx)
        for alg, bases in BASES.items()
        for basis in bases
        for n in range(6)
        for idx in _indices(alg, basis, n)
    ]
    converted = 0
    for x in elements:
        for alg, bases in BASES.items():
            for basis in bases:
                try:
                    y = convert(x, basis, alg)
                except (ConversionError, MembershipError):
                    continue
                converted += 1
                assert _exact(y.coeffs.values()), (x, alg, basis, y)
        for y in elements:
            if (y.algebra, y.basis) != (x.algebra, x.basis) or y.degrees()[0] > 2:
                continue
            assert _exact(product(x, y).coeffs.values()), (x, y)
        assert _exact(coproduct(x).coeffs.values()), x
    assert converted > len(elements)


def test_coefficients_are_int_while_integral():
    two = term("NSym", "H", C(2), Fraction(4, 2)).coefficient(C(2))
    assert two == 2 and type(two) is int
    third = term("NSym", "H", C(2), Fraction(1, 3)).coefficient(C(2))
    assert third == Fraction(1, 3) and type(third) is Fraction
    one = term("QSym", "F", C(1), True).coefficient(C(1))
    assert one == 1 and type(one) is int
    scaled = term("NSym", "H", C(2), 3).scale(Fraction(4, 2))
    assert scaled.coefficient(C(2)) == 6 and type(scaled.coefficient(C(2))) is int
    t = coproduct(term("NSym", "H", C(1))).scale(Fraction(6, 3))
    assert all(type(c) is int for c in t.coeffs.values())
    t = TensorElement("NSym", "H", {(C(1), C(1)): Fraction(4, 2), (C(2), C()): 0})
    assert t.coeffs == {(C(1), C(1)): 2} and type(t.coeffs[(C(1), C(1))]) is int


def test_pairings_are_int_while_integral():
    q1 = term("Omega", "q", (1,))
    value = omega_inner_product(q1, q1)
    assert value == 2 and type(value) is int
    value = peak_pairing(Xi(0).scale(Fraction(1, 2)), K(0).scale(2))
    assert value == 1 and type(value) is int
    value = pairing(H(1).scale(Fraction(1, 2)), M(1).scale(2))
    assert value == 1 and type(value) is int


def _stored_exactly(x):
    """Every stored coefficient is nonzero and an int or a non-integral
    Fraction: the one representation of a rational."""
    return all(
        c and (type(c) is int or type(c) is Fraction and c.denominator != 1)
        for c in x.coeffs.values()
    )


def _fraction_element(rng, algebra, basis, top=4):
    """Up to three terms of degree <= top with coefficients like 1/2, -3/2, 2/3."""
    coeffs = {}
    for _ in range(3):
        idx = rng.choice(_indices(algebra, basis, rng.randint(0, top)))
        coeffs[idx] = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
    return FreeElement(algebra, basis, coeffs)


def _or_none(f, *args):
    try:
        return f(*args)
    except (ConversionError, MembershipError):
        return None


_MORPHISM_DOMAINS = (
    (theta_transform, ("NSym", "Peak")),
    (vartheta_map, ("QSym", "PeakDual", "Sym", "Omega")),
    (forgetful_pi, ("NSym", "Peak")),
    (theta_sym, ("Sym", "Omega")),
    (sym_into_qsym, ("Sym",)),
    (omega_into_peakdual, ("Sym", "Omega")),
)


@pytest.mark.parametrize(
    "x", [H(3), M(2, 1), h(2, 1), term("Omega", "q", (3,))], ids=["H", "M", "h", "q"]
)
@pytest.mark.parametrize("f, domain", _MORPHISM_DOMAINS, ids=[f.__name__ for f, _ in _MORPHISM_DOMAINS])
def test_morphisms_reject_a_wrong_algebra_with_a_conversion_error(f, domain, x):
    if x.algebra not in domain:
        with pytest.raises(ConversionError):
            f(x)
    elif f is omega_into_peakdual and x.algebra == "Sym":
        # h_(2,1) has an even power-sum part, so it is outside the q-ring
        with pytest.raises(MembershipError):
            f(x)
    else:
        assert isinstance(f(x), FreeElement)


def test_nsym_morphisms_reject_a_zero_of_another_algebra():
    for f in (theta_transform, forgetful_pi):
        with pytest.raises(ConversionError):
            f(FreeElement.zero("QSym", "M"))


def test_every_operation_stores_int_or_a_proper_fraction():
    rng = random.Random(19)
    half = term("NSym", "H", C(1), Fraction(1, 2)).scale(2)
    assert half.coefficient(C(1)) == 1 and _stored_exactly(half)
    targets = [(alg, basis) for alg, bases in BASES.items() for basis in bases]
    seen = []
    for alg, basis in targets:
        for _ in range(2):
            x = _fraction_element(rng, alg, basis)
            y = _fraction_element(rng, alg, basis, top=2)
            images = [_or_none(convert, x, b, a) for a, b in targets]
            # a second conversion reaches the membership solves and reads
            images += [_or_none(convert, z, b, a) for z in images if z for a, b in targets]
            images += [x.scale(2), x.scale(6), x.scale(Fraction(3, 2)), x + x, x - y, x - x]
            images.append(_or_none(product, x, y))
            for f, domain in _MORPHISM_DOMAINS:
                if alg in domain:
                    images.append(_or_none(f, x))
            tensor = coproduct(x)
            images += [tensor, tensor.scale(2), tensor.scale(Fraction(3, 2))]
            images += [tensor + tensor, tensor - tensor]
            for z in images:
                if z is not None:
                    assert _stored_exactly(z), (x, y, z)
                    seen.append(z)
    assert len(seen) > 1000


def _int_while_integral(values):
    """Every integral value is an int, not an integral Fraction."""
    values = list(values)
    assert values
    return all(type(v) is int for v in values if v == int(v))


def test_solve_outputs_are_int_while_integral():
    # the K-, m- and h-solves and the p-expansions return Fractions; the
    # boundary makes the integral ones int
    for n in range(7):
        for P in peak_sets_in(n) if n else [PS(0)]:
            f = convert(term("PeakDual", "K", P), "F", "QSym")
            k = convert(f, "K", "PeakDual")
            assert k == term("PeakDual", "K", P)
            assert all(type(c) is int for c in k.coeffs.values()), P
        for lam in strict_partitions_of(n):
            k = omega_into_peakdual(term("Omega", "q", lam))
            assert _int_while_integral(k.coeffs.values()), lam
        for lam in partitions_of(n):
            qsym = sym_into_qsym(term("Sym", "h", lam))
            assert all(type(c) is int for c in qsym.coeffs.values()), lam
            m = convert(qsym, "m", "Sym")
            assert _int_while_integral(m.coeffs.values()), lam
            h = convert(m, "h")
            assert h == term("Sym", "h", lam)
            assert all(type(c) is int for c in h.coeffs.values()), lam


def test_basis_change_tables_have_int_entries_through_degree_7():
    # (-1) ** k with k < 0 is the float -1.0, and Fraction() would hide it
    for n in range(8):
        comps = compositions_of(n) if n else [Composition(())]
        peaks = peak_sets_in(n) if n else [PeakSet(0, frozenset())]
        tables = [("_e_in_h", n, hopf._e_in_h(n)), ("_q_in_h", n, hopf._q_in_h(n))]
        for lam in partitions_of(n):
            tables += [("_sym_in_m " + b, lam, hopf._sym_in_m(b, lam).items()) for b in "hpm"]
        for a in comps:
            tables += [("_h_expansion " + b, a, hopf._h_expansion(b, a.code)) for b in "HREQ"]
            tables += [
                (f.__name__, a, f(a.code))
                for f in (
                    hopf._h_to_r,
                    hopf._f_to_m,
                    hopf._m_to_f,
                    hopf._n_in_k,
                    hopf._coprod_h_single,
                    hopf._coprod_m_single,
                )
            ]
        for P in peaks:
            tables += [(f.__name__, P, f(P.code)) for f in (hopf._k_in_f, hopf._k_in_m)]
        for name, arg, table in tables:
            bad = [c for _key, c in table if type(c) is not int]
            assert not bad, (name, arg, bad[:3])
        converted = [convert(term("NSym", "R", a), "H") for a in comps]
        converted += [convert(term("QSym", "F", a), "M") for a in comps]
        converted += [convert(term("QSym", "M", a), "F") for a in comps]
        converted += [convert(term("PeakDual", "K", P), "F", "QSym") for P in peaks]
        converted += [convert(term("Sym", "p", lam), "h") for lam in partitions_of(n)]
        for y in converted:
            assert all(type(c) is int for c in y.coeffs.values()), y
