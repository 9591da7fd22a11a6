from fractions import Fraction

import pytest

from peakhc.combinat import Composition, PeakSet, compositions_of
from peakhc.characteristic import (
    ModuleClass,
    cartan_image,
    class_of_module,
    corner_restriction_terms,
    decompose_projective,
    gessel_pairing,
    hecke_class_of_module,
    restriction_class_sides,
    theta_ribbon_formula,
    verify_bialgebra_compatibility,
    verify_corner_restriction,
    verify_diagrams,
    verify_projective_pairings,
    verify_restriction_to_hecke,
    verify_restriction_vectors,
)
from peakhc.hopf import FreeElement, coproduct, term, theta_transform
from peakhc.linalg import solve_unique
from peakhc.supermodules import (
    RelationError,
    Supermodule,
    hecke_composition_multiplicities,
    hecke_simple_hom_dims,
    hom_space,
    induce_clifford,
    outer_tensor,
    parabolic_induce,
    projective_hecke,
    projective_hom_dim,
    restrict_hecke,
    restriction_vectors,
    simple_hecke,
    submodule_on_vectors,
)

from oracles import (
    hom_dim_to_hecke_simple,
    inherited_relation_failure,
    peak_sets_by_subset_walk,
    phi_on_peak,
    relation_routes,
    restrict_parabolic,
    with_one_entry_changed,
)


def C(*parts):
    return Composition(tuple(parts))


def PS(n, *elems):
    return PeakSet(n, frozenset(elems))


def test_class_of_simple_modules():
    # the induced-simple class is K over its peak set
    st = induce_clifford(simple_hecke(C(2, 1)))
    cls = class_of_module(st)
    assert cls.payload == term("PeakDual", "K", PS(3, 2))
    st = induce_clifford(simple_hecke(C(1, 2)))
    assert class_of_module(st).payload == term("PeakDual", "K", PS(3))


def _class_by_hom(module):
    """The Hom route: d_a = dim Hom(Ind P_a, module) from the intertwiner
    systems, then [Theta(R_a), x] = d_a solved exactly."""
    from peakhc.characteristic import _theta_row

    rows = []
    for a in compositions_of(module.rank):
        pt = induce_clifford(projective_hecke(a))
        rows.append((_theta_row(a), hom_space(pt, module).total_dim))
    return FreeElement("PeakDual", "K", solve_unique(rows))


def test_theta_row_matches_the_subset_walk():
    # slow route: every peak set in [n] by the subset walk, filtered by the
    # window D(alpha) .. (D(alpha)+1)
    from peakhc.characteristic import _theta_row

    for n in range(1, 11):
        walk = peak_sets_by_subset_walk(n)
        for a in compositions_of(n):
            d = a.descent_set()
            window = d ^ {x + 1 for x in d}
            want = [(P, 2 ** (len(P.elements) + 1)) for P in walk if P.elements <= window]
            assert list(_theta_row(a).items()) == want, a


def test_class_of_module_matches_hom_route():
    alphas = [a for n in range(1, 4) for a in compositions_of(n)] + [C(2, 2)]
    for a in alphas:
        st = induce_clifford(simple_hecke(a))
        assert class_of_module(st).payload == _class_by_hom(st), a


def test_hecke_classes():
    s = simple_hecke(C(1, 2))
    assert hecke_class_of_module(s).payload == term("QSym", "F", C(1, 2))
    # P_(2,1) has the one simple top S_(2,1), so its class is R_(2,1)
    assert hecke_simple_hom_dims(projective_hecke(C(2, 1))) == {C(2, 1): 1}


def test_class_integrality_guard():
    with pytest.raises(ValueError):
        ModuleClass("Gt", term("PeakDual", "K", PS(2), Fraction(1, 2)))


def test_module_class_compares_unequal_to_another_type():
    g = ModuleClass("G", term("QSym", "F", C(1)))
    assert g == ModuleClass("G", term("QSym", "F", C(1)))
    assert g != None  # noqa: E711
    assert g != term("QSym", "F", C(1))
    assert g != ModuleClass("K", term("NSym", "R", C(1)))


def test_theta_ribbon_reports():
    for n in range(1, 6):
        for a in compositions_of(n):
            image, expected = theta_ribbon_formula(a)
            assert image == expected, a


def test_cartan_image():
    filt, via_pi = cartan_image(C(4))
    assert filt == via_pi == term("PeakDual", "K", PS(4))
    # alpha = (2,1): inverses of {132, 231} are 132 and 312 with peak sets
    # {2} and {} respectively
    filt, via_pi = cartan_image(C(2, 1))
    assert filt == via_pi == term("PeakDual", "K", PS(3, 2)) + term(
        "PeakDual", "K", PS(3)
    )
    for n in range(1, 6):
        for a in compositions_of(n):
            filt, via_pi = cartan_image(a)
            assert filt == via_pi, a


def test_decompose_projective():
    assert decompose_projective(C(4)) == [(PS(4), 1)]
    assert decompose_projective(C(1, 1)) == [(PS(2), 1)]
    got = decompose_projective(C(2, 1))
    assert got == [(PS(3), 1), (PS(3, 2), 2)]
    # dimension bookkeeping: the sum over the decomposition of
    # multiplicity * dim Hom(tilde P, tilde S) signatures is consistent
    assert verify_projective_pairings(3) == (True, [])


def test_projective_pairings_induce_each_simple_once(monkeypatch):
    from peakhc import characteristic

    calls = []

    def counted(module):
        calls.append(module)
        return induce_clifford(module)

    monkeypatch.setattr(characteristic, "induce_clifford", counted)
    assert verify_projective_pairings(4) == (True, [])
    assert len(calls) == len(compositions_of(4))


def test_restriction_class_rule():
    left, right = restriction_class_sides(C(3))
    expected = FreeElement.zero("NSym", "R")
    for k in range(3):
        expected = expected + term("NSym", "R", C(*([3 - k] + [1] * k)), 2)
    assert left == right == expected
    for n in range(1, 6):
        for a in compositions_of(n):
            ok, witness = verify_restriction_to_hecke(a)
            assert ok and "hom-mismatch" not in witness, (a, witness)


def test_phi_of_a_ribbon_image_is_the_reversed_ribbon_image():
    # restriction_class_sides reads phi(Theta(R_a)) as Theta(R_rev(a)); the
    # slow route solves for a preimage under Theta, reverses it, re-applies
    for n in range(1, 8):
        for a in compositions_of(n):
            fast = theta_transform(term("NSym", "R", a.reverse()))
            assert phi_on_peak(theta_transform(term("NSym", "R", a))) == fast, a


def test_restriction_vectors_report():
    for n in (1, 2, 3, 4):
        ok, witness = verify_restriction_vectors(n)
        assert ok, (n, witness)
        assert sorted(witness["seeds"]) == ["even", "odd"]


def test_hook_submodules_inherit_the_relations_of_the_restriction(monkeypatch):
    # verify_restriction_vectors checks the Hecke restriction once; each of
    # the 2n hook submodules it spins inherits the relations and grading
    # through its embedding, which the oracle checks directly
    from peakhc import characteristic

    spun, checked = [], []

    def recorded(module, vectors):
        sub, basis = submodule_on_vectors(module, vectors)
        spun.append((module, sub, basis))
        return sub, basis

    real_check = Supermodule.check

    def recorded_check(self):
        checked.append(self)
        return real_check(self)

    monkeypatch.setattr(characteristic, "submodule_on_vectors", recorded)
    monkeypatch.setattr(Supermodule, "check", recorded_check)
    for n in range(1, 6):
        spun.clear()
        checked.clear()
        assert verify_restriction_vectors(n)[0], n
        want = restrict_hecke(restriction_vectors(n)["module"])
        assert len(spun) == 2 * n and len(checked) == 1
        for parent, sub, basis in spun:
            assert parent is checked[0]
            assert all(parent.actions[k] == want.actions[k] for k in want.actions)
            assert inherited_relation_failure(sub, parent, basis) is None, n


@pytest.mark.parametrize("key", [("T", 1), ("T", 2)])
def test_restriction_vectors_check_the_restriction_before_spinning(monkeypatch, key):
    # negative control: the Hecke restriction with one entry negated fails a
    # relation, and verify_restriction_vectors names it before any spin
    from peakhc import characteristic

    bad = with_one_entry_changed(restrict_hecke(restriction_vectors(3)["module"]), key,
                                 lambda v: -v)
    failed, _by_products = relation_routes(bad)
    assert failed is not None
    spun = []
    monkeypatch.setattr(characteristic, "restrict_hecke", lambda _module: bad)
    monkeypatch.setattr(characteristic, "submodule_on_vectors", lambda *args: spun.append(args))
    with pytest.raises(RelationError) as info:
        verify_restriction_vectors(3)
    assert str(info.value) == "relation %s fails" % failed
    assert spun == []


def test_restriction_vectors_build_each_hook_projective_once(monkeypatch):
    # the odd and the even slot compare against the same n hooks
    from peakhc import characteristic

    built = []

    def counted(alpha):
        built.append(alpha)
        return projective_hecke(alpha)

    monkeypatch.setattr(characteristic, "projective_hecke", counted)
    for n in range(1, 6):
        built.clear()
        assert verify_restriction_vectors(n)[0], n
        assert built == [C(*([n - k] + [1] * k)) for k in range(n)], n


def test_corner_restriction():
    ok, witness = verify_corner_restriction(C(1, 2, 2))
    assert ok
    assert sorted(witness["terms"]) == sorted(
        [("2,2", 2), ("1,1,2", 2), ("1,3", 2), ("1,2,1", 2)]
    )
    assert verify_corner_restriction(C(4)) == (True, {"terms": [("3", 2)]})
    assert corner_restriction_terms(C(4)) == [(C(3), 2)]
    assert verify_corner_restriction(C(1)) == (True, {"dim": 2})
    for n in (2, 3, 4):
        for a in compositions_of(n):
            assert verify_corner_restriction(a)[0], a
    # the empty composition is a usage error, not a resource limit
    with pytest.raises(ValueError):
        verify_corner_restriction(Composition(()))


def test_corner_report_computes_each_summand_table_once(monkeypatch):
    # the rank shares one table per gamma one rank down; every gamma of
    # n - 1 is a summand of some a, so a rank makes one table per a (its
    # restriction) and one per gamma
    from peakhc import characteristic, verification

    tables = []

    def counted(module):
        tables.append(module)
        return hecke_composition_multiplicities(module)

    monkeypatch.setattr(characteristic, "hecke_composition_multiplicities", counted)
    for n in (2, 3, 4):
        tables.clear()
        assert verification._corner_rank(n) == (True, [])
        assert len(tables) == len(compositions_of(n)) + len(compositions_of(n - 1)), n


def test_diagrams():
    for n in (1, 2, 3):
        ok, witness = verify_diagrams(n)
        assert ok, witness
    # strict partitions of 4
    assert verify_diagrams(4) == (True, {"cartan-rank": 2})


def test_gessel():
    assert gessel_pairing(C(2, 1), C(1, 2)) == 1
    assert gessel_pairing(C(3), C(3)) == 1
    assert gessel_pairing(C(1, 1), C(2)) == 0
    for n in (2, 3, 4):
        for a in compositions_of(n):
            for b in compositions_of(n):
                # symmetric in the two arguments
                assert gessel_pairing(a, b) == gessel_pairing(b, a)


def test_bialgebra_compatibility_small():
    for a, b in [((1,), (1,)), ((2,), (1,)), ((1, 1), (2,)), ((2, 1), (1,))]:
        ok, witness = verify_bialgebra_compatibility(C(*a), C(*b))
        assert ok and witness["class"] == witness["product"], witness


def test_bialgebra_report_builds_each_induced_simple_once(monkeypatch):
    # every pair of total at most 4 reads its two Ind S from one dict: one
    # build per composition of 1, 2 and 3
    from peakhc import characteristic, verification

    built = []

    def counted(module):
        built.append(module)
        return induce_clifford(module)

    for namespace in (characteristic, verification):
        monkeypatch.setattr(namespace, "induce_clifford", counted)
    assert [r["status"] for r in verification.suite_bialgebra(4)] == ["verified"]
    assert len(built) == sum(len(compositions_of(k)) for k in (1, 2, 3)) == 7


def test_projective_coproduct_and_adjointness():
    # Res P_alpha along the parabolic of shape (m, k) has the ribbon
    # coproduct coefficients of R_alpha as its projective-pair
    # multiplicities; against every pair of induced simples (b1, b2) the
    # Hom-dimension signature of both sides agrees with Hom(P_alpha, the
    # parabolic induction of the pair), by adjointness
    def comps(m):
        return compositions_of(m) if m else [Composition(())]

    def hecke_mults(module):
        return hecke_composition_multiplicities(restrict_hecke(module))

    for n in (2, 3, 4):
        st = {b: induce_clifford(simple_hecke(b)) for m in range(1, n) for b in comps(m)}
        st_mults = {b: hecke_mults(mod) for b, mod in st.items()}
        for a in compositions_of(n):
            coefs = dict(coproduct(term("NSym", "R", a)).coeffs)
            for m in range(1, n):
                k = n - m
                res_p = restrict_parabolic(projective_hecke(a), (m, k))
                pair_mults = {
                    (g1, g2): hom_dim_to_hecke_simple(res_p, (g1, g2))
                    for g1 in comps(m)
                    for g2 in comps(k)
                }
                for pair, mult in pair_mults.items():
                    assert mult == coefs.get(pair, 0), (a, m, pair)
                for b1 in comps(m):
                    for b2 in comps(k):
                        pair_module = outer_tensor(
                            restrict_hecke(st[b1]), restrict_hecke(st[b2])
                        )
                        mults = hecke_composition_multiplicities(pair_module)
                        lhs = sum(
                            mult * mults.get(pair, 0) for pair, mult in pair_mults.items()
                        )
                        rhs = sum(
                            coefs.get((g1, g2), 0)
                            * st_mults[b1].get((g1,), 0)
                            * st_mults[b2].get((g2,), 0)
                            for (g1, g2) in pair_mults
                        )
                        adj = projective_hom_dim(parabolic_induce(st[b1], st[b2]), a)
                        assert lhs == rhs == adj, (a, m, b1, b2)


def test_nakayama_twist_on_classes_rank_five():
    # reversal twist identifies the simple and projective families at n = 5
    from peakhc.supermodules import (
        find_isomorphism,
        projective_hecke,
        simple_hecke,
        twist,
    )

    for a in compositions_of(5):
        tw = twist(simple_hecke(a), "phi_bar")
        assert find_isomorphism(tw, simple_hecke(a.reverse())).found
        twp = twist(projective_hecke(a), "phi_bar")
        assert find_isomorphism(twp, projective_hecke(a.reverse())).found
