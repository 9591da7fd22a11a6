import itertools
import json
import random
from fractions import Fraction

import pytest

from peakhc.combinat import (
    Composition,
    ResourceLimitError,
    compositions_of,
    descent_class,
    word_reduced,
)
from peakhc.hecke_clifford import (
    algebra_basis,
    apply_morphism,
    basis_element,
    gen_c,
    gen_T,
    multiply,
    unit,
)
from peakhc.linalg import Echelon, SparseMatrix, SpanSolver, nullspace, vec_iadd_scaled
from peakhc.scalars import GaussianRational, as_gauss
from peakhc.supermodules import (
    HomBasis,
    IsoSearch,
    ModuleMap,
    RelationError,
    Supermodule,
    act_element,
    element_matrix,
    end_clifford_check,
    find_isomorphism,
    generator_keys,
    hecke_composition_multiplicities,
    hecke_simple_hom_dims,
    hom_space,
    induce_clifford,
    module_from_json,
    module_to_json,
    outer_tensor,
    parabolic_induce,
    projective_hecke,
    projective_hom_dim,
    restrict_corner,
    restrict_hecke,
    restriction_vectors,
    simple_hecke,
    split_simple,
    submodule_on_vectors,
    twist,
)
from peakhc.supermodules import (
    _integral_idempotents,
    _map_out_of_induced,
    _seed_failure,
    _spin,
    stated_twist_isomorphisms,
)

from oracles import (
    MAX_FILTRATION_N,
    bruhat_filtration,
    clifford_idempotents,
    end_clifford_by_matrices,
    hecke_simple_hom_dims_by_columns,
    hom_dim_to_hecke_simple,
    hom_route_mismatch,
    inherited_relation_failure,
    is_morphism,
    module_mismatch,
    parabolic_induce_by_decomposition,
    parity_shift,
    relation_routes,
    restrict_parabolic,
    trivial_module,
    with_one_entry_changed,
    without_provenance,
)

_G1 = 1


def C(*parts):
    return Composition(tuple(parts))


def S(*parts):
    return simple_hecke(C(*parts))


def P(*parts):
    return projective_hecke(C(*parts))


def Stilde(*parts):
    return induce_clifford(S(*parts))


def Ptilde(*parts):
    return induce_clifford(P(*parts))


# ---------------------------------------------------------------------------
# constructions and relation checks
# ---------------------------------------------------------------------------


def test_simple_hecke():
    m = S(2)
    assert m.dim == 1 and m.actions[("T", 1)].is_zero()
    m = S(1, 1)
    assert m.actions[("T", 1)].get(0, 0) == -1
    m = S(1, 2, 1)
    assert m.actions[("T", 1)].get(0, 0) == -1
    assert m.actions[("T", 3)].get(0, 0) == -1
    assert m.actions[("T", 2)].is_zero()
    m.check()


def test_projective_hecke():
    assert P(4).dim == 1
    m = P(1, 1)
    assert m.dim == 1 and m.actions[("T", 1)].get(0, 0) == -1
    m = P(2, 1)
    assert m.dim == 2 and set(m.labels) == {(1, 3, 2), (2, 3, 1)}
    for n in range(1, 6):
        for a in compositions_of(n):
            mod = projective_hecke(a)
            mod.check()
            assert mod.dim == len(descent_class(a))


def test_induce_clifford_dims():
    assert Stilde(2).dim == 4
    assert Ptilde(1, 2).dim == 16
    assert Stilde(2, 2).dim == 16
    for n in range(1, 5):
        for a in compositions_of(n):
            st = induce_clifford(simple_hecke(a))
            st.check()
            assert st.dim == 2 ** n
            pt = induce_clifford(projective_hecke(a))
            pt.check()
            assert pt.dim == 2 ** n * len(descent_class(a))


def test_check_rejects_a_negated_clifford_action():
    good = induce_clifford(simple_hecke((1, 1)))
    good.check()
    actions = dict(good.actions)
    actions[("c", 1)] = actions[("c", 1)].scale(-1)
    bad = Supermodule(good.blocks, good.algebra, good.labels, good.parities, actions)
    with pytest.raises(RelationError, match="T_1 c_1 = c_2 T_1"):
        bad.check()


def test_relation_routes_agree_on_the_modules():
    # the walk of each word on the unit vectors and the matrix products give
    # the same answer, None, on every component of split_simple and every
    # Ind S_a and Ind P_a, a of n <= 4, on the twists of Ind S_a, a of
    # n <= 3, and on parabolic_induce of induced simples of combined rank <= 4
    alphas = [a for n in range(1, 5) for a in compositions_of(n)]
    modules = [c for a in alphas for c in split_simple(a).components]
    modules += [induce_clifford(build(a)) for a in alphas for build in (simple_hecke, projective_hecke)]
    small = [a for a in alphas if a.n <= 3]
    modules += [twist(induce_clifford(simple_hecke(a)), tag)
                for a in small for tag in ("phi", "phi_prime", "psi", "psi_prime")]
    simples = [induce_clifford(simple_hecke(a)) for a in small]
    modules += [parabolic_induce(m1, m2) for m1 in simples for m2 in simples
                if m1.rank + m2.rank <= 4]
    assert len(modules) == 20 + 30 + 28 + 17
    for module in modules:
        assert relation_routes(module) == (None, None)
        module.check()


@pytest.mark.parametrize(
    "module, key, change",
    [
        # one entry of T_1 with its sign flipped, in a component with Q(i) entries
        (lambda: split_simple(C(2, 2)).components[0], ("T", 1), lambda v: -v),
        # one entry of c_2 doubled in an induced projective
        (lambda: induce_clifford(projective_hecke(C(1, 2))), ("c", 2), lambda v: 2 * v),
    ],
)
def test_relation_routes_name_the_same_failure(module, key, change):
    bad = with_one_entry_changed(module(), key, change)
    by_vectors, by_products = relation_routes(bad)
    assert by_vectors is not None and by_vectors == by_products
    with pytest.raises(RelationError) as info:
        bad.check()
    assert str(info.value) == "relation %s fails" % by_vectors


def test_check_separates_a_failed_grading_from_a_malformed_action():
    good = induce_clifford(simple_hecke((1, 1)))
    # the T_1 action moved onto the odd part breaks the super grading: a failed case
    actions = dict(good.actions)
    odd = [i for i, par in enumerate(good.parities) if par]
    even = [i for i, par in enumerate(good.parities) if not par]
    actions[("T", 1)] = SparseMatrix.from_entries(good.dim, good.dim, [(even[0], odd[0], 1)])
    bad = Supermodule(good.blocks, good.algebra, good.labels, good.parities, actions)
    with pytest.raises(RelationError, match="not parity-homogeneous"):
        bad.check()
    # a matrix of the wrong shape is malformed input, not a failed case
    actions[("T", 1)] = SparseMatrix(good.dim + 1, good.dim)
    bad = Supermodule(good.blocks, good.algebra, good.labels, good.parities, actions)
    with pytest.raises(ValueError, match="wrong shape") as info:
        bad.check()
    assert not isinstance(info.value, RelationError)


def test_outer_tensor_relations():
    w = outer_tensor(Stilde(2), Stilde(1))
    assert w.blocks == (2, 1) and w.dim == 8
    w.check()
    w2 = outer_tensor(Stilde(1, 1), Stilde(2))
    w2.check()


def test_parabolic_induce():
    ind = parabolic_induce(Stilde(1), Stilde(1))
    assert ind.blocks == (2,) and ind.dim == 8
    ind.check()
    ind = parabolic_induce(Stilde(2), Stilde(1, 1))
    assert ind.dim == 6 * 16  # binomial(4,2) * 2^2 * 2^2... = 6 * 16
    ind.check()
    # unit law
    m = Stilde(2)
    assert parabolic_induce(m, trivial_module()) is m
    assert parabolic_induce(trivial_module(), m) is m


def test_parabolic_induce_matches_the_decomposition_route():
    """The generator steps on coset representatives give the module of the
    rewriting route, and it satisfies the relations: every ordered pair of
    Ind S_a and Ind P_a, a of n <= 4, of combined rank <= 5 and dimension
    product <= 2000 (196 pairs); then the components of ``split_simple``,
    with Q(i) entries, and the psi and phi twists of Ind S_a, a of n <= 3,
    in pairs of combined rank <= 4 (159 pairs), and pairs of components of
    combined rank 5 (20 pairs)."""
    induced = [
        induce_clifford(build(a))
        for n in range(1, 5)
        for a in compositions_of(n)
        for build in (simple_hecke, projective_hecke)
    ]
    pairs = [
        (m1, m2)
        for m1 in induced
        for m2 in induced
        if m1.rank + m2.rank <= 5 and m1.dim * m2.dim <= 2000
    ]
    assert len(pairs) == 196
    alphas = [a for n in range(1, 4) for a in compositions_of(n)]
    comps = [c for a in alphas for c in split_simple(a).components]
    twists = [
        twist(induce_clifford(simple_hecke(a)), tag) for a in alphas for tag in ("psi", "phi")
    ]
    assert any(
        isinstance(v, GaussianRational)
        for c in comps
        for mat in c.actions.values()
        for _r, _k, v in mat.entries()
    )
    factors = comps + twists
    pairs += [(m1, m2) for m1 in factors for m2 in factors if m1.rank + m2.rank <= 4]
    pairs += [(m1, m2) for m1 in comps for m2 in comps if m1.rank + m2.rank == 5]
    assert len(pairs) == 196 + 159 + 20
    for m1, m2 in pairs:
        got = parabolic_induce(m1, m2)
        assert module_mismatch(got, parabolic_induce_by_decomposition(m1, m2)) is None
        got.check()


def test_parabolic_induce_needs_the_correction_of_c_i():
    """Negative control: drop the terms c_{i+1} - c_i from the column of c_i
    on T_x (x) w, T_x = T_i T_{s_i x}; the relations fail and the module
    differs from the rewriting route."""
    m1, m2 = Stilde(2), Stilde(1)
    good = parabolic_induce(m1, m2)
    dimw = m1.dim * m2.dim
    x = (1, 3, 2)  # T_x = T_2 T_id, and the first column of T_x sits at dimw
    assert good.labels[dimw][0] == x
    actions = dict(good.actions)
    bad = actions[("c", 2)].copy()
    bad.cols[dimw] = actions[("T", 2)].apply(actions[("c", 3)].cols[0])
    assert bad != actions[("c", 2)]
    actions[("c", 2)] = bad
    mutant = Supermodule(good.blocks, "HCl", good.labels, good.parities, actions)
    with pytest.raises(RelationError):
        mutant.check()
    assert module_mismatch(mutant, parabolic_induce_by_decomposition(m1, m2)) == "action ('c', 2)"


def test_restrictions():
    st = Stilde(2)
    h = restrict_hecke(st)
    assert h.algebra == "H" and h.dim == 4
    h.check()
    par = restrict_parabolic(st, (1, 1))
    assert par.blocks == (1, 1) and par.dim == 4
    par.check()
    pt = Ptilde(1, 2)
    cor = restrict_corner(pt)
    assert cor.rank == 2 and cor.dim == 16
    cor.check()


# ---------------------------------------------------------------------------
# Hom spaces
# ---------------------------------------------------------------------------


def test_hom_examples():
    hom = hom_space(Ptilde(2), Stilde(2))
    assert hom.total_dim == 2
    assert hom_space(S(2), S(1, 1)).total_dim == 0
    ends = hom_space(Stilde(2, 2), Stilde(2, 2))
    assert ends.total_dim == 4  # 2^{|V|} with V = {1, 3}
    for f in ends.even + ends.odd:
        assert is_morphism(f)


def test_projective_pairing_via_characters():
    # dim Hom(P~_(n), S~_beta) = 2 exactly when beta has empty peak set
    for n in (2, 3, 4):
        for b in compositions_of(n):
            st = induce_clifford(simple_hecke(b))
            d = projective_hom_dim(st, C(*([n])))
            expected = 2 if not b.peak_set().elements else 0
            assert d == expected
            # a list names the same composition
            assert projective_hom_dim(st, [n]) == d
    st = induce_clifford(simple_hecke(C(2, 1)))
    assert projective_hom_dim(st, [2, 1]) == projective_hom_dim(st, (2, 1))
    with pytest.raises(ValueError):
        projective_hom_dim(outer_tensor(Stilde(1, 1), Stilde(2)), (1, 1))


def test_hom_dual_routes_agree():
    # generator route vs Frobenius reciprocity + trace multiplicities
    for n in (2, 3, 4):
        for a in compositions_of(n):
            pt = induce_clifford(projective_hecke(a))
            for b in compositions_of(n):
                st = induce_clifford(simple_hecke(b))
                direct = hom_space(pt, st).total_dim
                chars = projective_hom_dim(st, a)
                assert direct == chars


def test_hom_adjunction_route_matches_the_spin_route():
    # Hom out of Ind N through Hom_H(N, Res M), against the spin route out
    # of the same module without provenance: 318 pairs through n = 4
    pairs = 0
    for n in (1, 2, 3, 4):
        comps = list(compositions_of(n))
        targets = [induce_clifford(simple_hecke(b)) for b in comps]
        if n <= 3:
            targets += [induce_clifford(projective_hecke(b)) for b in comps]
        for a in comps:
            s = simple_hecke(a)
            odd = Supermodule(s.blocks, s.algebra, s.labels, (1,), s.actions)
            for base in (s, odd, projective_hecke(a)):
                src = induce_clifford(base)
                assert src.summand_of[0] is base and src.summand_of[1] is None
                for dst in targets:
                    assert hom_route_mismatch(src, dst) is None, (a, base.parities, dst)
                    pairs += 1
    assert pairs == 318


def test_hom_route_mismatch_catches_a_wrong_lift(monkeypatch):
    # negative control: a lift with the Clifford sign left out is wrong for
    # every odd map, and the oracle says so
    from peakhc import supermodules

    build = supermodules._map_out_of_induced
    monkeypatch.setattr(
        supermodules, "_map_out_of_induced", lambda target, images, parity: build(target, images, 0)
    )
    src = induce_clifford(simple_hecke(C(2, 2)))
    got = hom_route_mismatch(src, src)
    assert got is not None and got.startswith("parity 1:"), got


def test_hom_summand_route_matches_the_spin_route():
    # Hom out of a component of split_simple through the adjunction and
    # restriction to its basis, against the spin route out of the same
    # module without provenance: every ordered pair of components, and each
    # component into every induced simple of its rank, through n = 4
    pairs = 0
    for n in (1, 2, 3, 4):
        targets = [induce_clifford(simple_hecke(b)) for b in compositions_of(n)]
        for a in compositions_of(n):
            comps = split_simple(a).components
            for src in comps:
                for dst in comps + targets:
                    assert hom_route_mismatch(src, dst) is None, (a, dst)
                    pairs += 1
    assert pairs == 151


def test_hom_route_mismatch_catches_a_submodule_that_is_no_summand():
    # negative control: the submodule of Ind P_(1,3) spun from a column of
    # T_1 is not a summand; given the slot anyway, restriction loses the
    # maps that do not extend to Ind P_(1,3), and the oracle says so
    base = projective_hecke(C(1, 3))
    ind = induce_clifford(base)
    sub, basis = submodule_on_vectors(ind, [ind.actions[("T", 1)].cols[8]])
    assert sub.dim == 16
    sub.summand_of = (base, basis)
    dst = induce_clifford(simple_hecke(C(3, 1)))
    spin = hom_space(without_provenance(sub), dst)
    restricted = hom_space(sub, dst)
    assert (spin.even_dim, spin.odd_dim) == (2, 2)
    assert (restricted.even_dim, restricted.odd_dim) == (0, 0)
    assert hom_route_mismatch(sub, dst) == "parity 0: dimension 0, spin route 2"


def test_induced_provenance_does_not_leak():
    # only induce_clifford and split_simple record the induced module a
    # module is a summand of; every other constructor, applied to an induced
    # module or a component, records nothing
    base = projective_hecke(C(1, 2))
    ind = induce_clifford(base)
    small = induce_clifford(simple_hecke(C(1, 1)))
    assert ind.summand_of[0] is base and ind.summand_of[1] is None
    assert simple_hecke(C(2)).summand_of is None and base.summand_of is None
    built = {
        "twist": twist(ind, "phi"),
        "restrict_hecke": restrict_hecke(ind),
        "restrict_corner": restrict_corner(ind),
        "submodule_on_vectors": submodule_on_vectors(ind, [{0: 1}])[0],
        "outer_tensor": outer_tensor(small, ind),
        "parabolic_induce": parabolic_induce(small, ind),
        "module_from_json": module_from_json(module_to_json(ind)),
        "without_provenance": without_provenance(ind),
    }
    # a component records S_alpha and its basis in Ind S_alpha, an even
    # embedding of modules
    split = split_simple(C(1, 2, 1))
    want = {key: mat.cols for key, mat in S(1, 2, 1).actions.items()}
    for comp in split.components:
        hecke, embedding = comp.summand_of
        assert {key: mat.cols for key, mat in hecke.actions.items()} == want
        emb = SparseMatrix(split.module.dim, comp.dim, embedding)
        assert is_morphism(ModuleMap(comp, split.module, emb, 0))
    comp = split.components[-1]
    built.update(
        component_twist=twist(comp, "phi"),
        component_submodule=submodule_on_vectors(comp, [{0: 1}])[0],
        component_json=module_from_json(module_to_json(comp)),
        component_without_provenance=without_provenance(comp),
    )
    assert [k for k, m in built.items() if m.summand_of is not None] == []
    # the JSON round trip keeps the Hom dimensions, now by the spin route
    back = built["module_from_json"]
    for b in compositions_of(3):
        for dst in (induce_clifford(simple_hecke(b)), induce_clifford(projective_hecke(b))):
            got, want = hom_space(back, dst), hom_space(ind, dst)
            assert (got.even_dim, got.odd_dim) == (want.even_dim, want.odd_dim), b


def _kronecker_hom(src, dst):
    """Hom space from the Kronecker system in all dim(src)·dim(dst) matrix
    entries: one equation f A_key = ±B_key f per (key, i, j).  Independent
    of the generator route in ``hom_space``; used only as its oracle."""
    out = {0: [], 1: []}
    rows_of = {key: dst.actions[key].transpose() for key in dst.actions}
    for par in (0, 1):
        unknowns = [
            (i, j)
            for i in range(dst.dim)
            for j in range(src.dim)
            if (dst.parities[i] + src.parities[j]) % 2 == par
        ]
        allowed = set(unknowns)
        rows = []
        for key in src.actions:
            a = src.actions[key]
            brows = rows_of[key]
            minus_sign = _G1 if (par and key[0] == "c") else -_G1
            for j in range(src.dim):
                acol = a.cols[j]
                for i in range(dst.dim):
                    row = {(i, k): v for k, v in acol.items() if (i, k) in allowed}
                    vec_iadd_scaled(
                        row,
                        (((k, j), v) for k, v in brows.cols[i].items() if (k, j) in allowed),
                        minus_sign,
                    )
                    if row:
                        rows.append(row)
        for vec in nullspace(rows, unknowns):
            mat = SparseMatrix(dst.dim, src.dim)
            for (i, j), v in vec.items():
                mat.set(i, j, v)
            out[par].append(ModuleMap(src, dst, mat, par))
    return HomBasis(out[0], out[1])


def _assert_hom_matches_kronecker(src, dst):
    got = hom_space(src, dst)
    want = _kronecker_hom(src, dst)
    assert (got.even_dim, got.odd_dim) == (want.even_dim, want.odd_dim), (src, dst)
    ech = Echelon()
    for f in got.even + got.odd:
        assert is_morphism(f)
        ech.add({(i, j, f.parity): v for i, j, v in f.matrix.entries()})
    assert ech.rank == got.total_dim


def _generator_count(module):
    standard = [{j: _G1} for j in range(module.dim)]
    return sum(1 for ev in _spin(module, standard)[0] if ev[0] == "gen")


def test_hom_generator_route_matches_kronecker():
    for n in (1, 2, 3):
        for a in compositions_of(n):
            pt = induce_clifford(projective_hecke(a))
            for b in compositions_of(n):
                _assert_hom_matches_kronecker(pt, induce_clifford(simple_hecke(b)))
    for n in (1, 2, 3, 4):
        for a in compositions_of(n):
            comps = split_simple(a).components
            for ma, mb in itertools.product(comps, repeat=2):
                _assert_hom_matches_kronecker(ma, mb)
    for a, b in [((2,), (2,)), ((2, 1), (2, 1)), ((3,), (1, 2))]:
        _assert_hom_matches_kronecker(Stilde(*a), parity_shift(Stilde(*b)))
        _assert_hom_matches_kronecker(parity_shift(Stilde(*a)), Stilde(*b))
    # restricted to the 0-Hecke algebra the induced simples are not cyclic
    gens = []
    for a in compositions_of(3):
        ra = restrict_hecke(Stilde(*a.parts))
        gens.append(_generator_count(ra))
        for b in compositions_of(3):
            _assert_hom_matches_kronecker(ra, restrict_hecke(Stilde(*b.parts)))
    assert max(gens) == 8 and min(gens) > 1
    for a, b in [((3,), (1, 2)), ((2, 1), (2, 1)), ((1, 1, 1), (3,))]:
        ma, mb = Stilde(*a), Stilde(*b)
        for shape in [(1, 2), (2, 1)]:
            _assert_hom_matches_kronecker(
                restrict_parabolic(ma, shape), restrict_parabolic(mb, shape)
            )
        _assert_hom_matches_kronecker(restrict_corner(ma), restrict_corner(mb))
    _assert_hom_matches_kronecker(
        outer_tensor(Stilde(2), Stilde(1)), outer_tensor(Stilde(1, 1), Stilde(1))
    )
    _assert_hom_matches_kronecker(
        outer_tensor(Stilde(1, 1), Stilde(2)), outer_tensor(Stilde(1, 1), Stilde(2))
    )
    _assert_hom_matches_kronecker(trivial_module(), trivial_module())
    assert hom_space(trivial_module(), trivial_module()).even_dim == 1


# ---------------------------------------------------------------------------
# composition multiplicities: trace route vs explicit Jordan-Hoelder oracle
# ---------------------------------------------------------------------------


def _brute_jordan_hoelder(module):
    """Strip one-dimensional submodules one at a time (independent oracle)."""
    tkeys = sorted(k for k in module.actions if k[0] == "T")
    mats = [
        [
            [module.actions[k].get(r, c) or GaussianRational(0) for c in range(module.dim)]
            for r in range(module.dim)
        ]
        for k in tkeys
    ]
    blocks = module.blocks
    patterns = []
    offset = 0
    locals_per_key = []
    for key in tkeys:
        locals_per_key.append(key[1])
    from peakhc.combinat import composition_from_descents

    def eps_patterns():
        for mask in range(1 << len(tkeys)):
            yield [
                GaussianRational(-1) if mask >> i & 1 else GaussianRational(0)
                for i in range(len(tkeys))
            ], mask
        return

    counts = {}
    dim = module.dim
    while dim:
        found = None
        for eps, mask in eps_patterns():
            rows = []
            for kidx in range(len(tkeys)):
                for r in range(dim):
                    row = {}
                    for c in range(dim):
                        v = mats[kidx][r][c]
                        if r == c:
                            v = v - eps[kidx]
                        if v:
                            row[c] = v
                    if row:
                        rows.append(row)
            basis = nullspace(rows, range(dim))
            if basis:
                found = (basis[0], mask)
                break
        assert found is not None, "no common eigenvector found"
        vec, mask = found
        counts[mask] = counts.get(mask, 0) + 1
        # complete vec to a basis, rewrite matrices, drop the first coordinate
        cols = [dict(vec)]
        solver = SpanSolver()
        solver.add(0, dict(vec))
        tag = 1
        for j in range(dim):
            cand = {j: GaussianRational(1)}
            if solver.add(tag, cand):
                cols.append(cand)
                tag += 1
        newmats = []
        for kidx in range(len(tkeys)):
            new = [[GaussianRational(0)] * (dim - 1) for _ in range(dim - 1)]
            for jc in range(1, dim):
                img = {}
                for r, v in cols[jc].items():
                    for rr in range(dim):
                        vv = mats[kidx][rr][r]
                        if vv:
                            img[rr] = img.get(rr, GaussianRational(0)) + vv * v
                rep = solver.express({k: v for k, v in img.items() if v})
                assert rep is not None
                for i, v in rep.items():
                    if i >= 1 and v:
                        new[i - 1][jc - 1] = v
            newmats.append(new)
        mats = newmats
        dim -= 1
    # translate masks to composition tuples
    out = {}
    for mask, mult in counts.items():
        present = {tkeys[i][1] for i in range(len(tkeys)) if mask >> i & 1}
        comps = []
        offset = 0
        for size in blocks:
            local = [i - offset for i in present if offset + 1 <= i <= offset + size - 1]
            comps.append(composition_from_descents(size, local))
            offset += size
        out[tuple(comps)] = out.get(tuple(comps), 0) + mult
    return out


def test_multiplicities_against_bruteforce():
    cases = [
        restrict_hecke(Stilde(2)),
        restrict_hecke(Stilde(1, 1)),
        restrict_hecke(Stilde(2, 1)),
        restrict_hecke(Stilde(3)),
        projective_hecke(C(2, 1)),
        restrict_hecke(restrict_parabolic(Stilde(2), (1, 1))),
    ]
    for mod in cases:
        assert hecke_composition_multiplicities(mod) == _brute_jordan_hoelder(mod)


def test_multiplicity_example():
    # the Hecke restriction of S~_(2) has factors S_(2) and S_(1,1), twice each
    mults = hecke_composition_multiplicities(restrict_hecke(Stilde(2)))
    assert mults == {(C(2),): 2, (C(1, 1),): 2}


def test_hom_dim_to_simple():
    # multiplicity of P_gamma inside a projective equals Hom onto S_gamma
    for a in compositions_of(3):
        pa = projective_hecke(a)
        for g in compositions_of(3):
            expected = 1 if g == a else 0
            assert hom_dim_to_hecke_simple(pa, g) == expected


def test_shared_walk_matches_hom_dim_per_simple():
    # one elimination walk over the descent shifts, adding span bases,
    # against one system per gamma and against the walk on every row, on
    # Res Ind P_a, Res Ind S_a, P_a and S_a for every a of size at most 5
    for n in range(1, 6):
        for a in compositions_of(n):
            mods = (restrict_hecke(induce_clifford(projective_hecke(a))),
                    restrict_hecke(induce_clifford(simple_hecke(a))),
                    projective_hecke(a), simple_hecke(a))
            for mod in mods:
                dims = hecke_simple_hom_dims(mod)
                assert dims == hecke_simple_hom_dims_by_columns(mod), (a, mod.dim)
                for g in compositions_of(n):
                    want = hom_dim_to_hecke_simple(mod, g)
                    assert dims.get(g, 0) == want, (a, g)
                    assert (g in dims) == bool(want)
    with pytest.raises(ValueError):
        hecke_simple_hom_dims(Stilde(2))


def test_shared_walk_fails_with_one_span_row_dropped(monkeypatch):
    # negative control of the span bases: with the last row of one basis of
    # each walk dropped, the walk disagrees with the per-gamma systems and
    # the restriction-classes report fails at every rank from 2 to 4
    from peakhc import supermodules, verification

    basis = supermodules._span_basis
    calls = []

    def dropped(rows):
        calls.append(None)
        out = basis(rows)
        return out[:-1] if len(calls) == 1 else out

    monkeypatch.setattr(supermodules, "_span_basis", dropped)
    for n in range(2, 5):
        mod = restrict_hecke(induce_clifford(projective_hecke(C(n))))
        calls.clear()
        dims = hecke_simple_hom_dims(mod)
        assert any(dims.get(g, 0) != hom_dim_to_hecke_simple(mod, g)
                   for g in compositions_of(n)), n
        calls.clear()
        ok, bad = verification._restriction_classes_rank(n)
        assert not ok and len(bad) == 1, (n, bad)


# ---------------------------------------------------------------------------
# endomorphism algebras, idempotents, simple splitting
# ---------------------------------------------------------------------------


def test_end_clifford_reports():
    for parts, vdim in [((3,), 2), ((2, 2), 4), ((1, 1), 2)]:
        rep = end_clifford_check(C(*parts))
        assert rep["ok"], rep
        assert rep["end_dim"] == vdim


def _is_identity(mat) -> bool:
    return mat.nrows == mat.ncols and all(col == {j: 1} for j, col in enumerate(mat.cols))


def test_end_clifford_never_multiplies_by_the_identity(monkeypatch):
    # each ordered product of the f_v on the matrix route starts from its
    # first factor
    matmul = SparseMatrix.__matmul__
    operands = []

    def counted(self, other):
        operands.append((self, other))
        return matmul(self, other)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counted)
    for n in range(1, 5):
        for a in compositions_of(n):
            assert end_clifford_by_matrices(a)["ok"], a
    assert operands
    assert not any(_is_identity(x) or _is_identity(y) for x, y in operands)


def test_end_clifford_reports_a_failed_relation(monkeypatch):
    # without the i-rescaling the f_v square to +id, not -id
    from peakhc import supermodules

    monkeypatch.setattr(supermodules, "GAUSS_I", 1)
    rep = end_clifford_check(C(3))
    assert not rep["ok"]
    assert rep["bad_relation"] == "c_%d c_%d = -1" % (rep["valleys"][0], rep["valleys"][0])
    assert end_clifford_by_matrices(C(3)) == rep


def test_end_clifford_matches_the_matrix_route():
    # the seed, at-eta and span-at-eta checks give the report of the full
    # matrix identities, key for key
    for n in range(1, 6):
        for a in compositions_of(n):
            rep = end_clifford_check(a)
            assert rep["ok"] and rep["span_rank"] == rep["end_dim"], a
            assert rep == end_clifford_by_matrices(a), a


def _swapping_seed(monkeypatch, valley, other):
    """Patch the lift so that the f_v of ``valley`` is seeded at c_other eta."""
    from peakhc import supermodules

    build = supermodules._map_out_of_induced

    def swapped(module, images, parity):
        if images == [module.actions[("c", valley)].cols[0]]:
            images = [module.actions[("c", other)].cols[0]]
        return build(module, images, parity)

    monkeypatch.setattr(supermodules, "_map_out_of_induced", swapped)


def test_end_clifford_reports_a_seed_that_is_not_t_linear(monkeypatch):
    # negative control of the seed check: V = {1, 3} for (2, 2), and
    # eta -> c_2 eta is not T-linear (T_1 c_2 eta = c_1 eta - c_2 eta, while
    # T_1 eta = 0), so f_3 seeded there is no morphism on either route
    a = C(2, 2)
    base = simple_hecke(a)
    module = induce_clifford(base)
    assert _seed_failure(base, module, [module.actions[("c", 2)].cols[0]]) is not None
    _swapping_seed(monkeypatch, 3, 2)
    rep = end_clifford_check(a)
    assert not rep["ok"] and rep["bad_generator"] == 3
    assert end_clifford_by_matrices(a) == rep


def test_end_clifford_reports_coinciding_products(monkeypatch):
    # negative control of the span check: with f_3 seeded at c_1 eta (a
    # T-linear seed) the products 1 and f_1 f_3 coincide at eta, as do f_1
    # and f_3, so the rank is 2, not 4; the relation check, which would
    # see the two maps commute, is switched off to reach the span
    from peakhc import supermodules

    _swapping_seed(monkeypatch, 3, 1)
    monkeypatch.setattr(supermodules, "failing_relation", lambda *_args, **_kw: None)
    rep = end_clifford_check(C(2, 2))
    assert rep["end_dim"] == 4 and "bad_generator" not in rep
    assert not rep["ok"] and rep["span_rank"] == 2


def test_idempotents_algebra():
    for parts in [(2, 2), (2, 1), (3, 1), (2, 2, 1), (2, 2, 2), (1, 2, 2)]:
        a = C(*parts)
        idems = clifford_idempotents(a)
        n = a.n
        assert len(idems) == 2 ** (len(a.valley_set()) // 2)
        total = None
        for i, (_eps, e) in enumerate(idems):
            assert multiply(e, e) == e
            for j, (_eps2, f) in enumerate(idems):
                if i != j:
                    assert not multiply(e, f)
            total = e if total is None else total + e
        assert total == unit(n)
        # the split spins the integral ê_eps = 2^l e_eps, in the same order
        integral = _integral_idempotents(sorted(a.valley_set()), n)
        assert [eps for eps, _e in integral] == [eps for eps, _e in idems]
        for (eps, e_hat), (_eps, e) in zip(integral, idems):
            assert e_hat == e.scale(2 ** len(eps))
            assert all(type(c) is int or type(c) is GaussianRational and type(c.re) is int
                       and type(c.im) is int for c in e_hat.terms.values())


def _fraction_route_components(a):
    """The slow route: spin the image of eta under each true idempotent,
    with its 1/2^l, through the public API."""
    module = induce_clifford(simple_hecke(a))
    return [
        submodule_on_vectors(module, [act_element(module, e, {0: 1})])[0]
        for _eps, e in clifford_idempotents(a)
    ]


def _same_module(m1, m2) -> bool:
    return (
        (m1.blocks, m1.algebra, m1.labels, m1.parities)
        == (m2.blocks, m2.algebra, m2.labels, m2.parities)
        and m1.actions.keys() == m2.actions.keys()
        and all(m1.actions[k] == m2.actions[k] for k in m1.actions)
    )


def test_integral_split_matches_the_fraction_route(monkeypatch):
    # the integral ê_eps = 2^l e_eps spins the same components, entry for
    # entry, as the true idempotents do; patching the idempotent helper to
    # the true idempotents runs the whole split on the Fraction route
    from peakhc import supermodules

    for n in range(1, 6):
        for a in compositions_of(n):
            fast = split_simple(a)
            slow_components = _fraction_route_components(a)
            assert len(fast.components) == len(slow_components), a
            for k, (x, y) in enumerate(zip(fast.components, slow_components)):
                assert _same_module(x, y), (a, k)
            idems = clifford_idempotents(a)
            with monkeypatch.context() as m:
                m.setattr(supermodules, "_integral_idempotents", lambda _v, _n: idems)
                slow = split_simple(a)
            for field in ("alpha", "copies", "type_tag", "pair_parities"):
                assert getattr(fast, field) == getattr(slow, field), (a, field)
            assert _same_module(fast.module, slow.module), a


def test_split_spins_its_seeds_without_fractions(monkeypatch):
    # ê_eps eta and its spin stay in Z[i]: no Fraction is made while the
    # seeds are formed and spun (hom_space and the isomorphism decision
    # on the components may still divide)
    from peakhc import supermodules

    made = []
    spinning = [False]
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        if spinning[0]:
            made.append(args)
        return new(cls, *args, **kwargs)

    def while_spinning(fn):
        def run(*args, **kwargs):
            spinning[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                spinning[0] = False
        return run

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    for name in ("act_element", "submodule_on_vectors"):
        monkeypatch.setattr(supermodules, name, while_spinning(getattr(supermodules, name)))
    for n in range(1, 6):
        for a in compositions_of(n):
            split_simple(a)
            assert not made, (a, made[:3])
    # the control: the Fraction route does make them
    spinning[0] = True
    _fraction_route_components(C(2, 2))
    spinning[0] = False
    assert made


def test_end_clifford_reports_a_generator_with_a_flipped_sign(monkeypatch):
    # negative control of the matrix route: one sign flipped in one integer
    # generator f_{c_v}, the lift of the map that sends eta to c_v eta,
    # breaks the morphism check for that v.  The flipped seed is still
    # T-linear, so the seed route passes it and sees the map, no longer
    # the lift of its seed, break a relation at eta instead
    from peakhc import supermodules

    build = supermodules._map_out_of_induced
    a = C(2, 2)
    target = sorted(a.valley_set())[-1]

    def flipped(module, images, parity):
        mat = build(module, images, parity)
        if images == [module.actions[("c", target)].cols[0]]:
            col = mat.cols[0]
            (row, val), = col.items()
            col[row] = -val
        return mat

    assert end_clifford_by_matrices(a)["ok"]
    monkeypatch.setattr(supermodules, "_map_out_of_induced", flipped)
    rep = end_clifford_by_matrices(a)
    assert not rep["ok"]
    assert rep["bad_generator"] == target
    fast = end_clifford_check(a)
    assert not fast["ok"] and "bad_generator" not in fast and "bad_relation" in fast


def test_split_simple():
    res = split_simple(C(2, 2))
    assert res.copies == 2 and res.type_tag == "M"
    assert all(c.dim == 8 for c in res.components)
    # type-M twin components are parity-shift partners: the connecting
    # isomorphism is odd (an even one would force a 4-dimensional even
    # endomorphism algebra, against the computed End = Cl on two valleys)
    assert res.pair_parities[(0, 1)] == 1
    iso = find_isomorphism(res.components[0], parity_shift(res.components[1]))
    assert iso.found and iso.map.parity == 0
    res = split_simple(C(4))
    assert res.copies == 1 and res.type_tag == "Q"
    assert res.components[0].dim == 16
    # peak {3} at n = 4 comes from (1,2,1)
    res = split_simple(C(1, 2, 1))
    assert res.copies == 2 and res.type_tag == "M"
    assert all(c.dim == 8 for c in res.components)


def test_split_components_inherit_the_relations_of_the_induced_simple():
    # submodule_on_vectors checks nothing: split_simple checks Ind S_a once,
    # and each component inherits its relations and grading through its
    # embedding; the check that moved out of submodule_on_vectors is the
    # oracle here, with the intertwining A_key E = E A'_key it rests on
    count = 0
    for n in range(1, 6):
        for a in compositions_of(n):
            split = split_simple(a)
            for comp in split.components:
                _base, basis = comp.summand_of
                assert inherited_relation_failure(comp, split.module, basis) is None, a
                count += 1
    assert count == 1 + 2 + 5 + 12 + 27


def test_split_simple_checks_only_the_induced_simple(monkeypatch):
    checked = []
    real = Supermodule.check

    def recorded(self):
        checked.append(self)
        return real(self)

    monkeypatch.setattr(Supermodule, "check", recorded)
    for a in (C(4), C(1, 2, 1), C(2, 2), C(1, 3, 1)):
        checked.clear()
        split = split_simple(a)
        assert checked == [split.module], a


@pytest.mark.parametrize("key", [("T", 1), ("c", 1)])
def test_split_simple_checks_the_induced_simple_before_spinning(monkeypatch, key):
    # negative control: Ind S_(1,2,1) with one entry of T_1 or of c_1 negated
    # fails a relation, and split_simple names it before any spin
    from peakhc import supermodules

    bad = with_one_entry_changed(Stilde(1, 2, 1), key, lambda v: -v)
    failed, _by_products = relation_routes(bad)
    assert failed is not None
    spun = []
    monkeypatch.setattr(supermodules, "induce_clifford", lambda _base: bad)
    monkeypatch.setattr(supermodules, "submodule_on_vectors", lambda *args: spun.append(args))
    with pytest.raises(RelationError) as info:
        split_simple(C(1, 2, 1))
    assert str(info.value) == "relation %s fails" % failed
    assert spun == []


def test_a_perturbed_spin_passes_the_parent_check_and_fails_the_oracle(monkeypatch):
    # what moved: one wrong spin expression in the first component is no
    # longer caught inside split_simple, whose check of Ind S_a still
    # passes; the inheritance oracle catches it, and only there
    from peakhc import supermodules

    real = supermodules._spin
    calls = []

    def perturbed(module, seeds):
        events, parities, coords, vecs = real(module, seeds)
        if not calls:
            k = next(j for j, ev in enumerate(events) if ev[0] == "rel" and ev[3])
            _kind, parent, key, rep = events[k]
            t = min(rep)
            events[k] = ("rel", parent, key, {**rep, t: -rep[t]})
        calls.append(module)
        return events, parities, coords, vecs

    monkeypatch.setattr(supermodules, "_spin", perturbed)
    split = split_simple(C(1, 2, 1))
    first, *rest = split.components
    assert inherited_relation_failure(first, split.module, first.summand_of[1]) is not None
    for comp in rest:
        assert inherited_relation_failure(comp, split.module, comp.summand_of[1]) is None


def _in_one_representation(v):
    """The scalar contract: a real value is int while integral, else a
    Fraction; a GaussianRational is never real, and its components follow
    the same rule; no float anywhere."""

    def real(x):
        return type(x) is int or (type(x) is Fraction and x.denominator != 1)

    if type(v) is GaussianRational:
        return bool(v.im) and real(v.re) and real(v.im)
    return real(v)


def _assert_exact_components(mat, where):
    for _i, _j, v in mat.entries():
        assert _in_one_representation(v), (where, v)


def test_split_and_hom_components_are_exact():
    # split_simple and hom_space both divide by pivots; every entry
    # they produce must be in the one representation of Q(i): int while
    # integral, Fraction while real, GaussianRational only when not real
    for n in range(1, 5):
        for a in compositions_of(n):
            res = split_simple(a)
            first = res.components[0]
            for k, comp in enumerate(res.components):
                for key, mat in comp.actions.items():
                    _assert_exact_components(mat, (a, k, key))
                hb = hom_space(first, comp)
                for f in hb.even + hb.odd:
                    _assert_exact_components(f.matrix, (a, k, "hom"))
            for b in compositions_of(n):
                hb = hom_space(Ptilde(*a.parts), Stilde(*b.parts))
                for f in hb.even + hb.odd:
                    _assert_exact_components(f.matrix, (a, b, "hom"))


def _promoted(module):
    """The module with every action entry promoted to a GaussianRational by
    as_gauss: the representation before reals were stored as int/Fraction.
    Its ``summand_of`` is carried over, with the Hecke module and the
    embedding entries promoted too, so ``hom_space`` takes the same route."""
    actions = {
        key: SparseMatrix(mat.nrows, mat.ncols, [
            {r: as_gauss(v) for r, v in col.items()} for col in mat.cols
        ])
        for key, mat in module.actions.items()
    }
    out = Supermodule(module.blocks, module.algebra, module.labels, module.parities, actions)
    if module.summand_of is not None:
        base, embedding = module.summand_of
        if embedding is not None:
            embedding = [{r: as_gauss(v) for r, v in col.items()} for col in embedding]
        out.summand_of = (_promoted(base), embedding)
    return out


def _assert_same_hom_space(src, dst, where):
    fast = hom_space(src, dst)
    slow = hom_space(_promoted(src), _promoted(dst))
    assert (fast.even_dim, fast.odd_dim) == (slow.even_dim, slow.odd_dim), where
    for f, g in zip(fast.even + fast.odd, slow.even + slow.odd):
        assert f.parity == g.parity and f.matrix == g.matrix, where


def test_promoted_modules_give_the_same_hom_spaces():
    # slow route: the same Hom systems with every action entry a
    # GaussianRational, real or not, give entrywise equal maps
    promoted = _promoted(Stilde(2, 1))
    assert all(type(v) is GaussianRational for key in promoted.actions
               for _i, _j, v in promoted.actions[key].entries())
    for n in range(1, 5):
        for a in compositions_of(n):
            for b in compositions_of(n):
                _assert_same_hom_space(Ptilde(*a.parts), Stilde(*b.parts), (a, b))
            comps = split_simple(a).components
            for k, comp in enumerate(comps):
                _assert_same_hom_space(comps[0], comp, (a, k))


def test_split_type_rule_small():
    for n in (2, 3, 4):
        for a in compositions_of(n):
            res = split_simple(a)
            peaks = a.peak_set().elements
            l = (len(peaks) + 1) // 2
            assert res.copies == 2 ** l
            assert all(c.dim == 2 ** (n - l) for c in res.components)
            expected = "M" if len(peaks) % 2 == 1 else "Q"
            assert res.type_tag == expected
            assert all(p is not None for p in res.pair_parities.values())
            if expected == "Q":
                assert all(p == 0 for p in res.pair_parities.values())


def test_induced_simples_isomorphic_iff_same_peaks():
    for n in (2, 3):
        mods = {a: induce_clifford(simple_hecke(a)) for a in compositions_of(n)}
        for a, ma in mods.items():
            for b, mb in mods.items():
                res = find_isomorphism(ma, mb)
                same = a.peak_set() == b.peak_set()
                assert res.conclusive
                assert res.found == same


def _search_isomorphism(src, dst, parity=0, tries=200):
    """The former search, kept as an oracle: basis maps of Hom_parity, then
    sums and differences of pairs, then seeded random combinations.  A
    failed search is inconclusive unless the dimensions obstruct or
    Hom_parity is zero."""
    if src.dim != dst.dim:
        return IsoSearch(None, True)
    se, so = src.graded_dims()
    want = dst.graded_dims() if parity == 0 else dst.graded_dims()[::-1]
    if (se, so) != want:
        return IsoSearch(None, True)
    basis = hom_space(src, dst)
    maps = basis.even if parity == 0 else basis.odd
    if not maps:
        return IsoSearch(None, True)
    for f in maps:
        if f.is_invertible():
            return IsoSearch(f, True)
    for f, g in itertools.combinations(maps, 2):
        for coeff in (1, -1):
            cand = ModuleMap(src, dst, f.matrix + g.matrix.scale(coeff), parity)
            if cand.is_invertible():
                return IsoSearch(cand, True)
    rng = random.Random(0)
    for _ in range(tries):
        mat = SparseMatrix(dst.dim, src.dim)
        for f in maps:
            c = GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
            if c:
                mat = mat + f.matrix.scale(c)
        cand = ModuleMap(src, dst, mat, parity)
        if cand.is_invertible():
            return IsoSearch(cand, True)
    return IsoSearch(None, False)


def _assert_decision_matches_search(pairs, parities, complete):
    for (a, ma), (b, mb) in pairs:
        for par in parities:
            got = find_isomorphism(ma, mb, parity=par)
            want = _search_isomorphism(ma, mb, parity=par)
            assert got.found == want.found, (a, b, par)
            if complete:
                assert got.conclusive, (a, b, par)
            if got.found:
                assert got.map.parity == par
                assert is_morphism(got.map) and got.map.is_invertible()


def test_iso_decision_matches_search_on_simple_components():
    for n in (1, 2, 3, 4):
        comps = [
            ((a, k), comp)
            for a in compositions_of(n)
            for k, comp in enumerate(split_simple(a).components)
        ]
        _assert_decision_matches_search(
            itertools.product(comps, repeat=2), (0, 1), complete=True
        )


def test_iso_decision_matches_search_on_hecke_projectives():
    for n in (1, 2, 3, 4):
        mods = [(a, projective_hecke(a)) for a in compositions_of(n)]
        pairs = [
            (x, y) for x, y in itertools.product(mods, repeat=2)
            if x[1].dim == y[1].dim
        ]
        _assert_decision_matches_search(pairs, (0,), complete=True)


def test_iso_decision_matches_search_on_induced_simples():
    # Ind S_alpha is decomposable once alpha has peaks, outside the
    # completeness guarantee; only the answers must agree
    for n in (1, 2, 3):
        mods = [(a, induce_clifford(simple_hecke(a))) for a in compositions_of(n)]
        _assert_decision_matches_search(
            itertools.product(mods, repeat=2), (0, 1), complete=False
        )


def test_iso_decision_conclusive_negative():
    # P_(1,2) and P_(2,1) have equal dimension and a nonzero Hom space, but
    # no basis map is invertible; both are indecomposable, so "no" is final
    res = find_isomorphism(projective_hecke(C(1, 2)), projective_hecke(C(2, 1)))
    assert not res.found and res.conclusive


def test_submodule_rejects_mixed_parity_seed():
    module = Stilde(2)
    even = module.parities.index(0)
    odd = module.parities.index(1)
    with pytest.raises(ValueError):
        submodule_on_vectors(module, [{even: _G1, odd: _G1}])


# ---------------------------------------------------------------------------
# twisting
# ---------------------------------------------------------------------------


def test_twist_hecke_nakayama():
    for n in (2, 3, 4):
        for a in compositions_of(n):
            rev = a.reverse()
            tw = twist(simple_hecke(a), "phi_bar")
            res = find_isomorphism(tw, simple_hecke(rev))
            assert res.found and res.map.parity == 0
            twp = twist(projective_hecke(a), "phi_bar")
            res = find_isomorphism(twp, projective_hecke(rev))
            assert res.found


def test_twist_conjugate_isomorphisms():
    for n in (2, 3):
        for a in compositions_of(n):
            maps = stated_twist_isomorphisms(a)
            assert sorted(maps) == [1, 2, 3, 4]
            f = maps[1]
            assert f.parity == n % 2
            assert is_morphism(f), (a, "stated map fails the sign rule")
            assert f.is_invertible()
            g = maps[2]
            assert g.parity == 0
            assert is_morphism(g) and g.is_invertible()


def test_twist_isomorphism_fails_from_the_wrong_seed():
    # negative control: part 1 seeded at eta instead of the top vector
    # c_[n] eta is no morphism, so the stated maps' checks have teeth (at
    # n = 1 it is the identity, an odd morphism since phi negates c_1)
    for n in (2, 3):
        for a in compositions_of(n):
            f = stated_twist_isomorphisms(a)[1]
            wrong = _map_out_of_induced(f.target, [{0: 1}], f.parity)
            assert is_morphism(f)
            assert not is_morphism(ModuleMap(f.source, f.target, wrong, f.parity)), a


def test_dual_twist_isomorphisms():
    for n in (2, 3):
        for a in compositions_of(n):
            twist(induce_clifford(simple_hecke(a)), "psi").check()
            maps = stated_twist_isomorphisms(a)
            f = maps[3]
            assert f.parity == 0
            assert is_morphism(f) and f.is_invertible()
            g = maps[4]
            assert g.parity == n % 2
            assert is_morphism(g) and g.is_invertible()


def _seed_agrees(f) -> bool:
    """The seed check of a lift agrees with the full matrix identities."""
    base = f.source.summand_of[0]
    return (_seed_failure(base, f.target, f.matrix.cols[:base.dim]) is None) == is_morphism(f)


def test_seed_check_matches_the_matrix_morphism_check():
    # every stated twist map, each lifted from the other seed (eta and the
    # top vector exchanged), and every lift of eta -> c_u eta into Ind S_a:
    # the seed check and the full matrix check agree on morphisms and on
    # the maps that are none.  Above n = 1, where the two seeds are the
    # two basis vectors of a module of dimension 2, the other seed gives
    # no morphism
    for n in range(1, 6):
        for a in compositions_of(n):
            for part, f in stated_twist_isomorphisms(a).items():
                top = f.matrix.cols[0].keys() != {0}
                other = {0: 1} if top else {f.target.dim - 1: 1}
                wrong = _map_out_of_induced(f.target, [other], f.parity)
                g = ModuleMap(f.source, f.target, wrong, f.parity)
                assert _seed_agrees(f) and _seed_agrees(g), (a, part)
                assert is_morphism(f) and is_morphism(g) == (n == 1), (a, part)
            module = induce_clifford(simple_hecke(a))
            for u in range(1, n + 1):
                seed = module.actions[("c", u)].cols[0]
                g = ModuleMap(module, module, _map_out_of_induced(module, [seed], 1), 1)
                assert _seed_agrees(g), (a, u)
                assert is_morphism(g) == (u in a.valley_set()), (a, u)


def test_twists_report_fails_on_a_corrupted_seed(monkeypatch):
    # negative control of the report's seed check: part 1 lifted from eta
    # instead of the top vector is no morphism for n >= 2
    from peakhc import verification

    def corrupted(alpha, induced):
        maps = stated_twist_isomorphisms(alpha, induced)
        f = maps[1]
        maps[1] = ModuleMap(f.source, f.target,
                            _map_out_of_induced(f.target, [{0: 1}], f.parity), f.parity)
        return maps

    for n in (2, 3):
        assert verification._twists_rank(n) == (True, [])
    monkeypatch.setattr(verification, "stated_twist_isomorphisms", corrupted)
    for n in (2, 3):
        ok, bad = verification._twists_rank(n)
        assert not ok and bad == [(str(a), 1) for a in compositions_of(n)], n


def _count_induced_builds(monkeypatch, *namespaces) -> list:
    """Patch ``induce_clifford`` in each namespace to record (rank, descent
    set) of every module it induces: for a simple the key of its a."""
    built = []

    def counted(module):
        descents = {i for (kind, i), mat in module.actions.items() if mat.cols[0].get(0)}
        built.append((module.rank, frozenset(descents)))
        return induce_clifford(module)

    for namespace in namespaces:
        monkeypatch.setattr(namespace, "induce_clifford", counted)
    return built


def test_twists_report_builds_each_induced_simple_once_per_composition(monkeypatch):
    # the rank shares Ind S_a between the maps of a and of a^c: one build
    # per composition
    from peakhc import supermodules, verification

    built = _count_induced_builds(monkeypatch, supermodules, verification)
    assert [r["status"] for r in verification.suite_twists(4)] == ["verified"] * 4
    assert len(set(built)) == len(built) == sum(len(compositions_of(n)) for n in range(1, 5)) == 15


def test_simples_report_builds_each_induced_simple_once(monkeypatch):
    # end_clifford_check reads the Ind S_a that split_simple built
    from peakhc import supermodules, verification

    for n in range(1, 5):
        built = _count_induced_builds(monkeypatch, supermodules, verification)
        assert verification._simples_rank(n) == (True, [])
        assert len(set(built)) == len(built) == len(compositions_of(n)), n


def test_clifford_and_twist_reports_make_no_matrix_product(monkeypatch):
    # the End and twist reports certify morphisms at their seeds and
    # relations on vectors: no SparseMatrix product is formed
    from peakhc.verification import suite_twists

    def refuse(self, other):
        raise AssertionError("matrix product")

    monkeypatch.setattr(SparseMatrix, "__matmul__", refuse)
    for n in range(1, 6):
        for a in compositions_of(n):
            assert end_clifford_check(a)["ok"], a
    assert [r["status"] for r in suite_twists(4)] == ["verified"] * 4


def _element_matrix_by_products(module, element):
    """The product route: per term, the identity times the action matrices
    of c_j (j in D increasing) and of the letters of a reduced word of w."""
    dim = module.dim
    total = SparseMatrix(dim, dim)
    for (d, w), coeff in element.terms.items():
        mat = SparseMatrix.identity(dim, _G1)
        for j in sorted(d):
            mat = mat @ module.actions[("c", j)]
        for letter in word_reduced(w):
            mat = mat @ module.actions[("T", letter)]
        total = total + mat.scale(coeff)
    return total


def test_act_element_matches_products():
    for n in range(1, 4):
        for a in compositions_of(n):
            for module in (induce_clifford(simple_hecke(a)),
                           induce_clifford(projective_hecke(a))):
                for d, w in algebra_basis(n):
                    elt = basis_element(d, w, n)
                    expected = _element_matrix_by_products(module, elt)
                    assert element_matrix(module, elt.terms) == expected, (a, d, w)
                    for k in range(module.dim):
                        got = act_element(module, elt, {k: _G1})
                        assert got == expected.cols[k], (a, d, w, k)


def test_twist_images_match_products():
    for n in range(1, 5):
        for a in compositions_of(n):
            for base in (simple_hecke(a), projective_hecke(a)):
                for module in (base, induce_clifford(base)):
                    hecke = module.algebra == "H"
                    tags = ("phi_bar",) if hecke else ("phi", "phi_prime", "psi", "psi_prime")
                    for tag in tags:
                        tw = twist(module, tag)
                        anti = tag.startswith("psi")  # the twisted dual
                        for key in module.actions:
                            kind, idx = key
                            gen = gen_T(idx, n) if kind == "T" else gen_c(idx, n)
                            img = apply_morphism(tag, gen)
                            expected = _element_matrix_by_products(module, img)
                            assert element_matrix(module, img.terms) == expected
                            if anti:
                                expected = expected.transpose()
                            assert tw.actions[key] == expected, (a, tag, key)
    pair = outer_tensor(Stilde(1, 1), Stilde(2))
    with pytest.raises(ValueError):
        twist(pair, "phi")
    with pytest.raises(ValueError):
        twist(pair, "psi")


def test_twist_and_element_matrix_share_no_dict_with_the_module():
    # a lone generator image hands back the module's own action columns;
    # negating every entry of the result must leave the module's actions
    for module in (Stilde(2, 1), Ptilde(1, 2), P(2, 1)):
        before = module_to_json(module)
        n = module.rank
        tags = ("phi_bar",) if module.algebra == "H" else ("phi", "phi_prime", "psi", "psi_prime")
        mats = [mat for tag in tags for mat in twist(module, tag).actions.values()]
        for key in module.actions:
            kind, idx = key
            gen = gen_T(idx, n) if kind == "T" else gen_c(idx, n)
            mats.append(element_matrix(module, gen.terms))
        for mat in mats:
            for col in mat.cols:
                for r in col:
                    col[r] = -col[r]
        assert module_to_json(module) == before
    # the phi_bar twist of a Hecke module is a lone T letter per generator
    m = P(2, 1, 1)
    tw = twist(m, "phi_bar")
    for (kind, i), mat in tw.actions.items():
        own = m.actions[(kind, m.rank - i)].cols
        assert all(col is not o for col, o in zip(mat.cols, own))


def test_parity_shift():
    m = Stilde(1)
    pm = parity_shift(m)
    assert pm.graded_dims() == (1, 1)
    ppm = parity_shift(pm)
    res = find_isomorphism(m, ppm)
    assert res.found and res.map.parity == 0
    # Hom(M, N)_odd = Hom(M, PiN)_even
    for a, b in [((2,), (1, 1)), ((2, 1), (2, 1)), ((3,), (1, 2))]:
        ma = induce_clifford(simple_hecke(C(*a)))
        mb = induce_clifford(simple_hecke(C(*b)))
        h1 = hom_space(ma, mb)
        h2 = hom_space(ma, parity_shift(mb))
        assert h1.odd_dim == h2.even_dim and h1.even_dim == h2.odd_dim


# ---------------------------------------------------------------------------
# filtrations and restriction vectors
# ---------------------------------------------------------------------------


def test_bruhat_filtration():
    steps = bruhat_filtration(C(3))
    assert len(steps) == 1 and steps[0][2] == C(3)
    steps = bruhat_filtration(C(2, 1))
    got = [(w, exp.parts) for (w, _sub, exp, _iso) in steps]
    assert got == [((1, 3, 2), (2, 1)), ((2, 3, 1), (1, 2))]
    for _w, sub, _exp, iso in steps:
        sub.check()
        assert iso.found and iso.map.parity == 0
    # order follows the documented (length, word) linearization: 213 < 312
    steps = bruhat_filtration(C(1, 2))
    assert [exp.parts for (_w, _s, exp, _i) in steps] == [(1, 2), (2, 1)]
    assert {exp.parts for (_w, _s, exp, _i) in steps} == {(2, 1), (1, 2)}
    with pytest.raises(ResourceLimitError):
        bruhat_filtration(C(MAX_FILTRATION_N + 1))


def test_restriction_vectors_small():
    rep = restriction_vectors(1)
    assert rep["odd"][0]["seed"] == frozenset({1})
    assert rep["even"][0]["seed"] == frozenset()
    rep = restriction_vectors(5)
    v52 = rep["odd"][2]
    assert v52["seed"] == frozenset({1, 4, 5})
    from peakhc.supermodules import _subsets_ordered

    subs = _subsets_ordered(5)
    expected = {
        frozenset({1, 4, 5}): 1,
        frozenset({1, 3, 5}): -1,
        frozenset({1}): -1,
        frozenset({1, 3, 4}): 1,
    }
    got = {subs[i]: v for i, v in v52["vector"].items()}
    assert got == expected and all(type(v) is int for v in got.values())


def test_restriction_vector_eigen_properties():
    for n in (2, 3, 4, 5):
        rep = restriction_vectors(n)
        module = rep["module"]
        for slot in ("odd", "even"):
            for k, data in rep[slot].items():
                vec = data["vector"]
                for i in range(1, n):
                    img = module.actions[("T", i)].apply(vec)
                    if i <= n - k - 2:
                        assert not img, (n, k, i)
                    elif i >= n - k:
                        expected = {r: -v for r, v in vec.items()}
                        assert img == expected, (n, k, i)


def test_restriction_vector_spans():
    # the cyclic spans give two copies of each hook projective, split by parity
    from math import comb

    for n in (2, 3, 4):
        rep = restriction_vectors(n)
        module = restrict_hecke(rep["module"])
        for slot, par in (("odd", 1), ("even", 0)):
            spans = []
            for k in range(n):
                vec = rep[slot][k]["vector"]
                sub, basis = submodule_on_vectors(module, [vec])
                assert sub.dim == comb(n - 1, k)
                hook = C(*([n - k] + [1] * k))
                # over the purely even Hecke algebra an odd map is still an
                # ungraded isomorphism; the odd family lives in odd degree
                res = find_isomorphism(sub, projective_hecke(hook), parity=par)
                assert res.found
                spans.append(basis)
            # direct sum fills the parity component
            solver = SpanSolver()
            count = 0
            for basis in spans:
                for v in basis:
                    assert solver.add(count, v)
                    count += 1
            par_dim = sum(1 for p in module.parities if p == par)
            assert solver.rank == count == par_dim == 2 ** (n - 1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_module_json_roundtrip():
    m = Stilde(2, 1)
    doc = module_to_json(m)
    text = json.dumps(doc)
    back = module_from_json(json.loads(text))
    assert back.blocks == m.blocks and back.algebra == m.algebra
    assert back.parities == m.parities
    for key in m.actions:
        assert back.actions[key] == m.actions[key]
    back.check()


def _corrupted_module_doc(extra_entry=None, parity=None):
    """The dump of Ind S_(2) (dim 4), with one extra T1 entry or a bad parity."""
    doc = module_to_json(Stilde(2))
    if extra_entry is not None:
        doc["actions"]["T1"].append(list(extra_entry) + [{"re": "1", "im": "0"}])
    if parity is not None:
        doc["basis"][0]["parity"] = parity
    return doc


@pytest.mark.parametrize(
    "bad",
    [{"extra_entry": (9, 0)}, {"extra_entry": (0, 9)}, {"extra_entry": (-1, 0)},
     {"parity": 2}],
)
def test_module_from_json_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        module_from_json(json.loads(json.dumps(_corrupted_module_doc(**bad))))


@pytest.mark.parametrize(
    "path", [("blocks",), ("algebra",), ("basis",), ("actions",), ("basis", 0, "label"),
             ("basis", 1, "parity"), ("rank",)],
)
def test_module_from_json_names_a_missing_key(path):
    doc = json.loads(json.dumps(module_to_json(Stilde(2))))
    owner = doc
    for step in path[:-1]:
        owner = owner[step]
    del owner[path[-1]]
    with pytest.raises(ValueError, match=repr(path[-1])):
        module_from_json(doc)


def test_generator_keys_blocks():
    assert generator_keys((2, 2), "HCl") == [
        ("T", 1),
        ("T", 3),
        ("c", 1),
        ("c", 2),
        ("c", 3),
        ("c", 4),
    ]
    assert generator_keys((3,), "H") == [("T", 1), ("T", 2)]
