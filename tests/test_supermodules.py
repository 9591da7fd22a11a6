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
from peakhc.supermodules import _integral_idempotents, _spin

from oracles import (
    MAX_FILTRATION_N,
    bruhat_filtration,
    clifford_idempotents,
    hom_dim_to_hecke_simple,
    hom_route_mismatch,
    parity_shift,
    restrict_parabolic,
    trivial_module,
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
        assert f.is_morphism()


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
                assert src.induced_from is base
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


def test_induced_provenance_does_not_leak():
    # only induce_clifford records the module it induced from; every other
    # constructor, applied to an induced module, records nothing
    base = projective_hecke(C(1, 2))
    ind = induce_clifford(base)
    small = induce_clifford(simple_hecke(C(1, 1)))
    assert ind.induced_from is base
    assert simple_hecke(C(2)).induced_from is None and base.induced_from is None
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
    assert [k for k, m in built.items() if m.induced_from is not None] == []
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
        assert f.is_morphism()
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
    # one elimination walk over the descent shifts against one system per
    # gamma, on Res Ind P_a, P_a and S_a for every a of size at most 4
    for n in range(1, 5):
        for a in compositions_of(n):
            res = restrict_hecke(induce_clifford(projective_hecke(a)))
            for mod in (res, projective_hecke(a), simple_hecke(a)):
                dims = hecke_simple_hom_dims(mod)
                for g in compositions_of(n):
                    want = hom_dim_to_hecke_simple(mod, g)
                    assert dims.get(g, 0) == want, (a, g)
                    assert (g in dims) == bool(want)
    with pytest.raises(ValueError):
        hecke_simple_hom_dims(Stilde(2))


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
    # each ordered product of the f_v starts from its first factor
    matmul = SparseMatrix.__matmul__
    operands = []

    def counted(self, other):
        operands.append((self, other))
        return matmul(self, other)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counted)
    for n in range(1, 5):
        for a in compositions_of(n):
            assert end_clifford_check(a)["ok"], a
    assert operands
    assert not any(_is_identity(x) or _is_identity(y) for x, y in operands)


def test_end_clifford_reports_a_failed_relation(monkeypatch):
    # without the i-rescaling the f_v square to +id, not -id
    from peakhc import supermodules

    monkeypatch.setattr(supermodules, "GAUSS_I", 1)
    rep = end_clifford_check(C(3))
    assert not rep["ok"]
    assert rep["bad_relation"] == "c_%d c_%d = -1" % (rep["valleys"][0], rep["valleys"][0])


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
    # negative control: one sign flipped in one integer generator f_{c_v},
    # the lift of the map that sends eta to c_v eta, breaks the morphism
    # check for that v
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

    assert end_clifford_check(a)["ok"]
    monkeypatch.setattr(supermodules, "_map_out_of_induced", flipped)
    rep = end_clifford_check(a)
    assert not rep["ok"]
    assert rep["bad_generator"] == target


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
    as_gauss: the representation before reals were stored as int/Fraction."""
    actions = {
        key: SparseMatrix(mat.nrows, mat.ncols, [
            {r: as_gauss(v) for r, v in col.items()} for col in mat.cols
        ])
        for key, mat in module.actions.items()
    }
    return Supermodule(module.blocks, module.algebra, module.labels, module.parities, actions)


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
                assert got.map.is_morphism() and got.map.is_invertible()


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
    from peakhc.supermodules import stated_twist_isomorphism

    for n in (2, 3):
        for a in compositions_of(n):
            f = stated_twist_isomorphism(a, 1)
            assert f.parity == n % 2
            assert f.is_morphism(), (a, "stated map fails the sign rule")
            assert f.is_invertible()
            g = stated_twist_isomorphism(a, 2)
            assert g.parity == 0
            assert g.is_morphism() and g.is_invertible()


def test_twist_isomorphism_fails_from_the_wrong_seed():
    # negative control: part 1 seeded at eta instead of the top vector
    # c_[n] eta is no morphism, so the stated maps' checks have teeth (at
    # n = 1 it is the identity, an odd morphism since phi negates c_1)
    from peakhc.supermodules import _map_out_of_induced, stated_twist_isomorphism

    for n in (2, 3):
        for a in compositions_of(n):
            f = stated_twist_isomorphism(a, 1)
            wrong = _map_out_of_induced(f.target, [{0: 1}], f.parity)
            assert f.is_morphism()
            assert not ModuleMap(f.source, f.target, wrong, f.parity).is_morphism(), a


def test_dual_twist_isomorphisms():
    from peakhc.supermodules import stated_twist_isomorphism

    for n in (2, 3):
        for a in compositions_of(n):
            twist(induce_clifford(simple_hecke(a)), "psi").check()
            f = stated_twist_isomorphism(a, 3)
            assert f.parity == 0
            assert f.is_morphism() and f.is_invertible()
            g = stated_twist_isomorphism(a, 4)
            assert g.parity == n % 2
            assert g.is_morphism() and g.is_invertible()


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
    for n in range(1, 4):
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
             ("basis", 1, "parity")],
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
