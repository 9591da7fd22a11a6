"""Reference implementations and fixtures that the tests check the package
against.

No report, CLI command or benchmark workload reaches these, so they live
with the tests: the Bruhat order, the trace and the trace form of two
elements, the leading term of T_w c_D, the multiplication tables by
generator walks, the associativity certificate with every generator swept
past every entry of tau, the left-regular matrices of the generators, the
associativity certificate and the Frobenius Gram through the regular
representation, the Frobenius form by Gram elimination and the matrix of
phi, one-gamma Hom onto a Hecke simple, the shared Hom-to-simple walk on
every row, parabolic restriction,
parabolic induction by a triangular rewriting in the free basis T_x over the
parabolic subalgebra (with the coset factorization it reads), the parity
shift, the rank-0 module, the defining relations with every word formed as
a product of matrices or algebra elements, the morphism check and the
Clifford structure of End of an induced simple by full matrix identities,
the relations and grading a spun submodule inherits through its embedding,
Hom out of an induced module by the spin route, the true idempotents that split an induced simple, the peak sets by a walk
over all subsets, the Bruhat filtration of an induced
projective, route (i) of the Cartan image by a walk of the
descent class, the anti-involution phi of the peak subalgebra through a
preimage, the readers of the JSON forms, the Fock action through the
K (x) K coproduct, and the smash-product double of the peak algebra and
its dual."""

import itertools
import operator
from fractions import Fraction
from functools import lru_cache, reduce

from peakhc.combinat import (
    Composition,
    PeakSet,
    ResourceLimitError,
    as_composition,
    compositions_of,
    composition_from_descents,
    descent_class,
    min_coset_reps,
    peak_sets_in,
    swap_values,
    word_compose,
    word_descents,
    word_inverse,
    word_length,
    word_peaks,
)
import peakhc.hecke_clifford as hc
from peakhc.hecke_clifford import (
    AlgebraElement,
    _basis_index,
    _left_mul,
    _subsets_ordered,
    act_terms,
    algebra_basis,
    basis_element,
    gen_c,
    gen_T,
    generators,
    multiply,
    normal_word,
    unit,
)
from peakhc.heisenberg import fock_action
from peakhc.hopf import FreeElement, convert, coproduct, product, term, theta_transform
from peakhc.linalg import (
    Echelon,
    SpanSolver,
    SparseMatrix,
    _invert_scalar,
    nullspace,
    vec_add_term,
    vec_iadd_scaled,
)
from peakhc.scalars import GAUSS_I, _rational, gaussian
import peakhc.supermodules as sm
from peakhc.supermodules import (
    ModuleMap,
    Supermodule,
    _descent_class_sorted,
    element_matrix,
    find_isomorphism,
    generator_keys,
    hom_space,
    induce_clifford,
    outer_tensor,
    projective_hecke,
    simple_hecke,
)

MAX_BRUHAT_N = 6  # cached Bruhat tables
MAX_FILTRATION_N = 6  # bruhat_filtration


# ---------------------------------------------------------------------------
# Bruhat order (exhaustive, cached per n)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _bruhat_table(n: int) -> dict:
    if n > MAX_BRUHAT_N:
        raise ResourceLimitError("Bruhat tables kept only for n <= %d" % MAX_BRUHAT_N,
                                 "MAX_BRUHAT_N")
    perms = [tuple(p) for p in itertools.permutations(range(1, n + 1))]
    lengths = {w: word_length(w) for w in perms}
    # covering relations: w covers v when v = w * t_{ab} and l drops by one
    leq = {w: {w} for w in perms}
    by_length = sorted(perms, key=lambda w: lengths[w])
    for w in by_length:
        lw = lengths[w]
        for a in range(n):
            for b in range(a + 1, n):
                v = list(w)
                v[a], v[b] = v[b], v[a]
                v = tuple(v)
                if lengths[v] == lw - 1:
                    leq[w] |= leq[v]
    return leq


def bruhat_leq(v: tuple, w: tuple) -> bool:
    """v <= w in Bruhat order on one-line words; exhaustive tables, guarded
    at n <= 6."""
    if len(v) != len(w):
        raise ValueError("rank mismatch")
    return v in _bruhat_table(len(v))[w]


# ---------------------------------------------------------------------------
# the algebra: trace form and leading terms
# ---------------------------------------------------------------------------


def trace(a: AlgebraElement):
    """tr(c_D T_w) = 1 exactly on D = empty, w = longest element."""
    w0 = tuple(range(a.rank, 0, -1))
    return a.terms.get((frozenset(), w0), 0)


def frobenius_form(a: AlgebraElement, b: AlgebraElement):
    return trace(multiply(a, b))


def leading_term_check(w: tuple, d) -> tuple:
    """Leading datum of T_w c_D for the one-line word w: the sign
    (-1)^(inversions of w inside D) and the image set w(D); the remaining
    terms of the product are strictly shorter (Bruhat-lower at desk scale)."""
    image = [w[x - 1] for x in sorted(d)]
    inv = sum(1 for a, b in itertools.combinations(image, 2) if a > b)
    return ((-1) ** inv, frozenset(image))


# ---------------------------------------------------------------------------
# the algebra: the tables by walks, and the regular representation
# ---------------------------------------------------------------------------


def walk_product(x, y) -> dict:
    """The basis element x times the basis element y, both (D, w) keys, by a
    walk of the generator rules with ``int`` coefficients."""
    return act_terms({x: 1}, _left_mul, [{y: 1}])[0]


def table_entries(n: int):
    """Every entry of the three tables behind ``multiply`` at rank n, as
    (x, y, x*y): basis keys x and y, and the tabulated product as a dict
    {basis key: int}.  The tables are read through the module, as
    ``multiply`` reads them, so a patched table is read too."""
    ident = tuple(range(1, n + 1))
    perms = [w for d, w in algebra_basis(n) if not d]
    subsets = _subsets_ordered(n)
    empty = frozenset()
    for w in perms:
        for e in subsets:
            yield (empty, w), (e, ident), {(d, u): k for k, d, u in hc._t_times_c(w, e)}
    for d in subsets:
        for e in subsets:
            s, de = hc._clifford_sign(d, e)
            yield (d, ident), (e, ident), {(de, ident): s}
    for u in perms:
        for v in perms:
            t, uv = hc._demazure_sign(u, v)
            yield (empty, u), (empty, v), {(empty, uv): t}


def table_walk_mismatch(n: int):
    """The first table entry at rank n that differs from the walk of its
    two basis elements, as text; None when every entry equals its walk."""
    for x, y, xy in table_entries(n):
        if walk_product(x, y) != xy:
            return "the table entry %s * %s" % (basis_element(*x, n), basis_element(*y, n))
    return None


def tau_sweep_failure(n: int):
    """The slow route to ``associativity_failure``: its checks (U), (C),
    (H) and (b), with the sweep (a) of every generator T_i past every entry
    of tau in place of (P), (R) and (K), (n-1) n! 2^n moves against n! 2^n:
    None when ``multiply`` is associative at rank n, else the first check
    that failed, as text.  Guarded at n <= hecke_clifford.MAX_TABLE_SWEEP_N.

    (a) tau(T_i T_v (x) c_E) = M_{T_i} tau(T_v (x) c_E) for all i, v, E.

    The h in H with tau(h h' (x) c) = M_h tau(h' (x) c) for all h', c form
    a subspace that holds 1 by (U) and each T_i by (a).  For such an h,
    M_{h h'} = M_h M_{h'} (apply both to c (x) k), so if g and h are in it,
    tau(g h h' (x) c) = M_g M_h tau(h' (x) c) = M_{g h} tau(h' (x) c): it is
    closed under products, so it is all of H.  The rest of the proof is the
    one in the docstring of ``associativity_failure``.
    """
    hc._guard_table_sweep(n)
    ident = tuple(range(1, n + 1))

    def sweep(n):
        for i in range(1, n):
            s_i = swap_values(i, ident)
            for v in hc._perms(n):
                t, x = hc._demazure_sign(s_i, v)
                for e in _subsets_ordered(n):
                    if hc._move_t(s_i, hc._tau(v, e)) != {
                        key: t * k for key, k in hc._tau(x, e).items()
                    }:
                        return "(a) T_%d moved past %s * %s" % (
                            i, hc._t_name(v), hc._c_name(e, n))
        return None

    for check in (hc._unit_failure, hc._clifford_failure, hc._hecke_failure, sweep,
                  hc._clifford_move_failure):
        witness = check(n)
        if witness is not None:
            return witness
    return None


def _guard_regular(n: int) -> None:
    """The regular module has dimension 2^n n!: guarded at the guard of the
    table sweeps, n <= hecke_clifford.MAX_TABLE_SWEEP_N."""
    if n > hc.MAX_TABLE_SWEEP_N:
        raise ResourceLimitError(
            "regular representation of rank %d exceeds the guard %d" % (n, hc.MAX_TABLE_SWEEP_N),
            "MAX_TABLE_SWEEP_N",
        )


@lru_cache(maxsize=None)
def _left_regular_columns(key, n: int) -> list:
    """The columns of the left-regular matrix of one generator key, read
    from the rewriting rules with ``int`` entries, in the canonical order;
    guarded by ``_guard_regular``."""
    _guard_regular(n)
    pos = _basis_index(n)
    return [
        {pos[k]: v for k, v in _left_mul(key, {b: 1}).items()} for b in algebra_basis(n)
    ]


def regular_generator_matrix(kind: str, idx: int, n: int) -> SparseMatrix:
    """Left-regular matrix of T_idx / c_idx in the canonical basis order,
    with ``int`` entries; guarded by ``_guard_regular``."""
    if kind not in ("T", "c"):
        raise ValueError("unknown generator kind %r" % kind)
    cols = _left_regular_columns((kind, idx), n)
    return SparseMatrix(len(cols), len(cols), [dict(col) for col in cols])


def regular_frobenius_gram(n: int) -> SparseMatrix:
    """The slow route to ``frobenius_gram``, through the regular
    representation: row i is the w0-row of the left-regular matrix of the
    i-th basis element, the row vector e_w0 walked left to right through the
    transposed generator matrices, which are very sparse."""
    basis = algebra_basis(n)
    dim = len(basis)
    w0row = basis.index((frozenset(), tuple(range(n, 0, -1))))
    transposes = {k: regular_generator_matrix(*k, n).transpose() for k in generators(n)}

    def act(key, vec):
        return transposes[key].apply(vec)

    gram = SparseMatrix(dim, dim)
    for i, key in enumerate(basis):
        (row,) = act_terms({key: 1}, act, [{w0row: 1}], anti=True)
        for jcol, v in row.items():
            gram.cols[jcol][i] = v
    return gram


def frobenius_by_gram(n: int):
    """The slow route to ``frobenius_failure``: the full Gram of the trace
    form has rank 2^n n! by elimination, pairs basis elements of different
    parity to 0, and equals +-G^T phi with the matrix of phi built by
    ``multiply``.  None when all three hold, else the first that failed, as
    text.  Guarded at n <= hecke_clifford.MAX_TABLE_SWEEP_N."""
    gram = hc.frobenius_gram(n)
    ech = Echelon()
    for j in range(gram.ncols):
        ech.add(dict(gram.cols[j]))
    if ech.rank != gram.ncols:
        return "Gram rank %d" % ech.rank
    parities = [len(d) % 2 for (d, _w) in algebra_basis(n)]
    for i, j, v in gram.entries():
        if parities[i] != parities[j] and v:
            return "form not even"
    rhs = gram.transpose() @ hc.morphism_matrix("phi", n)
    for j in range(gram.ncols):
        col = gram.cols[j]
        rcol = rhs.cols[j]
        for i in set(col) | set(rcol):
            sign = (-1) ** (parities[i] * parities[j])
            if col.get(i, 0) != rcol.get(i, 0) * sign:
                return "Nakayama identity"
    return None


def _int_apply(cols: list, vec: dict) -> dict:
    """The matrix with ``int`` columns ``cols`` times the ``int`` vector
    ``vec``."""
    out = {}
    for j, x in vec.items():
        for i, y in cols[j].items():
            out[i] = out.get(i, 0) + x * y
    return {i: v for i, v in out.items() if v}


def regular_associativity_failure(n: int):
    """The slow route to ``associativity_failure``, through the 2^n n!
    dimensional regular representation (Bergman's diamond lemma, Adv. Math.
    29, 1978): None when ``multiply`` is associative at rank n, else the
    first check that failed, as text.  Guarded by ``_guard_regular``.

    Let V be the span of the basis, 1 the unit, L_g the left-regular matrix
    of the generator g read from the rewriting rules (``_left_mul``), and
    R_g the matrix of v -> multiply(v, g).  For a basis element b with
    normal word g_1 ... g_k put lambda(b) = L_{g_1} ... L_{g_k} and
    rho(b) = R_{g_k} ... R_{g_1}.  Three checks:

    (i)   R_g L_h = L_h R_g for all generators g and h;
    (ii)  lambda(b) 1 = b and rho(b) 1 = b for every basis element b;
    (iii) each table entry is the L-walk it stands for: T_w c_E, c_D c_E
          and T_u T_v as tabulated equal lambda(T_w) c_E, lambda(c_D) c_E
          and lambda(T_u) T_v.

    Let A be the algebra of matrices generated by the L_g (the identity
    included) and ev: A -> V, X -> X 1.  By (ii), ev(lambda(b)) = b, so ev
    is onto.  If X 1 = 0 then X commutes with every R_g by (i), hence with
    every rho(b), and X b = X rho(b) 1 = rho(b) X 1 = 0 by (ii), so X = 0:
    ev is one-to-one.  Transport the product of A along ev:
    u * v = ev^-1(u) v is associative with unit 1, and on a basis element
    b * v = lambda(b) v.  The normal word of c_D T_w is that of c_D followed
    by that of T_w, so lambda(c_D T_w) = lambda(c_D) lambda(T_w), that is
    c_D T_w = c_D * T_w.  By (iii), T_w * c_E = sum k c_D' T_u as
    tabulated, c_D * c_D' = s c_{D xor D'} and T_u * T_v = t T_{u*v}.  So
    by associativity

        c_D T_w * c_E T_v = c_D * (T_w * c_E) * T_v
                          = sum k s t c_{D xor D'} T_{u*v},

    which is the sum ``multiply`` forms for the pair.  ``multiply`` is
    bilinear, so it equals *, and it is associative.
    """
    _guard_regular(n)
    basis = algebra_basis(n)
    pos = _basis_index(n)
    gens = generators(n)
    left = {g: _left_regular_columns(g, n) for g in gens}

    def walk(cols, word, b):
        vec = {pos[b]: 1}
        for g in word:
            vec = _int_apply(cols[g], vec)
        return vec

    # (ii) by the L's, then (iii), which fills the tables before the R
    # matrices are built
    one = (frozenset(), tuple(range(1, n + 1)))
    lwords = {}
    for b in basis:
        lwords[b] = normal_word(*b)[::-1]
        if walk(left, lwords[b], one) != {pos[b]: 1}:
            return "the L-walk of %s" % basis_element(*b, n)
    for x, y, xy in table_entries(n):
        if walk(left, lwords[x], y) != {pos[k]: v for k, v in xy.items()}:
            return "the table entry %s * %s" % (basis_element(*x, n), basis_element(*y, n))
    elems = [basis_element(d, w, n) for d, w in basis]
    right = {
        g: [{pos[k]: v for k, v in multiply(b, x).terms.items()} for b in elems]
        for g, x in gens.items()
    }
    for b in basis:
        if walk(right, lwords[b][::-1], one) != {pos[b]: 1}:
            return "the R-walk of %s" % basis_element(*b, n)
    for g, rg in right.items():
        for h, lh in left.items():
            if any(_int_apply(rg, a) != _int_apply(lh, b) for a, b in zip(lh, rg)):
                return "R(%s_%d) does not commute with L(%s_%d)" % (g + h)
    return None


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


def hom_dim_to_hecke_simple(module: Supermodule, gammas) -> int:
    """dim Hom(M, S) onto a tuple of one-dimensional Hecke simples."""
    if module.algebra != "H":
        raise ValueError("pass a Hecke-restricted module")
    if isinstance(gammas, (Composition,)) or (
        isinstance(gammas, tuple) and gammas and isinstance(gammas[0], int)
    ):
        gammas = (as_composition(gammas),)
    else:
        gammas = tuple(as_composition(g) for g in gammas)
    minus_eps = {}
    offset = 0
    for size, gamma in zip(module.blocks, gammas):
        d = gamma.descent_set()
        for i in range(1, size):
            # T_i acts on the simple by -1 on a descent, by 0 otherwise
            minus_eps[("T", offset + i)] = 1 if i in d else 0
        offset += size
    rows = []
    for key, mat in module.actions.items():
        e = minus_eps[key]
        for j in range(module.dim):
            # row j of the transposed action: the functional equation
            # sum_c rho[c, j] f_c = eps f_j
            row = dict(mat.cols[j])
            if e:
                vec_add_term(row, j, e)
            if row:
                rows.append(row)
    return len(nullspace(rows, range(module.dim)))


def hecke_simple_hom_dims_by_columns(module: Supermodule) -> dict:
    """``hecke_simple_hom_dims`` by the walk that adds every row of T_i or
    of T_i + 1 at every child, with no span basis reduced beforehand."""
    if module.algebra != "H" or len(module.blocks) != 1:
        raise ValueError("pass a single-block Hecke-restricted module")
    n, dim = module.rank, module.dim
    out = {}

    def walk(i: int, ech: Echelon, descents: tuple) -> None:
        if ech.rank == dim:
            return
        if i >= n:
            out[composition_from_descents(n, descents)] = dim - ech.rank
            return
        cols = module.actions[("T", i)].cols
        for shift in (False, True):
            child = ech.copy()
            for j in range(dim):
                # row j of the transposed action, plus e_j on a descent of gamma
                row = cols[j]
                if shift:
                    row = dict(row)
                    vec_add_term(row, j, 1)
                child.add(row)
                if child.rank == dim:
                    break
            walk(i + 1, child, descents + (i,) if shift else descents)

    walk(1, Echelon(), ())
    return out


def restrict_parabolic(module: Supermodule, shape) -> Supermodule:
    """Restrict a single-block module to the parabolic with the given shape."""
    if len(module.blocks) != 1:
        raise ValueError("parabolic restriction wants a single-block module")
    shape = tuple(int(x) for x in shape)
    if sum(shape) != module.rank:
        raise ValueError("shape %r does not sum to the rank %d" % (shape, module.rank))
    keep = set(generator_keys(shape, module.algebra))
    actions = {k: v for k, v in module.actions.items() if k in keep}
    return Supermodule(shape, module.algebra, module.labels, module.parities, actions)


def coset_factorize(w: tuple, m: int) -> tuple:
    """Factor w = x * u with x a minimal (m, n-m) coset representative.

    x carries the same values per block but sorted increasingly; u permutes
    positions within the blocks, so u lies in the parabolic subgroup.
    """
    x = tuple(sorted(w[:m]) + sorted(w[m:]))
    return x, word_compose(word_inverse(x), w)


class _ParabolicDecomposer:
    """Writes c_D T_w in the free basis T_x * (parabolic element), exactly.

    Keys are triples (x, D', u) with x a minimal-length coset representative,
    u in the parabolic subgroup, D' any subset; the change of basis is
    triangular in the length of w with +-1 leading coefficients.
    """

    def __init__(self, m: int, n: int):
        self.m = m
        self.total = m + n
        self.memo = {}
        self._id = tuple(range(1, self.total + 1))

    def __call__(self, d: frozenset, w: tuple) -> dict:
        key = (d, w)
        got = self.memo.get(key)
        if got is not None:
            return got
        x, u = coset_factorize(w, self.m)
        if x == self._id:
            result = {(x, d, w): 1}
        else:
            xinv = word_inverse(x)
            dp = frozenset(xinv[t - 1] for t in d)
            tx = AlgebraElement(self.total, {(frozenset(), x): 1})
            expanded = multiply(tx, basis_element(dp, u, self.total))
            inv = _invert_scalar(expanded.terms[(d, w)])
            result = {(x, dp, u): inv}
            lw = word_length(w)
            for (d2, w2), c2 in expanded.terms.items():
                if (d2, w2) == (d, w):
                    continue
                if word_length(w2) >= lw:
                    raise AssertionError("triangularity violated in decomposition")
                vec_iadd_scaled(result, self(d2, w2), -(c2 * inv))
        self.memo[key] = result
        return result


def parabolic_induce_by_decomposition(m1: Supermodule, m2: Supermodule) -> Supermodule:
    """``parabolic_induce`` by rewriting: for each generator g and coset
    representative x, g T_x by ``multiply``, each term c_D T_w written in
    the free basis T_y * (parabolic element) by a triangular solve, and each
    parabolic element acting on the outer tensor product by ``element_matrix``.
    Same basis, labels and parities as ``parabolic_induce``."""
    m, n = m1.rank, m2.rank
    if n == 0:
        return m1
    if m == 0:
        return m2
    total = m + n
    inner = outer_tensor(m1, m2)
    reps = min_coset_reps(m, n)
    rpos = {w: k for k, w in enumerate(reps)}
    dec = _ParabolicDecomposer(m, n)
    dimw = inner.dim
    dim = len(reps) * dimw
    labels = [(x, lab) for x in reps for lab in inner.labels]
    parities = [p for _x in reps for p in inner.parities]
    block_cache: dict = {}

    def block_matrix(dp: frozenset, u: tuple) -> SparseMatrix:
        key = (dp, u)
        if key not in block_cache:
            block_cache[key] = element_matrix(inner, {key: 1})
        return block_cache[key]

    actions = {}
    for key in generator_keys((total,), "HCl"):
        kind, idx = key
        gen = gen_T(idx, total) if kind == "T" else gen_c(idx, total)
        mat = SparseMatrix(dim, dim)
        for xi, x in enumerate(reps):
            z = multiply(gen, AlgebraElement(total, {(frozenset(), x): 1}))
            pieces = []
            for (d2, w2), coeff in z.terms.items():
                for (y, dp, u), c2 in dec(d2, w2).items():
                    pieces.append((rpos[y], coeff * c2, block_matrix(dp, u)))
            for k in range(dimw):
                col = mat.cols[xi * dimw + k]
                for (yi, coeff, bm) in pieces:
                    base = yi * dimw
                    vec_iadd_scaled(col, ((base + r, v) for r, v in bm.cols[k].items()), coeff)
        actions[key] = mat
    return Supermodule((total,), "HCl", labels, parities, actions)


def module_mismatch(got: Supermodule, want: Supermodule):
    """The first of blocks, labels, parities and action matrices on which two
    modules differ, ``None`` when they are equal."""
    for what in ("blocks", "labels", "parities"):
        if getattr(got, what) != getattr(want, what):
            return what
    for key in sorted(want.actions):
        if got.actions[key] != want.actions[key]:
            return "action %s" % (key,)
    return None


def parity_shift(module: Supermodule) -> Supermodule:
    """Flip parities; odd generators pick up a sign."""
    actions = {}
    for key, mat in module.actions.items():
        actions[key] = mat.scale(-1) if key[0] == "c" else mat
    parities = tuple((p + 1) % 2 for p in module.parities)
    labels = tuple(("shift", lab) for lab in module.labels)
    return Supermodule(module.blocks, module.algebra, labels, parities, actions)


def trivial_module(algebra: str = "HCl") -> Supermodule:
    return Supermodule((0,), algebra, ("1",), (0,), {})


def with_one_entry_changed(module: Supermodule, key, change) -> Supermodule:
    """The module with the first stored entry of the action of ``key``
    replaced by ``change`` of it: a mutant for negative controls."""
    actions = dict(module.actions)
    mat = actions[key].copy()
    r, k, v = next(mat.entries())
    mat.set(r, k, change(v))
    actions[key] = mat
    return Supermodule(module.blocks, module.algebra, module.labels, module.parities, actions)


def without_provenance(module: Supermodule) -> Supermodule:
    """The same module with no record of an induced module it is a summand
    of (``summand_of`` is ``None``), so ``hom_space`` out of it takes the
    spin route."""
    return Supermodule(
        module.blocks, module.algebra, module.labels, module.parities, module.actions
    )


def is_morphism(f: ModuleMap) -> bool:
    """Whether f is a morphism of its parity: f A_key = (-1)^{|f||key|}
    B_key f as a full matrix identity for every generator key."""
    for key in f.source.actions:
        a = f.source.actions[key]
        b = f.target.actions[key]
        sign = -1 if (f.parity and key[0] == "c") else 1
        if f.matrix @ a != (b @ f.matrix).scale(sign):
            return False
    return True


def inherited_relation_failure(sub: Supermodule, parent: Supermodule, basis: list):
    """What a submodule spun from ``parent`` fails to inherit, as text; None
    when it inherits everything.  ``basis`` lists its basis vectors in
    ``parent`` (the columns of the embedding E): each must be
    parity-homogeneous of the submodule's parity, ``sub.check()`` must pass,
    and A_key E = E A'_key must hold exactly for every generator key.
    ``submodule_on_vectors`` does not check its output; this checks what
    its proof says the output inherits, and the intertwining the proof
    rests on."""
    for k, vec in enumerate(basis):
        if {parent.parities[r] for r in vec} != {sub.parities[k]}:
            return "basis vector %d has the wrong parity" % k
    try:
        sub.check()
    except sm.RelationError as exc:
        return str(exc)
    emb = SparseMatrix(parent.dim, sub.dim, basis)
    for key in sub.actions:
        if parent.actions[key] @ emb != emb @ sub.actions[key]:
            return "embedding does not intertwine %s" % (key,)
    return None


def _word_sum_by_products(terms, image: dict, mul, one):
    """The value of a word sum of ``defining_relations``: each word is the
    left-to-right product ``mul`` of the images of its keys, the empty word
    is ``one``, and a coefficient other than 1 enters through ``scale``."""
    total = None
    for coeff, word in terms:
        val = reduce(mul, [image[key] for key in word]) if word else one
        if coeff != 1:
            val = val.scale(coeff)
        total = val if total is None else total + val
    return total


def failing_relation_by_products(image: dict, mul, one):
    """The first relation among the keys of ``image`` that fails when each
    generator key is read as its image, ``mul`` is the product and ``one``
    the unit, as text; None when every relation holds.  The slow route of
    the package's ``failing_relation``, which walks each word on vectors:
    here every word is formed as a product of matrices or of algebra
    elements."""
    for lhs, rhs in hc.defining_relations(image):
        if (_word_sum_by_products(lhs, image, mul, one)
                != _word_sum_by_products(rhs, image, mul, one)):
            return hc._relation_text(lhs, rhs)
    return None


def relation_routes(module: Supermodule) -> tuple:
    """The first failing relation of the module's actions by both routes:
    ``failing_relation`` walking each word on the unit vectors, and
    ``failing_relation_by_products`` forming each word as a matrix product.
    A correct module gives (None, None)."""
    act = module.actions
    units = [{k: 1} for k in range(module.dim)]
    by_vectors = hc.failing_relation(act, lambda key, vec: act[key].apply(vec), units)
    ident = SparseMatrix.identity(module.dim, 1)
    return by_vectors, failing_relation_by_products(act, operator.matmul, ident)


def end_clifford_by_matrices(alpha) -> dict:
    """The report of ``end_clifford_check`` by full 2^n x 2^n matrix
    identities: each f_{c_v} (built by the package's ``_map_out_of_induced``)
    passes ``is_morphism``, the sqrt(-1) f_{c_v} satisfy the Clifford
    relations as matrices (``failing_relation_by_products``),
    and the ordered products of the f_{c_v}, each started from its first
    factor, span rank 2^|V| over their matrix entries."""
    a = as_composition(alpha)
    module = induce_clifford(simple_hecke(a))
    valleys = sorted(a.valley_set())
    ends = hom_space(module, module)
    report = {
        "alpha": a,
        "valleys": valleys,
        "end_dim": ends.total_dim,
        "expected_dim": 2 ** len(valleys),
        "ok": True,
    }
    if ends.total_dim != 2 ** len(valleys):
        report["ok"] = False
        return report
    fmaps = {
        v: sm._map_out_of_induced(module, [module.actions[("c", v)].cols[0]], 1)
        for v in valleys
    }
    for v, f in fmaps.items():
        if not is_morphism(ModuleMap(module, module, f, 1)):
            report["ok"] = False
            report["bad_generator"] = v
            return report
    ident = SparseMatrix.identity(module.dim, 1)
    bad = failing_relation_by_products(
        {("c", v): f.scale(sm.GAUSS_I) for v, f in fmaps.items()}, operator.matmul, ident
    )
    if bad is not None:
        report["ok"] = False
        report["bad_relation"] = bad
        return report
    span = Echelon()
    for r in range(len(valleys) + 1):
        for combo in itertools.combinations(valleys, r):
            mat = reduce(operator.matmul, [fmaps[v] for v in combo]) if combo else ident
            span.add({(i, j): val for i, j, val in mat.entries()})
    report["span_rank"] = span.rank
    if span.rank != 2 ** len(valleys):
        report["ok"] = False
    return report


def hom_route_mismatch(src: Supermodule, dst: Supermodule):
    """Why ``hom_space`` out of ``src``, an induced module or a summand of
    one, which goes through the induction adjunction (and, for a summand,
    restriction to its basis), disagrees with the spin route out of the
    same module without provenance; ``None`` when they agree.

    They agree when, in each parity, the two bases have the same size, the
    union of both has rank that size (so they span one space), and every
    lifted map is a morphism."""
    if src.summand_of is None:
        raise ValueError("the source is not a summand of an induced module")
    fast = hom_space(src, dst)
    slow = hom_space(without_provenance(src), dst)
    for par, got, want in ((0, fast.even, slow.even), (1, fast.odd, slow.odd)):
        if len(got) != len(want):
            return "parity %d: dimension %d, spin route %d" % (par, len(got), len(want))
        span = Echelon()
        for f in got + want:
            span.add({(i, j): v for i, j, v in f.matrix.entries()})
        if span.rank != len(want):
            return "parity %d: the two bases span rank %d" % (par, span.rank)
        for f in got:
            if not is_morphism(f):
                return "parity %d: a lifted map is no morphism" % par
    return None


def bruhat_filtration(alpha) -> list:
    """Subquotients of the induced projective along a length-refining order
    of the descent class; step w is evenly isomorphic to the induced simple
    of the descent composition of w^{-1}.

    Returns a list of (w, subquotient, expected_composition, iso) tuples.
    """
    a = as_composition(alpha)
    if a.n > MAX_FILTRATION_N:
        raise ResourceLimitError("filtration guard at n <= %d" % MAX_FILTRATION_N,
                                 "MAX_FILTRATION_N")
    module = induce_clifford(projective_hecke(a))
    ws = _descent_class_sorted(a)
    dm = len(ws)
    n = a.n
    subs = _subsets_ordered(n)
    out = []
    for j, w in enumerate(ws):
        idxs = [di * dm + j for di in range(len(subs))]
        posmap = {g: t for t, g in enumerate(idxs)}
        labels = [module.labels[g] for g in idxs]
        parities = [module.parities[g] for g in idxs]
        actions = {}
        for key, mat in module.actions.items():
            small = SparseMatrix(len(idxs), len(idxs))
            for t, g in enumerate(idxs):
                for r, v in mat.cols[g].items():
                    w2 = ws[r % dm]
                    if r in posmap:
                        small.cols[t][posmap[r]] = v
                    elif (word_length(w2), w2) < (word_length(w), w):
                        raise AssertionError("filtration order violated")
            actions[key] = small
        sub = Supermodule((n,), "HCl", labels, parities, actions)
        expected = composition_from_descents(n, word_descents(word_inverse(w)))
        target = induce_clifford(simple_hecke(expected))
        iso = find_isomorphism(sub, target, parity=0)
        out.append((w, sub, expected, iso))
    return out


def clifford_idempotents(alpha) -> list:
    """The true even idempotents e_eps = prod_j (1 + eps_j sqrt(-1)
    c_{n_{2j-1}} c_{n_{2j}})/2 over consecutive valley pairs, as (eps, e_eps),
    each factor formed from the generators and halved as it is applied."""
    a = as_composition(alpha)
    n = a.n
    valleys = sorted(a.valley_set())
    out = []
    for eps in itertools.product((1, -1), repeat=len(valleys) // 2):
        e = unit(n)
        for j, sign in enumerate(eps):
            v1, v2 = valleys[2 * j], valleys[2 * j + 1]
            factor = unit(n) + multiply(gen_c(v1, n), gen_c(v2, n)).scale(GAUSS_I * sign)
            e = multiply(e, factor).scale(Fraction(1, 2))
        out.append((eps, e))
    return out


def peak_sets_by_subset_walk(n: int) -> list:
    """The peak sets in [n] by a walk over every subset of [2, n-1], of
    which only the sparse ones are kept, then sorted by bitmask."""
    candidates = []
    universe = list(range(2, n))
    for r in range(len(universe) + 1):
        for combo in itertools.combinations(universe, r):
            if all(combo[i + 1] - combo[i] >= 2 for i in range(len(combo) - 1)):
                candidates.append(PeakSet(n, frozenset(combo)))
    candidates.sort(key=lambda p: p.bitmask())
    return candidates


def cartan_walk(alpha) -> FreeElement:
    """Route (i) of ``characteristic.cartan_image`` by the walk it replaced:
    the sum of K over P(w^{-1}) for every w in the descent class of alpha.
    The package reads the same sum off one row of the descent-pair table."""
    a = as_composition(alpha)
    out = FreeElement.zero("PeakDual", "K")
    for w in descent_class(a):
        out = out + term("PeakDual", "K", PeakSet(a.n, word_peaks(word_inverse(w))))
    return out


# ---------------------------------------------------------------------------
# the anti-involution phi of the peak subalgebra, through a preimage
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _theta_h_image(alpha: Composition) -> FreeElement:
    return theta_transform(term("NSym", "H", alpha))


@lru_cache(maxsize=None)
def _theta_preimage_solver(degree: int) -> SpanSolver:
    """Span of the H-word images under the descent-to-peak transform,
    tagged by the words; expressing an element yields one preimage."""
    solver = SpanSolver()
    for a in compositions_of(degree):
        solver.add(a, dict(_theta_h_image(a).coeffs))
    return solver


def phi_on_peak(x: FreeElement) -> FreeElement:
    """The anti-involution of the peak subalgebra induced by reversal, the
    slow route: write x as a combination of images of H words, reverse the
    words, re-apply.  The result is preimage-independent because reversal
    fixes the kernel.  ``restriction_class_sides`` reads phi(Theta(R_a)) as
    Theta(R_rev(a)) directly."""
    xi = convert(x, "Xi", "Peak")
    out = FreeElement.zero("Peak", "Xi")
    for degree in xi.degrees():
        comp = xi.component(degree)
        if degree == 0:
            out = out + comp
            continue
        rep = _theta_preimage_solver(degree).express(dict(comp.coeffs))
        if rep is None:
            raise AssertionError("element not in the image of the transform")
        for a, coeff in rep.items():
            out = out + _theta_h_image(a.reverse()).scale(coeff)
    return out


# ---------------------------------------------------------------------------
# readers of the JSON forms that the CLI writes
# ---------------------------------------------------------------------------


def _index_from_json(algebra, basis, data):
    if isinstance(data, dict):
        return PeakSet(data["n"], frozenset(data["set"]))
    if algebra in ("Sym", "Omega") and basis != "r":
        return tuple(data)
    return Composition(tuple(data))


def element_from_json(doc) -> FreeElement:
    algebra, basis = doc["algebra"], doc["basis"]
    coeffs = {}
    for entry in doc["terms"]:
        idx = _index_from_json(algebra, basis, entry["index"])
        coeffs[idx] = coeffs.get(idx, Fraction(0)) + Fraction(entry["coeff"])
    return FreeElement(algebra, basis, coeffs)


def algebra_element_from_json(doc) -> AlgebraElement:
    terms = {}
    for entry in doc["terms"]:
        key = (frozenset(entry["c"]), tuple(entry["w"]))
        coeff = gaussian(Fraction(entry["coeff"]["re"]), Fraction(entry["coeff"]["im"]))
        terms[key] = terms.get(key, 0) + coeff
    return AlgebraElement(doc["rank"], terms)


# ---------------------------------------------------------------------------
# the Fock action through the coproduct in K (x) K
# ---------------------------------------------------------------------------


def fock_action_by_tensor(a: FreeElement, x: FreeElement) -> FreeElement:
    """``heisenberg.fock_action`` by the whole coproduct of x in K (x) K:
    [a, K_Q] is the Xi coefficient of a at Q, read against the right slot
    from the decoded views, with no deconcatenation in M."""
    xi = convert(a, "Xi", "Peak").coeffs
    out = {}
    for (k1, k2), c in coproduct(convert(x, "K", "PeakDual")).coeffs.items():
        val = xi.get(k2)
        if val:
            vec_add_term(out, k1, c * val)
    return FreeElement("PeakDual", "K", out)


def fock_route_mismatch(max_degree: int, homogeneous: bool = False) -> list:
    """The pairs (a, x) of degree <= max_degree on which ``fock_action``
    and ``fock_action_by_tensor`` disagree, as strings.

    a runs over every Xi_P and every Q_1 + ... + Q_n; x over every K_Q
    (the unit K_{} among them), every N_alpha and one N combination with
    ``Fraction`` coefficients.  With ``homogeneous`` set, a runs over the Xi_P alone,
    of degree at most that of x."""
    keys = [P for d in range(max_degree + 1) for P in peak_sets_in(d)]
    acts = [term("Peak", "Xi", P) for P in keys]
    if not homogeneous:
        acts += [
            convert(FreeElement("NSym", "Q", {(m,): 1 for m in range(1, n + 1)}), "Xi", "Peak")
            for n in range(1, max_degree + 1)
        ]
    words = [a for d in range(1, max_degree + 1) for a in compositions_of(d)]
    xs = [term("PeakDual", "K", Q) for Q in keys] + [term("PeakDual", "N", w) for w in words]
    xs.append(
        FreeElement("PeakDual", "N", {w: Fraction(i + 1, 3) for i, w in enumerate(words[::3])})
    )
    bad = []
    for x in xs:
        top = max(x.degrees())
        for a in acts:
            if homogeneous and a.degrees()[0] > top:
                continue
            if fock_action(a, x) != fock_action_by_tensor(a, x):
                bad.append((str(a), str(x)))
    return bad


# ---------------------------------------------------------------------------
# the smash-product double
# ---------------------------------------------------------------------------


class DoubleElement:
    """An element of the smash-product double: sums of x # a with x in the
    peak dual (K keys) and a in the peak algebra (Xi keys).  It multiplies
    by (x # a)(y # b) = sum x (a_1 . y) # a_2 b, with the lowering action
    ``heisenberg.fock_action``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {k: _rational(v) for k, v in (coeffs or {}).items() if v}

    @classmethod
    def from_elements(cls, x: FreeElement, a: FreeElement) -> "DoubleElement":
        x = convert(x, "K", "PeakDual")
        a = convert(a, "Xi", "Peak")
        return cls({
            (kx, ka): cx * ca for kx, cx in x.coeffs.items() for ka, ca in a.coeffs.items()
        })

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            vec_add_term(out, k, v)
        return DoubleElement(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = _rational(c)
        return DoubleElement({k: v * c for k, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, DoubleElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        raise TypeError("DoubleElement is not hashable")

    def __bool__(self):
        return bool(self.coeffs)

    def __mul__(self, other: "DoubleElement") -> "DoubleElement":
        """(x # a)(y # b) = sum x (a_1 . y) # a_2 b."""
        out = {}
        for (kx, ka), c1 in self.coeffs.items():
            a = term("Peak", "Xi", ka)
            da = coproduct(a)
            for (ky, kb), c2 in other.coeffs.items():
                y = term("PeakDual", "K", ky)
                for (a1, a2), ca in da.coeffs.items():
                    lowered = fock_action(term("Peak", "Xi", a1), y)
                    if not lowered:
                        continue
                    right = product(term("Peak", "Xi", a2), term("Peak", "Xi", kb))
                    for kx2, cx2 in lowered.coeffs.items():
                        xprod = product(
                            term("PeakDual", "K", kx), term("PeakDual", "K", kx2)
                        )
                        for kfin, cfin in xprod.coeffs.items():
                            vec_iadd_scaled(
                                out,
                                (((kfin, kr), cr) for kr, cr in right.coeffs.items()),
                                c1 * c2 * ca * cx2 * cfin,
                            )
        return DoubleElement(out)

    def apply(self, x: FreeElement) -> FreeElement:
        """Fock-space action: lower by the peak part, multiply by the dual part."""
        out = FreeElement.zero("PeakDual", "K")
        for (kx, ka), c in self.coeffs.items():
            lowered = fock_action(term("Peak", "Xi", ka), x)
            if lowered:
                out = out + product(term("PeakDual", "K", kx), lowered).scale(c)
        return out

    def terms(self):
        return sorted(
            self.coeffs.items(),
            key=lambda kv: (kv[0][0].code, kv[0][1].code),
        )

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for (kx, ka), c in self.terms():
            bits.append(
                "%s*K{%s}@%d#Xi{%s}@%d"
                % (
                    c,
                    ",".join(str(e) for e in sorted(kx.elements)),
                    kx.n,
                    ",".join(str(e) for e in sorted(ka.elements)),
                    ka.n,
                )
            )
        return " + ".join(bits)

    __repr__ = __str__
