"""Exact supermodule calculus over 0-Hecke and 0-Hecke-Clifford algebras.

A ``Supermodule`` is a labelled Z2-graded basis plus one exact action matrix
per generator, over Q(i); every entry follows the one representation of
``scalars`` (``int`` while integral).  ``blocks`` records the parabolic
shape: a module over the rank-5 algebra has blocks (5,), one over the tensor
product of ranks 2 and 3 has blocks (2, 3).  Generators carry global indices
("T", i) / ("c", j); for every block of size b at offset o the T-indices run
over o+1..o+b-1 and the c-indices over o+1..o+b.  With this indexing the
defining relations take the same shape within and across blocks (distant
T's commute, all c's anticommute, distant T/c pairs commute), so one
relation checker serves plain and parabolic modules alike.

Morphism conventions: a map f of parity |f| satisfies f(am) =
(-1)^{|f||a|} a f(m), so odd maps commute with the (even) T-actions and
anticommute with the (odd) c-actions.

The Grothendieck-level machinery lives in ``characteristic``; this module
supplies its workhorses, most importantly exact composition multiplicities
over the 0-Hecke algebra computed from traces: for a subset S of T-indices
the trace of the ordered product of the T-actions equals
(-1)^{|S|} |{composition factors whose descent data contain S}|, and a
Moebius inversion over the subset lattice recovers every multiplicity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .combinat import (
    Composition,
    ResourceLimitError,
    as_composition,
    composition_from_descents,
    descent_class,
    min_coset_reps,
    swap_values,
    word_descents,
    word_inverse,
    word_length,
)
from .hecke_clifford import (
    AlgebraElement,
    _ANTI_TAGS,
    _first_letter,
    _left_mul,
    _morphism_generator_images,
    _subsets_ordered,
    act_terms,
    basis_element,
    defining_relations,
    failing_relation,
    multiply,
    unit,
)
from .linalg import (
    Echelon,
    SparseMatrix,
    SpanSolver,
    nullspace,
    vec_add_term,
    vec_iadd_scaled,
    vec_scale,
)
from .scalars import GAUSS_I, _gauss_from_json, _gauss_json, as_scalar

__all__ = [
    "Supermodule",
    "RelationError",
    "ModuleMap",
    "HomBasis",
    "IsoSearch",
    "generator_keys",
    "simple_hecke",
    "projective_hecke",
    "induce_clifford",
    "outer_tensor",
    "parabolic_induce",
    "restrict_hecke",
    "restrict_corner",
    "act_element",
    "element_matrix",
    "twist",
    "hom_space",
    "find_isomorphism",
    "hecke_composition_multiplicities",
    "projective_hom_dim",
    "hecke_simple_hom_dims",
    "split_simple",
    "SimpleSplit",
    "end_clifford_check",
    "restriction_vectors",
    "submodule_on_vectors",
    "module_to_json",
    "module_from_json",
    "MAX_HOM_CELLS",
    "MAX_PARABOLIC_RANK",
    "MAX_RESTRICTION_N",
]

MAX_HOM_CELLS = 20000  # dim(src) * dim(dst) of one hom_space system
MAX_PROJECTIVE_N = 8  # projective_hecke
MAX_PARABOLIC_RANK = 6  # combined rank of parabolic_induce
MAX_RESTRICTION_N = 7  # restriction_vectors


def generator_keys(blocks: tuple, algebra: str) -> list:
    keys = []
    offset = 0
    for size in blocks:
        for i in range(offset + 1, offset + size):
            keys.append(("T", i))
        offset += size
    if algebra == "HCl":
        offset = 0
        for size in blocks:
            for j in range(offset + 1, offset + size + 1):
                keys.append(("c", j))
            offset += size
    return keys


class RelationError(ValueError):
    """A module's action matrices fail a defining relation or the super
    grading: a failed case, not malformed input."""


class Supermodule:
    """Labelled Z2-graded basis with one exact action matrix per generator.

    ``summand_of`` records a module as a direct summand of an induced one:
    ``(N, embedding)`` for a 0-Hecke module N, where ``embedding`` lists the
    module's basis vectors as columns in the basis c_D (x) n of Ind N, and
    ``None`` for every other module.  ``induce_clifford(N)`` is its own
    summand, with ``embedding`` ``None`` for the identity; ``split_simple``
    gives each component its basis in Ind S_alpha.  No other constructor
    sets the slot or passes it on.
    """

    __slots__ = ("blocks", "algebra", "labels", "parities", "actions", "summand_of")

    def __init__(self, blocks, algebra, labels, parities, actions):
        self.blocks = tuple(blocks)
        self.algebra = algebra
        self.labels = tuple(labels)
        self.parities = tuple(int(p) % 2 for p in parities)
        self.actions = dict(actions)
        self.summand_of = None
        keys = set(generator_keys(self.blocks, algebra))
        if set(self.actions) != keys:
            raise ValueError(
                "expected actions for %s, got %s" % (sorted(keys), sorted(self.actions))
            )

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def rank(self) -> int:
        return sum(self.blocks)

    def graded_dims(self) -> tuple:
        even = sum(1 for p in self.parities if p == 0)
        return even, self.dim - even

    def check(self) -> None:
        """Verify that every action is parity-homogeneous and every defining
        relation an exact matrix identity; a failing one raises
        ``RelationError``, an action of the wrong shape ``ValueError``."""
        dim = self.dim
        act = self.actions
        for key, mat in act.items():
            if mat.nrows != dim or mat.ncols != dim:
                raise ValueError("action %s has wrong shape" % (key,))
            want = 0 if key[0] == "T" else 1
            for r, cc, _v in mat.entries():
                if (self.parities[r] + self.parities[cc]) % 2 != want:
                    raise RelationError("action %s is not parity-homogeneous" % (key,))
        # __init__ made the keys of act the generator keys of the blocks
        failed = failing_relation(act, _acts_on(self), [{k: 1} for k in range(dim)],
                                  images={key: mat.cols for key, mat in act.items()})
        if failed:
            raise RelationError("relation %s fails" % failed)

    def __repr__(self):
        return "Supermodule(blocks=%r, algebra=%r, dim=%d)" % (
            self.blocks,
            self.algebra,
            self.dim,
        )


# ---------------------------------------------------------------------------
# basic constructions
# ---------------------------------------------------------------------------


def simple_hecke(alpha) -> Supermodule:
    """The one-dimensional module where T_i acts by -1 on descents, else 0."""
    a = as_composition(alpha)
    n = a.n
    d = a.descent_set()
    actions = {}
    for i in range(1, n):
        mat = SparseMatrix(1, 1)
        if i in d:
            mat.cols[0][0] = -1
        actions[("T", i)] = mat
    return Supermodule((n,), "H", ("eta",), (0,), actions)


@lru_cache(maxsize=None)
def _descent_class_sorted(alpha: Composition) -> tuple:
    return tuple(sorted(descent_class(alpha), key=lambda w: (word_length(w), w)))


def projective_hecke(alpha) -> Supermodule:
    """Indecomposable projective over the 0-Hecke algebra, basis u_w over the
    descent class, in (length, word) order."""
    a = as_composition(alpha)
    n = a.n
    if n > MAX_PROJECTIVE_N:
        raise ResourceLimitError(
            "projective module guard at n <= %d" % MAX_PROJECTIVE_N,
            "MAX_PROJECTIVE_N",
        )
    ws = _descent_class_sorted(a)
    pos = {w: k for k, w in enumerate(ws)}
    cls = set(ws)
    actions = {}
    for i in range(1, n):
        mat = SparseMatrix(len(ws), len(ws))
        for col, w in enumerate(ws):
            invdes = word_descents(word_inverse(w))
            if i in invdes:
                mat.cols[col][col] = -1
            else:
                sw = swap_values(i, w)
                if sw in cls:
                    mat.cols[col][pos[sw]] = 1
        actions[("T", i)] = mat
    return Supermodule((n,), "H", ws, (0,) * len(ws), actions)


@lru_cache(maxsize=None)
def _induced_moves(key, n: int) -> tuple:
    """key * c_D in normal form for each subset D in order, read off the
    algebra's rewriting rules: (position of E, sign, acts) per term, the
    term c_E T_i when ``acts`` and c_E otherwise.  At most 2n - 1 entries
    per rank n, one per generator key."""
    subs = _subsets_ordered(n)
    dpos = {d: k for k, d in enumerate(subs)}
    ident = tuple(range(1, n + 1))
    return tuple(
        tuple((dpos[e], s, w != ident) for (e, w), s in _left_mul(key, {(d, ident): 1}).items())
        for d in subs
    )


def induce_clifford(module: Supermodule) -> Supermodule:
    """Induce a 0-Hecke module to the Hecke-Clifford algebra of the same rank.

    The result has basis c_D (x) m over subsets D of [n].  A generator acts
    by rewriting its product with c_D into terms c_E and c_E T_i: c_E keeps
    m, and c_E T_i acts by T_i on m.
    """
    if module.algebra != "H" or len(module.blocks) != 1:
        raise ValueError("induce_clifford wants a single-block 0-Hecke module")
    n = module.rank
    subs = _subsets_ordered(n)
    dm = module.dim
    dim = len(subs) * dm
    labels = [(tuple(sorted(d)), lab) for d in subs for lab in module.labels]
    parities = [(len(d) + p) % 2 for d in subs for p in module.parities]
    actions = {}
    for key in [("c", j) for j in range(1, n + 1)] + [("T", i) for i in range(1, n)]:
        tmat = module.actions.get(key)
        mat = SparseMatrix(dim, dim)
        for di, moves in enumerate(_induced_moves(key, n)):
            for k in range(dm):
                col = mat.cols[di * dm + k]
                for e, s, acts in moves:
                    if acts:
                        for r, v in tmat.cols[k].items():
                            vec_add_term(col, e * dm + r, v if s > 0 else -v)
                    else:
                        vec_add_term(col, e * dm + k, s)
        actions[key] = mat
    induced = Supermodule((n,), "HCl", labels, parities, actions)
    induced.summand_of = (module, None)
    return induced


def outer_tensor(m1: Supermodule, m2: Supermodule) -> Supermodule:
    """Outer tensor product over the tensor superalgebra of the two blocks:
    (a (x) b)(m (x) n) = (-1)^{|b||m|} am (x) bn."""
    if m1.algebra != m2.algebra:
        raise ValueError("mixed algebra tags in outer tensor")
    offset = m1.rank
    blocks = m1.blocks + m2.blocks
    d1, d2 = m1.dim, m2.dim
    labels = []
    parities = []
    for a in range(d1):
        for b in range(d2):
            labels.append((m1.labels[a], m2.labels[b]))
            parities.append((m1.parities[a] + m2.parities[b]) % 2)
    dim = d1 * d2
    actions = {}
    for key, mat in m1.actions.items():
        big = SparseMatrix(dim, dim)
        for col in range(d1):
            for row, v in mat.cols[col].items():
                for b in range(d2):
                    big.cols[col * d2 + b][row * d2 + b] = v
        actions[key] = big
    for key, mat in m2.actions.items():
        newkey = (key[0], key[1] + offset)
        odd = key[0] == "c"
        big = SparseMatrix(dim, dim)
        for a in range(d1):
            sign = -1 if (odd and m1.parities[a]) else 1
            for col in range(d2):
                for row, v in mat.cols[col].items():
                    big.cols[a * d2 + col][a * d2 + row] = v * sign
        actions[newkey] = big
    return Supermodule(blocks, m1.algebra, labels, parities, actions)


# ---------------------------------------------------------------------------
# parabolic induction
# ---------------------------------------------------------------------------


def parabolic_induce(m1: Supermodule, m2: Supermodule) -> Supermodule:
    """Induce the outer tensor product W = m1 (x) m2 up the parabolic
    inclusion of the ranks m and n into the rank m + n.

    Basis: T_x (x) w over the binomial(m+n, m) minimal coset
    representatives x of ``min_coset_reps``, whose two blocks of positions
    1..m and m+1..m+n both increase, times the basis of ``outer_tensor``.
    The T_x are a basis of the algebra as a free right module over the
    parabolic subalgebra, and each generator acts by one step:

    * T_i.  By the left Demazure rule T_i T_x = -T_x when i+1 stands left
      of i in x.  Otherwise, when i and i+1 lie in different blocks,
      exchanging them keeps both blocks increasing, so s_i x is again a
      representative, one longer, and T_i T_x = T_{s_i x}.  Otherwise i and
      i+1 sit at adjacent positions j, j+1 of one block; then
      s_i x = x s_j with lengths adding, so T_i T_x = T_x T_j, and the
      parabolic generator T_j acts on W.
    * c_j.  On T_id (x) w = 1 (x) w it acts as on W.  For x != id let i be
      the least index whose i+1 stands left of i: i+1 lies in the first
      block and i in the second, so x' = s_i x is a representative, one
      shorter, with T_x = T_i T_x'; it comes earlier in the lexicographic
      order, its first block having i for i+1.  The cross relations
      T_i c_j = c_j T_i (j != i, i+1), T_i c_i = c_{i+1} T_i and
      (T_i + 1) c_{i+1} = c_i (T_i + 1) give

          c_j T_i = T_i c_j  (j != i, i+1),   c_{i+1} T_i = T_i c_i,
          c_i T_i = T_i c_{i+1} + c_{i+1} - c_i,

      so the column of c_j on T_x (x) w is the T_i matrix applied to a
      column of x' (plus, for j = i, two columns of x'): one sparse apply
      per column, as in ``_map_out_of_induced``.
    """
    if m1.algebra != "HCl" or m2.algebra != "HCl":
        raise ValueError("parabolic induction implemented for Hecke-Clifford modules")
    if len(m1.blocks) != 1 or len(m2.blocks) != 1:
        raise ValueError("factors must be single-block modules")
    m, n = m1.rank, m2.rank
    total = m + n
    if total > MAX_PARABOLIC_RANK:
        raise ResourceLimitError(
            "parabolic induction guard at combined rank %d" % MAX_PARABOLIC_RANK,
            "MAX_PARABOLIC_RANK",
        )
    if n == 0:
        return m1
    if m == 0:
        return m2
    inner = outer_tensor(m1, m2)
    reps = min_coset_reps(m, n)
    rpos = {x: k for k, x in enumerate(reps)}
    dimw = inner.dim
    dim = len(reps) * dimw
    labels = [(x, lab) for x in reps for lab in inner.labels]
    parities = [p for _x in reps for p in inner.parities]
    actions = {}
    for i in range(1, total):
        cols = []
        for xi, x in enumerate(reps):
            a, b = x.index(i), x.index(i + 1)
            base = xi * dimw
            if b < a:
                cols += [{base + k: -1} for k in range(dimw)]
            elif a < m <= b:
                up = rpos[swap_values(i, x)] * dimw
                cols += [{up + k: 1} for k in range(dimw)]
            else:
                t = inner.actions[("T", b)]
                cols += [{base + r: v for r, v in col.items()} for col in t.cols]
        actions[("T", i)] = SparseMatrix(dim, dim, cols)
    # the columns of each c_j, filled in the order of reps; x = id first
    ccols = {j: list(inner.actions[("c", j)].cols) for j in range(1, total + 1)}
    for x in reps[1:]:
        (_t, i), (_d, prev) = _first_letter(frozenset(), x)
        tmat = actions[("T", i)]
        p = rpos[prev] * dimw
        swap = {i: i + 1, i + 1: i}
        for k in range(dimw):
            below = {j: cols[p + k] for j, cols in ccols.items()}
            for j, cols in ccols.items():
                col = tmat.apply(below[swap.get(j, j)])
                if j == i:
                    vec_iadd_scaled(col, below[i + 1], 1)
                    vec_iadd_scaled(col, below[i], -1)
                cols.append(col)
    actions.update((("c", j), SparseMatrix(dim, dim, cols)) for j, cols in ccols.items())
    return Supermodule((total,), "HCl", labels, parities, actions)


# ---------------------------------------------------------------------------
# restrictions
# ---------------------------------------------------------------------------


def restrict_hecke(module: Supermodule) -> Supermodule:
    """Forget the Clifford generators."""
    actions = {k: v for k, v in module.actions.items() if k[0] == "T"}
    return Supermodule(module.blocks, "H", module.labels, module.parities, actions)


def restrict_corner(module: Supermodule) -> Supermodule:
    """Restrict along the corner inclusion of the rank-(n-1) subalgebra
    generated by T_1..T_{n-2} and c_1..c_{n-1}."""
    if len(module.blocks) != 1:
        raise ValueError("corner restriction wants a single-block module")
    n = module.rank
    if n < 1:
        raise ValueError("rank must be at least 1")
    keep = set(generator_keys((n - 1,), module.algebra))
    actions = {k: v for k, v in module.actions.items() if k in keep}
    return Supermodule((n - 1,), module.algebra, module.labels, module.parities, actions)


# ---------------------------------------------------------------------------
# acting by algebra elements, twisting, duals
# ---------------------------------------------------------------------------


def _acts_on(module: Supermodule):
    """One generator key applied to a vector of the module."""
    return lambda key, vec: module.actions[key].apply(vec)


def act_element(module: Supermodule, element: AlgebraElement, vec: dict) -> dict:
    """An algebra element applied to one vector of a single-block module."""
    if len(module.blocks) != 1 or module.rank != element.rank:
        raise ValueError("element rank does not match the module")
    return act_terms(element.terms, _acts_on(module), [vec])[0]


def element_matrix(module: Supermodule, terms: dict) -> SparseMatrix:
    """Matrix of sum coeff * c_D T_w, given as a term dict, on a module:
    the normal words walked on every unit column together, the action
    columns standing for the first letter of each word.  The result shares
    no dict with the module."""
    dim = module.dim
    units = [{k: 1} for k in range(dim)]
    images = {key: mat.cols for key, mat in module.actions.items()}
    cols = act_terms(terms, _acts_on(module), units, images=images)
    if any(cols is own for own in images.values()):
        # a lone letter with coefficient 1: the module's own columns
        cols = [dict(col) for col in cols]
    return SparseMatrix(dim, dim, cols)


def twist(module: Supermodule, tag: str) -> Supermodule:
    """Twist the action by an algebra morphism: g acts as the image of g.
    For the unsigned anti-involutions psi and psi_prime this is the twisted
    dual, (a.f)(m) = f(nu(a)m): the images transposed, on dual labels."""
    if len(module.blocks) != 1:
        raise ValueError("twist wants a single-block module")
    images = _morphism_generator_images(tag, module.rank)
    anti = tag in _ANTI_TAGS
    actions = {}
    for key in module.actions:
        img = images[key]
        if img is None:
            raise ValueError("phi_bar is defined on the Hecke subalgebra only")
        if module.algebra == "H":
            if any(d for (d, _w) in img.terms):
                raise ValueError("twist by %s leaves the Hecke subalgebra" % tag)
        mat = element_matrix(module, img.terms)
        actions[key] = mat.transpose() if anti else mat
    labels = tuple(("dual", lab) for lab in module.labels) if anti else module.labels
    return Supermodule(module.blocks, module.algebra, labels, module.parities, actions)


# ---------------------------------------------------------------------------
# Hom spaces and isomorphism search
# ---------------------------------------------------------------------------


@dataclass
class ModuleMap:
    source: Supermodule
    target: Supermodule
    matrix: SparseMatrix
    parity: int

    def is_invertible(self) -> bool:
        if self.source.dim != self.target.dim:
            return False
        ech = Echelon()
        for col in self.matrix.cols:
            ech.add(dict(col))
        return ech.rank == self.source.dim

    def apply(self, vec: dict) -> dict:
        return self.matrix.apply(vec)


@dataclass
class HomBasis:
    even: list
    odd: list

    @property
    def total_dim(self) -> int:
        return len(self.even) + len(self.odd)


def hom_space(src: Supermodule, dst: Supermodule) -> HomBasis:
    """Exact basis of the morphism space, split into even and odd parts.

    A morphism is fixed by the images of generators of ``src``, so the
    unknowns are those images, not the dim(src)·dim(dst) matrix entries:
    ``_spin`` finds a standard basis of ``src`` with its relations, and
    ``_maps_from_generators`` solves for the images that respect them.

    A source with ``src.summand_of = (N, E)`` goes through the induction
    adjunction Hom_HCl(Ind N, M) = Hom_H(N, Res M): the same route solves
    the smaller system out of N into the 0-Hecke restriction of ``dst``,
    and ``_map_out_of_induced`` lifts each solution, keeping its parity.
    For Ind N itself (E is ``None``) the lifts are the basis.

    Otherwise ``src`` is a direct summand C of Ind N with basis E: Ind N =
    C + C' for a submodule C', and the projection p onto C along C' is an
    even morphism.  So every f in Hom(C, M) extends to f∘p in
    Hom(Ind N, M), and its restriction (f∘p)∘E is f again; conversely every
    F∘E with F a morphism out of Ind N is one out of C.  Hom(C, M) is thus
    spanned by the lifts F restricted to E, parity by parity, and one
    ``Echelon`` over the matrix entries keeps the restrictions that are
    independent of those before them.  Only a summand makes this
    complete: out of a general submodule, restriction gives only the maps
    that extend.  ``MAX_HOM_CELLS`` bounds dim(src)·dim(dst) on every
    route.
    """
    if src.blocks != dst.blocks or src.algebra != dst.algebra:
        raise ValueError("hom_space wants modules over the same algebra")
    if src.dim * dst.dim > MAX_HOM_CELLS:
        raise ResourceLimitError(
            "hom system with %d cells exceeds the guard %d" % (src.dim * dst.dim, MAX_HOM_CELLS),
            "MAX_HOM_CELLS",
        )
    if src.summand_of is None:
        mats = _spin_maps(src, dst)
    else:
        base, embedding = src.summand_of
        mats = [
            [_map_out_of_induced(dst, phi.cols, par) for phi in inner]
            for par, inner in enumerate(_spin_maps(base, restrict_hecke(dst)))
        ]
        if embedding is not None:
            mats = [_restricted_basis(part, embedding) for part in mats]
    even, odd = ([ModuleMap(src, dst, mat, par) for mat in part] for par, part in enumerate(mats))
    return HomBasis(even, odd)


def _restricted_basis(maps: list, embedding: list) -> list:
    """The maps F∘E, E having the columns ``embedding``, that are linearly
    independent of those kept before them."""
    span = Echelon()
    out = []
    for f in maps:
        g = SparseMatrix(f.nrows, len(embedding), [f.apply(col) for col in embedding])
        if span.add({(i, j): v for i, j, v in g.entries()}) is not None:
            out.append(g)
    return out


def _spin_maps(src: Supermodule, dst: Supermodule) -> tuple:
    """Matrices of a basis of the even and of the odd morphisms, by the
    generator route; kept apart from ``hom_space`` so that its adjunction
    route is not a second ``hom_space`` call."""
    spin = _spin(src, [{j: 1} for j in range(src.dim)])
    return tuple(_maps_from_generators(spin, dst, par) for par in (0, 1))


def _map_out_of_induced(target: Supermodule, images: list, parity: int) -> SparseMatrix:
    """The parity-``parity`` map out of Ind N that sends 1 (x) n_k to
    ``images[k]``: c_D (x) n_k -> (-1)^{parity |D|} c_D . images[k], c_D
    acting on ``target``.

    By the induction adjunction every morphism out of Ind N is the lift of
    its restriction to N, a 0-Hecke map into the restriction of ``target``.
    The column of c_D (x) n_k is (-1)^parity c_j applied to the column of
    c_{D - {j}} (x) n_k, j = min D, which comes earlier in the subset
    order: one sparse apply per column.
    """
    subs = _subsets_ordered(target.rank)
    dpos = {d: k for k, d in enumerate(subs)}
    dm = len(images)
    mat = SparseMatrix(target.dim, len(subs) * dm)
    mat.cols[:dm] = [dict(v) for v in images]  # the empty subset comes first
    for di, d in enumerate(subs[1:], 1):
        j = min(d)
        act = target.actions[("c", j)]
        prev = dpos[d - {j}] * dm
        for k in range(dm):
            col = act.apply(mat.cols[prev + k])
            mat.cols[di * dm + k] = {r: -v for r, v in col.items()} if parity else col
    return mat


def _spin(module: Supermodule, seeds):
    """Standard basis w_0, w_1, ... of the submodule generated by ``seeds``
    (Holt-Rees spinning).

    Each seed not yet reached becomes a generator and is closed under the
    actions, breadth first.  Returns ``(events, parities, coords, vecs)``,
    where ``events`` lists in order

    * ``("gen", k)``: w_k is a generator, one of the seeds;
    * ``("new", k, parent, key)``: w_k = A_key w_parent;
    * ``("rel", parent, key, rep)``: A_key w_parent = sum_t rep[t] w_t;

    ``parities[k]`` is the parity of w_k, ``coords[j]`` writes seed j in the
    spun basis, and ``vecs[k]`` is w_k.  A seed with entries of both parities
    raises ``ValueError``.
    """
    solver = SpanSolver()
    vecs, parities, events, coords = [], [], [], []
    acts = list(module.actions.items())
    for seed in seeds:
        seed_parities = {module.parities[i] for i in seed}
        if len(seed_parities) > 1:
            raise ValueError("seed vector is not parity-homogeneous")
        rep = solver.add_or_express(len(vecs), seed)
        if rep is not None:
            coords.append(rep)
            continue
        k = len(vecs)
        coords.append({k: 1})
        events.append(("gen", k))
        vecs.append(seed)
        parities.append(seed_parities.pop())
        while k < len(vecs):
            for key, mat in acts:
                img = mat.apply(vecs[k])
                rep = solver.add_or_express(len(vecs), img)
                if rep is None:
                    events.append(("new", len(vecs), k, key))
                    vecs.append(img)
                    parities.append((parities[k] + (key[0] == "c")) % 2)
                else:
                    events.append(("rel", k, key, rep))
            k += 1
    return events, parities, coords, vecs


def _maps_from_generators(spin, dst: Supermodule, par: int) -> list:
    """Basis of the parity-``par`` morphisms out of the spun module, as
    dst × src matrices.

    A candidate is a map f given by f(w_k) for every spun vector.  The
    first candidates send one generator to one basis vector of the
    admissible parity part of ``dst`` and the others to 0; they are carried
    along the spanning tree as f(A_key w_k) = ±B_key f(w_k).  Each
    relation's residual ±B_key f(w_k) - sum_t rep[t] f(w_t) gives one row
    per ``dst`` coordinate, over the candidates; when the rank of those
    rows reaches half the candidates, the candidates shrink to the kernel.
    """
    events, parities, coords, _vecs = spin
    cands = [
        {ev[1]: {i: 1}}
        for ev in events
        if ev[0] == "gen"
        for i, p in enumerate(dst.parities)
        if p == (parities[ev[1]] + par) % 2
    ]
    # f(A_key w) = sign·B_key f(w), the sign being (-1)^{par·|key|}
    signed = {
        key: mat.scale(-1) if par and key[0] == "c" else mat
        for key, mat in dst.actions.items()
    }
    ech = Echelon()
    for ev in events:
        if not cands:
            return []
        if ev[0] == "new":
            _kind, k, parent, key = ev
            for f in cands:
                v = f.get(parent)
                if v:
                    f[k] = signed[key].apply(v)
        elif ev[0] == "rel":
            _kind, parent, key, rep = ev
            rows: dict = {}
            for c, f in enumerate(cands):
                v = f.get(parent)
                res = signed[key].apply(v) if v else {}
                for t, coeff in rep.items():
                    w = f.get(t)
                    if w:
                        vec_iadd_scaled(res, w, -coeff)
                for i, x in res.items():
                    rows.setdefault(i, {})[c] = x
            for row in rows.values():
                ech.add(row)
            if 2 * ech.rank >= len(cands):
                cands, ech = _kernel_candidates(cands, ech), Echelon()
    if ech.rank:
        cands = _kernel_candidates(cands, ech)
    maps = []
    for f in cands:
        mat = SparseMatrix(dst.dim, len(coords))
        for j, x in enumerate(coords):
            col = mat.cols[j]
            for t, c in x.items():
                w = f.get(t)
                if w:
                    vec_iadd_scaled(col, w, c)
        maps.append(mat)
    return maps


def _kernel_candidates(cands: list, ech: Echelon) -> list:
    """The candidates combined along the kernel of the echelon rows."""
    out = []
    for x in nullspace(list(ech.rows.values()), range(len(cands))):
        f: dict = {}
        for c, coeff in x.items():
            for t, v in cands[c].items():
                vec_iadd_scaled(f.setdefault(t, {}), v, coeff)
        out.append({t: v for t, v in f.items() if v})
    return out


@dataclass
class IsoSearch:
    map: ModuleMap | None
    conclusive: bool

    @property
    def found(self) -> bool:
        return self.map is not None


def find_isomorphism(src: Supermodule, dst: Supermodule, parity: int = 0) -> IsoSearch:
    """Decide whether an invertible morphism of the requested parity exists
    by trying the basis maps of Hom_parity(src, dst).

    The decision is complete when End_0 of ``src`` or of ``dst`` is local, as
    for simple modules of type M or Q and indecomposable projectives: if
    some iso g exists, Hom_parity is g∘End_0(src) = End_0(dst)∘g, whose
    non-invertible maps form a proper subspace, so some basis map is
    invertible.  A negative is conclusive when the (graded) dimensions
    obstruct, when Hom_parity is zero, or when ``_end_is_local`` certifies
    either side; otherwise (Ind S_alpha with peaks, say) a miss is reported
    as inconclusive, never as a negative.
    """
    if src.dim != dst.dim:
        return IsoSearch(None, True)
    se, so = src.graded_dims()
    de, do = dst.graded_dims()
    if parity == 0 and (se, so) != (de, do):
        return IsoSearch(None, True)
    if parity == 1 and (se, so) != (do, de):
        return IsoSearch(None, True)
    basis = hom_space(src, dst)
    maps = basis.even if parity == 0 else basis.odd
    for f in maps:
        if f.is_invertible():
            return IsoSearch(f, True)
    return IsoSearch(None, not maps or _end_is_local(src) or _end_is_local(dst))


def _end_is_local(module: Supermodule) -> bool:
    """Certify that End_0(module) is local.  In characteristic 0 the radical
    of the trace form tr(fg) on End_0 is its Jacobson radical J, so a Gram
    matrix of rank 1 means End_0/J is the ground field."""
    ends = [f.matrix for f in hom_space(module, module).even]
    gram = Echelon()
    for f in ends:
        gram.add({j: t for j, g in enumerate(ends) if (t := (f @ g).trace())})
    return gram.rank == 1


# ---------------------------------------------------------------------------
# composition multiplicities over the 0-Hecke algebra (trace route)
# ---------------------------------------------------------------------------


def hecke_composition_multiplicities(module: Supermodule) -> dict:
    """Exact Jordan-Hoelder multiplicities of a module over 0-Hecke blocks.

    Keyed by tuples of compositions (one per block).  Uses the trace of the
    ordered product of T-actions over each subset of the generator indices,
    then a Moebius inversion over the subset lattice.
    """
    if module.algebra != "H":
        raise ValueError("pass a Hecke-restricted module")
    tkeys = sorted(k for k in module.actions if k[0] == "T")
    k = len(tkeys)
    dim = module.dim
    prods: dict = {0: None}
    g = [0] * (1 << k)
    g[0] = dim

    def product_matrix(mask: int) -> SparseMatrix:
        got = prods.get(mask)
        if got is not None:
            return got
        low = mask & (-mask)
        rest = mask ^ low
        idx = low.bit_length() - 1
        base = module.actions[tkeys[idx]]
        mat = base if rest == 0 else base @ product_matrix(rest)
        prods[mask] = mat
        return mat

    for mask in range(1, 1 << k):
        # an int for a genuine module; anything else fails the type test below
        tr = product_matrix(mask).trace()
        g[mask] = -tr if bin(mask).count("1") % 2 else tr
    # superset Moebius: m[D] = sum_{S >= D} (-1)^{|S - D|} g[S]
    f = list(g)
    for b in range(k):
        bit = 1 << b
        for mask in range(1 << k):
            if not mask & bit:
                f[mask] -= f[mask | bit]
    out = {}
    total = 0
    for mask in range(1 << k):
        val = f[mask]
        if type(val) is not int or val < 0:
            raise AssertionError("non-integral composition multiplicity")
        if not val:
            continue
        present = {tkeys[b][1] for b in range(k) if mask >> b & 1}
        comps = []
        offset = 0
        for size in module.blocks:
            local = [i - offset for i in present if offset + 1 <= i <= offset + size - 1]
            comps.append(composition_from_descents(size, local))
            offset += size
        out[tuple(comps)] = val
        total += val
    if total != dim:
        raise AssertionError("composition multiplicities do not add to the dimension")
    return out


def projective_hom_dim(module: Supermodule, alpha) -> int:
    """dim Hom(P_alpha, M) for a single-block module M and P_alpha the
    (induced) projective indexed by one composition.

    Over Hecke-Clifford blocks this is Hom from the induced projective; by
    Frobenius reciprocity it equals the Hecke composition multiplicity of
    the restriction, which the trace route computes exactly.
    """
    if len(module.blocks) != 1:
        raise ValueError("projective_hom_dim wants a single-block module")
    hecke = module if module.algebra == "H" else restrict_hecke(module)
    mults = hecke_composition_multiplicities(hecke)
    return mults.get((as_composition(alpha),), 0)


def hecke_simple_hom_dims(module: Supermodule) -> dict:
    """dim Hom(M, S_gamma) for every composition gamma of the rank of a
    single-block Hecke module, from one shared elimination.

    For one gamma, Hom(M, S_gamma) is the nullspace of the rows of the
    transposed T_i-actions, each shifted on the diagonal by eps_i = 1 on a
    descent of gamma and 0 otherwise (T_i acts on S_gamma by -1 on a
    descent, by 0 otherwise), so the system depends on gamma only through
    the shifts eps_i.
    The walk branches on eps_i generator by generator; each child extends a
    copy of its parent's echelon rows by an echelon basis of the rows of
    T_i or of T_i + 1, reduced once per generator: the same span as the
    dim M rows, so the same rank at every node.  A branch whose rank
    reaches dim M is zero for every gamma below it.  Compositions with Hom
    zero are absent from the returned dict.
    """
    if module.algebra != "H" or len(module.blocks) != 1:
        raise ValueError("pass a single-block Hecke-restricted module")
    n, dim = module.rank, module.dim
    out = {}
    # row j of the transposed action, plus e_j on a descent of gamma
    spans = {}
    for i in range(1, n):
        cols = module.actions[("T", i)].cols
        shifted = [dict(col) for col in cols]
        for j, row in enumerate(shifted):
            vec_add_term(row, j, 1)
        spans[i] = (_span_basis(cols), _span_basis(shifted))

    def walk(i: int, ech: Echelon, descents: tuple) -> None:
        if ech.rank == dim:
            return
        if i >= n:
            key = composition_from_descents(n, descents)
            out[key] = dim - ech.rank
            return
        for shift, basis in enumerate(spans[i]):
            child = ech.copy()
            for row in basis:
                child.add(row)
                if child.rank == dim:
                    break
            walk(i + 1, child, descents + (i,) if shift else descents)

    walk(1, Echelon(), ())
    return out


def _span_basis(rows) -> list:
    """Echelon basis of the span of ``rows``, pivot entries 1."""
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return list(ech.rows.values())


# ---------------------------------------------------------------------------
# idempotent splitting of induced simples
# ---------------------------------------------------------------------------


def _integral_idempotent(valleys: list, n: int):
    """ê = 2^l e_eps at eps = (1, ..., 1), where e_eps = prod_j (1 + eps_j
    sqrt(-1) c_{n_{2j-1}} c_{n_{2j}})/2 over the l consecutive pairs of the
    sorted valleys n_1 < n_2 < ... (an odd trailing one unused): the factors
    without the 1/2, so its coefficients lie in Z[i]."""
    e = unit(n)
    for j in range(len(valleys) // 2):
        pair = basis_element(valleys[2 * j : 2 * j + 2], range(1, n + 1), n)
        e = multiply(e, unit(n) + pair.scale(GAUSS_I))
    return e


def _flip_lifts(valleys: list) -> list:
    """The valleys whose f_{c_v} compose to F_eps of ``split_simple``, for
    each eps in the order of ``itertools.product((1, -1), ...)``: the first
    valley of each pair with eps_j = -1, then the unpaired valley when both
    their count and |V| are odd, so that F_eps is even."""
    out = []
    for eps in itertools.product((1, -1), repeat=len(valleys) // 2):
        vs = [v for v, sign in zip(valleys[::2], eps) if sign < 0]
        out.append(vs + valleys[-1:] if len(vs) % 2 and len(valleys) % 2 else vs)
    return out


@dataclass
class SimpleSplit:
    alpha: Composition
    copies: int
    components: list
    type_tag: str
    module: Supermodule
    pair_parities: dict  # (i, j) -> parity of F_j F_i^-1, certified lifts


def submodule_on_vectors(module: Supermodule, vectors):
    """Submodule generated by the given parity-homogeneous vectors; returns
    (Supermodule, basis cols).

    The vectors are spun like the sources of ``hom_space``, so the basis is
    the spun vectors in discovery order, and each action is read off the
    spin events: w_k = A w_parent is a unit column, a relation is the
    expression it records.

    The result is not checked here: it inherits the defining relations and
    the grading of ``module``, which the caller certifies once
    (``split_simple`` by ``_induced_relation_failure`` on Ind S_alpha,
    ``verify_restriction_vectors`` by ``Supermodule.check``).  Let E be the
    matrix whose columns are the spun vectors w_0, w_1, ...; they are
    independent and parity-homogeneous, so E is injective.  Each spin event
    is exact, A_key w_p = w_k or A_key w_p = sum_t rep[t] w_t, so
    A_key E = E A'_key for the submodule's action A'_key.  Then any word sum
    satisfies W(A) E = E W(A'), and a relation W(A) = V(A) of ``module``
    gives E (W(A') - V(A')) = 0, hence W(A') = V(A').  A homogeneous image
    has its unique expression in the independent homogeneous w_t supported
    on w_t of its own parity, so A'_key is parity-homogeneous as A_key is.
    """
    seeds = [{k: as_scalar(c) for k, c in v.items() if c} for v in vectors]
    events, parities, _coords, basis = _spin(module, seeds)
    dim = len(basis)
    actions = {key: SparseMatrix(dim, dim) for key in module.actions}
    for ev in events:
        if ev[0] == "new":
            _kind, k, parent, key = ev
            actions[key].cols[parent][k] = 1
        elif ev[0] == "rel":
            _kind, parent, key, rep = ev
            actions[key].cols[parent] = dict(rep)
    sub = Supermodule(
        module.blocks,
        module.algebra,
        tuple(("v", i) for i in range(dim)),
        parities,
        actions,
    )
    return sub, basis


def _induced_relation_failure(base: Supermodule, module: Supermodule):
    """Where ``module``, the Ind N that ``induce_clifford(base)`` builds,
    N = ``base``, fails a defining relation or the grading, as text; None
    when it satisfies all.  No matrix product is formed.  Basis vectors are
    c_D (x) n_k in the order of ``_subsets_ordered``, D read as a bitmask;
    W_i = {i, i+1} is the window of T_i.  The checks, in order:

    (G) Every action is dim x dim, and c_D (x) n_k has parity |D| + p_k.
    (C) The column of c_j at c_D (x) n_k is exactly eps c_{D xor {j}} (x)
        n_k, eps = (-1)^{|D ∩ [1, j)|}, times -1 when j is in D: that is
        (-1)^{|D ∩ [1, j]|}, read off the bitmask.
    (T) The column of T_i at c_D (x) n_k is its template column at
        c_{D ∩ W_i} (x) n_k with D - W_i added to the subset of every row;
        every template row has its subset inside W_i, keeps |D ∩ W_i| mod 2
        and keeps the parity.
    (W) Every relation that names a T and no c outside the union of its
        T-windows: T_i^2 = -T_i, the braid and the distant T_i T_j =
        T_j T_i, T_i c_i = c_{i+1} T_i and T_i c_{i+1} + c_{i+1} = c_i T_i +
        c_i.  Each is walked by ``failing_relation``, with the action columns
        as the first-letter images, on the unit vectors whose D lies inside
        that union: 4, 8 or 16 dim N vectors, never 2^n dim N.

    Proof that these suffice.  Identify c_D (x) n with
    (x)_j e_{[j in D]} (x) n.  By (C), c_j = P^{(x)(j-1)} (x) g (x) 1 (x) id_N
    with P = diag(1, -1), g e_0 = e_1 and g e_1 = -e_0; g^2 = -1 and
    gP = -Pg give c_j^2 = -1 and c_i c_j = -c_j c_i.  By (T),
    T_i = 1 (x) Z_i (x) 1 with Z_i on the sites W_i and N, and Z_i commutes
    with P (x) P on W_i, as it keeps |D ∩ W_i| mod 2; this gives
    T_i c_j = c_j T_i for j not in W_i.  With (G), every c is odd and every
    T even.  The relations left are those of (W).  In each, every word acts
    on the sites outside the window as the same invertible +-1 diagonal Q
    (the identity for words of T's, P on the sites below i for the words
    with one c of W_i), tensored with an operator on the window (x) N.  So
    lhs - rhs = Q (x) Delta, which vanishes exactly when it vanishes on the
    window vectors.

    ``Supermodule.check``, the walk of every relation on every unit
    vector, is the route for any other module and the test oracle.
    """
    n, dm = base.rank, base.dim
    dim = dm << n
    if module.blocks != (n,) or module.algebra != "HCl" or module.dim != dim:
        return "not an HCl module of rank %d and dimension %d" % (n, dim)
    act = module.actions
    for key, mat in act.items():
        if mat.nrows != dim or mat.ncols != dim:
            return "action %s has wrong shape" % (key,)
    masks = [sum(1 << (x - 1) for x in d) for d in _subsets_ordered(n)]
    pos = {m: di for di, m in enumerate(masks)}
    par = module.parities
    for di, m in enumerate(masks):
        for k, p in enumerate(base.parities):
            if par[di * dm + k] != (m.bit_count() + p) % 2:
                return "basis vector %d has the wrong parity" % (di * dm + k)
    for j in range(1, n + 1):
        bit, cols = 1 << (j - 1), act[("c", j)].cols
        for di, m in enumerate(masks):
            eps = -1 if (m & (2 * bit - 1)).bit_count() % 2 else 1
            row = pos[m ^ bit] * dm
            for k in range(dm):
                col = cols[di * dm + k]
                if len(col) != 1 or col.get(row + k) != eps:
                    return "c_%d at %d is not the signed c_{D xor {%d}} (x) n_k" % (
                        j, di * dm + k, j)
    for i in range(1, n):
        lo, cols = 1 << (i - 1), act[("T", i)].cols
        win = 3 * lo
        template = {}
        for m in (0, lo, 2 * lo, win):
            for k in range(dm):
                at = pos[m] * dm + k
                rows = template[m, k] = []
                for r, v in cols[at].items():
                    e, kk = divmod(r, dm)
                    sub = masks[e]
                    if sub & ~win:
                        return "T_%d at %d has row %d outside {%d, %d}" % (i, at, r, i, i + 1)
                    if (sub ^ m).bit_count() % 2:
                        return "T_%d at %d changes |D & {%d, %d}| mod 2 in row %d" % (
                            i, at, i, i + 1, r)
                    if par[r] != par[at]:
                        return "T_%d at %d changes the parity in row %d" % (i, at, r)
                    rows.append((sub, kk, v))
        for di, m in enumerate(masks):
            rest = m & ~win
            if not rest:
                continue
            for k in range(dm):
                want = {pos[sub | rest] * dm + kk: v for sub, kk, v in template[m & win, k]}
                if cols[di * dm + k] != want:
                    return "T_%d at %d is not its template column at %d shifted" % (
                        i, di * dm + k, pos[m & win] * dm + k)
    walks, apply = {}, _acts_on(module)
    for win, keys, rel in _windowed_relations(n):
        if win not in walks:
            at = [pos[m] * dm + k for m in masks if not m & ~win for k in range(dm)]
            walks[win] = at, [{x: 1} for x in at], {}
        at, vecs, first = walks[win]
        for key in keys - first.keys():
            first[key] = [act[key].cols[x] for x in at]
        failed = failing_relation((), apply, vecs, images=first, relations=[rel])
        if failed:
            return "relation %s fails" % failed
    return None


@lru_cache(maxsize=None)
def _windowed_relations(n: int) -> tuple:
    """The relations that (W) of ``_induced_relation_failure`` walks at
    rank n, in the order of ``defining_relations``: (window, keys,
    relation) for each relation that names a T and no c outside the union
    of its T-windows, that union the window, as a bitmask of sites."""
    out = []
    for lhs, rhs in defining_relations(generator_keys((n,), "HCl")):
        keys = frozenset(key for _coeff, word in lhs + rhs for key in word)
        win = 0
        for kind, i in keys:
            if kind == "T":
                win |= 3 << (i - 1)
        if win and all(kind == "T" or win >> (j - 1) & 1 for kind, j in keys):
            out.append((win, keys, (lhs, rhs)))
    return tuple(out)


def split_simple(alpha) -> SimpleSplit:
    """Split the induced simple into its simple components via idempotents.

    The e_eps of ``_integral_idempotent`` split Ind S_alpha into 2^l
    components A e_eps eta, l = floor((|peaks|+1)/2), pairwise isomorphic
    of dimension 2^(n-l); the type (M or Q) is read off End of the first.
    Only the first, C = A ê eta (eps = (1, ..., 1)), is spun: ê eta = 2^l e
    eta spans the same submodule and every spun vector scales by 2^l, so
    its actions are those of e eta.  C is a direct summand, the image of the
    even idempotent endomorphism c_D eta -> c_D e eta (e with each c_v c_w
    replaced by f_{c_v} f_{c_w}); its ``summand_of`` is (S_alpha, its spun
    basis), and ``hom_space`` out of it restricts maps out of Ind S_alpha.

    The component of eps is F_eps(C), F_eps the product of the odd lifts
    f_{c_v}: c_D eta -> (-1)^{|D|} c_D c_v eta (``_clifford_lifts``; one
    failing ``_seed_failure`` raises ``RelationError``) over the valleys of
    ``_flip_lifts``.  Proof:

    * c_v anticommutes with its own pair's c_a c_b and commutes with the
      others', so e_eps c_v = c_v e_eps', eps' being eps with that sign
      flipped: f_{c_v} sends e_eps eta to c_v e_eps' eta and maps A e_eps
      eta onto A e_eps' eta.  An unpaired valley u commutes with every
      pair: f_{c_u} is an odd automorphism of each component (type Q),
      and ``_flip_lifts`` adds it to make every F_eps even.
    * f_{c_v} is a morphism (``_seed_failure``) with f_{c_v}^2 = id, so
      F_eps is an automorphism of parity |F_eps|, its number of factors
      mod 2; the image of a direct summand under it is a direct summand.
    * With w'_k = (-1)^{p_k |F|} F(w_k) for the spun w_k of parity p_k,
      F(A_key w) = (-1)^{|F||key|} A_key F(w) turns A_key w_p = sum_t
      rep[t] w_t, rep[t] != 0 only at p_t = p_p + |key|, into A_key w'_p =
      sum_t rep[t] w'_t: F_eps(C) has the matrices of C, parities shifted
      by |F_eps| and ``summand_of`` (S_alpha, the w'_k).  The isomorphism
      F_j F_i^{-1} has parity ``pair_parities[(i, j)]`` = |F_i| + |F_j|.

    Ind S_alpha is certified once, from its tensor form, before the spin
    (``_induced_relation_failure``; a failure raises ``RelationError``);
    no component is checked: C inherits the relations and the grading of
    Ind S_alpha (``submodule_on_vectors``), the others share its matrices.
    """
    a = as_composition(alpha)
    base = simple_hecke(a)
    module = induce_clifford(base)
    failed = _induced_relation_failure(base, module)
    if failed:
        raise RelationError(failed)
    valleys = sorted(a.valley_set())
    seed = act_element(module, _integral_idempotent(valleys, a.n), {0: 1})  # eta sits first
    first, basis = submodule_on_vectors(module, [seed])
    first.summand_of = (base, basis)
    ends = hom_space(first, first)
    if ends.total_dim == 1:
        type_tag = "M"
    else:
        type_tag = "Q" if any(f.is_invertible() for f in ends.odd) else "M?"
    flips = _flip_lifts(valleys)
    lifts, bad = _clifford_lifts(module, sorted(set().union(*flips)))
    if bad:
        raise RelationError("f_{c_%d} is no morphism: %s" % bad)
    components = []
    for vs in flips:
        vecs, odd = basis, len(vs) % 2
        for v in vs:
            vecs = [lifts[v].apply(w) for w in vecs]
        comp = Supermodule(first.blocks, first.algebra, first.labels,
                           [p + odd for p in first.parities], first.actions)
        comp.summand_of = (base, [vec_scale(w, -1) if odd and p else w
                                  for w, p in zip(vecs, first.parities)])
        components.append(comp)
    pair_parities = {(i, j): (len(flips[i]) + len(flips[j])) % 2
                     for i, j in itertools.combinations(range(len(flips)), 2)}
    return SimpleSplit(a, len(components), components, type_tag, module, pair_parities)


def _seed_failure(base: Supermodule, target: Supermodule, images: list):
    """Where the seed n_k -> ``images[k]`` of a map out of Ind N, N =
    ``base``, fails to be T-linear into the restriction of ``target``: the
    first T_i and k with T_i . images[k] != sum_j (T_i on N)_{jk} images[j],
    as text; None when the seed is T-linear.  (n - 1)·dim N sparse applies.

    Ind N is generated by 1 (x) N, so the lift of a seed
    (``_map_out_of_induced``) is a morphism exactly when the seed is
    T-linear: by the induction adjunction, a T-linear seed of parity p
    lifts to the morphism a (x) n -> (-1)^{p|a|} a . seed(n), which sends
    c_D (x) n_k to the lift's column, and a morphism restricted to 1 (x) N
    is T-linear.  The seed of a lift is its first dim N columns.
    """
    for key in generator_keys(base.blocks, "H"):
        act = target.actions[key]
        for k, col in enumerate(base.actions[key].cols):
            want: dict = {}
            for j, v in col.items():
                vec_iadd_scaled(want, images[j], v)
            if act.apply(images[k]) != want:
                return "%s_%d on basis vector %d" % (key + (k,))
    return None


def _clifford_lifts(module: Supermodule, valleys) -> tuple:
    """``(lifts, bad)`` on Ind S_alpha = ``module``: ``lifts[v]`` is the
    plain f_{c_v}: c_D eta -> (-1)^{|D|} c_D c_v eta, with int entries, the
    lift (``_map_out_of_induced``) of the odd seed eta -> c_v eta; ``bad``
    is (v, witness) for the first v whose seed fails ``_seed_failure``, so
    that its lift is no morphism, and None when every lift is one."""
    base = module.summand_of[0]
    lifts = {}
    for v in valleys:
        lifts[v] = _map_out_of_induced(module, [module.actions[("c", v)].cols[0]], 1)
        failed = _seed_failure(base, module, lifts[v].cols[:1])
        if failed:
            return lifts, (v, failed)
    return lifts, None


def end_clifford_check(alpha, module: Supermodule | None = None) -> dict:
    """Verify that End of the induced simple is the Clifford algebra on the
    valley set: dimension 2^|V|, generated by odd maps sqrt(-1) f_{c_v}
    squaring to -id and pairwise anticommuting.  ``module`` is Ind S_alpha
    when the caller has built it already (``split_simple(alpha).module``).

    The plain f_{c_v} are the int lifts of ``_clifford_lifts``.  The
    checks, in order, each reported under its own key:

    * ``end_dim``: ``hom_space`` of the module with itself has dimension
      2^|V|, an elimination of its own that reads none of the f_{c_v};
    * ``bad_generator``: each seed is T-linear (``_seed_failure``), so each
      f_{c_v} is a morphism;
    * ``bad_relation``: the relations of the sqrt(-1) f_{c_v} among the
      keys ("c", v) of ``defining_relations`` hold at eta, the words
      applied to vectors (the plain f_{c_v} square to +id);
    * ``span_rank``: the 2^|V| ordered products of the f_{c_v}, evaluated
      at eta, have rank 2^|V| in one ``Echelon``.

    Why values at eta certify identities in End.  Sums, scalar multiples
    and compositions of homogeneous morphisms are homogeneous morphisms, so
    once the f_{c_v} are morphisms, both sides of each relation and every
    ordered product lie in End.  The module is generated by 1 (x) eta, so
    a morphism that vanishes at eta vanishes everywhere: evaluation at eta
    is injective on End.  So a relation holds in End exactly when it holds
    at eta, and the products are independent in End exactly when their
    values at eta are; 2^|V| independent products in End, whose dimension
    is 2^|V| by the ``hom_space`` elimination, span it.  An ordered product
    of the f_{c_v} differs from that of the sqrt(-1) f_{c_v} by a power of
    sqrt(-1), so the span is read on the integer maps.
    """
    a = as_composition(alpha)
    if module is None:
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
    fmaps, bad = _clifford_lifts(module, valleys)
    if bad:
        report["ok"] = False
        report["bad_generator"] = bad[0]
        return report
    eta = {0: 1}  # basis vector c_{} (x) eta sits first
    bad = failing_relation(
        [("c", v) for v in valleys],
        lambda key, vec: vec_scale(fmaps[key[1]].apply(vec), GAUSS_I),
        [eta],
    )
    if bad is not None:
        report["ok"] = False
        report["bad_relation"] = bad
        return report
    # the ordered product f_{v_1} ... f_{v_r} at eta, applied right to left
    span = Echelon()
    for r in range(len(valleys) + 1):
        for combo in itertools.combinations(valleys, r):
            vec = eta
            for v in reversed(combo):
                vec = fmaps[v].apply(vec)
            span.add(vec)
    report["span_rank"] = span.rank
    if span.rank != 2 ** len(valleys):
        report["ok"] = False
    return report


# part -> (twist tag, source is the conjugate's induced simple?, seed is the
# top vector c_[n] eta rather than eta?)
_STATED_TWISTS = {
    1: ("phi", True, True),
    2: ("phi_prime", True, False),
    3: ("psi", False, False),
    4: ("psi_prime", False, True),
}


def stated_twist_isomorphisms(alpha, induced: dict | None = None) -> dict:
    """The explicit isomorphisms onto the four twisted modules, keyed by
    part:

    part 1: induced simple of the conjugate -> phi-twist, degree n mod 2,
            c_D eta* -> (-1)^{n|D|} phi(c_D) c_{[n]} eta;
    part 2: induced simple of the conjugate -> phi'-twist, even,
            c_D eta* -> phi'(c_D) eta;
    part 3: induced simple -> psi-twisted dual, even, c_D eta -> c_D . zeta
            (zeta dual to eta);
    part 4: induced simple -> psi'-twisted dual, degree n mod 2,
            c_D eta -> (-1)^{n|D|} c_D . xi (xi dual to the top vector).

    On the twist, c_D acts as its image does on the induced simple, so each
    map is ``_map_out_of_induced`` on the twist, with its one image at eta
    or at the top vector.  The induced simple and that of the conjugate are
    shared by the four maps: read from ``induced``, a dict composition ->
    Ind S that a caller shares over the compositions of one rank, or built
    here when it is ``None``.
    """
    a = as_composition(alpha)
    if induced is None:
        induced = {b: induce_clifford(simple_hecke(b)) for b in {a, a.conjugate()}}
    base, conj = induced[a], induced[a.conjugate()]
    maps = {}
    for part, (tag, conjugate, top) in _STATED_TWISTS.items():
        target = twist(base, tag)
        # eta is even, so the map has the parity of its seed; c_[n] eta sits last
        parity = a.n % 2 if top else 0
        seed = {base.dim - 1: 1} if top else {0: 1}
        lift = _map_out_of_induced(target, [seed], parity)
        maps[part] = ModuleMap(conj if conjugate else base, target, lift, parity)
    return maps


# ---------------------------------------------------------------------------
# the restriction vectors
# ---------------------------------------------------------------------------


def _covering_downset(start: frozenset, imin: int, imax: int) -> dict:
    """All sets reachable downward from ``start`` by the covering moves
    remove {i, i+1} / shift i+1 -> i with i in [imin, imax]; value is the
    chain-length sign (well defined: each move flips the parity of the sum)."""
    signs = {start: 1}
    stack = [start]
    while stack:
        cur = stack.pop()
        s = signs[cur]
        for i in range(imin, imax + 1):
            if i in cur and i + 1 in cur:
                nxt = cur - {i, i + 1}
                if nxt not in signs:
                    signs[nxt] = -s
                    stack.append(nxt)
            if i + 1 in cur and i not in cur:
                nxt = (cur - {i + 1}) | {i}
                if nxt not in signs:
                    signs[nxt] = -s
                    stack.append(nxt)
    return signs


def restriction_vectors(n: int) -> dict:
    """The split of the Hecke restriction of the rank-n induced projective.

    For each 0 <= k <= n-1 builds v_{n,k} (odd) and v'_{n,k} (even) from the
    hook-shaped seed sets: D_{n,k} is {n-k+1..n} with 1 adjoined exactly when
    needed to make the cardinality odd (even for the primed family); the
    recorded vector is the signed sum over the covering-move downset with
    moves confined to [n-k, n-1].  Returns the vectors, the seed choices and
    the ambient module.
    """
    if n > MAX_RESTRICTION_N:
        raise ResourceLimitError(
            "restriction vectors guarded at n <= %d" % MAX_RESTRICTION_N,
            "MAX_RESTRICTION_N",
        )
    module = induce_clifford(simple_hecke(Composition((n,))))
    subs = _subsets_ordered(n)
    dpos = {d: k for k, d in enumerate(subs)}
    report = {"n": n, "module": module, "odd": {}, "even": {}}
    for k in range(n):
        base = frozenset(range(n - k + 1, n + 1))
        for par, slot in ((1, "odd"), (0, "even")):
            seed = base if len(base) % 2 == par else base | {1}
            signs = _covering_downset(seed, max(1, n - k), n - 1)
            vec = {dpos[d]: s for d, s in signs.items()}
            report[slot][k] = {"seed": seed, "vector": vec}
    return report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def module_to_json(module: Supermodule) -> dict:
    actions = {}
    for (kind, idx), mat in sorted(module.actions.items()):
        entries = [
            [r, ccol, _gauss_json(v)]
            for ccol in range(mat.ncols)
            for r, v in sorted(mat.cols[ccol].items())
        ]
        actions["%s%d" % (kind, idx)] = entries
    return {
        "rank": module.rank,
        "blocks": list(module.blocks),
        "algebra": module.algebra,
        "basis": [
            {"label": str(lab), "parity": p}
            for lab, p in zip(module.labels, module.parities)
        ],
        "actions": actions,
    }


def _json_field(doc: dict, key: str, where: str):
    try:
        return doc[key]
    except KeyError:
        raise ValueError("%s has no %r key" % (where, key)) from None


def module_from_json(doc) -> Supermodule:
    """Rebuild a module written by ``module_to_json``; raises ValueError on a
    missing key, an algebra other than "H" or "HCl", a rank other than the
    sum of the blocks, a parity other than 0 or 1, or a matrix entry outside
    range(dim)."""
    blocks = _json_field(doc, "blocks", "module")
    if not isinstance(blocks, list) or not all(type(b) is int for b in blocks):
        raise ValueError("module key 'blocks' is %r, not a list of ints" % (blocks,))
    rank = _json_field(doc, "rank", "module")
    if type(rank) is not int or rank != sum(blocks):
        raise ValueError("module key 'rank' is %r, not the sum of the blocks" % (rank,))
    algebra = _json_field(doc, "algebra", "module")
    if algebra not in ("H", "HCl"):
        raise ValueError("module key 'algebra' is %r, not 'H' or 'HCl'" % (algebra,))
    basis = _json_field(doc, "basis", "module")
    labels = tuple(_json_field(b, "label", "basis entry %d" % i) for i, b in enumerate(basis))
    parities = tuple(_json_field(b, "parity", "basis entry %d" % i) for i, b in enumerate(basis))
    dim = len(labels)
    for label, p in zip(labels, parities):
        if p not in (0, 1):
            raise ValueError("basis element %s has parity %r, not 0 or 1" % (label, p))
    actions = {}
    for name, entries in _json_field(doc, "actions", "module").items():
        kind, idx = name[0], int(name[1:])
        mat = SparseMatrix(dim, dim)
        for r, ccol, val in entries:
            if not all(type(i) is int and 0 <= i < dim for i in (r, ccol)):
                raise ValueError(
                    "action %s has an entry at (%r, %r) outside the %d x %d matrix"
                    % (name, r, ccol, dim, dim)
                )
            where = "action %s entry (%d, %d)" % (name, r, ccol)
            mat.set(r, ccol, _gauss_from_json(val, where))
        actions[(kind, idx)] = mat
    return Supermodule(blocks, algebra, labels, parities, actions)
