"""The 0-Hecke-Clifford superalgebra: normal forms, trace form, involutions.

The rank-n algebra is generated by even T_1..T_{n-1} and odd c_1..c_n with

    T_i^2 = -T_i,  braid and distant-commutation relations among the T_i,
    c_j^2 = -1,    c_i c_j = -c_j c_i  (i != j),

and the cross relations

    T_i c_j = c_j T_i (j != i, i+1),   T_i c_i = c_{i+1} T_i,
    (T_i + 1) c_{i+1} = c_i (T_i + 1).

``defining_relations`` is the one list of these relations: module checks and
the algebra suite both evaluate it through ``failing_relation``.

Elements are kept in the normal form  sum  coeff * c_D T_w  with D a subset
of [n] (c's in increasing index order, to the left of the T's) and w given
by any reduced word; coefficients lie in Q(i).  The rewriting
rules act by a single generator on the left:

    T_i c_D = c_D T_i                                    (i, i+1 not in D)
            = c_{D-i+(i+1)} T_i                          (i in D only)
            = c_{D-(i+1)+i} (T_i + 1) - c_D              (i+1 in D only)
            = -c_D (T_i + 1) + c_{D - {i, i+1}}          (both in D)

together with the left Demazure rule T_i T_w = T_{s_i w} or -T_w.  Module
actions, induced modules and the (anti-)involutions walk these rules.
Multiplication instead reads c_D T_w * c_E T_v = c_D (T_w c_E) T_v from
three cached integer tables that the same rules fill once per key: T_w c_E
in normal form, the Clifford sign of c_D c_D', and the Demazure sign of
T_u T_v.  The structure constants are integers, and a coefficient follows
the one representation of ``scalars``: ``int`` while integral, so products
of integral elements stay ``int``, and a ``GaussianRational`` only where the
imaginary part is nonzero, as in the idempotents that split induced
simples.

``associativity_failure`` proves that this product is associative, rank by
rank, with no sampling (Bergman's diamond lemma, Adv. Math. 29, 1978, run
through the regular representation).  The left-regular matrices L_g read
from the rewriting rules generate an algebra A of matrices.  The matrices
R_g of right multiplication by a generator under ``multiply`` commute with
every L_g, and the normal word of each basis element walks the unit to that
element both by the L's and by the R's; so X -> X 1 is a bijection from A
onto the span of the basis, and the product of A carried over by it is
associative.  Each entry of the three tables equals the walk by the L's it stands for, so
``multiply`` is that product.  The function's docstring spells out each step.
Morphism matrices are built column by column from a one letter shorter
column, one ``multiply`` each; ``apply_morphism`` walks each element from
the unit and stays the independent route.

The canonical basis order is (|D|, bitmask of D, one-line word); all
matrices produced here follow it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce

from .combinat import ResourceLimitError, swap_values, word_reduced
from .linalg import SparseMatrix, vec_add_term, vec_iadd_scaled, vec_scale
from .scalars import as_scalar

__all__ = [
    "RankMismatchError",
    "AlgebraElement",
    "unit",
    "gen_T",
    "gen_c",
    "basis_element",
    "algebra_basis",
    "generators",
    "defining_relations",
    "failing_relation",
    "normal_word",
    "act_terms",
    "multiply",
    "associativity_failure",
    "trace",
    "frobenius_gram",
    "apply_morphism",
    "morphism_matrix",
    "regular_generator_matrix",
    "MORPHISM_TAGS",
]

MORPHISM_TAGS = ("phi", "phi_prime", "psi", "psi_prime", "phi_bar")
_ANTI_TAGS = frozenset({"psi", "psi_prime"})

MAX_REGULAR_N = 5


class RankMismatchError(ValueError):
    """Operands of an algebra operation have different ranks."""


class AlgebraElement:
    """A normal-form element of the rank-n 0-Hecke-Clifford algebra.

    ``terms`` maps (D: frozenset, w: one-line tuple) to a nonzero scalar of
    Q(i) in the one representation of ``scalars``: ``int`` while integral,
    ``Fraction`` while real, ``GaussianRational`` otherwise.  Instances are
    immutable by convention.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None):
        self.rank = rank
        clean = {}
        for (d, w), c in (terms or {}).items():
            c = as_scalar(c)
            if c:
                clean[(frozenset(d), tuple(w))] = c
        self.terms = clean

    def _make(self, terms) -> "AlgebraElement":
        """An element of this rank that keeps ``terms``, which the vector
        primitives left exact and free of zeros."""
        out = AlgebraElement.__new__(AlgebraElement)
        out.rank = self.rank
        out.terms = terms
        return out

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.rank != other.rank:
            raise RankMismatchError("ranks %d and %d" % (self.rank, other.rank))
        out = dict(self.terms)
        for k, v in other.terms.items():
            vec_add_term(out, k, v)
        return self._make(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "AlgebraElement":
        return self._make(vec_scale(self.terms, as_scalar(c)))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self):
        raise TypeError("AlgebraElement is not hashable")

    def __bool__(self):
        return bool(self.terms)

    def parity(self):
        """0 or 1 for a homogeneous element, None for a mixed one."""
        seen = {len(d) % 2 for (d, _w) in self.terms}
        if not seen:
            return 0
        if len(seen) == 1:
            return seen.pop()
        return None

    def terms_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: _term_key(kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (d, w), c in self.terms_sorted():
            body = []
            if d:
                body.append("c{%s}" % ",".join(str(x) for x in sorted(d)))
            if w != tuple(range(1, self.rank + 1)):
                body.append("T[%s]" % ",".join(str(x) for x in w))
            name = "*".join(body) if body else "1"
            cs = str(c)
            if cs == "1":
                bits.append(name)
            elif cs == "-1":
                bits.append("-" + name)
            else:
                if ("+" in cs[1:]) or ("-" in cs[1:]):
                    cs = "(%s)" % cs
                bits.append("%s*%s" % (cs, name))
        out = bits[0]
        for s in bits[1:]:
            out += " - " + s[1:] if s.startswith("-") else " + " + s
        return out

    __repr__ = __str__


def _term_key(key):
    d, w = key
    return (len(d), sum(1 << (x - 1) for x in d), w)


def unit(n: int) -> AlgebraElement:
    return AlgebraElement(n, {(frozenset(), tuple(range(1, n + 1))): 1})


def gen_T(i: int, n: int) -> AlgebraElement:
    if not 1 <= i <= n - 1:
        raise ValueError("T_%d is not a generator at rank %d" % (i, n))
    w = swap_values(i, tuple(range(1, n + 1)))
    return AlgebraElement(n, {(frozenset(), w): 1})


def gen_c(j: int, n: int) -> AlgebraElement:
    if not 1 <= j <= n:
        raise ValueError("c_%d is not a generator at rank %d" % (j, n))
    return AlgebraElement(n, {(frozenset({j}), tuple(range(1, n + 1))): 1})


def basis_element(d, w, n: int) -> AlgebraElement:
    return AlgebraElement(n, {(frozenset(d), tuple(w)): 1})


def generators(n: int) -> dict:
    """The generators of the rank-n algebra, keyed ("T", i) and ("c", j)."""
    gens = {("T", i): gen_T(i, n) for i in range(1, n)}
    gens.update({("c", j): gen_c(j, n) for j in range(1, n + 1)})
    return gens


@lru_cache(maxsize=None)
def _subsets_ordered(n: int) -> tuple:
    """The subsets D of [n] in the canonical order (|D|, bitmask of D)."""
    subs = (frozenset(i + 1 for i in range(n) if mask >> i & 1) for mask in range(1 << n))
    return tuple(sorted(subs, key=lambda d: (len(d), sum(1 << (x - 1) for x in d))))


@lru_cache(maxsize=None)
def algebra_basis(n: int) -> tuple:
    """Canonical ordered basis (D, w) of the rank-n algebra: 2^n n! keys."""
    perms = sorted(itertools.permutations(range(1, n + 1)))
    return tuple((d, w) for d in _subsets_ordered(n) for w in perms)


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------


def defining_relations(keys) -> list:
    """The relations of the module docstring among the given generator keys
    ("T", i), ("c", j), each a pair (lhs, rhs) of word sums: tuples of
    (coeff, word), a word being a tuple of keys and () standing for 1.  The
    last cross relation is written T_i c_{i+1} + c_{i+1} = c_i T_i + c_i."""
    ts = sorted(i for kind, i in keys if kind == "T")
    cs = sorted(j for kind, j in keys if kind == "c")
    rels = []
    for i in ts:
        t = ("T", i)
        rels.append((((1, (t, t)),), ((-1, (t,)),)))
        for j in ts:
            u = ("T", j)
            if j == i + 1:
                rels.append((((1, (t, u, t)),), ((1, (u, t, u)),)))
            elif j > i + 1:
                rels.append((((1, (t, u)),), ((1, (u, t)),)))
    for i in cs:
        c = ("c", i)
        rels.append((((1, (c, c)),), ((-1, ()),)))
        for j in cs:
            if j > i:
                rels.append((((1, (c, ("c", j))),), ((-1, (("c", j), c)),)))
    for i in ts:
        t = ("T", i)
        for j in cs:
            if j not in (i, i + 1):
                rels.append((((1, (t, ("c", j))),), ((1, (("c", j), t)),)))
        if i in cs and i + 1 in cs:
            c, c1 = ("c", i), ("c", i + 1)
            rels.append((((1, (t, c)),), ((1, (c1, t)),)))
            rels.append((((1, (t, c1)), (1, (c1,))), ((1, (c, t)), (1, (c,)))))
    return rels


def _word_sum_value(terms, image: dict, mul, one):
    """The value of a word sum: each word is the left-to-right product
    ``mul`` of the images of its keys, the empty word is ``one``, and a
    coefficient other than 1 enters through ``scale``."""
    total = None
    for coeff, word in terms:
        val = reduce(mul, [image[key] for key in word]) if word else one
        if coeff != 1:
            val = val.scale(coeff)
        total = val if total is None else total + val
    return total


def _relation_text(lhs, rhs) -> str:
    """A relation of ``defining_relations`` as text, e.g. "c_1 c_1 = -1"."""

    def side(terms):
        return " + ".join(
            ("-" if coeff < 0 else "") + (" ".join("%s_%d" % k for k in word) or "1")
            for coeff, word in terms
        )

    return "%s = %s" % (side(lhs), side(rhs))


def failing_relation(image: dict, mul, one):
    """The first relation among the keys of ``image`` that fails when each
    generator key is read as its image, ``mul`` is the product and ``one``
    the unit, as text; None when every relation holds."""
    for lhs, rhs in defining_relations(image):
        if _word_sum_value(lhs, image, mul, one) != _word_sum_value(rhs, image, mul, one):
            return _relation_text(lhs, rhs)
    return None


# ---------------------------------------------------------------------------
# normal-form multiplication
# ---------------------------------------------------------------------------


def _left_mul_c(j: int, terms: dict) -> dict:
    """c_j * element.  D -> D xor {j} is a bijection, so no two terms meet."""
    out = {}
    for (d, w), c in terms.items():
        below = sum(1 for x in d if x < j)
        if j in d:
            out[(d - {j}, w)] = -c if below % 2 == 0 else c
        else:
            out[(d | {j}, w)] = c if below % 2 == 0 else -c
    return out


def _left_mul_T(i: int, terms: dict) -> dict:
    """T_i * element, by the cross relations of the module docstring and the
    left Demazure rule: T_i T_w = T_{s_i w} when l(s_i w) > l(w), that is when
    the value i stands left of i+1 in w, and -T_w otherwise."""
    out = {}
    for (d, w), c in terms.items():
        has_i, has_i1 = i in d, (i + 1) in d
        extra = ()
        if has_i and has_i1:
            extra = (((d, w), -c), ((d - {i, i + 1}, w), c))
            c = -c
        elif has_i:
            d = (d - {i}) | {i + 1}
        elif has_i1:
            d2 = (d - {i + 1}) | {i}
            extra = (((d2, w), c), ((d, w), -c))
            d = d2
        if w.index(i) < w.index(i + 1):
            vec_add_term(out, (d, swap_values(i, w)), c)
        else:
            vec_add_term(out, (d, w), -c)
        for key, val in extra:
            vec_add_term(out, key, val)
    return out


def _left_mul(key, terms: dict) -> dict:
    kind, idx = key
    return _left_mul_T(idx, terms) if kind == "T" else _left_mul_c(idx, terms)


def normal_word(d, w) -> list:
    """The generator keys of c_D T_w from left to right: ("c", j) for j in D
    increasing, then ("T", i) along the reduced word of w."""
    return [("c", j) for j in sorted(d)] + [("T", i) for i in word_reduced(w)]


def act_terms(terms: dict, act, vecs, anti: bool = False) -> list:
    """For each vector v of ``vecs``, sum coeff * (c_D T_w . v) over ``terms``.

    ``act(key, v)`` applies one generator key to a vector.  The word of each
    term is applied right to left, as a left action, or left to right when
    ``anti`` is set (anti-homomorphisms, row vectors).  Each word is
    computed once and walked on all vectors together.
    """
    outs = [{} for _ in vecs]
    for (d, w), coeff in terms.items():
        word = normal_word(d, w)
        if not anti:
            word.reverse()
        cur = vecs
        for key in word:
            cur = [act(key, v) for v in cur]
        for out, v in zip(outs, cur):
            vec_iadd_scaled(out, v, coeff)
    return outs


def _walk(x, y) -> dict:
    """The basis element x times the basis element y, both (D, w) keys, by
    the generator rules with ``int`` coefficients."""
    return act_terms({x: 1}, _left_mul, [{y: 1}])[0]


@lru_cache(maxsize=None)
def _shared(x):
    """The first object seen equal to x: one subset or permutation object
    per value in the tables below."""
    return x


@lru_cache(maxsize=None)
def _t_times_c(w: tuple, e: frozenset) -> tuple:
    """T_w c_E in normal form as (k, D, u) triples, k an int: at most
    n! 2^n entries per rank n."""
    ident = tuple(range(1, len(w) + 1))
    terms = _walk((frozenset(), w), (e, ident))
    return tuple((k, _shared(d), _shared(u)) for (d, u), k in terms.items())


@lru_cache(maxsize=None)
def _clifford_sign(d: frozenset, e: frozenset) -> tuple:
    """(s, D xor E) with c_D c_E = s c_{D xor E}: at most 4^n entries per
    rank n.  The empty permutation stands in for the identity: c letters
    never read it."""
    ((de, _w), s), = _walk((d, ()), (e, ())).items()
    return s, _shared(de)


@lru_cache(maxsize=None)
def _demazure_sign(u: tuple, v: tuple) -> tuple:
    """(t, u*v) with T_u T_v = t T_{u*v}, u*v the Demazure product: at most
    (n!)^2 entries per rank n."""
    ((_d, uv), t), = _walk((frozenset(), u), (frozenset(), v)).items()
    return t, _shared(uv)


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """a*b term by term, c_D T_w * c_E T_v = c_D (T_w c_E) T_v, from the
    three integer tables.  Each coefficient product x*y is formed once per
    pair of terms, and x*y times the integer k*s*t of each table entry is
    added into one dict by ``vec_add_term``, which keeps the one
    representation."""
    if a.rank != b.rank:
        raise RankMismatchError("ranks %d and %d" % (a.rank, b.rank))
    out = {}
    for (d, w), x in a.terms.items():
        for (e, v), y in b.terms.items():
            xy = x * y
            for k, d2, u in _t_times_c(w, e):
                s, dd = _clifford_sign(d, d2)
                t, uv = _demazure_sign(u, v)
                vec_add_term(out, (dd, uv), xy * (k * s * t))
    return a._make(out)


# ---------------------------------------------------------------------------
# trace and Frobenius form
# ---------------------------------------------------------------------------


def trace(a: AlgebraElement):
    """tr(c_D T_w) = 1 exactly on D = empty, w = longest element."""
    w0 = tuple(range(a.rank, 0, -1))
    return a.terms.get((frozenset(), w0), 0)


def _basis_index(n: int) -> dict:
    """Position of each basis key in the canonical order."""
    return {key: k for k, key in enumerate(algebra_basis(n))}


def _guard_regular(n: int) -> None:
    """The regular module has dimension 2^n n!: guarded at n <= MAX_REGULAR_N."""
    if n > MAX_REGULAR_N:
        raise ResourceLimitError(
            "regular representation of rank %d exceeds the guard %d" % (n, MAX_REGULAR_N)
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


def frobenius_gram(n: int) -> SparseMatrix:
    """Gram matrix of the trace form on the canonical basis.

    Row i is the w0-row of the left-regular matrix of the i-th basis element:
    the row vector e_w0 walked left to right through the transposed
    generator matrices, which are very sparse.
    """
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


# ---------------------------------------------------------------------------
# the associativity certificate
# ---------------------------------------------------------------------------


def _table_entries(n: int):
    """Every entry of the three tables behind ``multiply`` at rank n, as
    (x, y, x*y): basis keys x and y, and the tabulated product as a dict
    {basis key: int}."""
    ident = tuple(range(1, n + 1))
    perms = [w for d, w in algebra_basis(n) if not d]
    subsets = _subsets_ordered(n)
    empty = frozenset()
    for w in perms:
        for e in subsets:
            yield (empty, w), (e, ident), {(d, u): k for k, d, u in _t_times_c(w, e)}
    for d in subsets:
        for e in subsets:
            s, de = _clifford_sign(d, e)
            yield (d, ident), (e, ident), {(de, ident): s}
    for u in perms:
        for v in perms:
            t, uv = _demazure_sign(u, v)
            yield (empty, u), (empty, v), {(empty, uv): t}


def _int_apply(cols: list, vec: dict) -> dict:
    """The matrix with ``int`` columns ``cols`` times the ``int`` vector
    ``vec``: the certificate's one product, without the scalar dispatch of
    ``vec_iadd_scaled``."""
    if len(vec) == 1:  # one column, scaled: nothing can cancel
        ((j, x),) = vec.items()
        return {i: x * y for i, y in cols[j].items()}
    out = {}
    for j, x in vec.items():
        for i, y in cols[j].items():
            out[i] = out.get(i, 0) + x * y
    return {i: v for i, v in out.items() if v}


def associativity_failure(n: int):
    """None when ``multiply`` is certified associative at rank n, else the
    first check that failed, as text.  Guarded at n <= MAX_REGULAR_N.

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

    # (ii) by the L's, then (iii), which fills the tables before the
    # short-lived R matrices are built
    one = (frozenset(), tuple(range(1, n + 1)))
    lwords = {}
    for b in basis:
        lwords[b] = normal_word(*b)[::-1]
        if walk(left, lwords[b], one) != {pos[b]: 1}:
            return "the L-walk of %s" % basis_element(*b, n)
    for x, y, xy in _table_entries(n):
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
# (anti-)involutions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _morphism_generator_images(tag: str, n: int) -> dict:
    """Images of T_i and c_j under the named (anti-)involution."""
    if tag not in MORPHISM_TAGS:
        raise ValueError("unknown morphism tag %r" % tag)
    images = {}
    for i in range(1, n):
        if tag == "phi":
            img = gen_T(n - i, n) + multiply(gen_c(n - i, n), gen_c(n + 1 - i, n))
        elif tag == "phi_prime":
            img = (gen_T(n - i, n) + unit(n)).scale(-1)
        elif tag == "psi":
            img = gen_T(i, n) + multiply(gen_c(i, n), gen_c(i + 1, n))
        elif tag == "psi_prime":
            img = (gen_T(i, n) + unit(n)).scale(-1)
        else:  # phi_bar
            img = gen_T(n - i, n)
        images[("T", i)] = img
    for j in range(1, n + 1):
        if tag in ("phi", "phi_prime"):
            images[("c", j)] = gen_c(n + 1 - j, n).scale(-1)
        elif tag in ("psi", "psi_prime"):
            images[("c", j)] = gen_c(j, n).scale(-1)
        else:  # phi_bar is only defined on the Hecke subalgebra
            images[("c", j)] = None
    return images


def apply_morphism(tag: str, a: AlgebraElement) -> AlgebraElement:
    """Apply one of the structural (anti-)involutions.

    phi, phi_prime are algebra involutions; psi, psi_prime are unsigned
    anti-involutions (nu(ab) = nu(b) nu(a)); phi_bar fixes the 0-Hecke
    subalgebra (T_i -> T_{n-i}) and rejects elements with a Clifford part.
    The normal word of each term is walked from the unit, each step a left
    multiplication by the image of one generator.
    """
    n = a.rank
    images = _morphism_generator_images(tag, n)
    if tag == "phi_bar" and any(d for (d, _w) in a.terms):
        raise ValueError("phi_bar is defined on the Hecke subalgebra only")

    def act(key, terms):
        return act_terms(images[key].terms, _left_mul, [terms])[0]

    (out,) = act_terms(a.terms, act, [unit(n).terms], anti=tag in _ANTI_TAGS)
    return AlgebraElement(n, out)


def _first_letter(d, w) -> tuple:
    """(g, b') with c_D T_w = g b', g the first letter of normal_word(d, w).
    b' comes earlier in the canonical order: it has a smaller D, or, for
    D empty, i+1 stands left of i in w and b' exchanges them."""
    if d:
        j = min(d)
        return ("c", j), (d - {j}, w)
    i = word_reduced(w)[0]
    return ("T", i), (d, swap_values(i, w))


@lru_cache(maxsize=None)
def morphism_matrix(tag: str, n: int) -> SparseMatrix:
    """Matrix of the named morphism in the canonical basis order.

    Columns are built in that order, each from an earlier one: with
    b = g b' as in ``_first_letter``, nu(b) = nu(g) nu(b'), or nu(b') nu(g)
    for the anti-involutions, one ``multiply`` per column.  phi_bar has no
    matrix: it is defined on the Hecke subalgebra only.  ``apply_morphism``
    is the independent route, one walk per element.
    """
    if tag == "phi_bar":
        raise ValueError("phi_bar is defined on the Hecke subalgebra only")
    images = _morphism_generator_images(tag, n)
    basis = algebra_basis(n)
    pos = _basis_index(n)
    mat = SparseMatrix(len(basis), len(basis))
    done = {basis[0]: unit(n)}  # basis[0] is the unit
    for col, (d, w) in enumerate(basis):
        if col:
            g, rest = _first_letter(d, w)
            x, y = images[g], done[rest]
            done[(d, w)] = multiply(y, x) if tag in _ANTI_TAGS else multiply(x, y)
        for key, v in done[(d, w)].terms.items():
            mat.cols[col][pos[key]] = v
    return mat
