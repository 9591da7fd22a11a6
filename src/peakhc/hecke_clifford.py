"""The 0-Hecke-Clifford superalgebra: normal forms, trace form, involutions.

The rank-n algebra is generated by even T_1..T_{n-1} and odd c_1..c_n with

    T_i^2 = -T_i,  braid and distant-commutation relations among the T_i,
    c_j^2 = -1,    c_i c_j = -c_j c_i  (i != j),

and the cross relations

    T_i c_j = c_j T_i (j != i, i+1),   T_i c_i = c_{i+1} T_i,
    (T_i + 1) c_{i+1} = c_i (T_i + 1).

``defining_relations`` is the one list of these relations and
``failing_relation`` its one evaluator: it walks each word on vectors, one
generator at a time, and no relation check forms a matrix product.  On the
unit vectors it checks a module's action matrices column by column; under
right multiplication from the unit it checks images in the algebra.

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
T_u T_v.  Each entry is one generator step on a shorter entry of its
table: T_w = T_i T_{s_i w} with i the least left descent of w, and
c_D = c_j c_{D-j} with j = min D.  The structure constants are integers,
and a coefficient follows the one representation of ``scalars``: ``int``
while integral, so products of integral elements stay ``int``, and a
``GaussianRational`` only where the imaginary part is nonzero, as in the
idempotents that split induced simples.

``associativity_failure`` proves that this product is associative, rank by
rank, with no sampling, from the three tables alone.  As a vector space the
algebra is C (x) H, the Clifford algebra C on the c_D and the 0-Hecke
algebra H on the T_w, and the table of T_w c_E is a map
tau: H (x) C -> C (x) H; ``multiply`` is the product of the twisted tensor
product C (x)_tau H (Cap, Schichl and Vanzura, Comm. Algebra 23, 1995).
That product is associative when C and H are, each checked on triples whose
last factor is a generator, and when tau respects the products of H and of
C.  For H that is read from the presentation of the 0-Hecke algebra: the
Demazure table and the moves of each T_i past an entry of tau satisfy its
relations, and each entry of tau is one move on a one letter shorter
entry, so by Norton's dimension count the moves are an action of H.  For C
it is checked with the H factor a generator T_i.  The function's docstring
spells out each step.

``frobenius_failure`` proves from the same three tables that the trace form
tr(ab), tr the coefficient of T_w0, is nondegenerate and even, with
Nakayama automorphism phi.  The Demazure table never exceeds the sum of the
lengths and reaches T_w0 from complementary lengths only when u o v = w0;
c_D c_D' lies on the unit only for D' = D; each T_u c_E has the one leading
term +-c_{u(E)} T_u and is parity-homogeneous.  So the Gram is block
triangular with a signed permutation on its diagonal.  phi is an algebra
map, since its images satisfy the defining relations, and the Nakayama
identity on the generators extends to every element by induction on
products.  The certificate builds no Gram, eliminates nothing and forms no
matrix of phi; its docstring holds the proof.  Every reader of the
structure constants goes through the tables; the tests keep the
associativity certificate through the regular representation, and the
Frobenius form by Gram elimination, as slow routes.

``frobenius_gram`` (the Gram read from the tables), ``morphism_matrix``
(each column of an (anti-)involution from a one letter shorter column, one
``multiply`` each) and ``apply_morphism`` (a walk of each element from the
unit) have no caller in the package; the tests' slow routes use them.  They
are not in ``__all__``, and they stay here, not in the tests' oracles, only
because the benchmark's tracer wraps them by name.

The canonical basis order is (|D|, bitmask of D, one-line word); all
matrices produced here follow it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .combinat import (
    ResourceLimitError,
    swap_positions,
    swap_values,
    word_compose,
    word_descents,
    word_length,
    word_reduced,
)
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
    "frobenius_failure",
    "MORPHISM_TAGS",
]

MORPHISM_TAGS = ("phi", "phi_prime", "psi", "psi_prime", "phi_bar")
_ANTI_TAGS = frozenset({"psi", "psi_prime"})

MAX_TABLE_SWEEP_N = 5


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


def _perms(n: int) -> list:
    """The one-line words of rank n in the canonical order, identity first."""
    return [w for d, w in algebra_basis(n) if not d]


def _basis_index(n: int) -> dict:
    """Position of each basis key in the canonical order."""
    return {key: k for k, key in enumerate(algebra_basis(n))}


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


def _relation_text(lhs, rhs) -> str:
    """A relation of ``defining_relations`` as text, e.g. "c_1 c_1 = -1"."""

    def side(terms):
        return " + ".join(
            ("-" if coeff < 0 else "") + (" ".join("%s_%d" % k for k in word) or "1")
            for coeff, word in terms
        )

    return "%s = %s" % (side(lhs), side(rhs))


def _word_sums(terms, act, vecs, first: dict, anti: bool = False) -> list:
    """For each v of ``vecs``, the sum of coeff * (word . v) over ``terms``,
    pairs (coeff, word) with a word a sequence of keys, () the unit; each
    word acts by ``act(key, v)`` right to left, or left to right if
    ``anti``.  The images under a word's first key are kept in ``first``
    (longer steps are not).  A lone word with coefficient 1 gives its
    images as they are, which may be the dicts of ``vecs`` or ``first``."""
    outs = None
    for coeff, word in terms:
        word = word if anti else word[::-1]
        cur = first.get(word[0]) if word else vecs
        if cur is None:
            cur = first[word[0]] = [act(word[0], v) for v in vecs]
        for key in word[1:]:
            cur = [act(key, v) for v in cur]
        if outs is not None:
            for out, v in zip(outs, cur):
                vec_iadd_scaled(out, v, coeff)
        elif coeff != 1:
            outs = [vec_scale(v, coeff) for v in cur]
        else:
            outs = cur if len(terms) == 1 else [dict(v) for v in cur]
    return [{} for _ in vecs] if outs is None else outs


def failing_relation(keys, act, vecs, anti: bool = False, images=None, relations=None):
    """The first relation of ``defining_relations(keys)`` that fails on a
    vector of ``vecs``, each key acting by ``act(key, v)`` and each word
    applied right to left (left to right if ``anti``), as text; None when
    all hold.  Each key's images of ``vecs`` are taken once, or handed in
    as ``images``: the columns of a matrix are its images of unit vectors.
    ``relations``, pairs of ``defining_relations``, walks those in place of
    the relations of ``keys``."""
    first = {} if images is None else images
    for lhs, rhs in defining_relations(keys) if relations is None else relations:
        if (_word_sums(lhs, act, vecs, first, anti)
                != _word_sums(rhs, act, vecs, first, anti)):
            return _relation_text(lhs, rhs)
    return None


def _failing_product_relation(images: dict, n: int):
    """``failing_relation`` for ``images`` in the rank-n algebra: each word
    is walked from the unit as ((1 g_1) g_2) ... under ``multiply``."""
    one = unit(n)

    def right_mul(key, terms):
        return multiply(one._make(terms), images[key]).terms

    return failing_relation(images, right_mul, [one.terms], anti=True)


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


def act_terms(terms: dict, act, vecs, anti: bool = False, images=None) -> list:
    """For each v of ``vecs``, the sum of coeff * (c_D T_w . v) over
    ``terms``: the walk of ``failing_relation`` on each term's normal word
    (``anti`` for anti-homomorphisms and row vectors).  Each key's images
    of ``vecs`` may be handed in as ``images``, as for ``failing_relation``;
    a lone one-letter word with coefficient 1 then returns those dicts."""
    words = [(coeff, normal_word(d, w)) for (d, w), coeff in terms.items()]
    return _word_sums(words, act, vecs, {} if images is None else images, anti)


def _first_letter(d, w) -> tuple:
    """(g, b') with c_D T_w = g b'.  b' comes earlier in the canonical
    order: for D nonempty g = c_j with j = min D and b' has D - {j}; for D
    empty g = T_i with i the least left descent of w != id, the least i
    whose i+1 stands left of i, found in one pass, and b' exchanges them,
    so T_w = T_i T_{s_i w} with l(s_i w) = l(w) - 1."""
    if d:
        j = min(d)
        return ("c", j), (d - {j}, w)
    i, seen = len(w), 0
    for x in w:
        if seen >> x & 1 and x < i:
            i = x
        seen |= 1 << (x - 1)
    return ("T", i), (d, swap_values(i, w))


@lru_cache(maxsize=None)
def _shared(x):
    """The first object seen equal to x: one subset or permutation object
    per value in the tables below."""
    return x


@lru_cache(maxsize=None)
def _t_times_c(w: tuple, e: frozenset) -> tuple:
    """T_w c_E in normal form as (k, D, u) triples, k an int: at most
    n! 2^n entries per rank n.  T_i times the entry of s_i w, i the least
    left descent of w (``_first_letter``)."""
    if w == tuple(range(1, len(w) + 1)):
        return ((1, _shared(e), _shared(w)),)
    (_t, i), (_d, rest) = _first_letter(frozenset(), w)
    terms = _left_mul_T(i, {(d, u): k for k, d, u in _t_times_c(rest, e)})
    return tuple((k, _shared(d), _shared(u)) for (d, u), k in terms.items())


@lru_cache(maxsize=None)
def _clifford_sign(d: frozenset, e: frozenset) -> tuple:
    """(s, D xor E) with c_D c_E = s c_{D xor E}: at most 4^n entries per
    rank n: c_j times the entry of D - {j}, j = min D.  The empty
    permutation stands in for the identity: c letters never read it."""
    if not d:
        return 1, _shared(e)
    (_c, j), (rest, _w) = _first_letter(d, ())
    s, x = _clifford_sign(rest, e)
    ((de, _w), s), = _left_mul_c(j, {(x, ()): s}).items()
    return s, _shared(de)


@lru_cache(maxsize=None)
def _demazure_sign(u: tuple, v: tuple) -> tuple:
    """(t, u*v) with T_u T_v = t T_{u*v}, u*v the Demazure product: at most
    (n!)^2 entries per rank n.  T_i times the entry of s_i u, i the least
    left descent of u, by the left Demazure rule: T_i T_x = T_{s_i x} when i
    stands left of i+1 in x, and -T_x otherwise."""
    if u == tuple(range(1, len(u) + 1)):
        return 1, _shared(v)
    (_t, i), (_d, rest) = _first_letter(frozenset(), u)
    t, x = _demazure_sign(rest, v)
    if x.index(i) < x.index(i + 1):
        return t, _shared(swap_values(i, x))
    return -t, x


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
# the Frobenius form
# ---------------------------------------------------------------------------


def _guard_table_sweep(n: int) -> None:
    """The associativity certificate checks (n!)^2 (n-1) Demazure triples
    in (H) and makes n! 2^n moves in (K), the Frobenius certificate reads
    (n!)^2 Demazure entries in (D), and the Gram has (2^n n!)^2 entries:
    guarded at n <= MAX_TABLE_SWEEP_N."""
    if n > MAX_TABLE_SWEEP_N:
        raise ResourceLimitError(
            "table sweep of rank %d exceeds the guard %d" % (n, MAX_TABLE_SWEEP_N),
            "MAX_TABLE_SWEEP_N",
        )


def frobenius_gram(n: int) -> SparseMatrix:
    """Gram matrix of the trace form tr(ab), the coefficient of T_w0 in ab,
    on the canonical basis; guarded by ``_guard_table_sweep``.

    Read from the three tables: c_D T_u * c_E T_v has trace
    sigma(D, D) * sum k t over the entries (k, D, x) of T_u c_E whose
    Clifford part is D and with T_x T_v = t T_w0.  The pairs (v, t) are
    listed once per x.  One pass over the entries of T_u c_E, for all E,
    fills the rows of every c_D T_u whole, each entry sent to the row of
    its D.  No report builds it: ``frobenius_failure`` certifies the form
    without it, and the tests' slow route eliminates it.
    """
    _guard_table_sweep(n)
    basis = algebra_basis(n)
    perms = _perms(n)
    m = len(perms)
    w0 = tuple(range(n, 0, -1))
    to_w0 = {}
    for x in perms:
        signs = [_demazure_sign(x, v) for v in perms]
        to_w0[x] = [(col, t) for col, (t, xv) in enumerate(signs) if xv == w0]
    subsets = _subsets_ordered(n)
    block = {d: b for b, d in enumerate(subsets)}
    gram = SparseMatrix(len(basis), len(basis))
    for pu, u in enumerate(perms):
        rows = {}
        for b, e in enumerate(subsets):
            for k, d, x in _t_times_c(u, e):
                row = rows.setdefault(d, {})
                for col, t in to_w0[x]:
                    j = b * m + col
                    row[j] = row.get(j, 0) + k * t
        for d, row in rows.items():
            sign, _empty = _clifford_sign(d, d)
            for col, v in row.items():
                if v:
                    gram.cols[col][block[d] * m + pu] = sign * v
    return gram


# ---------------------------------------------------------------------------
# the associativity certificate
# ---------------------------------------------------------------------------


def _c_name(d, n: int) -> str:
    return str(basis_element(d, tuple(range(1, n + 1)), n))


def _t_name(w: tuple) -> str:
    return str(basis_element(frozenset(), w, len(w)))


def _tau(w: tuple, e: frozenset) -> dict:
    """tau(T_w (x) c_E) = T_w c_E as a dict {(D, u): k}."""
    return {(d, u): k for k, d, u in _t_times_c(w, e)}


def _move_t(s: tuple, terms: dict) -> dict:
    """M_{T_s}: T_s moved past every c_D T_u of ``terms``."""
    out = {}
    for (d, u), k in terms.items():
        for k2, d2, u2 in _t_times_c(s, d):
            t, uu = _demazure_sign(u2, u)
            vec_add_term(out, (d2, uu), k * k2 * t)
    return out


def _move_past_c(f: frozenset, terms: dict) -> dict:
    """N_{c_F}: the T part of every c_D T_u of ``terms`` moved past c_F."""
    out = {}
    for (d, u), k in terms.items():
        for k2, d2, u2 in _t_times_c(u, f):
            s, dd = _clifford_sign(d, d2)
            vec_add_term(out, (dd, u2), k * k2 * s)
    return out


def _unit_failure(n: int):
    """Check (U) of ``associativity_failure``."""
    ident = tuple(range(1, n + 1))
    empty = frozenset()
    for e in _subsets_ordered(n):
        if not (_clifford_sign(empty, e) == _clifford_sign(e, empty) == (1, e)
                and _tau(ident, e) == {(e, ident): 1}):
            return "(U) the unit law at %s" % _c_name(e, n)
    for v in _perms(n):
        if not (_demazure_sign(ident, v) == _demazure_sign(v, ident) == (1, v)
                and _tau(v, empty) == {(empty, v): 1}):
            return "(U) the unit law at %s" % _t_name(v)
    return None


def _clifford_failure(n: int):
    """Check (C) of ``associativity_failure``."""
    subsets = _subsets_ordered(n)
    for d in subsets:
        if d and _clifford_sign(d - {max(d)}, frozenset({max(d)})) != (1, d):
            return "(C) %s is not c_%d times the rest" % (_c_name(d, n), max(d))
        for e in subsets:
            s, de = _clifford_sign(d, e)
            for j in range(1, n + 1):
                cj = frozenset({j})
                s2, x = _clifford_sign(de, cj)
                s3, ej = _clifford_sign(e, cj)
                s4, y = _clifford_sign(d, ej)
                if s * s2 != s3 * s4 or x != y:
                    return "(C) (%s * %s) * c_%d" % (_c_name(d, n), _c_name(e, n), j)
    return None


def _presentation_failure(n: int):
    """Check (P) of ``associativity_failure``: about n! table reads."""
    ident = tuple(range(1, n + 1))

    def left_t(key, vec):
        out = {}
        for w, t in vec.items():
            t2, x = _demazure_sign(swap_values(key[1], ident), w)
            vec_add_term(out, x, t * t2)
        return out

    rel = failing_relation([("T", i) for i in range(1, n)], left_t, [{ident: 1}])
    if rel is not None:
        return "(P) %s fails in the Demazure table" % rel
    for v in _perms(n)[1:]:
        (_t, f), (_d, rest) = _first_letter(frozenset(), v)
        if _demazure_sign(swap_values(f, ident), rest) != (1, v):
            return "(P) %s is not T_%d times the rest" % (_t_name(v), f)
    return None


def _hecke_failure(n: int):
    """Check (H) of ``associativity_failure``."""
    ident = tuple(range(1, n + 1))
    perms = _perms(n)
    simple = {i: swap_values(i, ident) for i in range(1, n)}
    for u in perms:
        if u != ident:
            i = min(word_descents(u))
            if _demazure_sign(swap_positions(i, u), simple[i]) != (1, u):
                return "(H) %s is not its prefix times T_%d" % (_t_name(u), i)
        for v in perms:
            t, uv = _demazure_sign(u, v)
            for i in range(1, n):
                t2, x = _demazure_sign(uv, simple[i])
                t3, vi = _demazure_sign(v, simple[i])
                t4, y = _demazure_sign(u, vi)
                if t * t2 != t3 * t4 or x != y:
                    return "(H) (%s * %s) * T_%d" % (_t_name(u), _t_name(v), i)
    return None


def _moves_failure(n: int):
    """Check (R) of ``associativity_failure``: on the 2^n vectors c_D (x) 1."""
    ident = tuple(range(1, n + 1))

    def move(key, vec):
        return _move_t(swap_values(key[1], ident), vec)

    for d in _subsets_ordered(n):
        rel = failing_relation([("T", i) for i in range(1, n)], move, [{(d, ident): 1}])
        if rel is not None:
            return "(R) %s fails for the moves past %s" % (rel, _c_name(d, n))
    return None


def _construction_failure(n: int):
    """Check (K) of ``associativity_failure``: n! 2^n moves."""
    ident = tuple(range(1, n + 1))
    subsets = _subsets_ordered(n)
    for v in _perms(n)[1:]:
        (_t, f), (_d, rest) = _first_letter(frozenset(), v)
        s = swap_values(f, ident)
        for e in subsets:
            if _move_t(s, _tau(rest, e)) != _tau(v, e):
                return "(K) T_%d moved past %s * %s" % (f, _t_name(rest), _c_name(e, n))
    return None


def _clifford_move_failure(n: int):
    """Check (b) of ``associativity_failure``."""
    ident = tuple(range(1, n + 1))
    subsets = _subsets_ordered(n)
    for i in range(1, n):
        s_i = swap_values(i, ident)
        for e in subsets:
            te = _tau(s_i, e)
            for f in subsets:
                s, ef = _clifford_sign(e, f)
                if _move_past_c(f, te) != {key: s * k for key, k in _tau(s_i, ef).items()}:
                    return "(b) T_%d moved past %s * %s" % (i, _c_name(e, n), _c_name(f, n))
    return None


def associativity_failure(n: int):
    """None when ``multiply`` is certified associative at rank n, else the
    first check that failed, as text.  Guarded at n <= MAX_TABLE_SWEEP_N.

    The certificate reads the three tables only.  Let C be the span of the
    c_D with c_D c_E = sigma(D, E) (``_clifford_sign``), H the span of the
    T_w with T_u T_v = delta(u, v) (``_demazure_sign``), and
    tau: H (x) C -> C (x) H the map T_w (x) c_E -> T_w c_E (``_t_times_c``).
    Write s_i for the transposition of i and i+1, f(v) for the least left
    descent of v != id (``_first_letter``), so that l(s_f v) = l(v) - 1,
    and for h in H and c in C let M_h(c' (x) k) = tau(h (x) c') k move h
    past c' (x) k, and N_c(c' (x) k) = c' tau(k (x) c) move the H part
    past c.  The checks, in the order they run:

    (U) sigma(0, E) = sigma(E, 0) = (1, E), delta(id, v) = delta(v, id) =
        (1, v), tau(1 (x) c_E) = c_E and tau(T_w (x) 1) = T_w;
    (C) (c_D c_E) c_j = c_D (c_E c_j) for all D, E, j, and
        c_F = c_{F-m} c_m with sign +1, m = max F;
    (P) the T_{s_i} satisfy T_i T_i = -T_i, the braid relations and the
        distant commutations of ``defining_relations`` under delta, and
        T_v = T_{s_f} T_{s_f v} with sign +1 for every v != id, f = f(v):
        about n! table reads;
    (H) (T_u T_v) T_i = T_u (T_v T_i) for all u, v, i, and
        T_w = T_{w s_i} T_i with sign +1, i the least right descent of w != id;
    (R) the M_{T_{s_i}} satisfy the same relations on the 2^n vectors
        c_D (x) 1;
    (K) tau(T_v (x) c_E) = M_{T_{s_f}} tau(T_{s_f v} (x) c_E) for every
        v != id, f = f(v), and every E: n! 2^n moves;
    (b) tau(T_i (x) c_E c_F) = N_{c_F} tau(T_i (x) c_E) for all i, E, F.

    (P), (R) and (K) together prove, for (n-1) times fewer table reads,
    what the sweep of T_i past every entry of tau proved before them (the
    tests keep that sweep as the slow route):

    (a) tau(T_i T_v (x) c_E) = M_{T_i} tau(T_v (x) c_E) for all i, v, E.

    Proof.  C is associative: (x y) z = x (y z) on basis elements by
    induction on |F| for z = c_F, from F = 0 by (U); with c_F = c_G c_m,
    (x y) c_F = ((x y) c_G) c_m = (x (y c_G)) c_m = x ((y c_G) c_m) =
    x (y c_F), the outer steps by (C) and linearity, the middle one by
    induction.  H is associative likewise by (H), on the length of w.

    Next, h -> M_h is an algebra map on H.  Let H_n(0) be the algebra
    presented by generators T_1..T_{n-1} and the relations of (P).  It has
    dimension n! (Norton, "0-Hecke algebras", J. Austral. Math. Soc. A 27,
    1979).  H is associative with unit T_id, its T_{s_i} satisfy these
    relations by (P), and by the second part of (P) and induction on the
    length each T_v is the product of the T_{s_f} along the least left
    descents of v; so T_i -> T_{s_i} extends to an algebra map of H_n(0)
    onto H, which is one-to-one since both have dimension n!.  Each M_h is
    right H-linear: M_h((c (x) k) k') = tau(h (x) c) (k k') =
    (tau(h (x) c) k) k' by the associativity of H.  The c_D (x) 1 span
    C (x) H as a right H-module, so by (R) the M_{T_{s_i}} satisfy the
    relations on all of C (x) H, and there is an algebra map rho from H to
    the endomorphisms of C (x) H with rho(T_{s_i}) = M_{T_{s_i}}.  By (K)
    the right H-linear maps M_{T_v} and M_{T_{s_f}} M_{T_{s_f v}} agree on
    every c_E (x) 1, so they are equal; with M_1 = 1 by (U) and induction
    on the length, M_{T_v} is the product of the M_{T_{s_f}} along the
    least left descents of v, which is rho(T_v).  So M = rho on a basis, M
    is linear in h, and M_{g h} = M_g M_h for all g, h in H.  Applied to
    c (x) 1, tau(g h (x) c) = M_g tau(h (x) c): this is (a) for every g in
    H, not only for the T_i.

    The h with tau(h (x) c c') = N_{c'} tau(h (x) c) for all c, c' form a
    subspace that holds 1 by (U) and each T_i by (b).  If g and h are in
    it, tau(g h (x) c c') = M_g N_{c'} tau(h (x) c) and
    N_{c'} tau(g h (x) c) = N_{c'} M_g tau(h (x) c), by (a) for g; and
    M_g N_{c'} = N_{c'} M_g, for with tau(k (x) c') = sum c'' (x) k'' both
    send c (x) k to sum N_{c''} tau(g (x) c) k'', the left by g in the
    subspace, the right by (a) for every element of H.  So it is all of H.

    Put (c h)(c' h') = c tau(h (x) c') h'.  For basis elements, with
    tau(h1 (x) c2) = sum c' (x) h' and tau(h2 (x) c3) = sum c'' (x) h'',
    (a) gives ((c1 h1)(c2 h2))(c3 h3) = sum c1 c' M_{h'} tau(h2 (x) c3) h3,
    and (b) gives (c1 h1)((c2 h2)(c3 h3)) = sum c1 N_{c''} tau(h1 (x) c2) h'' h3.
    Both equal sum c1 c' tau(h' (x) c'') h'' h3, so this product C (x)_tau H
    is associative (Cap, Schichl and Vanzura, Comm. Algebra 23, 1995).  For
    c_D T_w and c_E T_v it is the sum of k sigma(D, D') delta(u, v) over the
    entries (k, D', u) of tau(T_w (x) c_E), which is the sum ``multiply``
    forms for the pair; both are bilinear, so ``multiply`` is associative.
    """
    _guard_table_sweep(n)
    for check in (_unit_failure, _clifford_failure, _presentation_failure, _hecke_failure,
                  _moves_failure, _construction_failure, _clifford_move_failure):
        witness = check(n)
        if witness is not None:
            return witness
    return None


# ---------------------------------------------------------------------------
# the Frobenius certificate
# ---------------------------------------------------------------------------


def _demazure_bound_failure(n: int):
    """Check (D) of ``frobenius_failure``: (n!)^2 reads."""
    w0 = tuple(range(n, 0, -1))
    perms = _perms(n)
    length = {w: word_length(w) for w in perms}
    for u in perms:
        for x in perms:
            t, y = _demazure_sign(u, x)
            reach = length[u] + length[x]
            if t not in (1, -1) or length[y] > reach or (
                    reach == length[w0] and (y == w0) != (word_compose(u, x) == w0)):
                return "(D) %s * %s" % (_t_name(u), _t_name(x))
    return None


def _clifford_square_failure(n: int):
    """Check (S) of ``frobenius_failure``: 4^n reads."""
    subsets = _subsets_ordered(n)
    for d in subsets:
        for d2 in subsets:
            s, dd = _clifford_sign(d, d2)
            if (not dd) != (d == d2) or (d == d2 and s not in (1, -1)):
                return "(S) %s * %s" % (_c_name(d, n), _c_name(d2, n))
    return None


def _leading_term_failure(n: int):
    """Check (L) of ``frobenius_failure``: n! 2^n entries."""
    length = {w: word_length(w) for w in _perms(n)}
    for u in _perms(n):
        for e in _subsets_ordered(n):
            lead = [(k, d, x) for k, d, x in _t_times_c(u, e) if length[x] >= length[u]]
            if (len(lead) != 1 or lead[0][0] not in (1, -1)
                    or lead[0][1:] != (frozenset(u[j - 1] for j in e), u)):
                return "(L) the leading term of %s * %s" % (_t_name(u), _c_name(e, n))
    return None


def _evenness_failure(n: int):
    """Check (E) of ``frobenius_failure``: n! 2^n entries."""
    for u in _perms(n):
        for e in _subsets_ordered(n):
            if any(len(d) % 2 != len(e) % 2 for _k, d, _x in _t_times_c(u, e)):
                return "(E) %s * %s is not homogeneous" % (_t_name(u), _c_name(e, n))
    return None


def _phi_images_failure(n: int):
    """Check (M) of ``frobenius_failure``."""
    images = _morphism_generator_images("phi", n)
    for key, img in images.items():
        if (img.parity() != (1 if key[0] == "c" else 0)
                or any(word_length(v) > 1 for _d, v in img.terms)):
            return "(M) the image of %s_%d under phi" % key
    rel = _failing_product_relation(images, n)
    if rel is not None:
        return "(M) %s fails for the images of phi" % rel
    return None


def _trace_of_product(x, y, w0: tuple) -> int:
    """tr(c_D T_u * c_E T_v) for basis keys x = (D, u) and y = (E, v), read
    from the three tables as ``multiply`` reads them: the coefficient of
    c_0 T_w0 in the product."""
    (d, u), (e, v) = x, y
    total = 0
    for k, d2, x2 in _t_times_c(u, e):
        s, dd = _clifford_sign(d, d2)
        if not dd:
            t, xv = _demazure_sign(x2, v)
            if xv == w0:
                total += k * s * t
    return total


def _nakayama_failure(n: int):
    """Check (N) of ``frobenius_failure``: n 2^n (2n - 1) pairs (a, g)."""
    w0 = tuple(range(n, 0, -1))
    images = _morphism_generator_images("phi", n)
    gens = generators(n)
    for u in _perms(n):
        if word_length(u) < word_length(w0) - 1:
            continue
        for d in _subsets_ordered(n):
            a = (d, u)
            for key, g in gens.items():
                lhs = sum(k * _trace_of_product(a, y, w0) for y, k in g.terms.items())
                rhs = sum(k * _trace_of_product(y, a, w0) for y, k in images[key].terms.items())
                if lhs != (-rhs if key[0] == "c" and len(d) % 2 else rhs):
                    return "(N) tr(a g) at a = %s, g = %s_%d" % (
                        basis_element(d, u, n), *key)
    return None


def frobenius_failure(n: int):
    """None when the trace form (a, b) = tr(ab) of ``multiply`` is certified
    nondegenerate and even with Nakayama automorphism phi at rank n, else
    the first check that failed, as text.  Guarded at n <= MAX_TABLE_SWEEP_N.

    tr(x) is the coefficient of c_0 T_w0 in x, w0 the longest element,
    L = l(w0) = n(n-1)/2 and l = ``combinat.word_length``.  Read with the
    notation of ``associativity_failure`` (sigma, delta and tau for the three
    tables), the checks, in the order they run:

    (D) every delta(u, x) = (t, y) has t = +-1 and l(y) <= l(u) + l(x), and
        when l(u) + l(x) = L, y = w0 exactly when u o x = w0 as maps of
        one-line words: (n!)^2 reads;
    (S) every sigma(D, D') = (s, F) has F = 0 exactly when D' = D, and then
        s = +-1: 4^n reads;
    (L) every tau(T_u (x) c_E) has exactly one term (k, D, x) with
        l(x) >= l(u), and it is k = +-1, D = u(E) = {u(j) : j in E}, x = u:
        n! 2^n entries;
    (E) every term (k, D, x) of tau(T_u (x) c_E) has |D| = |E| mod 2;
    (M) the images phi(g) of the generators are homogeneous of the parity
        of g, their terms c_E T_v have l(v) <= 1, and they satisfy
        ``defining_relations`` under ``multiply``;
    (N) tr(a g) = (-1)^{|a||g|} tr(phi(g) a) for every generator g and
        every basis element a = c_D T_u with l(u) >= L - 1: n 2^n (2n - 1)
        pairs, each trace read from the tables.

    Proof.  By the definition of ``multiply``, tr(c_D T_u c_E T_v) is the
    sum of k s t over the terms (k, D', x) of tau(T_u (x) c_E) with
    sigma(D, D') = (s, 0) and delta(x, v) = (t, w0); by (S) only D' = D
    enters.  Lemma: if tr(c_D T_u c_E T_v) != 0, then l(u) + l(v) >= L,
    and if l(u) + l(v) = L, it is +-1 when D = u(E) and u o v = w0, else 0.
    For a term of the sum has l(x) <= l(u) by (L) and L <= l(x) + l(v) by
    (D), as w0 is the one element of length L; at l(u) + l(v) = L only the
    term x = u of (L), with D' = u(E), can reach w0, and by (D) it does
    exactly when u o v = w0, with k s t = +-1 by (L), (S) and (D).

    Nondegenerate: send the column c_E T_v of the Gram to its partner row
    c_{u(E)} T_u, u = w0 o v^-1, a bijection of the basis.  By the lemma a
    nonzero entry in row c_D T_u and the column of partner c_D' T_u' has
    l(u) >= L - l(v) = l(u'), and at l(u) = l(u') it lies on the diagonal
    and is +-1.  So the Gram, columns re-indexed and rows ordered by l(u),
    is block triangular with diagonal blocks +- the identity: its
    determinant is +-1, with no elimination.

    Even: a nonzero tr(c_D T_u c_E T_v) needs a term of tau(T_u (x) c_E)
    with Clifford part D, so |D| = |E| mod 2 by (E).

    Nakayama.  phi is an algebra map: the rewriting rules of the module
    docstring follow from ``defining_relations``, and with the T words
    reduced to +-T_w by the relations of H_n(0) (Norton's count) they
    bring every word in the generators to the 2^n n! words c_D T_w.  So the
    algebra P presented by the generators and these relations has
    dimension <= 2^n n!.  The algebra A of ``multiply`` is associative with
    unit, its generators satisfy the relations (the ``algebra-relations``
    report of the same rank), and each c_D T_w is the product along its
    normal word by (U), (C) and (P) of ``associativity_failure``; so
    g -> g maps P onto A, and the two are isomorphic.  By (M), g -> phi(g)
    then extends to an algebra map phi of A that keeps parities.  Let B be
    the set of homogeneous b with tr(a b) = (-1)^{|a||b|} tr(phi(b) a) for
    every homogeneous a.  It holds 1, and each generator g: both sides are
    linear in a, (N) gives the basis elements c_D T_u with l(u) >= L - 1,
    and for l(u) < L - 1 both sides are 0 by the lemma, since g and, by
    (M), phi(g) are sums of c_E T_v with l(v) <= 1.  This skip is what keeps
    (N) at n 2^n elements a of the 2^n n!.  B is closed under products: for
    b1, b2 in B, tr(a b1 b2) = (-1)^{|a b1||b2|} tr(phi(b2) a b1) =
    (-1)^{|a b1||b2| + |phi(b2) a||b1|} tr(phi(b1) phi(b2) a), whose sign is
    (-1)^{|a||b1 b2|} and where phi(b1) phi(b2) = phi(b1 b2).  So B holds
    every c_D T_w, and with linearity every homogeneous b: the identity
    that the Gram G = +-G^T phi of the tests' slow route states.
    """
    _guard_table_sweep(n)
    for check in (_demazure_bound_failure, _clifford_square_failure, _leading_term_failure,
                  _evenness_failure, _phi_images_failure, _nakayama_failure):
        witness = check(n)
        if witness is not None:
            return witness
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


@lru_cache(maxsize=None)
def morphism_matrix(tag: str, n: int) -> SparseMatrix:
    """Matrix of the named morphism in the canonical basis order.

    Columns are built in that order, each from an earlier one: with
    b = g b' as in ``_first_letter``, nu(b) = nu(g) nu(b'), or nu(b') nu(g)
    for the anti-involutions, one ``multiply`` per column.  phi_bar has no
    matrix: it is defined on the Hecke subalgebra only.  ``apply_morphism``
    is the independent route, one walk per element.  No report builds it;
    the tests' slow route to ``frobenius_failure`` does.
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
