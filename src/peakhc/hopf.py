"""Exact graded Hopf-algebra arithmetic.

Implemented algebras, with their basis tags and index kinds:

* ``NSym``  -- noncommutative symmetric functions.  Bases ``H`` (complete,
  free generators), ``E`` (elementary), ``R`` (ribbon), all indexed by
  compositions.  ``Q`` is an input-only tag for products of the generators
  Q_n = sum_k E_k H_{n-k} of the peak subalgebra; it is linearly dependent,
  so conversions only go out of it.
* ``QSym``  -- quasisymmetric functions.  Bases ``M`` (monomial) and ``F``
  (fundamental), indexed by compositions.  The product is the quasi-shuffle
  on M; the coproduct is deconcatenation on M.
* ``Peak``  -- the subalgebra of NSym spanned by Xi_P = sum_{P(alpha)=P}
  R_alpha over peak sets P; basis tag ``Xi``.
* ``PeakDual`` -- Stembridge's peak quasisymmetric functions inside QSym.
  Basis ``K`` indexed by peak sets; ``N`` is the input-only spanning family
  N_alpha = vartheta(M_alpha) indexed by compositions.
* ``Sym``   -- symmetric functions: ``h`` (complete) and ``p`` (power sums)
  indexed by partitions, plus input-only tags ``m`` (monomial; convertible
  both ways) and ``r`` (ribbon Schur, indexed by compositions, dependent).
* ``Omega`` -- the subring of Sym generated by the q_n with generating
  series prod (1+x_i z)/(1-x_i z).  Canonical basis ``podd`` (power sums on
  odd partitions, rational coefficients); ``q`` is an input-only tag for
  q-monomials indexed by partitions.

Coefficients are exact rationals: ``int`` while integral, ``fractions.Fraction``
once a division has happened (an exact solve, the 2^-l(lam) of podd, the
Omega inner product).  Every table holds ``int`` entries (+-1, 2^k or n).
Conversion tables are computed once per degree on demand and cached
(functools caches are safe for concurrent readers); every value here is
immutable after construction, except the decoded view an element fills
on its first read, which two concurrent readers would fill alike.

Sym is read through its image in QSym: one integer table (``_sym_in_m``)
holds h_lam, p_lam and m_lam on M codes, and r goes to h first.  Into m a
Sym element is a class read of that image, into h or p one exact solve per
degree against the images of the target basis.  Omega follows: q_lam is
theta(h_lam), so its podd coordinates are theta of the p coordinates of
h_lam, and its image in PeakDual is vartheta(h_lam).

Membership conversions (NSym -> Peak, QSym -> PeakDual, Sym -> Omega,
QSym -> Sym) raise ``MembershipError`` when the element lies outside the
subalgebra.  QSym -> PeakDual is a solve, NSym -> Peak and QSym -> Sym
are class reads, and Sym -> Omega reads the parts of the p coordinates.
PeakDual products, coproducts and the embedding of Omega lift to QSym
along the Hopf morphism vartheta (``_lift``), compute on M and read back
through N_alpha in K (``_n_in_k``).

Keys.  Every table, every intermediate dict and the stored coefficients
of ``FreeElement`` and ``TensorElement`` are keyed by the int code of a
composition or peak set (``peakhc.combinat``: bit s-1 for each partial sum
s, n included), so each lookup hashes an int.  On codes the degree is
``c.bit_length()``, the number of parts ``c.bit_count()``, concatenation
``a | b << deg(a)``, deconcatenation a mask, coarsenings and refinements
the sub- and supermasks of the descent bits, and the peak code of a
composition ``top | c & ~(c << 1) & ~1``.  Partitions (Sym, Omega) stay
tuples.  The public constructors encode each index once; every function
here reads and returns code-keyed dicts, and an element wraps the dict it
is given without copying it, since no element or table is ever changed.
Keys are decoded only when a caller reads them: ``coeffs`` is a read-only
view on the canonical ``Composition``/``PeakSet`` instances, decoded on the
first read and kept, and ``terms()`` and ``str`` decode in code order,
which is the canonical order.  Coefficients are made and normalised once,
by the vector primitives of ``peakhc.linalg``, which keep ``int`` while
integral and drop zeros; the public constructors pass their input through
``scalars._rational``, which rejects floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .combinat import (
    Composition,
    PeakSet,
    _composition_code,
    _compositions_of,
    _int_tuple,
    partitions_of,
    peak_sets_in,
)
from .linalg import Echelon, SpanSolver, vec_add_term, vec_iadd_scaled, vec_scale
from .scalars import _rational

__all__ = [
    "ConversionError",
    "MembershipError",
    "FreeElement",
    "TensorElement",
    "term",
    "unit",
    "convert",
    "product",
    "coproduct",
    "pairing",
    "peak_pairing",
    "omega_inner_product",
    "theta_transform",
    "vartheta_map",
    "forgetful_pi",
    "theta_sym",
    "sym_into_qsym",
    "omega_into_peakdual",
    "k_expansions",
    "graded_rank",
]

# (algebra, basis) -> (index kind, product basis).  The kind is "comp",
# "peak" or "part".  A dependent input-only tag names the basis its products
# land in, and ``convert`` goes out of it but never into it; every other
# basis has None.  The parser reads its letters and index kinds here too.
_BASES = {
    ("NSym", "H"): ("comp", None),
    ("NSym", "E"): ("comp", None),
    ("NSym", "R"): ("comp", None),
    ("NSym", "Q"): ("comp", "H"),
    ("QSym", "M"): ("comp", None),
    ("QSym", "F"): ("comp", None),
    ("Peak", "Xi"): ("peak", None),
    ("PeakDual", "K"): ("peak", None),
    ("PeakDual", "N"): ("comp", "K"),
    ("Sym", "h"): ("part", None),
    ("Sym", "m"): ("part", None),
    ("Sym", "p"): ("part", None),
    ("Sym", "r"): ("comp", "h"),
    ("Omega", "q"): ("part", "podd"),
    ("Omega", "podd"): ("part", None),
}
_PIVOT_BASIS = {"NSym": "H", "QSym": "M", "Peak": "Xi", "PeakDual": "K", "Sym": "p", "Omega": "podd"}

BASES = {alg: tuple(b for a, b in _BASES if a == alg) for alg, _b in _BASES}


class ConversionError(ValueError):
    """No conversion path between the requested bases."""


class MembershipError(ValueError):
    """An element does not lie in the requested subalgebra."""


def _encode(algebra: str, basis: str, index):
    """The internal key of a public index: the code of a composition or
    peak set, or the partition tuple, validated as Composition and PeakSet
    validate their own fields."""
    row = _BASES.get((algebra, basis))
    if row is None:
        raise ConversionError("unknown basis %s of %s" % (basis, algebra))
    kind = row[0]
    if kind == "comp":
        return index.code if isinstance(index, Composition) else _composition_code(index)[1]
    if kind == "peak":
        if not isinstance(index, PeakSet):
            raise TypeError("basis %s wants a PeakSet index, got %r" % (basis, index))
        return index.code
    parts = _int_tuple(index, "partition index parts")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)) or any(
        x < 1 for x in parts
    ):
        raise ValueError("partition index must be weakly decreasing positive: %r" % (parts,))
    if basis == "podd" and any(x % 2 == 0 for x in parts):
        raise ValueError("podd index must have odd parts: %r" % (parts,))
    return parts


def _decoder(algebra: str, basis: str):
    """Internal key -> public index for this basis: a table read for a
    code, the key itself for a partition."""
    kind = _BASES[(algebra, basis)][0]
    return _comp if kind == "comp" else _peak if kind == "peak" else lambda k: k


def _order(k):
    """Sort key of an internal key: the code, whose int order is the
    canonical one, or (degree, parts) for a partition."""
    return k if type(k) is int else (sum(k), k)


class _Element:
    """Storage shared by FreeElement and TensorElement: ``_coeffs`` keyed as
    inside this module and never changed, and the decoded view, made on the
    first read of ``coeffs``."""

    __slots__ = ("algebra", "basis", "_coeffs", "_view")

    def __init__(self, algebra: str, basis: str, coeffs: dict):
        self.algebra = algebra
        self.basis = basis
        self._coeffs = coeffs
        self._view = None

    @property
    def coeffs(self):
        """The coefficients keyed by canonical Composition, PeakSet or
        partition instances; a read-only view."""
        if self._view is None:
            self._view = MappingProxyType(self._decoded())
        return self._view

    def _make(self, coeffs):
        return _new(type(self), self.algebra, self.basis, coeffs)

    def __add__(self, other):
        if (self.algebra, self.basis) != (other.algebra, other.basis):
            raise ConversionError(
                "cannot combine %s/%s with %s/%s"
                % (self.algebra, self.basis, other.algebra, other.basis)
            )
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            vec_add_term(out, k, v)
        return self._make(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return self._make(vec_scale(self._coeffs, _rational(c)))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.basis == other.basis
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        raise TypeError("%s is not hashable" % type(self).__name__)

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        return str(self)


class FreeElement(_Element):
    """A finitely supported exact-coefficient combination of basis elements."""

    __slots__ = ()

    def __init__(self, algebra: str, basis: str, coeffs=None):
        if (algebra, basis) not in _BASES:
            raise ConversionError("unknown basis %s of %s" % (basis, algebra))
        clean = {}
        for idx, c in (coeffs or {}).items():
            c = _rational(c)
            if c:  # two indices of one code add up
                vec_add_term(clean, _encode(algebra, basis, idx), c)
        super().__init__(algebra, basis, clean)

    @classmethod
    def zero(cls, algebra: str, basis: str) -> "FreeElement":
        return cls(algebra, basis, {})

    def _decoded(self) -> dict:
        decode = _decoder(self.algebra, self.basis)
        return {decode(k): c for k, c in self._coeffs.items()}

    def __mul__(self, other):
        if isinstance(other, FreeElement):
            return product(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __neg__(self):
        return self.scale(-1)

    # -- grading ---------------------------------------------------------------

    def degrees(self) -> list:
        return sorted({_degree(k) for k in self._coeffs})

    def component(self, d: int) -> "FreeElement":
        return self._make({k: v for k, v in self._coeffs.items() if _degree(k) == d})

    def terms(self) -> list:
        """(index, coefficient) pairs in canonical order."""
        decode = _decoder(self.algebra, self.basis)
        items = sorted(self._coeffs.items(), key=lambda kv: _order(kv[0]))
        return [(decode(k), c) for k, c in items]

    def coefficient(self, index) -> int | Fraction:
        """The coefficient of one basis element, an exact rational (int or Fraction)."""
        return self._coeffs.get(_encode(self.algebra, self.basis, index), 0)

    def __str__(self):
        if not self._coeffs:
            return "0"
        bits = []
        for idx, c in self.terms():
            body = _index_str(self.basis, idx)
            if c == 1:
                s = body
            elif c == -1:
                s = "-" + body
            else:
                s = "%s*%s" % (c, body)
            bits.append(s)
        out = bits[0]
        for s in bits[1:]:
            out += " - " + s[1:] if s.startswith("-") else " + " + s
        return out


def _index_str(basis: str, idx) -> str:
    if isinstance(idx, PeakSet):
        return "%s{%s}@%d" % (basis, ",".join(str(x) for x in sorted(idx.elements)), idx.n)
    if isinstance(idx, Composition):
        return "%s[%s]" % (basis, ",".join(str(p) for p in idx.parts))
    return "%s[%s]" % (basis, ",".join(str(p) for p in idx))


def term(algebra: str, basis: str, index, coeff=1) -> FreeElement:
    """``FreeElement(algebra, basis, {index: coeff})``, with the same checks
    in the same order, built without the constructor's loop."""
    if (algebra, basis) not in _BASES:
        raise ConversionError("unknown basis %s of %s" % (basis, algebra))
    c = _rational(coeff)
    return _element(algebra, basis, {_encode(algebra, basis, index): c} if c else {})


def unit(algebra: str, basis: str) -> FreeElement:
    if _BASES[(algebra, basis)][0] == "peak":
        return term(algebra, basis, PeakSet(0, frozenset()))
    return term(algebra, basis, ())


class TensorElement(_Element):
    """An element of the tensor square, stored as a map over index pairs."""

    __slots__ = ()

    def __init__(self, algebra: str, basis: str, coeffs=None):
        clean = {}
        for (a, b), c in (coeffs or {}).items():
            c = _rational(c)
            if c:  # two index pairs of one code pair add up
                vec_add_term(clean, (_encode(algebra, basis, a), _encode(algebra, basis, b)), c)
        super().__init__(algebra, basis, clean)

    def _decoded(self) -> dict:
        decode = _decoder(self.algebra, self.basis)
        return {(decode(a), decode(b)): c for (a, b), c in self._coeffs.items()}

    def product(self, other: "TensorElement") -> "TensorElement":
        """Componentwise product (a ox b)(c ox d) = ac ox bd, no signs."""
        out = {}
        for (a1, a2), ca in self._coeffs.items():
            for (b1, b2), cb in other._coeffs.items():
                left = product(
                    _element(self.algebra, self.basis, {a1: ca}),
                    _element(other.algebra, other.basis, {b1: cb}),
                )
                right = product(
                    _element(self.algebra, self.basis, {a2: 1}),
                    _element(other.algebra, other.basis, {b2: 1}),
                )
                for k1, c1 in left._coeffs.items():
                    vec_iadd_scaled(
                        out, (((k1, k2), c2) for k2, c2 in right._coeffs.items()), c1
                    )
        basis = left.basis if self._coeffs and other._coeffs else self.basis
        return _tensor(self.algebra, basis, out)

    def terms(self):
        """((index, index), coefficient) pairs in canonical order."""
        decode = _decoder(self.algebra, self.basis)
        items = sorted(self._coeffs.items(), key=lambda kv: (_order(kv[0][0]), _order(kv[0][1])))
        return [((decode(a), decode(b)), c) for (a, b), c in items]

    def __str__(self):
        if not self._coeffs:
            return "0"
        return " + ".join(
            "%s*%s(x)%s" % (c, _index_str(self.basis, a), _index_str(self.basis, b))
            for (a, b), c in self.terms()
        )


# ---------------------------------------------------------------------------
# codes: decoding for readers, and wrapping code-keyed results
# ---------------------------------------------------------------------------

_EMPTY = Composition(())


def _comp(code: int) -> Composition:
    """The canonical Composition with this code."""
    if not code:
        return _EMPTY
    n = code.bit_length()
    return _compositions_of(n)[code ^ 1 << (n - 1)]


@lru_cache(maxsize=None)
def _peak_sets_by_code(n: int) -> dict:
    """Code -> canonical PeakSet for the peak sets in [n]; one entry per degree."""
    return {P.code: P for P in peak_sets_in(n)}


def _peak(code: int) -> PeakSet:
    """The canonical PeakSet with this code."""
    return _peak_sets_by_code(code.bit_length())[code]


def _new(cls, algebra: str, basis: str, coeffs: dict):
    """A FreeElement or TensorElement that wraps ``coeffs``, keyed as inside
    this module and exact and free of zeros, as the vector primitives leave
    them; nothing is copied or decoded."""
    out = cls.__new__(cls)
    _Element.__init__(out, algebra, basis, coeffs)
    return out


def _element(algebra: str, basis: str, coeffs: dict) -> FreeElement:
    return _new(FreeElement, algebra, basis, coeffs)


def _tensor(algebra: str, basis: str, coeffs: dict) -> TensorElement:
    return _new(TensorElement, algebra, basis, coeffs)


def _degree(k) -> int:
    """Degree of an internal key: a code or a partition."""
    return k.bit_length() if type(k) is int else sum(k)


def _parts(code: int) -> tuple:
    """The parts of the composition with this code."""
    out, prev = [], 0
    while code:
        low = code & -code
        pos = low.bit_length()
        out.append(pos - prev)
        prev = pos
        code ^= low
    return tuple(out)


def _peak_code(code: int) -> int:
    """Code of the peak set of the composition with this code: the descents
    x >= 2 with x - 1 not a descent, plus the top bit."""
    if not code:
        return 0
    return 1 << (code.bit_length() - 1) | code & ~(code << 1) & ~1


def _submasks(mask: int) -> list:
    """Every submask of ``mask``, in increasing order."""
    out, s = [], mask
    while True:
        out.append(s)
        if not s:
            return out[::-1]
        s = (s - 1) & mask


# ---------------------------------------------------------------------------
# expansion tables (cached per code / degree; one entry per argument)
# ---------------------------------------------------------------------------


def _concat_product(a: dict, b: dict) -> dict:
    out = {}
    for ka, ca in a.items():
        shift = ka.bit_length()
        vec_iadd_scaled(out, ((ka | kb << shift, cb) for kb, cb in b.items()), ca)
    return out


def _sign(k: int) -> int:
    """(-1)^k as an int, also for negative k."""
    return -1 if k % 2 else 1


def _coarsenings(alpha: int) -> tuple:
    """Codes beta with D(beta) a subset of D(alpha) (beta >= alpha): the
    submasks of the descent bits, each with the top bit."""
    if not alpha:
        return (0,)
    top = 1 << (alpha.bit_length() - 1)
    return tuple(top | s for s in _submasks(alpha ^ top))


def _refinements(alpha: int) -> tuple:
    """Codes beta with D(alpha) a subset of D(beta) (beta <= alpha): the
    supermasks of alpha below its top bit."""
    if not alpha:
        return (0,)
    free = (1 << (alpha.bit_length() - 1)) - 1 & ~alpha
    return tuple(alpha | s for s in _submasks(free))


def _e_in_h(k: int) -> tuple:
    """E_k = sum over compositions beta of k of (-1)^(k - l(beta)) H_beta."""
    if k == 0:
        return ((0, 1),)
    return tuple((b, _sign(k - b.bit_count())) for b in range(1 << (k - 1), 1 << k))


@lru_cache(maxsize=None)
def _q_in_h(m: int) -> tuple:
    """Q_m = sum_{k=0..m} E_k H_{m-k}, expanded in the H basis: appending
    the part m - k to a code of degree k sets the top bit of degree m."""
    if m == 0:
        return ((0, 1),)
    top = 1 << (m - 1)
    out = {}
    for k in range(m + 1):
        for b, c in _e_in_h(k):
            vec_add_term(out, b | top, c)
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _h_expansion(basis: str, alpha: int) -> tuple:
    """Expansion of a single NSym basis element in the H basis."""
    if basis == "H":
        return ((alpha, 1),)
    if basis == "R":
        length = alpha.bit_count()
        return tuple((b, _sign(b.bit_count() - length)) for b in _coarsenings(alpha))
    if basis in ("E", "Q"):
        table = _e_in_h if basis == "E" else _q_in_h
        acc = {0: 1}
        for p in _parts(alpha):
            acc = _concat_product(acc, dict(table(p)))
        return tuple(sorted(acc.items()))
    raise ConversionError("no H-expansion for NSym basis %s" % basis)


@lru_cache(maxsize=None)
def _h_to_r(alpha: int) -> tuple:
    return tuple((b, 1) for b in _coarsenings(alpha))


def _h_to_e(alpha: int) -> tuple:
    """H_alpha in the E basis: the involution swapping E and H turns the
    E-to-H expansion into this one, coefficient for coefficient."""
    return _h_expansion("E", alpha)


@lru_cache(maxsize=None)
def _f_to_m(alpha: int) -> tuple:
    return tuple((b, 1) for b in _refinements(alpha))


@lru_cache(maxsize=None)
def _m_to_f(alpha: int) -> tuple:
    length = alpha.bit_count()
    return tuple((b, _sign(b.bit_count() - length)) for b in _refinements(alpha))


@lru_cache(maxsize=None)
def _xi_in_r(P: int) -> tuple:
    return tuple((a, 1) for a in _classes(P.bit_length(), "peak")[0][P])


@lru_cache(maxsize=None)
def _xi_in_h(P: int) -> tuple:
    """Xi_P in the H basis: its class of R's expanded once, where most terms
    cancel.  One entry per peak code, at most 2^(n-1) in degree n."""
    return tuple(_nsym_to_h(dict(_xi_in_r(P)), "R").items())


@lru_cache(maxsize=None)
def _theta_in_xi(alpha: int) -> tuple:
    """Theta(H_alpha) = Q_alpha in the Xi basis: its H expansion read in R,
    then by peak class.  One entry per code, at most 2^(n-1) in degree n."""
    return tuple(_convert("NSym", "Q", {alpha: 1}, "Peak", "Xi").items())


@lru_cache(maxsize=None)
def _theta_r_in_xi(alpha: int) -> tuple:
    """Theta(R_alpha) in the Xi basis: its 2^(l(alpha)-1) H terms read in
    ``_theta_in_xi`` once.  One entry per code, at most 2^(n-1) in degree n."""
    return tuple(_expand_linear(dict(_h_expansion("R", alpha)), _theta_in_xi).items())


@lru_cache(maxsize=None)
def _k_in_f(P: int) -> tuple:
    """K_P = 2^(|P|+1) * sum of F_alpha over alpha with P inside D .. (D+1)."""
    if not P:
        return ((0, 1),)
    top = 1 << (P.bit_length() - 1)
    p, c = P ^ top, 1 << P.bit_count()
    return tuple((top | d, c) for d in range(top) if not p & ~(d ^ d << 1))


@lru_cache(maxsize=None)
def _k_in_m(P: int) -> tuple:
    """K_P = sum over alpha with P inside D(alpha) union (D(alpha)+1) of 2^l(alpha) M_alpha."""
    if not P:
        return ((0, 1),)
    top = 1 << (P.bit_length() - 1)
    p = P ^ top
    return tuple(
        (top | d, 2 << d.bit_count()) for d in range(top) if not p & ~(d | d << 1)
    )


@lru_cache(maxsize=None)
def _n_in_k(alpha: int) -> tuple:
    """N_alpha = vartheta(M_alpha): expand M in F, then F_beta -> K_{P(beta)}."""
    out = {}
    for b, c in _m_to_f(alpha):
        vec_add_term(out, _peak_code(b), c)
    return tuple(out.items())


def _lift(basis: str, coeffs: dict) -> dict:
    """M coordinates of a preimage under vartheta: N_alpha = vartheta(M_alpha),
    and K_P = vartheta(F_P), since a peak code read as a composition code
    has that peak set."""
    return coeffs if basis == "N" else _expand_linear(coeffs, _f_to_m)


# quasi-shuffle on monomial codes


@lru_cache(maxsize=None)
def _quasi_shuffle(a: int, b: int) -> tuple:
    """M_a M_b as (code, multiplicity) pairs; one entry per pair of codes.

    The first part of a code is the position of its lowest bit, and
    ``a >> part`` is the code of the remaining parts."""
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    ha, hb = (a & -a).bit_length(), (b & -b).bit_length()
    out = {}
    for head, a1, b1 in ((ha, a >> ha, b), (hb, a, b >> hb), (ha + hb, a >> ha, b >> hb)):
        bit = 1 << (head - 1)
        for rest, m in _quasi_shuffle(a1, b1):
            vec_add_term(out, bit | rest << head, m)
    return tuple(out.items())


# symmetric-function tables


def _merge_parts(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b, reverse=True))


def _part_product(x: dict, y: dict) -> dict:
    out = {}
    for ka, ca in x.items():
        vec_iadd_scaled(out, ((_merge_parts(ka, kb), cb) for kb, cb in y.items()), ca)
    return out


def _partition(code: int) -> tuple:
    """The sorted parts of the composition with this code (a table read)."""
    return _classes(code.bit_length(), "part")[1][code]


def _r_to_h(coeffs: dict) -> dict:
    """Ribbon Schur r_alpha (code-indexed) into h (partition-indexed)."""
    return _expand_linear(
        coeffs, lambda alpha: ((_partition(b), s) for b, s in _h_expansion("R", alpha))
    )


def _solve_degreewise(coeffs: dict, solver, coords, unit, message: str) -> dict:
    """Coordinates of ``coeffs`` in a target basis, one exact solve per degree.

    ``coords(part, d)`` is the coordinate vector of the degree-d part, and
    ``solver(d)`` spans the images of the target basis in those coordinates,
    tagged by target index.  Degree 0 is the unit, whose target index is
    ``unit``.  Raises MembershipError(message % d) when a part lies outside
    the span.
    """
    out = {}
    for d in sorted({_degree(k) for k in coeffs}):
        part = {k: v for k, v in coeffs.items() if _degree(k) == d}
        if d == 0:
            (out[unit],) = part.values()
            continue
        rep = solver(d).express(coords(part, d))
        if rep is None:
            raise MembershipError(message % d)
        out.update(rep)
    return out


def _qsym_m_product(x: dict, y: dict) -> dict:
    out = {}
    for ka, ca in x.items():
        for kb, cb in y.items():
            vec_iadd_scaled(out, _quasi_shuffle(ka, kb), ca * cb)
    return out


@lru_cache(maxsize=None)
def _sym_in_m(basis: str, lam: tuple) -> dict:
    """Image of h_lam, p_lam or m_lam (``basis`` h, p or m) in QSym, on M
    codes with int entries: h_k is the sum of every M of degree k, p_k is
    M_(k), and m_lam is the sum of the class of lam.  Read-only."""
    if basis == "m":
        return dict.fromkeys(_classes(sum(lam), "part")[0][lam], 1)
    if not lam:
        return {0: 1}
    k = lam[-1]
    top = 1 << (k - 1)
    factor = dict.fromkeys(range(top, top << 1), 1) if basis == "h" else {top: 1}
    return _qsym_m_product(_sym_in_m(basis, lam[:-1]), factor)


def _sym_into_qsym(coeffs: dict, basis: str) -> dict:
    """A Sym element (h/m/p/r basis) as M coordinates; r goes to h first."""
    if basis == "r":
        coeffs, basis = _r_to_h(coeffs), "h"
    return _expand_linear(coeffs, lambda lam: _sym_in_m(basis, lam))


@lru_cache(maxsize=None)
def _sym_solver(basis: str, n: int) -> SpanSolver:
    """Span of the images of the h_lam or p_lam of degree n in QSym_n,
    tagged by partitions."""
    solver = SpanSolver()
    for lam in partitions_of(n):
        solver.add(lam, _sym_in_m(basis, lam))
    return solver


def _sym_as(coeffs: dict, basis: str, target: str) -> dict:
    """Sym coordinates in ``target`` (h, p or m), read from the image in
    QSym: a class read into m, an exact solve into h or p."""
    if basis == target:
        return coeffs
    if (basis, target) == ("r", "h"):
        return _r_to_h(coeffs)
    image = _sym_into_qsym(coeffs, basis)
    if target == "m":
        return _read_classes(image, "part", "internal: Sym image of degree %d is not symmetric")
    return _solve_degreewise(
        image, lambda d: _sym_solver(target, d), lambda part, d: part, (),
        "internal: Sym image of degree %d is outside the span of its basis images",
    )


def _theta_p(p: dict) -> dict:
    """theta on p coordinates: p_lam -> 2^l(lam) p_lam on odd lam, 0 on the rest."""
    return {
        lam: _rational(c * 2 ** len(lam)) for lam, c in p.items() if all(part % 2 for part in lam)
    }


def _omega_to_podd(coeffs: dict, basis: str) -> dict:
    """podd coordinates of an Omega element: q_lam = theta(h_lam)."""
    if basis == "podd":
        return dict(coeffs)
    return _theta_p(_sym_as(coeffs, "h", "p"))


# peak-dual coordinates: express a QSym element in the K basis (degreewise)


@lru_cache(maxsize=None)
def _peakdual_solver(n: int) -> SpanSolver:
    solver = SpanSolver()
    for P in _peak_sets_by_code(n):
        solver.add(P, dict(_k_in_f(P)))
    return solver


def _qsym_to_k(coeffs_f: dict) -> dict:
    """F-coordinate dict -> K-coordinate dict; MembershipError if outside."""
    return _solve_degreewise(
        coeffs_f,
        _peakdual_solver,
        lambda part, d: part,
        0,
        "element of degree %d lies outside the peak quasisymmetric span",
    )


# class tables: the compositions of n grouped by peak set or by sorted parts


@lru_cache(maxsize=None)
def _classes(n: int, kind: str) -> tuple:
    """(members, class_of) for the codes of the compositions of n grouped by
    peak set (kind "peak", keyed by peak code) or by sorted parts (kind
    "part", keyed by partition).

    ``members`` maps each class key to its codes in canonical order, and
    ``class_of`` maps each code to its key.  Both are read-only.  Degree 0
    is the single class of the empty composition.  One entry per degree
    and kind.
    """
    key = _peak_code if kind == "peak" else lambda a: tuple(sorted(_parts(a), reverse=True))
    members, class_of = {}, {}
    for a in range(1 << (n - 1), 1 << n) if n else (0,):
        k = class_of[a] = key(a)
        members.setdefault(k, []).append(a)
    return {k: tuple(v) for k, v in members.items()}, class_of


def _read_classes(coeffs: dict, kind: str, message: str) -> dict:
    """One coefficient per class (see ``_classes``) of a code-indexed dict;
    raises MembershipError(message % degree) unless the dict is constant on
    every class it touches (absent codes count as 0)."""
    out = {}
    for a, c in coeffs.items():
        n = a.bit_length()
        members, class_of = _classes(n, kind)
        k = class_of[a]
        if k not in out:
            if any(coeffs.get(b, 0) != c for b in members[k]):
                raise MembershipError(message % n)
            out[k] = c
    return {k: c for k, c in out.items() if c}


def _nsym_to_xi(coeffs_r: dict) -> dict:
    """R-coordinate dict -> Xi coordinates: Xi_P is the sum of its class."""
    return _read_classes(
        coeffs_r, "peak", "element of degree %d lies outside the peak subalgebra"
    )


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------


def _expand_linear(coeffs: dict, table) -> dict:
    """sum over idx of coeffs[idx] * table(idx); a table entry is a dict or
    (key, value) pairs."""
    out = {}
    for idx, c in coeffs.items():
        vec_iadd_scaled(out, table(idx), c)
    return out


def _nsym_to_h(coeffs: dict, basis: str) -> dict:
    if basis == "H":
        return coeffs
    return _expand_linear(coeffs, lambda a: _h_expansion(basis, a))


def _nsym_to_basis(coeffs_h: dict, basis: str) -> dict:
    if basis == "H":
        return coeffs_h
    return _expand_linear(coeffs_h, _h_to_r if basis == "R" else _h_to_e)


def _as_h(x: FreeElement) -> dict:
    """H coordinates of an NSym or Peak element."""
    if x.algebra == "Peak":
        return _expand_linear(x._coeffs, _xi_in_h)
    if x.algebra != "NSym":
        raise ConversionError("wants an NSym or Peak element, got %s" % x.algebra)
    return _nsym_to_h(x._coeffs, x.basis)


def _qsym_as(coeffs: dict, basis: str, target: str) -> dict:
    """QSym coordinates in ``target`` (M or F), not yet made exact."""
    if basis == target:
        return coeffs
    return _expand_linear(coeffs, _f_to_m if target == "M" else _m_to_f)


def _forget(coeffs_h: dict) -> dict:
    """The forgetful map NSym -> Sym on H coordinates: H_alpha -> h_(sorted alpha)."""
    return _expand_linear(coeffs_h, lambda a: ((_partition(a), 1),))


def convert(x: FreeElement, basis: str, algebra: str | None = None) -> FreeElement:
    """Exact change of basis, within an algebra or along the embeddings.

    Supported cross-algebra paths: Peak <-> NSym, PeakDual <-> QSym,
    Omega <-> Sym, Sym <-> QSym (membership in the reverse direction raises
    MembershipError when the element is outside the subalgebra).  No
    conversion goes into a dependent tag (Q, N, r, q): ConversionError.
    """
    algebra = algebra or x.algebra
    row = _BASES.get((algebra, basis))
    if row is None:
        raise ConversionError("unknown basis %s of %s" % (basis, algebra))
    if (x.algebra, x.basis) == (algebra, basis):
        return x
    if row[1]:
        raise ConversionError("cannot convert into the dependent tag %s" % basis)
    return _element(algebra, basis, _convert(x.algebra, x.basis, x._coeffs, algebra, basis))


def _convert(alg: str, basis: str, coeffs: dict, algebra: str, target: str) -> dict:
    """``convert`` on internally keyed coefficients.  Every result, and
    every intermediate one, is exact and free of zeros as the vector
    primitives leave it; a result may be ``coeffs`` itself, or another
    dict that is read-only, so the caller copies before it keeps one."""
    if alg == algebra:
        return _convert_within(alg, basis, coeffs, target)
    if (alg, algebra) == ("Peak", "NSym"):
        if target == "R":
            # the peak classes are disjoint: each R coefficient is one Xi coefficient
            return _expand_linear(coeffs, _xi_in_r)
        return _nsym_to_basis(_expand_linear(coeffs, _xi_in_h), target)
    if (alg, algebra) == ("NSym", "Peak"):
        return _nsym_to_xi(_convert_within("NSym", basis, coeffs, "R"))
    if (alg, algebra) == ("PeakDual", "QSym"):
        k = _convert_within(alg, basis, coeffs, "K")
        return _convert_within("QSym", "F", _expand_linear(k, _k_in_f), target)
    if (alg, algebra) == ("QSym", "PeakDual"):
        k = _qsym_to_k(_qsym_as(coeffs, basis, "F"))
        return _convert_within("PeakDual", "K", k, target)
    if (alg, algebra) == ("Omega", "Sym"):
        return _convert_within("Sym", "p", _omega_to_podd(coeffs, basis), target)
    if (alg, algebra) == ("Sym", "Omega"):
        p = _sym_as(coeffs, basis, "p")
        if any(part % 2 == 0 for lam in p for part in lam):
            raise MembershipError("p-expansion has even parts; not in the q-generated ring")
        return _convert_within("Omega", "podd", p, target)
    if (alg, algebra) == ("Sym", "QSym"):
        return _convert_within("QSym", "M", _sym_into_qsym(coeffs, basis), target)
    if (alg, algebra) == ("QSym", "Sym"):
        bym = _read_classes(
            _qsym_as(coeffs, basis, "M"), "part", "element of degree %d is not symmetric"
        )
        return _convert_within("Sym", "m", bym, target)
    if (alg, algebra) == ("Omega", "PeakDual"):
        return _convert_within("PeakDual", "K", _into_peakdual(coeffs, basis), target)
    if (alg, algebra) == ("Omega", "QSym"):
        p = _convert(alg, basis, coeffs, "Sym", "p")
        return _convert("Sym", "p", p, "QSym", target)
    if (alg, algebra) == ("Peak", "Sym"):
        h = _convert(alg, basis, coeffs, "NSym", "H")
        return _convert_within("Sym", "h", _forget(h), target)
    raise ConversionError(
        "no conversion path from %s/%s to %s/%s" % (alg, basis, algebra, target)
    )


def _convert_within(alg: str, basis: str, coeffs: dict, target: str) -> dict:
    """Within one algebra; ``target`` is never a dependent tag, since
    ``convert`` refuses those, and Peak has the single basis Xi."""
    if basis == target:
        return coeffs
    if alg == "NSym":
        return _nsym_to_basis(_nsym_to_h(coeffs, basis), target)
    if alg == "QSym":
        return _qsym_as(coeffs, basis, target)
    if alg == "PeakDual":  # N into K
        return _expand_linear(coeffs, _n_in_k)
    if alg == "Omega":  # q into podd
        return _omega_to_podd(coeffs, basis)
    return _sym_as(coeffs, basis, target)


def _into_peakdual(coeffs: dict, basis: str) -> dict:
    """K coordinates of an Omega element given in q or podd.  vartheta
    restricts to theta on Sym, so q_lam = theta(h_lam) is vartheta(h_lam),
    an int combination of N's; on odd lam, theta(p_lam) = 2^l(lam) p_lam,
    so p_lam is vartheta(2^-l(lam) p_lam)."""
    if basis == "podd":
        coeffs = {lam: Fraction(c, 1 << len(lam)) for lam, c in coeffs.items()}
    image = _sym_into_qsym(coeffs, "p" if basis == "podd" else "h")
    return _expand_linear(image, _n_in_k)


# ---------------------------------------------------------------------------
# products and coproducts
# ---------------------------------------------------------------------------

def product(x: FreeElement, y: FreeElement) -> FreeElement:
    """Graded product; the two factors must live in the same algebra."""
    if x.algebra != y.algebra:
        raise ConversionError(
            "cannot multiply %s element by %s element" % (x.algebra, y.algebra)
        )
    alg = x.algebra
    out_basis = _BASES[(alg, x.basis)][1] or x.basis
    xc, yc = x._coeffs, y._coeffs
    if alg == "NSym":
        prod = _concat_product(_nsym_to_h(xc, x.basis), _nsym_to_h(yc, y.basis))
        return _element("NSym", out_basis, _nsym_to_basis(prod, out_basis))
    if alg == "QSym":
        prod = _qsym_m_product(_qsym_as(xc, x.basis, "M"), _qsym_as(yc, y.basis, "M"))
        return _element("QSym", out_basis, _convert_within(alg, "M", prod, out_basis))
    if alg == "Peak":
        a = _convert(alg, x.basis, xc, "NSym", "H")
        b = _convert(alg, y.basis, yc, "NSym", "H")
        return _element(alg, "Xi", _convert("NSym", "H", _concat_product(a, b), alg, "Xi"))
    if alg == "PeakDual":
        prod = _qsym_m_product(_lift(x.basis, xc), _lift(y.basis, yc))
        return _element(alg, "K", _expand_linear(prod, _n_in_k))
    if alg == "Sym":
        if x.basis == y.basis and x.basis in ("h", "p"):
            return _element("Sym", x.basis, _part_product(xc, yc))
        a = _convert_within(alg, x.basis, xc, "h")
        b = _convert_within(alg, y.basis, yc, "h")
        prod = _part_product(a, b)
        return _element(alg, out_basis, _convert_within(alg, "h", prod, out_basis))
    if alg == "Omega":
        a = _convert_within(alg, x.basis, xc, "podd")
        b = _convert_within(alg, y.basis, yc, "podd")
        return _element(alg, "podd", _part_product(a, b))
    raise ConversionError("no product on %s" % alg)


@lru_cache(maxsize=None)
def _coprod_h_single(alpha: int) -> tuple:
    """Delta H_alpha = prod over parts of sum_k H_k (x) H_(part-k), on code
    pairs: appending a part j to a code of degree d sets bit d + j - 1."""
    acc = {(0, 0): 1}
    for part in _parts(alpha):
        nxt = {}
        for (b, g), c in acc.items():
            db, dg = b.bit_length(), g.bit_length()
            for k in range(part + 1):
                left = b | 1 << (db + k - 1) if k else b
                right = g | 1 << (dg + part - k - 1) if k < part else g
                vec_add_term(nxt, (left, right), c)
        acc = nxt
    return tuple(acc.items())


@lru_cache(maxsize=None)
def _coprod_m_single(alpha: int) -> tuple:
    """Deconcatenation: cut at 0 and at every partial sum s, masking the
    bits below s to the left and shifting the rest down to the right."""
    out = [((0, alpha), 1)]
    rest = alpha
    while rest:
        low = rest & -rest
        rest ^= low
        cut = low.bit_length()
        out.append(((alpha & (1 << cut) - 1, alpha >> cut), 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _coprod_part_h(lam: tuple) -> tuple:
    """Delta h_lam: the image of Delta H_lam under the forgetful map, a Hopf
    morphism."""
    out = {}
    for (b, g), c in _coprod_h_single(Composition(lam).code):
        vec_add_term(out, (_partition(b), _partition(g)), c)
    return tuple(out.items())


@lru_cache(maxsize=None)
def _coprod_part_primitive(lam: tuple) -> tuple:
    acc = {((), ()): 1}
    for part in lam:
        nxt = {}
        for (b, g), c in acc.items():
            for side in (0, 1):
                left = _merge_parts(b, (part,)) if side == 0 else b
                right = g if side == 0 else _merge_parts(g, (part,))
                vec_add_term(nxt, (left, right), c)
        acc = nxt
    return tuple(acc.items())


def _tensor_convert(t: dict, table) -> dict:
    """Apply a linear map (index -> (index', coeff) pairs) to both tensor slots."""
    out = {}
    for (k1, k2), c in t.items():
        img2 = table(k2)
        for a, ca in table(k1):
            vec_iadd_scaled(out, (((a, b), cb) for b, cb in img2), c * ca)
    return out


def _tensor_slotwise_solve(t: dict) -> dict:
    """Read an H (x) H tensor of Peak in Xi (x) Xi, slot by slot.

    Each fiber {index: coeff} of one slot against a basis element of the
    other lies in Peak, so its Xi coordinates are a class read of its R
    coordinates.  Fibers have disjoint keys, so nothing is summed.
    """
    fibers = {}
    for (k1, k2), c in t.items():
        fibers.setdefault(k2, {})[k1] = c
    half = {}
    for k2, fib in fibers.items():
        for a, ca in _nsym_to_xi(_expand_linear(fib, _h_to_r)).items():
            half.setdefault(a, {})[k2] = ca
    return {
        (a, b): cb
        for a, fib in half.items()
        for b, cb in _nsym_to_xi(_expand_linear(fib, _h_to_r)).items()
    }


def coproduct(x: FreeElement) -> TensorElement:
    """Graded coproduct; returns a tensor-square element.

    Slots come back in the basis of the input for H/E/R/M/F/Xi/K/N/h/p/podd,
    so N stays N; the tags Q, r, m, q are first normalized (to H, h, h, podd).
    """
    alg, basis = x.algebra, x.basis
    xc = x._coeffs
    if alg == "NSym":
        t = _expand_linear(_nsym_to_h(xc, basis), _coprod_h_single)
        if basis in ("H", "Q"):
            return _tensor("NSym", "H", t)
        return _tensor("NSym", basis, _tensor_convert(t, _h_to_r if basis == "R" else _h_to_e))
    if alg == "QSym":
        t = _expand_linear(_qsym_as(xc, basis, "M"), _coprod_m_single)
        if basis == "M":
            return _tensor("QSym", "M", t)
        return _tensor("QSym", "F", _tensor_convert(t, _m_to_f))
    if alg == "Peak":
        t = _expand_linear(_convert(alg, basis, xc, "NSym", "H"), _coprod_h_single)
        return _tensor("Peak", "Xi", _tensor_slotwise_solve(t))
    if alg == "PeakDual":
        t = _expand_linear(_lift(basis, xc), _coprod_m_single)
        if basis == "N":
            return _tensor("PeakDual", "N", t)
        return _tensor("PeakDual", "K", _tensor_convert(t, _n_in_k))
    if alg == "Sym":
        if basis in ("r", "m"):
            xc, basis = _convert_within(alg, basis, xc, "h"), "h"
        table = _coprod_part_h if basis == "h" else _coprod_part_primitive
        return _tensor("Sym", basis, _expand_linear(xc, table))
    if alg == "Omega":
        p = _convert_within(alg, basis, xc, "podd")
        return _tensor("Omega", "podd", _expand_linear(p, _coprod_part_primitive))
    raise ConversionError("no coproduct on %s" % alg)


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------


def pairing(F: FreeElement, f: FreeElement) -> int | Fraction:
    """Canonical duality <H_a, M_b> = <R_a, F_b> = delta, extended bilinearly;
    an exact rational (int or Fraction).

    Accepts Peak elements on the left (through the inclusion into NSym) and
    PeakDual, Sym or Omega elements on the right (through their inclusions
    in QSym).  R against QSym F is read in the dual pair the arguments
    share, with no conversion; every other pair is read in (H, M).
    """
    if F.algebra not in ("NSym", "Peak") or f.algebra not in ("QSym", "PeakDual", "Sym", "Omega"):
        raise ConversionError("pairing wants (NSym, QSym)-sided arguments")
    a, b = F._coeffs, f._coeffs
    if F.basis != "R" or (f.algebra, f.basis) != ("QSym", "F"):
        a = _as_h(F)
        if f.algebra == "QSym":
            b = _qsym_as(b, f.basis, "M")
        else:
            b = _convert(f.algebra, f.basis, b, "QSym", "M")
    tot = 0
    for k, c in a.items():
        other = b.get(k)
        if other is not None:
            tot += c * other
    return _rational(tot)


def peak_pairing(x: FreeElement, y: FreeElement) -> int | Fraction:
    """[Xi_P, K_Q] = delta_{P,Q}; arguments may be given inside NSym / QSym.
    The value is an exact rational (int or Fraction)."""
    a = _convert(x.algebra, x.basis, x._coeffs, "Peak", "Xi")
    b = _convert(y.algebra, y.basis, y._coeffs, "PeakDual", "K")
    tot = 0
    for P, c in a.items():
        other = b.get(P)
        if other is not None:
            tot += c * other
    return _rational(tot)


def _z_lambda(lam: tuple) -> int:
    z = 1
    mult = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    for i, m in mult.items():
        fact = 1
        for t in range(2, m + 1):
            fact *= t
        z *= fact * (i ** m)
    return z


def omega_inner_product(u: FreeElement, v: FreeElement) -> int | Fraction:
    """[p_lam, p_mu] = z_lam 2^(-l(lam)) delta, on the odd power-sum basis;
    an exact rational (int or Fraction)."""
    u = convert(u, "podd", "Omega")
    v = convert(v, "podd", "Omega")
    tot = 0
    for lam, c in u._coeffs.items():
        other = v._coeffs.get(lam)
        if other is not None:
            tot += c * other * Fraction(_z_lambda(lam), 2 ** len(lam))
    return _rational(tot)


# ---------------------------------------------------------------------------
# the four structural morphisms
# ---------------------------------------------------------------------------


def theta_transform(x: FreeElement) -> FreeElement:
    """Descent-to-peak transform on NSym: the algebra map H_n -> Q_n."""
    if (x.algebra, x.basis) == ("NSym", "R"):
        return _element("Peak", "Xi", _expand_linear(x._coeffs, _theta_r_in_xi))
    return _element("Peak", "Xi", _expand_linear(_as_h(x), _theta_in_xi))


def vartheta_map(x: FreeElement) -> FreeElement:
    """Descent-to-peak map on QSym: F_alpha -> K_{P(alpha)}."""
    f = _convert(x.algebra, x.basis, x._coeffs, "QSym", "F")
    return _element("PeakDual", "K", _expand_linear(f, lambda a: ((_peak_code(a), 1),)))


def forgetful_pi(x: FreeElement) -> FreeElement:
    """Forgetful map NSym -> Sym, H_alpha -> h_(sorted alpha)."""
    return _element("Sym", "h", _forget(_as_h(x)))


def theta_sym(x: FreeElement) -> FreeElement:
    """The epimorphism Sym -> Omega, h_n -> q_n; kills even power sums."""
    xc = x._coeffs
    if x.algebra == "Sym":
        p = _sym_as(xc, x.basis, "p")
    elif x.algebra == "Omega":
        p = _omega_to_podd(xc, x.basis)
    else:
        raise ConversionError("theta_sym wants a Sym or Omega element, got %s" % x.algebra)
    return _element("Omega", "podd", _theta_p(p))


def sym_into_qsym(x: FreeElement) -> FreeElement:
    """The inclusion of symmetric functions into QSym (M basis)."""
    if x.algebra != "Sym":
        raise ConversionError("sym_into_qsym wants a Sym element, got %s" % x.algebra)
    return _element("QSym", "M", _sym_into_qsym(x._coeffs, x.basis))


def omega_into_peakdual(x: FreeElement) -> FreeElement:
    """The inclusion of the q-generated ring into the peak quasisymmetric ring."""
    xc, basis = x._coeffs, x.basis
    if x.algebra != "Omega":
        xc, basis = _convert(x.algebra, basis, xc, "Omega", "podd"), "podd"
    return _element("PeakDual", "K", _into_peakdual(xc, basis))


def k_expansions(P: PeakSet) -> tuple:
    """Both expansions of K_P: (fundamental, monomial); they agree under M->F."""
    f = _element("QSym", "F", dict(_k_in_f(P.code)))
    m = _element("QSym", "M", dict(_k_in_m(P.code)))
    return f, m


def graded_rank(elements, degree: int) -> int:
    """Exact rank of the degree components in a fixed canonical basis."""
    ech = Echelon()
    algebra = None
    for x in elements:
        if algebra is None:
            algebra = x.algebra
        elif x.algebra != algebra:
            raise ConversionError("graded_rank wants elements of a single algebra")
        pivot = _PIVOT_BASIS[algebra]
        coeffs = _convert(algebra, x.basis, x._coeffs, algebra, pivot)
        ech.add({k: v for k, v in coeffs.items() if _degree(k) == degree})
    return ech.rank
