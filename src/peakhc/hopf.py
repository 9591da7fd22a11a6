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
once a division has happened (the Newton identities for h in p, the solves
behind membership conversions, the Omega inner product).  Every table built
without a division has ``int`` entries (+-1, 2^k or n); only h in p and q in
podd carry ``Fraction``.  Conversion tables are computed
once per degree on demand and cached (functools caches are safe for
concurrent readers); every value here is immutable after construction.

Membership conversions (NSym -> Peak, QSym -> PeakDual, Sym -> Omega,
QSym -> Sym) solve exactly and raise ``MembershipError`` when the element
lies outside the subalgebra.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .combinat import (
    Composition,
    PeakSet,
    as_composition,
    compositions_of,
    composition_from_descents,
    DescentSet,
    partitions_of,
    peak_sets_in,
    symmetric_difference_shift,
)
from .linalg import SpanSolver, vec_add_term, vec_iadd_scaled
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
    "counit",
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
    "index_degree",
    "index_sort_key",
]

BASES = {
    "NSym": ("H", "E", "R", "Q"),
    "QSym": ("M", "F"),
    "Peak": ("Xi",),
    "PeakDual": ("K", "N"),
    "Sym": ("h", "m", "p", "r"),
    "Omega": ("q", "podd"),
}

# index kind per (algebra, basis): "comp" / "peak" / "part"
_INDEX_KIND = {
    ("NSym", "H"): "comp",
    ("NSym", "E"): "comp",
    ("NSym", "R"): "comp",
    ("NSym", "Q"): "comp",
    ("QSym", "M"): "comp",
    ("QSym", "F"): "comp",
    ("Peak", "Xi"): "peak",
    ("PeakDual", "K"): "peak",
    ("PeakDual", "N"): "comp",
    ("Sym", "h"): "part",
    ("Sym", "m"): "part",
    ("Sym", "p"): "part",
    ("Sym", "r"): "comp",
    ("Omega", "q"): "part",
    ("Omega", "podd"): "part",
}


class ConversionError(ValueError):
    """No conversion path between the requested bases."""


class MembershipError(ValueError):
    """An element does not lie in the requested subalgebra."""


def _normalize_index(algebra: str, basis: str, index):
    kind = _INDEX_KIND.get((algebra, basis))
    if kind is None:
        raise ConversionError("unknown basis %s of %s" % (basis, algebra))
    if kind == "comp":
        return as_composition(index) if not isinstance(index, Composition) else index
    if kind == "peak":
        if not isinstance(index, PeakSet):
            raise TypeError("basis %s wants a PeakSet index, got %r" % (basis, index))
        return index
    parts = tuple(int(x) for x in index)
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)) or any(
        x < 1 for x in parts
    ):
        raise ValueError("partition index must be weakly decreasing positive: %r" % (parts,))
    if basis == "podd" and any(x % 2 == 0 for x in parts):
        raise ValueError("podd index must have odd parts: %r" % (parts,))
    return parts


def index_degree(index) -> int:
    if isinstance(index, Composition):
        return index.n
    if isinstance(index, PeakSet):
        return index.n
    return sum(index)


def index_sort_key(index):
    if isinstance(index, Composition):
        return (0, index.n, index.descent_set().bitmask())
    if isinstance(index, PeakSet):
        return (1, index.n, index.bitmask())
    return (2, sum(index), index)


class FreeElement:
    """A finitely supported exact-coefficient combination of basis elements."""

    __slots__ = ("algebra", "basis", "coeffs")

    def __init__(self, algebra: str, basis: str, coeffs=None):
        if basis not in BASES.get(algebra, ()):
            raise ConversionError("unknown basis %s of %s" % (basis, algebra))
        self.algebra = algebra
        self.basis = basis
        clean = {}
        for idx, c in (coeffs or {}).items():
            c = _rational(c)
            if c:
                clean[_normalize_index(algebra, basis, idx)] = c
        self.coeffs = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, algebra: str, basis: str) -> "FreeElement":
        return cls(algebra, basis, {})

    def _make(self, coeffs, basis=None, algebra=None) -> "FreeElement":
        out = FreeElement.__new__(FreeElement)
        out.algebra = algebra or self.algebra
        out.basis = basis or self.basis
        out.coeffs = {k: v for k, v in coeffs.items() if v}
        return out

    # -- linear structure ------------------------------------------------------

    def _check_compatible(self, other: "FreeElement"):
        if (self.algebra, self.basis) != (other.algebra, other.basis):
            raise ConversionError(
                "cannot combine %s/%s with %s/%s"
                % (self.algebra, self.basis, other.algebra, other.basis)
            )

    def __add__(self, other: "FreeElement") -> "FreeElement":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            vec_add_term(out, k, v)
        return self._make(out)

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + other.scale(-1)

    def scale(self, c) -> "FreeElement":
        c = _rational(c)
        if not c:
            return self._make({})
        return self._make({k: v * c for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, FreeElement):
            return product(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.basis == other.basis
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        raise TypeError("FreeElement is not hashable")

    def __bool__(self):
        return bool(self.coeffs)

    # -- grading ---------------------------------------------------------------

    def degrees(self) -> list:
        return sorted({index_degree(k) for k in self.coeffs})

    def component(self, d: int) -> "FreeElement":
        return self._make({k: v for k, v in self.coeffs.items() if index_degree(k) == d})

    def terms(self) -> list:
        return sorted(self.coeffs.items(), key=lambda kv: index_sort_key(kv[0]))

    def coefficient(self, index) -> int | Fraction:
        """The coefficient of one basis element, an exact rational (int or Fraction)."""
        return self.coeffs.get(_normalize_index(self.algebra, self.basis, index), 0)

    def __str__(self):
        if not self.coeffs:
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

    __repr__ = __str__


def _index_str(basis: str, idx) -> str:
    if isinstance(idx, PeakSet):
        return "%s{%s}@%d" % (basis, ",".join(str(x) for x in sorted(idx.elements)), idx.n)
    if isinstance(idx, Composition):
        return "%s[%s]" % (basis, ",".join(str(p) for p in idx.parts))
    return "%s[%s]" % (basis, ",".join(str(p) for p in idx))


def term(algebra: str, basis: str, index, coeff=1) -> FreeElement:
    return FreeElement(algebra, basis, {index: coeff})


def unit(algebra: str, basis: str) -> FreeElement:
    kind = _INDEX_KIND[(algebra, basis)]
    if kind == "peak":
        return term(algebra, basis, PeakSet(0, frozenset()))
    return term(algebra, basis, ())


class TensorElement:
    """An element of the tensor square, stored as a map over index pairs."""

    __slots__ = ("algebra", "basis", "coeffs")

    def __init__(self, algebra: str, basis: str, coeffs=None):
        self.algebra = algebra
        self.basis = basis
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            vec_add_term(out, k, v)
        return TensorElement(self.algebra, self.basis, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = _rational(c)
        return TensorElement(
            self.algebra, self.basis, {k: v * c for k, v in self.coeffs.items() if v * c}
        )

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.basis == other.basis
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        raise TypeError("TensorElement is not hashable")

    def __bool__(self):
        return bool(self.coeffs)

    def product(self, other: "TensorElement") -> "TensorElement":
        """Componentwise product (a ox b)(c ox d) = ac ox bd, no signs."""
        out = {}
        for (a1, a2), ca in self.coeffs.items():
            for (b1, b2), cb in other.coeffs.items():
                left = product(
                    FreeElement(self.algebra, self.basis, {a1: ca}),
                    FreeElement(other.algebra, other.basis, {b1: cb}),
                )
                right = product(
                    FreeElement(self.algebra, self.basis, {a2: 1}),
                    FreeElement(other.algebra, other.basis, {b2: 1}),
                )
                for k1, c1 in left.coeffs.items():
                    vec_iadd_scaled(out, (((k1, k2), c2) for k2, c2 in right.coeffs.items()), c1)
        basis = left.basis if self.coeffs and other.coeffs else self.basis
        return TensorElement(self.algebra, basis, out)

    def terms(self):
        return sorted(
            self.coeffs.items(),
            key=lambda kv: (index_sort_key(kv[0][0]), index_sort_key(kv[0][1])),
        )

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(
            "%s*%s(x)%s" % (c, _index_str(self.basis, a), _index_str(self.basis, b))
            for (a, b), c in self.terms()
        )

    __repr__ = __str__


# ---------------------------------------------------------------------------
# expansion tables (cached per index / degree)
# ---------------------------------------------------------------------------


def _concat_product(a: dict, b: dict) -> dict:
    out = {}
    for ka, ca in a.items():
        vec_iadd_scaled(out, ((Composition(ka.parts + kb.parts), cb) for kb, cb in b.items()), ca)
    return out


def _sign(k: int) -> int:
    """(-1)^k as an int, also for negative k."""
    return -1 if k % 2 else 1


@lru_cache(maxsize=None)
def _coarsenings(alpha: Composition) -> tuple:
    """Compositions beta with D(beta) a subset of D(alpha) (beta >= alpha)."""
    d = sorted(alpha.descent_set().elements)
    out = []
    for r in range(len(d) + 1):
        for keep in itertools.combinations(d, r):
            out.append(
                composition_from_descents(DescentSet(alpha.n, frozenset(keep)))
            )
    return tuple(out)


@lru_cache(maxsize=None)
def _refinements(alpha: Composition) -> tuple:
    """Compositions beta with D(alpha) a subset of D(beta) (beta <= alpha)."""
    pieces = [compositions_of(p) for p in alpha.parts]
    out = []
    for combo in itertools.product(*pieces):
        parts = tuple(p for c in combo for p in c.parts)
        out.append(Composition(parts))
    if not alpha.parts:
        out = [Composition(())]
    return tuple(out)


@lru_cache(maxsize=None)
def _e_in_h(k: int) -> tuple:
    """E_k = sum over compositions beta of k of (-1)^(k - l(beta)) H_beta."""
    if k == 0:
        return ((Composition(()), 1),)
    return tuple(
        (b, _sign(k - b.length)) for b in compositions_of(k)
    )


@lru_cache(maxsize=None)
def _q_in_h(m: int) -> tuple:
    """Q_m = sum_{k=0..m} E_k H_{m-k}, expanded in the H basis."""
    if m == 0:
        return ((Composition(()), 1),)
    out = {}
    for k in range(m + 1):
        tail = () if m == k else (m - k,)
        for b, c in _e_in_h(k):
            vec_add_term(out, Composition(b.parts + tail), c)
    return tuple(sorted(out.items(), key=lambda kv: index_sort_key(kv[0])))


@lru_cache(maxsize=None)
def _h_expansion(basis: str, alpha: Composition) -> tuple:
    """Expansion of a single NSym basis element in the H basis."""
    if basis == "H":
        return ((alpha, 1),)
    if basis == "R":
        return tuple(
            (b, _sign(b.length - alpha.length)) for b in _coarsenings(alpha)
        )
    if basis == "E":
        acc = {Composition(()): 1}
        for p in alpha.parts:
            acc = _concat_product(acc, dict(_e_in_h(p)))
        return tuple(sorted(acc.items(), key=lambda kv: index_sort_key(kv[0])))
    if basis == "Q":
        acc = {Composition(()): 1}
        for p in alpha.parts:
            acc = _concat_product(acc, dict(_q_in_h(p)))
        return tuple(sorted(acc.items(), key=lambda kv: index_sort_key(kv[0])))
    raise ConversionError("no H-expansion for NSym basis %s" % basis)


@lru_cache(maxsize=None)
def _h_to_r(alpha: Composition) -> tuple:
    return tuple((b, 1) for b in _coarsenings(alpha))


def _h_to_e(alpha: Composition) -> tuple:
    """H_alpha in the E basis: the involution swapping E and H turns the
    E-to-H expansion into this one, coefficient for coefficient."""
    return _h_expansion("E", alpha)


@lru_cache(maxsize=None)
def _f_to_m(alpha: Composition) -> tuple:
    return tuple((b, 1) for b in _refinements(alpha))


@lru_cache(maxsize=None)
def _m_to_f(alpha: Composition) -> tuple:
    return tuple((b, _sign(b.length - alpha.length)) for b in _refinements(alpha))


@lru_cache(maxsize=None)
def _xi_in_r(P: PeakSet) -> tuple:
    return tuple((a, 1) for a in _classes(P.n, "peak")[0][P])


@lru_cache(maxsize=None)
def _k_in_f(P: PeakSet) -> tuple:
    """K_P = 2^(|P|+1) * sum of F_alpha over alpha with P inside D .. (D+1)."""
    if P.n == 0:
        return ((Composition(()), 1),)
    c = 2 ** (len(P.elements) + 1)
    out = []
    for a in compositions_of(P.n):
        if P.elements <= symmetric_difference_shift(a.descent_set()):
            out.append((a, c))
    return tuple(out)


@lru_cache(maxsize=None)
def _k_in_m(P: PeakSet) -> tuple:
    """K_P = sum over alpha with P inside D(alpha) union (D(alpha)+1) of 2^l(alpha) M_alpha."""
    if P.n == 0:
        return ((Composition(()), 1),)
    out = []
    for a in compositions_of(P.n):
        d = a.descent_set().elements
        window = d | {x + 1 for x in d}
        if P.elements <= window:
            out.append((a, 2 ** a.length))
    return tuple(out)


@lru_cache(maxsize=None)
def _n_in_k(alpha: Composition) -> tuple:
    """N_alpha = vartheta(M_alpha): expand M in F, then F_beta -> K_{P(beta)}."""
    out = {}
    for b, c in _m_to_f(alpha):
        vec_add_term(out, b.peak_set(), c)
    return tuple(out.items())


# quasi-shuffle on monomial keys


@lru_cache(maxsize=None)
def _quasi_shuffle(a: tuple, b: tuple) -> tuple:
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    out = {}
    for head, a1, b1 in ((a[0], a[1:], b), (b[0], a, b[1:]), (a[0] + b[0], a[1:], b[1:])):
        for rest, m in _quasi_shuffle(a1, b1):
            vec_add_term(out, (head,) + rest, m)
    return tuple(out.items())


# symmetric-function tables


def _merge_parts(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b, reverse=True))


def _part_product(x: dict, y: dict) -> dict:
    out = {}
    for ka, ca in x.items():
        vec_iadd_scaled(out, ((_merge_parts(ka, kb), cb) for kb, cb in y.items()), ca)
    return out


@lru_cache(maxsize=None)
def _p_in_h(n: int) -> tuple:
    """Newton: p_n = n h_n - sum_{k=1}^{n-1} h_k p_{n-k}."""
    out = {(n,): n}
    for k in range(1, n):
        vec_iadd_scaled(out, ((_merge_parts((k,), lam), c) for lam, c in _p_in_h(n - k)), -1)
    return tuple(out.items())


@lru_cache(maxsize=None)
def _h_in_p(n: int) -> tuple:
    """Newton: h_n = (1/n) sum_{k=1}^{n} p_k h_{n-k}."""
    if n == 0:
        return (((), 1),)
    out = {}
    inv_n = Fraction(1, n)
    for k in range(1, n + 1):
        vec_iadd_scaled(out, ((_merge_parts((k,), lam), c) for lam, c in _h_in_p(n - k)), inv_n)
    return tuple(out.items())


def _expand_monomials(coeffs: dict, factor, mul, one) -> dict:
    """sum over lam of coeffs[lam] * prod_{part in lam} factor(part), the
    product taken with ``mul`` from ``{one: 1}``."""
    out = {}
    for lam, c in coeffs.items():
        acc = {one: 1}
        for part in lam:
            acc = mul(acc, factor(part))
        vec_iadd_scaled(out, acc, c)
    return out


def _sym_to_p(coeffs: dict, basis: str) -> dict:
    """Expand a Sym element (h/m/p/r basis) in the p basis."""
    if basis == "p":
        return dict(coeffs)
    if basis == "h":
        return _expand_monomials(coeffs, lambda part: dict(_h_in_p(part)), _part_product, ())
    if basis == "r":
        return _sym_to_p(_r_to_h(coeffs), "h")
    if basis == "m":
        return _sym_to_p(_m_to_h(coeffs), "h")
    raise ConversionError("no p-expansion from Sym basis %s" % basis)


def _p_to_h_dict(coeffs: dict) -> dict:
    return _expand_monomials(coeffs, lambda part: dict(_p_in_h(part)), _part_product, ())


def _r_to_h(coeffs: dict) -> dict:
    """Ribbon Schur r_alpha (composition-indexed) into h (partition-indexed)."""
    return _expand_linear(
        coeffs, lambda alpha: ((b.to_partition(), s) for b, s in _h_expansion("R", alpha))
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
    for d in sorted({index_degree(k) for k in coeffs}):
        part = {k: v for k, v in coeffs.items() if index_degree(k) == d}
        if d == 0:
            (out[unit],) = part.values()
            continue
        rep = solver(d).express(coords(part, d))
        if rep is None:
            raise MembershipError(message % d)
        out.update(rep)
    return out


def _m_to_h(coeffs: dict) -> dict:
    """Monomial to complete basis, degreewise via exact QSym coordinates."""

    def coords(part, d):
        members = _classes(d, "part")[0]
        return {a.descent_set().bitmask(): c for lam, c in part.items() for a in members[lam]}

    return _solve_degreewise(
        coeffs, _sym_h_solver, coords, (),
        "monomial element of degree %d is not symmetric-consistent",
    )


def _h_to_m(coeffs: dict) -> dict:
    """Complete to monomial: h_lambda in QSym is symmetric, so its M
    coefficients are constant on the classes of sorted parts."""
    return _read_classes(
        _expand_linear(coeffs, _sym_h_qsym), "part",
        "internal: h image of degree %d is not symmetric",
    )


@lru_cache(maxsize=None)
def _sym_h_solver(n: int) -> SpanSolver:
    """Span of the images of h_lambda inside QSym_n, tagged by partitions."""
    solver = SpanSolver()
    for lam in partitions_of(n):
        solver.add(lam, {a.descent_set().bitmask(): v for a, v in _sym_h_qsym(lam).items()})
    return solver


@lru_cache(maxsize=None)
def _sym_h_qsym(lam: tuple) -> dict:
    """Image of h_lambda in QSym: product of the full monomial sums per part."""
    acc = {Composition(()): 1}
    for part in lam:
        factor = {a: 1 for a in compositions_of(part)}
        acc = _qsym_m_product(acc, factor)
    return acc


def _qsym_m_product(x: dict, y: dict) -> dict:
    out = {}
    for ka, ca in x.items():
        for kb, cb in y.items():
            shuffles = _quasi_shuffle(ka.parts, kb.parts)
            vec_iadd_scaled(out, ((Composition(p), m) for p, m in shuffles), ca * cb)
    return out


@lru_cache(maxsize=None)
def _q_gen_podd(n: int) -> tuple:
    """q_n = theta(h_n) in the odd power-sum basis."""
    out = {}
    for lam, c in _h_in_p(n):
        if all(part % 2 == 1 for part in lam):
            out[lam] = c * (2 ** len(lam))
    return tuple(out.items())


def _omega_to_podd(coeffs: dict, basis: str) -> dict:
    if basis == "podd":
        return dict(coeffs)
    # q-monomial tag
    return _expand_monomials(coeffs, lambda part: dict(_q_gen_podd(part)), _part_product, ())


# peak-dual coordinates: express a QSym element in the K basis (degreewise)


@lru_cache(maxsize=None)
def _peakdual_solver(n: int) -> SpanSolver:
    solver = SpanSolver()
    for P in peak_sets_in(n) if n else [PeakSet(0, frozenset())]:
        vec = {}
        for a, c in _k_in_f(P):
            vec[a.descent_set().bitmask() if n else 0] = c
        solver.add(P, vec)
    return solver


def _qsym_to_k(coeffs_f: dict) -> dict:
    """F-coordinate dict -> K-coordinate dict; MembershipError if outside."""
    return _solve_degreewise(
        coeffs_f,
        _peakdual_solver,
        lambda part, d: {a.descent_set().bitmask(): v for a, v in part.items()},
        PeakSet(0, frozenset()),
        "element of degree %d lies outside the peak quasisymmetric span",
    )


# class tables: the compositions of n grouped by peak set or by sorted parts


@lru_cache(maxsize=None)
def _classes(n: int, kind: str) -> tuple:
    """(members, class_of) for the compositions of n grouped by peak set
    (kind "peak") or by sorted parts (kind "part").

    ``members`` maps each class key (a PeakSet or a partition) to its
    compositions in canonical order, and ``class_of`` maps each composition
    to its key.  Both are read-only.  Degree 0 is the single class of the
    empty composition.
    """
    key = Composition.peak_set if kind == "peak" else Composition.to_partition
    members, class_of = {}, {}
    for a in compositions_of(n) if n else (Composition(()),):
        k = class_of[a] = key(a)
        members.setdefault(k, []).append(a)
    return {k: tuple(v) for k, v in members.items()}, class_of


def _read_classes(coeffs: dict, kind: str, message: str) -> dict:
    """One coefficient per class (see ``_classes``) of a composition-indexed
    dict; raises MembershipError(message % degree) unless the dict is
    constant on every class it touches (absent compositions count as 0)."""
    out = {}
    for a, c in coeffs.items():
        members, class_of = _classes(a.n, kind)
        k = class_of[a]
        if k not in out:
            if any(coeffs.get(b, 0) != c for b in members[k]):
                raise MembershipError(message % a.n)
            out[k] = c
    return {k: c for k, c in out.items() if c}


def _nsym_to_xi(coeffs_r: dict) -> dict:
    """R-coordinate dict -> Xi coordinates: Xi_P is the sum of its class."""
    return _read_classes(
        coeffs_r, "peak", "element of degree %d lies outside the peak subalgebra"
    )


# ---------------------------------------------------------------------------
# public conversions
# ---------------------------------------------------------------------------


def _expand_linear(coeffs: dict, table) -> dict:
    """sum over idx of coeffs[idx] * table(idx); a table entry is a dict or
    (key, value) pairs."""
    out = {}
    for idx, c in coeffs.items():
        vec_iadd_scaled(out, table(idx), c)
    return out


def _nsym_to_basis(coeffs_h: dict, basis: str) -> dict:
    if basis == "H":
        return dict(coeffs_h)
    if basis == "R":
        return _expand_linear(coeffs_h, _h_to_r)
    if basis == "E":
        return _expand_linear(coeffs_h, _h_to_e)
    raise ConversionError("cannot convert into the dependent tag %s" % basis)


def convert(x: FreeElement, basis: str, algebra: str | None = None) -> FreeElement:
    """Exact change of basis, within an algebra or along the embeddings.

    Supported cross-algebra paths: Peak <-> NSym, PeakDual <-> QSym,
    Omega <-> Sym, Sym <-> QSym (membership in the reverse direction raises
    MembershipError when the element is outside the subalgebra).
    """
    algebra = algebra or x.algebra
    if basis not in BASES.get(algebra, ()):
        raise ConversionError("unknown basis %s of %s" % (basis, algebra))
    if (x.algebra, x.basis) == (algebra, basis):
        return x

    if x.algebra == algebra:
        return _convert_within(x, basis)

    # embeddings and memberships
    if (x.algebra, algebra) == ("Peak", "NSym"):
        r = _expand_linear(x.coeffs, _xi_in_r)
        return convert(FreeElement("NSym", "R", r), basis)
    if (x.algebra, algebra) == ("NSym", "Peak"):
        r = _nsym_to_basis(_expand_linear(x.coeffs, lambda a: _h_expansion(x.basis, a)), "R")
        return FreeElement("Peak", "Xi", _nsym_to_xi(r))
    if (x.algebra, algebra) == ("PeakDual", "QSym"):
        if x.basis == "N":
            x = _convert_within(x, "K")
        f = _expand_linear(x.coeffs, _k_in_f)
        return convert(FreeElement("QSym", "F", f), basis)
    if (x.algebra, algebra) == ("QSym", "PeakDual"):
        f = _qsym_as_f(x)
        return _convert_within(
            FreeElement("PeakDual", "K", _qsym_to_k(f)), basis
        )
    if (x.algebra, algebra) == ("Omega", "Sym"):
        p = _omega_to_podd(x.coeffs, x.basis)
        return _convert_within(FreeElement("Sym", "p", p), basis)
    if (x.algebra, algebra) == ("Sym", "Omega"):
        p = _sym_to_p(x.coeffs, x.basis)
        if any(part % 2 == 0 for lam in p for part in lam):
            raise MembershipError("p-expansion has even parts; not in the q-generated ring")
        return _convert_within(FreeElement("Omega", "podd", p), basis)
    if (x.algebra, algebra) == ("Sym", "QSym"):
        return convert(sym_into_qsym(x), basis)
    if (x.algebra, algebra) == ("QSym", "Sym"):
        bym = _read_classes(_qsym_as_m(x), "part", "element of degree %d is not symmetric")
        return _convert_within(FreeElement("Sym", "m", bym), basis)
    if (x.algebra, algebra) == ("Omega", "PeakDual"):
        return convert(omega_into_peakdual(x), basis)
    if (x.algebra, algebra) == ("Omega", "QSym"):
        return convert(convert(x, "p", "Sym"), basis, "QSym")
    if (x.algebra, algebra) == ("Peak", "Sym"):
        return convert(forgetful_pi(convert(x, "H", "NSym")), basis, "Sym")
    raise ConversionError(
        "no conversion path from %s/%s to %s/%s" % (x.algebra, x.basis, algebra, basis)
    )


def _convert_within(x: FreeElement, basis: str) -> FreeElement:
    if x.basis == basis:
        return x
    alg = x.algebra
    if alg == "NSym":
        h = _expand_linear(x.coeffs, lambda a: _h_expansion(x.basis, a))
        return FreeElement("NSym", basis, _nsym_to_basis(h, basis))
    if alg == "QSym":
        if (x.basis, basis) == ("F", "M"):
            return FreeElement("QSym", "M", _expand_linear(x.coeffs, _f_to_m))
        if (x.basis, basis) == ("M", "F"):
            return FreeElement("QSym", "F", _expand_linear(x.coeffs, _m_to_f))
    if alg == "PeakDual":
        if (x.basis, basis) == ("N", "K"):
            return FreeElement("PeakDual", "K", _expand_linear(x.coeffs, _n_in_k))
        raise ConversionError("cannot convert into the dependent tag N")
    if alg == "Sym":
        if basis == "p":
            return FreeElement("Sym", "p", _sym_to_p(x.coeffs, x.basis))
        if basis == "h":
            if x.basis == "p":
                return FreeElement("Sym", "h", _p_to_h_dict(x.coeffs))
            if x.basis == "r":
                return FreeElement("Sym", "h", _r_to_h(x.coeffs))
            if x.basis == "m":
                return FreeElement("Sym", "h", _m_to_h(x.coeffs))
        if basis == "m":
            h = _convert_within(x, "h")
            return FreeElement("Sym", "m", _h_to_m(h.coeffs))
        raise ConversionError("cannot convert into the dependent tag %s" % basis)
    if alg == "Omega":
        if basis == "podd":
            return FreeElement("Omega", "podd", _omega_to_podd(x.coeffs, x.basis))
        raise ConversionError("cannot convert into the q tag")
    if alg == "Peak":
        raise ConversionError("Peak has the single basis Xi")
    raise ConversionError(
        "no conversion from %s/%s to basis %s" % (x.algebra, x.basis, basis)
    )


def _qsym_as_m(x: FreeElement) -> dict:
    if x.basis == "M":
        return dict(x.coeffs)
    return _expand_linear(x.coeffs, _f_to_m)


def _qsym_as_f(x: FreeElement) -> dict:
    if x.basis == "F":
        return dict(x.coeffs)
    return _expand_linear(x.coeffs, _m_to_f)


# ---------------------------------------------------------------------------
# products, coproducts, counit
# ---------------------------------------------------------------------------

_PRODUCT_RESULT_BASIS = {
    ("NSym", "Q"): "H",
    ("PeakDual", "N"): "K",
    ("Sym", "r"): "h",
    ("Sym", "m"): "m",
    ("Omega", "q"): "podd",
}


def product(x: FreeElement, y: FreeElement) -> FreeElement:
    """Graded product; the two factors must live in the same algebra."""
    if x.algebra != y.algebra:
        raise ConversionError(
            "cannot multiply %s element by %s element" % (x.algebra, y.algebra)
        )
    alg = x.algebra
    out_basis = _PRODUCT_RESULT_BASIS.get((alg, x.basis), x.basis)
    if alg == "NSym":
        a = _expand_linear(x.coeffs, lambda t: _h_expansion(x.basis, t))
        b = _expand_linear(y.coeffs, lambda t: _h_expansion(y.basis, t))
        prod = _concat_product(a, b)
        return FreeElement("NSym", out_basis, _nsym_to_basis(prod, out_basis))
    if alg == "QSym":
        prod = _qsym_m_product(_qsym_as_m(x), _qsym_as_m(y))
        res = FreeElement("QSym", "M", prod)
        return _convert_within(res, out_basis)
    if alg == "Peak":
        a = convert(x, "H", "NSym")
        b = convert(y, "H", "NSym")
        return convert(product(a, b), "Xi", "Peak")
    if alg == "PeakDual":
        a = convert(x, "M", "QSym")
        b = convert(y, "M", "QSym")
        return convert(product(a, b), "K", "PeakDual")
    if alg == "Sym":
        if x.basis == y.basis and x.basis in ("h", "p"):
            return FreeElement("Sym", x.basis, _part_product(x.coeffs, y.coeffs))
        a = _convert_within(x, "h")
        b = _convert_within(y, "h")
        res = FreeElement("Sym", "h", _part_product(a.coeffs, b.coeffs))
        return _convert_within(res, out_basis if out_basis != "r" else "h")
    if alg == "Omega":
        a = _convert_within(x, "podd")
        b = _convert_within(y, "podd")
        return FreeElement("Omega", "podd", _part_product(a.coeffs, b.coeffs))
    raise ConversionError("no product on %s" % alg)


@lru_cache(maxsize=None)
def _coprod_h_single(alpha: Composition) -> tuple:
    acc = {(Composition(()), Composition(())): 1}
    for part in alpha.parts:
        nxt = {}
        for (b, g), c in acc.items():
            for k in range(part + 1):
                left = b if k == 0 else Composition(b.parts + (k,))
                right = g if k == part else Composition(g.parts + (part - k,))
                vec_add_term(nxt, (left, right), c)
        acc = nxt
    return tuple(acc.items())


@lru_cache(maxsize=None)
def _coprod_m_single(alpha: Composition) -> tuple:
    out = []
    parts = alpha.parts
    for i in range(len(parts) + 1):
        out.append(((Composition(parts[:i]), Composition(parts[i:])), 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _coprod_part_h(lam: tuple) -> tuple:
    """Delta h_lam: the image of Delta H_lam under the forgetful map, a Hopf
    morphism."""
    out = {}
    for (b, g), c in _coprod_h_single(Composition(lam)):
        vec_add_term(out, (b.to_partition(), g.to_partition()), c)
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


def _tensor_convert(t: TensorElement, conv) -> dict:
    """Apply a linear map (dict index -> dict index') to both tensor slots."""
    out = {}
    for (k1, k2), c in t.coeffs.items():
        img2 = conv(k2)
        for a, ca in conv(k1).items():
            vec_iadd_scaled(out, (((a, b), cb) for b, cb in img2.items()), c * ca)
    return out


def _tensor_slotwise_solve(t: TensorElement, slot_solve) -> dict:
    """Convert tensor slots through an exact coordinate solve, slot by slot.

    ``slot_solve`` maps a dict {index: coeff} (one graded slot fiber) to a
    dict in the new index; fibers of a tensor against a basis of one slot
    stay inside the relevant subspace, so the solve is always consistent.
    Each fiber is solved once and fibers have disjoint keys, so nothing is
    summed.
    """
    fibers = {}
    for (k1, k2), c in t.coeffs.items():
        fibers.setdefault(k2, {})[k1] = c
    half = {}
    for k2, fib in fibers.items():
        for a, ca in slot_solve(fib).items():
            half.setdefault(a, {})[k2] = ca
    return {(a, b): cb for a, fib in half.items() for b, cb in slot_solve(fib).items()}


def coproduct(x: FreeElement) -> TensorElement:
    """Graded coproduct; returns a tensor-square element.

    Slots come back in the basis of the input for H/E/R/M/F/Xi/K/N/h/p/podd;
    the dependent input tags Q, r, m, q are first normalized (to H, h, m, p).
    """
    alg, basis = x.algebra, x.basis
    if alg == "NSym":
        h = _expand_linear(x.coeffs, lambda a: _h_expansion(basis, a))
        t = TensorElement("NSym", "H", _expand_linear(h, _coprod_h_single))
        if basis in ("H", "Q"):
            return t
        conv = (lambda k: dict(_h_to_r(k))) if basis == "R" else (lambda k: dict(_h_to_e(k)))
        return TensorElement("NSym", basis, _tensor_convert(t, conv))
    if alg == "QSym":
        t = TensorElement("QSym", "M", _expand_linear(_qsym_as_m(x), _coprod_m_single))
        if basis == "M":
            return t
        return TensorElement("QSym", "F", _tensor_convert(t, lambda k: dict(_m_to_f(k))))
    if alg == "Peak":
        h = convert(x, "H", "NSym")
        t = coproduct(h)
        return TensorElement("Peak", "Xi", _tensor_slotwise_solve(t, _peak_slot_solve))
    if alg == "PeakDual":
        if basis == "N":
            return TensorElement("PeakDual", "N", _expand_linear(x.coeffs, _coprod_m_single))
        q = convert(x, "M", "QSym")
        t = coproduct(q)
        return TensorElement(
            "PeakDual", "K", _tensor_slotwise_solve(t, _peakdual_slot_solve)
        )
    if alg == "Sym":
        if basis in ("r", "m"):
            x = _convert_within(x, "h")
            basis = "h"
        table = _coprod_part_h if basis == "h" else _coprod_part_primitive
        src = x.coeffs if basis in ("h", "p") else _sym_to_p(x.coeffs, basis)
        return TensorElement(
            "Sym", basis if basis in ("h", "p") else "p", _expand_linear(src, table)
        )
    if alg == "Omega":
        p = _convert_within(x, "podd")
        return TensorElement("Omega", "podd", _expand_linear(p.coeffs, _coprod_part_primitive))
    raise ConversionError("no coproduct on %s" % alg)


def _peak_slot_solve(fib: dict) -> dict:
    r = _expand_linear(fib, _h_to_r)
    return _nsym_to_xi(r)


def _peakdual_slot_solve(fib: dict) -> dict:
    f = _expand_linear(fib, _m_to_f)
    return _qsym_to_k(f)


def counit(x: FreeElement) -> int | Fraction:
    """The degree-0 coefficient, an exact rational (int or Fraction)."""
    tot = 0
    for k, c in x.coeffs.items():
        if index_degree(k) == 0:
            tot += c
    return tot


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------


def pairing(F: FreeElement, f: FreeElement) -> int | Fraction:
    """Canonical duality <H_a, M_b> = <R_a, F_b> = delta, extended bilinearly;
    an exact rational (int or Fraction).

    Accepts Peak elements on the left (through the inclusion into NSym) and
    PeakDual or Sym elements on the right (through their inclusions in QSym).
    """
    if F.algebra == "Peak":
        F = convert(F, "H", "NSym")
    if f.algebra in ("PeakDual", "Sym", "Omega"):
        f = convert(f, "M", "QSym")
    if F.algebra != "NSym" or f.algebra != "QSym":
        raise ConversionError("pairing wants (NSym, QSym)-sided arguments")
    a = _expand_linear(F.coeffs, lambda t: _h_expansion(F.basis, t))
    b = _qsym_as_m(f)
    tot = 0
    for k, c in a.items():
        other = b.get(k)
        if other is not None:
            tot += c * other
    return tot


def peak_pairing(x: FreeElement, y: FreeElement) -> int | Fraction:
    """[Xi_P, K_Q] = delta_{P,Q}; arguments may be given inside NSym / QSym.
    The value is an exact rational (int or Fraction)."""
    if x.algebra != "Peak":
        x = convert(x, "Xi", "Peak")
    if y.algebra != "PeakDual":
        y = convert(y, "K", "PeakDual")
    elif y.basis != "K":
        y = _convert_within(y, "K")
    tot = 0
    for P, c in x.coeffs.items():
        other = y.coeffs.get(P)
        if other is not None:
            tot += c * other
    return tot


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
    for lam, c in u.coeffs.items():
        other = v.coeffs.get(lam)
        if other is not None:
            tot += c * other * Fraction(_z_lambda(lam), 2 ** len(lam))
    return tot


# ---------------------------------------------------------------------------
# the four structural morphisms
# ---------------------------------------------------------------------------


def theta_transform(x: FreeElement) -> FreeElement:
    """Descent-to-peak transform on NSym: the algebra map H_n -> Q_n."""
    if x.algebra == "Peak":
        x = convert(x, "H", "NSym")
    h = _expand_linear(x.coeffs, lambda a: _h_expansion(x.basis, a))
    out = _expand_linear(h, lambda a: _h_expansion("Q", a))
    return convert(FreeElement("NSym", "H", out), "Xi", "Peak")


def vartheta_map(x: FreeElement) -> FreeElement:
    """Descent-to-peak map on QSym: F_alpha -> K_{P(alpha)}."""
    f = _qsym_as_f(x) if x.algebra == "QSym" else _qsym_as_f(convert(x, "F", "QSym"))
    return FreeElement("PeakDual", "K", _expand_linear(f, lambda a: ((a.peak_set(), 1),)))


def forgetful_pi(x: FreeElement) -> FreeElement:
    """Forgetful map NSym -> Sym, H_alpha -> h_(sorted alpha)."""
    if x.algebra == "Peak":
        x = convert(x, "H", "NSym")
    h = _expand_linear(x.coeffs, lambda a: _h_expansion(x.basis, a))
    return FreeElement("Sym", "h", _expand_linear(h, lambda a: ((a.to_partition(), 1),)))


def theta_sym(x: FreeElement) -> FreeElement:
    """The epimorphism Sym -> Omega, h_n -> q_n; kills even power sums."""
    p = _sym_to_p(x.coeffs, x.basis) if x.algebra == "Sym" else _omega_to_podd(
        x.coeffs, x.basis
    )
    out = {lam: c * 2 ** len(lam) for lam, c in p.items() if all(part % 2 == 1 for part in lam)}
    return FreeElement("Omega", "podd", out)


def sym_into_qsym(x: FreeElement) -> FreeElement:
    """The inclusion of symmetric functions into QSym (M basis)."""
    p = _sym_to_p(x.coeffs, x.basis)
    out = _expand_monomials(
        p, lambda part: {Composition((part,)): 1}, _qsym_m_product, Composition(())
    )
    return FreeElement("QSym", "M", out)


def omega_into_peakdual(x: FreeElement) -> FreeElement:
    """The inclusion of the q-generated ring into the peak quasisymmetric ring."""
    sym = convert(x, "p", "Sym")
    return convert(sym_into_qsym(sym), "K", "PeakDual")


def k_expansions(P: PeakSet) -> tuple:
    """Both expansions of K_P: (fundamental, monomial); they agree under M->F."""
    f = FreeElement("QSym", "F", dict(_k_in_f(P)))
    m = FreeElement("QSym", "M", dict(_k_in_m(P)))
    return f, m


_PIVOT_BASIS = {"NSym": "H", "QSym": "M", "Peak": "Xi", "PeakDual": "K", "Sym": "p", "Omega": "podd"}


def graded_rank(elements, degree: int) -> int:
    """Exact rank of the degree components in a fixed canonical basis."""
    solver = SpanSolver()
    algebra = None
    for count, x in enumerate(elements):
        if algebra is None:
            algebra = x.algebra
        elif x.algebra != algebra:
            raise ConversionError("graded_rank wants elements of a single algebra")
        comp = convert(x, _PIVOT_BASIS[algebra]).component(degree)
        vec = {index_sort_key(k): v for k, v in comp.coeffs.items()}
        if vec:
            solver.add(count, vec)
    return solver.rank
