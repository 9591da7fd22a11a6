"""The Fock action of the peak algebra on its dual, and the freeness
certificate of the peak quasisymmetric functions over the q-generated ring.

The action of a peak element a on a peak quasisymmetric x is
(id (x) [a, -]) applied to the coproduct of x: pair the right tensor slot
against a, keep the left slot.  This realizes the lowering operators of the
smash-product double on the characteristic images.  It is computed in QSym:
x is lifted along the Hopf morphism vartheta to M coordinates
(N_alpha = vartheta(M_alpha), K_P = vartheta(F_P)), each M word is
deconcatenated, alpha = beta . gamma, and the cut contributes
[a, N_gamma] N_beta, so that

    a . N_alpha  =  sum over alpha = beta . gamma of [a, N_gamma] N_beta.

The scalar [a, N_gamma] is the K expansion of N_gamma read against the Xi
coefficients of a, formed once per distinct gamma; the left side is summed
on N words and converted to K once.  No tensor of the peak dual is built.
For a = Q_m this is the closed rule of ``fock_action_on_word``, which pairs
through NSym/QSym instead, and the suite checks one against the other.

Freeness is certified degree by degree: a greedy basis extension produces
generators g_i such that the products {g_i * q_lambda} over strict
partitions lambda are independent and span each graded piece; the counts
then satisfy the Fibonacci/strict-partition Hilbert identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .combinat import (
    Composition,
    ResourceLimitError,
    as_composition,
    compositions_of,
    peak_sets_in,
    strict_partitions_of,
)
from .hopf import (
    FreeElement,
    _coprod_m_single,
    _element,
    _expand_linear,
    _lift,
    _n_in_k,
    convert,
    omega_into_peakdual,
    pairing,
    product,
    term,
    unit,
)
from .linalg import Echelon, SpanSolver, vec_add_term

__all__ = [
    "fock_action",
    "fock_action_on_word",
    "filtration_component",
    "in_filtration",
    "free_basis_over_omega",
    "guard_freeness_degree",
    "MAX_FREENESS_DEGREE",
]

# the freeness certificate enumerates every degree up to this bound
MAX_FREENESS_DEGREE = 10


def fock_action(a: FreeElement, x: FreeElement) -> FreeElement:
    """Lowering action of the peak algebra on the peak dual, in K.

    ``x`` (K or N) is lifted to M coordinates and each word alpha, of
    coefficient c, is deconcatenated; the cut alpha = beta . gamma adds
    c [a, N_gamma] to N_beta.  Since [Xi_P, K_Q] is 1 at P = Q and 0
    otherwise, the scalar [a, N_gamma] = sum over Q of (N_gamma in K)_Q
    (a in Xi)_Q; it is formed once per distinct gamma, and the N side is
    converted to K once.  ``a`` may be inhomogeneous: [a, N_gamma] only
    reads the piece of a in the degree of gamma.
    """
    if a.algebra != "Peak":
        a = convert(a, "Xi", "Peak")
    if x.algebra != "PeakDual":
        x = convert(x, "K", "PeakDual")
    xi, scalars, out = a._coeffs, {}, {}
    for alpha, c in _lift(x.basis, x._coeffs).items():
        for (beta, gamma), _one in _coprod_m_single(alpha):
            val = scalars.get(gamma)
            if val is None:
                val = scalars[gamma] = sum(cq * xi.get(q, 0) for q, cq in _n_in_k(gamma))
            if val:
                vec_add_term(out, beta, c * val)
    return _element("PeakDual", "K", _expand_linear(out, _n_in_k))


def fock_action_on_word(m: int, alpha) -> FreeElement:
    """Q_m acting on N_alpha through the deconcatenation rule (closed form).

    At most one cut alpha = beta . gamma has |gamma| = m, and it gives
    <Q_m, M_gamma> N_beta, since [Q_m, N_gamma] = [Theta(H_m), vartheta(M_gamma)]
    = <Q_m, M_gamma>; with no such cut the result is 0.  Returns the result as
    a K-basis element of the peak dual.
    """
    parts = as_composition(alpha).parts
    cut, tail = len(parts), 0
    while tail < m and cut:
        cut -= 1
        tail += parts[cut]
    if tail != m:
        return FreeElement.zero("PeakDual", "K")
    val = pairing(term("NSym", "Q", (m,)), term("QSym", "M", parts[cut:]))
    return convert(term("PeakDual", "N", parts[:cut], val), "K")


# ---------------------------------------------------------------------------
# the filtration by length and the freeness certificate
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _omega_basis_in_k(degree: int) -> tuple:
    """q-monomials on strict partitions of the degree, as K elements."""
    out = []
    for lam in strict_partitions_of(degree):
        out.append((lam, omega_into_peakdual(term("Omega", "q", lam))))
    return tuple(out)


@lru_cache(maxsize=None)
def _length_filtration(degree: int) -> tuple:
    """The length filtration of one degree, built once: the q-multiples of
    the N words, added by increasing word length under tags (length, i).

    Returns ``(solver, kept)`` with ``kept`` the (length, K element) pairs
    that enlarged the span, in order; the piece of level l is spanned by
    the kept elements of length <= l.  Guarded like the freeness
    certificate, so this cache holds at most MAX_FREENESS_DEGREE + 1
    entries.
    """
    guard_freeness_degree(degree)
    if degree < 0:
        raise ValueError("negative degree %d" % degree)
    words = [a for d in range(1, degree + 1) for a in compositions_of(d)]
    solver, kept, count = SpanSolver(), [], 0
    for alpha in [Composition(())] + sorted(words, key=lambda a: a.length):
        nalpha = convert(term("PeakDual", "N", alpha), "K")
        for _lam, omega_elt in _omega_basis_in_k(degree - alpha.n):
            prod = product(omega_elt, nalpha)
            if prod and solver.add((alpha.length, count), prod.coeffs):
                kept.append((alpha.length, prod))
            count += 1
    return solver, tuple(kept)


def filtration_component(level: int, degree: int, max_degree: int = MAX_FREENESS_DEGREE):
    """Exact spanning data for the level-th filtration piece in one degree.

    The piece is the span of q-ring multiples of the N words of length at
    most ``level``; level 0 is the q-ring itself.  Returns (basis elements,
    rank); the basis is independent.
    """
    if degree > max_degree:
        raise ResourceLimitError("filtration guard at degree <= %d" % max_degree, "max_degree")
    basis = [x for length, x in _length_filtration(degree)[1] if length <= level]
    return basis, len(basis)


def in_filtration(x: FreeElement, level: int, degree: int) -> bool:
    """Whether the peak dual element ``x`` of the given degree lies in the
    level-th filtration piece.  The kept vectors are independent, so the
    expression of ``x`` in them is unique and its tags decide the level."""
    rep = _length_filtration(degree)[0].express(convert(x, "K", "PeakDual").coeffs)
    return rep is not None and all(length <= level for length, _i in rep)


@dataclass
class FreenessCertificate:
    generators: list  # (degree, FreeElement in K)
    per_degree: list  # dicts: degree, products, rank, dim, ok
    ok: bool

    def hilbert_identity(self) -> tuple:
        """(ok, witness) of the Hilbert identity through the certificate's
        degree: the Fibonacci peak-set counts equal the convolution of the
        q-ring dimensions with the generator counts."""
        gcount = {}
        for gdeg, _g in self.generators:
            gcount[gdeg] = gcount.get(gdeg, 0) + 1
        bad = []
        for n in range(len(self.per_degree)):
            dim = len(peak_sets_in(n)) if n else 1
            conv = 0
            for d, cnt in gcount.items():
                if d <= n:
                    conv += cnt * len(strict_partitions_of(n - d))
            if conv != dim:
                bad.append((n, conv, dim))
        witness = {"generator_degrees": sorted(gcount.items()), "mismatches": bad}
        return self.ok and not bad, witness


def guard_freeness_degree(max_degree: int) -> None:
    """Raise ``ResourceLimitError`` when ``max_degree`` passes the bound of
    the freeness certificate."""
    if max_degree > MAX_FREENESS_DEGREE:
        raise ResourceLimitError(
            "freeness certificate guarded at degree <= %d" % MAX_FREENESS_DEGREE,
            "MAX_FREENESS_DEGREE",
        )


def free_basis_over_omega(max_degree: int = 8) -> FreenessCertificate:
    """Greedy generators certifying freeness over the q-generated ring.

    Degree by degree, the q-span of the chosen generators is extended to the
    whole graded piece by adjoining K basis elements in canonical order; the
    certificate records that the products generator * q-monomial are
    independent and span (count == rank == dim) in every degree.
    """
    guard_freeness_degree(max_degree)
    generators = [(0, unit("PeakDual", "K"))]
    per_degree = []
    ok = True
    for d in range(0, max_degree + 1):
        ech = Echelon()
        count = 0
        for gdeg, g in generators:
            rest = d - gdeg
            if rest < 0:
                continue
            for _lam, omega_elt in _omega_basis_in_k(rest):
                prod = product(g, omega_elt)
                if not prod or ech.add(prod.coeffs) is None:
                    ok = False
                count += 1
        dim = len(peak_sets_in(d)) if d else 1
        if ech.rank < dim:
            for P in peak_sets_in(d):
                cand = term("PeakDual", "K", P)
                if ech.add(cand.coeffs) is not None:
                    generators.append((d, cand))
                    count += 1
        record = {
            "degree": d,
            "products": count,
            "rank": ech.rank,
            "dim": dim,
            "ok": count == ech.rank == dim,
        }
        ok = ok and record["ok"]
        per_degree.append(record)
    return FreenessCertificate(generators, per_degree, ok)
