"""Grothendieck classes and the characteristic maps.

Four towers and their class groups appear:

* the 0-Hecke tower: classes of modules land in QSym (simples S_alpha map
  to F_alpha), classes of projectives in NSym (P_alpha maps to R_alpha);
* the Hecke-Clifford tower: classes of supermodules land in the peak
  quasisymmetric functions (the induced simple maps to K over its peak set),
  classes of projective supermodules in the peak subalgebra (the induced
  projective is the image of the ribbon under the descent-to-peak
  transform).

The pairing of a projective class with a module class is dim Hom; by
Frobenius reciprocity every such dimension against an induced projective is
a 0-Hecke composition multiplicity, which ``supermodules`` computes exactly
from traces.  Class extraction solves [Theta(R_alpha), x] = dim Hom(induced
projective, M) for x in the K lattice; the coefficient matrix is the same
0/2^(|P|+1) incidence matrix as the K expansion, so the solve is exact and
the integrality of the solution is itself a checked invariant.

The checks below return facts, not reports: ``theta_ribbon_formula``,
``cartan_image`` and ``restriction_class_sides`` return the two sides that
must agree, every ``verify_*`` check returns a pair (ok, witness).  Past its
guard (``MAX_DESCENT_PAIR_N``, ``MAX_CORNER_N`` here) a check raises
``ResourceLimitError``; ``verification`` turns both into reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .combinat import (
    Composition,
    PeakSet,
    ResourceLimitError,
    as_composition,
    compositions_of,
    descent_class,
    peak_sets_within,
    strict_partitions_of,
    symmetric_difference_shift,
    word_descents,
    word_inverse,
)
from .hopf import (
    FreeElement,
    convert,
    forgetful_pi,
    graded_rank,
    pairing,
    product,
    sym_into_qsym,
    term,
    theta_transform,
    vartheta_map,
)
from .linalg import Echelon, solve_unique
from .supermodules import (
    Supermodule,
    hecke_composition_multiplicities,
    hecke_simple_hom_dims,
    induce_clifford,
    parabolic_induce,
    projective_hecke,
    restrict_corner,
    restrict_hecke,
    restriction_vectors,
    simple_hecke,
    submodule_on_vectors,
    find_isomorphism,
)

__all__ = [
    "MAX_CORNER_N",
    "MAX_DESCENT_PAIR_N",
    "ModuleClass",
    "class_of_module",
    "hecke_class_of_module",
    "cartan_image",
    "cartan_rank",
    "decompose_projective",
    "verify_restriction_to_hecke",
    "verify_corner_restriction",
    "verify_diagrams",
    "gessel_pairing",
    "verify_bialgebra_compatibility",
    "theta_ribbon_formula",
]

MAX_DESCENT_PAIR_N = 8  # one enumeration of S_n per degree: gessel_pairing, cartan_image
MAX_CORNER_N = 5  # induced projectives of verify_corner_restriction
# coverage bounds, not guards: above them only the class route runs, and the
# reports of the verification suites state them in their params
HOM_CHECK_MAX_N = 4  # Hecke Hom cross-check of verify_restriction_to_hecke
MODULE_SQUARE_MAX_N = 5  # induced simples behind the square of verify_diagrams


@dataclass
class ModuleClass:
    """A Grothendieck class carried by its characteristic-map image."""

    group: str  # "G" (Hecke modules), "K" (Hecke projectives),
    # "Gt" (Clifford modules), "Kt" (Clifford projectives)
    payload: FreeElement

    def __post_init__(self):
        lattice = {"G": ("QSym", "F"), "K": ("NSym", "R"), "Gt": ("PeakDual", "K"),
                   "Kt": ("Peak", "Xi")}
        algebra, basis = lattice[self.group]
        elt = convert(self.payload, basis, algebra)
        for coeff in elt.coeffs.values():
            if coeff.denominator != 1:
                raise ValueError(
                    "class payload is not integral in the %s lattice" % basis
                )
        self.payload = elt

    def __eq__(self, other):
        if other.__class__ is not ModuleClass:
            return NotImplemented
        return self.group == other.group and self.payload == other.payload


def hecke_class_of_module(module: Supermodule) -> ModuleClass:
    """Class of a 0-Hecke module in QSym: multiplicities against F."""
    hecke = module if module.algebra == "H" else restrict_hecke(module)
    if len(hecke.blocks) != 1:
        raise ValueError("single-block modules only")
    mults = hecke_composition_multiplicities(hecke)
    out = FreeElement.zero("QSym", "F")
    for (alpha,), m in mults.items():
        out = out + term("QSym", "F", alpha, m)
    return ModuleClass("G", out)


@lru_cache(maxsize=None)
def _theta_row(alpha: Composition) -> dict:
    """The ribbon window: [Theta(R_alpha), K_P] = 2^(|P|+1) for every peak
    set P inside D(alpha) .. (D(alpha)+1), as {P: weight} in canonical
    order; 0 for every other P.  Read-only."""
    window = symmetric_difference_shift(alpha.descent_set())
    return {P: 2 ** (len(P.elements) + 1) for P in peak_sets_within(alpha.n, window)}


def class_of_module(module: Supermodule) -> ModuleClass:
    """Class of a Hecke-Clifford supermodule in the K lattice.

    d_alpha = dim Hom(induced projective over alpha, module) is read off the
    composition multiplicities of the Hecke restriction (Frobenius
    reciprocity); then [Theta(R_alpha), x] = d_alpha is solved exactly.
    """
    if module.algebra != "HCl" or len(module.blocks) != 1:
        raise ValueError("class_of_module wants a single-block Clifford module")
    n = module.rank
    if n == 0:
        return ModuleClass(
            "Gt", term("PeakDual", "K", PeakSet(0, frozenset()), module.dim)
        )
    mults = hecke_composition_multiplicities(restrict_hecke(module))
    rows = [(_theta_row(a), mults.get((a,), 0)) for a in compositions_of(n)]
    return ModuleClass("Gt", FreeElement("PeakDual", "K", solve_unique(rows)))


# ---------------------------------------------------------------------------
# the adjoint characteristic map and the Cartan square
# ---------------------------------------------------------------------------


def cartan_image(alpha) -> tuple:
    """Image of the induced projective class under the Cartan map, two ways,
    as the pair (route (i), route (ii)) of PeakDual elements that must agree.

    Route (i): the sum of K over P(w^{-1}), w in the descent class, read off
    one row of the descent-pair table.  Route (ii): the peak image of the
    ribbon Schur function.
    """
    a = as_composition(alpha)
    if a.n > MAX_DESCENT_PAIR_N:
        raise ResourceLimitError(
            "cartan_image guarded at n <= %d" % MAX_DESCENT_PAIR_N,
            "MAX_DESCENT_PAIR_N",
        )
    filt = {}
    for B, count in _descent_pair_counts(a.n)[a.descent_set()].items():
        P = PeakSet(a.n, frozenset(i for i in B if i > 1 and i - 1 not in B))
        filt[P] = filt.get(P, 0) + count
    via_pi = convert(vartheta_map(_ribbon_in_f(a)), "K")
    return FreeElement("PeakDual", "K", filt), via_pi


def cartan_rank(n: int) -> tuple:
    """The Cartan images of every induced projective at rank n: (the
    compositions whose two routes disagree, the exact rank of the images or
    None when some disagree, the expected rank = number of strict partitions)."""
    bad, images = [], []
    for a in compositions_of(n):
        filt, via_pi = cartan_image(a)
        if filt != via_pi:
            bad.append(a)
        else:
            images.append(convert(filt, "F", "QSym"))
    rank = None if bad else graded_rank(images, n)
    return bad, rank, len(strict_partitions_of(n))


def theta_ribbon_formula(alpha) -> tuple:
    """The ribbon image under the descent-to-peak transform and the
    2^(|P|+1)-weighted sum over peak sets inside D .. (D+1), which must
    agree."""
    a = as_composition(alpha)
    image = theta_transform(term("NSym", "R", a))
    return image, FreeElement("Peak", "Xi", _theta_row(a))


def decompose_projective(alpha) -> list:
    """Indecomposable content of the induced projective: one entry per peak
    set P inside D(alpha) .. (D(alpha)+1), with multiplicity 2^floor((|P|+1)/2)."""
    a = as_composition(alpha)
    return [(P, 2 ** ((len(P.elements) + 1) // 2)) for P in _theta_row(a)]


def verify_projective_pairings(n: int) -> tuple:
    """dim Hom(induced projective, induced simple) cross-check at rank n:
    (ok, the mismatching (alpha, beta, got, expected) tuples)."""
    bad = []
    # one multiplicity table per induced simple serves every a (Frobenius
    # reciprocity, as in projective_hom_dim)
    simples = [
        (b, hecke_composition_multiplicities(restrict_hecke(induce_clifford(simple_hecke(b)))))
        for b in compositions_of(n)
    ]
    for a in compositions_of(n):
        row = _theta_row(a)
        for b, mults in simples:
            got = mults.get((a,), 0)
            expected = row.get(b.peak_set(), 0)
            if got != expected:
                bad.append((str(a), str(b), got, expected))
    return not bad, bad


# ---------------------------------------------------------------------------
# restriction rules
# ---------------------------------------------------------------------------


def restriction_class_sides(alpha) -> tuple:
    """Both sides of the Hecke-restriction rule for the induced projective,
    as ribbon-coordinate elements of NSym."""
    a = as_composition(alpha)
    # left: reverse-of-inclusion-of-phi applied to the ribbon image.  phi is
    # the anti-involution of the peak subalgebra induced by the reversal rho
    # of NSym, which fixes the kernel of Theta, so phi(Theta(R_a)) =
    # Theta(rho(R_a)) = Theta(R_rev(a)).
    phi_img = theta_transform(term("NSym", "R", a.reverse()))
    incl = convert(phi_img, "R", "NSym")
    left = FreeElement("NSym", "R", {b.reverse(): c for b, c in incl.coeffs.items()})
    # right: the combinatorial sum over P(beta) inside the reversed window
    row = _theta_row(a.reverse())
    right = {b.reverse(): row[b.peak_set()] for b in compositions_of(a.n) if b.peak_set() in row}
    return left, FreeElement("NSym", "R", right)


def verify_restriction_to_hecke(alpha) -> tuple:
    """Class-level restriction rule, (ok, witness); the module-level split
    into hook projectives is ``verify_restriction_vectors``."""
    a = as_composition(alpha)
    left, right = restriction_class_sides(a)
    witness = {"class": str(left)}
    if left != right:
        return False, witness
    # cross-check by Hecke multiplicities at small rank: the coefficient of
    # [P_gamma] equals dim Hom(Res, S_gamma)
    if a.n <= HOM_CHECK_MAX_N:
        dims = hecke_simple_hom_dims(restrict_hecke(induce_clifford(projective_hecke(a))))
        for g in compositions_of(a.n):
            if dims.get(g, 0) != right.coeffs.get(g, 0):
                witness["hom-mismatch"] = str(g)
                return False, witness
    return True, witness


def verify_restriction_vectors(n: int) -> tuple:
    """Module-level split via the hook vectors, including the eigenrelations
    and the exact direct-sum decomposition by parity: (ok, the seeds or the
    first failure).  Guarded by ``supermodules.MAX_RESTRICTION_N``.

    The relations are checked once, on the Hecke restriction the hook
    submodules are spun from; a failing one raises ``RelationError``.  Each
    spin step is exact, so A_key E = E A'_key for the injective matrix E of
    a hook submodule's spun basis, and the submodule inherits every
    relation and the grading of the restriction (``submodule_on_vectors``
    gives the proof).  The odd and even slots compare against the same n
    hook projectives, built once."""
    from math import comb

    rep = restriction_vectors(n)
    module = rep["module"]
    hecke = restrict_hecke(module)
    hecke.check()
    hooks = [projective_hecke(Composition(tuple([n - k] + [1] * k))) for k in range(n)]
    for slot, par in (("odd", 1), ("even", 0)):
        ech = Echelon()
        for k in range(n):
            data = rep[slot][k]
            vec = data["vector"]
            for i in range(1, n):
                img = module.actions[("T", i)].apply(vec)
                if (i <= n - k - 2 and img) or (
                    i >= n - k and img != {r: -v for r, v in vec.items()}
                ):
                    return False, "eigenrelation T_%d on k=%d" % (i, k)
            sub, basis = submodule_on_vectors(hecke, [vec])
            if sub.dim != comb(n - 1, k):
                return False, "span dimension at k=%d" % k
            iso = find_isomorphism(sub, hooks[k], parity=par)
            if not iso.found:
                return False, "hook isomorphism at k=%d" % k
            for v in basis:
                if ech.add(v) is None:
                    return False, "spans overlap at k=%d" % k
        if ech.rank != 2 ** (n - 1):
            return False, "parity component not filled (%s)" % slot
    return True, {"seeds": {
        slot: {k: sorted(rep[slot][k]["seed"]) for k in rep[slot]}
        for slot in ("odd", "even")}}


def corner_restriction_terms(alpha) -> list:
    """Summands of the corner restriction of the induced projective: pairs
    (composition, multiplicity) over the rank n-1 tower."""
    a = as_composition(alpha)
    parts = a.parts
    r = len(parts)
    out = []
    for i in range(r):
        if parts[i] > 1:
            out.append(
                (Composition(parts[:i] + (parts[i] - 1,) + parts[i + 1:]), 2)
            )
    for i in range(r - 1):
        if parts[i] > 1:
            merged = parts[:i] + (parts[i] + parts[i + 1] - 1,) + parts[i + 2:]
            out.append((Composition(merged), 2))
    if r and parts[0] == 1:
        out.append((Composition(parts[1:]), 2))
    return out


def verify_corner_restriction(alpha, tables: dict | None = None) -> tuple:
    """Corner restriction of the induced projective: dimension identity and
    Hom-dimension signature against every induced simple one rank down,
    as (ok, witness).  ``tables`` maps gamma to the Hecke multiplicities of
    the induced projective over gamma; a caller that checks every alpha of
    one rank shares it, and a missing gamma is computed and stored."""
    a = as_composition(alpha)
    n = a.n
    if n < 1:
        raise ValueError("corner restriction wants a nonempty composition")
    if n > MAX_CORNER_N:
        raise ResourceLimitError(
            "corner restriction guarded at n <= %d" % MAX_CORNER_N,
            "MAX_CORNER_N",
        )
    res = restrict_corner(induce_clifford(projective_hecke(a)))
    if n == 1:
        # restriction to rank 0: the whole 2-dimensional space
        return res.dim == 2, {"dim": res.dim}
    terms = corner_restriction_terms(a)
    # dimension identity
    dim_rhs = sum(mult * 2 ** (n - 1) * len(descent_class(gamma)) for gamma, mult in terms)
    if res.dim != dim_rhs:
        return False, {"dim": (res.dim, dim_rhs)}
    # Hom-dimension signature against every induced projective one rank
    # down; the probes separate Grothendieck classes, so matching signatures
    # identify the class of the restriction with the stated direct sum
    tables = {} if tables is None else tables
    summand_mults = {}
    for gamma, mult in terms:
        if gamma not in tables:
            pg = restrict_hecke(induce_clifford(projective_hecke(gamma)))
            tables[gamma] = hecke_composition_multiplicities(pg)
        summand_mults[gamma] = (mult, tables[gamma])
    res_mults = hecke_composition_multiplicities(restrict_hecke(res))
    for b in compositions_of(n - 1):
        got = res_mults.get((b,), 0)
        expected = sum(mult * mults.get((b,), 0) for mult, mults in summand_mults.values())
        if got != expected:
            return False, {"beta": str(b), "got": got, "expected": expected}
    return True, {"terms": [(str(g), m) for g, m in terms]}


# ---------------------------------------------------------------------------
# diagrams, Gessel, bialgebra compatibility
# ---------------------------------------------------------------------------


def verify_diagrams(n: int) -> tuple:
    """The categorified descent-to-peak square (module-backed at
    n <= MODULE_SQUARE_MAX_N), the restriction square, the Cartan square,
    and the rank of the Cartan image, as (ok, witness)."""
    if n <= MODULE_SQUARE_MAX_N:
        for a in compositions_of(n):
            st = induce_clifford(simple_hecke(a))
            # induced-simple class equals the peak image of F
            ch = class_of_module(st)
            if ch.payload != convert(vartheta_map(term("QSym", "F", a)), "K"):
                return False, {"dp": str(a)}
            # Hecke restriction class equals the K expansion in F
            hecke_class = hecke_class_of_module(st)
            kexp = convert(
                term("PeakDual", "K", a.peak_set()), "F", "QSym"
            )
            if hecke_class.payload != kexp:
                return False, {"emb": str(a)}
    bad, rank, expected = cartan_rank(n)
    if bad:
        return False, {"cartan": str(bad[0])}
    if rank != expected:
        return False, {"cartan-rank": rank, "cartan-rank-expected": expected}
    return True, {"cartan-rank": rank}


def gessel_pairing(alpha, beta) -> int:
    """<R_beta, ribbon image of alpha> = the double-descent-class count;
    both sides are computed and must agree."""
    a, b = as_composition(alpha), as_composition(beta)
    if a.n != b.n:
        return 0
    if a.n > MAX_DESCENT_PAIR_N:
        raise ResourceLimitError(
            "gessel_pairing guarded at n <= %d" % MAX_DESCENT_PAIR_N,
            "MAX_DESCENT_PAIR_N",
        )
    hopf = pairing(term("NSym", "R", b), _ribbon_in_f(a))
    count = _descent_pair_counts(a.n)[a.descent_set()].get(b.descent_set(), 0)
    if hopf != count:
        raise AssertionError("Gessel mismatch at (%s, %s): %s vs %s" % (a, b, hopf, count))
    return count


@lru_cache(maxsize=None)
def _ribbon_in_f(alpha: Composition) -> FreeElement:
    """The ribbon image of alpha in QSym in F, which ``pairing`` reads against
    R with no conversion.  One entry per composition that passes
    ``MAX_DESCENT_PAIR_N``: at most 256, counting the empty one.  Read-only."""
    return convert(sym_into_qsym(forgetful_pi(term("NSym", "R", alpha))), "F")


@lru_cache(maxsize=None)
def _descent_pair_counts(n: int) -> dict:
    """Rows A -> {B: number of w in S_n with Des w = A and Des w^-1 = B},
    from one enumeration of S_n; every A inside [n-1] has a row.  One table
    per n <= MAX_DESCENT_PAIR_N.  Read-only."""
    rows = {}
    for w in itertools.permutations(range(1, n + 1)):
        row = rows.setdefault(word_descents(w), {})
        B = word_descents(word_inverse(w))
        row[B] = row.get(B, 0) + 1
    return rows


def verify_bialgebra_compatibility(alpha, beta, induced: dict | None = None) -> tuple:
    """Class of the induced outer product equals the product of the classes:
    (ok, both sides as text).  ``induced`` maps a composition to its Ind S,
    shared by a caller that checks many pairs; by default both are built."""
    a, b = as_composition(alpha), as_composition(beta)
    if induced is None:
        induced = {c: induce_clifford(simple_hecke(c)) for c in {a, b}}
    ind = parabolic_induce(induced[a], induced[b])
    ch = class_of_module(ind)
    prod = product(
        term("PeakDual", "K", a.peak_set()), term("PeakDual", "K", b.peak_set())
    )
    return ch.payload == prod, {"class": str(ch.payload), "product": str(prod)}
