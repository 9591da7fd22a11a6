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

Every verification below returns a report dict {"claim", "params",
"status", "witness"} with status "verified" / "failed" / "skipped-resource";
the CLI serializes these as JSON.
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
    peak_sets_in,
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
from .linalg import Echelon, SpanSolver, solve_unique
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
    "ModuleClass",
    "class_of_module",
    "hecke_class_of_module",
    "hecke_projective_class",
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
    return {
        P: 2 ** (len(P.elements) + 1) for P in peak_sets_in(alpha.n) if P.elements <= window
    }


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


def hecke_projective_class(module: Supermodule) -> ModuleClass:
    """Class of a projective 0-Hecke module in NSym (ribbon coordinates)."""
    if module.algebra != "H" or len(module.blocks) != 1:
        raise ValueError("single-block Hecke modules only")
    n = module.rank
    dims = hecke_simple_hom_dims(module)
    out = FreeElement.zero("NSym", "R")
    for g in compositions_of(n) if n else [Composition(())]:
        m = dims.get(g, 0)
        if m:
            out = out + term("NSym", "R", g, m)
    return ModuleClass("K", out)


# ---------------------------------------------------------------------------
# the adjoint characteristic map and the Cartan square
# ---------------------------------------------------------------------------


def cartan_image(alpha, max_n: int = 7) -> dict:
    """Image of the induced projective class under the Cartan map, two ways.

    Route (i): the filtration multiset sum of K over P(w^{-1}), w in the
    descent class.  Route (ii): the peak image of the ribbon Schur function.
    """
    a = as_composition(alpha)
    if a.n > max_n:
        raise ResourceLimitError("cartan_image guarded at n <= %d" % max_n)
    filt = FreeElement.zero("PeakDual", "K")
    for w in descent_class(a):
        filt = filt + term("PeakDual", "K", w.inverse().peak_set())
    ribbon = sym_into_qsym(forgetful_pi(term("NSym", "R", a)))
    via_pi = convert(vartheta_map(convert(ribbon, "F")), "K")
    status = "verified" if filt == via_pi else "failed"
    return {
        "claim": "cartan-image",
        "params": {"alpha": str(a)},
        "status": status,
        "witness": {"filtration": str(filt), "theta-pi": str(via_pi)},
        "value": filt,
    }


def cartan_rank(n: int) -> tuple:
    """The Cartan images of every induced projective at rank n: (the
    compositions whose two routes disagree, the exact rank of the images or
    None when some disagree, the expected rank = number of strict partitions)."""
    bad, images = [], []
    for a in compositions_of(n):
        rep = cartan_image(a)
        if rep["status"] != "verified":
            bad.append(a)
        else:
            images.append(convert(rep["value"], "F", "QSym"))
    rank = None if bad else graded_rank(images, n)
    return bad, rank, len(strict_partitions_of(n))


def theta_ribbon_formula(alpha) -> dict:
    """The ribbon image under the descent-to-peak transform equals the
    2^(|P|+1)-weighted sum over peak sets inside D .. (D+1)."""
    a = as_composition(alpha)
    image = theta_transform(term("NSym", "R", a))
    expected = FreeElement("Peak", "Xi", _theta_row(a))
    return {
        "claim": "theta-ribbon",
        "params": {"alpha": str(a)},
        "status": "verified" if image == expected else "failed",
        "witness": str(image),
        "value": image,
    }


def decompose_projective(alpha) -> list:
    """Indecomposable content of the induced projective: one entry per peak
    set P inside D(alpha) .. (D(alpha)+1), with multiplicity 2^floor((|P|+1)/2)."""
    a = as_composition(alpha)
    return [(P, 2 ** ((len(P.elements) + 1) // 2)) for P in _theta_row(a)]


def verify_projective_pairings(n: int) -> dict:
    """dim Hom(induced projective, induced simple) cross-check at rank n."""
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
    return {
        "claim": "projective-pairings",
        "params": {"n": n},
        "status": "failed" if bad else "verified",
        "witness": bad,
    }


# ---------------------------------------------------------------------------
# restriction rules
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
        vec = dict(_theta_h_image(a).coeffs)
        solver.add(a, vec)
    return solver


def _phi_on_peak(x: FreeElement) -> FreeElement:
    """The anti-involution of the peak subalgebra induced by reversal.

    Computed through a preimage under the descent-to-peak transform: write
    x as a combination of images of H words, reverse the words, re-apply.
    The result is preimage-independent because reversal fixes the kernel.
    """
    xi = convert(x, "Xi", "Peak")
    out = FreeElement.zero("Peak", "Xi")
    for degree in xi.degrees():
        comp = xi.component(degree)
        if degree == 0:
            out = out + comp
            continue
        rep = _theta_preimage_solver(degree).express(dict(comp.coeffs))
        if rep is None:  # pragma: no cover - the images span by construction
            raise AssertionError("element not in the image of the transform")
        for a, coeff in rep.items():
            out = out + _theta_h_image(a.reverse()).scale(coeff)
    return out


def restriction_class_sides(alpha) -> tuple:
    """Both sides of the Hecke-restriction rule for the induced projective,
    as ribbon-coordinate elements of NSym."""
    a = as_composition(alpha)
    # left: reverse-of-inclusion-of-phi applied to the ribbon image
    peak_img = theta_transform(term("NSym", "R", a))
    phi_img = _phi_on_peak(peak_img)
    incl = convert(phi_img, "R", "NSym")
    left = FreeElement("NSym", "R", {b.reverse(): c for b, c in incl.coeffs.items()})
    # right: the combinatorial sum over P(beta) inside the reversed window
    row = _theta_row(a.reverse())
    right = {}
    for b in compositions_of(a.n):
        weight = row.get(b.peak_set())
        if weight:
            right[b.reverse()] = weight
    return left, FreeElement("NSym", "R", right)


def verify_restriction_to_hecke(alpha) -> dict:
    """Class-level restriction rule; the module-level split into hook
    projectives is ``verify_restriction_vectors``."""
    a = as_composition(alpha)
    left, right = restriction_class_sides(a)
    status = "verified" if left == right else "failed"
    witness = {"class": str(left)}
    # cross-check by Hecke multiplicities at small rank: the coefficient of
    # [P_gamma] equals dim Hom(Res, S_gamma)
    if a.n <= 4 and status == "verified":
        dims = hecke_simple_hom_dims(restrict_hecke(induce_clifford(projective_hecke(a))))
        for g in compositions_of(a.n):
            got = dims.get(g, 0)
            expected = right.coeffs.get(g, 0)
            if got != expected:
                status = "failed"
                witness["hom-mismatch"] = str(g)
                break
    return {
        "claim": "restriction-to-hecke",
        "params": {"alpha": str(a)},
        "status": status,
        "witness": witness,
    }


def verify_restriction_vectors(n: int) -> dict:
    """Module-level split via the hook vectors, including the eigenrelations
    and the exact direct-sum decomposition by parity."""
    from math import comb

    try:
        rep = restriction_vectors(n)
    except ResourceLimitError:
        return {"claim": "restriction-vectors", "params": {"n": n},
                "status": "skipped-resource", "witness": None}
    module = rep["module"]
    hecke = restrict_hecke(module)
    for slot, par in (("odd", 1), ("even", 0)):
        ech = Echelon()
        for k in range(n):
            data = rep[slot][k]
            vec = data["vector"]
            for i in range(1, n):
                img = module.actions[("T", i)].apply(vec)
                if i <= n - k - 2 and img:
                    return _fail_rv(n, "eigenrelation T_%d on k=%d" % (i, k))
                if i >= n - k and img != {r: -v for r, v in vec.items()}:
                    return _fail_rv(n, "eigenrelation T_%d on k=%d" % (i, k))
            sub, basis = submodule_on_vectors(hecke, [vec])
            if sub.dim != comb(n - 1, k):
                return _fail_rv(n, "span dimension at k=%d" % k)
            hook = Composition(tuple([n - k] + [1] * k))
            iso = find_isomorphism(sub, projective_hecke(hook), parity=par)
            if not iso.found:
                return _fail_rv(n, "hook isomorphism at k=%d" % k)
            for v in basis:
                if ech.add(v) is None:
                    return _fail_rv(n, "spans overlap at k=%d" % k)
        if ech.rank != 2 ** (n - 1):
            return _fail_rv(n, "parity component not filled (%s)" % slot)
    return {"claim": "restriction-vectors", "params": {"n": n},
            "status": "verified", "witness": {"seeds": {
                slot: {k: sorted(rep[slot][k]["seed"]) for k in rep[slot]}
                for slot in ("odd", "even")}}}


def _fail_rv(n, reason):
    return {"claim": "restriction-vectors", "params": {"n": n},
            "status": "failed", "witness": reason}


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


def verify_corner_restriction(alpha, max_n: int = 5) -> dict:
    """Corner restriction of the induced projective: dimension identity and
    Hom-dimension signature against every induced simple one rank down."""
    a = as_composition(alpha)
    n = a.n
    if n > max_n or n < 1:
        return {"claim": "corner-restriction", "params": {"alpha": str(a)},
                "status": "skipped-resource", "witness": None}
    pt = induce_clifford(projective_hecke(a))
    res = restrict_corner(pt)
    terms = corner_restriction_terms(a)
    # dimension identity
    dim_rhs = 0
    for gamma, mult in terms:
        dim_rhs += mult * 2 ** (n - 1) * len(descent_class(gamma)) if gamma.parts else mult
    if n == 1:
        dim_rhs = 2  # restriction to rank 0: the whole 2-dimensional space
        status = "verified" if res.dim == dim_rhs else "failed"
        return {"claim": "corner-restriction", "params": {"alpha": str(a)},
                "status": status, "witness": {"dim": res.dim}}
    if res.dim != dim_rhs:
        return {"claim": "corner-restriction", "params": {"alpha": str(a)},
                "status": "failed", "witness": {"dim": (res.dim, dim_rhs)}}
    # Hom-dimension signature against every induced projective one rank
    # down; the probes separate Grothendieck classes, so matching signatures
    # identify the class of the restriction with the stated direct sum
    summand_mults = {}
    for gamma, mult in terms:
        pg = induce_clifford(projective_hecke(gamma))
        summand_mults[gamma] = (
            mult,
            hecke_composition_multiplicities(restrict_hecke(pg)),
        )
    res_mults = hecke_composition_multiplicities(restrict_hecke(res))
    for b in compositions_of(n - 1):
        got = res_mults.get((b,), 0)
        expected = 0
        for gamma, (mult, mults) in summand_mults.items():
            expected += mult * mults.get((b,), 0)
        if got != expected:
            return {"claim": "corner-restriction", "params": {"alpha": str(a)},
                    "status": "failed",
                    "witness": {"beta": str(b), "got": got, "expected": expected}}
    return {"claim": "corner-restriction", "params": {"alpha": str(a)},
            "status": "verified",
            "witness": {"terms": [(str(g), m) for g, m in terms]}}


# ---------------------------------------------------------------------------
# diagrams, Gessel, bialgebra compatibility
# ---------------------------------------------------------------------------


def verify_diagrams(n: int) -> dict:
    """The categorified descent-to-peak square (module-backed at n <= 5), the
    restriction square, the Cartan square, and the rank of the Cartan image."""
    witness = {}
    status = "verified"
    if n <= 5:
        for a in compositions_of(n):
            st = induce_clifford(simple_hecke(a))
            # induced-simple class equals the peak image of F
            ch = class_of_module(st)
            if ch.payload != convert(vartheta_map(term("QSym", "F", a)), "K"):
                status = "failed"
                witness["dp"] = str(a)
                break
            # Hecke restriction class equals the K expansion in F
            hecke_class = hecke_class_of_module(st)
            kexp = convert(
                term("PeakDual", "K", a.peak_set()), "F", "QSym"
            )
            if hecke_class.payload != kexp:
                status = "failed"
                witness["emb"] = str(a)
                break
    if status == "verified":
        bad, rank, expected = cartan_rank(n)
        if bad:
            status = "failed"
            witness["cartan"] = str(bad[0])
        else:
            witness["cartan-rank"] = rank
            if rank != expected:
                status = "failed"
                witness["cartan-rank-expected"] = expected
    return {"claim": "diagrams", "params": {"n": n}, "status": status,
            "witness": witness}


def gessel_pairing(alpha, beta, max_n: int = 7) -> int:
    """<R_beta, ribbon image of alpha> = the double-descent-class count;
    both sides are computed and must agree."""
    a, b = as_composition(alpha), as_composition(beta)
    if a.n != b.n:
        return 0
    if a.n > max_n:
        raise ResourceLimitError("gessel_pairing guarded at n <= %d" % max_n)
    hopf = pairing(
        term("NSym", "R", b), sym_into_qsym(forgetful_pi(term("NSym", "R", a)))
    )
    count = _descent_pair_counts(a.n).get(
        (a.descent_set().elements, b.descent_set().elements), 0
    )
    if hopf != count:
        raise AssertionError(
            "Gessel mismatch at (%s, %s): %s vs %s" % (a, b, hopf, count)
        )
    return count


@lru_cache(maxsize=None)
def _descent_pair_counts(n: int) -> dict:
    """Number of w in S_n per pair (Des w, Des w^-1), from one enumeration
    of S_n.  One table per n that passes the guard of ``gessel_pairing``
    (n <= 7 by default).  Read-only."""
    counts = {}
    for w in itertools.permutations(range(1, n + 1)):
        key = (word_descents(w), word_descents(word_inverse(w)))
        counts[key] = counts.get(key, 0) + 1
    return counts


def verify_bialgebra_compatibility(alpha, beta) -> dict:
    """Class of the induced outer product equals the product of the classes."""
    a, b = as_composition(alpha), as_composition(beta)
    ind = parabolic_induce(
        induce_clifford(simple_hecke(a)), induce_clifford(simple_hecke(b))
    )
    ch = class_of_module(ind)
    prod = product(
        term("PeakDual", "K", a.peak_set()), term("PeakDual", "K", b.peak_set())
    )
    status = "verified" if ch.payload == prod else "failed"
    return {
        "claim": "bialgebra",
        "params": {"alpha": str(a), "beta": str(b)},
        "status": status,
        "witness": {"class": str(ch.payload), "product": str(prod)},
    }
