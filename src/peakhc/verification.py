"""Named verification suites: every identity, decomposition and restriction
rule the package certifies, packaged as report-producing cases.

Each suite returns a list of report dicts {"claim", "params", "status",
"witness"} with status "verified" / "failed" / "skipped-resource", and a
skipped report also names the bound that stopped it under "guard"; all are
built by ``_report``: this is the one module that writes reports, the checks it
calls return facts or raise ``ResourceLimitError`` at a named guard.  The
CLI serializes the reports; the acceptance tests call the suites directly at
the stated bounds.  Each suite takes its bound as a keyword, and ``SUITES``
is the one place that states its default.
"""

from __future__ import annotations

import random
import sys

from .combinat import (
    Composition,
    ResourceLimitError,
    compositions_of,
    peak_sets_in,
)
from .characteristic import (
    HOM_CHECK_MAX_N,
    MODULE_SQUARE_MAX_N,
    cartan_rank,
    gessel_pairing,
    theta_ribbon_formula,
    verify_bialgebra_compatibility,
    verify_corner_restriction,
    verify_diagrams,
    verify_projective_pairings,
    verify_restriction_to_hecke,
    verify_restriction_vectors,
)
from .hecke_clifford import (
    _guard_table_sweep,
    algebra_basis,
    associativity_failure,
    failing_relation,
    frobenius_failure,
    generators,
    multiply,
    unit as algebra_unit,
)
from .heisenberg import (
    fock_action,
    fock_action_on_word,
    free_basis_over_omega,
    guard_freeness_degree,
    in_filtration,
)
from .hopf import (
    FreeElement,
    convert,
    coproduct,
    k_expansions,
    omega_into_peakdual,
    pairing,
    peak_pairing,
    product,
    term,
    theta_sym,
    theta_transform,
    vartheta_map,
)
from .supermodules import (
    _seed_failure,
    end_clifford_check,
    find_isomorphism,
    projective_hecke,
    simple_hecke,
    split_simple,
    stated_twist_isomorphisms,
    twist,
)

__all__ = ["SUITES", "run_suite", "suite_names"]


def _report(claim, params, ok, witness=None, guard=None):
    """The one report dict: ``ok`` True is "verified", False "failed" and
    None "skipped-resource" (a guard stopped the case).  A skipped report
    also carries the name of the bound that stopped it as ``guard``."""
    report = {
        "claim": claim,
        "params": params,
        "status": "skipped-resource" if ok is None else "verified" if ok else "failed",
        "witness": witness,
    }
    if guard is not None:
        report["guard"] = guard
    return report


def _guarded(claim, params, check, *args):
    """The report of one rank: ``check(*args)`` returns (ok, witness), and a
    guard it hits gives a skipped-resource report for this rank alone, with
    the guard's message as witness and its bound as ``guard``, so the suite
    keeps the reports of its other ranks."""
    try:
        ok, witness = check(*args)
    except ResourceLimitError as exc:
        return _report(claim, params, None, str(exc), exc.guard)
    return _report(claim, params, ok, witness)


def suite_euler(max_n: int) -> list:
    out = []
    q = [convert(term("NSym", "Q", (m,) if m else ()), "H") for m in range(max_n + 1)]
    for n in range(1, max_n + 1):
        total = FreeElement.zero("NSym", "H")
        for r in range(0, n + 1):
            total = total + product(q[r], q[n - r]).scale((-1) ** r)
        out.append(_report("euler", {"n": n}, not total, str(total)))
    return out


def suite_generators(max_n: int) -> list:
    out = []
    for n in range(1, max_n + 1):
        rhs = FreeElement.zero("NSym", "R")
        for k in range(n):
            rhs = rhs + term("NSym", "R", Composition(tuple([1] * k + [n - k])), 2)
        lhs = convert(term("NSym", "Q", Composition((n,))), "R")
        out.append(_report("generator-ribbons", {"n": n}, lhs == rhs))
    return out


def suite_theta_ribbon(max_n: int) -> list:
    return [_guarded("theta-ribbon", {"n": n}, _theta_ribbon_rank, n)
            for n in range(1, max_n + 1)]


def _theta_ribbon_rank(n: int) -> tuple:
    bad = []
    for a in compositions_of(n):
        image, expected = theta_ribbon_formula(a)
        if image != expected:
            bad.append(str(a))
    return not bad, bad


def suite_duality(max_n: int) -> list:
    return [_guarded("duality-chain", {"n": n}, _duality_rank, n) for n in range(1, max_n + 1)]


def _duality_rank(n: int) -> tuple:
    bad = []
    for a in compositions_of(n):
        ta = theta_transform(term("NSym", "R", a))
        ta_nsym = convert(ta, "H", "NSym")
        for b in compositions_of(n):
            fb = term("QSym", "F", b)
            lhs = pairing(ta_nsym, fb)
            mid = pairing(term("NSym", "R", a), convert(vartheta_map(fb), "F", "QSym"))
            rhs = peak_pairing(ta, vartheta_map(fb))
            if not lhs == mid == rhs:
                bad.append((str(a), str(b)))
    return not bad, bad


def suite_peak_functions(max_n: int) -> list:
    return [_guarded("peak-function-expansions", {"n": n}, _peak_functions_rank, n)
            for n in range(1, max_n + 1)]


def _peak_functions_rank(n: int) -> tuple:
    for P in peak_sets_in(n):
        f, m = k_expansions(P)
        if convert(m, "F") != f:
            return False, "expansions disagree at %r" % (P,)
    f, _m = k_expansions(peak_sets_in(n)[0])
    total = FreeElement.zero("QSym", "F")
    for a in compositions_of(n):
        total = total + term("QSym", "F", a, 2)
    qn = convert(theta_sym(term("Sym", "h", (n,))), "podd")
    ok = f == total and omega_into_peakdual(qn) == term("PeakDual", "K", peak_sets_in(n)[0])
    return ok, None if ok else "empty-peak expansion mismatch"


def suite_gessel(max_n: int) -> list:
    return [_guarded("gessel", {"n": n}, _gessel_rank, n) for n in range(1, max_n + 1)]


def _gessel_rank(n: int) -> tuple:
    bad = []
    for a in compositions_of(n):
        for b in compositions_of(n):
            try:
                gessel_pairing(a, b)
            except AssertionError:
                bad.append((str(a), str(b)))
    return not bad, bad


def suite_algebra(max_n: int) -> list:
    out = []
    for n in range(1, max_n + 1):
        out.append(_guarded("algebra-relations", {"n": n}, _algebra_relations_rank, n))
        out.append(_guarded("frobenius-form", {"n": n}, _frobenius_form_rank, n))
    return out


def _algebra_relations_rank(n: int) -> tuple:
    import math

    # the certificate's guard, checked before the 2^n n! basis is enumerated
    _guard_table_sweep(n)
    if len(algebra_basis(n)) != 2 ** n * math.factorial(n):
        return False, "basis count"
    witness = failing_relation(generators(n), multiply, algebra_unit(n))
    if witness is None:
        witness = associativity_failure(n)
    return witness is None, witness


def _frobenius_form_rank(n: int) -> tuple:
    """A nondegenerate even trace form with Nakayama automorphism phi,
    certified from the multiplication tables."""
    witness = frobenius_failure(n)
    return witness is None, witness


def suite_simples(max_n: int) -> list:
    return [_guarded("simple-decomposition", {"n": n}, _simples_rank, n)
            for n in range(1, max_n + 1)]


def _simples_rank(n: int) -> tuple:
    bad = []
    for a in compositions_of(n):
        res = split_simple(a)
        peaks = a.peak_set().elements
        l = (len(peaks) + 1) // 2
        if res.copies != 2 ** l:
            bad.append((str(a), "copies"))
            continue
        if any(c.dim != 2 ** (n - l) for c in res.components):
            bad.append((str(a), "component dimension"))
            continue
        expected = "M" if len(peaks) % 2 == 1 else "Q"
        if res.type_tag != expected:
            bad.append((str(a), "type"))
            continue
        if any(p is None for p in res.pair_parities.values()):
            bad.append((str(a), "pairwise isomorphism"))
            continue
        rep = end_clifford_check(a)
        if not rep["ok"]:
            bad.append((str(a), "endomorphism algebra"))
    return not bad, bad


def suite_projectives(max_n: int) -> list:
    return [_guarded("projective-pairings", {"n": n}, verify_projective_pairings, n)
            for n in range(1, max_n + 1)]


def suite_cartan(max_n: int) -> list:
    return [_guarded("cartan-square", {"n": n}, _cartan_rank, n) for n in range(1, max_n + 1)]


def _cartan_rank(n: int) -> tuple:
    bad, rank, expected = cartan_rank(n)
    witness = {"bad": [str(a) for a in bad]}
    if not bad:
        witness["rank"] = rank
    return not bad and rank == expected, witness


def suite_restriction(max_n: int, module_max_n: int) -> list:
    out = [
        _guarded("restriction-classes", {"n": n, "hom_check_max_n": HOM_CHECK_MAX_N},
                 _restriction_classes_rank, n)
        for n in range(1, max_n + 1)
    ]
    out += [_guarded("restriction-vectors", {"n": n}, verify_restriction_vectors, n)
            for n in range(1, module_max_n + 1)]
    return out


def _restriction_classes_rank(n: int) -> tuple:
    bad = [str(a) for a in compositions_of(n) if not verify_restriction_to_hecke(a)[0]]
    return not bad, bad


def suite_corner(max_n: int) -> list:
    return [_guarded("corner-restriction", {"n": n}, _corner_rank, n)
            for n in range(1, max_n + 1)]


def _corner_rank(n: int) -> tuple:
    bad = [(str(a), "failed") for a in compositions_of(n) if not verify_corner_restriction(a)[0]]
    return not bad, bad


def suite_twists(max_n: int) -> list:
    return [_guarded("twisted-isomorphisms", {"n": n}, _twists_rank, n)
            for n in range(1, max_n + 1)]


def _twists_rank(n: int) -> tuple:
    bad = []
    for a in compositions_of(n):
        # each map is the lift of its seed out of N, its first dim N columns
        for part, f in stated_twist_isomorphisms(a).items():
            want_parity = n % 2 if part in (1, 4) else 0
            base = f.source.summand_of[0]
            if (f.parity != want_parity
                    or _seed_failure(base, f.target, f.matrix.cols[:base.dim]) is not None
                    or not f.is_invertible()):
                bad.append((str(a), part))
        tw = twist(simple_hecke(a), "phi_bar")
        if not find_isomorphism(tw, simple_hecke(a.reverse())).found:
            bad.append((str(a), "simple reversal"))
        twp = twist(projective_hecke(a), "phi_bar")
        if not find_isomorphism(twp, projective_hecke(a.reverse())).found:
            bad.append((str(a), "projective reversal"))
    return not bad, bad


def suite_bialgebra(max_total: int) -> list:
    out = []
    bad = []
    for total in range(2, max_total + 1):
        for m in range(1, total):
            n = total - m
            for a in compositions_of(m):
                for b in compositions_of(n):
                    if not verify_bialgebra_compatibility(a, b)[0]:
                        bad.append((str(a), str(b)))
    out.append(_report("bialgebra-compatibility", {"max_total": max_total}, not bad, bad))
    return out


def suite_heisenberg(max_degree: int) -> list:
    # the certificate comes last; its guard is checked before the batteries
    guard_freeness_degree(max_degree)
    out = []
    # lowering property: the closed form against the degree n - m component
    # of one coproduct-route action of Q_1 + ... + Q_n, then its level
    bad = []
    for n in range(1, max_degree + 1):
        qsum = FreeElement("NSym", "Q", {(m,): 1 for m in range(1, n + 1)})
        qsum = convert(qsum, "Xi", "Peak")
        for a in compositions_of(n):
            general = fock_action(qsum, term("PeakDual", "N", a))
            for m in range(1, n + 1):
                img, deg = fock_action_on_word(m, a), n - m
                if img != general.component(deg) or not in_filtration(img, a.length - 1, deg):
                    bad.append((str(a), m))
    out.append(_report("fock-lowering", {"max_degree": max_degree}, not bad, bad))
    # module-algebra law on random pairs of bounded degree
    rng = random.Random(31)
    keys = [P for d in (1, 2, 3) for P in peak_sets_in(d)]
    bad = []
    for _ in range(20):
        x = term("PeakDual", "K", rng.choice(keys), rng.randint(1, 3))
        y = term("PeakDual", "K", rng.choice(keys), rng.randint(1, 3))
        for m in (1, 2, 3):
            qm = convert(term("NSym", "Q", Composition((m,))), "Xi", "Peak")
            lhs = fock_action(qm, product(x, y))
            rhs = FreeElement.zero("PeakDual", "K")
            for (a1, a2), c in coproduct(qm).coeffs.items():
                left = fock_action(term("Peak", "Xi", a1), x)
                right = fock_action(term("Peak", "Xi", a2), y)
                if left and right:
                    rhs = rhs + product(left, right).scale(c)
            if lhs != rhs:
                bad.append((str(x), str(y), m))
    out.append(_report("fock-module-algebra", {"samples": 20}, not bad, bad))
    return out + _freeness_reports(max_degree)


def suite_diagrams(max_n: int) -> list:
    return [
        _guarded("diagrams", {"n": n, "module_square_max_n": MODULE_SQUARE_MAX_N},
                 verify_diagrams, n)
        for n in range(1, max_n + 1)
    ]


def suite_freeness(max_degree: int) -> list:
    """The freeness certificate alone (generators + per-degree ranks +
    Hilbert identity), without the lowering and module-algebra batteries."""
    guard_freeness_degree(max_degree)
    return _freeness_reports(max_degree)


def _freeness_reports(max_degree: int) -> list:
    """The freeness certificate and the Hilbert identity through max_degree."""
    cert = free_basis_over_omega(max_degree)
    return [
        _report(
            "freeness-certificate",
            {"max_degree": max_degree},
            cert.ok,
            [dict(r) for r in cert.per_degree],
        ),
        _report("hilbert-series", {"max_degree": max_degree}, *cert.hilbert_identity()),
    ]


SUITES = {
    "euler": (suite_euler, {"max_n": 12}),
    "generators": (suite_generators, {"max_n": 10}),
    "theta-ribbon": (suite_theta_ribbon, {"max_n": 8}),
    "duality": (suite_duality, {"max_n": 7}),
    "peak-functions": (suite_peak_functions, {"max_n": 8}),
    "gessel": (suite_gessel, {"max_n": 6}),
    "algebra": (suite_algebra, {"max_n": 4}),
    "simples": (suite_simples, {"max_n": 5}),
    "projectives": (suite_projectives, {"max_n": 4}),
    "cartan": (suite_cartan, {"max_n": 6}),
    "diagrams": (suite_diagrams, {"max_n": 5}),
    "restriction": (suite_restriction, {"max_n": 8, "module_max_n": 6}),
    "corner": (suite_corner, {"max_n": 5}),
    "twists": (suite_twists, {"max_n": 4}),
    "bialgebra": (suite_bialgebra, {"max_total": 5}),
    "heisenberg": (suite_heisenberg, {"max_degree": 8}),
    "freeness": (suite_freeness, {"max_degree": 8}),
}


def suite_names() -> list:
    return sorted(SUITES) + ["all"]


def run_suite(name: str, max_n: int | None = None, max_degree: int | None = None) -> list:
    """Run one suite (or "all") with optional bound overrides."""
    if name == "all":
        out = []
        for key in sorted(SUITES):
            out.extend(run_suite(key, max_n=max_n, max_degree=max_degree))
        return out
    if name not in SUITES:
        raise KeyError("unknown suite %r (choose from %s)" % (name, suite_names()))
    fn, defaults = SUITES[name]
    kwargs = dict(defaults)
    if max_n is not None:
        keys = [k for k in ("max_n", "module_max_n", "max_total") if k in kwargs]
        if "max_degree" in kwargs and max_degree is None:
            keys.append("max_degree")
        for key in keys:
            kwargs[key] = min(kwargs[key], max(max_n, 1) if key == "max_degree" else max_n)
        # a suite's default is also its ceiling: say so when --max-n asks for more
        clamped = [
            str(kwargs[key]) if key == "max_n" else "%s %d" % (key, kwargs[key])
            for key in keys
            if kwargs[key] < max_n
        ]
        if clamped:
            print(
                "note: --max-n %d clamped to %s for suite %s" % (max_n, ", ".join(clamped), name),
                file=sys.stderr,
            )
    if max_degree is not None and "max_degree" in kwargs:
        kwargs["max_degree"] = max_degree
    try:
        return fn(**kwargs)
    except ResourceLimitError as exc:
        return [_report(name, kwargs, None, str(exc), exc.guard)]
