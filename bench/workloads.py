"""The benchmark's workloads: seeded inputs, the calls into ``peakhc`` and
the checks of every result against the value the paper states.

Inputs are plain tuples made from the seed without touching ``peakhc``.
``run`` calls the package only through module attributes
(``pk["supermodules"].hom_space``), so the outside tracer sees every call.
Each case returns ``(ok, detail)``; a case that raises, including
``ResourceLimitError``, is recorded as failed and the pass goes on.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random

# `peakhc verify all --max-n 4` at this version: 71 reports, all verified
VERIFY_ARGV = ["verify", "all", "--max-n", "4", "--format", "json"]
VERIFY_REPORTS = 71

MODULES_FULL_N = 4  # split + End check for every composition of n <= 4
HOM_N = 4  # Hom(Ind P_a, Ind S_b) for sampled (a, b) of this size
DUALITY_FULL_N = 6  # duality chain on the full grid up to this degree
DUALITY_SAMPLE = 40  # sampled pairs at degree DUALITY_FULL_N + 1
GESSEL_N = 6
GESSEL_SAMPLE = 24
FOCK_DEGREE = 7  # Fock lowering and freeness certificate up to this degree


# -- combinatorics of the inputs, independent of peakhc -------------------


def compositions(n: int) -> list:
    """All compositions of n, ordered by descent-set bitmask."""
    out = []
    for mask in range(2 ** (n - 1)):
        parts, last = [], 0
        for i in range(1, n):
            if mask >> (i - 1) & 1:
                parts.append(i - last)
                last = i
        parts.append(n - last)
        out.append(tuple(parts))
    return out


def descents(alpha) -> set:
    return set(itertools.accumulate(alpha[:-1]))


def peaks(alpha) -> set:
    n, d = sum(alpha), descents(alpha)
    return {x for x in range(2, n) if x in d and x - 1 not in d}


def valleys(alpha) -> set:
    n, d = sum(alpha), descents(alpha)
    v = {x for x in range(2, n + 1) if x - 1 in d and x not in d}
    return v | ({1} if 1 not in d else set())


def descent_class_size(alpha) -> int:
    n, d = sum(alpha), descents(alpha)
    return sum(
        1 for w in itertools.permutations(range(n))
        if {i for i in range(1, n) if w[i - 1] > w[i]} == d
    )


# -- cases ----------------------------------------------------------------


def _split_case(pk, alpha):
    n, p = sum(alpha), len(peaks(alpha))
    l = (p + 1) // 2
    res = pk["supermodules"].split_simple(alpha)
    checks = {
        "copies": res.copies == 2 ** l,
        "component dimension": all(c.dim == 2 ** (n - l) for c in res.components),
        "type": res.type_tag == ("M" if p % 2 else "Q"),
        "pairwise isomorphism": all(v is not None for v in res.pair_parities.values()),
    }
    bad = [k for k, ok in checks.items() if not ok]
    return not bad, bad


def _end_case(pk, alpha):
    rep = pk["supermodules"].end_clifford_check(alpha)
    expected = 2 ** len(valleys(alpha))
    return rep["ok"] and rep["end_dim"] == expected, [rep["end_dim"], expected]


def _hom_case(pk, a, b):
    sm = pk["supermodules"]
    src = sm.induce_clifford(sm.projective_hecke(a))
    dst = sm.induce_clifford(sm.simple_hecke(b))
    got = sm.hom_space(src, dst).total_dim
    expected = sm.projective_hom_dim(dst, a)
    return got == expected, [got, expected]


def _duality_case(pk, a, b):
    h = pk["hopf"]
    ta = h.theta_transform(h.term("NSym", "R", a))
    fb = h.term("QSym", "F", b)
    lhs = h.pairing(h.convert(ta, "H", "NSym"), fb)
    mid = h.pairing(h.term("NSym", "R", a), h.convert(h.vartheta_map(fb), "F", "QSym"))
    rhs = h.peak_pairing(ta, h.vartheta_map(fb))
    return lhs == mid == rhs, [str(lhs), str(mid), str(rhs)]


def _gessel_case(pk, a, b):
    count = pk["characteristic"].gessel_pairing(a, b)
    return isinstance(count, int) and count >= 0, count


def _fock_lowering_case(pk, n, solvers):
    """Q_m N_alpha lies in the filtration piece below alpha's length, for
    every composition alpha of n and 1 <= m <= n."""
    h, hz, la = pk["hopf"], pk["heisenberg"], pk["linalg"]
    bad = []
    for a in compositions(n):
        for m in range(1, n + 1):
            img = hz.fock_action_on_word(m, a)
            if not img:
                continue
            key = (len(a) - 1, n - m)
            if key not in solvers:
                basis, _rank = hz.filtration_component(*key, max_degree=FOCK_DEGREE)
                solvers[key] = la.SpanSolver()
                for i, vec in enumerate(basis):
                    solvers[key].add(i, dict(h.convert(vec, "K").coeffs))
            if not solvers[key].contains(dict(img.coeffs)):
                bad.append([a, m])
    return not bad, bad


def _freeness_case(pk):
    cert = pk["heisenberg"].free_basis_over_omega(FOCK_DEGREE)
    return cert.ok, [r["ok"] for r in cert.per_degree]


def _checked(cases) -> list:
    """Run (case, thunk) pairs; returns (case, ok, detail) triples."""
    out = []
    for case, thunk in cases:
        try:
            ok, detail = thunk()
        except Exception as exc:  # recorded per case; the pass goes on
            ok, detail = False, repr(exc)
        out.append((case, bool(ok), detail))
    return out


def run_verify(pk, inputs) -> list:
    """The suites use their own fixed seeds; ``inputs`` is empty."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = pk["cli"].main(list(VERIFY_ARGV))
    except Exception as exc:  # its reports count as missing below
        code = repr(exc)
    text = buf.getvalue().strip()
    reports = json.loads(text) if text.startswith("[") else []
    out = [
        ("%s %s" % (r["claim"], json.dumps(r["params"], sort_keys=True)),
         r["status"] == "verified", r["status"])
        for r in reports
    ]
    missing = VERIFY_REPORTS - len(reports)
    out += [("missing report %d" % i, False, "missing") for i in range(missing)]
    if missing < 0:
        out.append(("report count", False, len(reports)))
    out.append(("exit code", code == 0, code))
    return out


# -- workloads ------------------------------------------------------------


def modules_inputs(seed: int) -> dict:
    """Every composition of n <= 4; two sampled compositions of 5, one with a
    single peak (type M, two copies) and one without peaks (type Q, one
    copy); and one sampled Hom pair (a, b) of size 4 per size of a's descent
    class (1, 3 or 5).  The strata make every seed ask for about the same
    work."""
    rng = random.Random(seed)
    five = compositions(5)
    simples = [a for n in range(1, MODULES_FULL_N + 1) for a in compositions(n)]
    simples.append(rng.choice([a for a in five if len(peaks(a)) == 1]))
    simples.append(rng.choice([a for a in five if not peaks(a)]))
    by_size: dict = {}
    for a in compositions(HOM_N):
        by_size.setdefault(descent_class_size(a), []).append(a)
    pairs = [(rng.choice(by_size[k]), rng.choice(compositions(HOM_N)))
             for k in sorted(by_size)]
    return {"simples": simples, "hom_pairs": pairs}


def run_modules(pk, inputs) -> list:
    out = []
    for a in inputs["simples"]:
        out.append(("split %s" % (a,), lambda a=a: _split_case(pk, a)))
        out.append(("end %s" % (a,), lambda a=a: _end_case(pk, a)))
    for a, b in inputs["hom_pairs"]:
        out.append(("hom %s %s" % (a, b), lambda a=a, b=b: _hom_case(pk, a, b)))
    return _checked(out)


def hopf_inputs(seed: int) -> dict:
    """The duality grid up to DUALITY_FULL_N plus sampled pairs one degree
    higher, and sampled Gessel pairs."""
    rng = random.Random(seed)
    grid = [(a, b) for n in range(1, DUALITY_FULL_N + 1)
            for a in compositions(n) for b in compositions(n)]
    top = compositions(DUALITY_FULL_N + 1)
    grid += [(rng.choice(top), rng.choice(top)) for _ in range(DUALITY_SAMPLE)]
    six = compositions(GESSEL_N)
    gessel = [(rng.choice(six), rng.choice(six)) for _ in range(GESSEL_SAMPLE)]
    return {"duality": grid, "gessel": gessel}


def run_hopf(pk, inputs) -> list:
    out = [("duality %s %s" % (a, b), lambda a=a, b=b: _duality_case(pk, a, b))
           for a, b in inputs["duality"]]
    out += [("gessel %s %s" % (a, b), lambda a=a, b=b: _gessel_case(pk, a, b))
            for a, b in inputs["gessel"]]
    solvers: dict = {}
    out += [("fock lowering n=%d" % n, lambda n=n: _fock_lowering_case(pk, n, solvers))
            for n in range(1, FOCK_DEGREE + 1)]
    out.append(("freeness certificate", lambda: _freeness_case(pk)))
    return _checked(out)


# name -> (inputs from a seed, one pass returning (case, ok, detail) triples)
WORKLOADS = {
    "modules": (modules_inputs, run_modules),
    "hopf": (hopf_inputs, run_hopf),
    "verify-n4": (lambda seed: {}, run_verify),
}
