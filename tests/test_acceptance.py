"""Acceptance gate: every exit criterion at its stated bound, exact arithmetic.

Each test prints one PASS/FAIL line (visible with pytest -s or -rA); stated
wall-time budgets are asserted where the criterion pins one.  Bounds are
fixed here, not configurable: these are the exit criteria.
"""

import time

from peakhc.combinat import (
    Composition,
    compositions_of,
    strict_partitions_of,
)
from peakhc.characteristic import verify_corner_restriction
from peakhc.supermodules import (
    hom_space,
    induce_clifford,
    projective_hecke,
    projective_hom_dim,
    restriction_vectors,
    simple_hecke,
    _subsets_ordered,
)
from peakhc.verification import (
    suite_algebra,
    suite_bialgebra,
    suite_cartan,
    suite_corner,
    suite_duality,
    suite_euler,
    suite_generators,
    suite_gessel,
    suite_heisenberg,
    suite_peak_functions,
    suite_projectives,
    suite_restriction,
    suite_simples,
    suite_theta_ribbon,
    suite_twists,
)


def _conclude(number, label, reports, elapsed=None, budget=None):
    ok = all(r["status"] == "verified" for r in reports)
    detail = "" if elapsed is None else " (%.1fs)" % elapsed
    print("%s criterion-%02d %s%s" % ("PASS" if ok else "FAIL", number, label, detail))
    assert ok, [r for r in reports if r["status"] != "verified"]
    if budget is not None:
        assert elapsed is not None and elapsed < budget, (
            "criterion %d exceeded its %.0fs budget: %.1fs" % (number, budget, elapsed)
        )


def test_criterion_01_euler_relations():
    t0 = time.time()
    reports = suite_euler(max_n=12)
    _conclude(1, "Euler relations n<=12", reports, time.time() - t0, budget=5.0)


def test_criterion_02_generator_ribbons():
    t0 = time.time()
    reports = suite_generators(max_n=10)
    _conclude(2, "hook-ribbon generator identity n<=10", reports, time.time() - t0,
              budget=5.0)


def test_criterion_03_theta_ribbon_images():
    t0 = time.time()
    reports = suite_theta_ribbon(max_n=8)
    count = sum(1 for n in range(1, 9) for _ in compositions_of(n))
    assert count == 255  # all compositions of n <= 8
    _conclude(3, "descent-to-peak ribbon images n<=8", reports, time.time() - t0)


def test_criterion_04_duality_chain():
    t0 = time.time()
    reports = suite_duality(max_n=7)
    _conclude(4, "duality chain on ribbon/fundamental pairs n<=7", reports,
              time.time() - t0)


def test_criterion_05_peak_function_expansions():
    t0 = time.time()
    reports = suite_peak_functions(max_n=8)
    _conclude(5, "peak-function F/M expansions and the q_n specialization n<=8",
              reports, time.time() - t0)


def test_criterion_06_gessel():
    t0 = time.time()
    reports = suite_gessel(max_n=6)
    _conclude(6, "Gessel pairing vs permutation counts n<=6", reports,
              time.time() - t0, budget=30.0)


def test_criterion_07_algebra_structure():
    t0 = time.time()
    reports = suite_algebra(max_n=4)
    _conclude(7, "algebra relations, associativity, Frobenius form n<=4",
              reports, time.time() - t0)


def test_criterion_08_simple_decomposition():
    t0 = time.time()
    reports = suite_simples(max_n=5)
    _conclude(8, "idempotent splitting, types, endomorphism Clifford n<=5",
              reports, time.time() - t0)


def test_criterion_09_projective_pairings():
    t0 = time.time()
    reports = suite_projectives(max_n=4)
    # dual route: solve the intertwiner systems outright on the full grid at
    # n <= 3 and on a sample at n = 4
    for n in (2, 3):
        for a in compositions_of(n):
            pt = induce_clifford(projective_hecke(a))
            for b in compositions_of(n):
                st = induce_clifford(simple_hecke(b))
                if hom_space(pt, st).total_dim != projective_hom_dim(st, a):
                    reports.append({"claim": "hom-solve", "params": {},
                                    "status": "failed", "witness": (str(a), str(b))})
    sample = [((4,), (4,)), ((2, 2), (1, 3)), ((1, 1, 2), (2, 2)), ((3, 1), (2, 1, 1))]
    for aparts, bparts in sample:
        a, b = Composition(aparts), Composition(bparts)
        pt = induce_clifford(projective_hecke(a))
        st = induce_clifford(simple_hecke(b))
        if hom_space(pt, st).total_dim != projective_hom_dim(st, a):
            reports.append({"claim": "hom-solve", "params": {},
                            "status": "failed", "witness": (str(a), str(b))})
    _conclude(9, "projective/simple pairing dimensions n<=4 (dual routes)",
              reports, time.time() - t0, budget=600.0)


def test_criterion_10_cartan_square():
    t0 = time.time()
    reports = suite_cartan(max_n=6)
    # the rank witness must equal the enumerated strict-partition count
    for n, rep in enumerate(reports, start=1):
        assert rep["witness"]["rank"] == len(strict_partitions_of(n))
    _conclude(10, "Cartan square and image rank n<=6", reports, time.time() - t0)


def test_criterion_11_restriction_rule():
    t0 = time.time()
    reports = suite_restriction(max_n=8, module_max_n=6)
    # the worked rank-5 vector is reproduced on the nose
    rep = restriction_vectors(5)
    subs = _subsets_ordered(5)
    got = {subs[i]: v for i, v in rep["odd"][2]["vector"].items()}
    expected = {
        frozenset({1, 4, 5}): 1,
        frozenset({1, 3, 5}): -1,
        frozenset({1}): -1,
        frozenset({1, 3, 4}): 1,
    }
    if got != expected or not all(type(v) is int for v in got.values()):
        reports.append({"claim": "hook-vector", "params": {"n": 5, "k": 2},
                        "status": "failed", "witness": str(got)})
    _conclude(11, "Hecke restriction rule: classes n<=8, hook split n<=6",
              reports, time.time() - t0)


def test_criterion_12_corner_restriction():
    t0 = time.time()
    reports = suite_corner(max_n=5)
    ok, witness = verify_corner_restriction(Composition((1, 2, 2)))
    assert sorted(witness["terms"]) == sorted(
        [("2,2", 2), ("1,1,2", 2), ("1,3", 2), ("1,2,1", 2)]
    )
    reports.append({"claim": "corner-restriction", "params": {"alpha": "1,2,2"},
                    "status": "verified" if ok else "failed", "witness": witness})
    _conclude(12, "corner restriction n<=5 incl. the worked (1,2,2) case",
              reports, time.time() - t0)


def test_criterion_13_twisted_isomorphisms():
    t0 = time.time()
    reports = suite_twists(max_n=4)
    _conclude(13, "four twisted isomorphisms + reversal twists n<=4",
              reports, time.time() - t0)


def test_criterion_14_bialgebra_compatibility():
    t0 = time.time()
    reports = suite_bialgebra(max_total=5)
    _conclude(14, "induction classes multiply in the peak dual |a|+|b|<=5",
              reports, time.time() - t0)


def test_criterion_15_heisenberg_freeness():
    t0 = time.time()
    reports = suite_heisenberg(max_degree=8)
    _conclude(15, "lowering, module-algebra law, freeness certificate deg<=8",
              reports, time.time() - t0, budget=120.0)
