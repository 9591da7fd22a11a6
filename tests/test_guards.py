"""Every enumeration guard is a named module constant: one past it, the
guarded function raises ``ResourceLimitError``, whose message names the
constant, before it enumerates anything, and the suites turn a guarded case
into a skipped-resource report."""

import types
from pathlib import Path

import pytest

from peakhc import characteristic, combinat, hecke_clifford, heisenberg, supermodules, verification
from peakhc.combinat import Composition, ResourceLimitError


def _boom(*_args, **_kw):
    raise AssertionError("enumerated past the guard")


def _no_itertools(monkeypatch):
    stub = types.SimpleNamespace(permutations=_boom, combinations=_boom)
    monkeypatch.setattr(combinat, "itertools", stub)


def _row(n):
    return Composition((n,))


def test_enumeration_guards(monkeypatch):
    _no_itertools(monkeypatch)
    with pytest.raises(ResourceLimitError):
        combinat.descent_class(_row(combinat.MAX_ENUM_N + 1))
    with pytest.raises(ResourceLimitError):
        combinat.min_coset_reps(1, combinat.MAX_ENUM_N)


def test_peak_set_guard(monkeypatch):
    # the count is read before any peak set is built
    monkeypatch.setattr(combinat, "PeakSet", _boom)
    with pytest.raises(ResourceLimitError):
        combinat.peak_sets_within(40, range(1, 41))
    monkeypatch.setattr(combinat, "MAX_PEAK_SETS", 54)  # 55 peak sets in [10]
    with pytest.raises(ResourceLimitError):
        combinat.peak_sets_within(10, range(2, 10))
    # the ribbon window of (1, 2, ..., 2, 1) is all of [n]
    a = Composition((1,) + (2,) * 19 + (1,))
    with pytest.raises(ResourceLimitError):
        characteristic.decompose_projective(a)


def test_peak_set_guard_admits_its_bound(monkeypatch):
    monkeypatch.setattr(combinat, "MAX_PEAK_SETS", 55)
    assert len(combinat.peak_sets_within(10, range(2, 10))) == 55


def test_characteristic_guards(monkeypatch):
    for name in ("descent_class", "_descent_pair_counts", "_ribbon_in_f", "pairing",
                 "induce_clifford", "restrict_corner"):
        monkeypatch.setattr(characteristic, name, _boom)
    a = _row(characteristic.MAX_DESCENT_PAIR_N + 1)
    with pytest.raises(ResourceLimitError):
        characteristic.cartan_image(a)
    with pytest.raises(ResourceLimitError):
        characteristic.gessel_pairing(a, a)
    with pytest.raises(ResourceLimitError):
        characteristic.verify_corner_restriction(_row(characteristic.MAX_CORNER_N + 1))


def test_supermodule_guards(monkeypatch):
    small = supermodules.induce_clifford(supermodules.simple_hecke(_row(1)))
    large = supermodules.induce_clifford(
        supermodules.simple_hecke(_row(supermodules.MAX_PARABOLIC_RANK))
    )
    for name in ("induce_clifford", "outer_tensor", "min_coset_reps", "_spin"):
        monkeypatch.setattr(supermodules, name, _boom)
    with pytest.raises(ResourceLimitError):
        supermodules.parabolic_induce(small, large)
    with pytest.raises(ResourceLimitError):
        supermodules.restriction_vectors(supermodules.MAX_RESTRICTION_N + 1)
    # MAX_HOM_CELLS + 1 cells: lower the constant to one below this system
    monkeypatch.setattr(supermodules, "MAX_HOM_CELLS", small.dim * small.dim - 1)
    with pytest.raises(ResourceLimitError):
        supermodules.hom_space(small, small)


def test_guarded_restriction_vectors_skip_one_case(monkeypatch):
    monkeypatch.setattr(supermodules, "MAX_RESTRICTION_N", 2)
    reports = verification.suite_restriction(max_n=1, module_max_n=3)
    vectors = [r for r in reports if r["claim"] == "restriction-vectors"]
    assert [(r["params"], r["status"]) for r in vectors] == [
        ({"n": 1}, "verified"),
        ({"n": 2}, "verified"),
        ({"n": 3}, "skipped-resource"),
    ]
    assert vectors[-1]["witness"] == "restriction vectors guarded at n <= 2 (MAX_RESTRICTION_N)"
    assert [r["status"] for r in reports if r["claim"] != "restriction-vectors"] == [
        "verified"
    ]


def test_corner_suite_skips_only_its_guarded_rank():
    reports = verification.suite_corner(characteristic.MAX_CORNER_N + 1)
    assert [r["status"] for r in reports] == ["verified"] * 5 + ["skipped-resource"]
    assert [r["params"] for r in reports] == [{"n": n} for n in range(1, 7)]
    # the skipped rank names the guard that stopped it
    with pytest.raises(ResourceLimitError) as exc:
        characteristic.verify_corner_restriction((characteristic.MAX_CORNER_N + 1,))
    assert reports[-1]["witness"] == str(exc.value)
    assert "guarded at n <= %d" % characteristic.MAX_CORNER_N in reports[-1]["witness"]


def test_algebra_relations_guard_fires_before_the_basis(monkeypatch):
    # one past the table-sweep guard the rank is skipped before the 2^n n!
    # basis is enumerated or a relation is checked, with the guard's message
    n = hecke_clifford.MAX_TABLE_SWEEP_N + 1
    with pytest.raises(ResourceLimitError) as exc:
        hecke_clifford.associativity_failure(n)
    for name in ("algebra_basis", "_failing_product_relation"):
        monkeypatch.setattr(verification, name, _boom)
    report = verification._guarded(
        "algebra-relations", {"n": n}, verification._algebra_relations_rank, n
    )
    assert report["status"] == "skipped-resource"
    assert report["witness"] == str(exc.value)


def test_frobenius_form_guard_fires_before_the_tables(monkeypatch):
    # one past the table-sweep guard the certificate raises before it reads a
    # table, and the frobenius-form report of that rank alone is skipped
    n = hecke_clifford.MAX_TABLE_SWEEP_N + 1
    with pytest.raises(ResourceLimitError) as exc:
        hecke_clifford.frobenius_failure(n)
    assert exc.value.guard == "MAX_TABLE_SWEEP_N"
    assert str(exc.value).endswith("(MAX_TABLE_SWEEP_N)")
    for name in ("_perms", "_subsets_ordered", "_morphism_generator_images"):
        monkeypatch.setattr(hecke_clifford, name, _boom)
    report = verification._guarded(
        "frobenius-form", {"n": n}, verification._frobenius_form_rank, n
    )
    assert report["status"] == "skipped-resource"
    assert report["guard"] == "MAX_TABLE_SWEEP_N"
    assert report["witness"] == str(exc.value)


@pytest.mark.parametrize(
    "suite, owner, guard, value",
    [
        ("simples", supermodules, "MAX_HOM_CELLS", 16),  # Ind S of rank 3 has 64 cells
        ("cartan", characteristic, "MAX_DESCENT_PAIR_N", 2),
        ("gessel", characteristic, "MAX_DESCENT_PAIR_N", 2),
    ],
)
def test_a_guarded_rank_keeps_the_earlier_reports(monkeypatch, suite, owner, guard, value):
    monkeypatch.setattr(owner, guard, value)
    fn, _defaults = verification.SUITES[suite]
    statuses = [r["status"] for r in fn(max_n=3)]
    assert statuses[:2] == ["verified", "verified"]
    assert statuses[2] == "skipped-resource"


def test_a_guard_holds_on_warm_caches(monkeypatch):
    # the cached descent-pair table and ribbon images of rank 3 are read
    # only after the guard, so lowering it still stops rank 3
    a = _row(3)
    characteristic.cartan_image(a)
    characteristic.gessel_pairing(a, a)
    monkeypatch.setattr(characteristic, "MAX_DESCENT_PAIR_N", 2)
    with pytest.raises(ResourceLimitError):
        characteristic.cartan_image(a)
    with pytest.raises(ResourceLimitError):
        characteristic.gessel_pairing(a, a)


def _small_clifford():
    return supermodules.induce_clifford(supermodules.simple_hecke(_row(1)))


def _trip_parabolic(monkeypatch):
    small = _small_clifford()
    monkeypatch.setattr(supermodules, "MAX_PARABOLIC_RANK", 1)
    supermodules.parabolic_induce(small, small)


def _trip_hom_cells(monkeypatch):
    small = _small_clifford()
    monkeypatch.setattr(supermodules, "MAX_HOM_CELLS", small.dim * small.dim - 1)
    supermodules.hom_space(small, small)


# every ResourceLimitError raised in the package, and the name of its bound
GUARD_TRIPS = [
    ("MAX_PEAK_SETS", lambda mp: combinat.peak_sets_within(40, range(1, 41))),
    ("MAX_ENUM_N", lambda mp: combinat.descent_class(_row(combinat.MAX_ENUM_N + 1))),
    ("MAX_TABLE_SWEEP_N",
     lambda mp: hecke_clifford.frobenius_failure(hecke_clifford.MAX_TABLE_SWEEP_N + 1)),
    ("MAX_DESCENT_PAIR_N",
     lambda mp: characteristic.cartan_image(_row(characteristic.MAX_DESCENT_PAIR_N + 1))),
    ("MAX_DESCENT_PAIR_N",
     lambda mp: characteristic.gessel_pairing(*[_row(characteristic.MAX_DESCENT_PAIR_N + 1)] * 2)),
    ("MAX_CORNER_N",
     lambda mp: characteristic.verify_corner_restriction(_row(characteristic.MAX_CORNER_N + 1))),
    ("MAX_PROJECTIVE_N",
     lambda mp: supermodules.projective_hecke(_row(supermodules.MAX_PROJECTIVE_N + 1))),
    ("MAX_PARABOLIC_RANK", _trip_parabolic),
    ("MAX_HOM_CELLS", _trip_hom_cells),
    ("MAX_RESTRICTION_N",
     lambda mp: supermodules.restriction_vectors(supermodules.MAX_RESTRICTION_N + 1)),
    ("max_degree", lambda mp: heisenberg.filtration_component(1, 3, max_degree=2)),
    ("MAX_FREENESS_DEGREE",
     lambda mp: heisenberg.guard_freeness_degree(heisenberg.MAX_FREENESS_DEGREE + 1)),
]


@pytest.mark.parametrize("name, trip", GUARD_TRIPS, ids=[
    "%s-%d" % (name, k) for k, (name, _trip) in enumerate(GUARD_TRIPS)])
def test_every_guard_message_names_its_bound(monkeypatch, name, trip):
    with pytest.raises(ResourceLimitError) as exc:
        trip(monkeypatch)
    assert str(exc.value).endswith("(%s)" % name)
    assert exc.value.guard == name


def test_skipped_reports_name_their_guard():
    # a rank skipped inside a suite and a suite skipped before it starts both
    # carry the bound as a field beside the message; no other report has it
    reports = verification.suite_corner(characteristic.MAX_CORNER_N + 1)
    assert [r.get("guard") for r in reports] == [None] * 5 + ["MAX_CORNER_N"]
    assert reports[-1]["witness"].endswith("(MAX_CORNER_N)")
    (suite,) = verification.run_suite(
        "freeness", max_degree=heisenberg.MAX_FREENESS_DEGREE + 1)
    assert suite["status"] == "skipped-resource"
    assert suite["guard"] == "MAX_FREENESS_DEGREE"
    assert suite["witness"].endswith("(MAX_FREENESS_DEGREE)")


def test_guard_trips_cover_every_raise():
    package = Path(combinat.__file__).parent
    raises = sum(p.read_text().count("raise ResourceLimitError(") for p in package.glob("*.py"))
    assert raises == len(GUARD_TRIPS)


def test_coverage_bounds_are_stated_in_params(monkeypatch):
    # above HOM_CHECK_MAX_N only the class route runs, and every report of
    # the two suites names the bound of its module-backed route
    reports = verification.suite_restriction(max_n=2, module_max_n=0)
    assert [r["params"] for r in reports] == [
        {"n": n, "hom_check_max_n": characteristic.HOM_CHECK_MAX_N} for n in (1, 2)
    ]
    reports = verification.suite_diagrams(max_n=2)
    assert [r["params"] for r in reports] == [
        {"n": n, "module_square_max_n": characteristic.MODULE_SQUARE_MAX_N} for n in (1, 2)
    ]
    monkeypatch.setattr(characteristic, "hecke_simple_hom_dims", _boom)
    assert characteristic.verify_restriction_to_hecke(_row(characteristic.HOM_CHECK_MAX_N + 1))[0]
    with pytest.raises(AssertionError):
        characteristic.verify_restriction_to_hecke(_row(characteristic.HOM_CHECK_MAX_N))
