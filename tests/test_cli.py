import json
import re
from fractions import Fraction

import pytest

from peakhc import hopf
from peakhc.cli import main
from peakhc.combinat import Composition, PeakSet
from peakhc.expressions import (
    _HOPF_LETTERS,
    ParseError,
    algebra_element_to_json,
    element_to_json,
    parse_element,
)
from peakhc.hecke_clifford import gen_T, gen_c, multiply
from peakhc.hopf import convert, term
from peakhc.scalars import GaussianRational

from oracles import algebra_element_from_json, element_from_json, with_one_entry_changed


def test_parse_hopf_elements():
    x = parse_element("H[2,1] - 3*R[1,1,2]")
    assert x.algebra == "NSym"
    # mixed bases normalize to the pivot
    h = convert(x, "H")
    assert h.coefficient(Composition((2, 1))) == 1
    y = parse_element("K{2,4}@6")
    assert y.coeffs == {PeakSet(6, frozenset({2, 4})): 1}
    z = parse_element("M[1,2]")
    assert z.basis == "M"
    w = parse_element("2*(H[1] + H[2])")
    assert w.coefficient(Composition((1,))) == 2
    s = parse_element("1/2*p[3,1]")
    assert s.algebra == "Sym"
    str(parse_element("Xi{2}@4 + Xi{}@4"))


def test_parse_algebra_elements():
    x = parse_element("c{1,3}*T[2,1,3] + 2i*T[1,2,3]")
    assert x.rank == 3
    expected = multiply(
        multiply(gen_c(1, 3), gen_c(3, 3)),
        gen_T(1, 3),
    ) + gen_T(1, 3).scale(0) + parse_element("2i*T[1,2,3]")
    assert x.terms[(frozenset({1, 3}), (2, 1, 3))] == GaussianRational(1)
    assert x.terms[(frozenset(), (1, 2, 3))] == GaussianRational(0, 2)
    y = parse_element("T[2,1]*c{1}")
    assert y == multiply(gen_T(1, 2), gen_c(1, 2))
    z = parse_element("c{2}", rank=3)
    assert z.rank == 3


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_element("H[2")
    with pytest.raises(ParseError):
        parse_element("H[2] + T[2,1]")
    with pytest.raises(ParseError):
        parse_element("5")
    assert parse_element("c{1}").rank == 1  # rank inferred from the index
    with pytest.raises(ParseError):
        parse_element("c{}")  # rank not inferable
    with pytest.raises(ParseError):
        parse_element("K[2]")
    with pytest.raises(ParseError):
        parse_element("T[2,2]")


def test_parser_letters_are_the_table_tags_but_podd():
    assert set(_HOPF_LETTERS) == {basis for _algebra, basis in hopf._BASES} - {"podd"}
    with pytest.raises(ParseError, match="unrecognized token 'podd'"):
        parse_element("podd[3]")


@pytest.mark.parametrize(
    "algebra, basis", [key for key in hopf._BASES if key[1] != "podd"], ids=lambda v: v
)
def test_each_letter_parses_with_its_row_index_kind(algebra, basis):
    kind = hopf._BASES[(algebra, basis)][0]
    if kind == "peak":
        got = parse_element("%s{2}@4" % basis)
        want = hopf.term(algebra, basis, PeakSet(4, frozenset({2})))
        wrong = "%s[1,2]" % basis
    else:
        got = parse_element("%s[1,2]" % basis)
        want = hopf.term(algebra, basis, (2, 1) if kind == "part" else (1, 2))
        wrong = "%s{2}@4" % basis
    assert got == want
    with pytest.raises(ParseError):
        parse_element(wrong)


def test_hopf_symbols_and_algebra_factors_do_not_mix_in_either_order():
    for text in ("H[2] + T[2,1]", "T[2,1] + H[2]", "T[2,1]*H[2]", "(2*H[1]) - c{1}"):
        with pytest.raises(ParseError, match="cannot mix Hopf basis symbols with T/c factors"):
            parse_element(text)


def test_parser_reads_the_index_kind_from_the_table(monkeypatch):
    # negative control: a row changed in the table changes what parses
    assert parse_element("F[1,2]") == term("QSym", "F", (1, 2))
    monkeypatch.setitem(hopf._BASES, ("QSym", "F"), ("peak", None))
    with pytest.raises(ParseError, match="F wants a peak set"):
        parse_element("F[1,2]")


def test_parse_rejects_a_bad_clifford_index(capsys):
    # an index below 1 used to fail deep in the term order; a repeated one
    # was read as a single factor, although c{1}*c{1} is -1
    assert parse_element("c{1}*c{1}*T[1,2]") == parse_element("-1*T[1,2]")
    for text, named in (
        ("c{0}*T[1,2]", "Clifford index 0 is below 1 in c{0}"),
        ("c{1,1}*T[1,2]", "Clifford index 1 is repeated in c{1,1}"),
        ("c{2,0,2}", "Clifford index 0 is below 1"),
        ("c{1,2,1}", "Clifford index 1 is repeated"),
    ):
        with pytest.raises(ParseError, match=re.escape(named)):
            parse_element(text)
        assert main(["expand", text]) == 2
        assert named in capsys.readouterr().err


def test_parse_rejects_a_rank_below_the_need(capsys):
    # a given rank is kept, never raised to what the expression needs
    assert parse_element("c{2}", rank=3).rank == 3
    assert parse_element("T[2,1]", rank=2) == parse_element("T[2,1]")
    for text, rank in (("c{3}", 2), ("T[2,1]", 1), ("T[2,1]", -3), ("c{1}*T[1,3,2]", 2),
                       ("c{}", 0), ("c{}", -1)):
        with pytest.raises(ParseError, match="rank %d is below" % rank):
            parse_element(text, rank=rank)
        assert main(["expand", text, "--rank", str(rank)]) == 2
        assert "rank %d is below" % rank in capsys.readouterr().err
    assert main(["expand", "T[2,1]", "--rank", "3"]) == 0
    assert capsys.readouterr().out.strip() == "T[2,1,3]"


def test_json_roundtrip():
    for text in ("H[2,1] - 3*R[1,1,2]", "K{2,4}@6 + 2*K{}@6", "q[3,1]"):
        x = parse_element(text)
        doc = element_to_json(x)
        back = element_from_json(json.loads(json.dumps(doc)))
        assert back == x
    a = parse_element("c{1,3}*T[2,1,3] + 2i*T[1,2,3] - 1/2*T[3,2,1]")
    doc = algebra_element_to_json(a)
    back = algebra_element_from_json(json.loads(json.dumps(doc)))
    assert back == a


def test_cli_expand(capsys):
    code = main(["expand", "Q[4]", "--basis", "H", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["algebra"] == "NSym" and doc["basis"] == "H"
    # Q_4 = 2(H_13 + H_31 + H_1111 - H_121 - H_211): five surviving terms,
    # all with coefficient +-2 (checked against the hook-ribbon identity)
    assert len(doc["terms"]) == 5
    assert {t["coeff"] for t in doc["terms"]} == {"2", "-2"}
    back = element_from_json(doc)
    assert back == convert(term("NSym", "Q", Composition((4,))), "H")


def test_cli_convert_peak(capsys):
    code = main(["convert", "Q[2]", "--basis", "Xi", "--algebra", "Peak"])
    assert code == 0
    assert "Xi{}@2" in capsys.readouterr().out


def test_cli_pair(capsys):
    assert main(["pair", "H[2,1]", "M[2,1]"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["pair", "Xi{}@1 + Xi{}@1", "K{}@1"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_act(capsys):
    code = main(["act", "Xi{}@1", "N[1,1]"])
    assert code == 0
    assert "K{}@1" in capsys.readouterr().out


def test_cli_module_decompose(capsys):
    code = main(["module", "decompose", "--alpha", "2,1", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summands"] == [
        {"peaks": [], "n": 3, "multiplicity": 1},
        {"peaks": [2], "n": 3, "multiplicity": 2},
    ]


def test_cli_module_decompose_above_the_peak_set_guard(capsys):
    # (1, 2, ..., 2, 1) of 40: its window is all of [40], F(40) peak sets
    alpha = ",".join(["1"] + ["2"] * 19 + ["1"])
    assert main(["module", "decompose", "--alpha", alpha]) == 2
    assert "resource limit" in capsys.readouterr().err
    # a one-part composition of 24 has an empty window: one summand
    assert main(["module", "decompose", "--alpha", "24"]) == 0
    assert capsys.readouterr().out == "peaks [] multiplicity 1\n"


def test_cli_module_dump_check(tmp_path, capsys):
    out = tmp_path / "mod.json"
    code = main(
        ["module", "dump", "--kind", "induced-simple", "--alpha", "2", "--out", str(out)]
    )
    assert code == 0
    code = main(["module", "check", str(out)])
    assert code == 0
    assert "verified" in capsys.readouterr().out


def test_cli_module_check_fails_a_broken_relation(tmp_path, capsys):
    # a well-formed module that is not a module is a failed case (exit 1),
    # not a usage error (exit 2)
    out = tmp_path / "mod.json"
    assert main(
        ["module", "dump", "--kind", "induced-simple", "--alpha", "2", "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    for entry in doc["actions"]["T1"]:
        entry[2] = {part: str(2 * Fraction(entry[2][part])) for part in ("re", "im")}
    out.write_text(json.dumps(doc))
    assert main(["module", "check", str(out), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "failed"
    assert report["witness"] == "relation T_1 T_1 = -T_1 fails"


def test_cli_module_check_fails_an_action_that_breaks_the_grading(tmp_path, capsys):
    # an even-row, odd-column entry in a T action breaks the super grading:
    # a failed case (exit 1), like a failed relation
    out = tmp_path / "mod.json"
    assert main(
        ["module", "dump", "--kind", "induced-simple", "--alpha", "2", "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert [b["parity"] for b in doc["basis"][:2]] == [0, 1]
    doc["actions"]["T1"].append([0, 1, {"re": "1", "im": "0"}])
    out.write_text(json.dumps(doc))
    assert main(["module", "check", str(out), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "failed"
    assert report["witness"] == "action ('T', 1) is not parity-homogeneous"


@pytest.mark.parametrize("entry", [[9, 0], [0, 9]])
def test_cli_module_check_rejects_out_of_range_entry(tmp_path, capsys, entry):
    out = tmp_path / "mod.json"
    assert main(
        ["module", "dump", "--kind", "induced-simple", "--alpha", "2", "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    doc["actions"]["T1"].append(entry + [{"re": "1", "im": "0"}])
    out.write_text(json.dumps(doc))
    assert main(["module", "check", str(out)]) == 2
    assert "outside" in capsys.readouterr().err


def test_cli_module_check_rejects_missing_key(tmp_path, capsys):
    out = tmp_path / "mod.json"
    assert main(
        ["module", "dump", "--kind", "induced-simple", "--alpha", "2", "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    del doc["basis"][0]["label"]
    out.write_text(json.dumps(doc))
    assert main(["module", "check", str(out)]) == 2
    assert "'label'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "corrupt, named",
    [
        (lambda doc: doc["actions"]["c1"][0].__setitem__(2, {"re": "-1"}), "'im'"),
        (lambda doc: doc["actions"]["c1"][0].__setitem__(2, 5), "action c1 entry"),
        (lambda doc: doc.__setitem__("blocks", "2"), "'blocks'"),
        (lambda doc: doc.__setitem__("algebra", "bogus"), "'algebra'"),
        (lambda doc: doc.__setitem__("rank", 99), "'rank'"),
    ],
    ids=["entry-without-im", "entry-not-an-object", "blocks-not-a-list", "unknown-algebra",
         "rank-not-the-blocks-sum"],
)
def test_cli_module_check_rejects_malformed_values(tmp_path, capsys, corrupt, named):
    out = tmp_path / "mod.json"
    assert main(
        ["module", "dump", "--kind", "induced-simple", "--alpha", "2", "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    corrupt(doc)
    out.write_text(json.dumps(doc))
    assert main(["module", "check", str(out)]) == 2
    assert named in capsys.readouterr().err


def test_cli_verify(capsys):
    code = main(["verify", "euler", "--max-n", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "VERIFIED" in out and "0 failed" in out
    code = main(["verify", "generators", "--max-n", "5", "--format", "json"])
    assert code == 0
    reports = json.loads(capsys.readouterr().out)
    assert all(r["status"] == "verified" for r in reports)


def test_cli_verify_reports_a_broken_relation_as_a_failed_case(monkeypatch, capsys):
    # a module that fails a defining relation inside a report fails that
    # report alone: exit 1, not the usage-error exit 2, and every report kept
    from peakhc import characteristic

    restrict = characteristic.restrict_hecke

    def broken(module):
        hecke = restrict(module)
        if ("T", 1) not in hecke.actions:
            return hecke
        return with_one_entry_changed(hecke, ("T", 1), lambda v: -v)

    monkeypatch.setattr(characteristic, "restrict_hecke", broken)
    assert main(["verify", "restriction", "--max-n", "3", "--format", "json"]) == 1
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 6
    (last,) = [r for r in reports if r["claim"] == "restriction-vectors" and r["params"]["n"] == 3]
    assert last["status"] == "failed"
    assert last["witness"] == "relation T_1 T_2 T_1 = T_2 T_1 T_2 fails"


def test_cli_usage_errors(capsys):
    assert main(["expand", "H[2"]) == 2
    assert main(["expand", "H[2]", "--basis", "Q"]) == 2
    capsys.readouterr()


def test_cli_alpha_with_an_empty_part_is_a_usage_error(capsys):
    for alpha in ("2,,1", "2,", ",2", ","):
        assert main(["module", "decompose", "--alpha", alpha]) == 2, alpha
        out, err = capsys.readouterr()
        assert out == "" and "empty part" in err, alpha
    # the empty string stays the empty composition
    assert main(["module", "decompose", "--alpha", "", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == []
    assert main(["module", "info", "--kind", "simple", "--alpha", "2,1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 3


def test_cli_bounds_below_one_are_usage_errors(monkeypatch, capsys):
    # a bound below 1 verifies nothing: no suite runs and the exit code is 2
    import peakhc.cli as cli

    def unreachable(name, max_n=None, max_degree=None):
        raise AssertionError("no suite runs under a bound below 1")

    monkeypatch.setattr(cli, "run_suite", unreachable)
    for argv, flag in (
        (["verify", "all", "--max-n", "-3", "--strict"], "--max-n"),
        (["verify", "all", "--max-n", "0"], "--max-n"),
        (["verify", "heisenberg", "--max-degree", "-2"], "--max-degree"),
        (["verify", "freeness", "--max-n", "2", "--max-degree", "0"], "--max-degree"),
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "%s must be at least 1" % flag in err, argv


def test_cli_expand_i_literals(capsys):
    # 0i is the rational 0, so it is a valid Hopf coefficient; 2i is not
    assert parse_element("0i*F[1]") == parse_element("0*F[1]")
    assert main(["expand", "0i*F[1]"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["expand", "2i*F[1]"]) == 2
    assert "rational" in capsys.readouterr().err


def test_cli_expand_rejects_a_zero_denominator(capsys):
    for text in ("1/0*F[1]", "1/0i*T[2,1]"):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_element(text)
    assert main(["expand", "1/0*F[1]"]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_cli_strict_skip(monkeypatch, capsys):
    # a skipped-resource case flips the exit code only under --strict
    import peakhc.cli as cli

    def fake(name, max_n=None, max_degree=None):
        return [
            {"claim": "x", "params": {}, "status": "verified", "witness": None},
            {"claim": "y", "params": {}, "status": "skipped-resource", "witness": None},
        ]

    monkeypatch.setattr(cli, "run_suite", fake)
    assert main(["verify", "euler"]) == 0
    assert main(["verify", "euler", "--strict"]) == 3
    capsys.readouterr()


def test_cli_jobs_rejected(capsys):
    # the thread-pool path was slower than serial and is gone; the option
    # is now an argparse usage error
    with pytest.raises(SystemExit) as exc:
        main(["verify", "generators", "--max-n", "4", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_cli_guarded_suite_reports_skip(capsys):
    # the freeness certificate is guarded at degree <= 10: the suite gives
    # one skipped-resource report instead of aborting the run
    code = main(["verify", "freeness", "--max-degree", "11", "--format", "json"])
    assert code == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 1
    (r,) = reports
    assert r["status"] == "skipped-resource"
    assert r["claim"] == "freeness"
    assert r["params"] == {"max_degree": 11}
    assert "guarded" in r["witness"]
    assert main(["verify", "freeness", "--max-degree", "11", "--strict"]) == 3
    assert "1 skipped" in capsys.readouterr().out


def test_cli_verify_all_keeps_unguarded_reports(monkeypatch, capsys):
    import peakhc.cli as cli
    import peakhc.verification as verification

    suites = {k: verification.SUITES[k] for k in ("euler", "freeness", "generators")}
    monkeypatch.setattr(verification, "SUITES", suites)
    assert not hasattr(cli, "SUITES")  # "all" is expanded by run_suite alone
    code = main(["verify", "all", "--max-n", "3", "--max-degree", "11", "--format", "json"])
    assert code == 0
    reports = json.loads(capsys.readouterr().out)
    by_status = {}
    for r in reports:
        by_status.setdefault(r["status"], []).append(r["claim"])
    assert by_status["skipped-resource"] == ["freeness"]
    assert set(by_status["verified"]) == {"euler", "generator-ribbons"}
    assert len(by_status["verified"]) == 6


def test_cli_max_n_clamp_note(monkeypatch, capsys):
    # a suite's default bound is also its ceiling; raising --max-n past it
    # prints one note per clamped suite on stderr and changes nothing else
    import peakhc.verification as verification

    def stub(max_n, **_kw):
        return [{"claim": "stub", "params": {"max_n": max_n}, "status": "verified",
                 "witness": None}]

    suites = {"high": (stub, {"max_n": 12}), "low": (stub, {"max_n": 3})}
    monkeypatch.setattr(verification, "SUITES", suites)
    assert main(["verify", "all", "--max-n", "9", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == ["note: --max-n 9 clamped to 3 for suite low"]
    assert [r["params"] for r in json.loads(out)] == [{"max_n": 9}, {"max_n": 3}]
    assert main(["verify", "all", "--max-n", "3", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert [r["params"] for r in json.loads(out)] == [{"max_n": 3}, {"max_n": 3}]


def test_freeness_guard_checked_before_the_batteries(monkeypatch):
    # past the certificate's bound the heisenberg suite must not run its
    # lowering loop first: the one skipped-resource report comes at once
    import peakhc.verification as verification
    from peakhc.heisenberg import MAX_FREENESS_DEGREE

    def ran(*_args, **_kw):
        raise AssertionError("suite body ran past the freeness guard")

    monkeypatch.setattr(verification, "fock_action_on_word", ran)
    monkeypatch.setattr(verification, "free_basis_over_omega", ran)
    for name in ("heisenberg", "freeness"):
        reports = verification.run_suite(name, max_degree=MAX_FREENESS_DEGREE + 1)
        assert [(r["claim"], r["status"]) for r in reports] == [(name, "skipped-resource")]
        assert "guarded at degree <= %d" % MAX_FREENESS_DEGREE in reports[0]["witness"]
