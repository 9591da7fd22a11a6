"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

They are kept out of the package's test suite because two of them start
benchmark passes in child interpreters (about ten seconds each).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_installer_rebinds_every_alias():
    pk = tracing.peakhc_modules()
    bindings = {}
    for name, modname, attr in tracing.FUNCTIONS:
        if "." in attr:
            continue
        original = getattr(pk[modname], attr)
        bindings[name] = (original, [
            (m, key) for m in pk.values() for key, v in vars(m).items() if v is original
        ])
    # the aliases the tracer must not miss
    assert (pk["supermodules"], "nullspace") in bindings["linalg.nullspace"][1]
    assert (pk["verification"], "split_simple") in bindings["supermodules.split_simple"][1]
    tracer = tracing.Tracer()
    tracer.install(pk)
    try:
        for name, (original, where) in bindings.items():
            for mod, key in where:
                wrapped = getattr(mod, key)
                assert wrapped is not original, (name, mod.__name__, key)
                assert wrapped.__wrapped__ is original
        assert pk["linalg"].Echelon.add.__wrapped__ is not None
        assert pk["supermodules"].Supermodule.check.__wrapped__ is not None
        fn, _defaults = pk["verification"].SUITES["simples"]
        assert fn.__wrapped__ is pk["verification"].suite_simples.__wrapped__
    finally:
        tracer.uninstall()
    for name, (original, where) in bindings.items():
        assert all(getattr(mod, key) is original for mod, key in where)
    assert not hasattr(pk["linalg"].Echelon.add, "__wrapped__")


def test_self_times_add_up_to_at_most_wall():
    import time

    pk = tracing.peakhc_modules()
    tracer = tracing.Tracer()
    tracer.install(pk)
    try:
        start = time.perf_counter()
        ok, _ = workloads._split_case(pk, (2, 1, 2))
        assert ok
        ok, _ = workloads._duality_case(pk, (1, 2), (2, 1))
        assert ok
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    layers = tracer.metrics(wall)
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert 0 < self_total <= wall
    assert layers["supermodules.hom_space.calls"] > 0
    assert layers["supermodules.hom_space.total_s"] <= wall
    assert layers["scalars.gauss_new"] > 0 and layers["scalars.fraction_new"] > 0
    assert set(layers) == {n for n, _u in tracing.per_layer_metrics()}


def test_speed_probe_counts_reference_loops():
    import child

    probe = child.SpeedProbe()
    probe.samples = [(1.0, 0.001), (2.0, 0.002), (3.5, 0.001)]
    wall, refs = probe.measure(0.0, 3.0)  # the last probe came after the end
    assert abs(wall - 2.997) < 1e-12
    assert abs(refs - (1.0 / 0.001 + 0.999 / 0.002 + 0.998 / 0.002)) < 1e-9


def test_inputs_depend_only_on_the_seed():
    for make, _cases in workloads.WORKLOADS.values():
        assert make(7) == make(7)
    assert workloads.compositions(4) == [
        (4,), (1, 3), (2, 2), (1, 1, 2), (3, 1), (1, 2, 1), (2, 1, 1), (1, 1, 1, 1)
    ]


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [m["name"] for m in doc["end_to_end"]] == [n for n, _u in run.END_TO_END]
    assert [m["unit"] for m in doc["end_to_end"]] == [u for _n, u in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == tracing.per_layer_metrics()
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.WORKLOADS)


def _checkout(tmp_path, with_sources=True):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src", "peakhc"), tmp_path / "src" / "peakhc",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _bench(cwd, workload):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_wrong_expected_value_exits_nonzero(tmp_path):
    root = _checkout(tmp_path)
    path = root / "bench" / "workloads.py"
    text = path.read_text()
    assert "VERIFY_REPORTS = 71\n" in text
    path.write_text(text.replace("VERIFY_REPORTS = 71\n", "VERIFY_REPORTS = 70\n"))
    proc = _bench(root, "verify-n4")
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    root = _checkout(tmp_path, with_sources=False)
    proc = _bench(root, "hopf")
    assert proc.returncode == 2
    assert proc.stdout == ""
