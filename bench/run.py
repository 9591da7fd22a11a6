"""Cold-process benchmark of peakhc.

    python3 bench/run.py --workload {modules,hopf,verify-n4} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; ``peakhc`` is imported from its ``src``.
Every pass runs in a fresh interpreter (``bench/child.py``), one child at a
time, because the package's ``lru_cache`` tables start empty in every
``peakhc`` process and a second pass in the same process would time cache
hits.  Every case of every pass is checked against the value the paper
states.

``--trace 0`` starts passes until ``--seconds`` have gone by and reports the
medians of the end-to-end metrics; before each pass it also starts
SETUP_SAMPLES children that stop after set-up, for more ``setup_s``
samples.  ``--trace 1`` runs an untraced and a
traced pass in turn, twice, checks that every work count of the two traced
passes repeats exactly, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (cases) and ``metrics``.  Exit code 0:
every output was right; 1: some output was wrong or a count did not repeat;
2: the benchmark itself could not run (nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing
import workloads
from child import NOMINAL_REF_S

# name, unit; each the median over the passes of one run.  The two times
# are scaled to a host that runs child.reference_loop in NOMINAL_REF_S.
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]
SETUP_SAMPLES = 3  # set-up-only children before each pass
DEADLINE_S = 170  # a run ends before 180 s even when a pass hangs
SPANS_DIR = os.path.join(".bench_build", "trace")


class BenchError(RuntimeError):
    """The benchmark could not run a pass (not a wrong output)."""


def run_pass(root: str, workload: str, seed: int, deadline: float, extra=()) -> dict:
    """One pass in a fresh interpreter; returns the child's report with
    ``setup_s`` (from starting the interpreter until ``peakhc`` is imported
    and the inputs are made) and ``wall_s`` scaled to the nominal host, and
    the measured seconds as ``measured_setup_s`` and ``measured_wall_s``."""
    cmd = [sys.executable, os.path.join("bench", "child.py"),
           "--workload", workload, "--seed", str(seed), *extra]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError("a %s pass did not end before the deadline" % workload)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("a %s pass failed (exit %d):\n%s"
                         % (workload, proc.returncode, proc.stderr[-4000:]))
    doc = json.loads(lines[-1])
    doc["measured_setup_s"] = doc["setup_done"] - start
    doc["setup_s"] = doc["measured_setup_s"] * NOMINAL_REF_S / doc["setup_ref_s"]
    if doc.get("wall_refs") is not None:
        doc["measured_wall_s"] = doc["wall_s"]
        doc["wall_s"] = doc["wall_refs"] * NOMINAL_REF_S
    return doc


def tail_line(values: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "no percentile has ten samples beyond it (%d samples)" % n
    return "p%d %.6g (%d samples)" % (100 * (n - 10) // n, sorted(values)[n - 11], n)


def check_cases(passes: list) -> tuple:
    attempted = failed = 0
    for doc in passes:
        for name, ok, detail in doc["cases"]:
            attempted += 1
            if not ok:
                failed += 1
                if failed <= 10:
                    print("wrong: %s: %s" % (name, detail), file=sys.stderr)
    return attempted, failed


def measure(root, args, deadline) -> tuple:
    passes, setups = [], []
    start = time.monotonic()
    while not passes or time.monotonic() - start < args.seconds:
        setups += [run_pass(root, args.workload, args.seed, deadline, ["--setup-only"])
                   for _ in range(SETUP_SAMPLES)]
        passes.append(run_pass(root, args.workload, args.seed, deadline))
    setups += passes
    metrics = {}
    for name, unit in END_TO_END:
        values = [p[name] for p in (setups if name == "setup_s" else passes)]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print("%-12s median %.6g %s; %s" % (name, metrics[name]["value"], unit,
                                           tail_line(values)))
    for name, sample in (("measured_wall_s", passes), ("measured_setup_s", setups)):
        print("%-17s median %.6g s, not scaled" % (name, statistics.median(
            p[name] for p in sample)))
    return passes, metrics, True


def trace(root, args, deadline) -> tuple:
    """Untraced and traced passes in turn, twice; the per-layer metrics come
    from the traced ones, whose counts must agree exactly."""
    os.makedirs(os.path.join(root, SPANS_DIR), exist_ok=True)
    plain, traced = [], []
    for k in (1, 2):
        plain.append(run_pass(root, args.workload, args.seed, deadline))
        spans = os.path.join(SPANS_DIR, "%s-%d-%d.json" % (args.workload, args.seed, k))
        traced.append(run_pass(root, args.workload, args.seed, deadline, ["--spans", spans]))
    first, second = (t["layers"] for t in traced)
    counts = set(tracing.count_metric_names())
    repeat = True
    for name in sorted(counts):
        if first[name] != second[name]:
            repeat = False
            print("count did not repeat: %s %s != %s" % (name, first[name], second[name]),
                  file=sys.stderr)
    first["trace.overhead_s"] = second["trace.overhead_s"] = (
        statistics.median(t["wall_s"] for t in traced)
        - statistics.median(p["measured_wall_s"] for p in plain)
    )
    metrics = {}
    for name, unit in tracing.per_layer_metrics():
        value = first[name] if name in counts else statistics.median([first[name], second[name]])
        metrics[name] = {"value": value, "unit": unit}
        print("%-56s %.6g %s" % (name, value, unit))
    return plain + traced, metrics, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cold-process benchmark of peakhc")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "peakhc", "__init__.py")):
        print("no peakhc sources under %s" % os.path.join(root, "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        passes, metrics, repeat = (trace if args.trace else measure)(root, args, deadline)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 2
    attempted, failed = check_cases(passes)
    correct = failed == 0 and repeat
    print("workload %s seed %d: %d passes, %d cases, %d failed"
          % (args.workload, args.seed, len(passes), attempted, failed))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
