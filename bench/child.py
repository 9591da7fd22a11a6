"""One benchmark pass in a fresh interpreter.

    python3 bench/child.py --workload NAME --seed N [--spans PATH | --setup-only]

Imports ``peakhc`` from ``src`` (the parent sets ``PYTHONPATH``), makes the
workload's inputs, runs and checks every case, and prints one JSON line:
the monotonic time at which set-up ended and the reference loop's time
just after it, the pass's wall time in seconds and in reference loops
(``SpeedProbe``), ``ru_maxrss`` and every case's status.  With ``--spans`` the pass runs under the outside tracer instead of
the probe, adds the per-layer metrics and writes the spans to PATH.  With
``--setup-only`` it stops after set-up and prints only the two set-up
figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

import tracing
import workloads

PROBE_INTERVAL_S = 0.05
# reported seconds are those of a host that runs reference_loop in 1 ms
NOMINAL_REF_S = 0.001


def reference_loop():
    """Fixed pure-Python work (about 1 ms with CPython 3.11) that times how
    fast the host runs the interpreter at the moment; never change it, or
    figures from before and after stop being comparable."""
    s = Fraction(0)
    for i in range(1, 250):
        s += Fraction(i % 7 + 1, i % 5 + 1)
    return s


def time_reference(repeat: int = 5) -> float:
    """Median time of ``reference_loop`` right now."""
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t)
    return sorted(times)[repeat // 2]


class SpeedProbe:
    """Times ``reference_loop`` every PROBE_INTERVAL_S from a SIGALRM handler
    in the measured thread.  The 2-core container of the baseline in
    README.md ran at two speeds a factor two apart, in phases of several
    seconds; dividing each stretch of the pass by the probe next to it
    cancels that."""

    def __init__(self):
        self.samples = []  # (start, duration) of each probe

    def _tick(self, _signum, _frame):
        t = time.perf_counter()
        reference_loop()
        self.samples.append((t, time.perf_counter() - t))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, start: float, end: float) -> tuple:
        """(wall seconds without the probes, length in reference loops)."""
        samples = [(t, d) for t, d in self.samples if t < end]
        if not samples:  # a pass shorter than one interval
            return end - start, (end - start) / time_reference()
        refs, prev = 0.0, start
        for t, d in samples:
            refs += (t - prev) / d
            prev = t + d
        refs += (end - prev) / samples[-1][1]
        return end - start - sum(d for _t, d in samples), refs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    pk = tracing.peakhc_modules()
    src = os.path.abspath("src")
    if not os.path.abspath(pk["cli"].__file__).startswith(src + os.sep):
        print("peakhc was not imported from %s" % src, file=sys.stderr)
        return 2
    make_inputs, run_workload = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    setup_done = time.monotonic()
    setup_ref_s = time_reference()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done, "setup_ref_s": setup_ref_s}))
        return 0

    layers = wall_refs = None
    if args.spans:
        tracer = tracing.Tracer()
        tracer.install(pk)
        start = time.perf_counter()
        try:
            cases = run_workload(pk, inputs)
            wall_s = time.perf_counter() - start
        finally:
            tracer.uninstall()
        layers = tracer.metrics(wall_s)
        tracer.write_spans(args.spans)
    else:
        with SpeedProbe() as probe:
            start = time.perf_counter()
            cases = run_workload(pk, inputs)
            end = time.perf_counter()
        wall_s, wall_refs = probe.measure(start, end)

    doc = {
        "setup_done": setup_done,
        "setup_ref_s": setup_ref_s,
        "wall_s": wall_s,
        "wall_refs": wall_refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cases": [[name, ok, None if ok else str(detail)] for name, ok, detail in cases],
        "layers": layers,
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
