"""Per-layer tracing of ``peakhc`` from outside the package.

``Tracer.install`` wraps the public functions of every ``peakhc`` layer and
rebinds each alias of them in every ``peakhc.*`` module namespace (the
modules do ``from .linalg import nullspace``, so patching ``peakhc.linalg``
alone would miss ``supermodules.nullspace``).  Methods are wrapped on their
class, and the two scalar constructors get a bare call counter.  Every call
of a wrapped function records one span ``[span_id, parent_id, name,
start_ns, end_ns]``; spans stay in memory and ``write_spans`` writes them out
once the pass is over.  ``Tracer.metrics`` turns the spans and counters into
the per-layer metrics listed in ``PER_LAYER``.

The process is single-threaded, so spans nest strictly and a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
import uuid
from fractions import Fraction

# (span name, module, attribute).  One span name may cover several methods.
FUNCTIONS = [
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.echelon_add", "linalg", "Echelon.add"),
    ("linalg.span_solver", "linalg", "SpanSolver.add"),
    ("linalg.span_solver", "linalg", "SpanSolver.contains"),
    ("linalg.span_solver", "linalg", "SpanSolver.express"),
    ("linalg.solve_unique", "linalg", "solve_unique"),
    ("linalg.matmul", "linalg", "SparseMatrix.__matmul__"),
    ("hopf.convert", "hopf", "convert"),
    ("hopf.product", "hopf", "product"),
    ("hopf.coproduct", "hopf", "coproduct"),
    ("hopf.pairing", "hopf", "pairing"),
    ("hopf.peak_pairing", "hopf", "peak_pairing"),
    ("hopf.sym_into_qsym", "hopf", "sym_into_qsym"),
    ("hopf.theta_transform", "hopf", "theta_transform"),
    ("hopf.vartheta_map", "hopf", "vartheta_map"),
    ("hecke_clifford.multiply", "hecke_clifford", "multiply"),
    ("hecke_clifford.apply_morphism", "hecke_clifford", "apply_morphism"),
    ("hecke_clifford.frobenius_gram", "hecke_clifford", "frobenius_gram"),
    ("hecke_clifford.morphism_matrix", "hecke_clifford", "morphism_matrix"),
    ("supermodules.hom_space", "supermodules", "hom_space"),
    ("supermodules.induce_clifford", "supermodules", "induce_clifford"),
    ("supermodules.submodule_on_vectors", "supermodules", "submodule_on_vectors"),
    ("supermodules.find_isomorphism", "supermodules", "find_isomorphism"),
    ("supermodules.split_simple", "supermodules", "split_simple"),
    ("supermodules.end_clifford_check", "supermodules", "end_clifford_check"),
    ("supermodules.check", "supermodules", "Supermodule.check"),
    ("supermodules.hecke_composition_multiplicities", "supermodules",
     "hecke_composition_multiplicities"),
    ("supermodules.act_element", "supermodules", "act_element"),
    ("characteristic.gessel_pairing", "characteristic", "gessel_pairing"),
    ("characteristic.verify_restriction_to_hecke", "characteristic",
     "verify_restriction_to_hecke"),
    ("characteristic.verify_bialgebra_compatibility", "characteristic",
     "verify_bialgebra_compatibility"),
    ("characteristic.class_of_module", "characteristic", "class_of_module"),
    ("characteristic.cartan_image", "characteristic", "cartan_image"),
    ("heisenberg.fock_action", "heisenberg", "fock_action"),
    ("heisenberg.fock_action_on_word", "heisenberg", "fock_action_on_word"),
    ("heisenberg.filtration_component", "heisenberg", "filtration_component"),
    ("heisenberg.free_basis_over_omega", "heisenberg", "free_basis_over_omega"),
    ("combinat.descent_class", "combinat", "descent_class"),
    ("combinat.compositions_of", "combinat", "compositions_of"),
    ("cli.main", "cli", "main"),
]

# suites of `peakhc verify`; each gets a span "verification.<suite>"
SUITES = [
    "algebra", "bialgebra", "cartan", "corner", "diagrams", "duality", "euler",
    "freeness", "generators", "gessel", "heisenberg", "peak-functions",
    "projectives", "restriction", "simples", "theta-ribbon", "twists",
]

# modules whose lru_cache tables are summed into "<module>.cache_entries"
CACHE_MODULES = ["combinat", "hopf", "hecke_clifford", "supermodules",
                 "characteristic", "heisenberg"]

# span names reported as inclusive time (".total_s") next to self time
TOTAL_TIME = ["supermodules.hom_space", "cli.main"] + [
    "verification." + s for s in SUITES
]


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_nullspace(c, args, kwargs, result):
    c["linalg.nullspace.rows"] += len(_arg(args, kwargs, 0, "rows"))
    c["linalg.nullspace.unknowns"] += len(_arg(args, kwargs, 1, "columns"))
    c["linalg.nullspace.nullity"] += len(result)


def _count_echelon_add(c, args, kwargs, result):
    if result is not None:
        c["linalg.echelon_add.useful"] += 1


def _count_multiply(c, args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    c["hecke_clifford.multiply.term_pairs"] += len(a.terms) * len(b.terms)


def _count_hom_space(c, args, kwargs, result):
    src, dst = _arg(args, kwargs, 0, "src"), _arg(args, kwargs, 1, "dst")
    c["supermodules.hom_space.cells"] += src.dim * dst.dim
    c["supermodules.hom_space.dim"] += result.total_dim


def _count_find_isomorphism(c, args, kwargs, result):
    if not result.conclusive:
        c["supermodules.find_isomorphism.inconclusive"] += 1


# work counts taken from a call's arguments and result
HOOKS = {
    "linalg.nullspace": _count_nullspace,
    "linalg.echelon_add": _count_echelon_add,
    "hecke_clifford.multiply": _count_multiply,
    "supermodules.hom_space": _count_hom_space,
    "supermodules.find_isomorphism": _count_find_isomorphism,
}


def _span_names():
    return list(dict.fromkeys(name for name, _m, _a in FUNCTIONS))


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = [("scalars.gauss_new", "count"), ("scalars.fraction_new", "count")]
    for name in _span_names():
        if name != "cli.main":
            out += [(name + ".calls", "count"), (name + ".self_s", "s")]
        if name in TOTAL_TIME:
            out.append((name + ".total_s", "s"))
        extra = {
            "linalg.nullspace": ["unknowns", "rows", "nullity"],
            "hecke_clifford.multiply": ["term_pairs"],
            "supermodules.hom_space": ["cells", "dim"],
            "supermodules.find_isomorphism": ["inconclusive"],
        }.get(name, [])
        out += [("%s.%s" % (name, e), "count") for e in extra]
        if name == "linalg.echelon_add":
            out.append(("linalg.echelon_add.useful_ratio", "ratio"))
    out.append(("hopf.cache_hit_ratio", "ratio"))
    out += [(m + ".cache_entries", "count") for m in CACHE_MODULES]
    out += [("verification.%s.total_s" % s, "s") for s in SUITES]
    out += [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
    return out


def count_metric_names() -> list:
    """Per-layer metrics that count work; they must repeat exactly."""
    return [n for n, unit in per_layer_metrics() if unit == "count"]


def peakhc_modules() -> dict:
    """Import every ``peakhc`` submodule; short name -> module."""
    pkg = importlib.import_module("peakhc")
    out = {}
    for info in pkgutil.iter_modules(pkg.__path__):
        out[info.name] = importlib.import_module("peakhc." + info.name)
    return out


def lru_caches(module) -> list:
    """Every lru_cache function defined in ``module``."""
    return [
        obj for obj in vars(module).values()
        if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__
    ]


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.spans: list = []
        self.counts: dict = {}
        self._stack = [-1]
        self._undo: list = []
        self._caches: dict = {}

    # -- installing ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts, hook = self.counts, HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1], name, clock(), 0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def _rebind(self, modules, original, wrapper) -> None:
        """Point every alias of ``original`` in the peakhc namespaces at
        ``wrapper``."""
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def _set_class_attr(self, cls, attr, value):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def _counter(self, key, fn, as_static=False):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return staticmethod(counted) if as_static else counted

    def install(self, modules: dict) -> None:
        """Wrap every function of FUNCTIONS and the suites, and start the
        constructor counters."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for key, _unit in per_layer_metrics():
            self.counts[key] = 0
        self.counts["linalg.echelon_add.useful"] = 0
        for name, modname, attr in FUNCTIONS:
            owner = modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set_class_attr(cls, meth, self._wrap(name, cls.__dict__[meth]))
            else:
                original = getattr(owner, attr)
                self._rebind(modules, original, self._wrap(name, original))
        verification = modules["verification"]
        for suite in SUITES:
            fn, defaults = verification.SUITES[suite]
            wrapper = self._wrap("verification." + suite, fn)
            self._rebind(modules, fn, wrapper)
            verification.SUITES[suite] = (wrapper, defaults)
            self._undo.append((verification.SUITES, suite, (fn, defaults)))
        gauss = modules["scalars"].GaussianRational
        self._set_class_attr(gauss, "__init__",
                             self._counter("scalars.gauss_new", gauss.__init__))
        self._set_class_attr(Fraction, "__new__",
                             self._counter("scalars.fraction_new", Fraction.__new__,
                                           as_static=True))
        self._caches = {m: lru_caches(modules[m]) for m in CACHE_MODULES}
        self._hopf_before = self._hopf_lookups()

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def _hopf_lookups(self):
        hits = misses = 0
        for fn in self._caches["hopf"]:
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    # -- reporting ----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the pass (name -> number); ``wall_s`` is the
        traced pass's wall time.  ``trace.overhead_s`` is left at 0 for the
        caller, which knows the untraced time."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for sid, parent, _name, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = dict(self.counts)
        out.pop("linalg.echelon_add.useful")
        totals = set(TOTAL_TIME)
        for sid, parent, name, start, end in spans:
            dur = end - start
            if name + ".calls" in out:
                out[name + ".calls"] += 1
                out[name + ".self_s"] += (dur - child_ns[sid]) / 1e9
            if name in totals and not self._inside_same(parent, name):
                out[name + ".total_s"] += dur / 1e9
        calls = out["linalg.echelon_add.calls"]
        out["linalg.echelon_add.useful_ratio"] = (
            self.counts["linalg.echelon_add.useful"] / calls if calls else 0.0
        )
        hits0, misses0 = self._hopf_before
        hits1, misses1 = self._hopf_lookups()
        lookups = (hits1 - hits0) + (misses1 - misses0)
        out["hopf.cache_hit_ratio"] = (hits1 - hits0) / lookups if lookups else 0.0
        for m, fns in self._caches.items():
            out[m + ".cache_entries"] = sum(fn.cache_info().currsize for fn in fns)
        out["trace.wall_s"] = wall_s
        return out

    def _inside_same(self, sid, name) -> bool:
        """True when span ``sid`` or one of its ancestors is named ``name``."""
        spans = self.spans
        while sid >= 0:
            if spans[sid][2] == name:
                return True
            sid = spans[sid][1]
        return False

    def write_spans(self, path) -> None:
        doc = {
            "trace_id": self.trace_id,
            "fields": ["span_id", "parent_id", "name", "start_ns", "end_ns"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
