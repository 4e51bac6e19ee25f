"""Per-layer tracing of qschur from outside the program.

The tracer replaces selected functions and methods of the seven qschur
modules with wrappers.  Coarse calls are recorded as spans (name, start,
end, parent) in flat arrays; fine-grained arithmetic such as
LaurentPoly.__mul__ and Rewriter.normal_word is only counted, because
timing millions of sub-microsecond calls would swamp what it measures.
Cache sizes are read from the modules when the run ends.  Nothing in
``src/`` changes.

Definitions, for a span name such as ``qmatrix.straighten`` and for a layer
(the module prefix, such as ``qmatrix``):

* ``calls``   -- spans recorded;
* ``total_s`` -- inclusive time, counting each instant once: the summed
  duration of the spans that have no ancestor of the same name (layer);
* ``self_s``  -- summed span duration minus the time covered by direct
  child spans, so the self times of all layers add up to the traced time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array

LAYERS = ("laurent", "tableaux", "linalg", "qmatrix", "mixed", "tensor",
          "cli")

SUITES = ("pbw", "laplace", "centrality", "hecke-relations",
          "walled-relations", "kernel-Y", "jacobi", "detk",
          "straightening-lemmas", "bijection", "rational-basis", "phi-iota",
          "bicommute", "kappa-equivariance", "weight-projectors",
          "schur-weyl")

# span name -> the (module, attribute) targets recorded under it; a dotted
# attribute is a method of a class in that module
SPANS = {
    "laurent.divmod": [("laurent", "laurent_divmod")],
    "laurent.exact_div": [("laurent", "exact_div")],
    "laurent.quantum_binomial": [("laurent", "quantum_binomial")],
    "tableaux.enumerate": [("tableaux", "enumerate_standard"),
                           ("tableaux", "enumerate_standard_rational")],
    "tableaux.correspondence": [("tableaux", "rational_to_ordinary"),
                                ("tableaux", "ordinary_to_rational")],
    "linalg.echelon_insert": [("linalg", "Echelon.insert")],
    "linalg.echelon_reduce": [("linalg", "Echelon.reduce")],
    "linalg.spansolver_insert": [("linalg", "SpanSolver.insert")],
    "linalg.spansolver_solve": [("linalg", "SpanSolver.solve")],
    "linalg.nullspace": [("linalg", "mat_nullspace")],
    "qmatrix.multiply": [("qmatrix", "multiply")],
    "qmatrix.straighten": [("qmatrix", "straighten")],
    "qmatrix.bideterminant": [("qmatrix", "bideterminant")],
    "qmatrix.minor": [("qmatrix", "quantum_minor_right"),
                      ("qmatrix", "quantum_minor_left")],
    "mixed.multiply": [("mixed", "mixed_multiply")],
    "mixed.iota": [("mixed", "iota")],
    "mixed.quotient_build": [("mixed", "MixedQuotient.__init__")],
    "mixed.rational_basis_build": [("mixed", "_RationalBasis.__init__")],
    "mixed.rational_straighten": [("mixed", "rational_straighten")],
    "mixed.phi": [("mixed", "phi")],
    "tensor.endo_then": [("tensor", "Endo.then")],
    "tensor.operators": [("tensor", "hecke_generator"),
                         ("tensor", "walled_generators"),
                         ("tensor", "ugen_ordinary"),
                         ("tensor", "ugen_mixed"),
                         ("tensor", "kappa_mixed"),
                         ("tensor", "weight_projector")],
    "tensor.commutant_dim": [("tensor", "commutant_dim")],
    "tensor.closure_modular": [("tensor", "image_algebra_dim_modular")],
    "tensor.closure_exact": [("tensor", "image_algebra_dim")],
    "tensor.verify_schur_weyl": [("tensor", "verify_schur_weyl")],
    "cli.main": [("cli", "main")],
}

# counter name -> counted targets
COUNTERS = {
    "laurent.mul": [("laurent", "LaurentPoly.__mul__"),
                    ("laurent", "LaurentPoly.__rmul__")],
    "laurent.add": [("laurent", "LaurentPoly.__add__"),
                    ("laurent", "LaurentPoly.__radd__")],
    "linalg.rationalfn": [("linalg", "RationalFn.__init__")],
    "tensor.closure_modular.products": [("tensor", "_matmul_mod")],
}

_TIMED = ("calls", "total_s", "self_s")

# (metric, unit, better) of a traced run, in report order
PER_LAYER = (
    [(f"{layer}.{kind}", "count" if kind == "calls" else "s", "lower")
     for layer in LAYERS for kind in _TIMED]
    + [("laurent.mul.calls", "count", "lower"),
       ("laurent.add.calls", "count", "lower"),
       ("laurent.divmod.calls", "count", "lower"),
       ("qmatrix.normal_word.calls", "count", "lower"),
       ("qmatrix.rewriter_cache.entries", "count", "lower"),
       ("qmatrix.rewriter_cache.hit_ratio", "ratio", "higher")]
    + [(f"qmatrix.{fn}.{kind}", "count" if kind == "calls" else "s", "lower")
       for fn in ("multiply", "straighten") for kind in _TIMED]
    + [("qmatrix.straighten.solver_builds", "count", "lower")]
    + [(f"linalg.{fn}.{kind}", "count" if kind == "calls" else "s", "lower")
       for fn in ("echelon_insert", "echelon_reduce", "spansolver_insert",
                  "spansolver_solve") for kind in _TIMED]
    + [("linalg.echelon_insert.useful_ratio", "ratio", "higher"),
       ("linalg.rationalfn.calls", "count", "lower")]
    + [(f"mixed.{fn}.{kind}", "count" if kind == "calls" else "s", "lower")
       for fn in ("iota", "quotient_build", "rational_basis_build",
                  "rational_straighten", "phi") for kind in _TIMED]
    + [(f"tensor.{fn}.{kind}", "count" if kind == "calls" else "s", "lower")
       for fn in ("endo_then", "commutant_dim", "closure_modular")
       for kind in _TIMED]
    + [("tensor.closure_modular.products", "count", "lower"),
       ("tensor.closure_modular.rank", "count", "lower"),
       ("tensor.closure_modular.useful_ratio", "ratio", "higher")]
    + [(f"tableaux.enumerate.{kind}", "count" if kind == "calls" else "s",
        "lower") for kind in _TIMED]
    + [(f"cli.suite.{name}.s", "s", "lower") for name in SUITES]
    + [("cli.main.self_s", "s", "lower"),
       ("traced_wall_s", "s", "lower")]
)


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Installs the wrappers and turns the recorded spans into metrics."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts = {}
        self.normal_word_hits = 0
        self.useful_inserts = 0
        self.closure_rank = 0
        self.mods = {}
        self._solvers_before = 0

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        sname, sparent = self.span_name, self.span_parent
        sstart, send, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(sname)
            sname.append(nid)
            sparent.append(stack[-1])
            send.append(0.0)
            stack.append(idx)
            sstart.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                send[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, module, attr, make):
        mod = self.mods[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
            return
        original = getattr(mod, attr)
        replacement = make(original)
        # modules that imported the function by name hold it too
        for other in self.mods.values():
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, replacement)

    def install(self):
        """Wrap the qschur modules; call before the timed operations."""
        self.mods = {name: importlib.import_module("qschur." + name)
                     for name in LAYERS}
        self.mods["qschur"] = importlib.import_module("qschur")
        hooks = {"linalg.echelon_insert": self._count_useful,
                 "tensor.closure_modular": self._add_rank}
        for name, targets in SPANS.items():
            hook = hooks.get(name)
            for module, attr in targets:
                self._patch(module, attr,
                            lambda fn, n=name, h=hook: self._span(n, fn, h))
        for name, targets in COUNTERS.items():
            for module, attr in targets:
                self._patch(module, attr,
                            lambda fn, n=name: self._counter(n, fn))
        self._wrap_normal_word()
        suites = self.mods["cli"].SUITES
        for name in list(suites):
            suites[name] = self._span(f"cli.suite.{name}", suites[name])
        qm = self.mods["qmatrix"]
        self._solvers_before = len(qm._STRAIGHTEN.solvers)

    def _wrap_normal_word(self):
        rewriter = self.mods["qmatrix"].Rewriter
        original = rewriter.normal_word
        cell = self.counts.setdefault("qmatrix.normal_word", [0])
        tracer = self

        @functools.wraps(original)
        def normal_word(self, word):
            cell[0] += 1
            if word in self.cache:
                tracer.normal_word_hits += 1
            return original(self, word)
        rewriter.normal_word = normal_word

    def _count_useful(self, enlarged):
        if enlarged:
            self.useful_inserts += 1

    def _add_rank(self, rank):
        self.closure_rank += rank

    # -- results ----------------------------------------------------------

    def write_spans(self, path):
        """Write every span as name, parent index, start and end (seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tparent\tstart\tend\n")
            for i, (nid, parent, start, end) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_start,
                    self.span_end)):
                fh.write(f"{i}\t{self.names[nid]}\t{parent}\t"
                         f"{start:.9f}\t{end:.9f}\n")

    def metrics(self, traced_wall_s):
        """Every PER_LAYER metric, as name -> value."""
        names = self.names
        layer_of = [name.split(".")[0] for name in names]
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        per = {}
        for i, nid in enumerate(self.span_name):
            name, layer = names[nid], layer_of[nid]
            outer_name = outer_layer = True
            p = self.span_parent[i]
            while p >= 0:
                pid = self.span_name[p]
                if layer_of[pid] == layer:
                    outer_layer = False
                    if pid == nid:
                        outer_name = False
                        break
                p = self.span_parent[p]
            own = dur[i] - child[i]
            for key, outer in ((name, outer_name), (layer, outer_layer)):
                acc = per.setdefault(key, [0, 0.0, 0.0])
                acc[0] += 1
                acc[1] += dur[i] if outer else 0.0
                acc[2] += own

        def timed(key):
            calls, total, own = per.get(key, (0, 0.0, 0.0))
            return {"calls": calls, "total_s": total, "self_s": own}

        out = {}
        for metric, _, _ in PER_LAYER:
            # <layer or span name>.calls / .total_s / .self_s
            stem, _, kind = metric.rpartition(".")
            if kind in _TIMED and (stem in LAYERS or stem in SPANS):
                out[metric] = timed(stem)[kind]
        count = {name: cell[0] for name, cell in self.counts.items()}
        qm = self.mods["qmatrix"]
        words = count.get("qmatrix.normal_word", 0)
        inserts = timed("linalg.echelon_insert")["calls"]
        products = count.get("tensor.closure_modular.products", 0)
        out.update({
            "laurent.mul.calls": count.get("laurent.mul", 0),
            "laurent.add.calls": count.get("laurent.add", 0),
            "qmatrix.normal_word.calls": words,
            "qmatrix.rewriter_cache.entries":
                len(qm.PLAIN.cache) + len(qm.STARRED.cache),
            "qmatrix.rewriter_cache.hit_ratio":
                _ratio(self.normal_word_hits, words),
            "qmatrix.straighten.solver_builds":
                len(qm._STRAIGHTEN.solvers) - self._solvers_before,
            "linalg.echelon_insert.useful_ratio":
                _ratio(self.useful_inserts, inserts),
            "linalg.rationalfn.calls": count.get("linalg.rationalfn", 0),
            "tensor.closure_modular.products": products,
            "tensor.closure_modular.rank": self.closure_rank,
            "tensor.closure_modular.useful_ratio":
                _ratio(self.closure_rank, products),
            "traced_wall_s": traced_wall_s,
        })
        for name in SUITES:
            out[f"cli.suite.{name}.s"] = timed(f"cli.suite.{name}")["total_s"]
        missing = [m for m, _, _ in PER_LAYER if m not in out]
        if missing:
            raise AssertionError(f"per-layer metrics not computed: {missing}")
        return out
