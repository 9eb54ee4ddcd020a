"""Outside-in spans around the public functions of each deltachar layer.

The wrappers are installed by the benchmark, not by the package: each one
replaces a function or method at every place a caller looks it up (the
defining module, every deltachar module that imported the name, and the
package namespace), so `deltachar.evaluation.elliptic_log` is traced as
well as `deltachar.series_fgl.elliptic_log`.

A span is (name, start, end, parent, op id).  Spans are recorded only while
`Tracer.active` is set, which the worker does only around a timed
operation, so checker calls never land in a layer.  Spans are kept in
compact arrays and turned into per-layer metrics when the run ends:

  calls    number of spans of that name
  busy_s   inclusive time, counting only spans with no ancestor of the same
           name (recursion is not double-counted)
  self_s   busy time minus the time covered by direct child spans

Which end-to-end metric each layer metric should move, on which workload,
is written down in README.md; the metric names and units are those of the
"per_layer" list of BENCHMARK.json.
"""

import functools
import gzip
import sys
import time
from array import array

# (module, attribute path, span name); the span name is prefixed with the
# module name to form the layer metric names.
TARGETS = [
    ("exact_arith", "fraction_mod", "fraction_mod"),
    ("exact_arith", "rational_reconstruct", "rational_reconstruct"),
    ("cyclotomic", "PadicCyclotomic.__mul__", "PadicCyclotomic.mul"),
    ("cyclotomic", "PadicCyclotomic.inverse", "PadicCyclotomic.inverse"),
    ("cyclotomic", "PadicCyclotomic.frobenius", "PadicCyclotomic.frobenius"),
    ("cyclotomic", "PadicCyclotomic.from_rational",
     "PadicCyclotomic.from_rational"),
    ("cyclotomic", "check_delta_ring_axioms", "check_delta_ring_axioms"),
    ("polys", "MPoly.__mul__", "MPoly.mul"),
    ("polys", "MPoly.substitute", "MPoly.substitute"),
    ("delta_calculus", "fermat_quotient", "fermat_quotient"),
    ("jet_rings", "DeltaPolynomial.apply_delta", "DeltaPolynomial.apply_delta"),
    ("jet_rings", "DeltaPolynomial.delta_expansion",
     "DeltaPolynomial.delta_expansion"),
    ("jet_rings", "DeltaPolynomial.from_delta_generators",
     "DeltaPolynomial.from_delta_generators"),
    ("series_fgl", "elliptic_log", "elliptic_log"),
    ("series_fgl", "weierstrass_v_series", "weierstrass_v_series"),
    ("series_fgl", "TruncSeries.reciprocal", "TruncSeries.reciprocal"),
    ("series_fgl", "gm_log", "gm_log"),
    ("series_fgl", "star_apply", "star_apply"),
    ("elliptic", "CurvePoint.__rmul__", "CurvePoint.rmul"),
    ("elliptic", "CurvePoint.__add__", "CurvePoint.add"),
    ("elliptic", "count_points_ap", "count_points_ap"),
    ("elliptic", "reduction_group_order", "reduction_group_order"),
    ("elliptic", "to_formal_parameter", "to_formal_parameter"),
    ("elliptic", "lseries_coefficients", "lseries_coefficients"),
    ("characters", "build_elliptic_character", "build_elliptic_character"),
    ("characters", "build_gm_character", "build_gm_character"),
    ("characters", "decompose_over_fundamental", "decompose_over_fundamental"),
    ("characters", "honda_integrality_check", "honda_integrality_check"),
    ("characters", "check_additivity", "check_additivity"),
    ("evaluation", "evaluate", "evaluate"),
    ("evaluation", "elliptic_formal_value", "elliptic_formal_value"),
    ("evaluation", "eval_gm_ode", "eval_gm_ode"),
    ("evaluation", "AdelePoint.multiplicative", "AdelePoint.multiplicative"),
    ("evaluation", "continuation_witness", "continuation_witness"),
    ("cli", "main", "main"),
]

class Tracer:
    """Span store and counters for one traced run."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names = []            # span name by id
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_outer = array("b")   # 1 when no ancestor has the same name
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.depth = []            # open spans per name id
        self.counters = {}
        self.seen = {}             # repeat-key sets per counter prefix

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def note_key(self, prefix, key):
        seen = self.seen.setdefault(prefix, set())
        self.add(prefix + ".keys", 1)
        if key in seen:
            self.add(prefix + ".repeats", 1)
        else:
            seen.add(key)

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return self.name_ids[name]

    def wrap(self, fn, name, observe=None):
        nid = self._name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self.stack
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.span_outer.append(0 if self.depth[nid] else 1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(idx)
            self.depth[nid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.depth[nid] -= 1
                stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end
            if observe is not None:
                observe(self, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every target in TARGETS wherever deltachar looks it up."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "deltachar" or n.startswith("deltachar.")]
        for module_name, path, span in TARGETS:
            module = sys.modules["deltachar." + module_name]
            name = "%s.%s" % (module_name, span)
            observe = _OBSERVERS.get(name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr,
                            classmethod(self.wrap(raw.__func__, name, observe)))
                    continue
                wrapped = self.wrap(raw, name, observe)
                for key, value in list(owner.__dict__.items()):
                    if value is raw:          # aliases such as __rmul__
                        setattr(owner, key, wrapped)
                continue
            raw = getattr(module, attr)
            wrapped = self.wrap(raw, name, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)

    def write_spans(self, path):
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.span_start)):
                out.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    self.names[self.span_name[i]], self.span_start[i],
                    self.span_end[i], self.span_parent[i], self.span_op[i]))

    def layer_metrics(self, names):
        """The named per-layer metrics; trace.overhead_frac, which needs an
        untraced run too, is left to the caller."""
        n = len(self.span_start)
        child = [0.0] * n
        calls, busy, self_time = {}, {}, {}
        for i in range(n - 1, -1, -1):   # children come after parents
            name = self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            calls[name] = calls.get(name, 0) + 1
            if self.span_outer[i]:
                busy[name] = busy.get(name, 0.0) + dur
            self_time[name] = self_time.get(name, 0.0) + dur - child[i]
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur
        c = self.counters
        out = {}
        for metric in names:
            prefix, _, stat = metric.rpartition(".")
            if stat == "calls":
                value = calls.get(prefix, 0)
            elif stat == "busy_s":
                value = busy.get(prefix, 0.0)
            elif stat == "self_s":
                value = self_time.get(prefix, 0.0)
            elif stat == "repeat_frac":
                keys = c.get(prefix + ".keys", 0)
                value = c.get(prefix + ".repeats", 0) / keys if keys else 0.0
            elif metric == "trace.overhead_frac":
                continue
            else:
                value = c.get(metric, 0)
            out[metric] = value
        return out


def _observe_mpoly_mul(tracer, args, result):
    tracer.add("polys.MPoly.mul.out_terms", len(result.coeffs))


def _observe_elliptic_log(tracer, args, result):
    curve, order = args[0], args[1]
    tracer.add("series_fgl.elliptic_log.order_sum", order)
    tracer.note_key("series_fgl.elliptic_log",
                    (tuple(curve.coefficients()), order))


def _observe_count_points(tracer, args, result):
    tracer.note_key("elliptic.count_points_ap",
                    (tuple(args[0].coefficients()), args[1]))


def _observe_rmul(tracer, args, result):
    if getattr(result, "x", None) is None:
        return
    x = result.x                    # scaled points are rational here
    bits = x.numerator.bit_length() + x.denominator.bit_length()
    tracer.add("elliptic.scaled_height_bits.sum", bits)
    top = tracer.counters.get("elliptic.scaled_height_bits.max", 0)
    tracer.counters["elliptic.scaled_height_bits.max"] = max(top, bits)


_OBSERVERS = {
    "polys.MPoly.mul": _observe_mpoly_mul,
    "series_fgl.elliptic_log": _observe_elliptic_log,
    "elliptic.count_points_ap": _observe_count_points,
    "elliptic.CurvePoint.rmul": _observe_rmul,
}
