"""Spans and counters recorded from outside the program.

`install` wraps each layer's public functions at the name its caller looks
up (for example `entropia.cli.outer_loewner` and
`entropia.reeb_collapse.sweep.gamma_plus`), plus the systems'
`time_one` / `time_one_jacobian` methods.  Every wrapped call records a
`perf_counter` span (name, start, end, parent span, invocation id, tag);
spans stay in memory until the run ends.  `layer_metrics` turns spans and
counters into the per-layer metrics, with self time = span duration minus
the durations of its child spans.
"""

import importlib
import inspect
import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, invocation, tag]
        self.counts = {}
        self.invocation = -1
        self._stack = []
        self._undo = []

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def open(self, name, tag=None):
        span = [name, perf_counter(), None,
                self._stack[-1] if self._stack else -1, self.invocation, tag]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def close(self, span):
        span[2] = perf_counter()
        self._stack.pop()

    def timed(self, fn, name, tag_of=None, before=None):
        def wrapper(*args, **kwargs):
            if before:
                before(*args, **kwargs)
            span = self.open(name, tag_of(*args, **kwargs) if tag_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return wrapper

    def patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# (module, attribute looked up by the caller, span name)
_FUNCTIONS = [
    ("entropia.cli", "collapse_sweep", "reeb_collapse.collapse_sweep"),
    ("entropia.reeb_collapse.sweep", "collapse_volumes", "reeb_collapse.collapse_volumes"),
    ("entropia.reeb_collapse.sweep", "return_map_and_time", "reeb_collapse.return_map"),
    ("entropia.cli", "outer_loewner", "convex_body.outer_loewner"),
    ("entropia.convex_body", "outer_loewner", "convex_body.outer_loewner"),
    ("entropia.cli", "inner_loewner", "convex_body.inner_loewner"),
    ("entropia.cli", "polar_dual", "convex_body.polar_dual"),
    ("entropia.convex_body", "polar_dual", "convex_body.polar_dual"),
    ("entropia.cli", "sigma_starshapedness", "convex_body.sigma_starshapedness"),
    ("entropia.cli", "volume", "convex_body.volume"),
    ("entropia.cli", "irreversibility_ratio", "convex_body.irreversibility_ratio"),
    ("entropia.convex_body", "is_convex", "convex_body.is_convex"),
    ("entropia.convex_body", "hull_radial", "convex_body.hull_radial"),
    ("entropia.convex_body", "sphere_grid", "spheres.sphere_grid"),
    ("entropia.entropy_bounds", "constants_report", "entropy_bounds.reports"),
    ("entropia.entropy_bounds", "floors_report", "entropy_bounds.reports"),
    ("entropia.entropy_bounds", "verovic_report", "entropy_bounds.reports"),
    ("entropia.entropy_bounds", "sl3_report", "entropy_bounds.reports"),
    ("entropia.entropy_bounds", "spectrum_tuner", "entropy_bounds.spectrum_tuner"),
    ("entropia.entropy_bounds", "c_n", "finsler_volume.c_n"),
    ("entropia.entropy_estimators", "hvol_ball_growth", "entropy_estimators.hvol"),
]

_SYSTEM_PREFIX = {"reeb_mapping_torus": "reeb_collapse.mt_",
                  "reeb_solid_torus": "reeb_collapse.st_"}


def _system_span(system, what):
    for prefix, layer in _SYSTEM_PREFIX.items():
        if system.name.startswith(prefix):
            return layer + what
    return "entropy_estimators." + what


class _CountingModule:
    """Stands in for `scipy.integrate` inside one module, counting quad."""

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._module, name)

    def quad(self, *args, **kwargs):
        self._tracer.count("entropy_bounds.quad_calls")
        return self._module.quad(*args, **kwargs)


def install(tracer):
    mod = importlib.import_module

    def fit_points(body, symmetrize=True):
        tracer.count("convex_body.fit_points",
                     len(body.radial) * (2 if symmetrize else 1))

    for module, attr, name in _FUNCTIONS:
        owner = mod(module)
        before = fit_points if attr == "outer_loewner" else None
        tracer.patch(owner, attr, tracer.timed(getattr(owner, attr), name,
                                               before=before))

    system_tag = lambda system, *a, **k: system.name
    for module in ("entropia.entropy_estimators", "entropia.reeb_collapse.sweep"):
        owner = mod(module)
        tracer.patch(owner, "gamma_plus", tracer.timed(
            owner.gamma_plus, "entropy_estimators.gamma_plus", system_tag))

    ee = mod("entropia.entropy_estimators")
    tracer.patch(ee, "htop_separated", _htop_wrapper(tracer, ee.htop_separated))

    system_cls = ee.DiscreteSystem
    for attr, what in (("time_one", "time_one"), ("time_one_jacobian", "jacobian")):
        orig = system_cls.__dict__[attr]

        def method(self, states, _orig=orig, _what=what):
            span = tracer.open(_system_span(self, _what))
            try:
                return _orig(self, states)
            finally:
                tracer.close(span)
        tracer.patch(system_cls, attr, method)

    dual = mod("entropia.reeb_collapse.duals").Dual
    dual_init = dual.__dict__["__init__"]

    def init(self, *args, **kwargs):
        tracer.count("reeb_collapse.dual_objects")
        dual_init(self, *args, **kwargs)
    tracer.patch(dual, "__init__", init)

    eb = mod("entropia.entropy_bounds")
    tracer.patch(eb, "integrate", _CountingModule(eb.integrate, tracer))


def _htop_wrapper(tracer, htop):
    signature = inspect.signature(htop)

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        system, want_counts = a["sys"], a["return_counts"]
        metric = system.metric

        def counted(x, block):
            tracer.count("entropy_estimators.htop_pair_tests", len(block))
            span = tracer.open("entropy_estimators.htop_metric")
            try:
                return metric(x, block)
            finally:
                tracer.close(span)

        a["return_counts"] = True
        system.metric = counted
        span = tracer.open("entropy_estimators.htop", system.name)
        try:
            best, counts = htop(*bound.args, **bound.kwargs)
        finally:
            tracer.close(span)
            system.metric = metric
        n = a["n_candidates"]
        for series in counts.values():
            tracer.count("entropy_estimators.htop_accepted", series[-1])
            # every candidate not yet accepted is tested once per step
            tracer.count("entropy_estimators.htop_candidate_tests",
                         sum(n - c for c in [0] + series[:-1]))
        return (best, counts) if want_counts else best
    return wrapper


# ----------------------------------------------------------------- metrics

SECONDS = "s"
COUNT = "count"
RATIO = "ratio"

# name -> unit; the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = {
    "cli.import_s": SECONDS,
    "cli.import_scipy_s": SECONDS,
    "cli.run_self_s": SECONDS,
    "cli.child_cpu_s": SECONDS,
    "cli.inproc_wall_s": SECONDS,
    "spheres.sphere_grid_calls": COUNT,
    "spheres.sphere_grid_s": SECONDS,
    "convex_body.outer_loewner_calls": COUNT,
    "convex_body.outer_loewner_s": SECONDS,
    "convex_body.inner_loewner_s": SECONDS,
    "convex_body.fit_points": COUNT,
    "convex_body.hull_radial_calls": COUNT,
    "convex_body.hull_radial_s": SECONDS,
    "convex_body.is_convex_s": SECONDS,
    "convex_body.polar_dual_s": SECONDS,
    "convex_body.sigma_starshapedness_s": SECONDS,
    "convex_body.volume_s": SECONDS,
    "finsler_volume.c_n_calls": COUNT,
    "finsler_volume.c_n_s": SECONDS,
    "entropy_bounds.reports_s": SECONDS,
    "entropy_bounds.spectrum_tuner_s": SECONDS,
    "entropy_bounds.quad_calls": COUNT,
    "reeb_collapse.collapse_sweep_s": SECONDS,
    "reeb_collapse.collapse_volumes_s": SECONDS,
    "reeb_collapse.return_map_calls": COUNT,
    "reeb_collapse.return_map_s": SECONDS,
    "reeb_collapse.mt_time_one_calls": COUNT,
    "reeb_collapse.mt_time_one_s": SECONDS,
    "reeb_collapse.mt_jacobian_calls": COUNT,
    "reeb_collapse.mt_jacobian_s": SECONDS,
    "reeb_collapse.dual_objects": COUNT,
    "reeb_collapse.st_jacobian_s": SECONDS,
    "entropy_estimators.gamma_plus_calls": COUNT,
    "entropy_estimators.gamma_plus_s": SECONDS,
    "entropy_estimators.gamma_plus_self_s": SECONDS,
    "entropy_estimators.gamma_plus_mt_s": SECONDS,
    "entropy_estimators.htop_s": SECONDS,
    "entropy_estimators.htop_total_s": SECONDS,
    "entropy_estimators.htop_metric_s": SECONDS,
    "entropy_estimators.htop_pair_tests": COUNT,
    "entropy_estimators.htop_accepted": COUNT,
    "entropy_estimators.htop_accept_ratio": RATIO,
    "entropy_estimators.hvol_s": SECONDS,
    "trace.overhead_frac": RATIO,
}

# metric -> (span name, "self" | "total" | "calls"); spans of one name summed
_FROM_SPANS = {
    "cli.run_self_s": ("cli.run", "self"),
    "spheres.sphere_grid_calls": ("spheres.sphere_grid", "calls"),
    "spheres.sphere_grid_s": ("spheres.sphere_grid", "self"),
    "convex_body.outer_loewner_calls": ("convex_body.outer_loewner", "calls"),
    "convex_body.outer_loewner_s": ("convex_body.outer_loewner", "self"),
    "convex_body.inner_loewner_s": ("convex_body.inner_loewner", "self"),
    "convex_body.hull_radial_calls": ("convex_body.hull_radial", "calls"),
    "convex_body.hull_radial_s": ("convex_body.hull_radial", "self"),
    "convex_body.is_convex_s": ("convex_body.is_convex", "self"),
    "convex_body.polar_dual_s": ("convex_body.polar_dual", "self"),
    "convex_body.sigma_starshapedness_s": ("convex_body.sigma_starshapedness", "self"),
    "convex_body.volume_s": ("convex_body.volume", "self"),
    "finsler_volume.c_n_calls": ("finsler_volume.c_n", "calls"),
    "finsler_volume.c_n_s": ("finsler_volume.c_n", "self"),
    "entropy_bounds.reports_s": ("entropy_bounds.reports", "self"),
    "entropy_bounds.spectrum_tuner_s": ("entropy_bounds.spectrum_tuner", "self"),
    "reeb_collapse.collapse_sweep_s": ("reeb_collapse.collapse_sweep", "total"),
    "reeb_collapse.collapse_volumes_s": ("reeb_collapse.collapse_volumes", "self"),
    "reeb_collapse.return_map_calls": ("reeb_collapse.return_map", "calls"),
    "reeb_collapse.return_map_s": ("reeb_collapse.return_map", "self"),
    "reeb_collapse.mt_time_one_calls": ("reeb_collapse.mt_time_one", "calls"),
    "reeb_collapse.mt_time_one_s": ("reeb_collapse.mt_time_one", "self"),
    "reeb_collapse.mt_jacobian_calls": ("reeb_collapse.mt_jacobian", "calls"),
    "reeb_collapse.mt_jacobian_s": ("reeb_collapse.mt_jacobian", "self"),
    "reeb_collapse.st_jacobian_s": ("reeb_collapse.st_jacobian", "self"),
    "entropy_estimators.gamma_plus_calls": ("entropy_estimators.gamma_plus", "calls"),
    "entropy_estimators.gamma_plus_s": ("entropy_estimators.gamma_plus", "total"),
    "entropy_estimators.gamma_plus_self_s": ("entropy_estimators.gamma_plus", "self"),
    "entropy_estimators.htop_s": ("entropy_estimators.htop", "self"),
    "entropy_estimators.htop_total_s": ("entropy_estimators.htop", "total"),
    "entropy_estimators.htop_metric_s": ("entropy_estimators.htop_metric", "self"),
    "entropy_estimators.hvol_s": ("entropy_estimators.hvol", "self"),
}


def span_totals(spans):
    """name -> {"calls", "total", "self"} summed over spans of that name,
    plus the mapping-torus share of gamma_plus under "gamma_plus@mt"."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, _, tag) in enumerate(spans):
        keys = [name]
        if name == "entropy_estimators.gamma_plus" and str(tag).startswith("reeb_mapping_torus"):
            keys.append("gamma_plus@mt")
        for key in keys:
            agg = out.setdefault(key, {"calls": 0, "total": 0.0, "self": 0.0})
            agg["calls"] += 1
            agg["total"] += end - start
            agg["self"] += end - start - child[i]
    return out


def layer_metrics(spans, counts, extra):
    """name -> (value, unit) for every PER_LAYER metric, from spans,
    counters and the values measured outside the traced process (`extra`)."""
    totals = span_totals(spans)
    empty = {"calls": 0, "total": 0.0, "self": 0.0}
    values = {}
    for metric, (name, kind) in _FROM_SPANS.items():
        values[metric] = totals.get(name, empty)[kind]
    values["entropy_estimators.gamma_plus_mt_s"] = totals.get("gamma_plus@mt", empty)["total"]
    for name in ("convex_body.fit_points", "entropy_bounds.quad_calls",
                 "reeb_collapse.dual_objects", "entropy_estimators.htop_pair_tests",
                 "entropy_estimators.htop_accepted"):
        values[name] = counts.get(name, 0)
    tests = counts.get("entropy_estimators.htop_candidate_tests", 0)
    values["entropy_estimators.htop_accept_ratio"] = (
        counts.get("entropy_estimators.htop_accepted", 0) / tests if tests else 0.0)
    values.update(extra)
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}
