"""Outside-in span tracer for the layers of ``fbsdekit``.

``Tracer.install()`` replaces every public function of the traced layers
with a timing wrapper, in every ``fbsdekit`` module namespace that binds
it.  A module that did ``from .fields import eval_u`` holds its own
reference to ``eval_u``, so patching ``fbsdekit.fields`` alone would miss
the calls made from ``regression`` and ``solver``.  Problem coefficients
are closures built by factories, so the factories are swapped for ones
that return the spec with each coefficient callable wrapped.

Spans are kept in memory as ``(id, parent, name, t0, t1, self_s, count)``
tuples.  A span's self time is its duration minus the durations of its
direct child spans.  ``per_layer_metrics`` turns the spans of one traced
round into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import pkgutil
import sys
import time

LAYERS = (
    "brownian", "reference", "problems", "solver",
    "regression", "fields", "diagnostics", "cli",
)

COEFFICIENTS = ("b", "sigma", "f", "g", "grad_g", "analytic_u", "analytic_v")


def _fine_increment_count(args, kwargs, result):
    return int(result.size)


def _bound(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _reference_count(fn):
    def count(args, kwargs, result):
        store = _bound(fn, args, kwargs, "store")
        return store.num_paths * store.fine_n
    return count


def _iteration_count(fn):
    def count(args, kwargs, result):
        cfg = _bound(fn, args, kwargs, "cfg")
        return cfg.num_paths * cfg.n_steps * (cfg.num_iterations + 1)
    return count


# Span names whose spans also carry a work count.
_COUNTS = {
    "brownian.fine_increments": lambda fn: _fine_increment_count,
    "reference.simulate_reference": _reference_count,
    "solver.run_markovian_iteration": _iteration_count,
}


def _public_names(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names if getattr(getattr(module, n), "__module__", None)
            == module.__name__]


def traced_targets():
    """``(span name, owner, attribute)`` for every function the tracer wraps.

    The public functions of each layer module, and the public methods of
    the classes it exports.
    """
    targets = []
    for layer in LAYERS:
        module = importlib.import_module(f"fbsdekit.{layer}")
        for name in _public_names(module):
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                targets.append((f"{layer}.{name}", module, name))
            elif inspect.isclass(obj):
                for attr, value in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(value):
                        targets.append((f"{layer}.{attr}", obj, attr))
    return targets


def _returns_problem(fn):
    annotation = inspect.signature(fn).return_annotation
    return getattr(annotation, "__name__", annotation) == "ProblemSpec"


def _fbsdekit_modules():
    package = importlib.import_module("fbsdekit")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"fbsdekit.{info.name}")
    return [module for name, module in sorted(sys.modules.items())
            if name == "fbsdekit" or name.startswith("fbsdekit.")]


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._clock = clock
        self._stack = []
        self._ids = itertools.count()
        self._patches = []
        self.originals = {}

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped so that each call records a span ``name``.

        ``count(args, kwargs, result)``, when given, gives the work count
        stored with the span.
        """
        clock, stack, spans, ids = self._clock, self._stack, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            work = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    work = count(args, kwargs, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                if stack:
                    stack[-1][1] += elapsed
                spans.append((frame[0], parent, name, t0, t1, elapsed - frame[1], work))

        return traced

    def _wrap_factory(self, name, factory):
        def build(*args, **kwargs):
            spec = factory(*args, **kwargs)
            wrapped = {
                field: self.wrap(f"problems.{field}", getattr(spec, field))
                for field in COEFFICIENTS
                if getattr(spec, field) is not None
            }
            return dataclasses.replace(spec, **wrapped)

        return self.wrap(name, functools.wraps(factory)(build))

    def install(self):
        """Wrap every traced function wherever ``fbsdekit`` binds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _fbsdekit_modules()
        for name, owner, attr in traced_targets():
            fn = vars(owner)[attr]
            if _returns_problem(fn):
                wrapper = self._wrap_factory(name, fn)
            else:
                make_count = _COUNTS.get(name)
                wrapper = self.wrap(name, fn, make_count(fn) if make_count else None)
            self.originals[id(fn)] = (fn, wrapper)
            if inspect.isclass(owner):
                self._patch(owner, attr, fn, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = self.originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, value, hit[1])

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        """Put every original function back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.originals.clear()

    def take_spans(self):
        """Return the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarize(spans):
    """Per span name: calls, inclusive seconds, self seconds, work count."""
    table = {}
    for _id, _parent, name, t0, t1, self_s, work in spans:
        row = table.setdefault(name, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += t1 - t0
        row[2] += self_s
        row[3] += work
    return table


# Per-layer metrics built from sums over span names:
# (metric, unit, statistic, span names) with statistic "self", "incl" or "calls".
_SUMS = [
    ("brownian.fine_increments_s", "s", "self", ["brownian.fine_increments"]),
    ("brownian.coarsen_s", "s", "self", ["brownian.coarsen_increments"]),
    ("brownian.coarsen_calls", "count", "calls", ["brownian.coarsen_increments"]),
    ("reference.simulate_s", "s", "self", ["reference.simulate_reference"]),
    ("reference.compute_errors_s", "s", "incl", ["reference.compute_errors"]),
    ("problems.coeff_s", "s", "self", [f"problems.{c}" for c in COEFFICIENTS]),
    ("problems.coeff_calls", "count", "calls", [f"problems.{c}" for c in COEFFICIENTS]),
    ("solver.iteration_s", "s", "incl", ["solver.run_markovian_iteration"]),
    ("solver.forward_s", "s", "self", ["solver.forward_simulate"]),
    ("solver.backward_s", "s", "self", ["solver.backward_pass"]),
    ("regression.fit_diff_s", "s", "self", ["regression.fit_step_differentiation"]),
    ("regression.fit_direct_s", "s", "self", ["regression.fit_step_direct"]),
    ("regression.lsq_s", "s", "incl", ["regression.solve_linear_lsq"]),
    ("regression.lsq_calls", "count", "calls", ["regression.solve_linear_lsq"]),
    ("regression.fits", "count", "calls",
     ["regression.fit_step_differentiation", "regression.fit_step_direct"]),
    ("fields.eval_s", "s", "self",
     ["fields.eval_u", "fields.eval_v_diff", "fields.eval_v_direct", "fields.grad_u"]),
    ("fields.eval_calls", "count", "calls",
     ["fields.eval_u", "fields.eval_v_diff", "fields.eval_v_direct", "fields.grad_u"]),
    ("fields.features_s", "s", "self", ["fields.features", "fields.grad_features"]),
    ("fields.features_calls", "count", "calls", ["fields.features", "fields.grad_features"]),
    ("diagnostics.check_conditions_s", "s", "incl", ["diagnostics.check_conditions"]),
]


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def per_layer_metrics(spans, round_s):
    """Per-layer metrics of one traced round that took ``round_s`` seconds.

    Layers a workload never calls read 0, and so do rates over them.
    ``<layer>.self_s`` is the self time of all spans of that layer;
    ``trace.coverage`` is their sum over ``round_s``.
    """
    table = summarize(spans)
    stat = {"calls": 0, "incl": 1, "self": 2, "work": 3}

    def total(names, key):
        return sum(table[n][stat[key]] for n in names if n in table)

    out = {}
    for metric, unit, key, names in _SUMS:
        out[metric] = (total(names, key), unit)

    fine_parents = {parent for _id, parent, name, *_ in spans
                    if name == "brownian.fine_increments"}
    coarsen = [span for span in spans if span[2] == "brownian.coarsen_increments"]
    hits = sum(1 for span in coarsen if span[0] not in fine_parents)
    normals = total(["brownian.fine_increments"], "work")
    fine_steps = total(["reference.simulate_reference"], "work")
    sweeps = total(["solver.run_markovian_iteration"], "work")
    checks = total(["diagnostics.check_conditions"], "calls")
    out.update({
        "brownian.normals": (normals, "count"),
        "brownian.normals_per_s": (
            _ratio(normals, total(["brownian.fine_increments"], "incl")), "1/s"),
        "brownian.coarse_cache_hit_ratio": (_ratio(hits, len(coarsen)), "ratio"),
        "reference.path_fine_steps": (fine_steps, "count"),
        "reference.path_fine_steps_per_s": (
            _ratio(fine_steps, total(["reference.simulate_reference"], "incl")), "1/s"),
        "solver.path_steps_per_s": (_ratio(sweeps, out["solver.iteration_s"][0]), "1/s"),
        "diagnostics.checks_per_s": (
            _ratio(checks, out["diagnostics.check_conditions_s"][0]), "1/s"),
    })

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_calls, _incl, self_s, _work) in table.items():
        layer_self[name.split(".", 1)[0]] += self_s
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_s"] = (seconds, "s")
    out["trace.run_s"] = (round_s, "s")
    out["trace.coverage"] = (_ratio(sum(layer_self.values()), round_s), "ratio")
    return out
