"""In-memory span tracer for the layers of circlemaps, and the per-layer rows.

The tracer wraps, from outside the package, the public functions and public
methods of each layer module. Each wrapped call records a span (name, start,
end, parent span) in a list kept in memory; hot tiny functions only bump a
counter. Every module that imported a wrapped function with ``from .x import
y`` gets the wrapper rebound, so no call path bypasses it. A name that a
later version of the package no longer has is skipped and its rows are
reported as absent.

Self time of a span is its duration minus the part of that interval covered
by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "circlemaps"
LAYER_MODULES = ("disk", "blaschke", "fourier", "certify", "approx", "gallery", "bounds",
                 "mapspec", "cli")
# cli: only the entry point, so that its self time is argument handling, JSON and file I/O
ONLY = {"cli": ("main",)}
# called hundreds of thousands of times per run: a span each would dominate the run
COUNT_ONLY = ("disk.as_disk",)
# private names a row needs: a call that reaches the power-sum kernel missed the cache
PRIVATE_COUNTERS = ("blaschke._power_sums_raw",)
BIG_POWER_SUM = 1_000_000  # n*M at and above which power_sums consults its cache


def _size(x):
    try:
        return len(x)
    except TypeError:
        return None


def _annotate_power_sums(a):
    n, M = _size(a["points"]), int(a["M"])
    return {"terms": n * (M + 1), "big": int(n * M >= BIG_POWER_SUM)}


def _annotate_trig_eval(a):
    theta = a["theta"]
    points = theta.size if hasattr(theta, "size") else (_size(theta) or 1)
    return {"terms": points * a["self"].m}


# argument-derived counts, keyed by span name; each gets the bound arguments
ANNOTATORS = {
    "blaschke.power_sums": _annotate_power_sums,
    "disk.poisson_sum_grid": lambda a: {"pair_evals": _size(a["points"]) * int(a["grid_size"])},
    "blaschke.poisson_sum_signed_grid": lambda a: {"grid_points": int(a["g"])},
    "fourier.TrigSeries.eval": _annotate_trig_eval,
    "fourier.fourier_coefficients": lambda a: {"points": int(a["mp"].m)},
    "certify.embedding_check_sampled": lambda a: {"segments": _size(a["mp"].values)},
}


class Tracer:
    """Records spans of wrapped calls; one tracer per process, single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1, attrs dict]
        self.stack = []
        self.counts = defaultdict(int)
        self.installed = set()
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def span_wrapper(self, name, fn):
        annotate = ANNOTATORS.get(name)
        sig = inspect.signature(fn) if annotate else None
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            if annotate is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs = annotate(bound.arguments)
                except (TypeError, KeyError, AttributeError, ValueError):
                    attrs = {"unannotated": 1}
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, attrs])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if name == "certify.certify_quotient":
                attrs["grid_size"] = getattr(result, "grid_size", 0)
            return result

        return wrapper

    def count_wrapper(self, name, fn):
        counts, spans, stack = self.counts, self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if stack:
                attrs = spans[stack[-1]][4]
                attrs[name] = attrs.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, package: str = PACKAGE):
        """Wrap every layer's public functions and methods; rebind importers."""
        mods = {short: importlib.import_module(f"{package}.{short}") for short in LAYER_MODULES}
        importers = [m for n, m in list(sys.modules.items())
                     if m is not None and (n == package or n.startswith(package + "."))]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if short in ONLY and attr not in ONLY[short]:
                    continue
                if inspect.isfunction(obj):
                    self._wrap_function(f"{short}.{attr}", obj, importers)
                elif inspect.isclass(obj):
                    self._wrap_class(f"{short}.{attr}", obj)
        for name in PRIVATE_COUNTERS:
            short, attr = name.split(".")
            obj = getattr(mods[short], attr, None)
            if inspect.isfunction(obj):
                self._wrap_function(name, obj, importers)

    def _wrap_function(self, name, fn, importers):
        counter_only = name in COUNT_ONLY or name in PRIVATE_COUNTERS
        make = self.count_wrapper if counter_only else self.span_wrapper
        wrapper = make(name, fn)
        for mod in importers:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, fn))
        self.installed.add(name)

    def _wrap_class(self, prefix, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)) and inspect.isfunction(raw.__func__):
                new = type(raw)(self.span_wrapper(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self.span_wrapper(name, raw)
            else:
                continue  # properties and class constants
            setattr(cls, attr, new)
            self._restore.append((cls, attr, raw))
            self.installed.add(name)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "installed": sorted(self.installed)}


# ---------------------------------------------------------------------------
# reduction: spans -> per-name totals -> per-layer rows

def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list:
    """Per span: duration minus the time covered by its direct children."""
    children = defaultdict(list)
    for name, s, e, parent, _ in spans:
        if parent >= 0:
            children[parent].append((s, e))
    return [(e - s) - covered(children[i]) for i, (name, s, e, _, _) in enumerate(spans)]


def totals(spans) -> dict:
    """Per span name: calls, self time and summed annotations.

    Derived per-span facts:
    * certify_quotient: grid_evals = quotient_derivative_grid spans beneath it;
    * poisson_sum_signed_grid: direct = it called poisson_sum_grid directly;
    * power_sums: hit = a call at or above the cache threshold that never
      reached the power-sum kernel.
    """
    st = self_times(spans)
    grid_evals = defaultdict(int)
    direct = set()
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name == "blaschke.quotient_derivative_grid":
            p = parent
            while p >= 0 and spans[p][0] != "certify.certify_quotient":
                p = spans[p][3]
            if p >= 0:
                grid_evals[p] += 1
        elif name == "disk.poisson_sum_grid" and parent >= 0 \
                and spans[parent][0] == "blaschke.poisson_sum_signed_grid":
            direct.add(parent)
    out = defaultdict(lambda: defaultdict(float))
    for i, (name, _, _, _, attrs) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += st[i]
        for k, v in attrs.items():
            if k == "grid_size":
                row["max_grid"] = max(row["max_grid"], v)
            else:
                row[k] += v
        if name == "certify.certify_quotient":
            row["grid_evals"] += grid_evals[i]
        elif name == "blaschke.poisson_sum_signed_grid":
            row["direct"] += i in direct
        elif name == "blaschke.power_sums" and attrs.get("big"):
            row["hit"] += not attrs.get("blaschke._power_sums_raw")
    return out


# (metric name, unit): per-layer rows, averaged per traced pass
LAYER_ROWS = (
    ("blaschke.power_sums.self_s", "s"),
    ("blaschke.power_sums.calls", "count"),
    ("blaschke.power_sums.terms", "count"),
    ("blaschke.power_sums.cache_hit_ratio", "ratio"),
    ("blaschke.derivative_lipschitz_moment.self_s", "s"),
    ("certify.certify_quotient.self_s", "s"),
    ("certify.certify_quotient.calls", "count"),
    ("certify.certify_quotient.grid_evals", "count"),
    ("certify.certify_quotient.max_grid", "count"),
    ("fourier.TrigSeries.eval.self_s", "s"),
    ("fourier.TrigSeries.eval.terms", "count"),
    ("fourier.TrigSeries.resample.self_s", "s"),
    ("fourier.TrigSeries.resample.calls", "count"),
    ("approx.CircleLift.min_slope.self_s", "s"),
    ("blaschke.poisson_sum_signed_grid.self_s", "s"),
    ("blaschke.poisson_sum_signed_grid.grid_points", "count"),
    ("blaschke.poisson_sum_signed_grid.direct_frac", "ratio"),
    ("disk.poisson_sum_grid.self_s", "s"),
    ("disk.poisson_sum_grid.pair_evals", "count"),
    ("disk.as_disk.calls", "count"),
    ("blaschke.BlaschkeQuotient.make.self_s", "s"),
    ("approx.mollify_lift.calls", "count"),
    ("approx.mollify_lift.self_s", "s"),
    ("approx.kernel_sum_approximation.calls", "count"),
    ("approx.kernel_sum_approximation.self_s", "s"),
    ("approx.kernel_pair_approximation.self_s", "s"),
    ("approx.measure_c1_error.self_s", "s"),
    ("blaschke.quotient_arg_grid.self_s", "s"),
    ("blaschke.quotient_values_grid.self_s", "s"),
    ("gallery.rational_family.self_s", "s"),
    ("fourier.fourier_coefficients.self_s", "s"),
    ("fourier.fourier_coefficients.points", "count"),
    ("certify.embedding_check_sampled.self_s", "s"),
    ("certify.embedding_check_sampled.segments", "count"),
    ("bounds.heinz_report.self_s", "s"),
    ("bounds.horconvex_report.self_s", "s"),
    ("mapspec.quotient_from_spec.self_s", "s"),
    ("cli.main.self_s", "s"),
)

# ratio rows: (numerator field, denominator field)
_RATIOS = {"cache_hit_ratio": ("hit", "big"), "direct_frac": ("direct", "calls")}
# rows defined through a second wrapped name, absent when that name is gone
_NEEDS = {"blaschke.power_sums.cache_hit_ratio": "blaschke._power_sums_raw",
          "blaschke.poisson_sum_signed_grid.direct_frac": "disk.poisson_sum_grid"}


def layer_rows(dumps, passes: int):
    """Per-layer rows from the span dumps of `passes` traced passes.

    Returns (rows, absent): rows maps each LAYER_ROWS name to its per-pass
    value (ratios over all passes); absent lists rows whose function the
    package no longer has, reported as 0.
    """
    agg = defaultdict(lambda: defaultdict(float))
    counts = defaultdict(int)
    installed = set()
    for d in dumps:
        for name, row in totals(d["spans"]).items():
            for k, v in row.items():
                agg[name][k] = max(agg[name][k], v) if k == "max_grid" else agg[name][k] + v
        for name, c in d["counts"].items():
            counts[name] += c
        installed.update(d["installed"])
    rows, absent = {}, []
    for metric, _unit in LAYER_ROWS:
        name, field = metric.rsplit(".", 1)
        if name not in installed or _NEEDS.get(metric, name) not in installed:
            absent.append(metric)
            rows[metric] = 0.0
        elif name in COUNT_ONLY:
            rows[metric] = counts[name] / passes
        elif field in _RATIOS:
            num, den = _RATIOS[field]
            d = agg[name][den]
            rows[metric] = agg[name][num] / d if d else 0.0
        elif field == "max_grid":
            rows[metric] = agg[name][field]
        else:
            rows[metric] = agg[name][field] / passes
    return rows, absent


def top_self_times(dumps, k: int = 8):
    """The k span names with the largest summed self time, for the detail line."""
    agg = defaultdict(float)
    for d in dumps:
        for name, row in totals(d["spans"]).items():
            agg[name] += row["self_s"]
    return sorted(agg.items(), key=lambda kv: -kv[1])[:k]
