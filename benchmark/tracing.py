"""Spans around the public functions and methods of each elicitrisk module.

Used only by the traced run.  Each wrapper records a span (name, start, end,
parent span, operation id) in flat arrays and adds its self time, the
duration its child spans do not cover, to its category.  The modules bind
each other's names at import (`from .spectral import nu`), so every module
attribute that refers to a wrapped function is replaced.  tracemalloc runs
only inside the spans whose peak memory is reported, which never nest.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
import tracemalloc
from array import array
from collections import Counter

LAYERS = ("distributions", "spectral", "risk", "elicit", "scoring", "cli")
_LADDER = ("cdf", "quantile", "partial_quantile_integral",
           "upper_partial_moment", "lower_partial_moment")

# traced callable -> category; public functions outside this table get
# spans (so their time leaves their caller's self time) but no metric
CATEGORIES = {
    "distributions.empirical_from_csv": "csv_read",
    **{f"distributions.{n}": "law_build" for n in (
        "FiniteAtomic.__init__", "FiniteAtomic._from_cum", "Empirical.__init__",
        "Uniform.__init__", "two_point", "dirac", "mix")},
    **{f"distributions.{c}.{m}": "ladder" for c in ("FiniteAtomic", "Uniform") for m in _LADDER},
    "spectral.nu": "nu",
    "spectral.nu_via_U": "nu_via_U",
    "spectral.interval_mass": "interval_mass",
    "risk.expectile": "expectile",
    "risk.evaluate": "evaluate",
    **{f"risk.{c}.evaluate": "evaluate" for c in (
        "VaR", "ES", "SpectralRisk", "InfOverFamily", "ExpectileRisk", "NegMean")},
    "risk.coherence_check": "coherence_check",
    "risk.min_nu_over_mp": "min_nu_over_mp",
    "elicit.identify_C": "identify_C",
    "elicit.convex_level_set_test": "hunt",
    "elicit.bound_check": "bound_check",
    "elicit.spectral_bounds_check": "spectral_bounds_check",
    "scoring.ForecastSeries.from_csv": "panel_read",
    "scoring.compare": "compare",
    "scoring.argmin_expected_score": "argmin",
    "cli.main": "verb",
}
PEAK_CATEGORIES = {"nu", "argmin"}

# (metric, unit, better, kind, category); kind "self" sums self time,
# "count" counts outermost spans of the category, "peak" is the largest
# extra traced memory inside one span
PER_LAYER = [
    ("distributions.csv_read_s", "s", "lower", "self", "csv_read"),
    ("distributions.law_build_s", "s", "lower", "self", "law_build"),
    ("distributions.law_builds", "count", "lower", "count", "law_build"),
    ("distributions.ladder_s", "s", "lower", "self", "ladder"),
    ("distributions.ladder_calls", "count", "lower", "count", "ladder"),
    ("spectral.nu_s", "s", "lower", "self", "nu"),
    ("spectral.nu_calls", "count", "lower", "count", "nu"),
    ("spectral.nu_peak_mb", "MB", "lower", "peak", "nu"),
    ("spectral.nu_via_U_s", "s", "lower", "self", "nu_via_U"),
    ("spectral.interval_mass_s", "s", "lower", "self", "interval_mass"),
    ("spectral.interval_mass_calls", "count", "lower", "count", "interval_mass"),
    ("risk.expectile_s", "s", "lower", "self", "expectile"),
    ("risk.expectile_calls", "count", "lower", "count", "expectile"),
    ("risk.evaluate_calls", "count", "lower", "count", "evaluate"),
    ("risk.coherence_check_s", "s", "lower", "self", "coherence_check"),
    ("risk.min_nu_over_mp_s", "s", "lower", "self", "min_nu_over_mp"),
    ("elicit.identify_C_s", "s", "lower", "self", "identify_C"),
    ("elicit.hunt_s", "s", "lower", "self", "hunt"),
    ("elicit.hunt_evaluations", "count", "lower", "hunt", None),
    ("elicit.bound_check_s", "s", "lower", "self", "bound_check"),
    ("elicit.spectral_bounds_check_s", "s", "lower", "self", "spectral_bounds_check"),
    ("scoring.panel_read_s", "s", "lower", "self", "panel_read"),
    ("scoring.compare_s", "s", "lower", "self", "compare"),
    ("scoring.argmin_s", "s", "lower", "self", "argmin"),
    ("scoring.argmin_calls", "count", "higher", "count", "argmin"),
    ("scoring.argmin_peak_mb", "MB", "lower", "peak", "argmin"),
    ("cli.import_s", "s", "lower", "import", None),
    ("cli.verb_self_s", "s", "lower", "self", "verb"),
    ("trace.wall_s", "s", "lower", "trace", None),
    ("trace.overhead_s", "s", "lower", "trace", None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = -1
        self._stack: list[list] = []   # [span index, time covered by children]
        self._depth: Counter = Counter()
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.peak_mb: dict = {}
        self.hunt_evaluations = 0

    def wrap(self, fn, qualname: str):
        cat = CATEGORIES.get(qualname)
        peak = cat in PEAK_CATEGORIES
        nid = len(self.names)
        self.names.append(qualname)
        stack, depth = self._stack, self._depth

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            if cat is not None:
                if depth[cat] == 0:
                    self.calls[cat] += 1
                    if cat == "evaluate" and depth["hunt"]:
                        self.hunt_evaluations += 1
                depth[cat] += 1
            frame = [idx, 0.0]
            stack.append(frame)
            if peak:
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if peak:
                    mb = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                    self.peak_mb[cat] = max(self.peak_mb.get(cat, 0.0), mb)
                    if started:
                        tracemalloc.stop()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                if cat is not None:
                    depth[cat] -= 1
                    self.self_s[cat] += (t1 - t0) - frame[1]
                self.start[idx], self.end[idx] = t0, t1

        return traced

    def install(self) -> None:
        """Wrap every public function and the listed methods."""
        mods = {layer: sys.modules[f"elicitrisk.{layer}"] for layer in LAYERS}
        replaced = {}
        for layer, mod in mods.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[obj] = self.wrap(obj, f"{layer}.{attr}")
        for key in CATEGORIES:
            layer, *path = key.split(".")
            if len(path) != 2:
                continue
            cls = getattr(mods[layer], path[0])
            raw = cls.__dict__[path[1]]
            if isinstance(raw, classmethod):
                setattr(cls, path[1], classmethod(self.wrap(raw.__func__, key)))
            else:
                setattr(cls, path[1], self.wrap(raw, key))
        for name, mod in list(sys.modules.items()):
            if name == "elicitrisk" or name.startswith("elicitrisk."):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in replaced:
                        setattr(mod, attr, replaced[val])

    def metrics(self) -> dict:
        """Per-layer values from the spans, keyed by metric name (import and trace excluded)."""
        out = {}
        for name, _, _, kind, cat in PER_LAYER:
            if kind == "self":
                out[name] = self.self_s[cat]
            elif kind == "count":
                out[name] = self.calls[cat]
            elif kind == "peak":
                out[name] = self.peak_mb.get(cat, 0.0)
            elif kind == "hunt":
                out[name] = self.hunt_evaluations
        return out

    def write(self, path) -> int:
        """Write the spans as gzipped CSV; return how many."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start,end,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]},{self.op[i]}\n")
        return len(self.start)
