"""Span tracing of the program's layers, applied from outside the package.

:class:`Tracer` replaces chosen public functions of ``stardemand`` modules
with timing wrappers while it is installed and puts the originals back
when it is removed. A function is patched under every module attribute
that refers to it, because modules such as ``forecast`` import
``build_design`` by name and call it through their own globals.

Spans stay in memory until the run ends. Calls are assumed to come from one
thread, which holds for the CLI with ``--jobs 1``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    pass_id: str = ""
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# What to wrap: (module, function, label, count). ``label(args, kwargs)``
# names a span variant before the call; ``count(args, kwargs, result)``
# gives the span's counters after it.

def _rows_read(args, kwargs, result):
    report = kwargs.get("report", args[3] if len(args) > 3 else None)
    dropped = report.dropped_parse if report is not None else 0
    return {"rows": len(result) + dropped}


def _zone_hit(args, kwargs, result):
    return {"hits": int(result is not None)}


def _bins(args, kwargs, result):
    start, end = kwargs.get("t_range", args[2] if len(args) > 2 else None)
    return {"bins": end - start}


def _scenario_kind(args, kwargs):
    return kwargs.get("model_kind", args[2] if len(args) > 2 else None)


PACKAGE = "stardemand"
TARGETS = (
    ("cli", "cmd_ingest", None, None),
    ("cli", "cmd_grid", None, None),
    ("ingest", "parse_trips", None, _rows_read),
    ("ingest", "bin_counts", None, None),
    ("ingest", "assign_zone", None, _zone_hit),
    ("ingest", "load_zones_geojson", None, None),
    ("panel", "read_panel_csv", None, None),
    ("panel", "write_panel_csv", None, None),
    ("panel", "standardize", None, None),
    ("weights", "centroid_rings", None, None),
    ("weights", "adjacency_rings", None, None),
    ("weights", "read_stack", None, None),
    ("synth", "random_sparse_star_spec", None, None),
    ("synth", "gen_star_process", None, None),
    ("estimators", "build_design", None, None),
    ("estimators", "fit_star_ols", None, None),
    ("estimators", "fit_var_ols", None, None),
    ("estimators", "fit_lasso_path", None, None),
    ("estimators", "solve_lasso_batch", None, None),
    ("estimators", "fit_lasso_star", None, None),
    ("estimators", "tune_lambda", None, None),
    ("forecast", "predict_range", None, _bins),
    ("forecast", "mspe", None, None),
    ("forecast", "run_scenario", _scenario_kind, None),
    ("forecast", "run_grid", None, None),
    ("forecast", "reports_to_csv", None, None),
)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = ""
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and name.split(".")[0] == PACKAGE]

    def install(self) -> None:
        """Wrap every target wherever a package module refers to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        try:
            for mod_name, fn_name, label, count in TARGETS:
                home = sys.modules[f"{PACKAGE}.{mod_name}"]
                original = getattr(home, fn_name)
                wrapper = self._wrap(original, f"{mod_name}.{fn_name}", label, count)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _wrap(self, fn, name: str, label, count):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].span_id if self._stack else None
            span = Span(span_id=len(self.spans), parent_id=parent,
                        name=f"{name}.{label(args, kwargs)}" if label else name,
                        start=0.0, pass_id=self.pass_id)
            self.spans.append(span)
            self._stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            if count is not None:
                span.counters = count(args, kwargs, result)
            return result

        return wrapper

    # -- output -----------------------------------------------------------

    def to_records(self) -> list[list]:
        """Spans as ``[id, parent, name, start, end, pass, counters]`` rows."""
        return [[s.span_id, s.parent_id, s.name, s.start, s.end, s.pass_id, s.counters]
                for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.span_id, []), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.span_id] = s.duration - covered
    return out


def layer_stat(spans: list[Span], selfs: dict[int, float], name: str, stat: str,
               passes: int = 1) -> float:
    """One per-layer figure: ``stat`` of the spans called ``name``, per pass.

    ``s`` and ``self_s`` are seconds, ``calls`` a count, ``p50_ms`` and
    ``max_ms`` the median and largest span in milliseconds, ``hit_ratio``
    the ``hits`` counter over ``calls``, and any other stat a counter. Sums
    are divided by ``passes``. A layer that did not run reads 0.
    """
    mine = [s for s in spans if s.name == name]
    if not mine:
        return 0.0
    if stat == "p50_ms":
        return 1e3 * statistics.median(s.duration for s in mine)
    if stat == "max_ms":
        return 1e3 * max(s.duration for s in mine)
    if stat == "hit_ratio":
        return sum(s.counters.get("hits", 0) for s in mine) / len(mine)
    if stat == "s":
        total = sum(s.duration for s in mine)
    elif stat == "self_s":
        total = sum(selfs[s.span_id] for s in mine)
    elif stat == "calls":
        total = len(mine)
    else:
        total = sum(s.counters.get(stat, 0) for s in mine)
    return total / passes
