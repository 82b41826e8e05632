"""Per-layer spans and counters, recorded from outside the simulator.

The recorder replaces layer functions at every site they are bound in the
``aessim`` package (the defining module and each module that imported them),
so calls made through those names are timed while the recorder is installed
and the original functions are restored afterwards. Nothing under ``src/``
is edited. A function's self time is its span minus the time of the timed
spans it called; helpers that are not wrapped count towards their caller.

Ticks are delimited by successive calls into
``decision.step_state_machine``, which the loop calls once per control tick:
the first tick starts when ``run_scenario`` is entered and the last ends
when it returns.
"""
from __future__ import annotations

import importlib
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

TICK_BUDGET_S = 0.010   # the paper's control period

# Functions timed as spans, as (module, name) under the aessim package.
# compute_tte and lateral_acceleration are not reported; they are timed so
# that simloop.run_scenario's self time is the loop's own work.
TIMED = (
    ("simloop", "run_scenario"),
    ("scenario", "parse_scenario"),
    ("capability", "lateral_capability"),
    ("pathgen", "generate_path_set"),
    ("geometry", "collision_check"),
    ("geometry", "sat_check"),
    ("geometry", "driveable_area_check"),
    ("ranking", "rank_paths"),
    ("ranking", "select_path"),
    ("ranking", "monitor_selected"),
    ("decision", "compute_ttc"),
    ("decision", "compute_tte"),
    ("decision", "evaluate_triggers"),
    ("decision", "step_state_machine"),
    ("control", "path_to_vehicle_frame"),
    ("control", "tracking_errors"),
    ("control", "control_step"),
    ("plant", "plant_step"),
    ("plant", "lateral_acceleration"),
)
# Spans whose per-call durations are kept for percentiles.
KEEP_DURATIONS = {"decision.compute_ttc", "ranking.rank_paths"}
# Only the contact-time bisection inside collision_check (for the TTC and
# for rejected paths) calls circumscribed_check, so its call count is the
# number of refinement steps. Counted without a span to keep it cheap.
REFINE_STEP = ("geometry", "circumscribed_check")


class Stat:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self, keep: bool):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: list[float] | None = [] if keep else None


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "aessim"
                                  or name.startswith("aessim."))]


def binding_sites() -> dict[tuple[str, str], list[tuple[object, str]]]:
    """Every (module, attribute) through which each layer function is called."""
    modules = _package_modules()
    sites = {}
    for mod, name in TIMED + (REFINE_STEP,):
        fn = getattr(importlib.import_module(f"aessim.{mod}"), name)
        sites[(mod, name)] = [(m, attr) for m in modules
                              for attr, value in vars(m).items()
                              if value is fn]
    return sites


class Recorder:
    """Spans and counters of one pass of a workload."""

    def __init__(self, sites):
        self.stats: dict[str, Stat] = {}
        self.counts = {
            "ttc_finite": 0, "refine_steps": 0, "circle_resolved": 0,
            "check_instants": 0, "candidates": 0, "survivors": 0,
            "rejected.not_driveable": 0, "rejected.collision": 0,
            "path_samples": 0, "trace_bytes": 0,
        }
        self.tick_busy: list[float] = []
        self._ticks: list[float] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object, object]] = []

        hooks = {
            "decision.compute_ttc": (None, self._on_ttc),
            "geometry.collision_check": (None, self._on_report),
            "ranking.rank_paths": (None, self._on_ranked),
            "pathgen.generate_path_set": (None, self._on_path_set),
            "decision.step_state_machine": (self._ticks.append, None),
            "simloop.run_scenario": (self._on_run_start, self._on_run_end),
        }
        for (mod, name), bound in sites.items():
            key = f"{mod}.{name}"
            orig = getattr(importlib.import_module(f"aessim.{mod}"), name)
            if (mod, name) == REFINE_STEP:
                wrapper = self._counter(orig)
            else:
                wrapper = self._span(key, orig, *hooks.get(key, (None, None)))
            self._patches += [(m, attr, orig, wrapper) for m, attr in bound]

        trace_log = importlib.import_module("aessim.trace").TraceLog
        write = trace_log.write
        self._patches.append(
            (trace_log, "write", write,
             self._span("trace.write", write, None, self._on_written)))

    # --- wrappers ---------------------------------------------------------

    def _span(self, key, fn, on_enter, on_result):
        stat = self.stats[key] = Stat(key in KEEP_DURATIONS)
        stack = self._stack

        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            if on_enter is not None:
                on_enter(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                if stack:
                    stack[-1][0] += d
                stat.calls += 1
                stat.total += d
                stat.self_time += d - child[0]
                if stat.durations is not None:
                    stat.durations.append(d)
            if on_result is not None:
                on_result(out, t1)
            return out

        span.__wrapped__ = fn
        return span

    def _counter(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["refine_steps"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # --- result hooks -----------------------------------------------------

    def _on_ttc(self, ttc, _t):
        if math.isfinite(ttc):
            self.counts["ttc_finite"] += 1

    def _on_report(self, report, _t):
        resolved = report.resolved_circumscribed + report.resolved_inscribed
        self.counts["circle_resolved"] += resolved
        self.counts["check_instants"] += resolved + report.sat_evaluations

    def _on_ranked(self, ranked, _t):
        c = self.counts
        c["candidates"] += len(ranked)
        for r in ranked:
            if r.rejected is None:
                c["survivors"] += 1
            else:
                c[f"rejected.{r.rejected}"] += 1

    def _on_path_set(self, path_set, _t):
        self.counts["path_samples"] += sum(len(p) for p in path_set.paths)

    def _on_written(self, files, _t):
        self.counts["trace_bytes"] += sum(Path(p).stat().st_size
                                          for p in files.values())

    def _on_run_start(self, t0):
        self._ticks.clear()
        self._ticks.append(t0)

    def _on_run_end(self, _result, t1):
        # the first boundary is the run start, the first state-machine call
        # falls inside that first tick
        bounds = [self._ticks[0]] + self._ticks[2:] + [t1]
        self.tick_busy += [b - a for a, b in zip(bounds, bounds[1:])]

    # --- installation -----------------------------------------------------

    @contextmanager
    def installed(self):
        """Route calls through the wrappers for the duration of the block."""
        for owner, attr, _orig, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, orig, _wrapper in self._patches:
                setattr(owner, attr, orig)
            self._stack.clear()
