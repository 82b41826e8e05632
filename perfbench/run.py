"""Closed-loop host-time benchmark of the aessim simulator.

    python3 perfbench/run.py --workload encounter --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. A workload is a fixed pass of generated
scenarios (see workloads.py) run back to back in this single-threaded
process, as ``aessim sweep`` does: parse_scenario, then run_scenario and
TraceLog.write per case. Passes repeat while the next one would end within
1.25 x --seconds; whole passes only, so every run has the same mix of cases.

--trace 0 reports the end-to-end metrics with no instrumentation.
--trace 1 runs every case traced (tracer.py), every OVERHEAD_STRIDE-th case
also untraced just before, and reports the per-layer metrics of the traced
runs plus the tracing overhead.

Host times are calibrated against the host's current speed (hostspeed.py);
the uncalibrated end-to-end figures are kept in the details.

Every run is checked: the shipped scenarios must reproduce their known
outcomes, no artefact may hold a non-finite value other than an ``inf`` TTC,
and the artefacts of every repeat of a case must be byte-identical to its
first run. A failed run counts in ``failed`` and is never retried.

The last line of stdout is the result object; the line before it holds the
details (environment, artefact digests, sample counts), which are also
written to .bench_out/BENCH_<workload>_seed<seed>_trace<0|1>.json.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
SETUP_PROBES = 9
# In a traced pass every OVERHEAD_STRIDE-th case also runs untraced, just
# before its traced run, to measure the tracing overhead.
OVERHEAD_STRIDE = 3
ARTEFACTS = ("trace", "paths", "summary")

END_TO_END_UNITS = {
    "ticks_per_s": "1/s", "run_ms.p50": "ms", "run_ms.p90": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}

# Spans reported with their call count and with their self time (ms per
# pass); the remaining per-layer metrics are listed in PER_LAYER_UNITS.
CALLS = (
    "decision.compute_ttc", "decision.step_state_machine",
    "decision.evaluate_triggers", "geometry.collision_check",
    "geometry.sat_check", "geometry.driveable_area_check",
    "ranking.rank_paths", "ranking.monitor_selected",
    "pathgen.generate_path_set", "capability.lateral_capability",
    "control.control_step", "control.tracking_errors",
    "control.path_to_vehicle_frame", "plant.plant_step",
)
SELF_MS = tuple(k for k in CALLS if k != "decision.evaluate_triggers") + (
    "ranking.select_path", "simloop.run_scenario")

PER_LAYER_UNITS = {
    **{f"{k}.calls": "count" for k in CALLS},
    **{f"{k}.self_ms": "ms" for k in SELF_MS},
    "decision.compute_ttc.p50_us": "us", "decision.compute_ttc.p99_us": "us",
    "decision.ttc_finite": "count",
    "geometry.refine_steps": "count", "geometry.circle_resolved_ratio": "ratio",
    "ranking.rank_paths.p99_us": "us", "ranking.candidates": "count",
    "ranking.survivor_ratio": "ratio",
    "ranking.rejected.not_driveable": "count",
    "ranking.rejected.collision": "count",
    "pathgen.path_samples": "count",
    "trace.write.ms": "ms", "trace.bytes": "bytes",
    "scenario.parse_scenario.ms": "ms",
    "simloop.ticks": "count",
    "tick.busy_ms.p50": "ms", "tick.busy_ms.p99": "ms",
    "tick.over_budget": "count",
    "tracing.overhead_ticks_per_s": "1/s",
    "outcome.collided_ratio": "ratio",
}

_NONFINITE = re.compile(rb"(?:^|,)(nan|-?inf)(?=,|$)", re.M)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    s = sorted(values)
    k = (len(s) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def nonfinite_cells(csv: bytes, allowed_inf: str | None = None) -> list[str]:
    """Columns holding nan/inf, except +inf in the allowed column."""
    header = csv[:csv.index(b"\n")].decode().split(",")
    bad = []
    for m in _NONFINITE.finditer(csv):
        line_start = csv.rfind(b"\n", 0, m.start(1)) + 1
        column = header[csv.count(b",", line_start, m.start(1))]
        if not (column == allowed_inf and m.group(1) == b"inf"):
            bad.append(f"{column}={m.group(1).decode()}")
    return bad


def _reject_constant(token: str):
    raise ValueError(f"non-finite value {token}")


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "aessim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    return {
        "git_sha": git_sha(), "source_sha256": source_sha256(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "seed": seed,
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up seconds of SETUP_PROBES fresh interpreters, each running
    setup_probe.py. Not calibrated: the child may run on the other core,
    whose speed the kernel timed in this process does not describe."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


class Run(NamedTuple):
    wall_s: float
    ticks: int
    interval: int   # calibration interval, see hostspeed.HostSpeed


class Workload:
    """The generated cases of one workload and the checks on their runs."""

    def __init__(self, name: str, seed: int, speed):
        from aessim import scenario, simloop
        from workloads import generate
        self.scenario, self.simloop = scenario, simloop
        self.speed = speed
        self.cases = generate(name, seed, SCENARIOS)
        self.configs = [scenario.parse_scenario(c.raw, c.name)
                        for c in self.cases]
        self.out = OUT / name   # every run overwrites the same artefacts
        shutil.rmtree(self.out, ignore_errors=True)
        self.digests: dict[int, tuple[str, ...]] = {}
        self.outcomes: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, i: int, recorder=None) -> Run | None:
        """Run case i, artefact writes included; None when the run failed."""
        case = self.cases[i]
        self.attempted += 1
        error = None
        try:
            with recorder.installed() if recorder else nullcontext():
                # a traced run parses again, so that parsing is traced too
                cfg = (self.scenario.parse_scenario(case.raw, case.name)
                       if recorder else self.configs[i])
                t0 = perf_counter()
                result = self.simloop.run_scenario(cfg)
                files = result.trace.write(self.out)
                elapsed = perf_counter() - t0
        except Exception:  # a raising run is a counted failure, not fatal
            error = traceback.format_exc()
        interval = self.speed.mark()   # right after the run, also on failure
        problems = [error] if error else self._check(i, result, files)
        if problems:
            self.failed += 1
            self.problems.append(f"{case.name}: {'; '.join(problems)}")
            return None
        return Run(elapsed, len(result.trace.rows), interval)

    def calibrated(self, runs: list[Run]) -> list[float]:
        return [r.wall_s * self.speed.factor(r.interval) for r in runs]

    def _check(self, i: int, result, files) -> list[str]:
        exp = self.cases[i].expect
        problems = []
        if exp.outcome is not None and result.outcome != exp.outcome:
            problems.append(f"outcome {result.outcome}, expected {exp.outcome}")
        side = result.summary.get("engage_side")
        if exp.engage_side is not None and side != exp.engage_side:
            problems.append(f"engaged {side}, expected {exp.engage_side}")
        replans = len(result.trace.replan_events)
        if replans < exp.min_replans:
            problems.append(f"{replans} replans, expected >= {exp.min_replans}")
        data = {k: Path(files[k]).read_bytes() for k in ARTEFACTS}
        bad = (nonfinite_cells(data["trace"], allowed_inf="ttc")
               + nonfinite_cells(data["paths"]))
        if bad:
            problems.append(f"non-finite trace values {sorted(set(bad))}")
        try:
            json.loads(data["summary"], parse_constant=_reject_constant)
        except ValueError as exc:
            problems.append(f"summary.json: {exc}")
        digest = tuple(hashlib.sha256(data[k]).hexdigest() for k in ARTEFACTS)
        if self.digests.setdefault(i, digest) != digest:
            problems.append("artefacts differ from the first run of the case")
        self.outcomes.setdefault(i, result.outcome)
        return problems

    def pass_digest(self) -> str | None:
        """sha256 over every case's artefact digests, in pass order."""
        if len(self.digests) != len(self.cases):
            return None
        lines = [f"{self.cases[i].name} " + " ".join(self.digests[i])
                 for i in range(len(self.cases))]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def collided_ratio(self) -> float:
        return (sum(o == "collided" for o in self.outcomes.values())
                / max(1, len(self.outcomes)))


def run_passes(wl: Workload, seconds: float, one_pass) -> int:
    """Whole passes, at least one, while the next one would end within
    1.25 x `seconds`; returns the count."""
    wl.run(0)   # warm-up: lazy imports and first-call costs, not timed
    start = perf_counter()
    passes = 0
    while True:
        one_pass()
        passes += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / passes > 1.25 * seconds:
            return passes


def measure_end_to_end(wl: Workload, seconds: float) -> tuple[dict, dict]:
    runs: list[Run] = []

    def one_pass():
        runs.extend(r for i in range(len(wl.cases))
                    if (r := wl.run(i)) is not None)

    passes = run_passes(wl, seconds, one_pass)
    if not runs:
        raise RuntimeError("no run of the workload succeeded")
    ticks = sum(r.ticks for r in runs)
    cal = wl.calibrated(runs)
    wall = [r.wall_s for r in runs]
    metrics = {
        "ticks_per_s": ticks / sum(cal),
        "run_ms.p50": percentile(cal, 50) * 1e3,
        "run_ms.p90": percentile(cal, 90) * 1e3,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    detail = {"passes": passes, "run_ms_samples": len(runs),
              "simulated_ticks": ticks, "measured_wall_s": sum(wall),
              "wall": {"ticks_per_s": ticks / sum(wall),
                       "run_ms.p50": percentile(wall, 50) * 1e3,
                       "run_ms.p90": percentile(wall, 90) * 1e3}}
    return metrics, detail


def pass_counts(rec, ticks: int) -> dict[str, int]:
    """The deterministic counters of one traced pass."""
    counts = {f"{k}.calls": rec.stats[k].calls for k in CALLS}
    counts.update(rec.counts)
    counts["simloop.ticks"] = ticks
    return counts


def measure_layers(wl: Workload, seconds: float) -> tuple[dict, dict]:
    from tracer import TICK_BUDGET_S, Recorder, binding_sites
    sites = binding_sites()
    recs, pass_ticks = [], []
    paired: dict[str, list[Run]] = {"untraced": [], "traced": []}

    def one_pass():
        rec = Recorder(sites)
        ticks = 0
        for i in range(len(wl.cases)):
            pair = i % OVERHEAD_STRIDE == 0
            if pair and (r := wl.run(i)) is not None:
                paired["untraced"].append(r)
            if (r := wl.run(i, rec)) is not None:
                ticks += r.ticks
                if pair:
                    paired["traced"].append(r)
        recs.append(rec)
        pass_ticks.append(ticks)

    passes = run_passes(wl, seconds, one_pass)
    counts = [pass_counts(r, t) for r, t in zip(recs, pass_ticks)]
    for k, c in enumerate(counts[1:], start=1):
        changed = sorted(n for n in c if c[n] != counts[0][n])
        if changed:
            wl.problems.append(f"pass {k} counts differ from pass 0: {changed}")

    # span times are calibrated like run times, with the median factor
    scale = statistics.median(wl.speed.factors())

    def med_ms(fn) -> float:
        return statistics.median(fn(r) for r in recs) * scale * 1e3

    def pooled(values: list[float], q: float, unit: float) -> float:
        return percentile(values, q) * scale * unit if values else 0.0

    def durations(key: str) -> list[float]:
        return [x for r in recs for x in r.stats[key].durations]

    def rate(runs: list[Run]) -> float:
        return sum(r.ticks for r in runs) / max(sum(wl.calibrated(runs)), 1e-12)

    c = counts[0]
    busy = [x for r in recs for x in r.tick_busy]
    ttc, ranked = durations("decision.compute_ttc"), durations("ranking.rank_paths")
    m = {f"{k}.calls": c[f"{k}.calls"] for k in CALLS}
    for k in SELF_MS:
        m[f"{k}.self_ms"] = med_ms(lambda r, k=k: r.stats[k].self_time)
    m.update({
        "decision.compute_ttc.p50_us": pooled(ttc, 50, 1e6),
        "decision.compute_ttc.p99_us": pooled(ttc, 99, 1e6),
        "decision.ttc_finite": c["ttc_finite"],
        "geometry.refine_steps": c["refine_steps"],
        "geometry.circle_resolved_ratio":
            c["circle_resolved"] / max(1, c["check_instants"]),
        "ranking.rank_paths.p99_us": pooled(ranked, 99, 1e6),
        "ranking.candidates": c["candidates"],
        "ranking.survivor_ratio": c["survivors"] / max(1, c["candidates"]),
        "ranking.rejected.not_driveable": c["rejected.not_driveable"],
        "ranking.rejected.collision": c["rejected.collision"],
        "pathgen.path_samples": c["path_samples"],
        "trace.write.ms": med_ms(lambda r: r.stats["trace.write"].total),
        "trace.bytes": c["trace_bytes"],
        "scenario.parse_scenario.ms":
            med_ms(lambda r: r.stats["scenario.parse_scenario"].total),
        "simloop.ticks": c["simloop.ticks"],
        "tick.busy_ms.p50": pooled(busy, 50, 1e3),
        "tick.busy_ms.p99": pooled(busy, 99, 1e3),
        "tick.over_budget": statistics.median(
            sum(b * scale > TICK_BUDGET_S for b in r.tick_busy) for r in recs),
        "tracing.overhead_ticks_per_s":
            rate(paired["untraced"]) - rate(paired["traced"]),
        "outcome.collided_ratio": wl.collided_ratio(),
    })
    spans = {}
    for k in sorted(recs[0].stats):
        calls = sum(r.stats[k].calls for r in recs)
        total = sum(r.stats[k].total for r in recs) * scale
        spans[k] = {"total_ms_per_pass": total * 1e3 / len(recs),
                    "mean_us": total * 1e6 / calls if calls else 0.0}
    detail = {"passes": passes, "tick_samples": len(busy), "spans": spans,
              "untraced_ticks_per_s": rate(paired["untraced"]),
              "traced_ticks_per_s": rate(paired["traced"]),
              "paired_runs": len(paired["traced"]),
              "pass_counts": counts[0]}
    return m, detail


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "aessim" / "simloop.py").is_file() or not SCENARIOS.is_dir():
        print(f"error: {ROOT} holds no src/aessim or scenarios/; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    from hostspeed import HostSpeed
    speed = HostSpeed()
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    sys.path.insert(0, str(SRC))

    wl = Workload(args.workload, args.seed, speed)
    if args.trace:
        metrics, detail = measure_layers(wl, args.seconds)
        units = PER_LAYER_UNITS
    else:
        metrics, detail = measure_end_to_end(wl, args.seconds)
        metrics["setup_s"] = statistics.median(setup)
        detail["setup_s_samples"] = setup
        units = END_TO_END_UNITS
    if set(metrics) != set(units):
        raise AssertionError(f"metric set mismatch: {set(metrics) ^ set(units)}")

    detail.update({
        "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds, "cases": [c.name for c in wl.cases],
        "artefact_sha256": wl.pass_digest(),
        "collided_ratio": wl.collided_ratio(),
        "host_speed_factor": {
            "median": statistics.median(speed.factors()),
            "min": min(speed.factors()), "max": max(speed.factors())},
        "fail_ratio": wl.failed / wl.attempted,
        "problems": wl.problems,
        "environment": environment(args.seed),
    })
    result = {
        "correct": not wl.problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    OUT.mkdir(exist_ok=True)
    report = OUT / (f"BENCH_{args.workload}_seed{args.seed}"
                    f"_trace{args.trace}.json")
    report.write_text(json.dumps({"detail": detail, "result": result},
                                 indent=2) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
