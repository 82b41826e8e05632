"""Run trace: per-tick rows, per-cycle path summaries, the machine-readable
run summary and plot-data emission. All files are plain delimited text or
JSON and byte-deterministic for identical runs."""
from __future__ import annotations

import json
from pathlib import Path

from .errors import AesError


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


class TraceLog:
    """Chronological record of one closed-loop run."""

    BASE_COLUMNS = [
        "t", "state", "X", "Y", "psi", "u_v", "v_v", "r", "a_y", "ay_sat",
        "ttc", "tte", "trigger", "path_id", "y_e", "psi_e", "delta_g",
        "M_z", "F_fl", "F_fr", "F_rl", "F_rr",
    ]
    PATH_COLUMNS = [
        "t", "kind", "side", "index", "path_id", "status", "severity",
        "proximity", "total", "terminal_y",
    ]

    def __init__(self, target_ids: list[str]):
        self.target_ids = list(target_ids)
        self.columns = list(self.BASE_COLUMNS)
        for tid in self.target_ids:
            self.columns += [f"dist_{tid}", f"X_{tid}", f"Y_{tid}"]
        self.rows: list[list] = []
        self.path_events: list[list] = []
        self.replan_events: list[dict] = []
        self.engage_candidates: list[dict] = []
        self.summary: dict = {}

    def add_row(self, **kw) -> None:
        self.rows.append([kw.get(c) for c in self.columns])

    def add_path_event(self, **kw) -> None:
        self.path_events.append([kw.get(c) for c in self.PATH_COLUMNS])

    def add_replan_event(self, t: float, reason: str, rho0_path: float,
                         rho0_plant: float) -> None:
        self.replan_events.append({
            "t": float(t), "reason": reason, "rho0_path": float(rho0_path),
            "rho0_plant": float(rho0_plant),
        })

    def snapshot_candidates(self, ranked, selected) -> None:
        """Keep decimated polylines of the path set active at engagement,
        marking the survivor the selected path was resampled from."""
        self.engage_candidates = []
        chosen = (selected.path_id, selected.side)
        for r in ranked:
            p = r.path
            status = r.rejected or ("selected" if (p.path_id, p.side) == chosen
                                    else "survivor")
            self.engage_candidates.append({
                "path_id": p.path_id,
                "status": status,
                "x": [float(v) for v in r.X + p.x[::5]],
                "y": [float(v) for v in r.Y + p.y[::5]],
            })

    def column_index(self, name: str) -> int:
        return self.columns.index(name)

    # --- serialisation -----------------------------------------------------

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        files = {}
        trace_path = out / "trace.csv"
        with trace_path.open("w", newline="\n") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        files["trace"] = trace_path

        paths_path = out / "paths.csv"
        with paths_path.open("w", newline="\n") as fh:
            fh.write(",".join(self.PATH_COLUMNS) + "\n")
            for row in self.path_events:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        files["paths"] = paths_path

        summary_path = out / "summary.json"
        payload = dict(self.summary)
        payload["replan_events"] = self.replan_events
        summary_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True, allow_nan=True)
            + "\n")
        files["summary"] = summary_path
        return files


def emit_plot_data(trace: TraceLog, out_dir: str | Path) -> dict[str, Path]:
    """Write columnar plot files derived from the trace.

    planar: ego/target trajectories plus the engagement path candidates;
    timeseries: tracking errors, supervisor state and trigger quantities;
    actuation: yaw rate, steering angle and per-wheel brake forces.
    """
    if not trace.rows:
        raise AesError("cannot emit plot data from an empty trace")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ix = trace.column_index
    files: dict[str, Path] = {}

    path = out / "planar.csv"
    with path.open("w", newline="\n") as fh:
        fh.write("series,label,seq,x,y\n")
        for i, row in enumerate(trace.rows):
            fh.write(f"ego,ego,{i},{_fmt(row[ix('X')])},"
                     f"{_fmt(row[ix('Y')])}\n")
        for tid in trace.target_ids:
            for i, row in enumerate(trace.rows):
                fh.write(f"target,{tid},{i},{_fmt(row[ix('X_' + tid)])},"
                         f"{_fmt(row[ix('Y_' + tid)])}\n")
        for cand in trace.engage_candidates:
            series = ("path_selected" if cand["status"] == "selected"
                      else "path_" + cand["status"])
            for i, (x, y) in enumerate(zip(cand["x"], cand["y"])):
                fh.write(f"{series},{cand['path_id']},{i},{_fmt(x)},"
                         f"{_fmt(y)}\n")
    files["planar"] = path

    for name, cols in (
            ("timeseries", ["t", "state", "ttc", "tte", "trigger", "y_e",
                            "psi_e"]),
            ("actuation", ["t", "r", "delta_g", "M_z", "F_fl", "F_fr",
                           "F_rl", "F_rr"])):
        path = out / f"{name}.csv"
        with path.open("w", newline="\n") as fh:
            fh.write(",".join(cols) + "\n")
            for row in trace.rows:
                fh.write(",".join(_fmt(row[ix(c)]) for c in cols) + "\n")
        files[name] = path
    return files
