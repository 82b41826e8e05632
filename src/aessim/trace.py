"""Run trace: per-tick rows, per-cycle path summaries, the machine-readable
run summary and plot-data emission. All files are plain delimited text or
JSON and byte-deterministic for identical runs.

The CSV writer prints a cell by its value: None as "", a str as itself,
and any other cell, a number, as `format(v, ".10g")`, so equal cells print
alike but 0.0 and -0.0, which print 0 and -0. It transposes a block of
rows and formats each column at once: a column whose cells all equal its
first (one `tuple.count`, a C loop, skipped when the last cell differs) and
print alike prints that one cell, and each run of adjacent such columns is
joined once per block.

Every artefact is created as a new file, never truncated in place: on ext4,
truncating a file that holds data waits tens of ms for its writeback. So a
hard link to an earlier artefact, or an open handle on one, keeps its bytes;
a symlink at an artefact path is replaced, not followed; and rewriting an
artefact needs the right to unlink it.
"""
from __future__ import annotations

import json
import struct
from itertools import repeat
from pathlib import Path

from .errors import AesError

BLOCK_ROWS = 512  # rows transposed at once; bounds the columns' memory


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(value, ".10g")


def _prints_alike(c0, col: tuple) -> bool:
    """Whether the cells of col, which all equal c0, print as c0 does:
    equal zeros do when their packed bits agree (module docstring)."""
    if c0 is None or isinstance(c0, str) or c0:
        return True
    bits = struct.pack(f"{len(col)}d", *col)
    return bits == bits[:8] * len(col)


def _format_column(col: tuple):
    """The one cell every entry of the column prints, as a str, or else
    the cells as `_fmt` prints them."""
    c0 = col[0]
    if col[-1] == c0 and col.count(c0) == len(col) \
            and _prints_alike(c0, col):
        return _fmt(c0)
    kinds = set(map(type, col))
    if kinds == {float}:
        return map(format, col, repeat(".10g", len(col)))
    if kinds == {str}:
        return col
    return map(_fmt, col)


def _create(path: Path):
    """path as a new text file open for writing, replacing any file there."""
    path.unlink(missing_ok=True)
    return path.open("x", newline="\n")


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    """The header and a line per row; every row has a cell per column.
    Each run of adjacent one-cell columns is joined once per block."""
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(rows), BLOCK_ROWS):
            block = rows[i:i + BLOCK_ROWS]
            cols = list(zip(*block, strict=True))
            if len(cols) != len(header):
                raise ValueError(f"{len(cols)} cells, not {len(header)}")
            parts = []  # a str per run of one-cell columns, else the cells
            for cells in map(_format_column, cols):
                if isinstance(cells, str) and parts \
                        and isinstance(parts[-1], str):
                    parts[-1] += "," + cells
                else:
                    parts.append(cells)
            lines = zip(*(repeat(p, len(block)) if isinstance(p, str) else p
                          for p in parts))
            fh.write("\n".join(map(",".join, lines)) + "\n")


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
        self.rows: list[list] = []         # a tick's cells in columns order
        self.path_events: list[list] = []  # cells in PATH_COLUMNS order
        self.replan_events: list[dict] = []
        self.engage_candidates: list[dict] = []
        self.summary: dict = {}

    def log_cycle(self, t: float, kind: str, cycle) -> None:
        """Every ranked path of the planner cycle as a path event of this
        kind, with the lateral offset of its placed final sample from its
        start."""
        Y = cycle.Y
        for r in cycle.ranked:
            p = r.path
            y = p.y.item   # Python floats: no numpy-scalar arithmetic
            self.path_events.append([t, kind, p.side, p.index, p.path_id,
                                     r.rejected or "survivor", r.severity,
                                     r.proximity, r.total,
                                     (Y + y(-1)) - (Y + y(0))])

    def snapshot_candidates(self, cycle) -> None:
        """Keep decimated polylines of the planner cycle active at
        engagement, placed at its start point, marking its best survivor,
        which the selected path was resampled from."""
        self.engage_candidates = [{
            "path_id": r.path.path_id,
            "status": r.rejected or ("selected" if r.path is cycle.best
                                     else "survivor"),
            "x": [float(v) for v in cycle.X + r.path.x[::5]],
            "y": [float(v) for v in cycle.Y + r.path.y[::5]],
        } for r in cycle.ranked]

    # --- serialisation -----------------------------------------------------

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        files = {"trace": out / "trace.csv", "paths": out / "paths.csv",
                 "summary": out / "summary.json"}
        _write_csv(files["trace"], self.columns, self.rows)
        _write_csv(files["paths"], self.PATH_COLUMNS, self.path_events)
        payload = dict(self.summary, replan_events=self.replan_events)
        with _create(files["summary"]) as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True,
                                allow_nan=True) + "\n")
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
    col = dict(zip(trace.columns, zip(*trace.rows, strict=True)))
    files = {name: out / f"{name}.csv"
             for name in ("planar", "timeseries", "actuation")}
    series = [("ego", "ego", col["X"], col["Y"])]
    series += [("target", tid, col[f"X_{tid}"], col[f"Y_{tid}"])
               for tid in trace.target_ids]
    series += [("path_" + c["status"], c["path_id"], c["x"], c["y"])
               for c in trace.engage_candidates]
    planar = [(name, label, i, x, y) for name, label, xs, ys in series
              for i, (x, y) in enumerate(zip(xs, ys))]
    _write_csv(files["planar"], ["series", "label", "seq", "x", "y"], planar)
    for name, cols in (
            ("timeseries", ["t", "state", "ttc", "tte", "trigger", "y_e",
                            "psi_e"]),
            ("actuation", ["t", "r", "delta_g", "M_z", "F_fl", "F_fr",
                           "F_rl", "F_rr"])):
        _write_csv(files[name], cols, list(zip(*(col[c] for c in cols))))
    return files
