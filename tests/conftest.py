import math
from pathlib import Path

import numpy as np
import pytest

from aessim import plant
from aessim.capability import EgoState, VehicleParams
from aessim.geometry import CollisionReport, Pose, sat_check

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture
def ref_params() -> VehicleParams:
    """Mid-size vehicle used throughout the numeric examples."""
    return VehicleParams(m=2000.0, a=1.4, b=1.6, h_cog=0.55, w=1.6,
                         C_f=1.0e5, C_r=1.0e5, I_zz=3500.0, delta_max=0.1)


@pytest.fixture
def ego20() -> EgoState:
    return EgoState(v_x=20.0)


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR


@pytest.fixture
def plant_cos(monkeypatch):
    """Counts the math.cos calls of aessim.plant in `calls`: each RK4 stage
    of a plant substep makes exactly one."""
    class CountingMath:
        calls = 0

        def cos(self, x):
            self.calls += 1
            return math.cos(x)

        def __getattr__(self, name):
            return getattr(math, name)

    counting = CountingMath()
    monkeypatch.setattr(plant, "math", counting)
    return counting


def reference_corners(path, fp, X=0.0, Y=0.0) -> list:
    """(x, y) arrays of each footprint corner at every sample, formed on the
    path's own samples and then translated by (X, Y) (reference)."""
    c, s = np.cos(path.psi), np.sin(path.psi)
    cx = path.x + fp.ref_offset * c
    cy = path.y + fp.ref_offset * s
    hl, hw = 0.5 * fp.length, 0.5 * fp.width
    return [(X + (cx + dx * c - dy * s), Y + (cy + dx * s + dy * c))
            for dx, dy in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))]


def reference_driveable(path, space, fp, X=0.0, Y=0.0) -> bool:
    """The per-sample corner test of the driveable check (reference): every
    corner translated by (X, Y) at every sample inside the corridor,
    boundary included."""
    return all(bool(np.all((x >= space.x_start) & (x <= space.x_end)
                           & (y >= space.y_right) & (y <= space.y_left)))
               for x, y in reference_corners(path, fp, X, Y))


def reference_collision_check(path, targets, fp, dt_check=0.1, X=0.0,
                              Y=0.0):
    """The staged collision check, predicting each target on the path's own
    check instants, one target after the other (reference)."""
    report = CollisionReport()
    times = path.t
    if len(times) == 0:
        return report
    dt_path = float(times[1] - times[0]) if len(times) > 1 else dt_check
    stride = max(1, round(min(dt_check / max(dt_path, 1e-9), len(times))))
    idx = np.arange(0, len(times), stride)
    if idx[-1] != len(times) - 1:
        idx = np.append(idx, len(times) - 1)
    check_t = times[idx]

    c, s = np.cos(path.psi[idx]), np.sin(path.psi[idx])
    ego_x, ego_y = X + path.x[idx], Y + path.y[idx]
    ego_cx = ego_x + fp.ref_offset * c
    ego_cy = ego_y + fp.ref_offset * s

    for target in targets:
        vx, vy = target.velocity
        tx = target.pose.X + vx * check_t
        ty = target.pose.Y + vy * check_t
        psi, off = target.pose.psi, target.footprint.ref_offset
        tcx = tx + off * math.cos(psi)
        tcy = ty + off * math.sin(psi)
        dist = np.hypot(tcx - ego_cx, tcy - ego_cy)

        rc = fp.circumscribed_radius + target.footprint.circumscribed_radius
        ri = fp.inscribed_radius + target.footprint.inscribed_radius
        clear = dist > rc
        report.resolved_circumscribed += int(clear.sum())
        for k in np.nonzero(~clear)[0]:
            if dist[k] < ri:
                report.resolved_inscribed += 1
                report.collides = True
                return report
            report.sat_evaluations += 1
            if sat_check(Pose(float(ego_x[k]), float(ego_y[k]),
                              float(path.psi[idx[k]])), fp,
                         Pose(float(tx[k]), float(ty[k]), psi),
                         target.footprint):
                report.collides = True
                return report
    return report


def reference_proximity_cost(path, targets, w, X=0.0, Y=0.0) -> float:
    """Mean over samples of the distance to the nearest target, each target
    predicted on the path's own grid (reference)."""
    if not targets:
        return 0.0
    xs, ys = X + path.x, Y + path.y
    dmin = np.full(len(path), math.inf)
    for target in targets:
        vx, vy = target.velocity
        d = np.hypot((target.pose.X + vx * path.t) - xs,
                     (target.pose.Y + vy * path.t) - ys)
        np.minimum(dmin, d, out=dmin)
    return w.K_prox * float(np.mean(dmin))
