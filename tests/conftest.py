import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from aessim import geometry, plant
from aessim.capability import EgoState, VehicleParams
from aessim.geometry import (CONTACT_SLACK, CollisionReport, Pose, _corners,
                             sat_check)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture
def ref_params() -> VehicleParams:
    """Mid-size vehicle used throughout the numeric examples."""
    return VehicleParams(m=2000.0, a=1.4, b=1.6, w=1.6,
                         C_f=1.0e5, C_r=1.0e5, I_zz=3500.0, delta_max=0.1)


@pytest.fixture
def ego20() -> EgoState:
    return EgoState(v_x=20.0)


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR


def perfbench_module(scenario_dir, name):
    """A script of perfbench/ imported by path (perfbench is a directory of
    scripts, not a package)."""
    path = scenario_dir.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def formed_corners(monkeypatch) -> list:
    """The footprints whose corners aessim.geometry forms, in call order."""
    formed = []
    corners = geometry._corners

    def counted(pose, fp, c, s):
        formed.append(fp)
        return corners(pose, fp, c, s)

    monkeypatch.setattr(geometry, "_corners", counted)
    return formed


def _count_cos(monkeypatch, module):
    """Replaces the math of module by one that counts its cos calls in
    `calls`."""
    class CountingMath:
        calls = 0

        def cos(self, x):
            self.calls += 1
            return math.cos(x)

        def __getattr__(self, name):
            return getattr(math, name)

    counting = CountingMath()
    monkeypatch.setattr(module, "math", counting)
    return counting


@pytest.fixture
def plant_cos(monkeypatch):
    """Counts the math.cos calls of aessim.plant in `calls`: each RK4 stage
    of a plant substep makes exactly one."""
    return _count_cos(monkeypatch, plant)


@pytest.fixture
def geometry_cos(monkeypatch):
    """Counts the math.cos calls of aessim.geometry in `calls`."""
    return _count_cos(monkeypatch, geometry)


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


def reference_contact_time(pose_a, fp_a, pose_b, fp_b, rvx, rvy,
                           horizon) -> float:
    """first_contact_time of a and of b moving at (rvx, rvy) relative to
    a, by the four-axis interval test alone, with no broad phase
    (reference)."""
    c_a, s_a = math.cos(pose_a.psi), math.sin(pose_a.psi)
    ca = _corners(pose_a, fp_a, c_a, s_a)
    axes_a = [(ax, ay, [x * ax + y * ay for x, y in ca])
              for ax, ay in ((c_a, s_a), (-s_a, c_a))]
    c_b, s_b = math.cos(pose_b.psi), math.sin(pose_b.psi)
    cb = _corners(pose_b, fp_b, c_b, s_b)
    t_first, t_last = 0.0, horizon
    for ax, ay, da in (*axes_a, (c_b, s_b, None), (-s_b, c_b, None)):
        if da is None:
            da = [x * ax + y * ay for x, y in ca]
        db = [x * ax + y * ay for x, y in cb]
        lo = min(da) - max(db) - CONTACT_SLACK
        hi = max(da) - min(db) + CONTACT_SLACK
        rate = rvx * ax + rvy * ay
        if rate == 0.0:
            if lo > 0.0 or hi < 0.0:
                return math.inf
            continue
        t0, t1 = lo / rate, hi / rate
        if rate < 0.0:
            t0, t1 = t1, t0
        t_first, t_last = max(t_first, t0), min(t_last, t1)
        if t_first > t_last:
            return math.inf
    return t_first


def kernel_rows(tracks) -> list[tuple]:
    """Each TargetTrack as the kernel row compute_ttc reads: (X, Y,
    footprint, cos, sin, vx, vy), with TargetTrack.velocity's bits."""
    return [(tr.pose.X, tr.pose.Y, tr.footprint, math.cos(tr.pose.psi),
             math.sin(tr.pose.psi), *tr.velocity) for tr in tracks]


def reference_ttc(ego, targets, fp, horizon) -> float:
    """compute_ttc by reference_contact_time (reference)."""
    pose = Pose(ego.X, ego.Y, ego.psi)
    vx, vy = ego.v_x * math.cos(ego.psi), ego.v_x * math.sin(ego.psi)
    return min((reference_contact_time(pose, fp, tr.pose, tr.footprint,
                                       tr.velocity[0] - vx,
                                       tr.velocity[1] - vy, horizon)
                for tr in targets), default=math.inf)
