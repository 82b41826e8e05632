"""Collision geometry: driveable-space containment and the staged
circumscribed-circle / inscribed-circle / separating-axis collision check.

The per-pair kernels (`sat_check` and the contact-time bisection) run on
plain Python floats. They repeat numpy's float operations in numpy's order,
so for finite poses they return the same bits as the array formulas they
replaced: `_interp` is `np.interp` on a strictly increasing grid, and a
corner is `(cx + l*c) - w*s`, projected as `x*ax + y*ay`. Any change to an
expression here changes the run artefacts; `tests/test_golden.py` guards
them.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Pose:
    """Planar pose (position [m], heading [rad])."""

    X: float = 0.0
    Y: float = 0.0
    psi: float = 0.0


@dataclass(frozen=True)
class Footprint:
    """Rectangular footprint anchored at a reference point (e.g. rear axle).

    ref_offset is the signed distance from the reference point to the
    geometric centre, along the heading. Zero-size footprints are allowed as
    degenerate point targets.
    """

    length: float
    width: float
    ref_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.length < 0 or self.width < 0:
            raise ValueError("footprint dimensions must be non-negative")

    @property
    def circumscribed_radius(self) -> float:
        return 0.5 * math.hypot(self.length, self.width)

    @property
    def inscribed_radius(self) -> float:
        return 0.5 * min(self.length, self.width)

    def center(self, pose: Pose) -> tuple[float, float]:
        return (pose.X + self.ref_offset * math.cos(pose.psi),
                pose.Y + self.ref_offset * math.sin(pose.psi))

    def corners(self, pose: Pose) -> np.ndarray:
        """Corner coordinates, shape (4, 2), counter-clockwise."""
        return np.array(_corners(pose, self, math.cos(pose.psi),
                                 math.sin(pose.psi)))


def _corners(pose: Pose, fp: Footprint, c: float,
             s: float) -> list[tuple[float, float]]:
    """Footprint corners counter-clockwise; c, s are cos/sin of pose.psi."""
    cx = pose.X + fp.ref_offset * c
    cy = pose.Y + fp.ref_offset * s
    hl, hw = 0.5 * fp.length, 0.5 * fp.width
    return [((cx + lx * c) - ly * s, (cy + lx * s) + ly * c)
            for lx, ly in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))]


def _interp(x: float, xp: list[float], fp: list[float]) -> float:
    """np.interp(x, xp, fp) for scalar x and strictly increasing xp, bit for bit.

    Outside the grid the end values are held; a grid hit returns the sample.
    """
    if x != x:
        return x
    j = bisect_right(xp, x) - 1
    if j < 0:
        return fp[0]
    if j == len(xp) - 1 or xp[j] == x:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    y = slope * (x - xp[j]) + fp[j]
    if y != y:  # numpy retries from the right sample, then a flat segment
        y = slope * (x - xp[j + 1]) + fp[j + 1]
        if y != y and fp[j] == fp[j + 1]:
            y = fp[j]
    return y


@dataclass(frozen=True)
class DriveableSpace:
    """Straight corridor x_start <= x <= x_end, y_right <= y <= y_left
    (left positive); points on the boundary are inside."""

    x_start: float
    x_end: float
    y_left: float
    y_right: float

    def contains(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorised point membership."""
        return ((xs >= self.x_start) & (xs <= self.x_end)
                & (ys <= self.y_left) & (ys >= self.y_right))

    def lateral_extent(self, side: str, y_ref: float, x_from: float,
                       x_to: float) -> float:
        """Usable lateral room on one side of y_ref over [x_from, x_to].

        Zero when the range misses the corridor or y_ref lies outside it.
        """
        if (x_to + 1e-9 < self.x_start or x_from - 1e-9 > self.x_end
                or not self.y_right <= y_ref <= self.y_left):
            return 0.0
        return (self.y_left - y_ref) if side == "left" else (y_ref - self.y_right)


@dataclass
class TargetTrack:
    """A tracked object: footprint plus predicted pose trajectory.

    Prediction times are relative to the planning instant (t=0 = now).
    """

    track_id: str
    footprint: Footprint
    times: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    psis: np.ndarray
    type_tag: str = "vehicle"   # vru | vehicle | static

    @classmethod
    def constant_velocity(cls, track_id: str, footprint: Footprint, pose: Pose,
                          speed: float, horizon: float, dt: float = 0.1,
                          type_tag: str = "vehicle") -> "TargetTrack":
        n = max(2, int(round(horizon / dt)) + 1)
        times = np.linspace(0.0, horizon, n)
        xs = pose.X + speed * math.cos(pose.psi) * times
        ys = pose.Y + speed * math.sin(pose.psi) * times
        psis = np.full(n, pose.psi)
        return cls(track_id, footprint, times, xs, ys, psis, type_tag)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def pose_at(self, t: float, clamp: bool = True) -> Pose:
        if not clamp and (t < self.times[0] or t > self.times[-1]):
            from .errors import PredictionGap
            raise PredictionGap(f"{self.track_id}: no prediction at t={t:.3f}")
        t = min(max(t, self.times[0]), self.times[-1])
        return Pose(float(np.interp(t, self.times, self.xs)),
                    float(np.interp(t, self.times, self.ys)),
                    float(np.interp(t, self.times, self.psis)))


@dataclass
class CollisionReport:
    """Outcome of the staged collision check along one path."""

    collides: bool
    first_collision_time: float | None
    resolved_circumscribed: int = 0
    resolved_inscribed: int = 0
    sat_evaluations: int = 0
    first_collision_target: str | None = None


def circumscribed_check(pose_a: Pose, fp_a: Footprint,
                        pose_b: Pose, fp_b: Footprint) -> bool:
    """True when the bounding circles do not overlap (definitely no collision)."""
    ax, ay = fp_a.center(pose_a)
    bx, by = fp_b.center(pose_b)
    return math.hypot(bx - ax, by - ay) > (fp_a.circumscribed_radius
                                           + fp_b.circumscribed_radius)


def inscribed_check(pose_a: Pose, fp_a: Footprint,
                    pose_b: Pose, fp_b: Footprint) -> bool:
    """True when the inner circles overlap (definitely a collision)."""
    ax, ay = fp_a.center(pose_a)
    bx, by = fp_b.center(pose_b)
    return math.hypot(bx - ax, by - ay) < (fp_a.inscribed_radius
                                           + fp_b.inscribed_radius)


def sat_check(pose_a: Pose, fp_a: Footprint,
              pose_b: Pose, fp_b: Footprint) -> bool:
    """Exact rectangle intersection test; touching counts as collision.

    Separating-axis test on the four edge normals (Ericson, Real-Time
    Collision Detection, 4.4).
    """
    c_a, s_a = math.cos(pose_a.psi), math.sin(pose_a.psi)
    c_b, s_b = math.cos(pose_b.psi), math.sin(pose_b.psi)
    ca = _corners(pose_a, fp_a, c_a, s_a)
    cb = _corners(pose_b, fp_b, c_b, s_b)
    for ax, ay in ((c_a, s_a), (-s_a, c_a), (c_b, s_b), (-s_b, c_b)):
        da = [x * ax + y * ay for x, y in ca]
        db = [x * ax + y * ay for x, y in cb]
        if max(da) < min(db) or max(db) < min(da):
            return False
    return True


def _pair_collides(pose_a: Pose, fp_a: Footprint,
                   pose_b: Pose, fp_b: Footprint) -> bool:
    if circumscribed_check(pose_a, fp_a, pose_b, fp_b):
        return False
    if inscribed_check(pose_a, fp_a, pose_b, fp_b):
        return True
    return sat_check(pose_a, fp_a, pose_b, fp_b)


def driveable_area_check(path, space: DriveableSpace, fp: Footprint) -> bool:
    """True when the swept footprint stays inside the corridor.

    All four footprint corners must lie inside the corridor at every path
    sample, so a path reaching past x_end is not driveable.
    """
    xs, ys, psis = path.x, path.y, path.psi
    c, s = np.cos(psis), np.sin(psis)
    cx = xs + fp.ref_offset * c
    cy = ys + fp.ref_offset * s
    hl, hw = 0.5 * fp.length, 0.5 * fp.width
    for dx, dy in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)):
        corner_x = cx + dx * c - dy * s
        corner_y = cy + dx * s + dy * c
        if not np.all(space.contains(corner_x, corner_y)):
            return False
    return True


def _refine_collision_time(path, target: TargetTrack, fp: Footprint,
                           t_clear: float, t_hit: float) -> float:
    """Bisect the first contact instant between a clear and a hit sample."""
    pt, px, py, ppsi = (np.asarray(a, dtype=float).tolist()
                        for a in (path.t, path.x, path.y, path.psi))
    tt, tx, ty, tpsi = (np.asarray(a, dtype=float).tolist()
                        for a in (target.times, target.xs, target.ys,
                                  target.psis))
    for _ in range(40):
        mid = 0.5 * (t_clear + t_hit)
        ego = Pose(_interp(mid, pt, px), _interp(mid, pt, py),
                   _interp(mid, pt, ppsi))
        tgt = Pose(_interp(mid, tt, tx), _interp(mid, tt, ty),
                   _interp(mid, tt, tpsi))
        if _pair_collides(ego, fp, tgt, target.footprint):
            t_hit = mid
        else:
            t_clear = mid
        if t_hit - t_clear < 1e-9:
            break
    return t_hit


def collision_check(path, targets, fp: Footprint,
                    dt_check: float = 0.1) -> CollisionReport:
    """Staged collision check of a sampled path against predicted targets.

    Check instants are the path samples subsampled to roughly dt_check. Per
    instant the circumscribed filter runs first, then the inscribed filter,
    then the separating-axis test. Targets whose prediction ends early are
    held at their last predicted pose.
    """
    report = CollisionReport(collides=False, first_collision_time=None)
    times = path.t
    if len(times) == 0:
        return report
    dt_path = times[1] - times[0] if len(times) > 1 else dt_check
    stride = max(1, int(round(dt_check / max(dt_path, 1e-9))))
    idx = np.arange(0, len(times), stride)
    if idx[-1] != len(times) - 1:
        idx = np.append(idx, len(times) - 1)
    check_t = times[idx]

    c, s = np.cos(path.psi[idx]), np.sin(path.psi[idx])
    ego_cx = path.x[idx] + fp.ref_offset * c
    ego_cy = path.y[idx] + fp.ref_offset * s

    first_hit = math.inf
    first_target = None
    for target in targets:
        tgt_t = np.clip(check_t, target.times[0], target.times[-1])
        tx = np.interp(tgt_t, target.times, target.xs)
        ty = np.interp(tgt_t, target.times, target.ys)
        tpsi = np.interp(tgt_t, target.times, target.psis)
        off = target.footprint.ref_offset
        tcx = tx + off * np.cos(tpsi)
        tcy = ty + off * np.sin(tpsi)
        dist = np.hypot(tcx - ego_cx, tcy - ego_cy)

        rc = fp.circumscribed_radius + target.footprint.circumscribed_radius
        ri = fp.inscribed_radius + target.footprint.inscribed_radius
        clear = dist > rc
        report.resolved_circumscribed += int(clear.sum())
        hit_time = None
        for k in np.nonzero(~clear)[0]:
            if dist[k] < ri:
                report.resolved_inscribed += 1
                hit = True
            else:
                report.sat_evaluations += 1
                # check instants are path samples, and tx/ty/tpsi are the
                # target's pose_at(check_t[k]): no re-interpolation needed
                i = idx[k]
                hit = sat_check(Pose(float(path.x[i]), float(path.y[i]),
                                     float(path.psi[i])), fp,
                                Pose(float(tx[k]), float(ty[k]),
                                     float(tpsi[k])), target.footprint)
            if hit:
                hit_time = float(check_t[k])
                if k > 0:
                    hit_time = _refine_collision_time(
                        path, target, fp, float(check_t[k - 1]), hit_time)
                break
        if hit_time is not None and hit_time < first_hit:
            first_hit = hit_time
            first_target = target.track_id

    if first_target is not None:
        report.collides = True
        report.first_collision_time = first_hit
        report.first_collision_target = first_target
    return report
