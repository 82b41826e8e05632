"""Collision geometry: driveable-space containment, the staged
circumscribed-circle / inscribed-circle / separating-axis collision check
of a sampled path, and the closed-form first contact time of two
constant-velocity rectangles.

`sat_check` runs on plain Python floats. It repeats numpy's float
operations in numpy's order, so for finite poses it returns the same bits as
the array formula it replaced: a corner is `(cx + l*c) - w*s`, projected as
`x*ax + y*ay`. Any change to an expression here changes the run artefacts;
`tests/test_golden.py` guards them.

`driveable_area_check` and `collision_check` take a path and the
translation (X, Y) that places it in the road frame. The driveable check
forms each footprint corner on the path's own samples and adds (X, Y) last.
Rounding to nearest is monotone, so X plus the largest corner x is the
largest translated corner x: the box of the untranslated corners, shifted by
(X, Y), gives the per-corner answer bit for bit.
"""
from __future__ import annotations

import math
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


@dataclass(frozen=True)
class DriveableSpace:
    """Straight corridor x_start <= x <= x_end, y_right <= y <= y_left
    (left positive); points on the boundary are inside."""

    x_start: float
    x_end: float
    y_left: float
    y_right: float

    def lateral_extent(self, side: str, y_ref: float, x_from: float,
                       x_to: float) -> float:
        """Usable lateral room on one side of y_ref over [x_from, x_to].

        Zero when the range misses the corridor or y_ref lies outside it.
        """
        if (x_to + 1e-9 < self.x_start or x_from - 1e-9 > self.x_end
                or not self.y_right <= y_ref <= self.y_left):
            return 0.0
        return (self.y_left - y_ref) if side == "left" else (y_ref - self.y_right)


@dataclass(frozen=True)
class TargetTrack:
    """A tracked object predicted at constant speed and heading.

    pose is the pose at the planning instant (t=0 = now); prediction times
    are relative to it.
    """

    track_id: str
    footprint: Footprint
    pose: Pose
    speed: float = 0.0

    @property
    def velocity(self) -> tuple[float, float]:
        return (self.speed * math.cos(self.pose.psi),
                self.speed * math.sin(self.pose.psi))

    def pose_at(self, t: float) -> Pose:
        vx, vy = self.velocity
        return Pose(self.pose.X + vx * t, self.pose.Y + vy * t, self.pose.psi)


@dataclass
class CollisionReport:
    """Outcome of the staged collision check along one path, with the number
    of check instants each stage resolved up to the first hit."""

    collides: bool = False
    resolved_circumscribed: int = 0
    resolved_inscribed: int = 0
    sat_evaluations: int = 0


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


def _corner_box(path, fp: Footprint) -> tuple[float, float, float, float]:
    """(x_lo, x_hi, y_lo, y_hi): the box of every footprint corner at every
    sample, formed on the path's own samples."""
    c, s = np.cos(path.psi), np.sin(path.psi)
    cx = path.x + fp.ref_offset * c
    cy = path.y + fp.ref_offset * s
    hl, hw = 0.5 * fp.length, 0.5 * fp.width
    corners = [(cx + dx * c - dy * s, cy + dx * s + dy * c)
               for dx, dy in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))]
    xs = np.concatenate([x for x, _ in corners])
    ys = np.concatenate([y for _, y in corners])
    return float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max())


def driveable_area_check(path, space: DriveableSpace, fp: Footprint,
                         X: float = 0.0, Y: float = 0.0) -> bool:
    """True when all four footprint corners, formed on the path's samples and
    translated by (X, Y), lie inside the corridor at every sample, so a path
    reaching past x_end is not driveable. Decided by the corner box (module
    docstring), which a path with read-only x, y and psi keeps per footprint.
    """
    box = path.corner_boxes.get(fp)
    if box is None:
        box = _corner_box(path, fp)
        if not any(a.flags.writeable for a in (path.x, path.y, path.psi)):
            path.corner_boxes[fp] = box
    x_lo, x_hi, y_lo, y_hi = box
    return (space.x_start <= X + x_lo and X + x_hi <= space.x_end
            and space.y_right <= Y + y_lo and Y + y_hi <= space.y_left)


def collision_check(path, targets, fp: Footprint, dt_check: float = 0.1,
                    X: float = 0.0, Y: float = 0.0) -> CollisionReport:
    """Staged collision check of a sampled path, translated by (X, Y),
    against predicted targets.

    Check instants are the path samples subsampled to roughly dt_check. Per
    instant the circumscribed filter runs first, then the inscribed filter,
    then the separating-axis test. The check returns at the first hit.
    """
    report = CollisionReport()
    times = path.t
    if len(times) == 0:
        return report
    dt_path = float(times[1] - times[0]) if len(times) > 1 else dt_check
    # any stride from len(times) up checks only the first and last samples
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


# Widening of each axis gap [m] in first_contact_time, so that rounding in
# the interval arithmetic cannot lose a touch that sat_check sees.
CONTACT_SLACK = 1e-9


def first_contact_time(pose_a: Pose, fp_a: Footprint,
                       vel_a: tuple[float, float], pose_b: Pose,
                       fp_b: Footprint, vel_b: tuple[float, float],
                       horizon: float) -> float:
    """First instant in [0, horizon] at which two rectangles moving at
    constant velocity and fixed heading touch; inf when they do not.

    The relative motion is a translation, so on each of the four
    separating axes the projections overlap over an interval linear in t;
    contact starts where all four intervals first hold (Ericson, Real-Time
    Collision Detection, 5.5; Eberly, Dynamic Collision Detection using
    Oriented Bounding Boxes).
    """
    c_a, s_a = math.cos(pose_a.psi), math.sin(pose_a.psi)
    c_b, s_b = math.cos(pose_b.psi), math.sin(pose_b.psi)
    ca = _corners(pose_a, fp_a, c_a, s_a)
    cb = _corners(pose_b, fp_b, c_b, s_b)
    rvx, rvy = vel_b[0] - vel_a[0], vel_b[1] - vel_a[1]
    t_first, t_last = 0.0, horizon
    for ax, ay in ((c_a, s_a), (-s_a, c_a), (c_b, s_b), (-s_b, c_b)):
        da = [x * ax + y * ay for x, y in ca]
        db = [x * ax + y * ay for x, y in cb]
        # b's projection moves by rate * t: overlap while lo <= rate*t <= hi
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
