"""Collision geometry: driveable-space containment, the staged
circumscribed-circle / inscribed-circle / separating-axis collision check
of sampled paths, and the closed-form first contact time of two
constant-velocity rectangles.

`sat_check` runs on plain Python floats. It repeats numpy's float
operations in numpy's order, so for finite poses it returns the same bits as
the array formula it replaced: a corner is `(cx + l*c) - w*s`, projected as
`x*ax + y*ay`. Any change to an expression here changes the run artefacts;
`tests/test_golden.py` guards them.

`driveable_area_check` and `check_paths` take paths and the translation
(X, Y) that places them in the road frame. The driveable check forms each
footprint corner on the path's own samples and adds (X, Y) last. Rounding to
nearest is monotone, so X plus the largest corner x is the largest
translated corner x: the box of the untranslated corners, shifted by (X, Y),
gives the per-corner answer bit for bit.

Two entry points share one broad and one narrow phase. `check_paths`
decides: a planner cycle checks all its candidates in one call against one
`predict`ion of the targets, made on the time grid of the cycle's
longest path, and gets one verdict per path. Every family path is sampled
at the same step from t = 0 (`pathgen.presample_profile`), so its grid is
a prefix of that one bit for bit, and indexing the shared prediction at a
path's check instants gives the numbers a prediction on the path's own
instants would: the same operands, `X + vx * t` and then
`+ ref_offset * cos(psi)`, in the same order. `collision_check` explains:
the monitor checks its one path, predicted on the path's own grid, and gets
a `CollisionReport` with what each stage resolved. A read-only path keeps
its check instants and its stacked samples there (`SampledPath.cached`);
a writeable one, such as a monitored suffix, keeps nothing.

The broad phase measures every (target, check instant) pair at once; the
pairs within the circumscribed circles are near. One vectorised
separating-axis test then decides all near pairs. It forms the corners,
axes and projections elementwise with `sat_check`'s operations in
`sat_check`'s order, IEEE arithmetic rounds each element alike, and the
max/min of four values and the comparisons are exact, so each pair gets
`sat_check`'s verdict bit for bit; a NaN anywhere leaves no separating axis
and counts as contact. A path collides when one of its near pairs is inside
the inscribed circles or overlaps. The near pairs come target after target,
instants in order, which is the staged loop's order, so a report counts
what that loop resolves up to the path's first hit.

`earliest_contact_time` is the one contact-time kernel, for
`first_contact_time` and the no-action TTC alike. A contact time is inf,
before the other rectangle's corners are formed, when its projection swept
over the horizon stays clear of the first one's on one of the first one's
axes, the lateral one first, by a margin scaled to the coordinates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    # formed once per footprint; dataclasses.replace makes a new one
    @cached_property
    def circumscribed_radius(self) -> float:
        return 0.5 * math.hypot(self.length, self.width)

    @cached_property
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
             s: float) -> tuple[tuple[float, float], ...]:
    """Footprint corners counter-clockwise; c, s are cos/sin of the heading."""
    return _box_corners(pose.X + fp.ref_offset * c, pose.Y + fp.ref_offset * s,
                        0.5 * fp.length, 0.5 * fp.width, c, s)


def _box_corners(cx: float, cy: float, hl: float, hw: float, c: float,
                 s: float) -> tuple[tuple[float, float], ...]:
    """The one corner formula: the corners, counter-clockwise, of a
    rectangle with centre (cx, cy), half length hl and half width hw, whose
    heading has cos/sin c, s."""
    nl, nw = -hl, -hw
    return (((cx + hl * c) - hw * s, (cy + hl * s) + hw * c),
            ((cx + nl * c) - hw * s, (cy + nl * s) + hw * c),
            ((cx + nl * c) - nw * s, (cy + nl * s) + nw * c),
            ((cx + hl * c) - nw * s, (cy + hl * s) + nw * c))


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
    corners = _corners(Pose(path.x, path.y), fp, np.cos(path.psi),
                       np.sin(path.psi))
    xs, ys = (np.concatenate(v) for v in zip(*corners))
    return float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max())


def driveable_area_check(path, space: DriveableSpace, fp: Footprint,
                         X: float = 0.0, Y: float = 0.0) -> bool:
    """True when all four footprint corners, formed on the path's samples and
    translated by (X, Y), lie inside the corridor at every sample, so a path
    reaching past x_end is not driveable. Decided by the corner box (module
    docstring), which a read-only path keeps per footprint.
    """
    x_lo, x_hi, y_lo, y_hi = path.cached(fp, _corner_box, fp)
    return (space.x_start <= X + x_lo and X + x_hi <= space.x_end
            and space.y_right <= Y + y_lo and Y + y_hi <= space.y_left)


@dataclass(frozen=True)
class Prediction:
    """Targets predicted on a time grid: reference points pos and footprint
    centres centre, each of shape (2, number of targets, grid) with x
    first, each target's circumscribed radius, shape (targets, 1), and its
    box, shape (6, targets): math.cos and math.sin of its heading,
    ref_offset, half length, half width and inscribed radius."""

    pos: np.ndarray
    centre: np.ndarray
    radius: np.ndarray
    box: np.ndarray


def predict(targets, t: np.ndarray) -> Prediction:
    """Each target at constant speed along its heading at every instant of
    t: X + vx * t, and that plus ref_offset * cos(psi) for the centre."""
    rows = []
    for tg in targets:
        fp, c, s = tg.footprint, math.cos(tg.pose.psi), math.sin(tg.pose.psi)
        # tg.speed * c and * s are the bits of tg.velocity
        rows.append((tg.pose.X, tg.pose.Y, tg.speed * c, tg.speed * s,
                     fp.ref_offset * c, fp.ref_offset * s,
                     fp.circumscribed_radius, c, s, fp.ref_offset,
                     0.5 * fp.length, 0.5 * fp.width, fp.inscribed_radius))
    col = np.array(rows, dtype=float).reshape(-1, 13).T
    pos = col[2:4, :, None] * t
    pos += col[0:2, :, None]   # X + vx * t: the sum commutes exactly
    return Prediction(pos, pos + col[4:6, :, None], col[6, :, None], col[7:])


def _check_geometry(path, fp: Footprint, dt_check: float) -> tuple:
    """The path's check instants idx, about dt_check apart and always
    including the last sample, and its samples there stacked as the rows x,
    y, ref_offset * cos(psi), ref_offset * sin(psi), math.cos(psi) and
    math.sin(psi)."""
    n = len(path.t)
    dt_path = float(path.t[1] - path.t[0]) if n > 1 else dt_check
    # any stride from n up checks only the first and last samples
    stride = max(1, round(min(dt_check / max(dt_path, 1e-9), n)))
    idx = np.arange(0, n, stride)
    if n and idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    psi = path.psi[idx]
    headings = psi.tolist()
    return idx, np.array([path.x[idx], path.y[idx],
                          fp.ref_offset * np.cos(psi),
                          fp.ref_offset * np.sin(psi),
                          [math.cos(a) for a in headings],
                          [math.sin(a) for a in headings]])


# The signs of the corners' half length and half width, in _box_corners' order;
# multiplying by +-1.0 is exact, so the corners are sat_check's
_ALONG = np.array([1.0, -1.0, -1.0, 1.0])[:, None, None]
_ACROSS = np.array([1.0, 1.0, -1.0, -1.0])[:, None, None]
_ALONG.flags.writeable = _ACROSS.flags.writeable = False


def _sat_overlap(box: np.ndarray) -> np.ndarray:
    """sat_check of n rectangle pairs at once. box has shape (7, 2, n): x,
    y, math.cos and math.sin of the heading, ref_offset, half length and
    half width of the first and the second rectangle of each pair. Every
    operation is sat_check's, elementwise and in its order (module
    docstring)."""
    x, y, c, s, off, hl, hw = box
    cx, cy = x + off * c, y + off * s
    lx, ly = _ALONG * hl, _ACROSS * hw
    px, py = (cx + lx * c) - ly * s, (cy + lx * s) + ly * c
    # each rectangle's edge normals (c, s) and (-s, c), shape (4, 1, 2, n)
    ax = np.concatenate([c, -s])[:, None, None]
    ay = np.concatenate([s, c])[:, None, None]
    proj = px * ax + py * ay     # (axis, corner, rectangle, pair)
    hi = np.maximum.reduce(proj, axis=1)
    lo = np.minimum.reduce(proj, axis=1)
    # apart: on some axis one rectangle ends below the other's start
    return ~np.logical_or.reduce(hi < lo[:, ::-1], axis=(0, 1))


def _near_pairs(idx: np.ndarray, samples: np.ndarray, fp: Footprint,
                X: float, Y: float, pred: Prediction) -> tuple:
    """The broad and the narrow phase at the check instants idx of pred's
    grid, with the ego samples there as _check_geometry stacks them,
    translated by (X, Y). Returns the near pairs' targets and instants,
    target after target and instants in order, whether each is inside the
    inscribed circles, and whether each is a contact."""
    ego = np.array([[X], [Y]]) + samples[0:2]
    gap = pred.centre[:, :, idx] - (ego + samples[2:4])[:, None, :]
    dist = np.hypot(gap[0], gap[1])
    # not `dist <= rc`: a NaN distance must reach SAT, never count as clear
    rows, ks = np.nonzero(~(dist > fp.circumscribed_radius + pred.radius))
    tb = pred.box[:, rows]
    inscribed = dist[rows, ks] < fp.inscribed_radius + tb[5]
    if not len(ks):   # the circle filter cleared every pair
        return rows, ks, inscribed, inscribed
    box = np.empty((7, 2, len(ks)))
    box[0:2, 0], box[2:4, 0] = ego[:, ks], samples[4:6, ks]
    box[4:7, 0] = [[fp.ref_offset], [0.5 * fp.length], [0.5 * fp.width]]
    box[0:2, 1], box[2:7, 1] = pred.pos[:, rows, idx[ks]], tb[:5]
    return rows, ks, inscribed, inscribed | _sat_overlap(box)


def check_paths(paths, targets, fp: Footprint, dt_check: float, X: float,
                Y: float, pred: Prediction) -> list[bool]:
    """Whether each sampled path, translated by (X, Y), collides with the
    predicted targets, decided in one broad and one narrow phase over all
    paths (module docstring).

    pred is the targets' prediction on a grid of which every path.t is a
    prefix (one per planner cycle). Each verdict is collision_check's.
    """
    if not paths or not targets:
        return [False] * len(paths)
    parts = [p.cached(("check", fp, dt_check), _check_geometry, fp, dt_check)
             for p in paths]
    idx, samples = (np.concatenate(a, axis=-1) for a in zip(*parts))
    _, ks, _, hit = _near_pairs(idx, samples, fp, X, Y, pred)
    ends = np.cumsum([len(part[0]) for part in parts])
    collides = np.zeros(len(paths), dtype=bool)
    collides[np.searchsorted(ends, ks[hit], side="right")] = True
    return collides.tolist()


def collision_check(path, targets, fp: Footprint,
                    dt_check: float = 0.1) -> CollisionReport:
    """The staged collision check of a sampled path against targets
    predicted on path.t: per check instant the circumscribed filter, then
    the inscribed filter, then the separating-axis test, target after
    target, up to the first hit, with what each stage resolved."""
    if not targets:
        return CollisionReport()
    idx, samples = path.cached(("check", fp, dt_check), _check_geometry, fp,
                               dt_check)
    rows, ks, inscribed, hit = _near_pairs(idx, samples, fp, 0.0, 0.0,
                                           predict(targets, path.t))
    n_k, n = len(idx), len(ks)
    if not hit.any():
        return CollisionReport(False, len(targets) * n_k - n, 0, n)
    h = int(hit.argmax())
    i = int(rows[h])
    ins = int(inscribed[h])
    # the circle filter cleared the other instants of targets 0..i
    return CollisionReport(
        True, (i + 1) * n_k - int(np.searchsorted(rows, i, side="right")),
        ins, h + 1 - ins)


# Widening of each axis gap [m] in first_contact_time, so that rounding in
# the interval arithmetic cannot lose a touch that sat_check sees.
CONTACT_SLACK = 1e-9
BROAD_MARGIN_REL = 2.0 ** -40   # relative part of the broad phase's margin


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
    Oriented Bounding Boxes). Its broad phase changes no result.
    """
    return earliest_contact_time(
        pose_a, fp_a, math.cos(pose_a.psi), math.sin(pose_a.psi), vel_a,
        ((pose_b.X, pose_b.Y, fp_b, math.cos(pose_b.psi),
          math.sin(pose_b.psi), *vel_b),), horizon)


def earliest_contact_time(pose_a, fp_a: Footprint, c_a: float, s_a: float,
                          vel_a: tuple[float, float], others,
                          horizon: float) -> float:
    """The least first_contact_time of rectangle a and each rectangle b of
    others, given as (X, Y, footprint, cos, sin, vx, vy) of its reference
    point, heading and velocity; a's pose needs only .X and .Y, and c_a,
    s_a are its heading's cos/sin. inf when none touches a within the
    horizon.

    a's corners and its own-axis intervals are formed once. Broad phase:
    on a's axis (ax, ay), b spans mid +- hl*|c_b*ax + s_b*ay| +
    hw*|c_b*ay - s_b*ax| and sweeps rate*horizon; beyond a's corners by
    more than the margin, b is clear. The lateral axis goes first: it clears
    a car in the next lane. S = 2*(|X| + |Y| + |ref_offset| + hl + hw) of a
    + 4*(the same) of b + 2*(|rvx| + |rvy|)*horizon bounds every value
    either test forms, so their rounded ends differ by < 2**-47 * S; the
    margin, CONTACT_SLACK + 2**-40 * S, covers that and the exact test's
    slack, and keeps its quotient gap/rate off [0, horizon] by about
    2**-39 * horizon. It is inf for an infinite S or a horizon below
    2**-1000 s (the quotient could underflow), and a NaN fails every
    comparison. Else the exact test decides, reusing b's cos/sin, the rates
    and the centre (bx, by) and half sizes the broad phase formed: b's
    corners come from `_box_corners`, with no Pose, and keep their bits.
    """
    vx_a, vy_a = vel_a
    ns_a = -s_a
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = _corners(pose_a, fp_a, c_a, s_a)
    p0, p1, p2, p3 = (x0 * c_a + y0 * s_a, x1 * c_a + y1 * s_a,
                      x2 * c_a + y2 * s_a, x3 * c_a + y3 * s_a)
    lon_lo, lon_hi = min(p0, p1, p2, p3), max(p0, p1, p2, p3)
    p0, p1, p2, p3 = (x0 * ns_a + y0 * c_a, x1 * ns_a + y1 * c_a,
                      x2 * ns_a + y2 * c_a, x3 * ns_a + y3 * c_a)
    lat_lo, lat_hi = min(p0, p1, p2, p3), max(p0, p1, p2, p3)
    scale_a = 2.0 * (abs(pose_a.X) + abs(pose_a.Y) + abs(fp_a.ref_offset)
                     + 0.5 * fp_a.length + 0.5 * fp_a.width)
    best = math.inf
    for X, Y, fp_b, c_b, s_b, vx_b, vy_b in others:
        rvx, rvy = vx_b - vx_a, vy_b - vy_a
        off, hl, hw = fp_b.ref_offset, 0.5 * fp_b.length, 0.5 * fp_b.width
        margin = CONTACT_SLACK + BROAD_MARGIN_REL * (
            scale_a + 4.0 * (abs(X) + abs(Y) + abs(off) + hl + hw)
            + 2.0 * (abs(rvx) + abs(rvy)) * horizon
        ) if horizon >= 2.0 ** -1000 else math.inf
        bx, by = X + off * c_b, Y + off * s_b
        # broad phase on the lateral axis (ns_a, c_a), then on (c_a, s_a);
        # the sweep's lower end is min(sweep, 0.0), its upper max(sweep, 0.0)
        rate_y, mid = rvx * ns_a + rvy * c_a, bx * ns_a + by * c_a
        ext = (hl * abs(c_b * ns_a + s_b * c_a)
               + hw * abs(c_b * c_a - s_b * ns_a))
        sweep = rate_y * horizon
        if (mid - ext + (0.0 if sweep > 0.0 else sweep) > lat_hi + margin
                or mid + ext + (0.0 if sweep < 0.0 else sweep)
                < lat_lo - margin):
            continue
        rate_x, mid = rvx * c_a + rvy * s_a, bx * c_a + by * s_a
        ext = (hl * abs(c_b * c_a + s_b * s_a)
               + hw * abs(c_b * s_a - s_b * c_a))
        sweep = rate_x * horizon
        if (mid - ext + (0.0 if sweep > 0.0 else sweep) > lon_hi + margin
                or mid + ext + (0.0 if sweep < 0.0 else sweep)
                < lon_lo - margin):
            continue
        # the exact test on a's axes, then on b's
        (u0, w0), (u1, w1), (u2, w2), (u3, w3) = _box_corners(
            bx, by, hl, hw, c_b, s_b)
        t_first, t_last = 0.0, horizon
        for ax, ay, rate, a_lo, a_hi in (
                (c_a, s_a, rate_x, lon_lo, lon_hi),
                (ns_a, c_a, rate_y, lat_lo, lat_hi),
                (c_b, s_b, None, 0.0, 0.0), (-s_b, c_b, None, 0.0, 0.0)):
            if rate is None:
                p0, p1, p2, p3 = (x0 * ax + y0 * ay, x1 * ax + y1 * ay,
                                  x2 * ax + y2 * ay, x3 * ax + y3 * ay)
                rate = rvx * ax + rvy * ay
                a_lo, a_hi = min(p0, p1, p2, p3), max(p0, p1, p2, p3)
            p0, p1, p2, p3 = (u0 * ax + w0 * ay, u1 * ax + w1 * ay,
                              u2 * ax + w2 * ay, u3 * ax + w3 * ay)
            # b's projection moves by rate*t: overlap while lo <= rate*t <= hi
            lo = a_lo - max(p0, p1, p2, p3) - CONTACT_SLACK
            hi = a_hi - min(p0, p1, p2, p3) + CONTACT_SLACK
            if rate == 0.0:
                if lo > 0.0 or hi < 0.0:
                    break
                continue
            t0, t1 = lo / rate, hi / rate
            if rate < 0.0:
                t0, t1 = t1, t0
            if t0 > t_first:
                t_first = t0
            if t1 < t_last:
                t_last = t1
            if t_first > t_last:
                break
        else:
            if t_first < best:
                best = t_first
    return best
