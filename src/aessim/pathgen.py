"""Evasive path generation: breakpoint curvature profiles, discrete Fresnel
sampling, scaling of the maximum-severity path into the driveable corridor,
and replanning from an updated vehicle state.

A profile is a list of up to ten (time, curvature, velocity) breakpoints with
piecewise-linear curvature: initiation (possibly with pre-braking), a clothoid
ramp to the evasion curvature, an optional constant-curvature plateau, a ramp
back to the road curvature, an optional constant-heading stretch for extra
lateral offset, and a mirrored stabilisation phase that cancels the
accumulated heading so the path ends parallel to the road.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .capability import CapabilityRecord, EgoState
from .errors import InfeasibleProfile, NoFeasiblePath
from .geometry import DriveableSpace


@dataclass
class PathTuning:
    """Shape parameters of the evasive profile."""

    psi_max: float = 0.2       # max heading relative to the road [rad]
    i_sb: float = 0.8          # stabilisation curvature ratio, (0, 1]
    rho_road: float = 0.0      # road curvature [1/m], constant
    y_offset: float = 0.0      # extra lateral deviation at constant heading [m]
    t_stabilize: float = 0.5   # settle time after the heading is cancelled [s]
    n_tot: int = 6             # paths per side
    dt_presample: float = 0.01     # Fresnel sampling step [s]
    min_lateral_clearance: float = 1.0  # least usable corridor width [m]

    def __post_init__(self) -> None:
        if self.psi_max <= 0 or not (0 < self.i_sb <= 1):
            raise ValueError("invalid path tuning")
        if self.n_tot < 1 or self.dt_presample <= 0:
            raise ValueError("invalid path tuning")
        if self.y_offset < 0 or self.t_stabilize < 0:
            raise ValueError("y_offset and t_stabilize must be non-negative")
        if self.min_lateral_clearance <= 0:
            raise ValueError("min_lateral_clearance must be positive")


@dataclass
class CurvatureProfile:
    """Breakpoint description of one evasive path.

    times are relative to the planning instant (t0 = 0). psi0 is the heading
    relative to the road at t0; v and rho are per-breakpoint.
    """

    times: np.ndarray
    rhos: np.ndarray
    vels: np.ndarray
    psi0: float
    direction: str                      # "left" | "right"
    capability: CapabilityRecord | None = None

    @property
    def t8(self) -> float:
        return float(self.times[8])

    @property
    def t9(self) -> float:
        return float(self.times[9])

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def heading_at(self, t: float) -> float:
        """Heading from trapezoidal integration of rho(t) * v(t) per segment."""
        t = min(max(t, float(self.times[0])), float(self.times[-1]))
        psi = self.psi0
        for i in range(len(self.times) - 1):
            t0, t1 = float(self.times[i]), float(self.times[i + 1])
            hi = min(t, t1)
            if hi <= t0:
                continue
            w = (hi - t0) / (t1 - t0)
            r_hi = self.rhos[i] + (self.rhos[i + 1] - self.rhos[i]) * w
            v_hi = self.vels[i] + (self.vels[i + 1] - self.vels[i]) * w
            psi += 0.5 * (self.rhos[i] * self.vels[i] + r_hi * v_hi) * (hi - t0)
        return psi


@dataclass
class SampledPath:
    """Time-gridded path samples.

    A family path from generate_path_set starts at the origin and keeps
    read-only arrays. A planner cycle (simloop.PlanCycle) holds its start
    point (X, Y) once: its checks take the family paths with that
    translation, and anchor_path places the executed one there.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    psi: np.ndarray
    rho: np.ndarray
    v: np.ndarray
    profile: CurvatureProfile | None = None
    side: str = "left"
    index: int = 0
    path_id: str = ""
    # Values derived from the samples alone (corner boxes, check geometry,
    # severity), kept by cached() only while every array is read-only; not
    # an init field, so a copy made by dataclasses.replace starts empty
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    def __len__(self) -> int:
        return len(self.t)

    def cached(self, key, build, *args):
        """build(self, *args), kept in memo under key if no array of the
        path is writeable."""
        value = self.memo.get(key)
        if value is None:
            value = build(self, *args)
            if not any(a.flags.writeable for a in (self.t, self.x, self.y,
                                                    self.psi, self.rho,
                                                    self.v)):
                self.memo[key] = value
        return value

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0]) if len(self.t) > 1 else 0.0

    @property
    def terminal_offset(self) -> float:
        """Lateral deviation of the final sample relative to the start."""
        return float(self.y[-1] - self.y[0])

    def suffix_from(self, tau: float) -> "SampledPath":
        """Remaining path from relative time tau, re-anchored to t=0."""
        keep = self.t >= tau - 1e-12
        if not np.any(keep):
            keep = np.zeros_like(self.t, dtype=bool)
            keep[-1] = True
        return replace(self, t=self.t[keep] - tau, x=self.x[keep],
                       y=self.y[keep], psi=self.psi[keep], rho=self.rho[keep],
                       v=self.v[keep])


def anchor_path(path: SampledPath, X: float, Y: float) -> SampledPath:
    """The path translated by (X, Y), in fresh arrays; psi + 0.0 turns a
    -0.0 heading into 0.0."""
    return replace(path, x=X + path.x, y=Y + path.y, psi=path.psi + 0.0)


@dataclass(frozen=True)
class PathSet:
    """One side's kept family paths, ordered by curvature magnitude, each
    starting at the origin; a planner cycle places them at its start point.
    What the checks derive from a family path is kept by the path itself
    (SampledPath.cached), so it lasts across planner cycles."""

    paths: tuple[SampledPath, ...]


def build_max_severity_profile(init: EgoState, cap: CapabilityRecord,
                               tuning: PathTuning,
                               direction: str = "left") -> CurvatureProfile:
    """Breakpoints t0..t9 of the most severe feasible profile.

    Raises InfeasibleProfile when the vehicle heading plus the heading
    accumulated during initiation already exceeds psi_max on the requested
    side.
    """
    if direction not in ("left", "right"):
        raise ValueError("direction must be 'left' or 'right'")
    if direction == "right":
        times, rhos, vels, psi0 = _build_canonical(
            replace(init, psi=-init.psi, yaw_rate=-init.yaw_rate), cap,
            replace(tuning, rho_road=-tuning.rho_road))
        rhos, psi0 = -rhos, -psi0
    else:
        times, rhos, vels, psi0 = _build_canonical(init, cap, tuning)
    return CurvatureProfile(times=times, rhos=rhos, vels=vels, psi0=psi0,
                            direction=direction, capability=cap)


def _build_canonical(init: EgoState, cap: CapabilityRecord, tuning: PathTuning
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Breakpoint times, curvatures and speeds and the initial heading of the
    left-evading profile; the caller mirrors them for right evasion."""
    v0 = init.v_x
    rho0 = init.yaw_rate / v0
    psi0 = init.psi
    rho_dot = cap.rho_dot_max
    rho_road = tuning.rho_road

    # initiation: pre-braking for the capability's time (0 unless it brakes)
    t1 = cap.t_pb
    v1 = cap.v_x_evasion
    rho1 = v0 * rho0 / v1 + rho_road if t1 > 0 else rho0
    psi_tot1 = 0.5 * (t1 * rho0 * v0 + t1 * rho1 * v1)

    room = tuning.psi_max - (psi0 + psi_tot1)
    if room < 0:
        raise InfeasibleProfile(
            f"heading headroom {room:.4f} rad on the left side")

    v = v1  # constant from t1 onward
    rho2_free = math.sqrt(room * rho_dot / v) + rho_road
    clamped = rho2_free >= cap.rho_max
    rho2 = min(rho2_free, abs(cap.rho_max))
    t2 = t1 + abs(rho2 - rho1) / rho_dot

    # plateau keeps the curvature until the heading headroom is used up
    if clamped and rho2 > 0:
        dt23 = max(0.0, room / (v * rho2) - (t2 - t1))
    else:
        dt23 = 0.0
    t3 = t2 + dt23
    rho3 = rho2

    rho4 = rho_road
    t4 = t3 + abs(rho3 - rho4) / rho_dot

    # heading at t4 from exact trapezoids over the built segments
    psi4 = psi0 + psi_tot1
    psi4 += 0.5 * (rho1 + rho2) * v * (t2 - t1)
    psi4 += rho2 * v * dt23
    psi4 += 0.5 * (rho3 + rho4) * v * (t4 - t3)

    # optional constant-heading stretch for additional lateral offset
    if tuning.y_offset > 0 and abs(math.sin(psi4)) > 1e-9:
        t5 = t4 + tuning.y_offset / (v * math.sin(psi4))
    else:
        t5 = t4
    rho5 = rho4
    psi5 = psi4 + rho5 * v * (t5 - t4)

    # stabilisation: cancel psi5 exactly with a mirrored ramp pair
    rho6_cap = tuning.i_sb * rho2
    if abs(psi5) > 1e-12 and rho6_cap > 0:
        rho6_free = math.sqrt(abs(psi5) * rho_dot / v) + rho_road
        rho6_mag = min(rho6_free, rho6_cap)
        dt67 = abs(psi5) / (rho6_mag * v) - rho6_mag / rho_dot
        dt67 = max(0.0, dt67)
        rho6 = -math.copysign(rho6_mag, psi5)
    else:
        rho6_mag = 0.0
        dt67 = 0.0
        rho6 = rho_road
    t6 = t5 + abs(rho6 - rho5) / rho_dot
    rho7 = rho6
    t7 = t6 + dt67
    rho8 = rho_road
    t8 = t7 + abs(rho8 - rho7) / rho_dot
    t9 = t8 + tuning.t_stabilize

    times = np.array([0.0, t1, t2, t3, t4, t5, t6, t7, t8, t9])
    rhos = np.array([rho0, rho1, rho2, rho3, rho4, rho5, rho6, rho7, rho8,
                     rho_road])
    vels = np.array([v0] + [v] * 9)
    return times, rhos, vels, psi0


def presample_profile(profile: CurvatureProfile, dt: float) -> SampledPath:
    """Discrete Fresnel integration of the profile on a uniform grid.

    psi(k) = psi(k-1) + rho(k) v(k) dt, y(k) = y(k-1) + sin(psi(k)) v(k) dt,
    and x(k) = x(k-1) + cos(psi(k)) v(k) dt for the longitudinal coordinate.

    A profile starts at t0 = 0, so t(k) is dt * k: the grids of any two
    paths sampled at one dt, on either side and replans included, agree
    bit for bit on their common prefix, and one target prediction on the
    longest grid serves them all (ranking.rank_paths).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = max(1, math.ceil(profile.duration / dt - 1e-12))
    t = dt * np.arange(n + 1)
    rho = np.interp(t, profile.times, profile.rhos)
    v = np.interp(t, profile.times, profile.vels)
    psi = np.empty_like(t)
    psi[0] = profile.psi0
    np.cumsum(rho[1:] * v[1:] * dt, out=psi[1:])
    psi[1:] += profile.psi0
    x = np.empty_like(t)
    y = np.empty_like(t)
    x[0] = 0.0
    y[0] = 0.0
    np.cumsum(np.cos(psi[1:]) * v[1:] * dt, out=x[1:])
    np.cumsum(np.sin(psi[1:]) * v[1:] * dt, out=y[1:])
    return SampledPath(t=t, x=x, y=y, psi=psi, rho=rho, v=v, profile=profile,
                       side=profile.direction)


def generate_path_set(init: EgoState, cap: CapabilityRecord,
                      space: DriveableSpace, tuning: PathTuning, side: str,
                      families: dict[str, _Family]) -> PathSet:
    """Family of n_tot paths scaled to the corridor extent on one side.

    The maximum-severity profile is built and pre-sampled; when its terminal
    offset exceeds the available lateral room the whole family is scaled by
    y_room / y_max, and path n additionally by sqrt(n / n_tot) on both the
    curvature and heading caps. Replanning calls it with the mid-manoeuvre
    state, whose curvature and heading the new paths start from.

    The family's shape depends only on the side, psi, v_x, yaw_rate, the
    capability record and the tuning; X and Y only set the corridor room,
    and the paths start at the origin. families, which the caller owns,
    keeps the last family per side and returns its set while its key
    holds, so a hit copies and builds nothing. A fresh {} builds the family
    cold. ranking.select_path places the one that is executed.
    """
    fam = _family(init, cap, tuning, side, families)
    if isinstance(fam.reach, str):
        raise NoFeasiblePath(fam.reach)
    y_max, x_max = fam.reach
    y_room = space.lateral_extent(side, init.Y, init.X, init.X + x_max)
    if y_room < tuning.min_lateral_clearance:
        raise NoFeasiblePath(
            f"{side} corridor of {y_room:.2f} m is below the "
            f"{tuning.min_lateral_clearance:.2f} m clearance")

    scale = min(1.0, y_room / y_max)
    if fam.scale != scale.hex():
        fam.path_set = PathSet(_relative_paths(init, cap, tuning, side, scale))
        fam.scale = scale.hex()
    if not fam.path_set.paths:
        raise NoFeasiblePath(f"all {side} profiles infeasible")
    return fam.path_set


@dataclass
class _Family:
    """Origin-relative path family of one side for one key.

    reach is (y_max, max x) of the pre-sampled maximum-severity path, or the
    reason no path on this side is feasible; path_set holds the paths for
    the scale whose float.hex is scale.
    """

    key: tuple
    reach: tuple[float, float] | str
    scale: str | None = None
    path_set: PathSet | None = None


# A memo keeps the last family per side. Between planner cycles before
# engage the plant gets no input, so psi, v_x and yaw_rate keep their bits
# and only X moves; one family per side catches those repeats.
_CAP_FIELDS = tuple(f.name for f in fields(CapabilityRecord))
_TUNING_FIELDS = tuple(f.name for f in fields(PathTuning))


def _bits(value):
    """Floats by bit pattern: 0.0 == -0.0, and mirroring makes -0.0."""
    return value.hex() if isinstance(value, float) else value


def _family(init: EgoState, cap: CapabilityRecord, tuning: PathTuning,
            side: str, families: dict[str, _Family]) -> _Family:
    key = (_bits(init.psi), _bits(init.v_x), _bits(init.yaw_rate),
           *(_bits(getattr(cap, name)) for name in _CAP_FIELDS),
           *(_bits(getattr(tuning, name)) for name in _TUNING_FIELDS))
    fam = families.get(side)
    if fam is None or fam.key != key:
        fam = _Family(key, _severe_reach(init, cap, tuning, side))
        families[side] = fam
    return fam


def _severe_reach(init: EgoState, cap: CapabilityRecord, tuning: PathTuning,
                  side: str) -> tuple[float, float] | str:
    try:
        severe = build_max_severity_profile(init, cap, tuning, side)
    except InfeasibleProfile as exc:
        return str(exc)
    if abs(severe.rhos[2]) < 1e-12:
        return f"no curvature authority on the {side} side"
    sampled = presample_profile(severe, tuning.dt_presample)
    y_max = abs(sampled.terminal_offset)
    if y_max < 1e-9:
        return f"no lateral authority on the {side} side"
    return y_max, float(np.max(sampled.x))


def _relative_paths(init: EgoState, cap: CapabilityRecord, tuning: PathTuning,
                    side: str, scale: float) -> tuple[SampledPath, ...]:
    """The family at one scale, starting at the origin, with read-only
    arrays: every call on this key returns these paths, and what their memo
    keeps holds only while the arrays do."""
    paths: list[SampledPath] = []
    for n in range(1, tuning.n_tot + 1):
        f = scale * math.sqrt(n / tuning.n_tot)
        cap_n = replace(cap, rho_max=f * cap.rho_max)
        tun_n = replace(tuning, psi_max=f * tuning.psi_max)
        try:
            prof_n = build_max_severity_profile(init, cap_n, tun_n, side)
        except InfeasibleProfile:
            continue
        if abs(prof_n.rhos[2]) < 1e-12:
            continue
        path = presample_profile(prof_n, tuning.dt_presample)
        path.index = n
        path.path_id = f"{side[0].upper()}{n}"
        for arr in (path.t, path.x, path.y, path.psi, path.rho, path.v,
                    prof_n.times, prof_n.rhos, prof_n.vels):
            arr.flags.writeable = False
        paths.append(path)
    return tuple(paths)
