"""Simulation plant: linear single-track lateral dynamics with an external
yaw-moment input, longitudinal speed update during pre-braking and kinematic
global pose integration.

One `plant_step` call integrates the n RK4 substeps of a control tick under
the tick's command. It derives the lateral coefficients itself, keeps them
while the speed is unchanged and recomputes them when pre-braking moves it;
the loop derives its own for `lateral_acceleration` alike. Every substep is
checked against the sanity bounds; a divergence raises NumericalDivergence
carrying the last in-bounds substep's state, so a run that aborts ends
there, not at the start of its tick.

A substep that returns its start state bit for bit (u_v, v_v, r and psi;
-0.0 is not 0.0 and NaN equals nothing) is a fixed point, as when cruising
straight at rest under a zero command. Its increments of X and Y, its new
state, bounds check and saturation flag depend only on that start state, the
command's delta_g and M_z_ext, a_x_cmd, dt and params (the lateral
coefficients and the friction limit), never on X, Y or t. So every later
substep would compute the same values: `plant_step` skips their RK4 stages
and only repeats the increments one substep at a time (`X + dX`, `Y + dY`,
`t + dt`), which gives the bits of the full integration.

A call that ends at a fixed point records it on the returned state
(`PlantState.fixed`): its increments and saturation flag, keyed by `params`
by identity (VehicleParams is frozen, so it fixes the friction limit and,
with u_v, the coefficients) and by the bits of u_v, v_v, r, psi, delta_g,
M_z_ext, a_x_cmd and dt; a NaN a_x_cmd keeps no record. A call whose inputs
have those bits repeats the increments for all n substeps without any RK4
stage. `dataclasses.replace` drops the record, and a state changed by
assignment no longer matches it.

The RK4 step and the lateral acceleration run on plain Python floats and
build no numpy arrays. One stage body, with no derivative function, runs
the four RK4 stages: each makes one `math.cos` and one `math.sin`, and a
stage heading that overflows raises the divergence with that stage's
lateral velocity and yaw-rate inputs. The step repeats the float
operations of the numpy-matrix step it replaced, in the same order (the
stage sums start at -0.0, the identity of IEEE addition) and with each
substep's state rounded through `float`, so it returns the same bits and
`trace.csv`, `paths.csv` and `summary.json` stay byte-identical.
An algebraically equal reordering of the arithmetic breaks this; the tests
keep the numpy-matrix step as the reference and compare by `float.hex`.
`_lateral_coeffs` holds the only copy of the lateral-dynamics formulas;
`lateral_matrices` builds its arrays from it for the pole check.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .capability import G, VehicleParams
from .control import ControlCommand
from .errors import NumericalDivergence

V_LAT_LIMIT = 30.0    # sanity bound on lateral velocity [m/s]
YAW_RATE_LIMIT = 5.0  # sanity bound on yaw rate [rad/s]
U_FLOOR = 1.0         # plant never drops below this speed [m/s]
DT_MAX = 0.01         # largest integration step the plant accepts [s]


# the float inputs of a substep besides params: u_v, v_v, r, psi, delta_g,
# M_z_ext, a_x_cmd and dt, packed to compare their bits
_KEY = struct.Struct("8d")


class FixedPoint(NamedTuple):
    """A substep that returned its start state: what it read, and what each
    repeat of it adds."""

    params: VehicleParams
    key: bytes          # _KEY of the substep's float inputs
    dX: float
    dY: float
    saturated: bool


@dataclass
class PlantState:
    u_v: float            # longitudinal velocity [m/s]
    v_v: float = 0.0      # lateral velocity [m/s]
    r: float = 0.0        # yaw rate [rad/s]
    X: float = 0.0
    Y: float = 0.0
    psi: float = 0.0
    t: float = 0.0
    ay_saturated: bool = False  # lateral-force guard active in the last step
    # the fixed point that the plant_step call returning this state ended
    # at, if any
    fixed: FixedPoint | None = field(default=None, init=False,
                                     compare=False, repr=False)


def _lateral_coeffs(params: VehicleParams, u: float) -> tuple[float, ...]:
    """Entries (a11, a12, a21, a22, b11, b21, b22) of the lateral dynamics
    at speed u; b12 is zero.

    States are (v_v, r), inputs (delta_g, M_z_ext). Written in the
    negative-stiffness slip convention, so the stored magnitudes are negated.
    """
    c_f, c_r = -params.C_f, -params.C_r
    m, izz, a, b = params.m, params.I_zz, params.a, params.b
    return ((c_f + c_r) / (m * u), (a * c_f - b * c_r) / (m * u) - u,
            (a * c_f - b * c_r) / (izz * u),
            (a**2 * c_f + b**2 * c_r) / (izz * u),
            -c_f / m, -a * c_f / izz, 1.0 / izz)


def lateral_matrices(params: VehicleParams,
                     u: float) -> tuple[np.ndarray, np.ndarray]:
    """State and input matrices of the lateral dynamics at speed u."""
    a11, a12, a21, a22, b11, b21, b22 = _lateral_coeffs(params, u)
    return (np.array([[a11, a12], [a21, a22]]),
            np.array([[b11, 0.0], [b21, b22]]))


def assert_stable_vehicle(params: VehicleParams, u: float) -> None:
    try:
        poles = np.linalg.eigvals(lateral_matrices(params, u)[0])
    except OverflowError as exc:  # a**2 or b**2 beyond the float range
        raise ValueError(f"vehicle model overflows at u={u:.1f} m/s") from exc
    if np.any(poles.real >= 0):
        raise ValueError(
            f"vehicle model unstable at u={u:.1f} m/s (poles {poles})")


def plant_step(s: PlantState, cmd: ControlCommand, params: VehicleParams,
               a_x_cmd: float, dt: float, n: int = 1) -> PlantState:
    """n fixed-step RK4 substeps of the plant under one command.

    The lateral acceleration is capped at the friction limit inside each
    RK4 stage (tyre-force saturation guard); the returned state is flagged
    when the guard engaged in the last substep. The longitudinal speed
    follows a_x_cmd and never drops below the floor. A substep that leaves
    the sanity bounds raises NumericalDivergence whose `state` is the last
    substep's state that stayed in bounds (s itself if the first diverged).
    A call that ends at a fixed point records it on the returned state, and
    a call from that state under the same inputs repeats it without RK4
    stages. The input matrix does not depend on the speed, so the input
    terms b11*delta_g, b21*delta_g and b22*M_z_ext are formed once per call,
    and each stage adds the same products it would form itself.
    """
    if not (0.0 < dt <= DT_MAX):
        raise ValueError(f"dt must lie in (0, {DT_MAX}]")
    delta, m_ext = cmd.delta_g, cmd.M_z_ext
    u_v, v, r, X, Y, psi, t = s.u_v, s.v_v, s.r, s.X, s.Y, s.psi, s.t
    last_saturated = s.ay_saturated
    fixed = s.fixed
    if (fixed is not None and n > 0 and fixed.params is params
            and fixed.key == _KEY.pack(u_v, v, r, psi, delta, m_ext, a_x_cmd,
                                       dt)):
        # the call starts at its recorded fixed point
        dX, dY, last_saturated = fixed.dX, fixed.dY, fixed.saturated
        repeats, integrate = n, 0
    else:
        # the RK4 stages run
        fixed = None
        repeats, integrate = 0, n
        ay_max = params.mu_min * G
        u = None  # the speed the lateral coefficients belong to
        h = 0.5 * dt
        w = dt / 6.0
        # each RK4 stage's weight in the sums and step to the next stage
        stages = ((1.0, h), (2.0, h), (2.0, dt), (1.0, 0.0))
    try:
        for k in range(integrate):
            # the coefficients change with the speed only, i.e. while braking
            if u_v != u:
                u = u_v
                a11, a12, a21, a22, b11, b21, b22 = _lateral_coeffs(params, u)
                if k == 0:
                    # the input terms: b11, b21 and b22 do not depend on
                    # the speed, so they hold for the whole call
                    in_v, in_r, in_m = b11 * delta, b21 * delta, b22 * m_ext
            t_next = t + dt
            saturated = False
            # RK4 stages at their inputs (sv, sr, sp): v_dot and r_dot, with
            # the tyre terms scaled at saturation so that the lateral
            # acceleration caps at the friction limit, and the road-frame
            # velocity. A stage's heading derivative is its yaw-rate input.
            # Each weighted sum starts at -0.0, the identity of IEEE
            # addition, so it holds the bits of k1 + 2*k2 + 2*k3 + k4.
            sv, sr, sp = v, r, psi
            v_sum = r_sum = x_sum = y_sum = psi_sum = -0.0
            try:
                for weight, step in stages:
                    kv = a11 * sv + a12 * sr + in_v
                    kr = a21 * sv + a22 * sr + in_r
                    a_y = kv + u * sr
                    if abs(a_y) > ay_max:
                        saturated = True
                        scale = ay_max / abs(a_y)
                        kv = scale * a_y - u * sr
                        kr *= scale
                    kr = kr + in_m
                    c, sn = math.cos(sp), math.sin(sp)
                    v_sum = v_sum + weight * kv
                    r_sum = r_sum + weight * kr
                    x_sum = x_sum + weight * (u * c - sv * sn)
                    y_sum = y_sum + weight * (u * sn + sv * c)
                    psi_sum = psi_sum + weight * sr
                    sv, sr, sp = v + step * kv, r + step * kr, psi + step * sr
            except ValueError:  # the stage heading overflowed to inf
                raise _diverged(t_next, sv, sr) from None

            v_new = float(v + w * v_sum)
            r_new = float(r + w * r_sum)
            # negated, so that a NaN state fails the bounds too
            if not (abs(v_new) <= V_LAT_LIMIT
                    and abs(r_new) <= YAW_RATE_LIMIT):
                raise _diverged(t_next, v_new, r_new)
            dX, dY = w * x_sum, w * y_sum
            X = float(X + dX)
            Y = float(Y + dY)
            psi_new = float(psi + w * psi_sum)
            u_new = max(U_FLOOR, u_v + a_x_cmd * dt)
            # u_new >= U_FLOOR, so only the other three can be signed zeros
            at_rest = (v_new == v and r_new == r and psi_new == psi
                       and u_new == u_v
                       and math.copysign(1.0, v_new) == math.copysign(1.0, v)
                       and math.copysign(1.0, r_new) == math.copysign(1.0, r)
                       and math.copysign(1.0, psi_new)
                       == math.copysign(1.0, psi))
            u_v, v, r, psi, t = u_new, v_new, r_new, psi_new, t_next
            last_saturated = saturated
            if at_rest:
                # every later substep repeats this one's increments
                dX, dY = float(dX), float(dY)
                if a_x_cmd == a_x_cmd:  # a NaN matches nothing: no record
                    fixed = FixedPoint(params, _KEY.pack(
                        u_v, v, r, psi, delta, m_ext, a_x_cmd, dt), dX, dY,
                        saturated)
                repeats = integrate - 1 - k
                break
    except NumericalDivergence as exc:
        exc.state = PlantState(u_v, v, r, X, Y, psi, t, last_saturated)
        raise
    for _ in range(repeats):
        X = X + dX
        Y = Y + dY
        t = t + dt
    out = PlantState(u_v, v, r, X, Y, psi, t, last_saturated)
    out.fixed = fixed
    return out


def _diverged(t: float, v_v: float, r: float) -> NumericalDivergence:
    return NumericalDivergence(
        f"plant state out of bounds at t={t:.3f} (v_v={v_v:.2f}, r={r:.2f})")


def lateral_acceleration(s: PlantState, cmd: ControlCommand,
                         coeffs: tuple[float, ...]) -> float:
    """Lateral acceleration v_dot + u * r (unguarded); coeffs at s.u_v."""
    a11, a12, _, _, b11, _, _ = coeffs
    v_dot = a11 * s.v_v + a12 * s.r + b11 * cmd.delta_g
    return float(v_dot + s.u_v * s.r)
