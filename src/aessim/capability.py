"""Vehicle capability estimation: braking deceleration and curvature limits.

The braking limit rests on the static axle loads; the lateral limits come
from steady-state cornering relations of the single track model at the
evasion's start speed, for six actuation combinations (with/without
pre-braking, steering and differential braking), saturated by the
friction and comfort-threshold curvature bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

from .errors import DegenerateSpeed

G = 9.81  # gravitational constant [m/s^2]


@dataclass(frozen=True)
class VehicleParams:
    """Static vehicle and actuator constants. Stiffnesses are magnitudes [N/rad]."""

    m: float            # mass [kg]
    a: float            # CG to front axle [m]
    b: float            # CG to rear axle [m]
    w: float            # track width [m]
    C_f: float          # front axle cornering stiffness [N/rad]
    C_r: float          # rear axle cornering stiffness [N/rad]
    I_zz: float         # yaw inertia [kg m^2]
    mu_f: float = 1.0   # front axle friction coefficient
    mu_r: float = 1.0   # rear axle friction coefficient
    S_f: float = 1.0    # front brake effectiveness, 0..1
    S_r: float = 1.0    # rear brake effectiveness, 0..1
    delta_max: float = 0.1  # max ground steering angle [rad]

    def __post_init__(self) -> None:
        if self.m <= 0 or self.a + self.b <= 0:
            raise ValueError("mass and wheelbase must be positive")
        if self.C_f <= 0 or self.C_r <= 0 or self.I_zz <= 0 or self.w <= 0:
            raise ValueError("C_f, C_r, I_zz and w must be positive")
        if not (0.0 <= self.S_f <= 1.0 and 0.0 <= self.S_r <= 1.0):
            raise ValueError("brake effectiveness factors must lie in [0, 1]")
        if self.mu_f < 0 or self.mu_r < 0:
            raise ValueError("friction coefficients must be non-negative")
        if self.delta_max < 0:
            raise ValueError("delta_max must be non-negative")

    @property
    def l(self) -> float:
        """Wheelbase [m]."""
        return self.a + self.b

    @property
    def mu_min(self) -> float:
        return min(self.mu_f, self.mu_r)


@dataclass
class EgoState:
    """Measured ego vehicle state in the road-aligned frame."""

    X: float = 0.0
    Y: float = 0.0
    psi: float = 0.0       # heading relative to the road [rad]
    v_x: float = 1.0       # longitudinal speed [m/s], > 0 while planning
    yaw_rate: float = 0.0  # [rad/s]


class CapabilityScenario(IntEnum):
    """Actuation combinations for which capabilities are evaluated."""

    BRAKE_STEER = 1
    BRAKE_DIFF = 2
    BRAKE_STEER_DIFF = 3
    STEER = 4
    DIFF = 5
    STEER_DIFF = 6

    @property
    def pre_braking(self) -> bool:
        return self in (self.BRAKE_STEER, self.BRAKE_DIFF, self.BRAKE_STEER_DIFF)

    @property
    def steering(self) -> bool:
        return self in (self.BRAKE_STEER, self.BRAKE_STEER_DIFF, self.STEER,
                        self.STEER_DIFF)

    @property
    def diff_braking(self) -> bool:
        return self in (self.BRAKE_DIFF, self.BRAKE_STEER_DIFF, self.DIFF,
                        self.STEER_DIFF)

    @property
    def without_prebraking(self) -> "CapabilityScenario":
        """The same actuators without pre-braking (1-3 become 4-6)."""
        return CapabilityScenario(self + 3) if self.pre_braking else self


@dataclass
class CapabilityTuning:
    """Tunable limits for the capability calculation."""

    t_pb: float = 0.0                  # pre-braking duration [s]
    a_y_threshold: float = math.inf    # comfort/controllability lateral limit [m/s^2]
    rho_dot_max: float = 0.2           # max curvature rate [1/(m s)]
    v_min: float = 1.0                 # minimum usable planning speed [m/s]

    def __post_init__(self) -> None:
        if self.t_pb < 0:
            raise ValueError("t_pb must be non-negative")
        # 0 means no lateral authority; the planner takes abs(rho_max)
        if self.a_y_threshold < 0:
            raise ValueError("a_y_threshold must be non-negative")
        if self.rho_dot_max <= 0:
            raise ValueError("rho_dot_max must be positive")
        if self.v_min < 0:
            raise ValueError("v_min must be non-negative")


@dataclass
class CapabilityRecord:
    """Capability outcome for a single actuation scenario."""

    scenario: CapabilityScenario
    a_x_min: float        # max braking deceleration, <= 0 [m/s^2]
    rho_max: float        # saturated steady-state curvature limit [1/m]
    rho_dot_max: float    # curvature rate limit [1/(m s)]
    v_x_evasion: float    # speed at the start of the steering phase [m/s]
    t_pb: float = 0.0     # pre-braking time, 0 unless the scenario brakes [s]


def longitudinal_capability(params: VehicleParams) -> float:
    """Maximum braking deceleration a_x_min <= 0 [m/s^2] on static loads."""
    l = params.l
    static = params.m * G
    f_front = params.a / l * static
    f_rear = params.b / l * static
    f_x_min = -params.mu_f * f_front * params.S_f - params.mu_r * f_rear * params.S_r
    return f_x_min / params.m


def steering_curvature(params: VehicleParams, v_x: float) -> float:
    """Raw steady-state curvature achievable by steering alone [1/m]."""
    k_us = params.m / params.l * (params.b / params.C_f + params.a / params.C_r)
    return abs(params.delta_max) / (params.l + k_us * v_x * v_x / G)


def diff_braking_curvature(params: VehicleParams, v_x: float) -> float:
    """Raw steady-state curvature achievable by differential braking alone.

    The denominator changes sign at high speed; past that point the
    steady-state relation no longer bounds the curvature, so the result is
    +inf and the friction saturation governs.
    """
    num = params.w * (params.C_f + params.C_r) * params.mu_min * params.m * G
    den = 4.0 * (params.C_f * params.C_r
                 - params.m * v_x * v_x * (params.b * params.C_r - params.a * params.C_f))
    if den <= 0.0:
        return math.inf
    return num / den


def friction_curvature_limit(params: VehicleParams, v_x: float) -> float:
    """Curvature bound from the friction-limited lateral acceleration."""
    return params.mu_min * G / (v_x * v_x)


def threshold_curvature_limit(a_y_threshold: float, v_x: float) -> float:
    """Curvature bound from a configured lateral acceleration threshold."""
    return a_y_threshold / (v_x * v_x)


def prebraking_speed(a_x_min: float, t_b: float, v_x0: float) -> float:
    """Speed after braking at a_x_min for t_b seconds."""
    return a_x_min * t_b + v_x0


def lateral_capability(scenario: CapabilityScenario, params: VehicleParams,
                       v_x: float, tuning: CapabilityTuning) -> CapabilityRecord:
    """Capability record for one actuation scenario at ego speed v_x.

    The record carries the pre-braking time the path and the braking window
    use: tuning.t_pb when the scenario pre-brakes, else 0. Raises
    DegenerateSpeed when pre-braking would drop the speed to or below the
    minimum planning speed.
    """
    if scenario.pre_braking:
        t_pb = tuning.t_pb
        a_x_min = longitudinal_capability(params)
        v_evade = prebraking_speed(a_x_min, t_pb, v_x)
        if v_evade <= tuning.v_min:
            raise DegenerateSpeed(
                f"pre-braking for {t_pb} s leaves {v_evade:.3f} m/s")
    else:
        t_pb = a_x_min = 0.0
        v_evade = v_x

    raw = 0.0
    if scenario.steering:
        raw += steering_curvature(params, v_evade)
    if scenario.diff_braking:
        raw += diff_braking_curvature(params, v_evade)

    rho_max = min(raw,
                  friction_curvature_limit(params, v_evade),
                  threshold_curvature_limit(tuning.a_y_threshold, v_evade))
    return CapabilityRecord(scenario=scenario, a_x_min=a_x_min, rho_max=rho_max,
                            rho_dot_max=tuning.rho_dot_max, v_x_evasion=v_evade,
                            t_pb=t_pb)

