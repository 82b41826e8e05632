"""Path tracking control: frame transformation, tracking errors, steady-state
feedforward, pole-placement feedback for steering and differential braking,
and brake-force allocation.

The error model and gain formulas are written in the tyre-slip convention
where lateral force is stiffness times slip angle with a negative stiffness.
Vehicle parameters store stiffness magnitudes, so the controller and plant
negate them before evaluating the formulas; the formula-level functions here
take the signed values as given.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .capability import VehicleParams
from .errors import PathExhausted
from .geometry import Pose
from .pathgen import SampledPath


class ControlMode(Enum):
    STEERING_ONLY = "steering"
    DIFF_BRAKE_ONLY = "diff_brake"
    COMBINED = "combined"


@dataclass
class ControllerConfig:
    sigma_1: float = -3.0
    sigma_2: float = -3.0
    mode: ControlMode = ControlMode.COMBINED
    i_f: float = 0.7               # front share of the brake force
    i_r: float = 0.3               # rear share, i_f + i_r = 1
    brake_force_max: float = math.inf  # per-wheel cap [N]

    def __post_init__(self) -> None:
        if self.sigma_1 >= 0 or self.sigma_2 >= 0:
            raise ValueError("closed-loop poles must have negative real part")
        if self.i_f < 0 or self.i_r < 0 or abs(self.i_f + self.i_r - 1.0) > 1e-9:
            raise ValueError("brake split factors must be >= 0 and sum to 1")
        if self.brake_force_max < 0:
            raise ValueError("brake_force_max must be non-negative")


@dataclass
class TrackingErrors:
    y_e: float        # lateral error [m], positive when the path lies left
    y_e_dot: float    # [m/s]
    psi_e: float      # heading error [rad]
    psi_e_dot: float  # [rad/s]
    kappa: float      # path curvature at the match point [1/m]


@dataclass
class WheelForces:
    fl: float = 0.0
    fr: float = 0.0
    rl: float = 0.0
    rr: float = 0.0

    def induced_moment(self, track_width: float) -> float:
        """Yaw moment from brake-force magnitudes; braking left turns left."""
        return 0.5 * track_width * (self.fl - self.fr + self.rl - self.rr)


@dataclass
class ControlCommand:
    delta_g: float = 0.0      # ground steering angle [rad]
    M_z_ext: float = 0.0      # achieved external yaw moment [N m]
    brakes: WheelForces = field(default_factory=WheelForces)


# --- formula level -----------------------------------------------------------

def understeer_gradient(m: float, l: float, a: float, b: float,
                        c_f: float, c_r: float) -> float:
    return m / l * (a / c_r - b / c_f)


def steering_feedforward_gain(kappa: float, u: float, m: float, l: float,
                              a: float, b: float, c_f: float, c_r: float) -> float:
    k_delta = understeer_gradient(m, l, a, b, c_f, c_r)
    return (k_delta * u * u + l) * kappa


def brake_feedforward_gain(delta_actual: float, kappa: float, u: float,
                           m: float, l: float, a: float, b: float,
                           c_f: float, c_r: float) -> float:
    k_delta = understeer_gradient(m, l, a, b, c_f, c_r)
    return (l * c_f * c_r / (c_f + c_r)) * (
        delta_actual - (k_delta * u * u + l) * kappa)


def steering_gains(u: float, s1: float, s2: float, m: float, izz: float,
                   l: float, a: float, b: float, c_f: float,
                   c_r: float) -> np.ndarray:
    """Steering feedback row [k_y, k_Dy, k_psi, k_Dpsi].

    Places two closed-loop poles at (s1, s2) while leaving the two open-loop
    vehicle poles untouched.
    """
    ss = s1 * s2
    sp = s1 + s2
    q = m * (a * c_f - b * c_r) / (l * c_f * c_r)
    k_y = (l / u**2 + q) * ss
    k_dy = -q * sp - (m * a / (c_r * u)) * ss
    k_psi = -(l / u) * sp - ((c_f + c_r) * izz / (c_f * c_r * l)
                             + b * l / u**2) * ss
    k_dpsi = ((c_f + c_r) * izz / (c_f * c_r * l)) * sp + (izz / (c_r * u)) * ss
    return np.array([k_y, k_dy, k_psi, k_dpsi])


def braking_gains(u: float, s1: float, s2: float, m: float, izz: float,
                  l: float, a: float, b: float, c_f: float,
                  c_r: float) -> np.ndarray:
    """Differential-braking feedback row [k_y, k_Dy, k_psi, k_Dpsi]."""
    ss = s1 * s2
    sp = s1 + s2
    csum = c_f + c_r
    q = a * c_f - b * c_r
    k_y = -(c_f * c_r * l**2 / (u**2 * csum) + m * q / csum) * ss
    k_dy = (m * c_f * c_r * l**2 / (u * csum**2)) * ss + (m * q / csum) * sp
    k_psi = (c_f * c_r * l**2 / (u * csum)) * sp + (
        izz - c_f * c_r * l**2 * q / (u**2 * csum**2)) * ss
    k_dpsi = -izz * sp
    return np.array([k_y, k_dy, k_psi, k_dpsi])


# --- operation level ---------------------------------------------------------

def _signed_stiffness(params: VehicleParams) -> tuple[float, float]:
    return -params.C_f, -params.C_r


def steady_state_slip(kappa: float, u: float, delta: float,
                      params: VehicleParams) -> float:
    """Lateral velocity on a steady circle of curvature kappa at steering delta.

    From the lateral force balance with r = u * kappa. On a curve the vehicle
    tracks with this crab velocity, so the regulator must not treat the
    matching heading offset v_ss / u as an error.
    """
    c_f, c_r = _signed_stiffness(params)
    m = params.m
    p = (c_f + c_r) / m
    q = (params.a * c_f - params.b * c_r) / m
    return -((q / u - u) * u * kappa - (c_f / m) * delta) / (p / u)


def feedback_gains(params: VehicleParams, u_v: float,
                   cfg: ControllerConfig) -> np.ndarray:
    """Gain matrix (2 x 4): steering row, then moment row, zeroed per mode."""
    c_f, c_r = _signed_stiffness(params)
    args = (u_v, cfg.sigma_1, cfg.sigma_2, params.m, params.I_zz, params.l,
            params.a, params.b, c_f, c_r)
    k = np.zeros((2, 4))
    if cfg.mode in (ControlMode.STEERING_ONLY, ControlMode.COMBINED):
        k[0] = steering_gains(*args)
    if cfg.mode in (ControlMode.DIFF_BRAKE_ONLY, ControlMode.COMBINED):
        k[1] = braking_gains(*args)
    return k


def path_to_vehicle_frame(path: SampledPath, ego: Pose) -> np.ndarray:
    """The vehicle-frame longitudinal coordinate dx*c + dy*s of each path
    sample, given the ego pose in the path frame (anything with X, Y and
    psi): (dx, dy) is the sample's offset from the ego and c, s the cos/sin
    of its heading. The match point reads only this coordinate, so no
    vehicle-frame copy of the path is made; `tracking_errors` forms the
    lateral coordinate and heading at the match index alone."""
    c, s = math.cos(ego.psi), math.sin(ego.psi)
    return (path.x - ego.X) * c + (path.y - ego.Y) * s


def tracking_errors(path: SampledPath, x_v: np.ndarray,
                    plant) -> TrackingErrors:
    """Errors at the match point of a path, given x_v =
    path_to_vehicle_frame(path, plant): the plant state is the ego pose.

    The match point is the sample nearest the vehicle origin along the
    longitudinal axis. There y_e is the sample's vehicle-frame lateral
    coordinate (-dx)*s + dy*c and psi_e its heading minus the ego's, wrapped
    by math.remainder: the operations, in order, of a vehicle-frame copy of
    the whole path, so the same bits. Error derivatives come from the
    kinematic relations y_e_dot = u psi_e - v and psi_e_dot = u kappa - r.
    """
    i = int(abs(x_v).argmin())
    if i >= len(x_v) - 1:
        raise PathExhausted("match point reached the final sample")
    c, s = math.cos(plant.psi), math.sin(plant.psi)
    dx = path.x.item(i) - plant.X
    dy = path.y.item(i) - plant.Y
    y_e = -dx * s + dy * c
    psi_e = math.remainder(path.psi.item(i) - plant.psi, 2.0 * math.pi)
    kappa = path.rho.item(i)
    u = plant.u_v
    return TrackingErrors(y_e=y_e,
                          y_e_dot=u * psi_e - plant.v_v,
                          psi_e=psi_e,
                          psi_e_dot=u * kappa - plant.r,
                          kappa=kappa)


def allocate_brakes(m_z_ext: float, params: VehicleParams,
                    cfg: ControllerConfig) -> WheelForces:
    """Per-wheel brake forces reproducing the commanded yaw moment.

    A positive moment brakes the left wheels, a negative one the right
    wheels; each side carries 2|M| / t_w split by i_f / i_r. Forces are
    capped per wheel, shrinking the achieved moment.
    """
    if m_z_ext == 0.0:
        return WheelForces()
    per_side = 2.0 * abs(m_z_ext) / params.w
    front = min(per_side * cfg.i_f, cfg.brake_force_max)
    rear = min(per_side * cfg.i_r, cfg.brake_force_max)
    if m_z_ext > 0:
        return WheelForces(fl=front, rl=rear)
    return WheelForces(fr=front, rr=rear)


def control_step(err: TrackingErrors, plant, params: VehicleParams,
                 cfg: ControllerConfig, k: np.ndarray) -> ControlCommand:
    """Feedback plus feedforward command, saturated and allocated.

    k is the gain matrix feedback_gains(params, plant.u_v, cfg); it depends
    on the speed alone, so the loop forms it once per speed. In
    diff-brake-only mode the system does not steer and the steering angle
    stays 0.
    """
    c_f, c_r = _signed_stiffness(params)
    d_ff = steering_feedforward_gain(err.kappa, plant.u_v, params.m,
                                     params.l, params.a, params.b, c_f, c_r)

    # reference the heading error to the steady-circle crab angle, so the
    # feedback vanishes at the exact tracking equilibrium
    delta_ref = 0.0 if cfg.mode is ControlMode.DIFF_BRAKE_ONLY else d_ff
    psi_ref = steady_state_slip(err.kappa, plant.u_v, delta_ref,
                                params) / plant.u_v
    e = np.array([err.y_e, err.y_e_dot, err.psi_e - psi_ref, err.psi_e_dot])

    if cfg.mode is ControlMode.DIFF_BRAKE_ONLY:
        delta_cmd = 0.0
    else:
        delta_cmd = float(k[0] @ e) + d_ff
        delta_cmd = max(-params.delta_max, min(params.delta_max, delta_cmd))

    if cfg.mode is ControlMode.STEERING_ONLY:
        return ControlCommand(delta_g=delta_cmd, M_z_ext=0.0)

    # the moment feedforward compensates only the deviation of the actual
    # (saturated) steering angle from the steady-state steering
    m_ff = brake_feedforward_gain(delta_cmd, err.kappa, plant.u_v,
                                  params.m, params.l, params.a, params.b,
                                  c_f, c_r)
    m_cmd = float(k[1] @ e) + m_ff
    brakes = allocate_brakes(m_cmd, params, cfg)
    return ControlCommand(delta_g=delta_cmd,
                          M_z_ext=brakes.induced_moment(params.w),
                          brakes=brakes)
