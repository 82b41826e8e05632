"""Scenario configuration: schema definition, loading and validation.

A scenario is a single YAML file with an explicit schema_version. All
physical quantities are SI (metres, seconds, radians, newtons). Every
number must be finite, except `capability.a_y_threshold` and
`control.brake_force_max`, where inf means no limit. A scenario that would
fail or run wrongly because of its settings (non-finite numbers, a zero
check step, a vehicle model unstable at the initial speed) is rejected here
with ConfigError rather than mid-run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .capability import (CapabilityScenario, CapabilityTuning, EgoState,
                         VehicleParams)
from .control import ControllerConfig, ControlMode
from .decision import TriggerConfig
from .errors import ConfigError
from .geometry import DriveableSpace, Footprint, Pose
from .pathgen import PathTuning
from .plant import DT_MAX, assert_stable_vehicle
from .ranking import CostWeights

SCHEMA_VERSION = 1

_MODES = {
    "steering": ControlMode.STEERING_ONLY,
    "diff_brake": ControlMode.DIFF_BRAKE_ONLY,
    "combined": ControlMode.COMBINED,
}


@dataclass
class TargetDef:
    """One dynamic or static object in the scene."""

    track_id: str
    footprint: Footprint
    pose: Pose
    speed: float = 0.0
    appear_time: float = 0.0
    type_tag: str = "vehicle"
    maneuver_time: float | None = None   # optional speed change instant [s]
    maneuver_speed: float | None = None  # speed after the change [m/s]

    def position_at(self, t: float) -> Pose:
        """True pose at simulation time t (piecewise constant velocity)."""
        c, s = math.cos(self.pose.psi), math.sin(self.pose.psi)
        if self.maneuver_time is None or t <= self.maneuver_time:
            d = self.speed * t
        else:
            d = (self.speed * self.maneuver_time
                 + self.maneuver_speed * (t - self.maneuver_time))
        return Pose(self.pose.X + d * c, self.pose.Y + d * s, self.pose.psi)

    def speed_at(self, t: float) -> float:
        if self.maneuver_time is not None and t > self.maneuver_time:
            return self.maneuver_speed
        return self.speed


@dataclass
class SimSettings:
    duration: float = 10.0
    dt_plant: float = 0.001
    dt_control: float = 0.01
    planner_period: float = 0.1
    dt_check: float = 0.1


@dataclass
class RoadDef:
    x_start: float
    x_end: float
    y_left: float
    y_right: float
    station_spacing: float = 1.0
    lateral_granularity: float = 0.5


@dataclass
class ScenarioConfig:
    name: str
    vehicle: VehicleParams
    footprint: Footprint
    cap_scenario: CapabilityScenario
    cap_tuning: CapabilityTuning
    path_tuning: PathTuning
    sides: list[str]
    weights: CostWeights
    trigger: TriggerConfig
    controller: ControllerConfig
    road: RoadDef
    ego: EgoState
    targets: list[TargetDef] = field(default_factory=list)
    sim: SimSettings = field(default_factory=SimSettings)

    def build_space(self) -> DriveableSpace:
        return DriveableSpace.corridor(
            self.road.x_start, self.road.x_end, self.road.y_left,
            self.road.y_right, self.road.station_spacing,
            self.road.lateral_granularity)


def _section(raw: dict, key: str, required: bool = False) -> dict:
    value = raw.pop(key, None)
    if value is None:
        if required:
            raise ConfigError(f"missing required section '{key}'")
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"section '{key}' must be a mapping")
    return dict(value)


def _take(section: dict, name: str, key: str, default=None, required=False):
    if key in section:
        return section.pop(key)
    if required:
        raise ConfigError(f"missing '{name}.{key}'")
    return default


def _num(section: dict, name: str, key: str, default=None, required=False,
         allow_inf: bool = False) -> float:
    """A finite number from the section; with allow_inf, +inf (also written
    as an empty entry) means no limit."""
    value = _take(section, name, key, default, required)
    if allow_inf and value is None:
        return math.inf
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"'{name}.{key}' must be a number, found {value!r}") from exc
    if not (math.isfinite(number) or (allow_inf and number == math.inf)):
        raise ConfigError(f"'{name}.{key}' must be finite, found {value!r}")
    return number


def _no_leftovers(section: dict, name: str) -> None:
    if section:
        raise ConfigError(f"unknown keys in '{name}': {sorted(section)}")


def _footprint(section: dict, name: str) -> Footprint:
    try:
        return Footprint(
            length=_num(section, name, "length", required=True),
            width=_num(section, name, "width", required=True),
            ref_offset=_num(section, name, "ref_offset", 0.0))
    except ValueError as exc:
        raise ConfigError(f"bad footprint in '{name}': {exc}") from exc


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and validate one scenario file."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("scenario file must contain a mapping")
    return parse_scenario(raw, default_name=path.stem)


def parse_scenario(raw: dict, default_name: str = "scenario") -> ScenarioConfig:
    raw = dict(raw)
    version = raw.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, found {version!r}")
    name = str(raw.pop("name", default_name))

    veh = _section(raw, "vehicle", required=True)
    fp = _footprint(_section(veh, "footprint", required=False)
                    or {"length": 4.5, "width": 1.8, "ref_offset": 1.35},
                    "vehicle.footprint")
    veh.pop("footprint", None)
    try:
        vehicle = VehicleParams(
            m=_num(veh, "vehicle", "m", required=True),
            a=_num(veh, "vehicle", "a", required=True),
            b=_num(veh, "vehicle", "b", required=True),
            h_cog=_num(veh, "vehicle", "h_cog", required=True),
            w=_num(veh, "vehicle", "w", required=True),
            C_f=_num(veh, "vehicle", "C_f", required=True),
            C_r=_num(veh, "vehicle", "C_r", required=True),
            I_zz=_num(veh, "vehicle", "I_zz", required=True),
            mu_f=_num(veh, "vehicle", "mu_f", 1.0),
            mu_r=_num(veh, "vehicle", "mu_r", 1.0),
            S_f=_num(veh, "vehicle", "S_f", 1.0),
            S_r=_num(veh, "vehicle", "S_r", 1.0),
            delta_max=_num(veh, "vehicle", "delta_max", 0.1),
        )
    except ValueError as exc:
        raise ConfigError(f"bad vehicle parameters: {exc}") from exc
    _no_leftovers(veh, "vehicle")

    cap = _section(raw, "capability")
    try:
        cap_scenario = CapabilityScenario(int(_num(cap, "capability",
                                                   "scenario_id", 6)))
    except ValueError as exc:
        raise ConfigError(f"capability.scenario_id must be 1..6: {exc}") from exc
    cap_tuning = CapabilityTuning(
        t_pb=_num(cap, "capability", "t_pb", 0.0),
        a_y_threshold=_num(cap, "capability", "a_y_threshold", math.inf,
                           allow_inf=True),
        rho_dot_max=_num(cap, "capability", "rho_dot_max", 0.2),
        v_min=_num(cap, "capability", "v_min", 1.0),
    )
    _no_leftovers(cap, "capability")

    pl = _section(raw, "planner")
    sides = _take(pl, "planner", "sides", ["left", "right"])
    if (not isinstance(sides, list) or not sides
            or any(s not in ("left", "right") for s in sides)):
        raise ConfigError("planner.sides must be a non-empty list of left/right")
    try:
        path_tuning = PathTuning(
            t_pb=cap_tuning.t_pb,
            psi_max=_num(pl, "planner", "psi_max", 0.2),
            i_sb=_num(pl, "planner", "i_sb", 0.8),
            rho_road=_num(pl, "planner", "rho_road", 0.0),
            y_offset=_num(pl, "planner", "y_offset", 0.0),
            t_stabilize=_num(pl, "planner", "t_stabilize", 0.5),
            n_tot=int(_num(pl, "planner", "n_paths", 6)),
            dt_presample=_num(pl, "planner", "dt_presample", 0.01),
            min_lateral_clearance=_num(pl, "planner",
                                       "min_lateral_clearance", 1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"bad planner tuning: {exc}") from exc
    _no_leftovers(pl, "planner")

    co = _section(raw, "costs")
    weights = CostWeights(K_ay=_num(co, "costs", "K_ay", 1.0),
                          K_ax=_num(co, "costs", "K_ax", 1.0),
                          K_prox=_num(co, "costs", "K_prox", 0.0))
    _no_leftovers(co, "costs")

    tr = _section(raw, "trigger")
    try:
        trigger = TriggerConfig(
            t_margin=_num(tr, "trigger", "t_margin", 0.15),
            t_warning=_num(tr, "trigger", "t_warning", 0.3),
            tte_reduction=_num(tr, "trigger", "tte_reduction", 0.0),
            ttc_horizon=_num(tr, "trigger", "ttc_horizon", 5.0),
        )
    except ValueError as exc:
        raise ConfigError(f"bad trigger config: {exc}") from exc
    _no_leftovers(tr, "trigger")

    ct = _section(raw, "control")
    mode_name = str(_take(ct, "control", "mode", "combined"))
    if mode_name not in _MODES:
        raise ConfigError(f"control.mode must be one of {sorted(_MODES)}")
    try:
        controller = ControllerConfig(
            sigma_1=_num(ct, "control", "sigma_1", -3.0),
            sigma_2=_num(ct, "control", "sigma_2", -3.0),
            mode=_MODES[mode_name],
            i_f=_num(ct, "control", "i_f", 0.7),
            i_r=_num(ct, "control", "i_r", 0.3),
            dt_control=_num(ct, "control", "dt_control", 0.01),
            brake_force_max=_num(ct, "control", "brake_force_max", math.inf,
                                 allow_inf=True),
        )
    except ValueError as exc:
        raise ConfigError(f"bad control config: {exc}") from exc
    _no_leftovers(ct, "control")

    rd = _section(raw, "road", required=True)
    road = RoadDef(
        x_start=_num(rd, "road", "x_start", required=True),
        x_end=_num(rd, "road", "x_end", required=True),
        y_left=_num(rd, "road", "y_left", required=True),
        y_right=_num(rd, "road", "y_right", required=True),
        station_spacing=_num(rd, "road", "station_spacing", 1.0),
        lateral_granularity=_num(rd, "road", "lateral_granularity", 0.5),
    )
    if road.y_left <= road.y_right or road.x_end <= road.x_start:
        raise ConfigError("road bounds are inverted")
    _no_leftovers(rd, "road")

    eg = _section(raw, "ego", required=True)
    ego = EgoState(X=_num(eg, "ego", "X", 0.0),
                   Y=_num(eg, "ego", "Y", 0.0),
                   psi=_num(eg, "ego", "psi", 0.0),
                   v_x=_num(eg, "ego", "v_x", required=True))
    if ego.v_x <= 0:
        raise ConfigError("ego.v_x must be positive")
    _no_leftovers(eg, "ego")
    try:
        assert_stable_vehicle(vehicle, ego.v_x)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    targets_raw = raw.pop("targets", []) or []
    if not isinstance(targets_raw, list):
        raise ConfigError("targets must be a list")
    targets: list[TargetDef] = []
    seen: set[str] = set()
    for i, entry in enumerate(targets_raw):
        if not isinstance(entry, dict):
            raise ConfigError(f"targets[{i}] must be a mapping")
        entry = dict(entry)
        tid = str(_take(entry, f"targets[{i}]", "id", f"target{i}"))
        if tid in seen:
            raise ConfigError(f"duplicate target id '{tid}'")
        seen.add(tid)
        tfp = _footprint(_section(entry, "footprint", required=True),
                         f"targets[{i}].footprint")
        entry.pop("footprint", None)
        man = _section(entry, "maneuver")
        entry.pop("maneuver", None)
        m_time = m_speed = None
        if man:
            m_time = _num(man, f"targets[{i}].maneuver", "time",
                          required=True)
            m_speed = _num(man, f"targets[{i}].maneuver", "speed",
                           required=True)
            _no_leftovers(man, f"targets[{i}].maneuver")
        targets.append(TargetDef(
            track_id=tid,
            footprint=tfp,
            pose=Pose(_num(entry, f"targets[{i}]", "X", required=True),
                      _num(entry, f"targets[{i}]", "Y", required=True),
                      _num(entry, f"targets[{i}]", "psi", 0.0)),
            speed=_num(entry, f"targets[{i}]", "speed", 0.0),
            appear_time=_num(entry, f"targets[{i}]", "appear_time", 0.0),
            type_tag=str(_take(entry, f"targets[{i}]", "type", "vehicle")),
            maneuver_time=m_time,
            maneuver_speed=m_speed,
        ))
        _no_leftovers(entry, f"targets[{i}]")

    sm = _section(raw, "sim")
    sim = SimSettings(
        duration=_num(sm, "sim", "duration", 10.0),
        dt_plant=_num(sm, "sim", "dt_plant", 0.001),
        dt_control=_num(sm, "sim", "dt_control", 0.01),
        planner_period=_num(sm, "sim", "planner_period", 0.1),
        dt_check=_num(sm, "sim", "dt_check", 0.1),
    )
    if sim.duration <= 0 or sim.dt_check <= 0:
        raise ConfigError("sim.duration and sim.dt_check must be positive")
    if not 0.0 < sim.dt_plant <= DT_MAX:
        raise ConfigError(f"sim.dt_plant must lie in (0, {DT_MAX}]")
    for coarse, fine, label in ((sim.dt_control, sim.dt_plant, "dt_control/dt_plant"),
                                (sim.planner_period, sim.dt_control,
                                 "planner_period/dt_control")):
        ratio = coarse / fine
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
            raise ConfigError(f"{label} must be an integer multiple")
    _no_leftovers(sm, "sim")
    _no_leftovers(raw, "scenario")

    return ScenarioConfig(
        name=name, vehicle=vehicle, footprint=fp, cap_scenario=cap_scenario,
        cap_tuning=cap_tuning, path_tuning=path_tuning, sides=list(sides),
        weights=weights, trigger=trigger, controller=controller, road=road,
        ego=ego, targets=targets, sim=sim)
