"""Scenario configuration: schema definition, loading and validation.

A scenario is a single YAML file with an explicit schema_version. All
physical quantities are SI (metres, seconds, radians, newtons). An absent
optional key takes the default of its config dataclass. Every
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
    road: DriveableSpace
    ego: EgoState
    targets: list[TargetDef] = field(default_factory=list)
    sim: SimSettings = field(default_factory=SimSettings)


def _section(raw: dict, key: str, required: bool = False) -> dict:
    value = raw.pop(key, None)
    if value is None:
        if required:
            raise ConfigError(f"missing required section '{key}'")
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"section '{key}' must be a mapping")
    return dict(value)


def _num(section: dict, name: str, key: str, allow_inf: bool = False,
         integer: bool = False) -> float | int:
    """Pop a finite number from the section; with allow_inf, +inf (also
    written as an empty entry) means no limit; with integer, the value must
    be integral and is returned as an int."""
    value = section.pop(key)
    if allow_inf and value is None:
        return math.inf
    if isinstance(value, bool):  # float(True) would read as 1.0
        raise ConfigError(f"'{name}.{key}' must be a number, found {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"'{name}.{key}' must be a number, found {value!r}") from exc
    if not (math.isfinite(number) or (allow_inf and number == math.inf)):
        raise ConfigError(f"'{name}.{key}' must be finite, found {value!r}")
    if integer:
        if number != int(number):
            raise ConfigError(
                f"'{name}.{key}' must be an integer, found {value!r}")
        return int(number)
    return number


def _numbers(section: dict, name: str, keys: tuple[str, ...],
             required: tuple[str, ...] = (), allow_inf: tuple[str, ...] = (),
             integers: tuple[str, ...] = ()) -> dict:
    """The numeric keys present in a section, as keyword arguments; an absent
    key keeps the default of the config dataclass. Any key left in the
    section afterwards is unknown."""
    for key in required:
        if key not in section:
            raise ConfigError(f"missing '{name}.{key}'")
    kwargs = {key: _num(section, name, key, key in allow_inf, key in integers)
              for key in keys if key in section}
    _no_leftovers(section, name)
    return kwargs


def _no_leftovers(section: dict, name: str) -> None:
    if section:
        raise ConfigError(f"unknown keys in '{name}': {sorted(section)}")


def _footprint(section: dict, name: str) -> Footprint:
    try:
        return Footprint(**_numbers(section, name,
                                    ("length", "width", "ref_offset"),
                                    required=("length", "width")))
    except ValueError as exc:
        raise ConfigError(f"bad footprint in '{name}': {exc}") from exc


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and validate one scenario file."""
    path = Path(path)
    return parse_scenario(read_raw(path), default_name=path.stem)


def read_raw(path: Path) -> dict:
    """The unvalidated mapping of one scenario file."""
    try:
        raw = yaml.safe_load(path.read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("scenario file must contain a mapping")
    return raw


def parse_scenario(raw: dict, default_name: str = "scenario") -> ScenarioConfig:
    raw = dict(raw)
    version = raw.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, found {version!r}")
    name = str(raw.pop("name", default_name))

    veh = _section(raw, "vehicle", required=True)
    fp = _footprint(_section(veh, "footprint")
                    or {"length": 4.5, "width": 1.8, "ref_offset": 1.35},
                    "vehicle.footprint")
    try:
        vehicle = VehicleParams(**_numbers(
            veh, "vehicle", ("m", "a", "b", "h_cog", "w", "C_f", "C_r",
                             "I_zz", "mu_f", "mu_r", "S_f", "S_r",
                             "delta_max"),
            required=("m", "a", "b", "h_cog", "w", "C_f", "C_r", "I_zz")))
    except ValueError as exc:
        raise ConfigError(f"bad vehicle parameters: {exc}") from exc

    cap = _numbers(_section(raw, "capability"), "capability",
                   ("scenario_id", "t_pb", "a_y_threshold", "rho_dot_max",
                    "v_min"),
                   allow_inf=("a_y_threshold",), integers=("scenario_id",))
    try:
        cap_scenario = CapabilityScenario(cap.pop("scenario_id", 6))
    except ValueError as exc:
        raise ConfigError(f"capability.scenario_id must be 1..6: {exc}") from exc
    try:
        cap_tuning = CapabilityTuning(**cap)
    except ValueError as exc:
        raise ConfigError(f"bad capability tuning: {exc}") from exc

    pl = _section(raw, "planner")
    sides = pl.pop("sides", ["left", "right"])
    if (not isinstance(sides, list) or not sides
            or any(s not in ("left", "right") for s in sides)):
        raise ConfigError("planner.sides must be a non-empty list of left/right")
    pl = _numbers(pl, "planner",
                  ("psi_max", "i_sb", "rho_road", "y_offset", "t_stabilize",
                   "n_paths", "dt_presample", "min_lateral_clearance"),
                  integers=("n_paths",))
    if "n_paths" in pl:
        pl["n_tot"] = pl.pop("n_paths")
    try:
        path_tuning = PathTuning(t_pb=cap_tuning.t_pb, **pl)
    except ValueError as exc:
        raise ConfigError(f"bad planner tuning: {exc}") from exc

    weights = CostWeights(**_numbers(_section(raw, "costs"), "costs",
                                     ("K_ay", "K_ax", "K_prox")))

    try:
        trigger = TriggerConfig(**_numbers(
            _section(raw, "trigger"), "trigger",
            ("t_margin", "t_warning", "tte_reduction", "ttc_horizon")))
    except ValueError as exc:
        raise ConfigError(f"bad trigger config: {exc}") from exc

    ct = _section(raw, "control")
    mode = {}
    if "mode" in ct:
        mode_name = str(ct.pop("mode"))
        if mode_name not in _MODES:
            raise ConfigError(f"control.mode must be one of {sorted(_MODES)}")
        mode["mode"] = _MODES[mode_name]
    try:
        controller = ControllerConfig(**mode, **_numbers(
            ct, "control", ("sigma_1", "sigma_2", "i_f", "i_r",
                            "brake_force_max"),
            allow_inf=("brake_force_max",)))
    except ValueError as exc:
        raise ConfigError(f"bad control config: {exc}") from exc

    road = DriveableSpace(**_numbers(
        _section(raw, "road", required=True), "road",
        ("x_start", "x_end", "y_left", "y_right"),
        required=("x_start", "x_end", "y_left", "y_right")))
    if road.y_left <= road.y_right or road.x_end <= road.x_start:
        raise ConfigError("road bounds are inverted")

    ego = EgoState(**_numbers(_section(raw, "ego", required=True), "ego",
                              ("X", "Y", "psi", "v_x"), required=("v_x",)))
    if ego.v_x <= 0:
        raise ConfigError("ego.v_x must be positive")
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
        label = f"targets[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{label} must be a mapping")
        entry = dict(entry)
        tid = str(entry.pop("id", f"target{i}"))
        if tid in seen:
            raise ConfigError(f"duplicate target id '{tid}'")
        seen.add(tid)
        tfp = _footprint(_section(entry, "footprint", required=True),
                         f"{label}.footprint")
        # a label (vehicle, vru) that scenario files may carry; nothing reads it
        entry.pop("type", None)
        kw = {}
        man = _section(entry, "maneuver")
        if man:
            man = _numbers(man, f"{label}.maneuver", ("time", "speed"),
                           required=("time", "speed"))
            kw.update(maneuver_time=man["time"], maneuver_speed=man["speed"])
        kw.update(_numbers(entry, label,
                           ("X", "Y", "psi", "speed", "appear_time"),
                           required=("X", "Y")))
        pose = Pose(**{k: kw.pop(k) for k in ("X", "Y", "psi") if k in kw})
        targets.append(TargetDef(track_id=tid, footprint=tfp, pose=pose, **kw))

    sim = SimSettings(**_numbers(
        _section(raw, "sim"), "sim",
        ("duration", "dt_plant", "dt_control", "planner_period", "dt_check")))
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
    _no_leftovers(raw, "scenario")

    return ScenarioConfig(
        name=name, vehicle=vehicle, footprint=fp, cap_scenario=cap_scenario,
        cap_tuning=cap_tuning, path_tuning=path_tuning, sides=list(sides),
        weights=weights, trigger=trigger, controller=controller, road=road,
        ego=ego, targets=targets, sim=sim)
