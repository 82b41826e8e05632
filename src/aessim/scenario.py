"""Scenario configuration: schema definition, loading and validation.

A scenario is a single YAML file with an explicit schema_version. All
physical quantities are SI (metres, seconds, radians, newtons). The keys of
a section are the fields of the config dataclass it builds (see _config);
an absent optional key takes the field's default. Every number must be
finite, except `capability.a_y_threshold` and
`control.brake_force_max`, where inf means no limit. A scenario that would
fail or run wrongly because of its settings (non-finite numbers, a scene
larger than MAX_SCENE, a zero check step, a vehicle model unstable at the
initial speed, an evasive path that outlasts the run) is rejected here with
ConfigError rather than mid-run.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from pathlib import Path

import yaml

from .capability import (CapabilityScenario, CapabilityTuning, EgoState,
                         VehicleParams, lateral_capability)
from .control import ControllerConfig
from .decision import TriggerConfig
from .errors import ConfigError, DegenerateSpeed, InfeasibleProfile
from .geometry import DriveableSpace, Footprint, Pose
from .pathgen import PathTuning, build_max_severity_profile
from .plant import DT_MAX, U_FLOOR, assert_stable_vehicle
from .ranking import CostWeights

SCHEMA_VERSION = 1
# Bounds on the work a scenario may ask for. Each planner cycle builds and
# checks every path of a side, a run takes duration / dt_plant plant
# substeps, and a path may last duration + ttc_horizon; beyond these a run
# would not finish in any useful time.
MAX_PATHS_PER_SIDE = 100
MAX_PLANT_SUBSTEPS = 10_000_000
# Bound on the size of a scene: every position [m] and speed [m/s] it sets,
# ego and targets alike, lies within +-MAX_SCENE. A run and its look-ahead
# last at most sim.duration + trigger.ttc_horizon <= MAX_PLANT_SUBSTEPS *
# DT_MAX = 1e5 s, and so does a path (the path-duration check), so every
# position a run reaches or predicts lies within 1e9 + 1e9 * 2e5 = 2e14 m:
# distances stay below 1e15 m, and their sum over a path's at most 1e7
# samples below 1e22, far inside the float range. A target X of 1.7e308 or
# a speed of 1e308 wrote inf to trace.csv and paths.csv.
MAX_SCENE = 1e9


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

    def track_at(self, t: float) -> tuple[float, float, float]:
        """True reference point (X, Y) and speed at simulation time t
        (piecewise constant velocity); the heading is pose.psi throughout."""
        c, s = math.cos(self.pose.psi), math.sin(self.pose.psi)
        if self.maneuver_time is None or t <= self.maneuver_time:
            speed, d = self.speed, self.speed * t
        else:
            speed = self.maneuver_speed
            d = (self.speed * self.maneuver_time
                 + self.maneuver_speed * (t - self.maneuver_time))
        return self.pose.X + d * c, self.pose.Y + d * s, speed


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


def _num(value, label: str, allow_inf: bool = False,
         integer: bool = False) -> float | int:
    """A finite number; with allow_inf, +inf (also written as an empty
    entry) means no limit; with integer, the value must be integral and is
    returned as an int."""
    if allow_inf and value is None:
        return math.inf
    if isinstance(value, bool):  # float(True) would read as 1.0
        raise ConfigError(f"'{label}' must be a number, found {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"'{label}' must be a number, found {value!r}") from exc
    if not (math.isfinite(number) or (allow_inf and number == math.inf)):
        raise ConfigError(f"'{label}' must be finite, found {value!r}")
    if integer:
        if number != int(number):
            raise ConfigError(f"'{label}' must be an integer, found {value!r}")
        return int(number)
    return number


def _str(value, label: str) -> str:
    if not isinstance(value, str):  # str(None) would read as "None"
        raise ConfigError(f"'{label}' must be a string, found {value!r}")
    return value


def _config(cls, section: dict, name: str, skip: tuple[str, ...] = (),
            rename: dict[str, str] | None = None,
            required: tuple[str, ...] = (), **given):
    """The config dataclass cls built from its scenario section.

    Every field of cls not in skip or given is a key, named like the field
    unless rename maps a key to it. A field without a default is required,
    and so is every field in required; an absent key keeps the default. An
    int field takes an integral number, a field whose default is inf also
    takes inf, an Enum field takes the value of a member, and every other
    field takes a finite number. Any other key is unknown. A ValueError
    from cls becomes a ConfigError.
    """
    keys = {f: k for k, f in (rename or {}).items()}
    kwargs = dict(given)
    for f in fields(cls):
        if f.name in skip or f.name in given:
            continue
        key = keys.get(f.name, f.name)
        label = f"{name}.{key}"
        if key not in section:
            if f.name in required or (f.default is MISSING
                                      and f.default_factory is MISSING):
                raise ConfigError(f"missing '{label}'")
            continue
        value = section.pop(key)
        if isinstance(f.default, Enum):
            members = type(f.default)
            try:
                kwargs[f.name] = members(value)
            except ValueError as exc:
                values = sorted(m.value for m in members)
                raise ConfigError(
                    f"'{label}' must be one of {values}") from exc
        else:
            kwargs[f.name] = _num(value, label, allow_inf=f.default == math.inf,
                                  integer=f.type in (int, "int"))
    _no_leftovers(section, name)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad '{name}': {exc}") from exc


def _no_leftovers(section: dict, name: str) -> None:
    if section:
        raise ConfigError(f"unknown keys in '{name}': {sorted(section)}")


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
    if isinstance(version, bool) or version != SCHEMA_VERSION:  # True == 1
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, found {version!r}")
    name = _str(raw.pop("name", default_name), "name")
    # the default output directory is out/<name>
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError(f"name must be one path component, found {name!r}")

    veh = _section(raw, "vehicle", required=True)
    fp = _config(Footprint, _section(veh, "footprint")
                 or {"length": 4.5, "width": 1.8, "ref_offset": 1.35},
                 "vehicle.footprint")
    vehicle = _config(VehicleParams, veh, "vehicle")

    cap = _section(raw, "capability")
    scenario_id = _num(cap.pop("scenario_id", 6), "capability.scenario_id",
                       integer=True)
    try:
        cap_scenario = CapabilityScenario(scenario_id)
    except ValueError as exc:
        raise ConfigError(f"capability.scenario_id must be 1..6: {exc}") from exc
    cap_tuning = _config(CapabilityTuning, cap, "capability")

    pl = _section(raw, "planner")
    sides = pl.pop("sides", ["left", "right"])
    if (not isinstance(sides, list) or not sides
            or any(s not in ("left", "right") for s in sides)
            or len(set(sides)) < len(sides)):
        raise ConfigError(
            "planner.sides must be a non-empty list of distinct left/right")
    path_tuning = _config(PathTuning, pl, "planner",
                          rename={"n_paths": "n_tot"})
    if path_tuning.n_tot > MAX_PATHS_PER_SIDE:
        raise ConfigError(
            f"planner.n_paths must be at most {MAX_PATHS_PER_SIDE}")
    weights = _config(CostWeights, _section(raw, "costs"), "costs")
    trigger = _config(TriggerConfig, _section(raw, "trigger"), "trigger")
    controller = _config(ControllerConfig, _section(raw, "control"), "control")

    road = _config(DriveableSpace, _section(raw, "road", required=True), "road")
    if road.y_left <= road.y_right or road.x_end <= road.x_start:
        raise ConfigError("road bounds are inverted")

    ego = _config(EgoState, _section(raw, "ego", required=True), "ego",
                  skip=("yaw_rate",), required=("v_x",))
    if ego.v_x < U_FLOOR:  # the plant would speed a slower ego up to it
        raise ConfigError(f"ego.v_x must be at least {U_FLOOR} m/s")
    if not -math.pi < ego.psi <= math.pi:  # read against the road
        raise ConfigError(f"ego.psi must lie in (-pi, pi], found {ego.psi!r}")
    try:
        assert_stable_vehicle(vehicle, ego.v_x)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    targets_raw = raw.pop("targets", None)
    if not isinstance(targets_raw, (list, type(None))):
        raise ConfigError(f"targets must be a list, found {targets_raw!r}")
    targets: list[TargetDef] = []
    seen: set[str] = set()
    for i, entry in enumerate(targets_raw or []):
        label = f"targets[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{label} must be a mapping")
        entry = dict(entry)
        tid = _str(entry.pop("id", f"target{i}"), f"{label}.id")
        if any(c in tid for c in ",\n\r"):  # ids name CSV columns
            raise ConfigError(f"{label}.id must not contain ',' or a "
                              f"line break, found {tid!r}")
        if tid in seen:
            raise ConfigError(f"duplicate target id '{tid}'")
        seen.add(tid)
        tfp = _config(Footprint, _section(entry, "footprint", required=True),
                      f"{label}.footprint")
        # a label (vehicle, vru) that scenario files may carry; nothing reads it
        entry.pop("type", None)
        man = _section(entry, "maneuver")
        maneuver = {"maneuver_time": None, "maneuver_speed": None}
        if man:
            for key in ("time", "speed"):
                if key not in man:
                    raise ConfigError(f"missing '{label}.maneuver.{key}'")
                maneuver[f"maneuver_{key}"] = _num(man.pop(key),
                                                   f"{label}.maneuver.{key}")
            _no_leftovers(man, f"{label}.maneuver")
            if maneuver["maneuver_time"] < 0:  # would move the t = 0 pose
                raise ConfigError(f"'{label}.maneuver.time' must be "
                                  f"non-negative")
        pose = _config(Pose, {k: entry.pop(k) for k in ("X", "Y", "psi")
                              if k in entry}, label, required=("X", "Y"))
        targets.append(_config(TargetDef, entry, label, track_id=tid,
                               footprint=tfp, pose=pose, **maneuver))

    sim = _config(SimSettings, _section(raw, "sim"), "sim")
    if sim.duration <= 0 or sim.dt_check <= 0:
        raise ConfigError("sim.duration and sim.dt_check must be positive")
    if not 0.0 < sim.dt_plant <= DT_MAX:
        raise ConfigError(f"sim.dt_plant must lie in (0, {DT_MAX}]")
    # with the path-duration check below, this caps the run and every
    # pre-sampled path at MAX_PLANT_SUBSTEPS plant steps
    if not ((sim.duration + trigger.ttc_horizon) / sim.dt_plant
            <= MAX_PLANT_SUBSTEPS):
        raise ConfigError(f"(sim.duration + trigger.ttc_horizon)/dt_plant "
                          f"must be at most {MAX_PLANT_SUBSTEPS} plant "
                          f"substeps")
    if path_tuning.dt_presample < sim.dt_plant:
        raise ConfigError("planner.dt_presample must be at least sim.dt_plant")
    for coarse, fine, label in ((sim.dt_control, sim.dt_plant, "dt_control/dt_plant"),
                                (sim.planner_period, sim.dt_control,
                                 "planner_period/dt_control"),
                                (sim.duration, sim.dt_control,
                                 "duration/dt_control")):
        # relative: near 1e7 ticks a whole number divides out 2e-9 off
        ratio = coarse / fine
        if (not math.isfinite(ratio) or ratio < 1
                or abs(ratio - round(ratio)) > 1e-9 * ratio):
            raise ConfigError(f"{label} must be an integer multiple")
    _no_leftovers(raw, "scenario")
    scene = [("ego.X", ego.X), ("ego.Y", ego.Y), ("ego.v_x", ego.v_x)]
    for i, td in enumerate(targets):
        label = f"targets[{i}]"
        scene += [(f"{label}.X", td.pose.X), (f"{label}.Y", td.pose.Y),
                  (f"{label}.speed", td.speed)]
        if td.maneuver_speed is not None:
            scene.append((f"{label}.maneuver.speed", td.maneuver_speed))
    for label, value in scene:
        if not abs(value) <= MAX_SCENE:
            raise ConfigError(f"'{label}' must lie within +-{MAX_SCENE:g}, "
                              f"found {value!r}")

    cfg = ScenarioConfig(
        name=name, vehicle=vehicle, footprint=fp, cap_scenario=cap_scenario,
        cap_tuning=cap_tuning, path_tuning=path_tuning, sides=list(sides),
        weights=weights, trigger=trigger, controller=controller, road=road,
        ego=ego, targets=targets, sim=sim)
    _check_path_duration(cfg)
    return cfg


def _check_path_duration(cfg: ScenarioConfig) -> None:
    """Reject a path shape that outlasts the run and its look-ahead.

    The planner pre-samples each path whole, so a tiny planner.i_sb,
    capability.rho_dot_max or capability.a_y_threshold, which stretches the
    profile's ramps, would exhaust memory mid-run. The maximum-severity
    profile is built as the first planner cycle builds it, from the initial
    ego state on each side, and may last at most sim.duration plus
    trigger.ttc_horizon, the span of the run and of its last TTC.
    """
    try:
        cap = lateral_capability(cfg.cap_scenario, cfg.vehicle, cfg.ego.v_x,
                                 cfg.cap_tuning)
    except DegenerateSpeed:
        return  # the planner plans nothing from this state
    limit = cfg.sim.duration + cfg.trigger.ttc_horizon
    for side in cfg.sides:
        try:
            profile = build_max_severity_profile(cfg.ego, cap,
                                                 cfg.path_tuning, side)
        except InfeasibleProfile:
            continue
        if not profile.duration <= limit:
            raise ConfigError(
                f"the {side} evasive path lasts {profile.duration:.4g} s, "
                f"more than sim.duration + trigger.ttc_horizon = "
                f"{limit:.4g} s")
