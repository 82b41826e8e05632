import copy
import importlib
import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest
import yaml
from conftest import perfbench_module

from aessim import cli
from aessim.capability import CapabilityTuning, EgoState, VehicleParams
from aessim.cli import main
from aessim.control import ControllerConfig
from aessim.decision import TriggerConfig
from aessim.errors import (AesError, ConfigError, DegenerateSpeed,
                           InfeasibleProfile, NoFeasiblePath,
                           NumericalDivergence, PathExhausted)
from aessim.geometry import DriveableSpace, Footprint, Pose
from aessim.pathgen import PathTuning
from aessim.ranking import CostWeights
from aessim.scenario import (MAX_PATHS_PER_SIDE, MAX_PLANT_SUBSTEPS,
                             SimSettings, TargetDef, load_scenario,
                             parse_scenario)
from aessim.simloop import EXIT_CODES, RunResult, run_scenario
from aessim.trace import BLOCK_ROWS, TraceLog, _fmt, emit_plot_data

MINIMAL = {
    "schema_version": 1,
    "vehicle": {"m": 2000.0, "a": 1.4, "b": 1.6, "w": 1.6,
                "C_f": 1e5, "C_r": 1e5, "I_zz": 3500.0},
    "road": {"x_start": -10.0, "x_end": 150.0, "y_left": 3.25,
             "y_right": -3.25},
    "ego": {"v_x": 20.0},
    "sim": {"duration": 1.0},
}


def minimal(**overrides):
    raw = json.loads(json.dumps(MINIMAL))
    raw.update(overrides)
    return raw


class TestConfig:
    def test_corpus_files_validate(self, scenario_dir):
        files = sorted(scenario_dir.glob("*.yaml"))
        assert len(files) >= 5
        for f in files:
            cfg = load_scenario(f)
            assert cfg.sim.duration > 0

    def test_minimal_defaults(self):
        cfg = parse_scenario(minimal())
        assert cfg.footprint.length == 4.5
        assert cfg.cap_scenario.value == 6
        assert cfg.controller.sigma_1 == -3.0
        assert cfg.path_tuning.n_tot == 6

    def test_missing_section(self):
        raw = minimal()
        del raw["vehicle"]
        with pytest.raises(ConfigError, match="vehicle"):
            parse_scenario(raw)

    def test_unknown_key_rejected(self):
        raw = minimal()
        raw["vehicle"]["mass"] = 1.0
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_scenario(raw)

    def test_bad_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_scenario(minimal(schema_version=2))
        with pytest.raises(ConfigError, match="schema_version"):
            parse_scenario(minimal(schema_version=True))  # True == 1

    def test_inverted_road(self):
        raw = minimal()
        raw["road"]["y_left"] = -5.0
        with pytest.raises(ConfigError, match="road"):
            parse_scenario(raw)

    def test_duplicate_target_ids(self):
        raw = minimal(targets=[
            {"id": "a", "footprint": {"length": 1, "width": 1}, "X": 5,
             "Y": 0},
            {"id": "a", "footprint": {"length": 1, "width": 1}, "X": 9,
             "Y": 0},
        ])
        with pytest.raises(ConfigError, match="duplicate"):
            parse_scenario(raw)

    @pytest.mark.parametrize("tid", ["car,1", "car\n1", "car\r1", ","])
    def test_target_id_with_csv_separator_rejected(self, tid):
        # ids name trace.csv columns: "car,1" wrote 28 header cells for 25
        # row cells
        target = {"id": tid, "footprint": {"length": 1, "width": 1}, "X": 5,
                  "Y": 0}
        with pytest.raises(ConfigError, match="id"):
            parse_scenario(minimal(targets=[target]))
        target["id"] = "left_car-1 (stalled)"
        parse_scenario(minimal(targets=[target]))

    @pytest.mark.parametrize("name", ["", ".", "..", "/x", "a/b", "a\\b",
                                      "a\0b"])
    def test_name_that_is_not_one_path_component_rejected(self, name):
        # the default output directory is out/<name>: an absolute name
        # wrote outside out/, ".." into the working directory
        with pytest.raises(ConfigError, match="name"):
            parse_scenario(minimal(name=name))
        parse_scenario(minimal(name="crossing_vru-2 (wet)"))

    def test_target_type_ignored_unknown_target_key_rejected(self):
        target = {"id": "a", "footprint": {"length": 1, "width": 1}, "X": 5,
                  "Y": 0, "type": "vru"}
        cfg = parse_scenario(minimal(targets=[target]))
        assert [td.track_id for td in cfg.targets] == ["a"]
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_scenario(minimal(targets=[dict(target, kind="vru")]))

    def test_bad_mode(self):
        raw = minimal(control={"mode": "autopilot"})
        with pytest.raises(ConfigError, match="mode"):
            parse_scenario(raw)

    def test_bad_rate_ratio(self):
        raw = minimal()
        raw["sim"]["dt_control"] = 0.0103
        with pytest.raises(ConfigError, match="integer multiple"):
            parse_scenario(raw)

    def test_target_maneuver_parsing(self, scenario_dir):
        cfg = load_scenario(scenario_dir / "replanning.yaml")
        td = cfg.targets[0]
        assert td.maneuver_time == pytest.approx(3.74)
        assert td.track_at(0.0).speed == 1.0
        assert td.track_at(4.0).speed == pytest.approx(0.1)
        p_before = td.track_at(td.maneuver_time).pose
        p_after = td.track_at(td.maneuver_time + 1.0).pose
        assert p_after.Y - p_before.Y == pytest.approx(0.1, abs=1e-12)


# Settings that used to pass parse_scenario and then fail mid-run or run to a
# wrong result; each must now fail at load. Applied to crossing_vru.
REJECTED_AT_LOAD = {
    "ego_v_x_nan": {"ego": {"v_x": math.nan}},              # LinAlgError
    "vehicle_m_nan": {"vehicle": {"m": math.nan}},          # LinAlgError
    "vehicle_I_zz_inf": {"vehicle": {"I_zz": math.inf}},    # "unstable"
    "sim_dt_check_zero": {"sim": {"dt_check": 0.0}},        # ZeroDivisionError
    "sim_duration_nan": {"sim": {"duration": math.nan}},    # ValueError
    "trigger_t_margin_nan": {"trigger": {"t_margin": math.nan}},  # collided
    # a step beyond the plant's bound: plant_step raised ValueError
    "sim_dt_plant_large": {"sim": {"dt_plant": 0.02, "dt_control": 0.02}},
    # oversteered and beyond its critical speed at the initial speed
    "vehicle_unstable": {"vehicle": {"a": 2.6, "b": 0.4, "C_f": 1.4e5,
                                     "C_r": 6e4}},
    # integer keys: 6.7 planned 6 paths, 4.9 selected STEER (4)
    "planner_n_paths_fraction": {"planner": {"n_paths": 6.7}},
    "capability_scenario_id_fraction": {"capability": {"scenario_id": 4.9}},
    # YAML booleans: float(True) is 1.0, so true planned 1 path and false
    # gave a 0 s engage margin
    "planner_n_paths_bool": {"planner": {"n_paths": True}},
    "trigger_t_margin_bool": {"trigger": {"t_margin": False}},
    # the corridor has no stations; the key is unknown
    "road_station_spacing": {"road": {"station_spacing": 1.0}},
    # pathgen divides by the curvature rate: 0 raised ZeroDivisionError and
    # a negative rate "math domain error" mid-run
    "capability_rho_dot_max_zero": {"capability": {"rho_dot_max": 0.0}},
    "capability_rho_dot_max_negative": {"capability": {"rho_dot_max": -0.1}},
    # the planner took abs(rho_max): -9.6 engaged R2 at 3.24 s as +9.6 does
    "capability_a_y_threshold_negative":
        {"capability": {"a_y_threshold": -9.6}},
    # no look-ahead: the run never engaged and ended collided
    "trigger_ttc_horizon_zero": {"trigger": {"ttc_horizon": 0.0}},
    "trigger_ttc_horizon_negative": {"trigger": {"ttc_horizon": -1.0}},
    # t9 fell before t8 and the run engaged L1 at 3.27 s instead of R2
    "planner_t_stabilize_negative": {"planner": {"t_stabilize": -1.0}},
    # ran as 0: the constant-heading stretch only applies to y_offset > 0
    "planner_y_offset_negative": {"planner": {"y_offset": -1.0}},
    # with road.x_end: 20 the corridor room past the road end is 0, so the
    # family scale and psi_max became 0: "invalid path tuning" mid-run
    "planner_min_lateral_clearance_zero":
        {"planner": {"min_lateral_clearance": 0.0}},
    "planner_min_lateral_clearance_negative":
        {"planner": {"min_lateral_clearance": -0.5}},
    # a 5 s pre-braking phase took the pre-braked speed below zero:
    # "math domain error" mid-run
    "capability_v_min_negative":
        {"capability": {"scenario_id": 3, "t_pb": 5.0, "v_min": -100.0}},
    # below the plant's speed floor: the plant ran the ego at 1.0 m/s
    "ego_v_x_below_plant_floor": {"ego": {"v_x": 0.5}},
    # the stabilisation ramp stretched past 1e8 s: MemoryError mid-run in
    # presample_profile
    "planner_i_sb_tiny": {"planner": {"i_sb": 1e-9}},
    # the 1.84 s path pre-sampled every 1e-9 s: 1.8e9 samples, about 90 GB,
    # per path at the first planner cycle (computed, never run)
    "planner_dt_presample_below_dt_plant": {"planner": {"dt_presample": 1e-9}},
    # each side planned twice, every candidate written twice to paths.csv
    "planner_sides_repeated": {"planner": {"sides": ["left", "left"]}},
    # schedule ratios beyond the float range: OverflowError in the
    # integer-multiple check (validate printed a traceback, exit 1)
    "sim_dt_control_huge": {"sim": {"dt_control": 1e308}},
    "sim_planner_period_huge": {"sim": {"planner_period": 1e308}},
    "sim_dt_plant_subnormal": {"sim": {"dt_plant": 5e-324}},
    # loaded, then run_scenario raised OverflowError computing n_ticks
    "sim_duration_huge": {"sim": {"duration": 1e308}},
    # a**2 and b**2 overflow in the stability check: OverflowError
    "vehicle_a_huge": {"vehicle": {"a": 1e155}},
    "vehicle_b_huge": {"vehicle": {"b": 1e155}},
    # loaded, then the first planner cycle built paths until a 30 s alarm
    "planner_n_paths_huge": {"planner": {"n_paths": 1e308}},
    "planner_n_paths_above_bound":
        {"planner": {"n_paths": MAX_PATHS_PER_SIDE + 1}},
    # loaded (dt_control/dt_plant = 1e298 is integral), then the first tick
    # took 1e298 plant substeps
    "sim_dt_plant_tiny": {"sim": {"dt_plant": 1e-300}},
    "sim_substeps_above_bound":
        {"sim": {"duration": MAX_PLANT_SUBSTEPS * 0.001 + 0.01}},
    # with a 1e-9 stabilisation gain the left evasive path lasted 5.2e8 s,
    # within sim.duration + ttc_horizon, and the first planner cycle would
    # have pre-sampled about 5e10 samples (parsed, never run)
    "trigger_ttc_horizon_huge": {"trigger": {"ttc_horizon": 1e308},
                                 "planner": {"i_sb": 1e-9}},
    # capability planned with |delta_max|, the controller's clamp pinned
    # the steering angle at +0.15 and the run collided
    "vehicle_delta_max_negative": {"vehicle": {"delta_max": -0.15}},
    # -1 N wheel forces in trace.csv, and the run still "avoided"
    "control_brake_force_max_negative": {"control": {"brake_force_max": -1.0}},
    # not a whole number of control ticks: 0.004 s ran one tick (t_end 0)
    # and 8.005 s ran as 8.00 s
    "sim_duration_below_dt_control": {"sim": {"duration": 0.004}},
    "sim_duration_not_whole_ticks": {"sim": {"duration": 8.005}},
    # the CG height fed a load transfer of an acceleration no run sets; the
    # key is unknown
    "vehicle_h_cog": {"vehicle": {"h_cog": 0.55}},
    # the planner reads psi against the road: 2*pi, the pose of psi 0,
    # never engaged and collided, where 0 avoids to the right at 3.24 s
    "ego_psi_two_pi": {"ego": {"psi": 2 * math.pi}, "sim": {"duration": 20.0}},
    # a scene beyond MAX_SCENE: the target's predicted pose overflowed, and
    # inf reached dist_vru, X_vru and Y_vru in trace.csv, or the proximity
    # mean and total in paths.csv (a list updates the targets in order)
    "target_speed_huge": {"targets": [{"speed": 1e308}]},
    "target_maneuver_speed_huge":
        {"targets": [{"maneuver": {"time": 1.0, "speed": 1e308}}]},
    "target_X_huge": {"targets": [{"X": 1.7e308}]},
}


# Values of the wrong YAML type. Each loaded quietly: a falsy
# `targets` as no targets, a null or list `name` as "None" or "['a']" (the
# output directory out/None), a null target id as the track "None", which
# named the dist_None column.
WRONG_TYPE = {
    "targets_false": {"targets": False},
    "targets_zero": {"targets": 0},
    "targets_empty_string": {"targets": ""},
    "targets_empty_mapping": {"targets": {}},
    "name_null": {"name": None},
    "name_list": {"name": ["a"]},
    "target_id_null": {"targets": [{"id": None, "X": 5, "Y": 0,
                                    "footprint": {"length": 1, "width": 1}}]},
}


class TestRejectedAtLoad:
    @staticmethod
    def _raw(scenario_dir, case):
        raw = yaml.safe_load((scenario_dir / "crossing_vru.yaml").read_text())
        for section, values in REJECTED_AT_LOAD[case].items():
            if isinstance(values, list):
                for entry, entry_values in zip(raw[section], values):
                    entry.update(entry_values)
            else:
                raw[section].update(values)
        return raw

    @pytest.mark.parametrize("case", sorted(REJECTED_AT_LOAD))
    def test_parse_raises_config_error(self, scenario_dir, case):
        with pytest.raises(ConfigError):
            parse_scenario(self._raw(scenario_dir, case))

    def test_negative_maneuver_time(self, scenario_dir):
        # -1.0 loaded and placed the pedestrian at Y = -4.9 at t = 0, not
        # at the configured -4.0; the run ended no-trigger, not avoided
        raw = yaml.safe_load((scenario_dir / "replanning.yaml").read_text())
        raw["targets"][0]["maneuver"]["time"] = -1.0
        with pytest.raises(ConfigError, match=r"targets\[0\]\.maneuver\.time"):
            parse_scenario(raw)
        raw["targets"][0]["maneuver"]["time"] = 0.0
        assert parse_scenario(raw).targets[0].maneuver_time == 0.0

    @pytest.mark.parametrize("psi, loads", [(math.pi, True),
                                            (-math.pi, False)])
    def test_ego_psi_range(self, psi, loads):
        raw = minimal(ego={"v_x": 20.0, "psi": psi}, sim={"duration": 4.0})
        if loads:
            assert parse_scenario(raw).ego.psi == psi
        else:
            with pytest.raises(ConfigError, match="ego.psi"):
                parse_scenario(raw)

    @pytest.mark.parametrize("case", sorted(REJECTED_AT_LOAD))
    def test_validate_exits_3(self, scenario_dir, tmp_path, capsys, case):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(self._raw(scenario_dir, case)))
        assert main(["validate", str(path)]) == 3
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(WRONG_TYPE))
    def test_wrong_yaml_type_exits_3(self, tmp_path, capsys, case):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(minimal(**WRONG_TYPE[case])))
        with pytest.raises(ConfigError):
            load_scenario(path)
        assert main(["validate", str(path)]) == 3
        assert "config error" in capsys.readouterr().err

    def test_null_targets_accepted(self):
        assert parse_scenario(minimal(targets=None)).targets == []

    def test_documented_inf_still_accepted(self):
        raw = minimal(capability={"a_y_threshold": "inf"},
                      control={"brake_force_max": math.inf})
        cfg = parse_scenario(raw)
        assert cfg.cap_tuning.a_y_threshold == math.inf
        assert cfg.controller.brake_force_max == math.inf
        raw = minimal(capability={"a_y_threshold": -math.inf})
        with pytest.raises(ConfigError, match="finite"):
            parse_scenario(raw)

    def test_zero_stabilize_and_offset_accepted(self):
        cfg = parse_scenario(minimal(planner={"t_stabilize": 0.0,
                                              "y_offset": 0.0}))
        assert (cfg.path_tuning.t_stabilize, cfg.path_tuning.y_offset) \
            == (0.0, 0.0)

    def test_work_bounds_accepted(self):
        # the run and its last look-ahead take exactly the bound
        cfg = parse_scenario(minimal(
            planner={"n_paths": MAX_PATHS_PER_SIDE},
            trigger={"ttc_horizon": 5.0},
            sim={"duration": MAX_PLANT_SUBSTEPS * 0.001 - 5.0,
                 "dt_plant": 0.001}))
        assert cfg.path_tuning.n_tot == MAX_PATHS_PER_SIDE
        assert ((cfg.sim.duration + cfg.trigger.ttc_horizon)
                / cfg.sim.dt_plant == MAX_PLANT_SUBSTEPS)
        # a whole number of ticks that float division puts 2e-9 off it
        cfg = parse_scenario(minimal(sim={"duration": 9994.996,
                                          "dt_plant": 0.001,
                                          "dt_control": 0.001}))
        assert cfg.sim.duration / cfg.sim.dt_control == 9994995.999999998

    def test_dt_presample_at_dt_plant_accepted(self):
        cfg = parse_scenario(minimal(planner={"dt_presample": 0.001},
                                     sim={"duration": 1.0, "dt_plant": 0.001}))
        assert cfg.path_tuning.dt_presample == cfg.sim.dt_plant == 0.001

    def test_non_number_rejected(self):
        raw = minimal()
        raw["vehicle"]["m"] = [2000.0]
        with pytest.raises(ConfigError, match="vehicle.m"):
            parse_scenario(raw)


def _numeric_keys(node, where=()):
    """Paths to every numeric leaf of a raw scenario mapping, including the
    numbers YAML leaves as strings (1.0e5 has no exponent sign)."""
    items = enumerate(node) if isinstance(node, list) else node.items()
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _numeric_keys(value, where + (key,))
        elif not isinstance(value, bool):
            try:
                float(value)
            except ValueError:
                continue
            yield where + (key,)


class TestExtremeValues:
    EXTREMES = (1e308, -1e308, 1e-300, -1e-300, 5e-324)

    def test_every_numeric_key_loads_or_raises_config_error(self,
                                                             scenario_dir):
        base = yaml.safe_load((scenario_dir / "crossing_vru.yaml").read_text())
        keys = [k for k in _numeric_keys(base) if len(k) > 1]
        assert {("vehicle", "C_f"), ("control", "brake_force_max"),
                ("targets", 0, "footprint", "ref_offset")} <= set(keys)
        assert len(keys) == 60
        failures = []
        for key in keys:
            for value in self.EXTREMES:
                raw = copy.deepcopy(base)
                holder = raw
                for step in key[:-1]:
                    holder = holder[step]
                holder[key[-1]] = value
                try:
                    parse_scenario(raw)
                except ConfigError:
                    pass
                except Exception as exc:  # noqa: BLE001 - collected below
                    failures.append(f"{key}={value!r}: {exc!r}")
        assert not failures

    @pytest.mark.parametrize("dt_check", [1e300, 1e308])
    def test_huge_dt_check_checks_first_and_last_samples(self, scenario_dir,
                                                         dt_check):
        # the stride overflowed mid-run (IndexError at 1e300, OverflowError
        # at 1e308); any stride from a path's sample count up checks the
        # same two samples, so the run matches one with a 1000 s step
        raw = yaml.safe_load((scenario_dir / "crossing_vru.yaml").read_text())
        runs = []
        for value in (1000.0, dt_check):
            raw["sim"]["dt_check"] = value
            runs.append(run_scenario(parse_scenario(raw)))
        assert runs[1].outcome in EXIT_CODES
        assert runs[1].trace.rows == runs[0].trace.rows
        assert runs[1].trace.path_events == runs[0].trace.path_events

    @pytest.mark.parametrize("I_zz", [1e-12, 1e-300])
    def test_tiny_yaw_inertia_aborts_on_divergence(self, scenario_dir, I_zz):
        # at 1e-300 a stage heading overflowed within one substep and
        # math.cos raised "math domain error" mid-run
        raw = yaml.safe_load((scenario_dir / "stalled_car.yaml").read_text())
        raw["vehicle"]["I_zz"] = I_zz
        res = run_scenario(parse_scenario(raw))
        assert res.outcome == "aborted"
        assert res.reason.startswith("plant state out of bounds at t=")


# The schema as an explicit table. Per section (its path in the raw
# mapping): every accepted key with a valid value, the required keys, the
# config dataclasses the section builds, and names that must not be keys.
# A field of those dataclasses that is not an accepted key must be refused
# as unknown, so a new field cannot become a YAML key unnoticed.
SCHEMA = {
    ("vehicle",): (
        {"m": 2000.0, "a": 1.4, "b": 1.6, "w": 1.6,
         "C_f": 1e5, "C_r": 1e5, "I_zz": 3500.0, "mu_f": 1.0, "mu_r": 1.0,
         "S_f": 1.0, "S_r": 1.0, "delta_max": 0.1, "footprint": None},
        {"m", "a", "b", "w", "C_f", "C_r", "I_zz"},
        (VehicleParams,), {"g"}),
    ("vehicle", "footprint"): (
        {"length": 4.5, "width": 1.8, "ref_offset": 1.35},
        {"length", "width"}, (Footprint,), set()),
    ("capability",): (
        {"scenario_id": 6, "t_pb": 0.0, "a_y_threshold": "inf",
         "rho_dot_max": 0.2, "v_min": 1.0},
        set(), (CapabilityTuning,), set()),
    ("planner",): (
        {"sides": ["left", "right"], "psi_max": 0.2, "i_sb": 0.8,
         "rho_road": 0.0, "y_offset": 0.0, "t_stabilize": 0.5, "n_paths": 6,
         "dt_presample": 0.01, "min_lateral_clearance": 1.0},
        set(), (PathTuning,), {"n_tot", "t_pb"}),
    ("costs",): (
        {"K_ay": 1.0, "K_ax": 1.0, "K_prox": 0.0},
        set(), (CostWeights,), set()),
    ("trigger",): (
        {"t_margin": 0.15, "t_warning": 0.3, "tte_reduction": 0.0,
         "ttc_horizon": 5.0},
        set(), (TriggerConfig,), set()),
    ("control",): (
        {"mode": "combined", "sigma_1": -3.0, "sigma_2": -3.0, "i_f": 0.7,
         "i_r": 0.3, "brake_force_max": "inf"},
        set(), (ControllerConfig,), {"u_min"}),
    ("road",): (
        {"x_start": -10.0, "x_end": 150.0, "y_left": 3.25, "y_right": -3.25},
        {"x_start", "x_end", "y_left", "y_right"}, (DriveableSpace,), set()),
    ("ego",): (
        {"X": 0.0, "Y": 0.0, "psi": 0.0, "v_x": 20.0},
        {"v_x"}, (EgoState,), {"a_x", "yaw_rate"}),
    ("sim",): (
        {"duration": 1.0, "dt_plant": 0.001, "dt_control": 0.01,
         "planner_period": 0.1, "dt_check": 0.1},
        set(), (SimSettings,), set()),
    ("targets", 0): (
        {"id": "a", "type": "vru", "footprint": None, "maneuver": None,
         "X": 40.0, "Y": 0.0, "psi": 0.0, "speed": 1.0, "appear_time": 0.0},
        {"footprint", "X", "Y"}, (TargetDef, Pose), {"maneuver_time"}),
    ("targets", 0, "footprint"): (
        {"length": 0.5, "width": 0.5, "ref_offset": 0.0},
        {"length", "width"}, (Footprint,), set()),
    ("targets", 0, "maneuver"): (
        {"time": 0.5, "speed": 0.0}, {"time", "speed"}, (), set()),
}


def _schema_raw(path=None, key=None, value=None, drop=False):
    """A scenario holding every accepted key of SCHEMA; with path and key,
    that key dropped or set to value."""
    def at(where):
        holder = raw
        for step in where:
            holder = holder[step]
        return holder

    raw = {"schema_version": 1, "targets": [None]}
    for where, (accepted, *_) in SCHEMA.items():
        at(where[:-1])[where[-1]] = dict(accepted)
    if drop:
        del at(path)[key]
    elif path is not None:
        at(path)[key] = value
    return raw


class TestSchemaTable:
    def test_every_accepted_key_loads(self):
        cfg = parse_scenario(_schema_raw())
        assert cfg.targets[0].maneuver_time == 0.5

    @pytest.mark.parametrize("path", list(SCHEMA), ids=str)
    def test_required_keys(self, path):
        accepted, required, _, _ = SCHEMA[path]
        for key in accepted:
            raw = _schema_raw(path, key, drop=True)
            if key in required:
                with pytest.raises(ConfigError, match="missing"):
                    parse_scenario(raw)
            else:
                parse_scenario(raw)

    @pytest.mark.parametrize("path", list(SCHEMA), ids=str)
    def test_other_names_are_unknown_keys(self, path):
        accepted, _, classes, not_keys = SCHEMA[path]
        names = {f.name for cls in classes for f in fields(cls)} | not_keys
        assert not_keys.isdisjoint(accepted)
        for name in sorted(names - set(accepted)):
            with pytest.raises(ConfigError, match="unknown keys"):
                parse_scenario(_schema_raw(path, name, 1.0))


@pytest.fixture(scope="module")
def crossing_run(scenario_dir):
    return run_scenario(load_scenario(scenario_dir / "crossing_vru.yaml"))


class TestRunContracts:
    def test_no_target_run_stays_in_standby(self, scenario_dir):
        res = run_scenario(load_scenario(scenario_dir / "empty_road.yaml"))
        assert res.outcome == "no-trigger"
        states = {row[res.trace.columns.index("state")]
                  for row in res.trace.rows}
        assert states == {"standby"}

    def test_rate_contract(self, crossing_run):
        res = crossing_run
        t = [row[res.trace.columns.index("t")] for row in res.trace.rows]
        assert np.allclose(np.diff(t), 0.01)
        cycle_times = sorted({ev[0] for ev in res.trace.path_events
                              if ev[1] == "plan"})
        for ct in cycle_times:
            assert (round(ct / 0.1) * 0.1) == pytest.approx(ct, abs=1e-9)
        engage_plans = sorted({ev[0] for ev in res.trace.path_events
                               if ev[1] == "engage_plan"})
        assert engage_plans == [res.summary["engage_time"]]

    def test_engage_preceded_by_warning(self, crossing_run):
        istate = crossing_run.trace.columns.index("state")
        states = [row[istate] for row in crossing_run.trace.rows]
        first_reg = states.index("in_regulation")
        assert states[first_reg - 1] == "warning"
        assert "monitoring" in states[:first_reg]

    def test_engage_guard_identity(self, crossing_run):
        s = crossing_run.summary
        assert s["engage_tte"] <= s["engage_ttc"] \
            <= s["engage_tte"] + s["t_margin"]

    def test_ttc_strictly_decreasing_until_engagement(self, crossing_run):
        tr = crossing_run.trace
        ittc = tr.columns.index("ttc")
        ttcs = [row[ittc] for row in tr.rows if row[ittc] is not None]
        assert len(ttcs) > 50
        assert all(b < a for a, b in zip(ttcs, ttcs[1:]))

    def test_right_survivor_exists_at_engage(self, crossing_run):
        t_eng = crossing_run.summary["engage_time"]
        rows = [ev for ev in crossing_run.trace.path_events
                if ev[0] == t_eng and ev[2] == "right"
                and ev[5] == "survivor"]
        assert rows

    def test_min_distance_counts_from_appearance(self, scenario_dir):
        """A static target that appears long after the ego passed its spot
        was never near: min_distance covers only the ticks it is there."""
        raw = yaml.safe_load((scenario_dir / "crossing_vru.yaml").read_text())
        raw["targets"][0].update(X=40.0, Y=0.0, speed=0.0, appear_time=6.0)
        res = run_scenario(parse_scenario(raw))
        assert res.outcome == "no-trigger"
        it, idist = (res.trace.columns.index(c) for c in ("t", "dist_vru"))
        present = [row[idist] for row in res.trace.rows if row[it] >= 6.0]
        assert len(present) == 201
        assert res.summary["min_distance"]["vru"] == min(present) > 50.0

    def test_contact_on_the_appear_tick(self, scenario_dir):
        """A static target that appears on top of the ego collides on its
        first tick: one tick earlier it is 0.2 m ahead yet not there."""
        raw = yaml.safe_load((scenario_dir / "crossing_vru.yaml").read_text())
        raw["targets"][0].update(X=21.35, Y=0.0, speed=0.0, appear_time=1.0)
        res = run_scenario(parse_scenario(raw))
        assert res.outcome == "collided"
        assert res.summary["t_end"] == pytest.approx(1.0)
        it, idist = (res.trace.columns.index(c) for c in ("t", "dist_vru"))
        assert res.trace.rows[-1][it] == pytest.approx(1.0)
        assert res.trace.rows[-2][idist] == pytest.approx(0.2)

    def test_engage_distances_list_only_present_targets(self, scenario_dir):
        """A target that appears after the engage tick has no engage
        distance, as it has no min_distance."""
        raw = yaml.safe_load((scenario_dir / "crossing_vru.yaml").read_text())
        raw["targets"].append(dict(
            raw["targets"][0], id="late", X=150.0, Y=-4.0, psi=0.0,
            speed=0.0, appear_time=7.0))
        res = run_scenario(parse_scenario(raw))
        assert res.summary["engage_time"] < 7.0
        assert res.summary["min_distance"]["late"] is None
        assert list(res.summary["engage_distances"]) == ["vru"]

    def test_narrowed_space_fails(self, scenario_dir):
        res = run_scenario(load_scenario(scenario_dir / "blocked_lane.yaml"))
        assert res.outcome in ("collided", "aborted")
        assert res.exit_code in (1, 2)


class TestTraceAndPlots:
    def test_written_files_roundtrip(self, scenario_dir, tmp_path):
        res = run_scenario(load_scenario(scenario_dir / "empty_road.yaml"))
        files = res.trace.write(tmp_path)
        assert files["trace"].exists()
        header = files["trace"].read_text().splitlines()[0].split(",")
        assert header[:2] == ["t", "state"]
        summary = json.loads(files["summary"].read_text())
        assert summary["outcome"] == "no-trigger"

    def test_minimal_trace_plot_row_counts(self, tmp_path):
        trace = TraceLog(["tgt"])
        for k in range(2):
            trace.rows.append([0.01 * k, "standby", 0.0, 0.0, 0.0, 20.0,
                               0.0, 0.0, 0.0, False, None, None, "none", None,
                               None, None, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0,
                               10.0, 0.0])
        files = emit_plot_data(trace, tmp_path)
        assert len(files) == 3
        ts = files["timeseries"].read_text().splitlines()
        act = files["actuation"].read_text().splitlines()
        assert len(ts) == 3 and len(act) == 3  # header + two rows
        planar = files["planar"].read_text().splitlines()
        assert sum(1 for line in planar if line.startswith("ego,")) == 2
        assert sum(1 for line in planar if line.startswith("target,")) == 2

    def test_artefacts_created_anew(self, scenario_dir, crossing_run,
                                    tmp_path):
        # each artefact used to be truncated and rewritten in place, which
        # on ext4 waits for the writeback of the old bytes
        def write(trace, out_dir):
            return {**trace.write(out_dir), **emit_plot_data(trace, out_dir)}

        first = write(crossing_run.trace, tmp_path / "out")
        assert len(first) == 6
        links = {}
        for name, path in first.items():
            links[name] = tmp_path / f"link_{name}"
            os.link(path, links[name])
        first_bytes = {name: p.read_bytes() for name, p in first.items()}
        other = run_scenario(load_scenario(scenario_dir / "empty_road.yaml"))
        second = write(other.trace, tmp_path / "out")
        fresh = write(other.trace, tmp_path / "fresh")
        for name, path in second.items():
            assert links[name].read_bytes() == first_bytes[name], name
            assert path.read_bytes() == fresh[name].read_bytes(), name
            assert path.read_bytes() != first_bytes[name], name

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(AesError):
            emit_plot_data(TraceLog([]), tmp_path)

    def test_planar_contains_candidate_categories(self, crossing_run,
                                                  tmp_path):
        res = crossing_run
        files = emit_plot_data(res.trace, tmp_path)
        series = {line.split(",")[0]
                  for line in files["planar"].read_text().splitlines()[1:]}
        assert "ego" in series and "target" in series
        assert "path_selected" in series
        assert any(s.startswith("path_") and s != "path_selected"
                   for s in series)


NAN = float("nan")
INF = float("inf")
# makers of one column of n cells, cycled over the trace's columns and,
# from a shift, over the fewer columns of the paths
COLUMN_CASES = [
    lambda n: [-0.0] * n,
    lambda n: [-0.0 if k else 0.0 for k in range(n)],
    lambda n: [0.0 if k else -0.0 for k in range(n)],
    lambda n: [None] * n,
    lambda n: [None if k % 2 else 0.1 * k for k in range(n)],
    lambda n: [INF] * n,
    lambda n: [-INF if k % 2 else INF for k in range(n)],
    lambda n: [NAN] * n,
    lambda n: [-NAN if k % 2 else NAN for k in range(n)],
    lambda n: [k % 3 == 0 for k in range(n)],
    lambda n: [False] * n,
    lambda n: ["standby"] * n,
    lambda n: ["monitoring" if k % 2 else "warning" for k in range(n)],
    lambda n: [0.1] * n,
    lambda n: [1e-300 * k + 1e22 for k in range(n)],
    lambda n: [np.float64(0.1 * k) if k % 2 else 0.1 * k for k in range(n)],
    lambda n: [k for k in range(n)],
    lambda n: [10**12] * n,
    lambda n: [1.0 if k % 2 else 1 for k in range(n)],
]


def _rowwise_csv(header, rows):
    """The reference: every cell through `_fmt` on its own."""
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row)
                                   for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _case_rows(n_cols, n_rows, shift):
    cols = [COLUMN_CASES[(j + shift) % len(COLUMN_CASES)](n_rows)
            for j in range(n_cols)]
    return [list(row) for row in zip(*cols)]


class TestColumnFormatter:
    """`TraceLog.write` formats column by column, a block of rows at a
    time; its bytes must be those of `_fmt` applied cell by cell."""

    @pytest.mark.parametrize("n_rows", [0, 1, 2, 5, 2 * BLOCK_ROWS + 3])
    @pytest.mark.parametrize("shift", [0, len(TraceLog.PATH_COLUMNS)])
    def test_bytes_match_rowwise_fmt(self, tmp_path, n_rows, shift):
        trace = TraceLog(["a", "b"])
        for row in _case_rows(len(trace.columns), n_rows, shift):
            trace.rows.append(row)
        trace.path_events = _case_rows(len(TraceLog.PATH_COLUMNS), n_rows,
                                       shift)
        files = trace.write(tmp_path)
        assert files["trace"].read_bytes() == _rowwise_csv(trace.columns,
                                                           trace.rows)
        assert files["paths"].read_bytes() == _rowwise_csv(
            TraceLog.PATH_COLUMNS, trace.path_events)

    def test_paths_index_column(self, tmp_path):
        trace = TraceLog([])
        for k in range(3):
            trace.path_events.append([0.5, "plan", "left", k, k + 1,
                                      "survivor", -0.0 if k else 0.0, None,
                                      NAN, INF])
        trace.path_events.append([0.6, "plan", "right", 0, 4, "collision",
                                  None, None, None, None])
        text = trace.write(tmp_path)["paths"].read_bytes()
        assert text == _rowwise_csv(TraceLog.PATH_COLUMNS, trace.path_events)
        assert text.splitlines()[1:] == [
            b"0.5,plan,left,0,1,survivor,0,,nan,inf",
            b"0.5,plan,left,1,2,survivor,-0,,nan,inf",
            b"0.5,plan,left,2,3,survivor,-0,,nan,inf",
            b"0.6,plan,right,0,4,collision,,,,"]

    @pytest.mark.parametrize("n_full", [0, 1, 3, BLOCK_ROWS + 1])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_row_of_wrong_length_raises(self, tmp_path, n_full, extra):
        trace = TraceLog(["a"])
        for _ in range(n_full):
            trace.rows.append([0.0] * len(trace.columns))
        trace.rows.append([0.0] * (len(trace.columns) + extra))
        with pytest.raises(ValueError):
            trace.write(tmp_path)


def _paths_csv(cfg, out_dir):
    files = run_scenario(cfg).trace.write(out_dir)
    return files["paths"].read_text()


class TestCli:
    def test_validate_ok(self, scenario_dir, capsys):
        rc = main(["validate", str(scenario_dir / "crossing_vru.yaml")])
        assert rc == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("schema_version: 9\n")
        assert main(["validate", str(bad)]) == 3

    def test_run_writes_outputs(self, scenario_dir, tmp_path, capsys):
        rc = main(["run", str(scenario_dir / "empty_road.yaml"),
                   "--out", str(tmp_path), "--plot"])
        assert rc == 0
        for name in ("trace.csv", "paths.csv", "summary.json", "planar.csv",
                     "timeseries.csv", "actuation.csv"):
            assert (tmp_path / name).exists()

    def test_run_exit_code_collided(self, scenario_dir, tmp_path):
        rc = main(["run", str(scenario_dir / "blocked_lane.yaml"),
                   "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("command", [
        ["run"], ["sweep", "--param", "trigger.tte_reduction", "--values",
                  "0.5", "0.8"]])
    def test_out_that_cannot_be_a_directory(self, scenario_dir, tmp_path,
                                            monkeypatch, capsys, command):
        # used to run the whole scenario first, then die in TraceLog.write
        # with a FileExistsError traceback and exit 1, as if it collided
        in_the_way = tmp_path / "file"
        in_the_way.write_text("")
        runs = []
        monkeypatch.setattr(cli, "run_scenario", runs.append)
        rc = main([command[0], str(scenario_dir / "crossing_vru.yaml"),
                   *command[1:], "--out", str(in_the_way)])
        assert rc == 3
        assert "cannot write to" in capsys.readouterr().err
        assert runs == []

    @pytest.mark.parametrize("in_the_way,plot", [("trace.csv", []),
                                                 ("planar.csv", ["--plot"])])
    def test_run_artefact_that_cannot_be_written(self, scenario_dir,
                                                 tmp_path, capsys,
                                                 in_the_way, plot):
        # used to end in an IsADirectoryError traceback after the run
        (tmp_path / in_the_way).mkdir()
        rc = main(["run", str(scenario_dir / "empty_road.yaml"),
                   "--out", str(tmp_path), *plot])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: cannot write to {tmp_path}")

    def test_sweep_artefact_that_cannot_be_written(self, scenario_dir,
                                                   tmp_path, capsys):
        (tmp_path / "0.8" / "summary.json").mkdir(parents=True)
        rc = main(["sweep", str(scenario_dir / "empty_road.yaml"),
                   "--param", "trigger.tte_reduction",
                   "--values", "0.5", "0.8", "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: cannot write to "
                                 f"{tmp_path / '0.8'}")
        assert (tmp_path / "0.5" / "summary.json").is_file()

    def test_sweep(self, scenario_dir, tmp_path, capsys):
        rc = main(["sweep", str(scenario_dir / "empty_road.yaml"),
                   "--param", "trigger.tte_reduction",
                   "--values", "0.5", "0.8", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.5" in out and "0.8" in out
        assert (tmp_path / "0.5" / "summary.json").exists()

    def test_sweep_unknown_param(self, scenario_dir):
        rc = main(["sweep", str(scenario_dir / "empty_road.yaml"),
                   "--param", "trigger.nonsense", "--values", "1.0"])
        assert rc == 3

    def test_sweep_validates_values(self, scenario_dir, tmp_path, capsys):
        # used to end in a ZeroDivisionError traceback mid-run
        rc = main(["sweep", str(scenario_dir / "crossing_vru.yaml"),
                   "--param", "sim.dt_check", "--values", "0",
                   "--out", str(tmp_path)])
        assert rc == 3
        assert "config error" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("values", [["0.8500001", "0.8500004"],
                                        ["0.5", "0.50"]])
    def test_sweep_refuses_values_with_one_label(self, scenario_dir, tmp_path,
                                                 capsys, values):
        # the second run used to overwrite the first's <out>/0.85, exit 0
        rc = main(["sweep", str(scenario_dir / "empty_road.yaml"),
                   "--param", "trigger.tte_reduction", "--values", *values,
                   "--out", str(tmp_path)])
        assert rc == 3
        assert "output label" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_sweep_takes_yaml_key_names(self, scenario_dir, tmp_path,
                                        capsys):
        # the YAML key n_paths used to be refused, the field name n_tot
        # accepted and then failed with a TypeError
        rc = main(["sweep", str(scenario_dir / "crossing_vru.yaml"),
                   "--param", "planner.n_paths", "--values", "3",
                   "--out", str(tmp_path)])
        assert rc == 0
        paths = (tmp_path / "3" / "paths.csv").read_text().splitlines()
        assert {line.split(",")[3] for line in paths[1:]} == {"1", "2", "3"}
        assert main(["sweep", str(scenario_dir / "crossing_vru.yaml"),
                     "--param", "planner.n_tot", "--values", "3"]) == 3

    def test_sweep_prebraking_time_reaches_planner(self, scenario_dir,
                                                   tmp_path, capsys):
        # sweeping capability.t_pb used to leave the planner's t_pb at 0
        raw = yaml.safe_load((scenario_dir / "crossing_vru.yaml").read_text())
        raw["capability"]["scenario_id"] = 3   # brake and steer
        path = tmp_path / "prebrake.yaml"
        path.write_text(yaml.safe_dump(raw))
        rc = main(["sweep", str(path), "--param", "capability.t_pb",
                   "--values", "0.3", "--out", str(tmp_path / "out")])
        assert rc in (0, 1, 2)
        want = parse_scenario({**raw, "capability": {**raw["capability"],
                                                     "t_pb": 0.3}})
        assert want.cap_tuning.t_pb == 0.3
        swept = (tmp_path / "out" / "0.3" / "paths.csv").read_text()
        assert swept == _paths_csv(want, tmp_path / "want")


class TestInRunErrors:
    """No AesError escapes run_scenario: an error raised mid-run at the
    binding that raises it in production ends in a RunResult whose outcome
    has an exit code."""

    @pytest.mark.parametrize("site, error", [
        ("simloop.plant_step", NumericalDivergence),
        ("simloop.lateral_capability", DegenerateSpeed),
        ("simloop.generate_path_set", NoFeasiblePath),
        ("simloop.tracking_errors", PathExhausted),
        ("pathgen.build_max_severity_profile", InfeasibleProfile),
    ])
    def test_error_ends_in_an_outcome(self, scenario_dir, monkeypatch, site,
                                      error):
        cfg = load_scenario(scenario_dir / "crossing_vru.yaml")
        module, name = site.split(".")
        owner = importlib.import_module(f"aessim.{module}")
        original = getattr(owner, name)
        calls = []

        def failing(*args, **kwargs):
            # the first two calls run, so the error comes mid-run
            calls.append(args)
            if len(calls) <= 2:
                return original(*args, **kwargs)
            exc = error(f"injected into {site}")
            if error is NumericalDivergence:
                exc.state = args[0]   # the plant state that stayed in bounds
            raise exc

        monkeypatch.setattr(owner, name, failing)
        result = run_scenario(cfg)
        assert len(calls) > 2
        assert isinstance(result, RunResult)
        assert result.outcome in EXIT_CODES
        assert result.summary["outcome"] == result.outcome


@pytest.fixture(scope="module")
def bench_workloads(scenario_dir):
    """The benchmark's case generator, perfbench/workloads.py."""
    return perfbench_module(scenario_dir, "workloads")


class TestBenchmarkInputs:
    """Every case the benchmark generates must stay a valid scenario: the
    encounter and traffic cases start from the shipped YAML files, so a key
    removed from the schema but left in a shipped file fails every run."""

    @pytest.mark.parametrize("seed", [1, 1009])
    @pytest.mark.parametrize("workload", ["encounter", "traffic", "cruise"])
    def test_generated_cases_parse(self, scenario_dir, bench_workloads,
                                   workload, seed):
        cases = bench_workloads.generate(workload, seed, scenario_dir)
        assert cases
        for case in cases:
            assert parse_scenario(case.raw).name == case.name

    def test_tracer_hooks_reach_the_layers(self, scenario_dir, tmp_path):
        """perfbench/tracer.py wraps layer functions by module and name; a
        renamed or bypassed function would leave its per-layer metrics at
        zero, so every span must be entered by a shipped run."""
        from aessim import scenario, simloop
        tracer = perfbench_module(scenario_dir, "tracer")
        rec = tracer.Recorder(tracer.binding_sites())
        with rec.installed():
            cfg = scenario.load_scenario(scenario_dir / "crossing_vru.yaml")
            simloop.run_scenario(cfg).trace.write(tmp_path)
        for mod, name in tracer.TIMED:
            assert rec.stats[f"{mod}.{name}"].calls > 0, f"{mod}.{name}"
        assert rec.stats["trace.write"].calls == 1

    def test_layer_call_counts(self, scenario_dir):
        """Every layer is called as often as LAYER_CALLS records, through
        the bindings that perfbench/tracer.py wraps: a layer call moved to
        a site the tracer does not reach reads as a lower count here."""
        tracer = perfbench_module(scenario_dir, "tracer")
        configs = {name: load_scenario(scenario_dir / f"{name}.yaml")
                   for name in ("blocked_lane", "crossing_vru", "empty_road",
                                "replanning", "stalled_car")}
        for stop_time in (3.55, 3.81):
            raw = yaml.safe_load(
                (scenario_dir / "replanning.yaml").read_text())
            raw["targets"][0]["maneuver"]["time"] = stop_time
            configs[f"replanning@{stop_time}"] = parse_scenario(
                raw, default_name="replanning")
        got = {}
        for name, cfg in configs.items():
            rec = tracer.Recorder(tracer.binding_sites())
            with rec.installed():
                run_scenario(cfg)
            got[name] = tuple(rec.stats[key].calls for key in LAYERS)
        assert got == LAYER_CALLS


# Per-layer call counts of the shipped scenarios and the two replanning
# branches of tests/test_golden.py (the pedestrian stops at 3.55 or 3.81 s)
# ranking.rank_paths runs once per planner cycle, on the union of its sides,
# so its count is the capability.lateral_capability count.
LAYERS = ("capability.lateral_capability", "pathgen.generate_path_set",
          "ranking.rank_paths", "ranking.select_path",
          "ranking.monitor_selected", "geometry.driveable_area_check",
          "geometry.collision_check", "geometry.sat_check",
          "decision.compute_ttc", "decision.compute_tte",
          "decision.evaluate_triggers", "decision.step_state_machine",
          "control.path_to_vehicle_frame", "control.tracking_errors",
          "control.control_step", "plant.plant_step",
          "plant.lateral_acceleration")
LAYER_CALLS = {
    "blocked_lane": (38, 76, 38, 0, 0, 456, 0, 2, 381, 0, 0, 382, 0, 0, 0,
                     381, 382),
    "crossing_vru": (33, 66, 33, 1, 18, 414, 18, 25, 324, 33, 316, 503, 178,
                     178, 178, 502, 503),
    "empty_road": (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 301, 0, 0, 0, 300, 301),
    "replanning": (34, 67, 34, 2, 19, 418, 19, 24, 324, 33, 316, 519, 194,
                   194, 194, 518, 519),
    "stalled_car": (28, 56, 28, 1, 21, 357, 21, 21, 271, 28, 263, 485, 213,
                    213, 213, 484, 485),
    "replanning@3.55": (34, 67, 34, 2, 7, 408, 7, 14, 324, 33, 316, 395, 71,
                        71, 71, 394, 395),
    "replanning@3.81": (34, 67, 34, 1, 7, 407, 7, 10, 324, 33, 316, 391, 66,
                        66, 66, 390, 391),
}
