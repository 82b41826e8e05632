"""Golden artefact digests and outcomes of the five shipped scenarios.

Speed work must not change what a run writes: `trace.csv`, `paths.csv` and
`summary.json` of every shipped scenario must stay byte-identical. The
digests hold on x86-64 Linux with Python 3.11 and numpy 2.4; another libm or
numpy build may round differently and then fails here without any change to
the code.

A change that alters behaviour on purpose must update these digests and say
in CHANGES.md why the artefacts moved. Each run also pins its decision,
`(outcome, reason, engage_time, engage_path_id)`, as plain values: these
show that a re-recorded digest moved no decision.

The digests were last re-recorded when the no-action TTC became closed
form. The contact-time bisection it replaced returned the late end of a
1e-9 s bracket, so the `ttc` column of `trace.csv` and `engage_ttc` in
`summary.json` moved by at most 1e-9 s; `paths.csv` and every other field
stayed byte-identical, and so did every pinned decision. Only the digests
that moved were re-recorded.

The shipped runs last at most a few seconds. `LONG_RUN` adds shipped
`empty_road` at a non-default speed for 30 s (30 000 RK4 substeps), long
enough for a one-ulp drift in the plant's integration to reach `X`.
`HEADING_RUN` drives the same road for 30 s with a small initial heading.
On a straight heading every RK4 stage derivative of `X` is the same `u`,
so any order of the X-stage sum rounds alike; with a heading the stages
differ, and summing them as `x1 + x4 + 2*x2 + 2*x3` moves its `exact`
digest while `LONG_RUN` and every shipped run hold.

The CSV files print floats with 10 significant digits, so a change in the
last bits of a value can leave them byte-identical. Each run therefore also
pins `exact`, a digest of the in-memory trace rows and path events with
every float at full precision (`float.hex`). A reordered sum in the plant's
RK4 step (the Y stages summed as `y1 + y4 + 2*y2 + 2*y3`) moves it on
`crossing_vru`, `stalled_car`, `replanning` and both `REPLAN_RUNS`, while
every CSV digest holds.

`REPLAN_RUNS` move the stop of shipped `replanning`'s pedestrian, so that
the loop reaches two branches no shipped scenario does: at 3.81 s the
replan selects no path and the run aborts; at 3.55 s the run replans once
and still ends in contact.

`DIVERGENCE_RUN` gives shipped `stalled_car` a yaw inertia so small that
the plant leaves its bounds on the third substep of a tick. The run must
end at the last substep that stayed in bounds, so `t_end` lies inside the
tick; a plant that rolled back to the start of the tick would end 2 ms
earlier and move the `summary` digest.

A run keeps the last origin-relative path family per side in a memo of its
own, which `simloop.plan_cycle` passes to `generate_path_set`. The shipped
and replanning runs are repeated with a fresh memo passed to every
`generate_path_set` call and must hit the same digests.

A candidate is a kept family path plus the cycle's start point (X, Y), and
the driveable check decides it from the family path's corner box: each
corner is formed on the family path's samples and translated by (X, Y)
last, and rounding to nearest is monotone, so the shifted box gives the
per-corner answer exactly. The shipped and replanning runs are repeated
with every check compared with the per-sample reference, corners translated
last, and must reach ranked candidates.

A planner cycle predicts the targets once, on the set's shared time grid,
and a family path keeps its check instants in its memo. The shipped runs
whose candidates reach the collision check, and `TRAFFIC_RUN`, are repeated
with every collision check and proximity cost compared with the per-target
references (verdicts, the monitor's report counters and `float.hex`), and
must serve ranked candidates' checks from the memo. `TRAFFIC_RUN` is the
only run with more than one target; its digests were recorded before the
shared prediction.

`MIXED_TRAFFIC` is a second monitoring-only scene with three targets,
written out in full: its targets' headings are off the road's axis and
their footprint centres off their reference points, so the loop's per-run
target constants (each centre's offset, from the heading's cos and sin, and
each contact radius) and the shared prediction work on values that are not
0. Its digests
were recorded before the loop formed those constants once per run.

A planner cycle ranks the union of its sides in one call. Every cycle of
the shipped and replanning runs, and of the first seed-1 `traffic` case of
the benchmark, must rank as its sides ranked one at a time do.
"""
import copy
import hashlib

import pytest
import yaml
from conftest import (perfbench_module, reference_collision_check,
                      reference_driveable,
                      reference_proximity_cost)

from aessim import ranking, simloop
from aessim.geometry import TargetTrack
from aessim.pathgen import generate_path_set
from aessim.scenario import load_scenario, parse_scenario
from aessim.ranking import rank_paths
from aessim.simloop import PlanCycle, plan_cycle, run_scenario

GOLDEN = {
    "blocked_lane": {
        "outcome": ("collided", "contact with vru", None, None),
        "digests": {
            "trace": "8dc66d64a56f911509df20d7bc5a7aaddc6947f03343c91b7441de419504ce31",
            "paths": "c1d4039c8770e3f24b05d309faf646a49d234d6f3ba129e63fc9eec2c5ecea00",
            "summary": "ce5be353ad5887c4b3b121e593d31c08dc092b53b554aa3e54d9a365799e344f",
            "exact": "2190e121a4ed14f02a83dfebcfdb39bc23cb6ec83d1a09670cbdbc154d42797f",
        },
    },
    "crossing_vru": {
        "outcome": ("avoided", "manoeuvre completed", 3.24, "R2"),
        "digests": {
            "trace": "7ce6d520892771979d3639fe057a8954d636f08ffbffdeaaf68ceb03823f2077",
            "paths": "064687295ac429b3c9f3358c782b70b69ddc1a1a3e8a456c726be1746dc11e85",
            "summary": "ba4e61fc61e9638a00d977fb8d8f04d448fe84e02007c977a127e96fa50dd14f",
            "exact": "56d7c765dafa08a0aa421e57368eabace7c28e66a3ef6c1b516314aad53d2ed7",
        },
    },
    "empty_road": {
        "outcome": ("no-trigger", "duration reached", None, None),
        "digests": {
            "trace": "473d98ce7a3ae0cc7ea399ae8bbb2ffb12f1e4cb07620ca9eb5e2d5e756ec80f",
            "paths": "da4481a25bcc50493e254c10585abc4d096b10b499f74b13bc16435450459bfc",
            "summary": "618201d5c73d7b6ff96e67442e86af7a2e0597f9f5cb5568481fc09746413f19",
            "exact": "3d740f89419496731c6446f212e7f03d6fe04871be3a6848a5a8e00c7342b360",
        },
    },
    "replanning": {
        "outcome": ("avoided", "manoeuvre completed", 3.24, "R2"),
        "digests": {
            "trace": "2b373945741ccdc289189bca424de035b15a1818ed8a0733be356526b49c0d1f",
            "paths": "22485e0afb5fbbe96c2db7254df979d5e798263433ba9c65b2f12c340d9929ff",
            "summary": "06d8a2d0b34bd25d552bef0874cbb55049471f3751e637b4669b1b8492d92eff",
            "exact": "5f173456382c0dfda5e5b58e7e66736b57626c94bf4a4393be3ab63c80df4f1f",
        },
    },
    "stalled_car": {
        "outcome": ("avoided", "manoeuvre completed", 2.71, "L5"),
        "digests": {
            "trace": "501943cd16b5bd508d002998cd685c7b96691545b599ca8db58718830acb883a",
            "paths": "58ec316a4a82a8482d24d900826c5201c2997fc0dfc51d1388a8bfef85344d86",
            "summary": "78e64d79b05611514ab37902ff4a430edfae82a2f63e60860c74cfefb56f1deb",
            "exact": "e758047c91b1043f02e96c0a630c18c0ab982fb9398efd0825ba18b0cd68e469",
        },
    },
}

LONG_RUN = {
    "overrides": {"sim": {"duration": 30.0}, "ego": {"v_x": 27.5}},
    "digests": {
        "trace": "86e3d2ad514a357929fc0fa74437d24d6fe98beba1ab46208cb37aeb3bf494b4",
        "paths": "da4481a25bcc50493e254c10585abc4d096b10b499f74b13bc16435450459bfc",
        "summary": "c23ddfd4701dde6d2321db7832c6632baea887653d002c12005d0792cbcabe76",
        "exact": "d4f76ec1c97eea53329d197341e897dacb2bcd62c73a7fdf42b4883241bc3504",
    },
}

HEADING_RUN = {
    "overrides": {"sim": {"duration": 30.0},
                  "ego": {"psi": 0.02, "v_x": 20.0}},
    "digests": {
        "trace": "f38d29d2ac6f6ae9614babf12a563d6fe19054cf2930b95c2be2c779ce2aab96",
        "paths": "da4481a25bcc50493e254c10585abc4d096b10b499f74b13bc16435450459bfc",
        "summary": "c23ddfd4701dde6d2321db7832c6632baea887653d002c12005d0792cbcabe76",
        "exact": "e5d53617f0d04a876a2f4ce9b44ee9f510be6ae75bf0f6854bf6cdb009ecd12b",
    },
}

# Three 3.25 m lanes, slower cars ahead in both adjacent lanes and a
# pedestrian walking along the right sidewalk (perfbench's `traffic` case
# with fixed values). The run stays in monitoring and plans both sides every
# planner period; candidates collide with the first and with the second car.
TRAFFIC_RUN = {
    "outcome": ("no-trigger", "duration reached", None, None),
    "digests": {
        "trace": "ebdaa29e9733f1725a0dbbfa8832a60cd01a32df2691764bfb69d43e29269eef",
        "paths": "068e18c514b2f221407d1dfa6c2714c6fa7b89a86f4f48b4fc6ea57cc0c87488",
        "summary": "4e9ee229b05cd9fd8c8c6ced7af61479658b193f8ff259e8d9a8d7cba4d8f662",
        "exact": "1c49a99fc9bf5a4953b82c87e24d0657b2d35dcb4cffa43ce310869ec0b4d9b9",
    },
}

# Cars in both adjacent lanes and a walker on the right sidewalk, none on
# the ego's path, with headings off the road's axis and footprint centres
# off their reference points. The run stays in monitoring and plans both
# sides every planner period.
MIXED_TRAFFIC = {
    "schema_version": 1,
    "name": "mixed_traffic",
    "vehicle": {
        "m": 2000.0, "a": 1.4, "b": 1.6, "w": 1.6, "C_f": 1.0e5,
        "C_r": 1.0e5, "I_zz": 3500.0, "mu_f": 1.0, "mu_r": 1.0, "S_f": 1.0,
        "S_r": 1.0, "delta_max": 0.15,
        "footprint": {"length": 4.5, "width": 1.8, "ref_offset": 1.35},
    },
    "capability": {"scenario_id": 6, "t_pb": 0.0, "a_y_threshold": 9.6,
                   "rho_dot_max": 0.25},
    "planner": {"psi_max": 0.25, "i_sb": 0.8, "t_stabilize": 0.5,
                "n_paths": 6, "dt_presample": 0.0025,
                "min_lateral_clearance": 1.0, "sides": ["left", "right"]},
    "costs": {"K_ay": 0.05, "K_ax": 0.05, "K_prox": -1.0},
    "trigger": {"t_margin": 0.15, "t_warning": 0.4, "tte_reduction": 0.85,
                "ttc_horizon": 5.0},
    "road": {"x_start": -10.0, "x_end": 400.0, "y_left": 4.875,
             "y_right": -4.875},
    "ego": {"X": 0.0, "Y": 0.0, "psi": 0.0, "v_x": 22.0},
    "targets": [
        {"id": "left_car",
         "footprint": {"length": 4.6, "width": 1.9, "ref_offset": 1.3},
         "X": 18.0, "Y": 3.35, "psi": 0.01, "speed": 15.2},
        {"id": "right_car",
         "footprint": {"length": 4.4, "width": 1.8, "ref_offset": 1.2},
         "X": 28.0, "Y": -3.4, "psi": -0.008, "speed": 14.4,
         "maneuver": {"time": 1.5, "speed": 13.0}},
        {"id": "walker",
         "footprint": {"length": 0.5, "width": 0.5, "ref_offset": 0.1},
         "X": 55.0, "Y": -6.4, "psi": 3.1, "speed": 1.3,
         "appear_time": 0.5},
    ],
    "sim": {"duration": 3.0, "dt_plant": 0.001, "dt_control": 0.01,
            "planner_period": 0.1, "dt_check": 0.1},
}

MIXED_TRAFFIC_RUN = {
    "outcome": ("no-trigger", "duration reached", None, None),
    "digests": {
        "trace": "664377b8fee12ac8c4249f548bd7bd0cae784337545f2d6ecf52825cc4c9eadb",
        "paths": "0d4df9567678c81a9db5b66718f2d63f5548be3c4bd10a417e9404d8f9640a06",
        "summary": "92ce4207dd40ce19f6ddbda2fabb3388e4c24174ab2369a29324652ef5503164",
        "exact": "d2fba7eade2fe9c8495400eeaaba081b25369188ba0d758945a86e484e37b621",
    },
}

REPLAN_RUNS = {
    3.81: {
        "outcome": ("aborted", "replanning failed", 0),
        "digests": {
            "trace": "c92c3cb48fb023300e7fc37f3012b3a3da0d59b13c227b505a48008ad0213219",
            "paths": "7abb2fc595cc18cd859d139bcd9824c5d5e7da461df6aea0d8dd325c5fd9a028",
            "summary": "3850f0b9814996528d96653049c896c6f4bb41152a317e72be6eeab6a81ec65c",
            "exact": "94c3d0fe2ae86add810502a157ff478980d855ceba792b6ccd857c808ae768e8",
        },
    },
    3.55: {
        "outcome": ("collided", "contact with vru", 1),
        "digests": {
            "trace": "be2ca566f7e76824bd2c338d48990b838aa57e97766efe59b85aba699a9dc2a8",
            "paths": "9bd0195db7d8ce54b2ebfe1496aff49406b181763e3eda2fa53f8fffd0596e4a",
            "summary": "ccdbe98fd1e995986433c475c0b9ad0c332e4e1cb31fe4c2d6b814ed719ce40b",
            "exact": "ac78d21ae46a72f03f1c857a2e9f9c6994aa83d3c0306cb36a4eaf1002e78423",
        },
    },
}

DIVERGENCE_RUN = {
    "overrides": {"vehicle": {"I_zz": 5.0}},
    "outcome": ("aborted",
                "plant state out of bounds at t=3.023 (v_v=-0.14, r=-6.21)",
                2.71, "L5"),
    "t_end": 3.021999999999778,
    "digests": {
        "trace": "c6062edf225bddd1cee32026c6f651b6ecff16259dd33b405bd4155dfdca7d16",
        "paths": "58ec316a4a82a8482d24d900826c5201c2997fc0dfc51d1388a8bfef85344d86",
        "summary": "f438a7f1cb7cd9efc5ffe2ebc393bf0326b1e3e2cf2a18ed6900740da923ebaf",
        "exact": "9427a131d65cb7511449fe752b965d7578459f0a5d7bb1243a53055701d31bfe",
    },
}


def _exact_digest(trace):
    """sha256 of the trace rows and path events at full precision: every
    float by float.hex, every other cell by repr."""
    h = hashlib.sha256()
    for table in (trace.rows, trace.path_events):
        for row in table:
            h.update(",".join(v.hex() if isinstance(v, float) else repr(v)
                              for v in row).encode() + b"\n")
    return h.hexdigest()


def _digests(result, out_dir, keys):
    files = result.trace.write(out_dir)
    return {key: (_exact_digest(result.trace) if key == "exact" else
                  hashlib.sha256(files[key].read_bytes()).hexdigest())
            for key in keys}


def _check_shipped(scenario_dir, out_dir, name):
    result = run_scenario(load_scenario(scenario_dir / f"{name}.yaml"))
    want = GOLDEN[name]
    assert (result.outcome, result.reason,
            result.summary.get("engage_time"),
            result.summary.get("engage_path_id")) == want["outcome"]
    assert _digests(result, out_dir, want["digests"]) == want["digests"]


def _check_replan(scenario_dir, out_dir, stop_time):
    raw = yaml.safe_load((scenario_dir / "replanning.yaml").read_text())
    raw["targets"][0]["maneuver"]["time"] = stop_time
    result = run_scenario(parse_scenario(raw, default_name="replanning"))
    want = REPLAN_RUNS[stop_time]
    assert (result.outcome, result.reason,
            len(result.trace.replan_events)) == want["outcome"]
    assert _digests(result, out_dir, want["digests"]) == want["digests"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artefacts_match_golden_digests(scenario_dir, tmp_path, name):
    _check_shipped(scenario_dir, tmp_path, name)


def _traffic_raw(scenario_dir):
    raw = yaml.safe_load((scenario_dir / "crossing_vru.yaml").read_text())
    raw["name"] = "traffic"
    lane = 3.25
    vehicle = {"length": 4.5, "width": 1.8, "ref_offset": 0.0}
    raw["ego"] = {"X": 0.0, "Y": 0.0, "psi": 0.0, "v_x": 22.0}
    raw["road"] = {"x_start": -10.0, "x_end": 400.0,
                   "y_left": 1.5 * lane, "y_right": -1.5 * lane}
    raw["targets"] = [
        {"id": "left_car", "type": "vehicle", "footprint": vehicle,
         "X": 20.0, "Y": lane + 0.1, "psi": 0.0, "speed": 14.8},
        {"id": "right_car", "type": "vehicle", "footprint": vehicle,
         "X": 30.0, "Y": -lane - 0.15, "psi": 0.0, "speed": 14.6},
        {"id": "walker", "type": "vru",
         "footprint": {"length": 0.5, "width": 0.5, "ref_offset": 0.0},
         "X": 60.0, "Y": -1.5 * lane - 1.5, "psi": 0.0, "speed": 1.2},
    ]
    raw["sim"] = {"duration": 3.0}
    return raw


def _check_traffic(scenario_dir, out_dir):
    result = run_scenario(parse_scenario(_traffic_raw(scenario_dir)))
    assert (result.outcome, result.reason,
            result.summary.get("engage_time"),
            result.summary.get("engage_path_id")) == TRAFFIC_RUN["outcome"]
    want = TRAFFIC_RUN["digests"]
    assert _digests(result, out_dir, want) == want


def test_traffic_matches_golden_digests(scenario_dir, tmp_path):
    _check_traffic(scenario_dir, tmp_path)


def test_mixed_traffic_matches_golden_digests(tmp_path):
    result = run_scenario(parse_scenario(copy.deepcopy(MIXED_TRAFFIC)))
    assert (result.outcome, result.reason,
            result.summary.get("engage_time"),
            result.summary.get("engage_path_id")) == MIXED_TRAFFIC_RUN["outcome"]
    # every tick monitors and every status occurs
    assert {row[1] for row in result.trace.rows} == {"monitoring"}
    assert {event[5] for event in result.trace.path_events} == {
        "survivor", "collision", "not_driveable"}
    want = MIXED_TRAFFIC_RUN["digests"]
    assert _digests(result, tmp_path, want) == want


@pytest.mark.parametrize("name", sorted(GOLDEN) + ["mixed_traffic"])
def test_runs_write_cells_that_print_as_before(scenario_dir, name):
    """The CSV writer prints every number by `.10g`. A run writes only
    None, str, bool, float and ints below 1e10, which `.10g` prints with
    the digits `str` gives them, so the artefacts keep their bytes."""
    if name == "mixed_traffic":
        cfg = parse_scenario(copy.deepcopy(MIXED_TRAFFIC))
    else:
        cfg = load_scenario(scenario_dir / f"{name}.yaml")
    trace = run_scenario(cfg).trace
    odd = {(type(cell).__name__, repr(cell))
           for rows in (trace.rows, trace.path_events) for row in rows
           for cell in row
           if not (cell is None or type(cell) in (str, bool, float)
                   or type(cell) is int and abs(cell) < 10**10)}
    assert odd == set()


def _check_long(scenario_dir, out_dir, run):
    raw = yaml.safe_load((scenario_dir / "empty_road.yaml").read_text())
    for section, values in run["overrides"].items():
        raw[section].update(values)
    result = run_scenario(parse_scenario(raw, default_name="empty_road"))
    assert result.summary["t_end"] == pytest.approx(30.0)
    want = run["digests"]
    assert _digests(result, out_dir, want) == want


def test_long_empty_road_matches_golden_digests(scenario_dir, tmp_path):
    _check_long(scenario_dir, tmp_path, LONG_RUN)


def test_heading_empty_road_matches_golden_digests(scenario_dir, tmp_path):
    _check_long(scenario_dir, tmp_path, HEADING_RUN)


@pytest.mark.parametrize("stop_time", sorted(REPLAN_RUNS))
def test_replanning_branches_match_golden_digests(scenario_dir, tmp_path,
                                                  stop_time):
    _check_replan(scenario_dir, tmp_path, stop_time)


def test_mid_tick_divergence_matches_golden_digests(scenario_dir, tmp_path):
    raw = yaml.safe_load((scenario_dir / "stalled_car.yaml").read_text())
    for section, values in DIVERGENCE_RUN["overrides"].items():
        raw[section].update(values)
    result = run_scenario(parse_scenario(raw))
    assert (result.outcome, result.reason,
            result.summary.get("engage_time"),
            result.summary.get("engage_path_id")) == DIVERGENCE_RUN["outcome"]
    assert result.summary["t_end"] == DIVERGENCE_RUN["t_end"]
    want = DIVERGENCE_RUN["digests"]
    assert _digests(result, tmp_path, want) == want


# one run that ends avoided and one that runs to its duration
@pytest.mark.parametrize("name", ["crossing_vru", "empty_road"])
def test_one_plant_call_per_advanced_tick(scenario_dir, monkeypatch, name):
    """The loop integrates a tick's substeps in one plant call: every row
    but the last is followed by exactly one call."""
    calls = []
    step = simloop.plant_step

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return step(*args, **kwargs)

    monkeypatch.setattr(simloop, "plant_step", counted)
    result = run_scenario(load_scenario(scenario_dir / f"{name}.yaml"))
    assert result.outcome in ("avoided", "no-trigger")
    assert len(calls) == len(result.trace.rows) - 1
    assert set(calls) == {10}  # dt_control / dt_plant substeps each


def test_target_free_run_builds_no_events_per_tick(scenario_dir,
                                                   monkeypatch):
    """A tick with no target present passes the run's one idle
    SupervisorEvents to the state machine, which still steps every
    tick."""
    built, steps = [], []
    events, step = simloop.SupervisorEvents, simloop.step_state_machine

    def counted_events(*args, **kwargs):
        built.append(events(*args, **kwargs))
        return built[-1]

    def counted_step(s, ev):
        steps.append(ev)
        return step(s, ev)

    monkeypatch.setattr(simloop, "SupervisorEvents", counted_events)
    monkeypatch.setattr(simloop, "step_state_machine", counted_step)
    result = run_scenario(load_scenario(scenario_dir / "empty_road.yaml"))
    assert len(steps) == len(result.trace.rows) == 301
    assert len(built) == 1 and all(ev is built[0] for ev in steps)
    assert built[0] == events()


def test_monitoring_ticks_build_no_target_tracks(monkeypatch):
    """The target pass and the TTC work on floats: only a tick that plans
    or monitors the selected path builds TargetTrack records, so
    MIXED_TRAFFIC, which never engages, builds at most one per target per
    planner tick."""
    built = []
    init = TargetTrack.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TargetTrack, "__init__", counted)
    result = run_scenario(parse_scenario(copy.deepcopy(MIXED_TRAFFIC)))
    assert not result.summary["engaged"]
    ticks = len(result.trace.rows)
    planner_ticks = len(range(0, ticks, 10))   # planner_period / dt_control
    n_targets = len(MIXED_TRAFFIC["targets"])
    assert 0 < len(built) <= planner_ticks * n_targets < ticks * n_targets


def test_rk4_stages_run_on_the_first_tick_only(scenario_dir, plant_cos):
    """Shipped empty_road rests from its first substep on: every later tick
    starts at the plant's carried fixed point and runs no RK4 stage."""
    result = run_scenario(load_scenario(scenario_dir / "empty_road.yaml"))
    assert len(result.trace.rows) == 301  # 3 s of 10 ms ticks
    assert plant_cos.calls == 4  # the four stages of the first substep


def _cold_generate(init, cap, space, tuning, side, families):
    return generate_path_set(init, cap, space, tuning, side, {})


@pytest.fixture
def cold_families(monkeypatch):
    monkeypatch.setattr(simloop, "generate_path_set", _cold_generate)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cold_path_families_match_golden_digests(scenario_dir, tmp_path,
                                                 cold_families, name):
    _check_shipped(scenario_dir, tmp_path, name)


@pytest.mark.parametrize("stop_time", sorted(REPLAN_RUNS))
def test_cold_path_families_match_replanning_digests(scenario_dir, tmp_path,
                                                     cold_families, stop_time):
    _check_replan(scenario_dir, tmp_path, stop_time)


def test_runs_in_one_process_match_their_cold_runs(scenario_dir, tmp_path,
                                                   monkeypatch):
    """crossing_vru, then with another t_stabilize, then again: each run
    engages from the same initial ego state under the other tuning than the
    run before, and shares no planner state with it."""
    raw = yaml.safe_load((scenario_dir / "crossing_vru.yaml").read_text())
    slow = yaml.safe_load((scenario_dir / "crossing_vru.yaml").read_text())
    slow["planner"]["t_stabilize"] = 0.6
    keys = ("trace", "paths", "summary", "exact")

    def digests(config, out):
        result = run_scenario(parse_scenario(config))
        return _digests(result, tmp_path / out, keys)

    warm = [digests(config, f"warm{i}")
            for i, config in enumerate((raw, slow, raw))]
    monkeypatch.setattr(simloop, "generate_path_set", _cold_generate)
    cold = [digests(config, f"cold{i}")
            for i, config in enumerate((raw, slow, raw))]
    assert warm == cold
    assert cold[0] != cold[1]


def _recorded_cycles(monkeypatch):
    """Patches simloop.plan_cycle to record each call's arguments and
    result; returns the list they are appended to."""
    calls = []

    def recorded(*args):
        cycle = plan_cycle(*args)
        calls.append((args, cycle))
        return cycle

    monkeypatch.setattr(simloop, "plan_cycle", recorded)
    return calls


def _ranked_key(cycle):
    """A cycle's start point and its ranked paths by id, rejection and
    costs, every float by float.hex, and its best path's id."""
    def bits(value):
        return value.hex() if isinstance(value, float) else value
    return (bits(cycle.X), bits(cycle.Y),
            [(r.path.side, r.path.path_id, r.rejected, bits(r.severity),
              bits(r.proximity), bits(r.total)) for r in cycle.ranked],
            None if cycle.best is None else cycle.best.path_id)


def _trace_state(trace):
    return (len(trace.rows), list(trace.path_events),
            list(trace.replan_events), list(trace.engage_candidates),
            dict(trace.summary))


@pytest.mark.parametrize("stop_time", sorted(REPLAN_RUNS))
def test_plan_cycle_has_no_side_effects(scenario_dir, monkeypatch,
                                        stop_time):
    """Every planner cycle of a replanning branch, run again after the run
    with the run's memo and with a fresh one, gives the run's ranked list
    and leaves the run's trace as it was."""
    calls = _recorded_cycles(monkeypatch)
    raw = yaml.safe_load((scenario_dir / "replanning.yaml").read_text())
    raw["targets"][0]["maneuver"]["time"] = stop_time
    trace = run_scenario(parse_scenario(raw)).trace
    before = _trace_state(trace)
    assert any(args[4] != args[2].sides for args, _ in calls)  # a replan
    for args, cycle in calls:
        *inputs, families = args
        want = _ranked_key(cycle)
        assert _ranked_key(plan_cycle(*inputs, families)) == want
        assert _ranked_key(plan_cycle(*inputs, {})) == want
    assert _trace_state(trace) == before


def test_runs_share_no_family_paths(scenario_dir, monkeypatch):
    """Two runs of one scenario in a process plan from memos of their own:
    no family path of the first run is ranked in the second."""
    calls = _recorded_cycles(monkeypatch)
    cfg = load_scenario(scenario_dir / "crossing_vru.yaml")
    paths = []
    for _ in range(2):
        calls.clear()
        run_scenario(cfg)
        assert len({id(args[5]) for args, _ in calls}) == 1
        paths.append([r.path for _, cycle in calls for r in cycle.ranked])
    first = {id(path) for path in paths[0]}
    assert paths[1] and not any(id(path) in first for path in paths[1])


@pytest.fixture
def box_decides(monkeypatch):
    """Every driveable check compared with the reference; yields the count
    of ranked candidates."""
    counts = {"candidates": 0}
    check, rank = ranking.driveable_area_check, simloop.rank_paths

    def checked(path, space, fp, X=0.0, Y=0.0):
        got = check(path, space, fp, X, Y)
        assert got is reference_driveable(path, space, fp, X, Y)
        return got

    def ranked(paths, targets, space, fp, *args):
        counts["candidates"] += len(paths)
        return rank(paths, targets, space, fp, *args)

    monkeypatch.setattr(ranking, "driveable_area_check", checked)
    monkeypatch.setattr(simloop, "rank_paths", ranked)
    yield counts


@pytest.fixture
def memo_serves(monkeypatch):
    """Every collision check and proximity cost compared with the
    per-target references; yields the count of ranked candidates' checks
    served from the family path's memo. A monitored suffix is predicted on
    its own grid and keeps no memo."""
    counts = {"served": 0}
    batch, check = ranking.check_paths, ranking.collision_check
    cost = ranking.proximity_cost

    def batched(paths, targets, fp, dt_check, X=0.0, Y=0.0, pred=None):
        key = ("check", fp, dt_check)
        counts["served"] += sum(key in path.memo for path in paths)
        collides = batch(paths, targets, fp, dt_check, X, Y, pred)
        for path, got in zip(paths, collides, strict=True):
            assert got is reference_collision_check(path, targets, fp,
                                                    dt_check, X, Y).collides
            assert key in path.memo
        return collides

    def checked(path, targets, fp, dt_check):
        got = check(path, targets, fp, dt_check)
        assert got == reference_collision_check(path, targets, fp, dt_check)
        assert ("check", fp, dt_check) not in path.memo
        return got

    def costed(path, targets, w, X, Y, pred):
        got = cost(path, targets, w, X, Y, pred)
        assert got.hex() == reference_proximity_cost(path, targets, w, X,
                                                     Y).hex()
        return got

    monkeypatch.setattr(ranking, "check_paths", batched)
    monkeypatch.setattr(ranking, "collision_check", checked)
    monkeypatch.setattr(ranking, "proximity_cost", costed)
    yield counts


# empty_road plans nothing, and every blocked_lane candidate leaves the
# corridor, so neither reaches the collision check
@pytest.mark.parametrize("name", ["crossing_vru", "replanning", "stalled_car"])
def test_memo_serves_shipped_candidates(scenario_dir, tmp_path, memo_serves,
                                        name):
    _check_shipped(scenario_dir, tmp_path, name)
    assert memo_serves["served"] > 0


def test_memo_serves_traffic_candidates(scenario_dir, tmp_path, memo_serves):
    _check_traffic(scenario_dir, tmp_path)
    assert memo_serves["served"] > 0


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_box_decides_shipped_candidates(scenario_dir, tmp_path, box_decides,
                                        name):
    _check_shipped(scenario_dir, tmp_path, name)
    assert box_decides["candidates"] > 0 or name == "empty_road"


@pytest.mark.parametrize("stop_time", sorted(REPLAN_RUNS))
def test_box_decides_replanning_candidates(scenario_dir, tmp_path,
                                           box_decides, stop_time):
    _check_replan(scenario_dir, tmp_path, stop_time)
    assert box_decides["candidates"] > 0


def _one_pass_config(scenario_dir, name):
    if name == "traffic":
        workloads = perfbench_module(scenario_dir, "workloads")
        return parse_scenario(
            workloads.generate("traffic", 1, scenario_dir)[0].raw)
    if name.startswith("replanning@"):
        raw = yaml.safe_load((scenario_dir / "replanning.yaml").read_text())
        raw["targets"][0]["maneuver"]["time"] = float(name.split("@")[1])
        return parse_scenario(raw, default_name="replanning")
    return load_scenario(scenario_dir / f"{name}.yaml")


@pytest.mark.parametrize("name", sorted(GOLDEN) + [
    f"replanning@{stop_time}" for stop_time in sorted(REPLAN_RUNS)]
    + ["traffic"])
def test_one_ranking_pass_matches_the_per_side_passes(scenario_dir,
                                                      monkeypatch, name):
    """plan_cycle ranks every side's set in one rank_paths call. Each
    side's set ranked on its own, on its own grid, must give the same
    paths in the same order, the same rejections and the bits of every
    cost."""
    cycles, sets = [], []
    generate = simloop.generate_path_set

    def generated(*args):
        sets.append(generate(*args))
        return sets[-1]

    def planned(ego, preds, cfg, *rest):
        sets.clear()
        cycle = plan_cycle(ego, preds, cfg, *rest)
        cycles.append((list(sets), preds, cfg, cycle))
        return cycle

    monkeypatch.setattr(simloop, "generate_path_set", generated)
    monkeypatch.setattr(simloop, "plan_cycle", planned)
    run_scenario(_one_pass_config(scenario_dir, name))
    for side_sets, preds, cfg, cycle in cycles:
        want = tuple(r for ps in side_sets
                     for r in rank_paths(ps.paths, preds, cfg.road,
                                         cfg.footprint, cfg.weights,
                                         cfg.sim.dt_check, cycle.X, cycle.Y))
        assert len(want) == len(cycle.ranked)
        assert all(a.path is b.path for a, b in zip(want, cycle.ranked))
        assert (_ranked_key(PlanCycle(cycle.X, cycle.Y, want, cycle.best))
                == _ranked_key(cycle))
    # every run but empty_road has cycles that join two sides
    assert (name == "empty_road") is not any(len(side_sets) == 2
                                             for side_sets, *_ in cycles)
