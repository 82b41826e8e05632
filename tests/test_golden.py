"""Golden artefact digests of the five shipped scenarios.

Speed work must not change what a run writes: `trace.csv`, `paths.csv` and
`summary.json` of every shipped scenario must stay byte-identical. The
sha256 digests below were recorded before the collision kernels were moved
from numpy arrays to scalar floats, on x86-64 Linux with Python 3.11 and
numpy 2.4; another libm or numpy build may round differently and then fails
here without any change to the code.

A change that alters behaviour on purpose must update these digests and say
in CHANGES.md why the artefacts moved.

The shipped runs last at most a few seconds. `LONG_RUN` adds shipped
`empty_road` at a non-default speed for 30 s (30 000 RK4 substeps), long
enough for a one-ulp drift in the plant's integration to reach `X`. Its
digests were recorded before the plant moved from numpy matrices to scalar
floats.

`REPLAN_RUNS` move the stop of shipped `replanning`'s pedestrian, so that
the loop reaches two branches no shipped scenario does: at 3.81 s the
replan selects no path and the run aborts; at 3.55 s the run replans once
and still ends in contact. Their digests were recorded before the two
planner closures of `run_scenario` were merged into one.
"""
import hashlib

import pytest
import yaml

from aessim.scenario import load_scenario, parse_scenario
from aessim.simloop import run_scenario

GOLDEN = {
    "blocked_lane": {
        "trace": "1860d324d3ee59eb6715617530dc09bb9c32091b7021dd9000c563595e8fa41f",
        "paths": "c1d4039c8770e3f24b05d309faf646a49d234d6f3ba129e63fc9eec2c5ecea00",
        "summary": "ce5be353ad5887c4b3b121e593d31c08dc092b53b554aa3e54d9a365799e344f",
    },
    "crossing_vru": {
        "trace": "71f44038d03b509e0624617e6e463fb903974786e492260b84a99c299fd29e7f",
        "paths": "064687295ac429b3c9f3358c782b70b69ddc1a1a3e8a456c726be1746dc11e85",
        "summary": "af2c3aacdaa42b75b6f2477c84e027470d0ae8097dd491263ff2a45e30225c09",
    },
    "empty_road": {
        "trace": "473d98ce7a3ae0cc7ea399ae8bbb2ffb12f1e4cb07620ca9eb5e2d5e756ec80f",
        "paths": "da4481a25bcc50493e254c10585abc4d096b10b499f74b13bc16435450459bfc",
        "summary": "618201d5c73d7b6ff96e67442e86af7a2e0597f9f5cb5568481fc09746413f19",
    },
    "replanning": {
        "trace": "c68b2ca9183645d3aad47710b5ab88728ceed9b2498ca563cbc09e9518ab85f4",
        "paths": "22485e0afb5fbbe96c2db7254df979d5e798263433ba9c65b2f12c340d9929ff",
        "summary": "cbd6de899fb13de6f111182f048aebcd9c50077acae7a807c4ab4062b480dac8",
    },
    "stalled_car": {
        "trace": "501943cd16b5bd508d002998cd685c7b96691545b599ca8db58718830acb883a",
        "paths": "58ec316a4a82a8482d24d900826c5201c2997fc0dfc51d1388a8bfef85344d86",
        "summary": "7379b6d0b56380920b64c04e75181eb5c2b3e5b0547618f474cd46aa18ab6785",
    },
}

LONG_RUN = {
    "overrides": {"sim": {"duration": 30.0}, "ego": {"v_x": 27.5}},
    "digests": {
        "trace": "86e3d2ad514a357929fc0fa74437d24d6fe98beba1ab46208cb37aeb3bf494b4",
        "paths": "da4481a25bcc50493e254c10585abc4d096b10b499f74b13bc16435450459bfc",
        "summary": "c23ddfd4701dde6d2321db7832c6632baea887653d002c12005d0792cbcabe76",
    },
}


REPLAN_RUNS = {
    3.81: {
        "outcome": ("aborted", "replanning failed", 0),
        "digests": {
            "trace": "747dfa246312e1c98e11e8371e99ec74449a0866b42ece461c2830fbbb793b5c",
            "paths": "7abb2fc595cc18cd859d139bcd9824c5d5e7da461df6aea0d8dd325c5fd9a028",
            "summary": "85a457af38a584a00bc3b466c52b5070f773178ef74a22d80bd2064fb8d5cf7d",
        },
    },
    3.55: {
        "outcome": ("collided", "contact with vru", 1),
        "digests": {
            "trace": "0c9bee0c4bb91f4daf8f4bf3a58c1285da07a87593bee3ffad6c452ee52b9000",
            "paths": "9bd0195db7d8ce54b2ebfe1496aff49406b181763e3eda2fa53f8fffd0596e4a",
            "summary": "864a56d0ec1f461dece7c10fb75e7cf6df4cb9c9373d30211247d58f3d048689",
        },
    },
}


def _digests(result, out_dir, keys):
    files = result.trace.write(out_dir)
    return {key: hashlib.sha256(files[key].read_bytes()).hexdigest()
            for key in keys}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artefacts_match_golden_digests(scenario_dir, tmp_path, name):
    result = run_scenario(load_scenario(scenario_dir / f"{name}.yaml"))
    assert _digests(result, tmp_path, GOLDEN[name]) == GOLDEN[name]


def test_long_empty_road_matches_golden_digests(scenario_dir, tmp_path):
    raw = yaml.safe_load((scenario_dir / "empty_road.yaml").read_text())
    for section, values in LONG_RUN["overrides"].items():
        raw[section].update(values)
    result = run_scenario(parse_scenario(raw, default_name="empty_road"))
    assert result.summary["t_end"] == pytest.approx(30.0)
    want = LONG_RUN["digests"]
    assert _digests(result, tmp_path, want) == want


@pytest.mark.parametrize("stop_time", sorted(REPLAN_RUNS))
def test_replanning_branches_match_golden_digests(scenario_dir, tmp_path,
                                                  stop_time):
    raw = yaml.safe_load((scenario_dir / "replanning.yaml").read_text())
    raw["targets"][0]["maneuver"]["time"] = stop_time
    result = run_scenario(parse_scenario(raw, default_name="replanning"))
    want = REPLAN_RUNS[stop_time]
    assert (result.outcome, result.reason,
            len(result.trace.replan_events)) == want["outcome"]
    assert _digests(result, tmp_path, want["digests"]) == want["digests"]
