"""Outcome atlas: shipped scenarios perturbed on fixed grids, every cell
compared with the table recorded when the atlas was added.

a = avoided, c = collided, x = aborted. Several cells are known defects
(ROADMAP items 2-4) and stay pinned as they are: a change that moves any
cell must update the table and say why in CHANGES.md. The tracked number is
the count of collided plus aborted cells, which should go down.
"""
import copy

import pytest

from aessim.scenario import parse_scenario, read_raw
from aessim.simloop import run_scenario

LETTER = {"avoided": "a", "collided": "c", "aborted": "x", "no-trigger": "n"}

# stalled_car: target X = 69 ... 71 m in 0.25 m steps, one row per target Y
STALLED_X = [70.0 + 0.25 * k for k in range(-4, 5)]
STALLED_ROWS = {
    -0.3: "aaaaaaaaa",
    -0.2: "aaaaaaaaa",
    -0.1: "aaaaaaaaa",
    0.0: "cccaacccc",
    0.1: "aaaaaaaaa",
    0.2: "ccccacccc",
    0.3: "ccccccccc",
}
# replanning: the pedestrian's stop time 3.54 ... 3.94 s in 0.02 s steps
REPLAN_TIMES = [round(3.54 + 0.02 * k, 2) for k in range(21)]
REPLAN_ROW = "ccaccccaaaaaaaxcaaaaa"
TRACKED = 32  # collided + aborted over both grids


def _outcome(raw: dict, edit) -> str:
    raw = copy.deepcopy(raw)
    edit(raw)
    return LETTER[run_scenario(parse_scenario(raw)).outcome]


@pytest.fixture(scope="module")
def atlas(scenario_dir) -> dict:
    stalled = read_raw(scenario_dir / "stalled_car.yaml")
    replanning = read_raw(scenario_dir / "replanning.yaml")

    def place(x, y):
        def edit(raw):
            raw["targets"][0].update(X=x, Y=y)
        return edit

    def stop_at(time):
        def edit(raw):
            raw["targets"][0]["maneuver"]["time"] = time
        return edit

    return {
        "stalled_car": {y: "".join(_outcome(stalled, place(x, y))
                                   for x in STALLED_X)
                        for y in STALLED_ROWS},
        "replanning": "".join(_outcome(replanning, stop_at(time))
                              for time in REPLAN_TIMES),
    }


def test_stalled_car_grid(atlas):
    assert atlas["stalled_car"] == STALLED_ROWS


def test_replanning_grid(atlas):
    assert atlas["replanning"] == REPLAN_ROW


def test_tracked_number(atlas):
    cells = "".join(atlas["stalled_car"].values()) + atlas["replanning"]
    bad = cells.count("c") + cells.count("x")
    assert bad == TRACKED
    print(f"PASS outcome atlas: collided + aborted = {bad} of {len(cells)} "
          "runs")
