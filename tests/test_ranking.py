import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from conftest import reference_collision_check, reference_proximity_cost

from aessim import ranking
from aessim.capability import CapabilityRecord, CapabilityScenario, EgoState
from aessim.errors import NoFeasiblePath
from aessim.geometry import (DriveableSpace, Footprint, Pose, TargetTrack,
                             collision_check, predict)
from aessim.pathgen import (PathTuning, SampledPath, anchor_path,
                            generate_path_set, presample_profile)
from aessim.ranking import (REJECT_COLLISION, REJECT_NOT_DRIVEABLE,
                            CostWeights, RankedPath, best_survivor,
                            monitor_selected, proximity_cost, rank_paths,
                            select_path, severity_cost)

FP = Footprint(4.5, 1.8, ref_offset=1.35)


def own_grid_cost(path, targets, w):
    """proximity_cost of the untranslated path, with the targets predicted
    on path.t."""
    return proximity_cost(path, targets, w, 0.0, 0.0,
                          predict(targets, path.t))


def flat_path(n=51, v=20.0, dt=0.1, rho=0.0, y=0.0):
    t = dt * np.arange(n)
    return SampledPath(t=t, x=v * t, y=np.full(n, y), psi=np.zeros(n),
                       rho=np.full(n, rho), v=np.full(n, v))


def family(space=None, n_tot=6, targets=False):
    cap = CapabilityRecord(CapabilityScenario.STEER, 0.0, 0.0245, 0.25, 20.0)
    tun = PathTuning(psi_max=0.2, n_tot=n_tot)
    space = space or DriveableSpace(-10, 300, 4.0, -4.0)
    ps = generate_path_set(EgoState(v_x=20.0), cap, space, tun, "left", {})
    return ps, space


class TestSeverity:
    def test_straight_constant_speed_is_zero(self):
        assert severity_cost(flat_path(), CostWeights()) == 0.0

    def test_single_sample_lateral_term(self):
        path = flat_path(n=3)
        path.rho[1] = 0.01
        w = CostWeights(K_ay=1.0, K_ax=0.0, K_prox=0.0)
        assert severity_cost(path, w) == pytest.approx(4.0, rel=1e-12)

    def test_longitudinal_term(self):
        path = flat_path(n=3, dt=0.5)
        path.v = np.array([20.0, 19.0, 19.0])
        w = CostWeights(K_ay=0.0, K_ax=1.0, K_prox=0.0)
        assert severity_cost(path, w) == pytest.approx(2.0, rel=1e-12)

    def test_recomputation_oracle(self):
        ps, _ = family()
        path = ps.paths[3]
        w = CostWeights(K_ay=0.7, K_ax=0.3, K_prox=0.0)
        got = severity_cost(path, w)
        lat = math.sqrt(float(np.sum((path.v**2 * path.rho) ** 2)))
        lon = math.sqrt(float(np.sum(
            (np.diff(path.v) / np.diff(path.t)) ** 2)))
        assert got == pytest.approx(0.7 * lat + 0.3 * lon, rel=1e-12)


class TestProximity:
    def test_constant_distance(self):
        path = flat_path(n=11, dt=0.1)
        # travels alongside the path, 5 m to its left
        target = TargetTrack("a", Footprint(0.5, 0.5), Pose(0.0, 5.0), 20.0)
        w = CostWeights(K_prox=2.0)
        assert own_grid_cost(path, [target], w) == pytest.approx(10.0)

    def test_no_targets(self):
        assert own_grid_cost(flat_path(), [], CostWeights(K_prox=2.0)) == 0.0

    def test_min_dominance(self):
        path = flat_path(n=11, dt=0.1)
        near = TargetTrack("near", Footprint(0.5, 0.5), Pose(0.0, 3.0), 20.0)
        far = TargetTrack("far", Footprint(0.5, 0.5), Pose(0.0, 9.0), 20.0)
        w = CostWeights(K_prox=1.0)
        both = own_grid_cost(path, [near, far], w)
        assert both == pytest.approx(own_grid_cost(path, [near], w))

    def test_nan_target_proximity_is_nan(self):
        w = CostWeights(K_prox=1.0)
        nan = TargetTrack("nan", Footprint(0.5, 0.5), Pose(math.nan, 0.0))
        far = TargetTrack("far", Footprint(0.5, 0.5), Pose(40.0, 9.0, 0.0))
        for targets in ([nan], [far, nan], [nan, far]):
            got = own_grid_cost(flat_path(), targets, w)
            assert math.isnan(got)
            assert got.hex() == reference_proximity_cost(flat_path(),
                                                         targets, w).hex()


class TestRanking:
    def test_all_collide_rejected(self):
        ps, space = family()
        # a wall of targets across the corridor, inside every path's reach
        targets = [TargetTrack(f"w{i}", Footprint(4.0, 4.0), Pose(25.0, y, 0.0))
                   for i, y in enumerate(np.arange(-4.0, 5.0, 2.0))]
        ranked = rank_paths(ps.paths, targets, space, FP, CostWeights())
        assert all(r.rejected is not None for r in ranked)
        assert best_survivor(ranked) is None

    def test_obstacle_free_costs_monotone(self):
        ps, space = family()
        ranked = rank_paths(ps.paths, [], space, FP,
                            CostWeights(K_ay=1.0, K_ax=1.0, K_prox=0.0))
        assert all(r.rejected is None for r in ranked)
        totals = [r.total for r in ranked]
        assert all(b > a for a, b in zip(totals, totals[1:]))
        for r in ranked:
            assert r.total == r.severity + r.proximity

    def test_rejection_precedence(self):
        # the path both leaves the corridor and collides: driveable wins
        ps, _ = family()
        narrow = DriveableSpace(-10, 300, 0.5, -0.5)
        blocker = TargetTrack("blk", Footprint(4.5, 1.8), Pose(40.0, 0.0, 0.0))
        ranked = rank_paths(ps.paths, [blocker], narrow, FP, CostWeights())
        assert all(r.rejected == REJECT_NOT_DRIVEABLE for r in ranked)

    def test_order_preserved(self):
        ps, space = family()
        ranked = rank_paths(ps.paths, [], space, FP, CostWeights())
        assert [r.path.index for r in ranked] == [p.index for p in ps.paths]

    def test_weight_scaling_preserves_argmin(self):
        ps, space = family()
        target = TargetTrack("vru", Footprint(0.5, 0.5),
                             Pose(70.0, -2.0, math.pi / 2), 1.0)
        w = CostWeights(K_ay=0.3, K_ax=0.2, K_prox=-0.5)
        r1 = rank_paths(ps.paths, [target], space, FP, w)
        r2 = rank_paths(ps.paths, [target], space, FP,
                        CostWeights(3.5 * w.K_ay, 3.5 * w.K_ax, 3.5 * w.K_prox))
        for a, b in zip(r1, r2):
            if a.rejected is None:
                assert b.total == pytest.approx(3.5 * a.total, rel=1e-12)
        assert (best_survivor(r1).path.path_id
                == best_survivor(r2).path.path_id)

    def test_one_batched_check_per_set(self, monkeypatch):
        """One check_paths call per set with a driveable candidate, on the
        driveable ones only; none for a set without."""
        calls = []
        check = ranking.check_paths

        def counted(paths, *args):
            calls.append([p.path_id for p in paths])
            return check(paths, *args)

        monkeypatch.setattr(ranking, "check_paths", counted)
        ps, space = family()
        target = TargetTrack("vru", Footprint(0.5, 0.5),
                             Pose(70.0, -2.0, math.pi / 2), 1.0)
        # the left edge at 2.6 m keeps the three mildest of six paths
        for corridor, n in ((space, 6),
                            (DriveableSpace(-10, 300, 2.6, -4.0), 3),
                            (DriveableSpace(-10, 300, 0.5, -0.5), 0)):
            calls.clear()
            ranked = rank_paths(ps.paths, [target], corridor, FP,
                                CostWeights())
            driveable = [r.path.path_id for r in ranked
                         if r.rejected != REJECT_NOT_DRIVEABLE]
            assert len(driveable) == n
            assert calls == ([driveable] if driveable else [])


def _draws(n=150, seed=314):
    """(path set, (X, Y), targets, space, fp, weights, dt_check): seeded
    families at random start points (X, Y), with 1-4 targets placed near
    random points of the set's paths."""
    rng = np.random.default_rng(seed)
    u = rng.uniform
    fps = (FP, Footprint(4.0, 2.0), Footprint(3.9, 1.7, ref_offset=-0.8),
           Footprint(0.0, 0.0))
    while n:
        v = float(u(10.0, 30.0))
        braking = bool(rng.integers(2))
        cap = CapabilityRecord(CapabilityScenario.STEER,
                               float(u(-6.0, -2.0)) if braking else 0.0,
                               float(u(0.01, 0.05)), float(u(0.15, 0.4)), v,
                               t_pb=float(u(0.1, 0.4)) if braking else 0.0)
        init = EgoState(X=float(u(-1e3, 1e3)), Y=float(u(-20.0, 20.0)),
                        psi=float(u(-0.03, 0.03)), v_x=v,
                        yaw_rate=float(u(-0.03, 0.03)))
        tun = PathTuning(psi_max=float(u(0.1, 0.3)),
                         n_tot=int(rng.integers(2, 7)),
                         dt_presample=float(rng.choice([0.01, 0.005])))
        room = float(u(2.0, 8.0))
        space = DriveableSpace(init.X - 10.0, init.X + 400.0, init.Y + room,
                               init.Y - room)
        try:
            ps = generate_path_set(init, cap, space, tun,
                                   ("left", "right")[n % 2], {})
        except NoFeasiblePath:
            continue
        targets = []
        for i in range(int(rng.integers(1, 5))):
            path = ps.paths[int(rng.integers(len(ps.paths)))]
            k = int(rng.integers(len(path)))
            psi, speed = float(u(-math.pi, math.pi)), float(u(0.0, 20.0))
            tau = float(path.t[k])
            size = (float(u(0.0, 5.0)), float(u(0.0, 2.5)),
                    float(u(-1.0, 1.0)))
            targets.append(TargetTrack(
                f"t{i}", Footprint(*size),
                Pose(init.X + float(path.x[k]) - speed * tau * math.cos(psi)
                     + float(rng.normal(0.0, 2.0)),
                     init.Y + float(path.y[k]) - speed * tau * math.sin(psi)
                     + float(rng.normal(0.0, 2.0)), psi), speed))
        w = CostWeights(float(u(0.0, 1.0)), float(u(0.0, 1.0)),
                        float(u(-1.0, 1.0)))
        dt_check = float(rng.choice([0.02, 0.05, 0.1, 0.25, 1e300]))
        yield (ps, (init.X, init.Y), targets, space, fps[n % len(fps)], w,
               dt_check)
        n -= 1


class TestSharedPrediction:
    """rank_paths predicts the targets once per call, on the longest path's
    grid. Every check and cost must give the bits of the per-target
    references, which predict each target on each path's own samples."""

    def test_ranked_sets_match_the_references(self, monkeypatch):
        seen = Counter()
        check = ranking.check_paths

        def checked(paths, targets, fp, dt_check, X, Y, pred):
            key = ("check", fp, dt_check)
            served = [key in path.memo for path in paths]
            collides = check(paths, targets, fp, dt_check, X, Y, pred)
            assert len(collides) == len(paths)
            for path, got, was_served in zip(paths, collides, served):
                want = reference_collision_check(path, targets, fp, dt_check,
                                                 X, Y)
                assert got is want.collides
                assert collision_check(anchor_path(path, X, Y), targets, fp,
                                       dt_check) == want
                assert key in path.memo   # family paths are read-only
                seen["served"] += was_served
                seen["inscribed"] += want.resolved_inscribed
                seen["sat"] += want.sat_evaluations
                if got:
                    first = next(i for i in range(len(targets))
                                 if reference_collision_check(
                                     path, targets[:i + 1], fp, dt_check, X,
                                     Y).collides)
                    seen["later_hit"] += first > 0
            return collides

        monkeypatch.setattr(ranking, "check_paths", checked)
        for ps, (X, Y), targets, space, fp, w, dt_check in _draws():
            seen[f"targets={len(targets)}"] += 1
            seen["lengths"] += len({len(p) for p in ps.paths}) > 1
            # the second pass is served from the memo, with other weights
            for w in (w, CostWeights(2.0 * w.K_ay, 0.5 * w.K_ax, w.K_prox)):
                ranked = rank_paths(ps.paths, targets, space, fp, w,
                                    dt_check, X, Y)
                for r in ranked:
                    if r.rejected is not None:
                        continue
                    seen["survivor"] += 1
                    want = reference_proximity_cost(r.path, targets, w, X,
                                                    Y)
                    assert r.proximity.hex() == want.hex()
                    fresh = replace(r.path, t=r.path.t.copy())
                    assert r.severity.hex() == severity_cost(fresh, w).hex()
                    assert "severity" in r.path.memo and not fresh.memo
        assert {f"targets={k}" for k in range(1, 5)} <= set(seen)
        assert min(seen[k] for k in ("served", "inscribed", "sat",
                                     "later_hit", "lengths", "survivor")) > 0

    def test_suffix_paths_match_the_references(self):
        """A writeable suffix predicts on its own samples and keeps no
        memo."""
        hits = 0
        for ps, (X, Y), targets, _, fp, w, dt_check in _draws(n=60,
                                                               seed=2718):
            for path in ps.paths:
                placed = anchor_path(path, X, Y)
                suffix = placed.suffix_from(0.37 * float(path.t[-1]))
                for p in (placed, suffix):
                    got = collision_check(p, targets, fp, dt_check)
                    assert got == reference_collision_check(p, targets, fp,
                                                            dt_check)
                    assert (own_grid_cost(p, targets, w).hex()
                            == reference_proximity_cost(p, targets, w).hex())
                    assert not p.memo
                    hits += got.collides
        assert hits > 0

    def test_family_grids_are_multiples_of_the_step(self):
        """The shared prediction rests on every family path's grid being
        0.0 + dt_presample * k bit for bit: on both sides, from rest and
        from seeded mid-manoeuvre replan states, at several steps."""
        rng = np.random.default_rng(1618)
        space = DriveableSpace(-2e3, 2e3, 30.0, -30.0)
        grids = set()
        for k in range(40):
            v = float(rng.uniform(8.0, 30.0))
            braking = k % 3 == 0
            cap = CapabilityRecord(
                CapabilityScenario.STEER, -6.0 if braking else 0.0,
                float(rng.uniform(0.01, 0.05)), float(rng.uniform(0.15, 0.4)),
                0.8 * v if braking else v, t_pb=0.3 if braking else 0.0)
            init = (EgoState(v_x=v) if k < 4 else EgoState(
                X=float(rng.uniform(-1e3, 1e3)), Y=float(rng.uniform(-5, 5)),
                psi=float(rng.uniform(-0.15, 0.15)), v_x=v,
                yaw_rate=float(rng.uniform(-0.4, 0.4))))
            dt = (0.01, 0.005, 0.0025, 0.02, 0.003, 0.007)[k % 6]
            tun = PathTuning(psi_max=float(rng.uniform(0.2, 0.4)),
                             n_tot=int(rng.integers(1, 7)), dt_presample=dt,
                             y_offset=float(rng.choice([0.0, 0.4])))
            for side in ("left", "right"):
                try:
                    ps = generate_path_set(init, cap, space, tun, side, {})
                except NoFeasiblePath:
                    continue
                for path in ps.paths:
                    want = 0.0 + dt * np.arange(len(path.t))
                    assert path.t.tobytes() == want.tobytes()
                    grids.add((side, dt, len(path.t)))
        assert {side for side, *_ in grids} == {"left", "right"}
        assert len({dt for _, dt, _ in grids}) == 6 and len(grids) > 100

    def test_set_grid_must_be_shared(self):
        """Both sides' sets from one start point share one grid: every
        path's grid is a prefix of the longest path's, which a suffix's
        grid is not."""
        cap = CapabilityRecord(CapabilityScenario.STEER, 0.0, 0.0245, 0.25,
                               20.0)
        space = DriveableSpace(-10, 300, 4.0, -4.0)
        init = EgoState(X=12.5, Y=-0.25, v_x=20.0)
        paths = [p for side, n_tot in (("left", 6), ("right", 3))
                 for p in generate_path_set(init, cap, space,
                                            PathTuning(n_tot=n_tot), side,
                                            {}).paths]
        longest = max((p.t for p in paths), key=len)
        assert len({len(p.t) for p in paths}) > 1
        for p in paths:
            assert p.t.tobytes() == longest[:len(p.t)].tobytes()
        suffix = paths[-1].suffix_from(0.5)
        assert suffix.t.tobytes() != longest[:len(suffix.t)].tobytes()

    def test_union_joins_sides_on_the_longest_grid(self, scenario_dir,
                                                   monkeypatch):
        """A planner cycle ranks every side's paths in side order, at its
        start point, with the targets predicted once on the longest
        path's grid."""
        from aessim import simloop
        from aessim.scenario import load_scenario
        cfg = load_scenario(scenario_dir / "crossing_vru.yaml")
        sets, grids = [], []
        generate, pred = simloop.generate_path_set, ranking.predict

        def generated(*args):
            sets.append(generate(*args))
            return sets[-1]

        def predicted(targets, t):
            grids.append(t)
            return pred(targets, t)

        monkeypatch.setattr(simloop, "generate_path_set", generated)
        monkeypatch.setattr(ranking, "predict", predicted)
        ego = EgoState(X=12.5, Y=-0.25, v_x=cfg.ego.v_x)
        preds = [TargetTrack(td.track_id, td.footprint, td.pose, td.speed)
                 for td in cfg.targets]
        cycle = simloop.plan_cycle(ego, preds, cfg, CapabilityScenario.STEER,
                                   ["left", "right"], {})
        assert [ps.paths[0].side for ps in sets] == ["left", "right"]
        assert ([r.path for r in cycle.ranked]
                == [p for ps in sets for p in ps.paths])
        assert (cycle.X, cycle.Y) == (ego.X, ego.Y)
        assert len({len(p.t) for ps in sets for p in ps.paths}) > 1
        assert grids == [max((p.t for ps in sets for p in ps.paths),
                             key=len)]
        assert grids[0] is max((r.path.t for r in cycle.ranked), key=len)


class TestSelect:
    def test_single_survivor(self):
        ps, space = family()
        ranked = [RankedPath(path=p, rejected=REJECT_COLLISION)
                  for p in ps.paths[:-1]]
        ranked.append(RankedPath(path=ps.paths[-1], severity=1.0, total=1.0))
        assert best_survivor(ranked).path.index == ps.paths[-1].index

    def test_tie_breaks(self):
        ps, _ = family()
        a = RankedPath(path=ps.paths[0], severity=2.0, proximity=-1.0, total=1.0)
        b = RankedPath(path=ps.paths[1], severity=1.5, proximity=-0.5, total=1.0)
        assert best_survivor([a, b]).path.index == ps.paths[1].index
        c = RankedPath(path=ps.paths[2], severity=1.5, proximity=-0.5, total=1.0)
        assert best_survivor([b, c]).path.index == ps.paths[1].index

    def test_empty(self):
        assert best_survivor([]) is None

    @pytest.mark.parametrize("dt_fine", [0.01, 0.005])
    def test_places_a_fresh_path(self, dt_fine):
        """The selected path is placed at the cycle's start point in fresh
        arrays, bit for bit as a frame of heading 0 places it."""
        cap = CapabilityRecord(CapabilityScenario.STEER, 0.0, 0.0245, 0.25,
                               20.0)
        space = DriveableSpace(-50, 2000, 4.0, -4.0)
        # the right side's mirrored heading starts its samples at psi = -0.0
        for init, side in ((EgoState(X=1234.5678, Y=-0.7, v_x=20.0), "left"),
                           (EgoState(X=-3.3, Y=1.1, v_x=20.0), "right"),
                           (EgoState(v_x=20.0), "left")):
            ps = generate_path_set(init, cap, space, PathTuning(psi_max=0.2),
                                   side, {})
            best = rank_paths(ps.paths, [], space, FP, CostWeights(), 0.1,
                              init.X, init.Y)[0]
            placed = select_path(best.path, init.X, init.Y, dt_fine)
            assert all(placed is not p for p in ps.paths)
            assert placed.x.flags.writeable and placed.psi.flags.writeable
            assert (placed.path_id, placed.index, placed.side) \
                == (best.path.path_id, best.path.index, side)
            rel = best.path
            if abs(rel.dt - dt_fine) > 1e-12:
                rel = presample_profile(rel.profile, dt_fine)
            c, s = math.cos(0.0), math.sin(0.0)
            want = (init.X + rel.x * c - rel.y * s,
                    init.Y + rel.x * s + rel.y * c, rel.psi + 0.0)
            for got, ref in zip((placed.x, placed.y, placed.psi), want):
                assert ([v.hex() for v in got.tolist()]
                        == [v.hex() for v in ref.tolist()])

    def test_resamples_to_fine_grid(self):
        ps, _ = family()
        fine = select_path(ps.paths[2], 0.0, 0.0, dt_fine=0.005)
        assert fine.dt == pytest.approx(0.005)
        assert fine.x[0] == pytest.approx(ps.paths[2].x[0])
        assert fine.path_id == ps.paths[2].path_id


class TestMonitor:
    def test_unchanged_world_valid(self):
        ps, space = family()
        assert monitor_selected(ps.paths[2], [], space, FP) is None

    def test_shifted_prediction_invalidates(self):
        ps, space = family()
        path = ps.paths[2]
        t_mid = float(path.t[-1]) / 2
        mid = Pose(*(float(np.interp(t_mid, path.t, a))
                     for a in (path.x, path.y, path.psi)))
        blocker = TargetTrack("blk", Footprint(2.0, 2.0), mid)
        assert monitor_selected(path, [blocker], space, FP) == REJECT_COLLISION

    def test_suffix_is_checked_on_its_own_samples(self):
        """A suffix does not inherit the corner box of its family path."""
        ps, space = family()
        path = ps.paths[2]
        assert monitor_selected(path, [], space, FP) is None
        assert FP in path.memo
        tau = 1.0
        suffix = path.suffix_from(tau)
        assert not suffix.memo
        # only the dropped prefix starts behind x_start
        late_start = DriveableSpace(5.0, space.x_end, space.y_left,
                                    space.y_right)
        assert float(np.min(path.x[path.t >= tau])) - FP.length > 5.0
        assert (monitor_selected(path, [], late_start, FP)
                == REJECT_NOT_DRIVEABLE)
        assert monitor_selected(suffix, [], late_start, FP) is None
        # the remainder runs past x_end
        early_end = DriveableSpace(space.x_start, float(path.x[-1]),
                                   space.y_left, space.y_right)
        assert (monitor_selected(suffix, [], early_end, FP)
                == REJECT_NOT_DRIVEABLE)
        assert not suffix.memo

    def test_narrowed_space_invalidates(self):
        ps, _ = family()
        narrow = DriveableSpace(-10, 300, 0.95, -0.95)
        assert (monitor_selected(ps.paths[-1], [], narrow, FP)
                == REJECT_NOT_DRIVEABLE)
