import dataclasses
import itertools
import math

import numpy as np
import pytest
from conftest import kernel_rows

from aessim.capability import EgoState
from aessim.decision import (AesState, SupervisorEvents, SupervisorState,
                             Trigger, TriggerConfig, compute_ttc, compute_tte,
                             evaluate_triggers, step_state_machine)
from aessim.geometry import (Footprint, Pose, TargetTrack,
                             first_contact_time, sat_check)
from aessim.pathgen import CurvatureProfile, SampledPath
from aessim.scenario import TargetDef

FP = Footprint(4.5, 1.8, ref_offset=1.35)


def profile_with_t8(t8: float, t9: float | None = None) -> CurvatureProfile:
    times = np.linspace(0.0, t8, 9)
    times = np.append(times, t9 if t9 is not None else t8 + 0.5)
    return CurvatureProfile(times=times, rhos=np.zeros(10),
                            vels=np.full(10, 20.0), psi0=0.0, direction="left")


def dummy_path() -> SampledPath:
    t = 0.01 * np.arange(100)
    return SampledPath(t=t, x=20 * t, y=0 * t, psi=0 * t, rho=0 * t,
                       v=np.full(100, 20.0))


class TestTte:
    def test_basic(self):
        cfg = TriggerConfig(tte_reduction=0.3)
        assert compute_tte(profile_with_t8(1.5), cfg) == pytest.approx(1.2)

    def test_floor(self):
        cfg = TriggerConfig(tte_reduction=2.0)
        assert compute_tte(profile_with_t8(1.5), cfg) == 0.0

    def test_recomputation(self):
        prof = profile_with_t8(1.234)
        cfg = TriggerConfig(tte_reduction=0.4)
        assert compute_tte(prof, cfg) == (prof.t8 - prof.times[0]) - 0.4


class TestTtc:
    def test_point_target_head_on(self):
        ego = EgoState(v_x=20.0)
        target = TargetTrack("pt", Footprint(0.0, 0.0), Pose(20.0, 0.0, 0.0))
        got = compute_ttc(ego, ego.v_x, kernel_rows([target]),
                          Footprint(0.0, 0.0), 5.0)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_laterally_clear(self):
        ego = EgoState(v_x=20.0)
        target = TargetTrack("side", Footprint(0.5, 0.5), Pose(40.0, 6.0, 0.0))
        assert compute_ttc(ego, ego.v_x, kernel_rows([target]), FP,
                           5.0) == math.inf

    def test_no_targets(self):
        assert compute_ttc(EgoState(v_x=20.0), 20.0, [], FP, 5.0) == math.inf

    def test_decreasing_while_closing(self):
        # receding start time against a static obstacle: TTC falls 1:1
        target_pose = Pose(80.0, 0.0, 0.0)
        prev = math.inf
        for x_ego in np.arange(0.0, 60.0, 5.0):
            target = TargetTrack("blk", Footprint(0.5, 0.5), target_pose)
            ego = EgoState(X=float(x_ego), v_x=20.0)
            ttc = compute_ttc(ego, ego.v_x, kernel_rows([target]), FP, 5.0)
            assert ttc < prev
            prev = ttc

    def test_crossing_car_sweep_against_dense_oracle(self):
        """A car crossing the no-action path at 15 m/s, offset along it from
        -12 to 12 m in 0.1 m steps. Wherever a 1 ms SAT oracle over 5 s sees
        contact, the TTC is finite and at most one oracle step early, plus
        the 1e-9 m contact slack (4e-11 s at this closing speed). A TTC
        sampled at 0.1 s missed 4 of these 148 contacts."""
        car_fp = Footprint(4.5, 1.8)
        ego = EgoState(v_x=20.0)
        t = 1e-3 * np.arange(5001)
        rc = FP.circumscribed_radius + car_fp.circumscribed_radius
        contacts = 0
        for off in [round(0.1 * k, 1) for k in range(-120, 121)]:
            car = TargetTrack("car", car_fp,
                              Pose(40.0 + off, -30.0, math.pi / 2), 15.0)
            ttc = compute_ttc(ego, ego.v_x, kernel_rows([car]), FP, 5.0)
            # the oracle runs SAT only where the bounding circles meet
            vx, vy = car.velocity
            near = np.hypot(car.pose.X + vx * t - (20.0 * t + FP.ref_offset),
                            car.pose.Y + vy * t) <= rc + 1e-6
            first = next((tk for tk in t[near].tolist()
                          if sat_check(Pose(20.0 * tk, 0.0, 0.0), FP,
                                       car.pose_at(tk), car_fp)), None)
            if first is not None:
                contacts += 1
                assert first - 1e-3 - 1e-9 <= ttc <= first, off
        assert contacts == 148

    def test_equals_the_per_target_minimum_bit_for_bit(self):
        """The ego's corners and own-axis projections are formed once per
        call; the result must be the bits of the minimum over per-target
        first_contact_time calls."""
        rng = np.random.default_rng(41)
        u = rng.uniform
        finite = 0
        for _ in range(3000):
            psi = float(rng.choice([u(-0.5, 0.5), 0.0, -0.0, math.pi / 2]))
            ego = EgoState(X=float(u(-1e3, 1e3)), Y=float(u(-50.0, 50.0)),
                           psi=psi, v_x=float(u(1.0, 30.0)))
            fp = Footprint(float(u(0.0, 5.0)), float(u(0.0, 2.5)),
                           float(u(-1.5, 1.5)))
            targets = []
            for i in range(int(rng.integers(1, 5))):
                tpsi = float(rng.choice([u(-math.pi, math.pi), 0.0, -0.0,
                                         psi]))
                ahead = float(u(0.0, 60.0))
                targets.append(TargetTrack(
                    f"t{i}", Footprint(float(u(0.0, 5.0)),
                                       float(u(0.0, 2.5)),
                                       float(u(-1.0, 1.0))),
                    Pose(ego.X + ahead * math.cos(psi) + float(u(-3.0, 3.0)),
                         ego.Y + ahead * math.sin(psi) + float(u(-3.0, 3.0)),
                         tpsi), float(u(0.0, 20.0))))
            vel = (ego.v_x * math.cos(psi), ego.v_x * math.sin(psi))
            want = min(first_contact_time(Pose(ego.X, ego.Y, psi), fp, vel,
                                          tr.pose, tr.footprint, tr.velocity,
                                          4.0) for tr in targets)
            got = compute_ttc(ego, ego.v_x, kernel_rows(targets), fp, 4.0)
            assert got.hex() == want.hex()
            finite += math.isfinite(got)
        assert 300 < finite < 2700   # both verdicts well exercised
        # rows as the loop forms them: track_at's floats and the run's
        # cos/sin of a heading, before, at and after a speed change
        tds = [TargetDef("m", Footprint(4.6, 1.9, 1.3), Pose(30.0, 0.4, 0.02),
                         10.0, maneuver_time=1.5, maneuver_speed=2.0),
               TargetDef("c", Footprint(4.4, 1.8, 1.2),
                         Pose(20.0, -3.3, -0.008), 14.4)]
        ego = EgoState(X=1.0, Y=0.1, psi=0.01, v_x=20.0)
        vel = (ego.v_x * math.cos(ego.psi), ego.v_x * math.sin(ego.psi))
        for t in (1.0, tds[0].maneuver_time, 2.0):
            rows, tracks = [], []
            for td in tds:
                c, s = math.cos(td.pose.psi), math.sin(td.pose.psi)
                X, Y, speed = td.track_at(t)
                rows.append((X, Y, td.footprint, c, s, speed * c, speed * s))
                tracks.append(TargetTrack(td.track_id, td.footprint,
                                          Pose(X, Y, td.pose.psi), speed))
            want = min(first_contact_time(Pose(ego.X, ego.Y, ego.psi), FP,
                                          vel, tr.pose, tr.footprint,
                                          tr.velocity, 4.0) for tr in tracks)
            got = compute_ttc(ego, ego.v_x, rows, FP, 4.0)
            assert math.isfinite(got) and got.hex() == want.hex()

    def test_traffic_scene_forms_only_the_ego_corners(self, formed_corners):
        """With cars 3.25 m to each side and a walker on the sidewalk, all
        parallel to the ego, the broad phase clears every target on the
        ego's lateral axis: no target's corners are formed."""
        car = Footprint(4.5, 1.8)
        targets = [
            TargetTrack("left_car", car, Pose(20.0, 3.25, 0.0), 14.8),
            TargetTrack("right_car", car, Pose(30.0, -3.25, 0.0), 14.6),
            TargetTrack("walker", Footprint(0.5, 0.5),
                        Pose(60.0, -6.375, 0.0), 1.2)]
        ego = EgoState(X=0.0, Y=0.0, psi=0.0, v_x=22.0)
        assert compute_ttc(ego, ego.v_x, kernel_rows(targets), FP,
                           5.0) == math.inf
        assert formed_corners == [FP]


class TestTriggers:
    CFG = TriggerConfig(t_margin=0.2, t_warning=0.3, tte_reduction=0.0)

    def test_engage_window(self):
        assert evaluate_triggers(1.3, 1.2, self.CFG) is Trigger.ENGAGE

    def test_warning_band(self):
        assert evaluate_triggers(1.6, 1.2, self.CFG) is Trigger.WARN

    def test_inf_ttc(self):
        assert evaluate_triggers(math.inf, 1.2, self.CFG) is Trigger.NONE

    def test_window_missed_stays_warn(self):
        assert evaluate_triggers(0.5, 1.2, self.CFG) is Trigger.WARN

    def test_boundaries(self):
        assert evaluate_triggers(1.2, 1.2, self.CFG) is Trigger.ENGAGE
        assert evaluate_triggers(1.4, 1.2, self.CFG) is Trigger.ENGAGE
        assert evaluate_triggers(1.7, 1.2, self.CFG) is Trigger.WARN
        assert evaluate_triggers(1.71, 1.2, self.CFG) is Trigger.NONE


class TestStateMachine:
    def test_standby_to_monitoring(self):
        s = SupervisorState(AesState.STANDBY)
        out = step_state_machine(s, SupervisorEvents(targets_present=True))
        assert out.state is AesState.MONITORING

    def test_monitoring_back_to_standby(self):
        s = SupervisorState(AesState.MONITORING)
        out = step_state_machine(s, SupervisorEvents(targets_present=False))
        assert out.state is AesState.STANDBY

    def test_monitoring_to_warning_requires_candidate(self):
        s = SupervisorState(AesState.MONITORING)
        ev = SupervisorEvents(targets_present=True, trigger=Trigger.WARN)
        assert step_state_machine(s, ev).state is AesState.MONITORING
        ev.candidate_path = dummy_path()
        out = step_state_machine(s, ev)
        assert out.state is AesState.WARNING
        assert out.selected_path is None  # a path is held only in regulation

    def test_engage_passes_through_warning(self):
        s = SupervisorState(AesState.MONITORING)
        ev = SupervisorEvents(targets_present=True, trigger=Trigger.ENGAGE,
                              candidate_path=dummy_path())
        out = step_state_machine(s, ev)
        assert out.state is AesState.WARNING

    def test_warning_to_in_regulation(self):
        path = dummy_path()
        s = SupervisorState(AesState.WARNING)
        ev = SupervisorEvents(targets_present=True, trigger=Trigger.ENGAGE,
                              candidate_path=path)
        out = step_state_machine(s, ev)
        assert out.state is AesState.IN_REGULATION
        assert out.selected_path is path

    def test_warning_relaxes_to_monitoring(self):
        s = SupervisorState(AesState.WARNING)
        out = step_state_machine(s, SupervisorEvents(targets_present=True,
                                                     trigger=Trigger.NONE))
        assert out.state is AesState.MONITORING
        assert out.selected_path is None

    def test_engage_without_candidate_aborts(self):
        s = SupervisorState(AesState.WARNING)
        ev = SupervisorEvents(targets_present=True, trigger=Trigger.ENGAGE)
        out = step_state_machine(s, ev)
        assert out.state is AesState.ABORTED

    def test_regulation_completion(self):
        s = SupervisorState(AesState.IN_REGULATION, selected_path=dummy_path())
        out = step_state_machine(s, SupervisorEvents(targets_present=True,
                                                     manoeuvre_complete=True))
        assert out.state is AesState.MONITORING

    def test_regulation_replanned_substitution(self):
        old = dummy_path()
        new = dummy_path()
        s = SupervisorState(AesState.IN_REGULATION, selected_path=old)
        ev = SupervisorEvents(targets_present=True, path_valid=False,
                              replanned_path=new)
        out = step_state_machine(s, ev)
        assert out.state is AesState.IN_REGULATION
        assert out.selected_path is new

    def test_regulation_replanning_failure_aborts(self):
        s = SupervisorState(AesState.IN_REGULATION, selected_path=dummy_path())
        ev = SupervisorEvents(targets_present=True, path_valid=False)
        out = step_state_machine(s, ev)
        assert out.state is AesState.ABORTED
        assert out.abort_reason == "replanning failed"

    def test_illegal_engage_while_standby(self):
        s = SupervisorState(AesState.STANDBY)
        ev = SupervisorEvents(targets_present=True, trigger=Trigger.ENGAGE)
        out = step_state_machine(s, ev)
        assert out.state is AesState.STANDBY  # event rejected wholesale

    def test_illegal_regulation_event_while_monitoring(self):
        s = SupervisorState(AesState.MONITORING)
        ev = SupervisorEvents(targets_present=True, manoeuvre_complete=True)
        assert step_state_machine(s, ev).state is AesState.MONITORING

    def test_exhaustive_closure_and_determinism(self):
        states = list(AesState)
        path, candidate, replanned = dummy_path(), dummy_path(), dummy_path()
        bools = (False, True)
        count = 0
        for state in states:
            base = SupervisorState(
                state,
                selected_path=path if state is AesState.IN_REGULATION else None,
                abort_reason="x" if state is AesState.ABORTED else None)
            for combo in itertools.product(bools, list(Trigger), bools, bools,
                                           bools, bools):
                tp, trig, pv, cand, repl, done = combo
                ev = SupervisorEvents(
                    targets_present=tp, trigger=trig, path_valid=pv,
                    candidate_path=candidate if cand else None,
                    replanned_path=replanned if repl else None,
                    manoeuvre_complete=done)
                out1 = step_state_machine(base, ev)
                out2 = step_state_machine(base, ev)
                assert out1.state in states
                assert out1.state == out2.state
                assert (out1.selected_path is None) == \
                    (out1.state is not AesState.IN_REGULATION)
                unchanged = (out1.state is base.state
                             and out1.selected_path is base.selected_path
                             and out1.abort_reason == base.abort_reason)
                assert (out1 is base) == unchanged
                if state is AesState.ABORTED:
                    assert out1 is base  # absorbing
                count += 1
        assert count == len(states) * 2**5 * len(Trigger) == 480

    def test_state_is_frozen(self):
        s = SupervisorState(AesState.IN_REGULATION, selected_path=dummy_path())
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.selected_path = None
