import math
from dataclasses import fields, replace

import numpy as np
import pytest

from aessim.capability import (CapabilityRecord, CapabilityScenario,
                               CapabilityTuning, EgoState, lateral_capability)
from aessim.errors import InfeasibleProfile, NoFeasiblePath
from aessim.geometry import DriveableSpace
from aessim.pathgen import (CurvatureProfile, PathTuning, anchor_path,
                            build_max_severity_profile, generate_path_set,
                            presample_profile)


def make_cap(rho_max=0.1, rho_dot=0.2, v=20.0, a_x=0.0,
             scenario=CapabilityScenario.STEER, t_pb=0.0):
    return CapabilityRecord(scenario=scenario, a_x_min=a_x, rho_max=rho_max,
                            rho_dot_max=rho_dot, v_x_evasion=v, t_pb=t_pb)


def family_scale(ps, cap):
    """Corridor scale of a path set; the outermost path (n = n_tot) carries
    it alone."""
    return ps.paths[-1].profile.capability.rho_max / cap.rho_max


def rest_init(v=20.0):
    return EgoState(v_x=v)


class TestBreakpoints:
    def test_rho2_closed_form(self):
        tun = PathTuning(psi_max=0.2, t_stabilize=0.5)
        prof = build_max_severity_profile(rest_init(), make_cap(), tun)
        rho2 = prof.rhos[2]
        assert rho2 == pytest.approx(math.sqrt(0.2 * 0.2 / 20.0), rel=1e-12)
        assert rho2 == pytest.approx(0.04472, abs=1e-5)
        assert prof.times[2] - prof.times[1] == pytest.approx(rho2 / 0.2,
                                                              rel=1e-12)
        assert prof.times[2] - prof.times[1] == pytest.approx(0.2236, abs=1e-4)

    def test_rho2_matches_numeric_root(self):
        # independent bisection on psi_room/(rho*v) = rho/rho_dot
        tun = PathTuning(psi_max=0.2)
        prof = build_max_severity_profile(rest_init(), make_cap(), tun)

        def residual(rho):
            return 0.2 / (rho * 20.0) - rho / 0.2

        lo, hi = 1e-6, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if residual(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert prof.rhos[2] == pytest.approx(0.5 * (lo + hi), rel=1e-9)

    def test_clamped_branch_adds_plateau(self):
        tun = PathTuning(psi_max=0.2)
        prof = build_max_severity_profile(rest_init(), make_cap(rho_max=0.03),
                                          tun)
        assert prof.rhos[2] == pytest.approx(0.03, rel=1e-12)
        assert prof.times[3] > prof.times[2]
        # the plateau restores the full heading budget
        assert prof.heading_at(float(prof.times[4])) == pytest.approx(0.2,
                                                                      abs=1e-12)

    def test_unclamped_has_no_plateau(self):
        tun = PathTuning(psi_max=0.2)
        prof = build_max_severity_profile(rest_init(), make_cap(), tun)
        assert prof.times[3] == prof.times[2]

    def test_zero_headroom_degenerates(self):
        tun = PathTuning(psi_max=0.2)
        prof = build_max_severity_profile(
            EgoState(v_x=20.0, psi=0.2), make_cap(), tun)
        assert prof.rhos[2] == 0.0
        assert np.all(prof.rhos == 0.0)
        path = presample_profile(prof, 0.01)
        assert np.all(path.psi == pytest.approx(0.2))  # straight continuation

    def test_negative_headroom_raises(self):
        tun = PathTuning(psi_max=0.2)
        with pytest.raises(InfeasibleProfile):
            build_max_severity_profile(EgoState(v_x=20.0, psi=0.21),
                                       make_cap(), tun)

    def test_prebraking_initiation(self):
        cap = make_cap(a_x=-9.81, v=17.057,
                       scenario=CapabilityScenario.BRAKE_STEER, t_pb=0.3)
        tun = PathTuning(psi_max=0.2)
        prof = build_max_severity_profile(rest_init(20.0), cap, tun)
        assert prof.times[1] == pytest.approx(0.3)
        assert prof.vels[1] == pytest.approx(20.0 - 9.81 * 0.3, rel=1e-12)
        assert np.all(prof.vels[1:] == prof.vels[1])

    def test_no_prebraking_for_steer_only_rows(self, ref_params):
        cap = lateral_capability(CapabilityScenario.STEER, ref_params, 20.0,
                                 CapabilityTuning(t_pb=0.3))
        assert cap.t_pb == 0.0
        prof = build_max_severity_profile(rest_init(), cap,
                                          PathTuning(psi_max=0.2))
        assert prof.times[1] == 0.0

    def test_times_nondecreasing_and_rate_bound(self):
        tun = PathTuning(psi_max=0.2, y_offset=0.5)
        prof = build_max_severity_profile(rest_init(), make_cap(rho_max=0.03),
                                          tun)
        dt = np.diff(prof.times)
        drho = np.diff(prof.rhos)
        assert np.all(dt >= 0)
        rates = np.abs(drho[dt > 0] / dt[dt > 0])
        assert np.all(rates <= 0.2 * (1 + 1e-9))

    def test_stabilization_ratio(self):
        tun = PathTuning(psi_max=0.2, i_sb=0.5)
        prof = build_max_severity_profile(rest_init(), make_cap(rho_max=0.03),
                                          tun)
        assert abs(prof.rhos[6]) <= 0.5 * abs(prof.rhos[2]) + 1e-15
        assert prof.rhos[6] < 0  # counter-steer phase


class TestPresample:
    def test_straight_profile(self):
        prof = CurvatureProfile(times=np.array([0.0, 2.0]),
                                rhos=np.zeros(2), vels=np.full(2, 20.0),
                                psi0=0.0, direction="left")
        path = presample_profile(prof, 0.01)
        assert np.all(path.y == 0.0)
        assert np.all(path.psi == 0.0)
        assert path.x[-1] == pytest.approx(20.0 * path.t[-1], rel=1e-12)

    def test_constant_curvature_heading_telescopes(self):
        prof = CurvatureProfile(times=np.array([0.0, 1.0]),
                                rhos=np.full(2, 0.01), vels=np.full(2, 20.0),
                                psi0=0.0, direction="left")
        path = presample_profile(prof, 0.01)
        assert path.psi[-1] == pytest.approx(0.2, rel=1e-12)

    def test_refinement_oracle(self):
        # right-endpoint quadrature bias is first order in dt: the recursion
        # at dt differs from the dt=1e-4 reference by about sin(psi_end)*v*dt/2
        prof = CurvatureProfile(times=np.array([0.0, 1.0]),
                                rhos=np.full(2, 0.01), vels=np.full(2, 20.0),
                                psi0=0.0, direction="left")
        fine = presample_profile(prof, 1e-4).y[-1]
        bias = math.sin(0.2) * 20.0 * 0.01 / 2.0
        diff_01 = presample_profile(prof, 0.01).y[-1] - fine
        diff_005 = presample_profile(prof, 0.005).y[-1] - fine
        assert diff_01 == pytest.approx(bias, rel=0.05)
        assert diff_005 == pytest.approx(0.5 * diff_01, rel=0.05)
        assert abs(presample_profile(prof, 0.0025).y[-1] - fine) < 5e-3

    def test_sample_spacing_uniform(self):
        tun = PathTuning(psi_max=0.2)
        prof = build_max_severity_profile(rest_init(), make_cap(), tun)
        path = presample_profile(prof, 0.01)
        assert np.allclose(np.diff(path.t), 0.01)
        assert path.t[-1] >= prof.t9 - 1e-12


class TestPathSet:
    def corridor(self, y_left=3.25, y_right=-3.25):
        return DriveableSpace(-10, 300, y_left, y_right)

    def test_scale_factors(self):
        cap = make_cap(rho_max=0.0245)
        tun = PathTuning(psi_max=0.2, n_tot=4)
        ps = generate_path_set(rest_init(), cap, self.corridor(), tun, "left",
                               {})
        assert len(ps.paths) == 4
        scale = family_scale(ps, cap)
        for path in ps.paths:
            n = path.index
            f = scale * math.sqrt(n / 4)
            assert path.profile.capability.rho_max == f * cap.rho_max
            rebuilt = build_max_severity_profile(
                rest_init(), replace(cap, rho_max=f * cap.rho_max),
                replace(tun, psi_max=f * tun.psi_max), "left")
            assert np.array_equal(path.profile.times, rebuilt.times)
            assert np.array_equal(path.profile.rhos, rebuilt.rhos)

    def test_reference_family_stays_inside(self):
        cap = make_cap(rho_max=0.0245)
        tun = PathTuning(psi_max=0.2, n_tot=6)
        ps = generate_path_set(rest_init(), cap, self.corridor(), tun, "left",
                               {})
        for path in ps.paths:
            assert abs(path.terminal_offset) <= 3.25 + 1e-6

    def test_overflow_case_scales_down(self):
        cap = make_cap(rho_max=0.05)
        tun = PathTuning(psi_max=0.35, n_tot=6)
        wide = generate_path_set(rest_init(), cap, self.corridor(8.0, -8.0),
                                 tun, "left", {})
        y_severe = abs(presample_profile(
            build_max_severity_profile(rest_init(), cap, tun, "left"),
            tun.dt_presample).terminal_offset)
        narrow_space = self.corridor(0.5 * y_severe, -0.5 * y_severe)
        narrow = generate_path_set(rest_init(), cap, narrow_space, tun, "left",
                                   {})
        assert family_scale(narrow, cap) == pytest.approx(0.5)
        assert family_scale(wide, cap) == pytest.approx(1.0)

    def test_monotone_family(self):
        cap = make_cap(rho_max=0.0245)
        tun = PathTuning(psi_max=0.2, n_tot=6)
        ps = generate_path_set(rest_init(), cap, self.corridor(), tun, "left",
                               {})
        offsets = [abs(p.terminal_offset) for p in ps.paths]
        assert all(b > a for a, b in zip(offsets, offsets[1:]))

    def test_mirror_symmetry(self):
        cap = make_cap(rho_max=0.0245)
        tun = PathTuning(psi_max=0.2)
        left = build_max_severity_profile(rest_init(), cap, tun, "left")
        right = build_max_severity_profile(rest_init(), cap, tun, "right")
        assert np.array_equal(left.times, right.times)
        assert np.array_equal(left.rhos, -right.rhos)
        ly = presample_profile(left, 0.01).y
        ry = presample_profile(right, 0.01).y
        assert np.max(np.abs(ly + ry)) < 1e-12

    def test_min_clearance_rejected(self):
        cap = make_cap(rho_max=0.0245)
        tun = PathTuning(psi_max=0.2, min_lateral_clearance=1.0)
        with pytest.raises(NoFeasiblePath):
            generate_path_set(rest_init(), cap, self.corridor(0.5, -3.25),
                              tun, "left", {})

    def test_anchoring(self):
        cap = make_cap(rho_max=0.0245)
        tun = PathTuning(psi_max=0.2)
        init = EgoState(X=15.0, Y=-2.0, v_x=20.0)
        ps = generate_path_set(init, cap,
                               DriveableSpace(0, 300, 3.0, -6.0),
                               tun, "left", {})
        for path in ps.paths:
            assert (path.x[0], path.y[0]) == (0.0, 0.0)
            placed = anchor_path(path, init.X, init.Y)
            assert (placed.x[0], placed.y[0]) == (15.0, -2.0)


class TestReplan:
    def corridor(self):
        return DriveableSpace(-10, 300, 3.25, -3.25)

    def test_idempotent_at_initial_state(self):
        cap = make_cap(rho_max=0.0245)
        tun = PathTuning(psi_max=0.2)
        a = build_max_severity_profile(rest_init(), cap, tun, "left")
        ps = generate_path_set(rest_init(), cap, self.corridor(), tun, "left",
                               {})
        b = ps.paths[-1].profile  # outermost path carries the full budget
        assert np.max(np.abs(a.times - b.times)) < 1e-12
        assert np.max(np.abs(a.rhos - b.rhos)) < 1e-12

    def test_headroom_exhausted_side(self):
        cap = make_cap(rho_max=0.0245)
        tun = PathTuning(psi_max=0.2)
        mid = EgoState(v_x=20.0, psi=0.2)
        with pytest.raises(NoFeasiblePath):
            generate_path_set(mid, cap, self.corridor(), tun, "left", {})
        ps = generate_path_set(mid, cap, self.corridor(), tun, "right", {})
        assert len(ps.paths) >= 1

    def test_initial_curvature_continuity(self):
        cap = make_cap(rho_max=0.0245)
        tun = PathTuning(psi_max=0.25)
        mid = EgoState(v_x=20.0, psi=0.05, yaw_rate=0.3, Y=0.4)
        ps = generate_path_set(mid, cap, self.corridor(), tun, "left", {})
        for path in ps.paths:
            assert path.profile.rhos[0] == pytest.approx(0.3 / 20.0, abs=1e-15)
            assert path.rho[0] == pytest.approx(0.3 / 20.0, abs=1e-12)


class TestInvariantSuite:
    def test_randomized_profile_properties(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            cap = make_cap(rho_max=float(rng.uniform(0.005, 0.2)),
                           rho_dot=float(rng.uniform(0.05, 0.5)),
                           v=float(rng.uniform(5.0, 40.0)))
            tun = PathTuning(psi_max=float(rng.uniform(0.05, 0.5)),
                             i_sb=float(rng.uniform(0.3, 1.0)),
                             y_offset=float(rng.choice([0.0, rng.uniform(0, 2)])),
                             t_stabilize=float(rng.uniform(0.1, 1.0)))
            prof = build_max_severity_profile(EgoState(v_x=cap.v_x_evasion),
                                              cap, tun, "left")
            # curvature magnitude bound
            assert np.max(np.abs(prof.rhos)) <= cap.rho_max + 1e-12
            # rate bound between breakpoints
            dt = np.diff(prof.times)
            drho = np.diff(prof.rhos)
            mask = dt > 0
            assert np.all(np.abs(drho[mask] / dt[mask])
                          <= cap.rho_dot_max * (1 + 1e-9))
            # terminal alignment on the straight road
            assert abs(prof.heading_at(prof.t9)) <= 1e-6
            # heading bound at the sample instants
            for t in np.linspace(0.0, prof.t9, 40):
                assert abs(prof.heading_at(float(t))) \
                    <= tun.psi_max * (1 + 1e-6)


MEMO_SPACE = DriveableSpace(-10.0, 300.0, 3.25, -3.25)


def _outcome(args, side, families):
    """generate_path_set's result for (init, cap, tuning) in MEMO_SPACE with
    this family memo, or the NoFeasiblePath message; a fresh {} is cold."""
    init, cap, tun = args
    try:
        return generate_path_set(init, cap, MEMO_SPACE, tun, side, families)
    except NoFeasiblePath as exc:
        return str(exc)


def _assert_identical(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert len(got.paths) == len(want.paths)
    for p, q in zip(got.paths, want.paths):
        assert (p.path_id, p.index, p.side) == (q.path_id, q.index, q.side)
        for name in ("t", "x", "y", "psi", "rho", "v"):
            assert getattr(p, name).tobytes() == getattr(q, name).tobytes()
        for name in ("times", "rhos", "vels"):
            assert getattr(p.profile, name).tobytes() \
                == getattr(q.profile, name).tobytes()
        assert p.profile.psi0.hex() == q.profile.psi0.hex()


def _memo_base():
    init = EgoState(X=12.0, Y=0.3, psi=0.02, v_x=18.0, yaw_rate=0.01)
    # braking row, clamped curvature, offset stretch: every field matters
    cap = make_cap(rho_max=0.02, rho_dot=0.2, v=8.7, a_x=-9.3,
                   scenario=CapabilityScenario.BRAKE_STEER, t_pb=1.0)
    tun = PathTuning(psi_max=0.2, i_sb=0.8, rho_road=0.001,
                     y_offset=0.3, t_stabilize=0.5, n_tot=4,
                     dt_presample=0.01, min_lateral_clearance=1.0)
    return init, cap, tun


def _memo_variants():
    """(warm arguments, arguments) pairs: each changes one key input of the
    base by the least step."""
    init, cap, tun = base = _memo_base()
    out = []
    for f in fields(CapabilityRecord):
        value = getattr(cap, f.name)
        moved = (CapabilityScenario.STEER if f.name == "scenario"
                 else math.nextafter(value, math.inf))
        out.append(pytest.param(base,
                                (init, replace(cap, **{f.name: moved}), tun),
                                id=f"cap.{f.name}"))
    for f in fields(PathTuning):
        value = getattr(tun, f.name)
        moved = (value + 1 if isinstance(value, int)
                 else math.nextafter(value, math.inf))
        out.append(pytest.param(base,
                                (init, cap, replace(tun, **{f.name: moved})),
                                id=f"tuning.{f.name}"))
    for name in ("psi", "v_x", "yaw_rate"):
        moved = math.nextafter(getattr(init, name), math.inf)
        out.append(pytest.param(base,
                                (replace(init, **{name: moved}), cap, tun),
                                id=f"init.{name}"))
    for name in ("psi", "yaw_rate"):
        for a, b in ((0.0, -0.0), (-0.0, 0.0)):
            out.append(pytest.param((replace(init, **{name: a}), cap, tun),
                                    (replace(init, **{name: b}), cap, tun),
                                    id=f"init.{name}={a}->{b}"))
    return out


class TestFamilyMemo:
    """generate_path_set keeps the last origin-relative family per side in
    the memo it is given; a warm call must return exactly what a cold one
    does."""

    def test_warm_equals_cold_on_seeded_draws(self):
        rng = np.random.default_rng(77)
        families = {}
        scenarios = list(CapabilityScenario)
        for _ in range(60):
            v = float(rng.uniform(8.0, 30.0))
            init = EgoState(X=float(rng.uniform(0.0, 50.0)),
                            Y=float(rng.uniform(-2.5, 2.5)),
                            psi=float(rng.choice([0.0, rng.uniform(-0.2, 0.2)])),
                            v_x=v,
                            yaw_rate=float(rng.choice([0.0,
                                                       rng.uniform(-0.3, 0.3)])))
            scenario = scenarios[rng.integers(len(scenarios))]
            cap = make_cap(rho_max=float(rng.uniform(0.005, 0.1)),
                           rho_dot=float(rng.uniform(0.05, 0.5)), v=v,
                           a_x=-8.0 if scenario.pre_braking else 0.0,
                           scenario=scenario)
            t_pb = float(rng.choice([0.0, 0.2]))
            cap = replace(cap, t_pb=t_pb if scenario.pre_braking else 0.0)
            tun = PathTuning(psi_max=float(rng.uniform(0.05, 0.4)),
                             i_sb=float(rng.uniform(0.3, 1.0)),
                             y_offset=float(rng.choice([0.0, 0.5])),
                             t_stabilize=float(rng.uniform(0.0, 1.0)),
                             n_tot=int(rng.integers(1, 8)),
                             min_lateral_clearance=float(rng.uniform(0.5, 2.0)))
            side = str(rng.choice(["left", "right"]))
            # after the previous draw: a miss; then a repeat moved only in
            # X (a hit), then one whose corridor room and scale differ
            for moved in (init, replace(init, X=init.X + 2.0),
                          replace(init, Y=init.Y + 0.4)):
                args = (moved, cap, tun)
                warm = _outcome(args, side, families)
                _assert_identical(warm, _outcome(args, side, {}))

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("warm_args, args", _memo_variants())
    def test_every_key_field_misses(self, side, warm_args, args):
        families = {}
        _outcome(warm_args, side, families)
        stale = families[side]
        warm = _outcome(args, side, families)
        assert families[side] is not stale
        _assert_identical(warm, _outcome(args, side, {}))

    def test_shared_arrays_are_read_only(self):
        path = _outcome(_memo_base(), "left", {}).paths[0]
        for arr in (path.t, path.x, path.y, path.psi, path.rho, path.v,
                    path.profile.times, path.profile.rhos,
                    path.profile.vels):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_a_hit_returns_the_kept_paths_at_its_start_point(self):
        """A memo hit copies and builds nothing: a call from another start
        point returns the very set, of origin-relative paths."""
        init, cap, tun = _memo_base()
        families = {}
        first = _outcome((init, cap, tun), "left", families)
        moved = replace(init, X=init.X + 7.5)
        second = _outcome((moved, cap, tun), "left", families)
        assert second is first and len(first.paths) > 0
        for path in second.paths:
            assert (path.x[0], path.y[0]) == (0.0, 0.0)
            assert not (path.x.flags.writeable or path.y.flags.writeable
                        or path.psi.flags.writeable)

    def test_one_family_per_side(self):
        init, cap, tun = _memo_base()
        families = {}
        for k in range(12):
            side = ("left", "right")[k % 2]
            _outcome((replace(init, v_x=init.v_x + k), cap, tun), side,
                     families)
            assert set(families) <= {"left", "right"}
            for fam in families.values():
                assert len(fam.path_set.paths) <= tun.n_tot
