import math
from dataclasses import replace

import numpy as np
import pytest

from aessim.capability import (G, CapabilityScenario, CapabilityTuning,
                               VehicleParams, diff_braking_curvature,
                               friction_curvature_limit, lateral_capability,
                               longitudinal_capability,
                               prebraking_speed, steering_curvature,
                               threshold_curvature_limit)
from aessim.errors import DegenerateSpeed
from aessim.scenario import load_scenario


def make_params(**kw):
    base = dict(m=2000.0, a=1.4, b=1.6, w=1.6, C_f=1e5, C_r=1e5,
                I_zz=3500.0, delta_max=0.1)
    base.update(kw)
    return VehicleParams(**base)


class TestLongitudinal:
    def test_full_friction_gives_minus_g(self):
        p = make_params(mu_f=1.0, mu_r=1.0, S_f=1.0, S_r=1.0)
        assert longitudinal_capability(p) == pytest.approx(-9.81, abs=1e-12)

    def test_zero_friction(self):
        p = make_params(mu_f=0.0, mu_r=0.0)
        assert longitudinal_capability(p) == 0.0

    def test_rear_axle_only(self):
        # front brakes out: only the rear static load b/(a+b)*m*g decelerates
        p = make_params(S_f=0.0, S_r=1.0, mu_r=1.0)
        expected = -(1.6 / 3.0) * 9.81
        got = longitudinal_capability(p)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(-5.232, abs=1e-9)

    @pytest.mark.parametrize("S_f, expected", [
        (1.0, "-0x1.39eb851eb851fp+3"), (0.0, "-0x1.4ed916872b021p+2")])
    def test_shipped_vehicle_bits(self, scenario_dir, S_f, expected):
        # pinned bits: the planner's braking limit must not move
        p = load_scenario(scenario_dir / "crossing_vru.yaml").vehicle
        assert longitudinal_capability(replace(p, S_f=S_f)).hex() == expected


class TestLateral:
    def test_steering_only_saturated_by_friction(self):
        p = make_params()
        tun = CapabilityTuning(rho_dot_max=0.2)
        rec = lateral_capability(CapabilityScenario.STEER, p, 20.0, tun)
        raw = steering_curvature(p, 20.0)
        assert raw == pytest.approx(0.1 / (3.0 + 8.0 / 9.81), rel=1e-12)
        assert raw == pytest.approx(0.02621, abs=1e-5)
        assert rec.rho_max == pytest.approx(9.81 / 400.0, rel=1e-12)
        assert rec.v_x_evasion == 20.0
        assert rec.a_x_min == 0.0

    def test_steering_low_speed_limit(self):
        p = make_params()
        got = steering_curvature(p, 0.01)
        assert got == pytest.approx(p.delta_max / p.l, rel=1e-3)

    def test_diff_braking_raw_and_saturation(self):
        p = make_params()
        raw = diff_braking_curvature(p, 10.0)
        num = 1.6 * 2e5 * 1.0 * 2000.0 * 9.81
        den = 4.0 * (1e10 - 2000.0 * 100.0 * (1.6e5 - 1.4e5))
        assert num == pytest.approx(6.2784e9, rel=1e-12)
        assert den == pytest.approx(2.4e10, rel=1e-12)
        assert raw == pytest.approx(num / den, rel=1e-12)
        assert raw == pytest.approx(0.2616, abs=1e-4)
        rec = lateral_capability(CapabilityScenario.DIFF, p,
                                 10.0, CapabilityTuning())
        assert rec.rho_max == pytest.approx(0.0981, abs=1e-6)

    def test_diff_braking_denominator_flip_gives_inf(self):
        # above the critical speed the steady-state relation stops binding
        p = make_params()
        assert diff_braking_curvature(p, 20.0) == math.inf
        rec = lateral_capability(CapabilityScenario.DIFF, p,
                                 20.0, CapabilityTuning())
        assert rec.rho_max == pytest.approx(friction_curvature_limit(p, 20.0))

    def test_prebraking_speed_example(self):
        p = make_params()
        tun = CapabilityTuning(t_pb=0.3)
        rec = lateral_capability(CapabilityScenario.BRAKE_STEER, p, 20.0, tun)
        assert rec.v_x_evasion == pytest.approx(20.0 - 9.81 * 0.3, abs=1e-12)
        assert rec.v_x_evasion == pytest.approx(17.057, abs=1e-9)
        assert rec.a_x_min == pytest.approx(-9.81, abs=1e-9)

    def test_degenerate_speed(self):
        p = make_params()
        with pytest.raises(DegenerateSpeed):
            lateral_capability(CapabilityScenario.BRAKE_STEER, p,
                               3.0, CapabilityTuning(t_pb=1.0))

    def test_zero_v_min_still_guards_a_stopped_evasion(self):
        p = make_params()
        with pytest.raises(ValueError, match="v_min"):
            CapabilityTuning(v_min=-0.1)
        with pytest.raises(DegenerateSpeed):
            lateral_capability(CapabilityScenario.BRAKE_STEER, p,
                               3.0,
                               CapabilityTuning(t_pb=1.0, v_min=0.0))

    def test_threshold_saturation(self):
        p = make_params()
        tun = CapabilityTuning(a_y_threshold=4.0)
        rec = lateral_capability(CapabilityScenario.STEER, p, 20.0, tun)
        assert rec.rho_max == pytest.approx(4.0 / 400.0, rel=1e-12)
        assert rec.rho_max == threshold_curvature_limit(4.0, rec.v_x_evasion)


class TestTable:
    def test_zero_friction_zeroes_everything(self):
        p = make_params(mu_f=0.0, mu_r=0.0)
        for scenario in CapabilityScenario:
            rec = lateral_capability(scenario, p, 20.0,
                                     CapabilityTuning(t_pb=0.3))
            assert rec.a_x_min == 0.0
            assert rec.rho_max == 0.0

    def test_combined_is_sum_of_raw_terms(self):
        # at low speed neither saturation binds, so the record carries the
        # exact sum of the two raw terms
        p = make_params()
        v = 5.0
        rec = lateral_capability(CapabilityScenario.STEER_DIFF, p,
                                 v, CapabilityTuning())
        assert rec.rho_max == steering_curvature(p, v) + \
            diff_braking_curvature(p, v)
        rec4 = lateral_capability(CapabilityScenario.STEER, p,
                                  v, CapabilityTuning())
        assert rec.rho_max >= rec4.rho_max

    def test_table_row_marked_unavailable(self):
        p = make_params()
        for scenario in CapabilityScenario:
            args = (scenario, p, 2.0, CapabilityTuning(t_pb=1.0))
            if scenario.value <= 3:
                with pytest.raises(DegenerateSpeed):
                    lateral_capability(*args)
            else:
                assert lateral_capability(*args).v_x_evasion == 2.0

    def test_prebraking_velocity_used_for_rows_1_to_3(self):
        p = make_params()
        for scenario in CapabilityScenario:
            rec = lateral_capability(scenario, p, 20.0,
                                     CapabilityTuning(t_pb=0.3))
            if scenario.value <= 3:
                assert rec.v_x_evasion == pytest.approx(17.057, abs=1e-9)
            else:
                assert rec.v_x_evasion == 20.0

    @pytest.mark.parametrize("scenario, bare",
                             [(1, 4), (2, 5), (3, 6), (4, 4), (5, 5), (6, 6)])
    def test_without_prebraking_keeps_the_actuators(self, scenario, bare):
        scenario = CapabilityScenario(scenario)
        got = scenario.without_prebraking
        assert got is CapabilityScenario(bare)
        assert not got.pre_braking
        assert (got.steering, got.diff_braking) == \
            (scenario.steering, scenario.diff_braking)


class TestProperties:
    def test_saturation_bounds_hold(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = make_params(mu_f=float(rng.uniform(0.2, 1.2)),
                            mu_r=float(rng.uniform(0.2, 1.2)))
            tun = CapabilityTuning(t_pb=float(rng.uniform(0, 0.4)),
                                   a_y_threshold=float(rng.uniform(2, 12)))
            scenario = CapabilityScenario(int(rng.integers(1, 7)))
            v = float(rng.uniform(8, 35))
            try:
                rec = lateral_capability(scenario, p, v, tun)
            except DegenerateSpeed:
                continue
            v_e = rec.v_x_evasion
            assert rec.rho_max <= p.mu_min * G / v_e**2 + 1e-12
            assert rec.rho_max <= tun.a_y_threshold / v_e**2 + 1e-12
            assert rec.a_x_min <= 0.0
            assert rec.rho_max >= 0.0

    def test_prebraking_monotonicity(self):
        # longer pre-braking lowers speed and so raises the friction bound
        p = make_params()
        prev = 0.0
        for t_pb in np.linspace(0.0, 1.0, 11):
            a_x = longitudinal_capability(p)
            v_e = prebraking_speed(a_x, float(t_pb), 25.0)
            bound = friction_curvature_limit(p, v_e)
            assert bound >= prev - 1e-15
            prev = bound
