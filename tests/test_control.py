import math
from dataclasses import replace

import numpy as np
import pytest

from aessim.capability import VehicleParams
from aessim.control import (ControllerConfig, ControlMode, TrackingErrors,
                            allocate_brakes, brake_feedforward_gain,
                            braking_gains, control_step, feedback_gains,
                            path_to_vehicle_frame, steady_state_slip,
                            steering_feedforward_gain, steering_gains,
                            tracking_errors, understeer_gradient)
from aessim.errors import PathExhausted
from aessim.pathgen import SampledPath
from aessim.plant import PlantState


def make_params(**kw):
    base = dict(m=2000.0, a=1.4, b=1.6, w=1.6, C_f=1e5, C_r=1e5,
                I_zz=3500.0, delta_max=0.3)
    base.update(kw)
    return VehicleParams(**base)


def straight_local_path(n=80, v=20.0, dt=0.01, y=0.0):
    t = dt * np.arange(n)
    return SampledPath(t=t, x=v * t - 0.4, y=np.full(n, y), psi=np.zeros(n),
                       rho=np.zeros(n), v=np.full(n, v))


def error_model(params, u):
    """Augmented tracking-error model, built independently of the module."""
    c_f, c_r = -params.C_f, -params.C_r
    m, izz, a, b = params.m, params.I_zz, params.a, params.b
    P = (c_f + c_r) / m
    Q = (a * c_f - b * c_r) / m
    R = (a * c_f - b * c_r) / izz
    S = (a * a * c_f + b * b * c_r) / izz
    A = np.array([[0, 1, 0, 0],
                  [0, P / u, -P, Q / u],
                  [0, 0, 0, 1],
                  [0, R / u, -R, S / u]])
    bd = np.array([0, c_f / m, 0, a * c_f / izz])
    bm = np.array([0, 0, 0, -1 / izz])
    av = np.array([[P / u, Q / u - u], [R / u, S / u]])
    return A, bd, bm, av


def command(err, plant, p, cfg):
    """control_step with the gains at the plant's speed."""
    return control_step(err, plant, p, cfg,
                        feedback_gains(p, plant.u_v, cfg))


def errors_at(path, plant):
    """tracking_errors of path with the plant state as the ego pose."""
    return tracking_errors(path, path_to_vehicle_frame(path, plant), plant)


def lateral_at(path, j, plant):
    """The vehicle-frame lateral coordinate and heading of sample j:
    tracking_errors at a longitudinal coordinate whose only zero is j."""
    probe = np.ones(len(path))
    probe[j] = 0.0
    err = tracking_errors(path, probe, plant)
    return err.y_e, err.psi_e


def reference_errors(path, plant):
    """tracking_errors through a vehicle-frame copy of the whole path
    (reference)."""
    c, s = math.cos(plant.psi), math.sin(plant.psi)
    dx = path.x - plant.X
    dy = path.y - plant.Y
    local = replace(path, x=dx * c + dy * s, y=-dx * s + dy * c,
                    psi=path.psi - plant.psi)
    i = int(np.argmin(np.abs(local.x)))
    if i >= len(local) - 1:
        raise PathExhausted("match point reached the final sample")
    y_e = float(local.y[i])
    psi_e = math.remainder(float(local.psi[i]), 2.0 * math.pi)
    kappa = float(local.rho[i])
    u = plant.u_v
    return TrackingErrors(y_e=y_e, y_e_dot=u * psi_e - plant.v_v,
                          psi_e=psi_e, psi_e_dot=u * kappa - plant.r,
                          kappa=kappa)


class TestFrameTransform:
    """path_to_vehicle_frame forms each sample's vehicle-frame longitudinal
    coordinate; tracking_errors forms the lateral coordinate and heading
    at the match point."""

    def test_identity(self):
        path = straight_local_path(y=0.7)
        plant = PlantState(u_v=20.0)
        x_v = path_to_vehicle_frame(path, plant)
        assert np.array_equal(x_v, path.x)
        i = int(np.argmin(np.abs(path.x)))
        assert lateral_at(path, i, plant) == (path.y[i], path.psi[i])

    def test_translation(self):
        path = straight_local_path()
        plant = PlantState(u_v=20.0, X=1.0, Y=2.0)
        x_v = path_to_vehicle_frame(path, plant)
        assert np.allclose(x_v, path.x - 1.0)
        for j in range(len(path) - 1):
            assert lateral_at(path, j, plant)[0] == pytest.approx(
                path.y[j] - 2.0)

    def test_quarter_turn(self):
        # the sample (1, 0) lies on the right of an ego at the origin facing
        # +y, level with it
        path = SampledPath(t=0.01 * np.arange(3), x=np.ones(3),
                           y=np.array([-1.0, 0.0, 1.0]), psi=np.zeros(3),
                           rho=np.zeros(3), v=np.full(3, 20.0))
        plant = PlantState(u_v=20.0, psi=math.pi / 2)
        x_v = path_to_vehicle_frame(path, plant)
        assert x_v[1] == pytest.approx(0.0, abs=1e-15)
        err = tracking_errors(path, x_v, plant)
        assert err.y_e == pytest.approx(-1.0)
        assert err.psi_e == pytest.approx(-math.pi / 2)

    def test_isometry(self):
        rng = np.random.default_rng(5)
        n = 40
        path = SampledPath(t=0.01 * np.arange(n),
                           x=rng.normal(size=n), y=rng.normal(size=n),
                           psi=rng.normal(size=n), rho=np.zeros(n),
                           v=np.full(n, 20.0))
        plant = PlantState(u_v=20.0, X=3.0, Y=-2.0, psi=0.8)
        x_v = path_to_vehicle_frame(path, plant)
        y_v = np.array([lateral_at(path, j, plant)[0]
                        for j in range(n - 1)])
        d_in = np.hypot(np.diff(path.x[:-1]), np.diff(path.y[:-1]))
        d_out = np.hypot(np.diff(x_v[:-1]), np.diff(y_v))
        assert np.max(np.abs(d_in - d_out)) < 1e-12


class TestTrackingErrors:
    def test_on_path_zero_errors(self):
        plant = PlantState(u_v=20.0)
        err = errors_at(straight_local_path(), plant)
        assert err.y_e == 0.0
        assert err.y_e_dot == 0.0
        assert err.psi_e == 0.0
        assert err.psi_e_dot == 0.0

    def test_pure_lateral_offset(self):
        plant = PlantState(u_v=20.0)
        err = errors_at(straight_local_path(y=1.0), plant)
        assert err.y_e == 1.0
        assert err.y_e_dot == 0.0
        assert err.psi_e == 0.0
        assert err.psi_e_dot == 0.0

    def test_derivative_inversions(self):
        plant = PlantState(u_v=20.0, v_v=0.5, r=0.1)
        path = straight_local_path()
        path.rho[:] = 0.02
        err = errors_at(path, plant)
        assert err.y_e_dot == pytest.approx(20.0 * err.psi_e - 0.5)
        assert err.psi_e_dot == pytest.approx(20.0 * 0.02 - 0.1)

    def test_path_exhausted(self):
        path = straight_local_path()
        path.x = path.x - 50.0  # path entirely behind the vehicle
        with pytest.raises(PathExhausted):
            errors_at(path, PlantState(u_v=20.0))

    def test_equals_a_vehicle_frame_copy_bit_for_bit(self):
        """Placed paths and ego poses, headings near +-pi included: every
        error has the bits of the errors read off a vehicle-frame copy of
        the whole path, and the path is exhausted in the same cases."""
        rng = np.random.default_rng(35)
        u = rng.uniform
        exhausted = near_pi = 0
        for _ in range(500):
            n = int(rng.integers(1, 200))
            dt = 0.01
            h0 = float(rng.choice([u(-math.pi, math.pi),
                                   math.pi - u(0.0, 1e-3),
                                   -math.pi + u(0.0, 1e-3)]))
            psi = h0 + np.cumsum(np.full(n, u(-0.02, 0.02)))
            speed = u(1.0, 30.0)
            x = float(u(-1e3, 1e3)) + np.cumsum(speed * dt * np.cos(psi))
            y = float(u(-50.0, 50.0)) + np.cumsum(speed * dt * np.sin(psi))
            path = SampledPath(t=dt * np.arange(n), x=x, y=y, psi=psi,
                               rho=rng.normal(0.0, 0.01, size=n),
                               v=np.full(n, speed))
            j = int(rng.integers(n + n // 4))   # now and then past the end
            k = min(j, n - 1)
            ego_psi = math.remainder(float(psi[k]) + u(-0.1, 0.1),
                                     2.0 * math.pi)
            near_pi += abs(ego_psi) > math.pi - 0.2
            along = speed * dt * (j - k) + u(-0.3, 0.3)
            plant = PlantState(
                u_v=speed, v_v=u(-0.5, 0.5), r=u(-0.3, 0.3),
                X=float(x[k]) + along * math.cos(psi[k]) + u(-1.0, 1.0),
                Y=float(y[k]) + along * math.sin(psi[k]) + u(-1.0, 1.0),
                psi=ego_psi)
            try:
                want = reference_errors(path, plant)
            except PathExhausted:
                exhausted += 1
                with pytest.raises(PathExhausted):
                    errors_at(path, plant)
                continue
            got = errors_at(path, plant)
            for name in ("y_e", "y_e_dot", "psi_e", "psi_e_dot", "kappa"):
                assert getattr(got, name).hex() == getattr(want,
                                                           name).hex()
        assert 0 < exhausted < 250 and near_pi > 50


class TestFeedforward:
    def test_zero_curvature(self):
        p = make_params()
        args = (p.m, p.l, p.a, p.b, -p.C_f, -p.C_r)
        assert steering_feedforward_gain(0.0, 20.0, *args) == 0.0
        assert brake_feedforward_gain(0.0, 0.0, 20.0, *args) == 0.0

    def test_understeer_gradient_printed_form(self):
        # formula-level check with the stiffness values as given
        kd = understeer_gradient(2000.0, 3.0, 1.4, 1.6, 1e5, 1e5)
        assert kd == pytest.approx((2000.0 / 3.0) * (1.4e-5 - 1.6e-5),
                                   rel=1e-12)
        assert kd == pytest.approx(-1.3333e-3, abs=1e-7)
        dff = steering_feedforward_gain(0.01, 20.0, 2000.0, 3.0, 1.4, 1.6,
                                        1e5, 1e5)
        assert dff == pytest.approx((-0.53333 + 3.0) * 0.01, abs=1e-7)
        assert dff == pytest.approx(0.024667, abs=1e-6)

    def test_brake_ff_zero_when_steering_matches(self):
        p = make_params()
        c_f, c_r = -p.C_f, -p.C_r
        dff = steering_feedforward_gain(0.01, 20.0, p.m, p.l, p.a, p.b,
                                        c_f, c_r)
        m = brake_feedforward_gain(dff, 0.01, 20.0, p.m, p.l, p.a, p.b,
                                   c_f, c_r)
        assert m == pytest.approx(0.0, abs=1e-9)

    def test_mode_shapes(self):
        # with zero errors on a curve the command is the feedforward alone
        p = make_params()
        err = TrackingErrors(0, 0, 0, 0, kappa=0.01)
        cmd = command(err, PlantState(u_v=20.0), p, ControllerConfig(
            mode=ControlMode.STEERING_ONLY))
        assert cmd.M_z_ext == 0.0 and cmd.delta_g != 0.0
        cmd = command(err, PlantState(u_v=20.0), p, ControllerConfig(
            mode=ControlMode.DIFF_BRAKE_ONLY))
        assert cmd.delta_g == 0.0 and cmd.M_z_ext != 0.0


class TestGains:
    def test_moment_yaw_rate_gain_example(self):
        k = braking_gains(20.0, -2.0, -2.0, 2000.0, 3500.0, 3.0, 1.4, 1.6,
                          1e5, 1e5)
        assert k[3] == pytest.approx(-3500.0 * (-4.0), rel=1e-12)
        assert k[3] == 14000.0

    def test_steering_position_gain_example(self):
        k = steering_gains(20.0, -2.0, -2.0, 2000.0, 3500.0, 3.0, 1.4, 1.6,
                           1e5, 1e5)
        assert k[0] == pytest.approx((0.0075 - 0.0013333333) * 4.0, abs=1e-9)
        assert k[0] == pytest.approx(0.0246667, abs=1e-6)

    def test_pole_preservation_both_rows(self):
        p = make_params()
        u, s1, s2 = 20.0, -3.0, -5.0
        A, bd, bm, av = error_model(p, u)
        want = np.sort_complex(np.concatenate(
            [[s1, s2], np.linalg.eigvals(av)]))
        cfg = ControllerConfig(sigma_1=s1, sigma_2=s2)
        k = feedback_gains(p, u, cfg)
        for row, b in ((k[0], bd), (k[1], bm)):
            got = np.sort_complex(np.linalg.eigvals(A + np.outer(b, row)))
            assert np.allclose(got, want, rtol=1e-7)

    def test_mode_zeroes_rows(self):
        p = make_params()
        k = feedback_gains(p, 20.0, ControllerConfig(
            mode=ControlMode.STEERING_ONLY))
        assert np.all(k[1] == 0.0) and np.any(k[0] != 0.0)
        k = feedback_gains(p, 20.0, ControllerConfig(
            mode=ControlMode.DIFF_BRAKE_ONLY))
        assert np.all(k[0] == 0.0) and np.any(k[1] != 0.0)


class TestControlStep:
    def test_zero_errors_straight_path(self):
        p = make_params()
        err = TrackingErrors(0, 0, 0, 0, kappa=0.0)
        cmd = command(err, PlantState(u_v=20.0), p, ControllerConfig())
        assert cmd.delta_g == 0.0
        assert cmd.M_z_ext == 0.0
        assert cmd.brakes.fl == cmd.brakes.fr == 0.0

    def test_equilibrium_on_circle_gives_pure_feedforward(self):
        # at the steady-circle state (crab angle matching the curvature) the
        # feedback vanishes and the command equals the feedforward
        p = make_params()
        u, kappa = 20.0, 0.01
        c_f, c_r = -p.C_f, -p.C_r
        d_ff = steering_feedforward_gain(kappa, u, p.m, p.l, p.a, p.b,
                                         c_f, c_r)
        v_ss = steady_state_slip(kappa, u, d_ff, p)
        err = TrackingErrors(y_e=0.0, y_e_dot=u * (v_ss / u) - v_ss,
                             psi_e=v_ss / u, psi_e_dot=0.0, kappa=kappa)
        plant = PlantState(u_v=u, v_v=v_ss, r=u * kappa)
        cmd = command(err, plant, p,
                           ControllerConfig(mode=ControlMode.STEERING_ONLY))
        assert cmd.delta_g == pytest.approx(d_ff, abs=1e-12)

    def test_saturation(self):
        p = make_params(delta_max=0.05)
        err = TrackingErrors(5.0, 0, 0, 0, kappa=0.0)
        cmd = command(err, PlantState(u_v=20.0), p, ControllerConfig())
        assert abs(cmd.delta_g) == 0.05

    def test_diff_brake_only_does_not_steer(self):
        p = make_params()
        err = TrackingErrors(1.0, 0, 0, 0, kappa=0.0)
        cmd = command(err, PlantState(u_v=20.0), p, ControllerConfig(
            mode=ControlMode.DIFF_BRAKE_ONLY))
        assert cmd.delta_g == 0.0
        assert cmd.M_z_ext != 0.0


class TestErrorDerivativeOracle:
    def test_finite_difference_rederivation(self):
        # closed-loop tracking of an evasive path: re-derive the body
        # velocities from consecutive logged poses and push them through the
        # kinematic inversions; the reported derivatives must agree
        from aessim.capability import (CapabilityRecord, CapabilityScenario,
                                       EgoState)
        from aessim.pathgen import (PathTuning, build_max_severity_profile,
                                    presample_profile)
        from aessim.plant import plant_step

        p = make_params(delta_max=0.15)
        cap = CapabilityRecord(CapabilityScenario.STEER_DIFF, 0.0, 0.017,
                               0.25, 20.0)
        prof = build_max_severity_profile(EgoState(v_x=20.0), cap,
                                          PathTuning(psi_max=0.18), "right")
        path = presample_profile(prof, 0.01)
        cfg = ControllerConfig(sigma_1=-12.0, sigma_2=-12.0,
                               brake_force_max=1.2e4)
        plant = PlantState(u_v=20.0)
        log = []
        for _ in range(int(prof.duration / 0.01) - 5):
            err = errors_at(path, plant)
            log.append((plant.X, plant.Y, plant.psi, err.y_e_dot,
                        err.psi_e_dot, err.psi_e, err.kappa))
            cmd = command(err, plant, p, cfg)
            plant = plant_step(plant, cmd, p, 0.0, 0.001, 10)
        X, Y, psi, yds, psids, psis, kappas = map(np.array, zip(*log))
        dt = 0.01
        v_fd = (-np.sin(psi[1:-1]) * (X[2:] - X[:-2])
                + np.cos(psi[1:-1]) * (Y[2:] - Y[:-2])) / (2 * dt)
        r_fd = (psi[2:] - psi[:-2]) / (2 * dt)
        e_yd = np.abs(20.0 * psis[1:-1] - v_fd - yds[1:-1])
        e_psid = np.abs(20.0 * kappas[1:-1] - r_fd - psids[1:-1])
        # the central difference smears the actuation jerk at the curvature
        # ramp corners; compare away from the breakpoint instants
        t_mid = dt * (1 + np.arange(len(e_yd)))
        near_corner = np.zeros(len(e_yd), dtype=bool)
        for tb in prof.times:
            near_corner |= np.abs(t_mid - tb) < 0.08
        smooth = ~near_corner
        assert smooth.sum() > 0.5 * len(e_yd)
        assert np.max(e_yd[smooth]) < 1e-3
        assert np.max(e_psid[smooth]) < 1e-3


class TestAllocation:
    def test_zero_moment(self):
        forces = allocate_brakes(0.0, make_params(), ControllerConfig())
        assert forces == type(forces)()

    def test_positive_moment_brakes_left(self):
        p = make_params()  # w = 1.6
        cfg = ControllerConfig(i_f=0.7, i_r=0.3)
        forces = allocate_brakes(1000.0, p, cfg)
        assert forces.fl == pytest.approx(875.0)
        assert forces.rl == pytest.approx(375.0)
        assert forces.fr == forces.rr == 0.0
        assert forces.induced_moment(p.w) == pytest.approx(1000.0, abs=1e-9)

    def test_negative_moment_mirrors(self):
        p = make_params()
        cfg = ControllerConfig(i_f=0.7, i_r=0.3)
        forces = allocate_brakes(-1000.0, p, cfg)
        assert forces.fr == pytest.approx(875.0)
        assert forces.rr == pytest.approx(375.0)
        assert forces.fl == forces.rl == 0.0
        assert forces.induced_moment(p.w) == pytest.approx(-1000.0, abs=1e-9)

    def test_round_trip_randomized(self):
        p = make_params()
        cfg = ControllerConfig(i_f=0.6, i_r=0.4)
        rng = np.random.default_rng(17)
        for m in rng.uniform(-2e4, 2e4, size=200):
            forces = allocate_brakes(float(m), p, cfg)
            assert forces.induced_moment(p.w) == pytest.approx(float(m),
                                                               abs=1e-9)
            assert min(forces.fl, forces.fr, forces.rl, forces.rr) >= 0.0

    def test_per_wheel_cap(self):
        p = make_params()
        cfg = ControllerConfig(i_f=0.7, i_r=0.3, brake_force_max=500.0)
        forces = allocate_brakes(1e5, p, cfg)
        assert forces.fl == 500.0 and forces.rl == 500.0
        assert forces.induced_moment(p.w) == pytest.approx(800.0)

    def test_command_carries_achieved_moment(self):
        p = make_params()
        cfg = ControllerConfig(brake_force_max=500.0)
        err = TrackingErrors(3.0, 0, 0, 0, kappa=0.0)
        cmd = command(err, PlantState(u_v=20.0), p, cfg)
        assert cmd.M_z_ext == pytest.approx(
            cmd.brakes.induced_moment(p.w), abs=1e-9)
