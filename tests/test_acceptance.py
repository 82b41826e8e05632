"""Acceptance suite: every release criterion at its stated tolerance.

Run with -s to see one PASS line per criterion.
"""
import math
import time

import numpy as np
import pytest

from aessim.capability import (CapabilityRecord, CapabilityScenario, EgoState,
                               VehicleParams, lateral_capability)
from aessim.control import ControllerConfig, braking_gains, feedback_gains, \
    steering_gains
from aessim.geometry import (DriveableSpace, Footprint, Pose,
                             circumscribed_check, inscribed_check, sat_check)
from aessim.pathgen import (PathTuning, build_max_severity_profile,
                            generate_path_set, presample_profile)
from aessim.scenario import load_scenario
from aessim.simloop import run_scenario

CORPUS = ["crossing_vru", "replanning", "stalled_car", "blocked_lane",
          "empty_road"]


@pytest.fixture(scope="module")
def reference_run(scenario_dir):
    cfg = load_scenario(scenario_dir / "crossing_vru.yaml")
    t0 = time.monotonic()
    result = run_scenario(cfg)
    elapsed = time.monotonic() - t0
    return cfg, result, elapsed


class TestCriterion1Reproduction:
    def test_crossing_vru_avoided_to_the_right(self, reference_run):
        cfg, res, elapsed = reference_run
        s = res.summary
        assert s["outcome"] == "avoided"
        assert s["engage_side"] == "right"
        assert elapsed < 10.0
        # engage guard identity on the logged values
        assert s["engage_tte"] <= s["engage_ttc"] \
            <= s["engage_tte"] + s["t_margin"]
        # engage TTC near the reported reference value under default tuning
        assert abs(s["engage_ttc"] - 0.42) <= 0.2
        print(f"\nPASS criterion 1: outcome=avoided side=right "
              f"engage_ttc={s['engage_ttc']:.3f} s "
              f"(guard [{s['engage_tte']:.3f}, "
              f"{s['engage_tte'] + s['t_margin']:.3f}]), "
              f"runtime {elapsed:.2f} s")


class TestCriterion2BrakingComparison:
    def test_pure_braking_cannot_stop_in_the_gap(self, reference_run):
        cfg, res, _ = reference_run
        s = res.summary
        gap = s["engage_distances"]["vru"]
        stopping = s["engage_speed"] ** 2 / (2.0 * 11.0)
        assert stopping > gap
        print(f"PASS criterion 2: stopping distance {stopping:.1f} m exceeds "
              f"engage gap {gap:.1f} m")


class TestCriterion3TrackingFidelity:
    def test_lateral_error_bound(self, reference_run):
        _, res, _ = reference_run
        assert res.summary["max_abs_ye"] <= 0.02
        print(f"PASS criterion 3: max |y_e| = "
              f"{res.summary['max_abs_ye']:.4f} m <= 0.02 m")


class TestCriterion4PolePlacement:
    @staticmethod
    def error_model(params, u):
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

    def test_randomized_pole_preservation(self):
        rng = np.random.default_rng(42)
        checked = 0
        for trial in range(100):
            a = float(rng.uniform(1.0, 1.6))
            b = a + float(rng.uniform(0.05, 0.5))
            c_f = float(rng.uniform(5e4, 1.5e5))
            c_r = c_f * float(rng.uniform(1.0, 1.5))
            params = VehicleParams(
                m=float(rng.uniform(1000, 2500)), a=a, b=b,
                w=1.6, C_f=c_f, C_r=c_r,
                I_zz=float(rng.uniform(1500, 5000)))
            u = float(rng.uniform(5.0, 40.0))
            A, bd, bm, av = self.error_model(params, u)

            if trial % 4 == 3:  # conjugate pair via the formula layer
                re = float(rng.uniform(-6.0, -0.5))
                im = float(rng.uniform(0.2, 4.0))
                s1, s2 = complex(re, im), complex(re, -im)
                args = (u, s1, s2, params.m, params.I_zz, params.l,
                        params.a, params.b, -params.C_f, -params.C_r)
                rows = [np.real(steering_gains(*args)),
                        np.real(braking_gains(*args))]
            else:
                s1 = float(rng.uniform(-8.0, -0.5))
                s2 = (s1 if trial % 4 == 2
                      else float(rng.uniform(-8.0, -0.5)))
                k = feedback_gains(params, u,
                                   ControllerConfig(sigma_1=s1, sigma_2=s2))
                rows = [k[0], k[1]]

            want = np.sort_complex(np.concatenate(
                [[s1, s2], np.linalg.eigvals(av)]))
            for row, col in zip(rows, (bd, bm)):
                got = np.sort_complex(np.linalg.eigvals(A + np.outer(col,
                                                                     row)))
                assert np.allclose(got, want, rtol=1e-6, atol=1e-6), \
                    (trial, got, want)
            checked += 1
        assert checked == 100
        print("PASS criterion 4: 100 randomized closed loops preserve "
              "{sigma1, sigma2, vehicle poles} within 1e-6 on both rows")


class _Rects:
    """N rectangles without reference offset, with their corners computed in
    the float operations of Footprint.corners."""

    def __init__(self, x, y, psi, length, width):
        self.x, self.y = np.asarray(x), np.asarray(y)
        self.c = np.array([math.cos(p) for p in psi])
        self.s = np.array([math.sin(p) for p in psi])
        self.half_l = 0.5 * np.asarray(length)
        self.half_w = 0.5 * np.asarray(width)
        c, s = self.c[:, None], self.s[:, None]
        hl, hw = self.half_l[:, None], self.half_w[:, None]
        lx = np.hstack([hl, -hl, -hl, hl])
        ly = np.hstack([hw, hw, -hw, -hw])
        self.cx = (self.x[:, None] + lx * c) - ly * s   # (N, 4)
        self.cy = (self.y[:, None] + lx * s) + ly * c

    def axes(self):
        return ((self.c, self.s), (-self.s, self.c))


def _sat_margin(a: _Rects, b: _Rects) -> np.ndarray:
    """Signed overlap margin per pair: positive penetration, negative
    separation."""
    worst = np.full(len(a.x), math.inf)
    for ax, ay in a.axes() + b.axes():
        pa = a.cx * ax[:, None] + a.cy * ay[:, None]
        pb = b.cx * ax[:, None] + b.cy * ay[:, None]
        overlap = (np.minimum(pa.max(axis=1), pb.max(axis=1))
                   - np.maximum(pa.min(axis=1), pb.min(axis=1)))
        worst = np.minimum(worst, overlap)
    return worst


def _inside(b: _Rects, pair, px, py) -> np.ndarray:
    """Point membership of points (px, py) in rectangle b[pair]; pair
    broadcasts against the points."""
    dx = px - b.x[pair]
    dy = py - b.y[pair]
    c, s = b.c[pair], b.s[pair]
    lx = dx * c + dy * s
    ly = -dx * s + dy * c
    return (np.abs(lx) <= b.half_l[pair]) & (np.abs(ly) <= b.half_w[pair])


def _edge_hits(a: _Rects, b: _Rects, pairs, spacing, block=32_768):
    """The pairs where a point on an edge of a lies inside b. Each edge
    carries max(2, ceil(len / spacing)) points, placed as np.linspace
    places them; edges run in blocks of similar point count."""
    p0x, p0y = a.cx[pairs], a.cy[pairs]                        # (M, 4)
    ex = (np.roll(p0x, -1, axis=1) - p0x).ravel()
    ey = (np.roll(p0y, -1, axis=1) - p0y).ravel()
    p0x, p0y = p0x.ravel(), p0y.ravel()
    # np.linalg.norm of an edge is the square root of a dot product
    e = np.stack([ex, ey], axis=1)
    length = np.sqrt((e[:, None, :] @ e[:, :, None])[:, 0, 0])
    n = np.maximum(2, np.ceil(length / spacing)).astype(int)
    pair = np.repeat(pairs, 4)
    hit = np.zeros(len(a.x), dtype=bool)
    order = np.argsort(n, kind="stable")
    start = 0
    while start < len(order):
        stop = start + max(1, block // n[order[start]])
        rows = order[start:stop]
        last = n[rows, None] - 1
        j = np.arange(last.max() + 1)
        # shorter edges of the block repeat their end point
        frac = np.where(j >= last, 1.0, j * (1.0 / last))
        px = p0x[rows, None] + frac * ex[rows, None]
        py = p0y[rows, None] + frac * ey[rows, None]
        inside = _inside(b, pair[rows, None], px, py)
        hit[pair[rows][inside.any(axis=1)]] = True
        start = stop
    return hit


def _oracle_overlap(a: _Rects, b: _Rects, spacing=0.004) -> np.ndarray:
    """Dense point-membership oracle (edge points, corners and centres) for
    every pair; corners and centres run first, edge points only for the
    pairs they leave clear."""
    hit = np.zeros(len(a.x), dtype=bool)
    for p, q in ((a, b), (b, a)):
        px = np.hstack([p.cx, p.x[:, None]])   # corners and centre
        py = np.hstack([p.cy, p.y[:, None]])
        hit |= _inside(q, np.arange(len(p.x))[:, None], px, py).any(axis=1)
    for p, q in ((a, b), (b, a)):
        clear = np.nonzero(~hit)[0]
        hit[clear] |= _edge_hits(p, q, clear, spacing)[clear]
    return hit


class TestCriterion5GeometryOracle:
    N = 100_000

    def test_sat_against_point_membership(self):
        rng = np.random.default_rng(7)
        lengths = rng.uniform(0.3, 5.0, size=(self.N, 2))
        widths = rng.uniform(0.3, 3.0, size=(self.N, 2))
        psis = rng.uniform(-math.pi, math.pi, size=(self.N, 2))
        bearing = rng.uniform(-math.pi, math.pi, size=self.N)
        dist_frac = rng.uniform(0.0, 1.3, size=self.N)

        sound_violations = 0
        hits = np.zeros(self.N, dtype=bool)
        poses_b = []
        for i in range(self.N):
            fa = Footprint(float(lengths[i, 0]), float(widths[i, 0]))
            fb = Footprint(float(lengths[i, 1]), float(widths[i, 1]))
            pa = Pose(0.0, 0.0, float(psis[i, 0]))
            r = dist_frac[i] * (fa.circumscribed_radius
                                + fb.circumscribed_radius)
            pb = Pose(float(r * math.cos(bearing[i])),
                      float(r * math.sin(bearing[i])), float(psis[i, 1]))
            poses_b.append((pb.X, pb.Y))

            hit = sat_check(pa, fa, pb, fb)
            if circumscribed_check(pa, fa, pb, fb) and hit:
                sound_violations += 1
            if inscribed_check(pa, fa, pb, fb) and not hit:
                sound_violations += 1
            hits[i] = hit

        # the margin and the oracle run on all pairs at once
        xb, yb = np.array(poses_b).T
        a = _Rects(np.zeros(self.N), np.zeros(self.N), psis[:, 0].tolist(),
                   lengths[:, 0], widths[:, 0])
        b = _Rects(xb, yb, psis[:, 1].tolist(), lengths[:, 1], widths[:, 1])
        kept = np.abs(_sat_margin(a, b)) >= 0.01
        excluded = int(self.N - kept.sum())
        oracle = _oracle_overlap(a, b)
        mismatches = int(np.sum(hits[kept] != oracle[kept]))

        assert sound_violations == 0
        assert mismatches == 0
        assert excluded < self.N // 20
        print(f"PASS criterion 5: SAT matches the point-membership oracle on "
              f"{self.N - excluded} pairs ({excluded} inside the 1 cm guard "
              f"band); circle filters sound on all {self.N}")


class TestCriterion6PathProperties:
    def test_randomized_profile_suite(self):
        rng = np.random.default_rng(2025)
        wide = DriveableSpace(-20, 900, 60.0, -60.0)
        families = 0
        for trial in range(1000):
            rho_max = float(rng.uniform(0.005, 0.2))
            rho_dot = float(rng.uniform(0.05, 0.5))
            v = float(rng.uniform(5.0, 40.0))
            cap = CapabilityRecord(CapabilityScenario.STEER, 0.0, rho_max,
                                   rho_dot, v)
            tun = PathTuning(
                psi_max=float(rng.uniform(0.05, 0.5)),
                i_sb=float(rng.uniform(0.3, 1.0)),
                y_offset=float(rng.choice([0.0, rng.uniform(0.0, 2.0)])),
                t_stabilize=float(rng.uniform(0.1, 1.0)),
                n_tot=4, min_lateral_clearance=0.1)
            init = EgoState(v_x=v)
            left = build_max_severity_profile(init, cap, tun, "left")

            assert np.max(np.abs(left.rhos)) <= rho_max + 1e-12
            dt = np.diff(left.times)
            drho = np.diff(left.rhos)
            mask = dt > 0
            assert np.all(np.abs(drho[mask] / dt[mask])
                          <= rho_dot * (1.0 + 1e-9))
            assert abs(left.heading_at(left.t9)) <= 1e-6

            right = build_max_severity_profile(init, cap, tun, "right")
            assert np.array_equal(left.rhos, -right.rhos)

            if trial % 10 == 0:
                ly = presample_profile(left, 0.01).y
                ry = presample_profile(right, 0.01).y
                assert float(np.max(np.abs(ly + ry))) < 1e-12
                ps = generate_path_set(init, cap, wide, tun, "left", {})
                offsets = [abs(p.terminal_offset) for p in ps.paths]
                assert all(b2 > a2 for a2, b2 in zip(offsets, offsets[1:]))
                families += 1
        assert families == 100
        print("PASS criterion 6: 1000 randomized profiles satisfy curvature, "
              "rate, terminal-alignment, monotone-family and mirror bounds")


class TestCriterion7ReplanningClosure:
    def test_prediction_shift_triggers_replan(self, scenario_dir):
        res = run_scenario(load_scenario(scenario_dir / "replanning.yaml"))
        s = res.summary
        assert s["outcome"] == "avoided"
        events = res.trace.replan_events
        assert len(events) >= 1
        first = events[0]
        assert first["reason"] == "collision"
        assert first["t"] > s["engage_time"]
        assert abs(first["rho0_path"] - first["rho0_plant"]) <= 1e-9
        assert any(ev[1] == "replan" for ev in res.trace.path_events)
        print(f"PASS criterion 7: invalidation at t={first['t']:.2f} s, "
              f"replanned rho0 continuity "
              f"{abs(first['rho0_path'] - first['rho0_plant']):.2e}, "
              f"outcome avoided")


class TestCriterion8FresnelConvergence:
    def test_halving_dt_presample(self, scenario_dir):
        cfg = load_scenario(scenario_dir / "crossing_vru.yaml")
        cap = lateral_capability(cfg.cap_scenario, cfg.vehicle, cfg.ego.v_x,
                                 cfg.cap_tuning)
        prof = build_max_severity_profile(cfg.ego, cap, cfg.path_tuning,
                                          "right")
        dt = cfg.path_tuning.dt_presample
        a = presample_profile(prof, dt)
        b = presample_profile(prof, dt / 2.0)
        shift = math.hypot(a.x[-1] - b.x[-1], a.y[-1] - b.y[-1])
        assert shift < 5e-3
        print(f"PASS criterion 8: halving dt_presample from {dt} moves the "
              f"terminal point by {shift:.2e} m < 5e-3 m")


class TestCriterion9Determinism:
    @pytest.mark.parametrize("name", CORPUS)
    def test_byte_identical_reruns(self, scenario_dir, tmp_path, name):
        from aessim.trace import emit_plot_data
        cfg = load_scenario(scenario_dir / f"{name}.yaml")
        files = {}
        for tag in ("a", "b"):
            res = run_scenario(cfg)
            files[tag] = res.trace.write(tmp_path / tag)
            files[tag].update(emit_plot_data(res.trace, tmp_path / tag))
        for key in ("trace", "paths", "summary", "planar", "timeseries",
                    "actuation"):
            assert files["a"][key].read_bytes() == files["b"][key].read_bytes()
        print(f"PASS criterion 9 [{name}]: byte-identical rerun")
