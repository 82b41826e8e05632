import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from conftest import (kernel_rows, reference_collision_check,
                      reference_contact_time, reference_corners,
                      reference_driveable, reference_ttc)
from hypothesis import given, settings
from hypothesis import strategies as st

from aessim.capability import (CapabilityScenario, CapabilityTuning, EgoState,
                               lateral_capability)
from aessim.decision import compute_ttc
from aessim.errors import DegenerateSpeed, NoFeasiblePath
from aessim.geometry import (CONTACT_SLACK, DriveableSpace, Footprint, Pose,
                             TargetTrack, _sat_overlap, check_paths,
                             circumscribed_check, collision_check,
                             driveable_area_check, first_contact_time,
                             inscribed_check, predict, sat_check)
from aessim.pathgen import (PathTuning, SampledPath, anchor_path,
                            generate_path_set)


def straight_path(n=101, v=20.0, dt=0.05, y=0.0, psi=0.0):
    t = dt * np.arange(n)
    return SampledPath(t=t, x=v * t * math.cos(psi), y=y + v * t * math.sin(psi),
                       psi=np.full(n, psi), rho=np.zeros(n), v=np.full(n, v))


def oracle_rect_overlap(pose_a, fp_a, pose_b, fp_b, spacing=0.005):
    """Dense point-membership intersection oracle, independent of the SAT."""
    def edge_points(pose, fp):
        corners = fp.corners(pose)
        pts = [corners, np.array([fp.center(pose)])]
        for i in range(4):
            p0, p1 = corners[i], corners[(i + 1) % 4]
            n = max(2, int(np.ceil(np.linalg.norm(p1 - p0) / spacing)))
            frac = np.linspace(0.0, 1.0, n)[:, None]
            pts.append(p0 + frac * (p1 - p0))
        return np.vstack(pts)

    def inside(points, pose, fp):
        cx, cy = fp.center(pose)
        c, s = math.cos(pose.psi), math.sin(pose.psi)
        dx = points[:, 0] - cx
        dy = points[:, 1] - cy
        lx = dx * c + dy * s
        ly = -dx * s + dy * c
        return np.any((np.abs(lx) <= fp.length / 2 + 1e-12)
                      & (np.abs(ly) <= fp.width / 2 + 1e-12))

    return bool(inside(edge_points(pose_a, fp_a), pose_b, fp_b)
                or inside(edge_points(pose_b, fp_b), pose_a, fp_a))


def numpy_corners(pose, fp):
    """The array corner formula the scalar kernel replaced (reference)."""
    cx, cy = fp.center(pose)
    hl, hw = 0.5 * fp.length, 0.5 * fp.width
    c, s = math.cos(pose.psi), math.sin(pose.psi)
    local = np.array([(hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)])
    out = np.empty_like(local)
    out[:, 0] = cx + local[:, 0] * c - local[:, 1] * s
    out[:, 1] = cy + local[:, 0] * s + local[:, 1] * c
    return out


def numpy_sat(pose_a, fp_a, pose_b, fp_b):
    """The array SAT formula the scalar kernel replaced (reference)."""
    ca, cb = numpy_corners(pose_a, fp_a), numpy_corners(pose_b, fp_b)
    for psi in (pose_a.psi, pose_b.psi):
        c, s = math.cos(psi), math.sin(psi)
        for ax, ay in ((c, s), (-s, c)):
            da = ca[:, 0] * ax + ca[:, 1] * ay
            db = cb[:, 0] * ax + cb[:, 1] * ay
            if float(da.max()) < float(db.min()) or float(db.max()) < float(da.min()):
                return False
    return True


class TestFootprint:
    def test_radii(self):
        fp = Footprint(4.5, 1.8)
        assert fp.circumscribed_radius == pytest.approx(0.5 * math.hypot(4.5, 1.8))
        assert fp.inscribed_radius == pytest.approx(0.9)

    def test_zero_size_allowed(self):
        fp = Footprint(0.0, 0.0)
        assert fp.circumscribed_radius == 0.0

    def test_corners_with_offset(self):
        fp = Footprint(4.0, 2.0, ref_offset=1.0)
        c = fp.corners(Pose(0.0, 0.0, 0.0))
        assert c[:, 0].max() == pytest.approx(3.0)
        assert c[:, 0].min() == pytest.approx(-1.0)
        assert c[:, 1].max() == pytest.approx(1.0)


class TestDriveableSpace:
    def test_straight_path_in_lane(self):
        space = DriveableSpace(-10, 120, 1.625, -1.625)
        fp = Footprint(4.5, 1.8, ref_offset=1.35)
        assert driveable_area_check(straight_path(), space, fp)

    def test_offset_path_leaves_lane(self):
        space = DriveableSpace(-10, 120, 1.625, -1.625)
        fp = Footprint(4.5, 1.8, ref_offset=1.35)
        assert not driveable_area_check(straight_path(y=2.0), space, fp)

    def test_path_past_last_station_not_driveable(self):
        space = DriveableSpace(-10, 50, 1.625, -1.625)
        fp = Footprint(4.5, 1.8, ref_offset=1.35)
        assert not driveable_area_check(straight_path(), space, fp)

    def test_taper_matches_dense_oracle(self):
        space = DriveableSpace(-10, 120, 2.0, -1.625)
        fp = Footprint(4.5, 1.8, ref_offset=1.35)
        # at y_off = 1.1 the left corners lie exactly on y_left: inside
        for y_off in (0.0, 0.8, 1.6, 2.4, 1.1):
            path = straight_path(y=y_off, psi=0.0, n=101, dt=0.05)
            got = driveable_area_check(path, space, fp)
            # dense oracle: corner containment on a 1 ms grid
            tt = np.arange(0.0, path.t[-1], 1e-3)
            ok = True
            for t in tt:
                px = 20.0 * t
                py = y_off
                for dx, dy in ((3.6, 0.9), (3.6, -0.9), (-0.9, 0.9), (-0.9, -0.9)):
                    cx, cy = px + dx, py + dy
                    if not (-10 <= cx <= 120 and -1.625 <= cy <= 2.0):
                        ok = False
                        break
                if not ok:
                    break
            assert got == ok
            assert got == (y_off <= 1.1)

    def test_lateral_extent(self):
        space = DriveableSpace(0, 100, 1.625, -4.875)
        assert space.lateral_extent("left", 0.0, 0, 100) == pytest.approx(1.625)
        assert space.lateral_extent("right", 0.0, 0, 100) == pytest.approx(4.875)
        assert space.lateral_extent("left", 99.0, 0, 100) == 0.0  # outside
        # a reach that starts before x_start still sees the corridor
        assert space.lateral_extent("left", 0.5, -30, 20) == pytest.approx(1.125)
        # an ego past x_end has no room
        assert space.lateral_extent("left", 0.0, 101, 180) == 0.0
        assert space.lateral_extent("right", 0.0, 101, 180) == 0.0


# positive, zero and negative ref_offset, and a zero-size point
ENVELOPE_FOOTPRINTS = (Footprint(4.5, 1.8, ref_offset=1.35),
                       Footprint(4.0, 2.0),
                       Footprint(3.9, 1.7, ref_offset=-0.8),
                       Footprint(0.0, 0.0))


def _placed_families(params):
    """Seeded (path set, X, Y): every capability scenario, both sides, each
    family at two start points (X, Y) up to |X| = 1e5 m."""
    rng = np.random.default_rng(4242)
    for k in range(24):
        v = float(rng.uniform(10.0, 30.0))
        init = EgoState(X=float(rng.choice([0.0, rng.uniform(-1e5, 1e5)])),
                        Y=float(rng.uniform(-20.0, 20.0)),
                        psi=float(rng.choice([0.0, rng.uniform(-0.05, 0.05)])),
                        v_x=v, yaw_rate=float(rng.uniform(-0.05, 0.05)))
        tuning = CapabilityTuning(t_pb=float(rng.choice([0.0, 0.3])),
                                  rho_dot_max=float(rng.uniform(0.1, 0.4)))
        try:
            cap = lateral_capability(list(CapabilityScenario)[k % 6], params,
                                     v, tuning)
        except DegenerateSpeed:
            continue
        tun = PathTuning(psi_max=float(rng.uniform(0.1, 0.3)), n_tot=3,
                         dt_presample=float(rng.choice([0.01, 0.0025])))
        room = float(rng.uniform(1.5, 6.0))
        side = ("left", "right")[k // 6 % 2]
        families = {}
        for X in (init.X, float(rng.uniform(-1e5, 1e5))):
            moved = replace(init, X=X)
            space = DriveableSpace(X - 10.0, X + 400.0, moved.Y + room,
                                   moved.Y - room)
            try:
                yield (generate_path_set(moved, cap, space, tun, side,
                                         families), X, moved.Y)
            except NoFeasiblePath:
                continue


def _corridors(path, fp, X=0.0, Y=0.0):
    """(space, clear, want): corridors around the path's corners translated
    by (X, Y). clear ones leave 1 m of room on every edge or put one edge 1 m
    into the corners; the others put one edge on an extreme corner, 1 ulp
    inside it or 1 ulp outside it."""
    corners = reference_corners(path, fp, X, Y)
    x_lo = min(float(x.min()) for x, _ in corners)
    x_hi = max(float(x.max()) for x, _ in corners)
    y_lo = min(float(y.min()) for _, y in corners)
    y_hi = max(float(y.max()) for _, y in corners)
    wide = DriveableSpace(x_lo - 1.0, x_hi + 1.0, y_hi + 1.0, y_lo - 1.0)
    edges = (("x_start", x_lo, -math.inf), ("x_end", x_hi, math.inf),
             ("y_right", y_lo, -math.inf), ("y_left", y_hi, math.inf))
    yield wide, True, True
    for edge, value, out in edges:
        yield replace(wide, **{edge: value - math.copysign(1.0, out)}), \
            True, False
        for on, want in ((value, True), (math.nextafter(value, out), True),
                         (math.nextafter(value, -out), False)):
            yield replace(wide, **{edge: on}), False, want


class TestDriveableEnvelope:
    """The check gives the per-sample answer on the corners translated by
    (X, Y) last, also with a corridor edge on an extreme corner or 1 ulp
    inside or outside it."""

    def test_box_matches_per_sample_test(self, ref_params):
        n_clear = n_edge = 0
        for ps, X, Y in _placed_families(ref_params):
            for path in ps.paths:
                assert not path.x.flags.writeable
                for fp in ENVELOPE_FOOTPRINTS:
                    placed = anchor_path(path, X, Y)
                    for space, clear, want in _corridors(path, fp, X, Y):
                        assert reference_driveable(path, space, fp, X,
                                                   Y) is want
                        assert driveable_area_check(path, space, fp, X,
                                                    Y) is want
                        if clear:  # the placed path's samples agree here
                            assert reference_driveable(placed, space,
                                                       fp) is want
                        n_clear += clear
                        n_edge += not clear
                    assert fp in path.memo
        assert n_clear > 1000 and n_edge >= 6000

    def test_hand_built_paths_get_the_per_sample_answer(self):
        """Writeable samples may change, so their box is built per call."""
        space = DriveableSpace(-10, 120, 1.625, -1.625)
        fp = Footprint(4.5, 1.8, ref_offset=1.35)
        for path, want in ((straight_path(), True),
                           (straight_path(y=2.0), False)):
            assert reference_driveable(path, space, fp) is want
            assert driveable_area_check(path, space, fp) is want
            assert not path.memo
        path = straight_path(n=37, v=17.3, dt=0.03, y=0.41, psi=0.07)
        for fp in ENVELOPE_FOOTPRINTS:
            for space, _, want in _corridors(path, fp):
                assert reference_driveable(path, space, fp) is want
                assert driveable_area_check(path, space, fp) is want
        assert not path.memo

    def test_monitored_suffix_gets_the_per_sample_answer(self, ref_params):
        """A monitored suffix of a placed path is checked at X = Y = 0 on
        its own samples."""
        ps, X, Y = next(placed for placed in _placed_families(ref_params)
                        if placed[1] != 0.0)
        path = ps.paths[len(ps.paths) // 2]
        suffix = anchor_path(path, X, Y).suffix_from(0.5 * path.t[-1])
        assert 0 < len(suffix) < len(path)
        for fp in ENVELOPE_FOOTPRINTS:
            for space, _, want in _corridors(suffix, fp):
                assert reference_driveable(suffix, space, fp) is want
                assert driveable_area_check(suffix, space, fp) is want
        assert not suffix.memo


class TestCircleFilters:
    def test_circumscribed_examples(self):
        a = Footprint(4.0, 3.0)   # r_c = 2.5
        b = Footprint(1.6, 1.2)   # r_c = 1.0
        assert circumscribed_check(Pose(0, 0, 0), a, Pose(10, 0, 0), b)
        assert not circumscribed_check(Pose(0, 0, 0), a, Pose(0, 0, 0), b)
        assert not circumscribed_check(Pose(0, 0, 0), a, Pose(3.49, 0, 0), b)

    def test_inscribed_examples(self):
        a = Footprint(4.5, 1.8)
        assert inscribed_check(Pose(0, 0, 0), a, Pose(0, 0, 0), a)
        b = Footprint(2.0, 2.0)   # r_i = 1.0
        assert not inscribed_check(Pose(0, 0, 0), b, Pose(2.0, 0, 0), b)
        assert inscribed_check(Pose(0, 0, 0), a, Pose(1.5, 0, 0), a)


class TestSat:
    def test_separated_axis_aligned(self):
        fp = Footprint(2.0, 1.0)
        assert not sat_check(Pose(0, 0, 0), fp, Pose(5, 0, 0), fp)

    def test_identical_overlap(self):
        fp = Footprint(2.0, 1.0)
        assert sat_check(Pose(0, 0, 0), fp, Pose(0, 0, 0), fp)

    def test_rotated_case_matches_oracle(self):
        a, b = Footprint(4.5, 1.8), Footprint(0.5, 0.5)
        pa, pb = Pose(0, 0, 0), Pose(2.6, 0.6, math.pi / 4)
        assert sat_check(pa, a, pb, b) == oracle_rect_overlap(pa, a, pb, b)

    def test_touching_counts_as_collision(self):
        fp = Footprint(2.0, 2.0)
        assert sat_check(Pose(0, 0, 0), fp, Pose(2.0, 0, 0), fp)

    def test_filters_never_contradict_sat(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            fa = Footprint(float(rng.uniform(0.5, 5)), float(rng.uniform(0.5, 3)))
            fb = Footprint(float(rng.uniform(0.5, 5)), float(rng.uniform(0.5, 3)))
            pa = Pose(0, 0, float(rng.uniform(-3, 3)))
            pb = Pose(float(rng.uniform(-6, 6)), float(rng.uniform(-6, 6)),
                      float(rng.uniform(-3, 3)))
            hit = sat_check(pa, fa, pb, fb)
            if circumscribed_check(pa, fa, pb, fb):
                assert not hit
            if inscribed_check(pa, fa, pb, fb):
                assert hit


class TestScalarKernelsBitExact:
    """The scalar kernels must return numpy's bits, not just close values."""

    def test_corners_match_numpy_formula(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            fp = Footprint(float(rng.uniform(0, 5)), float(rng.uniform(0, 3)),
                           float(rng.uniform(-2, 2)))
            pose = Pose(*rng.uniform(-50, 50, 2).tolist(), float(rng.uniform(-7, 7)))
            assert np.array_equal(fp.corners(pose), numpy_corners(pose, fp))

    def test_sat_matches_numpy_formula_random(self):
        rng = np.random.default_rng(23)
        n, hits = 20000, 0
        for _ in range(n):
            fa = Footprint(float(rng.uniform(0, 5)), float(rng.uniform(0, 3)),
                           float(rng.uniform(-1.5, 1.5)))
            fb = Footprint(float(rng.uniform(0, 5)), float(rng.uniform(0, 3)),
                           float(rng.uniform(-1.5, 1.5)))
            pa = Pose(*rng.uniform(-3, 3, 2).tolist(), float(rng.uniform(-4, 4)))
            pb = Pose(*rng.uniform(-3, 3, 2).tolist(), float(rng.uniform(-4, 4)))
            hit = sat_check(pa, fa, pb, fb)
            assert hit == numpy_sat(pa, fa, pb, fb)
            hits += hit
        assert 0.2 * n < hits < 0.8 * n   # both verdicts well exercised

    def test_sat_exact_touching(self):
        # dyadic sizes and offsets: contact is exact, one ulp apart is a gap
        a, b, pa = Footprint(4.0, 2.0), Footprint(2.0, 1.0), Pose(0.0, 0.0, 0.0)
        # edge-to-edge along x and y, partly overlapping edges, corner-to-corner
        for x, y in ((3.0, 0.0), (-3.0, 0.25), (0.5, 1.5), (3.0, 1.5)):
            assert sat_check(pa, a, Pose(x, y, 0.0), b)
            assert numpy_sat(pa, a, Pose(x, y, 0.0), b)
            gap = Pose(math.nextafter(x, 2 * x), math.nextafter(y, 2 * y), 0.0)
            assert not sat_check(pa, a, gap, b)
            assert not numpy_sat(pa, a, gap, b)

    def test_sat_near_touching_rotated(self):
        # corner-on-edge: a square turned 45 deg with a corner on a's front or
        # left edge, the pair turned rigidly, and the square stepped ulp by
        # ulp through zero gap along the edge normal
        a, b = Footprint(4.0, 2.0, 0.5), Footprint(1.0, 1.0)
        h = math.sqrt(0.5)
        verdicts = set()
        for rot in np.linspace(0.0, 2 * math.pi, 37).tolist():
            c, s = math.cos(rot), math.sin(rot)
            for x, y, normal in ((2.5 + h, 0.3, 0), (0.5, 1.0 + h, 1)):
                for ulps in range(-4, 5):
                    p = [x, y]
                    for _ in range(abs(ulps)):
                        p[normal] = math.nextafter(
                            p[normal], math.copysign(math.inf, ulps))
                    pa = Pose(0.0, 0.0, rot)
                    pb = Pose(p[0] * c - p[1] * s, p[0] * s + p[1] * c,
                              rot + math.pi / 4)
                    hit = sat_check(pa, a, pb, b)
                    assert hit == numpy_sat(pa, a, pb, b)
                    verdicts.add(hit)
        assert verdicts == {True, False}


def pair_box(pairs):
    """The (7, 2, n) array _sat_overlap takes, from ((pose, footprint),
    (pose, footprint)) pairs, with math.cos/sin as check_paths forms it."""
    rows = [[(p.X, p.Y, math.cos(p.psi), math.sin(p.psi), fp.ref_offset,
              0.5 * fp.length, 0.5 * fp.width) for p, fp in pair]
            for pair in pairs]
    return np.array(rows, dtype=float).reshape(-1, 2, 7).transpose(2, 1, 0)


class TestBatchedSat:
    """The vectorised narrow phase against scalar sat_check, pair by
    pair."""

    def test_random_pairs_match_sat_check(self):
        rng = np.random.default_rng(29)
        u = rng.uniform
        pairs = []
        for _ in range(20000):
            fps = [Footprint(*(0.0, 0.0, float(u(-1.0, 1.0)))
                             if rng.random() < 0.1 else
                             (float(u(0, 5)), float(u(0, 3)),
                              float(u(-1.5, 1.5)))) for _ in range(2)]
            psi_a = float(rng.choice([u(-4, 4), 0.0, -0.0, math.pi / 2]))
            psi_b = float(rng.choice([u(-4, 4), 0.0, -0.0, psi_a]))
            x, y = u(-1e3, 1e3, 2).tolist()
            pairs.append(((Pose(x, y, psi_a), fps[0]),
                          (Pose(x + float(u(-4, 4)), y + float(u(-4, 4)),
                                psi_b), fps[1])))
        # exact contact with dyadic sizes at +-0.0 headings, and one ulp off
        a, b, point = Footprint(4.0, 2.0), Footprint(2.0, 1.0), Footprint(0, 0)
        for fb, x, y in ((b, 3.0, 0.0), (b, -3.0, 0.25), (b, 0.5, 1.5),
                         (b, 3.0, 1.5), (point, 2.0, 0.0),
                         (point, -2.0, 0.25), (point, 0.5, 1.0),
                         (point, 2.0, -1.0)):
            for psi_a, psi_b in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0),
                                 (-0.0, -0.0)):
                pa = Pose(0.0, 0.0, psi_a)
                for pb in (Pose(x, y, psi_b),
                           Pose(math.nextafter(x, 2 * x),
                                math.nextafter(y, 2 * y), psi_b)):
                    pairs.append(((pa, a), (pb, fb)))
        got = _sat_overlap(pair_box(pairs)).tolist()
        want = [sat_check(pa, fa, pb, fb) for (pa, fa), (pb, fb) in pairs]
        assert got == want
        assert 0.2 * len(pairs) < sum(want) < 0.8 * len(pairs)
        # the exact touches overlap, one ulp apart they do not
        assert got[-64:] == [True, False] * 32

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("field", ["X", "Y", "psi"])
    def test_nan_pose_overlaps(self, side, field):
        """A NaN anywhere leaves no separating axis: contact, never clear,
        as sat_check finds."""
        pair = [(Pose(0.0, 0.0, 0.0), Footprint(4.5, 1.8, 1.35)),
                (Pose(40.0, 9.0, 0.3), Footprint(0.5, 0.5))]
        pose, fp = pair[side]
        pair[side] = (replace(pose, **{field: math.nan}), fp)
        assert _sat_overlap(pair_box([pair])).tolist() == [True]
        assert sat_check(*pair[0], *pair[1])

    def test_nan_placement_collides_on_every_path(self):
        fp = Footprint(4.5, 1.8, ref_offset=1.35)
        far = TargetTrack("far", Footprint(0.5, 0.5), Pose(40.0, 9.0, 0.0))
        paths = [straight_path(), straight_path(n=31, y=2.0)]
        pred = predict([far], paths[0].t)  # the longer path's grid
        assert check_paths(paths, [far], fp, 0.1, math.nan, 0.0,
                           pred) == [True, True]
        assert all(reference_collision_check(p, [far], fp, 0.1, math.nan,
                                             0.0).collides for p in paths)


class TestTargetStep:
    """Constant-velocity target prediction, evaluated analytically."""

    def test_static_target(self):
        tr = TargetTrack("s", Footprint(1, 1), Pose(5.0, 2.0, 0.3), 0.0)
        for t in (0.0, 1.3, 4.0, 60.0):
            assert tr.pose_at(t) == Pose(5.0, 2.0, 0.3)

    def test_crossing_vru_advance(self):
        tr = TargetTrack("v", Footprint(0.5, 0.5),
                         Pose(0.0, 0.0, math.pi / 2), 1.0)
        pose = tr.pose_at(2.0)
        assert pose.Y == pytest.approx(2.0, abs=1e-12)
        assert pose.X == pytest.approx(0.0, abs=1e-12)

    def test_midpoint_interpolation_exact(self):
        tr = TargetTrack("v", Footprint(0.5, 0.5), Pose(1.0, -2.0, 0.25), 3.0)
        assert tr.velocity == (3.0 * math.cos(0.25), 3.0 * math.sin(0.25))
        for t in (0.25, 1.75, 3.9, 7.5):
            pose = tr.pose_at(t)
            assert pose.X == 1.0 + 3.0 * math.cos(0.25) * t
            assert pose.Y == -2.0 + 3.0 * math.sin(0.25) * t
            assert pose.psi == 0.25

    def test_predict_forms_each_heading_once(self, geometry_cos):
        """One cos per target: the velocity reuses the row's cos and sin,
        with the bits of TargetTrack.velocity."""
        targets = [TargetTrack(f"t{i}", Footprint(0.5, 0.5),
                               Pose(1.0, -2.0, 0.25 * i), 3.0)
                   for i in range(3)]
        pred = predict(targets, np.array([0.0, 1.3]))
        assert geometry_cos.calls == 3
        for i, tg in enumerate(targets):
            vx, vy = tg.velocity
            assert pred.pos[:, i, 1].tolist() == [1.0 + vx * 1.3,
                                                  -2.0 + vy * 1.3]


class TestCollisionCheck:
    def test_no_targets(self):
        report = collision_check(straight_path(), [], Footprint(4.5, 1.8, 1.35))
        assert not report.collides

    def test_static_target_contact_time(self):
        fp = Footprint(4.5, 1.8, ref_offset=1.35)
        target = TargetTrack("blk", Footprint(0.5, 0.5), Pose(20.0, 0.0, 0.0))
        report = collision_check(straight_path(), [target], fp, dt_check=0.1)
        assert report.collides
        # front face starts at 1.35 + 2.25 = 3.6 m; target near face at 19.75
        expected = (19.75 - 3.6) / 20.0
        got = first_contact_time(Pose(), fp, (20.0, 0.0), target.pose,
                                 target.footprint, target.velocity, 5.0)
        assert expected - 1e-9 <= got <= expected

    def test_zero_size_point_contact(self):
        fp = Footprint(0.0, 0.0)
        target = TargetTrack("pt", Footprint(0.0, 0.0), Pose(20.0, 0.0, 0.0))
        report = collision_check(straight_path(), [target], fp, dt_check=0.1)
        assert report.collides
        got = first_contact_time(Pose(), fp, (20.0, 0.0), target.pose,
                                 target.footprint, target.velocity, 5.0)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_laterally_clear_target(self):
        fp = Footprint(4.5, 1.8, ref_offset=1.35)
        target = TargetTrack("side", Footprint(0.5, 0.5), Pose(40.0, 5.0, 0.0))
        report = collision_check(straight_path(), [target], fp)
        assert not report.collides
        # 5 m apart at the closest instant: the circle filter clears each one
        assert report.sat_evaluations == report.resolved_inscribed == 0
        assert report.resolved_circumscribed > 0

    def test_returns_at_first_hit(self):
        fp = Footprint(4.5, 1.8, ref_offset=1.35)
        near = TargetTrack("near", Footprint(0.5, 0.5), Pose(20.0, 0.0, 0.0))
        far = TargetTrack("far", Footprint(0.5, 0.5), Pose(60.0, 0.0, 0.0))
        alone = collision_check(straight_path(), [near], fp)
        both = collision_check(straight_path(), [near, far], fp)
        assert alone.collides and both.collides
        # nothing after the first hit is checked
        assert (both.resolved_circumscribed, both.resolved_inscribed,
                both.sat_evaluations) == (alone.resolved_circumscribed,
                                          alone.resolved_inscribed,
                                          alone.sat_evaluations)

    def test_rigid_transform_invariance(self):
        fp = Footprint(4.5, 1.8, ref_offset=1.35)
        target = TargetTrack("vru", Footprint(0.5, 0.5),
                             Pose(50.0, -2.0, math.pi / 2), 1.0)
        base = collision_check(straight_path(), [target], fp)

        ang, tx, ty = 0.7, 13.0, -4.0
        c, s = math.cos(ang), math.sin(ang)
        p = straight_path()
        moved_path = SampledPath(
            t=p.t, x=tx + p.x * c - p.y * s, y=ty + p.x * s + p.y * c,
            psi=p.psi + ang, rho=p.rho, v=p.v)
        p0 = target.pose
        moved_target = TargetTrack(
            "vru", target.footprint,
            Pose(tx + p0.X * c - p0.Y * s, ty + p0.X * s + p0.Y * c,
                 p0.psi + ang), target.speed)
        moved = collision_check(moved_path, [moved_target], fp)
        assert moved.collides == base.collides
        assert (moved.resolved_circumscribed, moved.resolved_inscribed,
                moved.sat_evaluations) == (base.resolved_circumscribed,
                                           base.resolved_inscribed,
                                           base.sat_evaluations)
        ttc = [first_contact_time(Pose(x0, y0, psi0), fp,
                                  (20.0 * math.cos(psi0), 20.0 * math.sin(psi0)),
                                  tr.pose, tr.footprint, tr.velocity, 5.0)
               for (x0, y0, psi0), tr in (((0.0, 0.0, 0.0), target),
                                          ((tx, ty, ang), moved_target))]
        assert math.isfinite(ttc[0]) == base.collides
        assert ttc[1] == pytest.approx(ttc[0], abs=1e-6)

    @pytest.mark.parametrize("pose", [Pose(math.nan, 0.0, 0.0),
                                      Pose(20.0, math.nan, 0.0),
                                      Pose(20.0, 0.0, math.nan)])
    def test_nan_target_pose_collides(self, pose):
        """A NaN distance fails the circumscribed filter's `dist > rc`, so it
        reaches SAT, which finds no separating axis: never counted clear."""
        fp = Footprint(4.5, 1.8, ref_offset=1.35)
        far = TargetTrack("far", Footprint(0.5, 0.5), Pose(40.0, 9.0, 0.0))
        nan = TargetTrack("nan", Footprint(0.5, 0.5), pose, 1.0)
        for targets in ([nan], [far, nan]):
            report = collision_check(straight_path(), targets, fp)
            assert report.collides
            assert report.sat_evaluations == 1
            assert report == reference_collision_check(straight_path(),
                                                       targets, fp)

    def test_circle_filter_edge_matches_reference(self, ref_params):
        """A moving target whose centre passes the sum of circumscribed
        radii from the ego centre, give or take a few ulps, 1e5 m from the
        origin: the circle filter must decide on the very bits of the
        per-target reference, also on a grid shared with a longer path."""
        rng = np.random.default_rng(99)
        fp = Footprint(4.5, 1.8, ref_offset=1.35)
        ps = generate_path_set(
            EgoState(v_x=20.0),
            lateral_capability(CapabilityScenario.STEER, ref_params, 20.0,
                               CapabilityTuning()),
            DriveableSpace(-10.0, 400.0, 6.0, -6.0), PathTuning(n_tot=4),
            "left", {})
        longest = max((p.t for p in ps.paths), key=len)
        sensitive = 0
        for _ in range(200):
            path = ps.paths[int(rng.integers(len(ps.paths)))]
            k = int(rng.integers(len(path)))
            X, Y = float(rng.uniform(-1e5, 1e5)), float(rng.uniform(-1e3, 1e3))
            ex = (X + float(path.x[k])) + fp.ref_offset * math.cos(path.psi[k])
            ey = (Y + float(path.y[k])) + fp.ref_offset * math.sin(path.psi[k])
            tfp = Footprint(float(rng.uniform(0.5, 4.0)),
                            float(rng.uniform(0.5, 2.0)),
                            float(rng.uniform(-1.0, 1.0)))
            psi = float(rng.uniform(-3.0, 3.0))
            speed = float(rng.uniform(1.0, 20.0))
            rc = fp.circumscribed_radius + tfp.circumscribed_radius
            theta, tk = float(rng.uniform(-3.0, 3.0)), float(path.t[k])
            x0 = (ex + rc * math.cos(theta) - tfp.ref_offset * math.cos(psi)
                  - speed * math.cos(psi) * tk)
            y0 = (ey + rc * math.sin(theta) - tfp.ref_offset * math.sin(psi)
                  - speed * math.sin(psi) * tk)
            seen = set()
            for n in range(-6, 7):
                target = TargetTrack("edge", tfp,
                                     Pose(x0 + n * math.ulp(x0), y0, psi),
                                     speed)
                want = reference_collision_check(path, [target], fp, 0.01,
                                                 X, Y)
                for pred in (predict([target], path.t),
                             predict([target], longest)):
                    assert check_paths([path], [target], fp, 0.01, X, Y,
                                       pred) == [want.collides]
                # the placed path carries X + x and Y + y, the bits the
                # translated check forms
                assert collision_check(anchor_path(path, X, Y), [target], fp,
                                       0.01) == want
                seen.add(want.resolved_circumscribed)
            sensitive += len(seen) > 1
        assert sensitive > 100

    def test_filter_statistics_populated(self):
        fp = Footprint(4.5, 1.8, ref_offset=1.35)
        target = TargetTrack("blk", Footprint(0.5, 0.5), Pose(20.0, 0.0, 0.0))
        report = collision_check(straight_path(), [target], fp)
        assert report.resolved_circumscribed > 0
        assert report.sat_evaluations + report.resolved_inscribed >= 1


@st.composite
def checked_sets(draw):
    """(paths, targets, footprint, dt_check, X, Y): 1-4 read-only curved
    paths of 1-80 samples on prefixes of one 0.05 s grid, 1-3 targets each
    placed within 2 m of a sample of a path translated by (X, Y), and that
    translation, (0, 0) about half the time."""
    def num(lo, hi):
        return draw(st.floats(lo, hi))

    dt = 0.05
    paths = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 80))
        t = dt * np.arange(n)
        v, rho = num(5.0, 30.0), num(-0.05, 0.05)
        psi = num(-0.3, 0.3) + rho * v * t
        x, y = (np.concatenate([[0.0], np.cumsum(f(psi[1:]) * v * dt)])
                for f in (np.cos, np.sin))
        path = SampledPath(t, x, y, psi, np.full(n, rho), np.full(n, v))
        for a in (path.t, path.x, path.y, path.psi, path.rho, path.v):
            a.flags.writeable = False
        paths.append(path)
    X, Y = draw(st.one_of(st.just((0.0, 0.0)),
                          st.tuples(st.floats(-1e3, 1e3),
                                    st.floats(-1e3, 1e3))))
    targets = []
    for i in range(draw(st.integers(1, 3))):
        path = paths[draw(st.integers(0, len(paths) - 1))]
        k = draw(st.integers(0, len(path) - 1))
        psi, speed, tau = num(-math.pi, math.pi), num(0.0, 20.0), path.t[k]
        targets.append(TargetTrack(
            f"t{i}", Footprint(num(0.0, 5.0), num(0.0, 2.5), num(-1.0, 1.0)),
            Pose(X + float(path.x[k]) - speed * tau * math.cos(psi)
                 + num(-2.0, 2.0),
                 Y + float(path.y[k]) - speed * tau * math.sin(psi)
                 + num(-2.0, 2.0), psi), speed))
    fp = draw(st.sampled_from([Footprint(4.5, 1.8, 1.35), Footprint(4.0, 2.0),
                               Footprint(3.9, 1.7, -0.8)]))
    return paths, targets, fp, draw(st.sampled_from([0.05, 0.1, 0.25])), X, Y


class TestBatchAgreesWithSingleCheck:
    """check_paths decides a mixed-length batch at once and collision_check
    explains one path; both must agree with the per-target reference."""

    @settings(derandomize=True, max_examples=120, deadline=None,
              database=None)
    @given(checked_sets())
    def test_verdicts_and_reports_match_the_reference(self, case):
        paths, targets, fp, dt_check, X, Y = case
        pred = predict(targets, max((p.t for p in paths), key=len))
        collides = check_paths(paths, targets, fp, dt_check, X, Y, pred)
        assert collides == [reference_collision_check(
            p, targets, fp, dt_check, X, Y).collides for p in paths]
        if X == Y == 0.0:
            for path, verdict in zip(paths, collides):
                report = collision_check(path, targets, fp, dt_check)
                assert report == reference_collision_check(path, targets, fp,
                                                           dt_check)
                assert report.collides is verdict


class TestFirstContactTime:
    """The closed-form contact time against a dense SAT oracle."""

    @staticmethod
    def _axis_gap(pa, fa, pb, fb):
        """Largest separation over the four SAT axes; <= 0 when touching."""
        ca, cb = fa.corners(pa), fb.corners(pb)
        gap = -math.inf
        for psi in (pa.psi, pb.psi):
            for ax in ((math.cos(psi), math.sin(psi)),
                       (-math.sin(psi), math.cos(psi))):
                da, db = ca @ ax, cb @ ax
                gap = max(gap, db.min() - da.max(), da.min() - db.max())
        return gap

    def test_random_pairs_against_dense_oracle(self):
        """Each pair at the origin and under a common translation of
        1e6 m."""
        rng = np.random.default_rng(11)
        horizon = 3.0
        t = 1e-3 * np.arange(3001)
        contacts, finite = Counter(), Counter()
        for _ in range(400):
            fps = [Footprint(0.0, 0.0) if rng.random() < 0.15 else
                   Footprint(float(rng.uniform(0.3, 5.0)),
                             float(rng.uniform(0.3, 2.5)),
                             float(rng.uniform(-1.5, 1.5)))
                   for _ in range(2)]
            speeds = rng.uniform(0.0, 25.0, 2)
            if rng.random() < 0.2:
                speeds[1] = 0.0
            psis = rng.uniform(-math.pi, math.pi, 2).tolist()
            (vax, vay), (vbx, vby) = [(v * math.cos(p), v * math.sin(p))
                                      for v, p in zip(speeds.tolist(), psis)]
            # b passes a's reference point at t_meet, missed by up to 3 m
            t_meet = float(rng.uniform(0.0, horizon))
            mx, my = rng.uniform(-3.0, 3.0, 2).tolist()
            for shift in (0.0, 1e6):
                pa = Pose(shift, shift, psis[0])
                pb = Pose(shift + ((vax - vbx) * t_meet + mx),
                          shift + ((vay - vby) * t_meet + my), psis[1])
                ttc = first_contact_time(pa, fps[0], (vax, vay), pb, fps[1],
                                         (vbx, vby), horizon)

                def poses(tk):
                    return (Pose(pa.X + vax * tk, pa.Y + vay * tk, pa.psi),
                            Pose(pb.X + vbx * tk, pb.Y + vby * tk, pb.psi))

                # the oracle runs SAT only where the bounding circles meet
                (cax, cay), (cbx, cby) = fps[0].center(pa), fps[1].center(pb)
                rc = fps[0].circumscribed_radius + fps[1].circumscribed_radius
                near = np.hypot(cbx - cax + (vbx - vax) * t,
                                cby - cay + (vby - vay) * t) <= rc + 1e-6
                first = next((tk for tk in t[near].tolist()
                              if sat_check(poses(tk)[0], fps[0],
                                           poses(tk)[1], fps[1])), None)
                if first is not None:
                    contacts[shift] += 1
                    assert ttc <= first   # no oracle contact is missed
                if math.isfinite(ttc):
                    finite[shift] += 1
                    pa_t, pb_t = poses(ttc)
                    assert self._axis_gap(pa_t, fps[0], pb_t, fps[1]) <= 1e-6
        for shift in (0.0, 1e6):
            assert 100 < contacts[shift] <= finite[shift] < 400


def _broad_margin(pa, fa, pb, fb, rvx, rvy, horizon):
    """The broad phase's margin, CONTACT_SLACK + 2**-40 * S, as
    geometry._contact_time states it."""
    def size(pose, fp):
        return (abs(pose.X) + abs(pose.Y) + abs(fp.ref_offset)
                + 0.5 * fp.length + 0.5 * fp.width)
    return CONTACT_SLACK + 2.0 ** -40 * (
        2.0 * size(pa, fa) + 4.0 * size(pb, fb)
        + 2.0 * (abs(rvx) + abs(rvy)) * horizon)


class TestBroadPhase:
    """The broad phase in front of the contact time returns inf only where
    the exact four-axis test does: every contact time keeps the bits of
    the reference, which has no broad phase, at every translation."""

    SHIFTS = (0.0, 1e6, 1e9, 1e12)
    HORIZON = 5.0

    @staticmethod
    def _scene(rng, shift):
        """An ego and 1-4 targets: cars in the next lanes with equal or
        signed-zero headings, crossing, static and zero-size targets, and
        now and then a NaN in a pose or a speed."""
        u = rng.uniform
        psi = float(rng.choice([0.0, -0.0, u(-0.3, 0.3)]))
        ego = EgoState(X=shift + float(u(-50.0, 50.0)),
                       Y=shift + float(u(-5.0, 5.0)), psi=psi,
                       v_x=float(u(5.0, 25.0)))
        fp = Footprint(float(u(3.5, 5.0)), float(u(1.6, 2.1)),
                       float(u(-1.5, 1.5)))
        targets = []
        for i in range(int(rng.integers(1, 5))):
            kind = int(rng.integers(5))
            ahead, side = float(u(-20.0, 60.0)), float(u(-7.0, 7.0))
            size = Footprint(float(u(0.3, 5.0)), float(u(0.3, 2.2)),
                             float(u(-1.0, 1.0)))
            speed = float(u(0.0, 25.0))
            heading = float(rng.choice([psi, 0.0, -0.0]))
            if kind == 0:    # a car in the next lane
                side = float(rng.choice([-1.0, 1.0])) * float(u(3.0, 3.5))
                size, speed = Footprint(4.5, 1.8), float(u(10.0, 20.0))
            elif kind == 1:  # crossing
                heading = float(u(-math.pi, math.pi))
            elif kind == 2:  # static
                speed = 0.0
            elif kind == 3:  # zero size
                size = Footprint(0.0, 0.0)
            targets.append(TargetTrack(f"t{i}", size, Pose(
                ego.X + ahead * math.cos(psi) - side * math.sin(psi),
                ego.Y + ahead * math.sin(psi) + side * math.cos(psi),
                heading), speed))
        if rng.random() < 0.1:
            i = int(rng.integers(len(targets)))
            field = str(rng.choice(["X", "Y", "psi", "speed", "ego"]))
            tr = targets[i]
            if field == "speed":
                targets[i] = replace(tr, speed=math.nan)
            elif field == "ego":
                ego = replace(ego, **{str(rng.choice(["X", "psi", "v_x"])):
                                      math.nan})
            else:
                targets[i] = replace(tr, pose=replace(tr.pose,
                                                      **{field: math.nan}))
        return ego, fp, targets

    def test_scenes_keep_their_bits(self, formed_corners):
        rng = np.random.default_rng(5)
        seen = Counter()
        for shift in self.SHIFTS:
            for _ in range(150):
                ego, fp, targets = self._scene(rng, shift)
                pose = Pose(ego.X, ego.Y, ego.psi)
                vel = (ego.v_x * math.cos(ego.psi),
                       ego.v_x * math.sin(ego.psi))
                for tr in targets:
                    formed_corners.clear()
                    got = first_contact_time(pose, fp, vel, tr.pose,
                                             tr.footprint, tr.velocity,
                                             self.HORIZON)
                    broad = len(formed_corners) == 1
                    want = reference_contact_time(
                        pose, fp, tr.pose, tr.footprint,
                        tr.velocity[0] - vel[0], tr.velocity[1] - vel[1],
                        self.HORIZON)
                    assert got.hex() == want.hex()
                    seen[shift, "broad" if broad else
                         "finite" if math.isfinite(got) else "exact"] += 1
                    seen["nan"] += math.isnan(got + ego.X + tr.pose.X
                                              + tr.pose.psi + tr.speed)
                got = compute_ttc(ego, ego.v_x, kernel_rows(targets), fp,
                                  self.HORIZON)
                assert got.hex() == reference_ttc(ego, targets, fp,
                                                  self.HORIZON).hex()
        for shift in self.SHIFTS:
            assert min(seen[shift, k] for k in ("broad", "finite")) > 0
        assert seen[0.0, "exact"] > 0 and seen["nan"] > 0

    @pytest.mark.parametrize("shift", SHIFTS)
    def test_gaps_near_the_margin_keep_their_bits(self, formed_corners,
                                                  shift):
        """b approaches a along one of a's axes and, swept over the
        horizon, stops k margins short of it: the broad phase decides
        exactly when k > 1, and the exact test finds contact for k < 0."""
        rng = np.random.default_rng(7)
        u = rng.uniform
        h = self.HORIZON
        finite = 0
        for _ in range(40):
            fa = Footprint(float(u(3.5, 5.0)), float(u(1.6, 2.1)))
            fb = Footprint(float(u(0.0, 5.0)), float(u(0.0, 2.2)))
            pa = Pose(shift, -shift, float(rng.choice([0.0, -0.0])))
            lateral = bool(rng.integers(2))
            sign = float(rng.choice([-1.0, 1.0]))   # b beyond either end
            speed = float(u(0.0, 10.0))
            half, other = 0.5 * (fa.width + fb.width), 0.5 * (fa.length
                                                              + fb.length)
            if not lateral:
                half, other = other, half
            along = float(u(-0.4, 0.4)) * other   # overlap on the other axis
            psi_b = float(rng.choice([0.0, -0.0]))

            def placed(gap):
                if lateral:
                    return (Pose(pa.X + along, pa.Y + gap, psi_b),
                            (0.0, -sign * speed))
                return (Pose(pa.X + gap, pa.Y + along, psi_b),
                        (-sign * speed, 0.0))

            margin = _broad_margin(pa, fa,
                                   placed(sign * (half + speed * h))[0], fb,
                                   speed, 0.0, h)
            for k in (-2.0, -0.5, 0.0, 0.5, 0.9, 1.1, 2.0, 4.0):
                reach = half + speed * h + k * margin
                if reach <= 0.0:   # b would start on a's other side
                    continue
                pb, rv = placed(sign * reach)
                formed_corners.clear()
                got = first_contact_time(pa, fa, (0.0, 0.0), pb, fb, rv, h)
                broad = len(formed_corners) == 1
                assert got.hex() == reference_contact_time(
                    pa, fa, pb, fb, *rv, h).hex()
                assert broad is (k > 1.0)
                if k < 0.0:
                    assert got <= h
                    finite += 1
        assert finite > 0
