import math
import random
import struct
from fractions import Fraction

import pytest

from kinatlas.mechanism import (
    JointValues, MechanismParams, WorkingMode, direct_kinematics, inverse_kinematics,
)
from kinatlas.trajectory import (
    Trajectory, TrajectoryError,
    track_branches, follow_chain, encirclement, winding_number,
    _solve, _tangent4, _chain_kernel,
)

from oracles import MODES, tracked_chart

PARAMS = MechanismParams()
FIG10 = ((-1.0, 1.0), (0.0, 0.5), (1.0, -1.0), (0.5, -2.0))


def _traj(wps=FIG10, mode=WorkingMode(1, 1), y0=Fraction(1, 2)):
    return Trajectory(y0=y0, mode=mode, waypoints=tuple(wps))


def _joints_at(t, s, params=PARAMS):
    """The joints of the trajectory's own branch at s: the IK of its pose."""
    return inverse_kinematics(t.pose_at(s), t.mode, params)[0]


class TestTrajectoryBasics:
    def test_needs_two_waypoints(self):
        with pytest.raises(TrajectoryError):
            _traj(((0.0, 0.0),))

    @pytest.mark.parametrize("mode", [[1.5, 1], [True, 1], ["1", -1], [1, 1.0], [None, 1]],
                             ids=["float", "bool", "string", "integral-float", "null"])
    def test_json_mode_takes_integers_only(self, mode):
        with pytest.raises(ValueError, match="mode entries must be the integers 1 or -1"):
            Trajectory.from_json({"y": "1/2", "mode": mode,
                                  "waypoints": [["-1", "1"], ["0", "1/2"]]})

    @pytest.mark.parametrize("waypoint", [
        ("1/2", 0.5), (1.0, None), (math.nan, 0.5), (1.0, math.inf), (-math.inf, 0.5),
        (True, 0.5), (1.0, 0.5, 2.0)],
        ids=["str", "none", "nan", "inf", "-inf", "bool", "three-coordinates"])
    def test_waypoint_needs_two_finite_numbers(self, waypoint):
        with pytest.raises(TrajectoryError,
                           match=r"^waypoint 1 needs 2 finite coordinates \(x, phi\)"):
            _traj(((0.0, 0.0), waypoint))

    def test_waypoints_are_kept_as_given(self):
        t = _traj(((-1, 1), (0.0, 0.5)))
        assert t.waypoints == ((-1, 1), (0.0, 0.5))
        assert [type(v) for w in t.waypoints for v in w] == [int, int, float, float]

    def test_json_parsing(self):
        t = Trajectory.from_json({
            "y": "1/2", "mode": [1, 1],
            "waypoints": [["-1", "1"], ["0", "1/2"], ["1", "-1"], ["1/2", "-2"]]})
        assert t.waypoints == FIG10
        assert t.mode == WorkingMode(1, 1)

    def test_json_values_read_as_written(self):
        t = Trajectory.from_json({"y": 0.1, "mode": [1, 1],
                                  "waypoints": [[0.1, "1"], ["0", 0.5]]})
        assert t.y0 == Fraction(1, 10) and t.waypoints == ((0.1, 1.0), (0.0, 0.5))
        with pytest.raises(ValueError):
            Trajectory.from_json({"y": True, "mode": [1, 1],
                                  "waypoints": [["-1", "1"], ["0", "1/2"]]})

    def test_float_y0_is_not_compared(self):
        t = _traj()
        assert t.y0_float == 0.5 and t.pose_at(0.3).y == 0.5
        assert t == _traj() and hash(t) == hash(_traj())
        assert "y0_float" not in repr(t)

    def test_interpolation_hits_waypoints(self):
        t = _traj()
        for k, (x, phi) in enumerate(FIG10):
            p = t.pose_at(k / 3)
            assert abs(p.x - x) < 1e-12 and abs(p.phi - phi) < 1e-12


class TestTracking:
    def test_fig10_chain_reaches_far_end(self):
        t = _traj()
        q0 = _joints_at(t, 0.0, PARAMS)
        sols = direct_kinematics(q0, PARAMS)
        partner = next((p for p, _ in sols
                        if max(abs(p.x + 1.0), abs(p.phi - 1.0)) > 1e-6))
        ch = follow_chain(t, PARAMS, (partner.x, partner.y, partner.phi))
        assert ch.end_s == 1.0

    def test_chain_residuals_stay_small(self):
        from oracles import distance_residuals
        t = _traj()
        q0 = _joints_at(t, 0.0, PARAMS)
        sols = direct_kinematics(q0, PARAMS)
        partner = next((p for p, _ in sols
                        if max(abs(p.x + 1.0), abs(p.phi - 1.0)) > 1e-6))
        ch = follow_chain(t, PARAMS, (partner.x, partner.y, partner.phi))
        for x, y, phi, s in ch.points[1:]:
            r = distance_residuals(x, y, phi, _joints_at(t, s, PARAMS), PARAMS)
            assert max(abs(v) for v in r) < 1e-9

    def test_partner_chain_crosses_a_waypoint(self):
        """A partner chain whose corrector stalls at the kink s = 1/2 when
        dq/ds is the one-sided rate at s (generated trajectory 41 of the
        benchmark pool) reaches the far end."""
        t = _traj(((85 / 128, -83 / 128), (-85 / 128, 75 / 128), (35 / 128, 247 / 128)))
        starts = _partner_starts(t)
        assert len(starts) == 1
        ch = follow_chain(t, PARAMS, starts[0])
        assert ch.end_s == 1.0
        assert any(abs(p[3] - 0.5) < 1e-6 for p in ch.points)

    def test_unreachable_inner_waypoint_raises(self):
        """An inner waypoint just beyond leg 3's reach, |cos(alpha3)| > 1:
        its one-sided rates are undefined, so building the chain kernel
        raises `KinematicsError` for leg 3, not a float error."""
        from kinatlas.mechanism import KinematicsError
        t = _traj(((1.0, 0.0), (2.0 + 1e-9, 0.0), (1.0, 0.5)))
        with pytest.raises(KinematicsError) as e:
            _chain_kernel(t, PARAMS)
        assert e.value.leg == 3

    def test_tracked_chart_alpha3_is_the_ik_angle(self):
        from kinatlas.mechanism import inverse_kinematics
        for mode in MODES:
            t = _traj(mode=mode)
            chart = tracked_chart(t, PARAMS, n=100)
            for i, (rho1, a3) in enumerate(chart):
                jv, pa = inverse_kinematics(t.pose_at(i / 100), mode, PARAMS)
                assert _bits((rho1, a3)) == _bits((jv.rho1, pa.alpha3))
                assert 0.0 <= mode.s3 * a3 <= math.pi

    def test_step_halving_stability(self, monkeypatch):
        from kinatlas import trajectory as tj
        t = _traj()
        q0 = _joints_at(t, 0.0, PARAMS)
        sols = direct_kinematics(q0, PARAMS)
        partner = next((p for p, _ in sols
                        if max(abs(p.x + 1.0), abs(p.phi - 1.0)) > 1e-6))
        st = (partner.x, partner.y, partner.phi)
        monkeypatch.setattr(tj, "_H0", 1.0 / 256)
        c1 = follow_chain(t, PARAMS, st)
        monkeypatch.setattr(tj, "_H0", 1.0 / 512)
        c2 = follow_chain(t, PARAMS, st)
        assert c1.end_s == c2.end_s == 1.0
        e1, e2 = c1.points[-1], c2.points[-1]
        assert max(abs(a - b) for a, b in zip(e1, e2)) < 1e-6


class TestVerdicts:
    def test_fig10_all_requirements(self, atlas_pp):
        t = _traj()
        v = track_branches(t, PARAMS, atlas_pp)
        assert v.same_domain is False
        assert v.assembly_mode_changed is True
        assert v.singular_crossing is False
        assert len(v.encircled_cusps) >= 1
        assert all(isinstance(w, int) and w != 0 for _, w in v.encircled_cusps)

    def test_fig10_some_mode_reproduces(self, atlas_pp):
        hits = []
        for mode in MODES:
            t = _traj(mode=mode)
            v = track_branches(t, PARAMS, atlas_pp.in_mode(mode))
            if (not v.same_domain and v.assembly_mode_changed
                    and not v.singular_crossing and v.encircled_cusps):
                hits.append(mode.label)
        assert hits

    def test_reversed_fig10_is_symmetric(self, atlas_pp):
        fwd = track_branches(_traj(), PARAMS, atlas_pp)
        rev = track_branches(_traj(tuple(reversed(FIG10))), PARAMS, atlas_pp)
        assert rev.assembly_mode_changed is True
        assert rev.start_domain == fwd.end_domain
        assert rev.end_domain == fwd.start_domain
        wf = dict(fwd.encircled_cusps)
        wr = dict(rev.encircled_cusps)
        assert set(wf) == set(wr)
        for k in wf:
            assert wf[k] == -wr[k]

    @pytest.mark.parametrize("mode", [WorkingMode(1, -1), WorkingMode(-1, 1), WorkingMode(-1, -1)],
                             ids=lambda m: m.label)
    def test_other_mode_than_the_atlas_raises(self, mode, atlas_pp):
        with pytest.raises(TrajectoryError, match=f"working mode {mode.label} does not "
                                                  "match the atlas working mode pp"):
            track_branches(_traj(mode=mode), PARAMS, atlas_pp)

    def test_other_mechanism_than_the_atlas_raises(self, atlas_pp):
        other = MechanismParams(l2=Fraction(5, 2))
        with pytest.raises(TrajectoryError) as e:
            track_branches(_traj(), other, atlas_pp)
        assert "'l2': '5/2'" in str(e.value) and "'l2': '3'" in str(e.value)

    def test_other_slice_than_the_atlas_raises(self, atlas_pp):
        with pytest.raises(TrajectoryError, match="slice y = 1/3 does not match the atlas "
                                                  "slice y = 1/2"):
            track_branches(_traj(y0=Fraction(1, 3)), PARAMS, atlas_pp)

    def test_in_domain_path_no_change(self, atlas_pp):
        t = _traj(((-1.0, 1.0), (-1.1, 1.2)))
        v = track_branches(t, PARAMS, atlas_pp)
        assert v.same_domain is True
        assert v.assembly_mode_changed is False

    def test_near_constant_path_identity(self, atlas_pp):
        t = _traj(((-1.0, 1.0), (-1.0, 1.0 + 1e-12)))
        v = track_branches(t, PARAMS, atlas_pp)
        assert v.same_domain is True
        assert v.assembly_mode_changed is False
        assert all(w == 0 for _, w in v.encircled_cusps)

    def test_start_pose_without_its_root_raises(self, atlas_pp):
        """From the benchmark's singular pose (0.2062912477066774, 1), on
        det A = 0 in mode ++, the direct kinematics at the start joints has
        no real root: no pose to tell the partners from, so no verdict."""
        t = _traj(((0.2062912477066774, 1.0), (97 / 128, 161 / 128)))
        with pytest.raises(TrajectoryError, match=r"start pose \(x, phi\) = "
                                                  r"\(0\.2062912477066774, 1\.0\) is not told"):
            track_branches(t, PARAMS, atlas_pp)

    def test_start_solution_is_told_apart_by_a_quarter_gap(self):
        """The start pose is the solution nearest tan(phi0/2), taken only
        when four times its distance is below its gap to the next one."""
        from kinatlas.mechanism import Pose
        from kinatlas.trajectory import _start_solution

        def sols(*ts):
            return [(Pose(0.0, 0.5, 2 * math.atan(t)), None) for t in ts]

        def start(phi0, ts):
            return _start_solution(sols(*ts), Pose(0.0, 0.5, phi0))

        assert start(0.0, [-1.0, 0.0, 1.0]) == 1
        assert start(2 * math.atan(0.9), [-1.0, 1.0]) == 1
        assert start(2 * math.atan(0.2), [0.0, 1.0]) == 0
        assert start(2 * math.atan(0.1) + 2 * math.pi, [0.0, 1.0]) == 0
        assert start(0.0, [0.3]) == 0
        for phi0, ts in ((0.0, []), (2 * math.atan(0.3), [0.0, 1.0]),
                         (2 * math.atan(0.5), [0.0, 1.0])):
            with pytest.raises(TrajectoryError, match="is not told apart"):
                start(phi0, ts)

    def test_winding_refinement_invariant(self, atlas_pp):
        t = _traj()
        centers = []
        for c in atlas_pp.cusps:
            r = (float(c.r_box[0]) + float(c.r_box[1])) / 2
            u = (float(c.u_box[0]) + float(c.u_box[1])) / 2
            centers.append((math.sqrt(r), 2 * math.atan(u)))
        q0 = _joints_at(t, 0.0, PARAMS)
        sols = direct_kinematics(q0, PARAMS)
        partner = next((p for p, _ in sols
                        if max(abs(p.x + 1.0), abs(p.phi - 1.0)) > 1e-6))
        ch = follow_chain(t, PARAMS, (partner.x, partner.y, partner.phi))
        w1 = encirclement(tracked_chart(t, PARAMS), PARAMS, centers, ch)
        assert any(w != 0 for _, w in w1)
        # refine the tracked polyline: windings must not move
        w2 = encirclement(tracked_chart(t, PARAMS, n=800), PARAMS, centers, ch)
        assert w1 == w2

    def test_one_pass_per_verdict(self, atlas_pp, monkeypatch):
        """The Fig. 10 verdict samples its branch in one pass, at s = i/1200
        for every i that 2 or 3 divides, each once; its joint path is the
        n = 200 chart and the forward chart of its loop the n = 400 one,
        bit for bit, and the partner chains, their boundary clamp included,
        never take the path."""
        from kinatlas import trajectory as tj
        kernel, encircle = tj._chain_kernel, tj.encirclement
        paths, fwds = [], []

        def recorded_kernel(traj, params):
            path, system = kernel(traj, params)
            calls = []
            paths.append(calls)

            def recorded_path(s):
                calls.append(s)
                return path(s)

            return recorded_path, system

        def recorded_encirclement(fwd, *args):
            fwds.append(fwd)
            return encircle(fwd, *args)

        monkeypatch.setattr(tj, "_chain_kernel", recorded_kernel)
        monkeypatch.setattr(tj, "encirclement", recorded_encirclement)
        t = _traj()
        v = track_branches(t, PARAMS, atlas_pp)
        monkeypatch.undo()
        want = [i / 1200 for i in range(1201) if i % 2 == 0 or i % 3 == 0]
        assert len(want) == len(set(want)) == 801
        assert paths[0] == want
        assert len(paths) > 1 and not any(paths[1:])
        assert len(fwds) == 1
        assert [_bits(p) for p in v.joint_path] == \
            [_bits(p) for p in tracked_chart(t, PARAMS, n=200)]
        assert [_bits(p) for p in fwds[0]] == [_bits(p) for p in tracked_chart(t, PARAMS, n=400)]


class TestWinding:
    def test_unit_square_loop(self):
        loop = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
        assert winding_number(loop, (0, 0)) == 1
        assert winding_number(list(reversed(loop)), (0, 0)) == -1
        assert winding_number(loop, (5, 5)) == 0

    def test_random_loops_wind_as_the_segment_route(self):
        """One atan2 per vertex winds every seeded random closed polyline as
        two per segment do: star-shaped loops turning up to three times
        round the centre, and loops of random points."""
        from oracles import winding_number_by_segments
        rng = random.Random(43)
        windings = set()
        for _ in range(300):
            c = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            turns = rng.choice((-3, -2, -1, 1, 2, 3))
            n = rng.randrange(3, 60)
            star = [(c[0] + r * math.cos(a), c[1] + r * math.sin(a))
                    for a, r in ((2 * math.pi * turns * i / n + rng.uniform(-0.5, 0.5) / n,
                                  rng.uniform(0.1, 2.0)) for i in range(n))]
            scatter = [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                       for _ in range(rng.randrange(1, 30))]
            for loop in (star, scatter):
                want = winding_number_by_segments(loop, c)
                assert winding_number(loop, c) == want, (loop, c)
                windings.add(want)
        assert {-3, -1, 0, 1, 3} <= windings

    @pytest.mark.parametrize("loop, center", [
        ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], (0.0, 0.0)),
        ([(1.0, 1.0), (0.0, 0.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)], (0.0, 0.0)),
        ([(1.0, 1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)],
         (0.0, 0.0)),
        ([(1.0, 0.0), (-1.0, 0.0)], (0.0, 0.0)),
        ([(1.0, 0.5), (-1.0, -0.5)], (0.0, 0.0)),
        ([(2.0, 3.0)], (0.0, 0.0)),
        ([(0.0, 0.0)], (0.0, 0.0)),
        ([], (0.0, 0.0)),
        ([(-1.0, 1e-300), (1.0, 1e-300), (1.0, -1e-300), (-1.0, -1e-300)], (0.0, 0.0)),
    ], ids=["vertex-on-centre", "through-centre", "repeated-vertices", "two-point-on-axis",
            "two-point", "one-point", "one-point-on-centre", "empty", "thin"])
    def test_degenerate_loops_wind_as_the_segment_route(self, loop, center):
        from oracles import winding_number_by_segments
        assert winding_number(loop, center) == winding_number_by_segments(loop, center)

    def test_fig10_loops_wind_as_the_segment_route(self, atlas_pp, monkeypatch):
        """Every loop and cusp centre that the Fig. 10 verdict winds, in each
        working mode, against the two-atan2 route."""
        from oracles import winding_number_by_segments
        from kinatlas import trajectory as tj
        wound = []

        def recorded(loop, center):
            wound.append((loop, center))
            return winding_number(loop, center)

        monkeypatch.setattr(tj, "winding_number", recorded)
        for mode in MODES:
            before = len(wound)
            track_branches(_traj(mode=mode), PARAMS, atlas_pp.in_mode(mode))
            assert len(wound) - before == len(atlas_pp.cusps), mode.label
        for loop, center in wound:
            assert winding_number(loop, center) == winding_number_by_segments(loop, center)
        assert any(winding_number(loop, center) for loop, center in wound)


def _bits(values):
    """The IEEE-754 bytes of each float, so that 0.0 and -0.0 differ."""
    return [struct.pack("d", v) for v in values]


def _outcome(fn, *args):
    """('ok', bytes of each entry) or ('raise', exception class name)."""
    try:
        out = fn(*args)
    except (ZeroDivisionError, TrajectoryError) as e:
        return ("raise", type(e).__name__)
    return ("ok", _bits(out))


def _kernel_systems(rng):
    """Square systems for `_solve`, 3x4 Jacobians of full rank for
    `_tangent4`, and rank-deficient 3x4 ones: random ones, tied pivots,
    signed zeros, a zero column and near-singular ones around the 1e-14
    pivot threshold."""
    def rand(rows, cols):
        return [[rng.uniform(-3.0, 3.0) for _ in range(cols)] for _ in range(rows)]

    squares, jacobians, deficient = [], [], []
    for n in (3, 4):
        for _ in range(150):
            squares.append(rand(n, n))
        for _ in range(40):
            m = rand(n, n)
            v = rng.choice((1.0, 0.5, 2.0))
            for i in range(n):               # equal |entries| down each column
                m[i][rng.randrange(n)] = rng.choice((v, -v))
            m[rng.randrange(n)][0] = -m[0][0]
            squares.append(m)
        for _ in range(20):
            m = rand(n, n)
            c = rng.randrange(n)
            for i in range(n):
                m[i][c] = rng.choice((0.0, -0.0))
            squares.append(m)
        for piv in (1e-14, -1e-14, 0.99e-14, 1.01e-14):   # pivot on the threshold
            m = rand(n, n)
            for i in range(n):
                m[i][0] = 0.0
            m[rng.randrange(n)][0] = piv
            squares.append(m)
        for eps in (1e-13, 1e-14, 0.99e-14, 1e-16):
            m = rand(n, n)
            m[-1] = [a + eps * rng.uniform(-1, 1) for a in m[0]]
            squares.append(m)
            m = rand(n, n)
            m[rng.randrange(n)][rng.randrange(n)] = 0.0
            squares.append(m)
    for _ in range(150):
        jacobians.append(rand(3, 4))
    for _ in range(40):
        j = rand(3, 4)
        for r in range(3):
            j[r][rng.randrange(4)] = rng.choice((1.0, -1.0))
        jacobians.append(j)
    for c in range(4):
        j = rand(3, 4)
        for r in range(3):
            j[r][c] = -0.0 if r % 2 else 0.0
        jacobians.append(j)
    for eps in (1e-6, 1e-10, 1e-14, 1e-16, 0.0):
        j = rand(3, 4)
        j[2] = [a + b + eps * rng.uniform(-1, 1) for a, b in zip(j[0], j[1])]
        (deficient if eps == 0.0 else jacobians).append(j)
    deficient.append([[0.0] * 4 for _ in range(3)])
    # near-singular and signed-zero Jacobians as the walk forms them
    t = _traj()
    for s in (0.0, 0.25, 0.5, 1.0):
        p = t.pose_at(s)
        j = _system(t, p.x, p.y, p.phi, s)[2]
        jacobians.append(j)
        jacobians.append([[v * 1e-15 for v in row] for row in j])
    return squares, jacobians, deficient


_EPS = 2.0 ** -52


def _minor_ratio(j):
    """Norm of the 3x3 minors of a 3x4 Jacobian over the product of its row
    norms, the minors taken as the Leibniz determinants det [J; e_k]."""
    from oracles import det44_proxy
    units = ([1.0 if c == k else 0.0 for c in range(4)] for k in range(4))
    minors = [det44_proxy(j, e) for e in units]
    norm = 1.0
    for row in j:
        norm *= math.hypot(*row) or 1.0
    return math.hypot(*minors) / norm


def _kernel(m, r):
    """`_solve` on the augmented rows of a 4x4 system, or of a 3x3 one
    padded to 4x4: a zero fourth column, the row (0, 0, 0, 1) and
    right-hand side 0, the first three entries kept."""
    if len(m) == 4:
        return _solve(*[(*row, v) for row, v in zip(m, r)])
    return _solve(*[(*row, 0.0, v) for row, v in zip(m, r)], (0.0, 0.0, 0.0, 1.0, 0.0))[:3]


def _system(t, x, y, phi, s, params=PARAMS):
    """The chain kernel's system at (x, y, phi; s) as (q, F, 3x4 Jacobian),
    the Jacobian's rows as lists."""
    q, rows = _chain_kernel(t, params)[1](x, y, phi, s)
    return q, tuple(row[4] for row in rows), [list(row[:4]) for row in rows]


class TestKernelOracles:
    def test_solve_matches_oracle_bitwise(self):
        from oracles import solve
        rng = random.Random(20261018)
        squares, _, _ = _kernel_systems(rng)
        raised = 0
        for m in squares:
            r = [rng.uniform(-2.0, 2.0) for _ in m]
            r[rng.randrange(len(r))] = rng.choice((0.0, -0.0))
            want = _outcome(solve, m, r)
            assert _outcome(_kernel, m, r) == want, m
            raised += want[0] == "raise"
        assert raised >= 40

    def test_solve_matches_oracle_on_walk_systems(self, monkeypatch):
        """The corrector's own systems, bit for bit: every system the Fig. 10
        partner walks solve, both ways, and the 3x4 Jacobian of the chain
        kernel's system with a tangent row at Fig. 10 points and in the kink
        windows of its waypoints, in every mode and in both directions."""
        from oracles import solve
        from kinatlas import trajectory as tj
        kernel = tj._solve
        walked = []

        def recorded(*rows):
            walked.append(([list(row[:4]) for row in rows], tuple(row[4] for row in rows)))
            return kernel(*rows)

        monkeypatch.setattr(tj, "_solve", recorded)
        for wps in (FIG10, tuple(reversed(FIG10))):
            t = _traj(wps)
            for st in _partner_starts(t):
                try:
                    follow_chain(t, PARAMS, st)
                except TrajectoryError:
                    pass
        monkeypatch.undo()
        assert len(walked) > 1000
        for m, r in walked:
            assert _outcome(_kernel, m, r) == _outcome(solve, m, r), (m, r)
        rng = random.Random(15)
        systems = 0
        for mode in MODES:
            for wps in (FIG10, tuple(reversed(FIG10))):
                t = _traj(wps, mode=mode)
                for s, (x, y, phi) in _system_points(t, rng):
                    _, f, j = _system(t, x, y, phi, s)
                    prev = [rng.uniform(-1.0, 1.0) for _ in range(4)]
                    for row in (_tangent4(j, prev), prev):
                        m = j + [row]
                        r = (*f, rng.choice((0.0, -0.0, rng.uniform(-1e-3, 1e-3))))
                        assert _outcome(_kernel, m, r) == _outcome(solve, m, r), (wps, s)
                        systems += 1
        assert systems >= 600

    def test_tangent_is_the_oracle_null_vector(self):
        """The signed minors give a unit null vector, equal after orientation
        to the oracle's to rounding over the conditioning; a Jacobian whose
        minors vanish against its row norms is rank-deficient."""
        from oracles import tangent4
        rng = random.Random(20261018)
        _, jacobians, deficient = _kernel_systems(rng)
        agreed = 0
        for j in jacobians:
            prev = [rng.uniform(-1.0, 1.0) for _ in range(4)]
            ratio = _minor_ratio(j)
            try:
                t = _tangent4(j, prev)
            except TrajectoryError:
                assert ratio < 2e-14, j
                continue
            assert ratio > 0.5e-14, j
            assert abs(math.hypot(*t) - 1.0) <= 2 * _EPS
            assert sum(a * b for a, b in zip(t, prev)) >= 0
            for row in j:
                dot = sum(a * b for a, b in zip(row, t))
                assert abs(dot) <= 8 * _EPS * math.hypot(*row) / ratio, (j, t)
            try:
                want = tangent4(j, prev)
            except TrajectoryError:
                continue
            assert max(abs(a - b) for a, b in zip(t, want)) <= 8 * _EPS / ratio, (j, t, want)
            agreed += 1
        assert agreed >= 195
        for j in deficient:
            for prev in ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]):
                with pytest.raises(TrajectoryError):
                    _tangent4(j, prev)
            assert _outcome(tangent4, j) == ("raise", "TrajectoryError")

    def test_tangent_is_bitwise_the_det3_route(self):
        """The minors over the six 2x2 minors of J's last two rows and the
        row norms taken once each: the tangent, or the rank-deficiency
        error, of four determinants expanded one by one, bit for bit, on
        the random and edge Jacobians and the walk's own."""
        from oracles import tangent4_by_det3
        rng = random.Random(43)
        _, jacobians, deficient = _kernel_systems(rng)
        walked = []
        for wps in (FIG10, tuple(reversed(FIG10))):
            t = _traj(wps)
            for s, (x, y, phi) in _system_points(t, rng):
                walked.append(_chain_kernel(t, PARAMS)[1](x, y, phi, s)[1])
        raised = 0
        for j in jacobians + deficient + walked:
            for prev in ([rng.uniform(-1.0, 1.0) for _ in range(4)], [0.0, 0.0, 0.0, 1.0]):
                want = _outcome(tangent4_by_det3, j, prev)
                assert _outcome(_tangent4, j, prev) == want, j
                raised += want[0] == "raise"
        assert raised >= 2 * len(deficient)

    def test_det_a_scan_is_bitwise_the_jacobian_route(self):
        """The verdict's det A scan, the last signed minor of dF/dX bordered
        by a zero column over its row norms, equals dF/dX of
        `oracles.distance_jacobian`, its determinant expanded along its
        first row and its row norms, bit for bit, in every mode and on a
        geometry whose products by a and b are rounded."""
        import oracles
        from kinatlas.trajectory import _det_a_normalized
        rng = random.Random(17)
        other = MechanismParams(Fraction(17, 5), Fraction(3), Fraction(4, 3), Fraction(7, 5))
        for params in (PARAMS, other):
            for mode in MODES:
                t = _traj(mode=mode)
                for s, (x, y, phi) in _system_points(t, rng):
                    jv = oracles.joints_at(t, s, params)
                    got = _det_a_normalized(x, y, phi, (jv.rho1, jv.rho2, jv.rho3), params)
                    want = oracles.det_a_normalized(x, y, phi, jv, params)
                    assert _bits((got,)) == _bits((want,)), (mode.label, s)

    def test_jacobian_matches_central_difference_oracle(self):
        """dF/dX bitwise; the analytic dF/ds within 1e-6 of the column's
        norm of the central difference at s +- 1e-7, which is one-sided
        (error O(ds)) at the ends and straddles the kink at a waypoint."""
        from oracles import sys_jacobian4_central
        rng = random.Random(7)
        for wps in (FIG10, tuple(reversed(FIG10))):
            t = _traj(wps)
            for s, (x, y, phi) in _system_points(t, rng):
                got = _system(t, x, y, phi, s)[2]
                want = sys_jacobian4_central(x, y, phi, s, t, PARAMS, _joints_at(t, s, PARAMS))
                assert [_bits(row[:3]) for row in got] == [_bits(row[:3]) for row in want]
                col = [row[3] for row in want]
                err = max(abs(g[3] - w) for g, w in zip(got, col))
                assert err <= 1e-6 * math.hypot(*col), (wps, s, got, want)

    def test_system_matches_per_quantity_oracles(self):
        """The chain kernel's joints, F and 3x4 Jacobian equal, bit for bit,
        the joints through `pose_at`, the residuals and the Jacobian that
        the per-quantity routes take, each with its own IK and
        trigonometry; its path's joints and path point are those of
        `pose_at` too.  Besides the default geometry, one whose lengths are
        no powers of two, so that a product by l2, l3, a or b is rounded."""
        import oracles
        rng = random.Random(11)
        other = MechanismParams(Fraction(17, 5), Fraction(3), Fraction(4, 3), Fraction(7, 5))
        for params in (PARAMS, other):
            for mode in MODES:
                for wps in (FIG10, tuple(reversed(FIG10)), FIG10[1:]):
                    t = _traj(wps, mode=mode)
                    for s, (x, y, phi) in _system_points(t, rng):
                        q, f, j = _system(t, x, y, phi, s, params)
                        jv = oracles.joints_at(t, s, params)
                        assert _bits(q) == _bits((jv.rho1, jv.rho2, jv.rho3)), (wps, s)
                        xs, ps, qs, _ = _chain_kernel(t, params)[0](s)
                        p = t.pose_at(s)
                        assert _bits((xs, ps, *qs)) == _bits((p.x, p.phi, *q)), (wps, s)
                        assert _bits(f) == _bits(oracles.distance_residuals(x, y, phi, jv, params))
                        want = oracles.sys_jacobian4(x, y, phi, s, t, params, jv)
                        assert [_bits(row) for row in j] == [_bits(row) for row in want], (wps, s)

    def test_system_takes_one_ik(self, monkeypatch):
        """One evaluation of the slice IK per call of the kernel's system,
        and no other IK route: the slice set-up (asin and cos of leg 2) runs
        once, when the kernel is built."""
        import inspect
        from kinatlas import trajectory as tj
        t = _traj()
        cases = []
        for s in (0.0, 1e-8, 0.25, 1 / 3, 1 / 3 + 5e-8, 0.5, 2 / 3 - 5e-8, 1.0):
            p = t.pose_at(s)
            cases.append((p.x, p.y, p.phi, s))
        want = [_chain_kernel(t, PARAMS)[1](*c) for c in cases]
        setup = tj.slice_ik
        setups, calls = [], []

        def counted_setup(*args):
            setups.append(args)
            alpha2, ik = setup(*args)

            def counted(*a):
                calls.append(a)
                return ik(*a)

            return alpha2, counted

        def no_ik(*args):
            raise AssertionError("a second IK route in the chain kernel")

        monkeypatch.setattr(tj, "slice_ik", counted_setup)
        system = _chain_kernel(t, PARAMS)[1]
        assert list(inspect.signature(system).parameters) == ["x", "y", "phi", "s"]
        assert len(setups) == 1
        monkeypatch.setattr(tj, "slice_ik", no_ik)
        monkeypatch.setattr(tj, "_chain_kernel", no_ik)
        for c, w in zip(cases, want):
            calls.clear()
            assert system(*c) == w
            assert len(calls) == 1


_TOL_IN = math.nextafter(1e-11, 0.0)
_EDGES = (math.nan, 0.0, -0.0, math.inf, -math.inf, 1e-11, -1e-11, _TOL_IN, -_TOL_IN)


def _stub_system(f1, f2, f3, calls):
    """A chain system whose rows are the unit rows of x, y and phi with the
    residuals f1, f2 and f3 at every iterate; it records each s it is
    asked at."""
    def system(x, y, phi, s):
        calls.append(s)
        return (0.5, 1.5, 2.5), ((1.0, 0.0, 0.0, 0.0, f1), (0.0, 1.0, 0.0, 0.0, f2),
                                 (0.0, 0.0, 1.0, 0.0, f3))
    return system


def _corrected(corrector, f, s0, tangent):
    """(IEEE bytes of each s the corrector asks the stub at, its answer as
    bytes or None)."""
    calls = []
    res = corrector(0.25, 0.5, -0.75, s0, tangent, _stub_system(*f, calls))
    if res is not None:
        point, q, rows = res
        res = (_bits(point), _bits(q), [_bits(row) for row in rows])
    return _bits(calls), res


class TestCorrectorPredicates:
    """The corrector's clamp of s and its convergence test against
    `min(1.0, max(0.0, s))` and `max(abs(f1), abs(f2), abs(f3),
    abs(plane)) < 1e-11` (`oracles.clamp_s`, `oracles.converged`) on edge
    values, which real walks never reach: NaN, signed zeros, infinities and
    the tolerance and the next double inside it, in each position."""

    @staticmethod
    def _plane_start(v):
        """(s0, tangent) that make the first iterate's plane residual v: s0
        clamps to 0.0, so the plane is t3 (0.0 - s0)."""
        if math.isnan(v) or math.copysign(1.0, v) > 0:
            return -v, (0.0, 0.0, 0.0, 1.0)
        return v, (0.0, 0.0, 0.0, -1.0)

    def test_edge_residuals_converge_as_max_abs(self):
        import itertools
        from oracles import converged, corrector4_by_min_max
        from kinatlas.trajectory import _corrector4
        seen = set()
        for f in itertools.product(_EDGES, repeat=4):
            s0, tangent = self._plane_start(f[3])
            got = _corrected(_corrector4, f[:3], s0, tangent)
            assert got == _corrected(corrector4_by_min_max, f[:3], s0, tangent), f
            want = converged(*f)
            assert (len(got[0]) == 1 and got[1] is not None) == want, f
            seen.add(want)
        assert seen == {True, False}

    @pytest.mark.parametrize("s0", [-0.0, 0.0, math.nan, 1.0, math.nextafter(1.0, 2.0),
                                    math.nextafter(0.0, 1.0), 0.5, -1.0, 2.0, math.inf,
                                    -math.inf])
    @pytest.mark.parametrize("f", [(0.0, 0.0, 0.0), (1e-3, 0.0, 0.0), (math.nan, 0.0, 0.0),
                                   (0.0, math.nan, 0.0)], ids=["zero", "off", "nan", "nan-later"])
    def test_edge_starts_clamp_as_min_max(self, s0, f):
        from oracles import clamp_s, corrector4_by_min_max
        from kinatlas.trajectory import _corrector4
        for tangent in ((0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 0.0)):
            got = _corrected(_corrector4, f, s0, tangent)
            assert got == _corrected(corrector4_by_min_max, f, s0, tangent)
            assert got[0][0] == _bits((clamp_s(s0),))[0]


def _system_points(t, rng):
    """(s, pose) pairs for the chain system: the ends, next to them, the
    kink windows of the inner waypoints, and random s, each pose the
    path's one moved by up to 1e-3 in x and phi."""
    n = len(t.waypoints) - 1
    kinks = [k / n + d for k in range(1, n)
             for d in (0.0, 5e-8, -5e-8, 9e-8, -9e-8, 1e-7, -1e-7)]
    out = []
    for s in [0.0, 1.0, 1e-8, 1 - 1e-8] + kinks + [rng.random() for _ in range(30)]:
        p = t.pose_at(s)
        out.append((s, (p.x + rng.uniform(-1e-3, 1e-3), p.y, p.phi + rng.uniform(-1e-3, 1e-3))))
    return out


def _partner_starts(t):
    p0 = t.pose_at(0.0)
    sols = direct_kinematics(_joints_at(t, 0.0, PARAMS), PARAMS)
    return [(p.x, p.y, p.phi) for p, _ in sols
            if max(abs(p.x - p0.x), abs(p.y - p0.y), abs(p.phi - p0.phi)) >= 1e-6]


class TestWalkIdentity:
    @pytest.mark.parametrize("wps", [FIG10, tuple(reversed(FIG10))], ids=["fig10", "reversed"])
    def test_follow_chain_identical_with_oracle_kernels(self, wps, monkeypatch):
        import oracles
        from kinatlas import trajectory as tj
        t = _traj(wps)
        starts = _partner_starts(t)
        assert starts
        kernel = tj._chain_kernel
        passed = []

        def checked_kernel(traj, params):
            path, system = kernel(traj, params)

            def checked_system(x, y, phi, s):
                # the joints of each evaluation are those of the same s
                q, rows = system(x, y, phi, s)
                jv = _joints_at(traj, s, params)
                assert _bits(q) == _bits((jv.rho1, jv.rho2, jv.rho3)), s
                passed.append(s)
                return q, rows

            return path, checked_system

        def oracle_solve(*rows):
            return oracles.solve([row[:4] for row in rows], [row[4] for row in rows])

        def walk():
            chains = []
            for st in starts:
                try:
                    chains.append(follow_chain(t, PARAMS, st))
                except TrajectoryError as e:
                    chains.append(str(e))
            return chains

        with monkeypatch.context() as mp:
            mp.setattr(tj, "_chain_kernel", checked_kernel)
            chains = walk()
        assert any(isinstance(c, tj.Chain) and c.end_s == 1.0 for c in chains)
        assert len(passed) > 100
        for c in chains:
            if isinstance(c, tj.Chain):
                # the chain keeps the joints of every point: those of its s
                assert len(c.joints) == len(c.points)
                for p, q in zip(c.points, c.joints):
                    jv = _joints_at(t, p[3], PARAMS)
                    assert _bits((q.rho1, q.rho2, q.rho3)) == _bits((jv.rho1, jv.rho2, jv.rho3))

        def summary(cs):
            return [(repr(c.points), c.end_s) if isinstance(c, tj.Chain) else c for c in cs]

        with monkeypatch.context() as mp:
            mp.setattr(tj, "_solve", oracle_solve)
            assert summary(walk()) == summary(chains)
        with monkeypatch.context() as mp:
            mp.setattr(tj, "_tangent4", oracles.tangent4)
            other = walk()
        for a, b in zip(chains, other):
            assert isinstance(a, tj.Chain) == isinstance(b, tj.Chain)
            if isinstance(a, tj.Chain):
                assert a.end_s == b.end_s
                assert max(abs(u - v) for u, v in zip(a.points[-1], b.points[-1])) < 1e-12
            else:
                assert a == b

    def test_chain_chart_takes_no_ik(self, monkeypatch):
        from kinatlas import mechanism
        from kinatlas import trajectory as tj
        t = _traj()
        ch = follow_chain(t, PARAMS, _partner_starts(t)[0])
        want = ch.chart(PARAMS)

        def no_ik(*args):
            raise AssertionError("inverse kinematics in Chain.chart")

        monkeypatch.setattr(mechanism, "slice_ik", no_ik)
        monkeypatch.setattr(tj, "slice_ik", no_ik)
        monkeypatch.setattr(tj, "_chain_kernel", no_ik)
        assert ch.chart(PARAMS) == want
        assert len(want) == len(ch.points)


def _pool_trajectories(count):
    """Waypoints of the first `count` generated trajectories recorded in
    perfbench/reference.json."""
    from oracles import pool_waypoints
    return pool_waypoints(count)


def _walks(t, walk):
    """Each partner start's walk: (points, joints, end) as IEEE bytes, or
    the error it stopped with."""
    out = []
    for st in _partner_starts(t):
        try:
            c = walk(t, PARAMS, st)
        except TrajectoryError as e:
            out.append(("raise", str(e)))
            continue
        out.append((tuple(tuple(_bits(p)) for p in c.points),
                    tuple(tuple(_bits((q.rho1, q.rho2, q.rho3))) for q in c.joints),
                    c.end_s))
    return out


class TestWalkOracle:
    """The walk on the one-pass chain system against the walk on the
    per-quantity routes (`oracles.follow_chain`): the same chains, bit for
    bit, or the same error."""

    @pytest.mark.parametrize("wps, mode", [
        pytest.param(wps, mode, id=name if mode.label == "pp" else f"{name}-{mode.label}")
        for mode in MODES
        for name, wps in (("fig10", FIG10), ("reversed", tuple(reversed(FIG10))))])
    def test_fig10_walks_are_bitwise_the_oracle_walks(self, wps, mode):
        import oracles
        t = _traj(wps, mode=mode)
        got = _walks(t, follow_chain)
        assert any(w[0] != "raise" and w[2] == 1.0 for w in got)
        assert got == _walks(t, oracles.follow_chain)

    def test_pool_walks_are_bitwise_the_oracle_walks(self):
        import oracles
        walks = 0
        for wps in _pool_trajectories(24):
            t = _traj(wps)
            got = _walks(t, follow_chain)
            assert got == _walks(t, oracles.follow_chain), wps
            walks += len(got)
        assert walks >= 24
