import math
from fractions import Fraction

import pytest

from kinatlas.mechanism import (
    MechanismParams, WorkingMode, direct_kinematics,
)
from kinatlas.trajectory import (
    Trajectory, TrajectoryError,
    track_branches, follow_chain,
    tracked_chart, encirclement, winding_number, joint_values_at,
)

PARAMS = MechanismParams()
FIG10 = ((-1.0, 1.0), (0.0, 0.5), (1.0, -1.0), (0.5, -2.0))


def _traj(wps=FIG10, mode=WorkingMode(1, 1), y0=Fraction(1, 2)):
    return Trajectory(y0=y0, mode=mode, waypoints=tuple(wps))


class TestTrajectoryBasics:
    def test_needs_two_waypoints(self):
        with pytest.raises(TrajectoryError):
            _traj(((0.0, 0.0),))

    def test_json_parsing(self):
        t = Trajectory.from_json({
            "y": "1/2", "mode": [1, 1],
            "waypoints": [["-1", "1"], ["0", "1/2"], ["1", "-1"], ["1/2", "-2"]]})
        assert t.waypoints == FIG10
        assert t.mode == WorkingMode(1, 1)

    def test_interpolation_hits_waypoints(self):
        t = _traj()
        for k, (x, phi) in enumerate(FIG10):
            p = t.pose_at(k / 3)
            assert abs(p.x - x) < 1e-12 and abs(p.phi - phi) < 1e-12


class TestTracking:
    def test_fig10_chain_reaches_far_end(self):
        t = _traj()
        q0 = joint_values_at(t, 0.0, PARAMS)
        sols = direct_kinematics(q0, PARAMS)
        partner = next((p for p, _ in sols
                        if max(abs(p.x + 1.0), abs(p.phi - 1.0)) > 1e-6))
        ch = follow_chain(t, PARAMS, (partner.x, partner.y, partner.phi))
        assert ch.end_s == 1.0

    def test_chain_residuals_stay_small(self):
        from kinatlas.trajectory import _distance_residuals
        t = _traj()
        q0 = joint_values_at(t, 0.0, PARAMS)
        sols = direct_kinematics(q0, PARAMS)
        partner = next((p for p, _ in sols
                        if max(abs(p.x + 1.0), abs(p.phi - 1.0)) > 1e-6))
        ch = follow_chain(t, PARAMS, (partner.x, partner.y, partner.phi))
        for x, y, phi, s in ch.points[1:]:
            q = joint_values_at(t, s, PARAMS)
            r = _distance_residuals(x, y, phi, (q.rho1, q.rho2, q.rho3), PARAMS)
            assert max(abs(v) for v in r) < 1e-9

    def test_step_halving_stability(self):
        t = _traj()
        q0 = joint_values_at(t, 0.0, PARAMS)
        sols = direct_kinematics(q0, PARAMS)
        partner = next((p for p, _ in sols
                        if max(abs(p.x + 1.0), abs(p.phi - 1.0)) > 1e-6))
        st = (partner.x, partner.y, partner.phi)
        c1 = follow_chain(t, PARAMS, st, h0=1.0 / 256)
        c2 = follow_chain(t, PARAMS, st, h0=1.0 / 512)
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
        for mode in WorkingMode.all_modes():
            t = _traj(mode=mode)
            v = track_branches(t, PARAMS, atlas_pp)
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

    def test_winding_refinement_invariant(self, atlas_pp):
        t = _traj()
        centers = []
        for c in atlas_pp.cusps:
            r = (float(c.r_box[0]) + float(c.r_box[1])) / 2
            u = (float(c.u_box[0]) + float(c.u_box[1])) / 2
            centers.append((math.sqrt(r), 2 * math.atan(u)))
        q0 = joint_values_at(t, 0.0, PARAMS)
        sols = direct_kinematics(q0, PARAMS)
        partner = next((p for p, _ in sols
                        if max(abs(p.x + 1.0), abs(p.phi - 1.0)) > 1e-6))
        ch = follow_chain(t, PARAMS, (partner.x, partner.y, partner.phi))
        w1 = encirclement(t, PARAMS, centers, ch)
        # refine the tracked polyline: windings must not move
        from kinatlas import trajectory as tj
        old = tj.tracked_chart
        try:
            tj_fwd = tracked_chart(t, PARAMS, n=800)
            w2 = encirclement(t, PARAMS, centers, ch)
        finally:
            pass
        assert w1 == w2


class TestWinding:
    def test_unit_square_loop(self):
        loop = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
        assert winding_number(loop, (0, 0)) == 1
        assert winding_number(list(reversed(loop)), (0, 0)) == -1
        assert winding_number(loop, (5, 5)) == 0
