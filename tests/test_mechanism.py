import hashlib
import math
import random
import struct
from fractions import Fraction

import pytest

from kinatlas.ratpoly import MPoly, exact_div, format_poly
from kinatlas.mechanism import (
    MechanismParams, WorkingMode, Pose, JointValues, PassiveAngles,
    KinematicsError, CS_VARS,
    constraints_trig, rationalize,
    parallel_singularity,
    inverse_kinematics, direct_kinematics, residuals,
    slice_workspace, slice_jointspace, project_parallel_to_joint, dk_count_chart,
)
from kinatlas.domains import characteristic_surface
from kinatlas.trajectory import _det_a_normalized

from oracles import (
    GEOM2, MODES, SLICES, det3, det_a_sign, divides, eval_substituting, jacobian_a, parse_poly,
    rationalize_all, serial_singularity,
)

PARAMS = MechanismParams()

# geom2, the isolated-point geometry of test_domains and ten seeded ones
_RNG = random.Random(11)
BRANCH_SUM_GEOMETRIES = [
    GEOM2,
    MechanismParams(Fraction(11, 4), Fraction(2), Fraction(7, 4), Fraction(3, 4)),
    *(MechanismParams(*(Fraction(_RNG.randint(1, 40), _RNG.randint(1, 12)) for _ in range(4)))
      for _ in range(10)),
]


class TestParams:
    def test_defaults(self):
        assert PARAMS.l2 == 3 and PARAMS.l3 == 3 and PARAMS.a == 1 and PARAMS.b == 1

    def test_positive_required(self):
        with pytest.raises(ValueError):
            MechanismParams(l2=Fraction(-1))

    def test_too_large_for_a_float(self):
        with pytest.raises(ValueError, match="l3 is too large for a float"):
            MechanismParams(l3=Fraction(10) ** 400)
        with pytest.raises(ValueError, match="b is too large for a float"):
            MechanismParams.from_json({"b": "1e400"})

    def test_json_values_read_as_written(self):
        # one reader, Fraction(str(v)): a JSON float is the decimal it shows,
        # and a bool is no length
        assert MechanismParams.from_json({"l2": 0.1, "a": 2}).l2 == Fraction(1, 10)
        for v in (True, False):
            with pytest.raises(ValueError):
                MechanismParams.from_json({"l2": v})

    def test_json_round_trip(self):
        d = PARAMS.to_json()
        assert d == {"type": "RPR-2PRR", "l2": "3", "l3": "3", "a": "1", "b": "1"}
        assert MechanismParams.from_json(d) == PARAMS

    def test_float_view_is_not_a_field(self):
        viewed = MechanismParams(Fraction(5, 2), Fraction(3), Fraction(1, 3), Fraction(2))
        fresh = MechanismParams(Fraction(5, 2), Fraction(3), Fraction(1, 3), Fraction(2))
        assert viewed.floats == (2.5, 3.0, 1 / 3, 2.0)
        assert "floats" in vars(viewed) and "floats" not in vars(fresh)
        assert viewed == fresh and hash(viewed) == hash(fresh)
        assert {viewed: 1}[fresh] == 1
        assert repr(viewed) == repr(fresh)
        assert viewed.to_json() == fresh.to_json() == {
            "type": "RPR-2PRR", "l2": "5/2", "l3": "3", "a": "1/3", "b": "2"}


class TestWorkingModes:
    def test_signs_validated(self):
        with pytest.raises(ValueError):
            WorkingMode(0, 1)

    def test_labels(self):
        assert WorkingMode(1, -1).label == "pm"


class TestConstraints:
    def test_reference_configuration_residuals(self):
        # x=1, y=1/2, phi=0, alpha2=asin(1/6), alpha3=+acos(2/3),
        # rho1=1/2, rho2=1-sqrt(35)/2, rho3=1/2-sqrt(5)
        pose = Pose(1.0, 0.5, 0.0)
        joints = JointValues(0.5, 1 - math.sqrt(35) / 2, 0.5 - math.sqrt(5))
        pa = PassiveAngles(math.asin(1 / 6), math.acos(2 / 3))
        res = residuals(pose, joints, pa, constraints_trig(PARAMS))
        assert max(abs(v) for v in res) < 1e-12

    def test_line_two_encodes_sine(self):
        eq = constraints_trig(PARAMS)[1]
        assert eq == 3 * MPoly.var("s2", CS_VARS) - MPoly.var("y", CS_VARS)

    def test_inconsistent_joints_nonzero(self):
        pose = Pose(0.0, 0.0, 0.0)
        joints = JointValues(2.0, 2.0, 2.0)
        pa = PassiveAngles(0.1, 0.2)
        res = residuals(pose, joints, pa, constraints_trig(PARAMS))
        assert max(abs(v) for v in res) > 1e-3

class TestRationalize:
    def test_cos_plus_one(self):
        p = parse_poly("cphi + 1", ("cphi", "sphi"))
        q = rationalize(p)
        assert q == MPoly.const(2, ("tphi",))

    def test_pythagorean_identity(self):
        p = parse_poly("sphi^2 + cphi^2 - 1", ("cphi", "sphi"))
        q = rationalize(p)
        assert q.is_zero()

    def test_half_tangent_numeric(self):
        p = parse_poly("cphi - 2*sphi + 3", ("cphi", "sphi"))
        q = rationalize(p)
        for phi in (0.3, -1.2, 2.0):
            t = math.tan(phi / 2)
            lhs = q.eval_float({"tphi": t})
            rhs = (math.cos(phi) - 2 * math.sin(phi) + 3) * (1 + t * t)
            assert abs(lhs - rhs) < 1e-9


class TestJacobians:
    def test_det_b_product_identity(self):
        detb = serial_singularity(PARAMS)
        target = parse_poly("rho1*c2*s3", ("rho1", "c2", "s3"))
        rb = rationalize_all(detb)
        rt = rationalize_all(PARAMS.l2 * PARAMS.l3 * target)
        assert rb.canonical() == rt.with_vars(rb.vars).canonical()

    def test_parallel_polynomial_matches_formula(self):
        sp = parallel_singularity(PARAMS)
        printed = parse_poly("y*cphi - x*sphi - sphi*x + sphi*cphi",
                             ("x", "y", "cphi", "sphi"))
        assert sp.canonical() == printed.canonical()

    def test_det_a_zero_at_alpha3_zero(self):
        # sin(alpha3) = 0 kills the serial determinant
        detb = serial_singularity(PARAMS)
        v = detb.eval({"s3": 0, "c2": Fraction(1, 2), "rho1": 1,
                       **{v: 0 for v in detb.vars if v not in ("s3", "c2", "rho1")}})
        assert v == 0

    def test_branch_sum_factors_through_pose_polynomial(self):
        self._check_branch_sum(PARAMS)

    @pytest.mark.parametrize("params", BRANCH_SUM_GEOMETRIES,
                             ids=lambda g: ",".join(str(v) for v in (g.l2, g.l3, g.a, g.b)))
    def test_branch_sum_factors_through_pose_polynomial_at(self, params):
        self._check_branch_sum(params)

    @staticmethod
    def _check_branch_sum(params):
        # the sum of det A over the four IK branches, at s2 = y / l2 and
        # c3 = (x + b cphi) / l3, is y (x + b cphi) S_p up to a constant
        d = det3(jacobian_a(params))
        total = None
        for s2 in (1, -1):
            for s3 in (1, -1):
                term = eval_substituting(d, {"c2": s2 * MPoly.var("c2", ("c2",)),
                                             "s3": s3 * MPoly.var("s3", ("s3",))})
                total = term if total is None else total + term
        x = MPoly.var("x", CS_VARS)
        y = MPoly.var("y", CS_VARS)
        cph = MPoly.var("cphi", CS_VARS)
        sub = eval_substituting(total, {"s2": y * (1 / params.l2),
                                        "c3": (x + params.b * cph) * (1 / params.l3)})
        target = y * (x + params.b * cph) * parallel_singularity(params).with_vars(CS_VARS)
        assert sub.with_vars(CS_VARS).canonical() == target.canonical()


class TestInverseKinematics:
    def test_reference_plus_plus(self):
        jv, pa = inverse_kinematics(Pose(1.0, 0.5, 0.0), WorkingMode(1, 1), PARAMS)
        assert abs(jv.rho1 - 0.5) < 1e-12
        assert abs(jv.rho2 - (1 - math.sqrt(35) / 2)) < 1e-12
        assert abs(jv.rho3 - (0.5 - math.sqrt(5))) < 1e-12

    def test_mode_flip_changes_leg2_only(self):
        jv1, _ = inverse_kinematics(Pose(1.0, 0.5, 0.0), WorkingMode(1, 1), PARAMS)
        jv2, _ = inverse_kinematics(Pose(1.0, 0.5, 0.0), WorkingMode(-1, 1), PARAMS)
        assert abs(jv2.rho2 - (1 + math.sqrt(35) / 2)) < 1e-12
        assert abs(jv1.rho1 - jv2.rho1) < 1e-15
        assert abs(jv1.rho3 - jv2.rho3) < 1e-15

    def test_leg2_boundary_error(self):
        with pytest.raises(KinematicsError) as e:
            inverse_kinematics(Pose(0.0, 3.0, 0.5), WorkingMode(1, 1), PARAMS)
        assert e.value.leg == 2

    def test_leg3_out_of_reach(self):
        with pytest.raises(KinematicsError) as e:
            inverse_kinematics(Pose(4.0, 0.5, 0.0), WorkingMode(1, 1), PARAMS)
        assert e.value.leg == 3

    def test_leg1_singular(self):
        with pytest.raises(KinematicsError) as e:
            inverse_kinematics(Pose(1.0, 0.0, 0.0), WorkingMode(1, 1), PARAMS)
        assert e.value.leg == 1

    def test_residuals_vanish_all_modes(self):
        rng = random.Random(4)
        for _ in range(40):
            pose = _random_reachable(rng)
            for mode in MODES:
                jv, pa = inverse_kinematics(pose, mode, PARAMS)
                res = residuals(pose, jv, pa, constraints_trig(PARAMS))
                assert max(abs(v) for v in res) < 1e-10


class TestDirectKinematics:
    def test_round_trip_reference(self):
        q = JointValues(Fraction(1, 2), 1 - math.sqrt(35) / 2, 0.5 - math.sqrt(5))
        sols = direct_kinematics(q, PARAMS)
        assert any(abs(p.x - 1) < 1e-9 and abs(p.y - 0.5) < 1e-9 and abs(p.phi) < 1e-9
                   for p, _ in sols)

    def test_unreachable_empty(self):
        assert direct_kinematics(JointValues(100, 0, 0), PARAMS) == []

    def test_root_shared_with_the_denominator_raises(self):
        """At q = (2, 7/2, 0) the poses (5/4, +-sqrt(63)/4, 0) solve the
        constraints, and their root t = 0 is also one of the back-substitution
        denominator's, where x and y are not determined: the direct
        kinematics raises and names the root, where a float filter dropped
        both poses."""
        import oracles
        q = JointValues(2, Fraction(7, 2), 0)
        for sy in (1, -1):
            y = sy * math.sqrt(63) / 4
            pa = PassiveAngles(math.atan2(y / 3, (1.25 - 3.5) / 3), math.atan2(y / 3, 2.25 / 3))
            res = residuals(Pose(1.25, y, 0.0), JointValues(2.0, 3.5, 0.0), pa,
                            constraints_trig(PARAMS))
            assert max(abs(v) for v in res) < 1e-12
        with pytest.raises(KinematicsError) as e:
            direct_kinematics(q, PARAMS)
        assert "(2, 7/2, 0)" in str(e.value) and "root t = 0 " in str(e.value)
        assert all(abs(p.phi) > 1 for p, _ in oracles.direct_kinematics(q, PARAMS))

    def test_denominator_identically_zero(self):
        """At rho2 = rho3 = 0 the back-substitution denominator is 0 for
        every t.  No pose has the default geometry's joints (2, 0, 0), and
        with l2 = l3 = 1, a = b = 2 the pose (-cos phi, -sin phi, phi) has
        the joints (3, 0, 0) for every phi: the eliminant vanishes, and the
        direct kinematics raises."""
        from kinatlas.mechanism import _dk_univariate
        assert _dk_univariate(Fraction(2), Fraction(0), Fraction(0), PARAMS)[3].is_zero()
        assert direct_kinematics(JointValues(2, 0, 0), PARAMS) == []
        with pytest.raises(KinematicsError, match="eliminant vanishes"):
            direct_kinematics(JointValues(3, 0, 0), MechanismParams(*map(Fraction, (1, 1, 2, 2))))

    def test_roots_closer_than_1e_7_are_two_poses(self):
        """One ulp above rho1 at a pose on det A = 0 (the middle waypoint of
        the benchmark's singular path, mode ++), the eliminant has two real
        roots within 1e-8 of each other: two poses, which a 1e-7 merge
        made one."""
        import oracles
        q, _ = inverse_kinematics(Pose(0.2062912477066774, 0.5, 1.0), WorkingMode(1, 1), PARAMS)
        assert direct_kinematics(q, PARAMS) == []
        q = JointValues(math.nextafter(q.rho1, math.inf), q.rho2, q.rho3)
        (p1, _), (p2, _) = direct_kinematics(q, PARAMS)
        assert 0 < max(abs(p1.x - p2.x), abs(p1.y - p2.y), abs(p1.phi - p2.phi)) < 1e-7
        assert len(oracles.direct_kinematics(q, PARAMS)) == 1

    def test_ik_dk_round_trips(self):
        rng = random.Random(8)
        for _ in range(25):
            pose = _random_reachable(rng)
            for mode in MODES:
                jv, _ = inverse_kinematics(pose, mode, PARAMS)
                sols = direct_kinematics(jv, PARAMS)
                assert any(abs(p.x - pose.x) < 1e-7 and abs(p.y - pose.y) < 1e-7
                           and abs(p.phi - pose.phi) < 1e-7 for p, _ in sols), \
                    f"{pose} not recovered in mode {mode.label}"

    def test_dk_ik_round_trips(self):
        rng = random.Random(15)
        for _ in range(15):
            pose = _random_reachable(rng)
            jv, _ = inverse_kinematics(pose, WorkingMode(1, 1), PARAMS)
            for p, pa in direct_kinematics(jv, PARAMS):
                s2 = 1 if math.cos(pa.alpha2) >= 0 else -1
                s3 = 1 if math.sin(pa.alpha3) >= 0 else -1
                jv2, _ = inverse_kinematics(p, WorkingMode(s2, s3), PARAMS)
                assert abs(jv2.rho1 - jv.rho1) < 1e-7
                assert abs(jv2.rho2 - jv.rho2) < 1e-7
                assert abs(jv2.rho3 - jv.rho3) < 1e-7


def _dk_inputs():
    """(params, joints) for the eliminant checks: the default geometry and
    geom2, then 40 seeded random geometries, each with the joints of two
    random poses in random modes and one random joint triple."""
    rng = random.Random(1717)
    out = []
    geometries = [PARAMS, GEOM2]
    for _ in range(40):
        geometries.append(MechanismParams(*(Fraction(rng.randint(2, 16), rng.randint(2, 6))
                                            for _ in range(4))))
    for params in geometries:
        l2, l3, a, b = params.floats
        poses = 0
        while poses < 2:
            pose = Pose(rng.uniform(-l3, l3), rng.uniform(-0.9 * l2, 0.9 * l2),
                        rng.uniform(-3.0, 3.0))
            mode = rng.choice(MODES)
            try:
                out.append((params, inverse_kinematics(pose, mode, params)[0]))
            except KinematicsError:
                continue
            poses += 1
        out.append((params, JointValues(rng.uniform(0.1, 4.0), rng.uniform(-4.0, 4.0),
                                        rng.uniform(-4.0, 4.0))))
    return out


def _trajectory_starts():
    """The start joints of the Fig. 10 trajectory and of every pool
    trajectory, mode ++, y = 1/2, default geometry."""
    from kinatlas.trajectory import Trajectory
    from oracles import pool_waypoints
    fig10 = ((-1.0, 1.0), (0.0, 0.5), (1.0, -1.0), (0.5, -2.0))
    mode = WorkingMode(1, 1)
    return [inverse_kinematics(Trajectory(Fraction(1, 2), mode, wps).pose_at(0.0), mode, PARAMS)[0]
            for wps in [fig10, *pool_waypoints()]]


def _dk_bits(sols):
    return [struct.pack("5d", p.x, p.y, p.phi, pa.alpha2, pa.alpha3) for p, pa in sols]


class TestDirectKinematicsEliminant:
    def test_one_plus_t_squared_to_the_fifth_divides_it_exactly(self):
        """(1 + t^2)^5 divides the eliminant and (1 + t^2)^6 does not."""
        from oracles import dk_eliminant, upoly_divmod
        from kinatlas.ratpoly import UPoly
        op = UPoly([1, 0, 1], "t")
        inputs = _dk_inputs()
        for params, q in inputs:
            p = dk_eliminant(Fraction(q.rho1), Fraction(q.rho2), Fraction(q.rho3), params)
            power = 0
            while True:
                quo, rem = upoly_divmod(p, op)
                if not rem.is_zero():
                    break
                p, power = quo, power + 1
            assert power == 5, (params, q, power)
        assert len(inputs) == 126

    def test_poses_are_bitwise_the_undivided_route(self):
        """`direct_kinematics` isolates P / (1 + t^2)^5 and returns, bit for
        bit, the poses of the route that isolates P."""
        import oracles
        inputs = _dk_inputs() + [(PARAMS, q) for q in _trajectory_starts()]
        found = 0
        for params, q in inputs:
            got = direct_kinematics(q, params)
            assert _dk_bits(got) == _dk_bits(oracles.direct_kinematics(q, params)), (params, q)
            found += len(got)
        assert len(inputs) == 126 + 161 and found >= 700


class TestSlices:
    def test_workspace_slice_serial_factors(self):
        ws = slice_workspace(Fraction(1, 2), PARAMS)
        strs = {str(p) for p in ws.serial}
        assert "x*tphi^2 - 4*tphi^2 + x - 2" in strs   # (x-2) + (x-4) t^2
        assert "x*tphi^2 + 2*tphi^2 + x + 4" in strs   # (x+4) + (x+2) t^2

    def test_slice_on_singularity_rejected(self):
        with pytest.raises(KinematicsError):
            slice_workspace(Fraction(3), PARAMS)

    def test_y_zero_slice(self):
        # the parallel curve of y = 0 holds the line phi = 0
        ws = slice_workspace(Fraction(0), PARAMS)
        assert divides(MPoly.var("tphi", ("x", "tphi")), ws.parallel)

    def test_chart_image_exact(self):
        ws = slice_workspace(Fraction(1, 2), PARAMS)
        r, c3 = ws.chart_image(Fraction(1), Fraction(0))
        assert r == Fraction(1, 4)          # rho1^2 at the reference pose
        assert c3 == Fraction(2, 3)

    def test_branch_flip_leaves_joint_curve_invariant(self, atlas_pp):
        # a fresh build: `in_mode` shares the geometry, so it would compare
        # the joint curve with itself
        from kinatlas.domains import SliceAtlas
        flipped = SliceAtlas.build(PARAMS, Fraction(1, 2), WorkingMode(-1, -1))
        assert flipped.js.parallel_rc == atlas_pp.js.parallel_rc

    def test_dk_count_chart_reference(self):
        ws = slice_workspace(Fraction(1, 2), PARAMS)
        n = dk_count_chart(Fraction(1, 4), Fraction(2, 3), ws)
        assert n >= 1

    @pytest.mark.parametrize("params", [PARAMS, GEOM2], ids=["default", "geom2"])
    def test_dk_count_chart_matches_rebuilt_fibre(self, params):
        """The count from the slice's leg-1 fibre equals the oracle's, which
        rebuilds the fibre at every chart point: 200 seeded points per
        slice, a third of them images of slice poses."""
        import oracles
        rng = random.Random(1818)
        counts = set()
        for y0 in (Fraction(1, 2), Fraction(0), Fraction(1)):
            ws = slice_workspace(y0, params)
            for k in range(200):
                if k % 3:
                    r = Fraction(rng.randint(0, 400), rng.randint(1, 25))
                    c3 = Fraction(rng.randint(-60, 60), rng.randint(1, 60))
                else:
                    r, c3 = ws.chart_image(Fraction(rng.randint(-90, 90), 20),
                                           Fraction(rng.randint(-90, 90), 30))
                n = dk_count_chart(r, c3, ws)
                assert n == oracles.dk_count_chart(r, c3, ws), (y0, r, c3)
                counts.add(n)
        assert counts == {0, 2, 4}


# SHA-256 of the newline-joined format_poly of ws.parallel, ws.serial,
# ws.rho1sq_num, ws.c3_num, the characteristic surface, parallel_rc and
# parallel_ru on the ++ slice, recorded before these polynomials were built
# by MPoly.substitute; geom2 has l2 = 2, so its fourth slice is y0 = -3/2.
SLICE_POLY_DIGESTS = {
    ("default", "1/2"): "16b2e56178336f79544a29f08b2614d7b2e0774527d9a21b3336a54d48df34e1",
    ("default", "0"): "86d93345ba8da275b37bc2407369d5a93726a26755dcd0d8ddf234f611e6f7f3",
    ("default", "1"): "c1f1a6fb0684fd5bbced225af4f086317a129a9bc0d5d4b5a8df7024539ea736",
    ("default", "2"): "2ed5a0bd2ecb48281bf7ab630b719369b4092477777f1a1a572e020ad6fe8522",
    ("geom2", "1/2"): "144da26b4942659f173a10e51ad979ad28bc9038e0bf58898246c5cdde4d37c5",
    ("geom2", "0"): "06bde3ebc94d4c6121fb3ed8a090492162f404435ac2dbceb39042043bdb9648",
    ("geom2", "1"): "8c18e46398e17b2b2b7a9f7a804216e75132cbb0a886c3a58efc3f24a95147c9",
    ("geom2", "-3/2"): "96b4013805dd64d24d06b74893cbbc7ecf958a4a50538d0d3fc6bfb6c7f8a763",
}
PARALLEL_SINGULARITY_DIGESTS = {
    "default": "e87e40df91356e0f32b27bcce7649352c2454b10b90c09a848db760f217f6b19",
    "geom2": "400977432d8b5479ed90c07a24b2385a8fa6642b03a96a399f7d0e05731d52c7",
}


def _sha(*polys) -> str:
    return hashlib.sha256("\n".join(format_poly(p) for p in polys).encode()).hexdigest()


class TestSlicePolynomialPins:
    @pytest.mark.parametrize("geom, y0", sorted(SLICE_POLY_DIGESTS))
    def test_slice_polynomials(self, geom, y0):
        params = {"default": PARAMS, "geom2": GEOM2}[geom]
        ws = slice_workspace(Fraction(y0), params)
        js = slice_jointspace(ws)
        sc = characteristic_surface(js)
        polys = (ws.parallel, *ws.serial, ws.rho1sq_num, ws.c3_num, sc,
                 js.parallel_rc, js.parallel_ru)
        assert _sha(*polys) == SLICE_POLY_DIGESTS[geom, y0]
        assert [p.vars for p in polys] == [("x", "tphi")] * 6 + [("r", "c3"), ("r", "u")]
        assert ws.fibre.vars == ("tphi", "r", "c3")

    @pytest.mark.parametrize("geom", sorted(PARALLEL_SINGULARITY_DIGESTS))
    def test_parallel_singularity(self, geom):
        params = {"default": PARAMS, "geom2": GEOM2}[geom]
        assert _sha(parallel_singularity(params)) == PARALLEL_SINGULARITY_DIGESTS[geom]


class TestSliceMapFold:
    """ROADMAP item 3's Finding 0: the atlas's parallel curve is the fold of
    the slice map M: (x, tphi) -> (r, c3), with r = rho1sq_num / (1 + t^2)^2
    and c3 = c3_num / (l3 (1 + t^2)), so every atlas object belongs to M."""

    @pytest.mark.parametrize("case", sorted(SLICES))
    def test_parallel_curve_is_the_squarefree_jacobian_of_the_slice_map(self, case):
        params, y0 = SLICES[case]
        ws = slice_workspace(y0, params)
        A, C = ws.rho1sq_num, ws.c3_num
        t = MPoly.var("tphi", A.vars)
        op = 1 + t * t
        # det d(r, c3)/d(x, t) = (A_x (C_t op - 2 t C) - C_x (A_t op - 4 t A)) / (l3 op^4)
        det = A.diff("x") * (C.diff("tphi") * op - 2 * t * C) \
            - C.diff("x") * (A.diff("tphi") * op - 4 * t * A)
        while divides(op, det):
            det = exact_div(det, op)
        assert det.canonical() == ws.parallel


class TestJointProjection:
    def test_matches_eq11_reference(self, eq11_rc):
        ws = slice_workspace(Fraction(1, 2), PARAMS)
        prc = project_parallel_to_joint(ws)
        assert prc.canonical() == eq11_rc.canonical()

    @pytest.mark.parametrize("y0", [Fraction(1, 2), Fraction(2)])
    def test_one_projection_per_build(self, y0, monkeypatch):
        """One `SliceAtlas.build` projects the parallel curve once, in
        `slice_jointspace`, and its stages read that slice's workspace."""
        from kinatlas import domains, mechanism
        real, calls = project_parallel_to_joint, []

        def counted(ws):
            calls.append(ws)
            return real(ws)

        monkeypatch.setattr(mechanism, "project_parallel_to_joint", counted)
        atlas = domains.SliceAtlas.build(PARAMS, y0, WorkingMode(1, 1))
        assert len(calls) == 1
        assert calls[0] is atlas.ws is atlas.js.ws is atlas.wa.ws


# Rational slice poses (x, tan(phi / 2)) at y0 = 1/2, mode ++, next to two
# trajectories: pool trajectory 0 of perfbench/reference.json (waypoints
# (175, -279), (9, 203), (241, 95) over 128) at s = 0.472 and 0.475, and the
# last segment of Fig. 10 at s = 0.969 and 0.971.
SLICE_Y0 = Fraction(1, 2)
MODE_PP = WorkingMode(1, 1)
POOL0_PAIR = ((Fraction(143, 1000), Fraction(821, 1000)), (Fraction(27, 200), Fraction(21, 25)))
FIG10_PAIR = ((Fraction(273, 500), Fraction(-1409, 1000)), (Fraction(68, 125), Fraction(-709, 500)))


def _nearest_other_dk(x: Fraction, t: Fraction) -> float:
    """Distance in (x, y, phi) from the pose to the nearest other direct
    kinematic solution of its mode-++ joints."""
    pose = Pose(float(x), float(SLICE_Y0), 2 * math.atan(float(t)))
    q, _ = inverse_kinematics(pose, MODE_PP, PARAMS)
    d = sorted(math.dist((pose.x, pose.y, pose.phi), (p.x, p.y, p.phi))
               for p, _ in direct_kinematics(q, PARAMS))
    assert d[0] < 1e-9
    return d[1]


class TestSingularLocus:
    """The atlas's parallel curve (`ws.parallel`) keeps the part of det A
    that is even in (c2, s3), which is not det A of any working mode."""

    def test_det_a_and_dk_solutions_at_the_pairs(self):
        for x, t in POOL0_PAIR + FIG10_PAIR:
            phi = 2 * math.atan(float(t))
            q, _ = inverse_kinematics(Pose(float(x), float(SLICE_Y0), phi), MODE_PP, PARAMS)
            d = _det_a_normalized(float(x), float(SLICE_Y0), phi, (q.rho1, q.rho2, q.rho3), PARAMS)
            assert abs(d) > 1e-3
            assert (d > 0) == (det_a_sign(PARAMS, MODE_PP, SLICE_Y0, x, t) > 0)
        # pool 0: det A stays positive, the other solution stays far
        assert [det_a_sign(PARAMS, MODE_PP, SLICE_Y0, x, t) for x, t in POOL0_PAIR] == [1, 1]
        assert min(_nearest_other_dk(x, t) for x, t in POOL0_PAIR) > 0.3
        # Fig. 10: det A changes sign while a second solution passes close by
        assert [det_a_sign(PARAMS, MODE_PP, SLICE_Y0, x, t) for x, t in FIG10_PAIR] == [-1, 1]
        assert max(_nearest_other_dk(x, t) for x, t in FIG10_PAIR) < 0.02

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ws.parallel is not det A of the working mode: at pool 0 it "
                              "changes sign where det A does not, at Fig. 10 the reverse")
    @pytest.mark.parametrize("pair", [POOL0_PAIR, FIG10_PAIR], ids=["pool0", "fig10"])
    def test_atlas_curve_changes_sign_with_det_a(self, pair):
        ws = slice_workspace(SLICE_Y0, PARAMS)
        par = [ws.parallel.eval({"x": x, "tphi": t}) for x, t in pair]
        det = [det_a_sign(PARAMS, MODE_PP, SLICE_Y0, x, t) for x, t in pair]
        assert (par[0] * par[1] < 0) == (det[0] * det[1] < 0), (par, det)


def _random_reachable(rng) -> Pose:
    while True:
        x = rng.uniform(-3.5, 3.5)
        y = rng.uniform(-2.8, 2.8)
        phi = rng.uniform(-2.8, 2.8)
        c3 = (x + math.cos(phi)) / 3
        if abs(y) < 2.9 and abs(c3) < 0.99:
            if math.hypot(x - math.cos(phi), y - math.sin(phi)) > 1e-3:
                return Pose(x, y, phi)
