"""Workspace trajectories: assembly-mode branch continuation and
cusp-encirclement verdicts.

Continuation runs in floating point (pseudo-arclength predictor, Newton
corrector on the reduced distance equations); region membership of the
endpoints is decided on the exact cell data.  A walk and a verdict's
sampling pass each build the trajectory's chain kernel (`_chain_kernel`)
once: the slice's IK (`mechanism.slice_ik`, leg 2's term
l2 cos(alpha2) taken once) and the segments' velocities.  Its `path` gives
the branch's q(s) and alpha3 from `Trajectory.segment_point` and one
cos/sin of the path point; its `system` takes q(s) and dq/ds the same
way, from one IK call at the segment's velocity (the IK gives the joint
rates of the closed form it evaluates), and writes out the distance
equations at the iterate (one cos/sin of the iterate, l2^2 and l3^2 taken
once per kernel) as augmented rows of F(X; q) and its 3x4 Jacobian.
Within `_KINK_WINDOW` of a waypoint, where q(s) has a kink, the IK's two
one-sided rates there, taken when the kernel is built, are weighted as a
central difference of that half-width weighs them.  Every Newton step
is one solve of the straight-line 4x4 kernel `_solve` on four augmented
rows, in one corrector (`_corrector4`, whose clamp of s and convergence
test are comparisons that keep the semantics of `min`, `max` and `abs`,
NaN and signed zeros included): its fourth row is the plane through the
predicted point normal to the tangent, and at the boundary clamp the
plane s = 0 or 1, the row (0, 0, 0, 1 | 0).  The converged iterate's
Jacobian gives the chain tangent, its signed 3x3 minors (`_minors`, over
the six 2x2 minors of its last two rows); the chain keeps its joints for
its joint-space image.  The partner chains start from the direct
kinematics at the start joints, one pose per root, less the start pose
that `_start_solution` tells apart.
A verdict samples its branch in one pass over s = i/1200, 2 or 3
dividing i: det A at s = k/600, the forward chart at s = k/400 and the
joint path at s = k/200, each the same double as its i/1200, both
correctly rounded quotients of one rational.  The pass reads q(s) from
the kernel's `path`, the chains from its `system`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .mechanism import (
    MechanismParams, WorkingMode, Pose, JointValues, alpha3_at, as_float, as_fraction,
    direct_kinematics, slice_ik,
)


class TrajectoryError(Exception):
    pass


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear path in (x, phi) on the slice y = y0."""

    y0: Fraction
    mode: WorkingMode
    waypoints: tuple[tuple[float, float], ...]
    # float(y0), converted once when the trajectory is built
    y0_float: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise TrajectoryError("need at least 2 waypoints")
        for k, w in enumerate(self.waypoints):
            try:   # bool is no coordinate: type(True) is bool
                ok = len(w) == 2 and all(type(v) in (int, float) and math.isfinite(v) for v in w)
            except (TypeError, OverflowError):
                ok = False
            if not ok:
                raise TrajectoryError(f"waypoint {k} needs 2 finite coordinates (x, phi): {w!r}")
        object.__setattr__(self, "y0_float", as_float(self.y0, "y"))

    @staticmethod
    def from_json(d: dict) -> "Trajectory":
        y0 = as_fraction(d["y"])
        if len(d["mode"]) != 2:
            raise ValueError(f"mode needs 2 entries, got {len(d['mode'])}")
        if any(type(v) is not int for v in d["mode"]):
            raise ValueError(f"mode entries must be the integers 1 or -1, got {d['mode']!r}")
        mode = WorkingMode(*d["mode"])
        wps = tuple(tuple(as_float(as_fraction(v), f"waypoint coordinate {v!r}") for v in w)
                    for w in d["waypoints"])
        return Trajectory(y0=y0, mode=mode, waypoints=wps)

    def segment_point(self, s: float) -> tuple[int, float, float]:
        """(k, x, phi): piecewise-linear interpolation, s in [0, 1] uniform
        per segment, and the segment k that s lies on."""
        n = len(self.waypoints) - 1
        if s <= 0:
            return (0, *self.waypoints[0])
        if s >= 1:
            return (n - 1, *self.waypoints[-1])
        u = s * n
        k = int(u)
        if k >= n:   # min(int(u), n - 1): s * n may round up to n
            k = n - 1
        f = u - k
        (x0, p0), (x1, p1) = self.waypoints[k], self.waypoints[k + 1]
        return k, x0 + f * (x1 - x0), p0 + f * (p1 - p0)

    def pose_at(self, s: float) -> Pose:
        """The pose at path parameter s on the slice y = y0."""
        _, x, phi = self.segment_point(s)
        return Pose(x, self.y0_float, phi)


@dataclass(frozen=True)
class Verdict:
    start_domain: str | None
    end_domain: str | None
    same_domain: bool
    assembly_mode_changed: bool
    singular_crossing: bool
    encircled_cusps: tuple[tuple[int, int], ...]   # (cusp index, winding)
    joint_path: tuple[tuple[float, float], ...]    # (rho1, alpha3) samples
    mode: WorkingMode
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "start_domain": self.start_domain,
            "end_domain": self.end_domain,
            "same_domain": self.same_domain,
            "assembly_mode_changed": self.assembly_mode_changed,
            "singular_crossing": self.singular_crossing,
            "encircled_cusps": [list(w) for w in self.encircled_cusps],
            "mode": [self.mode.s2, self.mode.s3],
            "joint_path": [[a, b] for a, b in self.joint_path],
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# numeric kinematics


def _solve(a, b, c, d):
    """Solve the 4x4 system whose augmented rows [m_i | r_i] are a, b, c and
    d by Gauss-Jordan elimination with partial pivoting, unrolled over the
    columns.

    Column k pivots on the first row (from row k on) of largest |entry|, and
    raises ZeroDivisionError when that entry is below 1e-14; the pivot row
    swaps places with row k.  Every other row w becomes w[j] - f * p[j]
    for j > k, with f = w[k] / p[k]; a row drops column k once it is
    eliminated, since nothing reads it again.  The answer is each row's
    right-hand side over its pivot.  These are the IEEE operations, in
    order, of the textbook loop (`tests/oracles.solve`), so the result is
    bit for bit that loop's."""
    # column 0
    piv, big = 0, abs(a[0])
    v = abs(b[0])
    if v > big:
        piv, big = 1, v
    v = abs(c[0])
    if v > big:
        piv, big = 2, v
    v = abs(d[0])
    if v > big:
        piv, big = 3, v
    if big < 1e-14:
        raise ZeroDivisionError("singular matrix")
    if piv == 1:
        a, b = b, a
    elif piv == 2:
        a, c = c, a
    elif piv == 3:
        a, d = d, a
    pv0, p1, p2, p3, p4 = a
    a = (p1, p2, p3, p4)
    f = b[0] / pv0
    b = (b[1] - f * p1, b[2] - f * p2, b[3] - f * p3, b[4] - f * p4)
    f = c[0] / pv0
    c = (c[1] - f * p1, c[2] - f * p2, c[3] - f * p3, c[4] - f * p4)
    f = d[0] / pv0
    d = (d[1] - f * p1, d[2] - f * p2, d[3] - f * p3, d[4] - f * p4)
    # column 1
    piv, big = 1, abs(b[0])
    v = abs(c[0])
    if v > big:
        piv, big = 2, v
    v = abs(d[0])
    if v > big:
        piv, big = 3, v
    if big < 1e-14:
        raise ZeroDivisionError("singular matrix")
    if piv == 2:
        b, c = c, b
    elif piv == 3:
        b, d = d, b
    pv1, p2, p3, p4 = b
    b = (p2, p3, p4)
    f = a[0] / pv1
    a = (a[1] - f * p2, a[2] - f * p3, a[3] - f * p4)
    f = c[0] / pv1
    c = (c[1] - f * p2, c[2] - f * p3, c[3] - f * p4)
    f = d[0] / pv1
    d = (d[1] - f * p2, d[2] - f * p3, d[3] - f * p4)
    # column 2
    big = abs(c[0])
    v = abs(d[0])
    if v > big:
        c, d, big = d, c, v
    if big < 1e-14:
        raise ZeroDivisionError("singular matrix")
    pv2, p3, p4 = c
    f = a[0] / pv2
    a = (a[1] - f * p3, a[2] - f * p4)
    f = b[0] / pv2
    b = (b[1] - f * p3, b[2] - f * p4)
    f = d[0] / pv2
    pv3, d4 = d[1] - f * p3, d[2] - f * p4
    # column 3
    if abs(pv3) < 1e-14:
        raise ZeroDivisionError("singular matrix")
    f = a[0] / pv3
    a4 = a[1] - f * d4
    f = b[0] / pv3
    b4 = b[1] - f * d4
    f = p3 / pv3
    c4 = p4 - f * d4
    return [a4 / pv0, b4 / pv1, c4 / pv2, d4 / pv3]


def _minors(j4):
    """(t0, t1, t2, t3, norm): the signed 3x3 minors of the 3x4 matrix J,
    t_k = (-1)^k det(J without column k), each expanded along J's first
    row over the six 2x2 minors of its last two rows, and the product of
    J's row norms, each over its first four entries (an augmented row's
    right-hand side left out), a zero row counting as 1: Hadamard's bound
    on the size of every t_k."""
    r0, r1, r2 = j4
    a0, a1, a2, a3 = r0[0], r0[1], r0[2], r0[3]
    b0, b1, b2, b3 = r1[0], r1[1], r1[2], r1[3]
    c0, c1, c2, c3 = r2[0], r2[1], r2[2], r2[3]
    m01, m02, m03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
    m12, m13, m23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
    return (a1 * m23 - a2 * m13 + a3 * m12, -(a0 * m23 - a2 * m03 + a3 * m02),
            a0 * m13 - a1 * m03 + a3 * m01, -(a0 * m12 - a1 * m02 + a2 * m01),
            (math.hypot(a0, a1, a2, a3) or 1.0) * (math.hypot(b0, b1, b2, b3) or 1.0)
            * (math.hypot(c0, c1, c2, c3) or 1.0))


def _det_a_normalized(x, y, phi, q, params) -> float:
    """det dF/dX of the distance equations F(X; q) at X = (x, y, phi), q =
    (rho1, rho2, rho3) held fixed, over the product of its row norms: the
    negated last minor of dF/dX bordered by a zero column, from one cos/sin
    of phi."""
    _, _, a, b = params.floats
    _, rho2, rho3 = q
    c, sn = math.cos(phi), math.sin(phi)
    u3, v3 = x + b * c, y + b * sn - rho3
    t3, norm = _minors(((2 * (x - a * c), 2 * (y - a * sn), 2 * a * (x * sn - y * c), 0.0),
                        (2 * (x - rho2), 2 * y, 0.0, 0.0),
                        (2 * u3, 2 * v3, 2 * b * (-u3 * sn + v3 * c), 0.0)))[3:]
    return -t3 / norm


# ---------------------------------------------------------------------------
# solution-manifold chains (pseudo-arclength, turns at folds)


# half-width of the window in which a waypoint's kink of q(s) enters dq/ds
# (`_chain_kernel`); without it some partner chains stall at a waypoint
_KINK_WINDOW = 1e-7


def _chain_kernel(traj: Trajectory, params: MechanismParams):
    """The trajectory's chain kernel (path, system).

    It holds the slice's IK (`mechanism.slice_ik`, whose leg-2 term is
    constant along the path, y being y0 on it), each segment's velocity
    (n dx, n dphi) and each inner waypoint's two one-sided rates, the IK's
    rates there at the velocities of the segments on either side, taken
    here, where the IK raises `KinematicsError` if they are undefined.
    path(s) gives the path's (x, phi) at s (`Trajectory.segment_point`) and
    its branch's q = (rho1, rho2, rho3) and alpha3 there.
    system(x, y, phi, s) gives path(s)'s q and the chain system at
    (x, y, phi; s): F(X; q) at X = (x, y, phi) and its 3x4 Jacobian as
    three augmented rows (dF/dx, dF/dy, dF/dphi, dF/ds, F).  dF/dq is
    diagonal, (-2 rho1, -2(x - rho2), -2(y + b sin phi - rho3)), so
    dF/ds = (dF/dq)(dq/ds) takes no second IK: dq/ds is the rates of the
    one IK call that gives q, at the segment's velocity, or, within
    _KINK_WINDOW of an inner waypoint s_w, where q(s) has a kink, the two
    one-sided rates at s_w weighted by the window's share on each side of
    s_w, [0, 1] clipping it."""
    l2, l3, a, b = params.floats
    l2l2, l3l3 = l2 * l2, l3 * l3
    _, ik = slice_ik(traj.y0_float, traj.mode, params)
    wps = traj.waypoints
    n = len(wps) - 1
    point = traj.segment_point
    vels = [(n * (x1 - x0), n * (p1 - p0)) for (x0, p0), (x1, p1) in zip(wps, wps[1:])]

    # inner waypoint w's one-sided rates (left, right) are kinks[w - 1]
    kinks = []
    for w in range(1, n):
        xw, pw = wps[w]
        cw, sw = math.cos(pw), math.sin(pw)
        kinks.append((ik(xw, cw, sw, *vels[w - 1])[2], ik(xw, cw, sw, *vels[w])[2]))

    def path(s):
        _, x, phi = point(s)
        q, alpha3, _ = ik(x, math.cos(phi), math.sin(phi), 0.0, 0.0)
        return x, phi, q, alpha3

    def system(x, y, phi, s):
        k, xs, ps = point(s)
        vx, vphi = vels[k]
        q, _, dq = ik(xs, math.cos(ps), math.sin(ps), vx, vphi)
        rho1, rho2, rho3 = q
        r1, r2, r3 = dq
        w = round(s * n)
        if 0 < w < n and -_KINK_WINDOW <= s - w / n <= _KINK_WINDOW:
            left, right = kinks[w - 1]
            lo, hi = max(0.0, s - _KINK_WINDOW), min(1.0, s + _KINK_WINDOW)
            share = (w / n - lo) / (hi - lo)
            r1, r2, r3 = (share * lv + (1.0 - share) * rv for lv, rv in zip(left, right))
        # the distance equations at the iterate, one cos/sin of its phi
        c, sn = math.cos(phi), math.sin(phi)
        u1, v1 = x - a * c, y - a * sn
        u2 = x - rho2
        u3, v3 = x + b * c, y + b * sn - rho3
        du2, dv3 = 2 * u2, 2 * v3
        # dF2/drho2 and dF3/drho3 are the negated dF2/dx and dF3/dy
        return q, ((2 * u1, 2 * v1, 2 * a * (x * sn - y * c), -2.0 * rho1 * r1,
                    u1 ** 2 + v1 ** 2 - rho1 * rho1),
                   (du2, 2 * y, 0.0, -du2 * r2, u2 ** 2 + y * y - l2l2),
                   (2 * u3, dv3, 2 * b * (-u3 * sn + v3 * c), -dv3 * r3,
                    u3 ** 2 + v3 ** 2 - l3l3))

    return path, system


# minors below this share of the row-norm product count as zero
_RANK_TOL = 1e-14
# orients the first tangent of a chain toward increasing s
_ALONG_S = (0.0, 0.0, 0.0, 1.0)
# a chain walk's first step, its step budget, and its corrector's
# iterations per step
_H0 = 1.0 / 256
_MAX_STEPS = 40000
_CORRECTOR_ITERS = 25
# the largest rho1 gap at which a partner chain closes the joint-space loop
_CLOSE_TOL = 1e-6


def _tangent4(j4, prev) -> list[float]:
    """Unit null vector of a 3x4 Jacobian J, oriented along prev.

    Its entries are J's signed 3x3 minors, t_k = (-1)^k det(J without
    column k), normalised: every row of J is orthogonal to it, by the
    Laplace expansion of J's 4x4 extension by a repeated row.  J counts as
    rank-deficient, and raises TrajectoryError, when the minors' norm is at
    most _RANK_TOL times the product of J's row norms (the normalisation of
    `_det_a_normalized`)."""
    t0, t1, t2, t3, norm = _minors(j4)
    n = math.hypot(t0, t1, t2, t3)
    if not n > _RANK_TOL * norm:
        raise TrajectoryError("rank-deficient system on the solution manifold")
    if t0 * prev[0] + t1 * prev[1] + t2 * prev[2] + t3 * prev[3] < 0:
        n = -n
    return [t0 / n, t1 / n, t2 / n, t3 / n]


@dataclass
class Chain:
    """One connected component of the solution manifold over the path,
    walked from a boundary solution."""

    points: list[tuple[float, float, float, float]]   # (x, y, phi, s)
    joints: list[JointValues]                          # the joints at each point's s
    end_s: float                                       # 0.0 or 1.0

    def chart(self, params) -> list[tuple[float, float]]:
        """(rho1, alpha3) samples along the chain."""
        return [(q.rho1, alpha3_at(x, y, phi, q.rho3, params))
                for (x, y, phi, _), q in zip(self.points, self.joints)]


def follow_chain(traj: Trajectory, params: MechanismParams, start_state) -> Chain:
    """Pseudo-arclength walk of F(X; q(s)) = 0 from a boundary solution at
    s = 0 (forward) until the walk exits at s = 0 or s = 1, its first step
    `_H0`, halved where the corrector fails and grown by half while below
    `_H0`.  Its one exit is the clamp: a predictor past either end is cut
    back to that end, where the corrector on the plane s = 0 or 1
    converges."""
    system = _chain_kernel(traj, params)[1]
    x, y, phi = start_state
    s = 0.0
    q, rows = system(x, y, phi, s)
    pts = [(x, y, phi, s)]
    qs = [JointValues(*q)]
    tangent = _tangent4(rows, _ALONG_S)
    if abs(tangent[3]) < 1e-12:
        raise TrajectoryError("chain tangent parallel to the fiber at start")
    h = h0 = _H0
    for _ in range(_MAX_STEPS):
        # predictor
        px = x + h * tangent[0]
        py = y + h * tangent[1]
        pphi = phi + h * tangent[2]
        ps = s + h * tangent[3]
        if ps < 0.0 or ps > 1.0:
            # clamp to the boundary and converge there: the corrector whose
            # plane is s = target, the row (0, 0, 0, 1 | 0)
            target = 0.0 if ps < 0.0 else 1.0
            if abs(tangent[3]) > 1e-9:
                lam = (target - s) / (h * tangent[3])
                res = _corrector4(x + lam * h * tangent[0], y + lam * h * tangent[1],
                                  phi + lam * h * tangent[2], target, _ALONG_S, system)
                if res is not None:
                    (x, y, phi, s), q, _ = res
                    pts.append((x, y, phi, s))
                    qs.append(JointValues(*q))
                    return Chain(points=pts, joints=qs, end_s=target)
            h /= 2
            if h < 1e-10:
                raise TrajectoryError("chain stalled at the boundary")
            continue
        # corrector: Newton on {F = 0, tangent . (Z - P) = 0}
        res = _corrector4(px, py, pphi, ps, tangent, system)
        if res is None:
            h /= 2
            if h < 1e-10:
                raise TrajectoryError("chain corrector stalled")
            continue
        (x, y, phi, s), q, rows = res
        tangent = _tangent4(rows, tangent)
        pts.append((x, y, phi, s))
        qs.append(JointValues(*q))
        if h < h0:
            h *= 1.5
    raise TrajectoryError("chain walk exceeded the step budget")


def _corrector4(x, y, phi, s, tangent, system):
    """Newton on {F = 0, tangent . (Z - start) = 0}, one evaluation of the
    chain kernel's `system` per iterate, whose three augmented rows and the
    tangent's go to `_solve` as they are: the converged point
    (x, y, phi, s), its joints and its rows, or None."""
    t0, t1, t2, t3 = tangent
    bx, by, bphi, bs = x, y, phi, s
    for _ in range(_CORRECTOR_ITERS):
        # min(1.0, max(0.0, s)): NaN and -0.0 clamp to 0.0
        if not s > 0.0:
            s = 0.0
        elif s > 1.0:
            s = 1.0
        q, rows = system(x, y, phi, s)
        r1, r2, r3 = rows
        # left to right from 0.0, so that a zero sum is +0.0
        plane = 0.0 + t0 * (x - bx) + t1 * (y - by) + t2 * (phi - bphi) + t3 * (s - bs)
        # max(abs(f1), abs(f2), abs(f3), abs(plane)) < 1e-11: max keeps its
        # first argument unless a later one is larger, so a NaN f1 fails and
        # a later NaN is passed over
        f1, f2, f3 = r1[4], r2[4], r3[4]
        if (-1e-11 < f1 < 1e-11 and not (f2 <= -1e-11 or f2 >= 1e-11)
                and not (f3 <= -1e-11 or f3 >= 1e-11)
                and not (plane <= -1e-11 or plane >= 1e-11)):
            return (x, y, phi, s), q, rows
        try:
            d = _solve(r1, r2, r3, (t0, t1, t2, t3, plane))
        except ZeroDivisionError:
            return None
        x, y, phi, s = x - d[0], y - d[1], phi - d[2], s - d[3]
        if not (-0.05 <= s <= 1.05):
            return None
    return None


def winding_number(path: list[tuple[float, float]], center: tuple[float, float]) -> int:
    """Integer winding of a closed polyline around a point: the angle of
    each vertex taken once, the wrapped differences summed segment by
    segment."""
    cx, cy = center
    angles = [math.atan2(y - cy, x - cx) for x, y in path]
    total = 0.0
    for a0, a1 in zip(angles, angles[1:] + angles[:1]):
        d = a1 - a0
        while d > math.pi:
            d -= 2 * math.pi
        while d < -math.pi:
            d += 2 * math.pi
        total += d
    return round(total / (2 * math.pi))


def _unwrap(angles: list[float]) -> list[float]:
    out = [angles[0]]
    for a in angles[1:]:
        prev = out[-1]
        while a - prev > math.pi:
            a -= 2 * math.pi
        while a - prev < -math.pi:
            a += 2 * math.pi
        out.append(a)
    return out


def encirclement(fwd: list[tuple[float, float]], params: MechanismParams,
                 cusp_centers: list[tuple[float, float]],
                 chain: Chain | None) -> list[tuple[int, int]]:
    """Windings of the closed joint-space loop around each cusp.

    The loop concatenates `fwd`, the trajectory's tracked chart (the
    (rho1, alpha3) image of its own branch; alpha3 = s3 acos(c3) stays in
    s3 [0, pi], so it needs no unwrapping), with the reversed image of the
    partner chain; the junction segments at each end run along the (shared)
    joint fiber.  A trivial permutation (`chain` None, or not reaching the
    far end) yields a degenerate loop and all-zero windings.
    """
    if chain is None or chain.end_s != 1.0:
        return [(i, 0) for i in range(len(cusp_centers))]
    rev = list(reversed(chain.chart(params)))
    a3 = _unwrap([p[1] for p in rev])
    # bring the chain's angle branch next to the tracked end
    shift = round((fwd[-1][1] - a3[0]) / (2 * math.pi)) * 2 * math.pi
    rev = [(p[0], a + shift) for p, a in zip(rev, a3)]
    if abs(rev[0][0] - fwd[-1][0]) > _CLOSE_TOL or abs(rev[-1][0] - fwd[0][0]) > _CLOSE_TOL:
        raise TrajectoryError("open loop: partner chain does not share the endpoint fibers")
    loop = fwd + rev
    return [(i, winding_number(loop, ctr)) for i, ctr in enumerate(cusp_centers)]


def _start_solution(sols, p0: Pose) -> int:
    """The index of the tracked start pose p0 among `sols`, the direct
    kinematics at its joints: the solution whose half-tangent t = tan(phi/2)
    is nearest t0 = tan(phi0/2), taken only when 4 |t - t0| is below its
    gap to every other solution's t.  Otherwise (no solution, or an
    ambiguous one) a TrajectoryError names the start and the roots."""
    t0 = math.tan(p0.phi / 2)
    ts = [math.tan(p.phi / 2) for p, _ in sols]
    if ts:
        i = min(range(len(ts)), key=lambda k: abs(ts[k] - t0))
        gap = min((abs(t - ts[i]) for k, t in enumerate(ts) if k != i), default=math.inf)
        if 4 * abs(ts[i] - t0) < gap:
            return i
    raise TrajectoryError(f"start pose (x, phi) = ({p0.x}, {p0.phi}) is not told apart among the "
                          f"direct-kinematics roots at its joints: tan(phi0/2) = {t0}, "
                          f"roots t = {ts}")


def track_branches(traj: Trajectory, params: MechanismParams, atlas) -> Verdict:
    """Full verdict for one trajectory against a prepared slice atlas: its
    slice, working mode and mechanism must be the atlas's."""
    if Fraction(traj.y0) != atlas.y0:
        raise TrajectoryError(f"trajectory slice y = {traj.y0} does not match "
                              f"the atlas slice y = {atlas.y0}")
    if traj.mode != atlas.mode:
        raise TrajectoryError(f"trajectory working mode {traj.mode.label} does not match "
                              f"the atlas working mode {atlas.mode.label}")
    if params != atlas.params:
        raise TrajectoryError(f"mechanism {params.to_json()} does not match "
                              f"the atlas mechanism {atlas.params.to_json()}")
    notes = []
    # endpoint membership (exact cell location on binary-float coordinates)
    p0 = traj.pose_at(0.0)
    p1 = traj.pose_at(1.0)
    e0 = (Fraction(p0.x), Fraction(math.tan(p0.phi / 2)))
    e1 = (Fraction(p1.x), Fraction(math.tan(p1.phi / 2)))
    same, changed, lab0, lab1 = atlas.classify_endpoints(e0, e1)
    # the exact tracked branch, one pass: singularity monitoring at the even
    # i (s = k/600), the forward chart where 3 divides i (s = k/400), the
    # joint path where 6 does (s = k/200); in floats 2k/1200 == k/600, ...
    path = _chain_kernel(traj, params)[0]
    min_det = math.inf
    fwd, jp = [], []
    for i in range(1201):
        if i % 2 and i % 3:
            continue
        x, phi, q, alpha3 = path(i / 1200)
        if i == 0:
            q0 = JointValues(*q)
        if i % 2 == 0:
            min_det = min(min_det, abs(_det_a_normalized(x, traj.y0_float, phi, q, params)))
        if i % 3 == 0:
            fwd.append((q[0], alpha3))
            if i % 6 == 0:
                jp.append(fwd[-1])
    singular = min_det < 1e-8
    # partner chains from the other start solutions
    sols = direct_kinematics(q0, params)
    start = _start_solution(sols, p0)
    chain = None
    for k, (p, _) in enumerate(sols):
        if k == start:
            continue
        try:
            ch = follow_chain(traj, params, (p.x, p.y, p.phi))
        except TrajectoryError as e:
            notes.append(f"partner chain failed: {e}")
            continue
        if ch.end_s == 1.0:
            chain = ch
            break
        notes.append("partner chain returned to the start fiber")
    centers = [(math.sqrt(r), 2 * math.atan(u)) for r, u in (c.center() for c in atlas.cusps)]
    encircled = encirclement(fwd, params, centers, chain)
    notes.append("loop construction: forward tracked image + reversed partner "
                 "chain image (interpretation; the source text does not define "
                 "the closure)")
    return Verdict(
        start_domain=lab0, end_domain=lab1, same_domain=same,
        assembly_mode_changed=changed, singular_crossing=singular,
        encircled_cusps=tuple((i, w) for i, w in encircled if w != 0),
        joint_path=tuple(jp), mode=traj.mode, notes=tuple(notes),
    )
