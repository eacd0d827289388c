"""Workspace trajectories: assembly-mode branch continuation and
cusp-encirclement verdicts.

Continuation runs in floating point (pseudo-arclength predictor, Newton
corrector on the reduced distance equations); region membership of the
endpoints is decided on the exact cell data.  A walk and a verdict's
sampling pass each build the trajectory's chain kernel (`_chain_kernel`)
once: the slice's IK (`mechanism.slice_ik`, leg 2's term
l2 cos(alpha2) taken once) and the segments' velocities.  Its `path` gives
the branch's q(s) and alpha3 from `Trajectory.segment_point` and one
cos/sin of the path point; its `system` takes q(s) the same way, dq/ds
from that cos/sin, and the distance equations at the iterate
(`_distance_rows`, one cos/sin of the iterate) as augmented rows of
F(X; q) and its 3x4 Jacobian.  Within `_KINK_WINDOW` of a waypoint, where
q(s) has a kink, the two one-sided rates, taken when the kernel is built,
are weighted as a central difference of that half-width weighs them.
Every Newton step is one solve of the straight-line 4x4 kernel `_solve`
on four augmented rows, in one corrector (`_corrector4`): its fourth row
is the plane through the predicted point normal to the tangent, and at
the boundary clamp the plane s = 0 or 1, the row (0, 0, 0, 1 | 0).  The
converged iterate's Jacobian gives the chain tangent, its signed 3x3
minors; the chain keeps its joints for its joint-space image.  The
partner chains start from the direct kinematics at the start joints, one
pose per root, less the start pose that `_start_solution` tells apart.
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
    MechanismParams, WorkingMode, Pose, JointValues, as_float, as_fraction,
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
        k = min(int(u), n - 1)
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


def _distance_rows(x, y, phi, q, dq, params):
    """The distance equations F(X; q) at X = (x, y, phi), q = (rho1, rho2,
    rho3), as three augmented rows (dF/dx, dF/dy, dF/dphi, dF/ds, F), from
    one cos/sin of phi.  dF/dq is diagonal, (-2 rho1, -2(x - rho2),
    -2(y + b sin phi - rho3)), so dF/ds = (dF/dq)(dq/ds) for the rates
    dq = dq/ds takes no IK; at fixed joints dq is _FIXED_Q."""
    l2, l3, a, b = params.floats
    rho1, rho2, rho3 = q
    r1, r2, r3 = dq
    c, sn = math.cos(phi), math.sin(phi)
    u1, v1 = x - a * c, y - a * sn
    u2 = x - rho2
    u3, v3 = x + b * c, y + b * sn - rho3
    du2, dv3 = 2 * u2, 2 * v3
    # dF2/drho2 and dF3/drho3 are the negated dF2/dx and dF3/dy
    return ((2 * u1, 2 * v1, 2 * a * (x * sn - y * c), -2.0 * rho1 * r1,
             u1 ** 2 + v1 ** 2 - rho1 * rho1),
            (du2, 2 * y, 0.0, -du2 * r2, u2 ** 2 + y * y - l2 * l2),
            (2 * u3, dv3, 2 * b * (-u3 * sn + v3 * c), -dv3 * r3,
             u3 ** 2 + v3 ** 2 - l3 * l3))


# the rates of joints held fixed: dF/ds = 0 up to the sign of zero
_FIXED_Q = (0.0, 0.0, 0.0)


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


def _det3(m, c0: int, c1: int, c2: int) -> float:
    """Determinant of columns c0, c1, c2 of the 3-row matrix m, expanded
    along its first row."""
    r0, r1, r2 = m
    return (r0[c0] * (r1[c1] * r2[c2] - r1[c2] * r2[c1])
            - r0[c1] * (r1[c0] * r2[c2] - r1[c2] * r2[c0])
            + r0[c2] * (r1[c0] * r2[c1] - r1[c1] * r2[c0]))


def _row_norm_product(m) -> float:
    """Product of the Euclidean norms of m's rows, each over its first four
    entries (an augmented row's right-hand side left out), a zero row
    counting as 1: Hadamard's bound on the size of every maximal minor of m."""
    norm = 1.0
    for row in m:
        norm *= math.hypot(*row[:4]) or 1.0
    return norm


def _det_a_normalized(x, y, phi, q, params) -> float:
    """det dF/dX over the product of its row norms at fixed joints q.  The
    rows' fourth entries are zeros, which leave each row's hypot as that of
    its first three entries, bit for bit."""
    rows = _distance_rows(x, y, phi, q, _FIXED_Q, params)
    return _det3(rows, 0, 1, 2) / _row_norm_product(rows)


def _alpha3_of(x, y, phi, q: JointValues, params) -> float:
    """Passive angle of leg 3 at a pose solving the distance equations."""
    _, l3, _, b = params.floats
    return math.atan2((y + b * math.sin(phi) - q.rho3) / l3,
                      (x + b * math.cos(phi)) / l3)


# ---------------------------------------------------------------------------
# solution-manifold chains (pseudo-arclength, turns at folds)


# half-width of the window in which a waypoint's kink of q(s) enters dq/ds
# (`_chain_kernel`); without it some partner chains stall at a waypoint
_KINK_WINDOW = 1e-7


def _chain_kernel(traj: Trajectory, params: MechanismParams):
    """The trajectory's chain kernel (path, system).

    It holds the slice's IK (`mechanism.slice_ik`, whose leg-2 term is
    constant along the path, y being y0 on it), each segment's velocity
    (n dx, n dphi) and each inner waypoint's two one-sided rates, taken
    here after its IK, which raises `KinematicsError` where they are
    undefined.  path(s) gives the path's (x, phi) at s
    (`Trajectory.segment_point`) and its branch's q = (rho1, rho2, rho3)
    and alpha3 there.
    system(x, y, phi, s) gives path(s)'s q and the chain system at
    (x, y, phi; s) as `_distance_rows` with dq/ds: the derivative of the
    closed-form IK moving along the segment at its velocity, or, within
    _KINK_WINDOW of an inner waypoint s_w, where q(s) has a kink, the two
    one-sided rates at s_w weighted by the window's share on each side of
    s_w, [0, 1] clipping it."""
    _, l3, a, b = params.floats
    y0 = traj.y0_float
    _, ik = slice_ik(y0, traj.mode, params)
    s3l3 = traj.mode.s3 * l3
    wps = traj.waypoints
    n = len(wps) - 1
    point = traj.segment_point
    vels = [(n * (x1 - x0), n * (p1 - p0)) for (x0, p0), (x1, p1) in zip(wps, wps[1:])]

    def rates(x, c, sn, vx, vphi):
        """dq/ds at the path pose (x, y0, phi), c = cos phi and sn = sin phi,
        moving at the velocity (vx, vphi)."""
        dx, dy = x - a * c, y0 - a * sn
        c3 = (b * c + x) / l3
        dc3 = (vx - b * sn * vphi) / l3
        return ((dx * (vx + a * sn * vphi) - dy * a * c * vphi) / math.hypot(dx, dy),
                vx,
                b * c * vphi + s3l3 * c3 * dc3 / math.sqrt(1.0 - c3 * c3))

    # inner waypoint w's one-sided rates (left, right) are kinks[w - 1]
    kinks = []
    for w in range(1, n):
        xw, pw = wps[w]
        cw, sw = math.cos(pw), math.sin(pw)
        ik(xw, cw, sw)
        kinks.append((rates(xw, cw, sw, *vels[w - 1]), rates(xw, cw, sw, *vels[w])))

    def path(s):
        _, x, phi = point(s)
        q, alpha3 = ik(x, math.cos(phi), math.sin(phi))
        return x, phi, q, alpha3

    def system(x, y, phi, s):
        k, xs, ps = point(s)
        c, sn = math.cos(ps), math.sin(ps)
        q, _ = ik(xs, c, sn)
        w = round(s * n)
        if 0 < w < n and abs(s - w / n) <= _KINK_WINDOW:
            left, right = kinks[w - 1]
            lo, hi = max(0.0, s - _KINK_WINDOW), min(1.0, s + _KINK_WINDOW)
            share = (w / n - lo) / (hi - lo)
            dq = tuple(share * lv + (1.0 - share) * rv for lv, rv in zip(left, right))
        else:
            dq = rates(xs, c, sn, *vels[k])
        return q, _distance_rows(x, y, phi, q, dq, params)

    return path, system


# minors below this share of the row-norm product count as zero
_RANK_TOL = 1e-14
# orients the first tangent of a chain toward increasing s
_ALONG_S = (0.0, 0.0, 0.0, 1.0)
# a chain walk's step budget, and its corrector's iterations per step
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
    t = [_det3(j4, 1, 2, 3), -_det3(j4, 0, 2, 3), _det3(j4, 0, 1, 3), -_det3(j4, 0, 1, 2)]
    n = math.hypot(*t)
    if not n > _RANK_TOL * _row_norm_product(j4):
        raise TrajectoryError("rank-deficient system on the solution manifold")
    if t[0] * prev[0] + t[1] * prev[1] + t[2] * prev[2] + t[3] * prev[3] < 0:
        n = -n
    return [v / n for v in t]


@dataclass
class Chain:
    """One connected component of the solution manifold over the path,
    walked from a boundary solution."""

    points: list[tuple[float, float, float, float]]   # (x, y, phi, s)
    joints: list[JointValues]                          # the joints at each point's s
    end_s: float                                       # 0.0 or 1.0

    def chart(self, params) -> list[tuple[float, float]]:
        """(rho1, alpha3) samples along the chain."""
        return [(q.rho1, _alpha3_of(x, y, phi, q, params))
                for (x, y, phi, _), q in zip(self.points, self.joints)]


def follow_chain(traj: Trajectory, params: MechanismParams, start_state,
                 h0: float = 1.0 / 256) -> Chain:
    """Pseudo-arclength walk of F(X; q(s)) = 0 from a boundary solution at
    s = 0 (forward) until the walk exits at s = 0 or s = 1.  Its one exit
    is the clamp: a predictor past either end is cut back to that end,
    where the corrector on the plane s = 0 or 1 converges."""
    system = _chain_kernel(traj, params)[1]
    x, y, phi = start_state
    s = 0.0
    q, rows = system(x, y, phi, s)
    pts = [(x, y, phi, s)]
    qs = [JointValues(*q)]
    tangent = _tangent4(rows, _ALONG_S)
    if abs(tangent[3]) < 1e-12:
        raise TrajectoryError("chain tangent parallel to the fiber at start")
    h = h0
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
        s = min(1.0, max(0.0, s))
        q, rows = system(x, y, phi, s)
        r1, r2, r3 = rows
        # left to right from 0.0, so that a zero sum is +0.0
        plane = 0.0 + t0 * (x - bx) + t1 * (y - by) + t2 * (phi - bphi) + t3 * (s - bs)
        if max(abs(r1[4]), abs(r2[4]), abs(r3[4]), abs(plane)) < 1e-11:
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
    """Integer winding of a closed polyline around a point."""
    total = 0.0
    cx, cy = center
    n = len(path)
    for i in range(n):
        x0, y0 = path[i]
        x1, y1 = path[(i + 1) % n]
        a0 = math.atan2(y0 - cy, x0 - cx)
        a1 = math.atan2(y1 - cy, x1 - cx)
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
    b0, b1, same, changed, lab0, lab1 = atlas.classify_endpoints(e0, e1)
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
