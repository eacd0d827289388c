"""Workspace trajectories: assembly-mode branch continuation and
cusp-encirclement verdicts.

Continuation runs in floating point (pseudo-arclength predictor, Newton
corrector on the reduced distance equations); region membership of the
endpoints is decided on the exact cell data.  A continuation step reads
the mechanism's lengths from its one float view (`MechanismParams.floats`),
takes each inverse kinematics once per path parameter (the corrector hands
the joints of its converged point to the next Jacobian) and each
conditioning determinant once per tangent candidate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .mechanism import (
    MechanismParams, WorkingMode, Pose, JointValues, PassiveAngles,
    inverse_kinematics, direct_kinematics,
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
        object.__setattr__(self, "y0_float", float(self.y0))

    @staticmethod
    def from_json(d: dict) -> "Trajectory":
        y0 = Fraction(d["y"])
        if len(d["mode"]) != 2:
            raise ValueError(f"mode needs 2 entries, got {len(d['mode'])}")
        mode = WorkingMode(int(d["mode"][0]), int(d["mode"][1]))
        if any(len(w) != 2 for w in d["waypoints"]):
            raise ValueError("each waypoint needs 2 coordinates (x, phi)")
        wps = tuple((float(Fraction(str(w[0]))), float(Fraction(str(w[1]))))
                    for w in d["waypoints"])
        return Trajectory(y0=y0, mode=mode, waypoints=wps)

    def pose_at(self, s: float) -> Pose:
        """Piecewise-linear interpolation, s in [0, 1] uniform per segment."""
        n = len(self.waypoints) - 1
        if s <= 0:
            x, phi = self.waypoints[0]
        elif s >= 1:
            x, phi = self.waypoints[-1]
        else:
            u = s * n
            k = min(int(u), n - 1)
            f = u - k
            x0, p0 = self.waypoints[k]
            x1, p1 = self.waypoints[k + 1]
            x, phi = x0 + f * (x1 - x0), p0 + f * (p1 - p0)
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
# numeric kinements


def _distance_residuals(x: float, y: float, phi: float, q, params) -> tuple[float, float, float]:
    l2, l3, a, b = params.floats
    c, s = math.cos(phi), math.sin(phi)
    return (
        (x - a * c) ** 2 + (y - a * s) ** 2 - q[0] * q[0],
        (x - q[1]) ** 2 + y * y - l2 * l2,
        (x + b * c) ** 2 + (y + b * s - q[2]) ** 2 - l3 * l3,
    )


def _distance_jacobian(x: float, y: float, phi: float, q, params):
    _, _, a, b = params.floats
    c, s = math.cos(phi), math.sin(phi)
    return [
        [2 * (x - a * c), 2 * (y - a * s), 2 * a * ((x) * s - (y) * c)],
        [2 * (x - q[1]), 2 * y, 0.0],
        [2 * (x + b * c), 2 * (y + b * s - q[2]),
         2 * b * (-(x + b * c) * s + (y + b * s - q[2]) * c)],
    ]


def _solve(m, r):
    """Gauss-Jordan solve of the square system m z = r, partial pivoting."""
    a = [row[:] + [v] for row, v in zip(m, r)]
    n = len(m)
    for col in range(n):
        # the first row of largest |entry|, as max() would pick it
        piv, big = col, abs(a[col][col])
        for i in range(col + 1, n):
            v = abs(a[i][col])
            if v > big:
                piv, big = i, v
        if big < 1e-14:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        prow = a[col]
        pv = prow[col]
        # column col of the other rows is never read again: start right of it
        for i in range(n):
            if i == col:
                continue
            row = a[i]
            f = row[col] / pv
            for j in range(col + 1, n + 1):
                row[j] -= f * prow[j]
    return [a[i][n] / a[i][i] for i in range(n)]


def _newton(x, y, phi, q, params, tol=1e-12, iters=40):
    for _ in range(iters):
        r = _distance_residuals(x, y, phi, q, params)
        err = max(abs(v) for v in r)
        if err < tol:
            return (x, y, phi, err)
        j = _distance_jacobian(x, y, phi, q, params)
        try:
            d = _solve(j, r)
        except ZeroDivisionError:
            return None
        lam = 1.0
        while lam > 1e-4:
            nx, ny, nphi = x - lam * d[0], y - lam * d[1], phi - lam * d[2]
            nr = _distance_residuals(nx, ny, nphi, q, params)
            if max(abs(v) for v in nr) < err:
                x, y, phi = nx, ny, nphi
                break
            lam /= 2
        else:
            return None
    r = _distance_residuals(x, y, phi, q, params)
    err = max(abs(v) for v in r)
    return (x, y, phi, err) if err < 1e-9 else None


def _det_a_normalized(x, y, phi, q, params) -> float:
    j = _distance_jacobian(x, y, phi, q, params)
    det = (j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
           - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
           + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0]))
    norm = 1.0
    for row in j:
        norm *= math.hypot(*row) or 1.0
    return det / norm


def _passives_of(x, y, phi, q, params) -> PassiveAngles:
    l2, l3, _, b = params.floats
    alpha2 = math.atan2(y / l2, (x - q[1]) / l2)
    alpha3 = math.atan2((y + b * math.sin(phi) - q[2]) / l3,
                        (x + b * math.cos(phi)) / l3)
    return PassiveAngles(alpha2, alpha3)


def joint_values_at(traj: Trajectory, s: float, params: MechanismParams) -> JointValues:
    pose = traj.pose_at(s)
    jv, _ = inverse_kinematics(pose, traj.mode, params)
    return jv


def _rhos_at(traj: Trajectory, s: float, params: MechanismParams) -> tuple[float, float, float]:
    jv = joint_values_at(traj, s, params)
    return (jv.rho1, jv.rho2, jv.rho3)


# ---------------------------------------------------------------------------
# solution-manifold chains (pseudo-arclength, turns at folds)


def _sys_jacobian4(x, y, phi, s, traj, params, q=None, ds=1e-7):
    """3x4 Jacobian of F(X; q(s)) wrt (x, y, phi, s); dF/ds by central difference.

    q is the joint triple (rho1, rho2, rho3) at s, when the caller has it."""
    if q is None:
        q = _rhos_at(traj, s, params)
    j3 = _distance_jacobian(x, y, phi, q, params)
    sp = min(1.0, s + ds)
    sm = max(0.0, s - ds)
    rp = _distance_residuals(x, y, phi, _rhos_at(traj, sp, params), params)
    rm = _distance_residuals(x, y, phi, _rhos_at(traj, sm, params), params)
    dcol = [(a - b) / (sp - sm) for a, b in zip(rp, rm)]
    return [row + [d] for row, d in zip(j3, dcol)]


def _tangent4(j4, prev=None):
    """Unit null vector of a 3x4 Jacobian, oriented along prev."""
    best = None
    best_det = 0.0
    # solve J t = 0 by fixing each coordinate to 1
    for fixed in range(4):
        cols = [c for c in range(4) if c != fixed]
        m = [[j4[r][c] for c in cols] for r in range(3)]
        rhs = [-j4[r][fixed] for r in range(3)]
        try:
            sol = _solve(m, rhs)
        except ZeroDivisionError:
            continue
        t = [0.0] * 4
        t[fixed] = 1.0
        for c, v in zip(cols, sol):
            t[c] = v
        n = math.sqrt(sum(v * v for v in t))
        cand = [v / n for v in t]
        det = abs(_det44_proxy(j4, cand))
        if best is None or det > best_det:
            best, best_det = cand, det
    if best is None:
        raise TrajectoryError("rank-deficient system on the solution manifold")
    if prev is not None and sum(a * b for a, b in zip(best, prev)) < 0:
        best = [-v for v in best]
    return best


def _det44_proxy(j4, t):
    """Conditioning proxy: the determinant of [J; t] as a Leibniz sum."""
    r0, r1, r2 = j4
    det = 0.0
    for c0, c1, c2, c3, sgn in _PERMS4:
        det += sgn * (r0[c0] * r1[c1] * r2[c2] * t[c3])
    return det


# the permutations of range(4) in lexicographic order, each with its sign
_PERMS4 = tuple(
    (*perm, -1.0 if sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4)) % 2
     else 1.0)
    for perm in itertools.permutations(range(4)))


@dataclass
class Chain:
    """One connected component of the solution manifold over the path,
    walked from a boundary solution."""

    points: list[tuple[float, float, float, float]]   # (x, y, phi, s)
    end_s: float                                       # 0.0 or 1.0

    def chart(self, traj, params) -> list[tuple[float, float]]:
        """(rho1, alpha3) samples along the chain."""
        out = []
        for x, y, phi, s in self.points:
            q = _rhos_at(traj, s, params)
            pa = _passives_of(x, y, phi, q, params)
            out.append((q[0], pa.alpha3))
        return out


def follow_chain(traj: Trajectory, params: MechanismParams, start_state,
                 h0: float = 1.0 / 256, max_steps: int = 40000) -> Chain:
    """Pseudo-arclength walk of F(X; q(s)) = 0 from a boundary solution at
    s = 0 (forward) until the walk exits at s = 0 or s = 1."""
    x, y, phi = start_state
    s = 0.0
    pts = [(x, y, phi, s)]
    j4 = _sys_jacobian4(x, y, phi, s, traj, params)
    tangent = _tangent4(j4)
    if tangent[3] < 0:
        tangent = [-v for v in tangent]
    if abs(tangent[3]) < 1e-12:
        raise TrajectoryError("chain tangent parallel to the fiber at start")
    h = h0
    for _ in range(max_steps):
        # predictor
        px = x + h * tangent[0]
        py = y + h * tangent[1]
        pphi = phi + h * tangent[2]
        ps = s + h * tangent[3]
        if ps < 0.0 or ps > 1.0:
            # clamp to the boundary and converge there
            target = 0.0 if ps < 0.0 else 1.0
            if abs(tangent[3]) > 1e-9:
                lam = (target - s) / (h * tangent[3])
                px = x + lam * h * tangent[0]
                py = y + lam * h * tangent[1]
                pphi = phi + lam * h * tangent[2]
                res = _newton(px, py, pphi, _rhos_at(traj, target, params), params)
                if res is not None:
                    pts.append((res[0], res[1], res[2], target))
                    return Chain(points=pts, end_s=target)
            h /= 2
            if h < 1e-10:
                raise TrajectoryError("chain stalled at the boundary")
            continue
        # corrector: Newton on {F = 0, tangent . (Z - P) = 0}
        res = _corrector4(px, py, pphi, ps, tangent, traj, params)
        if res is None:
            h /= 2
            if h < 1e-10:
                raise TrajectoryError("chain corrector stalled")
            continue
        (nx, ny, nphi, ns), q = res
        j4 = _sys_jacobian4(nx, ny, nphi, ns, traj, params, q)
        tangent = _tangent4(j4, tangent)
        x, y, phi, s = nx, ny, nphi, ns
        pts.append((x, y, phi, s))
        if h < h0:
            h *= 1.5
        if s <= 0.0 + 1e-12 and tangent[3] < 0:
            return Chain(points=pts, end_s=0.0)
        if s >= 1.0 - 1e-12 and tangent[3] > 0:
            return Chain(points=pts, end_s=1.0)
    raise TrajectoryError("chain walk exceeded the step budget")


def _corrector4(x, y, phi, s, tangent, traj, params, iters=25):
    """Newton on {F = 0, tangent . (Z - start) = 0}: the converged point
    (x, y, phi, s) and its joint triple, or None."""
    base = (x, y, phi, s)
    for _ in range(iters):
        s = min(1.0, max(0.0, s))
        q = _rhos_at(traj, s, params)
        r = list(_distance_residuals(x, y, phi, q, params))
        plane = sum(t * (z - b) for t, z, b in zip(tangent, (x, y, phi, s), base))
        r.append(plane)
        err = max(abs(v) for v in r)
        if err < 1e-11:
            return (x, y, phi, s), q
        m = _sys_jacobian4(x, y, phi, s, traj, params, q) + [tangent]
        try:
            d = _solve(m, r)
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


def tracked_chart(traj: Trajectory, params: MechanismParams, n: int = 400
                  ) -> list[tuple[float, float]]:
    """(rho1, alpha3) image of the trajectory itself (the exact branch)."""
    pts = []
    for i in range(n + 1):
        pose = traj.pose_at(i / n)
        jv, pa = inverse_kinematics(pose, traj.mode, params)
        pts.append((jv.rho1, pa.alpha3))
    a3 = _unwrap([p[1] for p in pts])
    return [(p[0], a) for p, a in zip(pts, a3)]


def encirclement(traj: Trajectory, params: MechanismParams,
                 cusp_centers: list[tuple[float, float]],
                 chain: Chain | None = None,
                 close_tol: float = 1e-6) -> list[tuple[int, int]]:
    """Windings of the closed joint-space loop around each cusp.

    The loop concatenates the forward image of the trajectory's own branch
    with the reversed image of the partner chain; the junction segments at
    each end run along the (shared) joint fiber.  A trivial permutation
    (no partner chain reaching the far end) yields a degenerate loop and
    all-zero windings.
    """
    fwd = tracked_chart(traj, params)
    if chain is None or chain.end_s != 1.0:
        return [(i, 0) for i in range(len(cusp_centers))]
    rev = list(reversed(chain.chart(traj, params)))
    a3 = _unwrap([p[1] for p in rev])
    # bring the chain's angle branch next to the tracked end
    shift = round((fwd[-1][1] - a3[0]) / (2 * math.pi)) * 2 * math.pi
    rev = [(p[0], a + shift) for p, a in zip(rev, a3)]
    if abs(rev[0][0] - fwd[-1][0]) > close_tol or abs(rev[-1][0] - fwd[0][0]) > close_tol:
        raise TrajectoryError("open loop: partner chain does not share the endpoint fibers")
    loop = fwd + rev
    out = []
    for i, ctr in enumerate(cusp_centers):
        out.append((i, winding_number(loop, ctr)))
    return out


def track_branches(traj: Trajectory, params: MechanismParams, atlas) -> Verdict:
    """Full verdict for one trajectory against a prepared slice atlas."""
    if Fraction(traj.y0) != atlas.y0:
        raise TrajectoryError("trajectory slice does not match the atlas")
    notes = []
    # endpoint membership (exact cell location on binary-float coordinates)
    p0 = traj.pose_at(0.0)
    p1 = traj.pose_at(1.0)
    e0 = (Fraction(p0.x), Fraction(math.tan(p0.phi / 2)))
    e1 = (Fraction(p1.x), Fraction(math.tan(p1.phi / 2)))
    b0, b1, same, changed, lab0, lab1 = atlas.classify_endpoints(e0, e1)
    # the exact tracked branch: singularity monitoring
    min_det = math.inf
    n = 600
    for i in range(n + 1):
        pose = traj.pose_at(i / n)
        jv, pa = inverse_kinematics(pose, traj.mode, params)
        det = abs(_det_a_normalized(pose.x, pose.y, pose.phi,
                                    (jv.rho1, jv.rho2, jv.rho3), params))
        min_det = min(min_det, det)
    singular = min_det < 1e-8
    # partner chains from the other start solutions
    q0 = joint_values_at(traj, 0.0, params)
    sols = direct_kinematics(q0, params)
    chain = None
    for p, pa in sols:
        if max(abs(p.x - p0.x), abs(p.y - p0.y), abs(p.phi - p0.phi)) < 1e-6:
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
    centers = []
    for c in atlas.cusps:
        r = (float(c.r_box[0]) + float(c.r_box[1])) / 2
        u = (float(c.u_box[0]) + float(c.u_box[1])) / 2
        centers.append((math.sqrt(r), 2 * math.atan(u)))
    encircled = encirclement(traj, params, centers, chain)
    notes.append("loop construction: forward tracked image + reversed partner "
                 "chain image (interpretation; the source text does not define "
                 "the closure)")
    jp = tracked_chart(traj, params, n=200)
    return Verdict(
        start_domain=lab0, end_domain=lab1, same_domain=same,
        assembly_mode_changed=changed, singular_crossing=singular,
        encircled_cusps=tuple((i, w) for i, w in encircled if w != 0),
        joint_path=tuple(jp), mode=traj.mode, notes=tuple(notes),
    )
