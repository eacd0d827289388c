"""RPR-2PRR mechanism model.

Constraint equations over cosine/sine symbols, the slice map and its
fold, closed-form inverse kinematics with its joint rates along a
velocity of the pose (`slice_ik`, the one home of dq/ds), exact direct
kinematics, and the 2D workspace / joint-space slices.  Every slice
polynomial comes from a rational substitution (`MPoly.substitute`): the
parallel curve (the fold), the serial curves, rho1^2, cos(alpha3) and the
leg-1 fibre over the joint chart, all read from the slice map
`_slice_map`, are rationalized in phi by `rationalize`, the fibre once per
slice; the joint projection substitutes x from leg 3, and the (r, u)
chart substitutes c3.

Symbol conventions: pose (x, y, phi) with phi carried as (cphi, sphi) or
as the half-tangent tphi; passive angles as (c2, s2) and (c3, s3); joints
(rho1, rho2, rho3).  The slice planes are (x, tphi) on the workspace side
and (r, c3) / (r, u) on the joint side, where r = rho1^2 and
u = tan(alpha3/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .ratpoly import MPoly, UPoly, resultant, squarefree_total, _poly_quo
from . import realroots


class KinematicsError(Exception):
    """Serial singularity or unreachable pose; names the failing leg."""

    def __init__(self, msg: str, leg: int | None = None):
        super().__init__(msg)
        self.leg = leg


def as_fraction(v) -> Fraction:
    """Fraction(str(v)), the rational a user wrote: a JSON float is read as
    written (0.1 is 1/10), and a bool (text True or False) raises ValueError."""
    return Fraction(str(v))


def as_float(v: Fraction, name: str) -> float:
    """float(v); a ValueError saying that `name` is too large for a float
    when the rational v is."""
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


@dataclass(frozen=True)
class MechanismParams:
    l2: Fraction = Fraction(3)
    l3: Fraction = Fraction(3)
    a: Fraction = Fraction(1)
    b: Fraction = Fraction(1)

    def __post_init__(self):
        for name in ("l2", "l3", "a", "b"):
            v = getattr(self, name)
            if not isinstance(v, Fraction):
                object.__setattr__(self, name, Fraction(v))
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
            as_float(getattr(self, name), name)

    @cached_property
    def floats(self) -> tuple[float, float, float, float]:
        """(l2, l3, a, b) as floats, converted once per instance; not a
        field, so equality, hashing and `to_json` do not see it."""
        return float(self.l2), float(self.l3), float(self.a), float(self.b)

    @staticmethod
    def from_json(d: dict) -> "MechanismParams":
        if d.get("type", "RPR-2PRR") != "RPR-2PRR":
            raise ValueError(f"unsupported mechanism type {d.get('type')!r}")
        unknown = sorted(set(d) - {"type", "l2", "l3", "a", "b"})
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        kw = {k: as_fraction(d[k]) for k in ("l2", "l3", "a", "b") if k in d}
        return MechanismParams(**kw)

    def to_json(self) -> dict:
        return {"type": "RPR-2PRR", "l2": str(self.l2), "l3": str(self.l3),
                "a": str(self.a), "b": str(self.b)}


@dataclass(frozen=True)
class WorkingMode:
    """Sign vector (s2, s3) = (sign cos alpha2, sign sin alpha3)."""

    s2: int
    s3: int

    def __post_init__(self):
        if self.s2 not in (-1, 1) or self.s3 not in (-1, 1):
            raise ValueError("mode signs must be +1 or -1")

    @property
    def label(self) -> str:
        return ("p" if self.s2 > 0 else "m") + ("p" if self.s3 > 0 else "m")


@dataclass(frozen=True)
class Pose:
    x: float
    y: float
    phi: float


@dataclass(frozen=True)
class JointValues:
    rho1: float
    rho2: float
    rho3: float


@dataclass(frozen=True)
class PassiveAngles:
    alpha2: float
    alpha3: float


# symbol space for the trigonometric form
CS_VARS = ("x", "y", "cphi", "sphi", "c2", "s2", "c3", "s3", "rho1", "rho2", "rho3")


def _v(name: str) -> MPoly:
    return MPoly.var(name, CS_VARS)


def constraints_trig(params: MechanismParams) -> list[MPoly]:
    """The five constraint polynomials over cosine/sine symbols."""
    x, y = _v("x"), _v("y")
    cph, sph = _v("cphi"), _v("sphi")
    c2, s2, c3, s3 = _v("c2"), _v("s2"), _v("c3"), _v("s3")
    r1, r2, r3 = _v("rho1"), _v("rho2"), _v("rho3")
    l2, l3, a, b = params.l2, params.l3, params.a, params.b
    return [
        r2 + l2 * c2 - x,
        l2 * s2 - y,
        (x - a * cph) ** 2 + (y - a * sph) ** 2 - r1 * r1,
        l3 * c3 - b * cph - x,
        r3 + l3 * s3 - b * sph - y,
    ]


def rationalize(p: MPoly) -> MPoly:
    """Weierstrass substitution in phi: cphi = (1 - tphi^2)/(1 + tphi^2)
    and sphi = 2 tphi/(1 + tphi^2) go in by `MPoly.substitute`, which
    clears the denominator; phi = pi has no half-tangent and is excluded."""
    if p.degree("cphi") <= 0 and p.degree("sphi") <= 0:    # no denominator to clear
        return p.with_vars(tuple(v for v in p.vars if v not in ("cphi", "sphi")))
    t = MPoly.var("tphi")
    return p.substitute({"cphi": 1 - t * t, "sphi": 2 * t}, 1 + t * t)


def residuals(pose: Pose, joints: JointValues, passives: PassiveAngles,
              constraints: list[MPoly]) -> list[float]:
    """The values of `constraints` (from `constraints_trig`) at a
    configuration, in floats."""
    point = {
        "x": pose.x, "y": pose.y,
        "cphi": math.cos(pose.phi), "sphi": math.sin(pose.phi),
        "c2": math.cos(passives.alpha2), "s2": math.sin(passives.alpha2),
        "c3": math.cos(passives.alpha3), "s3": math.sin(passives.alpha3),
        "rho1": joints.rho1, "rho2": joints.rho2, "rho3": joints.rho3,
    }
    return [p.eval_float(point) for p in constraints]


# ---------------------------------------------------------------------------
# the slice map and its fold


def _slice_map(params: MechanismParams, x, y, c, s):
    """The slice map M: (x, phi) -> (rho1^2, l3 cos(alpha3)) at the pose
    (x, y, phi) with c = cos phi and s = sin phi, for polynomial symbols
    x, c, s and y a symbol or a rational."""
    a, b = params.a, params.b
    return (x - a * c) ** 2 + (y - a * s) ** 2, x + b * c


def parallel_singularity(params: MechanismParams) -> MPoly:
    """Parallel-singularity polynomial in (x, y, cphi, sphi): the Jacobian
    determinant of the slice map in (x, phi) at fixed y, d/dphi being
    cphi d/dsphi - sphi d/dcphi; up to a constant, the sum of det A over
    the four IK branches with y (x + b cphi) divided out."""
    vs = ("x", "y", "cphi", "sphi")
    x, y, c, s = (MPoly.var(v, vs) for v in vs)
    r, l3c3 = _slice_map(params, x, y, c, s)

    def dphi(p):
        return -s * p.diff("cphi") + c * p.diff("sphi")

    # terms come out as x sphi, y cphi, cphi sphi: the order float evaluations sum them in
    return (dphi(r) * l3c3.diff("x") - r.diff("x") * dphi(l3c3)).canonical()


# ---------------------------------------------------------------------------
# closed-form kinematics


def slice_ik(y: float, mode: WorkingMode, params: MechanismParams):
    """Closed-form inverse kinematics on the slice y, with its joint rates:
    (alpha2, ik).

    Leg 2's passive angle alpha2 and its term l2 cos(alpha2) of rho2 are
    constant on the slice and taken once; ik(x, c, sn, vx, vphi) gives
    ((rho1, rho2, rho3), alpha3, dq) at the pose (x, y, phi) with c = cos phi
    and sn = sin phi, dq being the joint rates of that pose moving at
    (dx/ds, dphi/ds) = (vx, vphi): the derivative of the closed form, from
    the same dx, dy, rho1 and cos(alpha3) as q.  Leg 2's reach is checked
    here, legs 3 and 1 in ik, in that order."""
    l2, l3, a, b = params.floats
    if abs(y) >= l2:
        raise KinematicsError(f"leg 2 serial singularity / out of reach: |y|={abs(y)} >= l2", leg=2)
    alpha2 = math.asin(y / l2)
    if mode.s2 < 0:
        alpha2 = math.pi - alpha2
    l2c2 = l2 * math.cos(alpha2)
    s3 = mode.s3

    def ik(x: float, c: float, sn: float, vx: float, vphi: float):
        c3 = (b * c + x) / l3
        if abs(c3) >= 1.0:
            raise KinematicsError(f"leg 3 serial singularity / out of reach: |cos(alpha3)|={abs(c3)} >= 1", leg=3)
        dx, dy = x - a * c, y - a * sn
        if dx == 0.0 and dy == 0.0:
            raise KinematicsError("leg 1 serial singularity: rho1 = 0", leg=1)
        alpha3 = s3 * math.acos(c3)
        rho1 = math.hypot(dx, dy)
        dc3 = (vx - b * sn * vphi) / l3
        return ((rho1, x - l2c2, b * sn + y - l3 * math.sin(alpha3)), alpha3,
                ((dx * (vx + a * sn * vphi) - dy * a * c * vphi) / rho1,
                 vx,
                 b * c * vphi + s3 * l3 * c3 * dc3 / math.sqrt(1.0 - c3 * c3)))

    return alpha2, ik


def inverse_kinematics(pose: Pose, mode: WorkingMode,
                       params: MechanismParams) -> tuple[JointValues, PassiveAngles]:
    c, sn = math.cos(pose.phi), math.sin(pose.phi)
    alpha2, ik = slice_ik(pose.y, mode, params)
    q, alpha3, _ = ik(pose.x, c, sn, 0.0, 0.0)
    return JointValues(*q), PassiveAngles(alpha2, alpha3)


def alpha3_at(x: float, y: float, phi: float, rho3: float, params: MechanismParams) -> float:
    """Passive angle of leg 3 at a pose solving its distance equation."""
    _, l3, _, b = params.floats
    return math.atan2((y + b * math.sin(phi) - rho3) / l3, (x + b * math.cos(phi)) / l3)


def direct_kinematics(q: JointValues, params: MechanismParams) -> list[tuple[Pose, PassiveAngles]]:
    """All real solutions of the constraint system for fixed joints, one
    per real root of the eliminant, sorted by (x, y, phi).

    Eliminates (x, y) linearly between the three distance equations,
    isolates the half-tangent roots of the eliminant exactly (without its
    factor (1 + t^2)^5, see `_dk_univariate`), and back-substitutes in
    floats at each root's correctly rounded double (`float`).  The
    elimination is an equivalence wherever its denominator den(t) is not
    0, so distinct roots are distinct poses; a real root shared by the
    eliminant and den, where it is not, raises `KinematicsError`; their gcd
    is taken without the factors 1 + t^2 both have.  Poses with phi = pi
    are outside the half-tangent chart.
    """
    r1, r2, r3 = Fraction(q.rho1), Fraction(q.rho2), Fraction(q.rho3)
    P = _dk_univariate(r1, r2, r3, params)
    if P is None:
        raise KinematicsError("degenerate input: direct kinematics eliminant vanishes")
    poly, xnum, ynum, den = P
    if poly.degree < 1:
        return []
    # without 1 + t^2 the gcd is most often 1, which is settled modulo a prime
    den_core = UPoly(_poly_quo(UPoly.from_mpoly(den, "t").coeffs, _OP2, "den by (1 + t^2)^2"), "t")
    shared = realroots.isolate(poly.gcd(den_core))
    if shared:
        iv = shared[0]
        root = f"t = {iv.low}" if iv.is_exact() else f"t in ({iv.low}, {iv.high})"
        raise KinematicsError(f"direct kinematics at joints ({q.rho1}, {q.rho2}, {q.rho3}): "
                              f"the eliminant's root {root} is one of the back-substitution "
                              f"denominator's, where x and y are not determined")
    l2 = params.floats[0]
    sols = []
    for iv in realroots.isolate(poly):
        tf = iv.float()
        d = den.eval_float({"t": tf})
        xf = xnum.eval_float({"t": tf}) / d
        yf = ynum.eval_float({"t": tf}) / d
        phi = 2 * math.atan(tf)
        sols.append((Pose(xf, yf, phi),
                     PassiveAngles(math.atan2(yf / l2, (xf - float(r2)) / l2),
                                   alpha3_at(xf, yf, phi, float(r3), params))))
    sols.sort(key=lambda s: (s[0].x, s[0].y, s[0].phi))
    return sols


# (1 + t^2)^2 and (1 + t^2)^5, constant term first
_OP2, _OP5 = [1, 0, 2, 0, 1], [1, 0, 5, 0, 10, 0, 10, 0, 5, 0, 1]


def _dk_univariate(r1: Fraction, r2: Fraction, r3: Fraction, params: MechanismParams):
    """Half-tangent eliminant for the direct kinematics.

    Returns (P(t) / (1 + t^2)^5, xnum, ynum, den) with x = xnum/den,
    y = ynum/den on solutions, or None when the eliminant
    P = (xnum - r2 den)^2 + ynum^2 - l2^2 den^2 vanishes identically.

    P has the factor (1 + t^2)^5, which has no real root.  Since
    (1 - t^2)^2 + (2t)^2 = (1 + t^2)^2, the x^2 and y^2 terms cancel in
    lin1 and lin2 and (1 + t^2) divides both: lin_k = (1 + t^2) L_k.  So
    (1 + t^2)^2 divides den, xnum and ynum, 2x2 determinants of the
    coefficients of lin1 and lin2, and (1 + t^2)^4 divides P, with quotient
    Q = (X - r2 D)^2 + Y^2 - l2^2 D^2 for the same determinants D, X, Y of
    L1 and L2.  At t = +-i (1 - t^2 = 2, 2t = +-2i), L1 = -4a x -+ 4a i y
    and L2 = 4b x +- 4b i y -+ 4b r3 i, so D = 0, X = -16 a b r3,
    Y = -+16 a b r3 i and Q = X^2 + Y^2 = 0: (1 + t^2) divides Q as well,
    so the fifth division is exact on the cleared integers.  The quotient
    has P's real roots, 1 + t^2 having none, and each root's correctly
    rounded double (`float`) does not depend on the polynomial it is
    isolated on.
    """
    vs = ("x", "y", "t")
    x = MPoly.var("x", vs)
    y = MPoly.var("y", vs)
    t = MPoly.var("t", vs)
    one = MPoly.const(1, vs)
    l2, l3, a, b = params.l2, params.l3, params.a, params.b
    op = one + t * t
    om = one - t * t
    tt = 2 * t
    # distance equations cleared by (1+t^2)^2 where needed
    g1 = (x * op - a * om) ** 2 + (y * op - a * tt) ** 2 - (r1 * r1) * op * op
    g2 = (x - r2) ** 2 + y * y - l2 * l2
    g3 = (x * op + b * om) ** 2 + (y * op + b * tt - r3 * op) ** 2 - l3 * l3 * op * op
    lin1 = g1 - g2 * op * op
    lin2 = g3 - g2 * op * op
    # both linear in x and y, so their coefficients, den, xnum and ynum hold t alone
    a11 = lin1.diff("x"); a12 = lin1.diff("y")
    a21 = lin2.diff("x"); a22 = lin2.diff("y")
    b1 = -lin1.eval({"x": 0, "y": 0})
    b2 = -lin2.eval({"x": 0, "y": 0})
    den = (a11 * a22 - a12 * a21)
    xnum = (b1 * a22 - b2 * a12)
    ynum = (a11 * b2 - a21 * b1)
    # substitute into g2 and clear den^2
    expr = (xnum - r2 * den) ** 2 + ynum * ynum - l2 * l2 * den * den
    u = expr.with_vars(("t",))
    if u.is_zero():
        return None
    poly = UPoly(_poly_quo(UPoly.from_mpoly(u, "t").coeffs, _OP5,
                           "direct kinematics eliminant by (1 + t^2)^5"), "t")
    return poly, xnum.with_vars(("t",)), ynum.with_vars(("t",)), den.with_vars(("t",))


# ---------------------------------------------------------------------------
# slices


@dataclass(frozen=True)
class WorkspaceSlice:
    """Workspace section y = y0 in coordinates (x, tphi), the same for every
    working mode."""

    y0: Fraction
    params: MechanismParams
    serial: tuple[MPoly, MPoly]   # leg-3 reach boundaries in (x, tphi)
    parallel: MPoly               # parallel-singularity curve in (x, tphi)
    rho1sq_num: MPoly             # (x,tphi)-numerator of rho1^2 (denominator (1+t^2)^2)
    c3_num: MPoly                 # numerator of cos(alpha3) (denominator l3 (1+t^2))
    fibre: MPoly                  # leg-1 distance in (tphi, r, c3), x from leg 3: poses over (r, c3)
    excluded: tuple[str, ...]     # poses the half-tangent chart leaves out

    def chart_image(self, x: Fraction, t: Fraction) -> tuple[Fraction, Fraction]:
        """Exact (r, c3) joint-chart image of a rational slice point."""
        op = 1 + t * t
        r = self.rho1sq_num.eval({"x": x, "tphi": t}) / op ** 2
        c3 = self.c3_num.eval({"x": x, "tphi": t}) / (self.params.l3 * op)
        return r, c3

    def ik_count(self, x: Fraction, t: Fraction) -> int:
        r, c3 = self.chart_image(x, t)
        return 0 if r == 0 or abs(c3) >= 1 else 4


def slice_workspace(y0: Fraction, params: MechanismParams) -> WorkspaceSlice:
    y0 = Fraction(y0)
    if abs(y0) >= params.l2:
        raise KinematicsError(f"slice on leg 2 serial singularity: |y0| >= l2", leg=2)
    l3, b = params.l3, params.b
    tv = ("x", "r", "c3", "cphi", "sphi")
    x, r, c3, cph, sph = (MPoly.var(v, tv) for v in tv)
    rho1sq, l3c3 = _slice_map(params, x, y0, cph, sph)
    # the trigonometric forms, each rationalized in phi
    ser_out, ser_in, par, rho1sq, c3num, fibre = (rationalize(p) for p in (
        l3c3 - l3,                                  # cos(alpha3) = 1
        l3c3 + l3,                                  # cos(alpha3) = -1
        parallel_singularity(params).eval({"y": y0}),
        rho1sq,
        l3c3,
        _slice_map(params, l3 * c3 - b * cph, y0, cph, sph)[0] - r,   # x from leg 3
    ))
    vs = ("x", "tphi")
    return WorkspaceSlice(
        y0=y0, params=params,
        serial=(ser_out.with_vars(vs).canonical(), ser_in.with_vars(vs).canonical()),
        parallel=par.with_vars(vs).canonical(),
        rho1sq_num=rho1sq.with_vars(vs), c3_num=c3num.with_vars(vs),
        fibre=fibre.with_vars(("tphi", "r", "c3")), excluded=("phi=pi",),
    )


@dataclass(frozen=True)
class JointSlice:
    """Joint-space section of the workspace slice `ws`, a fixed alpha2 branch.

    Charts: (r, c3) with r = rho1^2 (rational-friendly, one working mode's
    alpha3 branch) and (r, u) with u = tan(alpha3/2) (faithful to the
    (rho1, alpha3) picture, both branches).
    """

    ws: WorkspaceSlice
    parallel_rc: MPoly     # curve in (r, c3), `project_parallel_to_joint(ws)`
    parallel_ru: MPoly     # curve in (r, u)
    serial_rc: tuple[MPoly, ...]


def slice_jointspace(ws: WorkspaceSlice) -> JointSlice:
    """The joint section of the workspace slice `ws` (sin(alpha2) = y0/l2):
    the projected parallel curve, taken once here, in both charts."""
    prc = project_parallel_to_joint(ws)
    u = MPoly.var("u")
    pru = squarefree_total(prc.substitute({"c3": 1 - u * u}, 1 + u * u).canonical())
    c3v = MPoly.var("c3", ("r", "c3"))
    rv = MPoly.var("r", ("r", "c3"))
    one_rc = MPoly.const(1, ("r", "c3"))
    return JointSlice(
        ws=ws, parallel_rc=prc, parallel_ru=pru,
        serial_rc=(rv, one_rc - c3v, one_rc + c3v),
    )


def project_parallel_to_joint(ws: WorkspaceSlice) -> MPoly:
    """Eliminate the pose from {leg-1 distance, leg-3 cosine, parallel
    singularity} on the slice: the projected curve in (r, c3), r = rho1^2.

    x is removed by the linear leg-3 relation x = (l3 c3 (1 + tphi^2) -
    b (1 - tphi^2)) / (1 + tphi^2), tphi by a resultant with the leg-1
    fibre; known spurious factors (chart denominators, leading-coefficient
    artifacts) are stripped afterwards.
    """
    l3, b = ws.params.l3, ws.params.b
    vs = ("tphi", "r", "c3")
    t = MPoly.var("tphi", vs)
    c3 = MPoly.var("c3", vs)
    op = 1 + t * t
    acc = ws.parallel.substitute({"x": l3 * c3 * op - b * (1 - t * t)}, op)
    res = resultant(ws.fibre, acc, "tphi").with_vars(("r", "c3"))
    res = _strip_known_factors(res, ["r", "c3"])
    return squarefree_total(res).with_vars(("r", "c3")).canonical()


def _strip_known_factors(p: MPoly, keep_vars: list[str]) -> MPoly:
    """Remove content and spurious univariate factors introduced by
    projection (powers of chart denominators and constants)."""
    out = p.canonical()
    for v in keep_vars:
        out = out.primitive_and_content_in(v)[0]
    return out.canonical()


def dk_count_chart(r: Fraction, c3: Fraction, ws: WorkspaceSlice) -> int:
    """Exact number of slice poses with the given (rho1^2, cos alpha3): the
    real tphi-roots of the slice's leg-1 fibre bound at (r, c3)."""
    u = UPoly.from_mpoly(ws.fibre.eval({"r": r, "c3": c3}), "tphi")
    return realroots.count_roots(u.squarefree()) if u.degree >= 1 else 0
