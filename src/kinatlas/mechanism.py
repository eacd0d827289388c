"""RPR-2PRR mechanism model.

Constraint equations over cosine/sine symbols, reduced Jacobians,
singularity polynomials, closed-form inverse kinematics, exact direct
kinematics, and the 2D workspace / joint-space slices.  Every slice
polynomial comes from a rational substitution (`MPoly.substitute`): the
serial and parallel curves, rho1^2, cos(alpha3) and the leg-1 fibre over
the joint chart are rationalized in phi from their trigonometric forms,
the fibre once per slice; the joint projection substitutes x from leg 3,
and the (r, u) chart substitutes c3.

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

from .ratpoly import (
    MPoly, UPoly,
    exact_div, resultant, squarefree_total, _poly_quo,
)
from . import realroots


class KinematicsError(Exception):
    """Serial singularity or unreachable pose; names the failing leg."""

    def __init__(self, msg: str, leg: int | None = None):
        super().__init__(msg)
        self.leg = leg


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
        kw = {k: Fraction(d[k]) for k in ("l2", "l3", "a", "b") if k in d}
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

    @staticmethod
    def all_modes() -> list["WorkingMode"]:
        return [WorkingMode(s2, s3) for s2 in (1, -1) for s3 in (1, -1)]

    @staticmethod
    def from_label(lab: str) -> "WorkingMode":
        signs = {"p": 1, "m": -1}
        return WorkingMode(signs[lab[0]], signs[lab[1]])


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


def _c(val) -> MPoly:
    return MPoly.const(val, CS_VARS)


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


def rationalize(p: MPoly, angles: dict[str, tuple[str, str, str]]) -> tuple[MPoly, list[str]]:
    """Weierstrass substitution per angle.

    `angles` maps an angle name to its (cos symbol, sin symbol, half-tangent
    symbol t); cos = (1 - t^2)/(1 + t^2) and sin = 2t/(1 + t^2) go in by
    `MPoly.substitute`.  Returns the denominator-cleared polynomial and the
    list of excluded angle values (theta = pi per substituted angle).
    """
    out = p
    excluded = []
    for name, (cs, ss, ts) in angles.items():
        if out.degree(cs) <= 0 and out.degree(ss) <= 0:    # no denominator to clear
            out = out.with_vars(tuple(v for v in out.vars if v not in (cs, ss)))
            continue
        t = MPoly.var(ts)
        out = out.substitute({cs: 1 - t * t, ss: 2 * t}, 1 + t * t)
        excluded.append(f"{name}=pi")
    return out, excluded


PHI_ANGLE = {"phi": ("cphi", "sphi", "tphi")}


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
# Jacobians and singularity polynomials


def jacobian_a(params: MechanismParams) -> list[list[MPoly]]:
    """Reduced 3x3 Jacobian A of the constraints wrt the pose.

    Rows: leg 1 distance equation, leg 2 and leg 3 chains with the passive
    angle rates eliminated and rows scaled by l2, l3 to clear denominators.
    """
    x, y = _v("x"), _v("y")
    cph, sph = _v("cphi"), _v("sphi")
    c2, s2, c3, s3 = _v("c2"), _v("s2"), _v("c3"), _v("s3")
    l2, l3, a, b = params.l2, params.l3, params.a, params.b
    return [
        [x - a * cph, y - a * sph, a * (x * sph - y * cph)],
        [-l2 * c2, -l2 * s2, _c(0)],
        [-l3 * c3, -l3 * s3, b * l3 * (sph * c3 - cph * s3)],
    ]


def det3(m: list[list[MPoly]]) -> MPoly:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def parallel_singularity(params: MechanismParams) -> MPoly:
    """Parallel-singularity polynomial in (x, y, cphi, sphi).

    det A depends on the inverse-kinematic branch through (c2, s3); the
    branch-sign-invariant part (summed over the four branches) factors as
    y * (x + b cphi) times a pose-only polynomial, which is the polynomial
    whose zero set the downstream atlas uses.  The spurious cofactor is
    divided out exactly.
    """
    d = det3(jacobian_a(params))
    ic2 = d.vars.index("c2")
    is3 = d.vars.index("s3")
    even = MPoly(d.vars, {e: c for e, c in d.terms.items() if e[ic2] == 0 and e[is3] == 0})
    x, y = _v("x"), _v("y")
    cph = _v("cphi")
    sub = even.substitute({
        "s2": (Fraction(1) / params.l2) * y,
        "c3": (Fraction(1) / params.l3) * (x + params.b * cph),
    }, MPoly.const(1))
    cof = y * (x + params.b * cph)
    sp = exact_div(sub.with_vars(cof.vars), cof)
    return sp.canonical()


# ---------------------------------------------------------------------------
# closed-form kinematics


def slice_ik(y: float, mode: WorkingMode, params: MechanismParams):
    """Closed-form inverse kinematics on the slice y: (alpha2, ik).

    Leg 2's passive angle alpha2 and its term l2 cos(alpha2) of rho2 are
    constant on the slice and taken once; ik(x, c, sn) gives
    ((rho1, rho2, rho3), alpha3) at the pose (x, y, phi) with c = cos phi
    and sn = sin phi.  Leg 2's reach is checked here, legs 3 and 1 in ik,
    in that order."""
    l2, l3, a, b = params.floats
    if abs(y) >= l2:
        raise KinematicsError(f"leg 2 serial singularity / out of reach: |y|={abs(y)} >= l2", leg=2)
    alpha2 = math.asin(y / l2)
    if mode.s2 < 0:
        alpha2 = math.pi - alpha2
    l2c2 = l2 * math.cos(alpha2)
    s3 = mode.s3

    def ik(x: float, c: float, sn: float):
        c3 = (b * c + x) / l3
        if abs(c3) >= 1.0:
            raise KinematicsError(f"leg 3 serial singularity / out of reach: |cos(alpha3)|={abs(c3)} >= 1", leg=3)
        dx, dy = x - a * c, y - a * sn
        if dx == 0.0 and dy == 0.0:
            raise KinematicsError("leg 1 serial singularity: rho1 = 0", leg=1)
        alpha3 = s3 * math.acos(c3)
        return (math.hypot(dx, dy), x - l2c2, b * sn + y - l3 * math.sin(alpha3)), alpha3

    return alpha2, ik


def inverse_kinematics(pose: Pose, mode: WorkingMode,
                       params: MechanismParams) -> tuple[JointValues, PassiveAngles]:
    c, sn = math.cos(pose.phi), math.sin(pose.phi)
    alpha2, ik = slice_ik(pose.y, mode, params)
    q, alpha3 = ik(pose.x, c, sn)
    return JointValues(*q), PassiveAngles(alpha2, alpha3)


def direct_kinematics(q: JointValues, params: MechanismParams,
                      tol: float = 1e-9) -> list[tuple[Pose, PassiveAngles]]:
    """All real solutions of the constraint system for fixed joints.

    Eliminates (x, y) linearly between the three distance equations,
    isolates the half-tangent roots of the eliminant exactly (without its
    factor (1 + t^2)^4, see `_dk_univariate`), and back-substitutes.
    Poses with phi = pi are outside the half-tangent chart.
    """
    r1, r2, r3 = Fraction(q.rho1), Fraction(q.rho2), Fraction(q.rho3)
    P = _dk_univariate(r1, r2, r3, params)
    if P is None:
        raise KinematicsError("degenerate input: direct kinematics eliminant vanishes")
    poly, xnum, ynum, den = P
    if poly.degree < 1:
        return []
    sols = []
    cons = constraints_trig(params)
    for iv in realroots.isolate(poly):
        t = iv.refine(Fraction(1, 1 << 80)).midpoint()
        tf = float(t)
        d = den.eval_float({"t": tf})
        if abs(d) < 1e-14:
            continue
        xf = xnum.eval_float({"t": tf}) / d
        yf = ynum.eval_float({"t": tf}) / d
        phi = 2.0 * math.atan(tf)
        l2, l3, _, b = params.floats
        pose = Pose(xf, yf, phi)
        pa = PassiveAngles(math.atan2(yf / l2, (xf - float(r2)) / l2),
                           math.atan2((yf + b * math.sin(phi) - float(r3)) / l3,
                                      (xf + b * math.cos(phi)) / l3))
        res = residuals(pose, JointValues(float(r1), float(r2), float(r3)), pa, cons)
        if max(abs(v) for v in res) < tol:
            sols.append((pose, pa))
    # merge near-duplicates, sort canonically
    merged: list[tuple[Pose, PassiveAngles]] = []
    for s in sols:
        if not any(abs(s[0].x - m[0].x) < 1e-7 and abs(s[0].y - m[0].y) < 1e-7
                   and abs(s[0].phi - m[0].phi) < 1e-7 for m in merged):
            merged.append(s)
    merged.sort(key=lambda s: (s[0].x, s[0].y, s[0].phi))
    return merged


# (1 + t^2)^4, constant term first
_OP4 = [1, 0, 4, 0, 6, 0, 4, 0, 1]


def _dk_univariate(r1: Fraction, r2: Fraction, r3: Fraction, params: MechanismParams):
    """Half-tangent eliminant for the direct kinematics.

    Returns (P(t) / (1 + t^2)^4, xnum, ynum, den) with x = xnum/den,
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
    Y = -+16 a b r3 i and Q = X^2 + Y^2 = 0: (1 + t^2) divides Q as well.
    Hence P and Q have the same monic squarefree part, and
    `realroots.isolate` returns the same intervals for both; Q is the exact
    quotient on the cleared integers.
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
    # both linear in x and y
    a11 = lin1.diff("x"); a12 = lin1.diff("y")
    a21 = lin2.diff("x"); a22 = lin2.diff("y")
    b1 = -lin1.eval({"x": 0, "y": 0})
    b2 = -lin2.eval({"x": 0, "y": 0})
    den = (a11 * a22 - a12 * a21)
    xnum = (b1 * a22 - b2 * a12)
    ynum = (a11 * b2 - a21 * b1)
    # substitute into g2 and clear den^2
    expr = (xnum - r2 * den) ** 2 + ynum * ynum - l2 * l2 * den * den
    for vname in ("x", "y"):
        if expr.degree(vname) > 0:
            raise KinematicsError("internal: elimination left pose variables")
    u = expr.with_vars(("t",))
    if u.is_zero():
        return None
    poly = UPoly(_poly_quo(UPoly.from_mpoly(u, "t").coeffs, _OP4,
                           "direct kinematics eliminant by (1 + t^2)^4"), "t")
    dent = den.with_vars(("t",)) if den.degree("x") <= 0 and den.degree("y") <= 0 else None
    return (poly,
            xnum.with_vars(("t",)) if not xnum.is_zero() else MPoly.const(0, ("t",)),
            ynum.with_vars(("t",)) if not ynum.is_zero() else MPoly.const(0, ("t",)),
            dent)


# ---------------------------------------------------------------------------
# slices


@dataclass(frozen=True)
class WorkspaceSlice:
    """Workspace section y = y0 in coordinates (x, tphi)."""

    y0: Fraction
    s2sign: int
    params: MechanismParams
    c2_sq: Fraction
    serial: tuple[MPoly, MPoly]   # leg-3 reach boundaries in (x, tphi)
    parallel: MPoly               # parallel-singularity curve in (x, tphi)
    rho1sq_num: MPoly             # (x,tphi)-numerator of rho1^2 (denominator (1+t^2)^2)
    c3_num: MPoly                 # numerator of cos(alpha3) (denominator l3 (1+t^2))
    fibre: MPoly                  # leg-1 distance in (tphi, r, c3), x from leg 3: poses over (r, c3)
    excluded: tuple[str, ...]

    def chart_image(self, x: Fraction, t: Fraction) -> tuple[Fraction, Fraction]:
        """Exact (r, c3) joint-chart image of a rational slice point."""
        op = 1 + t * t
        r = self.rho1sq_num.eval({"x": x, "tphi": t}) / op ** 2
        c3 = self.c3_num.eval({"x": x, "tphi": t}) / (self.params.l3 * op)
        return r, c3

    def ik_count(self, x: Fraction, t: Fraction) -> int:
        r, c3 = self.chart_image(x, t)
        return 0 if r == 0 or abs(c3) >= 1 else 4


def slice_workspace(y0: Fraction, s2sign: int, params: MechanismParams) -> WorkspaceSlice:
    y0 = Fraction(y0)
    if abs(y0) >= params.l2:
        raise KinematicsError(f"slice on leg 2 serial singularity: |y0| >= l2", leg=2)
    if s2sign not in (1, -1):
        raise ValueError("s2sign must be +1 or -1")
    c2sq = 1 - (y0 / params.l2) ** 2
    l3, a, b = params.l3, params.a, params.b
    tv = ("x", "r", "c3", "cphi", "sphi")
    x, r, c3, cph, sph = (MPoly.var(v, tv) for v in tv)
    # the trigonometric forms, each rationalized in phi
    ser_out, ser_in, par, rho1sq, c3num, fibre = (rationalize(p, PHI_ANGLE)[0] for p in (
        x - l3 + b * cph,
        x + l3 + b * cph,
        parallel_singularity(params).eval({"y": y0}),
        (x - a * cph) ** 2 + (y0 - a * sph) ** 2,
        x + b * cph,
        (l3 * c3 - (a + b) * cph) ** 2 + (y0 - a * sph) ** 2 - r,   # x = l3 c3 - b cphi
    ))
    vs = ("x", "tphi")
    return WorkspaceSlice(
        y0=y0, s2sign=s2sign, params=params, c2_sq=c2sq,
        serial=(ser_out.with_vars(vs).canonical(), ser_in.with_vars(vs).canonical()),
        parallel=par.with_vars(vs).canonical(),
        rho1sq_num=rho1sq.with_vars(vs), c3_num=c3num.with_vars(vs),
        fibre=fibre.with_vars(("tphi", "r", "c3")), excluded=("phi=pi",),
    )


@dataclass(frozen=True)
class JointSlice:
    """Joint-space section for a fixed alpha2 branch.

    Charts: (r, c3) with r = rho1^2 (rational-friendly, one working mode's
    alpha3 branch) and (r, u) with u = tan(alpha3/2) (faithful to the
    (rho1, alpha3) picture, both branches).
    """

    y0: Fraction
    s2sign: int
    params: MechanismParams
    parallel_rc: MPoly     # curve in (r, c3)
    parallel_ru: MPoly     # curve in (r, u)
    serial_rc: tuple[MPoly, ...]


def slice_jointspace(ws: WorkspaceSlice, prc: MPoly | None = None) -> JointSlice:
    """The joint section of the workspace slice `ws` (sin(alpha2) = y0/l2);
    `prc`, when given, is `project_parallel_to_joint(ws)`, already computed."""
    if prc is None:
        prc = project_parallel_to_joint(ws)
    u = MPoly.var("u")
    pru = squarefree_total(prc.substitute({"c3": 1 - u * u}, 1 + u * u).canonical())
    c3v = MPoly.var("c3", ("r", "c3"))
    rv = MPoly.var("r", ("r", "c3"))
    one_rc = MPoly.const(1, ("r", "c3"))
    return JointSlice(
        y0=ws.y0, s2sign=ws.s2sign, params=ws.params,
        parallel_rc=prc, parallel_ru=pru,
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
    return len(realroots.isolate(u)) if u.degree >= 1 else 0
