"""Reference implementations that the tests compare the package against.

Each computes something the package computes by another route: the
Sylvester-determinant resultant against the subresultant PRS, the
substituted segment restriction against the adjacency pass's specialised
horizontal segment test, Descartes bisection that rescales p for every
interval against the one that carries Bernstein coefficients down the tree
and splits them by de Casteljau, Bernstein coefficients computed afresh on
an interval against those `_split` produces, the squarefree part by a
Fraction derivative, gcd and division against the one taken on the cleared
integers, the squarefree part of the whole
fibre product against the lcm of the factors' squarefree parts, the gcd by
integer PRS alone against the one settling coprime pairs modulo a prime,
bisection on Fractions against bisection on integers over a common
denominator, plot columns by substitution against row-wise binding, and
the Fraction routes of the interpolated resultant and of the fibre product
against their integer ones, the Gauss-Jordan loop pivoting by `max`
against the unrolled 4x4 kernel (3x3 systems padded to 4x4 as `_newton`
pads them), the chain tangent by four
solves with one coordinate fixed, kept by the conditioning of [J; t],
against the signed 3x3 minors of J, the Jacobian's path column dF/ds by
a central difference at the IK joints of s +- 1e-7 against the analytic
joint rates, the joints, residuals and 3x4 Jacobian of the chain system
by per-quantity routes (each with its own IK through `pose_at` and its own
cos and sin), and the pseudo-arclength walk on them, against the chain
kernel's one-pass `system` and the walk on it, the resultant and the discriminant
by the subresultant PRS on `MPoly` coefficients against the interpolated
integer ones, exact division on Fractions against the one on cleared
integers, the base product of a decomposition by a Fraction gcd, divide
and multiply loop against the integer squarefree lcm, and uniqueness
domains by testing every subset of basic regions against their exact
enumeration, and the workspace graphs glued across the cut phi = pi by a
post-pass over the cut line's blockers (the serial lines x = b +- l3, the
characteristic surface's leading coefficients, all of it at y0 = 0)
against the fibre-degree parity rule inside the adjacency pass, the
direct kinematics isolating the undivided eliminant against the one that
isolates it without its factor (1 + t^2)^4, root counts on a window by
Sturm sequences against `count_roots`'s Descartes walk, and point
location counting the base and fibre roots below a point by Sturm
sequences against the bisection over the isolated base roots and the
Descartes count, the rational substitution by
`MPoly.eval`'s former polynomial branch, a fresh product per term, against
`MPoly.substitute`, and the slice pose count over a chart point with the
leg-1 fibre rebuilt for every call against the one built once per slice,
the interval enclosure of a polynomial over a box taken term by term on
Fractions against the one on integers over the boxes' denominators, the
order of two isolated roots by Fraction intervals that `refine` rebuilds
every round against the integer bisection states kept across rounds,
`refine`'s former bisection loop against `realroots._bisect`, the
adjacency graphs by the three-rung witness ladder, each pair decided at
the first rung where its fiber intervals overlap, against the one witness
pair per base root, and Horner
carrying the powers of the denominator against the one that shifts for
its power of two.
`divides` is the exact-division test the tests state factor claims with,
and `det_a_sign` decides the sign of a working mode's det A at a rational
slice pose exactly.  They are slow and meant for small inputs.

The tests also take from here what the package itself never needs: an
isolating interval built from Fraction ends (`interval`), the
arithmetic on `UPoly` over Fraction coefficient lists (`upoly_mul`,
`upoly_divmod`, `upoly_eval`, `upoly_eval_float`), the derivative
(`upoly_derivative`), `coeff_list` (the
rational coefficients of a univariate `MPoly`), the polynomial parser (`parse_poly`), det B
(`serial_singularity`), the half-tangent table of every angle
(`ALL_ANGLES`) and the benchmark's recorded trajectories
(`pool_waypoints`).
"""

import functools
import itertools
import math
from fractions import Fraction

from kinatlas import adjacency
from kinatlas.adjacency import AdjacencyError, AdjacencyGraph, build_graph, build_graphs
from kinatlas.cad2d import CadError, _specialize_product
from kinatlas.mechanism import (
    CS_VARS, MechanismParams, PassiveAngles, Pose, constraints_trig, jacobian_a, det3, residuals,
    _dk_univariate,
)
from kinatlas.ratpoly import (
    MPoly, UPoly, RatPolyError, _coeffs_wrt, _grlex_key, _int_prem, _int_primitive,
    _merge_vars, exact_div,
)
from kinatlas.realroots import (
    NEG_INF, POS_INF, IsolatingInterval, RealRootError, isolate, sample_between,
    _root_bound, _scale_shift, _sign_at, _sign_variations, _taylor_shift_1,
)
from kinatlas.mechanism import JointValues, KinematicsError
from kinatlas.trajectory import Chain, TrajectoryError, _KINK_WINDOW, _tangent4


ALL_ANGLES = {"phi": ("cphi", "sphi", "tphi"),
              "alpha2": ("c2", "s2", "t2"),
              "alpha3": ("c3", "s3", "t3")}


def serial_singularity(params: MechanismParams) -> MPoly:
    """det B, B the reduced Jacobian wrt the actuated joints (rows scaled
    as in `jacobian_a`): the product rho1 * l2 cos(a2) * l3 sin(a3) up to
    sign."""
    rho1, c2, s3 = (MPoly.var(v, CS_VARS) for v in ("rho1", "c2", "s3"))
    zero = MPoly.const(0, CS_VARS)
    return det3([[-rho1, zero, zero],
                 [zero, params.l2 * c2, zero],
                 [zero, zero, params.l3 * s3]])


def cut_blockers(ws, sc):
    """Restrictions of the variety to the cut line phi = pi, as polynomials
    in x; None means the whole cut lies on the variety closure."""
    if ws.y0 == 0:
        return None  # parallel polynomial vanishes identically on the cut
    b, l3 = ws.params.b, ws.params.l3
    x = MPoly.var("x", ("x",))
    out = [x - (b + l3), x - (b - l3)]
    if sc is not None:
        for p in sc.polynomials:
            if p.degree("tphi") % 2 != 0:
                return None  # cut on the closure of this curve
            lc = p.leading_coefficient("tphi").with_vars(("x",))
            if not lc.is_constant():
                out.append(lc)
    return out


def with_wrap_edges(g: AdjacencyGraph, dec, blockers) -> AdjacencyGraph:
    """g plus each column's bottom-top edge where no blocker vanishes at
    the column's base sample."""
    if blockers is None:
        return g
    edges = set(g.edges)
    for j, col in enumerate(dec.columns):
        bot, top = col[0], col[-1]
        if bot.id == top.id:
            continue
        s = dec.base_samples[j]
        if all(q.eval({"x": s}) != 0 for q in blockers):
            edges.add((min(bot.id, top.id), max(bot.id, top.id)))
    return AdjacencyGraph(g.nodes, tuple(sorted(edges)))


def workspace_graphs_by_post_pass(wa) -> tuple[AdjacencyGraph, ...]:
    """`wa`'s graph_sing, graph_fine and graph_fine_sing, built on its
    decompositions without the cut and then glued by `with_wrap_edges`."""
    ws = wa.ws
    sing = [ws.serial[0], ws.serial[1], ws.parallel]
    fine = sing + list(wa.sc.polynomials)
    g_s = build_graph(wa.dec_sing, sing)
    g_f, g_fs = build_graphs(wa.dec_fine, [fine, sing])
    bl_sing, bl_fine = cut_blockers(ws, None), cut_blockers(ws, wa.sc)
    return (with_wrap_edges(g_s, wa.dec_sing, bl_sing),
            with_wrap_edges(g_f, wa.dec_fine, bl_fine),
            with_wrap_edges(g_fs, wa.dec_fine, bl_sing))


def upoly_mul(a: UPoly, b: UPoly) -> UPoly:
    """Product of two univariate polynomials on Fraction coefficient
    lists."""
    if a.is_zero() or b.is_zero():
        return UPoly([], a.var)
    xs, ys = [Fraction(c) for c in a.coeffs], [Fraction(c) for c in b.coeffs]
    out = [Fraction(0)] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys):
                if y:
                    out[i + j] += x * y
    return UPoly(out, a.var)


def upoly_divmod(a: UPoly, b: UPoly) -> tuple[UPoly, UPoly]:
    """Quotient and remainder of a by b on Fraction coefficient lists."""
    if b.is_zero():
        raise RatPolyError("division by zero")
    bs = [Fraction(c) for c in b.coeffs]
    q = [Fraction(0)] * max(0, len(a.coeffs) - len(bs) + 1)
    r = [Fraction(c) for c in a.coeffs]
    d, lc = b.degree, bs[-1]
    while len(r) - 1 >= d and r:
        k = len(r) - 1 - d
        c = r[-1] / lc
        q[k] = c
        for i, bc in enumerate(bs):
            r[k + i] -= c * bc
        while r and r[-1] == 0:
            r.pop()
    return UPoly(q, a.var), UPoly(r, a.var)


def upoly_eval(p: UPoly, x) -> Fraction:
    """p(x) by Horner's rule on Fractions."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def coeff_list(p: MPoly, var: str) -> list[Fraction]:
    """The rational coefficients (constant term first) of a polynomial in
    `var` alone."""
    return [c.constant_value() for c in p.with_vars((var,)).coeffs_in(var)]


def upoly_eval_float(p: UPoly, x: float) -> float:
    """The monic form of p at x, by Horner's rule in floats."""
    lc = p.coeffs[-1] if p.coeffs else 1
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + float(Fraction(c, lc))
    return acc


def upoly_derivative(p: UPoly) -> UPoly:
    """p', up to the positive factor `UPoly` drops."""
    return UPoly([c * i for i, c in enumerate(p.coeffs)][1:], p.var)


@functools.lru_cache(maxsize=512)
def sturm_sequence(p: UPoly) -> tuple[tuple[int, ...], ...]:
    """Signed remainder sequence of the squarefree part of p, as primitive
    integer coefficient tuples, cached per polynomial: point location
    counts on one base product for every point.

    Computed fraction-free: each remainder is the negated pseudo-remainder,
    sign-corrected for the pseudo-division multiplier and stripped to
    primitive integers (positive rescaling preserves sign variations).
    """
    if p.is_zero():
        raise RealRootError("zero polynomial")
    f = p.squarefree()
    if f.degree == 0:
        return (f.coeffs,)
    seq = [f.coeffs, upoly_derivative(f).coeffs]
    while len(seq[-1]) > 1:
        a, b = seq[-2], seq[-1]
        delta = len(a) - len(b)  # = deg a - deg b
        r = _int_prem(a, b)
        if not r:
            break
        # prem scales by lc(b)^(delta+1); restore the true remainder's sign
        if not (b[-1] < 0 and (delta + 1) % 2 == 1):
            r = [-c for c in r]
        _int_primitive(r)
        seq.append(tuple(r))
    return tuple(seq)


def _variations_at(seq: tuple[tuple[int, ...], ...], x) -> int:
    if x == NEG_INF:
        vals = [s[-1] if len(s) % 2 else -s[-1] for s in seq]
    elif x == POS_INF:
        vals = [s[-1] for s in seq]
    else:
        a, b = Fraction(x).as_integer_ratio()
        vals = [_sign_at(s, a, b) for s in seq]
    return _sign_variations(vals)


def count_roots_by_sturm(p: UPoly, low=NEG_INF, high=POS_INF) -> int:
    """Number of distinct real roots of the nonzero p in (low, high], by
    the sign variations of its Sturm sequence at both ends (the counting
    route the package had before `count_roots` walked the Descartes
    tree)."""
    if p.is_zero():
        raise RealRootError("zero polynomial")
    if p.degree <= 0:
        return 0
    seq = sturm_sequence(p)
    return _variations_at(seq, low) - _variations_at(seq, high)


def sylvester_resultant(p: MPoly, q: MPoly, var: str) -> MPoly:
    """Resultant via Sylvester-matrix cofactor expansion (small degrees only)."""
    p, q = p._aligned(q)
    m, n = p.degree(var), q.degree(var)
    if m <= 0 or n <= 0:
        raise RatPolyError("resultant needs positive degree in the variable")
    rest = tuple(v for v in p.vars if v != var)
    pc = [c.with_vars(rest) for c in p.coeffs_in(var)]
    qc = [c.with_vars(rest) for c in q.coeffs_in(var)]
    size = m + n
    zero = MPoly.const(0, rest)
    rows: list[list[MPoly]] = []
    for i in range(n):
        row = [zero] * size
        for j, c in enumerate(reversed(pc)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for j, c in enumerate(reversed(qc)):
            row[i + j] = c
        rows.append(row)
    return _det_expand(rows)


def discriminant(p: MPoly, var: str) -> MPoly:
    """(-1)^(d(d-1)/2) resultant_prs(p, p', var) / lc(p, var), exact."""
    d = p.degree(var)
    if d < 2:
        raise RatPolyError("discriminant needs degree >= 2")
    r = resultant_prs(p, p.diff(var), var)
    lc = p.leading_coefficient(var)
    r = exact_div_by_fractions(r, lc.with_vars(r.vars))
    if (d * (d - 1) // 2) % 2 == 1:
        r = -r
    return r


def resultant_prs(p: MPoly, q: MPoly, var: str) -> MPoly:
    """Resultant wrt `var` by the subresultant PRS (Collins divisors) on
    `MPoly` coefficients, every division a Fraction `exact_div_by_fractions`."""
    p, q = p._aligned(q)
    dp, dq = p.degree(var), q.degree(var)
    if dp <= 0 or dq <= 0:
        raise RatPolyError("resultant needs positive degree in the variable")
    rest = tuple(v for v in p.vars if v != var)

    swapped = dp < dq
    a, b = (q, p) if swapped else (p, q)
    sign = -1 if (swapped and (dp * dq) % 2 == 1) else 1

    one = MPoly.const(1, rest)
    ac = _coeffs_wrt(a, var, rest)
    bc = _coeffs_wrt(b, var, rest)
    g, h = one, one
    s = 1
    while True:
        da, db = len(ac) - 1, len(bc) - 1
        d = da - db
        if (da % 2 == 1) and (db % 2 == 1):
            s = -s
        rc = _prem_coeffs(ac, bc)
        if not rc:
            return MPoly.const(0, rest)
        denom = g * (h ** d)
        rc = [exact_div_by_fractions(c, denom) for c in rc]
        ac = bc
        g = ac[-1]
        if d == 1:
            h = g
        elif d > 1:
            h = exact_div_by_fractions(g ** d, h ** (d - 1))
        bc = rc
        if len(bc) - 1 == 0:
            da = len(ac) - 1
            res = bc[0] ** da
            if da > 1:
                res = exact_div_by_fractions(res, h ** (da - 1))
            return -res if (s < 0) != (sign < 0) else res


def _prem_coeffs(ac: list[MPoly], bc: list[MPoly]) -> list[MPoly]:
    """prem(a, b) = lc(b)^(da-db+1) * a mod b, on dense `MPoly` coefficient
    lists; the PRS's own copy, apart from the package's `_int_prem`."""
    da, db = len(ac) - 1, len(bc) - 1
    if db < 0:
        raise RatPolyError("pseudo-division by zero")
    if da < db:
        return list(ac)
    lb = bc[-1]
    r = list(ac)
    e = da - db + 1
    while len(r) - 1 >= db and r:
        top = r[-1]
        k = len(r) - 1 - db
        r = [c * lb for c in r[:-1]]
        for i in range(db):
            r[k + i] = r[k + i] - top * bc[i]
        while r and r[-1].is_zero():
            r.pop()
        e -= 1
    if e > 0:
        f = lb ** e
        r = [c * f for c in r]
    return r


def exact_div_by_fractions(num: MPoly, den: MPoly) -> MPoly:
    """Exact multivariate division on Fractions, cancelling the graded-lex
    leading term of the remainder; raises if den does not divide num."""
    if den.is_zero():
        raise RatPolyError("division by zero polynomial")
    num, den = num._aligned(den)
    dl = max(den.terms, key=_grlex_key)
    dc = den.terms[dl]
    rem = dict(num.terms)
    q = {}
    while rem:
        nl = max(rem, key=_grlex_key)
        e = tuple(a - b for a, b in zip(nl, dl))
        if any(x < 0 for x in e):
            raise RatPolyError("inexact polynomial division")
        c = rem[nl] / dc
        q[e] = c
        for de, dk in den.terms.items():
            ne = tuple(a + b for a, b in zip(e, de))
            s = rem.get(ne, Fraction(0)) - c * dk
            if s:
                rem[ne] = s
            else:
                rem.pop(ne, None)
    return MPoly(num.vars, q)


def _det_expand(rows: list[list[MPoly]]) -> MPoly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    # expansion along first column
    acc = None
    for i in range(n):
        c = rows[i][0]
        if c.is_zero():
            continue
        minor = [r[1:] for j, r in enumerate(rows) if j != i]
        term = c * _det_expand(minor)
        if i % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        vs = rows[0][0].vars
        return MPoly.const(0, vs)
    return acc


def restrict_to_segment(poly: MPoly, p1, p2, tvar: str = "t") -> UPoly:
    """Restriction of a plane polynomial to the segment p1 + t (p2 - p1).

    The polynomial's first declared variable pairs with the x coordinate,
    the second with y.
    """
    if not 1 <= len(poly.vars) <= 2:
        raise RealRootError(f"not a plane polynomial: vars {poly.vars}")
    x1, y1 = Fraction(p1[0]), Fraction(p1[1])
    x2, y2 = Fraction(p2[0]), Fraction(p2[1])
    t = MPoly.var(tvar)
    sub = {poly.vars[0]: MPoly.const(x1, (tvar,)) + (x2 - x1) * t}
    if len(poly.vars) > 1:
        sub[poly.vars[1]] = MPoly.const(y1, (tvar,)) + (y2 - y1) * t
    r = eval_substituting(poly, sub)
    return UPoly.from_mpoly(r.with_vars((tvar,)), tvar)


def segment_crosses(polys: list[MPoly], p1, p2, with_flag: bool = False):
    """True iff some polynomial vanishes on the closed segment [p1, p2].

    A polynomial identically zero along the segment counts as a crossing;
    with_flag=True also returns whether that degenerate case occurred.
    """
    if tuple(p1) == tuple(p2):
        raise RealRootError("degenerate segment")
    crossed = False
    degenerate = False
    for poly in polys:
        u = restrict_to_segment(poly, p1, p2)
        if u.is_zero():
            crossed = True
            degenerate = True
            continue
        if u.degree <= 0:
            continue
        if upoly_eval(u, 0) == 0 or upoly_eval(u, 1) == 0:
            crossed = True
            continue
        if count_roots_by_sturm(u, Fraction(0), Fraction(1)) > 0:
            crossed = True
    if with_flag:
        return crossed, degenerate
    return crossed


def isolate_by_scaling(p: UPoly) -> list[IsolatingInterval]:
    """Descartes bisection computing p(a + (b - a) x) afresh for every
    interval and evaluating p at the endpoints; the same subdivision tree
    and acceptance rule as `realroots.isolate`."""
    if p.is_zero():
        raise RealRootError("zero polynomial")
    f = p.squarefree()
    if f.degree <= 0:
        return []
    ints = f.coeffs
    out: list[IsolatingInterval] = []
    B = Fraction(_root_bound(ints))
    if ints[0] == 0:
        out.append(interval(0, 0, f))
        k = 0
        while ints[k] == 0:
            k += 1
        ints_nz = ints[k:]
        fiso = UPoly(ints_nz, f.var)
        stack = [(-B, Fraction(0)), (Fraction(0), B)]
    else:
        ints_nz = ints
        fiso = f
        stack = [(-B, B)]
    if len(ints_nz) <= 1:
        return out
    while stack:
        a, b = stack.pop()
        v = _sign_variations(_taylor_shift_1(list(reversed(_scale_shift(ints_nz, a, b - a)))))
        if v == 0:
            continue
        if v == 1:
            sa = _sign_at(ints_nz, *a.as_integer_ratio())
            sb = _sign_at(ints_nz, *b.as_integer_ratio())
            if sa != 0 and sb != 0 and sa != sb:
                out.append(interval(a, b, fiso))
                continue
        m = (a + b) / 2
        if _sign_at(ints_nz, *m.as_integer_ratio()) == 0:
            out.append(interval(m, m, fiso))
        stack.append((a, m))
        stack.append((m, b))
    out.sort(key=lambda iv: (iv.low, iv.high))
    for i in range(len(out) - 1):
        a, b = out[i], out[i + 1]
        while not a.high < b.low:
            if not a.is_exact():
                a = a.refine((a.high - a.low) / 2)
            if not b.is_exact():
                b = b.refine((b.high - b.low) / 2)
            if a.is_exact() and b.is_exact():
                if a.low == b.low:
                    raise RealRootError("duplicate root after squarefree")
                break
        out[i], out[i + 1] = a, b
    return out


def bernstein_by_fractions(ints, a: Fraction, w: Fraction) -> list[Fraction]:
    """Bernstein coefficients b_0..b_n on (a, a + w) of a positive multiple
    of the integer polynomial `ints`, from scratch: q(x) = p(a + w x) by
    `_scale_shift`, then T = q(x + 1) reversed and b_i = T[n - i] / C(n, i),
    because (1 + x)^n q(1 / (1 + x)) = sum_i C(n, i) b_i x^(n - i)."""
    q = _scale_shift(list(ints), a, w)
    n = len(q) - 1
    T = _taylor_shift_1(q[::-1])
    return [Fraction(T[n - i], math.comb(n, i)) for i in range(n + 1)]


def squarefree_by_fractions(p: UPoly) -> UPoly:
    """Squarefree part by the derivative, `UPoly.gcd` and the Fraction
    `upoly_divmod` (the route `UPoly.squarefree` replaces)."""
    if p.degree <= 1:
        return p
    g = p.gcd(upoly_derivative(p))
    if g.degree <= 0:
        return p
    return upoly_divmod(p, g)[0]


def base_product_by_fractions(p1, var: str) -> UPoly:
    """Squarefree part of the product of the projection polynomials p1
    (`MPoly`s in `var`), by the Fraction loop of `UPoly.gcd`, `upoly_divmod` and `upoly_mul`
    and a final `squarefree_by_fractions` (the route `cad2d.decompose` took
    before its base product became `_squarefree_lcm`)."""
    base = UPoly([Fraction(1)], var)
    for q in p1:
        q = UPoly(coeff_list(q, var), var)
        g = base.gcd(q)
        extra = upoly_divmod(q, g)[0] if g.degree >= 1 else q
        if extra.degree >= 1:
            base = upoly_mul(base, extra)
    return squarefree_by_fractions(base) if base.degree >= 1 else base


def _sign_sqrt(u: Fraction, v: Fraction, r: Fraction) -> int:
    """Sign of u + v sqrt(r) for rationals u, v and r >= 0."""
    su, sv = (u > 0) - (u < 0), (v > 0) - (v < 0)
    if su == sv or sv == 0:
        return su
    if su == 0:
        return sv
    d = u * u - v * v * r
    return su * ((d > 0) - (d < 0))


def det_a_sign(params, mode, y0: Fraction, x: Fraction, t: Fraction) -> int:
    """Exact sign of det A of working mode `mode` at the slice pose
    (x, y0, phi) with tan(phi / 2) = t.

    With the pose rational, det A = E + c2 F + s3 G + c2 s3 H for rationals
    E, F, G, H, where c2 = mode.s2 sqrt(1 - (y0 / l2)^2) and
    s3 = mode.s3 sqrt(1 - c3^2).  Its sign is that of u + v sqrt(s3^2) with
    u, v in Q(c2), decided by squaring where the two parts disagree.
    """
    cph, sph = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    c3 = (x + params.b * cph) / params.l3
    c2_sq, s3_sq = 1 - (y0 / params.l2) ** 2, 1 - c3 * c3
    if not (c2_sq > 0 and s3_sq > 0):
        raise ValueError("pose on a serial singularity or out of reach")
    d = det3(jacobian_a(params))
    part = {(i, j): Fraction(0) for i in (0, 1) for j in (0, 1)}   # (c2, s3) powers
    vals = {"x": x, "y": y0, "cphi": cph, "sphi": sph, "s2": y0 / params.l2, "c3": c3}
    for e, c in d.terms.items():
        k = {v: n for v, n in zip(d.vars, e) if n}
        if not set(k) <= set(vals) | {"c2", "s3"}:
            raise ValueError(f"det A term in {sorted(k)}")
        i, j = k.get("c2", 0), k.get("s3", 0)
        c = c * c2_sq ** (i // 2) * s3_sq ** (j // 2) * mode.s2 ** i * mode.s3 ** j
        for v, val in vals.items():
            c *= val ** k.get(v, 0)
        part[i % 2, j % 2] += c
    E, F, G, H = part[0, 0], part[1, 0], part[0, 1], part[1, 1]
    su = _sign_sqrt(E, F, c2_sq)
    sv = _sign_sqrt(G, H, c2_sq)
    if su == sv or sv == 0:
        return su
    if su == 0:
        return sv
    # sign(u^2 - v^2 s3^2), both squares taken in Q(c2)
    w0 = E * E + c2_sq * F * F - s3_sq * (G * G + c2_sq * H * H)
    w1 = 2 * (E * F - s3_sq * G * H)
    return su * _sign_sqrt(w0, w1, c2_sq)


def specialize_product_whole(polys, base_var: str, fiber_var: str, x0) -> UPoly:
    """Squarefree part of the product of the specialised curves, taken on
    the whole product (the route `cad2d._specialize_product` replaces)."""
    acc = UPoly([Fraction(1)], fiber_var)
    for p in polys:
        if p.degree(fiber_var) == 0:
            continue
        s = p.eval({base_var: Fraction(x0)})
        if isinstance(s, Fraction):
            continue
        u = UPoly.from_mpoly(s.with_vars((fiber_var,)), fiber_var)
        if u.degree >= 1:
            acc = upoly_mul(acc, u.squarefree())
    return acc.squarefree() if acc.degree >= 1 else acc


def gcd_prs(p: UPoly, q: UPoly) -> UPoly:
    """The gcd by the integer primitive PRS run down to the last nonzero
    remainder, with no modular shortcut."""
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    a, b = list(p.coeffs), list(q.coeffs)
    if len(a) < len(b):
        a, b = b, a
    while b and len(b) > 1:
        r = _int_prem(a, b)
        if not r:
            a, b = b, r
            break
        _int_primitive(r)
        a, b = b, r
    if b:
        return UPoly([1], p.var)
    return UPoly(a, p.var)


def interval(lo, hi, p: UPoly) -> IsolatingInterval:
    """The isolating interval [lo, hi] of a root of p from its rational
    ends: both over the lcm of their denominators, with the sign of p at lo;
    the exact interval of lo when p(lo) = 0."""
    lo, hi = Fraction(lo), Fraction(hi)
    d = math.lcm(lo.denominator, hi.denominator)
    A = lo.numerator * (d // lo.denominator)
    slo = _sign_at(p.coeffs, A, d)
    if slo == 0:
        return IsolatingInterval(A, A, d, 0, p)
    return IsolatingInterval(A, hi.numerator * (d // hi.denominator), d, slo, p)


def refine_by_fractions(iv: IsolatingInterval, width: Fraction) -> IsolatingInterval:
    """Sign-preserving bisection below `width`, every midpoint a Fraction."""
    lo, hi = iv.low, iv.high
    if lo == hi:
        return iv
    p = iv.polynomial
    ints = p.coeffs
    slo = _sign_at(ints, *lo.as_integer_ratio())
    if slo == 0:
        return interval(lo, lo, p)
    while hi - lo >= width:
        m = (lo + hi) / 2
        sm = _sign_at(ints, *m.as_integer_ratio())
        if sm == 0:
            return interval(m, m, p)
        if sm == slo:
            lo = m
        else:
            hi = m
    return interval(lo, hi, p)


def refine_by_bisection_loop(iv: IsolatingInterval, width: Fraction) -> IsolatingInterval:
    """`IsolatingInterval.refine` with its own bisection loop on integers
    over one common denominator, as it was before the loop became
    `realroots._bisect`."""
    lo, hi = iv.low, iv.high
    if lo == hi:
        return iv
    p = iv.polynomial
    ints = p.coeffs
    d = math.lcm(lo.denominator, hi.denominator)
    A = lo.numerator * (d // lo.denominator)
    B = hi.numerator * (d // hi.denominator)
    slo = _sign_at(ints, A, d)
    if slo == 0:
        return interval(lo, lo, p)
    wn, wd = width.numerator, width.denominator
    while (B - A) * wd >= wn * d:
        M = A + B
        A, B, d = A << 1, B << 1, d << 1
        sm = _sign_at(ints, M, d)
        if sm == 0:
            m = Fraction(M, d)
            return interval(m, m, p)
        if sm == slo:
            A = M
        else:
            B = M
    return interval(Fraction(A, d), Fraction(B, d), p)


def cmp_bounds_by_refine(a: IsolatingInterval, b: IsolatingInterval, gcds: dict,
                         max_iter: int = 50) -> int:
    """Sign of (root a) - (root b) by Fraction intervals rebuilt every
    round: one `refine` below a sixteenth of the width per side and round,
    the shared-root gcd check from round 2 on."""
    x, y = a, b
    for it in range(max_iter):
        if x.high < y.low:
            return -1
        if y.high < x.low:
            return 1
        if x.is_exact() and y.is_exact():
            return 0 if x.low == y.low else (-1 if x.low < y.low else 1)
        if it >= 2:
            key = (id(x.polynomial), id(y.polynomial))
            g = gcds.get(key)
            if g is None:
                g = gcds[key] = x.polynomial.gcd(y.polynomial)
            if g.degree >= 1:
                lo = max(x.low, y.low)
                hi = min(x.high, y.high)
                if lo <= hi:
                    n = ((count_roots_by_sturm(g, lo, hi) if lo < hi else 0)
                         + (1 if upoly_eval(g, lo) == 0 else 0))
                    if n >= 1:
                        return 0
        if not x.is_exact():
            x = x.refine((x.high - x.low) / 16)
        if not y.is_exact():
            y = y.refine((y.high - y.low) / 16)
    raise AdjacencyError("could not order algebraic bounds")


def witnesses_from_coarse(dec, j: int, shrink: int) -> tuple[Fraction, Fraction]:
    """The witness pair of base root j for one shrink factor, refined
    from the root's unrefined interval below gap / shrink."""
    roots = dec.base_roots
    r = roots[j]
    left_gap = (r.low - roots[j - 1].high) if j > 0 else Fraction(1)
    right_gap = (roots[j + 1].low - r.high) if j + 1 < len(roots) else Fraction(1)
    gap = min(left_gap, right_gap, Fraction(1))
    if not r.is_exact():
        r = r.refine(gap / shrink)
        if not r.is_exact():
            return r.low, r.high
    v = r.low
    ints = dec.base_poly.coeffs
    d = gap / shrink
    while True:
        if (_sign_at(ints, *(v - d).as_integer_ratio()) != 0
                and _sign_at(ints, *(v + d).as_integer_ratio()) != 0):
            return v - d, v + d
        d /= 2


LADDER = (1 << 10, 1 << 22, 1 << 40)   # the rungs the adjacency pass once climbed


def graphs_by_ladder(dec, varieties, wrap: bool = False) -> list[AdjacencyGraph]:
    """`build_graphs` by the three-rung witness ladder the adjacency pass
    once climbed, one variety at a time.  Across base root j each pair of
    cells is decided at the first rung of `LADDER` whose witnesses
    (`witnesses_from_coarse`) give it overlapping fiber intervals, by the
    pass's horizontal segment test; a pair that overlaps at no rung is no
    edge.  A stacked pair is blocked by a sign change of a squarefree fibre
    between the two samples, and with `wrap` the bottom and top cell of a
    column by an odd fiber degree.  The adjacency helpers are looked up on
    the module at each call, so a test's monkeypatch of them sees the
    ladder's calls."""
    bv, fv = dec.base_var, dec.fiber_var
    cands = []   # (cell id, cell id, whether a polynomial blocks the pair)
    for col, x in zip(dec.columns, dec.base_samples):
        for low, high in zip(col, col[1:]):
            def stacked(p, x=x, ys=(low.sample[1], high.sample[1])):
                f = UPoly.from_mpoly(p.eval({bv: x}), fv).squarefree()
                s1, s2 = ((v > 0) - (v < 0) for v in (upoly_eval(f, y) for y in ys))
                return f.degree >= 1 and s1 != s2
            cands.append((low.id, high.id, stacked))
        if wrap and len(col) >= 2:
            cands.append((col[0].id, col[-1].id, lambda p: p.degree(fv) % 2 == 1))
    for j in range(len(dec.base_roots)):
        left, right = dec.columns[j], dec.columns[j + 1]
        pending = {(c1.id, c2.id) for c1 in left for c2 in right}
        for shrink in LADDER:
            w1, w2 = witnesses_from_coarse(dec, j, shrink)
            roots1 = adjacency._roots_at(dec, w1, left, f"base root {j}")
            roots2 = adjacency._roots_at(dec, w2, right, f"base root {j}")
            rank1, rank2 = adjacency._ranks(roots1, roots2)
            top = len(roots1) + len(roots2) + 1
            for c1 in left:
                lo1, hi1, rl1, rh1 = adjacency._ranked_bounds(roots1, rank1, c1.fiber_index, top)
                for c2 in right:
                    lo2, hi2, rl2, rh2 = adjacency._ranked_bounds(roots2, rank2, c2.fiber_index,
                                                                  top)
                    if (c1.id, c2.id) not in pending or max(rl1, rl2) >= min(rh1, rh2):
                        continue
                    pending.discard((c1.id, c2.id))
                    c = sample_between(lo1 if rl1 >= rl2 else lo2, hi1 if rh1 <= rh2 else hi2)
                    cands.append((c1.id, c2.id, lambda p, c=c, w1=w1, w2=w2:
                                  adjacency._crosses_horizontal(adjacency._rows(p, bv, fv),
                                                                c, w1, w2, bv)))
            if not pending:
                break
    nodes = tuple(c.id for c in dec.cells)
    graphs = []
    for variety in varieties:
        ps = [p.with_vars((bv, fv)) for p in variety]
        edges = {(min(a, b), max(a, b)) for a, b, blocks in cands
                 if not any(blocks(p) for p in ps)}
        graphs.append(AdjacencyGraph(nodes, tuple(sorted(edges))))
    return graphs


def atlas_passes(atlas):
    """(decomposition, varieties, wrap, graphs) of each adjacency pass of
    a slice atlas: the singular and fine workspace passes and the joint
    one."""
    ws, wa, ja = atlas.ws, atlas.wa, atlas.ja
    sing = [ws.serial[0], ws.serial[1], ws.parallel]
    fine = sing + list(wa.sc.polynomials)
    return [(wa.dec_sing, [sing], True, [wa.graph_sing]),
            (wa.dec_fine, [fine, sing], True, [wa.graph_fine, wa.graph_fine_sing]),
            (ja.dec, [[ja.js.parallel_rc, *ja.js.serial_rc]], False, [ja.graph])]


def sign_at_by_powers(ints, a: int, b: int) -> int:
    """Sign of p(a/b), b > 0, by Horner carrying the powers of b."""
    acc = 0
    bp = 1
    for c in reversed(ints):
        acc = acc * a + c * bp
        bp *= b
    return (acc > 0) - (acc < 0)


def bind_int_by_powers(rows, a: int, b: int) -> list[int]:
    """b^d * row(a/b) for each integer row of common degree d, by Horner
    carrying the powers of b."""
    out = []
    for ints in rows:
        acc = ints[-1]
        bp = 1
        for c in reversed(ints[:-1]):
            bp *= b
            acc = acc * a + c * bp
        out.append(acc)
    return out


def interval_eval_by_fractions(p: MPoly, boxes: dict) -> tuple[Fraction, Fraction]:
    """Interval range bound of p over a box, term by term on Fractions:
    each power's enclosure from `_pow_interval`, each product the min and
    max of the four end products."""
    lo = Fraction(0)
    hi = Fraction(0)
    for e, c in p.terms.items():
        tlo, thi = Fraction(c), Fraction(c)
        for i, pw in enumerate(e):
            if not pw:
                continue
            v = p.vars[i]
            if v not in boxes:
                raise CadError(f"unbound variable {v} in interval evaluation")
            a, b = boxes[v]
            plo, phi = _pow_interval(a, b, pw)
            cands = [tlo * plo, tlo * phi, thi * plo, thi * phi]
            tlo, thi = min(cands), max(cands)
        lo += tlo
        hi += thi
    return lo, hi


def _pow_interval(a: Fraction, b: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """Enclosure of x^n over [a, b], n >= 1."""
    pa, pb = a ** n, b ** n
    if n % 2 == 1:
        return (pa, pb)
    if a >= 0:
        return (pa, pb)
    if b <= 0:
        return (pb, pa)
    return (Fraction(0), max(pa, pb))


def fiber_roots_by_eval(poly: MPoly, base_var: str, fiber_var: str, x0) -> list[float]:
    """Float fibre roots of a plane curve over x0, substituting x0 through
    `MPoly.eval` and refining each root to 2^-40 before `float()`."""
    s = poly.eval({base_var: Fraction(x0)})
    if isinstance(s, Fraction):
        return []
    u = UPoly.from_mpoly(s.with_vars((fiber_var,)), fiber_var)
    if u.degree < 1:
        return []
    return [iv.refine(Fraction(1, 1 << 40)).float() for iv in isolate(u)]


def resultant_scalar(a, b) -> Fraction:
    """Resultant of two nonconstant polynomials given by coefficient lists
    (constant term first), by the Euclidean remainder sequence over Q."""
    res = Fraction(1)
    while True:
        m, n = len(a) - 1, len(b) - 1
        if n == 0:
            return res * b[0] ** m
        r = [Fraction(c) for c in a]
        lb = b[-1]
        while len(r) > n:
            c = r.pop() / lb
            if c:
                for i in range(n):
                    r[len(r) - n + i] -= c * b[i]
        while r and r[-1] == 0:
            r.pop()
        if not r:
            return Fraction(0)
        # res(a, b) = (-1)^(mn) lc(b)^(m - deg r) res(b, r)
        res *= lb ** (m - len(r) + 1)
        if m * n % 2:
            res = -res
        a, b = b, tuple(r)


def lagrange(xs, ys, var: str) -> MPoly:
    """Interpolating polynomial through (xs[i], ys[i]) by Newton divided
    differences on Fractions."""
    n = len(xs)
    coeffs = [Fraction(y) for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - j])
    poly = [coeffs[-1]]  # Horner in the Newton basis: poly * (var - x_i) + c_i
    for i in range(n - 2, -1, -1):
        x = xs[i]
        poly = ([coeffs[i] - x * poly[0]]
                + [poly[k - 1] - x * poly[k] for k in range(1, len(poly))] + [poly[-1]])
    return MPoly((var,), {(i,): c for i, c in enumerate(poly)})


def resultant_bivar_by_fractions(p: MPoly, q: MPoly, elim: str, keep: str) -> MPoly:
    """`cad2d.resultant_bivar` on Fractions: `keep` bound by substitution at
    the same nodes, scalar resultants over Q, Lagrange interpolation."""
    dpe, dqe = p.degree(elim), q.degree(elim)
    bound = p.degree(keep) * dqe + q.degree(keep) * dpe
    xs, ys = [], []
    k = 0
    while len(xs) <= bound:
        x0 = Fraction(k if k % 2 == 0 else -(k + 1) // 2)
        k += 1
        pu, qu = (coeff_list(f.eval({keep: x0}), elim) for f in (p, q))
        if len(pu) <= dpe or len(qu) <= dqe:
            continue
        ys.append(resultant_scalar(pu, qu))
        xs.append(x0)
    return lagrange(xs, ys, keep)


def specialize_product_by_fractions(polys, base_var: str, fiber_var: str, x0) -> UPoly:
    """Lcm of the squarefree parts of the specialised curves, by
    substitution and Fraction `UPoly` products and divisions."""
    acc = UPoly([Fraction(1)], fiber_var)
    for p in polys:
        if p.degree(fiber_var) == 0:
            continue
        s = p.eval({base_var: Fraction(x0)})
        u = UPoly.from_mpoly(s.with_vars((fiber_var,)), fiber_var)
        if u.degree >= 1:
            u = u.squarefree()
            acc = upoly_mul(acc, upoly_divmod(u, acc.gcd(u))[0])
    return acc


def solve(m, r):
    """Gauss-Jordan solve of the square system m z = r, partial pivoting
    by `max` over the column."""
    a = [[*row, v] for row, v in zip(m, r)]
    n = len(m)
    for col in range(n):
        piv = max(range(col, n), key=lambda i: abs(a[i][col]))
        if abs(a[piv][col]) < 1e-14:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        for i in range(n):
            if i == col:
                continue
            f = a[i][col] / a[col][col]
            for j in range(col, n + 1):
                a[i][j] -= f * a[col][j]
    return [a[i][n] / a[i][i] for i in range(n)]


def _perms4():
    out = []
    for perm in itertools.permutations(range(4)):
        inv = sum(1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j])
        out.append((perm, -1.0 if inv % 2 else 1.0))
    return out


_PERMS4 = _perms4()


def det44_proxy(j4, t):
    """Determinant of [J; t] by the Leibniz sum over copied rows."""
    m = [row[:] for row in j4] + [t[:]]
    det = 0.0
    for perm, sgn in _PERMS4:
        p = 1.0
        for r, c in enumerate(perm):
            p *= m[r][c]
        det += sgn * p
    return det


def tangent4(j4, prev=None):
    """Unit null vector of a 3x4 Jacobian, oriented along prev; each
    comparison recomputes the determinants of both candidates."""
    best = None
    for fixed in range(4):
        cols = [c for c in range(4) if c != fixed]
        m = [[j4[r][c] for c in cols] for r in range(3)]
        rhs = [-j4[r][fixed] for r in range(3)]
        try:
            sol = solve(m, rhs)
        except ZeroDivisionError:
            continue
        t = [0.0] * 4
        t[fixed] = 1.0
        for c, v in zip(cols, sol):
            t[c] = v
        n = math.sqrt(sum(v * v for v in t))
        cand = [v / n for v in t]
        if best is None or abs(det44_proxy(j4, cand)) > abs(det44_proxy(j4, best)):
            best = cand
    if best is None:
        raise TrajectoryError("rank-deficient system on the solution manifold")
    if prev is not None and sum(a * b for a, b in zip(best, prev)) < 0:
        best = [-v for v in best]
    return best


def joints_by_pose(x, y, phi, mode, params):
    """Closed-form inverse kinematics as `mechanism.inverse_kinematics` took
    it from a pose: (rho1, rho2, rho3), each cos and sin of phi taken where
    it is used."""
    l2, l3, a, b = params.floats
    if abs(y) >= l2 or abs((b * math.cos(phi) + x) / l3) >= 1.0:
        raise KinematicsError("pose on a serial singularity or out of reach")
    c3 = (b * math.cos(phi) + x) / l3
    dx = x - a * math.cos(phi)
    dy = y - a * math.sin(phi)
    alpha2 = math.asin(y / l2)
    if mode.s2 < 0:
        alpha2 = math.pi - alpha2
    rho2 = x - l2 * math.cos(alpha2)
    rho1 = math.hypot(dx, dy)
    alpha3 = mode.s3 * math.acos(c3)
    rho3 = b * math.sin(phi) + y - l3 * math.sin(alpha3)
    return rho1, rho2, rho3


def joints_at(traj, s, params) -> JointValues:
    """The joints of the trajectory's branch at s, through `pose_at`."""
    p = traj.pose_at(s)
    return JointValues(*joints_by_pose(p.x, p.y, p.phi, traj.mode, params))


def distance_residuals(x, y, phi, q: JointValues, params):
    """F(X; q), the three distance equations, on their own."""
    l2, l3, a, b = params.floats
    c, s = math.cos(phi), math.sin(phi)
    return (
        (x - a * c) ** 2 + (y - a * s) ** 2 - q.rho1 * q.rho1,
        (x - q.rho2) ** 2 + y * y - l2 * l2,
        (x + b * c) ** 2 + (y + b * s - q.rho3) ** 2 - l3 * l3,
    )


def distance_jacobian(x, y, phi, q: JointValues, params):
    """dF/dX of the distance equations, with its own cos and sin of phi."""
    _, _, a, b = params.floats
    c, s = math.cos(phi), math.sin(phi)
    return [
        [2 * (x - a * c), 2 * (y - a * s), 2 * a * ((x) * s - (y) * c)],
        [2 * (x - q.rho2), 2 * y, 0.0],
        [2 * (x + b * c), 2 * (y + b * s - q.rho3),
         2 * b * (-(x + b * c) * s + (y + b * s - q.rho3) * c)],
    ]


def joint_rates(traj, x, phi, k, params):
    """d(rho1, rho2, rho3)/ds along segment k at the path pose (x, phi),
    with its own cos and sin of phi."""
    _, l3, a, b = params.floats
    n = len(traj.waypoints) - 1
    (x0, p0), (x1, p1) = traj.waypoints[k], traj.waypoints[k + 1]
    vx, vphi = n * (x1 - x0), n * (p1 - p0)
    c, sn = math.cos(phi), math.sin(phi)
    dx, dy = x - a * c, traj.y0_float - a * sn
    c3 = (b * c + x) / l3
    dc3 = (vx - b * sn * vphi) / l3
    return ((dx * (vx + a * sn * vphi) - dy * a * c * vphi) / math.hypot(dx, dy),
            vx,
            b * c * vphi + traj.mode.s3 * l3 * c3 * dc3 / math.sqrt(1.0 - c3 * c3))


def path_joint_rates(traj, s, params):
    """dq/ds at s, from a `segment_point` of its own; within _KINK_WINDOW
    of an inner waypoint the window-weighted one-sided rates."""
    n = len(traj.waypoints) - 1
    k = round(s * n)
    if 0 < k < n and abs(s - k / n) <= _KINK_WINDOW:
        lo, hi = max(0.0, s - _KINK_WINDOW), min(1.0, s + _KINK_WINDOW)
        x, phi = traj.waypoints[k]
        w = (k / n - lo) / (hi - lo)
        left = joint_rates(traj, x, phi, k - 1, params)
        right = joint_rates(traj, x, phi, k, params)
        return tuple(w * u + (1.0 - w) * v for u, v in zip(left, right))
    k, x, phi = traj.segment_point(s)
    return joint_rates(traj, x, phi, k, params)


def sys_jacobian4(x, y, phi, s, traj, params, q: JointValues):
    """3x4 Jacobian of F(X; q(s)), q the joints at s, from per-quantity
    routes: dF/dX by `distance_jacobian`, dF/ds = (dF/dq)(dq/ds) by
    `path_joint_rates`."""
    j1, j2, j3 = distance_jacobian(x, y, phi, q, params)
    r1, r2, r3 = path_joint_rates(traj, s, params)
    return [j1 + [-2.0 * q.rho1 * r1], j2 + [-j2[0] * r2], j3 + [-j3[1] * r3]]


def sys_jacobian4_central(x, y, phi, s, traj, params, q, ds=1e-7):
    """3x4 Jacobian of F(X; q(s)) wrt (x, y, phi, s), q the joints at s;
    dF/ds by the central difference of F at the IK joints of s +- ds,
    clipped to [0, 1]."""
    j3 = distance_jacobian(x, y, phi, q, params)
    sp = min(1.0, s + ds)
    sm = max(0.0, s - ds)
    rp = distance_residuals(x, y, phi, joints_at(traj, sp, params), params)
    rm = distance_residuals(x, y, phi, joints_at(traj, sm, params), params)
    dcol = [(a - b) / (sp - sm) for a, b in zip(rp, rm)]
    return [row + [d] for row, d in zip(j3, dcol)]


def _newton(x, y, phi, q, params, tol=1e-12, iters=40):
    for _ in range(iters):
        r = distance_residuals(x, y, phi, q, params)
        err = max(abs(v) for v in r)
        if err < tol:
            return (x, y, phi, err)
        try:
            d = solve(distance_jacobian(x, y, phi, q, params), r)
        except ZeroDivisionError:
            return None
        lam = 1.0
        while lam > 1e-4:
            nx, ny, nphi = x - lam * d[0], y - lam * d[1], phi - lam * d[2]
            nr = distance_residuals(nx, ny, nphi, q, params)
            if max(abs(v) for v in nr) < err:
                x, y, phi = nx, ny, nphi
                break
            lam /= 2
        else:
            return None
    r = distance_residuals(x, y, phi, q, params)
    err = max(abs(v) for v in r)
    return (x, y, phi, err) if err < 1e-9 else None


def _corrector4(x, y, phi, s, tangent, traj, params, iters=25):
    base = (x, y, phi, s)
    for _ in range(iters):
        s = min(1.0, max(0.0, s))
        q = joints_at(traj, s, params)
        r = list(distance_residuals(x, y, phi, q, params))
        r.append(sum(t * (z - b) for t, z, b in zip(tangent, (x, y, phi, s), base)))
        if max(abs(v) for v in r) < 1e-11:
            return (x, y, phi, s), q
        try:
            d = solve(sys_jacobian4(x, y, phi, s, traj, params, q) + [tangent], r)
        except ZeroDivisionError:
            return None
        x, y, phi, s = x - d[0], y - d[1], phi - d[2], s - d[3]
        if not (-0.05 <= s <= 1.05):
            return None
    return None


def follow_chain(traj, params, start_state, h0=1.0 / 256, max_steps=40000) -> Chain:
    """The pseudo-arclength walk on per-quantity routes: the joints by
    `joints_at` at every corrector iterate, F and dF/dX by separate
    routines, the Jacobian again at each converged point for its tangent."""
    x, y, phi = start_state
    s = 0.0
    q = joints_at(traj, s, params)
    pts, qs = [(x, y, phi, s)], [q]
    tangent = _tangent4(sys_jacobian4(x, y, phi, s, traj, params, q), (0.0, 0.0, 0.0, 1.0))
    if abs(tangent[3]) < 1e-12:
        raise TrajectoryError("chain tangent parallel to the fiber at start")
    h = h0
    for _ in range(max_steps):
        px, py = x + h * tangent[0], y + h * tangent[1]
        pphi, ps = phi + h * tangent[2], s + h * tangent[3]
        if ps < 0.0 or ps > 1.0:
            target = 0.0 if ps < 0.0 else 1.0
            if abs(tangent[3]) > 1e-9:
                lam = (target - s) / (h * tangent[3])
                px = x + lam * h * tangent[0]
                py = y + lam * h * tangent[1]
                pphi = phi + lam * h * tangent[2]
                q = joints_at(traj, target, params)
                res = _newton(px, py, pphi, q, params)
                if res is not None:
                    pts.append((res[0], res[1], res[2], target))
                    qs.append(q)
                    return Chain(points=pts, joints=qs, end_s=target)
            h /= 2
            if h < 1e-10:
                raise TrajectoryError("chain stalled at the boundary")
            continue
        res = _corrector4(px, py, pphi, ps, tangent, traj, params)
        if res is None:
            h /= 2
            if h < 1e-10:
                raise TrajectoryError("chain corrector stalled")
            continue
        (x, y, phi, s), q = res
        tangent = _tangent4(sys_jacobian4(x, y, phi, s, traj, params, q), tangent)
        pts.append((x, y, phi, s))
        qs.append(q)
        if h < h0:
            h *= 1.5
        if s <= 0.0 + 1e-12 and tangent[3] < 0:
            return Chain(points=pts, joints=qs, end_s=0.0)
        if s >= 1.0 - 1e-12 and tangent[3] > 0:
            return Chain(points=pts, joints=qs, end_s=1.0)
    raise TrajectoryError("chain walk exceeded the step budget")


def eval_substituting(p: MPoly, point: dict) -> MPoly:
    """p with each variable of `point` replaced by its value, a rational or
    a polynomial, term by term: every power of a value taken afresh for
    every term.  The variables are the remaining ones followed by the
    polynomial values' ones."""
    remaining = tuple(v for v in p.vars if v not in point)
    values = {v: w if isinstance(w, MPoly) else Fraction(w)
              for v, w in point.items() if v in p.vars}
    out_vars = remaining
    for w in values.values():
        if isinstance(w, MPoly):
            out_vars = _merge_vars(out_vars, w.vars)
    acc = MPoly.const(0, out_vars)
    for e, c in p.terms.items():
        term = MPoly.const(c, out_vars)
        for i, k in enumerate(e):
            if k:
                v = p.vars[i]
                term = term * (values[v] if v in values else MPoly.var(v, out_vars)) ** k
        acc = acc + term
    return acc


def substitute_by_eval(p: MPoly, values: dict, den) -> MPoly:
    """`MPoly.substitute` through `eval_substituting`: p homogenized by a
    fresh variable h to degree d in the substituted variables,
    h^d p(v / h), then v = values[v] and h = den."""
    sub = [i for i, v in enumerate(p.vars) if v in values]
    d = max((sum(e[i] for i in sub) for e in p.terms), default=0)
    hom = MPoly(p.vars + ("h",), {e + (d - sum(e[i] for i in sub),): c
                                  for e, c in p.terms.items()})
    return eval_substituting(hom, {**values, "h": den})


def dk_count_chart(r: Fraction, c3: Fraction, ws) -> int:
    """`mechanism.dk_count_chart` with the leg-1 fibre rebuilt at (r, c3)
    from the leg-1 distance and the leg-3 relation, each call afresh."""
    y0, l3, a, b = ws.y0, ws.params.l3, ws.params.a, ws.params.b
    t = MPoly.var("t")
    one = MPoly.const(1, ("t",))
    op = one + t * t
    om = one - t * t
    xn = l3 * c3 * op - b * om
    e = (xn - a * om) ** 2 + (y0 * op - a * 2 * t) ** 2 - r * op * op
    if e.is_zero():
        return 0
    u = UPoly.from_mpoly(e.with_vars(("t",)), "t")
    if u.degree < 1:
        return 0
    return len(isolate(u))


def dk_eliminant(r1: Fraction, r2: Fraction, r3: Fraction, params) -> UPoly | None:
    """The direct-kinematics eliminant P(t) = (xnum - r2 den)^2 + ynum^2
    - l2^2 den^2, undivided, from the numerators and the denominator that
    `mechanism._dk_univariate` back-substitutes with; None when P is 0."""
    out = _dk_univariate(r1, r2, r3, params)
    if out is None:
        return None
    _, xnum, ynum, den = out
    p = (xnum - r2 * den) ** 2 + ynum * ynum - params.l2 * params.l2 * den * den
    return None if p.is_zero() else UPoly.from_mpoly(p, "t")


def direct_kinematics(q: JointValues, params, tol: float = 1e-9):
    """The direct kinematics isolating the undivided eliminant
    (`dk_eliminant`), with the package's back-substitution, residual filter,
    merge and sort."""
    r1, r2, r3 = Fraction(q.rho1), Fraction(q.rho2), Fraction(q.rho3)
    poly = dk_eliminant(r1, r2, r3, params)
    if poly is None:
        raise KinematicsError("degenerate input: direct kinematics eliminant vanishes")
    _, xnum, ynum, den = _dk_univariate(r1, r2, r3, params)
    if poly.degree < 1:
        return []
    sols = []
    for iv in isolate(poly):
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
        res = residuals(pose, JointValues(float(r1), float(r2), float(r3)), pa,
                        constraints_trig(params))
        if max(abs(v) for v in res) < tol:
            sols.append((pose, pa))
    merged = []
    for s in sols:
        if not any(abs(s[0].x - m[0].x) < 1e-7 and abs(s[0].y - m[0].y) < 1e-7
                   and abs(s[0].phi - m[0].phi) < 1e-7 for m in merged):
            merged.append(s)
    merged.sort(key=lambda s: (s[0].x, s[0].y, s[0].phi))
    return merged


def locate_by_sturm(dec, px, py) -> int | None:
    """`Decomposition.locate` with the base index counted by the Sturm
    sequence of the whole base product, and the fibre index by the Sturm
    sequence of the fibre product."""
    px, py = Fraction(px), Fraction(py)
    if not dec.base_poly.is_zero() and dec.base_poly.degree > 0:
        if upoly_eval(dec.base_poly, px) == 0:
            return None
        k1 = count_roots_by_sturm(dec.base_poly, NEG_INF, px)
    else:
        k1 = 0
    f = _specialize_product(dec.polys, dec.base_var, dec.fiber_var, px)
    if f.degree > 0 and upoly_eval(f, py) == 0:
        return None
    k2 = count_roots_by_sturm(f, NEG_INF, py) if f.degree > 0 else 0
    for c in dec.columns[k1]:
        if c.fiber_index == k2:
            return c.id
    return None


def pool_waypoints(count: int | None = None):
    """Waypoints of the first `count` (default all) generated trajectories
    recorded in perfbench/reference.json, as floats."""
    import json
    from pathlib import Path
    ref = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    pool = sorted(json.loads(ref.read_text())["pool"], key=lambda e: e["index"])
    return [tuple((float(Fraction(x)), float(Fraction(p))) for x, p in e["waypoints"])
            for e in pool[:count]]


def divides(den: MPoly, num: MPoly) -> bool:
    """Whether den divides num exactly."""
    try:
        exact_div(num, den)
        return True
    except RatPolyError:
        return False


def maximal_domains(adjacent, comps) -> set[frozenset[int]]:
    """Uniqueness domains by brute force over region indices 0..n-1: every
    subset that is connected in `adjacent` (a set of index pairs) and whose
    members' component sets `comps[i]` are pairwise disjoint, kept when no
    other such subset strictly contains it."""
    n = len(comps)

    def connected(s):
        todo, seen = [min(s)], {min(s)}
        while todo:
            i = todo.pop()
            for j in s:
                if j not in seen and ((i, j) in adjacent or (j, i) in adjacent):
                    seen.add(j)
                    todo.append(j)
        return seen == s

    ok = []
    for k in range(1, n + 1):
        for sub in itertools.combinations(range(n), k):
            s = frozenset(sub)
            if connected(s) and all(comps[i].isdisjoint(comps[j])
                                    for i, j in itertools.combinations(sub, 2)):
                ok.append(s)
    return {s for s in ok if not any(s < t for t in ok)}


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...] | None):
        self.text = text
        self.pos = 0
        self.vars = variables

    def error(self, msg):
        raise RatPolyError(f"parse error at {self.pos}: {msg} in {self.text!r}")

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> MPoly:
        p = self.expr()
        if self.peek():
            self.error("trailing input")
        return p

    def expr(self) -> MPoly:
        ch = self.peek()
        neg = False
        if ch in "+-":
            neg = ch == "-"
            self.pos += 1
        acc = self.term()
        if neg:
            acc = -acc
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                acc = acc + self.term()
            elif ch == "-":
                self.pos += 1
                acc = acc - self.term()
            else:
                return acc

    def term(self) -> MPoly:
        acc = self.power()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                acc = acc * self.power()
            elif ch == "(" or ch.isalpha() or ch == "_":
                acc = acc * self.power()
            else:
                return acc

    def power(self) -> MPoly:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            n = self.integer()
            return base ** n
        return base

    def atom(self) -> MPoly:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            p = self.expr()
            if self.peek() != ")":
                self.error("expected )")
            self.pos += 1
            return p
        if ch.isdigit():
            n = self.integer()
            if self.peek() == "/":
                save = self.pos
                self.pos += 1
                if self.peek().isdigit():
                    d = self.integer()
                    return MPoly.const(Fraction(n, d), self.vars or ())
                self.pos = save
            return MPoly.const(n, self.vars or ())
        if ch.isalpha() or ch == "_":
            name = self.ident()
            if self.vars is not None:
                if name not in self.vars:
                    self.error(f"unknown variable {name!r}")
                return MPoly.var(name, self.vars)
            return MPoly.var(name)
        self.error("unexpected character")

    def integer(self) -> int:
        start = self.pos
        if not self.peek().isdigit():
            self.error("expected integer")
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])

    def ident(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]


def parse_poly(text: str, variables: tuple[str, ...] | None = None) -> MPoly:
    """Parse the textual polynomial format (e.g. 'rho1^8 - 52*rho1^6'),
    the inverse of `ratpoly.format_poly`."""
    p = _Parser(text, variables).parse()
    if variables is not None:
        return p.with_vars(variables)
    return p
