"""Reference implementations that the tests compare the package against.

Each computes something the package computes by another route: the
Sylvester-determinant resultant against the subresultant PRS, and the
substituted segment restriction against the adjacency pass's specialised
horizontal segment test.  They are slow and meant for small inputs.
"""

from fractions import Fraction

from kinatlas.ratpoly import MPoly, UPoly, RatPolyError
from kinatlas.realroots import RealRootError, count_roots


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
    r = poly.eval(sub)
    if isinstance(r, Fraction):
        return UPoly([r], tvar)
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
        if u(0) == 0 or u(1) == 0:
            crossed = True
            continue
        if count_roots(u, Fraction(0), Fraction(1)) > 0:
            crossed = True
    if with_flag:
        return crossed, degenerate
    return crossed
