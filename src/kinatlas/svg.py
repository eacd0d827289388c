"""Minimal deterministic SVG emission for slice plots.

Curves are drawn column by column: each abscissa's fibre is bound to
integers once (`cad2d.bind`) and every real root of the fibre variable is
plotted (no marching squares), as the correctly rounded double of the
root, so no branch is missed at plot resolution.  A curve's critical
abscissae, the real roots of its leading coefficient times its
discriminant in the fibre variable, are isolated once.  Between two of
them the fibre keeps its number of roots, which move continuously
(delineability), so a column is decided by one of two routes:

- exact: `isolate` and `IsolatingInterval.float()`, for the first column
  of each interval between critical abscissae, a column on a critical
  abscissa, every column of a curve whose discriminant is 0 (a curve that
  is not squarefree), and any column the certified route misses;
- certified: float Newton steps, started from the roots' angles in the
  interval's last two columns extrapolated, propose k doubles, k the
  interval's count from its exact column, and the half-ulp certificate
  `realroots.round_root` proves each one by exact signs.  k strictly
  increasing proved doubles are the k roots, each correctly rounded;
  floats only propose.

Both routes give the same double for every root, so the route a column
takes never shows in the plot.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cad2d import bind, int_rows
from .ratpoly import MPoly, UPoly, discriminant
from .realroots import isolate, roots_below, round_root, sign_at

_NEWTON = 8    # float Newton steps per proposed root, at most


def curve_points(poly: MPoly, base_var: str, fiber_var: str,
                 x_lo: Fraction, x_hi: Fraction, density: int) -> list[list[tuple[float, float]]]:
    """Column-wise points of the curve, one list per abscissa, each root of
    the fibre variable, a half-angle tangent, given as its angle 2 atan."""
    rows = int_rows(poly, fiber_var, base_var)
    crit = _critical_polynomial(poly, base_var, fiber_var)
    crit_roots = isolate(crit) if crit is not None else []
    cols: list[list[tuple[float, float]]] = []
    spans: list[int | None] = []     # each column's interval between critical abscissae
    (a, b), (c, d) = x_lo.as_integer_ratio(), x_hi.as_integer_ratio()
    for i in range(density + 1):
        # x_lo + (x_hi - x_lo) i / density, one Fraction
        x0 = Fraction(a * d * (density - i) + c * b * i, b * d * density)
        u = bind(rows, x0, fiber_var)
        here = (roots_below(crit_roots, x0)
                if crit is not None and sign_at(crit, x0) != 0 else None)
        found = None
        if here is not None and spans[-1:] == [here]:
            if spans[-2:-1] == [here]:      # the angles of two columns, extrapolated
                guesses = [math.tan(t - s / 2) for (_, s), (_, t) in zip(cols[-2], cols[-1])]
            else:
                guesses = [math.tan(t / 2) for _, t in cols[-1]]
            found = _carried_roots(u, guesses)
        if found is None:
            found = [iv.float() for iv in isolate(u)] if u.degree >= 1 else []
        spans.append(here)
        cols.append([(float(x0), 2.0 * math.atan(y)) for y in found])
    return cols


def _critical_polynomial(poly: MPoly, base_var: str, fiber_var: str) -> UPoly | None:
    """The leading coefficient of poly in fiber_var times, from degree 2
    on, its discriminant there, as a polynomial in base_var; None when the
    discriminant is 0, poly having a repeated factor."""
    crit = poly.leading_coefficient(fiber_var)
    if poly.degree(fiber_var) >= 2:
        crit = crit * discriminant(poly, fiber_var)
    if crit.is_zero():
        return None
    return UPoly.from_mpoly(crit.with_vars((base_var,)), base_var)


def _carried_roots(u: UPoly, guesses: list[float]) -> list[float] | None:
    """The roots of u, a fibre known to have exactly len(guesses) real
    roots, each as its correctly rounded double: float Newton from each
    guess, proved by `round_root`.  None unless the proved doubles are
    strictly increasing and as many as the guesses."""
    ints = u.coeffs
    s = max(0, max(map(abs, ints)).bit_length() - 64)
    fs = [k / (1 << s) for k in reversed(ints)]
    found: list[float] = []
    for y in guesses:
        for _ in range(_NEWTON):
            p = dp = 0.0
            for k in fs:
                dp = dp * y + p
                p = p * y + k
            if not dp or not math.isfinite(p / dp):
                return None
            step = p / dp
            y -= step
            if abs(step) <= abs(y) * 2.0 ** -40:   # the next step is below rounding
                break
        r = round_root(u, y)
        if r is None or found and r <= found[-1]:
            return None
        found.append(r)
    return found


class SvgCanvas:
    def __init__(self, window: tuple[float, float, float, float],
                 size: tuple[int, int] = (640, 480)):
        self.x0, self.x1, self.y0, self.y1 = window
        self.w, self.h = size
        self.parts: list[str] = []

    def _map(self, x: float, y: float) -> tuple[float, float]:
        px = (x - self.x0) / (self.x1 - self.x0) * self.w
        py = self.h - (y - self.y0) / (self.y1 - self.y0) * self.h
        return px, py

    def polyline(self, pts: list[tuple[float, float]], color: str, width: float = 1.2):
        if len(pts) < 2:
            return
        coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in (self._map(*p) for p in pts))
        self.parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{coords}"/>')

    def dot(self, x: float, y: float, color: str, r: float):
        px, py = self._map(x, y)
        self.parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{r}" fill="{color}"/>')

    def text(self, x: float, y: float, s: str, color: str):
        px, py = self._map(x, y)
        self.parts.append(
            f'<text x="{px:.2f}" y="{py:.2f}" fill="{color}" font-size="11" '
            f'font-family="monospace">{s}</text>')

    def curve_columns(self, cols: list[list[tuple[float, float]]], color: str):
        """Join column points into segments when neighbouring counts match;
        otherwise draw dots (branch birth/death columns)."""
        for a, b in zip(cols, cols[1:]):
            if len(a) == len(b) and a:
                for p, q in zip(sorted(a, key=lambda t: t[1]), sorted(b, key=lambda t: t[1])):
                    self.polyline([p, q], color)
            else:
                for p in a:
                    self.dot(p[0], p[1], color, 1.0)

    def render(self) -> str:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.w}" '
                f'height="{self.h}" viewBox="0 0 {self.w} {self.h}">\n'
                f'<rect width="{self.w}" height="{self.h}" fill="white"/>\n')
        return head + "\n".join(self.parts) + "\n</svg>\n"
