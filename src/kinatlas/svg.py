"""Minimal deterministic SVG emission for slice plots.

Curves are rendered by per-abscissa fiber root isolation on an exact grid
(no marching squares), so no branch is missed at plot resolution.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cad2d import bind, int_rows
from .ratpoly import MPoly
from .realroots import isolate


def curve_points(poly: MPoly, base_var: str, fiber_var: str,
                 x_lo: Fraction, x_hi: Fraction, density: int) -> list[list[tuple[float, float]]]:
    """Column-wise points of the curve, one list per abscissa, each root of
    the fibre variable, a half-angle tangent, given as its angle 2 atan."""
    rows = int_rows(poly, fiber_var, base_var)
    cols = []
    (a, b), (c, d) = x_lo.as_integer_ratio(), x_hi.as_integer_ratio()
    for i in range(density + 1):
        # x_lo + (x_hi - x_lo) i / density, one Fraction
        x0 = Fraction(a * d * (density - i) + c * b * i, b * d * density)
        u = bind(rows, x0, fiber_var)
        ys = [2.0 * math.atan(iv.float()) for iv in isolate(u)] if u.degree >= 1 else []
        cols.append([(float(x0), y) for y in ys])
    return cols


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

    def dot(self, x: float, y: float, color: str, r: float = 2.5):
        px, py = self._map(x, y)
        self.parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{r}" fill="{color}"/>')

    def text(self, x: float, y: float, s: str, color: str = "#000", size: int = 11):
        px, py = self._map(x, y)
        self.parts.append(
            f'<text x="{px:.2f}" y="{py:.2f}" fill="{color}" font-size="{size}" '
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
