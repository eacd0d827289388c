"""Seeded generator of valid workspace trajectories on the slice y = 1/2.

A trajectory is valid when every leg stays inside its reach along the whole
path.  The test is the closed-form one, |(x + b cos phi) / l3| < margin for
leg 3 and rho1 > margin for leg 1, evaluated at every sample that
`track_branches` and `tracked_chart` take (s = k / 1200 covers the 600-,
400- and 200-step grids).  It never calls the program under test.
Waypoint coordinates are odd multiples of 1/128: exact as floats and as
JSON rationals, and never on the rational cell boundaries of the slice
(the lines x = 0, +-1, +-2, +-4 and phi = 0), where an endpoint has no
verdict.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

Y0 = Fraction(1, 2)
L3, A, B = 3.0, 1.0, 1.0          # default geometry (l2 = l3 = 3, a = b = 1)
REACH_MARGIN = 0.95               # |cos alpha3| bound for leg 3
RHO1_MIN = 0.05                   # keeps leg 1 away from rho1 = 0
SAMPLES = 1200
X_RANGE = 128                     # x in (-2, 2)
PHI_RANGE = 160                   # phi in (-2.5, 2.5)


def _pose(wps, s: float) -> tuple[float, float]:
    """Piecewise-linear interpolation, uniform in s per segment."""
    n = len(wps) - 1
    if s >= 1:
        return wps[-1]
    k = min(int(s * n), n - 1)
    f = s * n - k
    (x0, p0), (x1, p1) = wps[k], wps[k + 1]
    return x0 + f * (x1 - x0), p0 + f * (p1 - p0)


def reachable(wps) -> bool:
    y = float(Y0)
    for i in range(SAMPLES + 1):
        x, phi = _pose(wps, i / SAMPLES)
        if abs((x + B * math.cos(phi)) / L3) >= REACH_MARGIN:
            return False
        if math.hypot(x - A * math.cos(phi), y - A * math.sin(phi)) <= RHO1_MIN:
            return False
    return True


def _odd(rng: random.Random, half_range: int) -> float:
    """An odd multiple of 1/128 in (-half_range/64, half_range/64)."""
    return (2 * rng.randrange(-half_range, half_range) + 1) / 128


def trajectory(index: int) -> tuple[tuple[float, float], ...]:
    """Waypoints of pool trajectory `index`: 2 to 4 distinct points, drawn
    again until the whole path is reachable."""
    rng = random.Random(index)
    while True:
        n = rng.randint(2, 4)
        wps = tuple((_odd(rng, X_RANGE), _odd(rng, PHI_RANGE)) for _ in range(n))
        if any(p == q for p, q in zip(wps, wps[1:])):
            continue
        if reachable(wps):
            return wps
