import functools

import pytest
from fractions import Fraction

from kinatlas.ratpoly import MPoly
from kinatlas.mechanism import MechanismParams, WorkingMode


def eq11_reference(c2_sq: Fraction) -> MPoly:
    """The degree-8 joint-space curve in (r, c3) with r = rho1^2, transcribed
    from its reference coefficient table at a fixed cos(alpha2)^2."""
    vs = ("r", "c3")
    r = MPoly.var("r", vs)
    c3 = MPoly.var("c3", vs)
    one = MPoly.const(1, vs)
    k = c2_sq
    w = c3 * c3
    a8 = one
    a6 = (42 * k - 52) * one - 12 * w
    a4 = 468 * w + 960 * one - 1584 * k * one - 558 * k * w - 18 * w ** 2 + 657 * k ** 2 * one
    a2 = (-2988 * w ** 2 - 5760 * w + 4536 * k ** 3 * one + 2430 * k * w ** 2
          - 7168 * one + 18432 * k * one - 15840 * k ** 2 * one + 324 * w ** 3
          + 13320 * k * w - 7290 * k ** 2 * w)
    a0 = ((9 * k ** 2 * one - 18 * k * w - 24 * k * one + 9 * w ** 2 + 12 * w + 16 * one)
          * (36 * k * one - 32 * one - 9 * w) ** 2)
    return (r ** 4 * a8 + r ** 3 * a6 + r ** 2 * a4 + r * a2 + a0).canonical()


def sc_quartic_reference() -> MPoly:
    """Reference characteristic-surface quartic in (x, y, cphi, sphi)."""
    from oracles import parse_poly
    return parse_poly(
        "4*y^4 + 36*sphi*y^3 + (32*x^2 + 35*cphi^2 + 108 + 184*x*cphi)*y^2 "
        "- 6*sphi*(cphi^2 - 18 + 14*x*cphi + 40*x^2)*y "
        "+ (cphi + 4*x + 3)*(cphi + 4*x - 3)*(cphi - 2*x)^2",
        ("x", "y", "cphi", "sphi"))


@pytest.fixture(scope="session")
def eq11_rc() -> MPoly:
    return eq11_reference(Fraction(35, 36))


@pytest.fixture(scope="session")
def sc_quartic() -> MPoly:
    return sc_quartic_reference()


_atlas_cache = {}


@pytest.fixture(scope="session")
def atlas_pp():
    """Full slice atlas at y = 1/2, working mode (+,+); built once."""
    import time
    from kinatlas.domains import SliceAtlas
    if "atlas" not in _atlas_cache:
        t0 = time.time()
        _atlas_cache["atlas"] = SliceAtlas.build(
            MechanismParams(), Fraction(1, 2), WorkingMode(1, 1))
        _atlas_cache["seconds"] = time.time() - t0
    return _atlas_cache["atlas"]


@pytest.fixture(scope="session")
def atlas_build_seconds(atlas_pp) -> float:
    return _atlas_cache["seconds"]


@pytest.fixture(scope="session")
def slice_atlas(atlas_pp):
    """The (+,+) slice atlas of a case of `oracles.SLICES`, each built
    once; "ref" is `atlas_pp`.  Tests that patch a build build their own."""
    from kinatlas.domains import SliceAtlas
    from oracles import SLICES

    @functools.cache
    def build(case: str):
        if case == "ref":
            return atlas_pp
        return SliceAtlas.build(*SLICES[case], WorkingMode(1, 1))

    return build
