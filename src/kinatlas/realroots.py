"""Exact real-root isolation and counting for univariate polynomials.

One Descartes-rule bisection, `_descartes`, finds the roots on a window:
`isolate` keeps the nodes it accepts as isolating intervals, `count_roots`
counts them, and `roots_below` counts on intervals isolation already
found, with one sign test.  All read the primitive integer coefficients a
`UPoly` holds.  `isolate` takes the squarefree part of its input itself,
so callers pass any nonzero polynomial; `isolate_squarefree` and
`count_roots` skip that step and take input that is squarefree already,
as the plane decomposition's fibre products are.  The walk runs in the
Bernstein basis (Mourrain-Rouillier-Roy; Eigenwillig): the Descartes test
on (a, b) counts the sign variations of p's Bernstein coefficients b_i
there, and one de Casteljau pass gives those of both halves.  p is
converted once per window: with q(x) = p(a + (b - a) x),
(1 + x)^n q(1 / (1 + x)) = sum C(n, i) b_i x^(n - i).  The test stays
exact when an end of the window is a root (Krandick-Mehlhorn): that root
is a zero b_0 or b_n and adds no variation.  An isolating interval is one
integer state: its ends A/d and B/d over one positive denominator and the
sign of p at its low end, built once from a Descartes node and halved on
integers by `_bisect`, the one bisection loop; `refine` and `narrow`
continue from the state, the adjacency pass's root comparisons seed their
rounds with it, and its Fraction ends are derived for the callers that
print or hand them on.  The one Horner sign routine takes an integer
numerator a and denominator b = o 2^e, o odd, and takes b^k as o^k
shifted by e k, so at a dyadic point it multiplies by a alone.  The root
bound is found on integers too.  Sample points are dyadic rationals so bit
sizes stay bounded when these feed the plane decomposition.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, ne

from .ratpoly import UPoly

NEG_INF = -math.inf
POS_INF = math.inf


class RealRootError(Exception):
    pass


# ---------------------------------------------------------------------------
# integer kernels


def _sign_variations(seq) -> int:
    signs = [s > 0 for s in seq if s]
    return sum(map(ne, signs, signs[1:]))


def _horner(ints: list[int], a: int, b: int) -> int:
    """b^n p(a/b) for the integer coefficients of p (n = len(ints) - 1)
    and b > 0, exact: homogeneous Horner.  With b = o 2^e, o odd, b^k is
    o^k shifted by e k, so at a dyadic point (o = 1) Horner multiplies only
    by a and shifts."""
    e = (b & -b).bit_length() - 1
    o = b >> e
    acc = 0
    ok = 1
    for k, c in enumerate(reversed(ints)):
        acc = acc * a + ((c * ok) << (e * k))
        ok *= o
    return acc


def _sign_at(ints: list[int], a: int, b: int) -> int:
    """Sign of p(a/b) for integer coefficients and b > 0, exact (a/b need
    not be in lowest terms)."""
    v = _horner(ints, a, b)
    return (v > 0) - (v < 0)


def _bisect(ints: list[int], A: int, B: int, d: int, slo: int,
            wn: int, wd: int) -> tuple[int, int, int]:
    """The one bisection loop: halve the root's interval (A/d, B/d) until
    it is narrower than wn/wd, p having the nonzero sign slo at A/d.  A
    halving doubles A, B and d and takes A + B as the midpoint, so the loop
    runs on integers and widths compare by cross-multiplication.  Returns
    the final (A, B, d); A == B when a midpoint is the root."""
    while (B - A) * wd >= wn * d:
        M = A + B
        A, B, d = A << 1, B << 1, d << 1
        sm = _sign_at(ints, M, d)
        if sm == 0:
            return M, M, d
        if sm == slo:
            A = M
        else:
            B = M
    return A, B, d


def _taylor_shift_1(cs: list[int]) -> list[int]:
    """p(x) -> p(x+1), integer coefficients, in place style."""
    out = list(cs)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += out[j + 1]
    return out


def _scale_shift(cs: list[int], a: Fraction, w: Fraction) -> list[int]:
    """Integer-cleared coefficients of p(a + w*x), up to a positive constant.

    Horner over a common denominator: with a = A/den, w = W/den the loop
    maintains den^k * (partial Horner value), so everything stays integer.
    """
    den = a.denominator * w.denominator // math.gcd(a.denominator, w.denominator)
    A = a.numerator * (den // a.denominator)
    W = w.numerator * (den // w.denominator)
    acc: list[int] = []
    scale = 1  # den^(number of Horner steps applied)
    for c in reversed(cs):
        new = [0] * (len(acc) + 1)
        for i, k in enumerate(acc):
            if k:
                new[i] += k * A
                new[i + 1] += k * W
        scale *= den
        new[0] += c * scale
        acc = new
    while acc and acc[-1] == 0:
        acc.pop()
    g = 0
    for k in acc:
        g = math.gcd(g, abs(k))
    return [k // g for k in acc] if g > 1 else acc


# ---------------------------------------------------------------------------
# isolating intervals


@dataclass(frozen=True)
class IsolatingInterval:
    """Rational interval (A/d, B/d), d > 0, containing exactly one real
    root of `polynomial`, the squarefree polynomial that isolation ran on:
    `_bisect`'s integer state.  slo is the sign of `polynomial` at A/d, 0
    exactly when A == B, which encodes an exact rational root; for A < B
    the sign at B/d is -slo.  The Fraction ends are derived.
    """

    A: int
    B: int
    d: int
    slo: int
    polynomial: UPoly

    @property
    def low(self) -> Fraction:
        return Fraction(self.A, self.d)

    @property
    def high(self) -> Fraction:
        return Fraction(self.B, self.d)

    def is_exact(self) -> bool:
        return self.A == self.B

    def midpoint(self) -> Fraction:
        return Fraction(self.A + self.B, self.d << 1)

    def refine(self, width: Fraction) -> "IsolatingInterval":
        """Narrow below `width` by sign-preserving bisection."""
        return self.narrow(width.numerator, width.denominator)

    def narrow(self, wn: int, wd: int) -> "IsolatingInterval":
        """Narrow below wn/wd, wd > 0, by `_bisect`, continuing from the
        stored state."""
        if self.A == self.B:
            return self
        p = self.polynomial
        A, B, d = _bisect(p.coeffs, self.A, self.B, self.d, self.slo, wn, wd)
        return IsolatingInterval(A, B, d, self.slo if A < B else 0, p)

    def float(self) -> float:
        iv = self.refine(Fraction(1, 1 << 60))
        return float(iv.midpoint())


def roots_below(roots: list[IsolatingInterval], x: Fraction) -> int:
    """Number of the roots that `roots`, sorted disjoint intervals from
    `isolate`, isolate below x, x being no root of their polynomial.

    A bisection over the intervals' upper ends counts those below x; of the
    rest, only the first can straddle x, low < x <= high, and it is not
    exact.  Its root is simple and lies strictly inside, where the
    polynomial changes sign, so it is below x exactly when the sign at x
    differs from the stored sign at low: one exact integer sign test, no
    refinement."""
    k = bisect.bisect_left(roots, x, key=lambda iv: iv.high)
    if k < len(roots) and roots[k].low < x:
        iv = roots[k]
        if iv.slo != _sign_at(iv.polynomial.coeffs, *x.as_integer_ratio()):
            k += 1
    return k


# ---------------------------------------------------------------------------
# Descartes route


def _root_bound(ints: list[int]) -> int:
    """Cauchy bound 1 + m/|lc|, rounded up to a power of two: the least
    b = 2^k with b |lc| >= |lc| + m, found on integers."""
    lc = abs(ints[-1])
    m = max((abs(c) for c in ints[:-1]), default=0)
    q = -(-(lc + m) // lc)  # ceil((lc + m) / lc)
    return 1 << (q - 1).bit_length()


def _strip_twos(cs: list[int]) -> list[int]:
    """cs without the power of two common to all its entries."""
    bits = 0
    for c in cs:
        bits |= c
    tz = (bits & -bits).bit_length() - 1
    return [c >> tz for c in cs] if tz > 0 else cs


def _split(b: list[int]) -> tuple[list[int], list[int]]:
    """Bernstein coefficients of both halves of an interval, each up to a
    positive factor, from those of the whole by one de Casteljau pass:
    row_k[i] = row_(k-1)[i] + row_(k-1)[i+1], left_k = row_k[0] 2^(n-k) and
    right_(n-k) = row_k[n-k] 2^(n-k).  The apex left[n] = right[0] is
    2^n p(midpoint), up to the same factor."""
    left, right = [], []
    row = b
    for shift in range(len(b) - 1, -1, -1):     # n - k for row k
        left.append(row[0] << shift)
        right.append(row[-1] << shift)
        row = list(map(add, row, row[1:]))
    right.reverse()
    return _strip_twos(left), _strip_twos(right)


def _descartes(ints: list[int], a: Fraction, w: Fraction):
    """The one Descartes walk: one tuple per root of the squarefree
    nonzero integer polynomial `ints` inside the window (a, a + w), w > 0,
    whose ends may be roots.  It is (A, B, d, slo) for a node it accepts
    and (M, M, d, 0) for a midpoint that is a root.  With D the least
    common denominator of a and w, node (k, e) is a + w [k, k + 1] / 2^e,
    ends A/d and B/d with d = D 2^e, and carries the polynomial's integer
    Bernstein coefficients there up to a positive factor, the first and
    last with its signs at the ends.  One variation with opposite end signs
    accepts a node, none drops it; a zero `_split` apex is a root."""
    n = len(ints) - 1
    D = math.lcm(a.denominator, w.denominator)
    a0, W = a.numerator * (D // a.denominator), w.numerator * (D // w.denominator)
    # b_i = T[n - i] / C(n, i); the lcm of the C(n, i) keeps b integer
    L = math.lcm(*(math.comb(n, i) for i in range(n + 1)))
    T = _taylor_shift_1(_scale_shift(ints, a, w)[::-1])
    stack = [(0, 0, [T[n - i] * (L // math.comb(n, i)) for i in range(n + 1)])]
    while stack:
        k, e, bern = stack.pop()
        v = _sign_variations(bern)
        if v == 0:
            continue
        if v == 1 and (bern[0] < 0 < bern[-1] or bern[-1] < 0 < bern[0]):
            lo = (a0 << e) + W * k
            yield lo, lo + W, D << e, 1 if bern[0] > 0 else -1
            continue
        # two or more variations, or an end exactly on another root
        left, right = _split(bern)
        if left[-1] == 0:
            m = (a0 << (e + 1)) + W * (2 * k + 1)
            yield m, m, D << (e + 1), 0
        stack.append((2 * k, e + 1, left))
        stack.append((2 * k + 1, e + 1, right))


def count_roots(p: UPoly, low=NEG_INF, high=POS_INF) -> int:
    """Number of real roots of the squarefree polynomial p in
    (low, high]: the roots `_descartes` finds on (low, high), an infinite
    end cut at the root bound, and one more when high is a root."""
    if p.is_zero():
        raise RealRootError("zero polynomial")
    if p.degree <= 0:
        return 0
    if not (low == NEG_INF or high == POS_INF):
        if not low < high:
            raise RealRootError("empty interval")
    ints = p.coeffs
    bound = _root_bound(ints)
    lo = Fraction(-bound if low == NEG_INF else low)
    hi = Fraction(bound if high == POS_INF else high)
    n = sum(1 for _ in _descartes(ints, lo, hi - lo)) if lo < hi else 0
    if high != POS_INF and _sign_at(ints, *hi.as_integer_ratio()) == 0:
        n += 1
    return n


def isolate(p: UPoly) -> list[IsolatingInterval]:
    """Disjoint dyadic isolating intervals, one per distinct real root of
    the nonzero polynomial p: `isolate_squarefree` on p's squarefree part."""
    if p.is_zero():
        raise RealRootError("zero polynomial")
    return isolate_squarefree(p.squarefree())


def isolate_squarefree(f: UPoly) -> list[IsolatingInterval]:
    """Disjoint dyadic isolating intervals, one per real root of f, which
    is squarefree already (the fibre products of `cad2d._squarefree_lcm`
    are): the nodes and roots of `_descartes` on windows of integer ends
    that cover the root bound, made strictly disjoint by halving."""
    if f.degree <= 0:
        return []
    ints = f.coeffs
    out: list[IsolatingInterval] = []
    B = _root_bound(ints)
    # peel an exact zero root; remaining roots are isolated against the
    # peeled polynomial and never span 0, so endpoint signs stay reliable
    if ints[0] == 0:
        out.append(IsolatingInterval(0, 0, 1, 0, f))
        k = 0
        while ints[k] == 0:
            k += 1
        ints_nz = ints[k:]
        fiso = UPoly(ints_nz, f.var)
        tops = [(-B, B), (0, B)]
    else:
        ints_nz = ints
        fiso = f
        tops = [(-B, 2 * B)]
    for a, w in tops:
        out += (IsolatingInterval(*node, fiso) for node in _descartes(ints_nz, a, w))
    # every denominator is a power of two, so all ends scale to the largest
    D = max((iv.d for iv in out), default=1)
    out.sort(key=lambda iv: (iv.A * (D // iv.d), iv.B * (D // iv.d)))
    # make neighbours strictly disjoint
    for i in range(len(out) - 1):
        a, b = out[i], out[i + 1]
        while not a.B * b.d < b.A * a.d:
            a = a.narrow(a.B - a.A, a.d << 1)
            b = b.narrow(b.B - b.A, b.d << 1)
            if a.is_exact() and b.is_exact():
                if a.A * b.d == b.A * a.d:
                    raise RealRootError("duplicate root after squarefree")
                break
        out[i], out[i + 1] = a, b
    return out


def sample_between(lo, hi) -> Fraction:
    """Dyadic rational strictly between two bounds, each an
    `IsolatingInterval` or NEG_INF / POS_INF: 0 between the infinities, the
    integer below (above) a lone finite upper (lower) bound, else the
    midpoint of the gap that halving both intervals opens."""
    if lo == NEG_INF:
        return Fraction(0) if hi == POS_INF else Fraction(hi.A // hi.d - 1)
    if hi == POS_INF:
        return Fraction(lo.B // lo.d + 1)
    for _ in range(200):
        if lo.B * hi.d < hi.A * lo.d:
            return Fraction(lo.B * hi.d + hi.A * lo.d, (lo.d * hi.d) << 1)
        if lo.is_exact() and hi.is_exact():
            raise RealRootError("empty gap between bounds")
        lo = lo.narrow(lo.B - lo.A, lo.d << 1)
        hi = hi.narrow(hi.B - hi.A, hi.d << 1)
    raise RealRootError("could not separate bounds")
