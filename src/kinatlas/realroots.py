"""Exact real-root isolation and counting for univariate polynomials.

Two independent routes are provided on purpose: Descartes-rule bisection
drives isolation, Sturm sequences drive counting (`roots_below` counts on
intervals isolation already found, with one sign test); both read the
primitive integer coefficients a `UPoly` holds.  `isolate` and the Sturm
route take the squarefree part of their input themselves, so callers pass
any nonzero polynomial; `isolate_squarefree` skips that step for input that
is squarefree already, as the plane decomposition's fibre products are.
Isolation runs in the Bernstein basis (Mourrain-Rouillier-Roy;
Eigenwillig): the Descartes test on (a, b) counts the sign variations of
p's Bernstein coefficients b_i there, and one de Casteljau pass gives those
of both halves.  p is converted once per top interval: with
q(x) = p(a + (b - a) x), (1 + x)^n q(1 / (1 + x)) = sum C(n, i) b_i
x^(n - i).  Refinement has one integer state: the interval (A/d, B/d) over
one common denominator and the sign of p at its low end, which `_bisect`,
the one bisection loop, halves on integers; `refine` wraps it in
Fractions, and the adjacency pass's root comparisons keep such states
across their rounds.  The one Horner sign routine takes an integer
numerator a and denominator b = o 2^e, o odd, and takes b^k as o^k shifted
by e k, so at a dyadic point it multiplies by a alone.  The root bound is
found on integers too.  Sturm sequences are integer tuples, kept per
`UPoly` by an LRU cache on `sturm_sequence`.  Sample points are dyadic
rationals so bit sizes stay bounded when these feed the plane
decomposition.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, ne

from .ratpoly import UPoly, _int_prem, _int_primitive

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
    """Rational interval containing exactly one real root of `polynomial`.

    low == high encodes an exact rational root.  `polynomial` is the
    squarefree polynomial that isolation ran on.
    """

    low: Fraction
    high: Fraction
    polynomial: UPoly

    def is_exact(self) -> bool:
        return self.low == self.high

    def width(self) -> Fraction:
        return self.high - self.low

    def midpoint(self) -> Fraction:
        return (self.low + self.high) / 2

    def refine(self, width: Fraction) -> "IsolatingInterval":
        """Narrow below `width` by sign-preserving bisection (`_bisect`)."""
        lo, hi = self.low, self.high
        if lo == hi:
            return self
        p = self.polynomial
        ints = p.coeffs
        d = math.lcm(lo.denominator, hi.denominator)
        A = lo.numerator * (d // lo.denominator)
        B = hi.numerator * (d // hi.denominator)
        slo = _sign_at(ints, A, d)
        if slo == 0:
            return IsolatingInterval(lo, lo, p)
        A, B, d = _bisect(ints, A, B, d, slo, width.numerator, width.denominator)
        return IsolatingInterval(Fraction(A, d), Fraction(B, d), p)

    def float(self) -> float:
        iv = self.refine(Fraction(1, 1 << 60))
        return float(iv.midpoint())


# ---------------------------------------------------------------------------
# Sturm route


@functools.lru_cache(maxsize=512)
def sturm_sequence(p: UPoly) -> tuple[tuple[int, ...], ...]:
    """Signed remainder sequence of the squarefree part of p, as primitive
    integer coefficient tuples; kept per polynomial.

    Computed fraction-free: each remainder is the negated pseudo-remainder,
    sign-corrected for the pseudo-division multiplier and stripped to
    primitive integers (positive rescaling preserves sign variations).
    """
    if p.is_zero():
        raise RealRootError("zero polynomial")
    f = p.squarefree()
    if f.degree == 0:
        return (f.coeffs,)
    seq = [f.coeffs, f.derivative().coeffs]
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
        x = Fraction(x)
        vals = [_sign_at(s, *x.as_integer_ratio()) for s in seq]
    return _sign_variations(vals)


def count_roots(p: UPoly, low=NEG_INF, high=POS_INF) -> int:
    """Number of distinct real roots in (low, high]."""
    if p.is_zero():
        raise RealRootError("zero polynomial")
    if p.degree <= 0:
        return 0
    if not (low == NEG_INF or high == POS_INF):
        if not low < high:
            raise RealRootError("empty interval")
    seq = sturm_sequence(p)
    return _variations_at(seq, low) - _variations_at(seq, high)


def roots_below(roots: list[IsolatingInterval], x: Fraction) -> int:
    """Number of the roots that `roots`, sorted disjoint intervals from
    `isolate`, isolate below x, x being no root of their polynomial.

    A bisection over the intervals' upper ends counts those below x; of the
    rest, only the first can straddle x, low < x <= high, and it is not
    exact.  Its root is simple and lies strictly inside, where the
    polynomial changes sign, so it is below x exactly when the signs at low
    and at x differ: one exact integer sign test, no refinement."""
    k = bisect.bisect_left(roots, x, key=lambda iv: iv.high)
    if k < len(roots) and roots[k].low < x:
        iv = roots[k]
        ints = iv.polynomial.coeffs
        if _sign_at(ints, *iv.low.as_integer_ratio()) != _sign_at(ints, *x.as_integer_ratio()):
            k += 1
    return k


# ---------------------------------------------------------------------------
# Descartes route


def _root_bound(ints: list[int]) -> Fraction:
    """Cauchy bound 1 + m/|lc|, rounded up to a power of two: the least
    b = 2^k with b |lc| >= |lc| + m, found on integers."""
    lc = abs(ints[-1])
    m = max((abs(c) for c in ints[:-1]), default=0)
    q = -(-(lc + m) // lc)  # ceil((lc + m) / lc)
    return Fraction(1 << (q - 1).bit_length())


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


def isolate(p: UPoly) -> list[IsolatingInterval]:
    """Disjoint dyadic isolating intervals, one per distinct real root of
    the nonzero polynomial p: `isolate_squarefree` on p's squarefree part."""
    if p.is_zero():
        raise RealRootError("zero polynomial")
    return isolate_squarefree(p.squarefree())


def isolate_squarefree(f: UPoly) -> list[IsolatingInterval]:
    """Disjoint dyadic isolating intervals, one per real root of f, which
    is squarefree already (the fibre products of `cad2d._squarefree_lcm`
    are).

    Descartes bisection in the Bernstein basis: node (k, e) of a top
    interval (a, a + w) is a + w [k, k + 1] / 2^e and carries f's integer
    Bernstein coefficients there up to a positive factor, the first and
    last with the signs of f at its ends.  One variation with opposite end
    signs accepts a node, none drops it; a zero `_split` apex is a root.
    """
    if f.degree <= 0:
        return []
    ints = f.coeffs
    out: list[IsolatingInterval] = []
    B = _root_bound(ints)
    # peel an exact zero root; remaining roots are isolated against the
    # peeled polynomial and never span 0, so endpoint signs stay reliable
    if ints[0] == 0:
        out.append(IsolatingInterval(Fraction(0), Fraction(0), f))
        k = 0
        while ints[k] == 0:
            k += 1
        ints_nz = ints[k:]
        fiso = UPoly(ints_nz, f.var)
        tops = [(-B, B), (Fraction(0), B)]
    else:
        ints_nz = ints
        fiso = f
        tops = [(-B, 2 * B)]
    n = len(ints_nz) - 1
    if n == 0:
        return out
    # b_i = T[n - i] / C(n, i); the lcm of the C(n, i) keeps b integer
    L = math.lcm(*(math.comb(n, i) for i in range(n + 1)))
    stack = []
    for a, w in tops:
        T = _taylor_shift_1(_scale_shift(ints_nz, a, w)[::-1])
        stack.append((a, w, 0, 0, [T[n - i] * (L // math.comb(n, i)) for i in range(n + 1)]))
    while stack:
        a, w, k, e, bern = stack.pop()
        v = _sign_variations(bern)
        if v == 0:
            continue
        if v == 1 and (bern[0] < 0 < bern[-1] or bern[-1] < 0 < bern[0]):
            out.append(IsolatingInterval(a + w * Fraction(k, 1 << e),
                                         a + w * Fraction(k + 1, 1 << e), fiso))
            continue
        # two or more variations, or an end exactly on another root
        left, right = _split(bern)
        if left[-1] == 0:
            m = a + w * Fraction(2 * k + 1, 2 << e)
            out.append(IsolatingInterval(m, m, fiso))
        stack.append((a, w, 2 * k, e + 1, left))
        stack.append((a, w, 2 * k + 1, e + 1, right))
    out.sort(key=lambda iv: (iv.low, iv.high))
    # make neighbours strictly disjoint
    for i in range(len(out) - 1):
        a, b = out[i], out[i + 1]
        while not a.high < b.low:
            if not a.is_exact():
                a = a.refine(a.width() / 2)
            if not b.is_exact():
                b = b.refine(b.width() / 2)
            if a.is_exact() and b.is_exact():
                if a.low == b.low:
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
        return Fraction(0) if hi == POS_INF else Fraction(math.floor(hi.low) - 1)
    if hi == POS_INF:
        return Fraction(math.floor(lo.high) + 1)
    for _ in range(200):
        if lo.high < hi.low:
            return (lo.high + hi.low) / 2
        if lo.is_exact() and hi.is_exact():
            raise RealRootError("empty gap between bounds")
        if not lo.is_exact():
            lo = lo.refine(lo.width() / 2)
        if not hi.is_exact():
            hi = hi.refine(hi.width() / 2)
    raise RealRootError("could not separate bounds")
