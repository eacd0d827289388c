"""Exact real-root isolation, counting and ordering for univariate polynomials.

One Descartes-rule bisection, `_descartes`, finds the roots on a window:
`isolate` keeps the nodes it accepts as isolating intervals, `count_roots`
counts them, and `roots_below` counts on intervals isolation already
found, with at most one sign test, which also tells a root apart.  All
read the primitive integer coefficients a `UPoly` holds.  `isolate`
takes the squarefree part of its input itself; `isolate_squarefree` and
`count_roots` take squarefree input, as the plane decomposition's fibre
products are.  The walk runs in the Bernstein
basis (Mourrain-Rouillier-Roy; Eigenwillig): the Descartes test on (a, b)
counts the sign variations of p's Bernstein coefficients b_i there, and
one de Casteljau pass gives those of both halves.  p is converted once per
window: with q(x) = p(a + (b - a) x),
(1 + x)^n q(1 / (1 + x)) = sum C(n, i) b_i x^(n - i).  The test stays
exact when an end of the window is a root (Krandick-Mehlhorn), and a
root-separation bound caps its depth, so input that is not squarefree
raises; a repeated root that the walk meets exactly, it refuses by p' = 0
there (`_simple_root`).  An isolating interval is one integer state: its
ends A/d and B/d over one positive denominator and the sign of p at its
low end.
`_bisect`, the one refinement kernel, takes it to the cell that k
halvings reach, jumping there by quadratic interval refinement on the
same dyadic cells.  `RootMerge` owns the order of two root lists: it
compares their states at galloping depths and samples between any two of
their bounds from the deepest states the comparisons left, reading
shallower cells as ancestors of a deep one.  `sign_at` and `has_root_in`
are the exact sign and closed-interval root tests of a bound curve.
Doubles of roots are correctly rounded (Rump's verification by exact
signs): `IsolatingInterval.float()` returns its root rounded to nearest,
ties to even, whatever interval it starts from, and `round_root`, the
half-ulp certificate, proves a float guess by p's signs half-way between
it and its neighbouring doubles, the dyadic points `_halfway` gives.  The
one Horner routine takes b = o 2^e, o odd, and takes b^k as o^k shifted
by e k, so at a dyadic point it multiplies by the numerator alone.
Sample points are dyadic rationals so bit sizes stay bounded.
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


def _simple_root(ints: list[int], a: int, b: int):
    """Refuse the exact root a/b of p, b > 0, when p' vanishes there too:
    a repeated root means the input is not squarefree."""
    if not _horner([k * c for k, c in enumerate(ints)][1:], a, b):
        raise RealRootError(f"repeated root {Fraction(a, b)}: input not squarefree")


def _sign_at(ints: list[int], a: int, b: int) -> int:
    """Sign of p(a/b) for integer coefficients and b > 0, exact (a/b need
    not be in lowest terms)."""
    v = _horner(ints, a, b)
    return (v > 0) - (v < 0)


_PLAIN = 12   # requests of at most this many halvings run the plain loop


def _bisect(ints: list[int], A: int, B: int, d: int, slo: int,
            wn: int, wd: int) -> tuple[int, int, int]:
    """The one refinement kernel: the cell of the root's interval
    (A/d, B/d) that k halvings reach, k the least count that makes it
    narrower than wn/wd, p having the nonzero sign slo at A/d.  A halving
    doubles A, B and d and keeps B - A = W, so the depth-t cells are
    (A 2^t + i W) / (d 2^t) + [0, W / (d 2^t)].  Returns the depth-k
    (A, B, d), or (M, M, d 2^tau) when M / (d 2^tau) is the root, first a
    midpoint at depth tau <= k: the plain halving loop's answer.

    Up to _PLAIN halvings run that loop, one sign per halving.  Longer
    requests land on the same cells by quadratic interval refinement
    (Abbott; Kerber-Sagraloff): a jump of m levels guesses subcell
    j = floor(2^m f(A) / (f(A) - f(B))) of the cell by the secant through
    the homogeneous Horner values f at its ends, and the exact values at
    the subcell's ends prove or reject it.  A success doubles m; a failure
    halves m and takes one plain halving."""
    W = B - A
    k = (W * wd // (wn * d)).bit_length()
    if k <= _PLAIN:
        for _ in range(k):
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
    n = len(ints) - 1
    fa, fb = _horner(ints, A, d), _horner(ints, B, d)
    m = 2
    while k:
        m = min(m, k)
        j = (fa << m) // (fa - fb)
        L, dm = (A << m) + j * W, d << m
        fl = fa << (m * n) if j == 0 else _horner(ints, L, dm)
        fr = fb << (m * n) if j + 1 == 1 << m else _horner(ints, L + W, dm)
        for v, i in ((fl, j), (fr, j + 1)):
            if v == 0:      # the root, first a midpoint z levels above
                z = (i & -i).bit_length() - 1
                M = (A << (m - z)) + (i >> z) * W
                return M, M, d << (m - z)
        if (fl > 0) == (slo > 0) != (fr > 0):
            A, B, d, fa, fb = L, L + W, dm, fl, fr
            k -= m
            m <<= 1
            continue
        # rejected: one plain halving, whose midpoint is index h at depth
        # m, evaluated already when the subcell ends on it
        h, s = 1 << (m - 1), (m - 1) * n
        fm = (fl >> s if j == h else fr >> s if j + 1 == h
              else _horner(ints, A + B, d << 1))
        M = A + B
        A, B, d = A << 1, B << 1, d << 1
        if fm == 0:
            return M, M, d
        if (fm > 0) == (slo > 0):
            A, fa, fb = M, fm, fb << n
        else:
            B, fa, fb = M, fa << n, fm
        k -= 1
        m = max(m >> 1, 1)
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

    def refine(self, width: Fraction) -> "IsolatingInterval":
        """Narrow below `width` > 0: the cell that sign-preserving bisection
        reaches (`_bisect`), continuing from the stored state."""
        if self.A == self.B:
            return self
        p = self.polynomial
        A, B, d = _bisect(p.coeffs, self.A, self.B, self.d, self.slo,
                          width.numerator, width.denominator)
        return IsolatingInterval(A, B, d, self.slo if A < B else 0, p)

    def float(self) -> float:
        """The correctly rounded double of the root, ties to even.  The
        cell is cut at 0 by one sign, so its ends bound the root's size,
        and narrowed below a quarter ulp of its larger end until both ends
        round to one double, the answer, or to neighbours.  Rounding is
        monotone, so the root then rounds to the one its side of their
        half-way point gives: one sign there (`_halfway`), a 0 being the
        root itself."""
        A, B, d, slo = self.A, self.B, self.d, self.slo
        ints = self.polynomial.coeffs
        if A < 0 < B:
            s = _sign_at(ints, 0, 1)
            if s == 0:
                return 0.0
            if s == slo:
                A = 0
            else:
                B = 0
        while A < B:
            lo, hi = A / d, B / d
            if lo == hi:
                return lo
            if math.nextafter(lo, POS_INF) == hi:
                hn, hd = _halfway(lo)
                s = _sign_at(ints, hn, hd)
                return hn / hd if s == 0 else hi if s == slo else lo
            un, ud = math.ulp(max(-lo, hi)).as_integer_ratio()
            A, B, d = _bisect(ints, A, B, d, slo, un, ud << 2)
        return A / d


def roots_below(roots: list[IsolatingInterval], x: Fraction) -> int | None:
    """Number of the roots that `roots`, sorted disjoint intervals from
    `isolate`, isolate below x; None when x is one of them.

    A bisection over the intervals' upper ends, each compared with x by
    cross-multiplication, counts those below x; of the rest, only the
    first can hold x, low <= x <= high.  Its ends are no roots and its
    root lies inside it, so one exact integer sign of its own polynomial
    at x decides: 0 is the root itself (an exact interval's included), and
    otherwise the root is below x exactly when that sign differs from the
    stored sign at low.  No refinement, and no sign at all for an x
    outside every interval."""
    n, m = x.as_integer_ratio()
    k = bisect.bisect_left(roots, True, key=lambda iv: n * iv.d <= iv.B * m)
    if k < len(roots) and roots[k].A * m <= n * roots[k].d:
        iv = roots[k]
        s = _sign_at(iv.polynomial.coeffs, n, m)
        if s == 0:
            return None
        if s != iv.slo:
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
    accepts a node, none drops it; a zero `_split` apex is a root, refused
    when it is repeated (`_simple_root`).

    A node that neither accepts nor drops holds two roots within sqrt 3
    times its width (the two-circle theorem, Krandick-Mehlhorn), and two
    roots of a squarefree integer polynomial lie more than
    sqrt 3 n^(-(n+2)/2) |p|_2^(1-n) apart (Mahler-Mignotte), so no node
    deeper than `cap` splits; one that would raises, as on an input that
    is not squarefree, where the walk would split without end."""
    n = len(ints) - 1
    cap = (2 * math.ceil(w).bit_length() + (n + 2) * n.bit_length()
           + (n - 1) * sum(c * c for c in ints).bit_length()) // 2
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
        if e > cap:
            raise RealRootError(f"polynomial of degree {n} is not squarefree: "
                                f"roots closer than its separation bound")
        left, right = _split(bern)
        if left[-1] == 0:
            m = (a0 << (e + 1)) + W * (2 * k + 1)
            _simple_root(ints, m, D << (e + 1))
            yield m, m, D << (e + 1), 0
        stack.append((2 * k, e + 1, left))
        stack.append((2 * k + 1, e + 1, right))


def _rational(x) -> int | Fraction:
    """x itself when it is an int or a Fraction, else Fraction(x)."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def count_roots(p: UPoly, low=NEG_INF, high=POS_INF) -> int:
    """Number of real roots of the squarefree polynomial p in
    (low, high]: the roots `_descartes` finds on (low, high), an infinite
    end cut at the root bound, and one more when high is a root.  An
    exact root it counts that is repeated raises `RealRootError`."""
    if p.is_zero():
        raise RealRootError("zero polynomial")
    if p.degree <= 0:
        return 0
    if not (low == NEG_INF or high == POS_INF):
        if not low < high:
            raise RealRootError("empty interval")
    ints = p.coeffs
    bound = _root_bound(ints)
    lo, hi = (-bound if low == NEG_INF else _rational(low),
              bound if high == POS_INF else _rational(high))
    n = sum(1 for _ in _descartes(ints, lo, hi - lo)) if lo < hi else 0
    if high != POS_INF and _sign_at(ints, *hi.as_integer_ratio()) == 0:
        _simple_root(ints, *hi.as_integer_ratio())
        n += 1
    return n


def _halfway(y: float) -> tuple[int, int]:
    """The point half-way between the double y and the next double above
    it, as integers (n, d) with d a power of two."""
    a, b = y.as_integer_ratio()
    c, e = math.nextafter(y, POS_INF).as_integer_ratio()
    if b < e:
        a, b = a * (e // b), e
    else:
        c *= b // e
    return a + c, b << 1


_ULPS = 4      # round_root tries the doubles this many ulps either side of its guess


def round_root(p: UPoly, y: float) -> float | None:
    """The half-ulp certificate: a double z within _ULPS ulps of y, the
    nearest first, proved by the exact signs of p at the points half-way
    between z and its two neighbouring doubles, each point signed once.
    Nonzero opposite signs prove a root strictly between them, which
    rounds to z: z is returned.  One sign 0 makes that point a root,
    returned rounded half to even.  None when no such z is found.  Each
    answer is the correctly rounded double of a root of p in the closed
    half-ulp bracket of the z that gave it, and two different answers come
    from different roots, as no open bracket holds a half-way point."""
    signs: dict[float, int] = {}

    def above(z: float) -> int:     # the sign half-way between z and its next double up
        if z not in signs:
            signs[z] = _sign_at(p.coeffs, *_halfway(z))
        return signs[z]

    zs = [y]
    up = down = y
    for _ in range(_ULPS):
        up, down = math.nextafter(up, POS_INF), math.nextafter(down, NEG_INF)
        zs += [up, down]
    for z in zs:
        below = math.nextafter(z, NEG_INF)
        s, t = above(below), above(z)
        if s * t < 0:
            return z
        if (s == 0) != (t == 0):
            n, d = _halfway(below if s == 0 else z)
            return n / d
    return None


def sign_at(p: UPoly, x: Fraction) -> int:
    """Sign of p at the rational x, exact."""
    return _sign_at(p.coeffs, *x.as_integer_ratio())


def has_root_in(p: UPoly, low: Fraction, high: Fraction) -> bool:
    """Whether p vanishes somewhere in the closed [low, high], low < high
    (everywhere when p is zero): surely when its signs at the ends differ
    or one is 0.  Else p of degree at most 1, monotone, has none, and from
    degree 2 on a root count of its squarefree part decides."""
    s1, s2 = sign_at(p, low), sign_at(p, high)
    if s1 != s2 or s1 == 0:
        return True
    return p.degree >= 2 and count_roots(p.squarefree(), low, high) > 0


def isolate(p: UPoly) -> list[IsolatingInterval]:
    """Disjoint dyadic isolating intervals, one per distinct real root of
    the nonzero polynomial p: `isolate_squarefree` on p's squarefree part."""
    if p.is_zero():
        raise RealRootError("zero polynomial")
    return isolate_squarefree(p.squarefree())


def isolate_squarefree(f: UPoly) -> list[IsolatingInterval]:
    """Disjoint dyadic isolating intervals, one per real root of f, which
    is squarefree already (the projection makes the fibre products of
    `cad2d.decompose` so): the nodes and roots of `_descartes` on windows
    of integer ends that cover the root bound, made strictly disjoint by
    halving.  A repeated root raises `RealRootError`: the walk's depth
    bound catches one it does not meet, and f' one it meets exactly."""
    if f.degree <= 0:
        return []
    ints = f.coeffs
    out: list[IsolatingInterval] = []
    B = _root_bound(ints)
    # peel an exact zero root; remaining roots are isolated against the
    # peeled polynomial and never span 0, so endpoint signs stay reliable
    if ints[0] == 0:
        _simple_root(ints, 0, 1)
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
            a = a.refine(Fraction(a.B - a.A, a.d << 1))
            b = b.refine(Fraction(b.B - b.A, b.d << 1))
            if a.is_exact() and b.is_exact():
                if a.A * b.d == b.A * a.d:
                    raise RealRootError("duplicate root after squarefree")
                break
        out[i], out[i + 1] = a, b
    return out


def _deepen(iv: IsolatingInterval, st: tuple, t: int) -> tuple[int, int, int]:
    """A state (A, B, d) of iv's bisection at depth t or deeper: st itself
    when it is exact or that deep already, else st continued by `_bisect`."""
    A, B, d = st
    if A == B or d >= iv.d << t:
        return st
    return _bisect(iv.polynomial.coeffs, A, B, d, iv.slo, (iv.B - iv.A) << 1, iv.d << t)


def _ancestor(iv: IsolatingInterval, st: tuple, t: int) -> tuple[int, int, int]:
    """The depth-t state of iv's bisection from st, a state at depth t or
    deeper, taking no sign: with W = iv.B - iv.A, the depth-s cell
    A = iv.A 2^s + i W lies in the depth-t cell i >> (s - t).  An exact
    state M, first a midpoint at depth s, has an odd i there and is its own
    state at every depth from s on."""
    A, B, d = st
    s = (d // iv.d).bit_length() - 1
    if s <= t:
        return st
    W = iv.B - iv.A
    A = (iv.A << t) + ((A - (iv.A << s)) // W >> (s - t)) * W
    return A, A + W, iv.d << t


_ROUNDS = 200   # the rounds sample_between tries, 0 .. _ROUNDS - 1


def sample_between(lo, hi) -> Fraction:
    """Dyadic rational strictly between two bounds (`_sample`), from the
    bounds' own intervals."""
    return _sample(lo, hi, {})


def _sample(lo, hi, states: dict) -> Fraction:
    """Dyadic rational strictly between two bounds, each an
    `IsolatingInterval` or NEG_INF / POS_INF: 0 between the infinities, the
    integer below (above) a lone finite upper (lower) bound, else the
    midpoint of the gap that narrowing both intervals in lockstep opens
    first: round r = 0, 1, ... takes each to its depth-2r cell, and the
    first round whose cells are disjoint gives the sample.  Each interval
    starts from the state of its bisection that `states` maps it to, if
    any; a state deeper than the round gives its depth-2r cell as an
    ancestor (`_ancestor`), taking no sign.  The deepest states go back to
    `states`.  Raises when both cells are exact and not apart, or after
    _ROUNDS rounds."""
    if lo == NEG_INF:
        return Fraction(0) if hi == POS_INF else Fraction(hi.A // hi.d - 1)
    if hi == POS_INF:
        return Fraction(lo.B // lo.d + 1)
    ivs = (lo, hi)
    sts = [states.get(iv) or (iv.A, iv.B, iv.d) for iv in ivs]
    for r in range(_ROUNDS):
        sts = [_deepen(iv, st, 2 * r) for iv, st in zip(ivs, sts)]
        cells = [_ancestor(iv, st, 2 * r) for iv, st in zip(ivs, sts)]
        (_, b, e), (a, _, f) = cells
        if b * f < a * e:
            states[lo], states[hi] = sts
            return Fraction(b * f + a * e, (e * f) << 1)
        if all(A == B for A, B, _ in cells):
            raise RealRootError("empty gap between bounds")
    raise RealRootError("could not separate bounds")


class UnorderedRootsError(RealRootError):
    """Roots i and k of a `RootMerge`'s two lists, which it could not order."""

    def __init__(self, i: int, k: int):
        super().__init__("could not order algebraic bounds")
        self.i, self.k = i, k


# the deepest bisection at which `RootMerge` compares two roots
_MERGE_DEPTH = 245


class RootMerge:
    """Two increasing lists of isolated roots in one order: `ranks1` and
    `ranks2` rank their roots 1..m in the merged order, equal roots sharing
    a rank, and `sample_between` samples between any two of their bounds.

    Two roots are compared on integer states (A, B, d) of their own
    bisections at depths 0, 5, 10, 20, 40, ... up to `_MERGE_DEPTH`, past
    2^-200 of the starting widths; a state deeper already is compared as it
    is, and ends by cross-multiplication.  Each root's deepest state and the
    gcd of each pair of polynomials live as long as the merge, so later
    comparisons and samples go on from them."""

    def __init__(self, roots1: list[IsolatingInterval], roots2: list[IsolatingInterval]):
        # interval -> its deepest (A, B, d); (polynomial, polynomial) -> gcd
        self._states, self._gcds = {}, {}
        self.ranks1, self.ranks2 = [0] * len(roots1), [0] * len(roots2)
        i = k = rank = 0
        while i < len(roots1) or k < len(roots2):
            if k == len(roots2):
                c = -1
            elif i == len(roots1):
                c = 1
            else:
                c = self._compare(roots1[i], roots2[k])
                if c is None:
                    raise UnorderedRootsError(i, k)
            rank += 1
            if c <= 0:
                self.ranks1[i] = rank
                i += 1
            if c >= 0:
                self.ranks2[k] = rank
                k += 1

    def _compare(self, a: IsolatingInterval, b: IsolatingInterval) -> int | None:
        """Sign of (root a) - (root b); None when the last depth leaves it open."""
        last = _MERGE_DEPTH
        st = self._states
        x, y = st.get(a, (a.A, a.B, a.d)), st.get(b, (b.A, b.B, b.d))
        t = 0
        try:
            while True:
                x, y = _deepen(a, x, t), _deepen(b, y, t)
                (Ax, Bx, dx), (Ay, By, dy) = x, y
                if Bx * dy < Ay * dx:
                    return -1
                if By * dx < Ax * dy:
                    return 1
                if Ax == Bx and Ay == By:
                    c = Ax * dy - Ay * dx
                    return (c > 0) - (c < 0)
                # refine a few levels before paying for the shared-root check
                if t >= 10:
                    key = (a.polynomial, b.polynomial)
                    g = self._gcds.get(key)
                    if g is None:
                        g = self._gcds[key] = a.polynomial.gcd(b.polynomial)
                    if g.degree >= 1:
                        # on the overlap [lo, hi] g, dividing both squarefree
                        # polynomials, has at most one root, a simple one, and it
                        # is each side's own: there iff its end signs differ
                        lo = (Ax, dx) if Ax * dy >= Ay * dx else (Ay, dy)
                        hi = (Bx, dx) if Bx * dy <= By * dx else (By, dy)
                        if _sign_at(g.coeffs, *lo) * _sign_at(g.coeffs, *hi) <= 0:
                            return 0
                if t == last:
                    return None
                t = min(2 * t or 5, last)
        finally:
            st[a], st[b] = x, y

    def sample_between(self, lo, hi) -> Fraction:
        """`sample_between`, each interval going on from its deepest state
        in the merge."""
        return _sample(lo, hi, self._states)
