import math
import random
from fractions import Fraction

import pytest

from kinatlas.ratpoly import MPoly, UPoly
from kinatlas.realroots import (
    RealRootError,
    NEG_INF, POS_INF,
    count_roots, isolate, sample_between, _root_bound,
    _scale_shift, _sign_at, _sign_variations, _split, _taylor_shift_1,
)
import kinatlas.realroots as realroots

from oracles import (
    atlas_passes, bernstein_by_fractions, bind_int_by_powers, correctly_rounded,
    count_roots_by_sturm, fiber_roots, midpoint,
    graphs_by_ladder, interval,
    isolate_by_scaling, parse_poly, refine_by_bisection_loop, refine_by_fractions,
    sample_between_by_halving, segment_crosses, restrict_to_segment, sign_at_by_powers,
    sturm_sequence, upoly_eval, upoly_eval_float, upoly_mul,
)


def U(*coeffs):
    return UPoly([Fraction(c) for c in coeffs])


def _scan_count(p: UPoly, lo: float, hi: float, n: int = 20000) -> int:
    """Independent oracle: dense sign-change scan (squarefree inputs only)."""
    f = p.squarefree()
    prev = None
    hits = 0
    for i in range(n + 1):
        x = lo + (hi - lo) * i / n
        v = upoly_eval_float(f, x)
        if prev is not None and prev * v < 0:
            hits += 1
        if v == 0.0:
            hits += 1
            v = 1e-300 if prev is None or prev > 0 else -1e-300
        prev = v
    return hits


class TestSturm:
    """The Sturm sequences of `oracles`, the independent counting route."""

    def test_basic_sequence(self):
        seq = sturm_sequence(U(-2, 0, 1))  # x^2 - 2
        assert seq[0] == (-2, 0, 1)
        # entries are positive integer rescalings of the classical sequence
        assert len(seq[1]) == 2 and seq[1][-1] > 0 and seq[1][0] == 0
        assert len(seq) == 3 and len(seq[2]) == 1 and seq[2][0] > 0

    def test_linear(self):
        seq = sturm_sequence(U(-1, 1))
        assert len(seq) == 2

    def test_squared_factor_uses_squarefree(self):
        seq = sturm_sequence(U(1, -2, 1))  # (x-1)^2
        assert seq[0] == (-1, 1)

    def test_zero_rejected(self):
        with pytest.raises(RealRootError):
            sturm_sequence(UPoly([]))


class TestCount:
    def test_cubic(self):
        assert count_roots(U(0, -1, 0, 1), Fraction(-2), Fraction(2)) == 3

    def test_sqrt2(self):
        assert count_roots(U(-2, 0, 1), Fraction(0), Fraction(2)) == 1

    def test_no_real(self):
        assert count_roots(U(1, 0, 1)) == 0

    def test_half_open_semantics(self):
        p = U(0, 1)  # x
        assert count_roots(p, Fraction(-1), Fraction(0)) == 1
        assert count_roots(p, Fraction(0), Fraction(1)) == 0

    def test_matches_isolate_random(self):
        rng = random.Random(3)
        for _ in range(100):
            deg = rng.randint(1, 10)
            p = UPoly([Fraction(rng.randint(-9, 9)) for _ in range(deg)] + [Fraction(rng.randint(1, 9))])
            assert count_roots(p.squarefree()) == len(isolate(p))

    def test_matches_sturm_oracle_random(self):
        """The Descartes count of the squarefree part equals the Sturm count
        of `oracles` on seeded polynomials with rational (also non-dyadic)
        and repeated roots, on windows with infinite ends and with ends
        that are roots."""
        rng = random.Random(78)
        windows = end_roots = 0
        for _ in range(1000):
            deg = rng.randint(1, 6)
            p = UPoly([rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 5)])
            roots = []
            for _ in range(rng.randint(0, 3)):
                r = Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 5, 8]))
                p = upoly_mul(p, UPoly([-r.numerator, r.denominator]) if rng.random() < 0.8
                              else UPoly([r.numerator ** 2, -2 * r.numerator * r.denominator,
                                          r.denominator ** 2]))
                roots.append(r)
            ends = roots + [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(2)]
            f = p.squarefree()
            cases = [(NEG_INF, POS_INF)]
            cases += [(NEG_INF, x) for x in ends] + [(x, POS_INF) for x in ends]
            cases += [(x, y) for x in ends for y in ends if x < y]
            for lo, hi in cases:
                assert count_roots(f, lo, hi) == count_roots_by_sturm(p, lo, hi), (p, lo, hi)
                windows += 1
                end_roots += lo in roots or hi in roots
        assert windows >= 10000 and end_roots >= 5000, (windows, end_roots)


class TestIsolate:
    def test_sqrt2(self):
        ivs = isolate(U(-2, 0, 1))
        assert len(ivs) == 2
        assert (ivs[0].low <= Fraction(-1415, 1000) <= ivs[0].high
                or ivs[0].low <= Fraction(-14142, 10000) <= ivs[0].high)
        assert ivs[1].low <= Fraction(14142, 10000) <= ivs[1].high or ivs[1].low > 1

    def test_no_real_roots(self):
        assert isolate(U(1, 0, 1)) == []

    def test_exact_and_irrational_mix(self):
        ivs = isolate(U(0, -2, 0, 1))  # x(x^2-2)
        assert len(ivs) == 3
        assert ivs[1].is_exact() and ivs[1].low == 0

    def test_disjoint_and_single_root(self):
        rng = random.Random(9)
        for _ in range(40):
            deg = rng.randint(2, 9)
            p = UPoly([Fraction(rng.randint(-6, 6)) for _ in range(deg)] + [Fraction(rng.randint(1, 6))])
            ivs = isolate(p)
            f = p.squarefree()
            for a, b in zip(ivs, ivs[1:]):
                assert a.high < b.low
            for iv in ivs:
                if iv.is_exact():
                    assert upoly_eval(f, iv.low) == 0
                else:
                    assert upoly_eval(f, iv.low) * upoly_eval(f, iv.high) < 0
                    assert count_roots(f, iv.low, iv.high) == 1

    def test_refinement_contract(self):
        iv = isolate(U(-2, 0, 1))[1]
        w = Fraction(1, 10 ** 12)
        r = iv.refine(w)
        assert r.high - r.low < w
        assert abs(float(midpoint(r)) - math.sqrt(2)) < 1e-11

    def test_degree8_vs_scan_oracle(self):
        # joint-space style degree-8 polynomial in rho1 at rational samples:
        # root counts must match a dense numeric scan
        c2sq = Fraction(35, 36)
        for c3 in (Fraction(0), Fraction(1, 3), Fraction(-2, 3), Fraction(9, 10)):
            c3sq = c3 * c3
            coeffs = _eq11_rho1_coeffs(c2sq, c3sq)
            p = UPoly(coeffs)
            if p.degree < 1:
                continue
            n_exact = len(isolate(p))
            n_scan = _scan_count(p, -6.0, 6.0)
            assert n_exact == n_scan, f"c3={c3}"


def _bounds(ivs):
    return [(iv.low, iv.high) for iv in ivs]


def _oracle_polys(n: int = 320):
    """Seeded random integer polynomials: (poly, features, rational roots
    built into it)."""
    rng = random.Random(2024)
    out = []
    for i in range(n):
        deg = rng.randint(1, 7)
        p = UPoly([rng.randint(-30, 30) for _ in range(deg)] + [rng.choice([-5, -2, 1, 3, 8])])
        feats, known = set(), []
        kind = i % 4
        if kind == 0:   # exact dyadic roots c / 2^k, maybe two of them
            for _ in range(rng.randint(1, 2)):
                r = Fraction(rng.randint(-40, 40) | 1, 1 << rng.randint(0, 6))
                p = upoly_mul(p, UPoly([-r.numerator, r.denominator]))
                known.append(r)
            feats.add("dyadic")
        elif kind == 1:  # a root at 0
            p = upoly_mul(p, UPoly([0] * rng.randint(1, 2) + [1]))
            known.append(Fraction(0))
            feats.add("zero")
        elif kind == 2:  # repeated factors
            f = UPoly([rng.randint(-9, 9), rng.randint(-4, 4), rng.randint(1, 3)])
            p = upoly_mul(upoly_mul(p, f), f)
            if rng.random() < 0.5:  # a repeated dyadic root
                p = upoly_mul(upoly_mul(p, UPoly([-1, 2])), UPoly([-1, 2]))
                known.append(Fraction(1, 2))
            feats.add("repeated")
        else:            # close roots: a cluster around a rational point
            c = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            for k in range(rng.randint(2, 3)):
                r = c + Fraction(k + 1, 10 ** rng.randint(2, 5))
                p = upoly_mul(p, UPoly([-r.numerator, r.denominator]))
                known.append(r)
            feats.add("cluster")
        if p.degree >= 8:
            feats.add("degree>=8")
        out.append((p, feats, known))
    return out


class TestCorrectRounding:
    """`IsolatingInterval.float()` is the root rounded to nearest double,
    ties to even, and `round_root` proves only such doubles, each checked
    on Fractions by `oracles.correctly_rounded`."""

    @staticmethod
    def _floats(p: UPoly) -> list[float]:
        ys = [iv.float() for iv in isolate(p)]
        for iv, y in zip(isolate(p), ys):
            assert correctly_rounded(iv, y), (p, iv, y)
        return ys

    def test_small_roots_keep_their_relative_precision(self):
        assert self._floats(UPoly([-1, 10 ** 20])) == [1e-20]
        assert self._floats(UPoly([-1, 0, 10 ** 24])) == [-1e-12, 1e-12]

    def test_tie_rounds_to_even(self):
        # the root 1 + 2^-53 lies half-way between 1 and 1 + 2^-52
        p = UPoly([-(2 ** 53 + 1), 2 ** 53])
        assert self._floats(p) == [1.0]
        # from an interval over 3, whose halvings never reach the root
        assert interval(Fraction(1, 3), Fraction(5, 3), p).float() == 1.0
        # half-way between 1 - 2^-53 and 1, to the even 1
        assert interval(Fraction(1, 3), Fraction(5, 3), UPoly([-(2 ** 54 - 1), 2 ** 54])).float() == 1.0

    def test_root_at_zero_inside_the_interval(self):
        assert interval(Fraction(-1, 3), Fraction(2, 3), UPoly([0, 3, 1])).float() == 0.0
        assert interval(Fraction(-1, 3), Fraction(2, 3), UPoly([-1, 10 ** 30])).float() == 1e-30
        assert interval(Fraction(-1, 3), Fraction(2, 3), UPoly([1, 10 ** 30])).float() == -1e-30

    def test_seeded_squarefree_polynomials(self):
        rng = random.Random(30)
        checked = 0
        for _ in range(60):
            factors = [[rng.randint(-10 ** 6, 10 ** 6) or 1, rng.choice([1, 3, 10 ** rng.randint(0, 25)])]
                       for _ in range(rng.randint(1, 3))]
            factors.append([rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)])
            p = UPoly([1])
            for f in factors:
                p = upoly_mul(p, UPoly(f))
            p = p.squarefree()
            checked += len(self._floats(p))
        assert checked >= 100

    def test_round_root_proves_only_correct_roundings(self):
        p = U(-2, 0, 1)
        iv = isolate(p)[1]
        y = iv.float()
        for z in (y, math.nextafter(y, 2.0), math.nextafter(math.nextafter(y, 0.0), 0.0)):
            assert realroots.round_root(p, z) == y
        assert realroots.round_root(p, 1.5) is None
        tie = UPoly([-(2 ** 53 + 1), 2 ** 53])
        assert realroots.round_root(tie, math.nextafter(1.0, 2.0)) == 1.0
        assert realroots.round_root(tie, 1.0) == 1.0
        rng = random.Random(31)
        for _ in range(40):
            p = UPoly([rng.randint(-50, 50) for _ in range(rng.randint(2, 6))] + [rng.randint(1, 9)])
            p = p.squarefree()
            for iv in isolate(p):
                z = iv.float()
                for _ in range(rng.randint(0, 6)):
                    z = math.nextafter(z, rng.choice([-math.inf, math.inf]))
                r = realroots.round_root(p, z)
                if r is not None:
                    assert any(correctly_rounded(jv, r) for jv in isolate(p)), (p, z, r)


class TestIncrementalIsolation:
    """`isolate` carries p(a + (b - a) x) down the subdivision tree; the
    oracle rescales p for every interval.  Same tree, same intervals."""

    def test_matches_rescaling_oracle(self):
        seen = {"dyadic": 0, "zero": 0, "repeated": 0, "cluster": 0, "degree>=8": 0}
        polys = _oracle_polys()
        assert len(polys) >= 300
        for p, feats, known in polys:
            got = isolate(p)
            assert _bounds(got) == _bounds(isolate_by_scaling(p)), p
            f = p.squarefree()
            assert len(got) == count_roots(f)
            for r in set(known):
                assert sum(iv.low <= r <= iv.high for iv in got) == 1, (p, r)
            if "zero" in feats:
                assert (0, 0) in _bounds(got)
            if "repeated" in feats:
                assert f.degree < p.degree
            for k in seen:
                seen[k] += k in feats
        assert min(seen.values()) >= 50, seen

    def test_reference_fibre_products(self, atlas_pp):
        dec = atlas_pp.wa.dec_fine
        assert len(dec.fiber_products) >= 10
        for f, roots in zip(dec.fiber_products, fiber_roots(dec)):
            if f.degree >= 1:
                assert _bounds(isolate(f)) == _bounds(isolate_by_scaling(f)) == _bounds(roots)

    def test_reference_witness_fibres(self, atlas_pp):
        """Every witness fibre of the fine adjacency pass, and those of the
        ladder's coarser rungs 2^-10 and 2^-22: the pass's witnesses, within
        2^-40 of the gap, hold root clusters some 40 bisection levels
        deep."""
        from kinatlas.adjacency import _witnesses
        from oracles import LADDER, witnesses_from_coarse
        dec = atlas_pp.wa.dec_fine
        n, finest = 0, Fraction(1)
        for j in range(len(dec.base_roots)):
            pairs = [witnesses_from_coarse(dec, j, s) for s in LADDER[:-1]] + [_witnesses(dec, j)]
            for shrink, ws in zip(LADDER, pairs):
                for w in ws:
                    f = dec.fiber_product(w)
                    got = _bounds(isolate(f))
                    assert got == _bounds(isolate_by_scaling(f)), (j, shrink)
                    finest = min([finest] + [hi - lo for lo, hi in got if lo < hi])
                    n += 1
        assert n == 6 * len(dec.base_roots) > 0
        assert finest < Fraction(1, 1 << 30)


def _bernstein_cases(n: int = 240):
    """Seeded integer polynomials and dyadic intervals (a, a + w); every
    fourth polynomial has a root at the midpoint."""
    rng = random.Random(4242)
    for i in range(n):
        deg = rng.randint(1, 9)
        ints = [rng.randint(-40, 40) for _ in range(deg)] + [rng.choice([-7, -2, 1, 3, 11])]
        e = rng.randint(0, 12)
        a = Fraction(rng.randint(-4 << e, 4 << e), 1 << e)
        w = Fraction(rng.randint(1, 8), 1 << rng.randint(0, 12))
        if i % 4 == 0:
            m = a + w / 2
            ints = upoly_mul(UPoly(ints), UPoly([-m.numerator, m.denominator])).coeffs
        yield list(ints), a, w


def _integer_multiple(b):
    den = math.lcm(*(c.denominator for c in b))
    return [int(c * den) for c in b]


def _positive_multiple(got, want) -> bool:
    """Whether got = c * want for some c > 0 (integers against Fractions)."""
    k = next(i for i, c in enumerate(want) if c)
    c = Fraction(got[k]) / want[k]
    return c > 0 and all(g == c * x for g, x in zip(got, want))


class TestBernsteinSplit:
    """`isolate` carries integer Bernstein coefficients and gets both halves
    of a node from one de Casteljau pass; the oracle computes them afresh."""

    def test_conversion_identity(self):
        # q(x) = sum_i b_i C(n, i) x^i (1 - x)^(n - i), q a multiple of p(a + w x)
        for ints, a, w in _bernstein_cases(60):
            q = _scale_shift(ints, a, w)
            b = bernstein_by_fractions(ints, a, w)
            n = len(b) - 1
            for x in (Fraction(0), Fraction(1, 3), Fraction(5, 7), Fraction(1)):
                assert (sum(c * math.comb(n, i) * x ** i * (1 - x) ** (n - i) for i, c in enumerate(b))
                        == sum(c * x ** k for k, c in enumerate(q)))

    def test_halves_match_fresh_coefficients(self):
        midpoint_roots = 0
        for ints, a, w in _bernstein_cases():
            left, right = _split(_integer_multiple(bernstein_by_fractions(ints, a, w)))
            halves = ((left, a), (right, a + w / 2))
            for half, lo in halves:
                fresh = bernstein_by_fractions(ints, lo, w / 2)
                assert _positive_multiple(half, fresh), (ints, lo, w)
                q = _scale_shift(ints, lo, w / 2)
                assert _sign_variations(half) == _sign_variations(_taylor_shift_1(q[::-1]))
            m = a + w / 2
            assert (left[-1] == 0) == (_sign_at(ints, m.numerator, m.denominator) == 0)
            assert left[-1] == right[0]
            midpoint_roots += left[-1] == 0
        assert midpoint_roots >= 60

    def test_one_taylor_shift_per_top_interval(self, monkeypatch):
        shifts, splits = [], []
        shift, split = realroots._taylor_shift_1, realroots._split
        monkeypatch.setattr(realroots, "_taylor_shift_1", lambda cs: shifts.append(1) or shift(cs))
        monkeypatch.setattr(realroots, "_split", lambda b: splits.append(1) or split(b))
        for p, _, _ in _oracle_polys():
            shifts.clear()
            isolate(p)
            # a root at 0 is peeled and (-B, 0), (0, B) are the top intervals
            assert len(shifts) <= (2 if p.coeffs[0] == 0 else 1), p
        assert len(splits) > 2000


class TestIntegerRefine:
    """`refine` bisects on integers over a common denominator; the oracle
    bisects on Fractions.  Same midpoints, same stopping rule, same result."""

    @staticmethod
    def _same(iv, width):
        got = iv.refine(width)
        assert (got.low, got.high) == _bounds([refine_by_fractions(iv, width)])[0], (iv, width)
        return got

    def test_non_dyadic_intervals_and_widths(self):
        rng = random.Random(61)
        narrowed = 0
        for _ in range(400):
            roots = [Fraction(rng.randint(-40, 40), rng.choice((3, 5, 7, 9, 10))) for _ in range(3)]
            p = UPoly([1])
            for r in roots:
                p = upoly_mul(p, UPoly([-r, 1]))
            p = upoly_mul(p, UPoly([-rng.randint(2, 30), 0, 1]))
            r = rng.choice(roots)
            lo = r - Fraction(rng.randint(1, 50), rng.choice((3, 7, 11, 100)))
            hi = r + Fraction(rng.randint(1, 50), rng.choice((3, 7, 11, 100)))
            width = Fraction(rng.randint(1, 99), rng.choice((3, 10, 7 ** 9, 10 ** 12)))
            if roots.count(r) > 1:
                continue
            # an isolating interval holds one root: halve each offset from r
            # until no other root of p lies between that end and r
            while count_roots_by_sturm(p, lo, r) + (upoly_eval(p, lo) == 0) > 1:
                lo = (r + lo) / 2
            while count_roots_by_sturm(p, r, hi) > 0:
                hi = (r + hi) / 2
            got = self._same(interval(lo, hi, p), width)
            narrowed += got.high - got.low < width < hi - lo
        assert narrowed >= 200

    def test_root_at_a_midpoint(self):
        p = U(-3, 8)  # 8x - 3
        got = self._same(interval(Fraction(0), Fraction(1), p), Fraction(1, 1000))
        assert got.is_exact() and got.low == Fraction(3, 8)
        q = U(-1, 2)  # 2x - 1, the first midpoint of (1/3, 2/3)
        got = self._same(interval(Fraction(1, 3), Fraction(2, 3), q), Fraction(1, 7))
        assert got.is_exact() and got.low == Fraction(1, 2)

    def test_root_at_low_endpoint(self):
        p = U(-1, 2)
        got = self._same(interval(Fraction(1, 2), Fraction(5, 3), p), Fraction(1, 9))
        assert got.is_exact() and got.low == Fraction(1, 2)

    def test_reference_decomposition_roots(self, atlas_pp):
        dec = atlas_pp.wa.dec_fine
        roots = list(dec.base_roots) + [iv for fr in fiber_roots(dec) for iv in fr]
        assert len(roots) >= 50
        for iv in roots:
            for k in (40, 80):
                self._same(iv, Fraction(1, 1 << k))


class TestShiftHorner:
    """`_sign_at` and `cad2d._bind_int` run `_horner`, which writes the
    denominator as o 2^e and shifts for its powers of two; the oracles
    carry the powers of b."""

    @staticmethod
    def _points(rng):
        yield rng.randint(-99, 99), 1
        yield rng.randint(-99, 99), rng.randrange(3, 999, 2)
        k = rng.randint(1, 70)
        yield rng.randint(-(1 << k), 1 << k), 3 << k
        yield rng.randrange(-(1 << k) + 1, 1 << k, 2), 1 << k
        yield -rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)

    def test_sign_at_matches_powers(self):
        rng = random.Random(1901)
        zeros = 0
        for _ in range(600):
            ints = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(rng.randint(0, 17))]
            for a, b in self._points(rng):
                assert _sign_at(ints, a, b) == sign_at_by_powers(ints, a, b), (ints, a, b)
                # times (b x - a): a root at a/b
                at_root = [-a * c for c in ints + [0]]
                for i, c in enumerate(ints):
                    at_root[i + 1] += b * c
                assert _sign_at(at_root, a, b) == sign_at_by_powers(at_root, a, b) == 0
                zeros += bool(ints)
        assert _sign_at([], 5, 3 << 9) == 0 and zeros > 2000

    def test_bind_int_matches_powers(self):
        from kinatlas.cad2d import _bind_int
        rng = random.Random(1902)
        for _ in range(400):
            width = rng.randint(1, 17)
            rows = [[rng.randint(-10 ** 40, 10 ** 40) for _ in range(width)]
                    for _ in range(rng.randint(1, 5))]
            for a, b in self._points(rng):
                assert _bind_int(rows, a, b) == bind_int_by_powers(rows, a, b), (rows, a, b)


class TestOneBisectionLoop:
    """`refine` bisects in `_bisect`; the oracle is its former own loop."""

    def test_every_reference_isolate_input(self, monkeypatch):
        import kinatlas.cad2d as cad2d
        from kinatlas.adjacency import _witnesses
        from kinatlas.domains import SliceAtlas
        from kinatlas.mechanism import MechanismParams, WorkingMode
        from oracles import LADDER, roots_at_by_product, witnesses_from_coarse
        inputs = {}
        isolate_squarefree = realroots.isolate_squarefree

        def recorded(f):
            inputs.setdefault(f.coeffs, f)
            return isolate_squarefree(f)

        for module in (realroots, cad2d):
            monkeypatch.setattr(module, "isolate_squarefree", recorded)
        atlas = SliceAtlas.build(MechanismParams(), Fraction(1, 2), WorkingMode(1, 1))
        # the witness fibres of the ladder's rungs 2^-10 and 2^-22 too, each
        # curve's, and the whole products the witnesses were once isolated on
        for dec, varieties, wrap, graphs in atlas_passes(atlas):
            assert graphs_by_ladder(dec, varieties, wrap) == graphs
            for j in range(len(dec.base_roots)):
                pairs = [witnesses_from_coarse(dec, j, s) for s in LADDER[:-1]]
                for w in (w for ws in pairs + [_witnesses(dec, j)] for w in ws):
                    roots_at_by_product(dec, w)
        monkeypatch.undo()
        assert len(inputs) >= 250
        n = 0
        for f in inputs.values():
            for iv in isolate(f):
                for width in ((iv.high - iv.low) / 1000, Fraction(1, 1 << 60)):
                    got = iv.refine(width)
                    want = refine_by_bisection_loop(iv, width)
                    assert (got.low, got.high) == (want.low, want.high), (f, iv, width)
                    n += 1
        assert n >= 2000, n


class TestIntervalState:
    """An `IsolatingInterval` is `_bisect`'s state (A, B, d, slo): d > 0,
    A <= B, slo the sign at A/d, 0 exactly when A == B, and the sign at B/d
    is -slo when A < B."""

    @staticmethod
    def _check(iv):
        ints = iv.polynomial.coeffs
        assert iv.d > 0 and iv.A <= iv.B, iv
        assert iv.slo == _sign_at(ints, iv.A, iv.d), iv
        assert (iv.slo == 0) == (iv.A == iv.B), iv
        if iv.A < iv.B:
            assert _sign_at(ints, iv.B, iv.d) == -iv.slo, iv

    def test_fields(self):
        import dataclasses
        assert [f.name for f in dataclasses.fields(realroots.IsolatingInterval)] == \
            ["A", "B", "d", "slo", "polynomial"]

    def test_reference_atlas(self, monkeypatch):
        """Every interval of the reference atlas's three decompositions, and
        of every witness fibre `_roots_at` isolates while it is built and
        while the ladder oracle climbs its rungs on the three passes."""
        import kinatlas.adjacency as adjacency
        from kinatlas.domains import SliceAtlas
        from kinatlas.mechanism import MechanismParams, WorkingMode
        fibres = []
        roots_at = adjacency._roots_at

        def recorded(*args):
            roots = roots_at(*args)
            fibres.extend(roots)
            return roots

        monkeypatch.setattr(adjacency, "_roots_at", recorded)
        atlas = SliceAtlas.build(MechanismParams(), Fraction(1, 2), WorkingMode(1, 1))
        for dec, varieties, wrap, graphs in atlas_passes(atlas):
            assert graphs_by_ladder(dec, varieties, wrap) == graphs
        decs = (atlas.wa.dec_sing, atlas.wa.dec_fine, atlas.ja.dec)
        ivs = [iv for dec in decs for iv in dec.base_roots]
        ivs += [iv for dec in decs for col in fiber_roots(dec) for iv in col]
        assert len(ivs) >= 200 and len(fibres) >= 900, (len(ivs), len(fibres))
        for iv in ivs + fibres:
            self._check(iv)
        assert any(iv.is_exact() for iv in ivs + fibres)

    def test_refined_states(self):
        for p, _, _ in _oracle_polys():
            for iv in isolate(p):
                for width in ((iv.high - iv.low) / 3, Fraction(1, 1 << 50)):
                    self._check(iv.refine(width))


class TestNoRepeatedSign:
    """The stored sign at the low end is never taken again."""

    @staticmethod
    def _counted(monkeypatch, module):
        calls = []
        sign_at = module._sign_at
        monkeypatch.setattr(module, "_sign_at",
                            lambda ints, a, b: calls.append((a, b)) or sign_at(ints, a, b))
        return calls

    def test_refine_signs_once_per_halving(self, monkeypatch):
        """A request of k <= 12 halvings takes k evaluations, one sign per
        halving; the refinements to 2^-60 jump by quadratic interval
        refinement and take at most 40 % of the evaluations the plain loop
        takes, one per halving."""
        calls = []
        horner = realroots._horner
        monkeypatch.setattr(realroots, "_horner",
                            lambda ints, a, b: calls.append((a, b)) or horner(ints, a, b))
        n = evals = halvings = 0
        for p, _, _ in _oracle_polys():
            for iv in isolate(p):
                if iv.is_exact():
                    continue
                w = iv.high - iv.low
                for width in (w / 2, w / 1000, Fraction(1, 1 << 60)):
                    calls.clear()
                    got = iv.refine(width)
                    if got.is_exact():
                        continue
                    k = (w / (got.high - got.low)).numerator.bit_length() - 1
                    assert w == (got.high - got.low) * (1 << k), (p, iv, width)
                    if k <= 12:
                        assert len(calls) == k, (p, iv, width)
                    if width.numerator == 1 and width.denominator == 1 << 60:
                        evals += len(calls)
                        halvings += k
                    n += 1
        assert n >= 500 and halvings >= 20000
        assert evals <= 0.4 * halvings, (evals, halvings)

    def test_roots_below_one_sign(self, monkeypatch):
        from kinatlas.realroots import roots_below
        roots = isolate(U(-2, 0, 1))
        calls = self._counted(monkeypatch, realroots)
        for x, want in ((Fraction(3, 2), 2), (Fraction(11, 8), 1), (Fraction(-11, 8), 1)):
            calls.clear()
            assert roots_below(roots, x) == want
            assert len(calls) == 1, x

    def test_cmp_bounds_signs_only_in_bisect(self, monkeypatch):
        from kinatlas.realroots import RootMerge
        # sqrt 2 and sqrt 3, both isolated by (1, 2): one round of five
        # halvings per side separates them
        a, b = isolate(U(-2, 0, 1))[1], isolate(U(-3, 0, 1))[1]
        assert (a.low, a.high) == (b.low, b.high) == (1, 2)
        calls = self._counted(monkeypatch, realroots)
        bisect_ = realroots._bisect
        inside = []

        def counted(*args):
            n = len(calls)
            out = bisect_(*args)
            inside.extend(calls[n:])
            return out

        monkeypatch.setattr(realroots, "_bisect", counted)
        merges = [RootMerge([a], [b]), RootMerge([b], [a])]
        assert [(m.ranks1, m.ranks2) for m in merges] == [([1], [2]), ([2], [1])]
        assert calls == inside and len(inside) == 20


class TestEvaluationBudget:
    def test_reference_analyze(self, monkeypatch, tmp_path):
        """One `kinatlas analyze` of the reference slice (y = 1/2, mode ++)
        makes at most 40,000 exact Horner evaluations; refining by the
        plain halving loop, it made 69,958."""
        import kinatlas.cad2d as cad2d
        from kinatlas.cli import main
        calls = []
        horner = realroots._horner

        def counted(ints, a, b):
            calls.append(1)
            return horner(ints, a, b)

        for module in (realroots, cad2d):
            monkeypatch.setattr(module, "_horner", counted)
        cfg = tmp_path / "mech.json"
        cfg.write_text('{"type": "RPR-2PRR", "l2": "3", "l3": "3", "a": "1", "b": "1"}\n')
        assert main(["analyze", "--config", str(cfg), "--slice", "W:y=1/2",
                     "--out", str(tmp_path / "out")]) == 0
        assert 10000 <= len(calls) <= 40000, len(calls)


class TestRootBound:
    def test_huge_coefficients(self):
        for p, rts in ((U(-(10 ** 400), 1), [10 ** 400]),
                       (U(-(10 ** 400), 0, 1), [-(10 ** 200), 10 ** 200])):
            got = isolate(p)
            assert len(got) == len(rts)
            for iv, r in zip(got, rts):
                assert iv.low <= r <= iv.high

    def test_least_power_of_two_above_cauchy_bound(self):
        # 1 + m/lc = 2^60 + 1/3 rounds to 2^60 in floats
        cases = [(1, 0), (1, 1), (3, 3), (3, 3 * 2 ** 60 - 2), (7, 10 ** 30), (2 ** 70, 1)]
        for lc, m in cases:
            b = _root_bound([m, -lc] if m else [0, lc])
            assert type(b) is int and b > 0 and b & (b - 1) == 0
            assert b * lc >= lc + m and (b == 1 or b // 2 * lc < lc + m), (lc, m, b)


class TestKernelCaches:
    def test_constructor_clears_to_primitive_integers(self):
        rng = random.Random(77)
        for _ in range(200):
            cs = [Fraction(rng.randint(-50, 50), rng.randint(1, 12))
                  for _ in range(rng.randint(1, 9))]
            p = UPoly(cs)
            assert isinstance(p.coeffs, tuple) and all(type(c) is int for c in p.coeffs)
            # fresh recomputation: clear denominators, strip the content and
            # the sign of the leading coefficient
            while cs and cs[-1] == 0:
                cs.pop()
            den = math.lcm(*(c.denominator for c in cs)) if cs else 1
            raw = [int(c * den) for c in cs]
            g = math.gcd(*raw) * (1 if not raw or raw[-1] > 0 else -1)
            assert list(p.coeffs) == ([k // g for k in raw] if g else raw)
            if p.coeffs:
                assert p.coeffs[-1] > 0 and math.gcd(*p.coeffs) == 1
                with pytest.raises(TypeError):
                    p.coeffs[0] = p.coeffs[0] + 1
            assert UPoly(p.coeffs) == p == UPoly([c * Fraction(-3, 7) for c in cs])


def _eq11_rho1_coeffs(c2s: Fraction, c3s: Fraction) -> list[Fraction]:
    a8 = Fraction(1)
    a6 = 42 * c2s - 52 - 12 * c3s
    a4 = 468 * c3s + 960 - 1584 * c2s - 558 * c3s * c2s - 18 * c3s ** 2 + 657 * c2s ** 2
    a2 = (-2988 * c3s ** 2 - 5760 * c3s + 4536 * c2s ** 3 + 2430 * c3s ** 2 * c2s
          - 7168 + 18432 * c2s - 15840 * c2s ** 2 + 324 * c3s ** 3
          + 13320 * c3s * c2s - 7290 * c3s * c2s ** 2)
    a0 = ((9 * c2s ** 2 - 18 * c3s * c2s - 24 * c2s + 9 * c3s ** 2 + 12 * c3s + 16)
          * (36 * c2s - 32 - 9 * c3s) ** 2)
    return [a0, 0, a2, 0, a4, 0, a6, 0, a8]


class TestSampleBetween:
    def test_inside_unit(self):
        lo, hi = isolate(U(-1, 0, 1))
        assert Fraction(-1) < sample_between(lo, hi) < Fraction(1)

    def test_below_all(self):
        assert sample_between(NEG_INF, isolate(U(0, 1))[0]) < 0

    def test_above_sqrt2(self):
        assert float(sample_between(isolate(U(-2, 0, 1))[1], POS_INF)) > 1.4142

    def test_between_infinities(self):
        assert sample_between(NEG_INF, POS_INF) == 0

    def test_dyadic(self):
        d = sample_between(*isolate(U(-2, 0, 1))).denominator
        assert d & (d - 1) == 0  # power of two

    def test_overlapping_bounds_of_two_polynomials(self):
        # sqrt2 < sqrt3 with both isolated by [1, 2]: halving opens the gap
        lo = interval(Fraction(1), Fraction(2), U(-2, 0, 1))
        hi = interval(Fraction(1), Fraction(2), U(-3, 0, 1))
        s = sample_between(lo, hi)
        assert 2 < s * s < 3

    def test_equal_exact_bounds_raise(self):
        one = interval(Fraction(1), Fraction(1), U(-1, 1))
        with pytest.raises(RealRootError):
            sample_between(one, one)


class TestSampleBetweenOracle:
    """`sample_between` narrows both integer bisection states in lockstep,
    reading a deeper state's ancestor cell; the oracle halves both Fraction
    intervals round by round.  Same sample, or the same raise."""

    @staticmethod
    def _same(lo, hi, merge=None):
        """The sample both routes give, or None when both raise alike;
        with `merge`, its `sample_between`."""
        sample = merge.sample_between if merge else sample_between
        try:
            want = sample_between_by_halving(lo, hi)
        except RealRootError as e:
            with pytest.raises(RealRootError, match=str(e)):
                sample(lo, hi)
            return None
        assert sample(lo, hi) == want, (lo, hi)
        return want

    @pytest.mark.parametrize("case", ["ref", "y0_0", "y0_2", "geom2"])
    def test_every_sample_of_the_perfbench_slices(self, case, monkeypatch):
        import kinatlas.cad2d as cad2d
        from kinatlas.realroots import RootMerge
        from kinatlas.domains import SliceAtlas
        from kinatlas.mechanism import WorkingMode
        from oracles import SLICES
        calls = overlapping = 0

        def checked(sample, lo, hi):
            nonlocal calls, overlapping
            got = sample(lo, hi)
            assert got == sample_between_by_halving(lo, hi), (lo, hi)
            calls += 1
            overlapping += lo != NEG_INF and hi != POS_INF and not lo.high < hi.low
            return got

        merge_sample = RootMerge.sample_between
        for module in (realroots, cad2d):
            monkeypatch.setattr(module, "sample_between",
                                lambda lo, hi: checked(sample_between, lo, hi))
        monkeypatch.setattr(RootMerge, "sample_between",
                            lambda merge, lo, hi: checked(merge_sample.__get__(merge), lo, hi))
        atlas = SliceAtlas.build(*SLICES[case], WorkingMode(1, 1))
        # the samples of the ladder's rungs 2^-10 and 2^-22 too
        for dec, varieties, wrap, graphs in atlas_passes(atlas):
            assert graphs_by_ladder(dec, varieties, wrap) == graphs
        # every base and fibre sample each decomposition keeps, from its bounds
        for dec, *_ in atlas_passes(atlas):
            for samples, roots in [(dec.base_samples, dec.base_roots)] + [
                    ([c.sample[1] for c in col], fr)
                    for col, fr in zip(dec.columns, fiber_roots(dec))]:
                bounds = [NEG_INF, *roots, POS_INF]
                assert samples == [sample_between_by_halving(lo, hi)
                                   for lo, hi in zip(bounds, bounds[1:])]
        assert calls >= 250 and overlapping >= 15, (calls, overlapping)

    def test_random_overlapping_pairs(self):
        """Roots of two seeded polynomials, in order, whose intervals
        overlap, sampled fresh and by the `RootMerge` of their two root
        lists, whose comparisons left deeper states, as the adjacency pass
        samples them."""
        from kinatlas.realroots import RootMerge
        rng = random.Random(2401)
        n = overlapping = 0
        for _ in range(150):
            ps = []
            for _ in range(2):
                p = U(rng.randint(-5, 5) or 1, 0, 1)
                for _ in range(rng.randint(1, 2)):
                    r = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 8)))
                    p = upoly_mul(p, UPoly([-r.numerator, r.denominator]))
                ps.append(p)
            roots1, roots2 = isolate(ps[0]), isolate(ps[1])
            merge = RootMerge(roots1, roots2)
            for a, ra in zip(roots1, merge.ranks1):
                for b, rb in zip(roots2, merge.ranks2):
                    if ra == rb:
                        continue
                    lo, hi = (a, b) if ra < rb else (b, a)
                    s = self._same(lo, hi)
                    assert s == self._same(lo, hi, merge) and lo.low < s < hi.high
                    overlapping += not lo.high < hi.low
                    n += 1
        assert n >= 800 and overlapping >= 200, (n, overlapping)

    def test_exact_bounds(self):
        half = interval(Fraction(1, 2), Fraction(1, 2), U(-1, 2))
        third = interval(Fraction(1, 3), Fraction(1, 3), U(-1, 3))
        # (x - 1/2 - 2^-40)(x^2 - 2): its root above 1/2 isolated by (0, 1)
        c = Fraction(1, 2) + Fraction(1, 1 << 40)
        above = interval(Fraction(0), Fraction(1), upoly_mul(UPoly([-c, 1]), U(-2, 0, 1)))
        below = interval(Fraction(0), Fraction(1), upoly_mul(UPoly([-c + 2 * Fraction(1, 1 << 40),
                                                                    1]), U(-2, 0, 1)))
        assert self._same(third, half) == Fraction(5, 12)
        for lo, hi in ((half, above), (below, half), (third, above), (below, above)):
            s = self._same(lo, hi)
            assert lo.low <= s <= hi.high

    def test_raises(self):
        one = interval(Fraction(1), Fraction(1), U(-1, 1))
        assert self._same(one, one) is None
        with pytest.raises(RealRootError, match="empty gap"):
            sample_between(one, one)
        # sqrt 2 and sqrt 2 + 2^-500 need more than 200 rounds of two
        # halvings; 2^-300 opens the gap at round 151
        for e, opens in ((500, False), (300, True)):
            c = Fraction(1, 1 << e)
            a = isolate(U(-2, 0, 1))[1]
            b = isolate(UPoly([c * c - 2, -2 * c, 1], "x"))[1]
            assert (self._same(a, b) is not None) == opens
            if not opens:
                with pytest.raises(RealRootError, match="could not separate"):
                    sample_between(a, b)


class TestNotSquarefree:
    """The Descartes walk stops at its root-separation depth on an input
    that is not squarefree; the squarefree part is isolated as before."""

    @pytest.mark.parametrize("p", [
        U(1, -6, 9),                                    # (3x - 1)^2
        U(4, 0, -4, 0, 1),                              # (x^2 - 2)^2
        upoly_mul(U(4, 0, -4, 0, 1), U(-3, 0, 0, 1)),   # (x^2 - 2)^2 (x^3 - 3)
    ], ids=["(3x-1)^2", "(x^2-2)^2", "(x^2-2)^2(x^3-3)"])
    def test_raises_naming_the_degree(self, p):
        for f in (count_roots, realroots.isolate_squarefree):
            with pytest.raises(RealRootError, match=f"degree {p.degree} is not squarefree"):
                f(p)
        assert len(isolate(p)) == count_roots(p.squarefree()) == count_roots_by_sturm(p)

    @pytest.mark.parametrize("p,match", [
        (U(1, -2, 1), "repeated root 1: "),                 # (x - 1)^2, met at a midpoint
        (U(1, -4, 6, -4, 1), "repeated root 1: "),          # (x - 1)^4
        (U(0, 0, 1), "repeated root 0: "),                  # x^2, met by the zero peel
        (U(4, 0, -4, 0, 1), "degree 4 is not squarefree"),  # (x^2 - 2)^2, by the depth bound
    ], ids=["(x-1)^2", "(x-1)^4", "x^2", "(x^2-2)^2"])
    def test_a_repeated_root_raises_wherever_the_walk_meets_it(self, p, match):
        with pytest.raises(RealRootError, match=match):
            realroots.isolate_squarefree(p)

    @pytest.mark.parametrize("p,roots", [
        (U(0, -1, 1), [(0, 0), (1, 1)]),                    # x (x - 1): two exact roots
        (U(0, 1), [(0, 0)]),                                # x
        (U(-1, 2), [(-2, 2)]),                              # 2x - 1
    ], ids=["x(x-1)", "x", "2x-1"])
    def test_simple_exact_roots_are_kept(self, p, roots):
        assert [(iv.low, iv.high) for iv in realroots.isolate_squarefree(p)] == roots

    @pytest.mark.parametrize("p,low,high,match", [
        (U(1, -2, 1), NEG_INF, POS_INF, "repeated root 1: "),         # (x - 1)^2, at a midpoint
        (U(1, -4, 6, -4, 1), NEG_INF, POS_INF, "repeated root 1: "),  # (x - 1)^4
        (U(0, 0, 1), NEG_INF, POS_INF, "repeated root 0: "),          # x^2
        (U(1, -2, 1), Fraction(0), Fraction(1), "repeated root 1: "),  # (x - 1)^2, at high
    ], ids=["(x-1)^2", "(x-1)^4", "x^2", "(x-1)^2-on-(0,1]"])
    def test_count_roots_refuses_a_repeated_exact_root(self, p, low, high, match):
        with pytest.raises(RealRootError, match=match):
            count_roots(p, low, high)

    def test_count_roots_keeps_simple_roots_and_skips_the_low_end(self):
        assert count_roots(U(0, -1, 1)) == 2                        # x (x - 1)
        assert count_roots(U(0, 0, 1), Fraction(0), Fraction(1)) == 0   # x^2: 0 is excluded

    def test_fibre_product_where_two_curves_cross(self):
        """At u = 1, where v = u and v = 2 - u cross, the fibre product is
        (v - 1)^2: isolation refuses it rather than give one root."""
        from kinatlas.cad2d import decompose
        vs = ("u", "v")
        dec = decompose([parse_poly("v-u", vs), parse_poly("v+u-2", vs)], "u", "v")
        f = dec.fiber_product(Fraction(1))
        assert f == U(1, -2, 1)
        with pytest.raises(RealRootError, match="repeated root 1: "):
            realroots.isolate_squarefree(f)


class TestHasRootIn:
    def test_matches_sturm_on_closed_dyadic_windows(self, monkeypatch):
        """Seeded constant, linear and quadratic fibres over dyadic windows,
        a third of each shifted to vanish at an end: a root in [low, high]
        by the Sturm count on (low, high] and the sign at low.  Only
        degree 2 and up reaches `count_roots`."""
        counted = []

        def count(p, low, high):
            counted.append(p)
            return count_roots(p, low, high)

        monkeypatch.setattr(realroots, "count_roots", count)
        rng = random.Random(3203)
        kinds = {"zero": 0, "at an end": 0, "counted": 0, "inside": 0}
        for case in range(900):
            low = Fraction(rng.randint(-48, 48), 1 << rng.randint(0, 4))
            high = low + Fraction(rng.randint(1, 48), 1 << rng.randint(0, 4))
            cs = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4))) for _ in range(case % 3 + 1)]
            if case % 9 < 3:
                end = low if rng.random() < 0.5 else high
                cs[0] -= sum(c * end ** i for i, c in enumerate(cs))
            p = UPoly(cs)
            n = len(counted)
            got = realroots.has_root_in(p, low, high)
            want = (p.is_zero() or upoly_eval(p, low) == 0
                    or count_roots_by_sturm(p, low, high) > 0)
            assert got == want, (p, low, high)
            assert len(counted) == n or p.degree >= 2, p
            kinds["zero"] += p.is_zero()
            kinds["at an end"] += not p.is_zero() and upoly_eval(p, low) * upoly_eval(p, high) == 0
            kinds["counted"] += len(counted) > n
            kinds["inside"] += len(counted) > n and got
        assert all(k >= 10 for k in kinds.values()), kinds


class TestSegment:
    def test_circle_crossing(self):
        circ = parse_poly("u^2+v^2-1", ("u", "v"))
        assert segment_crosses([circ], (0, 0), (2, 0)) is True

    def test_circle_missing(self):
        circ = parse_poly("u^2+v^2-1", ("u", "v"))
        assert segment_crosses([circ], (2, 2), (3, 3)) is False

    def test_line_diagonal(self):
        line = parse_poly("u-v", ("u", "v"))
        assert segment_crosses([line], (1, 0), (0, 1)) is True

    def test_identically_zero_flag(self):
        line = parse_poly("u-v", ("u", "v"))
        crossed, degenerate = segment_crosses([line], (0, 0), (1, 1), with_flag=True)
        assert crossed and degenerate

    def test_endpoint_root_counts(self):
        circ = parse_poly("u^2+v^2-1", ("u", "v"))
        assert segment_crosses([circ], (1, 0), (2, 0)) is True

    def test_agrees_with_dense_sampling(self):
        rng = random.Random(21)
        done = 0
        while done < 100:
            conic = _rand_conic(rng)
            p1 = (Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(-8, 8), 4))
            p2 = (Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(-8, 8), 4))
            if p1 == p2:
                continue
            u = restrict_to_segment(conic, p1, p2)
            if u.is_zero():
                continue
            got = segment_crosses([conic], p1, p2)
            # dense scan oracle with endpoint checks
            vals = [upoly_eval_float(u, i / 1000) for i in range(1001)]
            scan = any(a * b <= 0 for a, b in zip(vals, vals[1:]))
            if not scan and got:
                # scan can miss tangencies; verify exactly and skip
                assert (count_roots(u.squarefree(), Fraction(0), Fraction(1)) > 0
                        or upoly_eval(u, 0) == 0)
                done += 1
                continue
            assert got == scan or (scan and got)
            done += 1


def _rand_conic(rng):
    terms = {}
    for e in [(2, 0), (0, 2), (1, 1), (1, 0), (0, 1), (0, 0)]:
        c = rng.randint(-4, 4)
        if c:
            terms[e] = Fraction(c)
    if not terms:
        terms[(1, 0)] = Fraction(1)
    return MPoly(("u", "v"), terms)


class TestRootsBelow:
    def test_matches_sturm_count_random(self):
        """roots_below over the isolated roots equals the Sturm count on
        (-inf, x] at non-roots x: random points, interval ends and points
        inside the intervals."""
        from kinatlas.realroots import roots_below
        rng = random.Random(17)
        checked = inside = 0
        for _ in range(80):
            deg = rng.randint(1, 9)
            p = UPoly([Fraction(rng.randint(-9, 9)) for _ in range(deg)]
                      + [Fraction(rng.randint(1, 9))])
            roots = isolate(p)
            xs = [Fraction(rng.randint(-90, 90), rng.randint(1, 12)) for _ in range(10)]
            for iv in roots:
                xs += [iv.low, iv.high, iv.low - 1, iv.high + 1]
                if not iv.is_exact():
                    xs += [iv.low + (iv.high - iv.low) * Fraction(k, 5) for k in range(1, 5)]
                    inside += 4
            for x in xs:
                if upoly_eval(p, x) == 0:
                    continue
                assert roots_below(roots, x) == count_roots_by_sturm(p, NEG_INF, x), (p, x)
                checked += 1
        assert checked >= 1000 and inside >= 100
