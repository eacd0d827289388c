import math
import random
from fractions import Fraction

import pytest

from kinatlas.ratpoly import MPoly, UPoly, parse_poly
from kinatlas.realroots import (
    RealRootError,
    sturm_sequence, count_roots, isolate, sample_between,
)

from oracles import segment_crosses, restrict_to_segment


def U(*coeffs):
    return UPoly([Fraction(c) for c in coeffs])


def _scan_count(p: UPoly, lo: float, hi: float, n: int = 20000) -> int:
    """Independent oracle: dense sign-change scan (squarefree inputs only)."""
    f = p.squarefree()
    prev = None
    hits = 0
    for i in range(n + 1):
        x = lo + (hi - lo) * i / n
        v = f.eval_float(x)
        if prev is not None and prev * v < 0:
            hits += 1
        if v == 0.0:
            hits += 1
            v = 1e-300 if prev is None or prev > 0 else -1e-300
        prev = v
    return hits


class TestSturm:
    def test_basic_sequence(self):
        seq = sturm_sequence(U(-2, 0, 1))  # x^2 - 2
        assert seq[0] == U(-2, 0, 1)
        # entries are positive rescalings of the classical sequence
        assert seq[1].degree == 1 and seq[1].coeffs[-1] > 0 and seq[1](0) == 0
        assert len(seq) == 3 and seq[2].degree == 0 and seq[2].coeffs[0] > 0

    def test_linear(self):
        seq = sturm_sequence(U(-1, 1))
        assert len(seq) == 2

    def test_squared_factor_uses_squarefree(self):
        seq = sturm_sequence(U(1, -2, 1))  # (x-1)^2
        assert seq[0].degree == 1

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
            assert count_roots(p) == len(isolate(p))


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
                    assert f(iv.low) == 0
                else:
                    assert f(iv.low) * f(iv.high) < 0
                    assert count_roots(f, iv.low, iv.high) == 1

    def test_refinement_contract(self):
        iv = isolate(U(-2, 0, 1))[1]
        w = Fraction(1, 10 ** 12)
        r = iv.refine(w)
        assert r.width() < w
        assert abs(float(r.midpoint()) - math.sqrt(2)) < 1e-11

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
        s = sample_between(U(-1, 0, 1), 1)
        assert Fraction(-1) < s < Fraction(1)

    def test_below_all(self):
        s = sample_between(U(0, 1), 0)
        assert s < 0

    def test_above_sqrt2(self):
        s = sample_between(U(-2, 0, 1), 2)
        assert float(s) > 1.4142

    def test_dyadic(self):
        s = sample_between(U(-2, 0, 1), 1)
        d = s.denominator
        assert d & (d - 1) == 0  # power of two


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
            vals = [u.eval_float(i / 1000) for i in range(1001)]
            scan = any(a * b <= 0 for a, b in zip(vals, vals[1:]))
            if not scan and got:
                # scan can miss tangencies; verify exactly and skip
                assert count_roots(u, Fraction(0), Fraction(1)) > 0 or u(0) == 0
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
