import math
import random
from fractions import Fraction

import pytest

from kinatlas.ratpoly import MPoly, UPoly, format_poly
from kinatlas.cad2d import CadError, projection_set, decompose, interval_eval
from kinatlas.adjacency import build_graph, components

from oracles import interval_eval_by_fractions, parse_poly, upoly_eval


def P(text):
    return parse_poly(text, ("u", "v"))


def _integer_form(f: UPoly) -> bool:
    """Whether f holds primitive integers with a positive leading
    coefficient, which are those its monic form clears to."""
    cs = f.coeffs
    monic = f.to_mpoly().with_vars((f.var,)).coeffs_in(f.var) if cs else []
    return (all(type(c) is int for c in cs)
            and (not cs or (cs[-1] > 0 and math.gcd(*cs) == 1))
            and UPoly([c.constant_value() for c in monic], f.var).coeffs == cs)


CIRCLE = P("u^2+v^2-1")


class TestProjection:
    def test_circle(self):
        ps = projection_set([CIRCLE], "u", "v")
        strs = {str(q) for q in ps.p1}
        assert "u^2 - 1" in strs

    def test_two_lines(self):
        ps = projection_set([P("v-u"), P("v+u")], "u", "v")
        strs = {str(q) for q in ps.p1}
        assert "u" in strs

    def test_parabola(self):
        ps = projection_set([P("v^2-u")], "u", "v")
        strs = {str(q) for q in ps.p1}
        assert "u" in strs

    def test_vertical_line_kept(self):
        ps = projection_set([P("u-1"), P("v")], "u", "v")
        strs = {str(q) for q in ps.p1}
        assert "u - 1" in strs


class TestDecompose:
    def test_circle_five_cells(self):
        dec = decompose([CIRCLE], "u", "v")
        assert len(dec.cells) == 5
        # brute-force sign grid oracle: count of sign-invariant open regions
        assert _grid_regions([CIRCLE], 200) == 2  # cells over-split the connected outside

    def test_empty_set_single_cell(self):
        dec = decompose([], "u", "v")
        assert len(dec.cells) == 1
        assert dec.cells[0].sample == (Fraction(0), Fraction(0))

    def test_samples_off_variety(self):
        dec = decompose([CIRCLE, P("v-u")], "u", "v")
        for c in dec.cells:
            for q in dec.polys:
                assert q.eval({"u": c.sample[0], "v": c.sample[1]}) != 0

    def test_fiber_count_constant_per_region(self):
        # delineability: re-lift at 5 extra rational samples per base region
        dec = decompose([CIRCLE, P("v^2-u")], "u", "v")
        from kinatlas.cad2d import _specialize_product
        from kinatlas.realroots import isolate
        for k1, s in enumerate(dec.base_samples):
            expect = len(dec.fiber_roots[k1])
            lo = dec.base_roots[k1 - 1].high if k1 >= 1 else s - 2
            hi = dec.base_roots[k1].low if k1 < len(dec.base_roots) else s + 2
            for i in range(1, 6):
                w = lo + (hi - lo) * Fraction(i, 6)
                if dec.base_poly.degree >= 1 and upoly_eval(dec.base_poly, w) == 0:
                    continue
                f = _specialize_product(dec.polys, "u", "v", w)
                got = len(isolate(f)) if f.degree >= 1 else 0
                assert got == expect

    def test_locate(self):
        dec = decompose([CIRCLE], "u", "v")
        inside = dec.locate(Fraction(0), Fraction(0))
        assert inside is not None
        mid_col = [c.id for c in dec.columns[1]]
        assert inside == mid_col[1]
        assert dec.locate(Fraction(1), Fraction(0)) is None  # on the circle
        left = dec.locate(Fraction(-3), Fraction(0))
        assert left == dec.columns[0][0].id

    def test_cell_json_schema(self):
        dec = decompose([CIRCLE], "u", "v")
        c = dec.cells[0]
        base = format_poly(dec.base_poly.to_mpoly())
        fiber = format_poly(dec.fiber_products[c.base_index].to_mpoly())
        j = c.to_json(base, fiber)
        assert set(j) == {"id", "base", "fiber", "sample"}
        assert "/" in j["sample"][0]
        assert j["base"]["poly"] == base and j["fiber"]["poly"] == fiber


class TestAdjacency:
    def test_circle_components(self):
        dec = decompose([CIRCLE], "u", "v")
        g = build_graph(dec, [CIRCLE])
        comps = components(g)
        assert len(comps) == 2
        inside = dec.locate(Fraction(0), Fraction(0))
        assert {inside} in comps

    def test_two_parallel_lines(self):
        dec = decompose([P("v-1"), P("v+1")], "u", "v")
        g = build_graph(dec, [P("v-1"), P("v+1")])
        comps = components(g)
        assert len(comps) == 3

    def test_empty_variety(self):
        dec = decompose([], "u", "v")
        g = build_graph(dec, [])
        assert len(g.nodes) == 1 and len(g.edges) == 0

    def test_spurious_factor_reconnected(self):
        # decompose against circle + extra line, but variety = circle only:
        # cells split by the line must reconnect vertically and horizontally
        dec = decompose([CIRCLE, P("v")], "u", "v")
        g = build_graph(dec, [CIRCLE])
        comps = components(g)
        assert len(comps) == 2


class TestIntervalEval:
    """`interval_eval` runs on integers over the boxes' denominators; the
    oracle takes every term's enclosure on Fractions.  Same rationals."""

    def test_simple(self):
        p = parse_poly("u^2-v", ("u", "v"))
        lo, hi = interval_eval(p, {"u": (Fraction(-1), Fraction(2)), "v": (Fraction(0), Fraction(1))})
        assert lo <= Fraction(-1) and hi >= Fraction(4) - 1

    def test_matches_fraction_oracle_random(self):
        rng = random.Random(1919)
        names = ("u", "v", "w")
        seen = dict.fromkeys(("dyadic", "non-dyadic", "straddles 0", "below 0",
                              "zero width", "even power", "odd power"), 0)
        for case in range(800):
            vs = names[:rng.randint(1, 3)]
            terms = {tuple(rng.randint(0, 6) for _ in vs):
                     Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 12)))
                     for _ in range(rng.randint(0, 9))}
            p = MPoly(vs, terms)
            boxes = {}
            for v in vs:
                den = rng.choice((1, 3, 7, 1 << rng.randint(1, 40), 3 << rng.randint(1, 20)))
                a = Fraction(rng.randint(-60, 60), den)
                if rng.random() < 0.15:
                    b = a
                else:
                    b = a + Fraction(rng.randint(1, 60), rng.choice((1, 3, 7, 1 << rng.randint(1, 40))))
                boxes[v] = (a, b)
                dyadic = all(q.denominator & (q.denominator - 1) == 0 for q in (a, b))
                seen["dyadic" if dyadic else "non-dyadic"] += 1
                if a == b:
                    seen["zero width"] += 1
                elif a < 0 < b:
                    seen["straddles 0"] += 1
                elif b < 0:
                    seen["below 0"] += 1
            for e in p.terms:
                for k in e:
                    if k:
                        seen["even power" if k % 2 == 0 else "odd power"] += 1
            assert interval_eval(p, boxes) == interval_eval_by_fractions(p, boxes), (p, boxes)
        assert min(seen.values()) >= 100, seen

    def test_unbound_variable(self):
        p = parse_poly("u^2-v", ("u", "v"))
        with pytest.raises(CadError, match="unbound variable v"):
            interval_eval(p, {"u": (Fraction(-1), Fraction(2))})
        # a variable p does not use need no box
        assert interval_eval(parse_poly("u^3", ("u", "v")), {"u": (Fraction(-1), Fraction(2))}) \
            == (Fraction(-1), Fraction(8))
        assert interval_eval(MPoly(("u",), {}), {}) == (0, 0)

    @pytest.mark.parametrize("y0", [Fraction(1, 2), Fraction(29, 10), Fraction(299, 100)],
                             ids=["1/2", "29/10", "299/100"])
    def test_every_cusp_box_matches_fraction_oracle(self, y0, monkeypatch):
        import kinatlas.domains as domains
        from kinatlas.mechanism import MechanismParams, slice_jointspace, slice_workspace
        boxes = []

        def checked(q, box):
            got = interval_eval(q, box)
            assert got == interval_eval_by_fractions(q, box), box
            boxes.append(box)
            return got

        monkeypatch.setattr(domains, "interval_eval", checked)
        points = domains.cusp_points(slice_jointspace(slice_workspace(y0, 1, MechanismParams())))
        # P, P_r and P_u at each candidate box, the Hessian at each point kept
        assert len(boxes) >= 3 * len(points) + len(points) > 0


def _rand_conic(rng):
    terms = {}
    for e in [(2, 0), (0, 2), (1, 1), (1, 0), (0, 1), (0, 0)]:
        c = rng.randint(-3, 3)
        if c:
            terms[e] = Fraction(c)
    return MPoly(("u", "v"), terms)


def _grid_regions(polys, n, span=4.0) -> int:
    """Flood-fill count of connected sign-invariant regions on a dense grid."""
    import math

    def sgn(x, y):
        key = 0
        for p in polys:
            v = p.eval_float({"u": x, "v": y})
            if v == 0:
                return None
            key = key * 2 + (1 if v > 0 else 0)
        return key

    h = 2 * span / n
    cells = {}
    for i in range(n):
        for j in range(n):
            x = -span + (i + 0.5) * h
            y = -span + (j + 0.5) * h
            cells[(i, j)] = sgn(x, y)
    seen = set()
    regions = 0
    for start in cells:
        if start in seen or cells[start] is None:
            continue
        regions += 1
        stack = [start]
        seen.add(start)
        while stack:
            ci, cj = stack.pop()
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nb = (ci + di, cj + dj)
                if nb in cells and nb not in seen and cells[nb] == cells[start]:
                    seen.add(nb)
                    stack.append(nb)
    return regions


class TestTiling:
    def test_grid_points_in_exactly_one_cell(self):
        from fractions import Fraction as F
        import random
        dec = decompose([CIRCLE, P("v-u")], "u", "v")
        rng = random.Random(5)
        located = 0
        for _ in range(120):
            px = F(rng.randint(-40, 40), 16)
            py = F(rng.randint(-40, 40), 16)
            on_variety = any(q.eval({"u": px, "v": py}) == 0 for q in dec.polys)
            cid = dec.locate(px, py)
            if on_variety:
                assert cid is None
            elif upoly_eval(dec.base_poly, px) == 0:
                assert cid is None  # projection wall, not a variety point
            else:
                assert cid is not None
                located += 1
        assert located > 80


def _through(rng, x0: Fraction, y0: Fraction) -> MPoly:
    """A random conic through (x0, y0)."""
    c = _rand_conic(rng) + MPoly(("u", "v"), {(0, 2): Fraction(1)})
    return c - c.eval({"u": x0, "v": y0})


class TestFibreProduct:
    def test_lcm_matches_whole_product_squarefree(self):
        from kinatlas.cad2d import _specialize_product
        from oracles import specialize_product_whole, upoly_derivative
        rng = random.Random(41)
        shared = tangent = 0
        for _ in range(150):
            x0 = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
            y0 = Fraction(rng.randint(-6, 6), rng.choice([1, 4]))
            polys = [_through(rng, x0, y0) for _ in range(rng.randint(2, 3))]
            if rng.random() < 0.3:
                # (v - y0)^2 + (u - x0) * (u + v): a double fibre root at x0
                polys.append((P("v") - y0) ** 2 + (P("u") - x0) * P("u + v"))
            if rng.random() < 0.2:
                polys.append(_rand_conic(rng))
            polys.append(polys[0])  # the same curve twice
            for x in (x0, x0 + Fraction(1, 3)):
                got = _specialize_product(polys, "u", "v", x)
                want = specialize_product_whole(polys, "u", "v", x)
                assert got == want and got.var == want.var == "v"
                assert _integer_form(got)
            fibres = [UPoly.from_mpoly(p.eval({"u": x0}).with_vars(("v",)), "v")
                      for p in polys if p.degree("v") >= 1]
            shared += sum(upoly_eval(f, y0) == 0 for f in fibres) >= 2
            tangent += any(f.degree >= 1 and f.gcd(upoly_derivative(f)).degree >= 1 for f in fibres)
        assert shared >= 100 and tangent >= 20, (shared, tangent)

    def test_matches_both_oracles_at_fine_witnesses(self):
        # witnesses 2^-40 beside a shared fibre root, as the adjacency pass
        # takes them
        from kinatlas.cad2d import _specialize_product
        from oracles import specialize_product_by_fractions, specialize_product_whole
        rng = random.Random(59)
        for _ in range(60):
            x0 = Fraction(rng.randint(-6, 6), rng.choice([1, 3, 7]))
            y0 = Fraction(rng.randint(-6, 6), rng.choice([1, 4]))
            polys = [_through(rng, x0, y0) for _ in range(rng.randint(2, 3))]
            polys.append((P("v") - y0) ** 2 + (P("u") - x0) * P("u + v"))
            for k in (-1, 1, rng.randrange(1, 1 << 20, 2)):
                w = x0 + Fraction(k, 1 << 40) / rng.choice([1, 3])
                got = _specialize_product(polys, "u", "v", w)
                assert got == specialize_product_by_fractions(polys, "u", "v", w)
                assert got == specialize_product_whole(polys, "u", "v", w)

    def test_reference_products_come_with_their_cleared_integers(self, atlas_pp):
        for dec in (atlas_pp.wa.dec_fine, atlas_pp.ja.dec):
            for f in (dec.base_poly, *dec.fiber_products):
                assert _integer_form(f)
                assert f.squarefree() is f

    def test_matches_both_oracles_at_reference_witnesses(self, atlas_pp):
        # the pass's witness pair and the ladder's coarser rungs 2^-10, 2^-22
        from kinatlas.adjacency import _witnesses
        from kinatlas.cad2d import _specialize_product
        from oracles import (LADDER, specialize_product_by_fractions, specialize_product_whole,
                             witnesses_from_coarse)
        dec = atlas_pp.wa.dec_fine
        n = 0
        for j in range(len(dec.base_roots)):
            pairs = [witnesses_from_coarse(dec, j, s) for s in LADDER[:-1]] + [_witnesses(dec, j)]
            for ws in pairs:
                for w in ws:
                    args = (dec.polys, dec.base_var, dec.fiber_var, w)
                    got = _specialize_product(*args)
                    assert got == specialize_product_by_fractions(*args)
                    assert got == specialize_product_whole(*args)
                    n += 1
        assert n == 6 * len(dec.base_roots) > 0


class TestIntegerForm:
    def test_every_polynomial_of_the_reference_atlas(self, atlas_pp):
        """Every base and fibre product and every isolating-interval
        polynomial of the reference atlas's three decompositions holds
        primitive integers with a positive leading coefficient."""
        products = intervals = 0
        for dec in (atlas_pp.wa.dec_sing, atlas_pp.wa.dec_fine, atlas_pp.ja.dec):
            for f in (dec.base_poly, *dec.fiber_products):
                assert _integer_form(f), f
                products += 1
            for iv in (*dec.base_roots, *(iv for fr in dec.fiber_roots for iv in fr)):
                assert _integer_form(iv.polynomial), iv
                intervals += 1
        assert products >= 40 and intervals >= 200, (products, intervals)


class TestBaseProduct:
    """`decompose`'s base product is the integer squarefree lcm of the
    projection polynomials; it must equal the Fraction gcd, divide and
    multiply loop it replaced."""

    def test_matches_fraction_loop_on_random_arrangements(self):
        from oracles import base_product_by_fractions
        rng = random.Random(71)
        shared = 0
        for _ in range(40):
            x0 = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
            y0 = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
            polys = [_through(rng, x0, y0) for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.5:
                # tangent to v = y0 at x0: its discriminant and its
                # resultants with the other curves all vanish at u = x0
                polys.append((P("v") - y0) ** 2 + (P("u") - x0) * P("u + v"))
            polys.append(_rand_conic(rng))
            dec = decompose(polys, "u", "v")
            want = base_product_by_fractions(dec.proj.p1, "u")
            assert dec.base_poly == want and dec.base_poly.var == "u"
            assert _integer_form(dec.base_poly)
            p1 = [UPoly.from_mpoly(q, "u") for q in dec.proj.p1]
            shared += any(p1[i].gcd(p1[j]).degree >= 1
                          for i in range(len(p1)) for j in range(i + 1, len(p1)))
        assert shared >= 15, shared

    def test_shared_factor_between_projection_polynomials(self):
        # disc(v^2 - u) = 4u and res(v^2 - u, v - u) = u^2 - u share u
        from oracles import base_product_by_fractions
        dec = decompose([P("v^2 - u"), P("v - u")], "u", "v")
        p1 = dec.proj.p1
        a, b = (UPoly.from_mpoly(q, "u") for q in p1)
        assert len(p1) == 2 and a.gcd(b) == UPoly([0, 1], "u")
        assert dec.base_poly == base_product_by_fractions(p1, "u") == UPoly([0, -1, 1], "u")

    def test_matches_fraction_loop_on_reference_build(self, atlas_pp):
        from oracles import base_product_by_fractions
        for dec in (atlas_pp.wa.dec_sing, atlas_pp.wa.dec_fine, atlas_pp.ja.dec):
            assert dec.base_poly.degree >= 1
            assert dec.base_poly == base_product_by_fractions(dec.proj.p1, dec.base_var)


class TestScalarResultant:
    def test_matches_prs_on_univariate_pairs(self):
        from kinatlas.ratpoly import _resultant_int, resultant
        from oracles import resultant_scalar
        rng = random.Random(43)
        zero = linear = swapped = 0
        for _ in range(400):
            def rand_coeffs(d):
                return ([Fraction(rng.randint(-7, 7), rng.randint(1, 4)) for _ in range(d)]
                        + [Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))])

            def mul(x, y):
                out = [Fraction(0)] * (len(x) + len(y) - 1)
                for i, c in enumerate(x):
                    for j, k in enumerate(y):
                        out[i + j] += c * k
                return out

            a, b = rand_coeffs(rng.randint(1, 6)), rand_coeffs(rng.randint(1, 6))
            if rng.random() < 0.25:
                common = rand_coeffs(rng.randint(1, 2))
                a, b = mul(a, common), mul(b, common)
            want = resultant(MPoly(("v",), {(i,): c for i, c in enumerate(a)}),
                             MPoly(("v",), {(i,): c for i, c in enumerate(b)}),
                             "v").constant_value()
            assert resultant_scalar(a, b) == want
            # a = A / da, b = B / db: res(A, B) = da^deg b * db^deg a * res(a, b)
            ua, ub = UPoly(a, "v"), UPoly(b, "v")
            ia, ib = list(ua.coeffs), list(ub.coeffs)
            da, db = ia[-1] / a[-1], ib[-1] / b[-1]
            scale = da ** ub.degree * db ** ua.degree
            assert _resultant_int(ia, ib) == scale * want
            # res(b, a) = (-1)^(deg a * deg b) res(a, b)
            sign = -1 if ua.degree * ub.degree % 2 else 1
            assert _resultant_int(ib, ia) == sign * scale * want
            zero += want == 0
            linear += min(ua.degree, ub.degree) == 1
            swapped += ua.degree < ub.degree
        assert zero >= 50 and linear >= 50 and swapped >= 50, (zero, linear, swapped)


class TestResultantRoutes:
    def test_interpolated_matches_prs(self):
        from kinatlas.cad2d import resultant_bivar
        from oracles import resultant_prs
        rng = random.Random(13)
        done = 0
        while done < 30:
            p = _rand_conic(rng) + MPoly(("u", "v"), {(0, 2): Fraction(1)})
            q = _rand_conic(rng) + MPoly(("u", "v"), {(0, 1): Fraction(1)})
            if p.degree("v") <= 0 or q.degree("v") <= 0:
                continue
            a = resultant_bivar(p, q, "v", "u")
            b = resultant_prs(p, q, "v").with_vars(a.vars)
            assert a == b  # sign-exact agreement between the two routes
            done += 1

    def test_interpolated_discriminant_matches(self):
        from kinatlas.cad2d import discriminant_bivar
        from oracles import discriminant
        rng = random.Random(37)
        done = 0
        while done < 20:
            p = _rand_conic(rng) + MPoly(("u", "v"), {(0, 2): Fraction(1)})
            if p.degree("v") < 2:
                continue
            a = discriminant_bivar(p, "v", "u")
            b = discriminant(p, "v").with_vars(a.vars)
            assert a == b
            done += 1

    def test_operands_free_of_the_kept_variable(self):
        # the joint chart's lines 1 - c3 and 1 + c3 have degree 0 in r; the
        # interpolation bound is then 0 and one node gives the resultant
        from kinatlas.cad2d import resultant_bivar, discriminant_bivar
        from oracles import discriminant, resultant_prs
        for p, q in [(P("1-v"), P("1+v")), (P("2*v^2-3"), P("3*v+1/2")),
                     (P("v^2-2"), P("u+v")), (P("v^3-v"), P("v^2-1"))]:
            a = resultant_bivar(p, q, "v", "u")
            assert a == resultant_prs(p, q, "v").with_vars(a.vars)
        for p in (P("v^2-2"), P("2*v^3-v+1/3"), P("v^2-2*v+1")):
            a = discriminant_bivar(p, "v", "u")
            assert a == discriminant(p, "v").with_vars(a.vars)

    def test_cubic_quartic_with_vanishing_leading_coefficient(self):
        # leading coefficients in v vanish at interpolation nodes (u = 0,
        # -1, 2, ...), so those nodes are skipped
        from kinatlas.cad2d import resultant_bivar
        from oracles import resultant_prs
        rng = random.Random(47)
        for i in range(12):
            lcp = P(("u", "u + 1", "u - 2", "u^2 + u")[i % 4])
            lcq = P(("u - 2", "u", "3*u + 3", "1")[i % 4])
            p = lcp * P("v^3") + _rand_conic(rng) * (P("v") + rng.randint(-3, 3))
            q = lcq * P("v^4") + _rand_conic(rng) * _rand_conic(rng)
            if p.degree("v") < 3 or q.degree("v") < 4:
                continue
            a = resultant_bivar(p, q, "v", "u")
            b = resultant_prs(p, q, "v").with_vars(a.vars)
            assert a == b
            a = resultant_bivar(q, p, "v", "u")
            b = resultant_prs(q, p, "v").with_vars(a.vars)
            assert a == b

    def test_integer_route_matches_prs_and_fraction_oracle(self):
        # rows of one operand carry different denominators; leading
        # coefficients in v vanish at the nodes 0, -1 and 2 (and at 1, which
        # is not a node); degrees are swapped, including odd-by-odd pairs
        # where the swap flips the sign
        from kinatlas.cad2d import resultant_bivar
        from oracles import resultant_bivar_by_fractions, resultant_prs
        rng = random.Random(53)
        lcs = ("u", "u + 1", "u - 1", "u - 2", "u^2 - 1", "1/3*u^2 + 1/5", "7/2")
        at_node = {"u", "u + 1", "u - 2", "u^2 - 1"}   # zero at 0, -1, 2, -1

        def rand_poly(dv, lc):
            terms = {}
            for k in range(dv):
                for e in range(3):
                    c = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 4, 6, 9]))
                    if c:
                        terms[(e, k)] = c
            return MPoly(("u", "v"), terms) + P(lc) * P("v") ** dv

        mixed = vanishing = odd_swaps = 0
        for i in range(40):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            lcp, lcq = lcs[i % len(lcs)], lcs[(3 * i + 1) % len(lcs)]
            p, q = rand_poly(m, lcp), rand_poly(n, lcq)
            if p.degree("u") == 0 and q.degree("u") == 0:
                continue
            got = resultant_bivar(p, q, "v", "u")
            assert got == resultant_prs(p, q, "v").with_vars(got.vars)
            assert got == resultant_bivar_by_fractions(p, q, "v", "u").with_vars(got.vars)
            assert resultant_bivar(q, p, "v", "u") == (-got if m * n % 2 else got)
            mixed += len({c.denominator for c in p.terms.values()}) > 1
            vanishing += bool({lcp, lcq} & at_node)
            odd_swaps += m * n % 2 == 1 and m != n
        assert mixed >= 30 and vanishing >= 20 and odd_swaps >= 5, (mixed, vanishing, odd_swaps)


class TestExactnessGuards:
    def test_non_integer_divided_difference_raises(self):
        from kinatlas.ratpoly import RatPolyError, _newton_int
        with pytest.raises(RatPolyError, match="node 1"):
            _newton_int([0, -1, 1], [0, 1, 0])
        assert _newton_int([0, -1, 1], [1, 0, 4]) == [1, 2, 1]   # (u + 1)^2

    def test_inexact_polynomial_quotient_raises(self):
        from kinatlas.ratpoly import RatPolyError, _poly_quo
        with pytest.raises(RatPolyError, match="curve 3"):
            _poly_quo([1, 0, 1], [1, 1], "curve 3")        # v^2 + 1 by v + 1
        with pytest.raises(RatPolyError, match="curve 4"):
            _poly_quo([2, 2], [1, 2], "curve 4")           # 2v + 2 by 2v + 1
        assert _poly_quo([-1, 0, 1], [1, 1], "") == [-1, 1]


def _endpoints():
    """(x, tan(phi/2)) of both ends of the Fig. 10 trajectory and of every
    pool trajectory, as exact rationals of their floats."""
    import math
    from oracles import pool_waypoints
    fig10 = ((-1.0, 1.0), (0.0, 0.5), (1.0, -1.0), (0.5, -2.0))
    return [(Fraction(x), Fraction(math.tan(phi / 2)))
            for wps in [fig10, *pool_waypoints()] for x, phi in (wps[0], wps[-1])]


class TestLocateOracle:
    """`Decomposition.locate` counts the base roots below px on the isolated
    base roots and the fibre roots below py by a Descartes walk;
    `oracles.locate_by_sturm` counts both with Sturm sequences."""

    def test_cell_samples_of_the_reference_decompositions(self, atlas_pp):
        from oracles import locate_by_sturm
        wa, ja = atlas_pp.wa, atlas_pp.ja
        decs = (wa.dec_sing, wa.dec_fine, ja.dec)
        points = 0
        for dec in decs:
            for c in dec.cells:
                assert dec.locate(*c.sample) == locate_by_sturm(dec, *c.sample) == c.id
                points += 1
        # the atlas build's own locate calls: fine samples in the singular
        # decomposition, their chart images in the joint one
        for c in wa.dec_fine.cells:
            for dec, p in ((wa.dec_sing, c.sample), (ja.dec, wa.ws.chart_image(*c.sample))):
                assert dec.locate(*p) == locate_by_sturm(dec, *p)
                points += 1
        assert points == sum(len(d.cells) for d in decs) + 2 * len(wa.dec_fine.cells)

    def test_trajectory_endpoints(self, atlas_pp):
        from oracles import locate_by_sturm
        ends = _endpoints()
        assert len(ends) == 2 + 2 * 160
        for dec in (atlas_pp.wa.dec_sing, atlas_pp.wa.dec_fine):
            got = [dec.locate(*p) for p in ends]
            assert got == [locate_by_sturm(dec, *p) for p in ends]
            assert got.count(None) <= 2

    def test_points_inside_base_root_intervals(self, atlas_pp):
        """Points inside the isolating intervals, so that an interval
        straddles px; and exact rational base roots, where both give None."""
        from oracles import locate_by_sturm
        straddled = exact = 0
        for dec in (atlas_pp.wa.dec_sing, atlas_pp.wa.dec_fine, atlas_pp.ja.dec):
            for iv in dec.base_roots:
                if iv.is_exact():
                    for py in (Fraction(0), Fraction(1, 3)):
                        assert dec.locate(iv.low, py) is None
                        assert locate_by_sturm(dec, iv.low, py) is None
                    exact += 1
                    continue
                for k in range(1, 8):
                    px = iv.low + (iv.high - iv.low) * Fraction(k, 8)
                    for py in (Fraction(-1, 7), Fraction(2, 3)):
                        assert dec.locate(px, py) == locate_by_sturm(dec, px, py), (px, py)
                    straddled += 1
        assert exact >= 4 and straddled >= 7 * 25

    def test_seeded_points_take_no_squarefree_part(self, atlas_pp, monkeypatch):
        """The fibre product `locate` counts on is squarefree already, so
        locating takes no squarefree part, at seeded rational points
        across the reference fine decomposition."""
        from oracles import locate_by_sturm
        dec = atlas_pp.wa.dec_fine
        rng = random.Random(300)
        lo, hi = dec.base_roots[0].low - 1, dec.base_roots[-1].high + 1
        points = [(lo + (hi - lo) * Fraction(rng.randint(0, 1000), 1000),
                   Fraction(rng.randint(-80, 80), rng.choice([1, 3, 10, 16])))
                  for _ in range(300)]
        taken = []
        squarefree = UPoly.squarefree
        monkeypatch.setattr(UPoly, "squarefree", lambda f: taken.append(f) or squarefree(f))
        got = [dec.locate(*p) for p in points]
        assert not taken
        monkeypatch.undo()
        assert got == [locate_by_sturm(dec, *p) for p in points]
        assert got.count(None) <= 3 and len(set(got)) >= 40, (got.count(None), len(set(got)))

    def test_rational_base_roots_of_a_circle(self):
        from oracles import locate_by_sturm
        dec = decompose([CIRCLE, P("2*v-u")], "u", "v")
        assert any(iv.is_exact() for iv in dec.base_roots)
        for iv in dec.base_roots:
            px = iv.low if iv.is_exact() else iv.midpoint()
            for py in (Fraction(-2), Fraction(0), Fraction(1, 5)):
                assert dec.locate(px, py) == locate_by_sturm(dec, px, py)
                if iv.is_exact():
                    assert dec.locate(px, py) is None
