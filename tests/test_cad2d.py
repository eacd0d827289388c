import dataclasses
import math
import random
from fractions import Fraction

import pytest

from kinatlas.ratpoly import MPoly, UPoly, format_poly
from kinatlas.cad2d import CadError, projection_set, decompose, interval_eval
from kinatlas.adjacency import build_graph, components

from oracles import (
    fiber_roots, grid_regions, interval_eval_by_fractions, midpoint, parse_poly, upoly_eval,
)


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
        *_, proj = projection_set([CIRCLE], "u", "v")
        strs = {str(q) for q in proj}
        assert "u^2 - 1" in strs

    def test_two_lines(self):
        *_, proj = projection_set([P("v-u"), P("v+u")], "u", "v")
        strs = {str(q) for q in proj}
        assert "u" in strs

    def test_parabola(self):
        *_, proj = projection_set([P("v^2-u")], "u", "v")
        strs = {str(q) for q in proj}
        assert "u" in strs

    def test_vertical_line_kept(self):
        *_, proj = projection_set([P("u-1"), P("v")], "u", "v")
        strs = {str(q) for q in proj}
        assert "u - 1" in strs

    def test_curves_sharing_a_factor(self):
        # (v - u)(v + u) and (v - u)(v - 2u - 3) share the line v = u, so
        # their resultant vanishes identically; the other two lines cross at
        # u = -1, which must still cut the base line.  The three lines make
        # 7 faces, and (-2, 1), (-1/2, 1) lie in different ones.
        A, B = P("(v-u)*(v+u)"), P("(v-u)*(v-2*u-3)")
        assert {str(q) for q in projection_set([A, B], "u", "v")[2]} == {"u", "u + 1", "u + 3"}
        dec = decompose([A, B], "u", "v")
        assert len(components(build_graph(dec, [A, B]))) == 7
        a, b = dec.locate(Fraction(-2), Fraction(1)), dec.locate(Fraction(-1, 2), Fraction(1))
        assert None not in (a, b) and a != b


class TestDecompose:
    def test_circle_five_cells(self):
        dec = decompose([CIRCLE], "u", "v")
        assert len(dec.cells) == 5
        # brute-force sign grid oracle: count of sign-invariant open regions
        assert grid_regions([CIRCLE], 200) == 2  # cells over-split the connected outside

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
        from kinatlas.realroots import isolate
        roots = fiber_roots(dec)
        for k1, s in enumerate(dec.base_samples):
            expect = len(roots[k1])
            lo = dec.base_roots[k1 - 1].high if k1 >= 1 else s - 2
            hi = dec.base_roots[k1].low if k1 < len(dec.base_roots) else s + 2
            for i in range(1, 6):
                w = lo + (hi - lo) * Fraction(i, 6)
                if dec.base_poly.degree >= 1 and upoly_eval(dec.base_poly, w) == 0:
                    continue
                f = dec.fiber_product(w)
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
        points = domains.cusp_points(slice_jointspace(slice_workspace(y0, MechanismParams())))
        # P, P_r and P_u at each candidate box, the Hessian at each point kept
        assert len(boxes) >= 3 * len(points) + len(points) > 0


def _rand_conic(rng):
    terms = {}
    for e in [(2, 0), (0, 2), (1, 1), (1, 0), (0, 1), (0, 0)]:
        c = rng.randint(-3, 3)
        if c:
            terms[e] = Fraction(c)
    return MPoly(("u", "v"), terms)


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


def _fibre_product(polys, x) -> UPoly:
    """`Decomposition.fiber_product` at u = x of a decomposition that
    holds the curves `polys` as given."""
    from kinatlas.cad2d import int_rows
    dec = dataclasses.replace(decompose([], "u", "v"), polys=polys,
                              rows=[int_rows(p, "v", "u") for p in polys])
    return dec.fiber_product(x)


class TestFibreProduct:
    def test_lcm_matches_whole_product_squarefree(self):
        # at x0 the curves share the fibre root y0 and one of them is there
        # twice: `_lcm` of their bound fibres is the whole product's
        # squarefree part; at x0 + 1/3, unless it is a base root, their
        # coprime parts' fibres are squarefree and coprime, and the plain
        # `fiber_product` is that part too
        from kinatlas.cad2d import _lcm
        from kinatlas.realroots import sign_at
        from oracles import specialize_product_whole
        rng = random.Random(41)
        shared = plain = 0
        for _ in range(150):
            x0 = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
            y0 = Fraction(rng.randint(-6, 6), rng.choice([1, 4]))
            polys = [_through(rng, x0, y0) for _ in range(rng.randint(2, 3))]
            if rng.random() < 0.2:
                polys.append(_rand_conic(rng))
            dec, x = decompose(polys, "u", "v"), x0 + Fraction(1, 3)
            if sign_at(dec.base_poly, x) != 0:
                got = dec.fiber_product(x)
                assert got == specialize_product_whole(dec.polys, "u", "v", x) and got.var == "v"
                assert _integer_form(got)
                plain += 1
            polys.append(polys[0])  # the same curve twice
            bound = (UPoly.from_mpoly(p.eval({"u": x0}).with_vars(("v",)), "v")
                     for p in polys if p.degree("v") >= 1)
            fibres = [f for f in bound if f.degree >= 1]
            if any(f.squarefree() != f for f in fibres):
                continue    # a double fibre root: `_lcm` takes no squarefree part
            got = _lcm(fibres, "v")
            assert got == specialize_product_whole(polys, "u", "v", x0) and got.var == "v"
            assert _integer_form(got)
            shared += sum(upoly_eval(f, y0) == 0 for f in fibres) >= 3
        assert shared >= 130 and plain >= 140, (shared, plain)

    def test_matches_both_oracles_at_fine_witnesses(self):
        # witnesses 2^-40 beside a shared fibre root, as the adjacency pass
        # takes them
        from oracles import specialize_product_by_fractions, specialize_product_whole
        rng = random.Random(59)
        for _ in range(60):
            x0 = Fraction(rng.randint(-6, 6), rng.choice([1, 3, 7]))
            y0 = Fraction(rng.randint(-6, 6), rng.choice([1, 4]))
            polys = [_through(rng, x0, y0) for _ in range(rng.randint(2, 3))]
            polys.append((P("v") - y0) ** 2 + (P("u") - x0) * P("u + v"))
            for k in (-1, 1, rng.randrange(1, 1 << 20, 2)):
                w = x0 + Fraction(k, 1 << 40) / rng.choice([1, 3])
                got = _fibre_product(polys, w)
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
        from oracles import (LADDER, specialize_product_by_fractions, specialize_product_whole,
                             witnesses_from_coarse)
        dec = atlas_pp.wa.dec_fine
        n = 0
        for j in range(len(dec.base_roots)):
            pairs = [witnesses_from_coarse(dec, j, s) for s in LADDER[:-1]] + [_witnesses(dec, j)]
            for ws in pairs:
                for w in ws:
                    args = (dec.polys, dec.base_var, dec.fiber_var, w)
                    got = dec.fiber_product(w)
                    assert got == specialize_product_by_fractions(*args)
                    assert got == specialize_product_whole(*args)
                    n += 1
        assert n == 6 * len(dec.base_roots) > 0


class TestRowBuilds:
    def test_reference_analyze(self, monkeypatch, tmp_path):
        """One `kinatlas analyze` of the reference slice (y = 1/2, mode ++)
        builds a curve's integer rows (`int_rows`) at most 40 times: once per
        curve and direction in each decomposition, adjacency pass and plot.
        Rebuilt for every fibre product, they were built 759 times."""
        import kinatlas.adjacency as adjacency
        import kinatlas.cad2d as cad2d
        import kinatlas.svg as svg
        from kinatlas.cli import main
        calls = []
        int_rows = cad2d.int_rows

        def counted(*args):
            calls.append(args[1:])
            return int_rows(*args)

        for module in (cad2d, adjacency, svg):
            monkeypatch.setattr(module, "int_rows", counted)
        cfg = tmp_path / "mech.json"
        cfg.write_text('{"type": "RPR-2PRR", "l2": "3", "l3": "3", "a": "1", "b": "1"}\n')
        assert main(["analyze", "--config", str(cfg), "--slice", "W:y=1/2",
                     "--out", str(tmp_path / "out")]) == 0
        assert 20 <= len(calls) <= 40, len(calls)


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
            for iv in (*dec.base_roots, *(iv for fr in fiber_roots(dec) for iv in fr)):
                assert _integer_form(iv.polynomial), iv
                intervals += 1
        assert products >= 40 and intervals >= 200, (products, intervals)


class TestBaseProduct:
    """`decompose`'s base product is the integer lcm of the projection
    polynomials, which are squarefree; it must equal the Fraction gcd,
    divide and multiply loop it replaced."""

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
            want = base_product_by_fractions(dec.projection, "u")
            assert dec.base_poly == want and dec.base_poly.var == "u"
            assert _integer_form(dec.base_poly)
            p1 = [UPoly.from_mpoly(q, "u") for q in dec.projection]
            shared += any(p1[i].gcd(p1[j]).degree >= 1
                          for i in range(len(p1)) for j in range(i + 1, len(p1)))
        assert shared >= 15, shared

    def test_shared_factor_between_projection_polynomials(self):
        # disc(v^2 - u) = 4u and res(v^2 - u, v - u) = u^2 - u share u
        from oracles import base_product_by_fractions
        dec = decompose([P("v^2 - u"), P("v - u")], "u", "v")
        p1 = dec.projection
        a, b = (UPoly.from_mpoly(q, "u") for q in p1)
        assert len(p1) == 2 and a.gcd(b) == UPoly([0, 1], "u")
        assert dec.base_poly == base_product_by_fractions(p1, "u") == UPoly([0, -1, 1], "u")

    def test_matches_fraction_loop_on_reference_build(self, atlas_pp):
        from oracles import base_product_by_fractions
        for dec in (atlas_pp.wa.dec_sing, atlas_pp.wa.dec_fine, atlas_pp.ja.dec):
            assert dec.base_poly.degree >= 1
            assert dec.base_poly == base_product_by_fractions(dec.projection, dec.base_var)


class TestProjectionGuarantee:
    """Off the base roots the projection makes every bound part squarefree
    and coprime to the others, so a column's fibre product is the plain
    product of the bound parts and the base product the plain lcm of the
    projection: each equals the squarefree part that the whole product had."""

    @staticmethod
    def _check(dec) -> int:
        from oracles import base_product_by_fractions, specialize_product_whole
        assert dec.base_poly == base_product_by_fractions(dec.projection, dec.base_var)
        for s, f in zip(dec.base_samples, dec.fiber_products, strict=True):
            assert f == specialize_product_whole(dec.polys, dec.base_var, dec.fiber_var, s), s
        return len(dec.fiber_products)

    @pytest.mark.parametrize("case", ["ref", "y0_0", "y0_2", "geom2", "y0_1"])
    def test_decompositions_of_the_slice_atlas(self, case, slice_atlas):
        atlas = slice_atlas(case)
        columns = sum(self._check(dec) for dec in (atlas.wa.dec_fine, atlas.wa.dec_sing,
                                                    atlas.ja.dec))
        assert columns >= 20, columns

    def test_seeded_conic_arrangements(self):
        rng = random.Random(83)
        columns = 0
        for _ in range(40):
            x0 = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
            y0 = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
            polys = [_through(rng, x0, y0) for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.5:
                polys.append((P("v") - y0) ** 2 + (P("u") - x0) * P("u + v"))
            polys.append(_rand_conic(rng))
            columns += self._check(decompose(polys, "u", "v"))
        assert columns >= 200, columns

    def test_a_shared_root_at_a_base_root_raises(self):
        # v^2 - u and v^2 + u - 4 share the fibre roots +-sqrt 2 at the base
        # root u = 2, where the product of their parts is (v^2 - 2)^2
        from kinatlas.realroots import RealRootError, isolate_squarefree, sign_at
        dec = decompose([P("v^2 - u"), P("v^2 + u - 4")], "u", "v")
        assert sign_at(dec.base_poly, Fraction(2)) == 0
        f = dec.fiber_product(Fraction(2))
        assert f == UPoly([4, 0, -4, 0, 1], "v")
        with pytest.raises(RealRootError, match="not squarefree"):
            isolate_squarefree(f)
        assert len(isolate_squarefree(dec.fiber_product(Fraction(3)))) == 4


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
        from kinatlas import ratpoly
        from oracles import resultant_prs
        rng = random.Random(13)
        done = 0
        while done < 30:
            p = _rand_conic(rng) + MPoly(("u", "v"), {(0, 2): Fraction(1)})
            q = _rand_conic(rng) + MPoly(("u", "v"), {(0, 1): Fraction(1)})
            if p.degree("v") <= 0 or q.degree("v") <= 0:
                continue
            a = ratpoly.resultant(p, q, "v")
            b = resultant_prs(p, q, "v").with_vars(a.vars)
            assert a == b  # sign-exact agreement between the two routes
            done += 1

    def test_interpolated_discriminant_matches(self):
        from kinatlas import ratpoly
        from oracles import discriminant
        rng = random.Random(37)
        done = 0
        while done < 20:
            p = _rand_conic(rng) + MPoly(("u", "v"), {(0, 2): Fraction(1)})
            if p.degree("v") < 2:
                continue
            a = ratpoly.discriminant(p, "v")
            b = discriminant(p, "v").with_vars(a.vars)
            assert a == b
            done += 1

    def test_discriminant_on_the_resultant_cases(self):
        # the cubic-quartic case's operands, whose leading coefficients
        # vanish at nodes, and seeded cubics whose rows mix denominators
        from kinatlas import ratpoly
        from oracles import discriminant
        rng = random.Random(47)
        done = 0
        for i in range(12):
            lcp = P(("u", "u + 1", "u - 2", "u^2 + u")[i % 4])
            lcq = P(("u - 2", "u", "3*u + 3", "1")[i % 4])
            p = lcp * P("v^3") + _rand_conic(rng) * (P("v") + rng.randint(-3, 3))
            q = lcq * P("v^4") + _rand_conic(rng) * _rand_conic(rng)
            for f in (p, q):
                if f.degree("v") >= 2:
                    a = ratpoly.discriminant(f, "v")
                    assert a == discriminant(f, "v").with_vars(a.vars)
                    done += 1
        rng = random.Random(53)
        for _ in range(40):
            f = MPoly(("u", "v"), {(e, k): Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 9]))
                                   for k in range(4) for e in range(3)})
            if f.degree("v") >= 2:
                a = ratpoly.discriminant(f, "v")
                assert a == discriminant(f, "v").with_vars(a.vars)
                done += 1
        assert done >= 50, done

    def test_operands_free_of_the_kept_variable(self):
        # the joint chart's lines 1 - c3 and 1 + c3 have degree 0 in r; the
        # interpolation bound is then 0 and one node gives the resultant
        from kinatlas import ratpoly
        from oracles import discriminant, resultant_prs
        for p, q in [(P("1-v"), P("1+v")), (P("2*v^2-3"), P("3*v+1/2")),
                     (P("v^2-2"), P("u+v")), (P("v^3-v"), P("v^2-1"))]:
            a = ratpoly.resultant(p, q, "v")
            assert a == resultant_prs(p, q, "v").with_vars(a.vars)
        for p in (P("v^2-2"), P("2*v^3-v+1/3"), P("v^2-2*v+1")):
            a = ratpoly.discriminant(p, "v")
            assert a == discriminant(p, "v").with_vars(a.vars)

    def test_cubic_quartic_with_vanishing_leading_coefficient(self):
        # leading coefficients in v vanish at interpolation nodes (u = 0,
        # -1, 2, ...), so those nodes are skipped
        from kinatlas import ratpoly
        from oracles import resultant_prs
        rng = random.Random(47)
        for i in range(12):
            lcp = P(("u", "u + 1", "u - 2", "u^2 + u")[i % 4])
            lcq = P(("u - 2", "u", "3*u + 3", "1")[i % 4])
            p = lcp * P("v^3") + _rand_conic(rng) * (P("v") + rng.randint(-3, 3))
            q = lcq * P("v^4") + _rand_conic(rng) * _rand_conic(rng)
            if p.degree("v") < 3 or q.degree("v") < 4:
                continue
            a = ratpoly.resultant(p, q, "v")
            b = resultant_prs(p, q, "v").with_vars(a.vars)
            assert a == b
            a = ratpoly.resultant(q, p, "v")
            b = resultant_prs(q, p, "v").with_vars(a.vars)
            assert a == b

    def test_integer_route_matches_prs_and_fraction_oracle(self):
        # rows of one operand carry different denominators; leading
        # coefficients in v vanish at the nodes 0, -1 and 2 (and at 1, which
        # is not a node); degrees are swapped, including odd-by-odd pairs
        # where the swap flips the sign
        from kinatlas import ratpoly
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
            got = ratpoly.resultant(p, q, "v")
            assert got == resultant_prs(p, q, "v").with_vars(got.vars)
            assert got == resultant_bivar_by_fractions(p, q, "v", "u").with_vars(got.vars)
            assert ratpoly.resultant(q, p, "v") == (-got if m * n % 2 else got)
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
        """The bound curves `locate` counts on are squarefree already, so
        locating takes no squarefree part and builds no fibre product, at
        seeded rational points across the reference fine decomposition."""
        from kinatlas.cad2d import Decomposition
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
        monkeypatch.setattr(Decomposition, "fiber_product", lambda *a: taken.append(a))
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
            px = iv.low if iv.is_exact() else midpoint(iv)
            for py in (Fraction(-2), Fraction(0), Fraction(1, 5)):
                assert dec.locate(px, py) == locate_by_sturm(dec, px, py)
                if iv.is_exact():
                    assert dec.locate(px, py) is None


class TestRootsAt:
    """`Decomposition.roots_at` isolates each coprime part's fibre alone
    and merges the lists; `oracles.roots_at_by_product` isolates their
    product, the route the adjacency witnesses once took."""

    @pytest.mark.parametrize("case", ["ref", "y0_2", "geom2"])
    def test_every_witness_of_the_atlas_passes(self, case, slice_atlas):
        from kinatlas.adjacency import _witnesses, build_graphs
        from kinatlas.realroots import RootMerge
        from oracles import atlas_passes, graphs_by_ladder, roots_at_by_product
        atlas = slice_atlas(case)
        n = merged = 0
        for dec, varieties, wrap, graphs in atlas_passes(atlas):
            assert build_graphs(dec, varieties, wrap) == graphs
            assert graphs_by_ladder(dec, varieties, wrap) == graphs
            for j in range(len(dec.base_roots)):
                for w in _witnesses(dec, j):
                    got, want = dec.roots_at(w), roots_at_by_product(dec, w)
                    merge = RootMerge(got, want)
                    ranks = list(range(1, len(want) + 1))
                    assert merge.ranks1 == merge.ranks2 == ranks, (case, j, w)
                    merged += len({iv.polynomial for iv in got}) >= 2
                    n += 1
        assert n >= 40 and merged >= n // 2, (n, merged)

    def test_curves_sharing_a_factor(self):
        """The curves of `TestProjection.test_curves_sharing_a_factor`
        share the line v = u, which only one of their coprime parts keeps:
        seeded fibres have as many roots as the product's, and seeded points
        lie in the cells the Sturm oracle names."""
        from kinatlas.realroots import sign_at
        from oracles import locate_by_sturm, roots_at_by_product
        dec = decompose([P("(v-u)*(v+u)"), P("(v-u)*(v-2*u-3)")], "u", "v")
        rng = random.Random(29)
        fibres = points = 0
        while fibres < 40:
            x = Fraction(rng.randint(-50, 50), rng.choice([1, 3, 7, 8]))
            if sign_at(dec.base_poly, x) == 0:
                continue
            assert len(dec.roots_at(x)) == len(roots_at_by_product(dec, x)) >= 2, x
            fibres += 1
            for _ in range(5):
                y = Fraction(rng.randint(-50, 50), rng.choice([1, 2, 5]))
                assert dec.locate(x, y) == locate_by_sturm(dec, x, y), (x, y)
                points += dec.locate(x, y) is not None
        # and the lines' own points, on the variety
        assert dec.locate(Fraction(1, 3), Fraction(1, 3)) is None
        assert points >= 150, points

    def test_two_curves_crossing_at_the_abscissa_raise(self):
        """v = u and v = 2 - u cross at u = 1, a base root: the fibre
        there would hold one root twice, and the error names the abscissa
        and both curves, and through the adjacency pass the base root and
        the witness."""
        from kinatlas.adjacency import AdjacencyError, _roots_at
        from kinatlas.realroots import RealRootError
        dec = decompose([P("v-u"), P("v+u-2")], "u", "v")
        assert len(dec.roots_at(Fraction(1, 2))) == 2
        with pytest.raises(RealRootError, match=r"curves 0 and 1 share a fibre root at u = 1$"):
            dec.roots_at(Fraction(1))
        with pytest.raises(AdjacencyError, match=r"^base root 0, witness 1: curves 0 and 1"):
            _roots_at(dec, Fraction(1), dec.columns[0], "base root 0")
