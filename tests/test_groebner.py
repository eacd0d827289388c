import random
from fractions import Fraction

import pytest

from kinatlas.ratpoly import MPoly, resultant, squarefree_part, mgcd

from oracles import divides, parse_poly
from groebner import (
    PolySystem, MonomialOrder, GREVLEX, LEX,
    groebner_basis, eliminate, GroebnerError,
)


def P(text, vs):
    return parse_poly(text, vs)


def S(texts, vs):
    return PolySystem.of([P(t, vs) for t in texts], vs)


class TestBasis:
    def test_substitution_forced(self):
        gb = groebner_basis(S(["x^2+y^2-1", "x-y"], ("x", "y")), LEX)
        polys = set(map(str, gb.polynomials))
        assert polys == {"x - y", "2*y^2 - 1"}

    def test_inconsistent(self):
        gb = groebner_basis(S(["x-1", "x-2"], ("x",)))
        assert len(gb.polynomials) == 1
        assert gb.polynomials[0].is_constant()

    def test_already_basis(self):
        gb = groebner_basis(S(["x*y"], ("x", "y")))
        assert list(map(str, gb.polynomials)) == ["x*y"]

    def test_idempotent(self):
        sys0 = S(["x^2+y^2-1", "x*y-2", "x^3-y"], ("x", "y"))
        g1 = groebner_basis(sys0, GREVLEX)
        g2 = groebner_basis(g1, GREVLEX)
        assert list(map(str, g1.polynomials)) == list(map(str, g2.polynomials))

    def test_deterministic(self):
        sys0 = S(["x^2*y-1", "x*y^2-x"], ("x", "y"))
        a = groebner_basis(sys0, GREVLEX)
        b = groebner_basis(sys0, GREVLEX)
        assert list(map(str, a.polynomials)) == list(map(str, b.polynomials))

    def test_katsura_like(self):
        # classic textbook: {x^2 - y, x^3 - z} lex contains y^3 - z^2
        gb = groebner_basis(S(["x^2-y", "x^3-z"], ("x", "y", "z")), LEX)
        target = P("y^3-z^2", ("y", "z"))
        assert any(g.with_vars(("x", "y", "z")) == target.with_vars(("x", "y", "z"))
                   for g in gb.polynomials)


class TestOrders:
    def test_block_order_validation(self):
        with pytest.raises(GroebnerError):
            MonomialOrder("block")
        with pytest.raises(GroebnerError):
            MonomialOrder("grevlex", ("x",))

    def test_grevlex_vs_lex_differ(self):
        sys0 = S(["x^2+y^2-1", "x*y-1"], ("x", "y"))
        a = groebner_basis(sys0, GREVLEX)
        b = groebner_basis(sys0, LEX)
        assert {str(p) for p in a.polynomials} != set() and b.polynomials


class TestEliminate:
    def test_circle_line(self):
        out = eliminate(S(["x^2+y^2-1", "x-y"], ("x", "y")), ["x"])
        assert list(map(str, out.polynomials)) == ["2*y^2 - 1"]

    def test_drop_nothing(self):
        sys0 = S(["x^2+y^2-1", "x-y"], ("x", "y"))
        out = eliminate(sys0, [])
        # same ideal content: original generators reduce to zero against it
        gb2 = groebner_basis(PolySystem.of(list(out.polynomials) + list(sys0.polynomials),
                                           sys0.variables))
        assert {str(p) for p in gb2.polynomials} == {str(p) for p in out.polynomials}

    def test_unknown_symbol(self):
        with pytest.raises(GroebnerError):
            eliminate(S(["x-1"], ("x",)), ["q"])

    def test_serial_projection_leg2(self):
        # constraint chain for one leg plus its null passive cosine:
        # {3*s2 - y, c2, c2^2 + s2^2 - 1} projected onto y gives y^2 - 9
        sys0 = S(["3*s2-y", "c2", "c2^2+s2^2-1"], ("c2", "s2", "y"))
        out = eliminate(sys0, ["c2", "s2"])
        assert [str(p) for p in out.polynomials] == ["y^2 - 9"]

    def test_cross_oracle_resultant(self):
        rng = random.Random(12)
        done = 0
        while done < 25:
            p = _rand(rng)
            q = _rand(rng)
            if p.degree("x") <= 0 or q.degree("x") <= 0:
                continue
            r = resultant(p, q, "x")
            if r.is_zero() or r.degree("y") <= 0:
                continue
            out = eliminate(PolySystem.of([p, q], ("x", "y")), ["x"])
            gens = [g for g in out.polynomials if not g.is_zero()]
            if not gens:
                continue
            g = gens[0]
            for h in gens[1:]:
                g = mgcd(g, h.with_vars(g.vars))
            rs = squarefree_part(r, "y").canonical()
            gs = squarefree_part(g.with_vars(r.vars), "y").canonical()
            assert divides(gs, rs), f"{gs} vs {rs}"
            done += 1


def _rand(rng):
    terms = {}
    for _ in range(4):
        e = (rng.randint(0, 2), rng.randint(0, 2))
        c = rng.randint(-5, 5)
        if c:
            terms[e] = Fraction(c)
    return MPoly(("x", "y"), terms) + MPoly(("x", "y"), {(1, 0): Fraction(1)})


class TestProjectionVanishing:
    def test_eliminated_generators_vanish_at_projected_roots(self):
        # serial-boundary poses: alpha3 = 0 configurations lie on the
        # eliminated leg-3 reach polynomial
        import math
        from kinatlas.mechanism import MechanismParams
        params = MechanismParams()
        vs3 = ("c3", "s3", "x", "tphi")
        t = MPoly.var("tphi", vs3)
        op = MPoly.const(1, vs3) + t * t
        om = MPoly.const(1, vs3) - t * t
        sys3 = PolySystem.of([
            params.l3 * MPoly.var("c3", vs3) * op - params.b * om - MPoly.var("x", vs3) * op,
            MPoly.var("s3", vs3),
            MPoly.var("c3", vs3) ** 2 + MPoly.var("s3", vs3) ** 2 - 1,
        ], vs3)
        out = eliminate(sys3, ["c3", "s3"])
        gens = [g for g in out.polynomials]
        assert gens
        for phi in (0.3, -1.1, 2.4, 0.9):
            tv = math.tan(phi / 2)
            # alpha3 = 0 from the closed-form chain: x = l3 - b cos(phi)
            xv = 3.0 - math.cos(phi)
            for g in gens:
                v = g.eval_float({"x": xv, "tphi": tv})
                scale = sum(abs(float(c)) for c in g.terms.values()) * max(1.0, abs(tv)) ** g.degree("tphi")
                assert abs(v) / scale < 1e-9
