"""One adjacency pass per decomposition: per-variety graphs are filters of
a single candidate-edge pass, and every edge is exact; the cut phi = pi of
the half-tangent chart is one more candidate per column inside that pass."""

import random
from fractions import Fraction

import pytest

from kinatlas import realroots
from kinatlas.ratpoly import MPoly, UPoly
from kinatlas.realroots import RootMerge, UnorderedRootsError, has_root_in, isolate, _sign_at
from kinatlas.cad2d import bind, decompose, int_rows
from kinatlas.domains import analyze_workspace
from kinatlas.mechanism import MechanismParams, slice_jointspace, slice_workspace
from kinatlas.adjacency import (
    AdjacencyError, build_graph, build_graphs, components, _witnesses,
)

from oracles import (
    LADDER, SLICES, atlas_passes, cmp_bounds_by_refine, count_roots_by_sturm, graphs_by_ladder,
    interval, parse_poly, segment_crosses, restrict_to_segment, upoly_eval, upoly_mul,
    witnesses_from_coarse, workspace_graphs_by_post_pass,
)
from test_cad2d import _rand_conic


def P(text):
    return parse_poly(text, ("u", "v"))


def U(coeffs):
    return UPoly([Fraction(c) for c in coeffs], "x")


def _sign(x):
    return (x > 0) - (x < 0)


def _cmp(a, b, max_iter=50):
    """Sign of (root a) - (root b), by the ranks of a one-root merge whose
    deepest comparison is that of `max_iter` oracle rounds, 5 (max_iter - 1)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(realroots, "_MERGE_DEPTH", 5 * (max_iter - 1))
        merge = RootMerge([a], [b])
    return _sign(merge.ranks1[0] - merge.ranks2[0])


class TestBuildGraphs:
    def test_matches_separate_passes_random_conics(self):
        span = 4
        box = [P(f"u-{span}"), P(f"u+{span}"), P(f"v-{span}"), P(f"v+{span}")]
        rng = random.Random(77)
        done = 0
        while done < 8:
            polys = [_rand_conic(rng) for _ in range(rng.randint(1, 3))]
            polys = [p for p in polys if not p.is_zero() and not p.is_constant()]
            if not polys:
                continue
            V = polys + box
            try:
                dec = decompose(V, "u", "v")
            except Exception:
                continue  # degenerate arrangement (e.g. identical curves)
            k = rng.randint(0, len(V) - 1)
            got = build_graphs(dec, [V, V[:k]])
            assert got == [build_graph(dec, V), build_graph(dec, V[:k])], \
                f"{[str(p) for p in V]}, k = {k}"
            done += 1

    def test_matches_ladder_oracle(self, atlas_pp):
        """One witness pair per base root gives the graphs of the three-rung
        ladder for the decomposition's own curves: on seeded conic
        arrangements, with and without the cut, and on the reference
        atlas's three passes.  For a sub-variety the ladder also keeps pairs
        that overlap only at a coarse rung and whose witness segment no
        curve of the sub-variety meets: sound edges of its complement but no
        adjacencies, so there the pass's edges are a subset with the same
        components."""
        rng = random.Random(23)
        done = fewer = 0
        while done < 40:
            polys = [_rand_conic(rng) for _ in range(rng.randint(1, 4))]
            polys = [p for p in polys if not p.is_constant()]
            if not polys:
                continue
            try:
                dec = decompose(polys, "u", "v")
            except Exception:
                continue  # degenerate arrangement
            varieties = [polys, polys[:rng.randint(0, len(polys) - 1)]]
            for wrap in (False, True):
                (g, g_sub), (want, want_sub) = (build_graphs(dec, varieties, wrap),
                                                graphs_by_ladder(dec, varieties, wrap))
                assert g == want, ([str(p) for p in polys], wrap)
                assert set(g_sub.edges) <= set(want_sub.edges)
                assert components(g_sub) == components(want_sub)
                fewer += g_sub != want_sub
            done += 1
        assert fewer >= 10, fewer
        for dec, varieties, wrap, graphs in atlas_passes(atlas_pp):
            assert graphs_by_ladder(dec, varieties, wrap) == graphs

    def test_shared_and_disjoint_varieties(self):
        circle, line = P("u^2+v^2-1"), P("v")
        dec = decompose([circle, line], "u", "v")
        varieties = [[circle, line], [line], [], [circle]]
        assert build_graphs(dec, varieties) == [build_graph(dec, v) for v in varieties]
        assert build_graphs(dec, []) == []

    def test_powers_and_products_block_as_their_curves(self):
        """A variety polynomial blocks as its zero set does: p^2 as p, p q as
        p and q together.  A squared fibre never changes sign, so this
        fails if the stacked-pair test drops the squarefree part."""
        rng = random.Random(5)
        pairs = [(P("u^2+v^2-1"), P("v-u^2+1/2"))]
        while len(pairs) < 4:
            p, q = _rand_conic(rng), _rand_conic(rng)
            if min(p.degree("v"), q.degree("v")) >= 1:
                pairs.append((p, q))
        for p, q in pairs:
            dec = decompose([p, q], "u", "v")
            g = build_graph(dec, [p])
            assert build_graph(dec, [p * p]) == g and len(components(g)) >= 2
            assert build_graph(dec, [p * q]) == build_graph(dec, [p, q])


class TestCut:
    def test_parity_rule_on_toy_arrangement(self):
        # v - u has odd fibre degree and blocks every bottom-top pair;
        # v^2 - u has even degree and its leading coefficient no root, so
        # each column of two or more cells gets its bottom-top edge
        odd, even = P("v-u"), P("v^2-u")
        dec = decompose([odd, even], "u", "v")
        cut = {(col[0].id, col[-1].id) for col in dec.columns if len(col) >= 2}
        assert cut and max(len(col) for col in dec.columns) >= 3
        g_odd, g_even = build_graphs(dec, [[odd], [even]], wrap=True)
        f_odd, f_even = build_graphs(dec, [[odd], [even]])
        assert g_odd == f_odd
        assert set(g_even.edges) == set(f_even.edges) | cut
        # without the cut, only a column of two cells joins its ends
        assert {(col[0].id, col[-1].id) for col in dec.columns
                if len(col) >= 3}.isdisjoint(f_even.edges)
        assert build_graphs(dec, [[odd, even]], wrap=True) == build_graphs(dec, [[odd, even]])

    def test_leading_coefficients_clear_of_base_samples(self, atlas_pp):
        # the parity rule's premise: an even curve meets phi = pi only where
        # its tphi-leading coefficient vanishes, never at a base sample
        wa = atlas_pp.wa
        variety = [wa.ws.serial[0], wa.ws.serial[1], wa.ws.parallel, wa.sc]
        lcs = [p.leading_coefficient("tphi").with_vars(("x",)) for p in variety]
        for dec in (wa.dec_sing, wa.dec_fine):
            for s in dec.base_samples:
                assert all(lc.eval({"x": s}) != 0 for lc in lcs), s

    def test_matches_post_pass_oracle_reference_slice(self, atlas_pp):
        wa = atlas_pp.wa
        assert (wa.graph_sing, wa.graph_fine, wa.graph_fine_sing) == \
            workspace_graphs_by_post_pass(wa)

    @pytest.mark.parametrize("y0", [Fraction(0), Fraction(2)], ids=["y0=0", "y0=2"])
    def test_matches_post_pass_oracle(self, y0):
        wa = analyze_workspace(slice_jointspace(slice_workspace(y0, MechanismParams())))
        assert (wa.graph_sing, wa.graph_fine, wa.graph_fine_sing) == \
            workspace_graphs_by_post_pass(wa)


class TestRanks:
    def _check(self, p, q):
        roots1, roots2 = isolate(p), isolate(q)
        merge = RootMerge(roots1, roots2)
        rank1, rank2 = merge.ranks1, merge.ranks2
        for ranks in (rank1, rank2):
            assert all(a < b for a, b in zip(ranks, ranks[1:]))
        for i, a in enumerate(roots1):
            for k, b in enumerate(roots2):
                assert _sign(rank1[i] - rank2[k]) == _cmp(a, b), (i, k)
        return roots1, roots2, rank1, rank2

    def test_shared_irrational_roots(self):
        # (x^2 - 2)(x - 1) against (x^2 - 2)(x + 3): -3 < -sqrt2 < 1 < sqrt2
        _, _, rank1, rank2 = self._check(U([2, -2, -1, 1]), U([-6, -2, 3, 1]))
        assert rank1 == [2, 3, 4]
        assert rank2 == [1, 2, 4]

    def test_shared_rational_root(self):
        # (x - 1)(x^2 - 2) against (x - 1)(x + 3)
        _, _, rank1, rank2 = self._check(U([2, -2, -1, 1]), U([-3, 2, 1]))
        assert rank1 == [2, 3, 4]
        assert rank2 == [1, 3]

    def test_gcd_once_per_polynomial_pair(self, monkeypatch):
        # x(x^2 - 2)(x - 1) against (x^2 - 2)(x + 3): the peeled zero root of
        # the first list carries another polynomial than its other roots
        roots1, roots2 = isolate(U([0, 2, -2, -1, 1])), isolate(U([-6, -2, 3, 1]))
        assert len({id(r.polynomial) for r in roots1}) == 2
        taken = []
        gcd = UPoly.gcd

        def counted(p, q):
            taken.append((id(p), id(q)))
            return gcd(p, q)

        monkeypatch.setattr(UPoly, "gcd", counted)
        merge = RootMerge(roots1, roots2)
        assert (merge.ranks1, merge.ranks2) == ([2, 3, 4, 5], [1, 2, 5])
        assert taken and len(taken) == len(set(taken))

    def test_empty_side(self):
        merge = RootMerge(isolate(U([-2, 0, 1])), [])
        assert (merge.ranks1, merge.ranks2) == ([1, 2], [])
        merge = RootMerge([], [])
        assert (merge.ranks1, merge.ranks2) == ([], [])


class TestComparisonStates:
    """`RootMerge` keeps one integer bisection state per root across its
    rounds; the oracle rebuilds Fraction intervals with `refine` every
    round.  Same sign, or the same raise."""

    @staticmethod
    def _same(a, b, max_iter=50):
        """The sign both routes give, or None when both raise."""
        try:
            want = cmp_bounds_by_refine(a, b, {}, max_iter)
        except AdjacencyError:
            with pytest.raises(UnorderedRootsError, match="could not order"):
                _cmp(a, b, max_iter)
            return None
        assert _cmp(a, b, max_iter) == want, (a, b, max_iter)
        return want

    @pytest.mark.parametrize("case", ["ref", "y0_0", "y0_2", "geom2"])
    def test_every_comparison_of_the_perfbench_slices(self, case, monkeypatch):
        from kinatlas.domains import SliceAtlas
        from kinatlas.mechanism import WorkingMode
        signs = []

        compare = RootMerge._compare

        def checked(merge, a, b):
            got = compare(merge, a, b)
            assert got == cmp_bounds_by_refine(a, b, {}), (a, b)
            signs.append(got)
            return got

        monkeypatch.setattr(RootMerge, "_compare", checked)
        atlas = SliceAtlas.build(*SLICES[case], WorkingMode(1, 1))
        # the comparisons of the ladder's rungs 2^-10 and 2^-22 too
        for dec, varieties, wrap, graphs in atlas_passes(atlas):
            assert graphs_by_ladder(dec, varieties, wrap) == graphs
        assert len(signs) >= 100 and set(signs) == {-1, 0, 1}, (len(signs), set(signs))

    def test_ties_and_exact_intervals(self):
        half = interval(Fraction(1, 2), Fraction(1, 2), U([-1, 2]))
        other = interval(Fraction(1, 2), Fraction(1, 2), U([-5, 9, 2]))  # (2x - 1)(x + 5)
        third = interval(Fraction(1, 3), Fraction(1, 3), U([-1, 3]))
        assert self._same(half, other) == 0
        assert self._same(half, third) == 1 and self._same(third, half) == -1
        sqrt_half = interval(Fraction(0), Fraction(1), U([-1, 0, 2]))
        assert self._same(half, sqrt_half) == -1 and self._same(sqrt_half, half) == 1

    def test_low_end_is_a_root(self):
        # 2x - 1 on [1/2, 5/3]: its low end is the root, so the interval is
        # built exact
        low_root = interval(Fraction(1, 2), Fraction(5, 3), U([-1, 2]))
        assert low_root.is_exact() and low_root.low == Fraction(1, 2)
        for hi, q, want in ((2, [-3, 8], 1), (2, [-7, 8], -1), (1, [-5, 9, 2], 0),
                            (2, [-2, 0, 1], -1)):
            other = interval(Fraction(0), Fraction(hi), U(q))
            assert self._same(low_root, other) == want, q
            assert self._same(other, low_root) == -want, q
            # round by round: the same rounds decide, or both run out
            for max_iter in (1, 2, 3):
                self._same(low_root, other, max_iter)
                self._same(other, low_root, max_iter)

    def test_shared_roots(self):
        # (x^2 - 2)(x - 1) against (x^2 - 2)(x + 3): the roots +-sqrt 2 of
        # both sides are decided by the gcd check
        roots1, roots2 = isolate(U([2, -2, -1, 1])), isolate(U([-6, -2, 3, 1]))
        got = [[self._same(a, b) for b in roots2] for a in roots1]
        assert got == [[1, 0, -1], [1, 1, -1], [1, 1, 0]]

    def test_max_iter_raise(self):
        # sqrt 2 and sqrt 2 + 2^-300 are never told apart in 50 rounds, and
        # share no root
        c = Fraction(1, 1 << 300)
        a = isolate(U([-2, 0, 1]))[1]
        b = isolate(UPoly([c * c - 2, -2 * c, 1], "x"))[1]
        with pytest.raises(UnorderedRootsError, match="could not order"):
            _cmp(a, b)
        assert self._same(a, b) is None
        assert self._same(a, b, max_iter=70) == -1
        # the raise names the pair: -sqrt 2 < 1 < sqrt 2, then sqrt 2 against b
        with pytest.raises(UnorderedRootsError) as e:
            RootMerge(isolate(U([-2, 0, 1])), [isolate(U([-1, 1]))[0], b])
        assert (e.value.i, e.value.k) == (1, 1)

    def test_random_root_lists(self):
        rng = random.Random(1903)
        signs = {-1: 0, 0: 0, 1: 0}
        for _ in range(150):
            shared = [rng.randint(-9, 9) for _ in range(rng.randint(0, 2))]
            ps = []
            for _ in range(2):
                p = U([rng.randint(-5, 5) or 1, 0, 1])
                for r in shared + [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))]:
                    p = upoly_mul(p, UPoly([-r, 1], "x"))
                ps.append(p)
            for a in isolate(ps[0]):
                for b in isolate(ps[1]):
                    signs[self._same(a, b)] += 1
                    for max_iter in (1, 2, 3):
                        self._same(a, b, max_iter)
        assert min(signs.values()) >= 50, signs


class TestWitnessPair:
    @staticmethod
    def _check(dec):
        """Each base root j lies strictly between its witnesses w1 < w2, by
        exact signs, and the isolating intervals of its neighbours, which
        hold every other base root, lie outside [w1, w2]; the witnesses hug
        root j within gap / 2^40, and they are the last rung's pair of the
        ladder."""
        ints = dec.base_poly.coeffs
        roots = dec.base_roots
        exact = 0
        for j, r in enumerate(roots):
            w1, w2 = _witnesses(dec, j)
            s1, s2 = (_sign_at(ints, *w.as_integer_ratio()) for w in (w1, w2))
            assert s1 != 0 and s2 != 0, j
            assert j == 0 or roots[j - 1].high < w1, j
            assert j + 1 == len(roots) or w2 < roots[j + 1].low, j
            left = r.low - roots[j - 1].high if j > 0 else Fraction(1)
            right = roots[j + 1].low - r.high if j + 1 < len(roots) else Fraction(1)
            bound = min(left, right, Fraction(1)) / (1 << 40)
            iv = r.refine(bound)
            if iv.is_exact():
                # a rational root v, given or hit by bisection: exactly v -+ bound,
                # the one base root in [w1, w2]
                v = iv.low
                assert _sign_at(ints, *v.as_integer_ratio()) == 0, j
                assert (w1, w2) == (v - bound, v + bound), j
                assert count_roots_by_sturm(dec.base_poly, w1, w2) == 1, j
                exact += 1
            else:
                assert r.low <= w1 < w2 <= r.high and s1 != s2 and w2 - w1 < bound, j
            assert (w1, w2) == witnesses_from_coarse(dec, j, LADDER[-1]), j
        return exact

    def test_reference_decompositions(self, atlas_pp):
        for dec in (atlas_pp.wa.dec_fine, atlas_pp.ja.dec):
            assert len(dec.base_roots) >= 5
            self._check(dec)

    def test_exact_rational_base_roots(self):
        # the unit circle's base roots +-1 are rational, and so is the line u = 1/2
        assert self._check(decompose([P("u^2+v^2-1"), P("2*v-u")], "u", "v")) >= 2
        dec = decompose([P("2*u-1"), P("u^2+2*v^2-2*u*v-3")], "u", "v")
        assert Fraction(1, 2) in [r.low for r in dec.base_roots if r.is_exact()]
        assert self._check(dec) >= 1


class TestWitnessFibres:
    def test_reference_build_asks_them_curve_by_curve(self, monkeypatch):
        """The 78 witness fibres of a reference build (y = 1/2, mode ++)
        take at most 2,000 splits of the Descartes walk, isolated curve by
        curve (`Decomposition.roots_at`); isolated on the curves' product,
        which bisects two curves' crossing apart some 40 levels deep, they
        took 4,473.  Only the base samples of `decompose` take a fibre
        product: adjacency and `locate` take none."""
        import kinatlas.adjacency as adjacency
        import kinatlas.realroots as realroots
        from kinatlas.cad2d import Decomposition
        from kinatlas.domains import SliceAtlas
        from kinatlas.mechanism import WorkingMode
        inside, splits, fibres, products = [False], [0], [0], [0]
        split, roots_at, fiber_product = (realroots._split, adjacency._roots_at,
                                          Decomposition.fiber_product)

        def counted_split(b):
            splits[0] += inside[0]
            return split(b)

        def counted_roots_at(*args):
            inside[0] = True
            fibres[0] += 1
            try:
                return roots_at(*args)
            finally:
                inside[0] = False

        def counted_product(dec, x0):
            products[0] += 1
            return fiber_product(dec, x0)

        monkeypatch.setattr(realroots, "_split", counted_split)
        monkeypatch.setattr(adjacency, "_roots_at", counted_roots_at)
        monkeypatch.setattr(Decomposition, "fiber_product", counted_product)
        atlas = SliceAtlas.build(MechanismParams(), Fraction(1, 2), WorkingMode(1, 1))
        decs = (atlas.wa.dec_sing, atlas.wa.dec_fine, atlas.ja.dec)
        assert fibres[0] == 2 * sum(len(dec.base_roots) for dec in decs) == 78
        assert 0 < splits[0] <= 2000, splits[0]
        assert products[0] == sum(len(dec.columns) for dec in decs)


class TestHorizontalCrossing:
    def test_matches_segment_oracle_random_conics(self):
        # p(u, c) on [w1, w2] by the pass's specialised test against the
        # substituted restriction of the oracle; a third of the cases are
        # shifted to vanish at an endpoint, a sixth vanish on the whole line
        rng = random.Random(29)
        grid = [Fraction(k, 2) for k in range(-6, 7)]
        v = MPoly.var("v", ("u", "v"))
        kinds = {"endpoint": 0, "identically zero": 0, "crossed": 0, "clear": 0}
        for case in range(300):
            c = rng.choice(grid)
            w1, w2 = sorted(rng.sample(grid, 2))
            p = _rand_conic(rng)
            if case % 6 == 0:
                p = (v - c) * (MPoly.var("u", ("u", "v")) + rng.randint(-3, 3))
            elif case % 3 == 1:
                w = w1 if rng.random() < 0.5 else w2
                p = p - MPoly.const(p.eval({"u": w, "v": c}), ("u", "v"))
            if p.is_zero():
                continue
            got = has_root_in(bind(int_rows(p, "u", "v"), c, "u"), w1, w2)
            want = segment_crosses([p], (w1, c), (w2, c))
            assert got == want, (str(p), c, w1, w2)
            u = restrict_to_segment(p, (w1, c), (w2, c))
            if u.is_zero():
                kinds["identically zero"] += 1
            elif upoly_eval(u, 0) == 0 or upoly_eval(u, 1) == 0:
                kinds["endpoint"] += 1
            else:
                kinds["crossed" if want else "clear"] += 1
        assert all(n >= 10 for n in kinds.values()), kinds


class TestEdgeInvariance:
    def test_reference_slice_edges_keep_sign_vectors(self, atlas_pp):
        # every edge the pass returns without the cut phi = pi joins two
        # cells with the same sign vector over its variety
        ws, wa = atlas_pp.ws, atlas_pp.wa
        sing = [ws.serial[0], ws.serial[1], ws.parallel]
        fine = sing + [wa.sc]
        g_s = build_graph(wa.dec_sing, sing)
        g_f, g_fs = build_graphs(wa.dec_fine, [fine, sing])
        checked = 0
        for dec, g, variety, final in ((wa.dec_sing, g_s, sing, wa.graph_sing),
                                       (wa.dec_fine, g_f, fine, wa.graph_fine),
                                       (wa.dec_fine, g_fs, sing, wa.graph_fine_sing)):
            assert g.edges
            for a, b in g.edges:
                sa = [dec.sign_at_sample(p, a) for p in variety]
                sb = [dec.sign_at_sample(p, b) for p in variety]
                assert 0 not in sa and sa == sb, (a, b)
                checked += 1
            # the cut adds only edges from bottom to top of a column
            wrap = {(col[0].id, col[-1].id) for col in dec.columns}
            assert set(g.edges) <= set(final.edges)
            assert set(final.edges) - set(g.edges) <= wrap
        assert checked > 0
