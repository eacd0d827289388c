import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from kinatlas.ratpoly import MPoly, UPoly, squarefree_total
from kinatlas.realroots import isolate
from kinatlas.mechanism import (
    MechanismParams, WorkingMode, dk_count_chart, rationalize,
    inverse_kinematics, Pose, slice_jointspace, slice_workspace,
)
from kinatlas.domains import (
    basic_regions, count_atlas, uniqueness_domains, cusp_points,
    DomainError, JointAnalysis, RegionSet, SliceAtlas, WorkspaceAnalysis,
)
from kinatlas.adjacency import AdjacencyGraph, build_graph, components
from kinatlas.cad2d import decompose
from kinatlas.trajectory import Trajectory, track_branches

from oracles import MODES, SLICES, cusp_eliminants_in_u, maximal_domains, midpoint

PARAMS = MechanismParams()
MODE = WorkingMode(1, 1)
_X = MPoly.var("x", ("x", "tphi"))
_R = MPoly.var("r", ("r", "c3"))


def _toy_slice(fine_variety, joint_variety):
    """A workspace whose fine cells are x < 0 and x > 0 (one aspect, every
    cell reachable) and a joint chart whose cells are r < 0 and r > 0, with
    the chart image (x, tphi) -> (r, c3) = (x, tphi) and one pose over each
    chart point (leg-1 fibre tphi, for `count_atlas`).  The varieties given
    decide which cells are adjacent on each side."""
    ws = SimpleNamespace(parallel=MPoly.const(1, ("x", "tphi")),
                         ik_count=lambda x, t: 4, chart_image=lambda x, t: (x, t),
                         fibre=MPoly.var("tphi", ("tphi", "r", "c3")))
    dec_sing = decompose([], "x", "tphi")
    dec_fine = decompose([_X], "x", "tphi")
    wa = WorkspaceAnalysis(ws=ws, sc=None, dec_sing=dec_sing,
                           graph_sing=build_graph(dec_sing, []), dec_fine=dec_fine,
                           graph_fine=build_graph(dec_fine, fine_variety),
                           graph_fine_sing=build_graph(dec_fine, []))
    dec_joint = decompose([_R], "r", "c3")
    ja = JointAnalysis(js=None, dec=dec_joint, graph=build_graph(dec_joint, joint_variety))
    aspect = RegionSet(kind="W-aspect", index=(1,), mode=None, cells=frozenset({0}), sign=1)
    return wa, ja, [aspect]


class TestCounts:
    def test_two_w_aspects_per_mode(self, atlas_pp):
        for mode in MODES:
            assert len(atlas_pp.in_mode(mode).aspects) == 2, mode.label

    def test_two_q_aspects(self, atlas_pp):
        assert len(atlas_pp.qaspects) == 2

    def test_two_by_four_generalized_aspects(self, atlas_pp):
        total = sum(len(atlas_pp.in_mode(m).aspects) for m in MODES)
        assert total == 8

    def test_ten_count_regions(self, atlas_pp):
        assert len(atlas_pp.atlas) == 10

    def test_four_cusps(self, atlas_pp):
        assert len(atlas_pp.cusps) == 4

    def test_four_uniqueness_domains_per_mode(self, atlas_pp):
        assert len(atlas_pp.domains) == 4
        # counts are label-independent across modes (same cells)
        assert len(atlas_pp.in_mode(WorkingMode(-1, -1)).domains) == 4


class TestAspects:
    def test_sign_constant_within_aspect(self, atlas_pp):
        dec = atlas_pp.wa.dec_sing
        for a in atlas_pp.aspects:
            signs = {dec.sign_at_sample(atlas_pp.ws.parallel, cid) for cid in a.cells}
            assert signs == {a.sign}
            assert 0 not in signs

    def test_aspects_disjoint_and_nonadjacent(self, atlas_pp):
        seen = set()
        for a in atlas_pp.aspects:
            assert not (a.cells & seen)
            seen |= a.cells
        cells_of = {}
        for i, a in enumerate(atlas_pp.aspects):
            for c in a.cells:
                cells_of[c] = i
        for u, v in atlas_pp.wa.graph_sing.edges:
            if u in cells_of and v in cells_of:
                assert cells_of[u] == cells_of[v]

    def test_empty_variety_single_aspect(self):
        # a slice with no parallel curve in range behaves as one aspect:
        # simulate with the trivial decomposition
        from kinatlas.cad2d import decompose
        from kinatlas.adjacency import build_graph
        dec = decompose([], "x", "tphi")
        g = build_graph(dec, [])
        assert len(components(g)) == 1

    def test_q_aspect_dk_counts_constant(self, atlas_pp):
        # 3 interior samples per aspect-representative joint cell agree
        for a in atlas_pp.qaspects:
            rep = min(a.cells)
            cell = atlas_pp.ja.dec.cells[rep]
            r0, c30 = cell.sample
            base = dk_count_chart(r0, c30, atlas_pp.ws)
            for dr, dc in ((Fraction(1, 97), Fraction(1, 89)),
                           (Fraction(-1, 101), Fraction(1, 93))):
                r1, c31 = r0 + dr / 50, c30 + dc / 50
                if atlas_pp.ja.dec.locate(r1, c31) == rep:
                    assert dk_count_chart(r1, c31, atlas_pp.ws) == base


class TestCharacteristicSurface:
    def test_matches_reference_quartic(self, atlas_pp, sc_quartic):
        qy = sc_quartic.eval({"y": Fraction(1, 2)})
        qr = rationalize(qy).with_vars(("x", "tphi")).canonical()
        ours = atlas_pp.wa.sc.with_vars(("x", "tphi")).canonical()
        assert ours == qr

    def test_excluded_set_recorded(self, atlas_pp):
        assert "phi=pi" in atlas_pp.ws.excluded

    def test_forward_images_on_joint_curve(self, atlas_pp):
        # sampled points of S_c map into the projected parallel curve
        sc = atlas_pp.wa.sc
        prc = atlas_pp.js.parallel_rc
        hits = 0
        xs = [Fraction(n, 16) for n in range(-40, 40)]
        for x0 in xs:
            if hits >= 60:
                break
            s = sc.eval({"x": x0})
            if isinstance(s, Fraction):
                continue
            u = UPoly.from_mpoly(s.with_vars(("tphi",)), "tphi")
            if u.degree < 1:
                continue
            for iv in isolate(u):
                t = midpoint(iv.refine(Fraction(1, 1 << 60)))
                r, c3 = atlas_pp.ws.chart_image(x0, t)
                val = prc.eval({"r": r, "c3": c3})
                scale = max(abs(c) for c in prc.terms.values())
                assert abs(float(val)) / float(scale) < 1e-12
                hits += 1
        assert hits >= 40


class TestBasicRegions:
    def test_partition_each_aspect(self, atlas_pp):
        # basic regions tile the aspects: disjoint, union = aspect cell sets
        # (in the fine decomposition, mapped through the aspect membership)
        by_aspect = {}
        for b in atlas_pp.basics:
            by_aspect.setdefault(b.index[0], set())
            assert not (b.cells & by_aspect[b.index[0]])
            by_aspect[b.index[0]] |= b.cells
        reach_fine = set()
        for comp in components(atlas_pp.wa.graph_fine):
            rep = min(comp)
            c = atlas_pp.wa.dec_fine.cells[rep]
            if atlas_pp.ws.ik_count(c.sample[0], c.sample[1]) > 0:
                reach_fine |= set(comp)
        assert set().union(*by_aspect.values()) == reach_fine

    def test_images_inside_single_q_aspect(self, atlas_pp):
        comps = components(atlas_pp.ja.graph)
        qcells = {a.label: a.cells for a in atlas_pp.qaspects}
        for b in atlas_pp.basics:
            assert len(b.components) == 1, b.label
            (k,) = b.components
            owners = {lab for lab, cells in qcells.items() if comps[k] <= cells}
            assert len(owners) == 1, b.label

    @pytest.mark.parametrize("case", [
        "ref",
        pytest.param("y0_0", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP item 11: squarefree_total drops the line tphi = 0 at y0 = 0, "
                   "and basic_regions skips the 2 reachable count regions no aspect owns")),
        "y0_2", "geom2"])
    def test_one_per_reachable_count_region_on_the_perfbench_slices(self, case, slice_atlas):
        # no reachable count region is dropped: the basic regions are those
        # cell sets, each once
        atlas = slice_atlas(case)
        counted = sorted(sorted(r.cells) for r in atlas.atlas if r.ik_count > 0)
        basic = sorted(sorted(b.cells) for b in atlas.basics)
        assert basic == counted, (len(basic), len(counted))

    def test_one_enumeration_per_build(self, monkeypatch):
        # the fine partition is enumerated once, by count_atlas, and every
        # component of each workspace graph takes one ik_count
        from kinatlas import domains
        from kinatlas.mechanism import WorkspaceSlice
        ik_calls, comp_calls = [], []
        ik_count, comps = WorkspaceSlice.ik_count, domains.components
        monkeypatch.setattr(WorkspaceSlice, "ik_count",
                            lambda ws, x, t: ik_calls.append((x, t)) or ik_count(ws, x, t))
        monkeypatch.setattr(domains, "components",
                            lambda g: comp_calls.append(g) or comps(g))
        atlas = domains.SliceAtlas.build(PARAMS, Fraction(1, 2), MODE)
        wa = atlas.wa
        assert len(ik_calls) == len(comps(wa.graph_sing)) + len(comps(wa.graph_fine)) == 16
        assert sum(g is wa.graph_fine for g in comp_calls) == 1

    def test_region_spanning_two_joint_components_raises(self):
        wa, ja, aspects = _toy_slice(fine_variety=[], joint_variety=[_R])
        with pytest.raises(DomainError, match=r"WAb_1_1 .*\[0, 1\]"):
            basic_regions(wa, ja, count_atlas(wa), aspects)


class TestUniqueness:
    def test_domains_are_unions_of_basics(self, atlas_pp):
        for d in atlas_pp.domains:
            covered = set()
            for b in atlas_pp.basics:
                if b.cells <= d.cells:
                    covered |= b.cells
            assert covered == d.cells

    def test_injectivity_sample_scan(self, atlas_pp):
        # within each uniqueness domain, no two sampled poses share joints
        rng = random.Random(3)
        dec = atlas_pp.wa.dec_fine
        for d in atlas_pp.domains:
            pts = []
            cells = sorted(d.cells)
            for cid in cells:
                cell = dec.cells[cid]
                x, t = float(cell.sample[0]), float(cell.sample[1])
                phi = 2 * math.atan(t)
                try:
                    jv, _ = inverse_kinematics(Pose(x, 0.5, phi), atlas_pp.mode, PARAMS)
                except Exception:
                    continue
                pts.append(((x, phi), (jv.rho1, jv.rho2, jv.rho3)))
                if len(pts) >= 50:
                    break
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    (p1, q1), (p2, q2) = pts[i], pts[j]
                    if max(abs(a - b) for a, b in zip(q1, q2)) < 1e-7:
                        assert max(abs(a - b) for a, b in zip(p1, p2)) < 1e-7


def _oracle_domains(basics, edges):
    """Brute-force domains of `basics`, as sets of region indices."""
    owner = {cid: i for i, b in enumerate(basics) for cid in b.cells}
    adjacent = {(owner[a], owner[b]) for a, b in edges
                if a in owner and b in owner and owner[a] != owner[b]}
    return maximal_domains(adjacent, [b.components for b in basics])


def _members(domains, basics):
    return {frozenset(i for i, b in enumerate(basics) if b.cells <= d.cells)
            for d in domains}


class TestUniquenessEnumeration:
    def test_matches_brute_force_on_random_region_graphs(self):
        rng = random.Random(8)
        rich = 0  # trials with several domains, one of 3+ regions
        for trial in range(300):
            n = rng.randint(1, 7)
            basics = []
            for i in range(n):
                comp = rng.choice([frozenset(), *(frozenset({k}) for k in range(4))])
                # two fine cells per region; cells 100+ belong to no region
                basics.append(RegionSet(kind="basic-region", index=(1, i + 1), mode=None,
                                        cells=frozenset({2 * i, 2 * i + 1}),
                                        sample=(Fraction(i), Fraction(0)), components=comp))
            cells = list(range(2 * n)) + [100, 101]
            edges = sorted({tuple(sorted(rng.sample(cells, 2)))
                            for _ in range(rng.randint(0, 3 * n))})
            wa = SimpleNamespace(graph_fine_sing=AdjacencyGraph(tuple(cells), tuple(edges)))
            got = uniqueness_domains(wa, basics)
            want = _oracle_domains(basics, edges)
            assert _members(got, basics) == want, (trial, edges)
            # labels follow the sorted member lists
            order = [sorted(i for i, b in enumerate(basics) if b.cells <= d.cells)
                     for d in got]
            assert order == sorted(order)
            assert [d.label for d in got] == [f"Wu_{k}" for k in range(1, len(got) + 1)]
            rich += len(want) >= 2 and max(map(len, want)) >= 3
        assert rich >= 30, rich

    def test_reference_slice_matches_brute_force_in_every_mode(self, atlas_pp):
        for mode in MODES:
            atlas = atlas_pp.in_mode(mode)
            want = _oracle_domains(atlas.basics, atlas.wa.graph_fine_sing.edges)
            assert len(atlas.domains) == 4, mode.label
            assert _members(atlas.domains, atlas.basics) == want, mode.label

    def test_same_component_through_different_cells_stays_apart(self):
        # two adjacent basic regions whose images are the two cells r < 0 and
        # r > 0 of one joint component: they share that component, so no
        # domain holds both (disjoint joint *cell* sets would have merged them)
        wa, ja, aspects = _toy_slice(fine_variety=[_X], joint_variety=[])
        basics = basic_regions(wa, ja, count_atlas(wa), aspects)
        assert [b.components for b in basics] == [frozenset({0})] * 2
        images = [{ja.dec.locate(*c.sample) for c in wa.dec_fine.cells if c.id in b.cells}
                  for b in basics]
        assert images == [{0}, {1}]
        assert wa.graph_fine_sing.edges == ((0, 1),)
        domains = uniqueness_domains(wa, basics)
        assert [d.cells for d in domains] == [frozenset({0}), frozenset({1})]


def _labelled(atlas: SliceAtlas) -> dict:
    """A slice atlas's regions, basic regions and singular points, in
    `to_json` form."""
    return {
        "aspects": [a.to_json() for a in atlas.aspects],
        "qaspects": [a.to_json() for a in atlas.qaspects],
        "basics": [(b.to_json(), b.index[0], sorted(b.components))
                   for b in atlas.basics],
        "domains": [d.to_json() for d in atlas.domains],
        "atlas": [r.to_json() for r in atlas.atlas],
        "singular_points": [p.to_json() for p in atlas.singular_points],
    }


_MODE_CASES = [("ref", m) for m in MODES] + [
    (case, WorkingMode(-1, -1)) for case in ("y0_0", "y0_2", "geom2")]


class TestWorkingModes:
    """The `SliceAtlas` docstring's claim: the cells do not depend on the
    working mode, so a slice's atlas renamed by `in_mode` equals a fresh
    build in that mode, and so does the Fig. 10 verdict on it."""

    @pytest.mark.parametrize("case,mode", _MODE_CASES,
                             ids=[f"{case}-{mode.label}" for case, mode in _MODE_CASES])
    def test_relabelled_atlas_equals_a_fresh_build(self, case, mode, slice_atlas):
        got = slice_atlas(case).in_mode(mode)
        fresh = SliceAtlas.build(*SLICES[case], mode)
        assert got.mode == fresh.mode == mode
        assert _labelled(got) == _labelled(fresh)
        if case == "ref":
            fig10 = ((-1.0, 1.0), (0.0, 0.5), (1.0, -1.0), (0.5, -2.0))
            traj = Trajectory(y0=Fraction(1, 2), mode=mode, waypoints=fig10)
            assert track_branches(traj, PARAMS, got).to_json() == \
                track_branches(traj, PARAMS, fresh).to_json()

    def test_renaming_runs_no_geometry(self, atlas_pp, monkeypatch):
        # with point location, graph components and both solution counts
        # raising, `in_mode` still gives each other mode's fresh build
        from kinatlas import domains
        from kinatlas.cad2d import Decomposition
        from kinatlas.mechanism import WorkspaceSlice
        modes = [m for m in MODES if m != atlas_pp.mode]
        fresh = {m: _labelled(SliceAtlas.build(PARAMS, Fraction(1, 2), m)) for m in modes}

        def geometry(*args):
            raise AssertionError("in_mode ran a geometry kernel")
        for owner, name in ((Decomposition, "locate"), (domains, "components"),
                            (domains, "dk_count_chart"), (WorkspaceSlice, "ik_count")):
            monkeypatch.setattr(owner, name, geometry)
        for m in modes:
            got = atlas_pp.in_mode(m)
            assert got.mode == m
            assert _labelled(got) == fresh[m], m.label


class TestCusps:
    def test_classification(self, atlas_pp):
        kinds = sorted(p.kind for p in atlas_pp.singular_points)
        assert kinds.count("cusp") == 4
        assert all(k in ("cusp", "node", "isolated") for k in kinds)

    def test_each_root_refined_once_below_the_width(self, atlas_pp, monkeypatch):
        # one refinement per r-root and per u-root, not one per pair; each
        # box side is bisection's last interval above width 2^-40
        from kinatlas.realroots import IsolatingInterval
        refine = IsolatingInterval.refine
        calls = []
        monkeypatch.setattr(IsolatingInterval, "refine",
                            lambda iv, w: calls.append(w) or refine(iv, w))
        points = cusp_points(atlas_pp.js)
        assert [(p.r_box, p.u_box, p.kind) for p in points] == \
            [(p.r_box, p.u_box, p.kind) for p in atlas_pp.singular_points]
        w = Fraction(1, 1 << 40)
        assert calls.count(w) == 2 + 6     # r-roots and u-roots, not 2 x 6 pairs
        for p in points:
            for lo, hi in (p.r_box, p.u_box):
                assert lo == hi or w / 2 <= hi - lo < w

    # a known wrong result, pinned: at these slices boxes of width 2^-40
    # leave the Hessian sign of the two nodes undecided (and at 299/100 keep
    # spurious pairs), and an undecided point is labelled "cusp"
    @pytest.mark.xfail(strict=True, reason="cusp_points labels every point whose "
                       "2^-40 box leaves the Hessian sign undecided a cusp")
    @pytest.mark.parametrize("y0", [Fraction(29, 10), Fraction(299, 100)])
    def test_four_cusps_and_two_nodes_at_the_default_width(self, y0):
        js = slice_jointspace(slice_workspace(y0, PARAMS))
        assert sorted(p.kind for p in cusp_points(js)) == ["cusp"] * 4 + ["node"] * 2

    @pytest.mark.parametrize("y0", [Fraction(29, 10), Fraction(299, 100)])
    def test_four_cusps_and_two_nodes_at_width_2_to_the_minus_80(self, y0, monkeypatch):
        from kinatlas import domains
        js = slice_jointspace(slice_workspace(y0, PARAMS))
        monkeypatch.setattr(domains, "_CUSP_WIDTH", Fraction(1, 1 << 80))
        points = cusp_points(js)
        assert sorted(p.kind for p in points) == ["cusp"] * 4 + ["node"] * 2

    # two isolated points at r = 13.1434, u = +-1 of a non-default geometry
    _ISOLATED = MechanismParams(l2=Fraction(11, 4), l3=Fraction(2), a=Fraction(7, 4),
                                b=Fraction(3, 4))

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 8: cusp_points labels every "
                       "point whose 2^-40 box leaves the Hessian sign undecided a cusp")
    def test_two_isolated_points_at_the_default_width(self):
        js = slice_jointspace(slice_workspace(Fraction(15, 8), self._ISOLATED))
        assert [p.kind for p in cusp_points(js)] == ["isolated"] * 2

    def test_two_isolated_points_at_width_2_to_the_minus_80(self, monkeypatch):
        from kinatlas import domains
        js = slice_jointspace(slice_workspace(Fraction(15, 8), self._ISOLATED))
        monkeypatch.setattr(domains, "_CUSP_WIDTH", Fraction(1, 1 << 80))
        points = cusp_points(js)
        assert [p.kind for p in points] == ["isolated"] * 2
        assert [(round(r, 4), u) for r, u in (p.center() for p in points)] == \
            [(13.1434, -1.0), (13.1434, 1.0)]

    # the slices whose singular points the w = u^2 route must find as the
    # u route did: the perfbench slices, y0 = 29/10 and 299/100, and the
    # geometry with two isolated points
    @pytest.mark.parametrize("params,y0", [
        *(SLICES[case] for case in ("ref", "y0_0", "y0_2", "geom2")),
        (PARAMS, Fraction(29, 10)), (PARAMS, Fraction(299, 100)), (_ISOLATED, Fraction(15, 8))],
        ids=["ref", "y0_0", "y0_2", "geom2", "y0_29_10", "y0_299_100", "isolated"])
    def test_eliminants_in_w_have_the_squarefree_parts_of_those_in_u(self, params, y0):
        from kinatlas.domains import _cusp_eliminants
        js = slice_jointspace(slice_workspace(y0, params))
        got = _cusp_eliminants(js.parallel_ru.with_vars(("r", "u")))
        want = cusp_eliminants_in_u(js)
        for g, w, v in zip(got, want, ("r", "u")):
            sg = UPoly.from_mpoly(g.with_vars((v,)), v).squarefree()
            assert sg.degree >= 1
            assert sg == UPoly.from_mpoly(w.with_vars((v,)), v).squarefree()

    def test_no_resultant_above_degree_8_in_u_at_the_reference_slice(self, atlas_pp, monkeypatch):
        from kinatlas import domains
        degrees = []
        real = domains.resultant

        def counting(p, q, elim):
            degrees.append(max(p.degree("u"), p.degree("w"), q.degree("u"), q.degree("w")))
            return real(p, q, elim)
        monkeypatch.setattr(domains, "resultant", counting)
        points = cusp_points(atlas_pp.js)
        assert [(p.r_box, p.u_box, p.kind) for p in points] == \
            [(p.r_box, p.u_box, p.kind) for p in atlas_pp.singular_points]
        assert len(degrees) == 4 and max(degrees) == 8

    def test_odd_power_of_u_is_rejected(self):
        from kinatlas.mechanism import JointSlice
        vs = ("r", "u")
        r, u = MPoly.var("r", vs), MPoly.var("u", vs)
        curve = (r - 2) ** 2 + u ** 4 - 3 * u ** 2 + u ** 3 - 1
        js = JointSlice(ws=slice_workspace(Fraction(1, 2), PARAMS),
                        parallel_rc=_R, parallel_ru=curve, serial_rc=())
        with pytest.raises(DomainError, match=r"not even in u: .*u\^3"):
            cusp_points(js)

    def test_smooth_conic_no_cusps(self):
        # a smooth curve has no singular points at all
        from kinatlas.mechanism import JointSlice
        vs = ("r", "u")
        circle = MPoly.var("r", vs) ** 2 + MPoly.var("u", vs) ** 2 - 1
        rc = (MPoly.var("r", ("r", "c3")) ** 2 + MPoly.var("c3", ("r", "c3")) ** 2 - 1)
        js = JointSlice(ws=slice_workspace(Fraction(1, 2), PARAMS),
                        parallel_rc=rc, parallel_ru=circle, serial_rc=())
        assert cusp_points(js) == []

    def test_cusp_projections_meet_sc_parallel_intersections(self, atlas_pp):
        # workspace intersections of S_c with the parallel curve map onto
        # the cusps (within 1e-6)
        ws = atlas_pp.ws
        sc = atlas_pp.wa.sc
        pw = ws.parallel
        from kinatlas.ratpoly import resultant
        rx = resultant(sc.with_vars(("x", "tphi")), pw.with_vars(("x", "tphi")), "tphi")
        targets = []
        for c in atlas_pp.cusps:
            r = (float(c.r_box[0]) + float(c.r_box[1])) / 2
            u = (float(c.u_box[0]) + float(c.u_box[1])) / 2
            targets.append((r, (1 - u * u) / (1 + u * u)))
        found = set()
        for iv in isolate(UPoly.from_mpoly(squarefree_total(rx).with_vars(("x",)), "x")):
            x0 = midpoint(iv.refine(Fraction(1, 1 << 50)))
            s = pw.eval({"x": x0})
            if isinstance(s, Fraction):
                continue
            u = UPoly.from_mpoly(s.with_vars(("tphi",)), "tphi")
            if u.degree < 1:
                continue
            for tiv in isolate(u):
                t = midpoint(tiv.refine(Fraction(1, 1 << 50)))
                val = sc.eval({"x": x0, "tphi": t})
                # keep only genuine intersections
                den = (1 + t * t) ** sc.degree("tphi")
                if abs(float(val) / float(den)) > 1e-10:
                    continue
                r, c3 = ws.chart_image(x0, t)
                for i, (rt, ct) in enumerate(targets):
                    if abs(float(r) - rt) < 1e-6 and abs(float(c3) - ct) < 1e-6:
                        found.add(i)
        assert found == set(range(4))


class TestAtlasCounts:
    def test_region_counts_constant_across_samples(self, atlas_pp):
        # per count-region, 3 distinct cell samples give identical counts
        dec = atlas_pp.wa.dec_fine
        for r in atlas_pp.atlas:
            cells = sorted(r.cells)[:3]
            iks = set()
            dks = set()
            for cid in cells:
                c = dec.cells[cid]
                ik = atlas_pp.ws.ik_count(c.sample[0], c.sample[1])
                iks.add(ik)
                if ik:
                    img = atlas_pp.ws.chart_image(c.sample[0], c.sample[1])
                    dks.add(dk_count_chart(img[0], img[1], atlas_pp.ws))
                else:
                    dks.add(0)
            assert len(iks) == 1 and len(dks) == 1

    def test_unreachable_regions_have_zero_ik(self, atlas_pp):
        zeros = [r for r in atlas_pp.atlas if r.ik_count == 0]
        assert len(zeros) == 4
        for r in zeros:
            assert r.dk_count == 0

    def test_ik_count_four_inside(self, atlas_pp):
        for r in atlas_pp.atlas:
            assert r.ik_count in (0, 4)


class TestSingularImages:
    def test_fold_at_projected_singular_joints(self, atlas_pp):
        # sample the parallel curve in the workspace, push to the joint
        # chart: the witnessing pose is a critical (folding) solution of the
        # chart fiber system there, i.e. the solution where assembly modes
        # coalesce: both the fiber eliminant and its derivative vanish
        import math
        ws = atlas_pp.ws
        pw = ws.parallel
        l3, a, b = PARAMS.l3, PARAMS.a, PARAMS.b
        y0 = ws.y0

        def fiber_eliminant(r, c3):
            t = MPoly.var("t")
            one = MPoly.const(1, ("t",))
            op = one + t * t
            om = one - t * t
            xn = l3 * c3 * op - b * om
            e = (xn - a * om) ** 2 + (y0 * op - a * 2 * t) ** 2 - r * op * op
            return UPoly.from_mpoly(e.with_vars(("t",)), "t")

        hits = 0
        for k in range(-40, 41):
            if hits >= 25:
                break
            x0 = Fraction(k, 16)
            sxy = pw.eval({"x": x0})
            if isinstance(sxy, Fraction):
                continue
            u = UPoly.from_mpoly(sxy.with_vars(("tphi",)), "tphi")
            if u.degree < 1:
                continue
            for tv in isolate(u):
                tm = midpoint(tv.refine(Fraction(1, 1 << 60)))
                r, c3 = ws.chart_image(x0, tm)
                uu = fiber_eliminant(r, c3)
                cs, x = [float(c) for c in uu.coeffs], float(tm)
                scale = max(map(abs, cs))
                v = abs(sum(c * x ** i for i, c in enumerate(cs))) / scale
                dv = abs(sum(i * c * x ** (i - 1) for i, c in enumerate(cs) if i)) / scale
                assert v < 1e-6 and dv < 1e-6, f"x={float(x0)}: U={v:.2e} U'={dv:.2e}"
                hits += 1
        assert hits >= 20
