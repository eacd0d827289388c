"""Aspects, characteristic surfaces, basic regions, uniqueness domains,
and solution-count atlases on 2D slices.

The workspace slice (x, tphi) is decomposed against the serial reach
boundaries and the parallel-singularity curve; refining by the
characteristic surface yields the count regions (`count_atlas`), and the
reachable ones are the basic regions.  Each basic region carries the
id of the joint-chart component (connected piece of the complement of the
joint curves) that the images of its cells lie in.  Uniqueness domains are
the maximal connected unions of basic regions whose components are
pairwise different, and every one of them is enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .ratpoly import MPoly, UPoly, RatPolyError, exact_div, squarefree_total, mgcd, resultant
from .realroots import isolate
from .cad2d import Decomposition, decompose, interval_eval
from .adjacency import AdjacencyGraph, build_graph, build_graphs, components
from .mechanism import (
    MechanismParams, WorkingMode, WorkspaceSlice, JointSlice,
    slice_workspace, slice_jointspace, dk_count_chart,
)


class DomainError(Exception):
    pass


# the label prefix of each kind of region
_PREFIX = {"count-region": "R", "W-aspect": "WA", "Q-aspect": "QA", "basic-region": "WAb",
           "uniqueness-domain": "Wu"}


@dataclass(frozen=True)
class RegionSet:
    """A union of cells from one decomposition, labelled by its kind, its
    working mode unless None, and its index: WA_pp_2 is the second W-aspect
    in mode (+,+), WAb_pp_1_3 the third basic region of aspect 1, R_4 a
    count region, and Wu_2 a uniqueness domain no mode has named yet."""

    kind: str                      # a key of _PREFIX
    index: tuple[int, ...]
    mode: WorkingMode | None
    cells: frozenset[int]
    ik_count: int | None = None
    dk_count: int | None = None
    sample: tuple[Fraction, Fraction] | None = None
    sign: int | None = None        # sign of the parallel polynomial
    components: frozenset[int] = frozenset()   # a basic region's joint components

    @property
    def label(self) -> str:
        mode = [self.mode.label] if self.mode else []
        return "_".join([_PREFIX[self.kind], *mode, *map(str, self.index)])

    def to_json(self) -> dict:
        d = {
            "label": self.label,
            "kind": self.kind,
            "mode": [self.mode.s2, self.mode.s3] if self.mode else None,
            "cells": sorted(self.cells),
        }
        if self.ik_count is not None:
            d["ik_count"] = self.ik_count
        if self.dk_count is not None:
            d["dk_count"] = self.dk_count
        if self.sample is not None:
            d["sample"] = [f"{q.numerator}/{q.denominator}" for q in self.sample]
        return d


# ---------------------------------------------------------------------------
# workspace-side analysis


@dataclass
class WorkspaceAnalysis:
    """Decompositions and adjacency of one workspace slice, cached."""

    ws: WorkspaceSlice
    sc: MPoly                      # characteristic surface
    dec_sing: Decomposition        # serial + parallel only
    graph_sing: AdjacencyGraph
    dec_fine: Decomposition        # + characteristic surface
    graph_fine: AdjacencyGraph
    graph_fine_sing: AdjacencyGraph  # fine cells, singularity-only variety


def characteristic_surface(js: JointSlice) -> MPoly:
    """Pseudo-singularity curve: the preimage of the projected parallel
    curve `js.parallel_rc` under the joint map of the slice `js.ws`, with
    the parallel (diagonal) factor and chart denominators divided out."""
    ws = js.ws
    t = MPoly.var("tphi", ("x", "tphi"))
    op = 1 + t * t
    # c3 = c3_num / (l3 (1 + t^2)), then r = rho1sq_num / (1 + t^2)^2: c3
    # first leaves the smaller intermediate
    acc = js.parallel_rc.substitute({"c3": ws.c3_num}, ws.params.l3 * op).substitute(
        {"r": ws.rho1sq_num}, op * op)
    if acc.is_zero():
        raise DomainError("degenerate doubling: preimage vanished identically")
    sc = acc.canonical()
    for factor in (ws.parallel, op):
        while True:
            try:
                sc = exact_div(sc, factor).canonical()
            except RatPolyError:     # factor no longer divides
                break
    return squarefree_total(sc).canonical()


def analyze_workspace(js: JointSlice) -> WorkspaceAnalysis:
    """Decompositions and graphs of `js.ws`; the fine ones add the
    characteristic surface of `js`."""
    ws = js.ws
    sc = characteristic_surface(js)
    sing = [ws.serial[0], ws.serial[1], ws.parallel]
    dec_s = decompose(sing, "x", "tphi")
    g_s = build_graph(dec_s, sing, wrap=True)
    fine = sing + [sc]
    dec_f = decompose(fine, "x", "tphi")
    g_f, g_fs = build_graphs(dec_f, [fine, sing], wrap=True)
    return WorkspaceAnalysis(ws=ws, sc=sc, dec_sing=dec_s, graph_sing=g_s,
                             dec_fine=dec_f, graph_fine=g_f, graph_fine_sing=g_fs)


def w_aspects(wa: WorkspaceAnalysis) -> list[RegionSet]:
    """Maximal singularity-free workspace regions, grouped by the sign of
    the parallel polynomial."""
    dec = wa.dec_sing
    out = []
    for comp in components(wa.graph_sing):
        rep = min(comp)
        cell = dec.cells[rep]
        if wa.ws.ik_count(*cell.sample) == 0:
            continue
        out.append(RegionSet(
            kind="W-aspect", index=(len(out) + 1,), mode=None, cells=frozenset(comp),
            sample=cell.sample, sign=dec.sign_at_sample(wa.ws.parallel, rep)))
    return out


# ---------------------------------------------------------------------------
# joint-side analysis


@dataclass
class JointAnalysis:
    js: JointSlice
    dec: Decomposition             # (r, c3) chart arrangement
    graph: AdjacencyGraph


def analyze_jointspace(js: JointSlice) -> JointAnalysis:
    polys = [js.parallel_rc] + list(js.serial_rc)
    dec = decompose(polys, "r", "c3")
    g = build_graph(dec, polys)
    return JointAnalysis(js=js, dec=dec, graph=g)


def q_aspects(ja: JointAnalysis) -> list[RegionSet]:
    """Maximal singularity-free joint-chart regions: components of the
    complement carrying direct-kinematics solutions (poses of the slice
    `ja.js.ws`)."""
    out = []
    for comp in components(ja.graph):
        rep = min(comp)
        cell = ja.dec.cells[rep]
        r, c3 = cell.sample
        if r <= 0 or abs(c3) >= 1:
            continue
        dk = dk_count_chart(r, c3, ja.js.ws)
        if dk == 0:
            continue
        out.append(RegionSet(
            kind="Q-aspect", index=(len(out) + 1,), mode=None, cells=frozenset(comp),
            sample=cell.sample, dk_count=dk))
    return out


# ---------------------------------------------------------------------------
# basic regions, components, uniqueness domains


def basic_regions(wa: WorkspaceAnalysis, ja: JointAnalysis, atlas: list[RegionSet],
                  aspects: list[RegionSet]) -> list[RegionSet]:
    """Connected pieces of each aspect after refining by the characteristic
    surface, the reachable regions of `atlas` (`count_atlas(wa)`), indexed
    (aspect, k), with the joint component their image lies in."""
    dec = wa.dec_fine
    joint_comp = {cid: k for k, comp in enumerate(components(ja.graph)) for cid in comp}
    out: list[RegionSet] = []
    for r in atlas:
        if r.ik_count == 0:
            continue
        loc = wa.dec_sing.locate(*r.sample)
        # signs differ at y0 = 0, where samples lie on the line tphi = 0 the passes drop
        owner = next((a for a in aspects if a.sign == r.sign and loc in a.cells), None)
        if owner is None:
            continue
        image = set()
        for cid in r.cells:
            jc = ja.dec.locate(*wa.ws.chart_image(*dec.cells[cid].sample))
            if jc is not None:  # None: the image lies on a joint curve
                image.add(joint_comp[jc])
        a = owner.index[0]
        basic = RegionSet(kind="basic-region", index=(a, 1 + sum(b.index[0] == a for b in out)),
                          mode=None, cells=r.cells, sample=r.sample, components=frozenset(image))
        if len(image) > 1:
            raise DomainError(f"basic region {basic.label} maps into joint components "
                              f"{sorted(image)}, not one")
        out.append(basic)
    return out


def uniqueness_domains(wa: WorkspaceAnalysis, basics: list[RegionSet]) -> list[RegionSet]:
    """Every maximal connected union of basic regions whose images are
    pairwise different joint components.

    Two regions are adjacent when some of their cells are adjacent in
    `graph_fine_sing`, the fine cells' graph with the characteristic surface
    ignored.  Each connected admissible set
    is grown one admissible neighbour at a time, so every one is visited; a
    set with no admissible neighbour is maximal, since any admissible
    connected superset would contain one."""
    owner = {cid: i for i, b in enumerate(basics) for cid in b.cells}
    nbrs: list[set[int]] = [set() for _ in basics]
    for a, b in wa.graph_fine_sing.edges:
        ia, ib = owner.get(a), owner.get(b)
        if ia is not None and ib is not None and ia != ib:
            nbrs[ia].add(ib)
            nbrs[ib].add(ia)
    visited: set[frozenset[int]] = set()
    maximal: list[frozenset[int]] = []

    def grow(group: frozenset[int], used: frozenset[int]):
        if group in visited:
            return
        visited.add(group)
        grown = False
        for j in set().union(*(nbrs[i] for i in group)) - group:
            if used.isdisjoint(basics[j].components):
                grow(group | {j}, used | basics[j].components)
                grown = True
        if not grown:
            maximal.append(group)

    for i, b in enumerate(basics):
        grow(frozenset({i}), b.components)
    out = []
    for k, g in enumerate(sorted(maximal, key=sorted), 1):
        out.append(RegionSet(
            kind="uniqueness-domain", index=(k,), mode=None,
            cells=frozenset().union(*(basics[i].cells for i in g)), sample=basics[min(g)].sample))
    return out


# ---------------------------------------------------------------------------
# count atlas and cusps


def count_atlas(wa: WorkspaceAnalysis) -> list[RegionSet]:
    """Connected regions of the refined slice with IK and DK counts;
    unreachable regions carry zero counts."""
    dec, ws = wa.dec_fine, wa.ws
    out = []
    for idx, comp in enumerate(components(wa.graph_fine), 1):
        rep = min(comp)
        sample = dec.cells[rep].sample
        ik = ws.ik_count(*sample)
        dk = dk_count_chart(*ws.chart_image(*sample), ws) if ik else 0
        out.append(RegionSet(
            kind="count-region", index=(idx,), mode=None,
            cells=frozenset(comp), ik_count=ik, dk_count=dk, sample=sample,
            sign=dec.sign_at_sample(ws.parallel, rep)))
    return out


@dataclass(frozen=True)
class CuspPoint:
    r_box: tuple[Fraction, Fraction]
    u_box: tuple[Fraction, Fraction]
    kind: str = "cusp"             # cusp | node | isolated

    def center(self) -> tuple[float, float]:
        return (float((self.r_box[0] + self.r_box[1]) / 2),
                float((self.u_box[0] + self.u_box[1]) / 2))

    def to_json(self) -> dict:
        f = lambda q: f"{q.numerator}/{q.denominator}"
        return {"r": [f(self.r_box[0]), f(self.r_box[1])],
                "u": [f(self.u_box[0]), f(self.u_box[1])],
                "kind": self.kind,
                "rho1": (float(self.r_box[0]) ** 0.5 + float(self.r_box[1]) ** 0.5) / 2}


# each root of a cusp box is refined below this width, and the box widened by it
_CUSP_WIDTH = Fraction(1, 1 << 40)


def cusp_points(js: JointSlice) -> list[CuspPoint]:
    """Singular points of the projected parallel curve in the (r, u) chart,
    by bivariate elimination in w = u^2 (`_cusp_eliminants`), isolation, and
    interval-verified pairing on boxes of roots refined below `_CUSP_WIDTH`."""
    P = js.parallel_ru.with_vars(("r", "u"))
    Pr = P.diff("r")
    Pu = P.diff("u")
    if Pr.is_zero() or Pu.is_zero():
        raise DomainError("non-isolated singular locus")
    gr, gu = _cusp_eliminants(P)
    if gr.is_zero() or gu.is_zero():
        raise DomainError("non-isolated singular locus")
    if gr.is_constant() or gu.is_constant():
        return []
    rroots = isolate(UPoly.from_mpoly(gr.with_vars(("r",)), "r"))
    uroots = isolate(UPoly.from_mpoly(gu.with_vars(("u",)), "u"))
    hess = Pr.diff("r") * Pu.diff("u") - Pr.diff("u") ** 2
    out = []
    w = _CUSP_WIDTH
    rboxes = [ri.refine(w) for ri in rroots]
    uboxes = [ui.refine(w) for ui in uroots]
    for a in rboxes:
        for b in uboxes:
            box = {"r": (a.low - w, a.high + w), "u": (b.low - w, b.high + w)}
            ok = True
            for q in (P, Pr, Pu):
                lo, hi = interval_eval(q, box)
                if lo > 0 or hi < 0:
                    ok = False
                    break
            if not ok:
                continue
            # classify: transversal crossings (nodes) and isolated points have
            # a Hessian determinant of decided sign; cusps are degenerate
            lo, hi = interval_eval(hess, box)
            if hi < 0:
                kind = "node"
            elif lo > 0:
                kind = "isolated"
            else:
                kind = "cusp"
            out.append(CuspPoint((a.low, a.high), (b.low, b.high), kind))
    return out


def _cusp_eliminants(P: MPoly) -> tuple[MPoly, MPoly]:
    """(gr, gu): polynomials in r and in u whose roots hold the r- and
    u-coordinates of the singular points of P(r, u), computed in w = u^2.

    P is even in u: `mechanism.slice_jointspace` substitutes c3 =
    (1 - u^2) / (1 + u^2) into the (r, c3) curve, whose factors in c3 alone
    `_strip_known_factors` removed, so P has no factor u and its squarefree
    part stays even: P = Q(r, u^2).  An odd power of u raises `DomainError`.
    With P_r = Q_r(r, u^2), P_u = 2u Q_w(r, u^2), Res_u(A(u^2), B(u^2)) =
    +-Res_w(A, B)^2 and Res_u(P, u) = P(r, 0), the eliminants
    gr = gcd(Res_w(Q, Q_r), Q(r, 0) Res_w(Q, Q_w)) and
    gu = gcd(S_r(u^2), u S_w(u^2)), S_r = Res_r(Q, Q_r), S_w = Res_r(Q, Q_w),
    have the squarefree parts of those taken in u, at half the degree in w."""
    odd = min((e[1] for e in P.nums if e[1] % 2), default=0)
    if odd:
        raise DomainError(f"parallel curve is not even in u: it has the power u^{odd}")
    Q = MPoly.from_ints(("r", "w"), {(e[0], e[1] // 2): k for e, k in P.nums.items()}, P.den)
    Qr, Qw = Q.diff("r"), Q.diff("w")
    gr = mgcd(_pair_eliminant(Q, Qr, "w", "r"),
              Q.eval({"w": 0}) * _pair_eliminant(Q, Qw, "w", "r"))
    Sr, Sw = _pair_eliminant(Q, Qr, "r", "w"), _pair_eliminant(Q, Qw, "r", "w")
    # S_r(u^2) and u S_w(u^2)
    gu = mgcd(*(MPoly.from_ints(("u",), {(2 * e[0] + j,): k for e, k in S.nums.items()}, S.den)
                for j, S in enumerate((Sr, Sw))))
    return gr, gu


def _pair_eliminant(f: MPoly, g: MPoly, elim: str, keep: str) -> MPoly:
    """Polynomial in `keep` whose zero set contains the projection of the
    common roots of {f, g}; degenerate elim-degrees handled directly."""
    df, dg = f.degree(elim), g.degree(elim)
    if df > 0 and dg > 0:
        return resultant(f, g, elim)
    side = g if dg == 0 else f
    if side.is_constant():
        return MPoly.const(1, (keep,)) if not side.is_zero() else MPoly.const(0, (keep,))
    return side.with_vars((keep,))


# ---------------------------------------------------------------------------
# full-slice orchestration


@dataclass
class SliceAtlas:
    """Everything the CLI and trajectory verdicts need for one slice.

    The regions do not depend on the working mode for this mechanism (the
    parallel curve and the joint chart do not depend on the branch signs),
    so `build` finds each of them once, and a mode only names them: `in_mode`
    renames one build for another mode (`tests/test_domains.py`,
    `TestWorkingModes`, checks this against fresh builds).
    """

    params: MechanismParams
    y0: Fraction
    mode: WorkingMode
    ws: WorkspaceSlice
    wa: WorkspaceAnalysis
    js: JointSlice
    ja: JointAnalysis
    aspects: list[RegionSet]
    qaspects: list[RegionSet]
    basics: list[RegionSet]
    domains: list[RegionSet]
    atlas: list[RegionSet]
    singular_points: list[CuspPoint]

    @staticmethod
    def build(params: MechanismParams, y0: Fraction,
              mode: WorkingMode) -> "SliceAtlas":
        ws = slice_workspace(y0, params)
        js = slice_jointspace(ws)
        wa = analyze_workspace(js)
        ja = analyze_jointspace(js)
        atlas = count_atlas(wa)
        sing = cusp_points(js)
        aspects = w_aspects(wa)
        basics = basic_regions(wa, ja, atlas, aspects)
        return SliceAtlas(params=params, y0=y0, mode=None, ws=ws, wa=wa, js=js, ja=ja,
                          aspects=aspects, qaspects=q_aspects(ja), basics=basics,
                          domains=uniqueness_domains(wa, basics), atlas=atlas,
                          singular_points=sing).in_mode(mode)

    def in_mode(self, mode: WorkingMode) -> "SliceAtlas":
        """This slice's atlas in working mode `mode`: the same regions,
        named for `mode`."""
        def named(regions: list[RegionSet]) -> list[RegionSet]:
            return [replace(r, mode=mode) for r in regions]
        return replace(self, mode=mode, aspects=named(self.aspects), qaspects=named(self.qaspects),
                       basics=named(self.basics), domains=named(self.domains))

    @property
    def cusps(self) -> list[CuspPoint]:
        return [p for p in self.singular_points if p.kind == "cusp"]

    def locate_basic(self, x: Fraction, t: Fraction) -> RegionSet | None:
        cid = self.wa.dec_fine.locate(Fraction(x), Fraction(t))
        if cid is None:
            return None
        for b in self.basics:
            if cid in b.cells:
                return b
        return None

    def domains_containing(self, basic: RegionSet) -> list[str]:
        out = []
        for d in self.domains:
            if basic.cells <= d.cells:
                out.append(d.label)
        return out

    def classify_endpoints(self, p0: tuple[Fraction, Fraction],
                           p1: tuple[Fraction, Fraction]):
        """(same_domain, assembly_mode_changed, start label, end label) for
        two slice points given as (x, tphi): each label is the first
        uniqueness domain holding the point's basic region, or that
        region's own label when no domain holds it."""
        b0 = self.locate_basic(*p0)
        b1 = self.locate_basic(*p1)
        for name, (x, t), b in (("start", p0, b0), ("end", p1, b1)):
            if b is None:
                raise DomainError(f"trajectory {name} point (x, tphi) = ({x}, {t}) "
                                  "lies on a boundary or outside the atlas")
        d0 = self.domains_containing(b0)
        d1 = self.domains_containing(b1)
        same = b0 is b1 or any(lab in d1 for lab in d0)
        if same:
            changed = False
        else:
            changed = not b0.components.isdisjoint(b1.components)
        lab0 = d0[0] if d0 else b0.label
        lab1 = d1[0] if d1 else b1.label
        return same, changed, lab0, lab1
