"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline).
"""

import math
import random
import time
from fractions import Fraction

from kinatlas.ratpoly import (
    MPoly, UPoly, resultant,
)
from kinatlas.realroots import isolate, count_roots
from kinatlas.cad2d import decompose, _specialize_product
from kinatlas.adjacency import build_graph, components
from kinatlas.mechanism import (
    MechanismParams, WorkingMode, Pose,
    parallel_singularity, rationalize, PHI_ANGLE,
    inverse_kinematics, direct_kinematics, slice_workspace,
    project_parallel_to_joint,
)
from kinatlas.domains import w_aspects, basic_regions, uniqueness_domains
from kinatlas.trajectory import (
    Trajectory, track_branches, follow_chain,
)

from conftest import eq11_reference, sc_quartic_reference
from groebner import PolySystem, eliminate
from oracles import (
    ALL_ANGLES, divides, parse_poly, serial_singularity, upoly_eval, upoly_eval_float,
)

PARAMS = MechanismParams()


def _report(n: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {n} [{'PASS' if ok else 'FAIL'}] {detail}", flush=True)
    assert ok, detail


def _rel_residual(p: MPoly, point: dict) -> float:
    """|p(point)| scaled by the largest term magnitude at the point."""
    tot = 0.0
    mx = 1e-300
    for e, c in p.terms.items():
        m = float(c)
        for i, pw in enumerate(e):
            if pw:
                m *= float(point[p.vars[i]]) ** pw
        tot += m
        mx = max(mx, abs(m))
    return abs(tot) / mx


class TestAcceptance:
    def test_criterion_1_serial_determinant(self):
        t0 = time.time()
        detb = serial_singularity(PARAMS)
        target = PARAMS.l2 * PARAMS.l3 * parse_poly("rho1*c2*s3", ("rho1", "c2", "s3"))
        rb, _ = rationalize(detb, ALL_ANGLES)
        rt, _ = rationalize(target, ALL_ANGLES)
        ok = rb.canonical() == rt.with_vars(rb.vars).canonical()
        dt = time.time() - t0
        _report(1, ok and dt < 1.0,
                f"det B = rho1*l2*l3*cos(a2)*sin(a3) up to constant, exact ({dt:.2f}s < 1s)")

    def test_criterion_2_parallel_agreement(self):
        t0 = time.time()
        ours = parallel_singularity(PARAMS)
        printed = parse_poly("y*cphi - x*sphi - sphi*x + sphi*cphi",
                             ("x", "y", "cphi", "sphi"))
        rng = random.Random(2)
        worst = 0.0
        n_each = 200
        # points on the printed locus (solve for y), evaluated in ours
        count = 0
        while count < n_each:
            x = Fraction(rng.randint(-300, 300), 100)
            phi = rng.uniform(-3.0, 3.0)
            c, s = Fraction(math.cos(phi)).limit_denominator(10 ** 9), \
                Fraction(math.sin(phi)).limit_denominator(10 ** 9)
            if c == 0:
                continue
            y = (2 * x * s - s * c) / c
            pt = {"x": x, "y": y, "cphi": c, "sphi": s}
            assert abs(float(printed.eval(pt))) < 1e-12
            worst = max(worst, _rel_residual(ours, pt))
            count += 1
        # points on our locus (linear in x), evaluated in the printed formula
        count = 0
        while count < n_each:
            yv = Fraction(rng.randint(-250, 250), 100)
            phi = rng.uniform(-3.0, 3.0)
            c = Fraction(math.cos(phi)).limit_denominator(10 ** 9)
            s = Fraction(math.sin(phi)).limit_denominator(10 ** 9)
            lin = ours.eval({"y": yv, "cphi": c, "sphi": s})
            if isinstance(lin, Fraction) or lin.degree("x") != 1:
                continue
            cs = lin.coeffs_in("x")
            x = -cs[0].constant_value() / cs[1].constant_value()
            pt = {"x": x, "y": yv, "cphi": c, "sphi": s}
            worst = max(worst, _rel_residual(printed, pt))
            count += 1
        dt = time.time() - t0
        ok = worst < 1e-9 and dt < 5.0
        _report(2, ok,
                f"parallel polynomial vs reference formula: {2 * n_each} locus points, "
                f"worst cross-residual {worst:.2e} < 1e-9 ({dt:.2f}s < 5s)")

    def test_criterion_3_joint_curve(self):
        t0 = time.time()
        ws = slice_workspace(Fraction(1, 2), 1, PARAMS)
        ours = project_parallel_to_joint(ws)
        ref = eq11_reference(Fraction(35, 36))
        worst = 0.0
        hits = 0
        # sample the reference curve, test ours
        for k in range(-48, 49):
            if hits >= 100:
                break
            c3 = Fraction(k, 50)
            uni = ref.eval({"c3": c3})
            if isinstance(uni, Fraction):
                continue
            u = UPoly.from_mpoly(uni.with_vars(("r",)), "r")
            if u.degree < 1:
                continue
            for iv in isolate(u):
                r = iv.refine(Fraction(1, 1 << 70)).midpoint()
                worst = max(worst, _rel_residual(ours, {"r": r, "c3": c3}))
                hits += 1
        n_fwd = hits
        # sample ours, test the reference curve
        hits = 0
        for k in range(-48, 49):
            if hits >= 100:
                break
            c3 = Fraction(k, 50)
            uni = ours.eval({"c3": c3})
            if isinstance(uni, Fraction):
                continue
            u = UPoly.from_mpoly(uni.with_vars(("r",)), "r")
            if u.degree < 1:
                continue
            for iv in isolate(u):
                r = iv.refine(Fraction(1, 1 << 70)).midpoint()
                worst = max(worst, _rel_residual(ref, {"r": r, "c3": c3}))
                hits += 1
        dt = time.time() - t0
        ok = n_fwd >= 100 and hits >= 100 and worst < 1e-6 and dt < 60.0
        _report(3, ok,
                f"joint-space curve: elimination matches the degree-8 reference on "
                f"{n_fwd}+{hits} curve samples, worst relative residual {worst:.2e} "
                f"< 1e-6 ({dt:.1f}s < 60s)")

    def test_criterion_4_serial_projection_factors(self):
        t0 = time.time()
        vs2 = ("c2", "s2", "y")
        sys2 = PolySystem.of([
            PARAMS.l2 * MPoly.var("s2", vs2) - MPoly.var("y", vs2),
            MPoly.var("c2", vs2),
            MPoly.var("c2", vs2) ** 2 + MPoly.var("s2", vs2) ** 2 - 1,
        ], vs2)
        out2 = eliminate(sys2, ["c2", "s2"])
        gen_y = out2.polynomials[0]
        ok_y = divides(parse_poly("y-3", ("y",)), gen_y) and \
            divides(parse_poly("y+3", ("y",)), gen_y)
        vs3 = ("c3", "s3", "x", "tphi")
        t = MPoly.var("tphi", vs3)
        op = MPoly.const(1, vs3) + t * t
        om = MPoly.const(1, vs3) - t * t
        sys3 = PolySystem.of([
            PARAMS.l3 * MPoly.var("c3", vs3) * op - PARAMS.b * om - MPoly.var("x", vs3) * op,
            MPoly.var("s3", vs3),
            MPoly.var("c3", vs3) ** 2 + MPoly.var("s3", vs3) ** 2 - 1,
        ], vs3)
        out3 = eliminate(sys3, ["c3", "s3"])
        # reference factors carry a (cos phi + 1) denominator; cleared forms:
        f_out, _ = rationalize(parse_poly("cphi - 3 + x", ("x", "cphi", "sphi")), PHI_ANGLE)
        f_in, _ = rationalize(parse_poly("cphi + 3 + x", ("x", "cphi", "sphi")), PHI_ANGLE)
        gens3 = [g for g in out3.polynomials if g.degree("x") > 0]
        ok_x = any(divides(f_out.with_vars(g.vars), g) for g in gens3) and \
            any(divides(f_in.with_vars(g.vars), g) for g in gens3)
        ws = slice_workspace(Fraction(1, 2), 1, PARAMS)
        ok_slice = {str(p) for p in ws.serial} == \
            {str(f_out.with_vars(("x", "tphi")).canonical()),
             str(f_in.with_vars(("x", "tphi")).canonical())}
        dt = time.time() - t0
        ok = ok_y and ok_x and ok_slice and dt < 10.0
        _report(4, ok,
                f"serial projection factors y-3, y+3 and the two cleared "
                f"cos(phi)+-3+x factors reproduced by elimination ({dt:.2f}s < 10s)")

    def test_criterion_5_characteristic_surface(self, atlas_pp):
        t0 = time.time()
        ours = atlas_pp.wa.sc.polynomials[0].with_vars(("x", "tphi"))
        ref4 = sc_quartic_reference().eval({"y": Fraction(1, 2)})
        refr, _ = rationalize(ref4, PHI_ANGLE)
        refr = refr.with_vars(("x", "tphi"))
        worst = 0.0
        counts = []
        for poly_from, poly_to in ((refr, ours), (ours, refr)):
            hits = 0
            for k in range(-120, 121):
                if hits >= 100:
                    break
                x0 = Fraction(k, 24)
                s = poly_from.eval({"x": x0})
                if isinstance(s, Fraction):
                    continue
                u = UPoly.from_mpoly(s.with_vars(("tphi",)), "tphi")
                if u.degree < 1:
                    continue
                for iv in isolate(u):
                    tv = iv.refine(Fraction(1, 1 << 70)).midpoint()
                    worst = max(worst, _rel_residual(poly_to, {"x": x0, "tphi": tv}))
                    hits += 1
            counts.append(hits)
        excluded_ok = "phi=pi" in atlas_pp.wa.sc.excluded
        dt = time.time() - t0
        ok = min(counts) >= 100 and worst < 1e-6 and excluded_ok and dt < 120.0
        _report(5, ok,
                f"characteristic surface vs reference quartic: {counts[0]}+{counts[1]} "
                f"samples, worst relative residual {worst:.2e}, phi=pi exclusion "
                f"recorded ({dt:.1f}s < 120s)")

    def test_criterion_6_counts(self, atlas_pp, atlas_build_seconds):
        t0 = time.time()
        n_w = len(atlas_pp.aspects)
        n_q = len(atlas_pp.qaspects)
        per_mode = []
        for mode in WorkingMode.all_modes():
            aspects = w_aspects(atlas_pp.wa, mode)
            per_mode.append(len(aspects))
        generalized = sum(per_mode)
        n_regions = len(atlas_pp.atlas)
        n_cusps = len(atlas_pp.cusps)
        n_ud = len(atlas_pp.domains)
        ud_all_modes = [n_ud]
        for mode in (WorkingMode(1, -1), WorkingMode(-1, 1), WorkingMode(-1, -1)):
            aspects = w_aspects(atlas_pp.wa, mode)
            basics = basic_regions(atlas_pp.wa, atlas_pp.ja, aspects, mode)
            ud_all_modes.append(len(uniqueness_domains(atlas_pp.wa, basics, mode)))
        dt = atlas_build_seconds + (time.time() - t0)
        ok = (n_w == 2 and all(m == 2 for m in per_mode) and n_q == 2
              and generalized == 8 and n_regions == 10 and n_cusps == 4
              and all(u == 4 for u in ud_all_modes) and dt < 600.0)
        _report(6, ok,
                f"counts: W-aspects/mode={per_mode}, Q-aspects={n_q}, generalized="
                f"{generalized} (2x4), count-regions={n_regions}, cusps={n_cusps}, "
                f"uniqueness domains/mode={ud_all_modes} (pipeline {dt:.0f}s < 600s)")

    def test_criterion_7_fig10_trajectory(self, atlas_of_mode):
        atlases = {mode: atlas_of_mode(mode) for mode in WorkingMode.all_modes()}
        t0 = time.time()
        wps = ((-1.0, 1.0), (0.0, 0.5), (1.0, -1.0), (0.5, -2.0))
        winners = []
        for mode in WorkingMode.all_modes():
            traj = Trajectory(y0=Fraction(1, 2), mode=mode, waypoints=wps)
            v = track_branches(traj, PARAMS, atlases[mode])
            if (not v.same_domain and v.assembly_mode_changed
                    and not v.singular_crossing
                    and any(w != 0 for _, w in v.encircled_cusps)):
                winners.append(mode.label)
        dt = time.time() - t0
        ok = bool(winners) and dt < 60.0
        _report(7, ok,
                f"reference trajectory: modes {winners} give same-domain=false, "
                f"assembly-mode-changed=true, singular-crossing=false, nonzero "
                f"winding ({dt:.1f}s < 60s)")

    def test_criterion_8a_resultant_specialization(self):
        rng = random.Random(19)
        checked = 0
        while checked < 100:
            p = _rand_poly(rng)
            q = _rand_poly(rng)
            if p.degree("x") <= 0 or q.degree("x") <= 0:
                continue
            u = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            pu, qu = p.eval({"y": u}), q.eval({"y": u})
            if pu.degree("x") != p.degree("x") or qu.degree("x") != q.degree("x"):
                continue
            lhs = resultant(p, q, "x").eval({"y": u})
            rhs = resultant(pu, qu, "x").constant_value()
            assert lhs == rhs
            checked += 1
        _report(8, True, "8a: resultant specialization on 100 random instances, exact")

    def test_criterion_8b_sturm_vs_grid(self):
        rng = random.Random(23)
        for _ in range(100):
            deg = rng.randint(1, 9)
            p = UPoly([Fraction(rng.randint(-9, 9)) for _ in range(deg)]
                      + [Fraction(rng.randint(1, 9))])
            exact = count_roots(p.squarefree())
            grid = _scan_roots(p)
            assert exact == grid, p.coeffs
        _report(8, True, "8b: exact root counting matches dense scan on 100 random polynomials")

    def test_criterion_8c_cell_count_constancy(self, atlas_pp):
        dec = atlas_pp.wa.dec_fine
        checked = 0
        for k1 in range(len(dec.base_samples)):
            expect = len(dec.fiber_roots[k1])
            lo = dec.base_roots[k1 - 1].high if k1 >= 1 else dec.base_samples[k1] - 1
            hi = dec.base_roots[k1].low if k1 < len(dec.base_roots) else dec.base_samples[k1] + 1
            for i in range(1, 6):
                w = lo + (hi - lo) * Fraction(i, 6)
                if dec.base_poly.degree >= 1 and upoly_eval(dec.base_poly, w) == 0:
                    continue
                f = _specialize_product(dec.polys, "x", "tphi", w)
                got = len(isolate(f)) if f.degree >= 1 else 0
                assert got == expect, f"column {k1}: {got} vs {expect}"
                checked += 1
        _report(8, True,
                f"8c: fiber root count constant on 5 samples per base region "
                f"({checked} lifts checked)")

    def test_criterion_8d_round_trips(self):
        rng = random.Random(29)
        worst = 0.0
        done = 0
        while done < 100:
            pose = _random_reachable(rng)
            mode = rng.choice(WorkingMode.all_modes())
            jv, pa = inverse_kinematics(pose, mode, PARAMS)
            from kinatlas.mechanism import constraints_trig, residuals
            r = residuals(pose, jv, pa, constraints_trig(PARAMS))
            worst = max(worst, max(abs(v) for v in r))
            sols = direct_kinematics(jv, PARAMS)
            assert any(abs(p.x - pose.x) < 1e-7 and abs(p.y - pose.y) < 1e-7
                       and abs(p.phi - pose.phi) < 1e-7 for p, _ in sols)
            done += 1
        ok = worst < 1e-9
        _report(8, ok, f"8d: IK/DK round trips on 100 random poses, worst residual {worst:.2e} < 1e-9")

    def test_criterion_8e_adjacency_oracle(self):
        span = 4
        box = [parse_poly(f"u-{span}", ("u", "v")), parse_poly(f"u+{span}", ("u", "v")),
               parse_poly(f"v-{span}", ("u", "v")), parse_poly(f"v+{span}", ("u", "v"))]
        rng = random.Random(77)
        done = 0
        while done < 20:
            polys = [_rand_conic(rng) for _ in range(rng.randint(1, 3))]
            polys = [p for p in polys if not p.is_zero() and not p.is_constant()]
            if not polys:
                continue
            dec = decompose(polys + box, "u", "v")
            g = build_graph(dec, polys + box)
            inside = {min(c) for c in components(g)
                      if abs(dec.cells[min(c)].sample[0]) < span
                      and abs(dec.cells[min(c)].sample[1]) < span}
            got = len(inside)
            wants = []
            for n in (320, 640, 1280):
                want = _grid_regions(polys, n, span=float(span))
                wants.append(want)
                if got == want:
                    break
            assert got in wants or got < wants[-1], f"{[str(p) for p in polys]}: {got} vs {wants}"
            done += 1
        _report(8, True, "8e: adjacency components match flood-fill oracle on 20 conic arrangements")

    def test_criterion_8f_continuation_stability(self, atlas_pp):
        wps = ((-1.0, 1.0), (0.0, 0.5), (1.0, -1.0), (0.5, -2.0))
        cases = [wps]
        rng = random.Random(31)
        while len(cases) < 11:
            a = _random_slice_point(rng)
            b = _random_slice_point(rng)
            if a and b:
                cases.append((a, b))
        stable = 0
        for wp in cases:
            traj = Trajectory(y0=Fraction(1, 2), mode=WorkingMode(1, 1), waypoints=tuple(wp))
            try:
                q0, _ = inverse_kinematics(traj.pose_at(0.0), traj.mode, PARAMS)
                sols = direct_kinematics(q0, PARAMS)
                p0 = traj.pose_at(0.0)
                partners = [(p.x, p.y, p.phi) for p, _ in sols
                            if max(abs(p.x - p0.x), abs(p.phi - p0.phi)) > 1e-6]
                for st in partners:
                    c1 = follow_chain(traj, PARAMS, st, h0=1.0 / 256)
                    c2 = follow_chain(traj, PARAMS, st, h0=1.0 / 512)
                    assert c1.end_s == c2.end_s
                    d = max(abs(a - b) for a, b in zip(c1.points[-1], c2.points[-1]))
                    assert d < 1e-6, d
                stable += 1
            except Exception as e:
                raise AssertionError(f"continuation unstable on {wp}: {e}") from e
        _report(8, True,
                f"8f: step halving leaves all {stable} tracked cases unchanged (< 1e-6)")


def _rand_poly(rng):
    terms = {}
    for _ in range(5):
        e = (rng.randint(0, 3), rng.randint(0, 3))
        c = rng.randint(-9, 9)
        if c:
            terms[e] = Fraction(c)
    return MPoly(("x", "y"), terms) + MPoly(("x", "y"), {(1, 0): Fraction(1)})


def _rand_conic(rng):
    terms = {}
    for e in [(2, 0), (0, 2), (1, 1), (1, 0), (0, 1), (0, 0)]:
        c = rng.randint(-3, 3)
        if c:
            terms[e] = Fraction(c)
    return MPoly(("u", "v"), terms)


def _scan_roots(p: UPoly, n: int = 30000) -> int:
    f = p.squarefree()
    ints = f.coeffs
    lc = abs(ints[-1])
    bound = 1 + max(abs(c) for c in ints) / lc
    lo, hi = -bound, bound
    prev = None
    hits = 0
    for i in range(n + 1):
        x = lo + (hi - lo) * i / n
        v = upoly_eval_float(f, x)
        if v == 0.0:
            hits += 1
            prev = None
            continue
        if prev is not None and prev * v < 0:
            hits += 1
        prev = v
    return hits


def _random_reachable(rng) -> Pose:
    while True:
        x = rng.uniform(-3.5, 3.5)
        y = rng.uniform(-2.8, 2.8)
        phi = rng.uniform(-2.8, 2.8)
        c3 = (x + math.cos(phi)) / 3
        if abs(y) < 2.9 and abs(c3) < 0.99:
            if math.hypot(x - math.cos(phi), y - math.sin(phi)) > 1e-3:
                return Pose(x, y, phi)


def _random_slice_point(rng):
    x = rng.uniform(-2.5, 3.5)
    phi = rng.uniform(-2.6, 2.6)
    c3 = (x + math.cos(phi)) / 3
    if abs(c3) > 0.95:
        return None
    if math.hypot(x - math.cos(phi), 0.5 - math.sin(phi)) < 0.05:
        return None
    return (x, phi)


def _grid_regions(polys, n, span=4.0) -> int:
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
            cells[(i, j)] = sgn(-span + (i + 0.5) * h, -span + (j + 0.5) * h)
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
