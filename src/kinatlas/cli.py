"""Command-line entry point.

Subcommands: `analyze` (slice atlas to JSON + SVG), `check-trajectory`
(assembly-mode verdict), `solve` (direct / inverse kinematics).  All
output files are written atomically and contain no timestamps, so reruns
are byte-identical.  Exit codes: 0 success, 2 configuration error,
3 mathematical degeneracy, 4 indeterminate verdict.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from .ratpoly import format_poly, RatPolyError
from .realroots import RealRootError
from .cad2d import CadError
from .adjacency import AdjacencyError
from .mechanism import (
    MechanismParams, WorkingMode, Pose, JointValues, as_float,
    constraints_trig, inverse_kinematics, direct_kinematics, residuals, KinematicsError,
)
from .domains import SliceAtlas, DomainError
from .trajectory import Trajectory, TrajectoryError, track_branches
from . import svg


class ConfigError(Exception):
    pass


# what the exact layers raise on an input they cannot decide: exit 3 while
# the atlas is built (degeneracy), exit 4 while a verdict is taken
_MATH_ERRORS = (KinematicsError, DomainError, AdjacencyError, CadError,
               RealRootError, RatPolyError)


def _frac(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"bad rational {s!r}: {e}") from e


def _float(s) -> float:
    try:
        return as_float(_frac(s), f"rational {s!r}")
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _write_atomic(path: Path, chunks):
    """Write the text chunks to a temporary file, then rename it to path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, obj):
    # streamed: cells.json alone is half a megabyte of text
    encoder = json.JSONEncoder(indent=1, sort_keys=True)
    _write_atomic(path, itertools.chain(encoder.iterencode(obj), "\n"))


def _load_config(path: str) -> MechanismParams:
    try:
        with open(path) as f:
            d = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} line {e.lineno}: {e.msg}") from e
    if not isinstance(d, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    try:
        return MechanismParams.from_json(d)
    except (ValueError, KeyError, TypeError, ZeroDivisionError, OverflowError) as e:
        raise ConfigError(f"config {path}: {e}") from e


def _parse_slice(text: str):
    """W:y=1/2 or Q:alpha2=asin(1/6) | Q:alpha2=pi-asin(1/6)."""
    try:
        space, rest = text.split(":", 1)
        name, value = rest.split("=", 1)
    except ValueError as e:
        raise ConfigError(f"bad slice {text!r}") from e
    space = space.upper()
    if space == "W" and name == "y":
        return ("W", _frac(value), 1)
    if space == "Q" and name == "alpha2":
        branch = 1
        v = value
        if v.startswith("pi-"):
            branch = -1
            v = v[3:]
        if not (v.startswith("asin(") and v.endswith(")")):
            raise ConfigError(f"bad slice value {value!r}: expected asin(<rational>)")
        sin_a2 = _frac(v[5:-1])
        return ("Q", sin_a2, branch)
    raise ConfigError(f"bad slice {text!r}")


def cmd_analyze(args) -> int:
    params = _load_config(args.config)
    if args.density < 2:
        raise ConfigError("--density must be at least 2")
    if args.window:
        w = [_float(v) for v in args.window.split(",")]
        if len(w) != 4 or w[0] >= w[1] or w[2] >= w[3]:
            raise ConfigError("--window must be x0,x1,y0,y1 with x0 < x1, y0 < y1")
    space, val, branch = _parse_slice(args.slice)
    y0 = val if space == "W" else val * params.l2
    mode = WorkingMode(branch, 1)
    out = Path(args.out)
    try:
        atlas = SliceAtlas.build(params, y0, mode)
    except _MATH_ERRORS as e:
        print(f"degeneracy: {e}", file=sys.stderr)
        return 3
    dec = atlas.wa.dec_fine
    base = format_poly(dec.base_poly.to_mpoly())
    fibers = [format_poly(f.to_mpoly()) for f in dec.fiber_products]
    _write_json(out / "cells.json", {
        "base_var": "x", "fiber_var": "tphi",
        "cells": [c.to_json(base, fibers[c.base_index]) for c in dec.cells],
        "projection": [format_poly(q) for q in dec.proj.p1],
        "curves": [format_poly(p) for p in dec.polys],
    })
    _write_json(out / "adjacency.json", atlas.wa.graph_fine.to_json())
    _write_json(out / "aspects.json", {
        "workspace": [a.to_json() for a in atlas.aspects],
        "jointspace": [a.to_json() for a in atlas.qaspects],
    })
    _write_json(out / "regions.json", {
        "count_regions": [r.to_json() for r in atlas.atlas],
        "basic_regions": [b.region.to_json() for b in atlas.basics],
    })
    _write_json(out / "uniqueness.json", [d.to_json() for d in atlas.domains])
    _write_json(out / "cusps.json", {
        "cusps": [c.to_json() for c in atlas.cusps],
        "all_singular_points": [c.to_json() for c in atlas.singular_points],
    })
    _write_atomic(out / "plot.svg", [_plot_slice(atlas, space, args.window, args.density)])
    print(f"analysis written to {out}")
    return 0


def _plot_slice(atlas: SliceAtlas, space: str, window: str | None, density: int) -> str:
    if space == "W":
        win = (-5.0, 5.0, -math.pi, math.pi)
        if window:
            win = tuple(_float(w) for w in window.split(","))
        canvas = svg.SvgCanvas(win)
        xlo, xhi = Fraction(win[0]).limit_denominator(10 ** 6), Fraction(win[1]).limit_denominator(10 ** 6)
        _draw_workspace_curves(canvas, atlas, xlo, xhi, density)
        for poly in atlas.wa.sc.polynomials:
            cols = svg.curve_points(poly, "x", "tphi", xlo, xhi, density, fiber_map=_half_angle)
            canvas.curve_columns(cols, "green")
        for r in atlas.atlas:
            x, t = float(r.sample[0]), float(r.sample[1])
            canvas.text(x, 2 * math.atan(t), f"{r.ik_count}", "red")
            canvas.text(x, 2 * math.atan(t) - 0.18, f"{r.dk_count}", "blue")
        return canvas.render()
    win = (0.0, 5.0, -math.pi, math.pi)
    if window:
        win = tuple(_float(w) for w in window.split(","))
    canvas = svg.SvgCanvas(win)
    rlo = Fraction(max(0, Fraction(win[0]).limit_denominator(10 ** 6))) ** 2
    rhi = Fraction(win[1]).limit_denominator(10 ** 6) ** 2
    _draw_joint_view(canvas, atlas, rlo, rhi, density, [
        ([(0.0, 0.0), (win[1], 0.0)], "red", 1.2),     # alpha3 = 0 serial line
        ([(0.0, win[2]), (0.0, win[3])], "red", 1.2),  # rho1 = 0
    ])
    return canvas.render()


def _half_angle(t: float) -> float:
    return 2.0 * math.atan(t)


def _draw_workspace_curves(canvas: svg.SvgCanvas, atlas: SliceAtlas,
                           xlo: Fraction, xhi: Fraction, density: int):
    """The serial curves in red, then the parallel curve in blue, as
    phi = 2 atan(tphi) against x."""
    for poly, color in ((atlas.ws.serial[0], "red"), (atlas.ws.serial[1], "red"),
                        (atlas.ws.parallel, "blue")):
        cols = svg.curve_points(poly, "x", "tphi", xlo, xhi, density, fiber_map=_half_angle)
        canvas.curve_columns(cols, color)


def _draw_joint_view(canvas: svg.SvgCanvas, atlas: SliceAtlas,
                     rlo: Fraction, rhi: Fraction, density: int, lines):
    """The joint curve in blue as alpha3 = 2 atan(u) against rho1 = sqrt(r),
    then each (points, color, width) polyline of `lines`, then the cusps."""
    cols = svg.curve_points(atlas.js.parallel_ru, "r", "u", rlo, rhi, density,
                            fiber_map=_half_angle)
    canvas.curve_columns([[(math.sqrt(x), y) for x, y in col] for col in cols], "blue")
    for pts, color, width in lines:
        canvas.polyline(pts, color, width)
    for c in atlas.cusps:
        r, u = c.center()
        canvas.dot(math.sqrt(max(r, 0.0)), _half_angle(u), "black", 3.0)


def cmd_check_trajectory(args) -> int:
    params = _load_config(args.config)
    try:
        with open(args.traj) as f:
            tdata = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: cannot read trajectory {args.traj}: {e}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        if not isinstance(tdata, dict):
            raise TrajectoryError("expected a JSON object")
        traj = Trajectory.from_json(tdata)
    except (KeyError, IndexError, ValueError, TypeError, ZeroDivisionError,
            OverflowError, TrajectoryError) as e:
        print(f"config error: bad trajectory: {e}", file=sys.stderr)
        return 2
    try:
        atlas = SliceAtlas.build(params, Fraction(traj.y0), traj.mode)
    except _MATH_ERRORS as e:
        print(f"degeneracy: {e}", file=sys.stderr)
        return 3
    try:
        verdict = track_branches(traj, params, atlas)
    except (TrajectoryError,) + _MATH_ERRORS as e:
        _write_json(out / "verdict.json", {"error": str(e)})
        print(f"indeterminate: {e}", file=sys.stderr)
        return 4
    _write_json(out / "verdict.json", verdict.to_json())
    _write_atomic(out / "trajectory.svg", [_plot_trajectory(atlas, traj, params, verdict)])
    print(f"verdict written to {out}")
    return 0


def _plot_trajectory(atlas: SliceAtlas, traj: Trajectory, params, verdict) -> str:
    # workspace view (left) and joint view (right), side by side
    wcan = svg.SvgCanvas((-5.0, 5.0, -math.pi, math.pi), (420, 360))
    _draw_workspace_curves(wcan, atlas, Fraction(-5), Fraction(5), 120)
    wcan.polyline([(x, p) for x, p in traj.waypoints], "black", 1.8)
    jcan = svg.SvgCanvas((0.0, 4.0, -math.pi, math.pi), (420, 360))
    _draw_joint_view(jcan, atlas, Fraction(0), Fraction(16), 120,
                     [(list(verdict.joint_path), "black", 1.8)])
    left = wcan.render().replace("</svg>\n", "")
    right = jcan.render()
    merged = (f'<svg xmlns="http://www.w3.org/2000/svg" width="840" height="360">\n'
              f'<g>{left.split(">", 1)[1]}</g>'
              f'<g transform="translate(420,0)">{right.split(">", 1)[1].replace("</svg>", "")}</g>'
              f'</svg>\n')
    return merged


def cmd_solve(args) -> int:
    params = _load_config(args.config)
    cons = constraints_trig(params)
    out = []
    if args.dk:
        vals = [_float(v) for v in args.dk.split(",")]
        if len(vals) != 3:
            raise ConfigError("--dk needs rho1,rho2,rho3")
        try:
            sols = direct_kinematics(JointValues(*vals), params)
        except _MATH_ERRORS as e:
            print(f"degeneracy: {e}", file=sys.stderr)
            return 3
        for pose, pa in sols:
            jv = JointValues(*vals)
            res = residuals(pose, jv, pa, cons)
            out.append({"x": pose.x, "y": pose.y, "phi": pose.phi,
                        "alpha2": pa.alpha2, "alpha3": pa.alpha3,
                        "residual": max(abs(v) for v in res)})
    else:
        vals = [_float(v) for v in args.ik.split(",")]
        if len(vals) != 3:
            raise ConfigError("--ik needs x,y,phi")
        try:
            s2, s3 = (int(v) for v in args.mode.split(","))
            mode = WorkingMode(s2, s3)
        except ValueError as e:
            raise ConfigError(f"--mode needs s2,s3 with signs +1 or -1: {e}") from e
        try:
            jv, pa = inverse_kinematics(Pose(*vals), mode, params)
        except KinematicsError as e:
            print(json.dumps({"solutions": [], "error": str(e)}))
            return 0
        res = residuals(Pose(*vals), jv, pa, cons)
        out.append({"rho1": jv.rho1, "rho2": jv.rho2, "rho3": jv.rho3,
                    "alpha2": pa.alpha2, "alpha3": pa.alpha3,
                    "residual": max(abs(v) for v in res)})
    print(json.dumps({"solutions": out}, indent=1, sort_keys=True))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="kinatlas",
                                 description="singularity and uniqueness-domain atlas "
                                             "for planar parallel mechanisms")
    sub = ap.add_subparsers(dest="cmd", required=True)

    a = sub.add_parser("analyze", help="decompose a slice and write the atlas")
    a.add_argument("--config", required=True)
    a.add_argument("--slice", required=True,
                   help="W:y=<rational> or Q:alpha2=[pi-]asin(<rational>)")
    a.add_argument("--out", required=True)
    a.add_argument("--window", default=None, help="x0,x1,y0,y1")
    a.add_argument("--density", type=int, default=160)

    t = sub.add_parser("check-trajectory", help="assembly-mode verdict for a trajectory")
    t.add_argument("--config", required=True)
    t.add_argument("--traj", required=True)
    t.add_argument("--out", required=True)

    s = sub.add_parser("solve", help="direct or inverse kinematics")
    s.add_argument("--config", required=True)
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--dk", help="rho1,rho2,rho3")
    g.add_argument("--ik", help="x,y,phi")
    s.add_argument("--mode", default="1,1", help="s2,s3 for --ik")

    args = ap.parse_args(argv)
    try:
        if args.cmd == "analyze":
            return cmd_analyze(args)
        if args.cmd == "check-trajectory":
            return cmd_check_trajectory(args)
        return cmd_solve(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
