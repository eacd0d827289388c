import hashlib
import json
import math
from fractions import Fraction

import pytest

from kinatlas.cli import main, _parse_slice, ConfigError


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "mech.json"
    p.write_text('{"type": "RPR-2PRR", "l2": "3", "l3": "3", "a": "1", "b": "1"}\n')
    return str(p)


@pytest.fixture(scope="module")
def traj_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "traj.json"
    p.write_text(json.dumps({
        "y": "1/2", "mode": [1, 1],
        "waypoints": [["-1", "1"], ["0", "1/2"], ["1", "-1"], ["1/2", "-2"]]}))
    return str(p)


@pytest.fixture(scope="module")
def analysis_dir(config_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("analysis")
    rc = main(["analyze", "--config", config_file, "--slice", "W:y=1/2",
               "--out", str(out), "--density", "60"])
    assert rc == 0
    return out


class TestSliceParsing:
    def test_workspace(self):
        assert _parse_slice("W:y=1/2")[0] == "W"

    def test_jointspace_branches(self):
        s, v, b = _parse_slice("Q:alpha2=asin(1/6)")
        assert (s, b) == ("Q", 1) and v == 1 / 6 * 6 / 6 or v.numerator == 1
        s, v, b = _parse_slice("Q:alpha2=pi-asin(1/6)")
        assert b == -1

    def test_bad_slice(self):
        with pytest.raises(ConfigError):
            _parse_slice("X:z=1")


class TestSolve:
    def test_ik_reference(self, config_file, capsys):
        rc = main(["solve", "--config", config_file, "--ik", "1,1/2,0", "--mode", "1,1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        sol = out["solutions"][0]
        assert abs(sol["rho1"] - 0.5) < 1e-12
        assert abs(sol["rho2"] - (1 - math.sqrt(35) / 2)) < 1e-12
        assert sol["residual"] < 1e-9

    def test_dk_round_trip(self, config_file, capsys):
        r2 = 1 - math.sqrt(35) / 2
        r3 = 0.5 - math.sqrt(5)
        rc = main(["solve", "--config", config_file, "--dk", f"1/2,{r2},{r3}"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert any(abs(s["x"] - 1) < 1e-7 and abs(s["y"] - 0.5) < 1e-7
                   for s in out["solutions"])
        assert all(s["residual"] < 1e-9 for s in out["solutions"])

    def test_degenerate_dk_exit_3(self, tmp_path, capsys):
        """With l2 = l3 = a = b = 1 and joints (1, 1, 0) the direct
        kinematics eliminant vanishes identically: exit 3, no traceback."""
        cf = tmp_path / "unit.json"
        cf.write_text('{"l2": "1", "l3": "1", "a": "1", "b": "1"}')
        rc = main(["solve", "--config", str(cf), "--dk", "1,1,0"])
        assert rc == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "degeneracy: degenerate input: direct kinematics eliminant vanishes\n"

    def test_root_shared_with_the_denominator_exit_3(self, config_file, capsys):
        """At joints (2, 7/2, 0) the direct kinematics eliminant shares its
        root t = 0 with the back-substitution denominator: exit 3, the
        joints and the root named."""
        rc = main(["solve", "--config", config_file, "--dk", "2,7/2,0"])
        assert rc == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("degeneracy: direct kinematics at joints (2.0, 3.5, 0.0): ")
        assert "root t = 0 " in err

    def test_unreachable_exit_zero(self, config_file, capsys):
        rc = main(["solve", "--config", config_file, "--dk", "100,0,0"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["solutions"] == []

    @pytest.mark.parametrize("config, args", [
        ("{nope", ["--dk", "1,1,1"]),
        ('{"l2": [3], "l3": "3", "a": "1", "b": "1"}', ["--dk", "1,1,1"]),
        ('{"l2": "1/0"}', ["--dk", "1,1,1"]),
        ('["RPR-2PRR", "3", "3", "1", "1"]', ["--dk", "1,1,1"]),
        ('{"l2": "1e400"}', ["--ik", "1,1/2,0"]),
        ('{"l2": 1e400}', ["--dk", "1,1,1"]),
        ('{"b": -Infinity}', ["--ik", "1,1/2,0"]),
        ('{"l2": true}', ["--ik", "1,0.5,0"]),
        (None, ["--ik", "1,1/2,0", "--mode", "1,2"]),
        (None, ["--ik", "1,1/2,0", "--mode", "1"]),
        (None, ["--ik", "1,1/2,0", "--mode", "a,b"]),
    ], ids=["malformed-json", "list-length", "zero-denominator", "array-config",
            "length-too-large-for-a-float", "json-number-beyond-float-range", "json-infinity",
            "length-bool",
            "mode-sign", "mode-arity", "mode-not-int"])
    def test_bad_config_exit_2(self, config, args, config_file, tmp_path, capsys):
        if config is not None:
            bad = tmp_path / "bad.json"
            bad.write_text(config)
            config_file = str(bad)
        rc = main(["solve", "--config", config_file] + args)
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["--ik", "1e400,0.5,0"], ["--dk", "1e400,1,1"]],
                             ids=["ik", "dk"])
    def test_rational_too_large_for_a_float_exit_2(self, args, config_file, capsys):
        rc = main(["solve", "--config", config_file] + args)
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'1e400'" in err


class TestAnalyze:
    def test_outputs_exist(self, analysis_dir):
        for name in ("cells.json", "adjacency.json", "aspects.json",
                     "regions.json", "uniqueness.json", "cusps.json", "plot.svg"):
            assert (analysis_dir / name).exists(), name

    def test_counts_in_files(self, analysis_dir):
        aspects = json.loads((analysis_dir / "aspects.json").read_text())
        assert len(aspects["workspace"]) == 2
        assert len(aspects["jointspace"]) == 2
        regions = json.loads((analysis_dir / "regions.json").read_text())
        assert len(regions["count_regions"]) == 10
        ud = json.loads((analysis_dir / "uniqueness.json").read_text())
        assert len(ud) == 4
        cusps = json.loads((analysis_dir / "cusps.json").read_text())
        assert len(cusps["cusps"]) == 4

    def test_json_round_trip_bytes(self, analysis_dir):
        for name in ("aspects.json", "regions.json", "uniqueness.json", "cusps.json"):
            raw = (analysis_dir / name).read_text()
            obj = json.loads(raw)
            again = json.dumps(obj, indent=1, sort_keys=True) + "\n"
            assert again == raw, name

    def test_rationals_as_strings(self, analysis_dir):
        cells = json.loads((analysis_dir / "cells.json").read_text())
        s = cells["cells"][0]["sample"][0]
        assert isinstance(s, str) and "/" in s

    def test_degenerate_slice_exit_3(self, config_file, capsys):
        rc = main(["analyze", "--config", config_file, "--slice", "W:y=3",
                   "--out", "/tmp/kinatlas-degenerate"])
        assert rc == 3

    @pytest.mark.parametrize("value, sine", [("asin(2)", "2"), ("pi-asin(-3/2)", "-3/2")])
    def test_joint_slice_sine_beyond_one_exit_2(self, value, sine, config_file, tmp_path,
                                                capsys):
        """No angle has a sine beyond 1: malformed input, exit 2 before any
        build."""
        rc = main(["analyze", "--config", config_file, "--slice", f"Q:alpha2={value}",
                   "--out", str(tmp_path / "a")])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"config error: bad slice value {value!r}: no angle has sine {sine}\n"
        assert not (tmp_path / "a").exists()

    def test_joint_slice_sine_one_exit_3(self, config_file, tmp_path, capsys):
        """Sine 1 is an angle, pi/2, on leg 2's serial singularity: exit 3."""
        rc = main(["analyze", "--config", config_file, "--slice", "Q:alpha2=asin(1)",
                   "--out", str(tmp_path / "a")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("degeneracy: slice on leg 2 serial singularity")

    def test_reproducible(self, analysis_dir, config_file, tmp_path):
        out2 = tmp_path / "again"
        rc = main(["analyze", "--config", config_file, "--slice", "W:y=1/2",
                   "--out", str(out2), "--density", "60"])
        assert rc == 0
        for name in ("aspects.json", "regions.json", "uniqueness.json",
                     "cusps.json", "cells.json", "adjacency.json", "plot.svg"):
            assert (out2 / name).read_bytes() == (analysis_dir / name).read_bytes(), name


class TestCheckTrajectory:
    def test_fig10_verdict_file(self, config_file, traj_file, tmp_path):
        out = tmp_path / "verdict"
        rc = main(["check-trajectory", "--config", config_file,
                   "--traj", traj_file, "--out", str(out)])
        assert rc == 0
        v = json.loads((out / "verdict.json").read_text())
        assert v["assembly_mode_changed"] is True
        assert v["same_domain"] is False
        assert v["singular_crossing"] is False
        assert len(v["encircled_cusps"]) >= 1
        # recorded before the two plots shared their curve-drawing helpers
        assert hashlib.sha256((out / "trajectory.svg").read_bytes()).hexdigest() == \
            "ab31c7fabcb35da6c5dde816371abde6c025bc19b9e8fe6a86ae3dba6f1e0db3"

    def test_singular_trajectory_exit_4(self, config_file, tmp_path, capsys):
        tf = tmp_path / "bad_traj.json"
        tf.write_text(json.dumps({
            "y": "1/2", "mode": [1, 1],
            "waypoints": [["0", "0"], ["7/2", "0"]]}))
        out = tmp_path / "v"
        rc = main(["check-trajectory", "--config", config_file,
                   "--traj", str(tf), "--out", str(out)])
        assert rc == 4
        v = json.loads((out / "verdict.json").read_text())
        assert "error" in v
        assert "end point (x, tphi) = (7/2, 0)" in capsys.readouterr().err

    @pytest.mark.parametrize("mech, mode, named", [
        ({"l2": "3"}, [-1, 1], "trajectory working mode mp does not match the atlas working "
                               "mode pp"),
        ({"l2": "5/2"}, [1, 1], "'l2': '5/2'"),
    ], ids=["mode", "mechanism"])
    def test_atlas_of_another_mode_or_mechanism_exit_4(self, mech, mode, named, atlas_pp,
                                                       tmp_path, monkeypatch, capsys):
        """A verdict against an atlas of another working mode or mechanism
        (here the y = 1/2, ++ atlas of the default geometry, whatever the
        build is asked for) exits 4 and names both values."""
        from kinatlas import cli
        monkeypatch.setattr(cli.SliceAtlas, "build", staticmethod(lambda *a, **k: atlas_pp))
        cf = tmp_path / "mech.json"
        cf.write_text(json.dumps({"type": "RPR-2PRR", "l3": "3", "a": "1", "b": "1", **mech}))
        tf = tmp_path / "traj.json"
        tf.write_text(json.dumps({"y": "1/2", "mode": mode,
                                  "waypoints": [["-1", "1"], ["0", "1/2"]]}))
        out = tmp_path / "v"
        rc = main(["check-trajectory", "--config", str(cf), "--traj", str(tf), "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("indeterminate: ") and named in err
        if mech["l2"] != "3":
            assert "'l2': '3'" in err
        assert "error" in json.loads((out / "verdict.json").read_text())

    def test_start_pose_not_told_apart_exit_4(self, config_file, tmp_path, capsys):
        """A path from the benchmark's singular pose (0.2062912477066774, 1),
        on det A = 0 in mode ++: the direct kinematics at its joints has no
        real root to be the start pose, so the verdict exits 4 and names the
        start in `verdict.json`."""
        tf = tmp_path / "traj.json"
        tf.write_text(json.dumps({
            "y": "1/2", "mode": [1, 1],
            "waypoints": [["0.2062912477066774", "1"], ["97/128", "161/128"]]}))
        out = tmp_path / "v"
        rc = main(["check-trajectory", "--config", config_file,
                   "--traj", str(tf), "--out", str(out)])
        assert rc == 4
        err = json.loads((out / "verdict.json").read_text())["error"]
        assert err.startswith("start pose (x, phi) = (0.2062912477066774, 1.0) is not told apart")
        assert err.endswith("roots t = []")
        assert capsys.readouterr().err == f"indeterminate: {err}\n"

    def test_start_outside_atlas_named(self, config_file, tmp_path, capsys):
        tf = tmp_path / "bad_traj.json"
        tf.write_text(json.dumps({
            "y": "1/2", "mode": [1, 1],
            "waypoints": [["7/2", "0"], ["0", "0"]]}))
        rc = main(["check-trajectory", "--config", config_file,
                   "--traj", str(tf), "--out", str(tmp_path / "v")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("indeterminate: trajectory start point (x, tphi) = (7/2, 0) ")
        assert "on a boundary or outside the atlas" in err


    @pytest.mark.parametrize("traj", [
        ["1/2", [1, 1], [["-1", "1"], ["0", "1/2"]]],
        {"y": [1], "mode": [1, 1], "waypoints": [["-1", "1"], ["0", "1/2"]]},
        {"y": "1/2", "mode": [1, 1], "waypoints": 5},
        {"y": "1/2", "mode": [1, 1], "waypoints": [["-1", "1"], ["0"]]},
        {"y": "1/0", "mode": [1, 1], "waypoints": [["-1", "1"], ["0", "1/2"]]},
        {"y": "1/2", "mode": [1, 1, 9], "waypoints": [["-1", "1"], ["0", "1/2"]]},
        {"y": "1/2", "mode": [1, 1], "waypoints": [["-1", "1"], ["1", "0", "4"]]},
        {"y": "1/2", "mode": [1.5, 1], "waypoints": [["-1", "1"], ["0", "1/2"]]},
        {"y": "1/2", "mode": [True, 1], "waypoints": [["-1", "1"], ["0", "1/2"]]},
        {"y": "1/2", "mode": ["1", -1], "waypoints": [["-1", "1"], ["0", "1/2"]]},
        {"y": "1/2", "mode": [1, 1.0], "waypoints": [["-1", "1"], ["0", "1/2"]]},
        {"y": True, "mode": [1, 1], "waypoints": [["-1", "1"], ["0", "1/2"]]},
    ], ids=["array", "y-list", "waypoints-int", "waypoint-arity", "zero-denominator",
            "mode-three-entries", "waypoint-three-coordinates", "mode-float", "mode-bool",
            "mode-string", "mode-integral-float", "y-bool"])
    def test_bad_trajectory_exit_2(self, traj, config_file, tmp_path, capsys):
        tf = tmp_path / "bad_traj.json"
        tf.write_text(json.dumps(traj))
        rc = main(["check-trajectory", "--config", config_file,
                   "--traj", str(tf), "--out", str(tmp_path / "v")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("traj,named", [
        ({"y": "1/2", "mode": [1, 1], "waypoints": [["-1", "1"], ["1e400", "1/2"]]}, "'1e400'"),
        ({"y": "1/2", "mode": [1, 1], "waypoints": [["-1", "-1e400"], ["0", "1/2"]]}, "'-1e400'"),
        ({"y": "1e400", "mode": [1, 1], "waypoints": [["-1", "1"], ["0", "1/2"]]}, "y is"),
    ], ids=["waypoint-x", "waypoint-phi", "y"])
    def test_rational_too_large_for_a_float_exit_2(self, traj, named, config_file, tmp_path,
                                                   capsys):
        tf = tmp_path / "big_traj.json"
        tf.write_text(json.dumps(traj))
        rc = main(["check-trajectory", "--config", config_file,
                   "--traj", str(tf), "--out", str(tmp_path / "v")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and named in err and "too large for a float" in err
        assert not (tmp_path / "v").exists()


    @pytest.mark.parametrize("y", ["1e400", "-Infinity"])
    def test_json_number_beyond_float_range_exit_2(self, y, config_file, tmp_path, capsys):
        tf = tmp_path / "big_traj.json"
        tf.write_text('{"y": %s, "mode": [1, 1], "waypoints": [["-1", "1"], ["0", "1/2"]]}' % y)
        rc = main(["check-trajectory", "--config", config_file,
                   "--traj", str(tf), "--out", str(tmp_path / "v")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: bad trajectory: ")
        assert not (tmp_path / "v").exists()


# SHA-256 of command outputs that neither the tests above nor
# perfbench/reference.json pin: `analyze` of the joint slice
# alpha2 = pi - asin(1/6), whose joint-view plot.svg and mode (-, +) labels
# appear nowhere else (its cells.json, adjacency.json and cusps.json are
# the reference slice's), and `check-trajectory` on Fig. 10 in each
# working mode (trajectory.svg depends only on s3)
_SVG_S3 = {1: "ab31c7fabcb35da6c5dde816371abde6c025bc19b9e8fe6a86ae3dba6f1e0db3",
           -1: "d9cc2a20c4cab93a3fde3a646ee71ffb5c9c9ee6ee13cea61cd988214e9713c3"}
PINNED = {
    "Q:alpha2=pi-asin(1/6)": {
        "adjacency.json": "a35de501217920e5b435ca1d69e496115f713cf13930455585b18fe41ec7e147",
        "aspects.json": "64e7e2f89a31eed4ed64b811bedc32242ea542a3aea0db5ce230bbc6bfa34493",
        "cells.json": "70738fe58db580a712c68c6c64e71c798c14b649824ddc97db0d7f92cf5ce558",
        "cusps.json": "1f3d5ac9af990b0f8de3538eafac807456bd3258ff602b6034e0da0d9bf70316",
        "plot.svg": "19ab4f4a82b0fddc61637f3581b59b5c2b0aa2b06bbcbcfc78a83901a2eb61fe",
        "regions.json": "72f8716f9ec1b3602c9098211ad461de2ac90a12561dfcc48ef2bc4543a64081",
        "uniqueness.json": "a552c42c50e5c6793980f9dbf3ceabc9a461e9ed77b5f57ba7460d20e36349aa",
    },
    (1, 1): {"trajectory.svg": _SVG_S3[1],
             "verdict.json": "246ebca0ea36e99119c1e0264b92054adecb3707c6b58ec67510fe80b68c3e12"},
    (1, -1): {"trajectory.svg": _SVG_S3[-1],
              "verdict.json": "c6b55738915a1b07d4cf1914260992ec6176a15fe633291a83fdd75d76987ab6"},
    (-1, 1): {"trajectory.svg": _SVG_S3[1],
              "verdict.json": "8d12332defce24547860be407aeee94a088424e882124da5ddf5f3cd12b75842"},
    (-1, -1): {"trajectory.svg": _SVG_S3[-1],
               "verdict.json": "a74e5310b18571bb566dfac334756346bec69a03a8def641782233f346ff60c4"},
}


def _digests(out):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}


class TestPinnedOutputs:
    def test_joint_slice_analysis(self, config_file, tmp_path):
        out = tmp_path / "q"
        rc = main(["analyze", "--config", config_file, "--slice", "Q:alpha2=pi-asin(1/6)",
                   "--out", str(out)])
        assert rc == 0
        assert _digests(out) == PINNED["Q:alpha2=pi-asin(1/6)"]

    @pytest.mark.parametrize("mode", [(1, 1), (1, -1), (-1, 1), (-1, -1)],
                             ids=["pp", "pm", "mp", "mm"])
    def test_fig10_in_every_mode(self, mode, config_file, tmp_path):
        tf = tmp_path / "traj.json"
        tf.write_text(json.dumps({
            "y": "1/2", "mode": list(mode),
            "waypoints": [["-1", "1"], ["0", "1/2"], ["1", "-1"], ["1/2", "-2"]]}))
        out = tmp_path / "v"
        assert main(["check-trajectory", "--config", config_file, "--traj", str(tf),
                     "--out", str(out)]) == 0
        assert _digests(out) == PINNED[mode]


def _perfbench_curves(case, atlas_pp):
    """The four workspace curves that `plot.svg` draws at a perfbench slice."""
    from kinatlas.domains import characteristic_surface
    from kinatlas.mechanism import slice_jointspace, slice_workspace
    from oracles import SLICES
    if case == "ref":
        return [atlas_pp.ws.parallel, *atlas_pp.ws.serial, atlas_pp.wa.sc]
    params, y0 = SLICES[case]
    ws = slice_workspace(y0, params)
    return [ws.parallel, *ws.serial, characteristic_surface(slice_jointspace(ws))]


def _assert_columns_match_oracle(poly, xv, yv, lo, hi, density):
    """Every column of `curve_points` equals a fresh isolation of its fibre,
    double for double; returns the number of points."""
    from kinatlas.svg import curve_points
    from oracles import fiber_roots_by_eval
    cols = curve_points(poly, xv, yv, lo, hi, density)
    assert len(cols) == density + 1
    for i, col in enumerate(cols):
        x0 = lo + (hi - lo) * Fraction(i, density)
        assert col == [(float(x0), 2.0 * math.atan(y))
                       for y in fiber_roots_by_eval(poly, xv, yv, x0)], (poly, x0)
    return sum(map(len, cols))


class TestCurvePoints:
    """Every column `plot.svg` and `trajectory.svg` draw, at their density,
    against the substitution oracle: the certified route carried across
    each delineable interval gives the doubles a fresh isolation gives."""

    def test_columns_match_substitution_oracle(self, atlas_pp):
        points = sum(_assert_columns_match_oracle(poly, "x", "tphi", Fraction(-5), Fraction(5), 160)
                     for poly in _perfbench_curves("ref", atlas_pp))
        points += _assert_columns_match_oracle(atlas_pp.js.parallel_ru, "r", "u",
                                               Fraction(0), Fraction(16), 120)
        assert points >= 600

    @pytest.mark.parametrize("case", ["y0_0", "y0_2", "geom2"])
    def test_other_perfbench_slices(self, case, atlas_pp):
        points = sum(_assert_columns_match_oracle(poly, "x", "tphi", Fraction(-5), Fraction(5), 160)
                     for poly in _perfbench_curves(case, atlas_pp))
        assert points >= 300


class TestPlotRoutes:
    """Each case that must leave the certified route, counted by route and
    equal to the oracle column for column."""

    @staticmethod
    def _count_routes(monkeypatch) -> dict:
        from kinatlas import svg
        count = {"exact": 0, "carried": 0, "missed": 0}
        isolate, carried = svg.isolate, svg._carried_roots

        def exact(u):
            count["exact"] += 1
            return isolate(u)

        def certified(u, guesses):
            found = carried(u, guesses)
            count["carried" if found is not None else "missed"] += 1
            return found

        monkeypatch.setattr(svg, "isolate", exact)
        monkeypatch.setattr(svg, "_carried_roots", certified)
        return count

    def test_repeated_factor_takes_the_exact_route(self, monkeypatch):
        from kinatlas.svg import curve_points
        from oracles import parse_poly
        q = parse_poly("x^2 + t^2 - 1", ("x", "t"))
        count = self._count_routes(monkeypatch)
        _assert_columns_match_oracle(q * q, "x", "t", Fraction(-2), Fraction(2), 16)
        assert count == {"exact": 17, "carried": 0, "missed": 0}
        assert curve_points(q * q, "x", "t", Fraction(-2), Fraction(2), 16) == \
            curve_points(q, "x", "t", Fraction(-2), Fraction(2), 16)

    def test_column_on_a_critical_abscissa(self, monkeypatch):
        from oracles import parse_poly
        # columns at x = -2, -3/2, ..., 2: x = +-1 critical, each followed
        # by the first column of the next interval
        count = self._count_routes(monkeypatch)
        points = _assert_columns_match_oracle(parse_poly("x^2 + t^2 - 1", ("x", "t")), "x", "t",
                                              Fraction(-2), Fraction(2), 8)
        assert points == 2 + 2 * 3
        # the critical polynomial, then x = -2, -1, -1/2, 1, 3/2 by isolation
        assert count == {"exact": 1 + 5, "carried": 4, "missed": 0}

    def test_roots_that_nearly_meet(self, monkeypatch):
        from oracles import parse_poly
        # t = 1 +- sqrt((x - 1/3)^2 + 10^-12): no critical abscissa, the two
        # roots 2 10^-6 apart at x = 1/3, where the guesses carried from
        # the columns at 1/6 and 0 cross or meet
        poly = parse_poly("10^12*(t - 1)^2 - 10^12*(x - 1/3)^2 - 1", ("x", "t"))
        count = self._count_routes(monkeypatch)
        points = _assert_columns_match_oracle(poly, "x", "t", Fraction(0), Fraction(1), 6)
        assert points == 14
        assert count["missed"] >= 1 and count["carried"] >= 3


class TestJointPlot:
    def test_q_slice_plot_renders(self, atlas_pp):
        from kinatlas.cli import _plot_slice
        out = _plot_slice(atlas_pp, "Q", (0.0, 5.0, -math.pi, math.pi), 40)
        assert out.startswith("<svg") and out.rstrip().endswith("</svg>")
        assert "circle" in out  # cusp markers present


class TestConfigValidation:
    @pytest.mark.parametrize("command", ["analyze", "check-trajectory"])
    def test_unknown_key_exit_2(self, command, traj_file, tmp_path, capsys):
        # misspelled l2/l3 must not fall back to the default geometry
        cfg = tmp_path / "typo.json"
        cfg.write_text('{"type": "RPR-2PRR", "L2": "5", "l_3": "7"}')
        out = tmp_path / "out"
        args = ["--slice", "W:y=1/2"] if command == "analyze" else ["--traj", traj_file]
        rc = main([command, "--config", str(cfg), "--out", str(out)] + args)
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "L2" in err and "l_3" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "check-trajectory"])
    @pytest.mark.parametrize("config", ['{"l2": 1e400}', '{"l3": Infinity}'],
                             ids=["number", "infinity"])
    def test_json_number_beyond_float_range_exit_2(self, command, config, traj_file,
                                                   tmp_path, capsys):
        cfg = tmp_path / "big.json"
        cfg.write_text(config)
        out = tmp_path / "out"
        args = ["--slice", "W:y=1/2"] if command == "analyze" else ["--traj", traj_file]
        rc = main([command, "--config", str(cfg), "--out", str(out)] + args)
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: config {cfg}: ")
        assert not out.exists()

    def test_density_floor(self, config_file):
        rc = main(["analyze", "--config", config_file, "--slice", "W:y=1/2",
                   "--out", "/tmp/kinatlas-bad-density", "--density", "1"])
        assert rc == 2

    def test_window_ordering(self, config_file):
        rc = main(["analyze", "--config", config_file, "--slice", "W:y=1/2",
                   "--out", "/tmp/kinatlas-bad-window", "--window", "1,0,0,1"])
        assert rc == 2

    def test_window_too_large_for_a_float(self, config_file, tmp_path, capsys):
        rc = main(["analyze", "--config", config_file, "--slice", "W:y=1/2",
                   "--out", str(tmp_path / "out"), "--window", "0,1e400,0,1"])
        assert rc == 2
        assert "'1e400'" in capsys.readouterr().err


# every exception class the exact layers raise on an undecidable input
EXACT_LAYER_ERRORS = [
    ("kinatlas.mechanism", "KinematicsError"), ("kinatlas.domains", "DomainError"),
    ("kinatlas.adjacency", "AdjacencyError"), ("kinatlas.cad2d", "CadError"),
    ("kinatlas.realroots", "RealRootError"), ("kinatlas.ratpoly", "RatPolyError"),
]


def _error_class(module, name):
    import importlib
    return getattr(importlib.import_module(module), name)


def test_every_package_exception_has_an_exit_code():
    """Each exception class that a module of `src/kinatlas` defines maps to
    an exit code in `cli.main`: an exact-layer error (a subclass of a class
    in `cli._MATH_ERRORS`: exit 3, or 4 in a verdict), `cli.ConfigError`
    (exit 2) or `trajectory.TrajectoryError` (exit 2 while a trajectory is
    read, exit 4 in a verdict).  Any other would escape as a traceback."""
    import importlib
    import inspect
    import pkgutil
    import kinatlas
    from kinatlas import cli, trajectory
    found = []
    for info in pkgutil.iter_modules(kinatlas.__path__):
        module = importlib.import_module(f"kinatlas.{info.name}")
        found += [c for _, c in inspect.getmembers(module, inspect.isclass)
                  if c.__module__ == module.__name__ and issubclass(c, Exception)]
    unmapped = [f"{c.__module__}.{c.__name__}" for c in found
                if not issubclass(c, cli._MATH_ERRORS)
                and c not in (cli.ConfigError, trajectory.TrajectoryError)]
    assert not unmapped, f"exception classes with no exit code in cli.main: {unmapped}"
    assert len(found) >= 9, found


class TestExactLayerErrors:
    """Build-time failures exit 3 (`degeneracy: …`); verdict-time failures
    exit 4 with `{"error": …}` in verdict.json.  Each class is forced by
    monkeypatching the call that would raise it."""

    @pytest.mark.parametrize("module, name", EXACT_LAYER_ERRORS,
                             ids=[n for _, n in EXACT_LAYER_ERRORS])
    @pytest.mark.parametrize("command", ["analyze", "check-trajectory"])
    def test_build_failure_exit_3(self, command, module, name, config_file, traj_file,
                                  tmp_path, monkeypatch, capsys):
        from kinatlas import cli
        err_cls = _error_class(module, name)

        def build(*args, **kwargs):
            raise err_cls(f"forced {name} at base root 7")

        monkeypatch.setattr(cli.SliceAtlas, "build", staticmethod(build))
        out = tmp_path / "out"
        args = ["--slice", "W:y=1/2"] if command == "analyze" else ["--traj", traj_file]
        rc = main([command, "--config", config_file, "--out", str(out)] + args)
        assert rc == 3
        assert capsys.readouterr().err == f"degeneracy: forced {name} at base root 7\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "check-trajectory"])
    def test_failure_after_the_build_exit_3(self, command, config_file, traj_file, atlas_pp,
                                            tmp_path, monkeypatch, capsys):
        """`main` maps an exact-layer failure outside a verdict to exit 3
        wherever it is raised: here while the plot's curves are drawn,
        after the JSON outputs, the verdict included, are written."""
        from kinatlas import cli, svg
        from kinatlas.realroots import RealRootError

        def curve_points(*args):
            raise RealRootError("planted")

        monkeypatch.setattr(cli.SliceAtlas, "build", staticmethod(lambda *a, **k: atlas_pp))
        monkeypatch.setattr(svg, "curve_points", curve_points)
        out = tmp_path / "out"
        args = ["--slice", "W:y=1/2"] if command == "analyze" else ["--traj", traj_file]
        rc = main([command, "--config", config_file, "--out", str(out)] + args)
        assert rc == 3
        assert capsys.readouterr() == ("", "degeneracy: planted\n")
        assert (out / ("cells.json" if command == "analyze" else "verdict.json")).exists()
        assert not (out / "plot.svg").exists() and not (out / "trajectory.svg").exists()

    @pytest.mark.parametrize("module, name",
                             EXACT_LAYER_ERRORS + [("kinatlas.trajectory", "TrajectoryError")],
                             ids=[n for _, n in EXACT_LAYER_ERRORS] + ["TrajectoryError"])
    def test_verdict_failure_exit_4(self, module, name, config_file, traj_file,
                                    tmp_path, monkeypatch, capsys):
        from kinatlas import cli
        err_cls = _error_class(module, name)

        def track_branches(*args, **kwargs):
            raise err_cls(f"forced {name} at s = 0.25")

        monkeypatch.setattr(cli.SliceAtlas, "build", staticmethod(lambda *a, **k: object()))
        monkeypatch.setattr(cli, "track_branches", track_branches)
        out = tmp_path / "out"
        rc = main(["check-trajectory", "--config", config_file,
                   "--traj", traj_file, "--out", str(out)])
        assert rc == 4
        assert json.loads((out / "verdict.json").read_text()) == {
            "error": f"forced {name} at s = 0.25"}
        assert capsys.readouterr().err == f"indeterminate: forced {name} at s = 0.25\n"
        assert not (out / "trajectory.svg").exists()
