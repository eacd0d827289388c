#!/usr/bin/env python3
"""kinatlas benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
`src/`.  Each run is a fresh process, so the package's module-level caches
start cold, as they do for a command-line user.  The workload runs in this
one process with the package defaults (one thread; `ATLAS_THREADS` is cleared);
a traced run also starts the same run untraced alongside, for the overhead.

Workloads (closed loop, one client):

  atlas-ref      one `kinatlas analyze` of the reference slice y = 1/2,
                 mode ++, default geometry: the user's main command.
  slice-sweep    `analyze` on y = 0 (degenerate cut), y = 2, and the
                 geometry (l2, l3, a, b) = (2, 5/2, 1/2, 3/2) at y = 1/2.
  verdict-batch  the y = 1/2, ++ atlas is built in set-up; then the Fig. 10
                 trajectory, a path through a singularity and a seeded
                 batch of generated trajectories go through `track_branches`.

Every output is checked against `reference.json` (recorded at the seed
commit by `record.py`); a failed or wrong operation counts in `failed`.
With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` the layers are traced from outside (see tracer.py) and the line
holds the per-layer metrics.  The line before it holds run metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import trajgen
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


DEFAULT_MECH = {"type": "RPR-2PRR", "l2": "3", "l3": "3", "a": "1", "b": "1"}
GEOM2_MECH = {"type": "RPR-2PRR", "l2": "2", "l3": "5/2", "a": "1/2", "b": "3/2"}
SLICES = {                       # analyze case -> (mechanism, --slice)
    "ref": (DEFAULT_MECH, "W:y=1/2"),
    "y0_0": (DEFAULT_MECH, "W:y=0"),
    "y0_2": (DEFAULT_MECH, "W:y=2"),
    "geom2": (GEOM2_MECH, "W:y=1/2"),
}
WORKLOADS = {                    # workload -> analyze cases (None: verdicts)
    "atlas-ref": ("ref",),
    "slice-sweep": ("y0_0", "y0_2", "geom2"),
    "verdict-batch": None,
}
OUTPUT_FILES = ("cells.json", "adjacency.json", "aspects.json", "regions.json",
                "uniqueness.json", "cusps.json", "plot.svg")
REFERENCE_COUNTS = {"workspace_aspects": 2, "joint_aspects": 2, "count_regions": 10,
                    "cusps": 4, "uniqueness_domains": 4}

FIG10 = ((-1.0, 1.0), (0.0, 0.5), (1.0, -1.0), (0.5, -2.0))
# the middle waypoint is on the parallel singularity of mode ++ (det A is 0
# in floats there) and is pose 300 of the 601 that `track_branches` scans for
# det A = 0, so the verdict must report a singular crossing
SINGULAR = ((-63 / 128, 129 / 128), (0.2062912477066774, 1.0), (97 / 128, 161 / 128))
# generated trajectories per second of --seconds: the seed commit's verdict
# rate on a 2-core machine, so a batch takes about --seconds there
VERDICTS_PER_SECOND = 1.6
IMPORT_SAMPLES = 15

# the package defaults: no worker threads (the tracer keeps one span stack),
# also in the untraced child, which inherits this environment
os.environ.pop("ATLAS_THREADS", None)

END_TO_END = (("setup_s", "s"), ("op_p50_cal", "cal"), ("op_tail_cal", "cal"),
              ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))
PROBE_PERIOD_S = 0.02
PROBE_WINDOW_PAD_S = 0.1
# set-up is reported in seconds at the speed where the probe loop takes this
# long (a quiet 2-core x86-64 virtual machine), so that it is steady too
REFERENCE_LOOP_S = 0.0005

# per-layer metrics: (traced function, fields)
FUNCTION_METRICS = (
    ("adjacency.build_graph", ("calls", "incl_s", "self_s")),
    ("realroots.segment_crosses", ("calls", "self_s")),
    ("realroots.isolate", ("calls", "self_s")),
    ("realroots.IsolatingInterval.refine", ("calls", "self_s")),
    ("realroots.count_roots", ("calls", "self_s")),
    ("ratpoly.UPoly.gcd", ("calls", "self_s")),
    ("ratpoly.UPoly.squarefree", ("calls",)),
    ("ratpoly.UPoly.int_cleared", ("calls",)),
    ("cad2d.Decomposition.locate", ("calls", "incl_s")),
    ("ratpoly.resultant", ("calls", "self_s")),
    ("ratpoly.mgcd", ("calls", "self_s")),
    ("cad2d.resultant_bivar", ("calls", "self_s")),
    ("cad2d.projection_set", ("incl_s",)),
    ("cad2d.decompose", ("calls", "incl_s")),
    *((f"domains.{stage}", ("incl_s",)) for stage in (
        "analyze_workspace", "characteristic_surface", "analyze_jointspace", "w_aspects",
        "q_aspects", "basic_regions", "uniqueness_domains", "count_atlas", "cusp_points")),
    *((f"mechanism.{stage}", ("incl_s",)) for stage in (
        "slice_workspace", "project_parallel_to_joint", "slice_jointspace")),
    *((f"trajectory.{stage}", ("incl_s",)) for stage in (
        "track_branches", "encirclement", "tracked_chart")),
    ("trajectory.follow_chain", ("calls", "self_s")),
    ("mechanism.inverse_kinematics", ("calls", "self_s")),
    ("mechanism.direct_kinematics", ("calls",)),
    ("svg.curve_points", ("calls", "self_s")),
)
COUNT_METRICS = ("adjacency.candidate_pairs", "adjacency.edges", "realroots.isolate.roots",
                 "cad2d.cells", "cad2d.base_roots", "cad2d.base_degree",
                 "trajectory.follow_chain.steps")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for fn, fields in FUNCTION_METRICS:
        spec += [(f"{fn}.{f}", "count" if f == "calls" else "s", "lower") for f in fields]
    spec += [(c, "count", "lower") for c in COUNT_METRICS]
    spec += [("adjacency.edge_yield", "ratio", "higher"),
             ("realroots.segment_crosses.hit_ratio", "ratio", "lower")]
    spec += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    spec += [(f"{layer}.lines", "lines", "lower") for layer in LAYERS]
    spec += [("src.lines", "lines", "lower"), ("trace.spans", "count", "lower"),
             ("trace.overhead", "x", "lower")]
    return spec


@dataclass
class Run:
    """What one workload measured and checked."""

    setup: list[tuple[float, float]] = field(default_factory=list)  # (start, s) per sample
    inproc_setup_s: float = 0.0                          # part of set-up spent in this process
    ops: list[tuple[str, float, float]] = field(default_factory=list)  # (label, start, s)
    analyze_s: dict[str, float] = field(default_factory=dict)   # seconds per analyze case
    attempted: int = 0
    failed: int = 0

    def fail(self, what: str):
        self.failed += 1
        print(f"FAIL {what}", file=sys.stderr)


# ---------------------------------------------------------------------------
# workloads


def _digests(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUT_FILES}


def _reference_counts(out: Path) -> dict[str, int]:
    def load(name):
        return json.loads((out / name).read_text())
    aspects, regions = load("aspects.json"), load("regions.json")
    return {"workspace_aspects": len(aspects["workspace"]),
            "joint_aspects": len(aspects["jointspace"]),
            "count_regions": len(regions["count_regions"]),
            "cusps": len(load("cusps.json")["cusps"]),
            "uniqueness_domains": len(load("uniqueness.json"))}


def analyze(case: str, work: Path) -> tuple[float, Path]:
    """One in-process `kinatlas analyze`; returns (seconds, output dir)."""
    import kinatlas.cli
    mech, slice_arg = SLICES[case]
    cfg = work / f"{case}.mech.json"
    cfg.write_text(json.dumps(mech))
    out = work / case
    argv = ["analyze", "--config", str(cfg), "--slice", slice_arg, "--out", str(out)]
    with contextlib.redirect_stdout(sys.stderr):
        t0 = time.perf_counter()
        rc = kinatlas.cli.main(argv)
        dt = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"analyze {case} exited with {rc}")
    return dt, out


def import_samples(n: int) -> list[tuple[float, float]]:
    """Import of the CLI module and every package module it loads, `n` times:
    the package's start-up, which a command-line user pays before `analyze`
    does any work.  Each time the package's modules are dropped first, so
    every module body runs again, with fresh caches (the standard library
    stays loaded).  Returns (start, seconds) per sample."""
    out = []
    for _ in range(n):
        for name in [m for m in sys.modules if m == "kinatlas" or m.startswith("kinatlas.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        importlib.import_module("kinatlas.cli")
        out.append((t0, time.perf_counter() - t0))
    return out


def run_analyze(cases, ref: dict, work: Path, setup) -> Run:
    """The cases make one op: on a shared 2-core machine a single 20-40 s
    operation measured once per run is steady enough to gate on, while its
    parts alone spread too widely.  Their times go to the metadata."""
    run = Run(setup=setup)
    start = time.perf_counter()
    for case in cases:
        run.attempted += 1
        try:
            dt, out = analyze(case, work)
        except Exception:
            traceback.print_exc()
            run.fail(f"analyze {case} raised")
            continue
        run.analyze_s[case] = dt
        if _digests(out) != ref["analyze"][case]:
            run.fail(f"analyze {case}: outputs differ from the seed commit")
        elif case == "ref" and _reference_counts(out) != REFERENCE_COUNTS:
            run.fail(f"analyze {case}: counts differ from the paper")
    if len(run.analyze_s) == len(cases):
        run.ops.append(("+".join(cases), start, sum(run.analyze_s.values())))
    return run


def verdict_batch(seed: int, seconds: int, ref: dict) -> list[tuple[str, tuple, dict]]:
    """(label, waypoints, expected verdict) for one run: the fixed
    trajectories, then one generated trajectory from each of `k` cost
    strata of the recorded pool, in seeded order.  An expected verdict holds
    the SHA-256 of its `verdict.json` and, for a pool trajectory, its
    discrete fields.  Stratifying on each verdict's time at the seed
    commit keeps every batch's cost profile, and so its median and tail,
    alike while the trajectories change with the seed."""
    pool = sorted(ref["pool"], key=lambda e: (e["cost"], e["index"]))
    k = max(1, min(len(pool), round(seconds * VERDICTS_PER_SECOND)))
    rng = random.Random(seed)
    picks = [rng.choice(pool[i * len(pool) // k:(i + 1) * len(pool) // k]) for i in range(k)]
    rng.shuffle(picks)
    batch = [(label, wps, {"sha256": ref["fixed"][label]}) for label, (wps, _) in FIXED.items()]
    for e in picks:
        wps = trajgen.trajectory(e["index"])
        if [[str(Fraction(x)), str(Fraction(p))] for x, p in wps] != e["waypoints"]:
            raise SystemExit(f"trajectory {e['index']} no longer matches reference.json; "
                             "re-record it with perfbench/record.py")
        batch.append((f"traj{e['index']}", wps, {"sha256": e["sha256"], "verdict": e["verdict"]}))
    return batch


def verdict_fields(v) -> dict:
    return {"start_domain": v.start_domain, "end_domain": v.end_domain,
            "same_domain": v.same_domain, "assembly_mode_changed": v.assembly_mode_changed,
            "singular_crossing": v.singular_crossing,
            "encircled_cusps": [list(w) for w in v.encircled_cusps]}


def verdict_sha256(v) -> str:
    """SHA-256 of the `verdict.json` that `kinatlas check-trajectory` writes."""
    return hashlib.sha256((json.dumps(v.to_json(), indent=1, sort_keys=True) + "\n")
                          .encode()).hexdigest()


def fig10_ok(v) -> bool:
    """The paper's Fig. 10 verdict: an assembly-mode change between different
    domains without a singular crossing, winding a cusp."""
    return (not v.same_domain and v.assembly_mode_changed and not v.singular_crossing
            and any(w != 0 for _, w in v.encircled_cusps))


FIXED = {                        # label -> (waypoints, check of the verdict)
    "fig10": (FIG10, fig10_ok),
    "singular": (SINGULAR, lambda v: v.singular_crossing),
}


def run_verdicts(seed: int, seconds: int, ref: dict) -> Run:
    from kinatlas import domains, trajectory
    from kinatlas.mechanism import MechanismParams, WorkingMode
    batch = verdict_batch(seed, seconds, ref)
    params, mode, y0 = MechanismParams(), WorkingMode(1, 1), Fraction(1, 2)
    t0 = time.perf_counter()
    atlas = domains.SliceAtlas.build(params, y0, mode)
    setup = time.perf_counter() - t0
    run = Run(setup=[(t0, setup)], inproc_setup_s=setup)
    for label, wps, want in batch:
        run.attempted += 1
        traj = trajectory.Trajectory(y0=y0, mode=mode, waypoints=tuple(wps))
        t0 = time.perf_counter()
        try:
            v = trajectory.track_branches(traj, params, atlas)
        except Exception:
            traceback.print_exc()
            run.fail(f"{label} raised")
            continue
        run.ops.append((label, t0, time.perf_counter() - t0))
        if label in FIXED and not FIXED[label][1](v):
            run.fail(f"{label}: verdict {verdict_fields(v)} is wrong")
        elif "verdict" in want and verdict_fields(v) != want["verdict"]:
            run.fail(f"{label}: verdict {verdict_fields(v)} differs from the seed's "
                     f"{want['verdict']}")
        elif verdict_sha256(v) != want["sha256"]:
            run.fail(f"{label}: verdict.json differs from the seed commit's")
    return run


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return 100.0, v[-1]
    r = n - 11
    return 100.0 * r / (n - 1), v[r]


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics, each weighted by the Beta((n+1)q, (n+1)(1-q)) mass of its
    1/n-wide interval.  Unlike a single order statistic it does not jump
    when noise swaps two neighbouring ops, so the median and tail of a few
    dozen verdicts move less from run to run."""
    v = sorted(values)
    n = len(v)
    if n == 1 or q >= 1:
        return v[-1]
    if q <= 0:
        return v[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64                                  # midpoint rule per interval
    h = 1 / (n * steps)
    mass = [h * sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
                    for x in ((i * steps + j + 0.5) * h for j in range(steps)))
            for i in range(n)]
    return sum(m * x for m, x in zip(mass, v)) / sum(mass)


class SpeedProbe:
    """Times a fixed loop of rational arithmetic, which does not touch the
    package, in a background thread every PROBE_PERIOD_S.

    A shared machine's speed can swing by a fifth or more within seconds,
    for the program and for this loop alike.  An op's time divided
    by the mean loop time over the op's interval ("cal", one loop's time at
    that moment) cancels the swing.  Each sample runs while the measured
    thread waits for the interpreter lock, so the probe costs the op a few
    percent of its time, the same on every commit."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []     # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def loop() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(1, 160):
            acc += (Fraction(i, 3) * Fraction(7, i + 1)).numerator
        return time.perf_counter() - t0

    def _run(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            t0 = time.perf_counter()
            self.samples.append((t0, self.loop()))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def cal(self, start: float, seconds: float) -> float:
        """Loop time over [start, start + seconds], widened by
        PROBE_WINDOW_PAD_S on each side so that short ops see several
        samples: the mean without the top and bottom tenth, which drops
        samples that the measured thread interrupted."""
        pad = PROBE_WINDOW_PAD_S
        window = sorted(d for t, d in self.samples if start - pad <= t <= start + seconds + pad)
        window = window or sorted(d for _, d in self.samples)
        cut = len(window) // 10
        return statistics.mean(window[cut:len(window) - cut])


def end_to_end(run: Run, probe: SpeedProbe) -> dict:
    cals = [dt / probe.cal(t0, dt) for _, t0, dt in run.ops] or [0.0]
    ok = (run.attempted - run.failed) / run.attempted
    tail_q = tail(cals)[0] / 100
    # set-up samples run back to back: one speed over all of them, since the
    # probe takes only a few samples within one 0.1 s import
    start = run.setup[0][0]
    end = max(t0 + dt for t0, dt in run.setup)
    values = {
        "setup_s": REFERENCE_LOOP_S * statistics.median(dt for _, dt in run.setup)
                   / probe.cal(start, end - start),
        "op_p50_cal": harrell_davis(cals, 0.5),
        "op_tail_cal": harrell_davis(cals, tail_q),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": ok,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(summary: dict, overhead: float) -> dict:
    funcs, counts = summary["functions"], summary["counts"]
    values = {}
    for fn, fields in FUNCTION_METRICS:
        for f in fields:
            values[f"{fn}.{f}"] = funcs.get(fn, {}).get(f, 0)
    for c in COUNT_METRICS:
        values[c] = counts.get(c, 0)
    pairs = counts.get("adjacency.candidate_pairs", 0)
    values["adjacency.edge_yield"] = counts.get("adjacency.edges", 0) / pairs if pairs else 0.0
    seg = funcs.get("realroots.segment_crosses", {}).get("calls", 0)
    values["realroots.segment_crosses.hit_ratio"] = (
        counts.get("realroots.segment_crosses.hits", 0) / seg if seg else 0.0)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = summary["layer_self_s"][layer]
        values[f"{layer}.lines"] = _lines(SRC / "kinatlas" / f"{layer}.py")
    values["src.lines"] = sum(_lines(p) for p in sorted(SRC.rglob("*.py")))
    values["trace.spans"] = summary["spans"]
    values["trace.overhead"] = overhead
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}


def _lines(path: Path) -> int:
    with open(path, "rb") as f:
        return sum(1 for _ in f)


# ---------------------------------------------------------------------------
# run metadata


def _commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "kinatlas").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def metadata(args, load_at_start: tuple[float, ...], probe: SpeedProbe, run: Run,
             wall_s: float) -> dict:
    times = [dt for _, _, dt in run.ops]
    pct = tail(times)[0] if times else None
    loops = [d for _, d in probe.samples]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": list(load_at_start), "commit": _commit(), "src_sha256": _src_digest(),
        "attempted": run.attempted, "failed": run.failed,
        "fail_ratio": run.failed / run.attempted,
        "ops": len(times), "op_tail_percentile": pct,
        "op_p50_s": statistics.median(times) if times else None,
        "op_tail_s": tail(times)[1] if times else None,
        "work_s": sum(times), "ops_per_s": len(times) / sum(times) if times else None,
        "probe_loop_s": {"samples": len(loops), "mean": statistics.mean(loops),
                         "min": min(loops), "max": max(loops)} if loops else None,
        "analyze_s": run.analyze_s,
        "op_times": [[label, dt, dt / probe.cal(t0, dt)] for label, t0, dt in run.ops],
        "setup_samples_s": [dt for _, dt in run.setup], "wall_s": wall_s,
    }


# ---------------------------------------------------------------------------


def start_untraced(args) -> subprocess.Popen:
    """The same run without tracing, in a fresh process so that its caches
    start cold as well.  It runs alongside the traced run: both see the
    same machine load, and a traced run takes about as long as an untraced
    one instead of twice as long."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def untraced_wall(child: subprocess.Popen) -> tuple[float, bool]:
    """In-process wall time in cal and correctness of the untraced run."""
    out, _ = child.communicate(timeout=900)
    lines = out.strip().splitlines()
    if child.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"untraced reference run exited with {child.returncode}")
    meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
    return meta["wall_cal"], result["correct"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_at_start = os.getloadavg()
    if not (SRC / "kinatlas" / "__init__.py").is_file():
        print(f"error: no kinatlas sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ref = json.loads((HERE / "reference.json").read_text())

    cases = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    work.mkdir()
    child = start_untraced(args) if tracer is not None else None
    try:
        with SpeedProbe() as probe:
            # import samples first: re-importing would drop the traced modules
            setup = import_samples(IMPORT_SAMPLES) if cases else None
            if tracer is not None:
                tracer.install()
            t0 = time.perf_counter()
            if cases:
                run = run_analyze(cases, ref, work, setup)
            else:
                run = run_verdicts(args.seed, args.seconds, ref)
            elapsed = time.perf_counter() - t0
    except BaseException:
        if child is not None:
            child.kill()
            child.wait()
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()
    wall_s = run.inproc_setup_s + sum(dt for _, _, dt in run.ops)
    correct = run.failed == 0 and bool(run.ops)

    if tracer is None:
        metrics = end_to_end(run, probe)
    else:
        summary = tracer.summary()
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}")
        untraced_cal, untraced_ok = untraced_wall(child)
        correct = correct and untraced_ok
        metrics = per_layer(summary, wall_s / probe.cal(t0, elapsed) / untraced_cal)
    meta = metadata(args, load_at_start, probe, run, wall_s)
    meta["wall_cal"] = wall_s / probe.cal(t0, elapsed)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
