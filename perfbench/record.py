#!/usr/bin/env python3
"""Record perfbench/reference.json at a commit whose outputs are trusted.

    python3 perfbench/record.py

Stores the SHA-256 of every `analyze` output file for each analyze case;
the SHA-256 of the `verdict.json` of each fixed trajectory (Fig. 10 and
the singular crossing) on the y = 1/2, ++ atlas; and, for each of the POOL
generated trajectories, its waypoints, the discrete fields and SHA-256 of
its verdict, and the verdict's mean time in cal over two passes (its
`cost`, used only to stratify the pool into cost bands; see `SpeedProbe`
in run.py).  A fixed verdict that fails its check, or a pool trajectory
whose verdict raises or changes between passes, stops the recording.  Recording twice gives the same bytes except for the costs,
which move by a few percent.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import time
from fractions import Fraction

import run
import trajgen

POOL = 160                       # generated trajectories in reference.json


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from kinatlas import domains, trajectory
    from kinatlas.mechanism import MechanismParams, WorkingMode

    work = run.WORK / "record"
    work.mkdir(parents=True, exist_ok=True)
    try:
        digests = {}
        for case in run.SLICES:
            _, out = run.analyze(case, work)
            digests[case] = run._digests(out)
            print(f"analyze {case}: recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    params, mode, y0 = MechanismParams(), WorkingMode(1, 1), Fraction(1, 2)
    atlas = domains.SliceAtlas.build(params, y0, mode)
    fixed = {}
    for label, (wps, check) in run.FIXED.items():
        v = trajectory.track_branches(trajectory.Trajectory(y0, mode, wps), params, atlas)
        if not check(v):
            raise SystemExit(f"{label}: verdict {run.verdict_fields(v)} is wrong")
        fixed[label] = run.verdict_sha256(v)
    # each verdict is timed twice, in index order and in reverse, so that
    # the warm-up of the package's caches does not load the first ones
    pool, times = [], {}
    with run.SpeedProbe() as probe:
        for order in (range(POOL), reversed(range(POOL))):
            for i in order:
                wps = trajgen.trajectory(i)
                t0 = time.perf_counter()
                v = trajectory.track_branches(trajectory.Trajectory(y0, mode, wps), params, atlas)
                times.setdefault(i, []).append((t0, time.perf_counter() - t0))
                if len(times[i]) == 1:
                    pool.append({"index": i, "waypoints": [[str(Fraction(x)), str(Fraction(p))]
                                                           for x, p in wps],
                                 "verdict": run.verdict_fields(v),
                                 "sha256": run.verdict_sha256(v)})
                elif run.verdict_sha256(v) != pool[i]["sha256"]:
                    raise SystemExit(f"trajectory {i}: verdict changed between passes")
                print(f"trajectory {i}: {times[i][-1][1]:.3f} s", file=sys.stderr)
    for e in pool:
        e["cost"] = round(statistics.mean(dt / probe.cal(t0, dt) for t0, dt in times[e["index"]]))
    ref = {"note": "recorded by perfbench/record.py; see perfbench/README.md",
           "analyze": digests, "fixed": fixed, "pool": pool}
    (run.HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
