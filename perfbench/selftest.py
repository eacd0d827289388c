#!/usr/bin/env python3
"""Check that the traced run's counts repeat exactly.

    python3 perfbench/selftest.py --workload <name> [--seed n] [--seconds s]

Makes two traced runs of one workload with the same seed, each in a fresh
process, and compares every per-layer metric that is a count (calls, cells,
edges, steps, roots, lines and the ratios of counts).  Timings are not
compared.  Exit code 0 when all counts agree and both runs were correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def traced(args) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"]
    p = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=1800)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"traced run exited with {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    args = ap.parse_args()
    first, second = traced(args), traced(args)
    exact = [name for name, unit, _ in run.per_layer_spec() if unit in ("count", "lines", "ratio")]
    bad = [(m, first["metrics"][m]["value"], second["metrics"][m]["value"]) for m in exact
           if first["metrics"][m]["value"] != second["metrics"][m]["value"]]
    for m, a, b in bad:
        print(f"MISMATCH {m}: {a} != {b}")
    ok = not bad and first["correct"] and second["correct"]
    print(f"{args.workload}: {len(exact)} counts compared, {len(bad)} differ, "
          f"correct {first['correct']}/{second['correct']}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
