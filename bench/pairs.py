#!/usr/bin/env python3
"""Paired benchmark runs of a parent tree and a change tree: BENCH_<pr>.json.

    python3 bench/pairs.py --parent PARENT_TREE --change CHANGE_TREE \\
        --pr 15 --parent-commit SHA --change-text "what the change does"

Each tree is a source checkout with its own `perfbench/`; every run is
`python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1`
started in that tree, one at a time, S being the change tree's
BENCHMARK.json run_seconds.  Each workload runs PAIRS = 10 pairs; pair i
runs both sides with the same seed, pr * 1000 + 100 * k + i (k = 1
atlas-ref, 3 slice-sweep, 4 verdict-batch), and which side runs first
alternates, the parent first in the first pair.  Then one `--trace 1` run per workload and side, with
seed 1.  The file holds every run's two output lines, and for each
workload and end-to-end metric of the change tree's BENCHMARK.json each
side's median and quartiles
(statistics.quantiles(n=4, method='inclusive')), the number of pairs the
change wins, and its median over the parent's, minus 1; a summary line per
workload and metric prints each side's median and [q1, q3].  Nothing under
`perfbench/` is written or changed here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
# the workloads in the order they run, and the block k of their seeds
SEED_BLOCKS = {"verdict-batch": 4, "atlas-ref": 1, "slice-sweep": 3}
TRACE_SEED = 1


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark process in `tree`: its exit code and its JSON lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = []
    for line in proc.stdout.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return {"exit": proc.returncode, "lines": lines[-2:]}


def _metrics(run: dict) -> dict:
    return run["lines"][-1]["metrics"] if run["lines"] else {}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles over the pairs, and in
    how many pairs the change is better (ties count for neither side)."""
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = _metrics(r)
    pairs = [p for p in by_seed.values() if "parent" in p and "change" in p]
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        got = [(p["parent"][name]["value"], p["change"][name]["value"]) for p in pairs
               if name in p["parent"] and name in p["change"]]
        if not got:
            continue
        entry = {"pairs": len(got)}
        for side, values in (("parent", [a for a, _ in got]), ("change", [b for _, b in got])):
            q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                           if len(values) > 1 else values * 3)
            entry.update({f"{side}_median": med, f"{side}_q1": q1, f"{side}_q3": q3})
        wins = sum(b > a if higher else b < a for a, b in got)
        entry["change_higher_in_pairs" if higher else "change_lower_in_pairs"] = wins
        base = entry["parent_median"]
        entry["change_vs_parent"] = entry["change_median"] / base - 1 if base else 0.0
        out[name] = entry
    out["correct_all_runs"] = all(r["exit"] == 0 and r["lines"] and r["lines"][-1].get("correct")
                                  for r in runs)
    return out


def traced(runs: list[dict]) -> dict:
    """Every per-layer metric of the traced runs: parent and change side by side."""
    sides = {r["side"]: _metrics(r) for r in runs}
    names = list(sides.get("change", {})) or list(sides.get("parent", {}))
    return {n: {s: sides.get(s, {}).get(n, {}).get("value") for s in ("parent", "change")}
            for n in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="the parent commit's tree")
    ap.add_argument("--change", required=True, type=Path, help="the change's tree")
    ap.add_argument("--pr", required=True, type=int)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--change-text", required=True, help="one line: what the change does")
    ap.add_argument("--out", type=Path, help="default: BENCH_<pr>.json in the change tree")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]

    runs = []

    def run(side, workload, seed, trace):
        print(f"{side} {workload} seed {seed} trace {trace}", file=sys.stderr, flush=True)
        r = run_once(trees[side], workload, seed, seconds, trace)
        runs.append({"side": side, "workload": workload, "seed": seed, "trace": trace, **r})

    for workload in SEED_BLOCKS:
        for i in range(1, PAIRS + 1):
            seed = args.pr * 1000 + 100 * SEED_BLOCKS[workload] + i
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                run(side, workload, seed, 0)
    for workload in SEED_BLOCKS:
        for side in ("parent", "change"):
            run(side, workload, TRACE_SEED, 1)

    summary = {w: summarize([r for r in runs if r["workload"] == w and r["trace"] == 0], metrics)
               for w in SEED_BLOCKS}
    batches = ", ".join(f"seeds {args.pr * 1000 + 100 * SEED_BLOCKS[w] + 1}-"
                        f"{args.pr * 1000 + 100 * SEED_BLOCKS[w] + PAIRS} {w}" for w in SEED_BLOCKS)
    doc = {
        "change": args.change_text,
        "parent_commit": args.parent_commit,
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds} "
                   "--trace 0|1",
        "machine": f"{os.cpu_count()} cores, {platform.machine()}, "
                   f"Python {platform.python_version()}",
        "protocol": ("parent and change run from separate copies of the tree, one run at a "
                     "time; each pair runs both sides with the same seed, and which side runs "
                     "first alternates from pair to pair, the parent first in the first pair of "
                     f"each batch (batches: {batches}); one --trace 1 run per workload and side "
                     f"uses seed {TRACE_SEED}; quartiles are "
                     "statistics.quantiles(n=4, method='inclusive'); written by bench/pairs.py"),
        "summary": summary,
        "traced": {w: traced([r for r in runs if r["workload"] == w and r["trace"] == 1])
                   for w in SEED_BLOCKS},
        "runs": runs,
    }
    out = args.out or trees["change"] / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for w, ms in summary.items():
        for name, e in ms.items():
            if isinstance(e, dict):
                sides = " ".join(f"{side} {e[f'{side}_median']:.4g} "
                                 f"[{e[f'{side}_q1']:.4g}, {e[f'{side}_q3']:.4g}]"
                                 for side in ("parent", "change"))
                print(f"{w:14} {name:12} {sides} ({e['change_vs_parent']:+.1%})")
    print(f"wrote {out}")
    return 0 if all(s["correct_all_runs"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
