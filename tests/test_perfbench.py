"""The benchmark's own output checks: each workload of `perfbench/run.py`,
run briefly in a fresh process, finds every output it compares against
`perfbench/reference.json` correct (the analyze digests of the four
slices, the paper's counts, the Fig. 10 and singular-path verdicts and a
seeded batch of pool verdicts)."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kinatlas import cli
from kinatlas.mechanism import MechanismParams, WorkingMode
from kinatlas.trajectory import Trajectory, track_branches

ROOT = Path(__file__).resolve().parent.parent
# the fixed trajectories of perfbench/run.py: Fig. 10 and the path through a
# parallel singularity of mode ++
FIXED = {"fig10": ((-1.0, 1.0), (0.0, 0.5), (1.0, -1.0), (0.5, -2.0)),
         "singular": ((-63 / 128, 129 / 128), (0.2062912477066774, 1.0), (97 / 128, 161 / 128))}


@pytest.mark.parametrize("workload", ["atlas-ref", "slice-sweep", "verdict-batch"])
def test_workload_outputs_are_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, (result, proc.stderr)


def test_every_recorded_verdict_is_written_as_recorded(atlas_pp, tmp_path):
    """All 162 verdicts of perfbench/reference.json, the 2 fixed and the 160
    generated ones, through `track_branches` on the reference atlas: each
    `verdict.json`, written as `check-trajectory` writes it, has the
    recorded SHA-256.  A brief workload run checks only a few of them."""
    ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    cases = [(label, wps, ref["fixed"][label]) for label, wps in FIXED.items()]
    cases += [(f"traj{e['index']}",
               tuple((float(Fraction(x)), float(Fraction(p))) for x, p in e["waypoints"]),
               e["sha256"]) for e in ref["pool"]]
    assert len(cases) == 162
    params, out = MechanismParams(), tmp_path / "verdict.json"
    differ = []
    for label, wps, sha in cases:
        traj = Trajectory(y0=Fraction(1, 2), mode=WorkingMode(1, 1), waypoints=wps)
        cli._write_json(out, track_branches(traj, params, atlas_pp).to_json())
        if hashlib.sha256(out.read_bytes()).hexdigest() != sha:
            differ.append(label)
    assert not differ, f"verdict.json differs from the recorded one: {differ}"
