"""The benchmark's own output checks: each workload of `perfbench/run.py`,
run briefly in a fresh process, finds every output it compares against
`perfbench/reference.json` correct (the analyze digests of the four
slices, the paper's counts, the Fig. 10 and singular-path verdicts and a
seeded batch of pool verdicts)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["atlas-ref", "slice-sweep", "verdict-batch"])
def test_workload_outputs_are_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, (result, proc.stderr)
