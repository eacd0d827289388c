"""`bench/pairs.py` summarises paired runs in the schema of the committed
BENCH files: fed the runs recorded in `BENCH_13.json`, it gives back that
file's summary and traced values."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "bench" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_recorded_runs():
    pairs = _pairs()
    bench = json.loads((ROOT / "BENCH_13.json").read_text())
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for workload, want in bench["summary"].items():
        runs = [r for r in bench["runs"] if r["workload"] == workload]
        assert pairs.summarize([r for r in runs if r["trace"] == 0], metrics) == want
        traced = pairs.traced([r for r in runs if r["trace"] == 1])
        for name, sides in bench["traced"][workload].items():
            assert traced[name] == sides, (workload, name)
