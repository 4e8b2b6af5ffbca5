"""Shape of the checked-in benchmark records, ``BENCH_*.json`` at the repo root.

Each record holds parent/change pairs of ``bench/run.py`` runs.  These checks
keep every record readable by the same script: the top-level keys, the keys
of each run, one parent and one change run per (workload, seed, trace), and
the end-to-end metrics that ``BENCHMARK.json`` names on every untraced run.
"""

import collections
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
TOP_KEYS = {"what", "parent_commit", "command", "protocol", "machine", "runs"}
RUN_KEYS = {"run_order", "workload", "seed", "trace", "seconds", "side", "pair",
            "first_in_pair", "started_utc", "wall_s", "machine", "result"}


def test_records_found():
    assert {"BENCH_pr4.json", "BENCH_pr6.json", "BENCH_pr23.json"} <= {p.name for p in RECORDS}


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_shape(path):
    record = json.loads(path.read_text())
    assert TOP_KEYS <= record.keys()
    runs = record["runs"]
    assert runs
    for run in runs:
        assert RUN_KEYS <= run.keys(), sorted(RUN_KEYS - run.keys())
        assert run["side"] in ("parent", "change") and run["trace"] in (0, 1)

    sides = collections.defaultdict(list)
    for run in runs:
        sides[run["workload"], run["seed"], run["trace"]].append(run["side"])
    for key, found in sides.items():
        assert sorted(found) == ["change", "parent"], key

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for run in runs:
        if run["trace"] == 0:
            metrics = run["result"]["metrics"]
            for metric in end_to_end:
                entry = metrics[metric["name"]]
                assert entry.keys() == {"value", "unit"}
                assert entry["unit"] == metric["unit"]
                assert math.isfinite(entry["value"])
