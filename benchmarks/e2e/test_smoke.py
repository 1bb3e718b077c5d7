"""The benchmark's plumbing, checked by the tier-1 run.

Runs the one command in ``--smoke`` mode (tiny datasets, one unit, no
warm-up; the numbers mean nothing) and checks that every metric
BENCHMARK.json declares comes out, named and finite, and that the
correctness checks passed.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def test_smoke_run_emits_every_declared_metric(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in declared["workloads"]]
    sections = {
        "end_to_end": [metric["name"] for metric in declared["end_to_end"]],
        "per_layer": [metric["name"] for metric in declared["per_layer"]],
    }
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(sections["end_to_end"]) <= 16
    assert 1 <= len(sections["per_layer"]) <= 128
    names = workloads + sections["end_to_end"] + sections["per_layer"]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in sections["end_to_end"]

    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1

    envelope = json.loads(out.read_text())
    assert envelope["smoke"] and sorted(envelope["workloads"]) == sorted(workloads)
    units = {metric["name"]: metric["unit"]
             for section in ("end_to_end", "per_layer")
             for metric in declared[section]}
    for workload, result in envelope["workloads"].items():
        assert not result["failures"], (workload, result["failures"])
        assert result["failed"] == 0
        for section, expected in sections.items():
            assert sorted(result[section]) == sorted(expected), (workload, section)
            for name, (value, unit) in result[section].items():
                assert unit == units[name], (workload, name, unit)
                assert math.isfinite(value), (workload, name, value)
