"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A B

``A`` (the base) and ``B`` are result envelopes written by ``run.py --out``,
or directories of them — one file per run, e.g. ten seeds of the parent
commit against the same ten seeds of the change.  For every (workload,
end-to-end metric) it prints both medians with their quartiles, the ratio
B/A, and a verdict from the metric's ``bound`` in BENCHMARK.json and the
run-to-run spread (distance between the quartiles as a share of the median):

``worse``       B's median is worse than A's by more than the bound, and
                the spread is within the bound or every run of B is worse
                than every run of A
``unresolved``  the spread exceeds the bound and the two sets interleave
``better``      B's median is better by more than A's spread and B wins at
                least nine tenths of all (a, b) pairs
``same``        none of the above

Exits non-zero when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent


def load_runs(path: Path) -> Dict[Tuple[str, str], List[float]]:
    """``{(workload, metric): [one value per run]}`` for a file or directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    values: Dict[Tuple[str, str], List[float]] = {}
    for file in files:
        for workload, result in json.loads(file.read_text())["workloads"].items():
            for metric, (value, _unit) in result.get("end_to_end", {}).items():
                values.setdefault((workload, metric), []).append(value)
    return values


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: Sequence[float], other: Sequence[float], lower_is_better: bool,
            bound: float) -> str:
    sign = 1.0 if lower_is_better else -1.0
    a = [sign * value for value in base]   # now lower is better on both
    b = [sign * value for value in other]
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    scale = abs(a2)
    spread_a = (a3 - a1) / scale
    spread = max(spread_a, (b3 - b1) / abs(b2))
    worse_by = (b2 - a2) / scale
    if worse_by > bound and (spread <= bound or min(b) > max(a)):
        return "worse"
    interleave = min(b) <= max(a) and min(a) <= max(b)
    if spread > bound and interleave and len(a) > 1:
        return "unresolved"
    wins = sum(y < x for x in a for y in b) / (len(a) * len(b))
    if -worse_by > spread_a and wins >= 0.9:
        return "better"
    return "same"


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    declared = {
        metric["name"]: metric
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    base, other = load_runs(Path(argv[0])), load_runs(Path(argv[1]))
    print(f"{'workload':14s} {'metric':16s} {'A median [q1..q3] n':>34s} "
          f"{'B median [q1..q3] n':>34s} {'B/A':>7s} {'bound':>6s}  verdict")
    worse = 0
    for (workload, metric) in sorted(base):
        if (workload, metric) not in other or metric not in declared:
            continue
        a, b = base[workload, metric], other[workload, metric]
        result = verdict(a, b, declared[metric]["better"] == "lower",
                         declared[metric]["bound"])
        worse += result == "worse"
        cells = []
        for values in (a, b):
            q1, q2, q3 = quartiles(values)
            cells.append(f"{q2:11.5g} [{q1:.5g}..{q3:.5g}] {len(values):2d}")
        ratio = quartiles(b)[1] / quartiles(a)[1]
        print(f"{workload:14s} {metric:16s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{ratio:7.3f} {declared[metric]['bound']:6.2f}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
