"""Append ``benchmarks/e2e/run.py`` envelopes to the benchmark trajectory.

    python benchmarks/history.py --side change e2e_seed21.json [...]

Each envelope (the JSON file ``run.py --out`` writes) becomes one line of
``benchmarks/results/history.jsonl``: the git sha and dirty flag of the
measured tree, the host, the seed, the side (``parent`` or ``change``), and
per workload the four end-to-end medians and the output digest.  Lines are
only ever appended, never rewritten.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

HISTORY = Path(__file__).resolve().parent / "results" / "history.jsonl"

#: The end-to-end metrics ``BENCHMARK.json`` bounds.
END_TO_END = ("setup_s", "wall_s", "cpu_user_s", "peak_rss_mb")


def row(envelope: dict, side: str) -> dict:
    host = envelope["host"]
    return {
        "sha": host["git_sha"],
        "dirty": host["git_dirty"],
        "host": {
            key: host[key]
            for key in ("nproc", "affinity", "python", "numpy", "platform")
        },
        "seed": envelope["seed"],
        "side": side,
        "workloads": {
            name: {
                **{
                    metric: result["end_to_end"][metric][0]
                    for metric in END_TO_END
                },
                "digest": result["digest"],
                "failed": result["failed"],
                "noisy": result["noisy"],
            }
            for name, result in sorted(envelope["workloads"].items())
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", choices=("parent", "change"), required=True)
    parser.add_argument("envelopes", nargs="+", type=Path)
    args = parser.parse_args()
    HISTORY.parent.mkdir(parents=True, exist_ok=True)
    with HISTORY.open("a") as history:
        for path in args.envelopes:
            envelope = json.loads(path.read_text())
            history.write(json.dumps(row(envelope, args.side), sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
