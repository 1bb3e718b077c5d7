"""Figure 6 (table): sequential cost and rule counts / average support.

Paper's table reports, for DBpedia and YAGO2: SeqDisGFD time, SeqCover
time, and "#rules / avg support" for GFDs, GCFDs and AMIE.  Shape targets:
SeqCover ≪ SeqDisGFD, GCFDs ⊆ GFDs in count, and every system completes.

The "SeqDis" row is ParDis at n = 1 on the serial backend: ``discover()``
and ``discover_gcfd()`` both run the one mining engine on one in-process
worker (the paper presents ParDis as SeqDis spread over n workers).  The
"SeqCover" row is the paper's sequential cover, which this library keeps
as the cover oracle (``repro.oracle.sequential_cover``).
"""

from __future__ import annotations

import time

from _harness import dataset, discovery_config, record, run_once

from repro.baselines import discover_gcfd, mine_amie
from repro.core import discover
from repro.oracle import sequential_cover


def _table():
    lines = ["dataset\tSeqDisGFD_s\tSeqCover_s\tGFDs\tGCFDs\tAMIE"]
    for name in ("dbpedia", "yago2"):
        graph = dataset(name)
        config = discovery_config(name)
        started = time.perf_counter()
        gfds = discover(graph, config)
        mine_seconds = time.perf_counter() - started
        cover = sequential_cover(gfds.gfds)
        gcfds = discover_gcfd(graph, config)
        amie = mine_amie(graph, min_support=config.sigma)
        gfd_cell = f"{len(gfds.gfds)}/{gfds.average_support():.0f}"
        gcfd_cell = f"{len(gcfds.gfds)}/{gcfds.average_support():.0f}"
        amie_cell = f"{len(amie.rules)}/{amie.average_support():.0f}"
        lines.append(
            f"{name}\t{mine_seconds:.2f}\t{cover.elapsed_seconds:.2f}"
            f"\t{gfd_cell}\t{gcfd_cell}\t{amie_cell}"
        )
    return lines


def test_table6_sequential(benchmark):
    lines = run_once(benchmark, _table)
    record("table6_sequential", lines)
    for line in lines[1:]:
        fields = line.split("\t")
        assert float(fields[2]) < float(fields[1]), "cover ≪ discovery time"
        gfd_count = int(fields[3].split("/")[0])
        gcfd_count = int(fields[4].split("/")[0])
        assert gcfd_count <= gfd_count
