"""The paper's Section 7, regenerated: one table of figure entries.

Every entry of :data:`FIGURES` names one figure or table of the paper's
evaluation (Fig. 5(a)-(l), Tables 6-7, Fig. 8, two ablations) or one
record of this library (the 10⁴ → 10⁶ store tiers).  An entry holds the
sweep that measures it, the header of its results table and the gate its
shape must pass (``None``: the table is a record only).  A sweep runs the
algorithms through the public API: a :class:`repro.Session` wherever a
phase exists, and ``parallel_cover_ungrouped``, the baselines and the
implication checks directly.

    PYTHONPATH=src python benchmarks/figures.py NAME...

writes ``benchmarks/results/<file>.txt`` for each named entry (every
entry when none is named), applies the entry's gate to the table it just
wrote and prints its runtime; a failed gate sets the exit code.
``benchmarks/test_figures.py``
(tier-1) applies every gate to the checked-in tables without running a
sweep.

Scale.  The paper's graphs have 10⁶-10⁷ nodes and run on 20 EC2 instances;
the reproduction uses ~10³-node scale models so a sweep takes seconds to
minutes.  Shapes (who wins, monotonicity) are the target, not absolute
times.  The worker sweeps (Fig. 5(a)-(c), 5(i)-(k)) read parallel
scalability from the backend's exact per-worker work counts
(``repro.parallel.WorkLedger``): the largest per-worker share bounds a real
cluster's response time, and no host noise moves it, so those tables are
byte-identical on every host.  The parameter sweeps of Fig. 5(e)-(h) gate
exact counts too — candidates checked and match rows installed — and
record one run's wall seconds beside them.  The other figures report wall
seconds of one run on the host that wrote them.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import DiscoveryConfig, Session, format_gfd
from repro.baselines import (
    AmieMiner,
    discover_gcfd,
    discover_gcfd_parallel,
    mine_amie,
    parallel_cover_ungrouped,
    run_pararab,
    run_pargfd_n,
)
from repro.datasets import (
    KB_ATTRIBUTES,
    SCALE_TIERS,
    SYNTHETIC_ATTRIBUTES,
    dbpedia_like,
    generate_gfds,
    imdb_like,
    inject_noise,
    scale_tier_graph,
    synthetic_graph,
    yago2_like,
)
from repro.gfd import ConstantLiteral, VariableLiteral, implies, is_satisfiable
from repro.graph import GraphIndex, load_index
from repro.oracle import sequential_cover
from repro.quality import amie_detection, gfd_detection

RESULTS = Path(__file__).resolve().parent / "results"

#: Worker counts of Fig. 5(a)-(c) and 5(i)-(k).
WORKER_COUNTS = [4, 8, 12, 16, 20]

#: Worker counts of the real multiprocess wall-clock sweeps.
REAL_WORKER_COUNTS = [1, 2, 4]

#: Per dataset: scale factor and support threshold σ of the worker sweeps.
#: DBpedia needs a larger scale: its many node types make many small match
#: tables, which under-use workers at tiny sizes.
DATASET_SHAPE = {"dbpedia": (2.0, 250), "yago2": (1.6, 90), "imdb": (1.6, 90)}

_FACTORIES = {"dbpedia": dbpedia_like, "yago2": yago2_like, "imdb": imdb_like}

Rows = Dict[str, List]


@functools.lru_cache(maxsize=None)
def dataset(name: str, scale: Optional[float] = None):
    """A scale-model graph (cached for the process; sweeps never mutate it)."""
    if scale is None:
        scale = DATASET_SHAPE[name][0]
    return _FACTORIES[name](scale=scale, seed=1)


def config(name: str, **overrides) -> DiscoveryConfig:
    """The discovery parameters of dataset ``name`` (σ tuned to its size)."""
    settings = dict(
        k=3,
        sigma=DATASET_SHAPE[name][1],
        max_lhs_size=1,
        active_attributes=list(KB_ATTRIBUTES),
    )
    settings.update(overrides)
    return DiscoveryConfig(**settings)


def mine(graph, settings: DiscoveryConfig, workers: int = 1,
         backend: str = "serial"):
    """One ``Session.discover`` on ``workers`` workers: the result and the
    backend's per-worker work."""
    with Session(graph, settings, num_workers=workers, backend=backend) as session:
        return session.discover(), session.metrics().work


def cover_pair(graph, sigma, workers: int):
    """ParCover (``Session.cover``) and ParCovern of one Σ on one session's
    ``workers`` serial workers: each as ``(result, its work)``."""
    with Session(graph, num_workers=workers, backend="serial") as session:
        backend = session.backend()
        start = backend.work.snapshot()
        grouped = session.cover(sigma, update_sigma=False)
        middle = backend.work.snapshot()
        ungrouped = parallel_cover_ungrouped(sigma, backend)
        return (
            (grouped, middle.since(start)),
            (ungrouped, backend.work.since(middle)),
        )


def timed(function, *args):
    started = time.perf_counter()
    result = function(*args)
    return time.perf_counter() - started, result


# ----------------------------------------------------------------------
# sweeps: each returns ``{row key: cells}`` in table order
# ----------------------------------------------------------------------
def worker_sweep(name: str) -> Dict[int, Tuple[int, int]]:
    """Fig. 5(a)-(c): per ``n``, DisGFD's largest per-worker count of match
    rows (installed plus joined) and the total."""
    rows = {}
    for workers in WORKER_COUNTS:
        _, work = mine(dataset(name), config(name), workers)
        per_worker = [
            installed + joined
            for installed, joined in zip(work.rows_installed, work.rows_joined)
        ]
        rows[workers] = (max(per_worker), sum(per_worker))
    return rows


def real_speedup(name: str) -> Dict[int, Tuple[float, float]]:
    """Wall seconds of DisGFD's discovery on real worker processes per
    worker count, and the speedup over the first count."""
    rows, base = {}, None
    for workers in REAL_WORKER_COUNTS:
        result, _ = mine(dataset(name), config(name), workers, "multiprocess")
        seconds = result.stats.elapsed_seconds
        base = base or seconds
        rows[workers] = (seconds, base / seconds)
    return rows


@functools.lru_cache(maxsize=None)
def cover_sweep(name: str) -> Dict[int, Tuple[int, int, int, int]]:
    """Fig. 5(i)-(k): per ``n``, the largest per-worker implication units
    of ParCover and of ParCovern over the Σ DisGFD finds, and both totals."""
    sigma = mine(dataset(name), config(name))[0].gfds
    rows = {}
    for workers in WORKER_COUNTS:
        (_, grouped), (_, ungrouped) = cover_pair(dataset(name), sigma, workers)
        rows[workers] = (
            max(grouped.implication_units),
            max(ungrouped.implication_units),
            sum(grouped.implication_units),
            sum(ungrouped.implication_units),
        )
    return rows


def systems_yago2():
    """Fig. 5(d): DisGFD, DisGCFD and ParAMIE on YAGO2, 8 workers."""
    graph, settings = dataset("yago2"), config("yago2")
    gfds = mine(graph, settings, 8)[0]
    gcfds = discover_gcfd_parallel(graph, settings, num_workers=8)
    amie = mine_amie(graph, min_support=settings.sigma)
    return {
        "DisGFD": (gfds.stats.elapsed_seconds, len(gfds.gfds)),
        "DisGCFD": (gcfds.stats.elapsed_seconds, len(gcfds.gfds)),
        "ParAMIE": (amie.elapsed_seconds, len(amie.rules)),
    }


def discovery_work(graph, settings: DiscoveryConfig, workers: int):
    """DisGFD's exact work on ``workers`` workers — candidates checked and
    match rows installed, neither of which ``n`` changes — and, as a record
    only, its seconds."""
    result, work = mine(graph, settings, workers)
    return (
        result.stats.candidates_checked,
        sum(work.rows_installed),
        result.stats.elapsed_seconds,
    )


def vary_graph_size():
    """Fig. 5(e): synthetic |G| at the paper's 1:2 node:edge ratio, 20
    workers, σ fixed across the sweep (the paper's protocol)."""
    settings = DiscoveryConfig(
        k=2,
        sigma=100,
        max_lhs_size=1,
        active_attributes=list(SYNTHETIC_ATTRIBUTES[:3]),
        variable_literals=False,
        max_negatives_per_pattern=5,
    )
    rows = {}
    for nodes in (10_000, 15_000, 20_000, 25_000, 30_000):
        graph = synthetic_graph(nodes, 2 * nodes, seed=1)
        rows[f"({nodes},{2 * nodes})"] = discovery_work(graph, settings, 20)
    return rows


def vary_dbpedia(overrides: Dict) -> Dict:
    """Fig. 5(f)-(h): DisGFD's work on DBpedia (scale 1), 8 workers, per
    swept value (``{value: its config overrides}``)."""
    graph = dataset("dbpedia", 1.0)
    return {
        value: discovery_work(graph, config("dbpedia", **changes), 8)
        for value, changes in overrides.items()
    }


def vary_sigma_set():
    """Fig. 5(l): ParCover and ParCovern seconds over a generated Σ, n = 4."""
    graph = dataset("yago2")
    rows = {}
    for size in (100, 200, 300, 400, 500):
        sigma = generate_gfds(graph, size, k=3, redundancy=0.5, seed=11)
        (grouped, _), (ungrouped, _) = cover_pair(graph, sigma, 4)
        rows[size] = (grouped.elapsed_seconds, ungrouped.elapsed_seconds)
    return rows


def sequential_table():
    """Table 6: SeqDisGFD and SeqCover seconds, and "#rules/avg support" of
    GFDs, GCFDs and AMIE.  SeqDisGFD is ParDis at n = 1; SeqCover is the
    paper's sequential cover, kept as the cover oracle."""
    rows = {}
    for name in ("dbpedia", "yago2"):
        graph, settings = dataset(name), config(name)
        gfds = mine(graph, settings)[0]
        cover = sequential_cover(gfds.gfds)
        gcfds = discover_gcfd(graph, settings)
        amie = mine_amie(graph, min_support=settings.sigma)
        rows[name] = (
            gfds.stats.elapsed_seconds,
            cover.elapsed_seconds,
            f"{len(gfds.gfds)}/{gfds.average_support():.0f}",
            f"{len(gcfds.gfds)}/{gcfds.average_support():.0f}",
            f"{len(amie.rules)}/{amie.average_support():.0f}",
        )
    return rows


def accuracy_table():
    """Table 7 (Exp-5): mine on clean YAGO2, dirty 10 % of its nodes, and
    score each rule system's detection accuracy over a (σ, k, |Γ|) grid."""
    graph = dataset("yago2")
    dirty, noise = inject_noise(
        graph, alpha=0.10, beta=0.5, attributes=KB_ATTRIBUTES, seed=3
    )
    rows = {}
    for sigma, k, gamma in ((45, 2, 5), (90, 2, 5), (90, 3, 5), (90, 3, 4)):
        settings = DiscoveryConfig(
            k=k, sigma=sigma, max_lhs_size=1,
            active_attributes=list(KB_ATTRIBUTES[:gamma]),
        )
        gfds = mine(graph, settings)[0].gfds
        gcfds = discover_gcfd(graph, settings).gfds
        amie = mine_amie(graph, min_support=sigma).rules
        rows[f"({sigma},{k},{gamma})"] = (
            gfd_detection(dirty, gfds, noise.dirty_nodes).accuracy,
            gfd_detection(dirty, gcfds, noise.dirty_nodes).accuracy,
            amie_detection(
                dirty, amie, noise.dirty_nodes,
                AmieMiner(dirty, min_support=sigma),
            ).accuracy,
        )
    return rows


def real_gfds():
    """Fig. 8: the shapes of the paper's exhibits among the rules mined on
    YAGO2 — GFD1 (familyname inheritance along ``hasChild``), constant
    bindings, and negative GFDs like GFD2 and GFD3."""
    result = mine(dataset("yago2"), config("yago2", max_lhs_size=2))[0]
    kinds = {
        "variable_only": lambda g: g.is_positive and not g.lhs
        and isinstance(g.rhs, VariableLiteral),
        "constant_binding": lambda g: g.is_positive
        and isinstance(g.rhs, ConstantLiteral)
        and any(isinstance(l, ConstantLiteral) for l in g.lhs),
        "negative_structural": lambda g: g.is_negative and not g.lhs,
        "negative_literal": lambda g: g.is_negative and bool(g.lhs),
        "familyname_inheritance": lambda g: not g.lhs
        and isinstance(g.rhs, VariableLiteral)
        and "familyname" in str(g) and "hasChild" in str(g),
    }
    ranked = result.sorted_by_support()
    rows = {"total": (len(ranked), "-")}
    for kind, test in kinds.items():
        found = [gfd for gfd in ranked if test(gfd)]
        rows[kind] = (len(found), format_gfd(found[0]) if found else "-")
    return rows


def fpt_ablation():
    """Theorem 1 / Proposition 2: satisfiability and implication seconds
    over k (40 premises), and implication over |Σ| at k = 3."""
    graph = dataset("yago2")
    rows = {}
    for k in (2, 3, 4):
        sigma = generate_gfds(graph, 120, k=k, seed=13)
        sat_s, _ = timed(is_satisfiable, sigma[:40])
        imp_s, _ = timed(lambda: [implies(sigma[:40], g) for g in sigma[40:80]])
        rows[f"k={k}"] = (sat_s, imp_s)
    sigma = generate_gfds(graph, 400, k=3, seed=13)
    for size in (100, 200, 400):
        imp_s, _ = timed(lambda: [implies(sigma[:size], g) for g in sigma[:20]])
        rows[f"|Sigma|={size}"] = ("-", imp_s)
    return rows


def pruning_ablation():
    """Exp-1 preamble: with a candidate budget of 5× what DisGFD checks,
    ParGFDn (no pruning) and ParArab (split discovery) both blow it."""
    graph, settings = dataset("yago2"), config("yago2", max_lhs_size=2)
    needed = mine(graph, settings, 4)[0].stats.candidates_checked
    budget = 5 * needed
    unpruned = run_pargfd_n(graph, settings, num_workers=4, candidate_budget=budget)
    split = run_pararab(graph, settings, candidate_budget=budget)
    return {
        "DisGFD": (True, needed),
        "budget": ("-", budget),
        "ParGFDn": (unpruned.completed, unpruned.candidates_checked),
        "ParArab": (split.completed, split.candidates_generated),
    }


def graph_bytes_per_edge(tier: str) -> float:
    """Bytes the generated dict graph of ``tier`` holds per edge
    (``tracemalloc``; on its own generation, as tracing slows it down)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = scale_tier_graph(tier, seed=1)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / graph.num_edges


def store_tiers():
    """The store's record: per tier, index build, save and mmap attach, the
    file size, and the dict graph's bytes per edge."""
    rows = {}
    for tier in SCALE_TIERS:
        bytes_per_edge = graph_bytes_per_edge(tier)
        graph = scale_tier_graph(tier, seed=1)
        build_s, index = timed(GraphIndex.build, graph)
        with tempfile.TemporaryDirectory() as temp:
            path = Path(temp) / "index.rgix"
            save_s, _ = timed(index.save, path)
            attach_s, attached = timed(load_index, path)
            attached.store_mapping.close()
            rows[tier] = (
                graph.num_nodes, graph.num_edges, build_s, save_s,
                attach_s * 1e3, path.stat().st_size, bytes_per_edge,
            )
        # the 10⁶ tier's graph holds about 1 GB: free each tier first
        del graph, index, attached
    return rows


# ----------------------------------------------------------------------
# gates: each reads a parsed table and raises AssertionError on a miss
# ----------------------------------------------------------------------
def _in_worker_order(rows: Rows) -> List[List]:
    assert [int(n) for n in rows] == WORKER_COUNTS, "one row per worker count"
    return list(rows.values())


def worker_scaling(rows: Rows) -> None:
    """Fig. 5(a)-(c): the largest share falls at every added n; the total
    does not move."""
    counts = _in_worker_order(rows)
    for fewer, more in zip(counts, counts[1:]):
        assert more[0] < fewer[0], "more workers must shrink the largest share"
        assert more[1] == fewer[1], "the total work must not depend on n"


def cover_shape(rows: Rows) -> None:
    """Fig. 5(i)-(k) short of the per-n claim: grouping needs fewer units
    in all (Lemma 6), neither total depends on n, and neither largest share
    grows with n."""
    counts = _in_worker_order(rows)
    for fewer, more in zip(counts, counts[1:]):
        assert more[0] <= fewer[0] and more[1] <= fewer[1]
        assert more[2:] == fewer[2:], "the total work must not depend on n"
    assert counts[-1][1] < counts[0][1], "ParCovern must scale with n"
    assert counts[0][2] < counts[0][3], "grouping must need fewer units"


def cover_scaling(rows: Rows) -> None:
    """:func:`cover_shape`, and ParCover's largest share is at most
    ParCovern's at every n."""
    cover_shape(rows)
    for workers, (grouped, ungrouped, _, _) in rows.items():
        assert grouped <= ungrouped, f"grouping must win at n={workers}"


def systems_gate(rows: Rows) -> None:
    assert rows["DisGFD"][1] >= rows["DisGCFD"][1], "GFDs subsume GCFDs"
    assert all(seconds > 0 for seconds, _ in rows.values())


def _work(rows: Rows) -> List[Tuple[int, int]]:
    """A :func:`discovery_work` table's exact counts, in sweep order (its
    seconds are a record only)."""
    return [(cells[0], cells[1]) for cells in rows.values()]


def grows(rows: Rows) -> None:
    """Fig. 5(e), (f), (h): neither the candidates checked nor the match
    rows installed fall at any step, and one of them rises from the first
    setting to the last."""
    work = _work(rows)
    for before, after in zip(work, work[1:]):
        assert all(a >= b for a, b in zip(after, before)), (
            "the work must not fall along the sweep"
        )
    assert work[-1] != work[0], "the work must grow along the sweep"


def falls(rows: Rows) -> None:
    """Fig. 5(g): a higher σ prunes more — neither count rises at any step,
    and one of them falls from the first setting to the last."""
    work = _work(rows)
    for before, after in zip(work, work[1:]):
        assert all(a <= b for a, b in zip(after, before)), (
            "a higher σ must not add work"
        )
    assert work[-1] != work[0], "a higher σ must prune more"


def sigma_set_gate(rows: Rows) -> None:
    grouped, ungrouped = zip(*rows.values())
    assert grouped[-1] > grouped[0], "cost grows with |Σ|"
    assert grouped[-1] < ungrouped[-1], "grouping wins at scale"


def sequential_gate(rows: Rows) -> None:
    for mine_s, cover_s, gfds, gcfds, _ in rows.values():
        assert cover_s < mine_s, "SeqCover ≪ SeqDisGFD"
        assert int(gcfds.split("/")[0]) <= int(gfds.split("/")[0])


def accuracy_gate(rows: Rows) -> None:
    for gfd, gcfd, amie in rows.values():
        assert gfd >= gcfd, "GFDs detect at least what GCFDs do"
        assert gfd >= amie, "GFDs beat AMIE on accuracy"
    assert max(cells[0] for cells in rows.values()) > 0.3


def real_gfds_gate(rows: Rows) -> None:
    for kind, (count, _) in rows.items():
        assert count > 0, f"no {kind} rule was mined"


def fpt_gate(rows: Rows) -> None:
    assert rows["|Sigma|=400"][1] >= rows["|Sigma|=100"][1], (
        "implication grows with |Σ|"
    )


def pruning_gate(rows: Rows) -> None:
    assert rows["ParGFDn"][0] == "False", "no pruning must blow the budget"
    assert rows["ParArab"][0] == "False", "split discovery must blow the budget"


@dataclass(frozen=True)
class Figure:
    #: ``benchmarks/results/<file>.txt``.
    file: str
    #: The table's tab-separated header line.
    header: str
    #: Runs the measurement: ``{row key: cells}``.
    sweep: Callable[[], Dict]
    #: Asserts the paper's shape on the parsed table; ``None``: record-only.
    gate: Optional[Callable[[Rows], None]]


_WORKERS = "n\tDisGFD_max_rows\ttotal_rows"
_REAL = "n\treal_seconds\tspeedup_vs_n1"
#: Fig. 5(e)-(h): the exact work the gates read, then a record of seconds.
_WORK = "\tDisGFD_candidates\tDisGFD_rows_installed\tDisGFD_seconds"
_COVER = (
    "n\tParCover_max_units\tParCovern_max_units"
    "\tParCover_total_units\tParCovern_total_units"
)

FIGURES: Dict[str, Figure] = {
    "fig5a": Figure("fig5a_workers_dbpedia", _WORKERS,
                    lambda: worker_sweep("dbpedia"), worker_scaling),
    "fig5b": Figure("fig5b_workers_yago2", _WORKERS,
                    lambda: worker_sweep("yago2"), worker_scaling),
    "fig5c": Figure("fig5c_workers_imdb", _WORKERS,
                    lambda: worker_sweep("imdb"), worker_scaling),
    # wall clock of real processes: the host decides, so record-only
    "fig5a_real": Figure("fig5a_real_speedup_dbpedia", _REAL,
                         lambda: real_speedup("dbpedia"), None),
    "fig5b_real": Figure("fig5b_real_speedup_yago2", _REAL,
                         lambda: real_speedup("yago2"), None),
    "fig5c_real": Figure("fig5c_real_speedup_imdb", _REAL,
                         lambda: real_speedup("imdb"), None),
    "fig5d": Figure("fig5d_gcfd_gfd_amie", "system\tseconds\trules",
                    systems_yago2, systems_gate),
    "fig5e": Figure("fig5e_vary_graph_size", "|G|" + _WORK,
                    vary_graph_size, grows),
    "fig5f": Figure("fig5f_vary_k", "k" + _WORK,
                    lambda: vary_dbpedia(
                        {k: dict(k=k, sigma=120) for k in (2, 3, 4)}),
                    grows),
    "fig5g": Figure("fig5g_vary_sigma", "sigma" + _WORK,
                    lambda: vary_dbpedia(
                        {s: dict(sigma=s) for s in (60, 120, 180, 240, 300)}),
                    falls),
    "fig5h": Figure("fig5h_vary_gamma", "|Gamma|" + _WORK,
                    lambda: vary_dbpedia(
                        {size: dict(sigma=120,
                                    active_attributes=list(KB_ATTRIBUTES[:size]))
                         for size in (2, 3, 4, 5)}),
                    grows),
    "fig5i": Figure("fig5i_cover_dbpedia", _COVER,
                    lambda: cover_sweep("dbpedia"), cover_scaling),
    "fig5j": Figure("fig5j_cover_yago2", _COVER,
                    lambda: cover_sweep("yago2"), cover_scaling),
    # ParCover loses the per-n claim here (docs/CLAIMS.md, finding 2):
    # test_figures.py holds it as a strict xfail
    "fig5k": Figure("fig5k_cover_imdb", _COVER,
                    lambda: cover_sweep("imdb"), cover_shape),
    "fig5l": Figure("fig5l_vary_sigma_set",
                    "|Sigma|\tParCover_seconds\tParCovern_seconds",
                    vary_sigma_set, sigma_set_gate),
    "table6": Figure("table6_sequential",
                     "dataset\tSeqDisGFD_s\tSeqCover_s\tGFDs\tGCFDs\tAMIE",
                     sequential_table, sequential_gate),
    "table7": Figure("table7_accuracy",
                     "sigma,k,|Gamma|\tGFD_acc\tGCFD_acc\tAMIE_acc",
                     accuracy_table, accuracy_gate),
    "fig8": Figure("fig8_real_gfds", "kind\trules\ttop_rule",
                   real_gfds, real_gfds_gate),
    "ablation_fpt": Figure("ablation_fpt",
                           "sweep\tsatisfiability_s\timplication_s",
                           fpt_ablation, fpt_gate),
    "ablation_pruning": Figure("ablation_pruning",
                               "system\tcompleted\tcandidates",
                               pruning_ablation, pruning_gate),
    "scale": Figure("scale",
                    "tier\tnodes\tedges\tbuild_s\tsave_s\tattach_ms"
                    "\tfile_bytes\tgraph_bytes_per_edge",
                    store_tiers, None),
}


def render(header: str, rows: Dict) -> str:
    """The results table: the header, then one tab-separated line per row
    (floats to four decimals)."""
    lines = [header]
    for key, cells in rows.items():
        lines.append("\t".join(
            [str(key)]
            + [f"{c:.4f}" if isinstance(c, float) else str(c) for c in cells]
        ))
    return "\n".join(lines) + "\n"


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse(text: str) -> Tuple[str, Rows]:
    """A results table as ``(header, {row key: cells})``; cells are ints,
    floats or strings."""
    header, *lines = text.rstrip("\n").split("\n")
    rows = {}
    for line in lines:
        key, *cells = line.split("\t")
        rows[key] = [_cell(cell) for cell in cells]
    return header, rows


def regenerate(name: str) -> None:
    """Run one entry's sweep, write its table, and gate it."""
    figure = FIGURES[name]
    text = render(figure.header, figure.sweep())
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{figure.file}.txt").write_text(text)
    print(f"=== {figure.file} ===\n{text}", end="", flush=True)
    if figure.gate is not None:
        figure.gate(parse(text)[1])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help=f"entries to run (default: all): {', '.join(FIGURES)}",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in FIGURES]
    if unknown:
        parser.error(f"unknown entries: {', '.join(unknown)}")
    failed = []
    for name in args.names or FIGURES:
        started = time.perf_counter()
        try:
            regenerate(name)
        except AssertionError as exc:
            failed.append(name)
            print(f"GATE FAILED: {name}: {exc}", file=sys.stderr)
        print(f"# {name}: {time.perf_counter() - started:.1f} s", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
