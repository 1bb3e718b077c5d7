"""Command-line interface: ``repro-gfd`` / ``python -m repro``.

Subcommands:

* ``stats <graph>`` — dataset statistics (labels, triples, attributes);
* ``discover <graph>`` — run ``ParDis`` (``--workers`` sets ``n``;
  ``--backend multiprocess`` runs real worker processes over shared-memory
  graph buffers) and print the discovered GFDs with their supports;
* ``enforce <graph> <rules>`` — validate a rule set with the compiled
  enforcement plan (grouped patterns, columnar masks, serial or
  multiprocess backend);
* ``cover <rules>`` — compute a cover of a rule file with ``ParCover``
  (``--workers``/``--backend`` shard it over the same worker op layer as
  discovery; default: one serial worker);
* ``index build <graph> -o <file>`` / ``index inspect <file>`` — persist
  a graph's frozen index in the checksummed on-disk format of
  :mod:`repro.graph.store`, and print a persisted file's header facts;
  the graph-ful verbs take ``--index <file>`` to attach the persisted
  snapshot via ``mmap`` instead of re-freezing the graph;
* ``pipeline <graph>`` — discover → cover → enforce on one
  :class:`~repro.session.Session`: worker pools start once, the graph
  index is attached once, and ``--metrics`` dumps the unified session
  ledger as JSON;
* ``serve <graph>`` — enforcement-as-a-service: the asyncio HTTP layer
  of :mod:`repro.serve` over MVCC index snapshots with group-commit
  writes (``POST /validate|/discover|/cover|/mutate``,
  ``GET /metrics|/stats|/healthz``).

The graph-ful verbs (``discover``, ``enforce``, ``pipeline``) all run on a
:class:`~repro.session.Session`, so a single backend lifecycle serves
every phase of a command.

Graphs are the JSON/TSV formats of :mod:`repro.graph.io`.  Rule files are
either plain text — one GFD per line in the syntax of
:mod:`repro.gfd.parser`, ``#`` comments allowed — or, with a ``.json``
extension, the ``dumps_sigma`` envelope that ``discover --output`` writes
(supports round-trip with the rules).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .core import DiscoveryConfig, EnforcementConfig, FaultConfig
from .gfd import (
    GFD,
    dumps_sigma,
    format_gfd,
    loads_sigma,
    parse_gfd,
)
from .graph import Graph, compute_statistics, load_json, load_tsv
from .parallel.backend import BACKEND_ENV, BACKEND_NAMES
from .session import Session

__all__ = ["main", "load_graph", "load_rules", "save_rules"]


def load_graph(path: str) -> Graph:
    """Load a graph by extension (.json or .tsv)."""
    if path.endswith(".json"):
        return load_json(path)
    if path.endswith(".tsv"):
        return load_tsv(path)
    raise SystemExit(f"unsupported graph format: {path!r} (use .json or .tsv)")


def load_rules(path: str) -> List[GFD]:
    """Load a rule file (``.json`` = Σ envelope, else one GFD per line)."""
    if path.endswith(".json"):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                rules, _ = loads_sigma(handle.read())
            return rules
        except ValueError as error:
            raise SystemExit(f"{path}: {error}") from error
    rules: List[GFD] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rules.append(parse_gfd(line))
            except ValueError as error:
                raise SystemExit(f"{path}:{line_number}: {error}") from error
    return rules


def save_rules(
    rules: List[GFD], path: str, supports: Optional[Dict[GFD, int]] = None
) -> None:
    """Write a rule file readable by :func:`load_rules`.

    A ``.json`` path writes the Σ envelope (with per-rule supports when
    given); any other path writes the line-per-GFD text format.
    """
    with open(path, "w", encoding="utf-8") as handle:
        if path.endswith(".json"):
            handle.write(dumps_sigma(rules, supports=supports) + "\n")
        else:
            for gfd in rules:
                handle.write(format_gfd(gfd) + "\n")


def _cmd_index_build(args: argparse.Namespace) -> int:
    """Freeze a graph and persist its index (``repro index build``)."""
    import time

    graph = load_graph(args.graph)
    output = args.output or str(Path(args.graph).with_suffix(".rgix"))
    started = time.perf_counter()
    index = graph.index()
    build_seconds = time.perf_counter() - started
    started = time.perf_counter()
    index.save(output)
    save_seconds = time.perf_counter() - started
    size = Path(output).stat().st_size
    print(f"wrote {output}")
    print(
        f"nodes: {index.num_nodes}  edges: {index.num_edges}  "
        f"version: {index.version}"
    )
    print(
        f"build {build_seconds:.3f}s  save {save_seconds:.3f}s  "
        f"{size} bytes"
    )
    return 0


def _cmd_index_inspect(args: argparse.Namespace) -> int:
    """Print a persisted index's header facts (``repro index inspect``)."""
    from .graph.store import IndexStoreError, inspect_index

    try:
        info = inspect_index(args.index)
    except (OSError, IndexStoreError) as error:
        raise SystemExit(f"{args.index}: {error}") from error
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    fp = info["fingerprint"]
    print(f"schema: {info['schema']}")
    print(
        f"nodes: {fp['num_nodes']}  edges: {fp['num_edges']}  "
        f"graph version: {fp['graph_version']}"
    )
    print(
        f"node labels: {info['node_labels']}  "
        f"edge labels: {info['edge_labels']}  "
        f"attributes: {len(info['attr_names'])} "
        f"({', '.join(info['attr_names']) or 'none'})  "
        f"values: {info['values']}"
    )
    print(f"file: {info['file_size']} bytes "
          f"({info['data_size']} data @ offset {info['data_start']})")
    print("regions:")
    for name, entry in info["arrays"].items():
        shape = "x".join(str(n) for n in entry["shape"])
        print(f"  {name}\t{entry['dtype']}\t[{shape}]\t"
              f"{entry['bytes']} bytes\tcrc32={entry['crc32']:08x}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    stats = compute_statistics(graph)
    print(f"nodes: {graph.num_nodes}")
    print(f"edges: {graph.num_edges}")
    print(f"node labels: {len(stats.node_label_counts)}")
    print(f"edge labels: {len(stats.edge_label_counts)}")
    print(f"attributes: {len(stats.attr_counts)}")
    print("top node labels:")
    ranked = sorted(stats.node_label_counts.items(), key=lambda kv: -kv[1])
    for label, count in ranked[:10]:
        print(f"  {label}: {count}")
    print("top triples:")
    for triple in stats.frequent_triples(1)[:10]:
        print(f"  {triple[0]} -[{triple[1]}]-> {triple[2]}: "
              f"{stats.triple_counts[triple]}")
    return 0


def _at_least(kind, low, strict: bool):
    """An argparse ``type`` taking ``kind`` values ``> low`` (``strict``) or
    ``>= low``: a bad flag is a usage error (exit 2), not a traceback."""

    def parse(text: str):
        value, sign = kind(text), ">" if strict else ">="
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(f"must be {sign} {low}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type on ValueError
    return parse


_positive_int = _at_least(int, 0, strict=True)
_non_negative_int = _at_least(int, 0, strict=False)
_positive_float = _at_least(float, 0, strict=True)
_non_negative_float = _at_least(float, 0, strict=False)


def _port(text: str) -> int:
    """A TCP port for ``bind``: an int in [0, 65535] (0 = ephemeral)."""
    value = _non_negative_int(text)
    if value > 65535:
        raise argparse.ArgumentTypeError("must be <= 65535")
    return value


_port.__name__ = "int"


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Where a parallel verb runs: backend, workers and supervision.

    Every verb passes them straight to one resolver
    (:func:`~repro.parallel.backend.resolve_execution`), so the defaults
    are the same everywhere.
    """
    parser.add_argument(
        "--backend", choices=list(BACKEND_NAMES), default=None,
        help=f"execution backend (default: ${BACKEND_ENV}, else serial)")
    parser.add_argument(
        "--workers", type=_positive_int, default=None,
        help="worker count n (default: 1 serial / 4 multiprocess)")
    parser.add_argument(
        "--supervise", action="store_true",
        help="supervise multiprocess workers: per-op timeouts, retry with "
             "backoff, respawn-and-replay on worker death "
             "(on by default when $REPRO_FAULT_PLAN is set)")
    parser.add_argument(
        "--op-timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="per-op deadline before a worker counts as hung "
             "(implies --supervise; default 30)")
    parser.add_argument(
        "--max-respawns", type=_non_negative_int, default=None, metavar="N",
        help="worker respawn budget before degrading the slot to serial "
             "execution (implies --supervise; default 2)")


def _fault_from_args(args: argparse.Namespace):
    """Resolve the fault flags to a ``make_backend``-style ``fault`` value.

    Returns ``"auto"`` (follow ``$REPRO_FAULT_PLAN``) when no flag was
    given, so the backend keeps its environment-driven default.
    """
    if not (args.supervise or args.op_timeout is not None
            or args.max_respawns is not None):
        return "auto"
    kwargs = {}
    if args.op_timeout is not None:
        kwargs["op_timeout_s"] = args.op_timeout
    if args.max_respawns is not None:
        kwargs["max_respawns"] = args.max_respawns
    return FaultConfig(**kwargs)


def _write_metrics(session: Session, path: Optional[str]) -> None:
    """Write ``session.metrics()`` as JSON (the CI artifact format)."""
    if path:
        Path(path).write_text(
            json.dumps(session.metrics().as_dict(), indent=2) + "\n"
        )


def _add_index_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--index", metavar="PATH", default=None,
        help="persisted index file (see 'index build'): a matching "
             "snapshot mmap-attaches with zero rebuild and multiprocess "
             "workers map the same file; a missing or stale file is "
             "rebuilt and re-persisted there")


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="PATH",
        help="record a run timeline: .json writes Chrome trace-event "
             "format (open in Perfetto / chrome://tracing, one lane per "
             "worker), .jsonl writes the structured event log; results "
             "are identical with tracing on or off")


def _make_tracer(args: argparse.Namespace):
    """A live tracer when ``--trace`` was given, else ``None``."""
    if getattr(args, "trace", None):
        from .obs import Tracer

        return Tracer()
    return None


def _write_trace(tracer, path: Optional[str]) -> None:
    """Export the finished trace by extension (.jsonl = event log)."""
    if tracer is None or not path:
        return
    from .obs import write_chrome_trace, write_event_log

    if path.endswith(".jsonl"):
        write_event_log(tracer, path)
    else:
        write_chrome_trace(tracer, path)


def _cmd_discover(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    config = DiscoveryConfig(
        k=args.k,
        sigma=args.sigma,
        max_lhs_size=args.max_lhs,
        mine_negative=not args.no_negative,
    )
    tracer = _make_tracer(args)
    with Session(
        graph, config, num_workers=args.workers, backend=args.backend,
        fault=_fault_from_args(args), index_path=args.index, tracer=tracer,
    ) as session:
        result = session.discover()
        if session.num_workers > 1 or session.backend_name == "multiprocess":
            work = session.metrics().work
            print(
                f"# backend={session.backend_name} "
                f"workers={session.num_workers} "
                f"{work.supersteps} supersteps, rows installed max "
                f"{max(work.rows_installed)} per worker of "
                f"{sum(work.rows_installed)}, "
                f"real {result.stats.elapsed_seconds:.3f}s",
                file=sys.stderr,
            )
        if args.cover:
            result_gfds = session.cover().cover
        else:
            result_gfds = result.sorted_by_support()
        for gfd in result_gfds:
            support = result.supports.get(gfd, 0)
            print(f"{support}\t{format_gfd(gfd)}")
        print(
            f"# {len(result_gfds)} GFDs "
            f"({sum(1 for g in result_gfds if g.is_negative)} negative), "
            f"{result.stats.candidates_checked} candidates checked, "
            f"{result.stats.elapsed_seconds:.2f}s",
            file=sys.stderr,
        )
        if args.output:
            save_rules(result_gfds, args.output, supports=result.supports)
        _write_metrics(session, args.metrics)
    _write_trace(tracer, args.trace)
    return 0


def _cmd_enforce(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    rules = load_rules(args.rules)
    config = EnforcementConfig(
        max_violation_samples=args.samples,
        sample_seed=args.seed,
        max_violations_per_rule=args.max_violations_per_rule,
    )
    tracer = _make_tracer(args)
    with Session(
        graph,
        enforcement=config,
        num_workers=args.workers,
        backend=args.backend,
        fault=_fault_from_args(args),
        index_path=args.index,
        tracer=tracer,
    ) as session:
        report = session.enforce(rules)
        _write_metrics(session, args.metrics)
    _write_trace(tracer, args.trace)
    for rule in report.rules:
        print(
            f"{rule.violation_count}\t{rule.distinct_pivots}\t"
            f"{format_gfd(rule.gfd)}"
        )
        for match in rule.sample:
            nodes = ",".join(str(node) for node in match)
            print(f"  violation\t[{nodes}]")
    print(
        f"# {len(report.rules)} rules over {report.patterns_matched} distinct "
        f"patterns, {report.total_violations} violations "
        f"({len(report.flagged_nodes())} nodes flagged), "
        f"backend={report.backend} workers={report.num_workers}, "
        f"{report.elapsed_seconds:.3f}s",
        file=sys.stderr,
    )
    if args.json:
        payload = {
            "mode": report.mode,
            "backend": report.backend,
            "num_workers": report.num_workers,
            "patterns_matched": report.patterns_matched,
            "elapsed_seconds": report.elapsed_seconds,
            "total_violations": report.total_violations,
            "flagged_nodes": sorted(report.flagged_nodes()),
            "rules": [
                {
                    "gfd": format_gfd(rule.gfd),
                    "violations": rule.violation_count,
                    "distinct_pivots": rule.distinct_pivots,
                    "sample_truncated": rule.sample_truncated,
                    "witnesses_truncated": rule.witnesses_truncated,
                    "sample": [list(match) for match in rule.sample],
                }
                for rule in report.rules
            ],
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    return 0 if report.is_clean else 1


def _cmd_pipeline(args: argparse.Namespace) -> int:
    """discover → cover → enforce in one session (one backend lifecycle)."""
    graph = load_graph(args.graph)
    config = DiscoveryConfig(
        k=args.k,
        sigma=args.sigma,
        max_lhs_size=args.max_lhs,
        mine_negative=not args.no_negative,
    )
    tracer = _make_tracer(args)
    with Session(
        graph, config, num_workers=args.workers, backend=args.backend,
        fault=_fault_from_args(args), index_path=args.index, tracer=tracer,
    ) as session:
        result = session.discover()
        cover = session.cover()
        report = session.enforce()
        metrics = session.metrics()
        for gfd in cover.cover:
            support = result.supports.get(gfd, 0)
            print(f"{support}\t{format_gfd(gfd)}")
        print(
            f"# discovered {len(result.gfds)} GFDs, cover keeps "
            f"{len(cover.cover)} ({len(cover.removed)} redundant), "
            f"{report.total_violations} violations on the source graph",
            file=sys.stderr,
        )
        print(
            f"# backend={metrics.backend_name} workers={metrics.num_workers} "
            f"started {metrics.backend_starts}x, index attached "
            f"{metrics.lifecycle.index_attaches}x, "
            f"{metrics.work.supersteps} supersteps",
            file=sys.stderr,
        )
        if args.output:
            save_rules(cover.cover, args.output, supports=result.supports)
        _write_metrics(session, args.metrics)
    _write_trace(tracer, args.trace)
    return 0 if report.is_clean else 1


def _cmd_cover(args: argparse.Namespace) -> int:
    from .obs import NULL_TRACER
    from .parallel import make_backend, parallel_cover

    rules = load_rules(args.rules)
    tracer = _make_tracer(args)
    # the cover verb has no graph, so there is no session to open: it
    # borrows a graph-free backend to ParCover and shuts it down after
    traced = tracer if tracer is not None else NULL_TRACER
    backend = make_backend(
        args.backend, args.workers, None, None,
        fault=_fault_from_args(args), tracer=traced,
    )
    try:
        with traced.span(
            "cover", "phase", backend=backend.name, size=len(rules)
        ):
            result = parallel_cover(rules, backend)
    finally:
        backend.shutdown()
    units = backend.work.implication_units
    print(
        f"# backend={backend.name} workers={backend.num_workers} "
        f"implication units max {max(units)} per worker of {sum(units)}, "
        f"real {result.elapsed_seconds:.3f}s",
        file=sys.stderr,
    )
    for gfd in result.cover:
        print(format_gfd(gfd))
    print(
        f"# cover {len(result.cover)} of {len(rules)} "
        f"({len(result.removed)} redundant)",
        file=sys.stderr,
    )
    if args.output:
        save_rules(result.cover, args.output)
    _write_trace(tracer, args.trace)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the enforcement service over HTTP until stopped."""
    import asyncio

    from .serve import EnforcementService, ServeConfig, serve_http

    graph = load_graph(args.graph)
    sigma = load_rules(args.rules) if args.rules else None
    config = DiscoveryConfig(
        k=args.k, sigma=args.sigma, max_lhs_size=args.max_lhs,
    )
    serve_config = ServeConfig(
        max_queue_depth=args.max_queue_depth,
        default_deadline_s=args.deadline,
        commit_max_batch=args.commit_batch,
        commit_linger_s=args.commit_linger,
    )
    tracer = _make_tracer(args)

    async def run() -> int:
        service = EnforcementService(
            graph,
            sigma=sigma,
            config=config,
            serve=serve_config,
            num_workers=args.workers,
            backend=args.backend,
            fault=_fault_from_args(args),
            index_path=args.index,
            tracer=tracer,
        )
        await service.start()
        server = await serve_http(service, host=args.host, port=args.port)
        host, port = server.sockets[0].getsockname()[:2]
        print(
            f"# serving http://{host}:{port} — version "
            f"{service.chain.current_version}, "
            f"{len(service.session.sigma)} rules, "
            f"backend={service.session.metrics().backend_name}",
            file=sys.stderr, flush=True,
        )
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()
        finally:
            server.close()
            await server.wait_closed()
            stats = service.stats()  # before close drains the chain
            await service.close()
            print(
                f"# served {stats['chain']['pins']} pinned reads, "
                f"{stats.get('commits', 0)} commits "
                f"({stats.get('mutations', 0)} mutations), final version "
                f"{stats.get('version', 0)}, "
                f"leaked leases {service.leaked_leases}",
                file=sys.stderr,
            )
        return 0 if service.leaked_leases == 0 else 1

    try:
        code = asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        return 0
    _write_trace(tracer, args.trace)
    return code


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro-gfd",
        description="GFD discovery (SIGMOD'18 reproduction)",
        epilog="Parallel verbs (discover, pipeline, enforce, cover, serve) "
               "take --backend serial|multiprocess — multiprocess runs "
               "real worker processes attaching the frozen graph index "
               "zero-copy (its --index store file via mmap, else one "
               "shared-memory segment).  $" + BACKEND_ENV + " sets the "
               "default backend.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    stats = commands.add_parser("stats", help="print graph statistics")
    stats.add_argument("graph", help="graph file (.json or .tsv)")
    stats.set_defaults(func=_cmd_stats)

    index = commands.add_parser(
        "index",
        help="persist / inspect on-disk graph indexes",
        epilog="The store format is versioned and checksummed (see "
               "docs/ARCHITECTURE.md): build once, then any process — "
               "including every multiprocess worker — attaches the "
               "snapshot via mmap in milliseconds.",
    )
    index_commands = index.add_subparsers(dest="index_command", required=True)
    ibuild = index_commands.add_parser(
        "build", help="freeze a graph and persist its index")
    ibuild.add_argument("graph", help="graph file (.json or .tsv)")
    ibuild.add_argument("-o", "--output", default=None,
                        help="output file (default: graph path with a "
                             ".rgix suffix)")
    ibuild.set_defaults(func=_cmd_index_build)
    iinspect = index_commands.add_parser(
        "inspect", help="print a persisted index's header facts")
    iinspect.add_argument("index", help="persisted index file")
    iinspect.add_argument("--json", action="store_true",
                          help="print the facts as JSON")
    iinspect.set_defaults(func=_cmd_index_inspect)

    disc = commands.add_parser(
        "discover",
        help="mine GFDs from a graph",
        epilog="--backend multiprocess shards the mining over real worker "
               "processes over the zero-copy graph index (mmap store file "
               "or shared memory).",
    )
    disc.add_argument("graph", help="graph file (.json or .tsv)")
    disc.add_argument("--k", type=_positive_int, default=3,
                     help="pattern-variable bound")
    disc.add_argument("--sigma", type=_positive_int, default=10,
                     help="support threshold")
    disc.add_argument("--max-lhs", type=_non_negative_int, default=2,
                     help="LHS literal cap")
    disc.add_argument("--no-negative", action="store_true",
                      help="skip negative GFDs")
    disc.add_argument("--cover", action="store_true",
                      help="reduce the output to a cover")
    disc.add_argument("--output", help="also write rules to this file")
    _add_index_argument(disc)
    _add_execution_arguments(disc)
    disc.add_argument("--metrics", help="write session metrics (backend "
                                        "lifecycle, transfers, supersteps) "
                                        "as JSON to this file")
    _add_trace_argument(disc)
    disc.set_defaults(func=_cmd_discover)

    pipe = commands.add_parser(
        "pipeline",
        help="discover → cover → enforce in one resource-owning session",
        epilog="Runs the paper's whole workflow on a single Session: the "
               "worker pools start once and the graph index is attached "
               "once, shared by all three phases (--metrics proves it).  "
               "Prints the cover with supports; exit code 1 if the source "
               "graph violates its own rules (it should not).",
    )
    pipe.add_argument("graph", help="graph file (.json or .tsv)")
    pipe.add_argument("--k", type=_positive_int, default=3,
                     help="pattern-variable bound")
    pipe.add_argument("--sigma", type=_positive_int, default=10,
                     help="support threshold")
    pipe.add_argument("--max-lhs", type=_non_negative_int, default=2,
                     help="LHS literal cap")
    pipe.add_argument("--no-negative", action="store_true",
                      help="skip negative GFDs")
    pipe.add_argument("--output", help="write the cover to this file "
                                       "(.json keeps supports)")
    _add_index_argument(pipe)
    _add_execution_arguments(pipe)
    pipe.add_argument("--metrics", help="write session metrics as JSON to "
                                        "this file")
    _add_trace_argument(pipe)
    pipe.set_defaults(func=_cmd_pipeline)

    enf = commands.add_parser(
        "enforce",
        help="validate a rule set with the compiled enforcement engine",
        epilog="--backend multiprocess evaluates the compiled plan on real "
               "worker processes over the zero-copy graph index (mmap "
               "store file or shared memory); match shards stay resident "
               "in the workers across passes.",
    )
    enf.add_argument("graph", help="graph file (.json or .tsv)")
    enf.add_argument("rules", help="rule file (text lines or Σ .json)")
    enf.add_argument("--samples", type=_non_negative_int, default=5,
                     help="violating matches printed per rule (seeded "
                          "sample when the cap binds)")
    enf.add_argument("--seed", type=int, default=0,
                     help="seed of the capped violation sample")
    enf.add_argument("--max-violations-per-rule", type=_positive_int,
                     default=None,
                     help="per-rule cap on materialized violating rows — "
                          "counts stay exact, witness sets degrade "
                          "gracefully on adversarial rules (default: "
                          "unbounded)")
    enf.add_argument("--json", help="also write a machine-readable report "
                                    "to this file")
    _add_index_argument(enf)
    _add_execution_arguments(enf)
    enf.add_argument("--metrics", help="write session metrics as JSON to "
                                       "this file")
    _add_trace_argument(enf)
    enf.set_defaults(func=_cmd_enforce)

    cov = commands.add_parser(
        "cover",
        help="compute a cover of a rule file",
        epilog="Runs ParCover (grouped units, LPT-balanced) on --workers "
               "workers of --backend; the cover does not depend on either.",
    )
    cov.add_argument("rules", help="rule file (one GFD per line)")
    _add_execution_arguments(cov)
    cov.add_argument("--output", help="also write the cover to this file")
    _add_trace_argument(cov)
    cov.set_defaults(func=_cmd_cover)

    srv = commands.add_parser(
        "serve",
        help="run enforcement-as-a-service over HTTP (MVCC snapshots, "
             "group-commit writes)",
        epilog="Readers pin a consistent snapshot version per request "
               "(POST /validate), writes group-commit through the delta "
               "log (POST /mutate), and GET /metrics exposes the "
               "Prometheus gauges including the live per-rule "
               "distinct-pivots-ever counts.  Without --rules the service "
               "mines its own Σ at startup with the discovery knobs.",
    )
    srv.add_argument("graph", help="graph file (.json or .tsv)")
    srv.add_argument("--rules", default=None,
                     help="rule file to serve (default: discover Σ at "
                          "startup)")
    srv.add_argument("--host", default="127.0.0.1", help="bind address")
    srv.add_argument("--port", type=_port, default=8080,
                     help="bind port in [0, 65535] (0 picks an ephemeral "
                          "port)")
    srv.add_argument("--duration", type=_positive_float, default=None,
                     metavar="SECONDS",
                     help="serve for a fixed time then exit cleanly "
                          "(default: run until interrupted)")
    srv.add_argument("--k", type=_positive_int, default=2,
                     help="startup-discovery pattern-variable bound")
    srv.add_argument("--sigma", type=_positive_int, default=10,
                     help="startup-discovery support threshold")
    srv.add_argument("--max-lhs", type=_non_negative_int, default=1,
                     help="startup-discovery LHS literal cap")
    srv.add_argument("--max-queue-depth", type=_positive_int, default=32,
                     help="execution-lane admission bound (503 beyond it)")
    srv.add_argument("--deadline", type=_positive_float, default=30.0,
                     help="default per-request deadline in seconds")
    srv.add_argument("--commit-batch", type=_positive_int, default=128,
                     help="mutations per group commit before an early "
                          "flush")
    srv.add_argument("--commit-linger", type=_non_negative_float,
                     default=0.005, metavar="SECONDS",
                     help="longest a pending mutation batch waits for an "
                          "in-flight discover/cover; with none in "
                          "flight it commits at once")
    _add_index_argument(srv)
    _add_execution_arguments(srv)
    _add_trace_argument(srv)
    srv.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-gfd`` and ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
