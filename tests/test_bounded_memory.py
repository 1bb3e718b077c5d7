"""Pattern state is owned, not process-global.

Per-pattern facts live on the ``Pattern`` instance and facts about pairs of
patterns belong to the call that computed them, so the library keeps no
memo of its own: nothing under ``src/repro`` may wrap a function in
``functools.lru_cache`` / ``functools.cache``, and a closed ``Session``
hands back the memory its patterns used.
"""

from __future__ import annotations

import ast
import gc
import tracemalloc
from pathlib import Path

from repro import Session
from repro.core import DiscoveryConfig
from repro.datasets import dbpedia_like
from repro.graph import Graph

SOURCE = Path(__file__).resolve().parent.parent / "src" / "repro"

#: What a closed session may leave allocated (tracemalloc), in bytes.
SESSION_RESIDUE_BYTES = 1 << 20


def _memo_uses(tree: ast.AST):
    """Line numbers of every ``lru_cache`` / ``cache`` reference that
    resolves to :mod:`functools`."""
    functools_names = {"functools"}
    memo_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "functools":
                    functools_names.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in ("lru_cache", "cache"):
                    memo_names.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("lru_cache", "cache")
            and isinstance(node.value, ast.Name)
            and node.value.id in functools_names
        ):
            yield node.lineno
        elif isinstance(node, ast.Name) and node.id in memo_names:
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name in ("lru_cache", "cache") for alias in node.names):
                yield node.lineno


def test_no_process_global_memo():
    modules = sorted(SOURCE.rglob("*.py"))
    assert len(modules) > 40  # the walk really covers the package
    found = [
        f"{path.relative_to(SOURCE)}:{line}"
        for path in modules
        for line in _memo_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_memo_walk_sees_every_spelling():
    spellings = [
        "import functools\n@functools.lru_cache(maxsize=8)\ndef f(x): return x\n",
        "import functools as ft\n@ft.cache\ndef f(x): return x\n",
        "from functools import lru_cache\n@lru_cache\ndef f(x): return x\n",
        "from functools import cache as memo\nf = memo(len)\n",
    ]
    for source in spellings:
        assert list(_memo_uses(ast.parse(source))), source


def _prefixed(graph: Graph, prefix: str) -> Graph:
    """``graph`` with every node and edge label prefixed: its patterns
    cannot coincide with any pattern an earlier test mined."""
    copy = Graph()
    for node in graph.nodes():
        copy.add_node(prefix + graph.node_label(node), dict(graph.node_attrs(node)))
    for src, dst, label in graph.edges():
        copy.add_edge(src, dst, prefix + label)
    return copy


def _pipeline(graph: Graph) -> int:
    with Session(
        graph,
        DiscoveryConfig(k=3, sigma=20, max_lhs_size=1),
        backend="serial",
        num_workers=2,
    ) as session:
        rules = session.discover().gfds
        session.cover()
    return len(rules)


def test_closed_session_returns_its_memory():
    base = dbpedia_like(scale=0.1, seed=3)
    # a first pipeline pays the one-time costs (lazy imports, numpy and
    # interpreter caches) untraced, on labels the measured one never sees
    assert _pipeline(_prefixed(base, "warm_")) > 0
    graph = _prefixed(base, "cold_")
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert _pipeline(graph) > 0
        gc.collect()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before > 2 * SESSION_RESIDUE_BYTES  # the session did work
    assert after - before < SESSION_RESIDUE_BYTES
