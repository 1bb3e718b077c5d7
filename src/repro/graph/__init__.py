"""Property-graph substrate: storage, IO, the frozen index and statistics."""

from .builder import GraphBuilder
from .graph import Edge, Graph
from .io import (
    graph_from_json,
    graph_to_json,
    load_json,
    load_tsv,
    save_json,
    save_tsv,
)
from .index import GraphIndex
from .store import (
    IndexStoreCorrupt,
    IndexStoreError,
    IndexStoreStale,
    inspect_index,
    load_index,
    save_index,
)
from .statistics import GraphStatistics, compute_statistics

__all__ = [
    "Edge",
    "Graph",
    "GraphBuilder",
    "GraphIndex",
    "GraphStatistics",
    "IndexStoreCorrupt",
    "IndexStoreError",
    "IndexStoreStale",
    "inspect_index",
    "load_index",
    "save_index",
    "compute_statistics",
    "graph_to_json",
    "graph_from_json",
    "save_json",
    "load_json",
    "save_tsv",
    "load_tsv",
]
