"""Frozen, integer-coded CSR index over a :class:`~repro.graph.graph.Graph`.

The mutable dict-of-dict-of-set :class:`Graph` is the right structure for
*construction* and for the noise/cleaning workloads that edit graphs in
place, but it is the wrong structure for the matching hot loop: every
candidate test chases Python pointers one node at a time.  This module
freezes a graph into flat numpy arrays once, and the discovery engines run
against those arrays:

* **label interning** — node labels, edge labels and attribute values are
  mapped to dense integer codes; all hot-path comparisons become integer
  compares (attribute code ``0`` is reserved for "attribute absent").
* **CSR adjacency** — per direction, ``indptr``/``neighbors``/``edge label
  codes`` arrays, sorted by ``(neighbor, label)`` within each node's slice,
  so neighborhood filters are vectorized masks instead of dict scans.
* **sorted edge keys** — every edge as one integer ``(src·N + dst)·L +
  label``; edge-existence for whole candidate arrays is one
  ``np.searchsorted`` instead of per-element dict lookups.
* **per-label node arrays** — candidate seeding pulls a ready sorted array.
* **label-triple counts** — the ``(src label, edge label, dst label)``
  statistics that drive ``NVSpawn``, computed by one vectorized group-by.
* **columnar attribute codes** — per attribute, one ``int64`` code per node;
  match-table columns become a single fancy-indexing gather instead of a
  per-row ``get_attr`` loop.

The index is a *snapshot*: it records the graph's mutation version at build
time and :meth:`GraphIndex.is_fresh` reports staleness.  The cached accessor
:meth:`Graph.index` rebuilds automatically after any mutation; code holding
an index across mutations must re-fetch it.

For multiprocess execution (:mod:`repro.parallel.backend`) the index is the
zero-copy payload: :meth:`GraphIndex.export_buffers` splits a *fresh* index
into a picklable metadata dict plus its flat numpy arrays, and
:meth:`GraphIndex.from_buffers` reassembles a **detached** index (no backing
:class:`Graph`) around those arrays — typically views into a
``multiprocessing.shared_memory`` block, so worker processes attach once and
never copy the graph.  A detached index supports every array-backed
operation (matching, joins, tallies, match tables, statistics); only
``graph``-touching accessors are unavailable.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .graph import Graph
from .statistics import GraphStatistics

__all__ = ["GraphIndex", "MISSING", "sort_unique"]

#: Sentinel for "attribute absent at this node" — distinct from stored None.
#: (Re-exported by :mod:`repro.core.match_table` for backward compatibility.)
MISSING = object()


def sort_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array.

    Result-equivalent to ``np.unique``, but via an explicit sort +
    adjacent-run extract: recent numpy routes integer ``np.unique`` through
    a hash table, which profiled measurably slower on the hot join paths
    (AMIE path groundings, spawning group-bys) than sorting.
    """
    if values.size == 0:
        return values
    ordered = np.sort(values)
    distinct = np.empty(ordered.size, dtype=bool)
    distinct[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
    return ordered[distinct]


class GraphIndex:
    """An immutable, integer-coded view of one graph snapshot.

    Build with :meth:`build` (or the cached :meth:`Graph.index`).  All arrays
    are read-only by convention; the index never mutates after construction.
    """

    __slots__ = (
        "graph",
        "version",
        "num_nodes",
        "num_edges",
        # label interning
        "node_label_codes",
        "node_label_values",
        "node_label_code_of",
        "edge_label_values",
        "edge_label_code_of",
        # per-label sorted node arrays
        "_nodes_by_label",
        # CSR adjacency (per direction)
        "out_indptr",
        "out_neighbors",
        "out_edge_labels",
        "in_indptr",
        "in_neighbors",
        "in_edge_labels",
        # global sorted existence keys
        "_edge_keys",
        "_pair_keys",
        # columnar attributes
        "attr_names",
        "_attr_codes",
        "value_of_code",
        "code_of_value",
        # label-triple statistics
        "_triple_keys",
        "_triple_counts",
        "_statistics",
        # on-disk persistence (see repro.graph.store)
        "store_path",
        "store_mapping",
    )

    #: Process-local count of full ``__init__`` freezes — a diagnostic the
    #: persistence tests use to prove an mmap attach performs *zero*
    #: rebuilds (``from_buffers``/``load`` never touch it).
    builds_performed = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def __init__(self, graph: Graph) -> None:
        GraphIndex.builds_performed += 1
        self.graph = graph
        self.version = graph.version
        self.store_path = None
        self.store_mapping = None
        n = graph.num_nodes
        self.num_nodes = n

        # -- node labels ------------------------------------------------
        node_label_code_of: Dict[str, int] = {}
        node_label_values: List[str] = []
        node_codes = np.empty(n, dtype=np.int64)
        for node in range(n):
            label = graph.node_label(node)
            code = node_label_code_of.get(label)
            if code is None:
                code = len(node_label_values)
                node_label_code_of[label] = code
                node_label_values.append(label)
            node_codes[node] = code
        self.node_label_codes = node_codes
        self.node_label_values = node_label_values
        self.node_label_code_of = node_label_code_of

        # per-label sorted node arrays (stable argsort keeps ids ascending)
        order = np.argsort(node_codes, kind="stable")
        counts = np.bincount(node_codes, minlength=len(node_label_values))
        bounds = np.concatenate(([0], np.cumsum(counts)))
        self._nodes_by_label = [
            order[bounds[i]: bounds[i + 1]] for i in range(len(node_label_values))
        ]

        # -- attributes (columnar value codes; 0 = missing) -------------
        code_of_value: Dict[Any, int] = {}
        value_of_code: List[Any] = [MISSING]
        attr_codes: Dict[str, np.ndarray] = {}
        for node in range(n):
            for attr, value in graph.node_attrs(node).items():
                column = attr_codes.get(attr)
                if column is None:
                    column = np.zeros(n, dtype=np.int64)
                    attr_codes[attr] = column
                code = code_of_value.get(value)
                if code is None:
                    code = len(value_of_code)
                    code_of_value[value] = code
                    value_of_code.append(value)
                column[node] = code
        self._attr_codes = attr_codes
        self.attr_names = sorted(attr_codes)
        self.code_of_value = code_of_value
        self.value_of_code = value_of_code

        # -- edges ------------------------------------------------------
        edge_label_code_of: Dict[str, int] = {}
        edge_label_values: List[str] = []
        src_list: List[int] = []
        dst_list: List[int] = []
        lab_list: List[int] = []
        for src, dst, label in graph.edges():
            code = edge_label_code_of.get(label)
            if code is None:
                code = len(edge_label_values)
                edge_label_code_of[label] = code
                edge_label_values.append(label)
            src_list.append(src)
            dst_list.append(dst)
            lab_list.append(code)
        self.edge_label_values = edge_label_values
        self.edge_label_code_of = edge_label_code_of
        src_arr = np.asarray(src_list, dtype=np.int64)
        dst_arr = np.asarray(dst_list, dtype=np.int64)
        lab_arr = np.asarray(lab_list, dtype=np.int64)
        self.num_edges = len(src_arr)
        num_labels = max(1, len(edge_label_values))

        def csr(major: np.ndarray, minor: np.ndarray, labels: np.ndarray):
            order = np.lexsort((labels, minor, major))
            counts = np.bincount(major, minlength=n)
            indptr = np.concatenate(([0], np.cumsum(counts)))
            return indptr, minor[order], labels[order]

        self.out_indptr, self.out_neighbors, self.out_edge_labels = csr(
            src_arr, dst_arr, lab_arr
        )
        self.in_indptr, self.in_neighbors, self.in_edge_labels = csr(
            dst_arr, src_arr, lab_arr
        )

        # global sorted existence keys (labeled and any-label)
        pair = src_arr * n + dst_arr
        self._edge_keys = np.sort(pair * num_labels + lab_arr)
        self._pair_keys = np.unique(pair)

        # label-triple counts: one vectorized group-by over all edges
        num_node_labels = max(1, len(node_label_values))
        if self.num_edges:
            tkey = (
                node_codes[src_arr] * num_labels + lab_arr
            ) * num_node_labels + node_codes[dst_arr]
            self._triple_keys, self._triple_counts = np.unique(
                tkey, return_counts=True
            )
        else:
            self._triple_keys = np.empty(0, dtype=np.int64)
            self._triple_counts = np.empty(0, dtype=np.int64)
        self._statistics: Optional[GraphStatistics] = None

    @classmethod
    def build(cls, graph: Graph) -> "GraphIndex":
        """Freeze ``graph`` into a new index (one full scan)."""
        return cls(graph)

    def is_fresh(self) -> bool:
        """Whether the underlying graph is unmutated since the build.

        A *detached* index (reassembled by :meth:`from_buffers`, no backing
        graph) is always fresh: it is an immutable snapshot by construction.
        """
        if self.graph is None:
            return True
        return self.version == self.graph.version

    @property
    def detached(self) -> bool:
        """Whether this index was rebuilt from buffers without a graph."""
        return self.graph is None

    # ------------------------------------------------------------------
    # buffer export / attach (the multiprocess zero-copy protocol)
    # ------------------------------------------------------------------
    #: Array fields shipped by :meth:`export_buffers` (attribute columns are
    #: added dynamically under ``"attr:<name>"`` keys).
    _BUFFER_FIELDS = (
        "node_label_codes",
        "out_indptr",
        "out_neighbors",
        "out_edge_labels",
        "in_indptr",
        "in_neighbors",
        "in_edge_labels",
        "_edge_keys",
        "_pair_keys",
        "_triple_keys",
        "_triple_counts",
    )

    def export_buffers(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """Split the index into ``(meta, arrays)`` for cross-process shipping.

        ``meta`` is a small picklable dict (label/value tables, sizes);
        ``arrays`` maps stable names to the flat int64 arrays.  Raises
        :class:`RuntimeError` when the index is stale — shipping a snapshot
        of a graph that has since mutated would silently desynchronize the
        workers from the master.
        """
        if not self.is_fresh():
            raise RuntimeError(
                "cannot export a stale GraphIndex (graph version "
                f"{self.graph.version} != snapshot version {self.version}); "
                "re-fetch graph.index() first"
            )
        arrays: Dict[str, np.ndarray] = {
            name: getattr(self, name) for name in self._BUFFER_FIELDS
        }
        for attr, column in self._attr_codes.items():
            arrays[f"attr:{attr}"] = column
        meta: Dict[str, Any] = {
            "version": self.version,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "node_label_values": list(self.node_label_values),
            "edge_label_values": list(self.edge_label_values),
            # MISSING (code 0) is a process-local sentinel: ship values from
            # code 1 up and re-anchor on the importing side's MISSING object
            "values": list(self.value_of_code[1:]),
            "attr_names": list(self.attr_names),
        }
        return meta, arrays

    @classmethod
    def from_buffers(
        cls,
        meta: Dict[str, Any],
        arrays: Dict[str, np.ndarray],
        nodes_order: Optional[np.ndarray] = None,
        nodes_bounds: Optional[np.ndarray] = None,
    ) -> "GraphIndex":
        """Reassemble a detached index around exported ``(meta, arrays)``.

        The arrays are adopted as-is (typically zero-copy views into a
        shared-memory block or memory-mapped store file); only the small
        derived structures (interning dicts, per-label node slices) are
        rebuilt.  ``nodes_order``/``nodes_bounds`` — persisted by
        :mod:`repro.graph.store` — supply the per-label node ordering
        precomputed, skipping the ``O(n log n)`` argsort that would
        otherwise dominate a million-node attach.
        """
        self = cls.__new__(cls)
        self.graph = None
        self.version = meta["version"]
        self.num_nodes = meta["num_nodes"]
        self.num_edges = meta["num_edges"]
        self.store_path = None
        self.store_mapping = None
        for name in cls._BUFFER_FIELDS:
            setattr(self, name, arrays[name])
        self.node_label_values = list(meta["node_label_values"])
        self.node_label_code_of = {
            label: code for code, label in enumerate(self.node_label_values)
        }
        self.edge_label_values = list(meta["edge_label_values"])
        self.edge_label_code_of = {
            label: code for code, label in enumerate(self.edge_label_values)
        }
        if nodes_order is None or nodes_bounds is None:
            codes = self.node_label_codes
            nodes_order = np.argsort(codes, kind="stable")
            counts = np.bincount(
                codes, minlength=len(self.node_label_values)
            )
            nodes_bounds = np.concatenate(([0], np.cumsum(counts)))
        self._nodes_by_label = [
            nodes_order[nodes_bounds[i]: nodes_bounds[i + 1]]
            for i in range(len(self.node_label_values))
        ]
        self.value_of_code = [MISSING] + list(meta["values"])
        self.code_of_value = {
            value: code + 1 for code, value in enumerate(meta["values"])
        }
        self._attr_codes = {
            name[len("attr:"):]: array
            for name, array in arrays.items()
            if name.startswith("attr:")
        }
        self.attr_names = list(meta["attr_names"])
        self._statistics = None
        return self

    # ------------------------------------------------------------------
    # on-disk persistence (thin veneer over repro.graph.store)
    # ------------------------------------------------------------------
    def save(self, path: Any) -> Any:
        """Persist this snapshot to ``path`` (see :func:`~repro.graph.store.save_index`)."""
        from .store import save_index

        return save_index(self, path)

    @classmethod
    def load(
        cls,
        path: Any,
        graph: Optional[Graph] = None,
        mmap: bool = True,
        verify: Optional[bool] = None,
    ) -> "GraphIndex":
        """Attach a persisted snapshot (see :func:`~repro.graph.store.load_index`)."""
        from .store import load_index

        return load_index(path, graph=graph, mmap=mmap, verify=verify)

    # ------------------------------------------------------------------
    # label/value interning
    # ------------------------------------------------------------------
    def node_label_code(self, label: str) -> int:
        """The code of a node label (``-1`` if the label never occurs)."""
        return self.node_label_code_of.get(label, -1)

    def edge_label_code(self, label: str) -> int:
        """The code of an edge label (``-1`` if the label never occurs)."""
        return self.edge_label_code_of.get(label, -1)

    def nodes_with_label(self, label: str) -> np.ndarray:
        """Sorted node ids carrying exactly ``label`` (empty array if none)."""
        code = self.node_label_code_of.get(label)
        if code is None:
            return np.empty(0, dtype=np.int64)
        return self._nodes_by_label[code]

    def attr_code_array(self, attr: str) -> Optional[np.ndarray]:
        """Per-node value codes of ``attr`` (``0`` = absent), or None."""
        return self._attr_codes.get(attr)

    def decode_values(self, codes: np.ndarray) -> List[Any]:
        """Decode a code array back to values (``MISSING`` for code 0)."""
        values = self.value_of_code
        return [values[code] for code in codes.tolist()]

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def neighbors(
        self,
        node: int,
        outward: bool,
        edge_label_code: int = -1,
        node_label_code: int = -1,
    ) -> np.ndarray:
        """Neighbor array of ``node`` filtered by edge/endpoint label codes.

        ``-1`` means "any" (wildcard).  Out direction returns destinations
        of ``node ->`` edges; in direction returns sources of ``-> node``.

        Each *distinct neighbor* appears once: with a concrete edge label
        the (src, dst, label) uniqueness of edges guarantees it, and the
        wildcard case dedups the label-sorted slice (parallel edges list
        their endpoint once per label) — matching dict-adjacency keys.
        """
        if outward:
            indptr, nbrs, labs = self.out_indptr, self.out_neighbors, self.out_edge_labels
        else:
            indptr, nbrs, labs = self.in_indptr, self.in_neighbors, self.in_edge_labels
        start, end = indptr[node], indptr[node + 1]
        pool = nbrs[start:end]
        if edge_label_code >= 0:
            pool = pool[labs[start:end] == edge_label_code]
        elif pool.size > 1:
            # slice is (neighbor, label)-sorted: parallel-edge duplicates
            # are adjacent
            distinct = np.empty(pool.size, dtype=bool)
            distinct[0] = True
            np.not_equal(pool[1:], pool[:-1], out=distinct[1:])
            pool = pool[distinct]
        if node_label_code >= 0:
            pool = pool[self.node_label_codes[pool] == node_label_code]
        return pool

    def csr_slice(self, node: int, outward: bool) -> Tuple[np.ndarray, np.ndarray]:
        """The raw ``(neighbors, edge label codes)`` slice of one node."""
        if outward:
            indptr, nbrs, labs = self.out_indptr, self.out_neighbors, self.out_edge_labels
        else:
            indptr, nbrs, labs = self.in_indptr, self.in_neighbors, self.in_edge_labels
        start, end = indptr[node], indptr[node + 1]
        return nbrs[start:end], labs[start:end]

    def edges_exist(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        edge_label_code: int = -1,
    ) -> np.ndarray:
        """Vectorized edge-existence: boolean mask per ``(src[i], dst[i])``.

        With a label code, tests ``src -[label]-> dst``; with ``-1``, tests
        any-label existence.  One ``np.searchsorted`` over the sorted key
        arrays — the flat-layout replacement for per-row dict probes.
        """
        pair = np.asarray(src, dtype=np.int64) * self.num_nodes + np.asarray(
            dst, dtype=np.int64
        )
        if edge_label_code >= 0:
            keys = pair * max(1, len(self.edge_label_values)) + edge_label_code
            table = self._edge_keys
        else:
            keys = pair
            table = self._pair_keys
        if table.size == 0:
            return np.zeros(len(keys), dtype=bool)
        position = np.searchsorted(table, keys)
        position[position == table.size] = table.size - 1
        return table[position] == keys

    def edge_label_counts(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorized parallel-edge count: distinct labels per ``(src[i], dst[i])``.

        One pair's edges occupy one contiguous run of the sorted edge keys,
        so the count is the distance between two ``np.searchsorted``s.
        """
        num_labels = max(1, len(self.edge_label_values))
        first = (
            np.asarray(src, dtype=np.int64) * self.num_nodes
            + np.asarray(dst, dtype=np.int64)
        ) * num_labels
        return np.searchsorted(
            self._edge_keys, first + num_labels
        ) - np.searchsorted(self._edge_keys, first)

    def has_edge(self, src: int, dst: int, label: Optional[str] = None) -> bool:
        """Scalar edge-existence test (label ``None`` = any label)."""
        if label is None:
            code = -1
        else:
            code = self.edge_label_code_of.get(label)
            if code is None:
                return False
        return bool(
            self.edges_exist(
                np.asarray([src], dtype=np.int64),
                np.asarray([dst], dtype=np.int64),
                code,
            )[0]
        )

    def edge_label_codes_between(self, src: int, dst: int) -> np.ndarray:
        """Label codes of all edges ``src -> dst`` (CSR slice + searchsorted).

        The slice is sorted by ``(dst, label)``, so the edges to one
        destination form one contiguous run found by binary search.
        """
        start, end = self.out_indptr[src], self.out_indptr[src + 1]
        nbrs = self.out_neighbors[start:end]
        lo = np.searchsorted(nbrs, dst, side="left")
        hi = np.searchsorted(nbrs, dst, side="right")
        return self.out_edge_labels[start + lo: start + hi]

    def edge_labels(self, src: int, dst: int) -> Set[str]:
        """Labels of edges from ``src`` to ``dst`` as strings (small sets)."""
        values = self.edge_label_values
        return {values[code] for code in self.edge_label_codes_between(src, dst).tolist()}

    def out_degrees(self) -> np.ndarray:
        """Per-node outgoing edge counts."""
        return np.diff(self.out_indptr)

    def in_degrees(self) -> np.ndarray:
        """Per-node incoming edge counts."""
        return np.diff(self.in_indptr)

    # ------------------------------------------------------------------
    # ragged batch gather (shared by the vectorized hot paths)
    # ------------------------------------------------------------------
    def gather_neighborhoods(
        self, nodes: np.ndarray, outward: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flatten the neighborhoods of a node batch into three flat arrays.

        Returns ``(row, neighbor, edge_label_code)`` where ``row[i]`` is the
        position in ``nodes`` that contributed flat entry ``i``.  This is the
        ragged-gather primitive behind vectorized ``extend_matches`` and
        ``extension_statistics``.
        """
        if outward:
            indptr, nbrs, labs = self.out_indptr, self.out_neighbors, self.out_edge_labels
        else:
            indptr, nbrs, labs = self.in_indptr, self.in_neighbors, self.in_edge_labels
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        row = np.repeat(np.arange(len(nodes), dtype=np.int64), counts)
        exclusive = np.cumsum(counts) - counts
        position = (
            np.arange(total, dtype=np.int64)
            - np.repeat(exclusive, counts)
            + np.repeat(starts, counts)
        )
        return row, nbrs[position], labs[position]

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def triple_counts(self) -> Dict[Tuple[str, str, str], int]:
        """``(src label, edge label, dst label) -> count`` decoded from arrays."""
        num_labels = max(1, len(self.edge_label_values))
        num_node_labels = max(1, len(self.node_label_values))
        result: Dict[Tuple[str, str, str], int] = {}
        for key, count in zip(
            self._triple_keys.tolist(), self._triple_counts.tolist()
        ):
            dst_code = key % num_node_labels
            rest = key // num_node_labels
            lab_code = rest % num_labels
            src_code = rest // num_labels
            result[
                (
                    self.node_label_values[src_code],
                    self.edge_label_values[lab_code],
                    self.node_label_values[dst_code],
                )
            ] = count
        return result

    def statistics(self) -> GraphStatistics:
        """A :class:`GraphStatistics` computed from the frozen arrays (cached).

        Equivalent to :func:`repro.graph.statistics.compute_statistics` but
        built from vectorized group-bys instead of Python scans.
        """
        if self._statistics is not None:
            return self._statistics
        stats = GraphStatistics()
        label_counts = np.bincount(
            self.node_label_codes, minlength=len(self.node_label_values)
        )
        stats.node_label_counts = {
            label: int(label_counts[code])
            for label, code in self.node_label_code_of.items()
        }
        # one CSR pass instead of graph.edge_label_counts(): works detached
        edge_tallies = np.bincount(
            self.out_edge_labels, minlength=max(1, len(self.edge_label_values))
        )
        stats.edge_label_counts = {
            label: int(edge_tallies[code])
            for label, code in self.edge_label_code_of.items()
            if edge_tallies[code]
        }
        stats.triple_counts = self.triple_counts()
        stats.attr_counts = {
            attr: int(np.count_nonzero(column))
            for attr, column in self._attr_codes.items()
        }
        num_values = len(self.value_of_code)
        for attr, column in self._attr_codes.items():
            present = np.flatnonzero(column)
            if present.size == 0:
                continue
            combined = self.node_label_codes[present] * num_values + column[present]
            keys, counts = np.unique(combined, return_counts=True)
            for key, count in zip(keys.tolist(), counts.tolist()):
                label = self.node_label_values[key // num_values]
                value = self.value_of_code[key % num_values]
                stats.attr_value_counts.setdefault((label, attr), Counter())[
                    value
                ] += count
        degrees = self.out_degrees() + self.in_degrees()
        stats.max_degree = int(degrees.max()) if degrees.size else 0
        self._statistics = stats
        return stats

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphIndex(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"version={self.version}, fresh={self.is_fresh()})"
        )
