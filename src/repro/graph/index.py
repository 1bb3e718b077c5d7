"""Frozen, integer-coded CSR index over a :class:`~repro.graph.graph.Graph`.

The mutable dict-adjacency :class:`Graph` is the right structure for
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

The index is an immutable *snapshot*: it records the graph's mutation
version and :meth:`GraphIndex.is_fresh` reports staleness.  A write costs
what it touches: after a mutation the cached accessor :meth:`Graph.index`
answers with :meth:`GraphIndex.patched` — a **new** snapshot that re-reads
only the touched nodes (their label, attribute dict and CSR rows; every
mutator reports both ends of an edge) and copies the rest array-at-a-time —
and falls back to a full :meth:`GraphIndex.build` only when the touched
share of the graph is large or the interning tables have outgrown what is
live.  Interning is append-only across patches, so a patched index may
number labels and values differently from a fresh build (and keep codes no
node uses any more); every *decoded* accessor and :meth:`statistics` agree
with a fresh build, and nothing outside this package may depend on the
numbering.  Code holding an index across mutations must re-fetch it; the
old object stays valid for whoever still reads it (MVCC snapshots).

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
from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from .graph import Graph
from .statistics import GraphStatistics

__all__ = ["GraphIndex", "MISSING", "run_lengths", "sort_unique"]

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


def run_lengths(ordered: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(distinct values, run lengths)`` of a sorted integer array."""
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return ordered[starts], np.diff(np.append(starts, ordered.size))


def _label_slices(codes: np.ndarray, num_labels: int) -> List[np.ndarray]:
    """Per label code, the ascending node ids carrying it."""
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes, minlength=num_labels)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    return [order[bounds[i]: bounds[i + 1]] for i in range(num_labels)]


def _intern(code_of: Dict[Any, int], values: List[Any], key: Any) -> int:
    """The code of ``key`` in an append-only interning table."""
    code = code_of.get(key)
    if code is None:
        code = len(values)
        code_of[key] = code
        values.append(key)
    return code


def _value_counts(
    label_codes: np.ndarray,
    label_values: List[str],
    attr_codes: Dict[str, np.ndarray],
    value_of_code: List[Any],
) -> Dict[Tuple[str, str], Counter]:
    """``(node label, attribute) -> Counter`` of values, one group-by per
    attribute column (``GraphStatistics.attr_value_counts``)."""
    num_values = len(value_of_code)
    result: Dict[Tuple[str, str], Counter] = {}
    for attr, column in attr_codes.items():
        present = np.flatnonzero(column)
        if present.size == 0:
            continue
        combined = label_codes[present] * num_values + column[present]
        keys, counts = np.unique(combined, return_counts=True)
        for key, count in zip(keys.tolist(), counts.tolist()):
            label = label_values[key // num_values]
            value = value_of_code[key % num_values]
            result.setdefault((label, attr), Counter())[value] += count
    return result


#: :meth:`GraphIndex.patched` interns append-only, so a long-lived process
#: that keeps writing fresh labels or values accumulates codes no node
#: carries.  Once the tables hold this many times what the last full build
#: interned (never fewer than the floor), the patch is a full build instead.
_TABLE_GROWTH_LIMIT = 2
_TABLE_GROWTH_FLOOR = 1024


class GraphIndex:
    """An immutable, integer-coded view of one graph snapshot.

    Build with :meth:`build` (or the cached :meth:`Graph.index`).  All arrays
    are read-only by convention; the index never mutates after construction
    — :meth:`patched` returns a new one.
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
        # interned codes at the last full build (bounds append-only growth)
        "_built_codes",
        # on-disk persistence (see repro.graph.store)
        "store_path",
        "store_mapping",
        # tests observe a retired snapshot being freed
        "__weakref__",
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
            node_codes[node] = _intern(
                node_label_code_of, node_label_values, graph.node_label(node)
            )
        self.node_label_codes = node_codes
        self.node_label_values = node_label_values
        self.node_label_code_of = node_label_code_of
        self._nodes_by_label = _label_slices(node_codes, len(node_label_values))

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
                column[node] = _intern(code_of_value, value_of_code, value)
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
            src_list.append(src)
            dst_list.append(dst)
            lab_list.append(_intern(edge_label_code_of, edge_label_values, label))
        self.edge_label_values = edge_label_values
        self.edge_label_code_of = edge_label_code_of
        src_arr = np.asarray(src_list, dtype=np.int64)
        dst_arr = np.asarray(dst_list, dtype=np.int64)
        lab_arr = np.asarray(lab_list, dtype=np.int64)
        self.num_edges = len(src_arr)

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

        self._key_edges()
        self._statistics: Optional[GraphStatistics] = None
        self._built_codes = self._interned_codes()

    def _key_edges(self) -> None:
        """Existence keys and label-triple counts, read off the out-CSR.

        The out-CSR is ``(src, dst, label)``-sorted, so the labeled keys
        ``(src·N + dst)·L + label`` and the any-label pair keys come out in
        key order without a sort; the triple counts are one group-by.
        """
        n = self.num_nodes
        num_labels = max(1, len(self.edge_label_values))
        num_node_labels = max(1, len(self.node_label_values))
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.out_indptr))
        dst, labels = self.out_neighbors, self.out_edge_labels
        pair = src * n + dst
        self._edge_keys = pair * num_labels + labels
        distinct = np.ones(pair.size, dtype=bool)
        np.not_equal(pair[1:], pair[:-1], out=distinct[1:])
        self._pair_keys = pair[distinct]
        codes = self.node_label_codes
        self._triple_keys, self._triple_counts = np.unique(
            (codes[src] * num_labels + labels) * num_node_labels + codes[dst],
            return_counts=True,
        )

    def _interned_codes(self) -> int:
        """Entries across the three interning tables."""
        return (
            len(self.node_label_values)
            + len(self.edge_label_values)
            + len(self.value_of_code)
        )

    @classmethod
    def build(cls, graph: Graph) -> "GraphIndex":
        """Freeze ``graph`` into a new index (one full scan)."""
        return cls(graph)

    def patched(self, graph: Graph, touched: Iterable[int]) -> "GraphIndex":
        """A new snapshot of ``graph``, re-reading only the ``touched`` nodes.

        ``self`` must be a snapshot of an earlier state of ``graph`` and
        ``touched`` must cover every node mutated since (both ends of every
        added or removed edge) — what :meth:`Graph.index` tracks.  Nodes
        added since are re-read whether listed or not.  The label, the
        attribute dict and the out- and in-rows of each touched node are
        re-read from the graph; everything else is carried over by array
        copies, so the cost is O(touched) Python plus O(E) in numpy.

        ``self`` is left untouched and the result owns its arrays: attribute
        columns and per-label node arrays no touched node changed are shared
        with ``self`` only when ``self`` is not backed by a store mapping,
        and the result is never bound to a store file.
        """
        old_n, n = self.num_nodes, graph.num_nodes
        nodes = sorted({t for t in touched if t < old_n}.union(range(old_n, n)))
        at = np.asarray(nodes, dtype=np.int64)
        owned = self.store_mapping is None

        new = GraphIndex.__new__(GraphIndex)
        new.graph = graph
        new.version = graph.version
        new.num_nodes = n
        new.num_edges = graph.num_edges
        new.store_path = None
        new.store_mapping = None
        new._statistics = None
        new._built_codes = self._built_codes

        # -- node labels (append-only codes) -----------------------------
        new.node_label_values = list(self.node_label_values)
        new.node_label_code_of = dict(self.node_label_code_of)
        label_codes = np.empty(n, dtype=np.int64)
        label_codes[:old_n] = self.node_label_codes
        before = label_codes[at]
        before[at >= old_n] = -1
        for node in nodes:
            label_codes[node] = _intern(
                new.node_label_code_of,
                new.node_label_values,
                graph.node_label(node),
            )
        new.node_label_codes = label_codes
        after = label_codes[at]
        moved = before != after
        if owned:
            slices = list(self._nodes_by_label)
            slices += [None] * (len(new.node_label_values) - len(slices))
            for code in set(before[moved].tolist() + after[moved].tolist()):
                if code >= 0:
                    slices[code] = np.flatnonzero(label_codes == code)
            new._nodes_by_label = slices
        else:
            new._nodes_by_label = _label_slices(
                label_codes, len(new.node_label_values)
            )

        # -- attributes (copy-on-write columns, append-only value codes) --
        values, code_of = self.value_of_code, self.code_of_value
        reread: Dict[str, np.ndarray] = {}
        for position, node in enumerate(nodes):
            for attr, value in graph.node_attrs(node).items():
                code = code_of.get(value)
                if code is None:
                    if values is self.value_of_code:
                        values, code_of = list(values), dict(code_of)
                    code = _intern(code_of, values, value)
                codes = reread.get(attr)
                if codes is None:
                    codes = reread[attr] = np.zeros(len(nodes), dtype=np.int64)
                codes[position] = code
        new.value_of_code, new.code_of_value = values, code_of
        columns: Dict[str, np.ndarray] = {}
        absent = np.zeros(len(nodes), dtype=np.int64)
        for attr in list(self._attr_codes) + [
            attr for attr in reread if attr not in self._attr_codes
        ]:
            column = self._attr_codes.get(attr)
            codes = reread.get(attr, absent)
            if column is None:
                column = np.zeros(n, dtype=np.int64)
                column[at] = codes
            elif not (
                owned and n == old_n and np.array_equal(column[at], codes)
            ):
                grown = np.zeros(n, dtype=np.int64)
                grown[:old_n] = column
                grown[at] = codes
                column = grown
            if column is self._attr_codes.get(attr) or column.any():
                columns[attr] = column  # an attribute nobody holds is gone
        new._attr_codes = columns
        new.attr_names = sorted(columns)

        # -- CSR rows of the touched nodes, both directions ---------------
        new.edge_label_values = list(self.edge_label_values)
        new.edge_label_code_of = dict(self.edge_label_code_of)

        def rows(adjacency) -> List[Tuple[int, int]]:
            return sorted(
                (
                    other,
                    _intern(new.edge_label_code_of, new.edge_label_values, label),
                )
                for other, labels in adjacency.items()
                for label in labels
            )

        def patch_csr(indptr, neighbors, edge_labels, adjacency_of):
            degrees = np.zeros(n, dtype=np.int64)
            degrees[:old_n] = np.diff(indptr)
            keep = np.ones(neighbors.size, dtype=bool)
            reread_rows: List[Tuple[int, int]] = []
            for node in nodes:
                if node < old_n:
                    keep[indptr[node]: indptr[node + 1]] = False
                fresh = rows(adjacency_of(node))
                degrees[node] = len(fresh)
                reread_rows.extend(fresh)
            new_indptr = np.concatenate(([0], np.cumsum(degrees)))
            is_reread = np.zeros(int(new_indptr[-1]), dtype=bool)
            for node in nodes:
                is_reread[new_indptr[node]: new_indptr[node + 1]] = True
            fresh = np.asarray(reread_rows, dtype=np.int64).reshape(-1, 2)
            # kept and re-read rows are each in major-node order already
            new_neighbors = np.empty(is_reread.size, dtype=np.int64)
            new_neighbors[is_reread] = fresh[:, 0]
            new_neighbors[~is_reread] = neighbors[keep]
            new_labels = np.empty(is_reread.size, dtype=np.int64)
            new_labels[is_reread] = fresh[:, 1]
            new_labels[~is_reread] = edge_labels[keep]
            return new_indptr, new_neighbors, new_labels

        new.out_indptr, new.out_neighbors, new.out_edge_labels = patch_csr(
            self.out_indptr, self.out_neighbors, self.out_edge_labels,
            graph.out_neighbors,
        )
        new.in_indptr, new.in_neighbors, new.in_edge_labels = patch_csr(
            self.in_indptr, self.in_neighbors, self.in_edge_labels,
            graph.in_neighbors,
        )
        new._key_edges()

        if new._interned_codes() > _TABLE_GROWTH_LIMIT * max(
            self._built_codes, _TABLE_GROWTH_FLOOR
        ):
            return GraphIndex.build(graph)
        return new

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
            self._nodes_by_label = _label_slices(
                self.node_label_codes, len(self.node_label_values)
            )
        else:
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
        self._built_codes = self._interned_codes()
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
        ragged-gather primitive behind the vectorized ``extension_counts``.
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
            if label_counts[code]  # a patched index keeps vanished labels' codes
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
        # the per-value counts only feed rule generators: computed on first
        # read, from the arrays themselves — holding the index would make an
        # index <-> statistics cycle that outlives the snapshot
        stats.value_counts_source = partial(
            _value_counts,
            self.node_label_codes,
            self.node_label_values,
            self._attr_codes,
            self.value_of_code,
        )
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
