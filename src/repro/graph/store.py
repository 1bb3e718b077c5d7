"""Versioned, checksummed on-disk persistence for :class:`GraphIndex`.

A built index is already "flat": :meth:`GraphIndex.export_buffers` reduces
it to a small metadata dict plus named ``int64`` arrays.  This module
persists exactly that seam, so the build cost is paid **once** and any
number of later processes — a fresh CLI run, every
:class:`~repro.parallel.backend.MultiprocessBackend` worker — attach the
same snapshot through ``numpy.memmap`` views in milliseconds instead of
re-freezing the graph.

On-disk layout (all integers little-endian)::

    offset 0   magic            4 bytes   b"RGIX"
    offset 4   schema version   u32       SCHEMA_VERSION
    offset 8   header crc32     u32       over the header JSON bytes
    offset 12  header length    u64       byte length of the header JSON
    offset 20  header JSON      utf-8     meta + fingerprint + array layout
    ...        zero padding to the next 64-byte boundary
    data_start one region per array, each 64-byte aligned, in sorted
               name order; region offsets in the header are relative to
               ``data_start``

The header JSON carries:

* ``meta`` — the picklable half of ``export_buffers()`` (label/value
  tables, sizes), restricted to JSON-stable values;
* ``fingerprint`` — ``(num_nodes, num_edges, graph_version)`` of the
  source graph, so :func:`load_index` can prove a supplied graph is the
  *same snapshot* and reject a mutated one (:class:`IndexStoreStale`);
* ``arrays`` — per region: dtype, shape, relative offset and a crc32 of
  the raw bytes.  Names prefixed ``derived:`` are attach accelerators
  (the per-label node ordering) that are *not* part of the export-buffer
  contract;
* ``data_size`` — total region bytes, so a truncated file is detected
  from the header alone before any region is touched.

Integrity model: the preamble magic/schema/crc and the recorded file size
are **always** verified — a truncated file, a garbled header or a foreign
schema version raises :class:`IndexStoreError` instead of segfaulting or
silently mis-attaching.  Region checksums are verified on eager loads by
default; an mmap attach skips them (verifying would page in the whole
file, defeating the near-zero attach) unless ``verify=True`` is passed.

Writes are crash-safe the same way the janitor spool is: the file is
assembled under a temporary name in the target directory and published
with one atomic ``os.replace``.
"""

from __future__ import annotations

import json
import mmap as _mmap
import os
import struct
import weakref
import zlib
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .index import GraphIndex

__all__ = [
    "ALIGNMENT",
    "IndexMapping",
    "IndexStoreCorrupt",
    "IndexStoreError",
    "IndexStoreStale",
    "MAGIC",
    "SCHEMA_VERSION",
    "inspect_index",
    "load_index",
    "read_header",
    "release_index",
    "save_index",
    "snapshot_matches",
]

#: File magic of every persisted index.
MAGIC = b"RGIX"

#: Version of the on-disk format; bumped on any layout change.
SCHEMA_VERSION = 1

#: Region alignment — matches the shared-memory packer, so mmap views get
#: the same cache-line alignment workers see through ``SharedMemory``.
ALIGNMENT = 64

#: ``magic, schema version, header crc32, header length``.
_PREAMBLE = struct.Struct("<4sIIQ")

#: Region names carrying attach accelerators rather than export buffers.
_DERIVED_PREFIX = "derived:"


class IndexStoreError(RuntimeError):
    """Base error of the on-disk index store (typed, never a segfault)."""


class IndexStoreCorrupt(IndexStoreError):
    """The file is damaged: truncated, bad magic, or a checksum mismatch."""


class IndexStoreStale(IndexStoreError):
    """The persisted snapshot does not match the supplied graph.

    Raised when the graph mutated after the index was saved (or a
    different graph was supplied): attaching would silently desynchronize
    every consumer from the real graph, exactly the hazard
    :meth:`GraphIndex.export_buffers` guards against in-process.
    """


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) & ~(ALIGNMENT - 1)


class IndexMapping:
    """One live ``mmap`` attachment of a persisted index (close-only).

    Unlike a shared-memory segment there is nothing to *unlink*: the
    backing store is an ordinary file that outlives every attachment by
    design.  The mapping closes when its index is collected (or at
    :func:`release_index`), and registers with the janitor's cleanup
    registry so process teardown closes it if still live.  :meth:`close`
    is idempotent — the janitor regression suite pins that neither
    ``cleanup()`` nor ``sweep_orphans()`` nor a backend shutdown ever
    unlinks the file or double-closes the mapping.
    """

    def __init__(self, path: str, file: Any, buf: _mmap.mmap) -> None:
        self.path = str(path)
        self._file = file
        self.buf = buf
        self.closed = False

    def close(self) -> None:
        """Release the mapping (idempotent; never touches the file itself).

        If numpy views into the buffer are still alive the OS mapping
        cannot be torn down yet (``BufferError``); the handle is marked
        closed anyway and the kernel reclaims the mapping with the
        process — the store file on disk is never affected either way.
        """
        if self.closed:
            return
        self.closed = True
        from ..parallel import janitor

        janitor.unregister_mapping(self)
        try:
            self.buf.close()
        except BufferError:
            pass  # live array views; reclaimed with the process
        try:
            self._file.close()
        except OSError:  # pragma: no cover - close raced with teardown
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"IndexMapping({self.path!r}, {state})"


def _json_stable_meta(meta: Dict[str, Any]) -> str:
    """Serialize ``meta``, refusing values JSON would silently rewrite.

    Attribute values live in ``meta["values"]``; JSON round-trips
    ``str``/``int``/``float``/``bool``/``None`` faithfully but would turn
    a tuple into a list (and reject arbitrary objects) — a persisted
    index must decode the *same* values the in-memory one does, so
    anything JSON-unstable is a save-time error, not a silent rewrite.
    """
    try:
        encoded = json.dumps(meta, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise IndexStoreError(
            "index metadata is not JSON-serializable (attribute values "
            f"must be str/int/float/bool/None to persist): {exc}"
        ) from None
    if json.loads(encoded) != meta:
        raise IndexStoreError(
            "index metadata does not survive a JSON round trip (tuple or "
            "non-string-keyed attribute values cannot be persisted)"
        )
    return encoded


def save_index(index: GraphIndex, path: Any) -> Path:
    """Persist a *fresh* index snapshot to ``path`` (atomic, checksummed).

    The file is written under a temporary name beside the target and
    published with ``os.replace`` — a crash mid-write can never leave a
    half-written index where a later :func:`load_index` would find it.
    Returns the target path and stamps it onto ``index.store_path`` so
    the multiprocess backend can offer workers the mmap attach route.

    Raises :class:`IndexStoreStale` when the index is stale against its
    own graph, and :class:`IndexStoreError` when attribute values cannot
    be represented in the JSON header.
    """
    path = Path(path)
    try:
        meta, arrays = index.export_buffers()
    except RuntimeError as exc:
        raise IndexStoreStale(str(exc)) from None

    regions: Dict[str, np.ndarray] = {
        name: np.ascontiguousarray(array) for name, array in arrays.items()
    }
    # attach accelerators: the per-label node ordering, persisted so an
    # attach skips the O(n log n) argsort `from_buffers` otherwise pays
    order, bounds = _nodes_by_label_arrays(index)
    regions[_DERIVED_PREFIX + "nodes_by_label_order"] = order
    regions[_DERIVED_PREFIX + "nodes_by_label_bounds"] = bounds

    layout: Dict[str, Dict[str, Any]] = {}
    offset = 0
    for name in sorted(regions):
        array = regions[name]
        if array.nbytes:
            offset = _align(offset)
        layout[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset if array.nbytes else 0,
            "crc32": zlib.crc32(array.tobytes()),
        }
        offset += array.nbytes
    header = {
        "format": "repro-graph-index",
        "schema": SCHEMA_VERSION,
        "meta": meta,
        "fingerprint": {
            "num_nodes": index.num_nodes,
            "num_edges": index.num_edges,
            "graph_version": meta["version"],
        },
        "arrays": layout,
        "data_size": offset,
    }
    header_bytes = _json_stable_meta(header).encode("utf-8")
    preamble = _PREAMBLE.pack(
        MAGIC, SCHEMA_VERSION, zlib.crc32(header_bytes), len(header_bytes)
    )
    data_start = _align(_PREAMBLE.size + len(header_bytes))

    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(temp, "wb") as writer:
            writer.write(preamble)
            writer.write(header_bytes)
            position = _PREAMBLE.size + len(header_bytes)
            writer.write(b"\0" * (data_start - position))
            position = 0
            for name in sorted(regions):
                array = regions[name]
                if array.nbytes == 0:
                    continue
                start = layout[name]["offset"]
                writer.write(b"\0" * (start - position))
                writer.write(array.tobytes())
                position = start + array.nbytes
        os.replace(temp, path)
    finally:
        if temp.exists():  # pragma: no cover - failure path
            temp.unlink(missing_ok=True)
    index.store_path = str(path)
    return path


def _nodes_by_label_arrays(index: GraphIndex) -> Tuple[np.ndarray, np.ndarray]:
    """The per-label node slices flattened to ``(order, bounds)`` arrays."""
    slices = index._nodes_by_label
    if slices:
        order = np.ascontiguousarray(
            np.concatenate(slices) if len(slices) > 1 else slices[0],
            dtype=np.int64,
        )
    else:
        order = np.empty(0, dtype=np.int64)
    lengths = [len(piece) for piece in slices]
    bounds = np.concatenate(
        ([0], np.cumsum(np.asarray(lengths, dtype=np.int64)))
    ).astype(np.int64) if lengths else np.zeros(1, dtype=np.int64)
    return order, np.ascontiguousarray(bounds)


def read_header(path: Any) -> Tuple[Dict[str, Any], int, int]:
    """Parse and fully verify a store file's header.

    Returns ``(header dict, data_start, expected file size)``.  Performs
    every cheap integrity check — magic, schema version, header checksum,
    recorded-vs-actual file size — so callers touching no region bytes
    (``inspect``, the backend's snapshot match) still reject damaged or
    foreign files with a typed error.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        blob = handle.read(_PREAMBLE.size)
        if len(blob) < _PREAMBLE.size:
            raise IndexStoreCorrupt(
                f"{path}: truncated preamble ({len(blob)} bytes)"
            )
        magic, schema, header_crc, header_len = _PREAMBLE.unpack(blob)
        if magic != MAGIC:
            raise IndexStoreCorrupt(
                f"{path}: not a repro index file (magic {magic!r})"
            )
        if schema != SCHEMA_VERSION:
            raise IndexStoreError(
                f"{path}: unsupported index schema version {schema} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        header_bytes = handle.read(header_len)
        if len(header_bytes) < header_len:
            raise IndexStoreCorrupt(
                f"{path}: truncated header ({len(header_bytes)} of "
                f"{header_len} bytes)"
            )
        if zlib.crc32(header_bytes) != header_crc:
            raise IndexStoreCorrupt(f"{path}: header checksum mismatch")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise IndexStoreCorrupt(
                f"{path}: unreadable header JSON ({exc})"
            ) from None
        data_start = _align(_PREAMBLE.size + header_len)
        expected = data_start + int(header["data_size"])
        actual = os.fstat(handle.fileno()).st_size
        if actual < expected:
            raise IndexStoreCorrupt(
                f"{path}: truncated data ({actual} of {expected} bytes)"
            )
    return header, data_start, expected


def snapshot_matches(
    path: Any, num_nodes: int, num_edges: int, version: int
) -> bool:
    """Whether ``path`` holds a valid snapshot with this exact fingerprint.

    The multiprocess backend's transport probe: cheap (header-only), and
    *never* raises — an unreadable, corrupt or mismatched file simply
    means "do not offer the mmap route".
    """
    try:
        header, _, _ = read_header(path)
    except (OSError, IndexStoreError):
        return False
    fingerprint = header.get("fingerprint", {})
    return (
        fingerprint.get("num_nodes") == num_nodes
        and fingerprint.get("num_edges") == num_edges
        and fingerprint.get("graph_version") == version
    )


def _region_views(
    header: Dict[str, Any], buf: Any, data_start: int
) -> Dict[str, np.ndarray]:
    """Read-only array views over every region of an open buffer."""
    arrays: Dict[str, np.ndarray] = {}
    for name, entry in header["arrays"].items():
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        view = np.ndarray(
            shape, dtype=dtype, buffer=buf,
            offset=data_start + entry["offset"],
        )
        if view.flags.writeable:
            view.flags.writeable = False
        arrays[name] = view
    return arrays


def _verify_regions(
    path: Path, header: Dict[str, Any], arrays: Dict[str, np.ndarray]
) -> None:
    for name, entry in header["arrays"].items():
        if zlib.crc32(arrays[name].tobytes()) != entry["crc32"]:
            raise IndexStoreCorrupt(
                f"{path}: checksum mismatch in region {name!r}"
            )


def load_index(
    path: Any,
    graph: Any = None,
    mmap: bool = True,
    verify: Optional[bool] = None,
) -> GraphIndex:
    """Attach a persisted index from ``path``.

    ``mmap=True`` (the default) maps the file read-only and builds
    zero-copy array views — the near-free attach; pages fault in lazily
    as queries touch them.  ``mmap=False`` reads everything eagerly into
    process memory (no open file handle survives the call).

    ``verify`` controls region checksums: ``None`` means "eager loads
    verify, mmap attaches don't" (verifying an mmap pages in the whole
    file); the header, schema version and file size are *always* checked
    either way.

    ``graph`` binds the result to a live graph: the stored fingerprint
    must match ``(graph.num_nodes, graph.num_edges, graph.version)`` or
    :class:`IndexStoreStale` is raised — a graph mutated since the save
    can never silently pick up the old snapshot.  The fingerprint is a
    mutation *counter*, not a content hash — two graphs replaying the
    same construction sequence with different values collide — so the
    bind also spot-checks a deterministic node sample (labels, attribute
    values, out-neighbors) against the snapshot and raises
    :class:`IndexStoreStale` on any mismatch.  A bound snapshot becomes
    the graph's cached index (what ``graph.index()`` returns).  Without a
    graph the index comes back *detached* (like :meth:`GraphIndex.from_buffers`):
    every array-backed operation works, graph-touching accessors don't.
    """
    path = Path(path)
    header, data_start, _ = read_header(path)
    if verify is None:
        verify = not mmap
    meta = header["meta"]
    fingerprint = header["fingerprint"]
    if graph is not None:
        actual = {
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "graph_version": graph.version,
        }
        if actual != fingerprint:
            raise IndexStoreStale(
                f"{path}: persisted snapshot {fingerprint} does not match "
                f"the supplied graph {actual} — the graph mutated since "
                "the index was saved; rebuild with GraphIndex.save()"
            )

    mapping: Optional[IndexMapping] = None
    if mmap:
        handle = open(path, "rb")
        try:
            buf = _mmap.mmap(
                handle.fileno(), 0, access=_mmap.ACCESS_READ
            )
        except (OSError, ValueError):
            handle.close()
            raise
        mapping = IndexMapping(str(path), handle, buf)
        from ..parallel import janitor

        janitor.register_mapping(mapping)
        arrays = _region_views(header, buf, data_start)
    else:
        with open(path, "rb") as handle:
            handle.seek(data_start)
            blob = handle.read(int(header["data_size"]))
        arrays = _region_views(header, blob, 0)
    if verify:
        _verify_regions(path, header, arrays)

    buffer_arrays = {
        name: array
        for name, array in arrays.items()
        if not name.startswith(_DERIVED_PREFIX)
    }
    index = GraphIndex.from_buffers(
        meta,
        buffer_arrays,
        nodes_order=arrays.get(_DERIVED_PREFIX + "nodes_by_label_order"),
        nodes_bounds=arrays.get(_DERIVED_PREFIX + "nodes_by_label_bounds"),
    )
    if graph is not None:
        try:
            _spot_check_graph(index, graph)
        except IndexStoreStale as exc:
            if mapping is not None:
                mapping.close()
            raise IndexStoreStale(f"{path}: {exc}") from None
        index.graph = graph
        index.version = graph.version
    index.store_path = str(path)
    index.store_mapping = mapping
    if mapping is not None:
        # the mapping lives as long as its index: an index nobody holds
        # any more (superseded by a patch, say) lets go of its file
        weakref.finalize(index, mapping.close)
    if graph is not None:
        # graph.index() now answers with the attached snapshot, and the
        # first one after a write patches it instead of rebuilding
        graph._adopt_index(index)
    return index


def release_index(index: GraphIndex) -> bool:
    """Release an index's store attachment, if it has one (idempotent).

    The retirement seam for snapshot consumers (the serving layer's MVCC
    chain): when the last reader of a version drops its lease, the
    version's index lets go of its ``mmap`` handle here instead of waiting
    for process teardown.  Returns ``True`` when a live mapping was
    closed; an index with no store attachment (built in memory, or
    eager-loaded) is a no-op ``False``.  A graph still caching the index
    forgets it, so ``graph.index()`` never hands out (or patches from) a
    released mapping.  The store *file* is never touched — it outlives
    every attachment by design.
    """
    mapping = getattr(index, "store_mapping", None)
    if mapping is None or mapping.closed:
        return False
    if index.graph is not None:
        index.graph._forget_index(index)
    mapping.close()
    index.store_mapping = None
    return True


#: Nodes sampled by the bind-time content spot-check.
_SPOT_CHECK_SAMPLE = 64


def _spot_check_graph(index: GraphIndex, graph: Any) -> None:
    """Compare a deterministic node sample between snapshot and graph.

    The fingerprint ``(num_nodes, num_edges, version)`` is cheap but not
    content-sensitive: ``Graph.version`` counts mutations, so two graphs
    built by identical operation sequences with *different values* (two
    same-shape JSON files, say) collide.  Sampling ~64 nodes' labels,
    attribute dicts and out-neighbor sets catches that class of mix-up
    at O(1) cost instead of paging in the whole snapshot.
    """
    n = index.num_nodes
    if n == 0:
        return
    for node in range(0, n, max(1, n // _SPOT_CHECK_SAMPLE)):
        stored_label = index.node_label_values[index.node_label_codes[node]]
        if stored_label != graph.node_label(node):
            raise IndexStoreStale(
                f"snapshot disagrees with the supplied graph at node "
                f"{node} (label {stored_label!r} vs "
                f"{graph.node_label(node)!r}) — same fingerprint, "
                "different content; rebuild with GraphIndex.save()"
            )
        stored_attrs = {}
        for attr in index.attr_names:
            code = int(index._attr_codes[attr][node])
            if code:
                stored_attrs[attr] = index.value_of_code[code]
        if stored_attrs != dict(graph.node_attrs(node)):
            raise IndexStoreStale(
                f"snapshot disagrees with the supplied graph at node "
                f"{node} (attrs {stored_attrs!r} vs "
                f"{dict(graph.node_attrs(node))!r}) — same fingerprint, "
                "different content; rebuild with GraphIndex.save()"
            )
        stored_out = set(index.neighbors(node, outward=True).tolist())
        actual_out = set(graph.out_neighbors(node))
        if stored_out != actual_out:
            raise IndexStoreStale(
                f"snapshot disagrees with the supplied graph at node "
                f"{node} (out-neighbors differ) — same fingerprint, "
                "different content; rebuild with GraphIndex.save()"
            )


def inspect_index(path: Any) -> Dict[str, Any]:
    """Header-only facts about a persisted index (for ``repro index inspect``).

    Verifies the preamble, schema and header checksum, touches no region
    bytes, and returns a JSON-friendly summary: fingerprint, label/attr
    counts, per-region layout and total sizes.
    """
    path = Path(path)
    header, data_start, expected = read_header(path)
    meta = header["meta"]
    return {
        "path": str(path),
        "schema": header["schema"],
        "fingerprint": dict(header["fingerprint"]),
        "node_labels": len(meta["node_label_values"]),
        "edge_labels": len(meta["edge_label_values"]),
        "attr_names": list(meta["attr_names"]),
        "values": len(meta["values"]),
        "data_start": data_start,
        "data_size": int(header["data_size"]),
        "file_size": expected,
        "arrays": {
            name: {
                "dtype": entry["dtype"],
                "shape": list(entry["shape"]),
                "bytes": int(
                    np.dtype(entry["dtype"]).itemsize
                    * int(np.prod(entry["shape"], dtype=np.int64))
                ),
                "crc32": entry["crc32"],
            }
            for name, entry in sorted(header["arrays"].items())
        },
    }
