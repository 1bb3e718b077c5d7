"""Unit tests for the property-graph substrate."""

from __future__ import annotations

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.datasets import dbpedia_like
from repro.graph import (
    Graph,
    GraphBuilder,
    compute_statistics,
    graph_from_json,
    graph_to_json,
    load_json,
    load_tsv,
    save_json,
    save_tsv,
)


def build_sample() -> Graph:
    graph = Graph()
    a = graph.add_node("person", {"name": "Ann", "age": 30})
    b = graph.add_node("person", {"name": "Bob"})
    c = graph.add_node("city", {"name": "Paris"})
    graph.add_edge(a, b, "knows")
    graph.add_edge(a, c, "livesIn")
    graph.add_edge(b, c, "livesIn")
    return graph


class TestGraphBasics:
    def test_counts(self):
        graph = build_sample()
        assert graph.num_nodes == 3
        assert graph.num_edges == 3

    def test_node_labels_and_attrs(self):
        graph = build_sample()
        assert graph.node_label(0) == "person"
        assert graph.get_attr(0, "name") == "Ann"
        assert graph.get_attr(1, "age") is None
        assert graph.has_attr(0, "age")
        assert not graph.has_attr(1, "age")

    def test_duplicate_edge_rejected(self):
        graph = build_sample()
        assert not graph.add_edge(0, 1, "knows")
        assert graph.num_edges == 3

    def test_parallel_edge_different_label(self):
        graph = build_sample()
        assert graph.add_edge(0, 1, "admires")
        assert graph.edge_labels(0, 1) == {"knows", "admires"}

    def test_has_edge(self):
        graph = build_sample()
        assert graph.has_edge(0, 1)
        assert graph.has_edge(0, 1, "knows")
        assert not graph.has_edge(0, 1, "livesIn")
        assert not graph.has_edge(1, 0)

    def test_neighbors(self):
        graph = build_sample()
        assert set(graph.out_neighbors(0)) == {1, 2}
        assert set(graph.in_neighbors(2)) == {0, 1}

    def test_degrees(self):
        graph = build_sample()
        assert graph.out_degree(0) == 2
        assert graph.in_degree(2) == 2
        assert graph.degree(1) == 2

    def test_remove_edge(self):
        graph = build_sample()
        assert graph.remove_edge(0, 1, "knows")
        assert not graph.has_edge(0, 1)
        assert graph.num_edges == 2
        assert not graph.remove_edge(0, 1, "knows")

    def test_relabel_node(self):
        graph = build_sample()
        graph.relabel_node(0, "robot")
        assert graph.node_label(0) == "robot"
        assert 0 in graph.nodes_with_label("robot")
        assert 0 not in graph.nodes_with_label("person")

    def test_relabel_edge(self):
        graph = build_sample()
        assert graph.relabel_edge(0, 1, "knows", "met")
        assert graph.has_edge(0, 1, "met")
        assert not graph.has_edge(0, 1, "knows")
        assert not graph.relabel_edge(0, 1, "gone", "met")

    def test_set_and_remove_attr(self):
        graph = build_sample()
        graph.set_attr(1, "age", 44)
        assert graph.get_attr(1, "age") == 44
        graph.remove_attr(1, "age")
        assert not graph.has_attr(1, "age")

    def test_label_index(self):
        graph = build_sample()
        assert graph.nodes_with_label("person") == [0, 1]
        assert graph.node_labels() == {"person", "city"}
        assert len(graph.nodes_with_label("person")) == 2

    def test_edge_label_counts(self):
        graph = build_sample()
        assert graph.edge_label_counts() == {"knows": 1, "livesIn": 2}

    def test_edges_iteration(self):
        graph = build_sample()
        assert sorted(graph.edges()) == [
            (0, 1, "knows"),
            (0, 2, "livesIn"),
            (1, 2, "livesIn"),
        ]

    def test_copy_independent(self):
        graph = build_sample()
        clone = graph.copy()
        clone.add_edge(2, 0, "contains")
        clone.set_attr(0, "name", "Zoe")
        assert not graph.has_edge(2, 0)
        assert graph.get_attr(0, "name") == "Ann"

    def test_missing_node_raises(self):
        graph = build_sample()
        with pytest.raises(KeyError):
            graph.add_edge(0, 99, "x")


class TestStructureVersion:
    """``version`` moves on every write, ``structure_version`` only on the
    structural ones — one case per mutator."""

    @pytest.mark.parametrize(
        "mutate, structural",
        [
            (lambda g: g.add_node("city", {"name": "Rome"}), True),
            (lambda g: g.add_edge(1, 0, "knows"), True),
            (lambda g: g.remove_edge(0, 1, "knows"), True),
            (lambda g: g.relabel_node(2, "town"), True),
            (lambda g: g.relabel_edge(0, 1, "knows", "met"), True),
            (lambda g: g.set_attr(0, "name", "Ada"), False),
            (lambda g: g.remove_attr(0, "age"), False),
            # an attribute the node lacked is still an attribute write
            (lambda g: g.set_attr(1, "age", 41), False),
        ],
        ids=[
            "add_node", "add_edge", "remove_edge", "relabel_node",
            "relabel_edge", "set_attr", "remove_attr", "set_new_attr",
        ],
    )
    def test_only_structural_writes_move_it(self, mutate, structural):
        graph = build_sample()
        graph.index()  # a cached snapshot must not change the counting
        version, structure = graph.version, graph.structure_version
        mutate(graph)
        assert graph.version > version
        assert (graph.structure_version > structure) == structural
        # the counter never runs ahead of the version
        assert graph.structure_version <= graph.version

    def test_no_op_writes_move_neither(self):
        graph = build_sample()
        version, structure = graph.version, graph.structure_version
        assert not graph.add_edge(0, 1, "knows")
        assert not graph.remove_edge(1, 0, "knows")
        graph.relabel_node(0, "person")
        graph.remove_attr(1, "age")
        assert (graph.version, graph.structure_version) == (version, structure)


def assert_pairs_shared(graph: Graph) -> None:
    """Both directions hold one set per pair; a singleton is the interned one."""
    assert set(graph._singletons) == set(graph.edge_label_counts())
    pairs = 0
    for src in graph.nodes():
        for dst, labels in graph._out[src].items():
            assert isinstance(labels, frozenset) and labels
            assert labels is graph._in[dst][src]
            if len(labels) == 1:
                (label,) = labels
                assert labels is graph._singletons[label]
            pairs += 1
    assert pairs == sum(len(adjacency) for adjacency in graph._in)


class TestWhatAGraphKeeps:
    """A node pair's labels are one immutable set, shared by both directions
    and, for a single label, interned per graph."""

    #: dbpedia_like(0.4) holds ≈ 180 bytes per edge with shared label sets
    #: and ≈ 600 with a mutable set per direction.
    BYTES_PER_EDGE_LIMIT = 300

    def test_returned_label_sets_cannot_change_the_graph(self):
        graph = build_sample()
        graph.add_edge(0, 1, "admires")
        graph.index()
        version = graph.version
        edges = sorted(graph.edges())
        returned = [
            graph.edge_labels(0, 1),
            graph.edge_labels(1, 0),  # an absent pair
            graph.out_neighbors(0)[2],
            graph.in_neighbors(2)[1],
        ]
        for labels in returned:
            with pytest.raises(AttributeError):
                labels.add("forged")
            with pytest.raises(AttributeError):
                labels.discard("livesIn")
        with pytest.raises(TypeError):
            graph.out_neighbors(0)[1] = frozenset({"forged"})
        with pytest.raises(TypeError):
            del graph.in_neighbors(2)[0]
        assert graph.version == version
        assert graph.index().is_fresh()
        assert sorted(graph.edges()) == edges
        assert graph.num_edges == len(edges) == 4
        assert graph.edge_label_counts() == {
            "knows": 1, "admires": 1, "livesIn": 2
        }
        assert graph.edge_labels(1, 0) == frozenset()
        assert_pairs_shared(graph)

    def test_bytes_per_edge(self):
        dbpedia_like(0.05)  # warm-up: one-off allocations
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graph = dbpedia_like(0.4)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / graph.num_edges <= self.BYTES_PER_EDGE_LIMIT

    def test_single_label_pairs_share_the_interned_set(self):
        graph = dbpedia_like(0.4)
        assert_pairs_shared(graph)
        src, dst = 0, 1
        graph.add_edge(src, dst, "p")
        graph.add_edge(src, dst, "q")
        graph.add_edge(src, dst, "r")
        assert graph.edge_labels(src, dst) >= {"p", "q", "r"}
        assert_pairs_shared(graph)
        graph.remove_edge(src, dst, "p")
        graph.remove_edge(src, dst, "q")
        assert_pairs_shared(graph)
        graph.relabel_edge(src, dst, "r", "p")
        assert_pairs_shared(graph)
        assert graph.copy()._out == graph._out
        assert_pairs_shared(graph.copy())

    def test_label_churn_leaves_the_intern_table(self):
        graph = build_sample()
        interned = dict(graph._singletons)
        for step in range(1000):
            assert graph.add_edge(step % 3, (step + 1) % 3, f"fresh{step}")
        assert len(graph._singletons) == len(interned) + 1000
        for step in range(1000):
            if step % 2:
                assert graph.remove_edge(step % 3, (step + 1) % 3, f"fresh{step}")
            else:
                src, dst = step % 3, (step + 1) % 3
                assert graph.relabel_edge(src, dst, f"fresh{step}", "knows")
                if (src, dst) != (0, 1):
                    assert graph.remove_edge(src, dst, "knows")
        assert graph._singletons == interned
        assert all(
            graph._singletons[label] is labels
            for label, labels in interned.items()
        )
        assert sorted(graph.edges()) == sorted(build_sample().edges())
        assert_pairs_shared(graph)


EDGE_LABEL_POOL = ["e0", "e1", "e2", "e3"]
NODE_LABEL_POOL = ["A", "B", "C"]
ANY_NODE = st.integers(0, 10**6)


def replay_copy(graph: Graph) -> Graph:
    """The copy a replay of the graph through its mutators builds."""
    clone = Graph()
    for node in graph.nodes():
        clone.add_node(graph.node_label(node), graph.node_attrs(node))
    for src, dst, label in graph.edges():
        clone.add_edge(src, dst, label)
    return clone


def observed(graph: Graph):
    """Everything of a graph a caller can tell apart, orders included."""
    meta, arrays = graph.index().export_buffers()
    return {
        "versions": (graph.version, graph.structure_version),
        "labels": [graph.node_label(node) for node in graph.nodes()],
        "attrs": [list(graph.node_attrs(node).items()) for node in graph.nodes()],
        "label_index": [
            (label, list(graph.nodes_with_label(label)))
            for label in graph._label_index
        ],
        "out": [list(graph.out_neighbors(node).items()) for node in graph.nodes()],
        "in": [list(graph.in_neighbors(node).items()) for node in graph.nodes()],
        "edges": list(graph.edges()),
        "edge_label_counts": list(graph.edge_label_counts().items()),
        "singletons": list(graph._singletons.items()),
        "num_edges": graph.num_edges,
        "meta": {key: value for key, value in meta.items() if key != "values"},
        "values": [repr(value) for value in meta["values"]],
        "arrays": {name: array.tobytes() for name, array in arrays.items()},
    }


MUTATION = st.one_of(
    st.tuples(st.just("add_node"), st.sampled_from(NODE_LABEL_POOL), ANY_NODE),
    st.tuples(st.just("add_edge"), ANY_NODE, ANY_NODE,
              st.sampled_from(EDGE_LABEL_POOL)),
    st.tuples(st.just("remove_edge"), ANY_NODE),
    st.tuples(st.just("relabel_edge"), ANY_NODE, st.sampled_from(EDGE_LABEL_POOL)),
    st.tuples(st.just("relabel_node"), ANY_NODE, st.sampled_from(NODE_LABEL_POOL)),
    st.tuples(st.just("set_attr"), ANY_NODE, st.sampled_from(["a", "b"]),
              st.integers(0, 3)),
    st.tuples(st.just("remove_attr"), ANY_NODE, st.sampled_from(["a", "b"])),
)


def apply_mutation(graph: Graph, mutation) -> None:
    kind, *args = mutation
    if kind == "add_node":
        graph.add_node(args[0], {"a": args[1] % 4} if args[1] % 2 else None)
        return
    if not graph.num_nodes:
        return
    edges = sorted(graph.edges())
    if kind == "add_edge":
        graph.add_edge(args[0] % graph.num_nodes, args[1] % graph.num_nodes, args[2])
    elif kind == "remove_edge" and edges:
        graph.remove_edge(*edges[args[0] % len(edges)])
    elif kind == "relabel_edge" and edges:
        src, dst, old = edges[args[0] % len(edges)]
        graph.relabel_edge(src, dst, old, args[1])
    elif kind == "relabel_node":
        graph.relabel_node(args[0] % graph.num_nodes, args[1])
    elif kind == "set_attr":
        graph.set_attr(args[0] % graph.num_nodes, args[1], args[2])
    elif kind == "remove_attr":
        graph.remove_attr(args[0] % graph.num_nodes, args[1])


class TestCopy:
    """``Graph.copy`` copies containers, yet equals a mutator replay."""

    @settings(max_examples=150, deadline=None)
    @given(
        history=st.lists(MUTATION, max_size=60),
        later=st.lists(MUTATION, min_size=1, max_size=10),
    )
    def test_copy_equals_replay_and_stays_independent(self, history, later):
        graph = Graph()
        for mutation in history:
            apply_mutation(graph, mutation)
        graph.index()  # a cached index must not leak into the copy
        before = observed(graph)
        clone = graph.copy()
        assert clone._index_cache is None and not clone._stale_nodes
        assert observed(clone) == observed(replay_copy(graph))
        assert_pairs_shared(clone)
        # later writes to either side leave the other as it was
        reference = replay_copy(graph)
        for mutation in later:
            apply_mutation(clone, mutation)
        assert observed(graph) == before
        for mutation in later:
            apply_mutation(reference, mutation)
        assert observed(clone) == observed(reference)
        for mutation in later:
            apply_mutation(graph, mutation)
        assert observed(clone) == observed(reference)
        assert_pairs_shared(graph)
        assert_pairs_shared(clone)

    def test_copy_of_a_knowledge_graph_equals_replay(self):
        graph = dbpedia_like(0.3, seed=3)
        graph.relabel_node(5, "film")
        graph.add_edge(0, 1, "p")
        graph.add_edge(0, 1, "q")
        graph.remove_edge(*next(graph.edges()))
        assert observed(graph.copy()) == observed(replay_copy(graph))


class AdjacencyMachine(RuleBasedStateMachine):
    """Random edge and label writes keep the two directions one structure."""

    def __init__(self):
        super().__init__()
        self.graph = Graph()
        for node in range(5):
            self.graph.add_node(NODE_LABEL_POOL[node % 3], {"a": node})

    def node(self, pick):
        return pick % self.graph.num_nodes

    def pick_edge(self, pick):
        edges = sorted(self.graph.edges())
        return edges[pick % len(edges)]

    @rule(label=st.sampled_from(NODE_LABEL_POOL))
    def add_node(self, label):
        self.graph.add_node(label)

    @rule(src=ANY_NODE, dst=ANY_NODE, label=st.sampled_from(EDGE_LABEL_POOL))
    def add_edge(self, src, dst, label):
        src, dst = self.node(src), self.node(dst)
        existed = self.graph.has_edge(src, dst, label)
        version = self.graph.version
        assert self.graph.add_edge(src, dst, label) is not existed
        assert self.graph.version == version + (not existed)

    @precondition(lambda self: self.graph.num_edges)
    @rule(pick=ANY_NODE)
    def remove_edge(self, pick):
        version = self.graph.version
        assert self.graph.remove_edge(*self.pick_edge(pick))
        assert self.graph.version == version + 1

    @precondition(lambda self: self.graph.num_edges)
    @rule(pick=ANY_NODE, label=st.sampled_from(EDGE_LABEL_POOL))
    def relabel_edge(self, pick, label):
        src, dst, old = self.pick_edge(pick)
        assert self.graph.relabel_edge(src, dst, old, label)
        assert self.graph.has_edge(src, dst, label)

    @rule(node=ANY_NODE, label=st.sampled_from(NODE_LABEL_POOL))
    def relabel_node(self, node, label):
        self.graph.relabel_node(self.node(node), label)

    @invariant()
    def directions_share_one_set(self):
        assert_pairs_shared(self.graph)

    @invariant()
    def counts_agree(self):
        graph = self.graph
        assert graph.num_edges == len(list(graph.edges()))
        assert graph.num_edges == sum(graph.edge_label_counts().values())

    @invariant()
    def copy_is_equal(self):
        graph = self.graph
        version = graph.version
        clone = graph.copy()
        assert graph.version == version
        assert clone._out == graph._out and clone._in == graph._in
        assert clone.edge_label_counts() == graph.edge_label_counts()
        assert clone.num_edges == graph.num_edges
        # a replay through the mutators: one version per node and edge
        assert clone.version == clone.num_nodes + clone.num_edges
        assert [clone.node_label(n) for n in clone.nodes()] == [
            graph.node_label(n) for n in graph.nodes()
        ]
        assert_pairs_shared(clone)


TestAdjacencyStateful = AdjacencyMachine.TestCase
TestAdjacencyStateful.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)


class TestGraphBuilder:
    def test_keyed_construction(self):
        builder = GraphBuilder()
        builder.node("a", "person", name="Ann")
        builder.node("b", "person")
        builder.edge("a", "b", "knows")
        graph, ids = builder.build()
        assert graph.num_nodes == 2
        assert graph.has_edge(ids["a"], ids["b"], "knows")

    def test_attribute_extension(self):
        builder = GraphBuilder()
        builder.node("a", "person")
        builder.node("a", age=9)
        graph, ids = builder.build()
        assert graph.get_attr(ids["a"], "age") == 9

    def test_label_conflict_raises(self):
        builder = GraphBuilder()
        builder.node("a", "person")
        with pytest.raises(ValueError):
            builder.node("a", "robot")

    def test_unknown_endpoint_raises(self):
        builder = GraphBuilder()
        builder.node("a", "person")
        with pytest.raises(KeyError):
            builder.edge("a", "missing", "knows")

    def test_first_reference_needs_label(self):
        builder = GraphBuilder()
        with pytest.raises(ValueError):
            builder.node("a")


class TestIO:
    def test_json_round_trip(self, tmp_path):
        graph = build_sample()
        path = tmp_path / "graph.json"
        save_json(graph, path)
        loaded = load_json(path)
        assert graph_to_json(loaded) == graph_to_json(graph)

    def test_json_dict_round_trip(self):
        graph = build_sample()
        clone = graph_from_json(graph_to_json(graph))
        assert sorted(clone.edges()) == sorted(graph.edges())
        assert clone.node_attrs(0) == graph.node_attrs(0)

    def test_tsv_round_trip(self, tmp_path):
        graph = build_sample()
        path = tmp_path / "graph.tsv"
        save_tsv(graph, path)
        loaded = load_tsv(path)
        assert sorted(loaded.edges()) == sorted(graph.edges())
        assert loaded.node_attrs(0) == graph.node_attrs(0)
        assert loaded.node_label(2) == "city"

    def test_tsv_rejects_out_of_order(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#nodes\n1\tperson\n")
        with pytest.raises(ValueError):
            load_tsv(path)

    def test_tsv_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\tperson\n")
        with pytest.raises(ValueError):
            load_tsv(path)


class TestStatistics:
    def test_label_counts(self):
        stats = compute_statistics(build_sample())
        assert stats.node_label_counts == {"person": 2, "city": 1}
        assert stats.edge_label_counts == {"knows": 1, "livesIn": 2}

    def test_triples(self):
        stats = compute_statistics(build_sample())
        assert stats.triple_counts[("person", "livesIn", "city")] == 2
        assert stats.frequent_triples(2) == [("person", "livesIn", "city")]

    def test_attr_counts(self):
        stats = compute_statistics(build_sample())
        assert stats.attr_counts == {"name": 3, "age": 1}
        assert stats.top_attributes(1) == ["name"]

    def test_top_values(self):
        graph = Graph()
        for value in ["x", "x", "y"]:
            graph.add_node("n", {"a": value})
        stats = compute_statistics(graph)
        assert stats.top_values("n", "a", 2) == ["x", "y"]
        assert stats.top_values("n", "missing", 2) == []

    def test_max_degree(self):
        stats = compute_statistics(build_sample())
        assert stats.max_degree == 2
