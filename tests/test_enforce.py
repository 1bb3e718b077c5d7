"""The enforcement engine against the reference validator.

The differential guarantee of PR 3: :class:`EnforcementEngine` — grouped
and vectorized, on the serial and multiprocess backends, with full and
incremental refresh — reports exactly the violation sets of the per-rule
reference :func:`repro.gfd.satisfaction.find_violations`, on a seeded
population of randomized graphs and rule sets covering negative GFDs
(``X → false``), missing attributes on both literal sides, variable
literals, wildcard labels, and isomorphic-pattern sharing.
"""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import Tracer
from repro.core import discover, sequential_cover
from repro.core.config import DiscoveryConfig, EnforcementConfig
from repro.datasets import KB_ATTRIBUTES, dbpedia_like, imdb_like, yago2_like
from repro.datasets.noise import inject_noise
from repro.enforce import DeltaLog, EnforcementEngine, compile_plan
from repro.gfd.gfd import GFD
from repro.gfd.literals import FALSE, ConstantLiteral, make_variable_literal
from repro.gfd.satisfaction import find_violations
from repro.graph import Graph
from repro.pattern.incremental import Extension, extend_matches
from repro.pattern.matcher import find_matches
from repro.pattern.pattern import WILDCARD, Pattern
from repro.quality.detector import detect_gfd_violations, nodes_in_violations

NODE_LABELS = ["person", "film", "book", "city", "award"]
EDGE_LABELS = ["create", "like", "live_in", "win"]
ATTRS = ["kind", "year", "grade"]

#: Seeds of the randomized equivalence population (satellite: ≥ 20 graphs).
NUM_GRAPHS = 24

VALUE_POOL = {
    "kind": ["a", "b", "c"],
    "year": [2000, 2001, 2002],
    "grade": ["x", "y"],
}


def _random_graph(seed: int) -> Graph:
    """A random labeled multigraph with sparse/dense attribute columns."""
    rng = random.Random(seed)
    num_nodes = rng.randint(40, 90)
    labels = NODE_LABELS[: rng.randint(2, len(NODE_LABELS))]
    density = rng.choice([0.3, 0.6, 0.95])
    graph = Graph()
    for _ in range(num_nodes):
        attrs = {
            attr: rng.choice(VALUE_POOL[attr])
            for attr in ATTRS
            if rng.random() < density
        }
        graph.add_node(rng.choice(labels), attrs)
    edge_labels = EDGE_LABELS[: rng.randint(2, len(EDGE_LABELS))]
    for _ in range(rng.randint(num_nodes, 3 * num_nodes)):
        src, dst = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if src != dst:
            graph.add_edge(src, dst, rng.choice(edge_labels))
    return graph


def _random_literal(rng: random.Random, num_vars: int, constant_ok: bool = True):
    """A literal over ``num_vars`` variables; sometimes over absent attrs
    or never-occurring constants (the missing-attribute semantics)."""
    attr = rng.choice(ATTRS + ["phantom"])  # "phantom" exists on no node
    if rng.random() < 0.35 and num_vars >= 2:
        var1, var2 = rng.sample(range(num_vars), 2)
        attr2 = attr if rng.random() < 0.7 else rng.choice(ATTRS)
        return make_variable_literal(var1, attr, var2, attr2)
    var = rng.randrange(num_vars)
    values = VALUE_POOL.get(attr, ["zz"]) + ["__nowhere__"]
    return ConstantLiteral(var, attr, rng.choice(values))


def _random_sigma(rng: random.Random, graph: Graph, count: int):
    """Rules over patterns sampled from the graph's own edges (so matches
    exist), with shuffled variable orders to exercise canonical grouping."""
    edges = list(graph.edges())
    sigma = []
    while len(sigma) < count and edges:
        src, dst, label = rng.choice(edges)
        src_label = graph.node_label(src)
        dst_label = graph.node_label(dst)
        if rng.random() < 0.2:
            src_label = WILDCARD
        if rng.random() < 0.2:
            label = WILDCARD
        if rng.random() < 0.5:
            # the spelled order of an isomorphic pattern varies
            pattern = Pattern([src_label, dst_label], [(0, 1, label)], pivot=0)
        else:
            pattern = Pattern([dst_label, src_label], [(1, 0, label)], pivot=1)
        num_vars = pattern.num_nodes
        lhs = frozenset(
            _random_literal(rng, num_vars) for _ in range(rng.randint(0, 2))
        )
        roll = rng.random()
        if roll < 0.25:
            rhs = FALSE
        else:
            rhs = _random_literal(rng, num_vars)
        sigma.append(GFD(pattern, lhs, rhs))
    return sigma


def _reference_sets(graph: Graph, sigma):
    """Per-rule violating match sets via the reference validator."""
    return [
        frozenset(v.match for v in find_violations(graph, gfd))
        for gfd in sigma
    ]


def _engine_sets(report):
    """Per-rule violating match sets from an uncapped engine report."""
    return [frozenset(rule.sample) for rule in report.rules]


def _uncapped(**overrides) -> EnforcementConfig:
    defaults = dict(backend="serial", max_violation_samples=None)
    defaults.update(overrides)
    return EnforcementConfig(**defaults)


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("seed", range(NUM_GRAPHS))
    def test_engine_matches_reference(self, seed):
        graph = _random_graph(seed)
        rng = random.Random(1000 + seed)
        sigma = _random_sigma(rng, graph, rng.randint(4, 10))
        reference = _reference_sets(graph, sigma)

        with EnforcementEngine(graph, sigma, _uncapped()) as engine:
            report = engine.validate()
            assert _engine_sets(report) == reference
            assert [r.violation_count for r in report.rules] == [
                len(s) for s in reference
            ]
            # exact node sets, independent of the sample cap machinery
            for rule_report, expected in zip(report.rules, reference):
                assert rule_report.nodes == frozenset(
                    node for match in expected for node in match
                )

        # sharded serial evaluation must not change anything
        with EnforcementEngine(
            graph, sigma, _uncapped(num_workers=3)
        ) as engine:
            assert _engine_sets(engine.validate()) == reference

    @pytest.mark.parametrize("seed", [2, 11])
    def test_multiprocess_backend_matches_reference(self, seed):
        graph = _random_graph(seed)
        rng = random.Random(1000 + seed)
        sigma = _random_sigma(rng, graph, rng.randint(4, 10))
        reference = _reference_sets(graph, sigma)
        with EnforcementEngine(
            graph, sigma, _uncapped(backend="multiprocess", num_workers=2)
        ) as engine:
            report = engine.validate()
        assert _engine_sets(report) == reference
        assert report.backend == "multiprocess"

    @pytest.mark.parametrize("seed", range(0, NUM_GRAPHS, 3))
    def test_incremental_refresh_matches_reference(self, seed):
        graph = _random_graph(seed)
        rng = random.Random(2000 + seed)
        sigma = _random_sigma(rng, graph, rng.randint(4, 8))
        with EnforcementEngine(graph, sigma, _uncapped()) as engine:
            engine.validate()
            # a small mixed delta: attribute edits, edge churn, a new node
            nodes = list(graph.nodes())
            for node in rng.sample(nodes, 3):
                graph.set_attr(node, "kind", rng.choice(VALUE_POOL["kind"]))
            victim = rng.choice(nodes)
            graph.remove_attr(victim, "year")
            edges = list(graph.edges())
            if edges:
                graph.remove_edge(*rng.choice(edges))
            fresh = graph.add_node(
                graph.node_label(rng.choice(nodes)), {"kind": "a"}
            )
            graph.add_edge(rng.choice(nodes), fresh, "create")
            report = engine.refresh()
            assert report.mode == "incremental"
            assert _engine_sets(report) == _reference_sets(graph, sigma)
            # refresh with no delta returns the cached report
            assert engine.refresh() is report

    def test_large_delta_falls_back_to_full(self):
        graph = _random_graph(5)
        rng = random.Random(99)
        sigma = _random_sigma(rng, graph, 4)
        config = _uncapped(max_delta_fraction=0.05)
        with EnforcementEngine(graph, sigma, config) as engine:
            engine.validate()
            for node in range(graph.num_nodes // 2):
                graph.set_attr(node, "kind", "c")
            report = engine.refresh()
            assert report.mode == "full"
            assert _engine_sets(report) == _reference_sets(graph, sigma)


class TestRefreshDifferential:
    """``refresh()`` re-derives exactly the matches containing a touched node.

    After every step the incremental report must equal a fresh engine's
    ``validate()`` and the per-rule reference ``find_violations`` — as row
    *multisets*, so a match with several touched nodes re-derived once per
    touched variable would show — and the engine's stored match arrays
    must equal a from-scratch match of every group pattern.
    """

    CONFIGS = {
        "serial": dict(num_workers=2),
        "multiprocess": dict(backend="multiprocess", num_workers=2),
    }

    @staticmethod
    def _setup():
        """people -create-> films -win-> awards, plus a city per person."""
        graph = Graph()
        people = [
            graph.add_node("person", {"kind": "a", "year": 2000 + i % 2})
            for i in range(12)
        ]
        films = [graph.add_node("film", {"kind": "b"}) for _ in range(6)]
        awards = [graph.add_node("award", {"grade": "x"}) for _ in range(3)]
        cities = [graph.add_node("city", {"kind": "c"}) for _ in range(4)]
        for i, person in enumerate(people):
            graph.add_edge(person, films[i % 6], "create")
            graph.add_edge(person, cities[i % 4], "live_in")
        for i, film in enumerate(films):
            graph.add_edge(film, awards[i % 3], "win")
        graph.add_edge(people[0], films[1], "like")
        chain = Pattern(
            ["person", "film", "award"], [(0, 1, "create"), (1, 2, "win")]
        )
        fork = Pattern(
            ["film", "person", "person"], [(1, 0, "create"), (2, 0, "create")]
        )
        any_node = Pattern(["person", WILDCARD], [(0, 1, "create")])
        any_edge = Pattern(["person", "film"], [(0, 1, WILDCARD)])
        sigma = [
            GFD(chain, frozenset({ConstantLiteral(0, "kind", "a")}),
                ConstantLiteral(2, "grade", "x")),
            GFD(chain, frozenset(), make_variable_literal(0, "kind", 1, "kind")),
            GFD(fork, frozenset(), make_variable_literal(1, "year", 2, "year")),
            GFD(any_node, frozenset(), ConstantLiteral(1, "kind", "b")),
            GFD(any_edge, frozenset({ConstantLiteral(1, "kind", "b")}), FALSE),
        ]
        return graph, people, films, awards, sigma

    @staticmethod
    def _check(engine, graph, sigma, mode="incremental"):
        report = engine.refresh()
        assert report.mode == mode
        with EnforcementEngine(graph, sigma, _uncapped()) as scratch:
            full = scratch.validate()
        for gfd, got, want in zip(sigma, report.rules, full.rules):
            reference = sorted(v.match for v in find_violations(graph, gfd))
            assert sorted(got.sample) == sorted(want.sample) == reference
            assert got.violation_count == len(reference)
            assert got.nodes == want.nodes
        for stored, group in zip(engine.stored_matches(), engine.plan.groups):
            assert sorted(map(tuple, stored.tolist())) == sorted(
                find_matches(graph, group.pattern)
            )
        return report

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_refresh_equals_full_and_reference(self, name):
        graph, people, films, awards, sigma = self._setup()
        config = _uncapped(max_delta_fraction=0.5, **self.CONFIGS[name])
        with EnforcementEngine(graph, sigma, config) as engine:
            engine.validate()
            check = lambda mode="incremental": self._check(
                engine, graph, sigma, mode
            )
            # a deletion two hops from the pivot disconnects stored matches
            # whose pivot is neither touched nor adjacent to a touched node
            graph.remove_edge(films[0], awards[0], "win")
            check()
            # one match with two, then all three, of its nodes touched
            graph.set_attr(people[1], "kind", "b")
            graph.set_attr(films[1], "kind", "a")
            check()
            graph.set_attr(people[2], "year", 1999)
            graph.set_attr(films[2], "kind", "z")
            graph.set_attr(awards[2], "grade", "y")
            check()
            # both persons of one fork match touched (variables 1 and 2)
            graph.set_attr(people[3], "year", 7)
            graph.set_attr(people[9], "year", 7)
            check()
            # a new node wired into existing matches
            trophy = graph.add_node("award", {"grade": "y"})
            graph.add_edge(films[0], trophy, "win")
            graph.add_edge(films[3], trophy, "win")
            check()
            # relabel out of, and into, a pattern label
            graph.relabel_node(films[4], "draft")
            check()
            graph.relabel_node(films[4], "film")
            graph.relabel_node(awards[1], "film")
            check()
            # a parallel edge only the wildcard-edge pattern sees
            graph.add_edge(people[5], films[5], "like")
            check()
            # nothing changed: the cached report, no pass
            before = engine.refresh()
            assert engine.refresh() is before
            # over max_delta_fraction: one full pass, same answers
            for person in people:
                graph.set_attr(person, "year", 2000)
            for film in films:
                graph.set_attr(film, "kind", "b")
            check("full")
            graph.set_attr(people[0], "kind", "q")
            check()


class TestNegativeAndMissingSemantics:
    """Targeted checks of the mask evaluator's Section 2.2 corner cases."""

    def _graph(self) -> Graph:
        graph = Graph()
        a = graph.add_node("person", {"kind": "a", "year": 2000})
        b = graph.add_node("person", {"kind": "a"})  # year missing
        c = graph.add_node("film", {"kind": "b", "year": 2000})
        d = graph.add_node("film", {})  # everything missing
        graph.add_edge(a, c, "create")
        graph.add_edge(b, c, "create")
        graph.add_edge(a, d, "create")
        graph.add_edge(b, d, "create")
        return graph

    def _sets(self, graph, gfd):
        with EnforcementEngine(graph, [gfd], _uncapped()) as engine:
            report = engine.validate()
        expected = frozenset(v.match for v in find_violations(graph, gfd))
        assert frozenset(report.rules[0].sample) == expected
        return expected

    def test_negative_gfd_flags_every_lhs_match(self):
        graph = self._graph()
        pattern = Pattern(["person", "film"], [(0, 1, "create")])
        gfd = GFD(
            pattern, frozenset({ConstantLiteral(0, "kind", "a")}), FALSE
        )
        assert self._sets(graph, gfd) == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_negative_gfd_with_empty_lhs_flags_every_match(self):
        graph = self._graph()
        pattern = Pattern(["person", "film"], [(0, 1, "create")])
        gfd = GFD(pattern, frozenset(), FALSE)
        assert len(self._sets(graph, gfd)) == 4

    def test_missing_lhs_attribute_satisfies_vacuously(self):
        graph = self._graph()
        pattern = Pattern(["person", "film"], [(0, 1, "create")])
        # node 1 misses "year": its matches cannot violate via this LHS
        gfd = GFD(
            pattern,
            frozenset({ConstantLiteral(0, "year", 2000)}),
            ConstantLiteral(1, "kind", "zzz"),
        )
        violations = self._sets(graph, gfd)
        assert violations == {(0, 2), (0, 3)}

    def test_missing_rhs_attribute_is_a_violation(self):
        graph = self._graph()
        pattern = Pattern(["person", "film"], [(0, 1, "create")])
        # film 3 has no "year": every match onto it violates the RHS
        gfd = GFD(pattern, frozenset(), ConstantLiteral(1, "year", 2000))
        assert self._sets(graph, gfd) == {(0, 3), (1, 3)}

    def test_variable_literal_missing_both_sides_is_violation(self):
        graph = self._graph()
        pattern = Pattern(["person", "film"], [(0, 1, "create")])
        # two MISSING cells are NOT equal under Section 2.2
        gfd = GFD(
            pattern, frozenset(), make_variable_literal(0, "year", 1, "year")
        )
        violations = self._sets(graph, gfd)
        assert (1, 2) in violations  # person 1 misses year
        assert (0, 3) in violations  # film 3 misses year
        assert (0, 2) not in violations  # both 2000


class TestPlanCompilation:
    def test_isomorphic_patterns_share_a_group(self):
        spelled_one_way = Pattern(["person", "film"], [(0, 1, "create")], 0)
        spelled_other_way = Pattern(["film", "person"], [(1, 0, "create")], 1)
        sigma = [
            GFD(spelled_one_way, frozenset(),
                ConstantLiteral(0, "kind", "a")),
            GFD(spelled_other_way, frozenset(),
                ConstantLiteral(1, "kind", "a")),
            GFD(spelled_one_way,
                frozenset({ConstantLiteral(1, "kind", "b")}), FALSE),
        ]
        plan = compile_plan(sigma)
        assert plan.num_rules == 3
        assert len(plan.groups) == 1
        group = plan.groups[0]
        assert group.pattern.pivot == 0
        assert [rule.position for rule in group.rules] == [0, 1, 2]
        assert group.rules[2].is_negative
        # the two positive rules express the same dependency: identical
        # canonical literals, different column maps
        assert group.rules[0].lhs == group.rules[1].lhs
        assert group.rules[0].rhs == group.rules[1].rhs

    def test_plan_attributes_cover_all_literals(self):
        pattern = Pattern(["person", "film"], [(0, 1, "create")])
        sigma = [
            GFD(pattern, frozenset({ConstantLiteral(0, "kind", "a")}),
                make_variable_literal(0, "year", 1, "grade")),
        ]
        plan = compile_plan(sigma)
        assert plan.attributes() == ("grade", "kind", "year")


class TestDeltaLog:
    def test_mutations_record_touched_nodes(self):
        graph = Graph()
        a = graph.add_node("x", {})
        b = graph.add_node("x", {})
        log = DeltaLog()
        graph.attach_delta_log(log)
        assert not log
        graph.add_edge(a, b, "e")
        assert log.touched_nodes() == {a, b}
        graph.set_attr(a, "k", 1)
        graph.remove_edge(a, b, "e")
        c = graph.add_node("y", {})
        graph.relabel_node(b, "z")
        assert log.touched_nodes() == {a, b, c}
        assert log.num_ops == 5
        log.clear()
        assert not log and log.num_ops == 0
        # no-op mutations record nothing
        graph.remove_edge(a, b, "e")
        graph.remove_attr(b, "absent")
        graph.relabel_node(b, "z")
        assert not log
        graph.detach_delta_log(log)
        graph.set_attr(a, "k", 2)
        assert not log

    def test_engine_close_detaches_its_log(self):
        graph = _random_graph(1)
        sigma = _random_sigma(random.Random(1), graph, 2)
        engine = EnforcementEngine(graph, sigma, _uncapped())
        engine.validate()
        engine.close()
        graph.set_attr(0, "kind", "a")
        assert not engine.delta


    def test_drain_kinds_splits_structural_from_attribute_only(self):
        graph = Graph()
        a, b, c = (graph.add_node("x", {}) for _ in range(3))
        log = DeltaLog()
        graph.attach_delta_log(log)
        graph.set_attr(a, "k", 1)
        graph.remove_attr(a, "k")
        graph.set_attr(b, "k", 1)
        graph.add_edge(b, c, "e")
        graph.relabel_edge(b, c, "e", "f")
        graph.set_attr(c, "k", 2)
        d = graph.add_node("y", {"k": 3})
        graph.relabel_node(a, "z")
        graph.set_attr(d, "k", 4)
        assert log.touched_nodes() == {a, b, c, d} and len(log) == 4
        # a node any structural write touched counts as structural
        assert log.drain_kinds() == ({a, b, c, d}, set())
        graph.set_attr(b, "k", 5)
        graph.remove_attr(c, "k")
        assert log.drain_kinds() == (set(), {b, c})
        assert not log and log.num_ops == 0
        graph.set_attr(a, "k", 6)
        graph.add_edge(c, b, "e")
        assert log.drain() == {a, b, c}
        assert log.drain_kinds() == (set(), set())


class TestSeededCapRegression:
    """``max_per_gfd`` semantics: seeded, order-independent sampling.

    The pre-PR 3 detector kept the *first* ``max_per_gfd`` violations in
    match-enumeration order, so ``nodes_in_violations`` depended on the
    backend's iteration order.  Now a binding cap keeps a seeded uniform
    sample over the sorted violation set — identical across backends,
    worker counts, and refresh modes.
    """

    def _violating_setup(self):
        graph = Graph()
        people = [
            graph.add_node("person", {"kind": "a"}) for _ in range(30)
        ]
        films = [graph.add_node("film", {}) for _ in range(3)]
        for person in people:
            for film in films:
                graph.add_edge(person, film, "create")
        pattern = Pattern(["person", "film"], [(0, 1, "create")])
        # every match violates: films have no "kind"
        gfd = GFD(pattern, frozenset(), ConstantLiteral(1, "kind", "a"))
        return graph, [gfd]

    def test_capped_sample_is_deterministic_and_exactly_capped(self):
        graph, sigma = self._violating_setup()
        first = detect_gfd_violations(graph, sigma, max_per_gfd=10, seed=7)
        second = detect_gfd_violations(graph, sigma, max_per_gfd=10, seed=7)
        assert len(first) == 10
        assert [v.match for v in first] == [v.match for v in second]
        other_seed = detect_gfd_violations(graph, sigma, max_per_gfd=10, seed=8)
        assert {v.match for v in other_seed} != {v.match for v in first}

    def test_capped_sample_is_shard_and_backend_independent(self):
        graph, sigma = self._violating_setup()
        configs = [
            EnforcementConfig(backend="serial", num_workers=1,
                              max_violation_samples=10, sample_seed=7),
            EnforcementConfig(backend="serial", num_workers=4,
                              max_violation_samples=10, sample_seed=7),
            EnforcementConfig(backend="multiprocess", num_workers=2,
                              max_violation_samples=10, sample_seed=7),
        ]
        samples = []
        for config in configs:
            with EnforcementEngine(graph, sigma, config) as engine:
                report = engine.validate()
            assert report.rules[0].sample_truncated
            assert report.rules[0].violation_count == 90
            # the full node set stays exact even under the sample cap
            assert len(report.rules[0].nodes) == 33
            samples.append(report.rules[0].sample)
        assert samples[0] == samples[1] == samples[2]

    def test_uncapped_detection_equals_reference(self):
        graph, sigma = self._violating_setup()
        violations = detect_gfd_violations(graph, sigma, max_per_gfd=None)
        reference = find_violations(graph, sigma[0])
        assert {v.match for v in violations} == {v.match for v in reference}
        assert nodes_in_violations(violations) == nodes_in_violations(reference)


class TestReportSurface:
    def test_report_shape(self):
        graph, sigma = TestSeededCapRegression()._violating_setup()
        with EnforcementEngine(graph, sigma, _uncapped()) as engine:
            report = engine.validate()
        assert report.total_violations == 90
        assert not report.is_clean
        assert report.patterns_matched == 1
        assert report.rules[0].distinct_pivots == 30  # exact
        assert report.violations()[0].gfd is sigma[0]

    def test_empty_sigma_and_matchless_pattern(self):
        graph = _random_graph(0)
        with EnforcementEngine(graph, [], _uncapped()) as engine:
            report = engine.validate()
        assert report.is_clean and report.rules == []
        pattern = Pattern(["no_such_label"], [])
        gfd = GFD(pattern, frozenset(), ConstantLiteral(0, "kind", "a"))
        with EnforcementEngine(graph, [gfd], _uncapped()) as engine:
            report = engine.validate()
        assert report.rules[0].violation_count == 0
        assert report.is_clean


class TestWorkerResidency:
    """Resident enforcement tables: match rows stay in the workers.

    A full pass installs each group's match shard once; afterwards only
    deltas travel —
    a clean :meth:`refresh` ships **zero** match rows in either direction,
    and a dirty one ships exactly the re-derived rows plus the violating
    rows of the report.  The backend's ``TransferLedger`` proves it.
    """

    def _structured(self):
        """A graph whose refresh delta is exactly one match row."""
        graph = Graph()
        people = [
            graph.add_node("person", {"kind": "a", "year": 2000 + i % 2})
            for i in range(40)
        ]
        cities = [graph.add_node("city", {"kind": "c"}) for _ in range(5)]
        for i, person in enumerate(people):
            graph.add_edge(person, cities[i % 5], "live_in")
        pattern = Pattern(["person", "city"], [(0, 1, "live_in")], pivot=0)
        rule = GFD(
            pattern,
            frozenset({ConstantLiteral(0, "kind", "a")}),
            ConstantLiteral(0, "year", 2000),
        )
        return graph, people, [rule]

    @pytest.mark.parametrize("backend", ["serial", "multiprocess"])
    def test_clean_refresh_ships_zero_match_rows(self, backend):
        graph, people, sigma = self._structured()
        config = _uncapped(backend=backend, num_workers=2)
        with EnforcementEngine(graph, sigma, config) as engine:
            engine.validate()
            ledger = engine._backend.transfers
            assert ledger.rows_to_workers == 40  # the one-time install
            before = ledger.snapshot()
            # clean pass 1: nothing changed at all
            report = engine.refresh()
            # clean pass 2: a mutation that affects no pattern group
            bystander = graph.add_node("award", {})
            graph.set_attr(bystander, "kind", "z")
            report = engine.refresh()
            assert report.mode == "incremental"
            after = engine._backend.transfers
            assert after.rows_to_workers == before.rows_to_workers
            assert after.rows_to_master == before.rows_to_master

    @pytest.mark.parametrize("backend", ["serial", "multiprocess"])
    def test_dirty_refresh_ships_only_the_delta(self, backend):
        graph, people, sigma = self._structured()
        config = _uncapped(backend=backend, num_workers=2)
        with EnforcementEngine(graph, sigma, config) as engine:
            full = engine.validate()
            resident_backend = engine._backend
            ledger = engine._backend.transfers
            before = ledger.snapshot()
            graph.set_attr(people[0], "year", 2001)  # 1 affected match
            report = engine.refresh()
            assert report.mode == "incremental"
            assert report.total_violations == full.total_violations + 1
            # an attribute write ships no row master -> workers: the one
            # affected resident row is re-judged in place, with no join
            assert ledger.rows_to_workers == before.rows_to_workers
            assert engine.last_pass["joins"] == 0
            assert engine.last_pass["rows_rejudged"] == 1
            # worker -> master carries only the violating rows of the one
            # shard whose violating set changed: people 0..19 live in
            # shard 0, and 11 of them violate now
            assert ledger.rows_to_master - before.rows_to_master == 11
            assert 11 < report.total_violations
            # a structural write re-derives its matches: exactly the one
            # re-derived row goes master -> workers, the 40 resident rows
            # never travel again
            before = ledger.snapshot()
            graph.relabel_node(people[2], "city")
            graph.relabel_node(people[2], "person")
            report = engine.refresh()
            assert report.total_violations == full.total_violations + 1
            assert ledger.rows_to_workers - before.rows_to_workers == 1
            assert engine.last_pass["joins"] > 0
            # the backend (and with it the resident state) survived the
            # index snapshot change
            assert engine._backend is resident_backend

    def test_persistent_equals_rebuilt_reports(self):
        """Resident-table refresh on both backends ≡ a rebuilt engine."""
        rng = random.Random(2)
        reports = []
        for backend in ("serial", "multiprocess"):
            graph = _random_graph(2)
            sigma = _random_sigma(rng.__class__(7), graph, 10)
            config = _uncapped(backend=backend, num_workers=3)
            with EnforcementEngine(graph, sigma, config) as engine:
                engine.validate()
                mutated = sorted(graph.nodes())[:3]
                for node in mutated:
                    graph.set_attr(node, "year", 2002)
                refreshed = engine.refresh()
                assert refreshed.mode == "incremental"
                with EnforcementEngine(graph, sigma, config) as scratch:
                    rebuilt = scratch.validate()
            for report in (refreshed, rebuilt):
                reports.append(
                    (
                        report.total_violations,
                        _engine_sets(report),
                        [r.violation_count for r in report.rules],
                    )
                )
        assert all(report == reports[0] for report in reports[1:])

    def test_incremental_report_equals_full_revalidation(self):
        """A chain of mutations: refresh() == a fresh engine's validate()."""
        graph, people, sigma = self._structured()
        config = _uncapped(num_workers=2)
        with EnforcementEngine(graph, sigma, config) as engine:
            engine.validate()
            for step, person in enumerate(people[:6]):
                graph.set_attr(person, "year", 2001)
                incremental = engine.refresh()
                with EnforcementEngine(graph, sigma, config) as scratch:
                    full = scratch.validate()
                assert incremental.total_violations == full.total_violations
                assert _engine_sets(incremental) == _engine_sets(full)


# ----------------------------------------------------------------------
# the join trie of Σ: one walk per full pass, one seeded walk per refresh
# ----------------------------------------------------------------------
KB_FIXTURES = {
    "yago": (yago2_like, 0.35, 25),
    "dbpedia": (dbpedia_like, 0.3, 40),
    "imdb": (imdb_like, 0.3, 40),
}


@functools.lru_cache(maxsize=None)
def _kb_case(name):
    """A noised KB fixture and (a slice of) the cover mined from it clean."""
    factory, scale, sigma = KB_FIXTURES[name]
    clean = factory(scale=scale, seed=7)
    config = DiscoveryConfig(
        k=3, sigma=sigma, max_lhs_size=1, active_attributes=list(KB_ATTRIBUTES)
    )
    cover = sequential_cover(discover(clean, config).gfds).cover
    dirty, _ = inject_noise(
        clean, alpha=0.05, beta=0.5, attributes=list(KB_ATTRIBUTES), seed=7
    )
    return dirty, cover[:60]


class TestJoinTrie:
    @staticmethod
    def _agree(report, graph, sigma, reference=False):
        """``report`` ≡ a fresh engine's full pass (≡ ``find_violations``)."""
        with EnforcementEngine(graph, sigma, _uncapped()) as scratch:
            full = scratch.validate()
        assert _engine_sets(report) == _engine_sets(full)
        assert [r.violation_count for r in report.rules] == [
            r.violation_count for r in full.rules
        ]
        assert [r.nodes for r in report.rules] == [r.nodes for r in full.rules]
        if reference:
            assert _engine_sets(report) == _reference_sets(graph, sigma)

    @pytest.mark.parametrize("backend", ["serial", "multiprocess"])
    @pytest.mark.parametrize("name", sorted(KB_FIXTURES))
    def test_fixture_passes_equal_fresh_engine_and_reference(self, name, backend):
        dirty, sigma = _kb_case(name)
        graph = dirty.copy()
        rng = random.Random(5)
        config = _uncapped(backend=backend, num_workers=2)
        with EnforcementEngine(graph, sigma, config) as engine:
            report = engine.validate()
            assert report.total_violations > 0
            self._agree(report, graph, sigma, reference=backend == "serial")
            labels = sorted(graph.node_labels())
            for step in range(3):
                edges = list(graph.edges())
                src, dst, label = rng.choice(edges)
                graph.relabel_node(src, rng.choice(labels))
                graph.remove_edge(*rng.choice(edges))
                fresh = graph.add_node(graph.node_label(dst), {"type": "x"})
                graph.add_edge(fresh, dst, label)
                graph.add_edge(rng.choice(edges)[0], fresh, label)
                graph.set_attr(rng.choice(edges)[1], "type", "y")
                report = engine.refresh()
                assert report.mode == "incremental"
                assert 0 < engine.last_pass["joins"]
                self._agree(report, graph, sigma, reference=step == 2)

    def test_pass_counts_are_exact(self):
        dirty, sigma = _kb_case("dbpedia")
        sigma = [g for g in sigma if WILDCARD not in g.pattern.labels]
        graph = dirty.copy()
        tracer = Tracer()
        with EnforcementEngine(graph, sigma, _uncapped(), tracer=tracer) as engine:
            engine.validate()
            plan, index = engine.plan, graph.index()
            trie = plan.full_trie
            assert engine.last_pass == {
                "plans": len(plan.groups),
                "trie_nodes": trie.nodes,
                "joins": self._reached_fanouts(trie, index),
                "structural_nodes": 0,
                "attribute_nodes": 0,
                "rows_dropped": 0,
                "rows_rejudged": 0,
                "rows_added": sum(
                    rows.shape[0] for rows in engine.stored_matches()
                ),
                "rules_reused": 0,
            }
            # sharing: fewer joins than the plans hold one by one, and (every
            # label pool here fits one root block) than the trie has nodes
            assert engine.last_pass["joins"] <= trie.nodes - len(trie.roots)
            assert engine.last_pass["joins"] < trie.steps == sum(
                group.pattern.num_nodes - 1 for group in plan.groups
            )
            assert tracer.events[-1]["type"] == "enforce_pass"
            assert {
                key: tracer.events[-1][key] for key in engine.last_pass
            } == engine.last_pass
            # a delta none of whose nodes carries a label of Σ: every root
            # of the anchored trie is skipped
            bystander = graph.add_node("bystander", {"type": "x"})
            graph.set_attr(bystander, "type", "y")
            report = engine.refresh()
            assert report.mode == "incremental" and report.groups_revalidated == 0
            assert engine.last_pass == {
                "plans": sum(g.pattern.num_nodes for g in plan.groups),
                "trie_nodes": plan.anchored_trie.nodes,
                "joins": 0,
                "structural_nodes": 1,
                "attribute_nodes": 0,
                "rows_dropped": 0,
                "rows_rejudged": 0,
                "rows_added": 0,
                "rules_reused": len(sigma),
            }
            assert tracer.events[-1]["joins"] == 0
            # an attribute write never re-matches: its rows are re-judged
            src, dst, label = next(iter(graph.edges()))
            graph.set_attr(src, "type", "z")
            engine.refresh()
            assert engine.last_pass["joins"] == 0
            assert engine.last_pass["attribute_nodes"] == 1
            assert engine.last_pass["rows_rejudged"] > 0
            # a real structural delta: only subtrees under a touched label run
            graph.remove_edge(src, dst, label)
            engine.refresh()
            assert 0 < engine.last_pass["joins"] < plan.anchored_trie.steps

    @staticmethod
    def _reached_fanouts(trie, index):
        """Fan-out edges of ``trie`` whose input rows are non-empty."""
        def below(node, rows):
            reached = 0
            for op, child in node.children.items():
                if isinstance(op, Extension):
                    reached += not op.is_closing
                    out = extend_matches(None, rows, op, index=index)
                else:
                    src, dst, needed = op
                    counts = index.edge_label_counts(rows[:, src], rows[:, dst])
                    out = rows[counts >= needed]
                if out.shape[0]:
                    reached += below(child, out)
            return reached

        return sum(
            below(root, index.nodes_with_label(label).reshape(-1, 1))
            for label, root in trie.roots.items()
            if index.nodes_with_label(label).size
        )


class TestPassObservability:
    """``last_pass`` (and the ``enforce_pass`` event) says what a refresh did,
    exactly: an attribute-only batch re-judges in place and joins nothing,
    a structural batch drops and re-derives only the rows it reaches."""

    @staticmethod
    def _sigma():
        made = Pattern(["person", "product"], [(0, 1, "create")])
        parent = Pattern(["person", "person"], [(0, 1, "parent")])
        return [
            GFD(made, frozenset({ConstantLiteral(0, "type", "producer")}),
                ConstantLiteral(1, "type", "film")),
            GFD(made, frozenset({ConstantLiteral(0, "type", "actor")}),
                ConstantLiteral(1, "type", "book")),
            GFD(parent, frozenset({ConstantLiteral(0, "type", "actor")}),
                ConstantLiteral(1, "type", "actor")),
        ]

    @pytest.mark.parametrize("backend", ["serial", "multiprocess"])
    def test_refresh_counts_are_exact(self, film_graph, backend):
        graph, sigma, tracer = film_graph, self._sigma(), Tracer()
        config = _uncapped(backend=backend, num_workers=2)
        with EnforcementEngine(graph, sigma, config, tracer=tracer) as engine:
            assert engine.validate().is_clean
            assert engine.last_pass["rows_added"] == 120 + 80
            film = 120  # producer 0 created it
            # attribute-only: film 0 becomes a book, so its one create
            # match now violates rule 0; rule 1 and rule 2 keep their entry
            graph.set_attr(film, "type", "book")
            report = engine.refresh()
            assert [r.violation_count for r in report.rules] == [1, 0, 0]
            counts = {
                "joins": 0,
                "structural_nodes": 0,
                "attribute_nodes": 1,
                "rows_dropped": 0,
                "rows_rejudged": 1,
                "rows_added": 0,
                "rules_reused": 2,
            }
            assert {key: engine.last_pass[key] for key in counts} == counts
            event = tracer.events[-1]
            assert event["type"] == "enforce_pass"
            assert {key: event[key] for key in counts} == counts
            # structural: actor 0 (node 60) also creates film 0.  Dropped:
            # the create matches at 0 / 60 and the parent matches 40 -> 60
            # and 60 -> 80; re-derived: those four plus (60, film 0)
            graph.add_edge(60, film, "create")
            report = engine.refresh()
            assert [r.violation_count for r in report.rules] == [1, 0, 0]
            counts = {
                "structural_nodes": 2,
                "attribute_nodes": 0,
                "rows_dropped": 4,
                "rows_rejudged": 0,
                "rows_added": 5,
            }
            assert {key: engine.last_pass[key] for key in counts} == counts
            assert engine.last_pass["joins"] > 0
            # rule 0's violating row was dropped and re-derived, so only
            # rules 1 and 2 can have kept their entries
            assert engine.last_pass["rules_reused"] == 2
            assert {key: tracer.events[-1][key] for key in counts} == counts


NODE_LABELS = ["person", "film", "award", "city"]
EDGE_LABELS = ["create", "win", "like", "live_in"]
ATTRS = ["kind", "year", "grade"]
VALUES = ["a", "b", "x", "y", 1999, 2000, 2001]
PICK = st.integers(0, 10**6)


class MixedKindRefreshMachine(RuleBasedStateMachine):
    """Any interleaving of the seven mutators, each step refreshed.

    After every step ``refresh()`` ≡ a fresh engine's ``validate()`` ≡
    ``find_violations`` — violating rows as multisets, counts, node sets
    and distinct pivots — and the live stored rows ≡ ``find_matches`` of
    every group pattern.  Attribute writes re-judge rows in place and
    structural ones drop and re-derive, so interleaving them exercises
    tombstones, appends and compaction against the oracle.
    """

    backend = "serial"

    def __init__(self):
        super().__init__()
        graph, _, _, _, sigma = TestRefreshDifferential._setup()
        self.graph, self.sigma = graph, sigma
        config = _uncapped(
            backend=self.backend, num_workers=2, max_delta_fraction=1.0
        )
        self.engine = EnforcementEngine(graph, sigma, config)
        self.engine.validate()

    def teardown(self):
        self.engine.close()

    def node(self, pick):
        return pick % self.graph.num_nodes

    def edge(self, pick):
        edges = sorted(self.graph.edges())
        return edges[pick % len(edges)]

    @rule(node=PICK, attr=st.sampled_from(ATTRS), value=st.sampled_from(VALUES))
    def set_attr(self, node, attr, value):
        self.graph.set_attr(self.node(node), attr, value)

    @rule(node=PICK, attr=st.sampled_from(ATTRS))
    def remove_attr(self, node, attr):
        self.graph.remove_attr(self.node(node), attr)

    @rule(label=st.sampled_from(NODE_LABELS), value=st.sampled_from(VALUES))
    def add_node(self, label, value):
        self.graph.add_node(label, {"kind": value})

    @rule(src=PICK, dst=PICK, label=st.sampled_from(EDGE_LABELS))
    def add_edge(self, src, dst, label):
        self.graph.add_edge(self.node(src), self.node(dst), label)

    @precondition(lambda self: self.graph.num_edges)
    @rule(pick=PICK)
    def remove_edge(self, pick):
        self.graph.remove_edge(*self.edge(pick))

    @precondition(lambda self: self.graph.num_edges)
    @rule(pick=PICK, label=st.sampled_from(EDGE_LABELS))
    def relabel_edge(self, pick, label):
        src, dst, old = self.edge(pick)
        self.graph.relabel_edge(src, dst, old, label)

    @rule(node=PICK, label=st.sampled_from(NODE_LABELS))
    def relabel_node(self, node, label):
        self.graph.relabel_node(self.node(node), label)

    @invariant()
    def refresh_is_exact(self):
        graph, sigma = self.graph, self.sigma
        report = self.engine.refresh()
        assert report.mode in ("incremental", "full")
        with EnforcementEngine(graph, sigma, _uncapped()) as scratch:
            full = scratch.validate()
        for gfd, got, want in zip(sigma, report.rules, full.rules):
            reference = sorted(v.match for v in find_violations(graph, gfd))
            assert sorted(got.sample) == sorted(want.sample) == reference
            assert got.violation_count == want.violation_count == len(reference)
            assert got.nodes == want.nodes == {n for row in reference for n in row}
            pivots = {row[gfd.pattern.pivot] for row in reference}
            assert got.distinct_pivots == want.distinct_pivots == len(pivots)
        for stored, group in zip(
            self.engine.stored_matches(), self.engine.plan.groups
        ):
            assert sorted(map(tuple, stored.tolist())) == sorted(
                find_matches(graph, group.pattern)
            )


class MultiprocessMixedKindRefreshMachine(MixedKindRefreshMachine):
    backend = "multiprocess"


TestMixedKindRefreshSerial = MixedKindRefreshMachine.TestCase
TestMixedKindRefreshSerial.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None
)
TestMixedKindRefreshMultiprocess = MultiprocessMixedKindRefreshMachine.TestCase
TestMixedKindRefreshMultiprocess.settings = settings(
    max_examples=6, stateful_step_count=20, deadline=None
)
