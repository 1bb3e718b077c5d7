"""Tests for the wildcard label-upgrading path of discovery (Section 5.1).

The paper's Q2 (Example 1) and GFD1 (Figure 8) carry wildcard nodes; the
miner spawns them when an extension's endpoints are label-diverse.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core import DiscoveryConfig, discover, gfd_identity
from repro.gfd import format_gfd
from repro.oracle import minimal_cover_by_reduction, reference_discover
from repro.graph import Graph
from repro.parallel import ParallelDiscovery
from repro.pattern import WILDCARD


def diverse_graph() -> Graph:
    """Persons ``own`` things of many labels; the owned thing always has
    ``insured='yes'`` — only the wildcard pattern states this compactly."""
    graph = Graph()
    labels = ["car", "house", "boat", "horse"]
    for index in range(80):
        person = graph.add_node("person", {"kind": "owner"})
        thing = graph.add_node(
            labels[index % len(labels)], {"insured": "yes"}
        )
        graph.add_edge(person, thing, "owns")
    return graph


def wildcard_config() -> DiscoveryConfig:
    return DiscoveryConfig(
        k=2,
        sigma=40,
        max_lhs_size=1,
        active_attributes=["kind", "insured"],
        enable_wildcards=True,
        wildcard_min_labels=3,
        mine_negative=False,
    )


class TestWildcardDiscovery:
    def test_wildcard_rule_found(self):
        result = discover(diverse_graph(), wildcard_config())
        wildcard_rules = [
            gfd
            for gfd in result.gfds
            if WILDCARD in gfd.pattern.labels and "insured" in str(gfd)
        ]
        assert wildcard_rules, "the owns->insured rule needs a wildcard"
        # support covers all owners: per-label patterns cover only 20 each
        best = max(result.supports[g] for g in wildcard_rules)
        assert best == 80

    def test_wildcard_subsumes_specific(self):
        """Per-label copies of the wildcard rule are not emitted."""
        result = discover(diverse_graph(), wildcard_config())
        specific = [
            gfd
            for gfd in result.gfds
            if "car" in gfd.pattern.labels and "insured" in str(gfd.rhs)
        ]
        assert not specific, "specific rules are subsumed by the wildcard rule"

    def test_disabled_by_default(self):
        config = replace(wildcard_config(), enable_wildcards=False)
        result = discover(diverse_graph(), config)
        assert not any(WILDCARD in g.pattern.labels for g in result.gfds)

    def test_diversity_threshold(self):
        config = replace(wildcard_config(), wildcard_min_labels=10)
        result = discover(diverse_graph(), config)
        assert not any(WILDCARD in g.pattern.labels for g in result.gfds)

    def test_parallel_parity_with_wildcards(self):
        graph = diverse_graph()
        config = wildcard_config()
        sequential = discover(graph, config)
        parallel = ParallelDiscovery(graph, config, num_workers=3).run()
        assert {gfd_identity(g) for g in sequential.gfds} == {
            gfd_identity(g) for g in parallel.gfds
        }

    def test_reduced_at_emission_with_wildcards(self):
        """A specific rule is ``≪``-dominated by its wildcard generalization
        at the same level: the engine does not emit it, and it keeps
        budgeted streams exact prefixes while doing so."""
        graph = diverse_graph()
        config = replace(
            wildcard_config(), sigma=10, k=3, max_lhs_size=2, mine_negative=True
        )
        result = discover(graph, config)
        reference = reference_discover(graph, config)
        assert {
            (gfd_identity(g), result.supports[g]) for g in result.gfds
        } == {(gfd_identity(g), reference.supports[g]) for g in reference.gfds}
        assert minimal_cover_by_reduction(result.gfds) == result.gfds
        assert any(WILDCARD in g.pattern.labels for g in result.gfds)
        full = [format_gfd(g) for g in result.gfds]
        for max_rules in range(len(full) + 1):
            streamed = [
                format_gfd(gfd)
                for _level, batch in ParallelDiscovery(
                    graph, config, 1, backend="serial"
                ).run_iter(max_rules=max_rules)
                for gfd, _support in batch
            ]
            assert streamed == full[:max_rules], max_rules
