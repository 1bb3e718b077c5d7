"""Tests for the dataset generators, Figure 1, noise injection and quality."""

from __future__ import annotations

import pytest

from repro.core import DiscoveryConfig, discover
from repro.datasets import (
    KB_ATTRIBUTES,
    SCALE_TIERS,
    dbpedia_like,
    generate_gfds,
    imdb_like,
    inject_noise,
    load_figure1,
    scale_graph,
    scale_tier_graph,
    synthetic_graph,
    yago2_like,
)
from repro.gfd import graph_satisfies, validate_set
from repro.graph import compute_statistics
from repro.pattern import find_matches
from repro.quality import (
    amie_detection,
    detect_gfd_violations,
    detection_metrics,
    gfd_detection,
    nodes_in_violations,
)


class TestFigure1:
    def test_graph_shapes(self, figure1):
        assert figure1.g1.num_nodes == 2
        assert figure1.g2.num_edges == 2
        assert figure1.g3.num_edges == 2

    def test_phi1_catches_g1(self, figure1):
        assert not graph_satisfies(figure1.g1, figure1.phi1)

    def test_phi2_catches_g2(self, figure1):
        assert not graph_satisfies(figure1.g2, figure1.phi2)

    def test_phi3_catches_g3(self, figure1):
        assert not graph_satisfies(figure1.g3, figure1.phi3)

    def test_clean_versions_satisfy(self, figure1):
        # fix G1: make the person a producer
        g1 = figure1.g1.copy()
        g1.set_attr(0, "type", "producer")
        assert graph_satisfies(g1, figure1.phi1)
        # fix G2: drop the second located edge
        g2 = figure1.g2.copy()
        g2.remove_edge(0, 2, "located")
        assert graph_satisfies(g2, figure1.phi2)
        # fix G3: drop one parent edge
        g3 = figure1.g3.copy()
        g3.remove_edge(1, 0, "parent")
        assert graph_satisfies(g3, figure1.phi3)

    def test_match_counts(self, figure1):
        assert len(list(find_matches(figure1.g2, figure1.q2))) == 2  # y/z swap

    def test_accessors(self, figure1):
        assert set(figure1.graphs()) == {"G1", "G2", "G3"}
        assert set(figure1.gfds()) == {"phi1", "phi2", "phi3"}


class TestSynthetic:
    def test_sizes(self):
        graph = synthetic_graph(500, 1000, seed=1)
        assert graph.num_nodes == 500
        assert graph.num_edges == 1000

    def test_determinism(self):
        a = synthetic_graph(200, 400, seed=9)
        b = synthetic_graph(200, 400, seed=9)
        assert sorted(a.edges()) == sorted(b.edges())
        assert a.node_attrs(17) == b.node_attrs(17)

    def test_seed_changes_output(self):
        a = synthetic_graph(200, 400, seed=1)
        b = synthetic_graph(200, 400, seed=2)
        assert sorted(a.edges()) != sorted(b.edges())

    def test_label_alphabet(self):
        graph = synthetic_graph(300, 600, num_labels=7, seed=1)
        stats = compute_statistics(graph)
        assert len(stats.node_label_counts) <= 7

    def test_regular_structure_mineable(self):
        graph = synthetic_graph(600, 1200, regularity=0.95, seed=3)
        config = DiscoveryConfig(
            k=2, sigma=15, max_lhs_size=1, active_attributes=["a0", "a1"]
        )
        result = discover(graph, config)
        assert result.gfds  # planted label->attribute rules are found

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            synthetic_graph(1, 0)


class TestKnowledgeBases:
    @pytest.mark.parametrize("factory", [dbpedia_like, yago2_like, imdb_like])
    def test_determinism(self, factory):
        a = factory(scale=0.3, seed=4)
        b = factory(scale=0.3, seed=4)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_density_ordering(self):
        """DBpedia is the densest, per the paper's dataset table."""
        dbp = dbpedia_like(scale=0.5, seed=1)
        yago = yago2_like(scale=0.5, seed=1)
        imdb = imdb_like(scale=0.5, seed=1)
        density = lambda g: g.num_edges / g.num_nodes
        assert density(dbp) > density(yago) > density(imdb)

    def test_scale_grows(self):
        small = yago2_like(scale=0.3, seed=1)
        big = yago2_like(scale=0.6, seed=1)
        assert big.num_nodes > small.num_nodes

    def test_planted_rules_hold(self, figure1):
        graph = yago2_like(scale=0.4, seed=2)
        # φ1: film creators are producers
        assert graph_satisfies(graph, figure1.phi1)
        # φ3: no mutual parents
        assert graph_satisfies(graph, figure1.phi3)
        # φ2: cities located in exactly one place
        assert graph_satisfies(graph, figure1.phi2)

    def test_gold_bear_lion_disjoint(self):
        from repro.gfd import parse_gfd

        graph = yago2_like(scale=0.4, seed=2)
        gfd2 = parse_gfd(
            'Q[x, y, z] { (x:product)-[receive]->(y:award), '
            '(x)-[receive]->(z:award) } '
            '(y.name="Gold Bear" & z.name="Gold Lion" -> false)'
        )
        assert graph_satisfies(graph, gfd2)

    def test_us_norway_disjoint(self):
        from repro.gfd import parse_gfd

        graph = yago2_like(scale=0.4, seed=2)
        gfd3 = parse_gfd(
            'Q[x, y, z] { (x:person)-[citizen]->(y:country), '
            '(x)-[citizen]->(z:country) } '
            '(y.name="US" & z.name="Norway" -> false)'
        )
        assert graph_satisfies(graph, gfd3)

    def test_familyname_inheritance(self):
        from repro.gfd import parse_gfd

        graph = yago2_like(scale=0.4, seed=2)
        gfd1 = parse_gfd(
            "Q[x, y] { (x:person)-[hasChild]->(y:person) } "
            "( -> x.familyname=y.familyname)"
        )
        assert graph_satisfies(graph, gfd1)


class TestScale:
    def test_tier_sizes(self):
        graph = scale_tier_graph("10k", seed=1)
        assert graph.num_nodes == SCALE_TIERS["10k"] == 10_000
        # self-loops and duplicate draws are dropped from the 2n target
        assert 1.5 * graph.num_nodes < graph.num_edges <= 2 * graph.num_nodes

    def test_determinism_including_version(self):
        a = scale_graph(3_000, seed=9)
        b = scale_graph(3_000, seed=9)
        assert a.version == b.version
        assert sorted(a.edges()) == sorted(b.edges())
        assert a.node_attrs(1234) == b.node_attrs(1234)

    def test_seed_changes_output(self):
        a = scale_graph(3_000, seed=1)
        b = scale_graph(3_000, seed=2)
        assert sorted(a.edges()) != sorted(b.edges())

    def test_label_skew_head_heavier(self):
        graph = scale_graph(5_000, label_skew=1.2, seed=3)
        stats = compute_statistics(graph)
        counts = stats.node_label_counts
        assert counts["L0"] > counts[max(counts, key=lambda l: int(l[1:]))]

    def test_zero_skew_is_uniform(self):
        graph = scale_graph(6_000, num_labels=4, label_skew=0.0, seed=5)
        stats = compute_statistics(graph)
        low, high = (
            min(stats.node_label_counts.values()),
            max(stats.node_label_counts.values()),
        )
        assert high - low < 0.2 * 6_000

    def test_planted_rules_mineable(self):
        graph = scale_graph(10_000, seed=1)
        config = DiscoveryConfig(
            k=2, sigma=30, max_lhs_size=1, active_attributes=["a0", "a1"]
        )
        assert discover(graph, config).gfds

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            scale_graph(1)
        with pytest.raises(ValueError):
            scale_graph(100, attrs_per_node=0)
        with pytest.raises(ValueError):
            scale_tier_graph("5k")

    @pytest.mark.slow
    def test_million_node_tier(self):
        graph = scale_tier_graph("1m", seed=1)
        assert graph.num_nodes == 1_000_000
        assert graph.num_edges > 1_500_000
        attrs = graph.node_attrs(0)
        assert set(attrs) == {"a0", "a1"}


class TestGFDGenerator:
    def test_count_and_determinism(self):
        graph = yago2_like(scale=0.3, seed=1)
        sigma_a = generate_gfds(graph, 50, k=3, seed=5)
        sigma_b = generate_gfds(graph, 50, k=3, seed=5)
        assert len(sigma_a) == 50
        assert [str(g) for g in sigma_a] == [str(g) for g in sigma_b]

    def test_k_bound_respected(self):
        graph = yago2_like(scale=0.3, seed=1)
        sigma = generate_gfds(graph, 40, k=3, seed=6)
        assert all(g.pattern.num_nodes <= 3 for g in sigma)

    def test_redundancy_materializes(self):
        from repro.core import sequential_cover

        graph = yago2_like(scale=0.3, seed=1)
        sigma = generate_gfds(graph, 60, k=3, redundancy=0.6, seed=7)
        cover = sequential_cover(sigma)
        assert len(cover.removed) > 0


class TestNoise:
    def test_reports_dirty_nodes(self):
        graph = yago2_like(scale=0.3, seed=1)
        dirty, report = inject_noise(graph, alpha=0.1, beta=0.5, seed=2)
        expected = round(0.1 * graph.num_nodes)
        assert len(report.dirty_nodes) <= expected
        assert report.total_changes > 0

    def test_original_untouched(self):
        graph = yago2_like(scale=0.3, seed=1)
        before = sorted(graph.edges())
        inject_noise(graph, alpha=0.2, beta=0.5, seed=2)
        assert sorted(graph.edges()) == before

    def test_fresh_values(self):
        graph = yago2_like(scale=0.3, seed=1)
        dirty, report = inject_noise(graph, alpha=0.1, beta=1.0, seed=3)
        for node in report.dirty_nodes:
            for attr, value in dirty.node_attrs(node).items():
                if isinstance(value, str) and value.startswith("__noise_"):
                    break
            else:
                # the node may have had only edge labels changed
                labels = {
                    label
                    for _, labels in dirty.out_neighbors(node).items()
                    for label in labels
                }
                if not any(l.startswith("__noise_") for l in labels):
                    pytest.fail(f"node {node} looks clean")

    def test_zero_alpha(self):
        graph = yago2_like(scale=0.3, seed=1)
        dirty, report = inject_noise(graph, alpha=0.0, seed=1)
        assert not report.dirty_nodes

    def test_invalid_fractions(self):
        graph = yago2_like(scale=0.2, seed=1)
        with pytest.raises(ValueError):
            inject_noise(graph, alpha=1.5)

    def test_restricted_attributes(self):
        graph = yago2_like(scale=0.3, seed=1)
        dirty, report = inject_noise(
            graph, alpha=0.2, beta=1.0, attributes=["type"], seed=4
        )
        # no other attribute carries a noise value
        for node in report.dirty_nodes:
            for attr, value in dirty.node_attrs(node).items():
                if attr != "type" and isinstance(value, str):
                    assert not value.startswith("__noise_")


class TestQuality:
    def test_metrics_arithmetic(self):
        metrics = detection_metrics({1, 2, 3}, {2, 3, 4, 5})
        assert metrics.true_positives == 2
        assert metrics.accuracy == pytest.approx(0.5)
        assert metrics.precision == pytest.approx(2 / 3)

    def test_empty_ground_truth(self):
        metrics = detection_metrics({1}, set())
        assert metrics.accuracy == 0.0

    def test_gfd_detection_catches_noise(self, figure1):
        graph = yago2_like(scale=0.4, seed=2)
        config = DiscoveryConfig(
            k=2,
            sigma=20,
            max_lhs_size=1,
            active_attributes=KB_ATTRIBUTES,
        )
        rules = discover(graph, config).gfds
        dirty, report = inject_noise(
            graph, alpha=0.08, beta=0.6, attributes=KB_ATTRIBUTES, seed=5
        )
        metrics = gfd_detection(dirty, rules, report.dirty_nodes)
        assert metrics.accuracy > 0.2

    def test_violation_nodes(self, figure1):
        violations = detect_gfd_violations(figure1.g1, [figure1.phi1])
        assert nodes_in_violations(violations) == {0, 1}

    def test_amie_detection_runs(self):
        from repro.baselines import AmieMiner, mine_amie

        graph = yago2_like(scale=0.3, seed=2)
        rules = mine_amie(graph, min_support=10).rules
        dirty, report = inject_noise(graph, alpha=0.1, beta=0.6, seed=6)
        miner = AmieMiner(dirty, min_support=10)
        metrics = amie_detection(dirty, rules, report.dirty_nodes, miner)
        assert 0.0 <= metrics.accuracy <= 1.0
