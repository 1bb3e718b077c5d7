"""Tests for the AMIE, GCFD, ParArab baselines and the ablation variants."""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations

import pytest

from repro.baselines import (
    AmieMiner,
    discover_gcfd,
    discover_gcfd_parallel,
    is_path_pattern,
    mine_amie,
    run_pararab,
    run_pargfd_n,
)
from repro.core import DiscoveryConfig, discover, gfd_identity
from repro.gfd import GFD
from repro.gfd.closure import is_trivial_dependency
from repro.graph import Graph, GraphBuilder
from repro.oracle import reference_discover
from repro.pattern import Pattern


def horn_kb() -> Graph:
    """A KB where works_at(x,y) follows from leads(x,z) ∧ part_of(z,y)."""
    graph = Graph()
    people = [graph.add_node("person") for _ in range(12)]
    teams = [graph.add_node("team") for _ in range(4)]
    orgs = [graph.add_node("org") for _ in range(2)]
    for index, team in enumerate(teams):
        graph.add_edge(team, orgs[index % 2], "part_of")
    for index, person in enumerate(people):
        team = teams[index % 4]
        graph.add_edge(person, team, "leads")
        graph.add_edge(person, orgs[index % 4 % 2], "works_at")
    return graph


class TestAmie:
    def test_path_rule_found_with_full_confidence(self):
        result = mine_amie(horn_kb(), min_support=4)
        texts = {str(rule) for rule in result.rules}
        matching = [
            rule
            for rule in result.rules
            if rule.head.relation == "works_at" and len(rule.body) == 2
        ]
        assert matching, f"expected a 2-atom works_at rule, got {texts}"
        best = max(matching, key=lambda rule: rule.pca_confidence)
        assert best.pca_confidence == pytest.approx(1.0)
        assert best.support == 12

    def test_thresholds_filter(self):
        all_rules = mine_amie(horn_kb(), min_support=1, min_pca_confidence=0.0)
        strict = mine_amie(horn_kb(), min_support=1, min_pca_confidence=0.9)
        assert len(strict.rules) <= len(all_rules.rules)

    def test_inverse_rule(self):
        graph = Graph()
        for _ in range(6):
            a, b = graph.add_node("p"), graph.add_node("p")
            graph.add_edge(a, b, "parent")
            graph.add_edge(b, a, "child_of")
        result = mine_amie(graph, min_support=4)
        inverse = [
            rule
            for rule in result.rules
            if rule.head.relation == "child_of"
            and len(rule.body) == 1
            and rule.body[0].relation == "parent"
        ]
        assert inverse and inverse[0].pca_confidence == pytest.approx(1.0)

    def test_predicted_missing(self):
        graph = Graph()
        pairs = []
        for index in range(6):
            a, b = graph.add_node("p"), graph.add_node("p")
            graph.add_edge(a, b, "parent")
            if index != 0:
                graph.add_edge(b, a, "child_of")
            else:
                # keep b PCA-countable: it has *some* child_of fact, just
                # not the predicted one
                extra = graph.add_node("p")
                graph.add_edge(b, extra, "child_of")
            pairs.append((a, b))
        miner = AmieMiner(graph, min_support=3)
        result = miner.mine()
        rule = next(
            r
            for r in result.rules
            if r.head.relation == "child_of" and len(r.body) == 1
            and r.body[0].relation == "parent"
        )
        missing = miner.predicted_missing(rule)
        assert (pairs[0][1], pairs[0][0]) in missing

    def test_parallel_amie_matches_sequential(self):
        # ParAMIE is mine_amie: head relations are independent units, so a
        # split of the heads over fresh miners (one per worker) mines the
        # same rules.
        graph = horn_kb()
        sequential = mine_amie(graph, min_support=4)
        heads = sorted(AmieMiner(graph, min_support=4).relations)
        rules = [
            rule
            for share in (heads[0::3], heads[1::3], heads[2::3])
            for head in reversed(share)
            for rule in AmieMiner(graph, min_support=4).mine_head(head)
        ]
        rules.sort(key=lambda rule: (-rule.support, str(rule)))
        assert sequential.rules
        assert [str(r) for r in rules] == [str(r) for r in sequential.rules]

    def test_average_support(self):
        result = mine_amie(horn_kb(), min_support=4)
        assert result.average_support() > 0


class TestGCFD:
    def test_is_path_pattern(self):
        assert is_path_pattern(Pattern(["a"]))
        assert is_path_pattern(Pattern(["a", "b"], [(0, 1, "e")]))
        chain3 = Pattern(["a", "b", "c"], [(0, 1, "e"), (1, 2, "f")])
        assert is_path_pattern(chain3)
        star = Pattern(["a", "b", "c"], [(0, 1, "e"), (0, 2, "f")])
        assert not is_path_pattern(star)
        cycle = Pattern(["a", "b"], [(0, 1, "e"), (1, 0, "f")])
        assert not is_path_pattern(cycle)

    def test_gcfds_are_path_gfd_subset(self, film_graph, film_config):
        gfds = discover(film_graph, film_config)
        gcfds = discover_gcfd(film_graph, film_config)
        gfd_ids = {gfd_identity(g) for g in gfds.gfds}
        for rule in gcfds.gfds:
            assert is_path_pattern(rule.pattern)
            assert rule.is_positive  # CFDs have no negative form
            assert gfd_identity(rule) in gfd_ids

    def test_fewer_rules_than_gfds(self, yago_small, yago_config):
        gfds = discover(yago_small, yago_config)
        gcfds = discover_gcfd(yago_small, yago_config)
        assert len(gcfds.gfds) <= len(gfds.gfds)

    def test_parallel_gcfd_parity(
        self, film_graph, film_config, yago_small, yago_config
    ):
        # yago (k=3) is where the restriction bites: at k=2 every pattern
        # is a path, so film alone cannot tell a lost filter from a kept one
        for graph, config in ((film_graph, film_config), (yago_small, yago_config)):
            sequential = discover_gcfd(graph, config)
            parallel = discover_gcfd_parallel(graph, config, num_workers=3)
            assert {gfd_identity(g) for g in sequential.gfds} == {
                gfd_identity(g) for g in parallel.gfds
            }
            assert all(is_path_pattern(g.pattern) for g in parallel.gfds)


def brute_force_pararab(graph, config):
    """The split protocol's phase 2 spelled out on the oracle: every
    frequent pattern of the dict-adjacency ``SeqDis`` tree, its reference
    table, and the full LHS lattice per RHS checked with bool masks.
    Returns ``(Σ as gfd_identity set, patterns, candidates)``."""
    tree = reference_discover(graph, config).tree
    tables = [
        node.table
        for node in tree.all_nodes()
        if node.support >= config.sigma
        and node.table is not None
        and not node.table.truncated
    ]
    found, candidates = set(), 0
    for table in tables:
        literals = table.candidate_constant_literals(config.max_constants)
        if config.variable_literals and table.pattern.num_nodes > 1:
            literals += table.candidate_variable_literals(
                config.variable_literals_same_attr_only
            )
        for rhs in literals:
            others = [literal for literal in literals if literal != rhs]
            for size in range(config.max_lhs_size + 1):
                for subset in combinations(others, size):
                    candidates += 1
                    lhs = frozenset(subset)
                    if is_trivial_dependency(lhs, rhs):
                        continue
                    rows = table.full_mask()
                    for literal in lhs:
                        rows = rows & table.literal_mask(literal)
                    both = rows & table.literal_mask(rhs)
                    count = table.mask_count(rows)
                    if (
                        count
                        and table.mask_count(both) == count
                        and table.mask_support(both) >= config.sigma
                    ):
                        found.add(gfd_identity(GFD(table.pattern, lhs, rhs)))
    return found, len(tables), candidates


class TestParArab:
    @pytest.mark.parametrize("dataset", ["film", "yago"])
    def test_output_equals_brute_force_lattice(
        self, dataset, film_graph, film_config, yago_small, yago_config
    ):
        """ParArab's Σ, pattern count and candidate count are the oracle's
        brute-force lattice over the same frequent patterns (yago at
        ``k = 2``, one LHS literal: the full lattice grows fast)."""
        if dataset == "film":
            graph, config = film_graph, film_config
        else:
            graph, config = yago_small, replace(yago_config, k=2, max_lhs_size=1)
        result = run_pararab(graph, config, candidate_budget=None)
        assert result.completed
        found, patterns, candidates = brute_force_pararab(graph, config)
        assert found and len(result.gfds) == len(found)
        assert {gfd_identity(g) for g in result.gfds} == found
        assert result.patterns_mined == patterns
        assert result.candidates_generated == candidates

    def test_completes_on_small_graph(self, film_graph, film_config):
        result = run_pararab(film_graph, film_config, candidate_budget=None)
        assert result.completed
        assert result.patterns_mined > 0
        integrated = discover(film_graph, film_config)
        # the split protocol explores at least as many candidates as the
        # integrated algorithm prunes down to
        assert result.candidates_generated >= integrated.stats.candidates_checked

    def test_budget_blowup(self, yago_small, yago_config):
        result = run_pararab(yago_small, yago_config, candidate_budget=500)
        assert not result.completed
        assert result.candidates_generated > 500


class TestVariants:
    def test_pargfd_n_budget(self, yago_small, yago_config):
        run = run_pargfd_n(
            yago_small, yago_config, num_workers=2, candidate_budget=200
        )
        assert not run.completed
        assert run.candidates_checked > 200

    def test_pargfd_n_completes_with_big_budget(self, film_graph, film_config):
        run = run_pargfd_n(
            film_graph, film_config, num_workers=2, candidate_budget=None
        )
        assert run.completed
        # without pruning at least as many candidates are checked
        pruned = discover(film_graph, film_config)
        assert run.candidates_checked >= pruned.stats.candidates_checked
