"""Tests for literals, GFDs, satisfaction, closure, implication, satisfiability."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gfd import (
    FALSE,
    GFD,
    ConstantLiteral,
    FalseLiteral,
    LiteralClosure,
    VariableLiteral,
    build_model,
    chase,
    embedded_rules,
    enforced,
    find_violations,
    format_literal_set,
    graph_satisfies,
    implies,
    is_satisfiable,
    is_trivial,
    literal_variables,
    make_variable_literal,
    rename_literal,
    satisfiable_patterns,
    satisfies_gfd,
    satisfies_literal,
    validate_set,
)
from repro.gfd.closure import (
    entailed_literals, is_trivial_dependency, lhs_unsatisfiable,
)
from repro.gfd.implication import ImplicationChecker
from repro.graph import Graph, GraphBuilder
from repro.pattern import WILDCARD, Pattern


#: Literals over two variables, two attributes and two values: small enough
#: that random sets often conflict or entail.
_small_literals = st.one_of(
    st.builds(
        ConstantLiteral,
        st.integers(0, 1), st.sampled_from("ab"), st.integers(1, 2),
    ),
    st.builds(
        make_variable_literal,
        st.integers(0, 1), st.sampled_from("ab"),
        st.integers(0, 1), st.sampled_from("ab"),
    ),
)


def person_product_graph(product_type="film", person_type="producer"):
    builder = GraphBuilder()
    builder.node("p", "person", type=person_type)
    builder.node("f", "product", type=product_type)
    builder.edge("p", "f", "create")
    return builder.build()[0]


Q_CREATE = Pattern(["person", "product"], [(0, 1, "create")], pivot=0)
PHI1 = GFD(
    Q_CREATE,
    frozenset({ConstantLiteral(1, "type", "film")}),
    ConstantLiteral(0, "type", "producer"),
)


class TestLiterals:
    def test_variable_literal_normalized(self):
        l1 = make_variable_literal(1, "name", 0, "name")
        l2 = make_variable_literal(0, "name", 1, "name")
        assert l1 == l2
        assert (l1.var1, l1.var2) == (0, 1)

    def test_post_init_normalization(self):
        literal = VariableLiteral(2, "a", 0, "b")
        assert (literal.var1, literal.attr1) == (0, "b")
        assert (literal.var2, literal.attr2) == (2, "a")

    def test_rename_constant(self):
        literal = ConstantLiteral(0, "type", "film")
        assert rename_literal(literal, {0: 3}) == ConstantLiteral(3, "type", "film")

    def test_rename_variable_renormalizes(self):
        literal = make_variable_literal(0, "a", 1, "a")
        renamed = rename_literal(literal, {0: 5, 1: 2})
        assert (renamed.var1, renamed.var2) == (2, 5)

    def test_rename_false(self):
        assert rename_literal(FALSE, {0: 1}) is FALSE

    def test_literal_variables(self):
        assert literal_variables(ConstantLiteral(2, "a", 1)) == (2,)
        assert literal_variables(make_variable_literal(0, "a", 1, "b")) == (0, 1)
        assert literal_variables(FALSE) == ()

    def test_format_literal_set(self):
        assert format_literal_set(frozenset()) == "∅"
        text = format_literal_set(frozenset({ConstantLiteral(0, "a", 1)}))
        assert "x.a" in text


class TestGFDClass:
    def test_positive_negative(self):
        assert PHI1.is_positive
        negative = GFD(Q_CREATE, frozenset(), FALSE)
        assert negative.is_negative

    def test_out_of_scope_literal_rejected(self):
        with pytest.raises(ValueError):
            GFD(Q_CREATE, frozenset({ConstantLiteral(5, "a", 1)}), FALSE)

    def test_false_in_lhs_rejected(self):
        with pytest.raises(ValueError):
            GFD(Q_CREATE, frozenset({FALSE}), ConstantLiteral(0, "a", 1))

    def test_attributes(self):
        assert PHI1.attributes() == {"type"}

    def test_size(self):
        assert PHI1.size == 1

    def test_trivial_by_conflicting_lhs(self):
        gfd = GFD(
            Q_CREATE,
            frozenset(
                {ConstantLiteral(0, "a", 1), ConstantLiteral(0, "a", 2)}
            ),
            ConstantLiteral(1, "b", 1),
        )
        assert is_trivial(gfd)

    def test_trivial_by_derived_rhs(self):
        gfd = GFD(
            Q_CREATE,
            frozenset(
                {
                    make_variable_literal(0, "a", 1, "b"),
                    ConstantLiteral(0, "a", 7),
                }
            ),
            ConstantLiteral(1, "b", 7),
        )
        assert is_trivial(gfd)

    def test_nontrivial(self):
        assert not is_trivial(PHI1)

    def test_negative_nontrivial_when_lhs_satisfiable(self):
        negative = GFD(
            Q_CREATE, frozenset({ConstantLiteral(0, "a", 1)}), FALSE
        )
        assert not is_trivial(negative)

    @given(
        st.frozensets(_small_literals, max_size=4),
        st.one_of(_small_literals, st.just(FALSE)),
    )
    @settings(max_examples=300, deadline=None)
    def test_closure_free_path_is_the_definition(self, lhs, rhs):
        """The test without a closure equals Section 4.1 read off the
        closure: ``X`` conflicting, or ``l ≠ false`` entailed — and so does
        ``entailed_literals``' one list for all RHS of ``X`` (a reflexive
        ``l`` is trivial on its own)."""
        closure = LiteralClosure()
        for literal in lhs:
            closure.add(literal)
        definition = closure.conflicting or (
            rhs != FALSE and closure.entails(rhs)
        )
        assert is_trivial_dependency(lhs, rhs) == definition
        assert lhs_unsatisfiable(lhs) == closure.conflicting
        entailed = entailed_literals(lhs)
        assert (entailed is None) == closure.conflicting
        reflexive = isinstance(rhs, VariableLiteral) and (
            (rhs.var1, rhs.attr1) == (rhs.var2, rhs.attr2)
        )
        if rhs != FALSE and not reflexive:
            assert (entailed is None or rhs in entailed) == definition


class TestSatisfaction:
    def test_satisfies_literal(self):
        graph = person_product_graph()
        assert satisfies_literal(
            graph, (0, 1), ConstantLiteral(0, "type", "producer")
        )
        assert not satisfies_literal(
            graph, (0, 1), ConstantLiteral(0, "type", "actor")
        )

    def test_missing_attribute_fails_literal(self):
        graph = person_product_graph()
        assert not satisfies_literal(
            graph, (0, 1), ConstantLiteral(0, "missing", "x")
        )
        assert not satisfies_literal(
            graph, (0, 1), make_variable_literal(0, "missing", 1, "type")
        )

    def test_false_never_satisfied(self):
        graph = person_product_graph()
        assert not satisfies_literal(graph, (0, 1), FALSE)

    def test_missing_lhs_attribute_satisfies_gfd(self):
        """Schemaless semantics: absent LHS attribute ⇒ implication holds."""
        graph = person_product_graph()
        gfd = GFD(
            Q_CREATE,
            frozenset({ConstantLiteral(1, "nonexistent", "x")}),
            ConstantLiteral(0, "type", "actor"),
        )
        assert satisfies_gfd(graph, (0, 1), gfd)

    def test_rhs_requires_attribute(self):
        graph = person_product_graph()
        gfd = GFD(Q_CREATE, frozenset(), ConstantLiteral(0, "missing", "x"))
        assert not satisfies_gfd(graph, (0, 1), gfd)

    def test_graph_satisfies(self):
        good = person_product_graph()
        assert graph_satisfies(good, PHI1)
        bad = person_product_graph(person_type="high jumper")
        assert not graph_satisfies(bad, PHI1)

    def test_find_violations(self):
        bad = person_product_graph(person_type="high jumper")
        violations = find_violations(bad, PHI1)
        assert len(violations) == 1
        assert violations[0].match == (0, 1)
        assert violations[0].nodes() == (0, 1)

    def test_validate_set(self):
        good = person_product_graph()
        negative = GFD(
            Pattern(["person", "person"], [(0, 1, "parent"), (1, 0, "parent")]),
            frozenset(),
            FALSE,
        )
        assert validate_set(good, [PHI1, negative])

    def test_negative_violated_by_match(self):
        graph = Graph()
        a, b = graph.add_node("person"), graph.add_node("person")
        graph.add_edge(a, b, "parent")
        graph.add_edge(b, a, "parent")
        negative = GFD(
            Pattern(["person", "person"], [(0, 1, "parent"), (1, 0, "parent")]),
            frozenset(),
            FALSE,
        )
        assert not graph_satisfies(graph, negative)


class TestClosure:
    def test_constant_then_equality(self):
        closure = LiteralClosure()
        closure.add(ConstantLiteral(0, "a", 5))
        closure.add(make_variable_literal(0, "a", 1, "b"))
        assert closure.entails(ConstantLiteral(1, "b", 5))
        assert not closure.conflicting

    def test_conflict_detection(self):
        closure = LiteralClosure()
        closure.add(ConstantLiteral(0, "a", 5))
        closure.add(ConstantLiteral(0, "a", 6))
        assert closure.conflicting
        # ex falso: everything entailed
        assert closure.entails(ConstantLiteral(3, "z", 0))

    def test_conflict_through_equality(self):
        closure = LiteralClosure()
        closure.add(ConstantLiteral(0, "a", 1))
        closure.add(ConstantLiteral(1, "b", 2))
        closure.add(make_variable_literal(0, "a", 1, "b"))
        assert closure.conflicting

    def test_transitivity(self):
        closure = LiteralClosure()
        closure.add(make_variable_literal(0, "a", 1, "a"))
        closure.add(make_variable_literal(1, "a", 2, "a"))
        assert closure.entails(make_variable_literal(0, "a", 2, "a"))

    def test_equal_constants_entail_variable_literal(self):
        closure = LiteralClosure()
        closure.add(ConstantLiteral(0, "a", 7))
        closure.add(ConstantLiteral(1, "a", 7))
        assert closure.entails(make_variable_literal(0, "a", 1, "a"))

    def test_false_latches(self):
        closure = LiteralClosure()
        closure.add(FALSE)
        assert closure.conflicting

    def test_copy_independent(self):
        closure = LiteralClosure()
        closure.add(ConstantLiteral(0, "a", 1))
        clone = closure.copy()
        clone.add(ConstantLiteral(0, "a", 2))
        assert clone.conflicting
        assert not closure.conflicting

    def test_chase_applies_embedded_rule(self):
        # rule at a sub-pattern forces a literal at the host pattern
        host = Pattern(["person", "product"], [(0, 1, "create")])
        rule = GFD(
            Pattern(["product"]), frozenset(), ConstantLiteral(0, "kind", "thing")
        )
        closure = chase(host, [rule], [])
        assert closure.entails(ConstantLiteral(1, "kind", "thing"))

    def test_enforced_conflict(self):
        host = Pattern(["a"])
        rules = [
            GFD(Pattern(["a"]), frozenset(), ConstantLiteral(0, "v", 1)),
            GFD(Pattern(["a"]), frozenset(), ConstantLiteral(0, "v", 2)),
        ]
        assert enforced(host, rules).conflicting

    def test_embedded_rules_renames(self):
        host = Pattern(["x", "product"], [(0, 1, "made")])
        rule = GFD(
            Pattern(["product"]), frozenset(), ConstantLiteral(0, "kind", "k")
        )
        rules = embedded_rules([rule], host)
        assert (frozenset(), ConstantLiteral(1, "kind", "k")) in rules


class TestImplication:
    def test_self_implication(self):
        assert implies([PHI1], PHI1)

    def test_weaker_lhs_implies_stronger(self):
        stronger = GFD(
            Q_CREATE,
            frozenset(
                {
                    ConstantLiteral(1, "type", "film"),
                    ConstantLiteral(1, "year", 1999),
                }
            ),
            ConstantLiteral(0, "type", "producer"),
        )
        assert implies([PHI1], stronger)
        assert not implies([stronger], PHI1)

    def test_transitive_rules(self):
        a_to_b = GFD(
            Q_CREATE,
            frozenset({ConstantLiteral(0, "a", 1)}),
            ConstantLiteral(0, "b", 2),
        )
        b_to_c = GFD(
            Q_CREATE,
            frozenset({ConstantLiteral(0, "b", 2)}),
            ConstantLiteral(0, "c", 3),
        )
        a_to_c = GFD(
            Q_CREATE,
            frozenset({ConstantLiteral(0, "a", 1)}),
            ConstantLiteral(0, "c", 3),
        )
        assert implies([a_to_b, b_to_c], a_to_c)
        assert not implies([a_to_b], a_to_c)

    def test_sub_pattern_rule_implies_super_pattern(self):
        bigger = Pattern(
            ["person", "product", "award"],
            [(0, 1, "create"), (1, 2, "receive")],
        )
        wider = GFD(bigger, PHI1.lhs, PHI1.rhs)
        assert implies([PHI1], wider)
        assert not implies([wider], PHI1)

    def test_negative_implication(self):
        negative = GFD(
            Q_CREATE, frozenset({ConstantLiteral(0, "a", 1)}), FALSE
        )
        stronger_negative = GFD(
            Q_CREATE,
            frozenset(
                {ConstantLiteral(0, "a", 1), ConstantLiteral(1, "b", 2)}
            ),
            FALSE,
        )
        assert implies([negative], stronger_negative)
        assert not implies([stronger_negative], negative)

    def test_implication_checker_leave_one_out(self):
        duplicate = GFD(PHI1.pattern, PHI1.lhs, PHI1.rhs)
        checker = ImplicationChecker([PHI1, duplicate])
        assert checker.implied_by_rest(0)
        assert checker.implied_by_rest(1)
        checker_single = ImplicationChecker([PHI1])
        assert not checker_single.implied_by_rest(0)


class TestSatisfiability:
    def test_single_gfd_satisfiable(self):
        assert is_satisfiable([PHI1])

    def test_empty_set_unsatisfiable(self):
        assert not is_satisfiable([])

    def test_conflicting_set(self):
        p = Pattern(["a"])
        rules = [
            GFD(p, frozenset(), ConstantLiteral(0, "v", 1)),
            GFD(p, frozenset(), ConstantLiteral(0, "v", 2)),
        ]
        assert not is_satisfiable(rules)
        assert satisfiable_patterns(rules) == []

    def test_mixed_set(self):
        p = Pattern(["a"])
        q = Pattern(["b"])
        rules = [
            GFD(p, frozenset(), ConstantLiteral(0, "v", 1)),
            GFD(p, frozenset(), ConstantLiteral(0, "v", 2)),
            GFD(q, frozenset(), ConstantLiteral(0, "v", 3)),
        ]
        assert is_satisfiable(rules)
        assert satisfiable_patterns(rules) == [2]

    def test_build_model_satisfies(self):
        model = build_model([PHI1])
        assert model is not None
        assert graph_satisfies(model, PHI1)

    def test_build_model_variable_literal(self):
        p = Pattern(["a", "b"], [(0, 1, "e")])
        rule = GFD(p, frozenset(), make_variable_literal(0, "v", 1, "v"))
        model = build_model([rule])
        assert model is not None
        assert graph_satisfies(model, rule)
        assert model.get_attr(0, "v") == model.get_attr(1, "v")

    def test_build_model_none_when_unsatisfiable(self):
        p = Pattern(["a"])
        rules = [
            GFD(p, frozenset(), ConstantLiteral(0, "v", 1)),
            GFD(p, frozenset(), ConstantLiteral(0, "v", 2)),
        ]
        assert build_model(rules) is None

    def test_build_model_wildcard_instantiation(self):
        p = Pattern([WILDCARD, "b"], [(0, 1, "e")])
        rule = GFD(p, frozenset(), ConstantLiteral(1, "v", 1))
        model = build_model([rule])
        assert model is not None
        assert model.node_label(0) != WILDCARD
