"""Mini-AMIE: Horn-rule mining with PCA confidence (the paper's ParAMIE).

The paper compares GFD discovery against AMIE [8, 22], which mines *closed
Horn rules* over a knowledge base's binary relations, e.g.::

    create(x, y) ∧ receive(y, z)  ⇒  award_of(x, z)

with quality measured under the *partial completeness assumption* (PCA):

* ``support(rule)``        — number of distinct ``(x, y)`` groundings of the
  head witnessed together with the body;
* ``head coverage``        — support / size of the head relation;
* ``PCA confidence``       — support / number of body groundings whose ``x``
  has *some* head-relation edge (absent facts about a subject that has no
  facts at all are not counted as counterexamples — the open-world reading).

This reimplementation covers the rule shapes the comparison needs (rules of
≤ 3 atoms over edge labels, closed, no constants — the paper stresses that
AMIE "supports neither pattern matching via subgraph isomorphism nor
constant-value binding, ... cannot express negative rules and rules with
wildcard").  ``ParAMIE`` is :func:`mine_amie`: its head relations are
independent units, so the rules do not depend on how they are split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..graph.graph import Graph
from ..graph.index import sort_unique

__all__ = ["Atom", "AmieRule", "AmieMiner", "AmieResult", "mine_amie"]


@dataclass(frozen=True)
class Atom:
    """A relational atom ``relation(subject_var, object_var)``.

    Variables are small integers; 0 and 1 are the head variables ``x, y``.
    """

    relation: str
    subject: int
    object: int

    def __str__(self) -> str:
        names = "xyzuvw"
        return f"{self.relation}({names[self.subject]},{names[self.object]})"


@dataclass(frozen=True)
class AmieRule:
    """A closed Horn rule ``body ⇒ head`` with its quality measures."""

    head: Atom
    body: Tuple[Atom, ...]
    support: int = 0
    head_coverage: float = 0.0
    pca_confidence: float = 0.0

    def __str__(self) -> str:
        body = " ∧ ".join(str(atom) for atom in self.body)
        return (
            f"{body} ⇒ {self.head}"
            f"  [supp={self.support}, hc={self.head_coverage:.2f},"
            f" pca={self.pca_confidence:.2f}]"
        )


@dataclass
class AmieResult:
    """Outcome of a mining run."""

    rules: List[AmieRule] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def average_support(self) -> float:
        """Mean rule support (Figure 6's per-system statistic)."""
        if not self.rules:
            return 0.0
        return sum(rule.support for rule in self.rules) / len(self.rules)


class _RelationIndex:
    """Forward/backward indexes of one edge relation.

    After construction, :meth:`finalize` freezes the relation into sorted
    numpy join structures: path-body groundings then become ragged
    ``searchsorted`` joins and membership tests become binary searches over
    integer pair keys ``subject·N + object`` — the same flat-layout idiom as
    :class:`~repro.graph.index.GraphIndex`.
    """

    __slots__ = (
        "pairs",
        "by_subject",
        "by_object",
        "subjects",
        "subj_sorted",
        "obj_of_subj",
        "obj_sorted",
        "subj_of_obj",
        "pair_keys",
        "subjects_sorted",
    )

    def __init__(self) -> None:
        self.pairs: Set[Tuple[int, int]] = set()
        self.by_subject: Dict[int, List[int]] = {}
        self.by_object: Dict[int, List[int]] = {}
        self.subjects: Set[int] = set()

    def add(self, subject: int, obj: int) -> None:
        if (subject, obj) in self.pairs:
            return
        self.pairs.add((subject, obj))
        self.by_subject.setdefault(subject, []).append(obj)
        self.by_object.setdefault(obj, []).append(subject)
        self.subjects.add(subject)

    def finalize(self, num_nodes: int) -> None:
        subjects = np.fromiter(
            (s for s, _ in self.pairs), dtype=np.int64, count=len(self.pairs)
        )
        objects = np.fromiter(
            (o for _, o in self.pairs), dtype=np.int64, count=len(self.pairs)
        )
        by_subject = np.argsort(subjects, kind="stable")
        self.subj_sorted = subjects[by_subject]
        self.obj_of_subj = objects[by_subject]
        by_object = np.argsort(objects, kind="stable")
        self.obj_sorted = objects[by_object]
        self.subj_of_obj = subjects[by_object]
        self.pair_keys = np.sort(subjects * num_nodes + objects)
        self.subjects_sorted = np.unique(subjects)


class AmieMiner:
    """Mine closed Horn rules of 2 or 3 atoms from a graph's edge relations.

    Args:
        graph: the knowledge graph (edge labels are the relations).
        min_head_coverage: head-coverage threshold (AMIE default 0.01).
        min_pca_confidence: PCA confidence threshold (the paper uses 0.5,
            and discusses the confidence-1.0 subset).
        min_support: absolute support threshold.
    """

    def __init__(
        self,
        graph: Graph,
        min_head_coverage: float = 0.01,
        min_pca_confidence: float = 0.5,
        min_support: int = 2,
    ) -> None:
        self.graph = graph
        self.min_head_coverage = min_head_coverage
        self.min_pca_confidence = min_pca_confidence
        self.min_support = min_support
        self.num_nodes = graph.num_nodes
        self.relations = self._index_relations(graph)
        # body groundings are head-independent: cache the (rel1, dir1,
        # rel2, dir2) joins so the sweep over head relations reuses them
        self._path_cache: Dict[Tuple[str, bool, str, bool], np.ndarray] = {}

    def _index_relations(self, graph: Graph) -> Dict[str, _RelationIndex]:
        relations: Dict[str, _RelationIndex] = {}
        for src, dst, label in graph.edges():
            relations.setdefault(label, _RelationIndex()).add(src, dst)
        for relation in relations.values():
            relation.finalize(self.num_nodes)
        return relations

    # ------------------------------------------------------------------
    def mine(self) -> AmieResult:
        """Mine rules for every head relation."""
        started = time.perf_counter()
        rules: List[AmieRule] = []
        for head in sorted(self.relations):
            rules.extend(self.mine_head(head))
        rules.sort(key=lambda rule: (-rule.support, str(rule)))
        return AmieResult(rules=rules, elapsed_seconds=time.perf_counter() - started)

    def mine_head(self, head_relation: str) -> List[AmieRule]:
        """Mine all rules predicting ``head_relation``."""
        rules: List[AmieRule] = []
        head = Atom(head_relation, 0, 1)
        for rule in self._two_atom_rules(head):
            rules.append(rule)
        for rule in self._three_atom_rules(head):
            rules.append(rule)
        return rules

    # ------------------------------------------------------------------
    @staticmethod
    def _sorted_membership(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Boolean membership of ``keys`` in a sorted key array."""
        if sorted_keys.size == 0 or keys.size == 0:
            return np.zeros(keys.size, dtype=bool)
        position = np.searchsorted(sorted_keys, keys)
        position[position == sorted_keys.size] = sorted_keys.size - 1
        return sorted_keys[position] == keys

    def _body_groundings_2(self, atom: Atom) -> np.ndarray:
        """Distinct grounding keys ``x·N + y`` of a single body atom."""
        index = self.relations[atom.relation]
        if (atom.subject, atom.object) == (0, 1):
            return index.pair_keys
        return np.unique(
            index.obj_of_subj * self.num_nodes + index.subj_sorted
        )

    def _two_atom_rules(self, head: Atom):
        head_index = self.relations[head.relation]
        head_size = len(head_index.pairs)
        for relation in sorted(self.relations):
            for subject, obj in ((0, 1), (1, 0)):
                body_atom = Atom(relation, subject, obj)
                if body_atom == head:
                    continue
                groundings = self._body_groundings_2(body_atom)
                rule = self._score(head, (body_atom,), groundings, head_size)
                if rule is not None:
                    yield rule

    def _three_atom_rules(self, head: Atom):
        """Path-shaped bodies ``r1(x~z) ∧ r2(z~y)`` in all four orientations."""
        head_index = self.relations[head.relation]
        head_size = len(head_index.pairs)
        names = sorted(self.relations)
        for rel1 in names:
            for dir1 in (True, False):  # True: r1(x, z); False: r1(z, x)
                for rel2 in names:
                    for dir2 in (True, False):  # True: r2(z, y); False: r2(y, z)
                        atom1 = Atom(rel1, 0, 2) if dir1 else Atom(rel1, 2, 0)
                        atom2 = Atom(rel2, 2, 1) if dir2 else Atom(rel2, 1, 2)
                        body = (atom1, atom2)
                        groundings = self._path_groundings(rel1, dir1, rel2, dir2)
                        rule = self._score(head, body, groundings, head_size)
                        if rule is not None:
                            yield rule

    def _path_groundings(
        self, rel1: str, dir1: bool, rel2: str, dir2: bool
    ) -> np.ndarray:
        """Distinct ``x·N + y`` keys connected through some z by the body.

        A ragged sorted-merge join: atom1's ``(x, z)`` pairs probe atom2's
        join column (sorted by z) with two ``searchsorted`` calls, the
        matching runs expand by ``np.repeat``, and a sort-dedup finishes.
        Cached per orientation — the join does not depend on the head.
        """
        cache_key = (rel1, dir1, rel2, dir2)
        cached = self._path_cache.get(cache_key)
        if cached is not None:
            return cached
        result = self._path_groundings_uncached(rel1, dir1, rel2, dir2)
        self._path_cache[cache_key] = result
        return result

    def _path_groundings_uncached(
        self, rel1: str, dir1: bool, rel2: str, dir2: bool
    ) -> np.ndarray:
        index1, index2 = self.relations[rel1], self.relations[rel2]
        if dir1:  # r1(x, z): x = subject, z = object
            x_arr, z_arr = index1.subj_sorted, index1.obj_of_subj
        else:  # r1(z, x)
            x_arr, z_arr = index1.obj_sorted, index1.subj_of_obj
        if dir2:  # r2(z, y): join on subject, values are objects
            join_col, values = index2.subj_sorted, index2.obj_of_subj
        else:  # r2(y, z): join on object, values are subjects
            join_col, values = index2.obj_sorted, index2.subj_of_obj
        if x_arr.size == 0 or join_col.size == 0:
            return np.empty(0, dtype=np.int64)
        lo = np.searchsorted(join_col, z_arr, side="left")
        hi = np.searchsorted(join_col, z_arr, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        x_rep = np.repeat(x_arr, counts)
        exclusive = np.cumsum(counts) - counts
        position = (
            np.arange(total, dtype=np.int64)
            - np.repeat(exclusive, counts)
            + np.repeat(lo, counts)
        )
        y_flat = values[position]
        keep = x_rep != y_flat
        if not keep.any():
            return np.empty(0, dtype=np.int64)
        return sort_unique(x_rep[keep] * self.num_nodes + y_flat[keep])

    def _score(
        self,
        head: Atom,
        body: Tuple[Atom, ...],
        groundings: np.ndarray,
        head_size: int,
    ) -> Optional[AmieRule]:
        if groundings.size == 0 or head_size == 0:
            return None
        head_index = self.relations[head.relation]
        support = int(
            np.count_nonzero(
                self._sorted_membership(head_index.pair_keys, groundings)
            )
        )
        if support < self.min_support:
            return None
        head_coverage = support / head_size
        if head_coverage < self.min_head_coverage:
            return None
        # PCA denominator: body groundings whose x has *some* head edge
        denominator = int(
            np.count_nonzero(
                self._sorted_membership(
                    head_index.subjects_sorted, groundings // self.num_nodes
                )
            )
        )
        if denominator == 0:
            return None
        pca = support / denominator
        if pca < self.min_pca_confidence:
            return None
        return AmieRule(
            head=head,
            body=body,
            support=support,
            head_coverage=head_coverage,
            pca_confidence=pca,
        )

    # ------------------------------------------------------------------
    def predicted_missing(self, rule: AmieRule) -> Set[Tuple[int, int]]:
        """Body groundings lacking the head fact (AMIE's error predictions).

        Under PCA, only subjects that do have some head-relation fact count:
        these are the pairs AMIE flags as erroneous/missing in Exp-5.
        """
        if len(rule.body) == 1:
            groundings = self._body_groundings_2(rule.body[0])
        else:
            atom1, atom2 = rule.body
            groundings = self._path_groundings(
                atom1.relation,
                atom1.subject == 0,
                atom2.relation,
                atom2.subject == 2,
            )
        head_index = self.relations[rule.head.relation]
        keep = ~self._sorted_membership(head_index.pair_keys, groundings)
        keep &= self._sorted_membership(
            head_index.subjects_sorted, groundings // self.num_nodes
        )
        missing = groundings[keep]
        return {
            (int(key // self.num_nodes), int(key % self.num_nodes))
            for key in missing.tolist()
        }


def mine_amie(
    graph: Graph,
    min_head_coverage: float = 0.01,
    min_pca_confidence: float = 0.5,
    min_support: int = 2,
) -> AmieResult:
    """Sequential AMIE mining over ``graph``."""
    return AmieMiner(
        graph, min_head_coverage, min_pca_confidence, min_support
    ).mine()

