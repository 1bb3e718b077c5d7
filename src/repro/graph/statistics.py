"""Graph statistics that drive discovery.

``VSpawn`` extends patterns with *frequent edges* (Section 5.1) and
``NVSpawn`` needs frequent label shapes that may have **zero** matches when
attached to a particular pattern (that is what makes a negative GFD).  Both
are served by the label-triple statistics computed here.  The module also
collects the attribute statistics used to pick active attributes ``Γ`` and
the "5 most frequent values per attribute" protocol of Section 7.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .graph import Graph

__all__ = ["LabelTriple", "GraphStatistics", "compute_statistics"]

#: (source node label, edge label, destination node label)
LabelTriple = Tuple[str, str, str]

#: (node label, attribute) -> Counter of values
ValueCounts = Dict[Tuple[str, str], Counter]


@dataclass
class GraphStatistics:
    """Aggregate statistics of a property graph.

    Attributes:
        node_label_counts: node label -> count.
        edge_label_counts: edge label -> count.
        triple_counts: (src label, edge label, dst label) -> count.
        attr_counts: attribute name -> number of nodes carrying it.
        attr_value_counts: (node label, attribute) -> Counter of values;
            computed on first read when the statistics carry a
            ``value_counts_source`` (discovery never reads it).
        max_degree: maximum total degree over nodes.
    """

    node_label_counts: Dict[str, int] = field(default_factory=dict)
    edge_label_counts: Dict[str, int] = field(default_factory=dict)
    triple_counts: Dict[LabelTriple, int] = field(default_factory=dict)
    attr_counts: Dict[str, int] = field(default_factory=dict)
    max_degree: int = 0
    #: Computes ``attr_value_counts`` on its first read, then is dropped.
    value_counts_source: Optional[Callable[[], ValueCounts]] = field(
        default=None, repr=False, compare=False
    )
    _attr_value_counts: Optional[ValueCounts] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def attr_value_counts(self) -> ValueCounts:
        if self._attr_value_counts is None:
            source = self.value_counts_source
            self._attr_value_counts = source() if source is not None else {}
            self.value_counts_source = None
        return self._attr_value_counts

    def __eq__(self, other: object) -> bool:
        """Equal statistics, ``attr_value_counts`` included (computed)."""
        if not isinstance(other, GraphStatistics):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in (
                "node_label_counts", "edge_label_counts", "triple_counts",
                "attr_counts", "attr_value_counts", "max_degree",
            )
        )

    def frequent_triples(self, threshold: int) -> List[LabelTriple]:
        """Label triples occurring at least ``threshold`` times, most frequent first."""
        frequent = [
            (count, triple)
            for triple, count in self.triple_counts.items()
            if count >= threshold
        ]
        frequent.sort(key=lambda pair: (-pair[0], pair[1]))
        return [triple for _, triple in frequent]

    def top_attributes(self, limit: int) -> List[str]:
        """The ``limit`` most common attribute names (the default ``Γ``)."""
        ranked = sorted(self.attr_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [attr for attr, _ in ranked[:limit]]

    def top_values(self, node_label: str, attr: str, limit: int) -> List[Any]:
        """The ``limit`` most frequent values of ``attr`` on ``node_label`` nodes."""
        counter = self.attr_value_counts.get((node_label, attr))
        if not counter:
            return []
        ranked = sorted(counter.items(), key=lambda kv: (-kv[1], str(kv[0])))
        return [value for value, _ in ranked[:limit]]


def compute_statistics(graph: Graph) -> GraphStatistics:
    """Single-pass computation of :class:`GraphStatistics` for ``graph``."""
    stats = GraphStatistics()
    node_labels: Counter = Counter()
    attr_names: Counter = Counter()
    value_counts: ValueCounts = {}
    for node in graph.nodes():
        label = graph.node_label(node)
        node_labels[label] += 1
        for attr, value in graph.node_attrs(node).items():
            attr_names[attr] += 1
            value_counts.setdefault((label, attr), Counter())[value] += 1
        degree = graph.degree(node)
        if degree > stats.max_degree:
            stats.max_degree = degree
    triples: Counter = Counter()
    for src, dst, label in graph.edges():
        triples[(graph.node_label(src), label, graph.node_label(dst))] += 1
    stats.node_label_counts = dict(node_labels)
    stats.edge_label_counts = graph.edge_label_counts()
    stats.triple_counts = dict(triples)
    stats.attr_counts = dict(attr_names)
    stats._attr_value_counts = value_counts
    return stats
