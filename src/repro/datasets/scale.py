"""Scalable synthetic tier: seeded million-node graphs for the index store.

The paper's Section 7 experiments run on graphs of 10⁶–10⁷ nodes; the
paper-figure sweeps use ~10³-node scale models because the *generator* in
:mod:`repro.datasets.synthetic` walks pure-Python RNG loops.  This module
is the big-tier counterpart: the random draws are vectorized through one
seeded :class:`numpy.random.Generator`, so the 10⁶ tier generates in
seconds and the persistence suite (``tests/test_store.py``) and the
store-tier record (``benchmarks/figures.py scale``) have graphs big
enough for attach-vs-rebuild ratios to mean something.

Shape knobs:

* ``label_skew`` / ``attr_skew`` — node labels and attribute values are
  drawn from Zipf-style distributions (weight ∝ rank⁻ˢᵏᵉʷ; ``0`` =
  uniform), so the per-label node arrays and value interning tables get
  the skewed populations real KBs show instead of flat synthetic ones;
* ``regularity`` — as in the paper generator, a seeded fraction of nodes
  obeys label-determined ``a0`` values and label-directed edges, so
  discovery finds rules at every tier.

Everything is deterministic in ``seed``: the same call produces the same
``Graph`` — and therefore the same ``Graph.version`` and the same
persisted index bytes — in any process.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..graph.graph import Graph

__all__ = ["SCALE_TIERS", "scale_graph", "scale_tier_graph"]

#: The benchmark sweep tiers: 10⁴ → 10⁶ nodes.
SCALE_TIERS: Dict[str, int] = {
    "10k": 10_000,
    "100k": 100_000,
    "1m": 1_000_000,
}


def _rank_weights(count: int, skew: float) -> np.ndarray:
    """Zipf-style rank weights ``(i+1)^-skew``, normalized (0 = uniform)."""
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = ranks ** -float(skew)
    return weights / weights.sum()


def scale_graph(
    num_nodes: int,
    num_edges: Optional[int] = None,
    num_labels: int = 32,
    num_edge_labels: int = 12,
    num_values: int = 500,
    label_skew: float = 1.1,
    attr_skew: float = 1.3,
    attrs_per_node: int = 2,
    regularity: float = 0.7,
    seed: int = 0,
) -> Graph:
    """Generate a seeded synthetic graph with skewed labels/attributes.

    Args:
        num_nodes: ``|V|`` (the :data:`SCALE_TIERS` sweep spans 10⁴–10⁶).
        num_edges: target ``|E|`` (default ``2 · num_nodes``); self-loops
            and duplicate ``(src, dst, label)`` draws are dropped, so the
            realized count is deterministically slightly lower.
        num_labels: node-label alphabet size.
        num_edge_labels: edge-label alphabet size.
        num_values: values per attribute.
        label_skew: Zipf exponent of the node-label distribution
            (``0`` = uniform; higher = heavier head).
        attr_skew: Zipf exponent of the attribute-value distribution.
        attrs_per_node: dense attribute columns ``a0..a{k-1}`` per node
            (``a0`` carries the planted label→value regularity).
        regularity: fraction of nodes/edges following the planted
            structure, as in :func:`~repro.datasets.synthetic.
            synthetic_graph`.
        seed: RNG seed; output is fully deterministic in it.
    """
    if num_nodes < 2:
        raise ValueError("num_nodes must be >= 2")
    if attrs_per_node < 1:
        raise ValueError("attrs_per_node must be >= 1")
    target_edges = 2 * num_nodes if num_edges is None else num_edges
    rng = np.random.default_rng(seed)

    labels = [f"L{i}" for i in range(num_labels)]
    edge_labels = [f"e{i}" for i in range(num_edge_labels)]
    values = [f"v{i}" for i in range(num_values)]
    attr_names = [f"a{i}" for i in range(attrs_per_node)]

    # -- nodes: skewed labels, planted + skewed attribute columns --------
    label_idx = rng.choice(
        num_labels, size=num_nodes, p=_rank_weights(num_labels, label_skew)
    )
    regular = rng.random(num_nodes) < regularity
    attr_w = _rank_weights(num_values, attr_skew)
    columns = [
        rng.choice(num_values, size=num_nodes, p=attr_w)
        for _ in range(attrs_per_node)
    ]
    # the planted rule: regular nodes of label L_i carry a0 = v_{i mod V}
    columns[0] = np.where(regular, label_idx % num_values, columns[0])

    # -- edges: label-directed regular mass + uniform noise --------------
    order = np.argsort(label_idx, kind="stable")
    counts = np.bincount(label_idx, minlength=num_labels)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    src = rng.integers(0, num_nodes, size=target_edges)
    src_label = label_idx[src]
    edge_regular = rng.random(target_edges) < regularity
    target_label = (src_label + 1) % num_labels
    # regular edges pick a uniform node *within* the target label bucket;
    # empty buckets (possible under heavy skew) degrade to noise edges
    bucket_size = counts[target_label]
    edge_regular &= bucket_size > 0
    pick = np.floor(
        rng.random(target_edges) * np.maximum(bucket_size, 1)
    ).astype(np.int64)
    dst_regular = order[bounds[target_label] + pick]
    dst_noise = rng.integers(0, num_nodes, size=target_edges)
    dst = np.where(edge_regular, dst_regular, dst_noise)
    lab_noise = rng.integers(0, num_edge_labels, size=target_edges)
    lab = np.where(edge_regular, src_label % num_edge_labels, lab_noise)

    keep = src != dst
    src, dst, lab = src[keep], dst[keep], lab[keep]
    # dedupe (src, dst, label) draws deterministically: one sorted unique
    # over packed keys (sorted insertion order also keeps Graph.version a
    # pure function of the seed)
    keys = (src * num_nodes + dst) * num_edge_labels + lab
    keys = np.unique(keys)
    lab = keys % num_edge_labels
    pair = keys // num_edge_labels
    dst = pair % num_nodes
    src = pair // num_nodes

    # -- materialize the Graph (the only per-element Python loop) --------
    graph = Graph()
    add_node = graph.add_node
    label_list = label_idx.tolist()
    column_lists = [column.tolist() for column in columns]
    for node in range(num_nodes):
        attrs = {
            attr_names[i]: values[column_lists[i][node]]
            for i in range(attrs_per_node)
        }
        add_node(labels[label_list[node]], attrs)
    add_edge = graph.add_edge
    for s, d, l in zip(src.tolist(), dst.tolist(), lab.tolist()):
        add_edge(s, d, edge_labels[l])
    return graph


def scale_tier_graph(tier: str, seed: int = 0, **overrides) -> Graph:
    """The named benchmark tier (``"10k"`` | ``"100k"`` | ``"1m"``)."""
    if tier not in SCALE_TIERS:
        raise ValueError(
            f"unknown scale tier {tier!r} (expected one of "
            f"{sorted(SCALE_TIERS)})"
        )
    return scale_graph(SCALE_TIERS[tier], seed=seed, **overrides)
