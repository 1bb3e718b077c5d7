"""Error detection with discovered rules (Exp-5's consumers).

Three detectors, one per rule system compared in Figure 7:

* **GFDs** — nodes contained in violations of the discovered GFDs
  (validation of Section 2.2; for negative GFDs, any match satisfying ``X``
  is a violation);
* **GCFDs** — same machinery over the path-restricted rule set;
* **AMIE** — nodes incident to a body grounding whose predicted head fact
  is absent (under the PCA, only subjects with some head fact count).

Since PR 3 the GFD/GCFD path runs on the compiled enforcement plan
(grouped patterns, columnar masks, CSR index) instead of per-rule match
enumeration over the dict graph — same violation sets, much faster on
shared-pattern rule sets.  Since PR 5 it goes through the
:class:`~repro.session.Session` facade: one-shot calls open a scoped
session, and callers holding a pipeline session can pass it in to reuse
its backend, index snapshot and compiled plan.

**Cap semantics** (``max_per_gfd``): when a rule has more violations than
the cap, the retained subset is a uniform ``random.Random(seed)`` sample
over the *lexicographically sorted* full violation set.  The pre-PR 3
behavior kept the first ``max_per_gfd`` violations in match-enumeration
order, so :func:`nodes_in_violations` over/under-counted deterministically
with the backend's iteration order; the seeded sample is deterministic
given ``(seed, violation set)`` and independent of enumeration order,
engine backend and worker count.  Violation *counts* are always exact —
only the retained witnesses are sampled.

Consequently ``max_per_gfd`` is now a *report-size* knob, not a work
bound: the engine materializes each rule's full violation set before
sampling (order-independence cannot be had from a truncated enumeration).
At reproduction scale this is immaterial; a streaming cap for
adversarially dense rules on huge graphs is a ROADMAP open item.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set

from ..baselines.amie import AmieMiner, AmieRule
from ..core.config import EnforcementConfig
from ..gfd.gfd import GFD, Violation
from ..graph.graph import Graph
from .metrics import DetectionMetrics, detection_metrics

__all__ = [
    "detect_gfd_violations",
    "nodes_in_violations",
    "gfd_detection",
    "amie_detection",
]


def detect_gfd_violations(
    graph: Graph,
    sigma: Sequence[GFD],
    max_per_gfd: Optional[int] = 10_000,
    seed: int = 0,
    session: Optional["Session"] = None,
) -> List[Violation]:
    """Violations of ``Σ`` in ``graph``, seeded-capped per GFD.

    Runs one :meth:`~repro.session.Session.enforce` pass.  Without a
    ``session`` a scoped one is opened (serial backend, single shard —
    detection is a metrics convenience) and closed again; for repeated or
    scaled-out detection pass the pipeline's own session, whose backend,
    index snapshot and compiled plan are then reused — note the caps are
    the *session's* enforcement config in that case, not ``max_per_gfd``/
    ``seed``.  ``max_per_gfd=None`` retains every violation.
    """
    from ..session import Session

    if session is not None:
        if session.graph is not graph:
            raise ValueError(
                "the supplied session serves a different graph than the one "
                "being checked — open a session over this graph (detection "
                "runs against session.graph)"
            )
        policy = session.enforcement
        if (
            policy.max_violation_samples != max_per_gfd
            or policy.sample_seed != seed
            or policy.max_violations_per_rule is not None
        ):
            raise ValueError(
                "the session's enforcement sampling (max_violation_samples="
                f"{policy.max_violation_samples!r}, sample_seed="
                f"{policy.sample_seed!r}, max_violations_per_rule="
                f"{policy.max_violations_per_rule!r}) does not match the "
                f"requested caps (max_per_gfd={max_per_gfd!r}, seed={seed!r}, "
                "no witness cap); a session-backed detection uses the "
                "session's EnforcementConfig — build the session with "
                "matching values (a witness cap would make detection "
                "shard-dependent)"
            )
        return session.enforce(list(sigma)).violations()
    config = EnforcementConfig(
        max_violation_samples=max_per_gfd,
        sample_seed=seed,
    )
    with Session(
        graph, enforcement=config, backend="serial", num_workers=1
    ) as scoped:
        return scoped.enforce(list(sigma)).violations()


def nodes_in_violations(violations: Iterable[Violation]) -> Set[int]:
    """``V^GFD``: every node contained in some violating match.

    Over a capped :func:`detect_gfd_violations` result this is computed
    from the retained sample — see the module docstring for the seeded,
    order-independent cap semantics.
    """
    nodes: Set[int] = set()
    for violation in violations:
        nodes.update(violation.match)
    return nodes


def gfd_detection(
    graph: Graph,
    sigma: Sequence[GFD],
    dirty_nodes: Iterable[int],
    max_per_gfd: Optional[int] = 10_000,
    seed: int = 0,
    session: Optional["Session"] = None,
) -> DetectionMetrics:
    """Run GFD validation on a dirty graph and score against ground truth.

    ``session`` optionally reuses a pipeline's
    :class:`~repro.session.Session` (see :func:`detect_gfd_violations`).
    """
    violations = detect_gfd_violations(
        graph, sigma, max_per_gfd, seed=seed, session=session
    )
    return detection_metrics(nodes_in_violations(violations), dirty_nodes)


def amie_detection(
    graph: Graph,
    rules: Sequence[AmieRule],
    dirty_nodes: Iterable[int],
    miner: AmieMiner = None,
) -> DetectionMetrics:
    """Score AMIE's missing-fact predictions against ground truth.

    ``V^A`` is the set of nodes appearing in a body grounding that lacks the
    predicted head relation (the paper: "the nodes that do not have the
    predicted relation").
    """
    if miner is None:
        miner = AmieMiner(graph)
    flagged: Set[int] = set()
    for rule in rules:
        if rule.head.relation not in miner.relations:
            continue
        for x, y in miner.predicted_missing(rule):
            flagged.add(x)
            flagged.add(y)
    return detection_metrics(flagged, dirty_nodes)
