"""Rule enforcement: compiled multi-GFD violation detection (PR 3).

Discovery (the paper's contribution) produces a rule set ``Σ``; this
package is the *consumer* side — using ``Σ`` for consistency checking
against a live, changing graph, continuously and fast.  Three layers:

**Plan compilation** (:mod:`~repro.enforce.plan`).  ``Σ`` is grouped by the
canonical representative of each pattern's pivot-preserving isomorphism
class, so every distinct pattern is matched exactly once per validation no
matter how many rules share it.  Grouped rules evaluate as columnar boolean
masks over the pattern's :class:`~repro.core.match_table.MatchTable`
(constant, variable, and negative/``false`` literals, with the paper's
missing-attribute semantics), and each rule carries a column permutation
mapping canonical match rows back to its original variable order — grouped
results are exactly the per-rule reference results.

**Delta maintenance** (:mod:`~repro.enforce.delta`).  A :class:`~repro.
enforce.delta.DeltaLog` attached to the graph records the node ids every
mutation touches, by kind: structural (node and edge inserts, deletes and
relabels) or attribute-only.  On :meth:`~repro.enforce.engine.
EnforcementEngine.refresh`, stored matches containing no touched node are
reused verbatim; those containing a structural node are dropped and
re-derived by one walk of the plan's anchored join trie seeded with the
structural nodes; the rest of the touched ones are re-judged in place.
A delta wider than ``EnforcementConfig.max_delta_fraction`` of the graph
falls back to full revalidation.

**Backend selection** (:mod:`~repro.enforce.engine`).  Evaluation shards
match tables over the PR 2 :class:`~repro.parallel.backend.ShardWorker` op
layer: ``backend="serial"`` runs the shards in-process (the default; the
sharding exists for differential testing), ``backend="multiprocess"`` on
real per-worker processes that attach the frozen CSR
:class:`~repro.graph.index.GraphIndex` zero-copy via shared memory.  Every
combination — serial/multiprocess × full/incremental × any worker count —
reports identical violation sets (asserted by ``tests/test_enforce.py`` on
randomized graphs and rule sets).

Entry points: :class:`~repro.enforce.engine.EnforcementEngine` (library),
``repro-gfd enforce`` (CLI), and :func:`repro.quality.detector.
detect_gfd_violations` (the Exp-5 metrics path, rewired onto the engine).
"""

from .delta import DeltaLog
from .engine import EnforcementEngine, EnforcementReport, RuleReport
from .monitor import RuleSketchMonitor
from .plan import CompiledRule, EnforcementPlan, PatternGroup, compile_plan

__all__ = [
    "DeltaLog",
    "EnforcementEngine",
    "EnforcementReport",
    "RuleReport",
    "RuleSketchMonitor",
    "CompiledRule",
    "EnforcementPlan",
    "PatternGroup",
    "compile_plan",
]
