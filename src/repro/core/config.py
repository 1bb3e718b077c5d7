"""Configuration of the discovery problem (Section 4.3).

The paper's discovery problem takes a graph ``G``, a bound ``k ≥ 2`` on the
number of pattern variables and a support threshold ``σ > 0``, plus the
practical knobs of Section 4.3's *Remarks*: the active attributes ``Γ`` and
the frequent-constant budget.  :class:`DiscoveryConfig` gathers those and the
engineering limits that keep mining tractable on a laptop.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = [
    "DiscoveryConfig",
    "EnforcementConfig",
    "FaultConfig",
    "CandidateBudgetExceeded",
]


def _default_backend() -> str:
    """The default ``ParDis`` backend; ``REPRO_PARALLEL_BACKEND`` overrides.

    The environment hook lets the CI matrix run the whole suite under the
    multiprocess backend without touching any call site.
    """
    return os.environ.get("REPRO_PARALLEL_BACKEND", "serial")


def _default_fault_plan() -> Optional[str]:
    """The JSON fault plan from ``REPRO_FAULT_PLAN`` (``None`` when unset)."""
    return os.environ.get("REPRO_FAULT_PLAN") or None


def _default_fault() -> Optional["FaultConfig"]:
    """Supervision default: off, unless a chaos plan is in the environment.

    With ``REPRO_FAULT_PLAN`` set, every config grows a default
    :class:`FaultConfig` — the chaos CI job runs the whole differential
    suite under injected faults without touching any call site, exactly
    like the ``REPRO_PARALLEL_BACKEND`` hook.
    """
    return FaultConfig() if _default_fault_plan() is not None else None


@dataclass
class FaultConfig:
    """Supervision policy of the multiprocess execution backend.

    With a :class:`FaultConfig` attached (``DiscoveryConfig.fault`` /
    ``EnforcementConfig.fault``), every worker submission is *supervised*:
    a deadline detects hung workers, ``BrokenProcessPool`` detects dead
    ones, and a failed submission is retried with exponential backoff after
    the worker is respawned and its **install log** replayed (the
    per-worker journal of state-mutating ops — installs, parked joins,
    lattice masks, Σ, enforcement tables — every op is a deterministic
    function of the index snapshot and that state, so replay reconstructs
    the worker exactly).  ``None`` (the default) runs unsupervised.

    A supervised backend keeps everything a respawn must replay: large op
    payloads travel in the journaled pickle channel instead of short-lived
    shared segments, and an index refresh re-ships the whole snapshot
    instead of a delta.  Skew rebalancing needs no special case — its
    ``fetch_join`` is journaled like any other op.  Results are identical.

    Attributes:
        op_timeout_s: per-op deadline in seconds — a submission carrying
            ``m`` ops gets ``m × op_timeout_s``; a worker that exceeds it
            is declared hung, killed and respawned (``None`` = no deadline,
            only crash detection).
        max_retries: attempts per submission after the first failure; each
            retry waits ``backoff_base * 2**attempt`` seconds.
        backoff_base: first retry delay in seconds.
        max_respawns: worker respawns tolerated per worker slot before the
            degradation ladder ends (see ``degrade_to_serial``).
        degrade_to_serial: after ``max_respawns``, demote the worker slot
            to an in-process shard (journal-seeded) instead of failing the
            phase; recorded in ``LifecycleCounters.degraded_workers`` and
            announced by a single ``RuntimeWarning``.  ``False`` raises.
        fault_plan: JSON fault-injection plan shipped to the workers (see
            :class:`repro.parallel.faults.FaultPlan`); defaults to the
            ``REPRO_FAULT_PLAN`` environment variable.  Production configs
            leave this ``None`` — supervision without injection.
    """

    op_timeout_s: Optional[float] = 30.0
    max_retries: int = 2
    backoff_base: float = 0.05
    max_respawns: int = 2
    degrade_to_serial: bool = True
    fault_plan: Optional[str] = field(default_factory=_default_fault_plan)

    def __post_init__(self) -> None:
        if self.op_timeout_s is not None and self.op_timeout_s <= 0:
            raise ValueError("op_timeout_s must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")


class CandidateBudgetExceeded(RuntimeError):
    """Raised when a run exceeds ``DiscoveryConfig.max_candidates``.

    Carries the counters accumulated so far so ablation benches can report
    how far an unpruned run got before giving up.
    """

    def __init__(self, candidates_checked: int, patterns_spawned: int) -> None:
        super().__init__(
            f"candidate budget exceeded: {candidates_checked} candidates "
            f"over {patterns_spawned} patterns"
        )
        self.candidates_checked = candidates_checked
        self.patterns_spawned = patterns_spawned


@dataclass
class DiscoveryConfig:
    """All parameters of GFD discovery.

    Attributes:
        k: bound on pattern variables ``|x̄|`` (k-bounded GFDs, Section 3).
        sigma: support threshold ``σ`` — a GFD is *frequent* when
            ``supp(φ, G) ≥ σ`` (Section 4.2).
        max_edges: bound on pattern edges (the generation-tree depth).  The
            paper iterates up to ``k²``; the default ``None`` uses ``k``,
            which covers all trees plus one cycle-closing edge and is the
            regime the experiments operate in.
        active_attributes: the attribute set ``Γ`` literals may use; ``None``
            selects the ``max_active_attributes`` most common attributes.
        max_active_attributes: size of the inferred ``Γ`` (paper: 5).
        max_constants: frequent values considered per ``(variable, attr)``
            column (paper: 5 most frequent values per attribute).
        max_lhs_size: cap ``J`` on ``|X|``; the paper's bound is
            ``i·|Γ|(|Γ|+1)`` which is far beyond what reduced GFDs reach —
            2 matches the rules its examples exhibit.
        variable_literals: mine ``x.A = y.B`` literals.
        variable_literals_same_attr_only: restrict variable literals to the
            same attribute on both sides (all paper examples have this form).
        mine_negative: run ``NVSpawn``/``NHSpawn`` for negative GFDs.
        max_negatives_per_pattern: cap on negative GFDs emitted per pattern
            (negatives are abundant; the cap keeps covers reviewable).
        speculative_closing_edges: let ``NVSpawn`` try frequent label-triples
            as closing edges even when no match witnesses them — this is how
            zero-match "illegal structure" patterns like ``φ3`` arise.
        enable_wildcards: spawn wildcard-labeled extension nodes when the
            endpoint labels of an extension are diverse (the paper's label
            upgrading); wildcards widen the search considerably.
        wildcard_min_labels: label diversity required to spawn a wildcard.
        max_matches_per_pattern: safety cap on stored matches; a pattern
            whose match count reaches the cap is *truncated* and becomes a
            leaf — it emits no GFDs (validity cannot be certified from a
            sample) and is not extended further.  Both engines apply the
            same rule (``ParDis`` enforces the cap per shard and combines
            the verdicts), so the discovered sets agree even when the cap
            binds, although the retained sample differs per engine.
        max_patterns_per_level: optional cap on spawned patterns per level.
        prune: apply the pruning strategies of Lemma 4 (``ParGFDn``
            disables this to reproduce the paper's infeasibility finding).
        minimality_filter: run the final pairwise ``≪``-minimality pass.
        min_literal_rows: a candidate literal must hold on at least this many
            rows of the match table to enter the alphabet.
        negative_literal_min_rows: the literal ``l''`` extending a base into
            a negative GFD must hold on at least this many rows *globally*
            in the pattern's table (``None`` = ``sigma``).  This keeps
            negatives meaningful: both the base and the conflicting literal
            are individually frequent, only their combination never occurs
            (e.g. the paper's Gold Bear / Gold Lion rule).
        max_candidates: abort with :class:`CandidateBudgetExceeded` once this
            many GFD candidates have been checked — how the benchmarks
            reproduce the paper's "ParGFDn / ParArab fail to complete"
            findings without actually exhausting memory.
        use_index: run matching, spawning and match-table construction
            against the graph's frozen CSR :class:`~repro.graph.index.
            GraphIndex` (vectorized hot paths).  Disabling falls back to the
            dict-adjacency reference implementation; results are identical
            (truncated patterns are leaves on both paths, so a binding
            ``max_matches_per_pattern`` no longer lets the paths diverge).
            The flag exists for equivalence testing and debugging; the
            multiprocess backend requires the index.
        parallel_backend: execution backend of ``ParDis`` — ``"serial"``
            runs the worker ops inline under the simulated cluster (exact
            historical semantics, no extra processes), ``"multiprocess"``
            runs them in real per-worker processes that attach the frozen
            index zero-copy (its mmap store file, else one shared-memory
            segment).  Results are identical by construction (the
            differential harness asserts it).  Default ``"serial"``, or the
            ``REPRO_PARALLEL_BACKEND`` environment variable.
        num_workers: default worker count ``n`` for parallel runs when the
            engine call does not pass one (``None`` = the engine default, 4).
        fault: supervision policy of the multiprocess backend (timeouts,
            retry/respawn budgets, the degradation ladder) — see
            :class:`FaultConfig`.  ``None`` (the default) disables
            supervision; setting ``REPRO_FAULT_PLAN`` enables it with an
            injected chaos plan.
    """

    k: int = 3
    sigma: int = 10
    max_edges: Optional[int] = None
    active_attributes: Optional[List[str]] = None
    max_active_attributes: int = 5
    max_constants: int = 5
    max_lhs_size: int = 2
    variable_literals: bool = True
    variable_literals_same_attr_only: bool = True
    mine_negative: bool = True
    max_negatives_per_pattern: int = 20
    speculative_closing_edges: bool = True
    enable_wildcards: bool = False
    wildcard_min_labels: int = 3
    max_matches_per_pattern: Optional[int] = 500_000
    max_patterns_per_level: Optional[int] = None
    prune: bool = True
    minimality_filter: bool = True
    min_literal_rows: int = 1
    negative_literal_min_rows: Optional[int] = None
    max_candidates: Optional[int] = None
    use_index: bool = True
    parallel_backend: str = field(default_factory=_default_backend)
    num_workers: Optional[int] = None
    fault: Optional[FaultConfig] = field(default_factory=_default_fault)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.sigma < 1:
            raise ValueError("sigma must be >= 1")
        if self.max_lhs_size < 0:
            raise ValueError("max_lhs_size must be >= 0")
        if self.parallel_backend not in ("serial", "multiprocess"):
            raise ValueError(
                "parallel_backend must be 'serial' or 'multiprocess', "
                f"got {self.parallel_backend!r}"
            )
        if self.num_workers is not None and self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")

    @property
    def edge_budget(self) -> int:
        """The pattern-edge bound actually used (``max_edges`` or ``k``)."""
        return self.max_edges if self.max_edges is not None else self.k


@dataclass
class EnforcementConfig:
    """Parameters of the rule *enforcement* engine (:mod:`repro.enforce`).

    Enforcement is the consumer side of discovery: a fixed rule set ``Σ``
    is validated against a live graph, repeatedly.  The knobs mirror the
    discovery ones where the machinery is shared (backend, workers, index)
    and add the delta-maintenance and reporting policies.

    Attributes:
        backend: evaluation backend — ``"serial"`` evaluates the compiled
            plan inline on ``num_workers`` in-process shards,
            ``"multiprocess"`` on real per-worker processes attaching the
            frozen graph index zero-copy (mmap store file or shared
            memory), like discovery's.  The
            ``REPRO_PARALLEL_BACKEND`` environment variable sets the
            default, exactly as for discovery.
        num_workers: evaluation shards (``None`` = 1 for serial, 4 for
            multiprocess — serial sharding exists for differential testing,
            not speed).
        use_index: evaluate against the frozen CSR index (the fast path).
            Disabling falls back to the dict-graph reference tables;
            results are identical.  The multiprocess backend requires the
            index.
        max_delta_fraction: on :meth:`~repro.enforce.engine.
            EnforcementEngine.refresh`, fall back to full revalidation when
            more than this fraction of the graph's nodes was touched since
            the last validation — localized re-matching only pays while the
            delta is small.
        max_violations_per_rule: per-rule cap on the violating *rows* each
            worker materializes and returns (``None`` — the default — keeps
            the exact behavior).  The ``CandidateBudget`` of the serving
            side: an adversarial negative rule whose violation set is the
            whole match table then degrades gracefully — violation *counts*
            (and therefore :attr:`~repro.enforce.engine.EnforcementReport.
            is_clean`) stay exact, computed from mask popcounts, but the
            reported node sets, samples and distinct-pivot figures cover
            only the retained rows and the rule report is flagged
            ``witnesses_truncated``.  When the cap binds, the retained
            subset depends on shard boundaries (order independence cannot
            be had without materializing everything — the very cost the cap
            avoids).
        max_violation_samples: violating matches retained per rule in the
            report (``None`` = all).  When the cap binds, the retained
            subset is a seeded uniform sample over the lexicographically
            sorted violation set — deterministic and independent of match
            enumeration order, worker count and backend.
        sample_seed: RNG seed of that capped sample.
        fault: supervision policy of the multiprocess backend (see
            :class:`FaultConfig`); ``None`` disables supervision.
    """

    backend: str = field(default_factory=_default_backend)
    num_workers: Optional[int] = None
    use_index: bool = True
    max_delta_fraction: float = 0.25
    max_violations_per_rule: Optional[int] = None
    max_violation_samples: Optional[int] = 10
    sample_seed: int = 0
    fault: Optional[FaultConfig] = field(default_factory=_default_fault)

    def __post_init__(self) -> None:
        if self.backend not in ("serial", "multiprocess"):
            raise ValueError(
                "backend must be 'serial' or 'multiprocess', "
                f"got {self.backend!r}"
            )
        if self.num_workers is not None and self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if not 0.0 <= self.max_delta_fraction <= 1.0:
            raise ValueError("max_delta_fraction must be a fraction in [0, 1]")
        if self.max_violation_samples is not None and self.max_violation_samples < 0:
            raise ValueError("max_violation_samples must be >= 0")
        if self.max_violations_per_rule is not None and self.max_violations_per_rule < 1:
            raise ValueError("max_violations_per_rule must be >= 1")
        if self.backend == "multiprocess" and not self.use_index:
            raise ValueError("the multiprocess backend requires use_index=True")

    @property
    def resolved_workers(self) -> int:
        """The worker count actually used."""
        if self.num_workers is not None:
            return self.num_workers
        return 4 if self.backend == "multiprocess" else 1
