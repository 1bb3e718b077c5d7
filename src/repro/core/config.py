"""Configuration of the discovery problem (Section 4.3).

The paper's discovery problem takes a graph ``G``, a bound ``k ≥ 2`` on the
number of pattern variables and a support threshold ``σ > 0``, plus the
practical knobs of Section 4.3's *Remarks*: the active attributes ``Γ`` and
the frequent-constant budget.  :class:`DiscoveryConfig` gathers those and the
engineering limits that keep mining tractable on a laptop.  Where the work
runs — the backend, Section 6's ``n`` workers, supervision — is how the
problem is run, not part of it: :func:`repro.parallel.backend.
resolve_execution` owns those defaults.
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


def _default_fault_plan() -> Optional[str]:
    """The JSON fault plan from ``REPRO_FAULT_PLAN`` (``None`` when unset)."""
    return os.environ.get("REPRO_FAULT_PLAN") or None


@dataclass
class FaultConfig:
    """Supervision policy of the multiprocess execution backend.

    With a :class:`FaultConfig` attached (the ``fault`` argument of
    :class:`~repro.session.Session`, :class:`~repro.serve.
    EnforcementService` and :func:`~repro.parallel.backend.make_backend`),
    every worker submission is *supervised*: a deadline detects hung
    workers, ``BrokenProcessPool`` detects dead ones, and a failed
    submission is retried (twice at most, with exponential backoff from
    0.05 s) after the worker is respawned and its **install log** replayed
    (the per-worker journal of state-mutating ops — installs, parked
    joins, lattice masks, Σ, enforcement tables — every op is a
    deterministic function of the index snapshot and that state, so
    replay reconstructs the worker exactly).  ``None`` runs unsupervised.

    Supervision is a failure policy, not a second transport: a supervised
    backend stages large payloads in shared memory and ships index deltas
    exactly like an unsupervised one.  Its journal keeps the unstaged
    payloads, and a respawn attaches the current snapshot, so a replay
    never reads a released segment.  Results are identical.

    Attributes:
        op_timeout_s: per-op deadline in seconds — a submission carrying
            ``m`` ops gets ``m × op_timeout_s``; a worker that exceeds it
            is declared hung, killed and respawned (``None`` = no deadline,
            only crash detection).
        max_respawns: worker respawns tolerated per worker slot; past it
            the slot is demoted to an in-process shard (journal-seeded)
            instead of failing the phase, recorded in
            ``LifecycleCounters.degraded_workers`` and announced by a
            single ``RuntimeWarning``.
        fault_plan: JSON fault-injection plan shipped to the workers (see
            :class:`repro.parallel.faults.FaultPlan`); defaults to the
            ``REPRO_FAULT_PLAN`` environment variable.  Production configs
            leave this ``None`` — supervision without injection.
    """

    op_timeout_s: Optional[float] = 30.0
    max_respawns: int = 2
    fault_plan: Optional[str] = field(default_factory=_default_fault_plan)

    def __post_init__(self) -> None:
        if self.op_timeout_s is not None and self.op_timeout_s <= 0:
            raise ValueError("op_timeout_s must be positive (or None)")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if self.fault_plan is not None:
            from ..parallel.faults import FaultPlan

            try:
                FaultPlan.from_json(self.fault_plan)
            except (ValueError, TypeError, KeyError, AttributeError) as error:
                raise ValueError(f"invalid fault_plan: {error}") from error


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
            It also bounds the pattern edges (the generation-tree depth):
            the paper iterates up to ``k²``, ``k`` covers all trees plus one
            cycle-closing edge and is the regime the experiments operate in.
        sigma: support threshold ``σ`` — a GFD is *frequent* when
            ``supp(φ, G) ≥ σ`` (Section 4.2).
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
            ``NVSpawn`` also tries frequent label-triples as closing edges
            no match witnesses — how zero-match "illegal structure" patterns
            like ``φ3`` arise — and the literal ``l''`` extending a base
            into a negative GFD must hold on at least ``sigma`` rows of the
            pattern's table, so both the base and the conflicting literal
            are frequent and only their combination never occurs (the
            paper's Gold Bear / Gold Lion rule).
        max_negatives_per_pattern: cap on negative GFDs emitted per pattern
            (negatives are abundant; the cap keeps covers reviewable).
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
        prune: apply the pruning strategies of Lemma 4 (``ParGFDn``
            disables this to reproduce the paper's infeasibility finding).
        max_candidates: abort with :class:`CandidateBudgetExceeded` once this
            many GFD candidates have been checked — how the benchmarks
            reproduce the paper's "ParGFDn / ParArab fail to complete"
            findings without actually exhausting memory.
    """

    k: int = 3
    sigma: int = 10
    active_attributes: Optional[List[str]] = None
    max_active_attributes: int = 5
    max_constants: int = 5
    max_lhs_size: int = 2
    variable_literals: bool = True
    variable_literals_same_attr_only: bool = True
    mine_negative: bool = True
    max_negatives_per_pattern: int = 20
    enable_wildcards: bool = False
    wildcard_min_labels: int = 3
    max_matches_per_pattern: Optional[int] = 500_000
    prune: bool = True
    max_candidates: Optional[int] = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.sigma < 1:
            raise ValueError("sigma must be >= 1")
        if self.max_lhs_size < 0:
            raise ValueError("max_lhs_size must be >= 0")
        if self.max_active_attributes < 1:
            raise ValueError("max_active_attributes must be >= 1")
        if self.max_constants < 1:
            raise ValueError("max_constants must be >= 1")
        if self.max_negatives_per_pattern < 0:
            raise ValueError("max_negatives_per_pattern must be >= 0")
        cap = self.max_matches_per_pattern
        if cap is not None and cap < 1:
            raise ValueError("max_matches_per_pattern must be >= 1 (or None)")
        if self.max_candidates is not None and self.max_candidates < 0:
            raise ValueError("max_candidates must be >= 0 (or None)")


@dataclass
class EnforcementConfig:
    """Parameters of the rule *enforcement* engine (:mod:`repro.enforce`).

    Enforcement is the consumer side of discovery: a fixed rule set ``Σ``
    is validated against a live graph, repeatedly, always over the graph's
    frozen CSR index.  The policies below say how a pass reports and when
    a refresh stays incremental; where it runs is the backend's business.

    Attributes:
        backend, num_workers: the backend a *standalone*
            :class:`~repro.enforce.engine.EnforcementEngine` builds for
            itself, resolved by :func:`~repro.parallel.backend.
            resolve_execution` (``None`` = its defaults).  An engine handed
            a started backend — a session's — runs on that one, and these
            must then be ``None`` or agree with it.  Supervision comes with
            the backend: a standalone engine follows ``$REPRO_FAULT_PLAN``,
            and a caller that wants another policy passes a backend built
            with it.
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
    """

    backend: Optional[str] = None
    num_workers: Optional[int] = None
    max_delta_fraction: float = 0.25
    max_violations_per_rule: Optional[int] = None
    max_violation_samples: Optional[int] = 10
    sample_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_delta_fraction <= 1.0:
            raise ValueError("max_delta_fraction must be a fraction in [0, 1]")
        if self.max_violation_samples is not None and self.max_violation_samples < 0:
            raise ValueError("max_violation_samples must be >= 0")
        if self.max_violations_per_rule is not None and self.max_violations_per_rule < 1:
            raise ValueError("max_violations_per_rule must be >= 1")
