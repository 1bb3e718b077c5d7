"""The serving layer (PR 10): enforcement-as-a-service over MVCC snapshots.

The package turns the single-caller :class:`~repro.session.Session` into
a concurrent service without giving up its one-backend resource model:

* :mod:`~repro.serve.snapshots` — the refcounted MVCC version chain of
  frozen index snapshots + enforcement reports (readers pin, writers
  publish, retirement releases through the PR 9 store/janitor seams);
* :mod:`~repro.serve.writer` — the group-commit protocol: batched
  mutations through the :class:`~repro.enforce.delta.DeltaLog`, one
  delta-aware refresh, one published version;
* :mod:`~repro.serve.service` — the asyncio request layer (admission
  control, deadlines, per-request budgets, metrics, and one computed
  answer per state for validate / cover / discover);
* :mod:`~repro.serve.http` — a stdlib-only HTTP front with a
  ``/metrics`` Prometheus endpoint;
* :mod:`~repro.serve.loadgen` — the mixed-traffic load generator behind
  the serving tests and the ``serve_mixed`` workload of
  ``benchmarks/e2e``.

Quickstart::

    import asyncio
    from repro.serve import EnforcementService, ServeConfig

    async def main():
        async with EnforcementService(graph, sigma=rules) as service:
            report = await service.validate()
            await service.mutate([{"op": "set_attr", "node": 0,
                                   "attr": "name", "value": "x"}])
            report = await service.validate()   # next version

    asyncio.run(main())

Or from the CLI: ``repro-gfd serve graph.json --rules sigma.json``.
"""

from .http import serve_http
from .loadgen import LoadResult, TrafficMix, run_load
from .service import (
    DeadlineExceeded,
    EnforcementService,
    ServeConfig,
    ServiceClosed,
    ServiceOverloaded,
    report_payload,
)
from .snapshots import Snapshot, SnapshotChain, SnapshotLease
from .writer import GroupCommitWriter, MutationOp, apply_ops

__all__ = [
    "EnforcementService",
    "ServeConfig",
    "ServiceOverloaded",
    "ServiceClosed",
    "DeadlineExceeded",
    "report_payload",
    "Snapshot",
    "SnapshotChain",
    "SnapshotLease",
    "GroupCommitWriter",
    "MutationOp",
    "apply_ops",
    "serve_http",
    "run_load",
    "LoadResult",
    "TrafficMix",
]
