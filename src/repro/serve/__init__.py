"""Multi-tenant sharded serving layer over the RocksMash store.

Two pieces, mirroring a production serving stack:

* :mod:`repro.serve.sharded` — :class:`~repro.serve.sharded.ShardedDB`, a
  key-space-partitioned router over N independent RocksMash shards (one
  memtable/WAL/manifest/placement stack each) that share the simulated
  devices. Cross-shard reads, flushes and compactions fan out as fork/join
  branches; a write batch stays inside one shard.
* :mod:`repro.serve.frontend` — an open-loop request scheduler: Poisson
  arrivals from a deterministic seed, per-shard FIFO queueing with bounded
  admission, and queueing/service/latency attribution into histograms. It
  drives any :class:`~repro.facade.StoreFacade` through the facade's own
  request call (:meth:`~repro.facade.StoreFacade.serve`): a store serves on
  one timeline, a node on one per shard.

Both consume the deterministic YCSB op stream
(:func:`repro.workloads.ycsb.iter_ops`), so a sharded and an unsharded
execution of the same ``(spec, seed)`` are byte-identical and can be
digest-compared end to end.
"""

from repro.serve.frontend import FrontendConfig, ServingResult, run_open_loop
from repro.serve.sharded import KeyRangeRouter, ServeConfig, ShardedDB

__all__ = [
    "FrontendConfig",
    "KeyRangeRouter",
    "ServeConfig",
    "ServingResult",
    "ShardedDB",
    "run_open_loop",
]
