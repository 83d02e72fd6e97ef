"""Baseline: RocksDB directly on cloud object storage.

Everything — WAL, manifest, SSTables — is an object. Cheapest capacity,
worst latency, and a brutal write path: objects are immutable, so every WAL
sync re-uploads the whole log (quadratic traffic, one round trip per
write). The paper's argument for keeping the WAL and metadata local rests
on exactly this cost, which the baseline tests document.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.facade import StoreFacade
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.metrics.counters import CounterSet
from repro.sim.clock import SimClock, StopwatchRegion
from repro.sim.latency import LatencyModel, cloud_object_storage
from repro.storage.cloud import CloudObjectStore
from repro.storage.cost import CostModel
from repro.storage.env import CloudEnv
from repro.storage.local import LocalDevice


@dataclass
class CloudOnlyConfig:
    """Configuration for the cloud-only baseline."""

    options: Options = field(default_factory=Options)
    cloud_model: LatencyModel = field(default_factory=cloud_object_storage)
    cost_model: CostModel = field(default_factory=CostModel)
    db_prefix: str = "db/"

    def small(self) -> "CloudOnlyConfig":
        return replace(self, options=Options.small())


class CloudOnlyStore(StoreFacade):
    """Plain LSM DB on the object store (DRAM block cache only)."""

    name = "cloud-only"

    def __init__(
        self,
        config: CloudOnlyConfig,
        *,
        clock: SimClock,
        cloud_store: CloudObjectStore,
        counters: CounterSet,
    ) -> None:
        self.config = config
        self.clock = clock
        self.cloud_store = cloud_store
        self.counters = counters
        self.cost_model = config.cost_model
        # A zero-byte "local device" only so the facade's occupancy
        # accounting is uniform; nothing is ever written to it.
        self.local_device = LocalDevice(clock, counters=counters)
        self._init_facade()
        with StopwatchRegion(clock) as sw:
            self.db = DB.open(CloudEnv(cloud_store), config.db_prefix, config.options)
        self.last_recovery_seconds = sw.elapsed

    @classmethod
    def create(
        cls, config: CloudOnlyConfig | None = None, *, clock: SimClock | None = None
    ) -> "CloudOnlyStore":
        config = config or CloudOnlyConfig()
        clock = clock or SimClock()
        counters = CounterSet()
        cloud = CloudObjectStore(clock, config.cloud_model, counters=counters)
        return cls(config, clock=clock, cloud_store=cloud, counters=counters)

    def reopen(self, *, crash: bool = False) -> "CloudOnlyStore":
        """Restart; cloud objects are durable, so crash == clean stop here."""
        if not crash:
            self.close()
        return type(self)(
            self.config,
            clock=self.clock,
            cloud_store=self.cloud_store,
            counters=self.counters,
        )
