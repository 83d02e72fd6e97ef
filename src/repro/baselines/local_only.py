"""Baseline: RocksDB on local storage only.

The performance upper bound (and cost upper bound): everything — WAL,
manifest, every SSTable — lives on the fast local device. The paper uses it
to show RocksMash approaches local performance at a fraction of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.facade import DB_PREFIX, StoreFacade
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.metrics.counters import CounterSet
from repro.sim.clock import SimClock
from repro.storage.cost import CostModel
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice


@dataclass
class LocalOnlyConfig:
    """Configuration for the local-only baseline."""

    options: Options = field(default_factory=Options)
    cost_model: CostModel = field(default_factory=CostModel)

    def small(self) -> "LocalOnlyConfig":
        return replace(self, options=Options.small())


class LocalOnlyStore(StoreFacade[DB]):
    """Plain LSM DB on the local device."""

    name = "local-only"

    def _open_db(self) -> DB:
        return DB.open(LocalEnv(self.local_device), DB_PREFIX, self.config.options)

    @classmethod
    def create(
        cls, config: LocalOnlyConfig | None = None, *, clock: SimClock | None = None
    ) -> "LocalOnlyStore":
        config = config or LocalOnlyConfig()
        clock = clock or SimClock()
        counters = CounterSet()
        device = LocalDevice(clock, counters=counters)
        return cls(
            config, clock=clock, local_device=device, cloud_store=None, counters=counters
        )
