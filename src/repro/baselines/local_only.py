"""Baseline: RocksDB on local storage only.

The performance upper bound (and cost upper bound): everything — WAL,
manifest, every SSTable — lives on the fast local device. The paper uses it
to show RocksMash approaches local performance at a fraction of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.facade import StoreFacade
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.metrics.counters import CounterSet
from repro.sim.clock import SimClock, StopwatchRegion
from repro.storage.cost import CostModel
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice


@dataclass
class LocalOnlyConfig:
    """Configuration for the local-only baseline."""

    options: Options = field(default_factory=Options)
    cost_model: CostModel = field(default_factory=CostModel)
    db_prefix: str = "db/"

    def small(self) -> "LocalOnlyConfig":
        return replace(self, options=Options.small())


class LocalOnlyStore(StoreFacade):
    """Plain LSM DB on the local device."""

    name = "local-only"

    def __init__(
        self,
        config: LocalOnlyConfig,
        *,
        clock: SimClock,
        local_device: LocalDevice,
        counters: CounterSet,
    ) -> None:
        self.config = config
        self.clock = clock
        self.local_device = local_device
        self.cloud_store = None
        self.counters = counters
        self.cost_model = config.cost_model
        self._init_facade()
        with StopwatchRegion(clock) as sw:
            self.db = DB.open(LocalEnv(local_device), config.db_prefix, config.options)
        self.last_recovery_seconds = sw.elapsed

    @classmethod
    def create(
        cls, config: LocalOnlyConfig | None = None, *, clock: SimClock | None = None
    ) -> "LocalOnlyStore":
        config = config or LocalOnlyConfig()
        clock = clock or SimClock()
        counters = CounterSet()
        device = LocalDevice(clock, counters=counters)
        return cls(config, clock=clock, local_device=device, counters=counters)

    def reopen(self, *, crash: bool = False) -> "LocalOnlyStore":
        if crash:
            self.local_device.crash()
        else:
            self.close()
        return type(self)(
            self.config,
            clock=self.clock,
            local_device=self.local_device,
            counters=self.counters,
        )
