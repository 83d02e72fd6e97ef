"""Storage substrate: local device, cloud object store, Env, cost model."""

from repro.storage.cloud import CloudObjectStore
from repro.storage.cost import CostModel, MonthlyBill
from repro.storage.env import (
    CLOUD,
    LOCAL,
    CloudEnv,
    Env,
    HybridEnv,
    LocalEnv,
    RandomAccessFile,
    WritableFile,
)
from repro.storage.local import LocalDevice

__all__ = [
    "CLOUD",
    "LOCAL",
    "CloudEnv",
    "CloudObjectStore",
    "CostModel",
    "Env",
    "HybridEnv",
    "LocalDevice",
    "LocalEnv",
    "MonthlyBill",
    "RandomAccessFile",
    "WritableFile",
]
