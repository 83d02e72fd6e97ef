"""Exception hierarchy for the repro package.

Mirrors RocksDB's ``Status`` taxonomy with Python exceptions: callers can
catch :class:`ReproError` for anything raised by the library, or a specific
subclass when they want to distinguish, e.g., data corruption from a missing
object.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class CorruptionError(ReproError):
    """Stored bytes failed a checksum or structural validation."""


class NotFoundError(ReproError, KeyError):
    """A key, file, or object does not exist.

    Subclasses :class:`KeyError` so idiomatic ``except KeyError`` also works
    for point lookups.
    """

    def __str__(self) -> str:  # KeyError repr()s its args; we want a message
        return Exception.__str__(self)


class InvalidArgumentError(ReproError, ValueError):
    """An argument is out of range or inconsistent with configuration."""


class IOErrorSim(ReproError):
    """A (possibly injected) I/O failure from a simulated device."""


class DeviceFullError(IOErrorSim):
    """A local device has no room for an append."""


class ClosedError(ReproError):
    """Operation attempted on a closed database, file, or cache."""


class RecoveryError(ReproError):
    """The write-ahead log or manifest could not be replayed."""
