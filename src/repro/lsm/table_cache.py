"""Table cache: open SSTable readers, keyed by file number.

Opening a table costs real I/O (footer + index + filter reads), so readers
are kept open for the life of the file. The cache also builds each table's
:class:`~repro.lsm.block_cache.BlockStack` — from the factory a store variant
installs (persistent cache, rocksdb-cloud file cache) — through which every
block of the table is read.
"""

from __future__ import annotations

from repro.lsm.block_cache import BlockPath, BlockStack, StackFactory
from repro.lsm.format import table_file_name
from repro.lsm.options import Options
from repro.lsm.table_reader import TableReader
from repro.storage.env import Env


class TableCache:
    """Lazily opens and retains TableReaders for live SSTables."""

    def __init__(
        self,
        env: Env,
        prefix: str,
        options: Options,
        *,
        path: BlockPath | None = None,
        stack_factory: StackFactory = BlockStack,
    ) -> None:
        self.env = env
        self.prefix = prefix
        self.options = options
        self.path = path if path is not None else BlockPath()
        self.stack_factory = stack_factory
        self._readers: dict[int, TableReader] = {}

    def get_reader(self, number: int) -> TableReader:
        reader = self._readers.get(number)
        if reader is None:
            name = table_file_name(self.prefix, number)
            stack = self.stack_factory(name, self.env.new_random_access_file(name), self.path)
            reader = self._readers[number] = TableReader(self.options, stack.file, stack=stack)
        return reader

    def has_reader(self, number: int) -> bool:
        """Is a reader for this table already open (no I/O either way)?

        A scan's prefetch schedule (:class:`~repro.lsm.block_cache.ScanReads`)
        uses this to hand an already-open reader with nothing to prime off
        for free instead of speculating on it.
        """
        return number in self._readers

    def evict(self, number: int) -> None:
        """Forget a deleted table's reader."""
        self._readers.pop(number, None)

    def clear(self) -> None:
        self._readers.clear()

    def __len__(self) -> int:
        return len(self._readers)
