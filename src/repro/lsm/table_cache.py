"""Table cache: open SSTable readers, keyed by file number.

Opening a table costs real I/O (footer + index + filter reads), so readers
are kept open for the life of the file. The cache also owns the *loader
wrapper* hook: store variants (persistent cache, rocksdb-cloud file cache)
wrap the direct block loader to intercept every block fetch. The DRAM block
cache holds parsed blocks above that chain (``block_cache.load_data_block``).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.lsm.block_cache import LRUBlockCache
from repro.lsm.format import table_file_name
from repro.lsm.options import Options
from repro.lsm.table_reader import BlockLoader, TableReader, direct_block_loader
from repro.storage.env import Env, RandomAccessFile

# Given (file_name, file, next_loader) return the loader actually used.
LoaderWrapper = Callable[[str, RandomAccessFile, BlockLoader], BlockLoader]


class TableCache:
    """Lazily opens and retains TableReaders for live SSTables."""

    def __init__(
        self,
        env: Env,
        prefix: str,
        options: Options,
        *,
        loader_wrapper: LoaderWrapper | None = None,
        block_cache: LRUBlockCache | None = None,
        footer_source: Callable[[str], bytes | None] | None = None,
        filter_hook: Callable[[str], None] | None = None,
    ) -> None:
        self.env = env
        self.prefix = prefix
        self.options = options
        self.loader_wrapper = loader_wrapper
        self.block_cache = block_cache
        self.footer_source = footer_source
        self.filter_hook = filter_hook
        """Optional bloom-probe observer handed to every reader this cache
        opens (see ``TableReader.filter_hook``)."""
        self._readers: dict[int, TableReader] = {}
        self._loaders: dict[int, tuple[str, BlockLoader]] = {}

    def _open(self, name: str) -> tuple[RandomAccessFile, BlockLoader]:
        file = self.env.new_random_access_file(name)
        loader = direct_block_loader(file)
        if self.loader_wrapper is not None:
            loader = self.loader_wrapper(name, file, loader)
        return file, loader

    def get_reader(self, number: int) -> TableReader:
        reader = self._readers.get(number)
        if reader is None:
            name = table_file_name(self.prefix, number)
            file, loader = self._open(name)
            footer_bytes = (
                self.footer_source(name) if self.footer_source is not None else None
            )
            reader = TableReader(
                self.options,
                file,
                block_loader=loader,
                block_cache=self.block_cache,
                footer_bytes=footer_bytes,
                filter_hook=self.filter_hook,
            )
            self._readers[number] = reader
        return reader

    def data_loader(self, number: int) -> tuple[str, BlockLoader]:
        """(file_name, loader) for data-block reads without a TableReader.

        The sorted view already knows every block's handle, so view scans
        skip reader construction entirely — no footer/index/filter I/O —
        and fetch data blocks straight through the same wrapped loader
        chain (pcache, prefetch buffers) a reader would use.
        """
        cached = self._loaders.get(number)
        if cached is not None:
            return cached
        name = table_file_name(self.prefix, number)
        reader = self._readers.get(number)
        # Reuse an open reader's file + loader chain (and any readahead
        # state accumulated on it).
        loader = reader.loader if reader is not None else self._open(name)[1]
        entry = self._loaders[number] = (name, loader)
        return entry

    def has_reader(self, number: int) -> bool:
        """Is a reader for this table already open (no I/O either way)?

        The scan-prefetch pipeline uses this to hand already-open readers
        off for free instead of speculatively re-opening them.
        """
        return number in self._readers

    def evict(self, number: int) -> None:
        """Forget a deleted table's reader."""
        self._readers.pop(number, None)
        self._loaders.pop(number, None)

    def clear(self) -> None:
        self._readers.clear()
        self._loaders.clear()

    def __len__(self) -> int:
        return len(self._readers)
