"""Differential oracles for the parse-once search structures.

``TableReader`` answers seeks from an index decoded once into parallel lists
and ``Version.files_for_user_key`` from fence lists built once per version.
The references here are the lookups those replaced (``get_at`` is now
``get(target, handle)``), kept verbatim: every
probe re-seeks the index *block* through ``Block.seek`` (a ``key=`` bisect
that re-decodes a restart entry per step), and a version is filtered file by
file. The references still speak the interface they were written against —
byte targets in, ``(internal_key, value)`` pairs out, ``Block(data, order)`` —
through the adapter below; the reader under test takes seek goals and hands
out decoded entries, converted where the two are compared.
Hypothesis drives both over the cases the lists could get wrong — one
user key's versions straddling block boundaries, targets below the first key,
above the last, and equal to an index separator, whole-table and partitioned
filters, and a reader walked end to end *before* its first seek.
"""

from bisect import bisect_left

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.block import Block as DecodedBlock
from repro.lsm.format import decode_handle
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_reader import TableReader
from repro.lsm.version import FileMetaData, Version, VersionEdit
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice
from repro.util.bloom import BloomFilterPolicy
from repro.util.encoding import (
    MAX_SEQUENCE,
    TYPE_DELETION,
    TYPE_VALUE,
    entry_key,
    extract_user_key,
    internal_order,
    make_internal_key,
)


class Block:
    """The read-side block as the references knew it, over today's decoder:
    the boundary where byte targets become goals and entries become pairs."""

    def __init__(self, data, order):
        assert order is internal_order
        self._block = DecodedBlock(data)

    def __iter__(self):
        return ((entry_key(key, neg), value) for key, neg, value in self._block)

    def seek(self, target):
        found = self._block.seek(internal_order(target))
        return ((entry_key(key, neg), value) for key, neg, value in found)


def split(pairs):
    """Reference ``(internal_key, value)`` pairs as decoded entries."""
    return [(*internal_order(ikey), value) for ikey, value in pairs]


def split_one(pair):
    return None if pair is None else split([pair])[0]


# -- the replaced TableReader lookups, verbatim (self -> reader) ------------


def _ref_boundary(entries, target):
    return bisect_left(
        entries, internal_order(target), key=lambda entry: internal_order(entry[0])
    )


def _ref_load_data_block(reader, handle):
    return Block(reader.stack.read(handle), internal_order)


def ref_get(reader, target):
    user_key = extract_user_key(target)
    probed = reader._filter is not None
    if probed:
        reader._note_filter("checked")
        if not BloomFilterPolicy.key_may_match(user_key, reader._filter):
            reader._note_filter("useful")
            return None
    for _index_key, handle_bytes in reader._index.seek(target):
        handle, _ = decode_handle(handle_bytes)
        block = _ref_load_data_block(reader, handle)
        for key, value in block.seek(target):
            if probed and extract_user_key(key) != user_key:
                reader._note_filter("false_positive")
            return key, value
    if probed:
        reader._note_filter("false_positive")
    return None


def ref_block_refs(reader):
    out = []
    for last_key, handle_bytes in reader._index:
        handle, _ = decode_handle(handle_bytes)
        out.append((last_key, handle))
    return out


def ref_edge_data_handle(reader, target=None):
    index_entries = list(reader._index)
    position = 0 if target is None else _ref_boundary(index_entries, target)
    if position >= len(index_entries):
        return None
    handle, _ = decode_handle(index_entries[position][1])
    return handle


def ref_entries(reader, target=None):
    index_iter = reader._index.seek(target) if target is not None else iter(reader._index)
    seek_target = target  # applies to the first block only
    for _, handle_bytes in index_iter:
        handle, _ = decode_handle(handle_bytes)
        block = _ref_load_data_block(reader, handle)
        if seek_target is not None:
            yield from block.seek(seek_target)
            seek_target = None
        else:
            yield from block


def ref_range_iter(reader, begin=None, end=None):
    target = None
    if begin is not None:
        target = make_internal_key(begin, MAX_SEQUENCE, TYPE_VALUE)
    index_iter = reader._index.seek(target) if target is not None else iter(reader._index)
    first_block = target is not None
    for _, handle_bytes in index_iter:
        handle, _ = decode_handle(handle_bytes)
        block = _ref_load_data_block(reader, handle)
        entries = block.seek(target) if first_block else iter(block)
        first_block = False
        if end is None:
            yield from entries
            continue
        for ikey, value in entries:
            if extract_user_key(ikey) >= end:
                return
            yield ikey, value


# -- tables -----------------------------------------------------------------

# A two-letter alphabet and short keys make shared prefixes, repeats and
# near misses common; up to six versions of a key against 64-byte blocks
# (one or two entries each) puts one user key's versions in several blocks.
user_keys = st.text(alphabet="ab", min_size=1, max_size=4).map(str.encode)
versions = st.lists(
    st.tuples(st.integers(1, 40), st.sampled_from([TYPE_VALUE, TYPE_DELETION])),
    min_size=1,
    max_size=6,
    unique_by=lambda version: version[0],
)
tables = st.dictionaries(user_keys, versions, min_size=1, max_size=12)


def build_readers(table, block_size):
    """The same table file opened twice: (entries, reader, reference reader)."""
    entries = sorted(
        (
            (make_internal_key(key, seq, vtype), b"%s@%d" % (key, seq))
            for key, key_versions in table.items()
            for seq, vtype in key_versions
        ),
        key=lambda entry: internal_order(entry[0]),
    )
    env = LocalEnv(LocalDevice(SimClock()))
    options = Options(block_size=block_size, block_cache_bytes=0)
    builder = TableBuilder(options, env.new_writable_file("t.sst"))
    for ikey, value in entries:
        builder.add(*internal_order(ikey), value)
    builder.finish()
    reader, reference = (
        TableReader(options, env.new_random_access_file("t.sst")) for _ in range(2)
    )
    reference._index = Block(reference._index._data, internal_order)
    return entries, reader, reference


def probe_targets(entries, reference, extra_keys):
    """Internal-key probes: around every stored entry, at every index
    separator, below the first key and above the last, and at keys absent
    from the table."""
    targets = [make_internal_key(b"", MAX_SEQUENCE, TYPE_VALUE)]
    targets += [last_key for last_key, _ in ref_block_refs(reference)]
    for ikey, _ in entries:
        user_key = extract_user_key(ikey)
        targets += [ikey, make_internal_key(user_key, MAX_SEQUENCE, TYPE_VALUE)]
        targets.append(make_internal_key(user_key, 0, TYPE_DELETION))
    for user_key in extra_keys:
        targets.append(make_internal_key(user_key, 20, TYPE_VALUE))
    targets.append(make_internal_key(b"c", 1, TYPE_VALUE))
    return targets


class TestParsedIndexMatchesIndexBlockSeeks:
    @given(
        tables,
        st.sampled_from([64, 160, 4096]),
        st.lists(user_keys, max_size=6),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_lookup_agrees(self, table, block_size, extra_keys, walk_first):
        entries, reader, reference = build_readers(table, block_size)
        if walk_first:
            # A whole-table walk (compaction input) must leave no parsed index
            # behind, and must not disturb the seeks that follow.
            assert list(reader.entries()) == split(entries)
            assert list(reader.range_iter()) == split(entries)
            assert reader._parsed is None
        assert reader.edge_data_handle() == ref_edge_data_handle(reference)
        assert list(reader.entries()) == split(ref_entries(reference))
        for target in probe_targets(entries, reference, extra_keys):
            goal = internal_order(target)
            assert reader.get(goal) == split_one(ref_get(reference, target)), target
            assert reader.filter_stats == reference.filter_stats, target
            assert reader.edge_data_handle(goal) == ref_edge_data_handle(
                reference, target
            ), target
            assert list(reader.entries(goal)) == split(ref_entries(reference, target)), target
        bounds = [None, b"", *sorted({extract_user_key(ikey) for ikey, _ in entries}), b"c"]
        bounds += extra_keys
        for begin in bounds:
            for end in (None, b"ab", b"b", b"c"):
                assert list(reader.range_iter(begin, end)) == split(
                    ref_range_iter(reference, begin, end)
                ), (begin, end)


# -- Version.files_for_user_key against a linear filter ---------------------


def file_meta(number, lo, hi):
    return FileMetaData(
        number,
        1000,
        make_internal_key(lo, 9, TYPE_VALUE),
        make_internal_key(hi, 3, TYPE_VALUE),
    )


@st.composite
def version_edits(draw):
    """One edit: overlapping L0 files in any number order, and deeper levels
    (some left empty) of disjoint files with gaps between them."""
    edit = VersionEdit()
    number = 0
    l0_numbers = draw(st.lists(st.integers(1, 50), unique=True, max_size=5))
    for l0_number in l0_numbers:
        lo, hi = sorted(draw(st.tuples(user_keys, user_keys)))
        edit.add_file(0, file_meta(100 + l0_number, lo, hi))
    for level in range(1, 5):
        cuts = sorted(draw(st.sets(user_keys, max_size=8)))
        for lo, hi in zip(cuts[::2], cuts[1::2]):  # [lo, hi] pairs, gaps between
            number += 1
            edit.add_file(level, file_meta(number, lo, hi))
    return edit


def ref_files_for_user_key(version, user_key):
    """File by file: L0 newest (highest number) first, then levels in order."""
    found = [
        (0, meta)
        for meta in sorted(version.files[0], key=lambda m: -m.number)
        if extract_user_key(meta.smallest) <= user_key <= extract_user_key(meta.largest)
    ]
    for level in range(1, len(version.files)):
        found += [
            (level, meta)
            for meta in version.files[level]
            if extract_user_key(meta.smallest) <= user_key <= extract_user_key(meta.largest)
        ]
    return found


class TestFenceRoutingMatchesLinearFilter:
    @given(version_edits(), st.lists(user_keys, max_size=8))
    @settings(max_examples=120, deadline=None)
    def test_files_for_user_key(self, edit, extra_keys):
        version = Version(7).apply(edit)
        probes = [b"", b"c", *extra_keys]
        for _, meta in edit.new_files:  # every file edge, and just past it
            for edge in (extract_user_key(meta.smallest), extract_user_key(meta.largest)):
                probes += [edge, edge + b"\x00"]
        for user_key in probes:
            assert list(version.files_for_user_key(user_key)) == ref_files_for_user_key(
                version, user_key
            ), user_key
        # The next version routes by its own files, not the parent's fences.
        drop = VersionEdit()
        for level, meta in edit.new_files[::2]:
            drop.delete_file(level, meta.number)
        child = version.apply(drop)
        for user_key in probes:
            assert list(child.files_for_user_key(user_key)) == ref_files_for_user_key(
                child, user_key
            ), user_key
