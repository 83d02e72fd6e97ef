"""Differential oracle for heat inheritance.

``ReferenceTracker`` is the tracker as it stood before heat went per-file
and the overlap search became a bisect sweep: one flat ``(file, offset)``
heat dict, and ``blocks_overlapping`` walked once per (hot input block ×
output file). The production tracker must return the *same list* — same
candidates, same order, floats equal to the last bit — and leave the same
heat behind, because pre-warm candidates sit on a threshold and a budget
cut that one ulp can move.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.compaction import CompactionEvent, CompactionOutput
from repro.lsm.format import BlockHandle
from repro.lsm.table_builder import BlockMeta, TableProperties
from repro.lsm.version import FileMetaData
from repro.mash import layout
from repro.mash.layout import HEAT_DECAY, BlockHeatTracker, LayoutConfig
from repro.util.encoding import TYPE_VALUE, extract_user_key, internal_order, make_internal_key


# -- the reference: the previous implementation, verbatim ------------------


@dataclass
class _FileBlocks:
    """Sorted block ranges of one table (user-key space)."""

    metas: list[BlockMeta]
    last_user_keys: list[bytes] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.last_user_keys = [extract_user_key(m.last_key) for m in self.metas]

    def blocks_overlapping(self, lo: bytes, hi: bytes) -> list[BlockMeta]:
        """Blocks whose user-key range intersects [lo, hi]."""
        start = bisect_left(self.last_user_keys, lo)
        out = []
        for meta in self.metas[start:]:
            if extract_user_key(meta.first_key) > hi:
                break
            out.append(meta)
        return out


class ReferenceTracker:
    def __init__(self, config):
        self.config = config
        self._files = {}
        self._heat = {}
        self.inherited_heat_total = 0.0

    def register_file(self, file_name, blocks):
        self._files[file_name] = _FileBlocks(list(blocks))

    def forget_file(self, file_name):
        self._files.pop(file_name, None)
        for key in [k for k in self._heat if k[0] == file_name]:
            del self._heat[key]

    def record_access(self, file_name, block_offset, weight=1.0):
        key = (file_name, block_offset)
        self._heat[key] = self._heat.get(key, 0.0) + weight

    def heat_of(self, file_name, block_offset):
        return self._heat.get((file_name, block_offset), 0.0)

    def file_heat(self, file_name):
        return sum(v for (name, _), v in self._heat.items() if name == file_name)

    def plan_inheritance(self, event, name_of):
        if not self.config.aware or event.trivial_move:
            return []
        contributions: list[tuple[bytes, bytes, float]] = []  # (lo, hi, heat)
        for meta in event.input_files:
            file_name = name_of(meta.number)
            fb = self._files.get(file_name)
            if fb is None:
                continue
            for block in fb.metas:
                heat = self.heat_of(file_name, block.handle.offset)
                if heat > 0:
                    contributions.append(
                        (
                            extract_user_key(block.first_key),
                            extract_user_key(block.last_key),
                            heat,
                        )
                    )
        if not contributions:
            return []

        candidates: list[tuple[str, BlockMeta, float]] = []
        for output in event.outputs:
            out_name = name_of(output.meta.number)
            fb = self._files.get(out_name)
            if fb is None:
                continue
            inherited: dict[int, float] = {}
            for lo, hi, heat in contributions:
                overlapping = fb.blocks_overlapping(lo, hi)
                if not overlapping:
                    continue
                share = heat * HEAT_DECAY / len(overlapping)
                for block in overlapping:
                    inherited[block.handle.offset] = (
                        inherited.get(block.handle.offset, 0.0) + share
                    )
            for block in fb.metas:
                h = inherited.get(block.handle.offset, 0.0)
                if h >= self.config.prewarm_heat_threshold:
                    candidates.append((out_name, block, h))
                if h > 0:
                    # Seed the new block's heat so future compactions keep
                    # propagating it.
                    self.record_access(out_name, block.handle.offset, h)
        candidates.sort(key=lambda item: -item[2])
        capped = candidates[: layout.PREWARM_BUDGET_BLOCKS]
        self.inherited_heat_total += sum(h for _, _, h in capped)
        return capped


# -- generated compactions ---------------------------------------------------

NAME_OF = lambda number: f"db/{number:06d}.sst"


@dataclass
class Table:
    number: int
    pairs: list[tuple[int, int]]  # (user key, sequence) of every entry
    blocks: list[BlockMeta]
    registered: bool  # False: the tracker never saw this table's layout

    @property
    def name(self) -> str:
        return NAME_OF(self.number)


# A small key space, so L0-style inputs overlap heavily, several versions of
# one user key are common, and a block boundary often falls between them.
pair_lists = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 6)), min_size=1, max_size=40, unique=True
)
weights = st.one_of(
    st.integers(1, 9).map(float),
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
)
configs = st.builds(
    LayoutConfig,
    aware=st.sampled_from([True, True, True, False]),
    prewarm_heat_threshold=st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 1e9]),
)
budgets = st.sampled_from([0, 1, 2, 3, 256])
"""Values ``layout.PREWARM_BUDGET_BLOCKS`` is patched to: the cut has to
land inside a plan of a handful of blocks to be seen."""
mostly = st.integers(0, 9).map(bool)


def make_table(draw, number, pairs):
    """Chunk the sorted internal keys of ``pairs`` into blocks of 1-4 entries."""
    ikeys = sorted(
        (make_internal_key(b"k%03d" % key, seq, TYPE_VALUE) for key, seq in pairs),
        key=internal_order,
    )
    blocks, offset = [], 0
    while ikeys:
        take = draw(st.integers(1, 4))
        chunk, ikeys = ikeys[:take], ikeys[take:]
        blocks.append(BlockMeta(chunk[0], chunk[-1], BlockHandle(offset, 100)))
        offset += 105
    return Table(number, pairs, blocks, draw(mostly))


@st.composite
def input_tables(draw, first_number, min_files=1):
    """Independently drawn tables: L0-style, overlapping one another."""
    return [
        make_table(draw, first_number + i, draw(pair_lists))
        for i in range(draw(st.integers(min_files, 3)))
    ]


@st.composite
def merged_outputs(draw, inputs, first_number):
    """The merge of ``inputs`` minus dropped entries, cut into 0-3 tables.

    A dropped run leaves a gap between two output blocks for a hot input
    block to fall into; a table may hold no block at all; the merge may be
    cut short (fewer outputs than entries).
    """
    merged = sorted(
        {pair for table in inputs for pair in table.pairs}, key=lambda pair: (pair[0], -pair[1])
    )
    kept = [pair for pair in merged if draw(st.integers(0, 4))]
    outputs = []
    for i in range(draw(st.integers(0, 3))):
        take = draw(st.integers(0, 15))
        outputs.append(make_table(draw, first_number + i, kept[:take]))
        kept = kept[take:]
    return outputs


def heat_up(draw, trackers, tables):
    """Register the tables that are to be known, then read some blocks.

    Heat lands on unregistered tables too: the loader records it for any
    table it reads.
    """
    accesses = [
        (table.name, block.handle.offset, draw(weights))
        for table in tables
        for block in table.blocks
        if draw(st.booleans())
    ]
    for tracker in trackers:
        for table in tables:
            if table.registered:
                tracker.register_file(table.name, table.blocks)
        for name, offset, weight in accesses:
            tracker.record_access(name, offset, weight)


def compact(trackers, inputs, outputs):
    """One compaction on every tracker, the way the store drives it."""
    meta = lambda table: FileMetaData(table.number, 1000, b"", b"")
    event = CompactionEvent(
        level=0,
        output_level=1,
        input_files=[meta(table) for table in inputs],
        outputs=[
            CompactionOutput(meta(table), TableProperties(blocks=table.blocks))
            for table in outputs
        ],
        dropped_entries=0,
    )
    plans = []
    for tracker in trackers:
        for table in outputs:
            if table.registered:
                tracker.register_file(table.name, table.blocks)
        plans.append(tracker.plan_inheritance(event, NAME_OF))
    return plans


def assert_same_heat(new, ref, tables):
    assert new.inherited_heat_total == ref.inherited_heat_total
    for table in tables:
        assert new.file_heat(table.name) == ref.file_heat(table.name)
        heat = new._heat.get(table.name, {})  # block offset -> heat
        for block in table.blocks:
            offset = block.handle.offset
            assert heat.get(offset, 0.0) == ref.heat_of(table.name, offset)


class TestInheritanceMatchesReference:
    @given(configs, budgets, st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_compaction(self, config, budget, data):
        new, ref = BlockHeatTracker(config), ReferenceTracker(config)
        inputs = data.draw(input_tables(1))
        heat_up(data.draw, (new, ref), inputs)
        outputs = data.draw(merged_outputs(inputs, 50))
        with mock.patch.object(layout, "PREWARM_BUDGET_BLOCKS", budget):
            got, want = compact((new, ref), inputs, outputs)
        assert got == want
        assert_same_heat(new, ref, inputs + outputs)

    @given(configs, budgets, st.data())
    @settings(max_examples=200, deadline=None)
    def test_two_chained_compactions(self, config, budget, data):
        """The second compaction merges the first one's outputs — whose only
        heat is what the first seeded — with fresh, heated tables."""
        new, ref = BlockHeatTracker(config), ReferenceTracker(config)
        inputs = data.draw(input_tables(1))
        heat_up(data.draw, (new, ref), inputs)
        outputs = data.draw(merged_outputs(inputs, 50))
        with mock.patch.object(layout, "PREWARM_BUDGET_BLOCKS", budget):
            got, want = compact((new, ref), inputs, outputs)
        assert got == want
        for table in inputs:  # what the store does when a table is deleted
            new.forget_file(table.name)
            ref.forget_file(table.name)
        assert_same_heat(new, ref, inputs + outputs)

        fresh = data.draw(input_tables(100, min_files=0))
        heat_up(data.draw, (new, ref), fresh)
        second = data.draw(merged_outputs(outputs + fresh, 150))
        with mock.patch.object(layout, "PREWARM_BUDGET_BLOCKS", budget):
            got, want = compact((new, ref), outputs + fresh, second)
        assert got == want
        assert_same_heat(new, ref, inputs + outputs + fresh + second)
