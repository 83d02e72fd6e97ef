"""Unit tests for versions, edits, and the manifest."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError, RecoveryError
from repro.lsm.options import Options
from repro.lsm import version as version_module
from repro.lsm.version import FileMetaData, Version, VersionEdit, VersionSet
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice
from repro.util.encoding import TYPE_VALUE, make_internal_key


def fmd(number, lo, hi, size=1000, seq=10):
    return FileMetaData(
        number=number,
        file_size=size,
        smallest=make_internal_key(lo, seq, TYPE_VALUE),
        largest=make_internal_key(hi, seq, TYPE_VALUE),
    )


def ikey(user_key, seq):
    return make_internal_key(user_key, seq, TYPE_VALUE)


@pytest.fixture
def env():
    return LocalEnv(LocalDevice(SimClock()))


class TestVersionEdit:
    def test_roundtrip(self):
        edit = VersionEdit(log_number=3, next_file_number=17, last_sequence=999)
        edit.add_file(1, fmd(5, b"a", b"m"))
        edit.add_file(2, fmd(6, b"n", b"z", size=12345))
        edit.delete_file(0, 2)
        decoded = VersionEdit.decode(edit.encode())
        assert decoded.log_number == 3
        assert decoded.next_file_number == 17
        assert decoded.last_sequence == 999
        assert decoded.deleted_files == {(0, 2)}
        assert decoded.new_files == edit.new_files

    def test_empty_edit(self):
        decoded = VersionEdit.decode(VersionEdit().encode())
        assert decoded.log_number is None
        assert not decoded.new_files

    def test_unknown_tag_raises(self):
        # Tag 9 once recorded a persisted sorted view; no store this build
        # can open holds one.
        for record in (b"\x63\x01", b"\x09\x04\x01"):
            with pytest.raises(CorruptionError):
                VersionEdit.decode(record)


class TestVersion:
    def test_apply_add_and_delete(self):
        v0 = Version(7)
        edit = VersionEdit()
        edit.add_file(0, fmd(1, b"a", b"c"))
        edit.add_file(1, fmd(2, b"a", b"m"))
        v1 = edit_apply = v0.apply(edit)
        assert v1.num_files(0) == 1
        assert v1.num_files(1) == 1
        edit2 = VersionEdit()
        edit2.delete_file(0, 1)
        v2 = v1.apply(edit2)
        assert v2.num_files(0) == 0
        assert v1.num_files(0) == 1  # immutability

    def test_overlap_invariant_enforced(self):
        v = Version(7)
        edit = VersionEdit()
        edit.add_file(1, fmd(1, b"a", b"m"))
        edit.add_file(1, fmd(2, b"k", b"z"))  # overlaps in L1
        with pytest.raises(CorruptionError):
            v.apply(edit)

    def test_l0_overlap_allowed(self):
        v = Version(7)
        edit = VersionEdit()
        edit.add_file(0, fmd(1, b"a", b"m"))
        edit.add_file(0, fmd(2, b"k", b"z"))
        v1 = v.apply(edit)
        assert v1.num_files(0) == 2

    def test_files_for_user_key_l0_newest_first(self):
        v = Version(7)
        edit = VersionEdit()
        edit.add_file(0, fmd(1, b"a", b"z"))
        edit.add_file(0, fmd(5, b"a", b"z"))
        edit.add_file(1, fmd(3, b"a", b"z"))
        v1 = v.apply(edit)
        hits = list(v1.files_for_user_key(b"m"))
        assert [(lvl, m.number) for lvl, m in hits] == [(0, 5), (0, 1), (1, 3)]

    def test_files_for_user_key_binary_search(self):
        v = Version(7)
        edit = VersionEdit()
        edit.add_file(1, fmd(1, b"a", b"f"))
        edit.add_file(1, fmd(2, b"g", b"p"))
        edit.add_file(1, fmd(3, b"q", b"z"))
        v1 = v.apply(edit)
        assert [m.number for _, m in v1.files_for_user_key(b"h")] == [2]
        assert list(v1.files_for_user_key(b"fz")) == []  # gap between files

    def test_files_for_user_key_follows_a_key_cut_across_files(self):
        """A compaction cuts its output by size, so with a snapshot keeping two
        versions of a key alive the cut can fall between them: the level then
        holds the key in two adjacent files, newer versions first, and a
        lookup that misses in the first must be offered the second."""
        edit = VersionEdit()
        edit.add_file(1, FileMetaData(1, 100, ikey(b"a", 9), ikey(b"k", 6)))
        edit.add_file(1, FileMetaData(2, 100, ikey(b"k", 1), ikey(b"k", 1)))
        edit.add_file(1, FileMetaData(3, 100, ikey(b"k", 0), ikey(b"p", 1)))
        edit.add_file(1, fmd(4, b"q", b"z"))
        v = Version(7).apply(edit)
        v.check_invariants()
        assert [m.number for _, m in v.files_for_user_key(b"k")] == [1, 2, 3]
        assert [m.number for _, m in v.files_for_user_key(b"j")] == [1]
        assert [m.number for _, m in v.files_for_user_key(b"l")] == [3]
        assert [m.number for _, m in v.files_for_user_key(b"q")] == [4]

    def test_files_for_user_key_searches_without_reading_every_file(self, monkeypatch):
        # Count how often a file's internal key is sliced into a user key.
        reads = []
        plain = version_module.extract_user_key
        monkeypatch.setattr(
            version_module, "extract_user_key", lambda ikey: reads.append(ikey) or plain(ikey)
        )
        # 64 disjoint L1 files covering k000..k002, k010..k012, ... k630..k632.
        edit = VersionEdit()
        for i in range(64):
            edit.add_file(1, fmd(i + 1, b"k%02d0" % i, b"k%02d2" % i))
        v = Version(7).apply(edit)
        # Building the fences read each file's largest key, once.
        assert sorted(reads) == sorted(f.largest for f in v.files[1])

        def linear(user_key):
            return [
                (1, f)
                for f in v.files[1]
                if plain(f.smallest) <= user_key <= plain(f.largest)
            ]

        # below, inside (both edges and middle), between and above the files
        probes = [b"a", b"k000", b"k311", b"k632", b"k315", b"k005", b"k633", b"z"]
        del reads[:]
        for user_key in probes:
            assert list(v.files_for_user_key(user_key)) == linear(user_key), user_key
        # A lookup bisects the fences and reads only its one candidate's
        # smallest key, which the file then keeps ...
        assert len(reads) == len(set(reads)) <= len(probes)
        assert set(reads) <= {f.smallest for f in v.files[1]}
        # ... so the same lookups again read nothing, here or in a child
        # version that shares the files.
        del reads[:]
        child = v.apply(VersionEdit())
        for user_key in probes:
            assert list(v.files_for_user_key(user_key)) == linear(user_key), user_key
            assert list(child.files_for_user_key(user_key)) == linear(user_key), user_key
        assert reads == []

    def test_overlapping_files_range(self):
        v = Version(7)
        edit = VersionEdit()
        edit.add_file(1, fmd(1, b"a", b"f"))
        edit.add_file(1, fmd(2, b"g", b"p"))
        edit.add_file(1, fmd(3, b"q", b"z"))
        v1 = v.apply(edit)
        assert [m.number for m in v1.overlapping_files(1, b"h", b"r")] == [2, 3]
        assert [m.number for m in v1.overlapping_files(1, None, None)] == [1, 2, 3]

    def test_overlap_expansion_below_l0_takes_the_files_a_key_was_cut_across(self):
        """Taking the file with a key's newer versions and leaving the one
        with its older versions would bury the newer beneath the older."""
        edit = VersionEdit()
        edit.add_file(1, FileMetaData(1, 100, ikey(b"a", 9), ikey(b"k", 6)))
        edit.add_file(1, FileMetaData(2, 100, ikey(b"k", 1), ikey(b"k", 1)))
        edit.add_file(1, FileMetaData(3, 100, ikey(b"k", 0), ikey(b"p", 1)))
        edit.add_file(1, fmd(4, b"q", b"z"))
        v = Version(7).apply(edit)
        assert [m.number for m in v.overlapping_files(1, None, b"a")] == [1, 2, 3]
        assert [m.number for m in v.overlapping_files(1, b"l", b"m")] == [1, 2, 3]
        assert [m.number for m in v.overlapping_files(1, b"q", None)] == [4]
        assert v.overlapping_files(1, b"pp", b"pz") == []

    def test_l0_overlap_expansion(self):
        # Picking file 1 must drag in transitively overlapping L0 files.
        v = Version(7)
        edit = VersionEdit()
        edit.add_file(0, fmd(1, b"a", b"d"))
        edit.add_file(0, fmd(2, b"c", b"g"))
        edit.add_file(0, fmd(3, b"f", b"k"))
        edit.add_file(0, fmd(4, b"x", b"z"))
        v1 = v.apply(edit)
        got = {m.number for m in v1.overlapping_files(0, b"a", b"b")}
        assert got == {1, 2, 3}

    def test_is_base_level_for_key(self):
        v = Version(7)
        edit = VersionEdit()
        edit.add_file(1, fmd(1, b"a", b"f"))
        edit.add_file(3, fmd(2, b"m", b"p"))
        v1 = v.apply(edit)
        assert v1.is_base_level_for_key(1, b"b")  # nothing below L1 holds "b"
        assert not v1.is_base_level_for_key(1, b"n")  # L3 file may hold "n"
        assert v1.is_base_level_for_key(3, b"n")

    def test_bytes_accounting(self):
        v = Version(7)
        edit = VersionEdit()
        edit.add_file(1, fmd(1, b"a", b"f", size=100))
        edit.add_file(2, fmd(2, b"a", b"f", size=200))
        v1 = v.apply(edit)
        assert v1.level_bytes(1) == 100
        assert v1.total_bytes() == 300
        assert v1.live_file_numbers() == {1, 2}


KEYS = [b"a", b"c", b"e", b"g", b"i"]
# Every file bound, and a key between each two, as a scan bound or a probe.
BOUNDS = [None, *KEYS, *(key + b"\x00" for key in KEYS)]


@st.composite
def versions(draw):
    """A version over ``KEYS``: overlapping L0 files, and sorted, disjoint
    files below with their user keys cut across neighbours at random (a
    file's largest user key equal to the next one's smallest). Sequence
    numbers fall along a level, so each level sorts by internal key."""
    edit = VersionEdit()
    number = 0
    for level in range(7):
        if level == 0:
            ranges = [sorted(pair) for pair in draw(st.lists(st.lists(st.sampled_from(KEYS), min_size=2, max_size=2), max_size=4))]
        else:
            bounds = sorted(draw(st.lists(st.sampled_from(KEYS), max_size=8)))
            ranges = [bounds[at : at + 2] for at in range(0, len(bounds) - 1, 2)]
        for index, (lo, hi) in enumerate(ranges):
            number += 1
            seq = 1000 - 2 * index
            edit.add_file(level, FileMetaData(number, 1000, ikey(lo, seq), ikey(hi, seq - 1)))
    return Version(7).apply(edit)


class TestFences:
    @given(versions())
    @settings(max_examples=150, deadline=None)
    def test_scan_files_is_the_linear_half_open_filter(self, v):
        for begin in BOUNDS:
            for end in BOUNDS:
                l0_files, *levels = [
                    [
                        f
                        for f in files
                        if not (begin is not None and f.largest_user_key < begin)
                        and not (end is not None and f.smallest_user_key >= end)
                    ]
                    for files in v.files
                ]
                linear = (l0_files, [files for files in levels if files])
                assert v.scan_files(begin, end) == linear, (begin, end)

    @given(versions())
    @settings(max_examples=150, deadline=None)
    def test_is_base_level_for_key_is_the_linear_walk(self, v):
        for level in range(7):
            for user_key in BOUNDS[1:]:
                linear = not any(
                    f.smallest_user_key <= user_key <= f.largest_user_key
                    for files in v.files[level + 1 :]
                    for f in files
                )
                assert v.is_base_level_for_key(level, user_key) == linear, (level, user_key)

    def test_a_file_starting_at_end_or_ending_at_begin(self):
        edit = VersionEdit()
        edit.add_file(1, fmd(1, b"a", b"c"))
        edit.add_file(1, fmd(2, b"e", b"g"))
        v = Version(7).apply(edit)

        def numbers(begin, end):
            return [[f.number for f in files] for files in v.scan_files(begin, end)[1]]

        assert numbers(None, b"e") == [[1]]  # end is exclusive
        assert numbers(b"c", None) == [[1, 2]]  # begin is inclusive
        assert numbers(b"c", b"e") == [[1]]
        assert numbers(b"d", b"e") == []


class TestVersionSet:
    def test_create_and_recover(self, env):
        options = Options()
        vs = VersionSet(env, "db/", options)
        vs.create()
        edit = VersionEdit(last_sequence=50)
        edit.add_file(0, fmd(3, b"a", b"z"))
        vs.log_and_apply(edit)
        vs.close()

        vs2 = VersionSet(env, "db/", options)
        vs2.recover()
        assert vs2.last_sequence == 50
        assert vs2.current.num_files(0) == 1
        assert vs2.next_file_number >= 4

    def test_recover_missing_current(self, env):
        vs = VersionSet(env, "nodb/", Options())
        with pytest.raises(RecoveryError):
            vs.recover()

    def test_file_numbers_monotonic(self, env):
        vs = VersionSet(env, "db/", Options())
        vs.create()
        numbers = [vs.new_file_number() for _ in range(5)]
        assert numbers == sorted(set(numbers))

    def test_recover_then_continue_appending(self, env):
        options = Options()
        vs = VersionSet(env, "db/", options)
        vs.create()
        edit = VersionEdit()
        edit.add_file(1, fmd(3, b"a", b"m"))
        vs.log_and_apply(edit)
        vs.close()

        vs2 = VersionSet(env, "db/", options)
        vs2.recover()
        edit2 = VersionEdit()
        edit2.add_file(1, fmd(4, b"n", b"z"))
        vs2.log_and_apply(edit2)
        vs2.close()

        vs3 = VersionSet(env, "db/", options)
        vs3.recover()
        assert vs3.current.num_files(1) == 2

    def test_manifest_bytes_grow(self, env):
        vs = VersionSet(env, "db/", Options())
        vs.create()
        before = vs.manifest_bytes()
        edit = VersionEdit()
        edit.add_file(0, fmd(3, b"a", b"z"))
        vs.log_and_apply(edit)
        assert vs.manifest_bytes() > before
