"""Iterator machinery: k-way merge over memtables and tables, user view.

Internal iterators yield :data:`~repro.util.encoding.Entry` tuples
``(user_key, neg_trailer, value)``, which sort natively in internal-key
order (user key ascending, sequence descending). :func:`merge_internal` is
``heapq.merge`` over them; :func:`visible_user_entries` collapses the merged
stream into the user-visible view at a snapshot sequence — newest visible
entry per user key, tombstones suppressing older values.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

from repro.util.encoding import MAX_SEQUENCE, TYPE_DELETION, Entry


def merge_internal(sources: list[Iterator[Entry]]) -> Iterator[Entry]:
    """K-way merge of internal iterators into one ordered stream.

    Lazy: nothing is pulled before the first ``next``, which takes one
    entry per source; after that only the source whose entry was just
    yielded advances — block fetch order, and so the simulated clock,
    depends on it. One
    internal key present in two sources (a WAL replayed over a flush that
    already committed) comes out twice, the earlier source's copy first.
    """
    return iter(heapq.merge(*sources))


def visible_user_entries(
    merged: Iterator[Entry], sequence: int = MAX_SEQUENCE
) -> Iterator[tuple[bytes, bytes]]:
    """User-visible ``(user_key, value)`` pairs at snapshot ``sequence``.

    For each user key, the first entry with seq <= sequence wins (internal
    order puts newer entries first); a winning tombstone hides the key.
    """
    current_user_key: bytes | None = None
    newest_visible = -((sequence << 8) | 0xFF)
    for user_key, neg_trailer, value in merged:
        if neg_trailer < newest_visible:
            continue  # not yet visible at this snapshot
        if user_key == current_user_key:
            continue  # older shadowed entry
        current_user_key = user_key
        if -neg_trailer & 0xFF == TYPE_DELETION:
            continue
        yield user_key, value


def clamp_to_range(
    entries: Iterator[tuple[bytes, bytes]],
    begin: bytes | None = None,
    end: bytes | None = None,
) -> Iterator[tuple[bytes, bytes]]:
    """Restrict a user-entry stream to user keys in [begin, end).

    Keys before the range are skipped and the first key past it ends
    consumption.
    """
    for user_key, value in entries:
        if begin is not None and user_key < begin:
            continue
        if end is not None and user_key >= end:
            return
        yield user_key, value
