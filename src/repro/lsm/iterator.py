"""Iterator machinery: k-way merge over memtables and tables, user view.

Internal iterators yield ``(internal_key, value)`` in internal-key order
(user key ascending, sequence descending). :func:`merge_internal` is
``heapq.merge`` keyed on that order; :func:`visible_user_entries` collapses
the merged stream into the user-visible view at a snapshot sequence —
newest visible entry per user key, tombstones suppressing older values.

A reverse scan runs the same chain over descending sources: the merge and
the clamp take ``reverse``, tested once before their loops start, while
visibility keeps a descending implementation of its own — a different
algorithm (the *last* visible entry wins), not a mirror image.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

from repro.util.encoding import (
    MAX_SEQUENCE,
    TYPE_DELETION,
    internal_order,
    parse_internal_key,
)

InternalEntry = tuple[bytes, bytes]  # (internal_key, value)


def merge_internal(
    sources: list[Iterator[InternalEntry]], *, reverse: bool = False
) -> Iterator[InternalEntry]:
    """K-way merge of internal iterators into one ordered stream.

    With ``reverse`` the sources must yield entries in *descending*
    internal-key order, and the merged stream does too. Lazy: nothing is
    pulled before the first ``next``, which takes one entry per source;
    after that only the source whose entry was just yielded advances —
    block fetch order, and so the simulated clock, depends on it.
    """
    return iter(
        heapq.merge(*sources, key=lambda entry: internal_order(entry[0]), reverse=reverse)
    )


def visible_user_entries(
    merged: Iterator[InternalEntry], sequence: int = MAX_SEQUENCE
) -> Iterator[tuple[bytes, bytes]]:
    """User-visible ``(user_key, value)`` pairs at snapshot ``sequence``.

    For each user key, the first entry with seq <= sequence wins (internal
    order puts newer entries first); a winning tombstone hides the key.
    """
    current_user_key: bytes | None = None
    for ikey, value in merged:
        parsed = parse_internal_key(ikey)
        if parsed.sequence > sequence:
            continue  # not yet visible at this snapshot
        if parsed.user_key == current_user_key:
            continue  # older shadowed entry
        current_user_key = parsed.user_key
        if parsed.value_type == TYPE_DELETION:
            continue
        yield parsed.user_key, value


def visible_user_entries_reverse(
    merged: Iterator[InternalEntry], sequence: int = MAX_SEQUENCE
) -> Iterator[tuple[bytes, bytes]]:
    """User-visible pairs in *descending* user-key order.

    The reversed internal stream delivers each user key's entries oldest
    first (sequence ascending), so the winner for a key is the *last*
    visible entry seen before the key changes; it is emitted at the key
    boundary.
    """
    current_key: bytes | None = None
    candidate: tuple[int, bytes] | None = None  # (value_type, value)

    def emit() -> tuple[bytes, bytes] | None:
        if (
            current_key is not None
            and candidate is not None
            and candidate[0] != TYPE_DELETION
        ):
            return (current_key, candidate[1])
        return None

    for ikey, value in merged:
        parsed = parse_internal_key(ikey)
        if parsed.user_key != current_key:
            out = emit()
            if out is not None:
                yield out
            current_key = parsed.user_key
            candidate = None
        if parsed.sequence <= sequence:
            candidate = (parsed.value_type, value)
    out = emit()
    if out is not None:
        yield out


def clamp_to_range(
    entries: Iterator[tuple[bytes, bytes]],
    begin: bytes | None = None,
    end: bytes | None = None,
    *,
    reverse: bool = False,
) -> Iterator[tuple[bytes, bytes]]:
    """Restrict a user-entry stream to user keys in [begin, end).

    Keys before the range (in stream order) are skipped and the first key
    past it ends consumption; ``reverse`` says the stream is descending.
    """
    if reverse:
        for user_key, value in entries:
            if end is not None and user_key >= end:
                continue
            if begin is not None and user_key < begin:
                return
            yield user_key, value
        return
    for user_key, value in entries:
        if begin is not None and user_key < begin:
            continue
        if end is not None and user_key >= end:
            return
        yield user_key, value
