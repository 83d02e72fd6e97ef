"""Iterator machinery: k-way merges over memtables and tables.

Entries are :data:`~repro.util.encoding.Entry` tuples ``(user_key,
neg_trailer, value)``, which sort natively in internal-key order (user key
ascending, sequence descending). Compaction merges entry streams with
:func:`merge_internal` (``heapq.merge``); a scan merges sorted *lists* — the
memtable's rows, one list per table block — a run at a time with
:func:`merge_runs`, and ``DB.scan`` turns the runs into user rows.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator

from repro.util.encoding import Entry


def merge_internal(sources: list[Iterator[Entry]]) -> Iterator[Entry]:
    """K-way merge of internal iterators into one ordered stream.

    Lazy: nothing is pulled before the first ``next``, which takes one
    entry per source; after that only the source whose entry was just
    yielded advances. One internal key present in two sources (a WAL
    replayed over a flush that already committed) comes out twice, the
    earlier source's copy first.
    """
    return iter(heapq.merge(*sources))


def merge_runs(sources: list[Iterable[list[Entry]]]) -> Iterator[list[Entry]]:
    """K-way merge of sources of sorted lists, one *run* per ``next``: the
    stretch of the lowest source's list that sorts before every other head.

    Flattened, the runs are ``heapq.merge`` over the flattened sources, ties
    included (the earlier source's entry first), and every source list is
    pulled at the pull where ``heapq.merge`` would pull its first entry:
    one list per source at the first ``next``, and a source's next list at
    the pull after its current list's last entry went out. Block fetch
    order — and so the simulated clock, cloud requests and prefetch events
    — rides on that order. A run may be a source's own list: never mutate one.
    """
    heap = []  # [head, order, rows, at, len(rows), lists] per live source
    for order, source in enumerate(sources):
        lists = iter(source)
        for rows in lists:
            if rows:
                heap.append([rows[0], order, rows, 0, len(rows), lists])
                break
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while len(heap) > 1:
        item = pop(heap)
        _, order, rows, at, size, lists = item
        head = heap[0]
        # Ties go to the earlier source, as in heapq.merge.
        stop = (bisect_right if order < head[1] else bisect_left)(rows, head[0], at)
        if stop < size:
            yield rows[at:stop]
            item[0], item[3] = rows[stop], stop
            push(heap, item)
            continue
        yield rows[at:] if at else rows
        for rows in lists:
            if rows:
                item[0], item[2], item[3], item[4] = rows[0], rows, 0, len(rows)
                push(heap, item)
                break
    if heap:
        _, _, rows, at, _, lists = heap[0]
        yield rows[at:] if at else rows
        yield from lists
