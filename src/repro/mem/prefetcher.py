"""IP-based stream prefetcher (Table 1).

The simulated core uses an instruction-pointer indexed stream prefetcher in
the style of Chen & Baer [30] and the Intel Core stream prefetcher [31]: a
table indexed by the PC of the memory instruction records the last address
and stride; once the same stride is observed twice the entry becomes
confident and prefetches ``degree`` lines ahead of the demand stream.

The prefetcher is a key actor in the paper's evaluation: in the cache-based
baseline the many concurrent strided streams collide in this table and the
prefetched lines cause conflict misses, whereas in the hybrid memory system
the strided accesses are served by the local memory and never train the
prefetcher (Section 4.3).
"""

from __future__ import annotations

from collections import OrderedDict


class _StreamEntry:
    __slots__ = ("last_addr", "stride", "confidence")

    def __init__(self, last_addr: int):
        self.last_addr = last_addr
        self.stride = 0
        self.confidence = 0


class StreamPrefetcher:
    """Per-PC stride/stream detector.

    Parameters
    ----------
    table_size:
        Number of PC-indexed entries (streams tracked concurrently).  When
        more streams are live than entries exist, entries are evicted and
        retrained, which models the "collisions in the history tables"
        described in Section 4.3.
    degree:
        Number of consecutive lines prefetched once a stream is confident.
    distance:
        How many strides ahead of the demand access the prefetches start.
    line_size:
        Cache-line size in bytes.
    """

    def __init__(self, table_size: int = 16, degree: int = 2,
                 distance: int = 1, line_size: int = 64):
        self.table_size = table_size
        self.degree = degree
        self.distance = distance
        self.line_size = line_size
        # PC -> entry, ordered LRU-first (the dict doubles as the LRU list;
        # the separate O(n) recency list was a measured hot path).
        self._table: "OrderedDict[int, _StreamEntry]" = OrderedDict()
        self.trainings = 0
        self.issued = 0
        self.collisions = 0

    def train(self, pc: int, addr: int):
        """Observe a demand access; returns line addresses to prefetch.

        The detector works at cache-line granularity (like hardware stream
        prefetchers): repeated accesses inside the same line keep the stream
        alive without perturbing the detected stride, and once two identical
        line-to-line strides are seen the stream prefetches ``degree`` lines
        starting ``distance`` strides ahead of the demand access.  The
        no-prefetch paths return an empty tuple (not a fresh list).
        :meth:`MemoryHierarchy.demand
        <repro.mem.hierarchy.MemoryHierarchy.demand>` runs the same
        detector inline, calling :meth:`repeat` for a repeated stride.
        """
        self.trainings += 1
        line_addr = addr - (addr % self.line_size)
        table = self._table
        entry = table.get(pc)
        if entry is None:
            if len(table) >= self.table_size:
                # A full table evicts its LRU stream; the entry object is
                # reused for the new one (no allocation per collision).
                _, entry = table.popitem(last=False)
                self.collisions += 1
                entry.last_addr = line_addr
                entry.stride = entry.confidence = 0
                table[pc] = entry
            else:
                table[pc] = _StreamEntry(line_addr)
            return ()
        table.move_to_end(pc)
        stride = line_addr - entry.last_addr
        if stride == 0:
            return ()
        if stride != entry.stride:
            entry.stride = stride
            entry.confidence = 0
            entry.last_addr = line_addr
            return ()
        return self.repeat(entry, line_addr)

    def repeat(self, entry: _StreamEntry, line_addr: int):
        """A stream's access to ``line_addr`` repeated its stride: raise its
        confidence and return the lines to prefetch (the confident case of
        :meth:`train`, which ``MemoryHierarchy.demand`` also calls)."""
        entry.confidence = min(entry.confidence + 1, 3)
        entry.last_addr = line_addr
        prefetches = []
        base = line_addr + entry.stride * self.distance
        for i in range(1, self.degree + 1):
            target = base + entry.stride * i
            line = target - (target % self.line_size)
            if line not in prefetches:
                prefetches.append(line)
        self.issued += len(prefetches)
        return prefetches

    def reset(self) -> None:
        self._table.clear()
        self.trainings = 0
        self.issued = 0
        self.collisions = 0

    @property
    def live_streams(self) -> int:
        return len(self._table)
