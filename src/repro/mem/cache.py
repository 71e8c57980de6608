"""Set-associative cache model with LRU replacement.

The cache stores tags and per-line state only; functional data always lives
in :class:`repro.mem.main_memory.MainMemory`.  This "timing cache, functional
memory" split is a standard simulator simplification: the incoherence the
paper studies is between the local memory and the *system memory* (caches +
main memory), which DMA keeps coherent, so no information is lost by holding
SM data in a single functional store.

Write policies follow Table 1: the L1 data cache is write-through (writes are
propagated to the next level and lines are never dirty), L2 and L3 are
write-back (dirty lines generate a write-back access to the next level when
evicted).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

import numpy as np


@dataclass
class CacheStats:
    """Activity counters of one cache level.

    ``accesses`` follows the paper's broad accounting (Table 3): every tag
    lookup counts, whether it comes from a demand access, a prefetch, a line
    fill, a write-through/write-back from an inner level, or a DMA bus
    request (lookup or invalidation).
    """

    accesses: int = 0
    demand_accesses: int = 0
    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations: int = 0
    prefetch_lookups: int = 0
    prefetch_fills: int = 0
    dma_lookups: int = 0
    writethrough_accesses: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "accesses": self.accesses,
            "demand_accesses": self.demand_accesses,
            "hits": self.hits,
            "misses": self.misses,
            "fills": self.fills,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "invalidations": self.invalidations,
            "prefetch_lookups": self.prefetch_lookups,
            "prefetch_fills": self.prefetch_fills,
            "dma_lookups": self.dma_lookups,
            "writethrough_accesses": self.writethrough_accesses,
        }


def sets_fit(lines, size_bytes: int, assoc: int,
             line_size: int) -> np.ndarray:
    """Per set of a ``size_bytes`` cache of ``assoc`` ways and
    ``line_size``-byte lines: whether the distinct line addresses ``lines``
    (an ``int64`` array) that map to it fit in its ways.  A set that starts
    empty and receives no more distinct lines than it has ways never
    evicts."""
    num_sets = size_bytes // (assoc * line_size)
    per_set = np.bincount(lines // line_size % num_sets, minlength=num_sets)
    return per_set <= assoc


class Cache:
    """A single set-associative cache level.

    Parameters
    ----------
    name:
        Level name (``"L1D"``, ``"L2"``, ...), used in reports.
    size_bytes:
        Total capacity.
    assoc:
        Associativity (number of ways).
    line_size:
        Cache-line size in bytes.
    latency:
        Hit latency in cycles.
    write_back:
        ``True`` for write-back (L2/L3), ``False`` for write-through (L1D).
    write_allocate:
        Whether a write miss allocates the line (default ``True``).
    """

    def __init__(self, name: str, size_bytes: int, assoc: int, line_size: int,
                 latency: int, write_back: bool = True,
                 write_allocate: bool = True):
        if size_bytes < assoc * line_size:
            raise ValueError(
                f"{name}: size {size_bytes} smaller than one set (assoc*line_size)")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_size = line_size
        self.latency = latency
        self.write_back = write_back
        self.write_allocate = write_allocate
        self.num_sets = size_bytes // (assoc * line_size)
        # Each set is an OrderedDict mapping line address -> dirty flag,
        # ordered from LRU (first) to MRU (last).
        self._sets: Dict[int, "OrderedDict[int, bool]"] = {}
        # The union of the sets' lines, kept in step with every fill,
        # eviction, invalidation and flush: a DMA burst finds the lines
        # the cache holds with one intersection (see snoop_batch).
        self._resident: Set[int] = set()
        self.stats = CacheStats()

    # -- address helpers -------------------------------------------------------
    def line_address(self, addr: int) -> int:
        """Return the line-aligned address containing byte address ``addr``."""
        return addr - (addr % self.line_size)

    def _set_index(self, line_addr: int) -> int:
        return (line_addr // self.line_size) % self.num_sets

    # -- basic operations ------------------------------------------------------
    def lookup(self, line_addr: int, update_lru: bool = True) -> bool:
        """Tag lookup.  Returns True on hit.  Does not count statistics."""
        s = self._sets.get(self._set_index(line_addr))
        if s is None or line_addr not in s:
            return False
        if update_lru:
            s.move_to_end(line_addr)
        return True

    def access(self, addr: int, is_write: bool, *, kind: str = "demand") -> bool:
        """Perform a demand-style access to ``addr``.

        Returns True on hit.  Marks the line dirty on a write hit if the
        cache is write-back.  ``kind`` selects the statistics bucket:
        ``"demand"``, ``"prefetch"``, ``"writethrough"`` or ``"dma"``.
        """
        # line_address()/_set_index() inlined: this is the hottest method in
        # the whole simulator (every demand access, write-through, prefetch
        # lookup and instruction fetch lands here).
        line_size = self.line_size
        line = addr - (addr % line_size)
        stats = self.stats
        stats.accesses += 1
        if kind == "demand":
            stats.demand_accesses += 1
        elif kind == "prefetch":
            stats.prefetch_lookups += 1
        elif kind == "writethrough":
            stats.writethrough_accesses += 1
        elif kind == "dma":
            stats.dma_lookups += 1
        s = self._sets.get((line // line_size) % self.num_sets)
        hit = s is not None and line in s
        if hit:
            if kind == "demand":
                stats.hits += 1
            s.move_to_end(line)
            if is_write and self.write_back:
                s[line] = True
        else:
            if kind == "demand":
                stats.misses += 1
        return hit

    def settle_fetches(self, addrs) -> None:
        """Settle a stream of instruction fetches: one demand read
        :meth:`access` per byte address of ``addrs`` (a sequence of ints or
        an ``int64`` array), each miss followed by a :meth:`fill` of its
        line.  Same contents, LRU order and statistics as that walk.

        The walk is settled set by set.  A fetch of the line fetched just
        before hits the set's MRU line and changes nothing, so the walk
        only sees line changes, grouped by set with numpy (sets evolve
        independently).  A set that starts empty and sees no more distinct
        lines than it has ways never evicts: each distinct line misses
        once, and the set ends holding its lines in last-touch order.  Only
        the other sets are walked, one fetch at a time.
        """
        lines = np.asarray(addrs, np.int64)
        count = len(lines)
        if not count:
            return
        line_size = self.line_size
        num_sets = self.num_sets
        lines = lines - lines % line_size
        change = np.empty(count, np.bool_)
        change[0] = True
        np.not_equal(lines[1:], lines[:-1], out=change[1:])
        heads = lines[change]
        set_of = heads // line_size % num_sets
        distinct, first_rev = np.unique(heads[::-1], return_index=True)
        last_touch = len(heads) - 1 - first_rev
        distinct_set = distinct // line_size % num_sets
        fast = sets_fit(distinct, self.size_bytes, self.assoc, line_size)
        sets = self._sets
        held = [idx for idx, s in sets.items() if s]
        if held:
            fast[held] = False
        # Sets that never evict: one miss and one fill per distinct line,
        # filled in last-touch order.
        settled = fast[distinct_set]
        new_lines = distinct[settled]
        misses = len(new_lines)
        hits = count - len(heads) + int(np.count_nonzero(fast[set_of])) - misses
        fill = self.fill
        for line in new_lines[np.argsort(last_touch[settled])].tolist():
            fill(line)
        # The other sets, walked in stream order.
        for line in heads[~fast[set_of]].tolist():
            s = sets.get(line // line_size % num_sets)
            if s is not None and line in s:
                hits += 1
                s.move_to_end(line)
            else:
                misses += 1
                fill(line)
        stats = self.stats
        stats.accesses += count
        stats.demand_accesses += count
        stats.hits += hits
        stats.misses += misses

    def fill(self, addr: int, dirty: bool = False,
             is_prefetch: bool = False) -> Optional[Tuple[int, bool]]:
        """Place the line containing ``addr`` in the cache.

        Returns ``(evicted_line_address, was_dirty)`` when a victim had to be
        evicted, else ``None``.  Filling an already-present line only updates
        LRU/dirty state.
        """
        line = self.line_address(addr)
        idx = self._set_index(line)
        s = self._sets.setdefault(idx, OrderedDict())
        self.stats.accesses += 1
        self.stats.fills += 1
        if is_prefetch:
            self.stats.prefetch_fills += 1
        if line in s:
            s.move_to_end(line)
            if dirty and self.write_back:
                s[line] = True
            return None
        evicted = None
        if len(s) >= self.assoc:
            victim_line, victim_dirty = s.popitem(last=False)
            self._resident.discard(victim_line)
            self.stats.evictions += 1
            if victim_dirty and self.write_back:
                self.stats.writebacks += 1
            evicted = (victim_line, victim_dirty and self.write_back)
        s[line] = dirty and self.write_back
        self._resident.add(line)
        return evicted

    def invalidate(self, addr: int) -> Tuple[bool, bool]:
        """Invalidate the line containing ``addr``.

        Returns ``(was_present, was_dirty)``.  Used by coherent DMA put
        transfers (Section 2.1) and by tests.
        """
        line = self.line_address(addr)
        s = self._sets.get(self._set_index(line))
        self.stats.accesses += 1
        self.stats.invalidations += 1
        if s is None or line not in s:
            return (False, False)
        dirty = s.pop(line)
        self._resident.discard(line)
        return (True, dirty)

    def snoop_batch(self, lines, invalidate: bool) -> list:
        """The coherent DMA snoops of one burst of line addresses, in order:
        one ``access(line, False, kind="dma")`` each (a dma-get lookup), or
        with ``invalidate`` one :meth:`invalidate` each (a dma-put).  Same
        contents, LRU order and statistics; returns the lines the cache
        does not hold (all of them after an invalidation).

        A burst's lines are mostly absent, so one intersection with the
        resident lines finds the held ones, and only those are touched, in
        burst order (a lookup moves its line to MRU)."""
        held = self._resident.intersection(lines)
        stats = self.stats
        count = len(lines)
        stats.accesses += count
        if invalidate:
            stats.invalidations += count
            if held:
                sets = self._sets
                line_size = self.line_size
                num_sets = self.num_sets
                for line in held:
                    del sets[line // line_size % num_sets][line]
                self._resident -= held
            return lines
        stats.dma_lookups += count
        if not held:
            return lines
        sets = self._sets
        line_size = self.line_size
        num_sets = self.num_sets
        for line in lines:
            if line in held:
                sets[line // line_size % num_sets].move_to_end(line)
        return [line for line in lines if line not in held]

    def probe(self, addr: int) -> bool:
        """Check presence without disturbing LRU or statistics."""
        line = self.line_address(addr)
        s = self._sets.get(self._set_index(line))
        return s is not None and line in s

    def is_dirty(self, addr: int) -> bool:
        """Return True if the line containing ``addr`` is present and dirty."""
        line = self.line_address(addr)
        s = self._sets.get(self._set_index(line))
        return bool(s) and s.get(line, False)

    def flush(self) -> int:
        """Drop all lines; returns the number of dirty lines discarded."""
        dirty = sum(
            1 for s in self._sets.values() for d in s.values() if d)
        self._sets.clear()
        self._resident.clear()
        return dirty

    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident (for tests)."""
        return len(self._resident)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Cache({self.name}, {self.size_bytes // 1024}KB, "
                f"{self.assoc}-way, {'WB' if self.write_back else 'WT'})")
