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
from typing import Dict, Optional, Tuple


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

    @property
    def hit_ratio(self) -> float:
        """Demand hit ratio (hits / demand accesses), in [0, 1]."""
        if self.demand_accesses == 0:
            return 0.0
        return self.hits / self.demand_accesses


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

    def access_batch(self, addrs, is_write: bool = False, *,
                     kind: str = "demand", fill_misses: bool = False):
        """Perform one :meth:`access` per address; returns the hit flags.

        Exactly equivalent to ``[self.access(a, is_write, kind=kind) for a
        in addrs]`` — same tag/LRU/dirty state, same statistics — and, with
        ``fill_misses``, to additionally calling :meth:`fill(a)` after every
        miss (the instruction-fetch pattern).  Set/tag math and the set table
        are bound to locals so batch replay pays them once per slice instead
        of once per access.
        """
        line_size = self.line_size
        num_sets = self.num_sets
        sets = self._sets
        assoc = self.assoc
        write_back = self.write_back
        dirty_on_hit = is_write and write_back
        setdefault = sets.setdefault
        flags = []
        append = flags.append
        hits = 0
        fills = 0
        evictions = 0
        writebacks = 0
        for addr in addrs:
            line = addr - (addr % line_size)
            s = sets.get((line // line_size) % num_sets)
            hit = s is not None and line in s
            if hit:
                hits += 1
                s.move_to_end(line)
                if dirty_on_hit:
                    s[line] = True
            elif fill_misses:
                if s is None:
                    s = setdefault((line // line_size) % num_sets,
                                   OrderedDict())
                fills += 1
                if len(s) >= assoc:
                    _, victim_dirty = s.popitem(last=False)
                    evictions += 1
                    if victim_dirty and write_back:
                        writebacks += 1
                s[line] = False
            append(hit)
        stats = self.stats
        count = len(flags)
        stats.accesses += count + fills
        if kind == "demand":
            stats.demand_accesses += count
            stats.hits += hits
            stats.misses += count - hits
        elif kind == "prefetch":
            stats.prefetch_lookups += count
        elif kind == "writethrough":
            stats.writethrough_accesses += count
        elif kind == "dma":
            stats.dma_lookups += count
        stats.fills += fills
        stats.evictions += evictions
        stats.writebacks += writebacks
        return flags

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
            self.stats.evictions += 1
            if victim_dirty and self.write_back:
                self.stats.writebacks += 1
            evicted = (victim_line, victim_dirty and self.write_back)
        s[line] = dirty and self.write_back
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
        return (True, dirty)

    def snoop_batch(self, lines, invalidate: bool) -> list:
        """The coherent DMA snoops of one burst of line addresses, in order:
        one ``access(line, False, kind="dma")`` each (a dma-get lookup), or
        with ``invalidate`` one :meth:`invalidate` each (a dma-put).  Same
        contents, LRU order and statistics; returns the lines the cache
        does not hold (all of them after an invalidation).

        A burst's lines are mostly absent, so one comprehension finds the
        held ones and only those are touched."""
        line_size = self.line_size
        num_sets = self.num_sets
        get = self._sets.get
        empty = ()
        held = [line for line in lines
                if line in (get(line // line_size % num_sets) or empty)]
        stats = self.stats
        count = len(lines)
        stats.accesses += count
        if invalidate:
            stats.invalidations += count
            for line in held:
                del get(line // line_size % num_sets)[line]
            return lines
        stats.dma_lookups += count
        if not held:
            return lines
        for line in held:
            get(line // line_size % num_sets).move_to_end(line)
        held = set(held)
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
        return dirty

    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident (for tests)."""
        return sum(len(s) for s in self._sets.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Cache({self.name}, {self.size_bytes // 1024}KB, "
                f"{self.assoc}-way, {'WB' if self.write_back else 'WT'})")
