"""The cache hierarchy of the simulated core (Table 1).

:class:`MemoryHierarchy` glues together the L1 data cache, L2, L3, the
IP-based stream prefetcher, the MSHR file, the bus and main memory.  It
provides these entry points:

* :meth:`access` / :meth:`demand` — demand loads/stores issued by the core
  (the cache-served path of the hybrid memory system, and every access of
  the cache-based baseline);
* :meth:`fetch` — the instruction fetches of a run, settled in one batch;
* :meth:`snoop_read_lines` — the coherent bus requests of one dma-get
  burst, looking up the caches for the valid copy of each line before
  falling back to main memory (Section 2.1);
* :meth:`snoop_invalidate_lines` — the coherent bus requests of one dma-put
  burst, writing main memory and invalidating each line in the whole
  hierarchy (Section 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.mem.bus import Bus
from repro.mem.cache import Cache
from repro.mem.main_memory import MainMemory
from repro.mem.mshr import MSHRFile
from repro.mem.prefetcher import StreamPrefetcher, _StreamEntry


@dataclass(slots=True)
class AccessResult:
    """Outcome of a demand access made through :meth:`MemoryHierarchy.access`
    (the memory system's own path, :meth:`MemoryHierarchy.demand`, returns
    the same two values as a tuple)."""

    latency: float
    level: str  # "L1", "L2", "L3" or "MEM"


@dataclass
class MemoryHierarchyConfig:
    """Sizes and latencies of the cache hierarchy (defaults follow Table 1)."""

    line_size: int = 64
    l1_size: int = 32 * 1024
    l1_assoc: int = 8
    l1_latency: int = 2
    l1i_size: int = 32 * 1024
    l1i_assoc: int = 8
    l1i_latency: int = 2
    l2_size: int = 256 * 1024
    l2_assoc: int = 24
    l2_latency: int = 15
    l3_size: int = 4 * 1024 * 1024
    l3_assoc: int = 32
    l3_latency: int = 40
    memory_latency: int = 150
    mshr_entries: int = 16
    bus_latency_per_line: int = 4
    prefetch_enabled: bool = True
    prefetch_table_size: int = 16
    prefetch_degree: int = 4
    prefetch_distance: int = 4

    def copy_with(self, **kwargs) -> "MemoryHierarchyConfig":
        """Return a copy with some fields overridden."""
        data = self.__dict__.copy()
        data.update(kwargs)
        return MemoryHierarchyConfig(**data)


class MemoryHierarchy:
    """Cycle-approximate model of the SM side (caches + main memory).

    With ``uncore`` set (multicore), the main memory and the bus are the
    *shared* instances of that uncore, and demand misses reaching memory —
    plus, via :meth:`uncore_delay`, DMA bursts — pay its arbitration's
    queueing delay.  Without one (every single-core system), behaviour and
    timing are bit-for-bit what they always were.
    """

    def __init__(self, config: Optional[MemoryHierarchyConfig] = None,
                 uncore=None):
        self.config = config or MemoryHierarchyConfig()
        c = self.config
        self.uncore = uncore
        # A clustered per-core port (ClusterUncore.port) carries the
        # hierarchical demand/DMA paths; the flat Uncore does not, and its
        # pre-cluster arithmetic below stays bit-identical.
        self._mem_port = uncore if hasattr(uncore, "mem_path") else None
        self.l1 = Cache("L1D", c.l1_size, c.l1_assoc, c.line_size,
                        c.l1_latency, write_back=False)
        self.l1i = Cache("L1I", c.l1i_size, c.l1i_assoc, c.line_size,
                         c.l1i_latency, write_back=False)
        self.l2 = Cache("L2", c.l2_size, c.l2_assoc, c.line_size,
                        c.l2_latency, write_back=True)
        self.l3 = Cache("L3", c.l3_size, c.l3_assoc, c.line_size,
                        c.l3_latency, write_back=True)
        if uncore is not None:
            self.memory = uncore.memory
            self.bus = uncore.bus
        else:
            self.memory = MainMemory(latency=c.memory_latency)
            self.bus = Bus(c.bus_latency_per_line)
        self.mshr = MSHRFile(c.mshr_entries)
        self.prefetcher = StreamPrefetcher(
            table_size=c.prefetch_table_size, degree=c.prefetch_degree,
            distance=c.prefetch_distance, line_size=c.line_size)
        # Aggregate counters
        self.demand_accesses = 0
        self.total_latency = 0.0
        self.icache_accesses = 0
        # Flattened per-access constants and the L1 set and prefetcher
        # tables, which live as long as the hierarchy (the demand path runs
        # per retired memory instruction).
        self._prefetch_enabled = c.prefetch_enabled
        self._l1_latency = float(c.l1_latency)
        self._line_size = c.line_size
        self._l1_sets = self.l1._sets
        self._l1_num_sets = self.l1.num_sets
        self._prefetch_table = self.prefetcher._table

    # -- demand path -----------------------------------------------------------
    def access(self, addr: int, is_write: bool, pc: int = 0,
               now: float = 0.0) -> AccessResult:
        """Demand access from the core.  Returns latency and serving level."""
        return AccessResult(*self.demand(addr, is_write, pc, now))

    def demand(self, addr: int, is_write: bool, pc: int,
               now: float) -> Tuple[float, str]:
        """The demand path of :meth:`access`, returning ``(latency,
        level)``.

        The L1 lookup (:meth:`Cache.access` of a demand access; the L1 is
        write-through, so a hit never dirties its line) and the
        prefetcher's training (:meth:`StreamPrefetcher.train`: a new
        stream, an access to the stream's current line, a new stride) run
        inline; misses and repeated strides, which prefetch, take the full
        calls.  This runs once per SM load or store, on execution and in
        the vector oracle pass alike.
        """
        self.demand_accesses += 1
        line_size = self._line_size
        line = addr - addr % line_size
        stats = self.l1.stats
        stats.accesses += 1
        stats.demand_accesses += 1
        s = self._l1_sets.get((line // line_size) % self._l1_num_sets)
        if s is not None and line in s:
            stats.hits += 1
            s.move_to_end(line)
            latency = self._l1_latency
            level = "L1"
            if is_write:
                # Write-through L1: propagate the write to L2 off the critical
                # path (write buffer), updating L2 state if the line is there.
                self._writethrough(addr)
        else:
            stats.misses += 1
            latency, level = self._miss_path(addr, is_write, now)
        # Train the prefetcher on every demand access to the L1D, like an
        # IP-based stream prefetcher observing the load/store stream.
        if self._prefetch_enabled:
            table = self._prefetch_table
            entry = table.get(pc)
            if entry is None:
                prefetcher = self.prefetcher
                prefetcher.trainings += 1
                if len(table) >= prefetcher.table_size:
                    # The evicted stream's entry becomes the new one's.
                    _, entry = table.popitem(last=False)
                    prefetcher.collisions += 1
                    entry.last_addr = line
                    entry.stride = entry.confidence = 0
                    table[pc] = entry
                else:
                    table[pc] = _StreamEntry(line)
            else:
                prefetcher = self.prefetcher
                prefetcher.trainings += 1
                table.move_to_end(pc)
                stride = line - entry.last_addr
                if stride == entry.stride:
                    if stride:
                        for pf_line in prefetcher.repeat(entry, line):
                            self._prefetch_fill(pf_line)
                elif stride:
                    entry.stride = stride
                    entry.confidence = 0
                    entry.last_addr = line
        self.total_latency += latency
        return latency, level

    def _writethrough(self, addr: int) -> None:
        """Propagate a write-through from L1 into L2 (no latency charged)."""
        hit = self.l2.access(addr, True, kind="writethrough")
        if not hit:
            # No write-allocate for write-through traffic: forward towards L3
            # (counted as activity only).
            self.l3.access(addr, True, kind="writethrough")

    def _miss_path(self, addr: int, is_write: bool,
                   now: float) -> Tuple[float, str]:
        """Handle an L1 demand miss: walk L2/L3/memory, fill upwards.
        Returns ``(latency, level)``."""
        c = self.config
        line = self.l1.line_address(addr)
        hit_l2 = self.l2.access(addr, False)
        if hit_l2:
            beyond_l1 = float(c.l2_latency)
            level = "L2"
        else:
            hit_l3 = self.l3.access(addr, False)
            if hit_l3:
                beyond_l1 = float(c.l2_latency + c.l3_latency)
                level = "L3"
            else:
                if self._mem_port is not None:
                    # Clustered uncore: cluster-bus claims, NUMA penalty and
                    # the home LLC slice replace the fixed memory round trip
                    # (mem_path counts memory.reads itself, LLC misses only).
                    beyond_l1 = float(c.l2_latency + c.l3_latency) \
                        + self._mem_port.mem_path(now, line)
                else:
                    self.memory.reads += 1
                    beyond_l1 = float(c.l2_latency + c.l3_latency + c.memory_latency)
                    if self.uncore is not None:
                        # Shared-uncore arbitration: concurrent misses from
                        # other cores stretch this one's memory round trip.
                        beyond_l1 += self.uncore.acquire(now, 1)
                level = "MEM"
                # Fill L3 from memory.
                self._fill_level(self.l3, line, next_cache=None)
            # Fill L2 from L3.
            self._fill_level(self.l2, line, next_cache=self.l3)
        # The portion of the latency beyond the L1 goes through an MSHR so
        # that concurrent misses to the same line merge and MLP is bounded.
        effective = self.mshr.request(line, now, beyond_l1)
        # Fill L1 (write-allocate on write misses).
        self._fill_level(self.l1, line, next_cache=self.l2)
        if is_write:
            self._writethrough(addr)
        return float(c.l1_latency) + effective, level

    def _fill_level(self, cache: Cache, line: int, next_cache: Optional[Cache],
                    is_prefetch: bool = False) -> None:
        """Fill ``line`` into ``cache``; handle the victim's write-back."""
        evicted = cache.fill(line, is_prefetch=is_prefetch)
        if evicted is not None:
            victim, dirty = evicted
            if dirty and next_cache is not None:
                # Dirty victim is written back into the next level.
                next_cache.access(victim, True, kind="writethrough")
            elif dirty:
                self.memory.writes += 1

    def _prefetch_fill(self, line: int) -> None:
        """Bring a prefetched line into L1/L2/L3 (Table 1: prefetch to all levels)."""
        if self.l1.probe(line):
            return
        hit_l2 = self.l2.access(line, False, kind="prefetch")
        if not hit_l2:
            hit_l3 = self.l3.access(line, False, kind="prefetch")
            if not hit_l3:
                self.memory.reads += 1
                self._fill_level(self.l3, line, None, is_prefetch=True)
            self._fill_level(self.l2, line, self.l3, is_prefetch=True)
        self._fill_level(self.l1, line, self.l2, is_prefetch=True)

    # -- instruction fetch -----------------------------------------------------
    def fetch(self, addrs) -> None:
        """Instruction-cache accesses of a whole fetch stream, in order (one
        per fetch group; counted for energy, almost always hits).

        The L1I is private to the core and touched by nothing else, and the
        front end ignores its latency, so a run settles it once at the end:
        one :meth:`Cache.settle_fetches`, which settles the stream set by
        set and walks only the sets that may evict (the L1I is
        write-through, so a fill never writes a victim back)."""
        self.l1i.settle_fetches(addrs)
        self.icache_accesses += len(addrs)

    def uncore_delay(self, now: float, lines: int = 1,
                     sm_addr: Optional[int] = None) -> float:
        """Queueing delay of a ``lines``-line burst at the shared uncore
        (0.0 on single-core systems, which have no uncore).

        ``sm_addr`` is the burst's SM byte address; on a clustered uncore it
        selects the home cluster (NUMA routing) through the per-core port's
        DMA path.  The flat bus ignores it.
        """
        if self.uncore is None:
            return 0.0
        if self._mem_port is not None and sm_addr is not None:
            return self._mem_port.dma_path(now, lines, sm_addr)
        return self.uncore.acquire(now, lines)

    # -- coherent DMA bus requests ----------------------------------------------
    def snoop_read_lines(self, lines) -> float:
        """dma-get bus requests: find the valid copy of each line in the SM.

        One bus transfer carries the whole burst.  The caches are looked up
        top-down, one level at a time (:meth:`Cache.snoop_batch`): every
        line probes the L1, the L1 misses probe the L2, the L2 misses the
        L3, and what no cache holds is read from main memory.  Each cache
        sees its lines in burst order, so its state and statistics are
        exactly those of looking the lines up one after the other.  Returns
        the summed latency of sourcing the lines.
        """
        c = self.config
        lat = float(self.bus.transfer(len(lines), c.line_size, dma=True))
        missed = lines
        for cache, latency in ((self.l1, c.l1_latency),
                               (self.l2, c.l2_latency),
                               (self.l3, c.l3_latency)):
            if not missed:
                break
            held = len(missed)
            missed = cache.snoop_batch(missed, False)
            lat += (held - len(missed)) * latency
        return lat + len(missed) * c.memory_latency

    def snoop_invalidate_lines(self, lines) -> float:
        """dma-put bus requests: write each line to main memory and
        invalidate it in the whole hierarchy (one bus transfer per burst,
        one :meth:`Cache.snoop_batch` per level — a line's invalidations at
        different levels commute).  Returns the summed latency of the
        write-backs."""
        c = self.config
        lat = self.bus.transfer(len(lines), c.line_size, dma=True)
        for cache in (self.l1, self.l2, self.l3):
            cache.snoop_batch(lines, True)
        self.memory.writes += len(lines)
        return float(lat + len(lines) * c.memory_latency)

    # -- functional data --------------------------------------------------------
    def read_word(self, addr: int):
        """Functional read of SM data (data lives in main memory storage)."""
        return self.memory.read_word(addr)

    def write_word(self, addr: int, value) -> None:
        """Functional write of SM data."""
        self.memory.write_word(addr, value)

    # -- reporting ---------------------------------------------------------------
    @property
    def amat(self) -> float:
        """Average latency of demand accesses served by the hierarchy."""
        if self.demand_accesses == 0:
            return 0.0
        return self.total_latency / self.demand_accesses

    def stats_summary(self) -> dict:
        """Aggregate per-level statistics (used by Table 3 and the energy model)."""
        return {
            "L1": self.l1.stats.as_dict(),
            "L1I": self.l1i.stats.as_dict(),
            "L2": self.l2.stats.as_dict(),
            "L3": self.l3.stats.as_dict(),
            "memory_reads": self.memory.reads,
            "memory_writes": self.memory.writes,
            "bus_transactions": self.bus.transactions,
            "bus_dma_transactions": self.bus.dma_transactions,
            "prefetches_issued": self.prefetcher.issued,
            "prefetcher_collisions": self.prefetcher.collisions,
            "mshr_merges": self.mshr.merges,
            "demand_accesses": self.demand_accesses,
            "amat": self.amat,
        }
