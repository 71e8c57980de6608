"""The per-core hybrid memory system (Figure 1) with the coherence protocol.

:class:`HybridSystem` assembles the cache hierarchy, the local memory and its
address map, the DMA controller and the coherence directory, and exposes the
memory interface the core model uses to execute programs:

* plain loads/stores — served by the LM when the virtual address falls in the
  LM range, otherwise by the cache hierarchy;
* guarded loads/stores — looked up in the directory during address generation
  and diverted to the memory holding the valid copy;
* DMA commands — coherent transfers between LM and SM that also update the
  directory;
* the ``collapse_with_prev`` handling of the double store: when the second
  (plain SM) store of a double store follows a guarded store that missed the
  directory and therefore already updated the same SM address, the Load/Store
  Queue collapses the two into a single cache access (Section 3.1).

With ``use_lm=False`` the same class models the *cache-based* baseline of
Section 4.3 (typically configured with a 64 KB L1 for capacity fairness).
With ``oracle=True`` guarded accesses cost nothing (no directory energy, no
double store needed) — the incoherent-hybrid-with-oracle-compiler baseline of
Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.directory import CoherenceDirectory
from repro.core.guarded import GuardedAGU
from repro.core.protocol import ProtocolAction, ProtocolChecker
from repro.isa.program import WORD_SIZE
from repro.lm.address_map import LMAddressMap
from repro.lm.dma import DMAController
from repro.lm.local_memory import LocalMemory
from repro.mem.hierarchy import MemoryHierarchy, MemoryHierarchyConfig


@dataclass(slots=True)
class MemoryOutcome:
    """Result of one memory operation issued by the core (allocated once per
    memory op — slots keep it cheap)."""

    value: Optional[float]   # loaded value (None for stores)
    latency: float           # access latency in cycles
    served_by: str           # "LM", "L1", "L2", "L3", "MEM" or "collapsed"
    diverted: bool = False   # guarded access diverted to the LM copy
    stall_cycles: float = 0.0  # presence-bit stall (double buffering)


class HybridSystem:
    """A core-private hybrid memory system with the coherence protocol.

    Parameters
    ----------
    memory_config:
        Configuration of the cache hierarchy (Table 1 defaults).
    lm_size / lm_latency:
        Local memory capacity and access latency (Table 1: 32 KB, 2 cycles).
    directory_entries:
        Number of coherence-directory entries (32 in the paper).
    use_lm:
        ``False`` builds the cache-based baseline: no LM, no DMAC, no
        directory (guarded accesses are rejected).
    oracle:
        ``True`` builds the incoherent hybrid baseline with an oracle
        compiler: accesses marked ``oracle_divert`` are served by the valid
        copy without exercising the directory.
    track_protocol:
        When ``True`` a :class:`ProtocolChecker` follows every chunk of data
        through the Figure 6 state machine and raises on illegal transitions.
    """

    def __init__(self,
                 memory_config: Optional[MemoryHierarchyConfig] = None,
                 lm_size: int = 32 * 1024,
                 lm_latency: int = 2,
                 directory_entries: int = 32,
                 dma_setup_latency: int = 100,
                 dma_per_line_latency: int = 4,
                 use_lm: bool = True,
                 oracle: bool = False,
                 track_protocol: bool = False,
                 uncore=None):
        # ``uncore`` (multicore only) makes this core's hierarchy share the
        # multicore's main memory and bus, with arbitration delays on demand
        # misses and DMA bursts; None keeps the stand-alone single-core model.
        self.hierarchy = MemoryHierarchy(memory_config, uncore=uncore)
        self.use_lm = use_lm
        self.oracle = oracle
        self.lm_size = lm_size
        if use_lm:
            self.address_map = LMAddressMap(size=lm_size)
            self.lm = LocalMemory(size=lm_size, latency=lm_latency)
            self.dmac = DMAController(
                self.hierarchy, self.lm, self.address_map,
                setup_latency=dma_setup_latency,
                per_line_latency=dma_per_line_latency)
            self.directory = CoherenceDirectory(directory_entries)
            self.agu = GuardedAGU(self.directory)
            # LM range bounds and latency, flattened for the per-access
            # path.  The map and the LM span the same bytes from physical
            # offset 0, so an address inside the range is LM offset
            # ``vaddr - _lm_lo`` (word ``(vaddr - _lm_lo) // WORD_SIZE``)
            # with no further check.
            assert self.address_map.physical_base == 0 and \
                self.address_map.size == self.lm.size
            self._lm_lo = self.address_map.virtual_base
            self._lm_hi = self._lm_lo + self.address_map.size
            self._lm_latency = float(lm_latency)
        else:
            self.address_map = None
            self.lm = None
            self.dmac = None
            self.directory = None
            self.agu = None
            self._lm_lo = self._lm_hi = -1
        self.checker = ProtocolChecker(strict=True) if track_protocol else None
        # The SM demand path and the functional SM words, flattened for the
        # per-access path (the data lives in main memory; see
        # :mod:`repro.mem.cache`).
        self._demand = self.hierarchy.demand
        self._memory = self.hierarchy.memory
        # Activity counters
        self.loads = 0
        self.stores = 0
        self.guarded_loads = 0
        self.guarded_stores = 0
        self.collapsed_stores = 0
        self.mem_ops = 0
        self.total_mem_latency = 0.0
        # LSQ collapse bookkeeping for the double store
        self._last_store_addr: Optional[int] = None
        self._last_store_to_sm = False

    # ------------------------------------------------------------------ helpers --
    @property
    def lm_virtual_base(self) -> int:
        """Base virtual address of the LM range (used by the compiler)."""
        if not self.use_lm:
            raise RuntimeError("the cache-based system has no local memory")
        return self.address_map.virtual_base

    def _account(self, outcome: MemoryOutcome) -> MemoryOutcome:
        self.mem_ops += 1
        self.total_mem_latency += outcome.latency
        return outcome

    def _protocol_chunk(self, sm_addr: int) -> Optional[int]:
        if self.checker is None or self.directory is None or not self.directory.is_configured:
            return None
        return sm_addr & self.directory.base_mask

    def _apply_protocol(self, sm_addr: int, action: ProtocolAction) -> None:
        if self.checker is None:   # the common, untracked case
            return
        chunk = self._protocol_chunk(sm_addr)
        if chunk is not None:
            self.checker.apply(chunk, action)

    # --------------------------------------------------------------------- loads --
    def private_lm(self) -> Optional["HybridSystem"]:
        """The system whose plain LM-range accesses an execution lane may run
        inline, as :meth:`load`/:meth:`store` would: this one, or None
        without a local memory.  The LM is private to its core, so such
        an access touches no state another core can see."""
        return self if self.use_lm else None

    def load(self, vaddr: int, guarded: bool = False, oracle_divert: bool = False,
             pc: int = 0, now: float = 0.0) -> MemoryOutcome:
        """Execute a load at virtual address ``vaddr``."""
        self.loads += 1
        # Regular access whose address already points into the LM range.
        if self._lm_lo <= vaddr < self._lm_hi:
            return self._account(MemoryOutcome(
                self.lm.read(vaddr - self._lm_lo), self._lm_latency, "LM"))
        if guarded:
            if not self.use_lm:
                raise RuntimeError("guarded load executed on the cache-based system")
            self.guarded_loads += 1
            outcome = self.agu.generate(vaddr, is_store=False, now=now)
            if outcome.diverted:
                offset = self.address_map.translate(outcome.effective_address)
                value = self.lm.read(offset)
                self._apply_protocol(vaddr, ProtocolAction.GUARDED_LOAD)
                return self._account(MemoryOutcome(
                    value, self._lm_latency + outcome.stall_cycles,
                    "LM", diverted=True, stall_cycles=outcome.stall_cycles))
            # Directory miss: served by the cache hierarchy at the SM address.
        elif oracle_divert and self.use_lm and self.directory is not None:
            hit, target = self.directory.peek_lookup(vaddr)
            if hit:
                offset = self.address_map.translate(target)
                value = self.lm.read(offset)
                return self._account(MemoryOutcome(
                    value, self._lm_latency, "LM", diverted=True))
        # The SM access: the flat demand path, the functional read of the
        # word and the accounting inline (see ``__init__``).
        latency, level = self._demand(vaddr, False, pc, now)
        memory = self._memory
        memory.reads += 1
        value = memory._words.get(vaddr - vaddr % WORD_SIZE, 0)
        if self.checker is not None:
            self._apply_protocol(vaddr, ProtocolAction.CM_ACCESS)
        self.mem_ops += 1
        self.total_mem_latency += latency
        return MemoryOutcome(value, latency, level)

    # -------------------------------------------------------------------- stores --
    def store(self, vaddr: int, value, guarded: bool = False,
              oracle_divert: bool = False, collapse_with_prev: bool = False,
              pc: int = 0, now: float = 0.0) -> MemoryOutcome:
        """Execute a store of ``value`` to virtual address ``vaddr``."""
        self.stores += 1
        if self._lm_lo <= vaddr < self._lm_hi:
            self.lm.write(vaddr - self._lm_lo, value)
            self._last_store_addr = vaddr
            self._last_store_to_sm = False
            return self._account(MemoryOutcome(None, self._lm_latency, "LM"))
        if guarded:
            if not self.use_lm:
                raise RuntimeError("guarded store executed on the cache-based system")
            self.guarded_stores += 1
            outcome = self.agu.generate(vaddr, is_store=True, now=now)
            if outcome.diverted:
                offset = self.address_map.translate(outcome.effective_address)
                self.lm.write(offset, value)
                self._apply_protocol(vaddr, ProtocolAction.GUARDED_STORE)
                self._last_store_addr = vaddr
                self._last_store_to_sm = False
                return self._account(MemoryOutcome(
                    None, self._lm_latency + outcome.stall_cycles,
                    "LM", diverted=True, stall_cycles=outcome.stall_cycles))
            # Directory miss: the guarded store updates the SM copy below.
        else:
            if oracle_divert and self.use_lm and self.directory is not None:
                hit, target = self.directory.peek_lookup(vaddr)
                if hit:
                    offset = self.address_map.translate(target)
                    self.lm.write(offset, value)
                    self._last_store_addr = vaddr
                    self._last_store_to_sm = False
                    return self._account(MemoryOutcome(
                        None, self._lm_latency, "LM", diverted=True))
            if collapse_with_prev:
                # The second store of a double store: if the guarded store
                # that just executed missed the directory and already wrote
                # this same SM address, the LSQ collapses the two stores into
                # one cache access.
                if self._last_store_to_sm and self._last_store_addr == vaddr:
                    self.collapsed_stores += 1
                    memory = self._memory
                    memory.writes += 1
                    memory._words[vaddr - vaddr % WORD_SIZE] = value
                    self.mem_ops += 1   # at latency 0.0
                    return MemoryOutcome(None, 0.0, "collapsed")
        # The SM access, flat as in ``load``.
        latency, level = self._demand(vaddr, True, pc, now)
        memory = self._memory
        memory.writes += 1
        memory._words[vaddr - vaddr % WORD_SIZE] = value
        if self.checker is not None:
            self._apply_protocol(vaddr, ProtocolAction.CM_ACCESS)
            if collapse_with_prev and not guarded:
                # A double store whose guarded half went to the LM: this SM
                # store keeps the cache copy up to date (LM-CM state with
                # identical replicas).
                self._apply_protocol(vaddr, ProtocolAction.DOUBLE_STORE)
        self._last_store_addr = vaddr
        self._last_store_to_sm = True
        self.mem_ops += 1
        self.total_mem_latency += latency
        return MemoryOutcome(None, latency, level)

    # ----------------------------------------------------------------------- DMA --
    def set_buffer_size(self, size_bytes: int) -> float:
        """Configure the directory with the LM buffer size chosen by software."""
        if not self.use_lm:
            raise RuntimeError("the cache-based system has no coherence directory")
        self.directory.configure(size_bytes)
        return 1.0

    def dma_get(self, lm_vaddr: int, sm_addr: int, size: int, tag: int = 0,
                now: float = 0.0) -> float:
        """Issue a dma-get and update the coherence directory.

        Returns the issue cost (the transfer itself completes asynchronously).
        """
        if not self.use_lm:
            raise RuntimeError("the cache-based system has no DMA controller")
        if self.checker is not None and self.directory.is_configured:
            # The buffer being refilled unmaps whatever it previously held.
            lm_offset = self.address_map.translate(lm_vaddr)
            index = self.directory.buffer_index(lm_offset)
            old = self.directory.entries[index]
            if old.valid:
                self.checker.apply(old.tag, ProtocolAction.LM_UNMAP)
        transfer = self.dmac.dma_get(lm_vaddr, sm_addr, size, tag, now)
        self.directory.map_dma_get(transfer.lm_offset, lm_vaddr, sm_addr,
                                   transfer.completion_time)
        self._apply_protocol(sm_addr, ProtocolAction.LM_MAP)
        return 1.0

    def dma_put(self, lm_vaddr: int, sm_addr: int, size: int, tag: int = 0,
                now: float = 0.0) -> float:
        """Issue a dma-put (LM write-back).  Returns the issue cost."""
        if not self.use_lm:
            raise RuntimeError("the cache-based system has no DMA controller")
        self.dmac.dma_put(lm_vaddr, sm_addr, size, tag, now)
        self._apply_protocol(sm_addr, ProtocolAction.LM_WRITEBACK)
        return 1.0

    def dma_sync(self, tag: Optional[int] = None, now: float = 0.0) -> float:
        """Wait for DMA completion; returns stall cycles."""
        if not self.use_lm:
            raise RuntimeError("the cache-based system has no DMA controller")
        return self.dmac.dma_sync(tag, now)

    # ------------------------------------------------------------------ functional --
    def read_sm_word(self, addr: int):
        """Untimed read of SM data (program loader / result verification)."""
        return self.hierarchy.memory.peek(addr)

    def write_sm_word(self, addr: int, value) -> None:
        """Untimed write of SM data (program loader)."""
        self.hierarchy.memory.poke(addr, value)

    # ------------------------------------------------------------------- reporting --
    @property
    def amat(self) -> float:
        """Average memory access time over all core memory operations."""
        if self.mem_ops == 0:
            return 0.0
        return self.total_mem_latency / self.mem_ops

    def stats_summary(self) -> dict:
        """Aggregate activity counters (Table 3 and energy model inputs)."""
        summary = {
            "loads": self.loads,
            "stores": self.stores,
            "guarded_loads": self.guarded_loads,
            "guarded_stores": self.guarded_stores,
            "collapsed_stores": self.collapsed_stores,
            "mem_ops": self.mem_ops,
            "amat": self.amat,
            "hierarchy": self.hierarchy.stats_summary(),
        }
        if self.use_lm:
            summary["lm_accesses"] = self.lm.accesses
            summary["lm_reads"] = self.lm.reads
            summary["lm_writes"] = self.lm.writes
            summary["dma"] = self.dmac.stats_summary()
            summary["directory"] = {
                "lookups": self.directory.stats.lookups,
                "hits": self.directory.stats.hits,
                "misses": self.directory.stats.misses,
                "updates": self.directory.stats.updates,
                "accesses": self.directory.stats.accesses,
                "presence_stalls": self.directory.stats.presence_stalls,
            }
        else:
            summary["lm_accesses"] = 0
            summary["dma"] = {"gets": 0, "puts": 0, "syncs": 0,
                              "words_transferred": 0, "lines_transferred": 0}
            summary["directory"] = {"lookups": 0, "hits": 0, "misses": 0,
                                    "updates": 0, "accesses": 0,
                                    "presence_stalls": 0}
        return summary
