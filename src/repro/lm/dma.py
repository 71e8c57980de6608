"""Programmable DMA controller (DMAC) of the hybrid memory system.

The DMAC implements the three operations of Section 2.1:

* ``dma-get``  — transfer a chunk from system memory (SM) to the LM,
* ``dma-put``  — transfer a chunk from the LM back to the SM,
* ``dma-synch`` — wait for the completion of outstanding transfers.

Transfers are *coherent with the SM*: every line moved by a dma-get first
looks up the cache hierarchy and is sourced from a cache if a copy exists
there; every line moved by a dma-put is written to main memory and the
corresponding line is invalidated in the whole cache hierarchy.

Timing: transfers are asynchronous.  A transfer issued at time ``t`` completes
at ``t + setup + lines * per_line_cost`` (plus, multicore, its queueing at
the shared uncore); ``dma-synch`` returns the number of stall cycles the core
has to wait.  The per-line cost models a pipelined, bandwidth-limited engine
rather than a serial sequence of full memory round trips.  The timing half
(:meth:`DMAController.time_transfer` and :meth:`DMAController.dma_sync`)
needs no data, so replay times its recorded transfers with it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.isa.program import WORD_SIZE
from repro.lm.address_map import LMAddressMap
from repro.lm.local_memory import LocalMemory
from repro.mem.hierarchy import MemoryHierarchy


@dataclass
class DMATransfer:
    """One issued DMA transfer, as ``dma_get``/``dma_put`` report it."""

    kind: str              # "get" or "put"
    lm_offset: int         # LM physical offset of the buffer
    sm_addr: int           # SM byte address of the data
    size: int              # bytes
    tag: int
    issue_time: float
    completion_time: float


class DMAController:
    """Models the DMAC attached to the core (Figure 1).

    Parameters
    ----------
    hierarchy:
        The SM side (caches + main memory) used for coherent bus requests and
        functional data.
    local_memory:
        The LM storage.
    address_map:
        The LM virtual-address map, used to translate LM virtual addresses in
        DMA commands into LM offsets.
    setup_latency:
        Fixed cost of programming and starting a transfer.
    per_line_latency:
        Pipelined per-cache-line transfer cost.
    """

    def __init__(self, hierarchy: MemoryHierarchy, local_memory: LocalMemory,
                 address_map: LMAddressMap, setup_latency: int = 100,
                 per_line_latency: int = 4):
        self.hierarchy = hierarchy
        self.lm = local_memory
        self.map = address_map
        self.setup_latency = setup_latency
        self.per_line_latency = per_line_latency
        # Completion times of the transfers no dma-synch retired yet, by tag.
        self._outstanding: Dict[int, List[float]] = {}
        self.gets = 0
        self.puts = 0
        self.syncs = 0
        self.words_transferred = 0
        self.lines_transferred = 0

    # -- helpers -----------------------------------------------------------------
    def _lines_of(self, sm_addr: int, size: int) -> range:
        line_size = self.hierarchy.config.line_size
        first = sm_addr - (sm_addr % line_size)
        last = (sm_addr + size - 1) - ((sm_addr + size - 1) % line_size)
        return range(first, last + 1, line_size)

    def time_transfer(self, now: float, lines: int, sm_addr: int,
                      tag: int) -> float:
        """Time a transfer of ``lines`` lines issued at ``now`` and track it
        under ``tag`` until a dma-synch retires it; returns its completion
        time.

        Shared-uncore arbitration (multicore): the burst queues behind other
        cores' traffic before its pipelined transfer begins (0.0 when the
        hierarchy has no uncore, as on every single-core system); the SM
        address routes it to its home cluster on a clustered uncore (NUMA
        local vs. remote).
        """
        queue = self.hierarchy.uncore_delay(now, lines, sm_addr)
        completion = now + queue + float(self.setup_latency
                                         + lines * self.per_line_latency)
        outstanding = self._outstanding.get(tag)
        if outstanding is None:
            self._outstanding[tag] = [completion]
        else:
            outstanding.append(completion)
        return completion

    # -- operations ---------------------------------------------------------------
    def dma_get(self, lm_vaddr: int, sm_addr: int, size: int, tag: int,
                now: float) -> DMATransfer:
        """Transfer ``size`` bytes from SM address ``sm_addr`` to the LM.

        The data is sourced coherently (cache lookups on every line) and the
        functional copy is placed in the LM immediately; the *timing*
        completion is asynchronous and later enforced by ``dma-synch`` or by
        the directory presence bit.
        """
        if size <= 0 or size % WORD_SIZE != 0:
            raise ValueError("DMA size must be a positive multiple of the word size")
        lm_offset = self.map.translate(lm_vaddr)
        lines = self._lines_of(sm_addr, size)
        self.hierarchy.snoop_read_lines(lines)
        values = self.hierarchy.memory.read_block(sm_addr, size)
        self.lm.write_block(lm_offset, values)
        self.gets += 1
        self.words_transferred += size // WORD_SIZE
        self.lines_transferred += len(lines)
        return DMATransfer("get", lm_offset, sm_addr, size, tag, now,
                           self.time_transfer(now, len(lines), sm_addr, tag))

    def dma_put(self, lm_vaddr: int, sm_addr: int, size: int, tag: int,
                now: float) -> DMATransfer:
        """Transfer ``size`` bytes from the LM back to SM address ``sm_addr``.

        The data is written to main memory and the affected lines are
        invalidated in the whole cache hierarchy, so the only remaining copy
        in the SM is the (valid) one just written (Section 3.4.2).
        """
        if size <= 0 or size % WORD_SIZE != 0:
            raise ValueError("DMA size must be a positive multiple of the word size")
        lm_offset = self.map.translate(lm_vaddr)
        values = self.lm.read_block(lm_offset, size)
        self.hierarchy.memory.write_block(sm_addr, values)
        lines = self._lines_of(sm_addr, size)
        self.hierarchy.snoop_invalidate_lines(lines)
        self.puts += 1
        self.words_transferred += size // WORD_SIZE
        self.lines_transferred += len(lines)
        return DMATransfer("put", lm_offset, sm_addr, size, tag, now,
                           self.time_transfer(now, len(lines), sm_addr, tag))

    def dma_sync(self, tag: Optional[int], now: float) -> float:
        """Wait for transfers with ``tag`` (or all transfers when ``None``).

        Returns the number of stall cycles from ``now`` until the last
        matching outstanding transfer completes.
        """
        self.syncs += 1
        if tag is None:
            pending = [t for lst in self._outstanding.values() for t in lst]
        else:
            pending = self._outstanding.get(tag)
        if not pending:
            return 0.0
        finish = max(pending)
        # Retire everything that completes by the time we are done waiting.
        wait_until = max(now, finish)
        for key in list(self._outstanding):
            kept = [t for t in self._outstanding[key] if t > wait_until]
            if kept:
                self._outstanding[key] = kept
            else:
                del self._outstanding[key]
        return max(0.0, finish - now)

    # -- introspection --------------------------------------------------------------
    def outstanding_transfers(self, tag: Optional[int] = None) -> List[float]:
        """Completion times of the transfers (with ``tag``, or all) that no
        dma-synch has retired yet."""
        if tag is None:
            return [t for lst in self._outstanding.values() for t in lst]
        return list(self._outstanding.get(tag, []))

    def stats_summary(self) -> dict:
        return {
            "gets": self.gets,
            "puts": self.puts,
            "syncs": self.syncs,
            "words_transferred": self.words_transferred,
            "lines_transferred": self.lines_transferred,
        }
