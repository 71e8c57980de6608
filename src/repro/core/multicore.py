"""Multicore composition of the per-core coherence protocol (Section 3).

The proposed coherence protocol is *per core*: it keeps the caches and the
local memory of one core coherent without interacting with other cores or
with the inter-core cache coherence protocol.  Integrating it in a multicore
is therefore a matter of replicating the per-core hardware around a shared
**uncore** — one main memory and one inter-core bus — under the
programming-model constraint that LMs hold core-private data only: one core
never accesses another core's LM, and while a core has data mapped to its LM
no other core accesses the SM copy of that data.

:class:`MulticoreHybridSystem` models exactly that: N
:class:`~repro.core.hybrid.HybridSystem` instances with private caches,
LMs, DMACs and directories, all sharing one
:class:`~repro.mem.uncore.Uncore` (so concurrent demand misses and DMA
bursts contend for memory bandwidth and stretch each other's latency), plus
a software-visible ownership map that *checks* the programming-model
constraint in O(1) and raises when it is violated — which is how the tests
demonstrate the claim of Section 3.

Ownership bookkeeping: the
:class:`~repro.core.directory.HomeNodeDirectory` (keyed by the chunk's
*(size, base)* so differently-configured cores never alias each other's
claims) is the authoritative record.  ``dma_get`` registers the mapped
chunks (releasing whatever chunk the reused LM buffer previously held);
``dma_put`` releases them on write-back and — at this multicore level —
also unmaps the chunk from the issuing core's directory, so a released
chunk cannot keep diverting the owner's guarded accesses to a stale LM
copy after another core takes over the SM data (the Figure 6 state machine
allows exactly this ``LM-writeback`` then ``LM-unmap`` sequence);
reconfiguring a core's buffer size drops all its claims (the directory
invalidates all its mappings then too).  Every checked access is a
constant-time slice probe per distinct configured chunk size instead of a
scan over every core's directory; a dma-get or dma-put probes every chunk
its transfer covers.  On the flat machine the directory is a
single slice (the previous single-dict behaviour); with a clustered uncore
it is address-interleaved into one slice per cluster, homed by the
uncore's NUMA mapping.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.directory import HomeNodeDirectory
from repro.core.hybrid import HybridSystem, MemoryOutcome
from repro.core.protocol import ProtocolAction
from repro.mem.hierarchy import MemoryHierarchyConfig
from repro.mem.uncore import ClusterTopology, Uncore


class OwnershipViolation(RuntimeError):
    """Raised when a core touches SM data currently mapped to another core's LM."""


class CoreView:
    """Per-core facade over a :class:`MulticoreHybridSystem`.

    Exposes the :class:`~repro.core.hybrid.HybridSystem` surface an
    execution lane consumes.  Loads and stores are one call each: the LM
    range test runs inline on the core's bounds, only an SM address takes
    the ownership check, and the access goes straight to the core's
    :meth:`~repro.core.hybrid.HybridSystem.load`/``store``.  DMA and
    buffer-size commands go through the multicore wrapper, which keeps the
    ownership bookkeeping.  Everything else (``hierarchy``, ``use_lm``,
    ``stats_summary``, ...) delegates to the underlying per-core system.
    """

    __slots__ = ("_machine", "_core", "core_id", "_lm_lo", "_lm_hi")

    def __init__(self, machine: "MulticoreHybridSystem", core_id: int):
        self._machine = machine
        self._core = core = machine.cores[core_id]
        self.core_id = core_id
        self._lm_lo = core._lm_lo
        self._lm_hi = core._lm_hi

    def load(self, vaddr: int, guarded: bool = False,
             oracle_divert: bool = False, pc: int = 0,
             now: float = 0.0) -> MemoryOutcome:
        if not self._lm_lo <= vaddr < self._lm_hi:
            self._machine._check_ownership(self.core_id, vaddr)
        return self._core.load(vaddr, guarded, oracle_divert, pc, now)

    def store(self, vaddr: int, value, guarded: bool = False,
              oracle_divert: bool = False, collapse_with_prev: bool = False,
              pc: int = 0, now: float = 0.0) -> MemoryOutcome:
        if not self._lm_lo <= vaddr < self._lm_hi:
            self._machine._check_ownership(self.core_id, vaddr)
        return self._core.store(vaddr, value, guarded, oracle_divert,
                                collapse_with_prev, pc, now)

    def check_ownership(self, sm_addr: int) -> None:
        """The ownership check every SM access of this core passes: raises
        :class:`OwnershipViolation` when ``sm_addr`` is mapped to another
        core's LM."""
        self._machine._check_ownership(self.core_id, sm_addr)

    def dma_get(self, lm_vaddr: int, sm_addr: int, size: int, tag: int = 0,
                now: float = 0.0) -> float:
        return self._machine.dma_get(self.core_id, lm_vaddr, sm_addr, size,
                                     tag, now)

    def dma_put(self, lm_vaddr: int, sm_addr: int, size: int, tag: int = 0,
                now: float = 0.0) -> float:
        return self._machine.dma_put(self.core_id, lm_vaddr, sm_addr, size,
                                     tag, now)

    def dma_sync(self, tag: Optional[int] = None, now: float = 0.0) -> float:
        return self._machine.dma_sync(self.core_id, tag, now)

    def set_buffer_size(self, size_bytes: int) -> float:
        return self._machine.set_buffer_size(self.core_id, size_bytes)

    @property
    def cluster_id(self) -> int:
        """Cluster this core's bus hangs off (0 on the flat machine)."""
        return self._machine.topology.cluster_of(self.core_id)

    def __getattr__(self, name):
        return getattr(self._core, name)


class MulticoreHybridSystem:
    """A set of cores with private hybrid memory systems and a shared uncore.

    Parameters
    ----------
    num_cores:
        Number of replicated cores.
    memory_config:
        Per-core cache-hierarchy configuration (each core gets its own
        private cache hierarchy; main memory and the inter-core bus are
        shared through the :class:`~repro.mem.uncore.Uncore`).
    enforce_ownership:
        When True, cross-core accesses to data mapped in another core's LM
        raise :class:`OwnershipViolation` — the constraint the programming
        model must guarantee.
    uncore:
        Optional pre-built shared uncore (the harness builder passes one
        configured from the machine config); by default one is created from
        ``memory_config``'s memory/bus latencies.
    core_kwargs:
        Forwarded to every :class:`~repro.core.hybrid.HybridSystem`
        (``lm_size``, ``use_lm``, ``oracle``, ...).
    """

    def __init__(self, num_cores: int = 4,
                 memory_config: Optional[MemoryHierarchyConfig] = None,
                 enforce_ownership: bool = True,
                 uncore: Optional[Uncore] = None,
                 **core_kwargs):
        if num_cores <= 0:
            raise ValueError("need at least one core")
        config = memory_config or MemoryHierarchyConfig()
        self.num_cores = num_cores
        self.enforce_ownership = enforce_ownership
        self.uncore = uncore if uncore is not None else Uncore(
            memory_latency=config.memory_latency,
            bus_latency_per_line=config.bus_latency_per_line)
        # A clustered uncore carries the topology; the flat bus is one
        # cluster of everything.  Every core attaches through its port —
        # the flat Uncore's port *is* the uncore, so the single-bus wiring
        # (and timing) is exactly what it always was.
        topology = getattr(self.uncore, "topology", None)
        self.topology = topology if topology is not None else \
            ClusterTopology(num_cores, 1)
        if self.topology.num_cores != num_cores:
            raise ValueError(
                f"uncore topology is {self.topology.num_cores}-core but the "
                f"machine has {num_cores} cores")
        self.cores: List[HybridSystem] = [
            HybridSystem(memory_config=config, uncore=self.uncore.port(i),
                         **core_kwargs)
            for i in range(num_cores)
        ]
        # Authoritative ownership record: (chunk size, chunk base) -> owning
        # core, sliced per home node.  Keying by the claim's own granularity
        # keeps cores with different buffer sizes from aliasing into each
        # other's chunks.
        self.home_directory = HomeNodeDirectory(
            num_slices=self.topology.num_clusters,
            home_fn=getattr(self.uncore, "home_cluster", None))
        # Configured chunk (LM buffer) size per core; the O(1) check probes
        # one base per *distinct* size (in practice exactly one), kept as a
        # tuple that set_buffer_size refreshes.
        self._chunk_sizes: Dict[int, int] = {}
        self._distinct_sizes: Tuple[int, ...] = ()

    def core(self, core_id: int) -> HybridSystem:
        return self.cores[core_id]

    def view(self, core_id: int) -> CoreView:
        """Ownership-checked per-core facade (what execution lanes run against)."""
        return CoreView(self, core_id)

    # -- ownership bookkeeping ------------------------------------------------------
    def _chunk_keys(self, core_id: int,
                    sm_addr: int, size: int) -> List[Tuple[int, int]]:
        """(chunk size, base) keys covered by ``[sm_addr, sm_addr+size)`` at
        the issuing core's configured chunk size."""
        core = self.cores[core_id]
        if core.directory is None or not core.directory.is_configured:
            return []
        chunk = core.directory.offset_mask + 1
        first = sm_addr & core.directory.base_mask
        last = (sm_addr + max(size, 1) - 1) & core.directory.base_mask
        return [(chunk, base) for base in range(first, last + chunk, chunk)]

    def _check_ownership(self, core_id: int, sm_addr: int) -> None:
        if not self.enforce_ownership or not self.home_directory.total_entries:
            return
        directory = self.home_directory
        for size in self._distinct_sizes:
            owner = directory.owner((size, sm_addr & ~(size - 1)))
            if owner is not None and owner != core_id:
                raise OwnershipViolation(
                    f"core {core_id} accessed SM address {sm_addr:#x} that is "
                    f"mapped to the LM of core {owner}")

    def _check_transfer(self, core_id: int, sm_addr: int, size: int) -> None:
        """The ownership check of a DMA transfer: every chunk that
        ``[sm_addr, sm_addr+size)`` covers, at every configured chunk size,
        must be unmapped or mapped to ``core_id``."""
        if not self.enforce_ownership or not self.home_directory.total_entries:
            return
        directory = self.home_directory
        last = sm_addr + max(size, 1) - 1
        for chunk in self._distinct_sizes:
            mask = ~(chunk - 1)
            for base in range(sm_addr & mask, (last & mask) + chunk, chunk):
                owner = directory.owner((chunk, base))
                if owner is not None and owner != core_id:
                    raise OwnershipViolation(
                        f"core {core_id} transferred SM address "
                        f"{max(base, sm_addr):#x} that is mapped to the LM "
                        f"of core {owner}")

    def _claim(self, core_id: int, sm_addr: int, size: int) -> None:
        for key in self._chunk_keys(core_id, sm_addr, size):
            self.home_directory.claim(key, core_id)

    def _release(self, core_id: int, sm_addr: int, size: int) -> None:
        for key in self._chunk_keys(core_id, sm_addr, size):
            self.home_directory.release(key, core_id)

    def owner_of(self, sm_addr: int) -> Optional[int]:
        """Core currently holding the chunk containing ``sm_addr`` (None when
        unmapped) — introspection for tests and examples."""
        for size in self._distinct_sizes:
            owner = self.home_directory.owner((size, sm_addr & ~(size - 1)))
            if owner is not None:
                return owner
        return None

    # -- per-core operations ----------------------------------------------------------
    def load(self, core_id: int, vaddr: int, **kwargs) -> MemoryOutcome:
        return CoreView(self, core_id).load(vaddr, **kwargs)

    def store(self, core_id: int, vaddr: int, value, **kwargs) -> MemoryOutcome:
        return CoreView(self, core_id).store(vaddr, value, **kwargs)

    def dma_get(self, core_id: int, lm_vaddr: int, sm_addr: int, size: int,
                tag: int = 0, now: float = 0.0) -> float:
        self._check_transfer(core_id, sm_addr, size)
        core = self.cores[core_id]
        # The buffer being refilled unmaps whatever chunk it previously held:
        # release that chunk's ownership before registering the new mapping.
        if core.directory is not None and core.directory.is_configured:
            lm_offset = core.address_map.translate(lm_vaddr)
            old = core.directory.entries[core.directory.buffer_index(lm_offset)]
            if old.valid:
                chunk = core.directory.offset_mask + 1
                self._release(core_id, old.tag, chunk)
        result = core.dma_get(lm_vaddr, sm_addr, size, tag, now)
        self._claim(core_id, sm_addr, size)
        return result

    def dma_put(self, core_id: int, lm_vaddr: int, sm_addr: int, size: int,
                tag: int = 0, now: float = 0.0) -> float:
        self._check_transfer(core_id, sm_addr, size)
        core = self.cores[core_id]
        result = core.dma_put(lm_vaddr, sm_addr, size, tag, now)
        # Write-back returns the chunk to the SM and, at this multicore
        # level, ends its LM residence: the directory entry is unmapped so
        # the owner's guarded accesses cannot keep diverting to the (now
        # surrendered) LM copy once another core touches the SM data.
        # Figure 6 allows the sequence: LM-writeback keeps the LM state,
        # LM-unmap then moves LM -> MM (or LM-CM -> CM).
        directory = core.directory
        if directory is not None and directory.unmap_dma_put(
                core.address_map.translate(lm_vaddr), sm_addr):
            core._apply_protocol(sm_addr, ProtocolAction.LM_UNMAP)
        self._release(core_id, sm_addr, size)
        return result

    def dma_sync(self, core_id: int, tag: Optional[int] = None,
                 now: float = 0.0) -> float:
        return self.cores[core_id].dma_sync(tag, now)

    def set_buffer_size(self, core_id: int, size_bytes: int) -> float:
        result = self.cores[core_id].set_buffer_size(size_bytes)
        # Reconfiguring invalidates every LM mapping of this core
        # (CoherenceDirectory.configure drops all entries), so its claims —
        # including ones made at an older granularity — are gone too.
        self.home_directory.drop_core(core_id)
        self._chunk_sizes[core_id] = size_bytes
        self._distinct_sizes = tuple(set(self._chunk_sizes.values()))
        return result

    # -- reporting ---------------------------------------------------------------------
    def stats_summary(self) -> dict:
        summary = {f"core{idx}": core.stats_summary()
                   for idx, core in enumerate(self.cores)}
        summary["uncore"] = self.uncore.stats_summary()
        return summary

    def aggregate_summary(self) -> dict:
        """Whole-machine activity in the single-system summary shape.

        Private structures (caches, LMs, DMACs, directories, prefetchers,
        MSHRs) are summed across cores; the shared main memory and bus are
        counted exactly once from the uncore (each per-core hierarchy
        reports the same shared totals, so summing those would overcount by
        ``num_cores``).  The result feeds the energy model unchanged.
        """
        per_core = [core.stats_summary() for core in self.cores]
        agg = _sum_summaries(per_core)
        hier = agg["hierarchy"]
        hier["memory_reads"] = self.uncore.memory.reads
        hier["memory_writes"] = self.uncore.memory.writes
        hier["bus_transactions"] = self.uncore.bus.transactions
        hier["bus_dma_transactions"] = self.uncore.bus.dma_transactions
        # Ratios cannot be summed: recompute from the summed numerators.
        demand = sum(s["hierarchy"]["demand_accesses"] for s in per_core)
        hier["amat"] = (sum(s["hierarchy"]["amat"] * s["hierarchy"]["demand_accesses"]
                            for s in per_core) / demand if demand else 0.0)
        mem_ops = sum(s["mem_ops"] for s in per_core)
        agg["amat"] = (sum(s["amat"] * s["mem_ops"] for s in per_core) / mem_ops
                       if mem_ops else 0.0)
        agg["uncore"] = self.uncore.stats_summary()
        return agg


def _sum_summaries(summaries: List[dict]) -> dict:
    """Key-wise sum of identically-shaped nested stat dicts (numbers only)."""
    first = summaries[0]
    out: dict = {}
    for key, value in first.items():
        if isinstance(value, dict):
            out[key] = _sum_summaries([s[key] for s in summaries])
        elif isinstance(value, (int, float)):
            out[key] = sum(s[key] for s in summaries)
        else:  # pragma: no cover - summaries hold only numbers and dicts
            out[key] = value
    return out
