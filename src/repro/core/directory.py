"""The per-core coherence directory (Section 3.2, Figure 4).

The directory keeps track of what data is mapped to the local memory.  It has
a fixed number of entries (32 in the paper, to keep the CAM access inside the
address-generation cycle); entry *i* describes LM buffer *i* and maps the
starting SM address of the data currently held in that buffer (the tag) to
the buffer's starting LM address.

The directory is configured with the LM buffer size chosen by the compiler
(all buffers are equally sized).  The buffer size defines two internal mask
registers:

* ``base_mask``   — selects the chunk-aligned base of an address,
* ``offset_mask`` — selects the offset of an address inside a chunk,

so that any potentially incoherent SM address can be decomposed into a base
(used for the CAM lookup) and an offset (used to rebuild either the LM
address on a hit or the original SM address on a miss).

Every ``dma-get`` updates the entry of the destination buffer: the tag is set
to the source SM address and the *presence bit* is cleared until the transfer
completes, which is what makes double buffering safe (a guarded access that
hits a non-present entry raises an internal exception / stalls until the data
has actually arrived).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass
class DirectoryEntry:
    """One directory entry: the mapping of one LM buffer."""

    valid: bool = False
    tag: int = 0                # chunk-aligned SM base address of the mapped data
    lm_base: int = 0            # LM virtual base address of the buffer
    present: bool = True        # presence bit (False while the dma-get is in flight)
    ready_time: float = 0.0     # completion time of the in-flight dma-get

    def matches(self, base_addr: int) -> bool:
        return self.valid and self.tag == base_addr


@dataclass
class DirectoryStats:
    """Activity counters of the directory (feed Table 3 and the energy model)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    updates: int = 0
    presence_stalls: int = 0
    configurations: int = 0

    @property
    def accesses(self) -> int:
        """Total directory activity: CAM lookups plus entry updates."""
        return self.lookups + self.updates


class CoherenceDirectory:
    """Hardware directory tracking the contents of the local memory.

    Parameters
    ----------
    num_entries:
        Number of entries (32 in the paper).  Constrains the software to use
        at most this many LM buffers.
    """

    DEFAULT_ENTRIES = 32

    def __init__(self, num_entries: int = DEFAULT_ENTRIES):
        if num_entries <= 0:
            raise ValueError("the directory needs at least one entry")
        self.num_entries = num_entries
        self.entries: List[DirectoryEntry] = [DirectoryEntry() for _ in range(num_entries)]
        self.buffer_size: Optional[int] = None
        self.base_mask: int = 0
        self.offset_mask: int = 0
        self.stats = DirectoryStats()
        # Tag -> entry-index map mirroring the valid entries.  The hardware
        # CAM compares all tags in parallel; a Python linear scan over the 32
        # entries on *every* guarded access was a measured hot path, and the
        # dict gives the same single-match semantics in O(1).
        self._tag_index: Dict[int, int] = {}

    # -- configuration -----------------------------------------------------------
    def configure(self, buffer_size: int) -> None:
        """Set the LM buffer size (memory-mapped register written by software).

        The buffer size must be a power of two so that the base/offset
        decomposition can be done with bit-wise ANDs, exactly like the
        hardware of Figure 4.
        """
        if not _is_power_of_two(buffer_size):
            raise ValueError(
                f"LM buffer size must be a power of two, got {buffer_size}")
        self.buffer_size = buffer_size
        self.offset_mask = buffer_size - 1
        self.base_mask = ~self.offset_mask
        self.stats.configurations += 1
        # Reconfiguring the buffer size invalidates all previous mappings.
        for entry in self.entries:
            entry.valid = False
        self._tag_index.clear()

    @property
    def is_configured(self) -> bool:
        return self.buffer_size is not None

    def split_address(self, addr: int) -> Tuple[int, int]:
        """Decompose ``addr`` into (base, offset) with the mask registers."""
        if not self.is_configured:
            raise RuntimeError("directory used before configuring the buffer size")
        return addr & self.base_mask, addr & self.offset_mask

    # -- update (driven by dma-get) ------------------------------------------------
    def buffer_index(self, lm_offset: int) -> int:
        """Directory entry index of the LM buffer starting at ``lm_offset``.

        Because all buffers are equally sized, the base address of a buffer is
        equivalent to its buffer number (Section 3.2).
        """
        if not self.is_configured:
            raise RuntimeError("directory used before configuring the buffer size")
        index = lm_offset // self.buffer_size
        if not (0 <= index < self.num_entries):
            raise ValueError(
                f"LM buffer at offset {lm_offset:#x} maps to entry {index}, "
                f"but the directory only has {self.num_entries} entries")
        return index

    def update(self, lm_offset: int, lm_base_vaddr: int, sm_addr: int,
               ready_time: float = 0.0) -> DirectoryEntry:
        """Record that a dma-get maps SM data at ``sm_addr`` to an LM buffer.

        ``lm_offset`` is the physical offset of the destination buffer (used
        to derive the entry index), ``lm_base_vaddr`` is the buffer's virtual
        base address stored in the entry, and ``ready_time`` is the cycle at
        which the transfer completes (the presence bit is conceptually unset
        until then).
        """
        base, offset = self.split_address(sm_addr)
        if offset != 0:
            raise ValueError(
                f"dma-get source address {sm_addr:#x} is not aligned to the "
                f"LM buffer size {self.buffer_size:#x}; the compiler must map "
                "chunk-aligned data")
        index = self.buffer_index(lm_offset)
        entry = self.entries[index]
        if entry.valid and self._tag_index.get(entry.tag) == index:
            del self._tag_index[entry.tag]
        stale = self._tag_index.get(base)
        if stale is not None:
            # The chunk moved to a different buffer: the old mapping is dead
            # (a chunk lives in at most one LM buffer).
            self.entries[stale].valid = False
        entry.valid = True
        entry.tag = base
        entry.lm_base = lm_base_vaddr
        entry.present = False
        entry.ready_time = ready_time
        self._tag_index[base] = index
        self.stats.updates += 1
        return entry

    def invalidate_buffer(self, lm_offset: int) -> None:
        """Explicitly unmap the buffer at ``lm_offset`` (used by tests)."""
        index = self.buffer_index(lm_offset)
        entry = self.entries[index]
        entry.valid = False
        if self._tag_index.get(entry.tag) == index:
            del self._tag_index[entry.tag]

    # -- the directory side of DMA commands ----------------------------------------
    # With :meth:`configure`, the only tag changes a run makes: the hybrid
    # systems and the replay oracle's directory pre-pass both make them
    # through these two calls.
    def map_dma_get(self, lm_offset: int, lm_base_vaddr: int, sm_addr: int,
                    ready_time: float = 0.0) -> None:
        """A dma-get maps its destination buffer to ``sm_addr`` — once the
        buffer size is configured (before that the directory tracks
        nothing)."""
        if self.is_configured:
            self.update(lm_offset, lm_base_vaddr, sm_addr, ready_time)

    def unmap_dma_put(self, lm_offset: int, sm_addr: int) -> bool:
        """A multicore dma-put ends its chunk's LM residence: unmap the
        buffer at ``lm_offset`` if it still maps ``sm_addr``'s chunk.
        Returns whether it did."""
        if not self.is_configured:
            return False
        entry = self.entries[self.buffer_index(lm_offset)]
        if not (entry.valid and entry.tag == (sm_addr & self.base_mask)):
            return False
        self.invalidate_buffer(lm_offset)
        return True

    # -- lookup (driven by guarded memory instructions) ------------------------------
    def lookup(self, sm_addr: int, now: float = 0.0) -> Tuple[bool, int, float]:
        """CAM lookup for a potentially incoherent SM address.

        Returns ``(hit, target_address, stall_cycles)``:

        * on a hit, ``target_address`` is the LM virtual address of the copy
          (LM buffer base OR-ed with the address offset) and ``stall_cycles``
          is the time to wait for an in-flight dma-get (presence bit), which
          is zero when the data has already arrived;
        * on a miss, ``target_address`` is the original SM address and
          ``stall_cycles`` is zero.
        """
        base, offset = self.split_address(sm_addr)
        self.stats.lookups += 1
        index = self._tag_index.get(base)
        if index is not None:
            entry = self.entries[index]
            if entry.valid:
                self.stats.hits += 1
                stall = 0.0
                if not entry.present and now < entry.ready_time:
                    stall = entry.ready_time - now
                    self.stats.presence_stalls += 1
                if now >= entry.ready_time:
                    entry.present = True
                return True, entry.lm_base | offset, stall
        self.stats.misses += 1
        return False, sm_addr, 0.0

    def peek_lookup(self, sm_addr: int) -> Tuple[bool, int]:
        """Lookup without touching statistics or the presence bit.

        Used by the *oracle* baseline of Figure 8 (an incoherent hybrid
        system whose compiler magically resolved all aliasing): the simulator
        still needs to know where the valid copy lives to execute correctly,
        but no directory hardware is exercised.
        """
        if not self.is_configured:
            return False, sm_addr
        base = sm_addr & self.base_mask
        offset = sm_addr & self.offset_mask
        index = self._tag_index.get(base)
        if index is not None and self.entries[index].valid:
            return True, self.entries[index].lm_base | offset
        return False, sm_addr

    def mapped_sm_ranges(self) -> List[Tuple[int, int]]:
        """List of (sm_base, size) ranges currently mapped (for verification)."""
        if not self.is_configured:
            return []
        return [(e.tag, self.buffer_size) for e in self.entries if e.valid]

    def reset(self) -> None:
        """Invalidate all entries and zero statistics."""
        for entry in self.entries:
            entry.valid = False
            entry.present = True
        self._tag_index.clear()
        self.stats = DirectoryStats()


# --------------------------------------------------------------- home-node map
#: Chunk ownership states of the home-node directory.
CHUNK_UNOWNED = 0
CHUNK_OWNED = 1

#: Transition table of the home-node ownership protocol, in the style of an
#: N-core home-node MSI directory controller: ``(state, event) -> state``.
#: CLAIM is a core registering a dma-get mapping (an OWNED chunk may be
#: re-claimed — migration after the previous owner's dma-put handoff, or a
#: refresh by the same owner); RELEASE is the dma-put write-back ending the
#: chunk's LM residence (idempotent: releasing an UNOWNED chunk is a no-op,
#: which is how stale releases after a reconfiguration drain harmlessly).
HOME_TRANSITIONS: Dict[Tuple[int, str], int] = {
    (CHUNK_UNOWNED, "claim"): CHUNK_OWNED,
    (CHUNK_OWNED, "claim"): CHUNK_OWNED,
    (CHUNK_OWNED, "release"): CHUNK_UNOWNED,
    (CHUNK_UNOWNED, "release"): CHUNK_UNOWNED,
}


@dataclass
class HomeSliceStats:
    """Activity counters of one home-node directory slice."""

    lookups: int = 0
    claims: int = 0
    releases: int = 0
    migrations: int = 0     # OWNED -> OWNED claims that changed the owner

    def as_dict(self) -> Dict[str, int]:
        return {"lookups": self.lookups, "claims": self.claims,
                "releases": self.releases, "migrations": self.migrations}


class HomeNodeDirectory:
    """Address-interleaved chunk-ownership directory with per-cluster slices.

    Scales the multicore's ownership record past the per-core 32-entry CAM
    model: each chunk key ``(chunk size, chunk-aligned base)`` is tracked by
    exactly one *slice* — the home node of its base address — and every
    state change runs through :data:`HOME_TRANSITIONS`.  With one slice
    (``num_slices=1``, the flat single-bus machine) the structure degenerates
    to the previous single-dict behaviour bit-for-bit; with a clustered
    uncore, ``home_fn`` (typically
    :meth:`~repro.mem.uncore.ClusterUncore.home_cluster`) spreads the
    chunks across per-cluster slices so each cluster's directory slice only
    sees its own memory's chunks.

    The directory is purely functional (no latency is charged here — the
    coherence *timing* lives in the per-core directories and the uncore), so
    replays under cluster overrides remain valid.
    """

    def __init__(self, num_slices: int = 1, home_fn=None):
        if num_slices <= 0:
            raise ValueError("the home-node directory needs at least one slice")
        self.num_slices = num_slices
        self._home_fn = home_fn
        #: Per-slice (chunk size, base) -> owning core.
        self._slices: List[Dict[Tuple[int, int], int]] = [
            {} for _ in range(num_slices)]
        self.slice_stats: List[HomeSliceStats] = [
            HomeSliceStats() for _ in range(num_slices)]
        #: Total live entries across slices (the hot-path emptiness check).
        self.total_entries = 0

    def slice_of(self, base: int) -> int:
        """Home slice of a chunk-aligned ``base`` address."""
        if self.num_slices == 1 or self._home_fn is None:
            return 0
        return self._home_fn(base) % self.num_slices

    def _apply(self, state: int, event: str) -> int:
        next_state = HOME_TRANSITIONS.get((state, event))
        if next_state is None:  # pragma: no cover - table is total today
            raise ValueError(f"illegal home-node transition {event!r} "
                             f"from state {state}")
        return next_state

    def claim(self, key: Tuple[int, int], core_id: int) -> None:
        """A dma-get mapped chunk ``key`` into ``core_id``'s LM."""
        index = self.slice_of(key[1])
        entries = self._slices[index]
        stats = self.slice_stats[index]
        owner = entries.get(key)
        state = CHUNK_UNOWNED if owner is None else CHUNK_OWNED
        self._apply(state, "claim")
        if owner is None:
            self.total_entries += 1
        elif owner != core_id:
            stats.migrations += 1
        entries[key] = core_id
        stats.claims += 1

    def release(self, key: Tuple[int, int], core_id: int) -> None:
        """``core_id`` wrote chunk ``key`` back (dma-put); drop the mapping
        if — and only if — it still owns it."""
        index = self.slice_of(key[1])
        entries = self._slices[index]
        state = CHUNK_OWNED if key in entries else CHUNK_UNOWNED
        self._apply(state, "release")
        if entries.get(key) == core_id:
            del entries[key]
            self.total_entries -= 1
        self.slice_stats[index].releases += 1

    def owner(self, key: Tuple[int, int]) -> Optional[int]:
        """Owning core of chunk ``key`` (None when unowned)."""
        index = self.slice_of(key[1])
        self.slice_stats[index].lookups += 1
        return self._slices[index].get(key)

    def drop_core(self, core_id: int) -> None:
        """Forget every chunk ``core_id`` owns (LM buffer reconfiguration
        invalidates all of that core's mappings at once)."""
        for entries in self._slices:
            stale = [key for key, owner in entries.items()
                     if owner == core_id]
            for key in stale:
                del entries[key]
            self.total_entries -= len(stale)

    def __len__(self) -> int:
        return self.total_entries

    def items(self) -> List[Tuple[Tuple[int, int], int]]:
        """Every (chunk key, owner) pair, across slices (introspection)."""
        return [(key, owner) for entries in self._slices
                for key, owner in entries.items()]

    def stats_summary(self) -> dict:
        return {
            "num_slices": self.num_slices,
            "entries": self.total_entries,
            "slices": [s.as_dict() for s in self.slice_stats],
        }
