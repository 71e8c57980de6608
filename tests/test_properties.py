"""Property-based tests (hypothesis) on the core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.directory import CoherenceDirectory
from repro.core.protocol import (
    DataState,
    ProtocolAction,
    ProtocolChecker,
    ProtocolError,
    TRANSITIONS,
)
from repro.mem.cache import Cache
from repro.mem.main_memory import MainMemory
from repro.cpu.branch_predictor import HybridBranchPredictor


# --------------------------------------------------------------------------- directory
@settings(max_examples=50, deadline=None)
@given(
    buffer_log2=st.integers(min_value=6, max_value=13),
    offsets=st.lists(st.integers(min_value=0, max_value=2 ** 20), min_size=1, max_size=20),
)
def test_directory_address_decomposition_is_lossless(buffer_log2, offsets):
    """base | offset always reconstructs the original address (Figure 4)."""
    d = CoherenceDirectory()
    d.configure(1 << buffer_log2)
    for addr in offsets:
        base, off = d.split_address(addr)
        assert base | off == addr
        assert base & off == 0


@settings(max_examples=50, deadline=None)
@given(
    buffer_log2=st.integers(min_value=6, max_value=12),
    chunks=st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=31,
                    unique=True),
    probe=st.integers(min_value=0, max_value=2 ** 22),
)
def test_directory_lookup_hits_exactly_the_mapped_chunks(buffer_log2, chunks, probe):
    buffer_size = 1 << buffer_log2
    d = CoherenceDirectory(num_entries=32)
    d.configure(buffer_size)
    lm_base = 0x7F00_0000_0000
    mapped_bases = set()
    for i, chunk in enumerate(chunks):
        sm_addr = chunk * buffer_size + 0x10_0000 * buffer_size
        d.update(lm_offset=i * buffer_size, lm_base_vaddr=lm_base + i * buffer_size,
                 sm_addr=sm_addr)
        mapped_bases.add(sm_addr)
    probe_addr = probe + 0x10_0000 * buffer_size
    hit, target, _ = d.lookup(probe_addr)
    expected_hit = (probe_addr & d.base_mask) in mapped_bases
    assert hit == expected_hit
    if hit:
        # The diverted address preserves the offset within the chunk.
        assert target & d.offset_mask == probe_addr & d.offset_mask
    else:
        assert target == probe_addr


# ------------------------------------------------------------------------------ cache
@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=300))
def test_cache_occupancy_never_exceeds_capacity(addresses):
    cache = Cache("test", size_bytes=1024, assoc=2, line_size=64, latency=1)
    for addr in addresses:
        if not cache.access(addr, is_write=False):
            cache.fill(addr)
    assert cache.resident_lines <= cache.num_sets * cache.assoc


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2047), min_size=1, max_size=200))
def test_cache_hits_plus_misses_equals_demand_accesses(addresses):
    cache = Cache("test", size_bytes=512, assoc=2, line_size=64, latency=1)
    for addr in addresses:
        if not cache.access(addr, is_write=False):
            cache.fill(addr)
    assert cache.stats.hits + cache.stats.misses == cache.stats.demand_accesses
    assert cache.stats.demand_accesses == len(addresses)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1023), min_size=2, max_size=100))
def test_repeated_access_to_resident_line_always_hits(addresses):
    cache = Cache("test", size_bytes=4096, assoc=4, line_size=64, latency=1)
    addr = addresses[0]
    cache.fill(addr)
    # Accessing the same line repeatedly without interference always hits.
    for _ in addresses:
        assert cache.access(addr, is_write=False)


# ----------------------------------------------------------------------- main memory
@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.integers(min_value=0, max_value=10_000),
                       st.floats(allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=50))
def test_main_memory_reads_back_what_was_written(mapping):
    mem = MainMemory()
    for addr, value in mapping.items():
        mem.write_word(addr * 8, value)
    for addr, value in mapping.items():
        assert mem.read_word(addr * 8) == value


# --------------------------------------------------------------------------- protocol
_ACTIONS = list(ProtocolAction)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(_ACTIONS), min_size=1, max_size=40))
def test_protocol_invariants_hold_on_any_legal_action_sequence(actions):
    """Applying any sequence of (legal) actions keeps the Section 3.4 invariants."""
    checker = ProtocolChecker(strict=True)
    chunk = 0x4000
    for action in actions:
        state = checker.state_of(chunk)
        if (state, action) not in TRANSITIONS:
            continue  # skip illegal actions: the hardware/compiler never does them
        checker.apply(chunk, action)
        # Invariant 1: with two replicas, the LM copy is valid (or identical).
        assert checker.check_replication_invariant(chunk)
        # Invariant 2: the valid copy is never only in the cache while the
        # data is mapped to the LM.
        if checker.state_of(chunk) in (DataState.LM, DataState.LM_CM):
            assert checker.valid_copy_location(chunk) == "LM"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(_ACTIONS), min_size=1, max_size=40))
def test_protocol_never_reaches_lm_cm_to_mm_directly(actions):
    """Eviction to main memory always goes through a single-replica state."""
    checker = ProtocolChecker(strict=False)
    chunk = 0x8000
    previous = checker.state_of(chunk)
    for action in actions:
        state_before = checker.state_of(chunk)
        checker.apply(chunk, action)
        state_after = checker.state_of(chunk)
        if state_before is DataState.LM_CM:
            assert state_after is not DataState.MM
        previous = state_after


# -------------------------------------------------------------------- branch predictor
@settings(max_examples=25, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=300))
def test_branch_predictor_counters_stay_consistent(outcomes):
    bp = HybridBranchPredictor(entries=64)
    for taken in outcomes:
        bp.update(0x400, taken)
    assert bp.predictions == len(outcomes)
    assert 0 <= bp.mispredictions <= bp.predictions
    assert 0.0 <= bp.misprediction_rate <= 1.0


# --------------------------------------------------------------- DMA snoops
def _snoop_read_per_line(h, lines):
    """Reference: one bus request and one top-down cache lookup per line."""
    c = h.config
    total = 0.0
    for line in lines:
        lat = h.bus.transfer(1, c.line_size, dma=True)
        if h.l1.access(line, False, kind="dma"):
            total += lat + c.l1_latency
        elif h.l2.access(line, False, kind="dma"):
            total += lat + c.l2_latency
        elif h.l3.access(line, False, kind="dma"):
            total += lat + c.l3_latency
        else:
            total += lat + c.memory_latency
    return total


def _snoop_invalidate_per_line(h, lines):
    """Reference: one bus request and one invalidation sweep per line."""
    c = h.config
    total = 0.0
    for line in lines:
        lat = h.bus.transfer(1, c.line_size, dma=True)
        h.l1.invalidate(line)
        h.l2.invalidate(line)
        h.l3.invalidate(line)
        h.memory.writes += 1
        total += lat + c.memory_latency
    return total


def _hierarchy_state(h):
    caches = {}
    for cache in (h.l1, h.l2, h.l3):
        caches[cache.name] = (
            {idx: list(s.items()) for idx, s in cache._sets.items()},
            cache.stats.as_dict())
    return (caches, h.memory.reads, h.memory.writes, h.bus.transactions,
            h.bus.dma_transactions, h.bus.bytes_transferred)


@settings(max_examples=60, deadline=None)
@given(
    warm=st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                            st.booleans()), max_size=60),
    bursts=st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=0, max_value=63),
                              st.integers(min_value=1, max_value=12)),
                    min_size=1, max_size=8),
)
def test_batched_snoops_match_per_line_snoops(warm, bursts):
    """Per-burst snoops leave every cache's contents, LRU order and
    statistics, the bus and the memory counters exactly as one snoop per
    line would, and return the same summed latency."""
    from repro.mem.hierarchy import MemoryHierarchy, MemoryHierarchyConfig

    config = MemoryHierarchyConfig(
        l1_size=512, l1_assoc=2, l2_size=1024, l2_assoc=2, l3_size=2048,
        l3_assoc=4, prefetch_enabled=False)
    batched, reference = MemoryHierarchy(config), MemoryHierarchy(config)
    line = config.line_size
    for h in (batched, reference):
        for step, (slot, is_write) in enumerate(warm):
            h.access(slot * line, is_write, now=1000.0 * step)
    assert _hierarchy_state(batched) == _hierarchy_state(reference)
    for is_put, first, count in bursts:
        lines = [(first + k) * line for k in range(count)]
        if is_put:
            got = batched.snoop_invalidate_lines(lines)
            want = _snoop_invalidate_per_line(reference, lines)
        else:
            got = batched.snoop_read_lines(lines)
            want = _snoop_read_per_line(reference, lines)
        assert got == want
        assert _hierarchy_state(batched) == _hierarchy_state(reference)
