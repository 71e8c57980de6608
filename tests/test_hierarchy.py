"""Unit tests for the assembled memory hierarchy."""

import pytest

from repro.mem.hierarchy import MemoryHierarchy, MemoryHierarchyConfig


def small_config(**kwargs):
    defaults = dict(l1_size=1024, l1_assoc=2, l2_size=4096, l2_assoc=4,
                    l3_size=16384, l3_assoc=8, memory_latency=100,
                    prefetch_enabled=False)
    defaults.update(kwargs)
    return MemoryHierarchyConfig(**defaults)


def test_cold_miss_goes_to_memory_then_hits_in_l1():
    h = MemoryHierarchy(small_config())
    first = h.access(0x1000, is_write=False)
    assert first.level == "MEM"
    assert first.latency >= h.config.memory_latency
    second = h.access(0x1000, is_write=False)
    assert second.level == "L1"
    assert second.latency == h.config.l1_latency


def test_l2_hit_after_l1_eviction():
    cfg = small_config()
    h = MemoryHierarchy(cfg)
    h.access(0x0, False, now=0.0)
    # Evict 0x0 from the tiny L1 by touching many other lines in its set.
    # The clock advances between accesses so earlier misses have retired
    # from the MSHRs.
    stride = h.l1.num_sets * cfg.line_size
    for i in range(1, 4):
        h.access(i * stride, False, now=1000.0 * i)
    result = h.access(0x0, False, now=10_000.0)
    assert result.level in ("L2", "L3")
    assert result.latency < cfg.memory_latency


def test_write_through_updates_l2_activity():
    h = MemoryHierarchy(small_config())
    h.access(0x2000, is_write=True)   # miss, fill, write-through
    before = h.l2.stats.writethrough_accesses
    h.access(0x2000, is_write=True)   # L1 hit, still written through -> counted
    assert h.l2.stats.writethrough_accesses > 0
    assert h.l2.stats.writethrough_accesses >= before


def test_snoop_read_prefers_cached_copy():
    h = MemoryHierarchy(small_config())
    h.access(0x3000, False)           # brings the line into L1/L2/L3
    latency_cached = h.snoop_read_lines([0x3000])
    latency_uncached = h.snoop_read_lines([0x9000])
    assert latency_cached < latency_uncached
    assert h.bus.dma_transactions == 2


def test_snoop_invalidate_removes_line_everywhere():
    h = MemoryHierarchy(small_config())
    h.access(0x4000, False)
    assert h.l1.probe(0x4000)
    h.snoop_invalidate_lines([0x4000])
    assert not h.l1.probe(0x4000)
    assert not h.l2.probe(0x4000)
    assert not h.l3.probe(0x4000)
    # The line must be fetched from memory again.
    assert h.access(0x4000, False).level == "MEM"


def test_prefetcher_brings_next_lines_of_a_stream():
    h = MemoryHierarchy(small_config(prefetch_enabled=True,
                                     prefetch_degree=2, prefetch_distance=1))
    pc = 0x44
    for i in range(4):
        h.access(0x8000 + i * 64, False, pc=pc)
    # A line ahead of the demand stream should already be resident.
    ahead = [0x8000 + j * 64 for j in range(4, 8)]
    assert any(h.l1.probe(line) or h.l2.probe(line) for line in ahead)
    assert h.prefetcher.issued > 0


def test_amat_accumulates():
    h = MemoryHierarchy(small_config())
    h.access(0x0, False)
    h.access(0x0, False)
    assert h.demand_accesses == 2
    assert h.amat > h.config.l1_latency / 2


def test_functional_words_live_in_main_memory():
    h = MemoryHierarchy(small_config())
    h.write_word(0x100, 7.5)
    assert h.read_word(0x100) == 7.5


def test_fetch_access_counts_icache():
    h = MemoryHierarchy(small_config())
    h.fetch([0x400000, 0x400000])
    assert h.icache_accesses == 2
    assert h.l1i.stats.accesses == 3            # two lookups and one fill
    assert (h.l1i.stats.hits, h.l1i.stats.misses) == (1, 1)


def test_stats_summary_keys():
    h = MemoryHierarchy(small_config())
    h.access(0x0, False)
    summary = h.stats_summary()
    for key in ("L1", "L2", "L3", "memory_reads", "bus_transactions", "amat"):
        assert key in summary
