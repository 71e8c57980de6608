"""Unit tests for MSHRs, the prefetcher, main memory and the bus."""

import pytest

from repro.mem.bus import Bus
from repro.mem.main_memory import MainMemory
from repro.mem.mshr import MSHRFile
from repro.mem.prefetcher import StreamPrefetcher


# ------------------------------------------------------------------------------- MSHR
def test_mshr_merges_requests_to_same_line():
    mshr = MSHRFile(4)
    first = mshr.request(0x100, now=0.0, full_latency=100.0)
    second = mshr.request(0x100, now=50.0, full_latency=100.0)
    assert first == 100.0
    assert second == pytest.approx(50.0)
    assert mshr.merges == 1


def test_mshr_full_stalls_new_requests():
    mshr = MSHRFile(2)
    mshr.request(0x0, 0.0, 100.0)
    mshr.request(0x40, 0.0, 100.0)
    latency = mshr.request(0x80, 0.0, 100.0)
    # Must wait for the earliest entry (completes at 100) before starting.
    assert latency == pytest.approx(200.0)
    assert mshr.full_stalls == 1


def test_mshr_expires_completed_entries():
    mshr = MSHRFile(1)
    mshr.request(0x0, 0.0, 10.0)
    # At time 20 the previous miss has retired; no stall.
    latency = mshr.request(0x40, 20.0, 10.0)
    assert latency == pytest.approx(10.0)


def test_mshr_rejects_zero_entries():
    with pytest.raises(ValueError):
        MSHRFile(0)


# -------------------------------------------------------------------------- prefetcher
def test_prefetcher_detects_stride_after_confidence():
    pf = StreamPrefetcher(table_size=4, degree=2, line_size=64)
    # The no-prefetch paths return an empty (falsy) sequence.
    assert not pf.train(pc=1, addr=0)
    assert not pf.train(pc=1, addr=64)         # first stride observed
    prefetches = pf.train(pc=1, addr=128)       # stride confirmed
    assert prefetches, "confident stream should prefetch"
    assert all(p % 64 == 0 for p in prefetches)
    assert prefetches[0] > 128


def test_prefetcher_irregular_pattern_never_prefetches():
    pf = StreamPrefetcher(table_size=4)
    addrs = [0, 512, 64, 8192, 32, 1024]
    for a in addrs:
        assert not pf.train(pc=7, addr=a)


def test_prefetcher_table_collisions_evict_streams():
    pf = StreamPrefetcher(table_size=2)
    for pc in range(4):
        pf.train(pc=pc, addr=pc * 10_000)
    assert pf.collisions == 2
    assert pf.live_streams == 2


def test_full_stream_table_reuses_the_evicted_entry():
    """A collision recycles the LRU stream's entry object, reset for the new
    stream, on both training paths (``train`` and the hierarchy's inline
    demand path)."""
    pf = StreamPrefetcher(table_size=2)
    for pc in range(2):
        pf.train(pc=pc, addr=pc * 10_000 + 64)
        pf.train(pc=pc, addr=pc * 10_000 + 128)   # a stride: non-zero state
    lru = pf._table[0]
    pf.train(pc=5, addr=50_000)
    assert pf._table[5] is lru and 0 not in pf._table
    assert (lru.last_addr, lru.stride, lru.confidence) == (50_000 - 50_000 % 64,
                                                           0, 0)

    from repro.mem.hierarchy import MemoryHierarchy, MemoryHierarchyConfig
    h = MemoryHierarchy(MemoryHierarchyConfig(prefetch_table_size=2))
    for pc in range(2):
        h.demand(pc * 10_000 + 64, False, pc, 0.0)
        h.demand(pc * 10_000 + 128, False, pc, 0.0)
    table = h.prefetcher._table
    lru = table[0]
    h.demand(50_000, False, 5, 0.0)
    assert table[5] is lru and 0 not in table
    assert (lru.last_addr, lru.stride, lru.confidence) == (50_000 - 50_000 % 64,
                                                           0, 0)
    assert h.prefetcher.collisions == 1


def test_demand_path_trains_like_the_stand_alone_prefetcher():
    """``MemoryHierarchy.demand`` runs the stream detector inline; on random
    strided and irregular streams (more pcs than table entries) it must
    leave the table, its LRU order and every counter exactly as
    :meth:`StreamPrefetcher.train` does."""
    import random

    from repro.mem.hierarchy import MemoryHierarchy, MemoryHierarchyConfig

    rng = random.Random(20261019)
    for _ in range(20):
        config = MemoryHierarchyConfig(
            prefetch_table_size=rng.choice([2, 4, 16]),
            prefetch_degree=rng.choice([1, 2, 4]),
            prefetch_distance=rng.choice([1, 2, 4]))
        h = MemoryHierarchy(config)
        ref = StreamPrefetcher(config.prefetch_table_size,
                               config.prefetch_degree,
                               config.prefetch_distance, config.line_size)
        cursor = {}
        for _ in range(300):
            pc = rng.randrange(0, 12) * 4
            step = rng.choice([0, 8, 64, 64, 128, -64, rng.randrange(8192)])
            cursor[pc] = cursor.get(pc, pc * 4096) + step
            h.demand(cursor[pc], rng.random() < 0.3, pc, 0.0)
            ref.train(pc, cursor[pc])
            got, want = h.prefetcher, ref
            assert [(pc, e.last_addr, e.stride, e.confidence)
                    for pc, e in got._table.items()] == \
                [(pc, e.last_addr, e.stride, e.confidence)
                 for pc, e in want._table.items()]
            assert (got.trainings, got.issued, got.collisions) == \
                (want.trainings, want.issued, want.collisions)


def test_prefetcher_zero_stride_ignored():
    pf = StreamPrefetcher()
    pf.train(pc=3, addr=100)
    assert not pf.train(pc=3, addr=100)


# ------------------------------------------------------------------------ main memory
def test_main_memory_read_write_word():
    mem = MainMemory()
    mem.write_word(0x100, 3.5)
    assert mem.read_word(0x100) == 3.5
    assert mem.read_word(0x107) == 3.5          # same 8-byte word
    assert mem.read_word(0x108) == 0
    assert mem.reads == 3 and mem.writes == 1


def test_main_memory_block_transfer_round_trip():
    mem = MainMemory()
    mem.write_block(0x200, [1.0, 2.0, 3.0])
    assert mem.read_block(0x200, 24) == [1.0, 2.0, 3.0]
    assert mem.peek(0x208) == 2.0


def test_main_memory_poke_does_not_count():
    mem = MainMemory()
    mem.poke(0x0, 9.0)
    assert mem.reads == 0 and mem.writes == 0
    assert mem.peek(0x0) == 9.0


# ------------------------------------------------------------------------------ bus
def test_bus_counts_and_latency():
    bus = Bus(latency_per_line=4)
    latency = bus.transfer(8, 64, dma=True)
    assert latency == 32
    assert bus.transactions == 8
    assert bus.dma_transactions == 8
    assert bus.bytes_transferred == 512


def test_bus_rejects_negative_transfer():
    with pytest.raises(ValueError):
        Bus().transfer(-1, 64)
