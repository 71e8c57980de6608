"""Unit tests for the set-associative cache model."""

import pytest

from repro.mem.cache import Cache


def make_cache(**kwargs):
    defaults = dict(name="L1", size_bytes=1024, assoc=2, line_size=64,
                    latency=2, write_back=True)
    defaults.update(kwargs)
    return Cache(**defaults)


def test_too_small_cache_rejected():
    with pytest.raises(ValueError):
        Cache("bad", 64, 2, 64, 1)


def test_line_address_alignment():
    c = make_cache()
    assert c.line_address(0) == 0
    assert c.line_address(63) == 0
    assert c.line_address(64) == 64
    assert c.line_address(130) == 128


def test_miss_then_hit_after_fill():
    c = make_cache()
    assert not c.access(0x100, is_write=False)
    c.fill(0x100)
    assert c.access(0x100, is_write=False)
    assert c.stats.hits == 1 and c.stats.misses == 1


def test_lru_eviction_order():
    c = make_cache()  # 2-way: same set for addresses 1024 bytes apart (8 sets)
    set_stride = c.num_sets * c.line_size
    a, b, d = 0x0, set_stride, 2 * set_stride
    c.fill(a)
    c.fill(b)
    # Touch `a` so that `b` becomes LRU.
    assert c.access(a, False)
    evicted = c.fill(d)
    assert evicted is not None
    assert evicted[0] == b


def test_writeback_cache_marks_dirty_and_reports_eviction():
    c = make_cache(write_back=True)
    c.fill(0x0)
    c.access(0x0, is_write=True)
    assert c.is_dirty(0x0)
    set_stride = c.num_sets * c.line_size
    c.fill(set_stride)
    evicted = c.fill(2 * set_stride)
    assert evicted == (0, True)
    assert c.stats.writebacks == 1


def test_writethrough_cache_never_dirty():
    c = make_cache(write_back=False)
    c.fill(0x0)
    c.access(0x0, is_write=True)
    assert not c.is_dirty(0x0)


def test_invalidate():
    c = make_cache()
    c.fill(0x40)
    present, dirty = c.invalidate(0x40)
    assert present and not dirty
    assert not c.probe(0x40)
    present, _ = c.invalidate(0x40)
    assert not present
    assert c.stats.invalidations == 2


def test_probe_does_not_change_lru():
    c = make_cache()
    set_stride = c.num_sets * c.line_size
    c.fill(0x0)
    c.fill(set_stride)
    # Probing `0x0` must not protect it: it is still LRU? No - fill order
    # makes set_stride MRU; probing 0x0 must not promote it.
    c.probe(0x0)
    evicted = c.fill(2 * set_stride)
    assert evicted[0] == 0x0


def test_access_kinds_bucket_statistics():
    c = make_cache()
    c.access(0x0, False, kind="prefetch")
    c.access(0x0, False, kind="dma")
    c.access(0x0, True, kind="writethrough")
    assert c.stats.prefetch_lookups == 1
    assert c.stats.dma_lookups == 1
    assert c.stats.writethrough_accesses == 1
    assert c.stats.demand_accesses == 0
    assert c.stats.accesses == 3


def test_fill_existing_line_does_not_evict():
    c = make_cache()
    c.fill(0x0)
    assert c.fill(0x0) is None
    assert c.resident_lines == 1


def test_flush_reports_dirty_lines():
    c = make_cache()
    c.fill(0x0, dirty=True)
    c.fill(0x40, dirty=False)
    assert c.flush() == 1
    assert c.resident_lines == 0


def test_hit_ratio_property():
    c = make_cache()
    c.fill(0x0)
    c.access(0x0, False)
    c.access(0x1000, False)
    assert c.stats.hit_ratio == pytest.approx(0.5)


@pytest.mark.parametrize("write_back", [False, True])
@pytest.mark.parametrize("invalidate", [False, True])
def test_snoop_batch_matches_per_line_calls(write_back, invalidate):
    """A DMA burst's batched snoop equals one ``access(kind="dma")`` (or
    one ``invalidate``) per line: same sets in LRU order, same dirty bits,
    every statistics field, and the lines left unheld — on a write-through
    L1 and on write-back levels holding dirty lines."""
    import random

    rng = random.Random(write_back * 2 + invalidate)
    for _ in range(30):
        batched = make_cache(size_bytes=2048, assoc=4,
                             write_back=write_back)
        scalar = make_cache(size_bytes=2048, assoc=4, write_back=write_back)
        seed = rng.random()
        for cache in (batched, scalar):
            warm = random.Random(seed)
            for _ in range(60):
                addr = warm.randrange(0, 96) * 64 + warm.randrange(64)
                if warm.random() < 0.5:
                    cache.fill(addr, dirty=warm.random() < 0.5)
                else:
                    cache.access(addr, warm.random() < 0.5)
        if write_back:
            assert any(d for s in batched._sets.values() for d in s.values())
        for _ in range(4):
            first = rng.randrange(0, 96)
            lines = [(first + k) * 64 for k in range(rng.randrange(1, 40))]
            unheld = batched.snoop_batch(lines, invalidate)
            if invalidate:
                for line in lines:
                    scalar.invalidate(line)
                assert list(unheld) == lines
            else:
                hits = [scalar.access(line, False, kind="dma")
                        for line in lines]
                assert list(unheld) == [line for line, hit
                                        in zip(lines, hits) if not hit]
            assert {i: list(s.items()) for i, s in batched._sets.items()} \
                == {i: list(s.items()) for i, s in scalar._sets.items()}
            assert batched.stats.as_dict() == scalar.stats.as_dict()
