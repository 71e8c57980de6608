"""Unit tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

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


# ------------------------------------------------ set-wise fetch settle


def _walk_fetches(cache, addrs):
    """The reference settle: one demand read per fetch, a fill per miss."""
    for addr in addrs:
        if not cache.access(addr, False):
            cache.fill(addr)


def _contents(cache):
    return {i: list(s.items()) for i, s in cache._sets.items() if s}


def _assert_resident_in_step(cache):
    assert cache._resident == {line for s in cache._sets.values()
                               for line in s}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_settle_fetches_equals_access_then_fill_walk(data):
    """The set-wise settle equals the access-then-fill walk: statistics,
    every set's lines in LRU order with their dirty bits, and the resident
    lines.  Caches of 1-8 ways and 1-16 sets, with prior (possibly dirty)
    contents, fetching from a span of lines sized to the cache so that sets
    fit their ways, fill them exactly, or overflow them by one or two."""
    assoc = data.draw(st.integers(1, 8), label="assoc")
    num_sets = data.draw(st.integers(1, 16), label="num_sets")
    write_back = data.draw(st.booleans(), label="write_back")
    # Each set draws from the same number of candidate lines: fewer than
    # its ways, exactly as many, or one or two more.
    per_set = data.draw(st.integers(1, assoc + 2), label="per_set")
    line = st.integers(0, num_sets * per_set - 1)
    prior = data.draw(st.lists(st.tuples(line, st.booleans()),
                               max_size=num_sets), label="prior")
    # Runs of fetches within one line, as a fetch stream has.
    runs = data.draw(st.lists(st.tuples(line, st.integers(1, 5),
                                        st.integers(0, 63)),
                              max_size=120), label="runs")
    settled = make_cache(size_bytes=assoc * num_sets * 64, assoc=assoc,
                         write_back=write_back)
    walked = make_cache(size_bytes=assoc * num_sets * 64, assoc=assoc,
                        write_back=write_back)
    for cache in (settled, walked):
        for index, dirty in prior:
            cache.fill(index * 64, dirty=dirty)
    addrs = [index * 64 + (offset + k) % 64
             for index, length, offset in runs for k in range(length)]
    settled.settle_fetches(addrs)
    _walk_fetches(walked, addrs)
    assert settled.stats.as_dict() == walked.stats.as_dict()
    assert _contents(settled) == _contents(walked)
    _assert_resident_in_step(settled)


@pytest.mark.parametrize("assoc", [1, 2, 3])
def test_settle_fetches_equals_the_walk_on_every_short_stream(assoc):
    """Every stream of up to five fetches over a one-set cache's ways plus
    two lines: the streams whose distinct lines just overflow the set and
    come back to an evicted line are the ones random streams rarely hit."""
    import itertools

    for length in range(1, 6):
        for stream in itertools.product(range(assoc + 2), repeat=length):
            addrs = [index * 64 for index in stream]
            settled = make_cache(size_bytes=assoc * 64, assoc=assoc)
            walked = make_cache(size_bytes=assoc * 64, assoc=assoc)
            settled.settle_fetches(addrs)
            _walk_fetches(walked, addrs)
            assert settled.stats.as_dict() == walked.stats.as_dict(), stream
            assert _contents(settled) == _contents(walked), stream


@settings(max_examples=100, deadline=None)
@given(write_back=st.booleans(),
       ops=st.lists(st.tuples(
           st.sampled_from(["fill", "access", "invalidate", "snoop-get",
                            "snoop-put", "settle", "flush"]),
           st.integers(0, 47), st.integers(1, 12), st.booleans()),
           max_size=60))
def test_resident_lines_track_the_sets(write_back, ops):
    """The resident-line set a DMA snoop intersects with stays the union of
    the sets' lines after any sequence of fills, accesses, invalidations,
    snoops, fetch settles and flushes."""
    cache = make_cache(size_bytes=1024, assoc=2, write_back=write_back)
    for op, line, count, flag in ops:
        addr = line * 64
        if op == "fill":
            cache.fill(addr, dirty=flag)
        elif op == "access":
            cache.access(addr, flag)
        elif op == "invalidate":
            cache.invalidate(addr)
        elif op in ("snoop-get", "snoop-put"):
            cache.snoop_batch(range(addr, addr + count * 64, 64),
                              op == "snoop-put")
        elif op == "settle":
            cache.settle_fetches([addr + 64 * (k // 3)
                                  for k in range(count)])
        else:
            cache.flush()
        _assert_resident_in_step(cache)
        assert cache.resident_lines == len(cache._resident)
