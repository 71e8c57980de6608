"""Uncore window arbitration against a slot-by-slot reference.

:meth:`repro.mem.uncore.Uncore.acquire` drops full windows below its
bandwidth frontier and claims the untouched part of a request
arithmetically.  The reference below keeps every window it ever touched and
claims one line slot at a time, which is the arbitration model stated in
the module docstring: a request's slots go, in order, to the first windows
at or after ``now`` with capacity left, and its delay is the gap between
``now`` and the start of the window of its first slot.  Every request's
delay, the final occupancy of every window and the arbitration counters
must agree.
"""

import random
from bisect import bisect_right

import pytest

from repro.harness.config import PARALLEL_CORE_SPAN, PARALLEL_DATA_BASE
from repro.mem.uncore import ClusterTopology, ClusterUncore, Uncore

_COUNTERS = ("requests", "lines_requested", "contended_requests",
             "queue_delay_cycles")


class _SlotReference:
    """Every claimed window stored, one line slot claimed at a time."""

    def __init__(self, window_cycles, window_lines):
        self.window_cycles = window_cycles
        self.window_lines = window_lines
        self.used = {}
        self.requests = self.lines_requested = self.contended_requests = 0
        self.queue_delay_cycles = 0.0

    def acquire(self, now, lines=1):
        if lines <= 0:
            return 0.0
        w = int(now) // self.window_cycles
        first = None
        for _ in range(lines):
            while self.used.get(w, 0) >= self.window_lines:
                w += 1
            if first is None:
                first = w
            self.used[w] = self.used.get(w, 0) + 1
        start = first * self.window_cycles
        delay = start - now if start > now else 0.0
        self.requests += 1
        self.lines_requested += lines
        if delay > 0.0:
            self.contended_requests += 1
            self.queue_delay_cycles += delay
        return delay


def _occupancy(uncore, window):
    """Slots used in ``window``: windows below the frontier and inside a
    run are full."""
    i = bisect_right(uncore._run_lo, window) - 1
    if window < uncore._frontier or (i >= 0 and window < uncore._run_hi[i]):
        return uncore.window_lines
    return uncore._windows.get(window, 0)


def _assert_same_state(uncore, ref):
    last = max(list(ref.used) + list(uncore._windows) + uncore._run_hi
               + [uncore._frontier])
    assert [_occupancy(uncore, w) for w in range(last + 2)] == \
        [ref.used.get(w, 0) for w in range(last + 2)]
    # The runs are maximal and sorted above the frontier; the partial
    # windows are indexed in order and really partial.
    bounds = [uncore._frontier]
    for lo, hi in zip(uncore._run_lo, uncore._run_hi):
        assert bounds[-1] < lo < hi
        bounds.append(hi)
    assert uncore._partial == sorted(uncore._windows)
    assert all(0 < used < uncore.window_lines
               for used in uncore._windows.values())
    for name in _COUNTERS:
        assert getattr(uncore, name) == getattr(ref, name), name


def _run(uncore, ref, requests):
    for step, (now, lines) in enumerate(requests):
        assert uncore.acquire(now, lines) == ref.acquire(now, lines), \
            (step, now, lines)
        _assert_same_state(uncore, ref)


def _pair(window_cycles=4, window_lines=2):
    return (Uncore(window_cycles=window_cycles, window_lines=window_lines),
            _SlotReference(window_cycles, window_lines))


def test_bursts_at_the_frontier_advance_it_without_storing_windows():
    uncore, ref = _pair()
    _run(uncore, ref, [(0.0, 64), (0.0, 64), (3.0, 7), (10.0, 64)])
    # Three full 64-line bursts plus 7 lines: only the partial window is
    # kept, and no run.
    assert len(uncore._windows) == 1 and not uncore._run_lo


def test_bursts_top_up_partial_windows_and_spill_past_the_last_claim():
    uncore, ref = _pair()
    # Single-line misses leave partial windows ahead of the frontier (and a
    # gap of free windows), then a burst tops them up in order, fills the
    # untouched windows between them and spills past the last claim.
    requests = [(0.0, 1), (8.0, 1), (16.0, 1), (40.0, 1), (0.0, 64),
                (17.0, 1), (4.0, 64), (200.0, 3), (180.0, 64)]
    _run(uncore, ref, requests)


def test_now_behind_the_frontier_queues_at_the_frontier():
    uncore, ref = _pair(window_cycles=2, window_lines=1)
    _run(uncore, ref, [(0.0, 64), (5.0, 1), (1.0, 64), (0.0, 1),
                       (90.0, 5), (3.0, 2)])
    assert uncore.contended_requests > 0


@pytest.mark.parametrize("window_cycles,window_lines",
                         [(4, 2), (1, 1), (8, 3), (2, 8)])
def test_random_request_sequences_match_slot_reference(window_cycles,
                                                       window_lines):
    rng = random.Random(window_cycles * 100 + window_lines)
    for _ in range(60):
        uncore, ref = _pair(window_cycles, window_lines)
        now = 0.0
        requests = []
        for _ in range(40):
            now = max(0.0, now + rng.choice([-50.0, -3.0, 0.0, 0.5, 2.0,
                                             9.0, 30.0, 400.0]))
            lines = rng.choice([0, 1, 1, 1, 2, 5, 17, 64])
            requests.append((now, lines))
        _run(uncore, ref, requests)


def test_cluster_arbiters_match_slot_reference():
    """The per-cluster arbiters of a :class:`ClusterUncore`, driven through
    its demand and DMA paths (local and remote homes), each equal a
    slot-by-slot reference fed the same claims."""
    rng = random.Random(20261019)
    uncore = ClusterUncore(ClusterTopology(4, 2), window_cycles=4,
                           window_lines=2, core_span=PARALLEL_CORE_SPAN,
                           data_base=PARALLEL_DATA_BASE)
    refs = []
    for arbiter in uncore.arbiters:
        ref = _SlotReference(arbiter.window_cycles, arbiter.window_lines)
        refs.append(ref)
        claim = arbiter.acquire

        def checked(now, lines=1, claim=claim, ref=ref, arbiter=arbiter):
            delay = claim(now, lines)
            assert delay == ref.acquire(now, lines)
            _assert_same_state(arbiter, ref)
            return delay
        arbiter.acquire = checked
    now = 0.0
    for _ in range(400):
        now = max(0.0, now + rng.choice([-20.0, 0.0, 1.0, 4.0, 60.0]))
        cluster = rng.randrange(2)
        addr = (PARALLEL_DATA_BASE + rng.randrange(4) * PARALLEL_CORE_SPAN
                + rng.randrange(0, 1 << 14, 64))
        if rng.random() < 0.3:
            uncore.dma_path(cluster, now, rng.choice([8, 64]), addr)
        else:
            uncore.mem_path(cluster, now, addr)
    for arbiter, ref in zip(uncore.arbiters, refs):
        assert arbiter.requests == ref.requests > 0
