"""Load/Store Queue occupancy model.

The LSQ bounds the number of in-flight memory operations.  It also owns the
bookkeeping for the double-store collapse described in Section 3.1: when the
second (plain SM) store of a compiler-generated double store reaches the LSQ
while the first store to the same address is still queued, the two are
collapsed into a single cache access.  The functional collapse is performed
by :class:`repro.core.hybrid.HybridSystem`; the LSQ tracks how often stores
are collapsed and how much pressure the extra stores add.  The execution
lane (:mod:`repro.cpu.executor`) applies the occupancy rule inline; this
class holds the queue's state and its results.
"""

from __future__ import annotations

from collections import deque


class LoadStoreQueue:
    """Tracks completion times of the last ``size`` memory operations."""

    def __init__(self, size: int = 64):
        if size <= 0:
            raise ValueError("LSQ size must be positive")
        self.size = size
        self._completion_times: deque = deque(maxlen=size)
        self.occupancy_stalls = 0.0
        self.memory_ops = 0
        self.collapsed_stores = 0
