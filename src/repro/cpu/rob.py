"""Reorder-buffer occupancy model.

The ROB bounds the number of in-flight instructions: a new instruction cannot
be dispatched until the instruction ``rob_size`` positions earlier has
committed.  Commit is in order and limited to ``commit_width`` instructions
per cycle.  The execution lane (:mod:`repro.cpu.executor`) applies both rules
inline; this class holds the buffer's state and its results.
"""

from __future__ import annotations

from collections import deque


class ReorderBuffer:
    """Tracks in-order commit times of the last ``size`` instructions."""

    def __init__(self, size: int = 128, commit_width: int = 4):
        if size <= 0:
            raise ValueError("ROB size must be positive")
        self.size = size
        self.commit_width = commit_width
        self._commit_times: deque = deque(maxlen=size)
        self._last_commit_time = 0.0
        self._commit_bandwidth_time = 0.0
        self.dispatch_stalls = 0.0

    @property
    def last_commit_time(self) -> float:
        return self._last_commit_time
