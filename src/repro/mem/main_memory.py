"""Functional main memory and its timing parameters.

Data is stored at 8-byte-word granularity in a dictionary keyed by word
address.  This keeps the functional model sparse (only touched words are
stored) and flexible about data types: values are ordinary Python numbers
(ints or floats), which is sufficient for the NAS-style kernels used in the
evaluation.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, List

from repro.isa.program import WORD_SIZE


class MainMemory:
    """Backing store for the system memory (SM).

    Parameters
    ----------
    latency:
        Access latency in cycles for a demand miss that reaches main memory
        (on top of the cache-hierarchy lookup latencies).
    """

    def __init__(self, latency: int = 150):
        self.latency = latency
        self._words: Dict[int, float] = {}
        self.reads = 0
        self.writes = 0

    @staticmethod
    def _word_addr(addr: int) -> int:
        return addr - (addr % WORD_SIZE)

    # -- functional accesses ---------------------------------------------------
    def read_word(self, addr: int):
        """Read the word containing byte address ``addr`` (0 if untouched)."""
        self.reads += 1
        return self._words.get(self._word_addr(addr), 0)

    def write_word(self, addr: int, value) -> None:
        """Write ``value`` to the word containing byte address ``addr``."""
        self.writes += 1
        self._words[self._word_addr(addr)] = value

    def peek(self, addr: int):
        """Read without updating statistics (used by tests and the loader)."""
        return self._words.get(self._word_addr(addr), 0)

    def poke(self, addr: int, value) -> None:
        """Write without updating statistics (used by the program loader)."""
        self._words[self._word_addr(addr)] = value

    # -- block transfers (DMA) -------------------------------------------------
    def read_block(self, addr: int, size_bytes: int) -> List[float]:
        """Read ``size_bytes // WORD_SIZE`` consecutive words starting at ``addr``."""
        base = self._word_addr(addr)
        n = size_bytes // WORD_SIZE
        return [self._words.get(base + i * WORD_SIZE, 0) for i in range(n)]

    def write_block(self, addr: int, values) -> None:
        """Write consecutive words starting at ``addr`` without updating
        statistics (DMA write-back and the program loader)."""
        self._words.update(zip(count(self._word_addr(addr), WORD_SIZE),
                               values))

    def reset_stats(self) -> None:
        self.reads = 0
        self.writes = 0
