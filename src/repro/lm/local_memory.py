"""Local memory (scratchpad) storage and timing.

The LM offers cache-like access latency (2 cycles, Table 1) with
deterministic timing and no tag or TLB lookups, which is what makes it more
power-efficient than a cache of the same size.  Functionally it is a flat
word-addressed store completely separate from the system memory: this
separation is exactly what creates the coherence problem the paper solves.
"""

from __future__ import annotations

from typing import List

from repro.isa.program import WORD_SIZE


class LocalMemory:
    """Word-granularity scratchpad storage.

    Parameters
    ----------
    size:
        Capacity in bytes.
    latency:
        Access latency in cycles (Table 1: 2 cycles).
    """

    def __init__(self, size: int = 32 * 1024, latency: int = 2):
        if size <= 0 or size % WORD_SIZE != 0:
            raise ValueError("LM size must be a positive multiple of the word size")
        self.size = size
        self.latency = latency
        self._words: List[float] = [0] * (size // WORD_SIZE)
        self.reads = 0
        self.writes = 0

    def _index(self, offset: int) -> int:
        if not (0 <= offset < self.size):
            raise IndexError(f"LM offset {offset:#x} out of range (size {self.size:#x})")
        return offset // WORD_SIZE

    # -- timed accesses ----------------------------------------------------------
    def read(self, offset: int):
        """Timed read of the word at byte ``offset``."""
        self.reads += 1
        return self._words[self._index(offset)]

    def write(self, offset: int, value) -> None:
        """Timed write of the word at byte ``offset``."""
        self.writes += 1
        self._words[self._index(offset)] = value

    # -- untimed accesses (DMA engine and tests) ----------------------------------
    def peek(self, offset: int):
        return self._words[self._index(offset)]

    def poke(self, offset: int, value) -> None:
        self._words[self._index(offset)] = value

    def read_block(self, offset: int, size_bytes: int) -> List[float]:
        """Untimed block read used by dma-put."""
        start = self._index(offset)
        n = size_bytes // WORD_SIZE
        if start + n > len(self._words):
            raise IndexError("LM block read past the end of the scratchpad")
        return self._words[start:start + n]

    def write_block(self, offset: int, values) -> None:
        """Untimed block write used by dma-get."""
        start = self._index(offset)
        if start + len(values) > len(self._words):
            raise IndexError("LM block write past the end of the scratchpad")
        self._words[start:start + len(values)] = list(values)

    @property
    def accesses(self) -> int:
        """Total timed accesses (reads + writes); feeds Table 3 and energy."""
        return self.reads + self.writes

    def reset_stats(self) -> None:
        self.reads = 0
        self.writes = 0

    def clear(self) -> None:
        """Zero the scratchpad contents."""
        self._words = [0] * (self.size // WORD_SIZE)
