"""Hybrid branch predictor (Table 1).

The simulated core uses a hybrid predictor: a 4K-entry g-share predictor, a
4K-entry bimodal predictor and a 4K-entry selector of 2-bit counters that
chooses between them per branch, plus a 4K-entry 4-way BTB for targets and a
32-entry return address stack.  All tables use 2-bit saturating counters.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List


class SaturatingCounterTable:
    """A table of 2-bit saturating counters, indexed by ``key % entries``;
    a counter at 2 or more predicts taken.  The predictor updates the
    ``counters`` list in place."""

    def __init__(self, entries: int, initial: int = 2):
        if entries <= 0:
            raise ValueError("table needs at least one entry")
        self.entries = entries
        self.counters: List[int] = [initial] * entries


class BranchTargetBuffer:
    """Set-associative BTB holding branch targets."""

    def __init__(self, entries: int = 4096, assoc: int = 4):
        self.assoc = assoc
        self.num_sets = max(1, entries // assoc)
        self._sets: Dict[int, "OrderedDict[int, int]"] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, pc: int):
        s = self._sets.get(pc % self.num_sets)
        if s is not None and pc in s:
            s.move_to_end(pc)
            self.hits += 1
            return s[pc]
        self.misses += 1
        return None

    def update(self, pc: int, target: int) -> None:
        sets = self._sets
        s = sets.get(pc % self.num_sets)
        if s is None:
            s = sets[pc % self.num_sets] = OrderedDict()
        elif pc in s:
            s.move_to_end(pc)
        elif len(s) >= self.assoc:
            s.popitem(last=False)
        s[pc] = target


class ReturnAddressStack:
    """Fixed-depth return address stack (32 entries in Table 1)."""

    def __init__(self, depth: int = 32):
        self.depth = depth
        self._stack: List[int] = []

    def push(self, addr: int) -> None:
        if len(self._stack) >= self.depth:
            self._stack.pop(0)
        self._stack.append(addr)

    def pop(self):
        if self._stack:
            return self._stack.pop()
        return None

    def __len__(self) -> int:
        return len(self._stack)


class HybridBranchPredictor:
    """G-share + bimodal with a per-branch selector."""

    def __init__(self, entries: int = 4096, btb_entries: int = 4096,
                 btb_assoc: int = 4, ras_entries: int = 32,
                 history_bits: int = 12):
        self.gshare = SaturatingCounterTable(entries)
        self.bimodal = SaturatingCounterTable(entries)
        self.selector = SaturatingCounterTable(entries)
        self.btb = BranchTargetBuffer(btb_entries, btb_assoc)
        self.ras = ReturnAddressStack(ras_entries)
        self.history_bits = history_bits
        self.history = 0
        self.predictions = 0
        self.mispredictions = 0

    def update(self, pc: int, taken: bool) -> bool:
        """Predict the conditional branch at ``pc`` (the selector picks the
        g-share or the bimodal prediction), then train every table with the
        outcome; returns True on a misprediction."""
        self.predictions += 1
        gshare = self.gshare.counters
        bimodal = self.bimodal.counters
        selector = self.selector.counters
        history = self.history
        mask = (1 << self.history_bits) - 1
        gi = ((pc ^ history) & mask) % self.gshare.entries
        bi = pc % self.bimodal.entries
        si = pc % self.selector.entries
        gshare_pred = gshare[gi] >= 2
        bimodal_pred = bimodal[bi] >= 2
        prediction = gshare_pred if selector[si] >= 2 else bimodal_pred
        mispredicted = prediction != taken
        if mispredicted:
            self.mispredictions += 1
        # The selector learns which component was right (only when they
        # disagree).
        if gshare_pred != bimodal_pred:
            if gshare_pred == taken:
                if selector[si] < 3:
                    selector[si] += 1
            elif selector[si] > 0:
                selector[si] -= 1
        if taken:
            if gshare[gi] < 3:
                gshare[gi] += 1
            if bimodal[bi] < 3:
                bimodal[bi] += 1
        else:
            if gshare[gi] > 0:
                gshare[gi] -= 1
            if bimodal[bi] > 0:
                bimodal[bi] -= 1
        # Global history update.
        self.history = ((history << 1) | int(taken)) & mask
        return mispredicted

    def update_batch(self, pcs: List[int], outcomes: List[bool]) -> List[bool]:
        """Update all tables with a whole stream of conditional outcomes.

        Exactly equivalent to ``[self.update(pc, t) for pc, t in zip(pcs,
        outcomes)]`` — same table states, same history, same counters, same
        returned mispredict flags — with the tables bound to locals so batch
        replay pays the attribute lookups once instead of per branch.
        """
        gshare = self.gshare.counters
        gshare_entries = self.gshare.entries
        bimodal = self.bimodal.counters
        bimodal_entries = self.bimodal.entries
        selector = self.selector.counters
        selector_entries = self.selector.entries
        history = self.history
        mask = (1 << self.history_bits) - 1
        flags = []
        append = flags.append
        missed = 0
        for pc, taken in zip(pcs, outcomes):
            gi = ((pc ^ history) & mask) % gshare_entries
            bi = pc % bimodal_entries
            si = pc % selector_entries
            gshare_pred = gshare[gi] >= 2
            bimodal_pred = bimodal[bi] >= 2
            prediction = gshare_pred if selector[si] >= 2 else bimodal_pred
            mispredicted = prediction != taken
            if mispredicted:
                missed += 1
            if gshare_pred != bimodal_pred:
                if gshare_pred == taken:
                    if selector[si] < 3:
                        selector[si] += 1
                elif selector[si] > 0:
                    selector[si] -= 1
            if taken:
                if gshare[gi] < 3:
                    gshare[gi] += 1
                if bimodal[bi] < 3:
                    bimodal[bi] += 1
            else:
                if gshare[gi] > 0:
                    gshare[gi] -= 1
                if bimodal[bi] > 0:
                    bimodal[bi] -= 1
            history = ((history << 1) | int(taken)) & mask
            append(mispredicted)
        self.history = history
        self.predictions += len(flags)
        self.mispredictions += missed
        return flags

    @property
    def misprediction_rate(self) -> float:
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions
