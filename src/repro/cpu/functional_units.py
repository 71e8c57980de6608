"""Functional-unit pool model.

Table 1: 3 integer ALUs, 3 floating-point ALUs and 2 load/store units.

Contention is modelled with a per-cycle reservation table per unit class: an
operation that becomes ready at time ``t`` executes in the earliest cycle at
or after ``t`` in which fewer than ``num_units`` operations of that class are
already scheduled.  This keeps the model out-of-order: an operation whose
operands are ready early can use an earlier cycle even if an older operation
(still waiting on a cache miss) will use the unit later — unlike a simple
"next free time" reservation, which would let stalled operations capture the
units and artificially serialise independent work.

Units are pipelined (one new operation per cycle) except the long-latency
dividers/square roots, which occupy their unit for the full latency.

The reservation tables are list-indexed by the dense
:data:`~repro.isa.instructions.FU_INDEX` (pre-computed per instruction)
rather than dict-keyed by the :class:`FuClass` enum — enum hashing on every
issued instruction was a measured hot path.  The execution lane
(:mod:`repro.cpu.executor`) reserves and prunes the tables inline; this class
holds them and the contention counter.
"""

from __future__ import annotations

from typing import Dict, List

from repro.isa.instructions import FU_INDEX, FuClass


class FunctionalUnitPool:
    """Per-cycle reservation tables for each functional-unit class."""

    def __init__(self, int_alus: int = 3, fp_alus: int = 3,
                 load_store_units: int = 2):
        capacity = {
            FuClass.INT_ALU: int_alus,
            FuClass.FP_ALU: fp_alus,
            FuClass.LOAD_STORE: load_store_units,
            # Branches execute on the integer ALU ports in this model.
            FuClass.BRANCH: int_alus,
            FuClass.NONE: max(int_alus, 1),
        }
        self._capacity: List[int] = [0] * len(FU_INDEX)
        for cls, cap in capacity.items():
            self._capacity[FU_INDEX[cls]] = cap
        self._schedule: List[Dict[int, int]] = [dict() for _ in FU_INDEX]
        self.contended_cycles = 0.0
