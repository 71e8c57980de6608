"""Core configuration (Table 1 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral
from typing import List

from repro.isa.instructions import FU_INDEX, FuClass

#: The fields that count pipeline slots, buffer entries or units: a machine
#: needs at least one of each to retire anything.
_COUNTS = ("fetch_width", "issue_width", "commit_width", "rob_size",
           "lsq_size", "int_alus", "fp_alus", "load_store_units")


@dataclass
class CoreConfig:
    """Parameters of the simulated speculative out-of-order core.

    Defaults reproduce Table 1: a 4-wide out-of-order pipeline with 3 integer
    ALUs, 3 floating-point ALUs, 2 load/store units, 256 + 256 physical
    registers and a hybrid branch predictor with 4K-entry tables, a 4K-entry
    4-way BTB and a 32-entry return address stack.
    """

    fetch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    rob_size: int = 128
    lsq_size: int = 64
    int_alus: int = 3
    fp_alus: int = 3
    load_store_units: int = 2
    int_registers: int = 256
    fp_registers: int = 256
    # Branch predictor (hybrid 4K selector, 4K gshare, 4K bimodal,
    # 4K-entry 4-way BTB, 32-entry RAS).
    predictor_entries: int = 4096
    btb_entries: int = 4096
    btb_assoc: int = 4
    ras_entries: int = 32
    mispredict_penalty: int = 14
    #: Frequency in GHz, used only to convert energy numbers (Wattch reports
    #: energy per access; execution time in seconds = cycles / frequency).
    frequency_ghz: float = 2.5

    def __post_init__(self):
        values = {name: getattr(self, name) for name in _COUNTS}
        bad = [f"{name}={value!r}" for name, value in values.items()
               if not isinstance(value, Integral) or value < 1]
        if bad:
            raise ValueError(f"core counts must be integers >= 1: "
                             f"{', '.join(bad)}")

    def fu_capacity(self) -> List[int]:
        """Units per functional-unit class, indexed like
        :data:`~repro.isa.instructions.FU_INDEX`.  Branches and the
        unit-less instructions issue on the integer ALU ports."""
        capacity = [0] * len(FU_INDEX)
        for cls, units in ((FuClass.INT_ALU, self.int_alus),
                           (FuClass.FP_ALU, self.fp_alus),
                           (FuClass.LOAD_STORE, self.load_store_units),
                           (FuClass.BRANCH, self.int_alus),
                           (FuClass.NONE, self.int_alus)):
            capacity[FU_INDEX[cls]] = units
        return capacity

    def copy_with(self, **kwargs) -> "CoreConfig":
        return replace(self, **kwargs)
