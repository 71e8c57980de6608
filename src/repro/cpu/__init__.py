"""Cycle-approximate out-of-order core model (Table 1).

The paper evaluates the coherence protocol on PTLsim, a cycle-accurate
out-of-order x86-64 simulator.  This package provides a from-scratch,
cycle-approximate equivalent: an execution lane that interprets the mini
ISA and times it on a model that accounts for fetch/issue/commit
bandwidth, the reorder buffer and load/store queue occupancy,
functional-unit contention, branch prediction (hybrid gshare/bimodal with
a selector, BTB and RAS) and the memory latencies returned by the hybrid
memory system.
"""

from repro.cpu.config import CoreConfig
from repro.cpu.branch_predictor import HybridBranchPredictor
from repro.cpu.functional_units import FunctionalUnitPool
from repro.cpu.rob import ReorderBuffer
from repro.cpu.lsq import LoadStoreQueue
from repro.cpu.executor import ExecutionError, ExecutionLane
from repro.cpu.pipeline import OutOfOrderTimingModel
from repro.cpu.core import Core, SimulationResult

__all__ = [
    "CoreConfig",
    "HybridBranchPredictor",
    "FunctionalUnitPool",
    "ReorderBuffer",
    "LoadStoreQueue",
    "ExecutionError",
    "ExecutionLane",
    "OutOfOrderTimingModel",
    "Core",
    "SimulationResult",
]
