"""The simulated core: functional execution + out-of-order timing.

:class:`Core` runs a program on a memory system
(:class:`~repro.core.hybrid.HybridSystem`) as the one-core case of
:func:`~repro.cpu.multicore.run_programs`, the execution driver for any
core count: one :class:`~repro.cpu.executor.ExecutionLane` — functional
execution and the out-of-order timing of :mod:`repro.cpu.pipeline` in one
loop — producing a :class:`SimulationResult` with cycle counts, per-phase
breakdowns, instruction statistics and the memory system's activity
summary.  Every lane — execution's and replay's — finishes with one
:class:`LaneTiming` record, and :func:`lane_result` builds each per-core
result from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional

from repro.core.hybrid import HybridSystem
from repro.cpu.config import CoreConfig
from repro.isa.program import Program, WORD_SIZE


@dataclass
class SimulationResult:
    """Outcome of running one program on one system configuration."""

    cycles: float
    instructions: int
    phase_cycles: Dict[str, float]
    mispredictions: int
    branch_predictions: int
    memory_stats: dict
    core_stats: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles > 0 else 0.0


class LaneTiming(NamedTuple):
    """One core's finished out-of-order timing, as a lane reports it.

    ``cycles`` is the time of the last commit; ``phase_cycles`` maps each
    phase that retired an instruction to its commit cycles, in program
    order of the phases; ``fu_op_counts`` counts the operations of every
    functional-unit class that ran one.
    """

    cycles: float
    committed: int
    phase_cycles: Dict[str, float]
    mispredictions: int
    branch_predictions: int
    fu_op_counts: Dict[str, int]
    fu_contended_cycles: float
    rob_dispatch_stalls: float
    lsq_occupancy_stalls: float
    lsq_collapsed_stores: int


class Core:
    """A single simulated core attached to a hybrid (or cache-based) system."""

    def __init__(self, system: HybridSystem,
                 config: Optional[CoreConfig] = None,
                 max_instructions: int = 50_000_000):
        self.system = system
        self.config = config or CoreConfig()
        self.max_instructions = max_instructions

    def read_array(self, program: Program, name: str):
        """Read back an array's current SM contents (after execution)."""
        decl = program.arrays[name]
        return [self.system.read_sm_word(decl.base + i * WORD_SIZE)
                for i in range(decl.length)]

    def run(self, program: Program, recorder=None) -> SimulationResult:
        """Execute ``program`` to completion and return the simulation result.

        ``recorder`` is an optional :class:`~repro.trace.capture.TraceRecorder`
        that receives the machine-config-independent stream of the run
        (branch outcomes, memory addresses, DMA operands) for later timing
        replay under other machine configs.
        """
        from repro.cpu.multicore import run_programs
        (result,) = run_programs([program], [self.system], self.config,
                                 [recorder], self.max_instructions)
        return result


def lane_result(timing: LaneTiming, memory_stats: dict) -> SimulationResult:
    """One core's :class:`SimulationResult` from its finished lane's
    timing record."""
    predictions = timing.branch_predictions
    return SimulationResult(
        cycles=timing.cycles,
        instructions=timing.committed,
        phase_cycles=dict(timing.phase_cycles),
        mispredictions=timing.mispredictions,
        branch_predictions=predictions,
        memory_stats=memory_stats,
        core_stats={
            "ipc": (timing.committed / timing.cycles
                    if timing.cycles > 0 else 0.0),
            "fu_op_counts": dict(timing.fu_op_counts),
            "fu_contended_cycles": timing.fu_contended_cycles,
            "rob_dispatch_stalls": timing.rob_dispatch_stalls,
            "lsq_occupancy_stalls": timing.lsq_occupancy_stalls,
            "lsq_collapsed_stores": timing.lsq_collapsed_stores,
            "misprediction_rate": (timing.mispredictions / predictions
                                   if predictions else 0.0),
        },
    )
