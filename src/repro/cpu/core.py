"""The simulated core: functional execution + out-of-order timing.

:class:`Core` runs a program on a memory system
(:class:`~repro.core.hybrid.HybridSystem`) as the one-core case of
:func:`~repro.cpu.multicore.run_programs`, the execution driver for any
core count: one :class:`~repro.cpu.executor.ExecutionLane` — functional
execution and the out-of-order timing of :mod:`repro.cpu.pipeline` in one
loop — producing a :class:`SimulationResult` with cycle counts, per-phase
breakdowns, instruction statistics and the memory system's activity
summary.  :func:`lane_result` builds that result from a finished timing
model; execution and replay build every per-core result with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.hybrid import HybridSystem
from repro.cpu.config import CoreConfig
from repro.cpu.pipeline import OutOfOrderTimingModel
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

    @property
    def work_cycles(self) -> float:
        return self.phase_cycles.get("work", 0.0)

    @property
    def control_cycles(self) -> float:
        return self.phase_cycles.get("control", 0.0)

    @property
    def sync_cycles(self) -> float:
        return self.phase_cycles.get("sync", 0.0)


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


def lane_result(timing: OutOfOrderTimingModel,
                memory_stats: dict) -> SimulationResult:
    """One core's :class:`SimulationResult` from its finished timing model."""
    return SimulationResult(
        cycles=timing.cycles,
        instructions=timing.committed,
        phase_cycles=timing.phase_breakdown(),
        mispredictions=timing.mispredictions,
        branch_predictions=timing.predictor.predictions,
        memory_stats=memory_stats,
        core_stats={
            "ipc": timing.ipc,
            "fu_op_counts": dict(timing.fu_op_counts),
            "fu_contended_cycles": timing.fus.contended_cycles,
            "rob_dispatch_stalls": timing.rob.dispatch_stalls,
            "lsq_occupancy_stalls": timing.lsq.occupancy_stalls,
            "lsq_collapsed_stores": timing.lsq.collapsed_stores,
            "misprediction_rate": timing.predictor.misprediction_rate,
        },
    )
