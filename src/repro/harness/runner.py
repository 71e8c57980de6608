"""Run compiled kernels or raw programs on simulated machines.

:func:`run_workload` is the main entry point: it compiles a NAS-like kernel
for a given mode, one program per core (:func:`compile_workload`), runs it
on the matching system and returns a :class:`RunResult` bundling the
compiled kernel, the simulation result and the energy breakdown.  Every
run, trace capture included, goes through :func:`run_compiled` for any
core count and ends in :func:`run_result`, which trace replay shares.

:class:`RunResult` exposes the same plain accessor surface as the sweep
engine's :class:`~repro.harness.sweep.RunRecord` (``cycles``, ``phase_cycles``,
``memory_stats``, ``energy_groups``, guarded-reference counters, ...), so the
figure/table drivers in :mod:`repro.harness.experiments` accept either, and
:meth:`RunResult.to_record` converts a live result into the JSON-serialisable
record the on-disk result store holds.

The drivers read their cells through
:class:`~repro.harness.sweep.SweepContext` (memoised, disk-cached,
parallel); callers that need the live simulation objects (``result.sim``,
``result.compiled``, ``result.system``) call :func:`run_workload` or
:func:`run_program` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.compiler.codegen import CompiledKernel, compile_kernel
from repro.compiler.ir import Kernel
from repro.cpu.core import Core, SimulationResult
from repro.cpu.multicore import aggregate_results, run_programs
from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.harness.config import (
    MachineConfig,
    PARALLEL_CORE_SPAN,
    PTLSIM_CONFIG,
)
from repro.harness.systems import (
    build_multicore_system,
    build_system,
    core_config_for,
)
from repro.isa.program import Program
from repro.workloads import get_workload, shard_kernel

# PARALLEL_CORE_SPAN (re-exported above) lives in repro.harness.config now:
# core ``c``'s data segment is laid out at ``Program.DATA_BASE +
# c * PARALLEL_CORE_SPAN`` (64 MB windows, far below the LM virtual range),
# so the cores' arrays — and therefore their LM-mapped chunks — are disjoint
# in the shared main memory, as the ownership model requires, and the
# clustered uncore can derive a chunk's home cluster from its window.


@dataclass
class RunResult:
    """Everything measured from one simulation run."""

    workload: str
    mode: str
    compiled: Optional[CompiledKernel]
    sim: SimulationResult
    energy: EnergyBreakdown
    #: The memory system the run executed on: a
    #: :class:`~repro.core.hybrid.HybridSystem` for single-core runs, a
    #: :class:`~repro.core.multicore.MulticoreHybridSystem` for multicore.
    system: Any
    #: Scale the workload was built at ("-" for raw programs, which have no
    #: scale axis); kept so :meth:`to_record` can emit a normalised record
    #: even when no :class:`~repro.harness.sweep.RunSpec` is supplied.
    scale: str = "-"
    #: Core count of the simulated machine (multicore runs aggregate the
    #: per-core results; details ride in ``sim.core_stats["per_core"]``).
    num_cores: int = 1

    @property
    def cycles(self) -> float:
        return self.sim.cycles

    @property
    def instructions(self) -> int:
        return self.sim.instructions

    @property
    def total_energy(self) -> float:
        return self.energy.total

    # -- unified accessor surface (shared with sweep.RunRecord) --------------------
    @property
    def ipc(self) -> float:
        return self.sim.ipc

    @property
    def phase_cycles(self) -> Dict[str, float]:
        return self.sim.phase_cycles

    @property
    def memory_stats(self) -> Dict[str, Any]:
        return self.sim.memory_stats

    @property
    def energy_groups(self) -> Dict[str, float]:
        return self.energy.groups()

    @property
    def emits_guards(self) -> bool:
        return self.compiled is not None and self.compiled.target.emits_guards

    @property
    def guarded_references(self) -> int:
        return self.compiled.guarded_references if self.compiled else 0

    @property
    def total_references(self) -> int:
        return self.compiled.total_references if self.compiled else 0

    def to_record(self, spec=None, sim_wall_seconds: float = 0.0):
        """Flatten this live result into a plain-data sweep record.

        Without an explicit ``spec`` one is synthesised from the result's own
        (workload, mode, scale) by :meth:`RunSpec.create
        <repro.harness.sweep.RunSpec.create>`, which normalises every key
        part, so stand-alone records carry a real scale and spec hash instead
        of empty placeholders.  Raw programs (microbenchmarks, hand-built
        tests) are ``"program"`` cells and keep their label's case.
        """
        from repro.harness.sweep import RunRecord, RunSpec
        if spec is None:
            spec = RunSpec.create(
                self.workload, self.mode, self.scale or "-",
                kind="kernel" if self.compiled is not None else "program",
                machine=({"num_cores": self.num_cores}
                         if self.num_cores > 1 else None))
        return RunRecord(
            workload=spec.workload,
            mode=spec.mode,
            scale=spec.scale,
            kind=spec.kind,
            spec_hash=spec.spec_hash,
            machine_overrides=dict(spec.machine),
            params=dict(spec.params),
            cycles=self.sim.cycles,
            instructions=self.sim.instructions,
            phase_cycles=dict(self.sim.phase_cycles),
            mispredictions=self.sim.mispredictions,
            branch_predictions=self.sim.branch_predictions,
            memory_stats=self.sim.memory_stats,
            core_stats=self.sim.core_stats,
            energy=self.energy.as_dict(),
            guarded_references=self.guarded_references,
            total_references=self.total_references,
            emits_guards=self.emits_guards,
            sim_wall_seconds=sim_wall_seconds,
        )


def compile_workload(name: str, mode: str, scale: str,
                     machine: Optional[MachineConfig] = None,
                     num_cores: int = 1) -> List[CompiledKernel]:
    """Compile kernel ``name`` into one program per core.

    Core ``c`` runs its shard of the domain-decomposed kernel (one core's
    shard is the whole kernel), laid out in its own SM window (see
    :data:`PARALLEL_CORE_SPAN`).  Deterministic given ``(name, mode, scale,
    lm_size, directory_entries, num_cores)``, so trace replay rebuilds the
    same programs from the trace key.
    """
    machine = machine or PTLSIM_CONFIG
    kernel = get_workload(name, scale)
    return [compile_kernel(shard_kernel(kernel, core_id, num_cores),
                           mode=mode, lm_size=machine.lm_size,
                           max_buffers=machine.directory_entries,
                           data_base=(Program.DATA_BASE
                                      + core_id * PARALLEL_CORE_SPAN))
            for core_id in range(num_cores)]


def run_compiled(programs: Sequence[Program], mode: str,
                 machine: Optional[MachineConfig] = None, *,
                 workload: str = "program",
                 compiled: Optional[CompiledKernel] = None,
                 scale: str = "-", track_protocol: bool = False,
                 recorders: Optional[Sequence] = None) -> RunResult:
    """Execution-driven run of one program per core: the one run entry.

    One core runs on a bare :class:`~repro.core.hybrid.HybridSystem` through
    :meth:`Core.run <repro.cpu.core.Core.run>`, more cores on a multicore
    system through :func:`~repro.cpu.multicore.run_programs` (the driver
    ``Core.run`` wraps).  ``recorders[i]`` optionally captures core ``i``'s
    stream; ``compiled`` is the compiler output the result reports.
    """
    machine = machine or PTLSIM_CONFIG
    num_cores = len(programs)
    recorders = recorders or [None] * num_cores
    config = core_config_for(machine)
    if num_cores == 1:
        system = build_system(mode, machine, track_protocol=track_protocol)
        per_core = [Core(system, config).run(programs[0], recorders[0])]
    else:
        system = build_multicore_system(mode, machine, num_cores=num_cores,
                                        track_protocol=track_protocol)
        per_core = run_programs(programs, [system.view(core_id) for core_id
                                           in range(num_cores)],
                                config, recorders)
    return run_result(system, per_core, machine, workload=workload,
                      mode=mode, compiled=compiled, scale=scale)


def run_result(system, per_core: Sequence[SimulationResult],
               machine: MachineConfig, *, workload: str, mode: str,
               compiled: Optional[CompiledKernel] = None,
               scale: str = "-") -> RunResult:
    """The :class:`RunResult` of a finished run, execution's or replay's:
    more than one per-core result is aggregated over the machine."""
    if len(per_core) > 1:
        sim = aggregate_results(per_core, system.aggregate_summary(),
                                topology=system.topology)
    else:
        (sim,) = per_core
    energy = EnergyModel(machine.energy).compute(sim)
    return RunResult(workload=workload, mode=mode, compiled=compiled,
                     sim=sim, energy=energy, system=system, scale=scale,
                     num_cores=len(per_core))


def run_program(program: Program, mode: str = "hybrid",
                machine: Optional[MachineConfig] = None,
                workload: str = "program",
                track_protocol: bool = False,
                recorder=None) -> RunResult:
    """Run an already-built program on the system for ``mode``."""
    return run_compiled([program], mode, machine, workload=workload,
                        track_protocol=track_protocol, recorders=[recorder])


def run_kernel(kernel: Kernel, mode: str = "hybrid",
               machine: Optional[MachineConfig] = None,
               track_protocol: bool = False,
               scale: str = "-",
               recorder=None) -> RunResult:
    """Compile ``kernel`` for ``mode`` and run it."""
    machine = machine or PTLSIM_CONFIG
    compiled = compile_kernel(kernel, mode=mode, lm_size=machine.lm_size,
                              max_buffers=machine.directory_entries)
    return run_compiled([compiled.program], mode, machine,
                        workload=kernel.name, compiled=compiled, scale=scale,
                        track_protocol=track_protocol, recorders=[recorder])


def run_workload(name: str, mode: str = "hybrid", scale: str = "small",
                 machine: Optional[MachineConfig] = None,
                 track_protocol: bool = False,
                 num_cores: Optional[int] = None) -> RunResult:
    """Build, compile and run the NAS-like kernel ``name``.

    Mode and scale are normalised here (the workload registry already
    normalises the name), so ``run_workload("cg", "Hybrid", "TINY")`` is the
    same run as ``run_workload("CG", "hybrid", "tiny")``.  ``num_cores``
    (default: the machine config's) shards the kernel over that many cores
    (:func:`compile_workload`), interleaved against the shared uncore.
    """
    mode = mode.strip().lower()
    scale = scale.strip().lower()
    machine = machine or PTLSIM_CONFIG
    num_cores = machine.num_cores if num_cores is None else int(num_cores)
    compiled = compile_workload(name, mode, scale, machine, num_cores)
    return run_compiled([comp.program for comp in compiled], mode, machine,
                        workload=compiled[0].kernel.name,
                        compiled=compiled[0], scale=scale,
                        track_protocol=track_protocol)

