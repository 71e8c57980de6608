"""Trace capture: record the dynamic stream of one execution-driven run.

:class:`TraceRecorder` is handed to :meth:`repro.cpu.core.Core.run` (one per
core in a multicore run), whose execution lane appends to its lists only
what functional execution resolved and the machine configuration cannot
change: conditional-branch outcomes, memory addresses with their pcs and
DMA operands (see :mod:`repro.trace.format`).

:func:`capture_workload` / :func:`capture_micro` run a cell execution-driven
*once* with a recorder attached and return both the live result and the
finished :class:`~repro.trace.format.Trace`; the result is exactly what the
un-instrumented run would have produced, so capture doubles as a normal
simulation of the capture configuration.
"""

from __future__ import annotations

from array import array
from typing import Optional, Tuple

from repro.harness.config import MachineConfig, PTLSIM_CONFIG
from repro.harness.runner import RunResult, run_program, run_workload
from repro.harness.systems import check_micro_mode
from repro.trace.format import (
    MulticoreTrace,
    Trace,
    TraceKey,
    pack_bits,
    program_fingerprint,
)


class TraceRecorder:
    """Accumulates the machine-config-independent event stream of one run."""

    def __init__(self) -> None:
        self.count = 0                # retired instructions, set at the end
        self.branches: list = []      # bool per executed conditional branch
        self.addresses: list = []     # vaddr per executed load/store
        self.pcs: list = []           # static index per executed load/store
        self.dma: list = []           # flattened (lm_vaddr, sm_addr, size)

    def finish(self, key: TraceKey, fingerprint: str) -> Trace:
        """Freeze the recorded stream into a :class:`Trace`.

        The stream digest is computed eagerly: it is the identity the
        replay engine's decode caches key on, so a capture-then-replay
        sweep never pays the column hash on the hot path.
        """
        trace = Trace(
            key=key,
            program_fingerprint=fingerprint,
            instructions=self.count,
            branch_count=len(self.branches),
            branch_bits=pack_bits(self.branches),
            mem_addrs=array("Q", self.addresses),
            dma_words=array("q", self.dma),
            mem_pcs=array("I", self.pcs),
        )
        trace.stream_digest()
        return trace


def capture_workload(workload: str, mode: str = "hybrid",
                     scale: str = "small",
                     machine: Optional[MachineConfig] = None,
                     num_cores: Optional[int] = None
                     ) -> Tuple[RunResult, Trace]:
    """Run a NAS-like kernel execution-driven and capture its trace.

    With ``num_cores > 1`` (explicit or from the machine config) the run is
    the interleaved multicore simulation: one recorder per core captures
    that core's stream, and the result is a
    :class:`~repro.trace.format.MulticoreTrace` containing all of them.
    """
    machine = machine or PTLSIM_CONFIG
    num_cores = machine.num_cores if num_cores is None else int(num_cores)
    if num_cores > 1:
        return _capture_parallel_workload(workload, mode, scale, machine,
                                          num_cores)
    recorder = TraceRecorder()
    result = run_workload(workload, mode=mode, scale=scale, machine=machine,
                          recorder=recorder)
    key = TraceKey.create(workload, mode, scale, kind="kernel",
                          lm_size=machine.lm_size,
                          directory_entries=machine.directory_entries)
    fingerprint = program_fingerprint(result.compiled.program)
    return result, recorder.finish(key, fingerprint)


def _capture_parallel_workload(workload: str, mode: str, scale: str,
                               machine: MachineConfig, num_cores: int
                               ) -> Tuple[RunResult, MulticoreTrace]:
    from repro.harness.runner import (
        compile_parallel_workload,
        run_parallel_compiled,
    )
    recorders = [TraceRecorder() for _ in range(num_cores)]
    compiled = compile_parallel_workload(workload, mode, scale, machine,
                                         num_cores)
    result = run_parallel_compiled(compiled, mode=mode, scale=scale,
                                   machine=machine, recorders=recorders)
    family = TraceKey.create(workload, mode, scale, kind="kernel",
                             lm_size=machine.lm_size,
                             directory_entries=machine.directory_entries,
                             num_cores=num_cores)
    cores = []
    for core_id, (recorder, comp) in enumerate(zip(recorders, compiled)):
        core_key = TraceKey.create(
            workload, mode, scale, kind="kernel",
            lm_size=machine.lm_size,
            directory_entries=machine.directory_entries,
            num_cores=num_cores, params={"core": core_id})
        cores.append(recorder.finish(
            core_key, program_fingerprint(comp.program)))
    return result, MulticoreTrace(key=family, cores=cores)


def capture_micro(micro_mode: str, guarded_fraction: float = 1.0,
                  iterations: int = 200, unroll: int = 1,
                  system_mode: str = "hybrid",
                  machine: Optional[MachineConfig] = None
                  ) -> Tuple[RunResult, Trace]:
    """Run the Table 2 microbenchmark execution-driven and capture its trace."""
    from repro.workloads.microbenchmark import build_microbenchmark
    check_micro_mode(system_mode)
    machine = machine or PTLSIM_CONFIG
    params = {"micro_mode": micro_mode,
              "guarded_fraction": float(guarded_fraction),
              "iterations": int(iterations), "unroll": int(unroll)}
    program = build_microbenchmark(micro_mode, float(guarded_fraction),
                                   int(iterations), int(unroll))
    recorder = TraceRecorder()
    result = run_program(program, mode=system_mode, machine=machine,
                         workload=f"micro-{micro_mode}", recorder=recorder)
    key = TraceKey.create(f"micro-{micro_mode}", system_mode, "-",
                          kind="micro", params=params,
                          lm_size=machine.lm_size,
                          directory_entries=machine.directory_entries)
    return result, recorder.finish(key, program_fingerprint(program))
