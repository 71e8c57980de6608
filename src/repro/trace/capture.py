"""Trace capture: record the dynamic stream of one execution-driven run.

:class:`TraceRecorder` records one core's stream: the execution lane it is
handed appends to its lists only what functional execution resolved and
the machine configuration cannot change: conditional-branch outcomes,
memory addresses with their pcs and DMA operands (see
:mod:`repro.trace.format`).

:func:`capture_workload` / :func:`capture_micro` run a cell execution-driven
*once* with one recorder per core attached and return both the live result
and the finished trace; the result is exactly what the un-instrumented run
would have produced, so capture doubles as a normal simulation of the
capture configuration.  :func:`execute_key` runs the program a trace key
names, with or without capture.
"""

from __future__ import annotations

from array import array
from dataclasses import replace
from typing import Optional, Tuple, Union

from repro.harness.config import MachineConfig, PTLSIM_CONFIG
from repro.harness.runner import (
    RunResult,
    compile_workload,
    run_compiled,
    run_program,
    run_workload,
)
from repro.harness.systems import check_micro_mode
from repro.trace.format import (
    MulticoreTrace,
    Trace,
    TraceError,
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
                     ) -> Tuple[RunResult, Union[Trace, MulticoreTrace]]:
    """Run a NAS-like kernel execution-driven and capture its trace.

    One recorder per core (``num_cores``: explicit or the machine
    config's) captures that core's stream: one core yields a
    :class:`~repro.trace.format.Trace`, more a
    :class:`~repro.trace.format.MulticoreTrace` of per-core traces.
    """
    machine = machine or PTLSIM_CONFIG
    num_cores = machine.num_cores if num_cores is None else int(num_cores)
    key = TraceKey.create(workload, mode, scale, kind="kernel",
                          lm_size=machine.lm_size,
                          directory_entries=machine.directory_entries,
                          num_cores=num_cores)
    compiled = compile_workload(workload, key.mode, key.scale, machine,
                                num_cores)
    recorders = [TraceRecorder() for _ in compiled]
    result = run_compiled([comp.program for comp in compiled], key.mode,
                          machine, workload=compiled[0].kernel.name,
                          compiled=compiled[0], scale=key.scale,
                          recorders=recorders)
    if num_cores == 1:
        return result, recorders[0].finish(
            key, program_fingerprint(compiled[0].program))
    cores = [recorder.finish(replace(key, params=(("core", core_id),)),
                             program_fingerprint(comp.program))
             for core_id, (recorder, comp)
             in enumerate(zip(recorders, compiled))]
    return result, MulticoreTrace(key=key, cores=cores)


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


def micro_args(key: TraceKey) -> tuple:
    """The ``(micro_mode, guarded_fraction, iterations, unroll)`` a
    microbenchmark trace key carries, in the positional order of both
    :func:`capture_micro` and
    :func:`~repro.workloads.microbenchmark.build_microbenchmark`."""
    params = dict(key.params)
    return (params.get("micro_mode", "baseline"),
            float(params.get("guarded_fraction", 0.0)),
            int(params.get("iterations", 200)),
            int(params.get("unroll", 1)))


def execute_key(key: TraceKey, machine: MachineConfig,
                capture: bool = False) -> Tuple[RunResult, Optional[Trace]]:
    """Run the program a trace key names, execution-driven, on ``machine``.

    The one key-to-execution dispatch: a missing trace is captured through
    it (``capture=True``), and replay falls back to it when the vector
    engine cannot run (replay at a machine equals execution at it).  Kernel
    keys run through :func:`~repro.harness.runner.run_workload` (a
    multicore key interleaves one lane per core), micro keys through
    :func:`~repro.harness.runner.run_program`.  Returns ``(result,
    trace)``; ``trace`` is None unless ``capture``.
    """
    if key.kind == "kernel":
        if capture:
            return capture_workload(key.workload, key.mode, key.scale,
                                    machine=machine)
        return run_workload(key.workload, mode=key.mode, scale=key.scale,
                            machine=machine), None
    if key.kind == "micro":
        args = micro_args(key)
        if capture:
            return capture_micro(*args, system_mode=key.mode,
                                 machine=machine)
        from repro.workloads.microbenchmark import build_microbenchmark
        return run_program(build_microbenchmark(*args), mode=key.mode,
                           machine=machine, workload=f"micro-{args[0]}"), None
    raise TraceError(f"trace {key.label} is of kind {key.kind!r}, which "
                     "names no program to run")
