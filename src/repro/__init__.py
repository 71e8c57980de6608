"""Reproduction of "Hardware-Software Coherence Protocol for the Coexistence
of Caches and Local Memories" (Alvarez et al., SC 2012).

The package provides, from scratch and in pure Python:

* the paper's contribution — a per-core coherence directory, guarded memory
  instructions and the compiler support that together keep a local memory
  (scratchpad) coherent with the cache hierarchy (:mod:`repro.core`,
  :mod:`repro.compiler`);
* every substrate it depends on — a cycle-approximate out-of-order core
  (:mod:`repro.cpu`), a three-level cache hierarchy with prefetching
  (:mod:`repro.mem`), a local memory with a coherent DMA controller
  (:mod:`repro.lm`) and an activity-based energy model (:mod:`repro.energy`);
* workloads (a configurable microbenchmark plus NAS-like kernels,
  :mod:`repro.workloads`) and the experiment harness that regenerates every
  table and figure of the evaluation (:mod:`repro.harness`).

Quick start::

    from repro import run_workload
    hybrid = run_workload("CG", mode="hybrid")
    cache = run_workload("CG", mode="cache")
    print(cache.cycles / hybrid.cycles)   # speedup of the hybrid system
"""

from repro.core import HybridSystem, CoherenceDirectory, MulticoreHybridSystem
from repro.cpu import Core, CoreConfig, SimulationResult
from repro.compiler import compile_kernel, CompilationTarget, Kernel
from repro.energy import EnergyModel, EnergyParameters
from repro.harness import (
    MachineConfig,
    PTLSIM_CONFIG,
    run_program,
    run_workload,
)
from repro.harness.runner import run_kernel
from repro.workloads import available_workloads, build_microbenchmark, get_workload

__version__ = "1.0.0"

__all__ = [
    "HybridSystem",
    "CoherenceDirectory",
    "MulticoreHybridSystem",
    "Core",
    "CoreConfig",
    "SimulationResult",
    "compile_kernel",
    "CompilationTarget",
    "Kernel",
    "EnergyModel",
    "EnergyParameters",
    "MachineConfig",
    "PTLSIM_CONFIG",
    "run_program",
    "run_workload",
    "run_kernel",
    "available_workloads",
    "build_microbenchmark",
    "get_workload",
    "__version__",
]
