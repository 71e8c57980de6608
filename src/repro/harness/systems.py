"""System builders: map a compilation mode onto a simulated machine.

The evaluation compares three machines:

* ``"hybrid"`` / ``"hybrid-naive"`` — the hybrid memory system with the
  coherence protocol (Table 1: 32 KB L1 + 32 KB LM + directory);
* ``"hybrid-oracle"`` — the same machine, but the baseline *incoherent*
  variant whose oracle compiler resolved all aliasing (Figure 8 baseline);
* ``"cache"`` — the cache-based system with the L1 grown to 64 KB so both
  machines have the same on-chip data capacity (Section 4.3).
"""

from __future__ import annotations

from typing import Optional

from repro.core.hybrid import HybridSystem
from repro.core.multicore import MulticoreHybridSystem
from repro.cpu.config import CoreConfig
from repro.harness.config import (MachineConfig, PARALLEL_CORE_SPAN,
                                  PARALLEL_DATA_BASE, PTLSIM_CONFIG)
from repro.mem.uncore import ClusterTopology, ClusterUncore, Uncore

#: Compilation/system modes understood by the harness.
SYSTEM_MODES = ("hybrid", "hybrid-oracle", "hybrid-naive", "cache")


def check_micro_mode(system_mode: str) -> str:
    """The normalised ``system_mode`` of a Table 2 microbenchmark run.

    The microbenchmark configures the coherence directory (set-bufsize), so
    a system without one is refused up front with a :class:`ValueError`.
    """
    mode = system_mode.strip().lower()
    modes = tuple(m for m in SYSTEM_MODES if m != "cache")
    if mode not in modes:
        raise ValueError(f"the microbenchmark needs a coherence directory: "
                         f"system mode {system_mode!r} is not one of {modes}")
    return mode


def _core_kwargs(mode: str, machine: MachineConfig,
                 track_protocol: bool) -> dict:
    """The :class:`~repro.core.hybrid.HybridSystem` arguments of one core of
    the ``mode`` machine (the cache-based baseline gets the doubled L1, no
    LM and no protocol checker)."""
    if mode not in SYSTEM_MODES:
        raise ValueError(f"unknown system mode {mode!r}; expected one of {SYSTEM_MODES}")
    if mode == "cache":
        return dict(memory_config=machine.cache_based().memory,
                    use_lm=False, track_protocol=False)
    return dict(
        memory_config=machine.memory,
        lm_size=machine.lm_size,
        lm_latency=machine.lm_latency,
        directory_entries=machine.directory_entries,
        dma_setup_latency=machine.dma_setup_latency,
        dma_per_line_latency=machine.dma_per_line_latency,
        use_lm=True,
        oracle=(mode == "hybrid-oracle"),
        track_protocol=track_protocol,
    )


def build_system(mode: str, machine: Optional[MachineConfig] = None,
                 track_protocol: bool = False) -> HybridSystem:
    """Instantiate the memory system for ``mode``."""
    return HybridSystem(**_core_kwargs(mode, machine or PTLSIM_CONFIG,
                                       track_protocol))


def build_uncore(machine: Optional[MachineConfig] = None,
                 num_cores: Optional[int] = None) -> Uncore:
    """The shared uncore (main memory + bus + arbitration) of ``machine``.

    With ``num_clusters`` > 1 this is the two-level
    :class:`~repro.mem.uncore.ClusterUncore` (per-cluster buses, home LLC
    slices, NUMA memory); at the default ``num_clusters=1`` it is the flat
    single-bus :class:`~repro.mem.uncore.Uncore`, bit-identical to every
    machine built before clustering existed.
    """
    machine = machine or PTLSIM_CONFIG
    if machine.num_clusters > 1:
        cores = machine.num_cores if num_cores is None else num_cores
        return ClusterUncore(
            ClusterTopology(cores, machine.num_clusters),
            memory_latency=machine.memory.memory_latency,
            bus_latency_per_line=machine.memory.bus_latency_per_line,
            window_cycles=machine.uncore_window_cycles,
            window_lines=machine.uncore_window_lines,
            numa_remote_latency=machine.numa_remote_latency,
            llc_size=machine.llc_size,
            llc_assoc=machine.llc_assoc,
            llc_latency=machine.llc_latency,
            line_size=machine.memory.line_size,
            core_span=PARALLEL_CORE_SPAN,
            data_base=PARALLEL_DATA_BASE)
    return Uncore(memory_latency=machine.memory.memory_latency,
                  bus_latency_per_line=machine.memory.bus_latency_per_line,
                  window_cycles=machine.uncore_window_cycles,
                  window_lines=machine.uncore_window_lines)


def build_multicore_system(mode: str, machine: Optional[MachineConfig] = None,
                           num_cores: Optional[int] = None,
                           track_protocol: bool = False) -> MulticoreHybridSystem:
    """Instantiate the ``num_cores``-core machine for ``mode``.

    Every core gets the same per-core system :func:`build_system` would
    build (including the cache-based baseline's doubled L1); main memory
    and the inter-core bus are shared through one arbitrated
    :class:`~repro.mem.uncore.Uncore`.
    """
    machine = machine or PTLSIM_CONFIG
    core_kwargs = _core_kwargs(mode, machine, track_protocol)
    num_cores = machine.num_cores if num_cores is None else num_cores
    return MulticoreHybridSystem(
        num_cores=num_cores, uncore=build_uncore(machine, num_cores=num_cores),
        **core_kwargs)


def core_config_for(machine: Optional[MachineConfig] = None) -> CoreConfig:
    """Core configuration of the machine (identical for all modes)."""
    return (machine or PTLSIM_CONFIG).core
