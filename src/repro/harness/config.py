"""Machine configuration (Table 1 of the paper).

:class:`MachineConfig` bundles the core, memory-hierarchy, local-memory and
energy parameters of one simulated machine.  :data:`PTLSIM_CONFIG` is the
configuration of Table 1; the cache-based baseline of Section 4.3 is the same
machine with the LM removed and the L1 capacity doubled to 64 KB for
fairness.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Tuple

from repro.cpu.config import CoreConfig
from repro.energy.parameters import EnergyParameters
from repro.mem.hierarchy import MemoryHierarchyConfig


@dataclass
class MachineConfig:
    """Everything needed to instantiate one simulated machine."""

    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemoryHierarchyConfig = field(default_factory=MemoryHierarchyConfig)
    energy: EnergyParameters = field(default_factory=EnergyParameters)
    lm_size: int = 32 * 1024
    lm_latency: int = 2
    directory_entries: int = 32
    dma_setup_latency: int = 100
    dma_per_line_latency: int = 4
    #: Number of cores.  1 is the paper's single-core machine (no uncore);
    #: >1 replicates the core and shares one main memory + bus through the
    #: windowed-arbitration uncore (see :mod:`repro.mem.uncore`).
    num_cores: int = 1
    #: Shared-uncore arbitration window (cycles) and line slots per window.
    uncore_window_cycles: int = 4
    uncore_window_lines: int = 2
    #: Core clusters.  1 keeps the flat shared bus (the paper's machine,
    #: bit-identical to every pre-cluster result); >1 must divide
    #: ``num_cores`` and gives each cluster of ``num_cores / num_clusters``
    #: cores a private cluster bus, a shared memory-side LLC slice and a
    #: NUMA home mapping (see :class:`repro.mem.uncore.ClusterUncore`).
    num_clusters: int = 1
    #: Extra cycles a demand miss or DMA burst pays when its SM address is
    #: homed on another cluster (cluster mode only).
    numa_remote_latency: int = 60
    #: Per-cluster memory-side LLC (capacity shared by the cluster's cores;
    #: cluster mode only — the flat machine has no LLC level).
    llc_size: int = 16 * 1024 * 1024
    llc_assoc: int = 16
    llc_latency: int = 30

    def with_overrides(self, overrides: Mapping[str, Any]) -> "MachineConfig":
        """Return a copy with some fields replaced.

        Keys are :class:`MachineConfig` field names; dotted paths reach into
        the nested config dataclasses (``"memory.prefetch_enabled"``,
        ``"core.issue_width"``, ``"energy.l1_per_access"``).  Used by the
        sweep engine to resolve declarative machine-axis overrides.
        """
        machine = self
        for key, value in overrides.items():
            machine = _replace_path(machine, key.split("."), value)
        return machine

    def cache_based(self) -> "MachineConfig":
        """The cache-based baseline: no LM, L1 doubled to match capacity."""
        return MachineConfig(
            core=self.core,
            memory=self.memory.copy_with(l1_size=self.memory.l1_size + self.lm_size),
            energy=self.energy,
            lm_size=0,
            lm_latency=self.lm_latency,
            directory_entries=self.directory_entries,
            dma_setup_latency=self.dma_setup_latency,
            dma_per_line_latency=self.dma_per_line_latency,
            num_cores=self.num_cores,
            uncore_window_cycles=self.uncore_window_cycles,
            uncore_window_lines=self.uncore_window_lines,
            num_clusters=self.num_clusters,
            numa_remote_latency=self.numa_remote_latency,
            llc_size=self.llc_size,
            llc_assoc=self.llc_assoc,
            llc_latency=self.llc_latency,
        )


def _replace_path(obj, parts: List[str], value):
    """Replace a (possibly nested) dataclass field along a dotted path."""
    name = parts[0]
    if not any(f.name == name for f in dataclasses.fields(obj)):
        raise KeyError(
            f"unknown config field {name!r} on {type(obj).__name__}; "
            f"valid fields: {sorted(f.name for f in dataclasses.fields(obj))}")
    if len(parts) == 1:
        return dataclasses.replace(obj, **{name: value})
    return dataclasses.replace(
        obj, **{name: _replace_path(getattr(obj, name), parts[1:], value)})


def _parse_value(text: str):
    """Parse a command-line override value: bool / int / float / string."""
    low = text.strip().lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_overrides(items: Iterable[str]) -> Dict[str, Any]:
    """The command lines' ``--set KEY=VALUE`` items as the mapping
    :meth:`MachineConfig.with_overrides` takes (dotted keys kept whole)."""
    overrides = {}
    for item in items:
        if "=" not in item:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = _parse_value(value)
    return overrides


#: The simulated machine of Table 1.
PTLSIM_CONFIG = MachineConfig()

#: SM address span reserved per core for the domain-decomposed parallel
#: kernels: core ``c``'s data lives at ``DATA_BASE + c * PARALLEL_CORE_SPAN``
#: (mirrors :attr:`repro.isa.program.Program.DATA_BASE`).  The NUMA home
#: mapping of the clustered uncore derives a chunk's owner core — and with
#: it the home cluster — from these windows.
PARALLEL_CORE_SPAN = 0x0400_0000
PARALLEL_DATA_BASE = 0x1000_0000


def table1_rows(config: MachineConfig = PTLSIM_CONFIG) -> List[Tuple[str, str]]:
    """The rows of Table 1, rendered from the live configuration objects."""
    core, mem = config.core, config.memory
    return [
        ("Pipeline", f"Out-of-order, {core.issue_width} instructions wide"),
        ("Branch predictor",
         f"Hybrid {core.predictor_entries // 1024}K selector, "
         f"{core.predictor_entries // 1024}K G-share, "
         f"{core.predictor_entries // 1024}K Bimodal, "
         f"{core.btb_entries // 1024}K BTB {core.btb_assoc}-way, "
         f"RAS {core.ras_entries} entries"),
        ("Functional units",
         f"{core.int_alus} INT ALUs, {core.fp_alus} FP ALUs, "
         f"{core.load_store_units} load/store units"),
        ("Register file",
         f"{core.int_registers} INT registers, {core.fp_registers} FP registers"),
        ("L1 I-cache",
         f"{mem.l1i_size // 1024} KB, {mem.l1i_assoc}-way set-associative, "
         f"{mem.l1i_latency} cycles latency"),
        ("L1 D-cache",
         f"{mem.l1_size // 1024} KB, {mem.l1_assoc}-way set-associative, "
         f"write-through, {mem.l1_latency} cycles latency"),
        ("L2 cache",
         f"{mem.l2_size // 1024} KB, {mem.l2_assoc}-way set-associative, "
         f"write-back, {mem.l2_latency} cycles latency"),
        ("L3 cache",
         f"{mem.l3_size // (1024 * 1024)} MB, {mem.l3_assoc}-way set-associative, "
         f"write-back, {mem.l3_latency} cycles latency"),
        ("Prefetcher", "IP-based stream prefetcher to L1, L2 and L3"),
        ("Local memory", f"{config.lm_size // 1024} KB, {config.lm_latency} cycles latency"),
    ]
