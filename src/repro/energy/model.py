"""Energy accounting from simulation activity counters.

:class:`EnergyModel` takes a :class:`~repro.cpu.core.SimulationResult` and
produces an :class:`EnergyBreakdown` with per-structure energies and the
four-way grouping of Figure 10 (CPU, Caches, LM, Others).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cpu.core import SimulationResult
from repro.energy.parameters import EnergyParameters


@dataclass
class EnergyBreakdown:
    """Per-component energy in nanojoules."""

    cpu: float = 0.0
    caches: float = 0.0
    lm: float = 0.0
    directory: float = 0.0
    prefetcher: float = 0.0
    dma: float = 0.0
    bus: float = 0.0
    dram: float = 0.0

    @property
    def others(self) -> float:
        """The "Others" group of Figure 10: prefetchers, DMAC, buses and the
        coherence directory."""
        return self.directory + self.prefetcher + self.dma + self.bus

    @property
    def total(self) -> float:
        """Total on-chip energy (DRAM excluded, as in Wattch)."""
        return self.cpu + self.caches + self.lm + self.others

    @property
    def total_with_dram(self) -> float:
        return self.total + self.dram

    def groups(self) -> Dict[str, float]:
        """The Figure 10 component grouping."""
        return {
            "CPU": self.cpu,
            "Caches": self.caches,
            "LM": self.lm,
            "Others": self.others,
        }

    def as_dict(self) -> Dict[str, float]:
        return {
            "cpu": self.cpu,
            "caches": self.caches,
            "lm": self.lm,
            "directory": self.directory,
            "prefetcher": self.prefetcher,
            "dma": self.dma,
            "bus": self.bus,
            "dram": self.dram,
            "others": self.others,
            "total": self.total,
        }


class EnergyModel:
    """Maps simulation activity onto energy using :class:`EnergyParameters`."""

    def __init__(self, params: Optional[EnergyParameters] = None):
        self.params = params or EnergyParameters()

    def energy_terms(self, result: SimulationResult
                     ) -> List[Tuple[str, float]]:
        """The ordered ``(component, value)`` energy terms of one simulation.

        The list order is a *contract*: :meth:`compute` folds these terms
        left to right, one float addition per term, and every engine
        (execution-driven and vector replay) reaches its breakdown
        through this same reduction.  Floating-point addition is not
        associative, so any engine that accumulated the same terms in a
        different order (per-epoch partial sums, ``np.sum`` pairwise
        reduction) could silently drift by an ULP — keeping the reduction
        explicit and shared is what keeps cross-engine identity checks exact
        equality instead of tolerance.
        """
        p = self.params
        mem = result.memory_stats
        hier = mem["hierarchy"]
        core = result.core_stats
        fu_counts = core.get("fu_op_counts", {})
        directory = mem.get("directory", {})
        dma = mem.get("dma", {})

        # --- CPU: pipeline structures, register files, ALUs, misspeculation ------
        n = result.instructions
        terms: List[Tuple[str, float]] = [
            ("cpu", n * (p.fetch_decode_per_inst + p.rename_dispatch_per_inst +
                         p.issue_window_per_inst + p.regfile_per_inst +
                         p.commit_per_inst)),
            ("cpu", fu_counts.get("int_alu", 0) * p.int_alu_per_op),
            ("cpu", fu_counts.get("fp_alu", 0) * p.fp_alu_per_op),
            ("cpu", fu_counts.get("load_store", 0) * p.lsq_per_mem_op),
            ("cpu", result.branch_predictions * p.branch_predictor_per_branch),
            ("cpu", result.mispredictions * p.squash_per_mispredict),
            ("cpu", hier["L1"]["misses"] * p.replay_per_l1_miss),

            # --- Caches ----------------------------------------------------------
            ("caches", hier["L1"]["accesses"] * p.l1_per_access),
            ("caches", hier["L1I"]["accesses"] * p.l1i_per_access),
            ("caches", hier["L2"]["accesses"] * p.l2_per_access),
            ("caches", hier["L3"]["accesses"] * p.l3_per_access),

            # --- Local memory ----------------------------------------------------
            ("lm", (mem.get("lm_accesses", 0) +
                    dma.get("words_transferred", 0)) * p.lm_per_access),

            # --- Directory -------------------------------------------------------
            ("directory", directory.get("lookups", 0) * p.directory_per_lookup),
            ("directory", directory.get("updates", 0) * p.directory_per_update),

            # --- Prefetcher ------------------------------------------------------
            ("prefetcher", hier.get("prefetches_issued", 0)
             * p.prefetcher_per_prefetch),
            ("prefetcher", hier["L1"]["demand_accesses"]
             * p.prefetcher_per_training),

            # --- DMA controller and bus ------------------------------------------
            ("dma", dma.get("lines_transferred", 0) * p.dma_per_line),
            ("dma", (dma.get("gets", 0) + dma.get("puts", 0))
             * p.dma_per_command),
            ("bus", hier.get("bus_transactions", 0) * p.bus_per_transaction),

            # --- DRAM (reported separately, excluded from the Fig. 10 total) -----
            ("dram", (hier.get("memory_reads", 0) +
                      hier.get("memory_writes", 0)) * p.dram_per_access),
        ]
        return terms

    def compute(self, result: SimulationResult) -> EnergyBreakdown:
        """Compute the energy breakdown of one simulation.

        A left-fold of :meth:`energy_terms` — the one accumulation order
        every engine shares (see the contract there).
        """
        breakdown = EnergyBreakdown()
        for component, value in self.energy_terms(result):
            setattr(breakdown, component, getattr(breakdown, component) + value)
        return breakdown
