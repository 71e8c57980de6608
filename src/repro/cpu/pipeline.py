"""Cycle-approximate out-of-order timing model.

The model follows each dynamic instruction through a simplified pipeline,
in this order:

* **dispatch** — one I-cache access per fetch group (its latency is not
  modelled and nothing else touches the L1I, so the accesses are settled
  in order when the run finishes), then the front-end time ``fetch_time``
  delayed by a full reorder buffer (and, for memory ops, a full load/store
  queue); a dispatch stall stalls the front end too;
* **issue estimate** — the dispatch time delayed by the sources' ready
  times, then moved to the first cycle with a free global issue slot
  (``issue_width`` per cycle); this is the clock (``now``) the memory
  system sees;
* **execute** — ALU latencies are fixed (see
  :data:`repro.isa.instructions.ALU_LATENCY`); memory latencies are
  whatever the hybrid memory system returned for the access (local memory,
  L1/L2/L3 or main memory, plus presence-bit stalls; a plain access to the
  core's private LM is served at the LM latency without a call); a
  ``dma-synch`` adds its stall;
* **retire** — the instruction starts in the first cycle at or after
  ``now`` with a free functional unit of its class (unpipelined units stay
  busy for the whole latency) and takes that cycle's issue slot; stores
  expose at most two cycles to commit but hold their LSQ entry until
  completion; branches train the predictor and the BTB, and a
  misprediction redirects the front end ``mispredict_penalty`` cycles after
  the branch completes; the front end advances by ``1/fetch_width``;
  serialising instructions (``dma-synch``, ``halt``) drain the pipeline;
* **commit** — in order, ``commit_width`` per cycle; each commit's advance
  is charged to the instruction's phase.

This style of model (dependence- and structure-limited dataflow with
in-order commit) reproduces the first-order behaviour an out-of-order core
exhibits on these kernels: independent instructions overlap (which is how the
double store usually hides, Section 4.2), dependence chains and cache misses
expose their latency, and extra instructions consume issue bandwidth (which
is why the double store costs up to 28% in the microbenchmark's tight loop).

The model is stated here once and executed by
:class:`~repro.cpu.executor.ExecutionLane`, which runs functional execution
and this timing as one per-instruction loop over the state of the ROB, LSQ,
functional-unit pool and branch predictor, and writes its final state back
into an :class:`OutOfOrderTimingModel`, which results are read from.  The
replay engines (:mod:`repro.trace.replay` and the C kernel of
:mod:`repro.trace.vector`) re-time recorded streams with their own
transcriptions of the same model; replay must stay cycle-identical to
execution (enforced by ``tests/test_trace_replay.py`` and
``tests/test_vector_replay.py``), so any change to the model must be made
in every transcription.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

from repro.cpu.branch_predictor import HybridBranchPredictor
from repro.cpu.config import CoreConfig
from repro.cpu.functional_units import FunctionalUnitPool
from repro.cpu.lsq import LoadStoreQueue
from repro.cpu.rob import ReorderBuffer
from repro.mem.hierarchy import MemoryHierarchy

#: Byte address at which the code segment notionally lives; only used to give
#: the instruction cache and branch predictor realistic-looking addresses.
CODE_BASE = 0x0040_0000
#: Notional size of one encoded instruction.
CODE_INSTR_SIZE = 4


class OutOfOrderTimingModel:
    """State and results of the out-of-order core's timing.

    Holds the component models (predictor, functional units, ROB, LSQ),
    the per-cycle issue-slot reservations and the counters results are read
    from; an execution lane or a replay engine advances it.
    """

    def __init__(self, config: Optional[CoreConfig] = None,
                 hierarchy: Optional[MemoryHierarchy] = None):
        self.config = config or CoreConfig()
        c = self.config
        self.hierarchy = hierarchy
        self.predictor = HybridBranchPredictor(
            entries=c.predictor_entries, btb_entries=c.btb_entries,
            btb_assoc=c.btb_assoc, ras_entries=c.ras_entries)
        self.fus = FunctionalUnitPool(c.int_alus, c.fp_alus, c.load_store_units)
        self.rob = ReorderBuffer(c.rob_size, c.commit_width)
        self.lsq = LoadStoreQueue(c.lsq_size)
        self.reg_ready: Dict[str, float] = {}
        self.fetch_time = 0.0
        # Per-cycle issue-slot occupancy: cycle number -> instructions issued
        # in that cycle.  This caps global issue bandwidth at issue_width per
        # cycle while still letting independent younger instructions issue
        # before an older stalled one (out-of-order issue).
        self._issue_slots: Dict[int, int] = {}
        self.committed = 0
        self.mispredictions = 0
        self.phase_cycles: Dict[str, float] = defaultdict(float)
        self.last_commit_time = 0.0
        self.fu_op_counts: Dict[str, int] = defaultdict(int)

    # -- results --------------------------------------------------------------------
    @property
    def cycles(self) -> float:
        """Total execution time in cycles (time of the last commit)."""
        return self.last_commit_time

    @property
    def ipc(self) -> float:
        if self.last_commit_time <= 0:
            return 0.0
        return self.committed / self.last_commit_time

    def phase_breakdown(self) -> Dict[str, float]:
        """Cycles attributed to each execution-model phase (Figure 9)."""
        return dict(self.phase_cycles)
