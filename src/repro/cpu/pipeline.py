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

The model is stated here once.  :class:`~repro.cpu.executor.ExecutionLane`
runs it step for step, together with functional execution, in one
per-instruction loop; the C kernel of :mod:`repro.trace._ckernel` runs the
same steps over a recorded stream.  Both finish with a
:class:`~repro.cpu.core.LaneTiming` record, and replay must stay
cycle-identical to execution (``tests/test_vector_replay.py``), so a change
to the model is made in both loops.
"""

#: Byte address at which the code segment notionally lives; only used to give
#: the instruction cache and branch predictor realistic-looking addresses.
CODE_BASE = 0x0040_0000
#: Notional size of one encoded instruction.
CODE_INSTR_SIZE = 4
