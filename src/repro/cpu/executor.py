"""The execution lane: functional execution and out-of-order timing, one loop.

:class:`ExecutionLane` interprets a :class:`~repro.isa.program.Program`
against a memory system (a :class:`~repro.core.hybrid.HybridSystem`, or a
multicore :class:`~repro.core.multicore.CoreView`) and times every retired
instruction on the out-of-order core model stated in
:mod:`repro.cpu.pipeline`, step for step in the order given there.  The
program is decoded once into per-pc tuples with dense register indices;
the loop then resolves operand values, computes effective addresses,
issues loads/stores/DMA commands through the system's
``load``/``store``/``dma_*`` methods and follows control flow, while doing
the dispatch, issue, functional-unit, reorder-buffer and branch-predictor
accounting inline over locals.  The memory system sees each instruction's
estimated issue time as its clock (``now``), so MSHR occupancy, DMA
completion and directory presence stalls see a consistent notion of time.

Two parts of the memory system are private to the core and run without a
call.  A plain load or store whose address falls in the core's LM range
(see ``HybridSystem.private_lm``) indexes the LM words at the LM latency
inside the loop, updating the system's counters and store-collapse latch
exactly as :meth:`~repro.core.hybrid.HybridSystem.load`/``store`` would.
Instruction fetch only appends each fetch group's I-cache address to a
per-lane buffer: the front end ignores fetch latency and nothing else
touches the core's L1I, so :meth:`ExecutionLane.finish` settles the whole
stream with one :meth:`~repro.mem.hierarchy.MemoryHierarchy.fetch`.

The reorder buffer and load/store queue are deques of commit and
completion times, the issue slots and the functional units per-cycle
reservation tables (dicts from cycle to count; each pc's tuple carries its
unit class's table): all of them are the loop's own state, as are the
branch predictor and every counter.  The replay engine's C kernel
(:mod:`repro.trace._ckernel`) runs the same model over a recorded stream;
nothing here is shared with it, so the identity checks compare independent
implementations.

**Resumable lane.**  The loop is a generator whose locals survive across
yields.  :meth:`ExecutionLane.run_until` advances it while the lane's key
``(fetch_time, order)`` stays below a limit key, and past it through
private instructions: the lane yields only right before an instruction
that calls into the memory system (an SM load or store, dma-get,
dma-put, dma-sync, set-bufsize), the only way one core can affect
another; an access to its own LM is private and never a yield point.
That is the contract of :func:`repro.cpu.multicore.run_resumable_lanes`:
a single-core run is one call with an infinite limit, a multicore run
interleaves one lane per core against the shared uncore, and every
memory-system call still happens in global key order.
:meth:`ExecutionLane.finish` settles the L1I and returns the lane's
counters as a :class:`~repro.cpu.core.LaneTiming` record.

A :class:`~repro.trace.capture.TraceRecorder` passed as ``recorder`` gets
the machine-config-independent stream appended straight to its lists:
conditional-branch outcomes, memory addresses with their pcs, and DMA
operands.
"""

from __future__ import annotations

import operator
from array import array
from collections import deque
from typing import Dict, Optional

from repro.cpu.branch_predictor import HybridBranchPredictor
from repro.cpu.config import CoreConfig
from repro.cpu.core import LaneTiming
from repro.cpu.pipeline import CODE_BASE, CODE_INSTR_SIZE
from repro.isa.instructions import FU_INDEX, FuClass, Opcode
from repro.isa.program import WORD_SIZE, Program


class ExecutionError(RuntimeError):
    """Raised when the program performs an illegal operation."""


# Per-pc instruction kinds.  Memory ops come first so ``kind < 2`` tests for
# one; the kinds from _K_CBR up (branches, then the serialising halt and
# dma-synch) need work after the common retire step.
_K_LOAD, _K_STORE, _K_ALU_RR, _K_ALU_RI, _K_LI, _K_UNARY, _K_NOP = range(7)
_K_SETBUF, _K_DGET, _K_DPUT, _K_BAD = 7, 8, 9, 10
_K_CBR, _K_JMP, _K_HALT, _K_DSYNC = 11, 12, 13, 14
#: Kinds that call into the memory system — the only instructions through
#: which one core can affect another, so the only ones a lane yields before
#: (a load or store only when its address is outside the core's LM).
_SHARED_KINDS = frozenset(
    (_K_LOAD, _K_STORE, _K_SETBUF, _K_DGET, _K_DPUT, _K_DSYNC))

#: Dense register indices reserved before the program's names: a source
#: slot that reads 0 and is ready at 0.0, and a sink for ``dst=None``.
_NO_REG, _SINK = 0, 1
_FIRST_REG = 2

#: Cycles of slack kept below the front end when pruning reservations.
_PRUNE_SLACK = 4
#: Instructions between two reservation-table prunes.
_PRUNE_EVERY = 4096


def _safe_div(a, b):
    return a / b if b != 0 else 0.0


def _safe_idiv(a, b):
    return a // b if b != 0 else 0


def _safe_mod(a, b):
    return a % b if b != 0 else 0


_ALU_EVAL = {
    Opcode.ADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.MUL: operator.mul,
    Opcode.DIV: _safe_idiv,
    Opcode.MOD: _safe_mod,
    Opcode.AND: lambda a, b: int(a) & int(b),
    Opcode.OR: lambda a, b: int(a) | int(b),
    Opcode.XOR: lambda a, b: int(a) ^ int(b),
    Opcode.SHL: lambda a, b: int(a) << int(b),
    Opcode.SHR: lambda a, b: int(a) >> int(b),
    Opcode.MIN: min,
    Opcode.MAX: max,
    Opcode.FADD: operator.add,
    Opcode.FSUB: operator.sub,
    Opcode.FMUL: operator.mul,
    Opcode.FDIV: _safe_div,
    Opcode.FMA: operator.mul,  # two-operand form; three-operand FMA unused
}

_UNARY_EVAL = {
    Opcode.MOV: lambda a: a,
    Opcode.FCVT: float,
    Opcode.FNEG: operator.neg,
    Opcode.FSQRT: lambda a: abs(a) ** 0.5,
}

_BRANCH_EVAL = {
    Opcode.BEQ: operator.eq,
    Opcode.BNE: operator.ne,
    Opcode.BLT: operator.lt,
    Opcode.BGE: operator.ge,
}

_SIMPLE_KINDS = {
    Opcode.JMP: _K_JMP,
    Opcode.HALT: _K_HALT,
    Opcode.NOP: _K_NOP,
    Opcode.DMA_GET: _K_DGET,
    Opcode.DMA_PUT: _K_DPUT,
    Opcode.DMA_SYNC: _K_DSYNC,
    Opcode.SET_BUFSIZE: _K_SETBUF,
}

_FU_NAMES = [cls.value for cls in FuClass]   # indexed like FU_INDEX


class ExecutionLane:
    """One core's execution-driven run as a resumable state machine.

    ``system`` is what memory and DMA operations are issued through; its
    ``hierarchy`` serves instruction fetch.  ``order`` is the lane's
    tie-break rank in a multicore run (its core id).  Exceeding
    ``max_instructions`` raises :class:`ExecutionError`.
    """

    __slots__ = ("order", "fetch_time", "done", "_hierarchy", "_names",
                 "_regs", "_ready", "_phase_names", "_recorder", "_fetches",
                 "_gen", "_state")

    def __init__(self, program: Program, system,
                 config: Optional[CoreConfig] = None, *, order: int = 0,
                 recorder=None, max_instructions: int = 50_000_000):
        if not program.is_laid_out:
            program.assign_addresses()
        program.validate()
        config = config or CoreConfig()
        self.order = order
        self.fetch_time = 0.0
        self._hierarchy = system.hierarchy
        self._recorder = recorder
        self._state = None
        # The I-cache address of every fetch group, in order; settled into
        # the L1I at ``finish``.
        self._fetches = array("q")
        names: Dict[str, int] = {}
        fu_tables = [{} for _ in FU_INDEX]
        decoded, self._phase_names = _decode(program, names, config,
                                             fu_tables,
                                             self._hierarchy is not None)
        self._names = names
        self._regs = [0] * (len(names) + _FIRST_REG)
        self._ready = [0.0] * (len(names) + _FIRST_REG)
        self.done = not decoded
        self._gen = None
        if decoded:
            self._gen = self._loop(decoded, fu_tables, system, config,
                                   max_instructions)
            next(self._gen)     # run the loop's set-up to its first yield

    @property
    def registers(self) -> Dict[str, object]:
        """Current value of every register the program names (0 if never
        written)."""
        regs = self._regs
        return {name: regs[idx] for name, idx in self._names.items()}

    @property
    def ready_times(self) -> Dict[str, float]:
        """Cycle at which every register the program names became ready
        (0.0 if never written)."""
        rdy = self._ready
        return {name: rdy[idx] for name, idx in self._names.items()}

    @property
    def issue_slot_cycles(self) -> int:
        """Cycles still holding issue-slot reservations when the loop ended
        (the loop prunes the table below its front end as it runs)."""
        return self._state[-1]

    def run_until(self, limit: float, limit_order: int) -> None:
        """Advance while the key ``(fetch_time, order)`` stays below
        ``(limit, limit_order)``, and past it up to the next memory-system
        instruction; ``limit=inf`` runs to completion."""
        if self._gen is None:
            return
        try:
            self._gen.send((limit, limit_order))
        except StopIteration:
            self.done = True
            self._gen = None

    def _loop(self, decoded, fu_tables, system, config, max_instructions):
        """The per-instruction loop, as a generator (see the module
        docstring).  Yields before a memory-system instruction whenever
        the scheduling contract hands control to another lane; on
        exhaustion packs its counters into ``_state``."""
        my_order = self.order
        n = len(decoded)
        regs = self._regs
        rdy = self._ready

        issue_width = config.issue_width
        inv_fetch = 1.0 / config.fetch_width
        mispredict_penalty = config.mispredict_penalty
        predictor = HybridBranchPredictor(
            entries=config.predictor_entries, btb_entries=config.btb_entries,
            btb_assoc=config.btb_assoc, ras_entries=config.ras_entries)
        predictor_update = predictor.update
        btb = predictor.btb
        # Commit times of the last rob_size instructions, completion times
        # of the last lsq_size memory ops.
        rob_size = config.rob_size
        rob_times = deque(maxlen=rob_size)
        rob_append = rob_times.append
        inv_commit = 1.0 / config.commit_width
        lsq_size = config.lsq_size
        lsq_times = deque(maxlen=lsq_size)
        lsq_append = lsq_times.append
        # Per-cycle issue-slot occupancy: cycle -> instructions issued in
        # it.  This caps issue bandwidth at issue_width per cycle while
        # still letting younger independent instructions issue before an
        # older stalled one (out-of-order issue).
        slots: Dict[int, int] = {}
        slots_get = slots.get
        tables = [slots, *fu_tables]   # pruned in place
        fetch_append = self._fetches.append
        sys_load = system.load
        sys_store = system.store
        # The core's private LM: plain accesses inside its range run here,
        # exactly as HybridSystem.load/store would run them (the counters
        # are summed up at the end, the float latency total in order).
        core = system.private_lm()
        if core is not None:
            lm = core.lm
            lm_words = lm._words
            lm_lo = core._lm_lo
            lm_hi = core._lm_hi
            lm_latency = core._lm_latency
        else:
            lm_lo = lm_hi = -1      # an empty range
        lm_loads = lm_stores = 0

        recorder = self._recorder
        recording = recorder is not None
        if recording:
            rec_branch = recorder.branches.append
            rec_addr = recorder.addresses.append
            rec_pc = recorder.pcs.append
            rec_dma = recorder.dma.extend

        phase_acc = [0.0] * len(self._phase_names)
        fu_n = [0] * len(_FU_NAMES)
        # The kinds as locals: the dispatch compares against them.
        K_LOAD, K_STORE, K_ALU_RR, K_ALU_RI = (
            _K_LOAD, _K_STORE, _K_ALU_RR, _K_ALU_RI)
        K_LI, K_UNARY, K_NOP, K_DGET, K_DPUT = (
            _K_LI, _K_UNARY, _K_NOP, _K_DGET, _K_DPUT)
        K_CBR, K_JMP, K_HALT, K_DSYNC = _K_CBR, _K_JMP, _K_HALT, _K_DSYNC

        fetch_time = 0.0
        last_commit = 0.0   # == the ROB's commit-bandwidth clock
        rob_stalls = lsq_stalls = contended = 0.0
        mispredictions = lsq_collapsed = nmem = 0
        # Next instruction count at which to prune or enforce the limit.
        checkpoint = min(_PRUNE_EVERY, max_instructions)
        pc = i = 0
        limit, limit_order = yield

        while True:
            (kind, a, b, dst, fn, imm, more, fa, table, table_get, capacity,
             unpipelined, fu, phase, latency, shared) = decoded[pc]
            if shared and (fetch_time > limit or (
                    fetch_time == limit and my_order > limit_order)):
                # A plain LM access is private: no yield before it.
                if kind > K_STORE or not lm_lo <= int(
                        regs[a if kind == K_LOAD else b]) + imm < lm_hi:
                    self.fetch_time = fetch_time
                    limit, limit_order = yield
            if i >= checkpoint:
                if i >= max_instructions:
                    raise ExecutionError(
                        f"instruction limit of {max_instructions} exceeded "
                        "(missing HALT or runaway loop?)")
                # Reservations below the front end can never be consulted
                # again (dispatch time is monotonic): drop them.
                checkpoint = min(i + _PRUNE_EVERY, max_instructions)
                horizon = int(fetch_time) - _PRUNE_SLACK
                for tab in tables:
                    if len(tab) > 2048:
                        for c in [c for c in tab if c < horizon]:
                            del tab[c]

            # ---- dispatch: fetch group, ROB and LSQ occupancy ----
            if fa:
                fetch_append(fa)
            t = fetch_time
            if i >= rob_size:
                oldest = rob_times[0]
                if oldest > t:
                    rob_stalls += oldest - t
                    t = oldest
            if kind < 2 and nmem >= lsq_size:
                oldest = lsq_times[0]
                if oldest > t:
                    lsq_stalls += oldest - t
                    t = oldest
            if t > fetch_time:
                fetch_time = t

            # ---- issue estimate: operands ready, then a free issue slot;
            # ``cycle`` ends as int(now), ``taken_slots`` as its count ----
            ready = t
            r = rdy[a]
            if r > ready:
                ready = r
            r = rdy[b]
            if r > ready:
                ready = r
            if more:
                for s in more:
                    r = rdy[s]
                    if r > ready:
                        ready = r
            cycle = int(ready)
            taken_slots = slots_get(cycle, 0)
            if taken_slots < issue_width:
                now = ready
            else:
                cycle += 1
                taken_slots = slots_get(cycle, 0)
                while taken_slots >= issue_width:
                    cycle += 1
                    taken_slots = slots_get(cycle, 0)
                now = float(cycle)

            # ---- execute ----
            i += 1
            if kind == K_ALU_RR:
                regs[dst] = fn(regs[a], regs[b])
                pc += 1
            elif kind == K_ALU_RI:
                regs[dst] = fn(regs[a], imm)
                pc += 1
            elif kind == K_LOAD:
                addr = int(regs[a]) + imm
                if lm_lo <= addr < lm_hi:
                    regs[dst] = lm_words[(addr - lm_lo) // WORD_SIZE]
                    latency = lm_latency
                    lm_loads += 1
                    core.total_mem_latency += latency
                else:
                    outcome = sys_load(addr, fn[0], fn[1], pc, now)
                    regs[dst] = outcome.value
                    latency = outcome.latency
                if recording:
                    rec_addr(addr)
                    rec_pc(pc)
                pc += 1
            elif kind == K_STORE:
                addr = int(regs[b]) + imm
                if lm_lo <= addr < lm_hi:
                    lm_words[(addr - lm_lo) // WORD_SIZE] = regs[a]
                    core._last_store_addr = addr
                    core._last_store_to_sm = False
                    latency = lm_latency
                    lm_stores += 1
                    core.total_mem_latency += latency
                else:
                    guarded, divert, collapse = fn
                    outcome = sys_store(addr, regs[a], guarded, divert,
                                        collapse, pc, now)
                    latency = outcome.latency
                    if outcome.served_by == "collapsed":
                        lsq_collapsed += 1
                if recording:
                    rec_addr(addr)
                    rec_pc(pc)
                pc += 1
            elif kind == K_LI:
                regs[dst] = imm
                pc += 1
            elif kind == K_UNARY:
                regs[dst] = fn(regs[a])
                pc += 1
            elif kind == K_CBR:
                taken = fn(regs[a], regs[b])
                if recording:
                    rec_branch(taken)
                branch_pc = pc
                pc = imm if taken else pc + 1
            elif kind == K_JMP:
                branch_pc = pc
                pc = imm
            elif kind == K_NOP:
                pc += 1
            elif kind == K_HALT:
                pc = n
            elif kind == K_DGET or kind == K_DPUT:
                args = (int(regs[a]), int(regs[b]), int(regs[more[0]]))
                if recording:
                    rec_dma(args)
                dma = system.dma_get if kind == K_DGET else system.dma_put
                latency = dma(*args, tag=imm, now=now)
                pc += 1
            elif kind == K_DSYNC:
                latency = 1.0 + system.dma_sync(imm, now=now)
                pc += 1
            elif kind == _K_SETBUF:
                latency = system.set_buffer_size(imm)
                pc += 1
            else:   # _K_BAD
                raise ExecutionError(fn)

            # ---- retire: a free functional unit from int(now) on, then
            # the issue slot of the start cycle (``cycle`` ends as
            # int(start); its slot count is the one read at issue unless
            # the cycle moved) ----
            fu_n[fu] += 1
            count = table_get(cycle, 0)
            if count < capacity:
                start = now
            else:
                cycle += 1
                count = table_get(cycle, 0)
                while count >= capacity:
                    cycle += 1
                    count = table_get(cycle, 0)
                start = float(cycle)
                contended += start - now
                taken_slots = slots_get(cycle, 0)
            if unpipelined:
                for c in range(cycle, cycle + max(1, int(latency))):
                    table[c] = table_get(c, 0) + 1
            else:
                table[cycle] = count + 1
            slots[cycle] = taken_slots + 1
            completion = start + latency
            rdy[dst] = completion
            commit_completion = completion
            if kind < 2:
                if kind == K_STORE and latency > 2.0:
                    commit_completion = start + 2.0
                lsq_append(completion)
                nmem += 1
                fetch_time = fetch_time + inv_fetch
            elif kind < K_CBR:
                fetch_time = fetch_time + inv_fetch
            else:
                if kind <= K_JMP:
                    code_addr = CODE_BASE + branch_pc * CODE_INSTR_SIZE
                    if kind == K_CBR:
                        mispredicted = predictor_update(code_addr, taken)
                    else:
                        taken = True
                        mispredicted = btb.lookup(code_addr) is None
                        predictor.predictions += 1
                        if mispredicted:
                            predictor.mispredictions += 1
                    if taken:
                        btb.update(code_addr,
                                   CODE_BASE + pc * CODE_INSTR_SIZE)
                    if mispredicted:
                        mispredictions += 1
                        fetch_time = completion + mispredict_penalty
                fetch_time = fetch_time + inv_fetch
                if kind >= K_HALT and completion > fetch_time:
                    fetch_time = completion     # dma-synch and halt drain
            # In-order commit, commit_width per cycle: the previous commit
            # always sits on the bandwidth clock, so one comparison does.
            commit = last_commit + inv_commit
            if commit_completion > commit:
                commit = commit_completion
            rob_append(commit)
            phase_acc[phase] += commit - last_commit
            last_commit = commit

            if pc >= n:
                break
        if lm_loads or lm_stores:
            # The integer counters of the inline LM accesses.
            core.loads += lm_loads
            core.stores += lm_stores
            core.mem_ops += lm_loads + lm_stores
            lm.reads += lm_loads
            lm.writes += lm_stores
        self.fetch_time = fetch_time
        self._state = (i, last_commit, rob_stalls, lsq_stalls, contended,
                       mispredictions, predictor.predictions, lsq_collapsed,
                       phase_acc, fu_n, len(slots))

    def finish(self) -> LaneTiming:
        """Settle the buffered instruction fetches into the L1I, set the
        recorder's instruction count and return the lane's timing record.
        Call once, after ``done``."""
        if self._state is None:     # an empty program retires nothing
            return LaneTiming(0.0, 0, {}, 0, 0, {}, 0.0, 0.0, 0.0, 0)
        (committed, last_commit, rob_stalls, lsq_stalls, contended,
         mispredictions, predictions, lsq_collapsed, phase_acc, fu_n,
         _) = self._state
        if self._hierarchy is not None:
            self._hierarchy.fetch(self._fetches)
        self._fetches = None
        if self._recorder is not None:
            self._recorder.count = committed
        # Commit advances are strictly positive, so a phase accumulated 0.0
        # exactly when none of its instructions retired.
        return LaneTiming(
            cycles=last_commit, committed=committed,
            phase_cycles={name: cycles for name, cycles
                          in zip(self._phase_names, phase_acc)
                          if cycles != 0.0},
            mispredictions=mispredictions, branch_predictions=predictions,
            fu_op_counts={_FU_NAMES[idx]: count
                          for idx, count in enumerate(fu_n) if count},
            fu_contended_cycles=contended, rob_dispatch_stalls=rob_stalls,
            lsq_occupancy_stalls=lsq_stalls,
            lsq_collapsed_stores=lsq_collapsed)


def _decode(program: Program, names: Dict[str, int], config: CoreConfig,
            fu_tables, fetch: bool):
    """Flatten ``program`` into one tuple per pc for the lane's loop.

    Returns ``(decoded, phase_names)``.  Register names get dense indices
    in ``names`` (from ``_FIRST_REG``); each tuple carries its phase as an
    index into ``phase_names`` (phases in program order).  Tuple
    fields: ``(kind, a, b, dst, fn, imm, more, fa, table, table_get,
    capacity, unpipelined, fu, phase, latency, shared)`` — ``a``/``b`` the
    first two source registers (``_NO_REG`` when absent), ``more`` any
    further ones, ``fn`` the evaluator (memory ops: their ``(guarded,
    oracle_divert, collapse_with_prev)`` flags; ``_K_BAD``: the error
    message), ``imm`` the immediate, address offset, branch target pc or
    DMA tag, ``fa`` the I-cache address fetched before this pc (0 when it
    starts no fetch group, or when ``fetch`` is false), ``table`` the
    reservation table in ``fu_tables`` of its functional-unit class,
    ``capacity`` that class's units, ``shared`` whether the kind is in
    ``_SHARED_KINDS`` (a yield point; a load or store only outside the LM
    range).
    """
    def reg(name):
        idx = names.get(name)
        if idx is None:
            idx = names[name] = len(names) + _FIRST_REG
        return idx

    capacity = config.fu_capacity()
    fetch_width = config.fetch_width
    phase_index: Dict[str, int] = {}
    decoded = []
    for pc, inst in enumerate(program.instructions):
        op = inst.opcode
        srcs = [reg(s) for s in inst.srcs]
        a = srcs[0] if srcs else _NO_REG
        b = srcs[1] if len(srcs) > 1 else _NO_REG
        more = tuple(srcs[2:])
        dst = _SINK if inst.dst is None else reg(inst.dst)
        fn = None
        imm = inst.imm
        if inst.is_memory:
            kind = _K_LOAD if inst.is_load else _K_STORE
            fn = (inst.is_guarded, inst.oracle_divert, inst.collapse_with_prev)
            imm = int(inst.imm or 0)
        elif op in _ALU_EVAL:
            fn = _ALU_EVAL[op]
            if len(srcs) >= 2:
                kind = _K_ALU_RR
            elif srcs and inst.imm is not None:
                kind = _K_ALU_RI
            else:
                kind = _K_BAD
                fn = f"{inst!r}: missing second operand"
        elif op in _BRANCH_EVAL:
            kind = _K_CBR
            fn = _BRANCH_EVAL[op]
            imm = program.resolve_label(inst.target)
        elif op is Opcode.LI:
            kind = _K_LI
        elif op in _UNARY_EVAL:
            kind = _K_UNARY
            fn = _UNARY_EVAL[op]
        elif op in _SIMPLE_KINDS:
            kind = _SIMPLE_KINDS[op]
            if kind == _K_JMP:
                imm = program.resolve_label(inst.target)
            elif kind in (_K_DGET, _K_DPUT):
                imm = inst.imm or 0
        else:  # pragma: no cover - defensive
            kind = _K_BAD
            fn = f"unimplemented opcode {op}"
        phase = phase_index.setdefault(inst.phase, len(phase_index))
        fa = (CODE_BASE + pc * CODE_INSTR_SIZE
              if fetch and pc % fetch_width == 0 else 0)
        table = fu_tables[inst.fu_index]
        decoded.append((kind, a, b, dst, fn, imm, more, fa, table, table.get,
                        capacity[inst.fu_index], inst.unpipelined,
                        inst.fu_index, phase, float(inst.latency),
                        kind in _SHARED_KINDS))
    return decoded, list(phase_index)
