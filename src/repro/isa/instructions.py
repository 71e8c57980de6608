"""Instruction definitions for the mini ISA.

The ISA is deliberately small: enough to express the compiler-generated code
of Figure 3 of the paper (regular loads/stores, guarded loads/stores, the
double store, DMA commands and loop control) while remaining fast to
interpret in Python.

Every instruction is an :class:`Instruction` instance.  Instructions are
immutable once built; the execution lane (:mod:`repro.cpu.executor`) decodes
them into per-pc tuples and resolves operand values at run time.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple


class Opcode(enum.Enum):
    """Opcodes of the mini ISA."""

    # Integer ALU
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    MOD = "mod"
    MIN = "min"
    MAX = "max"
    # Floating point
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FSQRT = "fsqrt"
    FNEG = "fneg"
    FMA = "fma"
    # Moves / immediates
    LI = "li"
    MOV = "mov"
    FCVT = "fcvt"
    # Memory
    LD = "ld"
    ST = "st"
    GLD = "gld"
    GST = "gst"
    # Control flow
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    JMP = "jmp"
    HALT = "halt"
    NOP = "nop"
    # Local memory / DMA controller (memory-mapped I/O in the real design)
    DMA_GET = "dma_get"
    DMA_PUT = "dma_put"
    DMA_SYNC = "dma_sync"
    SET_BUFSIZE = "set_bufsize"


class FuClass(enum.Enum):
    """Functional-unit class an instruction executes on (Table 1)."""

    INT_ALU = "int_alu"
    FP_ALU = "fp_alu"
    LOAD_STORE = "load_store"
    BRANCH = "branch"
    NONE = "none"


#: Dense index per functional-unit class.  The timing model's reservation
#: tables are list-indexed by this instead of dict-keyed by the enum: enum
#: hashing on every issued instruction was a measured hot path.
FU_INDEX = {cls: i for i, cls in enumerate(FuClass)}

#: Opcodes that occupy their functional unit for the whole latency
#: (unpipelined dividers / square roots).
UNPIPELINED_OPS = frozenset(
    {Opcode.DIV, Opcode.MOD, Opcode.FDIV, Opcode.FSQRT})


#: Execution latency (cycles) of non-memory instructions, indexed by opcode.
#: Memory instruction latency is determined by the memory subsystem.
ALU_LATENCY = {
    Opcode.ADD: 1,
    Opcode.SUB: 1,
    Opcode.MUL: 3,
    Opcode.DIV: 12,
    Opcode.AND: 1,
    Opcode.OR: 1,
    Opcode.XOR: 1,
    Opcode.SHL: 1,
    Opcode.SHR: 1,
    Opcode.MOD: 12,
    Opcode.MIN: 1,
    Opcode.MAX: 1,
    Opcode.FADD: 4,
    Opcode.FSUB: 4,
    Opcode.FMUL: 4,
    Opcode.FDIV: 16,
    Opcode.FSQRT: 20,
    Opcode.FNEG: 1,
    Opcode.FMA: 5,
    Opcode.LI: 1,
    Opcode.MOV: 1,
    Opcode.FCVT: 2,
    # Memory instructions: nominal L1-hit latency.  The timing model replaces
    # this with the latency returned by the memory system for each access.
    Opcode.LD: 2,
    Opcode.ST: 2,
    Opcode.GLD: 2,
    Opcode.GST: 2,
    Opcode.BEQ: 1,
    Opcode.BNE: 1,
    Opcode.BLT: 1,
    Opcode.BGE: 1,
    Opcode.JMP: 1,
    Opcode.HALT: 1,
    Opcode.NOP: 1,
    Opcode.DMA_GET: 1,
    Opcode.DMA_PUT: 1,
    Opcode.DMA_SYNC: 1,
    Opcode.SET_BUFSIZE: 1,
}

_INT_OPS = {
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.AND, Opcode.OR,
    Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.MOD, Opcode.MIN, Opcode.MAX,
    Opcode.LI, Opcode.MOV, Opcode.NOP,
}
_FP_OPS = {
    Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FSQRT,
    Opcode.FNEG, Opcode.FMA, Opcode.FCVT,
}
_MEM_OPS = {Opcode.LD, Opcode.ST, Opcode.GLD, Opcode.GST}
_LOAD_OPS = {Opcode.LD, Opcode.GLD}
_STORE_OPS = {Opcode.ST, Opcode.GST}
_GUARDED_OPS = {Opcode.GLD, Opcode.GST}
_BRANCH_OPS = {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.JMP}
_DMA_OPS = {Opcode.DMA_GET, Opcode.DMA_PUT, Opcode.DMA_SYNC, Opcode.SET_BUFSIZE}
_COND_BRANCH_OPS = {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE}


def is_memory_opcode(op: Opcode) -> bool:
    """Return True for loads and stores (guarded or not)."""
    return op in _MEM_OPS


def is_load_opcode(op: Opcode) -> bool:
    """Return True for ``LD`` and ``GLD``."""
    return op in _LOAD_OPS


def is_store_opcode(op: Opcode) -> bool:
    """Return True for ``ST`` and ``GST``."""
    return op in _STORE_OPS


def is_guarded_opcode(op: Opcode) -> bool:
    """Return True for the guarded memory instructions ``GLD``/``GST``."""
    return op in _GUARDED_OPS


def is_branch_opcode(op: Opcode) -> bool:
    """Return True for control-flow instructions."""
    return op in _BRANCH_OPS


def is_conditional_branch(op: Opcode) -> bool:
    """Return True for conditional branches (excludes ``JMP``)."""
    return op in _COND_BRANCH_OPS


def is_dma_opcode(op: Opcode) -> bool:
    """Return True for DMA-controller commands."""
    return op in _DMA_OPS


def fu_class_for(op: Opcode) -> FuClass:
    """Map an opcode onto the functional-unit class it occupies."""
    if op in _MEM_OPS:
        return FuClass.LOAD_STORE
    if op in _FP_OPS:
        return FuClass.FP_ALU
    if op in _BRANCH_OPS:
        return FuClass.BRANCH
    if op in _DMA_OPS:
        # DMA commands are stores to memory-mapped I/O registers; they use a
        # load/store unit slot but complete immediately from the pipeline's
        # point of view.
        return FuClass.LOAD_STORE
    if op in _INT_OPS or op is Opcode.HALT:
        return FuClass.INT_ALU
    return FuClass.NONE


class Instruction:
    """A single static instruction.

    Parameters
    ----------
    opcode:
        The :class:`Opcode`.
    dst:
        Destination register name (or ``None``).
    srcs:
        Tuple of source register names.
    imm:
        Immediate operand (integer/float constant, address offset, DMA size,
        branch displacement is expressed through ``target`` instead).
    target:
        Branch target label.
    size:
        Access size in bytes for memory operations (default 8).
    phase:
        Execution-model phase tag used for Figure 9 accounting: one of
        ``"work"``, ``"control"``, ``"sync"`` or ``"other"``.
    collapse_with_prev:
        Marks the second store of a compiler-generated double store.  When the
        previous store in program order wrote the same address, the Load/Store
        Queue collapses the two into a single cache access (Section 3.1).
    oracle_divert:
        Marks a plain memory instruction that the *oracle* baseline (used in
        Figure 8) relies on the simulator to divert to the valid copy without
        a directory lookup.
    comment:
        Free-form annotation used by tests and dumps.
    """

    __slots__ = (
        "opcode", "dst", "srcs", "imm", "target", "size", "phase",
        "collapse_with_prev", "oracle_divert", "comment",
        # Pre-computed classification (static instructions are interpreted
        # millions of times; property lookups would dominate the profile).
        "is_memory", "is_load", "is_store", "is_guarded", "is_branch",
        "is_conditional_branch", "is_dma", "fu_class", "fu_index",
        "unpipelined", "latency",
    )

    def __init__(
        self,
        opcode: Opcode,
        dst: Optional[str] = None,
        srcs: Tuple[str, ...] = (),
        imm=None,
        target: Optional[str] = None,
        size: int = 8,
        phase: str = "work",
        collapse_with_prev: bool = False,
        oracle_divert: bool = False,
        comment: str = "",
    ):
        self.opcode = opcode
        self.dst = dst
        self.srcs = tuple(srcs)
        self.imm = imm
        self.target = target
        self.size = size
        self.phase = phase
        self.collapse_with_prev = collapse_with_prev
        self.oracle_divert = oracle_divert
        self.comment = comment
        # Static classification, computed once.
        self.is_memory = is_memory_opcode(opcode)
        self.is_load = is_load_opcode(opcode)
        self.is_store = is_store_opcode(opcode)
        self.is_guarded = is_guarded_opcode(opcode)
        self.is_branch = is_branch_opcode(opcode)
        self.is_conditional_branch = is_conditional_branch(opcode)
        self.is_dma = is_dma_opcode(opcode)
        self.fu_class = fu_class_for(opcode)
        self.fu_index = FU_INDEX[self.fu_class]
        self.unpipelined = opcode in UNPIPELINED_OPS
        #: Fixed execution latency; memory latency is resolved dynamically.
        self.latency = ALU_LATENCY.get(opcode, 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.opcode.value]
        if self.dst:
            parts.append(self.dst)
        parts.extend(self.srcs)
        if self.imm is not None:
            parts.append(str(self.imm))
        if self.target is not None:
            parts.append("->" + self.target)
        text = " ".join(parts)
        if self.comment:
            text += "  ; " + self.comment
        return f"<{text}>"
