"""Mini instruction set used by the simulated core.

The paper evaluates the coherence protocol on x86-64 binaries in which the
guarded memory instructions are expressed with instruction prefixes.  This
reproduction uses a small RISC-like instruction set with explicit guarded
load/store opcodes (``GLD``/``GST``), DMA opcodes for the local-memory
controller and the usual ALU/branch instructions.  The compiler in
:mod:`repro.compiler` lowers loop-nest IR into this ISA and the core model in
:mod:`repro.cpu` executes and times it.
"""

from repro.isa.instructions import (
    Opcode,
    Instruction,
    FuClass,
    ALU_LATENCY,
    is_memory_opcode,
    is_load_opcode,
    is_store_opcode,
    is_guarded_opcode,
    is_branch_opcode,
    is_dma_opcode,
)
from repro.isa.registers import INT_REG_COUNT, FP_REG_COUNT
from repro.isa.program import ArrayDecl, Program
from repro.isa.builder import ProgramBuilder

__all__ = [
    "Opcode",
    "Instruction",
    "FuClass",
    "ALU_LATENCY",
    "is_memory_opcode",
    "is_load_opcode",
    "is_store_opcode",
    "is_guarded_opcode",
    "is_branch_opcode",
    "is_dma_opcode",
    "INT_REG_COUNT",
    "FP_REG_COUNT",
    "ArrayDecl",
    "Program",
    "ProgramBuilder",
]
