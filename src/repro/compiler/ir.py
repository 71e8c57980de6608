"""Loop-nest intermediate representation consumed by the compiler.

The IR is intentionally small: a kernel is a sequence of flat loops over a
single induction variable, each loop body a list of assignment/reduction
statements over array references.  Three index-expression forms cover the
access patterns of the paper's benchmarks:

* :class:`AffineIndex` — ``stride * i + offset`` — the *strided* accesses
  that the compiler maps to LM buffers (regular accesses);
* :class:`IndirectIndex` — ``idx[i] * scale + offset`` — gather/scatter
  through an index array (irregular or potentially incoherent accesses, e.g.
  ``x[col[j]]`` in CG or ``bucket[key[i]]`` in IS);
* :class:`ModuloIndex` — ``(i * multiplier + offset) mod modulo`` — a
  computable but non-strided pattern used where the originals use
  pseudo-random accesses (e.g. EP's tally updates).

Arrays are declared with :class:`ArraySpec`.  A :class:`PointerSpec` models a
pointer whose target the compiler may be unable to resolve — this is what
produces *potentially incoherent* accesses: at run time the pointer points to
a real array (``actual_target``), but ``declared_targets=None`` tells the
alias analysis that it could alias anything (the ``ptr`` of Figure 2/3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Union

import numpy as np


# --------------------------------------------------------------------------- indices
@dataclass(frozen=True)
class AffineIndex:
    """``index = stride * i + offset`` (a strided, predictable pattern)."""

    stride: int = 1
    offset: int = 0

    def evaluate(self, i: int) -> int:
        return self.stride * i + self.offset


@dataclass(frozen=True)
class IndirectIndex:
    """``index = idx_array[stride * i + idx_offset] * scale + offset``.

    The index array itself is read with an affine pattern; the resulting
    access into the target array is unpredictable.
    """

    index_array: str
    scale: int = 1
    offset: int = 0
    stride: int = 1
    idx_offset: int = 0

    def index_ref_index(self) -> AffineIndex:
        """The affine index used to read the index array itself."""
        return AffineIndex(self.stride, self.idx_offset)


@dataclass(frozen=True)
class ModuloIndex:
    """``index = (i * multiplier + offset) mod modulo`` (non-strided)."""

    multiplier: int
    modulo: int
    offset: int = 0

    def evaluate(self, i: int) -> int:
        return (i * self.multiplier + self.offset) % self.modulo


IndexExpr = Union[AffineIndex, IndirectIndex, ModuloIndex]


# --------------------------------------------------------------------------- storage
@dataclass
class ArraySpec:
    """An array in system memory.

    Parameters
    ----------
    name / length / dtype / data:
        As in :class:`repro.isa.program.ArrayDecl`.
    mappable:
        Whether the compiler is allowed to map this array to the LM (some
        arrays, e.g. tiny lookup tables, are better left in the cache).
    """

    name: str
    length: int
    dtype: str = "float"
    data: Optional[np.ndarray] = None
    mappable: bool = True

    def initial_data(self) -> np.ndarray:
        if self.data is not None:
            return np.asarray(self.data, dtype=float)
        return np.zeros(self.length, dtype=float)


@dataclass
class PointerSpec:
    """A pointer whose pointee set may be unknown to the compiler.

    ``actual_target`` is the array the pointer really points to at run time
    (with ``actual_offset`` elements of displacement); ``declared_targets`` is
    what the alias analysis knows: ``None`` means "could point anywhere"
    (the compiler must assume it may alias every array), a set of names
    restricts the candidates.
    """

    name: str
    actual_target: str
    actual_offset: int = 0
    declared_targets: Optional[Set[str]] = None


# --------------------------------------------------------------------------- refs / expressions
@dataclass(frozen=True)
class Ref:
    """A memory reference: an array (or pointer) name plus an index expression."""

    array: str
    index: IndexExpr


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class ScalarVar:
    """A loop-invariant scalar (kept in a register for the whole kernel)."""

    name: str


@dataclass(frozen=True)
class Load:
    ref: Ref


@dataclass(frozen=True)
class BinOp:
    """Binary operation over two expressions.

    ``op`` is one of ``"+", "-", "*", "/", "min", "max"``.
    """

    op: str
    lhs: "Expr"
    rhs: "Expr"


Expr = Union[Const, ScalarVar, Load, BinOp]


# --------------------------------------------------------------------------- statements
@dataclass(frozen=True)
class Assign:
    """``target = expr`` executed once per loop iteration."""

    target: Ref
    expr: Expr


@dataclass(frozen=True)
class Reduce:
    """``scalar = scalar <op> expr`` — a reduction into a named scalar."""

    scalar: str
    expr: Expr
    op: str = "+"


Statement = Union[Assign, Reduce]


@dataclass
class Loop:
    """A flat loop ``for i in [start, end)`` over ``body`` statements."""

    var: str
    start: int
    end: int
    body: List[Statement] = field(default_factory=list)

    @property
    def trip_count(self) -> int:
        return max(0, self.end - self.start)


@dataclass
class Kernel:
    """A complete kernel: storage declarations plus one or more loops."""

    name: str
    arrays: Dict[str, ArraySpec] = field(default_factory=dict)
    pointers: Dict[str, PointerSpec] = field(default_factory=dict)
    scalars: Dict[str, float] = field(default_factory=dict)
    loops: List[Loop] = field(default_factory=list)

    # -- construction helpers ------------------------------------------------------
    def add_array(self, spec: ArraySpec) -> ArraySpec:
        if spec.name in self.arrays or spec.name in self.pointers:
            raise ValueError(f"duplicate storage name {spec.name!r}")
        self.arrays[spec.name] = spec
        return spec

    def add_pointer(self, spec: PointerSpec) -> PointerSpec:
        if spec.name in self.arrays or spec.name in self.pointers:
            raise ValueError(f"duplicate storage name {spec.name!r}")
        if spec.actual_target not in self.arrays:
            raise ValueError(
                f"pointer {spec.name!r} targets unknown array {spec.actual_target!r}")
        self.pointers[spec.name] = spec
        return spec

    def add_loop(self, loop: Loop) -> Loop:
        self.loops.append(loop)
        return loop

    # -- queries ---------------------------------------------------------------------
    def storage_target(self, name: str) -> str:
        """Resolve a ref's array name to the real array holding the data."""
        if name in self.arrays:
            return name
        if name in self.pointers:
            return self.pointers[name].actual_target
        raise KeyError(f"unknown storage {name!r}")

    def all_refs(self) -> List[Ref]:
        """Every distinct reference appearing in the kernel, in program order."""
        seen: List[Ref] = []
        for loop in self.loops:
            for stmt in loop.body:
                for ref in refs_of_statement(stmt):
                    if ref not in seen:
                        seen.append(ref)
        return seen

    def validate(self) -> None:
        """Check that all refs point to declared storage and indices resolve."""
        for loop in self.loops:
            for stmt in loop.body:
                for ref in refs_of_statement(stmt):
                    if ref.array not in self.arrays and ref.array not in self.pointers:
                        raise ValueError(
                            f"kernel {self.name!r}: ref to undeclared storage {ref.array!r}")
                    if isinstance(ref.index, IndirectIndex):
                        if ref.index.index_array not in self.arrays:
                            raise ValueError(
                                f"kernel {self.name!r}: indirect index through "
                                f"undeclared array {ref.index.index_array!r}")
                for var in scalars_of_statement(stmt):
                    if var not in self.scalars:
                        raise ValueError(
                            f"kernel {self.name!r}: undeclared scalar {var!r}")


# --------------------------------------------------------------------------- traversal helpers
def refs_of_expr(expr: Expr) -> List[Ref]:
    """All refs read by an expression (in evaluation order)."""
    if isinstance(expr, Load):
        return [expr.ref]
    if isinstance(expr, BinOp):
        return refs_of_expr(expr.lhs) + refs_of_expr(expr.rhs)
    return []


def refs_of_statement(stmt: Statement) -> List[Ref]:
    """All refs touched by a statement (reads first, then the written target)."""
    if isinstance(stmt, Assign):
        return refs_of_expr(stmt.expr) + [stmt.target]
    if isinstance(stmt, Reduce):
        return refs_of_expr(stmt.expr)
    raise TypeError(f"unknown statement {stmt!r}")


def scalars_of_expr(expr: Expr) -> List[str]:
    if isinstance(expr, ScalarVar):
        return [expr.name]
    if isinstance(expr, BinOp):
        return scalars_of_expr(expr.lhs) + scalars_of_expr(expr.rhs)
    return []


def scalars_of_statement(stmt: Statement) -> List[str]:
    if isinstance(stmt, Assign):
        return scalars_of_expr(stmt.expr)
    if isinstance(stmt, Reduce):
        return [stmt.scalar] + scalars_of_expr(stmt.expr)
    raise TypeError(f"unknown statement {stmt!r}")
