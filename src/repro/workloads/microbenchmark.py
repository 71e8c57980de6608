"""The microbenchmark of Table 2 / Figure 7.

The microbenchmark is a simple loop, ``a[i+1] = a[i] + c``, that stresses the
coherence protocol.  It can be configured in four modes:

* ``baseline`` — no guarded instructions;
* ``RD``       — the load of ``a[i]`` is assumed potentially incoherent, so a
  guarded load is emitted;
* ``WR``       — the store to ``a[i+1]`` is assumed potentially incoherent
  and cannot be proven to alias only written-back data, so a double store
  (guarded store + conventional store) is emitted;
* ``RD/WR``    — both of the above.

To model all possible scenarios, the percentage of memory operations that are
guarded is adjustable: the loop is unrolled and a controllable fraction of
the unrolled bodies uses the guarded forms, which gives exact control over
the static and dynamic guarded-instruction ratio without perturbing the loop
structure.

The generated program runs on the hybrid memory system with nothing mapped to
the LM, so every directory lookup misses and the accesses are served by the
cache hierarchy — exactly the situation the paper uses to isolate the
overhead of the guard itself and of the double store.
"""

from __future__ import annotations

from typing import List

from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program, WORD_SIZE

#: Valid microbenchmark modes (Table 2).
MICRO_MODES: List[str] = ["baseline", "RD", "WR", "RD/WR"]


class MicroMode:
    """Symbolic names for the four microbenchmark modes."""

    BASELINE = "baseline"
    RD = "RD"
    WR = "WR"
    RDWR = "RD/WR"


def build_microbenchmark(mode: str = "baseline",
                         guarded_fraction: float = 1.0,
                         iterations: int = 4096,
                         unroll: int = 20,
                         constant: int = 3) -> Program:
    """Build the microbenchmark program.

    Parameters
    ----------
    mode:
        One of :data:`MICRO_MODES`.
    guarded_fraction:
        Fraction (0..1) of the memory references of the selected kind that
        are emitted in guarded form (the X axis of Figure 7).
    iterations:
        Total number of original-loop iterations (rounded up to a multiple of
        ``unroll``).
    unroll:
        Unroll factor used to realise the guarded fraction statically.
    constant:
        The loop-invariant value ``c`` added every iteration.
    """
    if mode not in MICRO_MODES:
        raise ValueError(f"unknown microbenchmark mode {mode!r}; expected {MICRO_MODES}")
    if not (0.0 <= guarded_fraction <= 1.0):
        raise ValueError("guarded_fraction must be in [0, 1]")
    if unroll <= 0 or iterations <= 0:
        raise ValueError("iterations and unroll must be positive")

    groups = (iterations + unroll - 1) // unroll
    total_iters = groups * unroll
    guarded_bodies = round(guarded_fraction * unroll)

    b = ProgramBuilder()
    b.declare_array("a", total_iters + unroll + 1, dtype="int")
    b.set_phase("other")
    # The compiler would configure the directory before using the LM; the
    # microbenchmark keeps the LM empty but still configures the buffer size
    # so that guarded instructions perform real (missing) lookups.
    b.set_bufsize(4096)

    r_c = b.new_int_reg()
    r_i = b.new_int_reg()
    r_end = b.new_int_reg()
    r_base = b.new_int_reg()
    r_addr = b.new_int_reg()
    r_off = b.new_int_reg()
    b.li(r_c, constant, comment="loop-invariant c")
    b.li(r_i, 0)
    b.li(r_end, total_iters)
    base_li = b.li(r_base, 0, comment="&a")

    b.set_phase("work")
    top = b.new_label("micro")
    b.label(top)
    b.shl(r_off, r_i, 3)
    b.add(r_addr, r_base, r_off, comment="&a[i]")
    for j in range(unroll):
        guarded = j < guarded_bodies
        r_v = b.new_int_reg()
        load_off = j * WORD_SIZE
        store_off = (j + 1) * WORD_SIZE
        # Load a[i+j].
        if guarded and mode in (MicroMode.RD, MicroMode.RDWR):
            b.gld(r_v, r_addr, load_off, comment=f"guarded load a[i+{j}]")
        else:
            b.ld(r_v, r_addr, load_off, comment=f"load a[i+{j}]")
        # Add the constant.
        b.add(r_v, r_v, r_c)
        # Store a[i+j+1]; the WR modes need the double store because the
        # potentially incoherent write may alias read-only LM data.
        if guarded and mode in (MicroMode.WR, MicroMode.RDWR):
            b.gst(r_v, r_addr, store_off, comment=f"guarded store a[i+{j+1}]")
            b.st(r_v, r_addr, store_off, collapse_with_prev=True,
                 comment=f"double store a[i+{j+1}]")
        else:
            b.st(r_v, r_addr, store_off, comment=f"store a[i+{j+1}]")
    b.add(r_i, r_i, imm=unroll)
    b.blt(r_i, r_end, top)
    b.halt()

    program = b.finish()
    program.assign_addresses()
    base_li.imm = program.arrays["a"].base
    return program
