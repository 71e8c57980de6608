"""Architectural register counts of the simulated core.

The simulated core of Table 1 has 256 integer and 256 floating-point physical
registers.  The compiler emits code against an unbounded set of virtual
register names (``r0``, ``r1`` ... and ``f0``, ``f1`` ...); the timing model
only cares about data dependences, so virtual names are sufficient.  The
execution lane (:mod:`repro.cpu.executor`) gives each name a dense index and
keeps register values in a list; registers never written read as zero.
"""

from __future__ import annotations

#: Number of physical integer registers (Table 1).
INT_REG_COUNT = 256
#: Number of physical floating-point registers (Table 1).
FP_REG_COUNT = 256
