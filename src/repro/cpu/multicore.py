"""Interleaved simulation: N >= 1 cores, one global clock.

A run keeps one *lane* per core and repeatedly advances the lane whose
front end is earliest in time, so the cores advance together against the
shared uncore: a memory access core A issues at cycle ``t`` has consumed
shared-bus slots by the time core B's access at ``t' >= t`` arbitrates,
which is what makes contention deterministic.

The lane order is a pure function of the per-core timing state
(``fetch_time``, ties broken by core id), so an execution-driven run and a
trace replay that issue identical per-core streams interleave identically —
the foundation of the multicore capture -> replay cycle/energy identity.

:func:`run_programs` is the one execution driver (:meth:`Core.run
<repro.cpu.core.Core.run>` is its one-core case) and
:func:`run_resumable_lanes` the one scheduler, which drives resumable
lane state machines: execution's
:class:`~repro.cpu.executor.ExecutionLane` and replay's
:class:`~repro.trace.vector._VectorLane`, one per core.  Each scheduled
lane is handed the key of the next-earliest lane, so it can batch
instructions internally.  Both lane kinds yield only before an
instruction that touches shared state (execution: any memory-system
call — an access to the core's own LM runs inside the lane, and the lane
settles its private L1I at ``finish``; replay: an uncore event) once their
key has reached that limit:
private work commutes across cores, so every shared-state access still
happens in global key order, exactly as when stepping one instruction at
a time (``tests/test_multicore_timing.py`` checks it against such a
step-at-a-time loop).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.cpu.config import CoreConfig
from repro.cpu.core import SimulationResult, lane_result
from repro.cpu.executor import ExecutionLane
from repro.isa.program import Program

_INFINITY = float("inf")


class _TimedLane:
    """Timing proxy around a resumable lane: records each scheduler grant
    as a ``[fetch_time before, fetch_time after)`` span on a timeline
    recorder.  Only instantiated when a timeline is requested, so the
    recorder-off scheduling path is untouched."""

    __slots__ = ("_lane", "_timeline", "order")

    def __init__(self, lane, timeline):
        self._lane = lane
        self._timeline = timeline
        self.order = lane.order

    @property
    def fetch_time(self):
        return self._lane.fetch_time

    @property
    def done(self):
        return self._lane.done

    def run_until(self, limit, limit_order):
        lane = self._lane
        start = lane.fetch_time
        lane.run_until(limit, limit_order)
        self._timeline.lane_span(self.order, start, lane.fetch_time)


def run_resumable_lanes(lanes: Sequence, timeline=None) -> None:
    """Run resumable lane state machines to completion, interleaved by
    front-end time: the lane with the lowest key ``(fetch_time, order)``
    runs next.

    A *resumable lane* exposes ``fetch_time`` (its front-end clock),
    ``order`` (its tie-break rank — the core id), ``done`` and
    ``run_until(limit, limit_order)``, which must process at least one
    instruction and keep going while the lane's key ``(fetch_time, order)``
    stays below ``(limit, limit_order)``, and past it through private
    instructions: it stops only right before an instruction that touches
    shared state once its key is no longer below the limit.  Handing the
    scheduled lane the key of the next-earliest lane lets it batch the
    whole run it is entitled to in one call — every shared-state access
    (and with it every uncore arbitration decision) happens in the same
    order as stepping one instruction at a time, without paying a
    scheduler round per instruction.

    ``timeline`` (a :class:`repro.obs.timeline.TimelineRecorder`) wraps each
    lane in a timing proxy that records per-grant run spans; the scheduling
    decisions are unchanged because the proxies mirror ``fetch_time`` /
    ``order`` / ``done`` exactly.  The number of grants is reported once
    per call as the ``lanes.grants`` counter.
    """
    if timeline is not None:
        lanes = [_TimedLane(lane, timeline) for lane in lanes]
    active = [lane for lane in lanes if not lane.done]
    grants = 0
    while len(active) > 2:
        best = active[0]
        best_key = (best.fetch_time, best.order)
        second_key = None
        for lane in active[1:]:
            key = (lane.fetch_time, lane.order)
            if key < best_key:
                second_key = best_key
                best_key = key
                best = lane
            elif second_key is None or key < second_key:
                second_key = key
        best.run_until(second_key[0], second_key[1])
        grants += 1
        if best.done:
            active.remove(best)
    if len(active) == 2:
        # Two-lane fast path: no key tuples, no scans — the other lane is
        # the limit.  Lanes run ahead through private work and yield before
        # shared-state instructions, so a switch costs one pass here.
        a, b = active
        if a.order > b.order:   # pragma: no cover - callers pass rank order
            a, b = b, a
        while True:
            grants += 1
            ta = a.fetch_time
            tb = b.fetch_time
            if ta <= tb:        # ties go to the lower order (a)
                a.run_until(tb, b.order)
                if a.done:
                    active = [b]
                    break
            else:
                b.run_until(ta, a.order)
                if b.done:
                    active = [a]
                    break
    if active:
        active[0].run_until(_INFINITY, active[0].order)
        grants += 1
    obs.incr("lanes.grants", grants)


def run_programs(programs: Sequence[Program], memories: Sequence,
                 config: CoreConfig, recorders: Optional[Sequence] = None,
                 max_instructions: int = 50_000_000) -> List[SimulationResult]:
    """Run one program per core to completion and return the per-core
    results.  Core ``i`` runs against ``memories[i]``, whose main memory
    receives its program's initial data (one untimed block write per
    array); ``recorders[i]`` optionally captures its stream."""
    for program, memory in zip(programs, memories):
        if not program.is_laid_out:
            program.assign_addresses()
        write_block = memory.hierarchy.memory.write_block
        for decl in program.arrays.values():
            if decl.data is not None:
                write_block(decl.base, map(float, decl.data))
    recorders = recorders or [None] * len(programs)
    lanes = [ExecutionLane(program, memory, config, order=core_id,
                           recorder=recorder,
                           max_instructions=max_instructions)
             for core_id, (program, memory, recorder)
             in enumerate(zip(programs, memories, recorders))]
    run_resumable_lanes(lanes)
    return [lane_result(lane.finish(), memory.stats_summary())
            for lane, memory in zip(lanes, memories)]


def aggregate_results(per_core: Sequence[SimulationResult],
                      memory_stats: dict,
                      topology=None) -> SimulationResult:
    """Whole-machine result of a multicore run.

    ``cycles`` is the global execution time (the slowest core's commit
    clock); counters are summed; ``phase_cycles`` sums per-core core-time
    (so a phase's total can exceed the wall-clock cycles, like CPU-seconds).
    ``memory_stats`` is the multicore system's aggregate summary (shared
    memory/bus counted once).  Per-core details ride in
    ``core_stats["per_core"]``; with a
    :class:`~repro.mem.uncore.ClusterTopology` each entry also names the
    core's cluster (every engine passes the system's topology, so the
    detail shape stays identical across execution and all replay engines).
    """
    cycles = max(r.cycles for r in per_core)
    instructions = sum(r.instructions for r in per_core)
    phases: Dict[str, float] = {}
    for r in per_core:
        for name, value in r.phase_cycles.items():
            phases[name] = phases.get(name, 0.0) + value
    fu_counts: Dict[str, int] = {}
    for r in per_core:
        for name, value in r.core_stats.get("fu_op_counts", {}).items():
            fu_counts[name] = fu_counts.get(name, 0) + value
    return SimulationResult(
        cycles=cycles,
        instructions=instructions,
        phase_cycles=phases,
        mispredictions=sum(r.mispredictions for r in per_core),
        branch_predictions=sum(r.branch_predictions for r in per_core),
        memory_stats=memory_stats,
        core_stats={
            "ipc": instructions / cycles if cycles > 0 else 0.0,
            "fu_op_counts": fu_counts,
            "fu_contended_cycles": sum(
                r.core_stats.get("fu_contended_cycles", 0.0) for r in per_core),
            "rob_dispatch_stalls": sum(
                r.core_stats.get("rob_dispatch_stalls", 0.0) for r in per_core),
            "lsq_occupancy_stalls": sum(
                r.core_stats.get("lsq_occupancy_stalls", 0.0) for r in per_core),
            "lsq_collapsed_stores": sum(
                r.core_stats.get("lsq_collapsed_stores", 0) for r in per_core),
            "per_core": [
                {"cycles": r.cycles, "instructions": r.instructions,
                 "ipc": r.ipc, "mispredictions": r.mispredictions,
                 "phase_cycles": dict(r.phase_cycles),
                 **({"cluster": topology.cluster_of(i)}
                    if topology is not None else {})}
                for i, r in enumerate(per_core)
            ],
        },
    )
