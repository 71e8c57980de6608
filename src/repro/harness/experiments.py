"""Experiment drivers: one function per table/figure of the evaluation.

Every driver returns plain data structures (dataclasses / dicts) so that the
benchmark harness, the tests and the reporting module can all consume them.
The ``PAPER_*`` constants record the values reported in the paper, used by
``EXPERIMENTS.md`` and by the shape-checking tests (we do not expect to match
absolute numbers — the substrate is a different simulator — but the shape:
who wins, by roughly what factor, and where the overheads appear).

The drivers read their cells through the ``ctx`` argument, a
:class:`~repro.harness.sweep.SweepContext` (``run(workload, mode)`` and
``run_micro(...)``, memoised, disk-cached with a store and parallel with
workers).  It is required: the drivers of one report share one context,
so a cell two drivers read runs once.  The cells are plain
:class:`~repro.harness.sweep.RunRecord` data, whose accessor surface
the live :class:`~repro.harness.runner.RunResult` shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.harness.config import PTLSIM_CONFIG, table1_rows
from repro.harness.metrics import (
    Table3Row,
    energy_overhead,
    energy_reduction,
    overhead,
    speedup,
    table3_row,
)
from repro.harness.sweep import RunSpec, SweepContext, run_sweep
from repro.workloads import BENCHMARK_ORDER
from repro.workloads.microbenchmark import MICRO_MODES, build_microbenchmark

# ----------------------------------------------------------------------- paper values
#: Figure 8: execution-time overhead of the coherence protocol (fractions).
PAPER_FIG8_TIME_OVERHEAD = {
    "CG": 0.0, "EP": 0.0, "FT": 0.0103, "IS": 0.0044, "MG": 0.0, "SP": 0.0,
    "AVG": 0.0026,
}
#: Figure 8: energy overhead of the coherence protocol (fractions).
PAPER_FIG8_ENERGY_OVERHEAD = {
    "CG": 0.02, "EP": 0.02, "FT": 0.02, "IS": 0.05, "MG": 0.02, "SP": 0.01,
    "AVG": 0.0203,
}
#: Figure 9: reduction in execution time of the hybrid system vs. cache-based.
PAPER_FIG9_TIME_REDUCTION = {
    "CG": 0.26, "EP": 0.0, "FT": 0.24, "IS": 0.36, "MG": 0.39, "SP": 0.40,
    "AVG": 0.28,
}
#: Figure 10: reduction in energy consumption vs. cache-based.
PAPER_FIG10_ENERGY_REDUCTION = {
    "CG": 0.41, "EP": 0.12, "FT": 0.35, "IS": 0.30, "MG": 0.25, "SP": 0.25,
    "AVG": 0.27,
}
#: Table 3: guarded-reference ratios reported per benchmark.
PAPER_TABLE3_GUARDED = {
    "CG": "1/7 (14%)", "EP": "1/20 (5%)", "FT": "4/34 (11%)",
    "IS": "2/5 (25%)", "MG": "1/60 (1.66%)", "SP": "0/497 (0%)",
}
#: Figure 7: maximum overhead of the WR/RD-WR modes at 100% guarded stores.
PAPER_FIG7_MAX_WR_OVERHEAD = 0.28


# ---------------------------------------------------------------------------- Table 1
def table1() -> List[tuple]:
    """Table 1: the simulated machine configuration."""
    return table1_rows(PTLSIM_CONFIG)


# ---------------------------------------------------------------------------- Table 2
@dataclass
class Table2Entry:
    """One microbenchmark mode: its static code properties."""

    mode: str
    static_instructions: int
    guarded_loads: int
    guarded_stores: int
    double_stores: int
    listing: List[str] = field(default_factory=list)


def table2(iterations: int = 200, unroll: int = 1) -> List[Table2Entry]:
    """Table 2: the four microbenchmark modes and their generated code.

    With ``unroll=1`` and 100% guarding the loop body matches the scheme of
    Table 2 (one load, one add, one store, plus the guarded forms per mode).
    """
    entries = []
    for mode in MICRO_MODES:
        program = build_microbenchmark(mode, guarded_fraction=1.0,
                                       iterations=iterations, unroll=unroll)
        guarded_loads = sum(1 for i in program.instructions
                            if i.opcode.value == "gld")
        guarded_stores = sum(1 for i in program.instructions
                             if i.opcode.value == "gst")
        double_stores = sum(1 for i in program.instructions if i.collapse_with_prev)
        body = [repr(i) for i in program.instructions
                if i.phase == "work"][: 8]
        entries.append(Table2Entry(
            mode=mode, static_instructions=len(program.instructions),
            guarded_loads=guarded_loads, guarded_stores=guarded_stores,
            double_stores=double_stores, listing=body))
    return entries


# --------------------------------------------------------------------------- Figure 7
@dataclass
class Figure7Point:
    mode: str
    guarded_pct: int
    cycles: float
    overhead: float   # ratio vs. the baseline mode (1.0 = no overhead)


def figure7(ctx: SweepContext,
            percentages: Sequence[int] = (0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
            iterations: int = 4000,
            unroll: int = 20) -> Dict[str, List[Figure7Point]]:
    """Figure 7: microbenchmark overhead vs. the fraction of guarded accesses.

    Returns, per non-baseline mode, the overhead (cycles relative to the
    baseline mode) at each guarded percentage.  The points go through the
    sweep engine via ``ctx`` (memoised, and disk-cached/parallel when the
    :class:`~repro.harness.sweep.SweepContext` has a store/workers).
    """
    baseline = ctx.run_micro("baseline", 0.0, iterations, unroll)
    results: Dict[str, List[Figure7Point]] = {}
    for mode in ("RD", "WR", "RD/WR"):
        points = []
        for pct in percentages:
            run = ctx.run_micro(mode, pct / 100.0, iterations, unroll)
            points.append(Figure7Point(
                mode=mode, guarded_pct=pct, cycles=run.cycles,
                overhead=run.cycles / baseline.cycles))
        results[mode] = points
    return results


# --------------------------------------------------------------------------- Figure 8
@dataclass
class Figure8Row:
    benchmark: str
    time_overhead: float
    energy_overhead: float
    paper_time_overhead: float
    paper_energy_overhead: float


def figure8(ctx: SweepContext,
            benchmarks: Optional[Sequence[str]] = None) -> List[Figure8Row]:
    """Figure 8: overhead of the coherence protocol vs. the oracle baseline."""
    benchmarks = list(benchmarks or BENCHMARK_ORDER)
    rows = []
    for name in benchmarks:
        coherent = ctx.run(name, "hybrid")
        oracle = ctx.run(name, "hybrid-oracle")
        rows.append(Figure8Row(
            benchmark=name,
            time_overhead=overhead(oracle, coherent),
            energy_overhead=energy_overhead(oracle, coherent),
            paper_time_overhead=PAPER_FIG8_TIME_OVERHEAD.get(name, 0.0),
            paper_energy_overhead=PAPER_FIG8_ENERGY_OVERHEAD.get(name, 0.0)))
    avg_time = sum(r.time_overhead for r in rows) / len(rows)
    avg_energy = sum(r.energy_overhead for r in rows) / len(rows)
    rows.append(Figure8Row(
        benchmark="AVG", time_overhead=avg_time, energy_overhead=avg_energy,
        paper_time_overhead=PAPER_FIG8_TIME_OVERHEAD["AVG"],
        paper_energy_overhead=PAPER_FIG8_ENERGY_OVERHEAD["AVG"]))
    return rows


# ---------------------------------------------------------------------------- Table 3
def table3(ctx: SweepContext,
           benchmarks: Optional[Sequence[str]] = None) -> List[Table3Row]:
    """Table 3: memory-subsystem activity, hybrid coherent vs. cache-based."""
    benchmarks = list(benchmarks or BENCHMARK_ORDER)
    rows = []
    for name in benchmarks:
        rows.append(table3_row(ctx.run(name, "hybrid")))
        rows.append(table3_row(ctx.run(name, "cache")))
    return rows


# --------------------------------------------------------------------------- Figure 9
@dataclass
class Figure9Row:
    benchmark: str
    cache_cycles: float
    hybrid_cycles: float
    work_fraction: float      # of the cache-based execution time
    sync_fraction: float
    control_fraction: float
    time_reduction: float     # 1 - hybrid/cache
    speedup: float
    paper_time_reduction: float


def figure9(ctx: SweepContext,
            benchmarks: Optional[Sequence[str]] = None) -> List[Figure9Row]:
    """Figure 9: execution-time reduction and its phase breakdown."""
    benchmarks = list(benchmarks or BENCHMARK_ORDER)
    rows = []
    for name in benchmarks:
        hybrid = ctx.run(name, "hybrid")
        cache = ctx.run(name, "cache")
        phases = hybrid.phase_cycles
        total_hybrid = max(hybrid.cycles, 1e-9)
        norm = cache.cycles if cache.cycles > 0 else 1.0
        work = phases.get("work", 0.0) + phases.get("other", 0.0)
        rows.append(Figure9Row(
            benchmark=name,
            cache_cycles=cache.cycles,
            hybrid_cycles=hybrid.cycles,
            work_fraction=work / norm,
            sync_fraction=phases.get("sync", 0.0) / norm,
            control_fraction=phases.get("control", 0.0) / norm,
            time_reduction=1.0 - hybrid.cycles / norm,
            speedup=speedup(cache, hybrid),
            paper_time_reduction=PAPER_FIG9_TIME_REDUCTION.get(name, 0.0)))
    avg_reduction = sum(r.time_reduction for r in rows) / len(rows)
    avg_speedup = sum(r.speedup for r in rows) / len(rows)
    rows.append(Figure9Row(
        benchmark="AVG", cache_cycles=0.0, hybrid_cycles=0.0,
        work_fraction=0.0, sync_fraction=0.0, control_fraction=0.0,
        time_reduction=avg_reduction, speedup=avg_speedup,
        paper_time_reduction=PAPER_FIG9_TIME_REDUCTION["AVG"]))
    return rows


# -------------------------------------------------------------------------- Figure 10
@dataclass
class Figure10Row:
    benchmark: str
    cache_energy: float
    hybrid_energy: float
    cache_groups: Dict[str, float]
    hybrid_groups: Dict[str, float]    # normalised to the cache-based total
    energy_reduction: float
    paper_energy_reduction: float


def figure10(ctx: SweepContext,
             benchmarks: Optional[Sequence[str]] = None) -> List[Figure10Row]:
    """Figure 10: energy reduction and its component breakdown."""
    benchmarks = list(benchmarks or BENCHMARK_ORDER)
    rows = []
    for name in benchmarks:
        hybrid = ctx.run(name, "hybrid")
        cache = ctx.run(name, "cache")
        cache_total = max(cache.total_energy, 1e-9)
        rows.append(Figure10Row(
            benchmark=name,
            cache_energy=cache.total_energy,
            hybrid_energy=hybrid.total_energy,
            cache_groups={k: v / cache_total for k, v in cache.energy_groups.items()},
            hybrid_groups={k: v / cache_total for k, v in hybrid.energy_groups.items()},
            energy_reduction=energy_reduction(cache, hybrid),
            paper_energy_reduction=PAPER_FIG10_ENERGY_REDUCTION.get(name, 0.0)))
    avg = sum(r.energy_reduction for r in rows) / len(rows)
    rows.append(Figure10Row(
        benchmark="AVG", cache_energy=0.0, hybrid_energy=0.0,
        cache_groups={}, hybrid_groups={}, energy_reduction=avg,
        paper_energy_reduction=PAPER_FIG10_ENERGY_REDUCTION["AVG"]))
    return rows


# ------------------------------------------------------------------------- ablations
@dataclass
class AblationPoint:
    label: str
    cycles: float
    energy: float


#: The 6-point timing-parameter sensitivity sweep shared by the example,
#: benchmark and CI drivers: cache geometry, latencies, core width/ROB and
#: prefetching — exactly the machine axes the paper re-runs the same dynamic
#: stream under.
MACHINE_ABLATION_POINTS = [
    ("half L2", {"memory.l2_size": 128 * 1024}),
    ("slow L1", {"memory.l1_latency": 4}),
    ("slow DRAM", {"memory.memory_latency": 300}),
    ("2-wide issue", {"core.issue_width": 2}),
    ("small ROB", {"core.rob_size": 64}),
    ("no prefetch", {"memory.prefetch_enabled": False}),
]


def ablation_machine_sweep(workload: str = "CG", mode: str = "hybrid",
                           scale: str = "medium",
                           points: Optional[Sequence[tuple]] = None,
                           replay: bool = True,
                           store=None, workers: int = 1) -> List[AblationPoint]:
    """Machine-config sensitivity sweep, replay-backed by default.

    With ``replay=True`` the cells resolve through the trace subsystem: the
    workload's dynamic stream is captured once and re-timed per machine
    config, which is what makes ``scale="medium"`` sweeps practical — the
    v2 columnar trace encoding keeps even medium-scale streams a few hundred
    kilobytes on disk, and replay skips the execution frontend entirely.
    """
    points = list(points or MACHINE_ABLATION_POINTS)
    kind = "replay" if replay else "kernel"
    specs = [RunSpec.create(workload, mode, scale, machine=overrides, kind=kind)
             for _, overrides in points]
    records = run_sweep(specs, workers=workers, store=store)
    return [AblationPoint(label=label, cycles=record.cycles,
                          energy=record.total_energy)
            for (label, _), record in zip(points, records)]


def ablation_directory_size(workload: str = "CG", scale: str = "small",
                            sizes: Sequence[int] = (4, 8, 16, 32, 64),
                            store=None, workers: int = 1) -> List[AblationPoint]:
    """Sweep the number of directory entries (the paper fixes 32).

    Expressed as a machine-axis sweep: one cell per directory size, sharing
    the engine's result store when one is passed in.
    """
    specs = [RunSpec.create(workload, "hybrid", scale,
                            machine={"directory_entries": entries})
             for entries in sizes]
    records = run_sweep(specs, workers=workers, store=store)
    return [AblationPoint(label=f"{entries} entries", cycles=record.cycles,
                          energy=record.total_energy)
            for entries, record in zip(sizes, records)]


def ablation_prefetcher(workload: str = "MG", scale: str = "small",
                        store=None, workers: int = 1) -> List[AblationPoint]:
    """Cache-based baseline with and without the stream prefetcher."""
    specs = [RunSpec.create(workload, "cache", scale,
                            machine={"memory.prefetch_enabled": enabled})
             for enabled in (True, False)]
    records = run_sweep(specs, workers=workers, store=store)
    return [AblationPoint(
        label="prefetcher on" if enabled else "prefetcher off",
        cycles=record.cycles, energy=record.total_energy)
        for enabled, record in zip((True, False), records)]


# ------------------------------------------------------------------- scalability
@dataclass
class ScalabilityPoint:
    """One cell of the multicore scalability sweep."""

    workload: str
    mode: str
    num_cores: int
    cycles: float
    energy: float
    speedup: float              # single-core cycles / this cell's cycles
    efficiency: float           # speedup / num_cores
    #: Shared-uncore arbitration counters of the cell (None for 1-core
    #: cells, which run the plain single-core machine with no uncore).
    uncore: Optional[Dict[str, float]] = None


#: Core counts of the default scalability sweep (1 -> 2 -> 4).
SCALABILITY_CORE_COUNTS = (1, 2, 4)


def scalability_sweep(workloads: Sequence[str] = ("CG", "SP"),
                      modes: Sequence[str] = ("hybrid", "cache"),
                      core_counts: Sequence[int] = SCALABILITY_CORE_COUNTS,
                      scale: str = "small",
                      replay: bool = False,
                      machine: Optional[Mapping[str, Any]] = None,
                      store=None, workers: int = 1) -> List[ScalabilityPoint]:
    """Speedup and energy vs. core count, hybrid vs. cache-based.

    Each (workload, mode, N>1) cell runs the domain-decomposed parallel
    kernel on the N-core shared-uncore machine; ``num_cores`` rides the
    machine axis, so the cells share the sweep engine's result store like
    any other machine sweep.  With ``replay=True`` the cells resolve
    through the trace subsystem: each core-count's multicore stream is
    captured once and re-timed (cycle- and energy-identical at the capture
    config).  Speedup is measured against the same workload's single-core
    cell.

    ``machine`` carries extra machine overrides applied to every *multicore*
    cell (the 1-core speedup baseline stays the plain machine, which has no
    uncore) — the knob that turns this into the clustered-topology curve:
    ``machine={"num_clusters": 4}`` sweeps the same core counts on the
    two-level hierarchical uncore.  ``num_clusters`` must divide each
    multicore cell's core count.
    """
    kind = "replay" if replay else "kernel"
    extra = dict(machine) if machine else {}
    core_counts = sorted(set(core_counts) | {1})   # speedup baseline

    def _cell_machine(n: int) -> Optional[Dict[str, Any]]:
        return dict(extra, num_cores=n) if n != 1 else None

    specs = [RunSpec.create(w, mode, scale, machine=_cell_machine(n),
                            kind=kind)
             for w in workloads for mode in modes for n in core_counts]
    records = run_sweep(specs, workers=workers, store=store)
    by_spec = dict(zip(specs, records))
    points = []
    for w in workloads:
        for mode in modes:
            base = by_spec[RunSpec.create(w, mode, scale, kind=kind)]
            for n in core_counts:
                record = by_spec[RunSpec.create(
                    w, mode, scale, machine=_cell_machine(n), kind=kind)]
                speed = base.cycles / record.cycles if record.cycles else 0.0
                points.append(ScalabilityPoint(
                    workload=w.strip().upper(), mode=mode.strip().lower(),
                    num_cores=n, cycles=record.cycles,
                    energy=record.total_energy, speedup=speed,
                    efficiency=speed / n,
                    uncore=record.memory_stats.get("uncore")))
    return points


def ablation_double_store(iterations: int = 4000) -> Dict[str, float]:
    """Double store vs. the naive alternative of always writing buffers back.

    The paper's Section 3.1 discusses disabling the read-only-buffer
    optimisation as the naive alternative to the double store; here we
    compare the WR-mode microbenchmark (double store) against the RD mode
    (single guarded access, the cost if the write-back could be proven).
    """
    from repro.harness.runner import run_program
    results = {}
    for mode in ("baseline", "RD", "WR"):
        program = build_microbenchmark(mode, 1.0, iterations)
        results[mode] = run_program(program, mode="hybrid").cycles
    return results
