#!/usr/bin/env python
"""Benchmark the trace replay subsystem against execution-driven simulation.

Measures, for every NAS workload on the hybrid machine:

* a 6-point machine-config ablation sweep run execution-driven (each point
  builds, compiles and simulates the workload from scratch);
* the same sweep run through trace replay (the dynamic stream is captured
  once, then re-timed under each machine config);
* cycle/energy identity of replay at the capture config for all NAS
  workloads x {hybrid, cache}, replaying each trace after a round-trip
  through its encoded bytes (the acceptance gate).

Writes the numbers to ``BENCH_trace.json`` at the repository root.  With
``--vector-speedup`` just the vector-vs-fused multicore replay sweep is
measured and *merged* into the existing report (the timing sweeps are
expensive), exiting nonzero unless the vectorized engine is
result-identical and >= 3x faster.
With ``--pass-speedup`` the same 6-point sweep is run cold (empty artifact
store, in-memory memos dropped before every point) and then warm (every
derivation pass served from the on-disk artifact cache), exiting nonzero
unless the warm sweep is result-identical, >= 2x faster, and actually hit
the disk tier (``*.disk.hit`` counters).

Every run also validates the merged report: a ``vector_speedup`` section
without its ``phase_profile`` (a report recorded before the observability
layer) fails the guard, so a stale BENCH_trace.json cannot ride through CI.

Run:  PYTHONPATH=src python benchmarks/bench_trace_replay.py [--scale small]
      PYTHONPATH=src python benchmarks/bench_trace_replay.py \
          --scale medium --vector-speedup
      PYTHONPATH=src python benchmarks/bench_trace_replay.py \
          --scale medium --pass-speedup
"""

import argparse
import platform
import tempfile
import time
from pathlib import Path

from _bench_util import (
    default_report_path,
    guard_exit,
    load_report,
    profile_engines,
    write_report,
)
from repro.harness.config import PTLSIM_CONFIG
from repro.harness.experiments import MACHINE_ABLATION_POINTS
from repro.harness.runner import run_workload
from repro.trace import Trace, capture_workload, replay_trace
from repro.workloads import BENCHMARK_ORDER

#: The 6-point ablation: timing-only machine parameters (cache geometry,
#: latencies, core width/ROB, prefetching) — exactly the kind of sweep the
#: paper's sensitivity analysis re-runs the same dynamic stream under.
ABLATION_POINTS = [dict(overrides) for _, overrides in MACHINE_ABLATION_POINTS]


def measure_vector_speedup(scale: str, report: dict, cores: int = 2,
                           workload: str = "CG") -> bool:
    """Fill ``report["vector_speedup"]`` for ``scale``; returns the gate.

    Times the 2-core 6-point machine-ablation replay sweep twice over one
    captured multicore trace — once with the fused engine, once with the
    vectorized epoch-batched engine — and checks per-point result identity
    (cycles, energy breakdown, phase cycles, memory stats).  The gate is
    identity at every point AND vector >= 3x faster than fused.
    """
    from repro.trace import artifacts

    machine = PTLSIM_CONFIG.with_overrides({"num_cores": cores})
    _, trace = capture_workload(workload, "hybrid", scale, machine=machine)
    machines = [machine.with_overrides(point) for point in ABLATION_POINTS]

    # The sweeps run with the artifact disk tier off: this benchmark
    # measures the *engine*.  A warm default store (e.g. from an earlier
    # bench run) would let the vector sweep skip its derivation passes
    # entirely, and a cold one would charge the vector sweep the artifact
    # encode/write cost — both effects are measure_pass_speedup's to
    # report, not this gate's.
    with artifacts.scoped(disabled=True):
        # Warm both engines once: the first replay pays the per-trace decode
        # and (for vector) the one-time C-kernel compile, not a sweep cost.
        replay_trace(trace, machines[0], engine="fused")
        replay_trace(trace, machines[0], engine="vector")

        start = time.perf_counter()
        fused_results = [replay_trace(trace, m, engine="fused")
                         for m in machines]
        fused_wall = time.perf_counter() - start
        start = time.perf_counter()
        vector_results = [replay_trace(trace, m, engine="vector")
                          for m in machines]
        vector_wall = time.perf_counter() - start
        # One extra recorded replay per engine (outside the timed sweeps):
        # where the wall-clock goes, per phase, and the engine's counters.
        phase_profile = profile_engines(trace, machines[0])

    identical = all(
        v.cycles == f.cycles and
        v.energy.as_dict() == f.energy.as_dict() and
        v.sim.phase_cycles == f.sim.phase_cycles and
        v.sim.memory_stats == f.sim.memory_stats
        for v, f in zip(vector_results, fused_results))
    speedup = fused_wall / vector_wall
    section = report.setdefault("vector_speedup", {})
    section[scale] = {
        "workload": workload,
        "cores": cores,
        "points": len(machines),
        "instructions": trace.instructions,
        "fused_sweep_seconds": round(fused_wall, 3),
        "vector_sweep_seconds": round(vector_wall, 3),
        "speedup": round(speedup, 2),
        "identical": identical,
        "phase_profile": phase_profile,
    }
    print(f"vector  {workload} {scale} {cores}-core: fused {fused_wall:.2f}s, "
          f"vector {vector_wall:.2f}s ({speedup:.1f}x, identical={identical})")
    return identical and speedup >= 3.0


def _forget_pass_memos():
    """Drop every in-memory pass memo so the next replay behaves like a
    fresh process: decode/oracle/flags/prelower go to disk or recompute."""
    import repro.trace.replay as replay_mod
    import repro.trace.vector as vector_mod
    vector_mod._ORACLE_CACHE.clear()
    vector_mod._FLAGS_CACHE.clear()
    vector_mod._VTAB_CACHE.clear()
    vector_mod._PRELOWER_CACHE.clear()
    replay_mod._DECODE_CACHE.clear()


def measure_pass_speedup(scale: str, report: dict, cores: int = 2,
                         workload: str = "CG") -> bool:
    """Fill ``report["pass_speedup"]`` for ``scale``; returns the gate.

    Runs the 6-point machine-ablation vector replay sweep twice over one
    captured multicore trace, simulating a fresh process at every point
    (in-memory memos dropped): once **cold** against an empty artifact
    store (every pass computed, artifacts written) and once **warm**
    (every pass served from disk).  The gate is per-point result identity,
    warm >= 2x faster than cold, and recorded ``*.disk.hit`` counters
    proving the warm sweep actually read the disk tier.
    """
    from repro import obs
    from repro.trace import artifacts

    machine = PTLSIM_CONFIG.with_overrides({"num_cores": cores})
    _, trace = capture_workload(workload, "hybrid", scale, machine=machine)
    machines = [machine.with_overrides(point) for point in ABLATION_POINTS]
    # One-time C-kernel compile: not a per-process pass cost.
    replay_trace(trace, machines[0], engine="vector")

    with tempfile.TemporaryDirectory(prefix="repro-pass-bench-") as tmp:
        with artifacts.scoped(cache_root=tmp):
            start = time.perf_counter()
            cold_results = []
            for m in machines:
                _forget_pass_memos()
                cold_results.append(replay_trace(trace, m, engine="vector"))
            cold_wall = time.perf_counter() - start

            start = time.perf_counter()
            warm_results = []
            for m in machines:
                _forget_pass_memos()
                warm_results.append(replay_trace(trace, m, engine="vector"))
            warm_wall = time.perf_counter() - start

            # One extra recorded warm replay (outside the timed sweeps):
            # the counters prove the passes were served from disk.
            _forget_pass_memos()
            with obs.recording() as rec:
                replay_trace(trace, machines[0], engine="vector")
            counters = {k: v for k, v in sorted(rec.counters.items())
                        if ".disk." in k or k.endswith(".miss")}
        _forget_pass_memos()    # drop memos pinned to the temp store

    identical = all(
        w.cycles == c.cycles and
        w.energy.as_dict() == c.energy.as_dict() and
        w.sim.memory_stats == c.sim.memory_stats
        for w, c in zip(warm_results, cold_results))
    disk_hits = (counters.get("vector.oracle.disk.hit", 0) > 0 and
                 counters.get("vector.prelower.disk.hit", 0) > 0)
    speedup = cold_wall / warm_wall
    section = report.setdefault("pass_speedup", {})
    section[scale] = {
        "workload": workload,
        "cores": cores,
        "points": len(machines),
        "instructions": trace.instructions,
        "cold_sweep_seconds": round(cold_wall, 3),
        "warm_sweep_seconds": round(warm_wall, 3),
        "speedup": round(speedup, 2),
        "identical": identical,
        "warm_counters": counters,
    }
    print(f"passes  {workload} {scale} {cores}-core: cold {cold_wall:.2f}s, "
          f"warm {warm_wall:.2f}s ({speedup:.1f}x, identical={identical}, "
          f"disk_hits={disk_hits})")
    return identical and disk_hits and speedup >= 2.0


def vector_sections_complete(report: dict) -> bool:
    """Every recorded ``vector_speedup`` scale carries its phase profile.

    Reports recorded before the observability layer lack the key; the
    downstream tooling (and the CI artifact diff) assumes it, so a stale
    report is a guard failure, not a silent carry-over.
    """
    missing = [s for s, d in report.get("vector_speedup", {}).items()
               if "phase_profile" not in d]
    if missing:
        print("BENCH_trace.json vector_speedup section(s) missing "
              f"phase_profile: {', '.join(missing)} — re-record with "
              "--vector-speedup")
    return not missing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small")
    parser.add_argument("--vector-speedup", action="store_true",
                        help="measure only the vector-vs-fused multicore "
                             "replay sweep and merge it into the existing "
                             "report (exit 1 unless identical and >= 3x)")
    parser.add_argument("--pass-speedup", action="store_true",
                        help="measure only the cold-vs-warm artifact-cache "
                             "replay sweep and merge it into the existing "
                             "report (exit 1 unless identical, >= 2x, and "
                             "the warm passes hit the disk tier)")
    parser.add_argument("--output", default=None,
                        help="output JSON path (default: BENCH_trace.json "
                             "next to the repo root)")
    args = parser.parse_args()
    scale = args.scale
    out = Path(args.output) if args.output else \
        default_report_path("BENCH_trace.json")

    if args.vector_speedup or args.pass_speedup:
        report = load_report(out)
        ok = True
        if args.vector_speedup:
            ok = measure_vector_speedup(scale, report) and ok
        if args.pass_speedup:
            ok = measure_pass_speedup(scale, report) and ok
        ok = vector_sections_complete(report) and ok
        write_report(out, report)
        return guard_exit(ok)

    machines = [PTLSIM_CONFIG.with_overrides(point)
                for point in ABLATION_POINTS]
    previous_vector = load_report(out).get("vector_speedup", {})
    report = {
        "description": "6-point machine-config ablation sweep: "
                       "execution-driven vs trace replay",
        "scale": scale,
        "mode": "hybrid",
        "ablation_points": ABLATION_POINTS,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": {},
        "identity": {},
        # Vector-speedup sections from other scales are carried over, so a
        # full run at one scale never drops per-scale history.
        "vector_speedup": previous_vector,
    }

    # -- capture (once per workload; also the identity baseline) ---------------
    traces = {}
    for workload in BENCHMARK_ORDER:
        for mode in ("hybrid", "cache"):
            start = time.perf_counter()
            executed, trace = capture_workload(workload, mode, scale)
            capture_wall = time.perf_counter() - start
            data = trace.to_bytes()
            replayed = replay_trace(Trace.from_bytes(data))
            identical = (
                replayed.cycles == executed.cycles and
                replayed.energy.as_dict() == executed.energy.as_dict() and
                replayed.sim.memory_stats == executed.sim.memory_stats and
                replayed.sim.core_stats == executed.sim.core_stats and
                replayed.sim.phase_cycles == executed.sim.phase_cycles)
            report["identity"][f"{workload}:{mode}"] = {
                "cycle_and_energy_identical": identical,
                "instructions": trace.instructions,
                "capture_seconds": round(capture_wall, 3),
                "trace_bytes": len(data),
            }
            print(f"capture {workload:3s} {mode:6s}: "
                  f"{trace.instructions:>8d} instr, {capture_wall:5.2f}s, "
                  f"identical={identical}")
            if mode == "hybrid":
                traces[workload] = trace
    if not all(v["cycle_and_energy_identical"]
               for v in report["identity"].values()):
        print("IDENTITY FAILURE — aborting benchmark")
        return 1

    # -- execution-driven ablation sweep ---------------------------------------
    total_exec = 0.0
    exec_seconds = {}
    for workload in BENCHMARK_ORDER:
        start = time.perf_counter()
        for machine in machines:
            run_workload(workload, mode="hybrid", scale=scale,
                         machine=machine)
        wall = time.perf_counter() - start
        exec_seconds[workload] = wall
        total_exec += wall
        print(f"execute {workload:3s}: 6-point sweep in {wall:6.2f}s")

    # -- replay ablation sweep (fresh per-point, shared decoded trace) ----------
    total_replay = 0.0
    for workload in BENCHMARK_ORDER:
        trace = traces[workload]
        start = time.perf_counter()
        for machine in machines:
            replay_trace(trace, machine)
        wall = time.perf_counter() - start
        total_replay += wall
        speedup = exec_seconds[workload] / wall
        report["workloads"][workload] = {
            "instructions": trace.instructions,
            "exec_sweep_seconds": round(exec_seconds[workload], 3),
            "replay_sweep_seconds": round(wall, 3),
            "speedup": round(speedup, 2),
        }
        print(f"replay  {workload:3s}: 6-point sweep in {wall:6.2f}s "
              f"({speedup:4.1f}x)")

    report["total"] = {
        "exec_sweep_seconds": round(total_exec, 3),
        "replay_sweep_seconds": round(total_replay, 3),
        "speedup": round(total_exec / total_replay, 2),
    }
    print(f"\nTOTAL: execution {total_exec:.2f}s, replay {total_replay:.2f}s "
          f"-> {total_exec / total_replay:.1f}x")

    ok = vector_sections_complete(report)
    write_report(out, report)
    return guard_exit(ok)


if __name__ == "__main__":
    raise SystemExit(main())
