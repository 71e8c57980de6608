#!/usr/bin/env python
"""Machine-config ablation via trace replay (the record-once/re-time-often
workflow of `repro/trace`).

Captures one workload's dynamic stream during a single execution-driven run,
then re-times it under a sweep of machine configurations — cache sizes,
latencies, core width, prefetching — without ever re-running the execution
frontend.  For each point the replayed cycles are compared against a fresh
execution-driven simulation to show they are identical, along with the wall
time of both paths.  The v2 columnar trace encoding (per-PC delta streams,
varint/zig-zag, deflated sections) keeps even `medium`-scale streams small
enough to store, so the sweep is practical at every scale.

Run:  python examples/trace_replay_ablation.py [BENCHMARK] [SCALE]
      (default: CG tiny; try `CG medium` for the paper-scale sweep)
"""

import sys
import time

from repro.harness.config import PTLSIM_CONFIG
from repro.harness.experiments import MACHINE_ABLATION_POINTS
from repro.harness.runner import run_workload
from repro.trace import capture_workload, replay_trace


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "CG"
    scale = sys.argv[2] if len(sys.argv) > 2 else "tiny"

    print(f"Capturing {name} (hybrid, scale={scale}) once...")
    start = time.perf_counter()
    baseline, trace = capture_workload(name, "hybrid", scale)
    capture_wall = time.perf_counter() - start
    trace_bytes = len(trace.to_bytes())
    print(f"  {trace.instructions} instructions, {trace.branch_count} "
          f"branches, {trace.mem_count} memory ops recorded in "
          f"{capture_wall:.2f}s")
    print(f"  trace: {trace_bytes} bytes "
          f"({trace_bytes / trace.instructions:.3f} bytes/instruction)\n")

    print(f"{'point':<14s} {'cycles':>12s} {'vs base':>8s} "
          f"{'replay':>8s} {'execute':>8s}  identical")
    print(f"{'baseline':<14s} {baseline.cycles:>12.0f} {'1.00x':>8s}")
    exec_total = replay_total = 0.0
    for label, overrides in MACHINE_ABLATION_POINTS:
        machine = PTLSIM_CONFIG.with_overrides(overrides)
        start = time.perf_counter()
        replayed = replay_trace(trace, machine)
        replay_wall = time.perf_counter() - start
        start = time.perf_counter()
        executed = run_workload(name, mode="hybrid", scale=scale,
                                machine=machine)
        exec_wall = time.perf_counter() - start
        exec_total += exec_wall
        replay_total += replay_wall
        print(f"{label:<14s} {replayed.cycles:>12.0f} "
              f"{replayed.cycles / baseline.cycles:>7.2f}x "
              f"{replay_wall:>7.2f}s {exec_wall:>7.2f}s  "
              f"{replayed.cycles == executed.cycles}")
    print(f"\nablation sweep: execution-driven {exec_total:.2f}s, "
          f"trace replay {replay_total:.2f}s "
          f"({exec_total / max(replay_total, 1e-9):.1f}x)")


if __name__ == "__main__":
    main()
