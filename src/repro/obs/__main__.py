"""Observability command line: ``python -m repro.obs``.

Subcommands::

    report     replay one captured cell under a recording MetricsRecorder
               and print the per-phase wall-clock breakdown (decode,
               pre-lower, oracle/flags passes, timing) plus the counters
               (cache hits/misses, C-kernel epochs, bounce reasons)
    overhead   perf guard: time a small replay ablation sweep with the
               default null recorder vs a recording one, in alternating
               pairs; exit non-zero when the median per-pair cost of
               enabling recording exceeds the threshold

Examples::

    python -m repro.obs report --workload CG --scale medium
    python -m repro.obs report --workload CG --bench-json BENCH_trace.json
    python -m repro.obs overhead --scale small --threshold 2.0
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Optional, Sequence

from repro import obs
from repro.harness.config import PTLSIM_CONFIG, add_cell_args, parse_overrides


def _cmd_report(args) -> int:
    from repro.trace import TraceKey, TraceStore, ensure_trace, replay_trace

    overrides = parse_overrides(args.overrides)
    machine = PTLSIM_CONFIG.with_overrides(overrides)
    store = TraceStore(args.cache_dir)
    key = TraceKey.create(args.workload, args.mode, args.scale, kind="kernel",
                          lm_size=machine.lm_size,
                          directory_entries=machine.directory_entries,
                          num_cores=machine.num_cores)
    trace, captured = ensure_trace(key, store=store)
    if captured is not None:
        print(f"captured {key.label} first (no stored trace)")
    if args.warm:
        # Pay the per-trace costs (decode, pre-lower, oracle/flags passes,
        # C-kernel compile) outside the recorded run, so the report shows
        # the steady-state cost of re-replaying at this exact config.  The
        # default cold run records those passes too — they are what a
        # sweep pays at every new machine point.
        replay_trace(trace, machine)
    with obs.recording() as rec:
        start = time.perf_counter()
        result = replay_trace(trace, machine)
        wall = time.perf_counter() - start
    # A replay that could not run the vector engine ran execution-driven.
    engine = "execution" if rec.counters.get("degraded.vector") else "vector"
    print(f"replay {key.label} engine={engine}: "
          f"cycles={result.cycles:.0f} instr={result.instructions} "
          f"energy={result.total_energy:.0f} nJ in {wall:.2f}s"
          f"{' (warm)' if args.warm else ''}")
    print()
    print(rec.phase_report())
    if rec.counters:
        print()
        width = max(len(name) for name in rec.counters)
        for name in sorted(rec.counters):
            print(f"{name:<{width}s} {rec.counters[name]:>12d}")
    snapshot = rec.snapshot()
    snapshot["cell"] = {"workload": key.workload, "mode": key.mode,
                        "scale": key.scale, "engine": engine,
                        "wall_seconds": round(wall, 3), "warm": args.warm}
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2)
        print(f"\nsnapshot written to {args.json_path}")
    if args.bench_json:
        # Merge into the bench report (same protocol as the partial bench
        # modes: read-modify-write, other sections untouched).
        try:
            report = json.loads(open(args.bench_json, encoding="utf-8").read())
        except (OSError, ValueError):
            report = {}
        if not isinstance(report, dict):
            report = {}
        section = report.setdefault("obs_report", {})
        section[f"{key.workload}:{key.mode}:{key.scale}:{engine}"] = snapshot
        with open(args.bench_json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"merged into {args.bench_json}")
    return 0


#: Fewest timing pairs the overhead verdict accepts.
MIN_PAIRS = 7


def overhead_verdict(base_times, instrumented_times, threshold_pct: float,
                     grace_seconds: float):
    """Verdict of the recording-overhead guard from paired sweep timings.

    ``base_times[k]`` and ``instrumented_times[k]`` ran back to back (pair
    ``k``).  The overhead is the median over pairs of the ratio
    instrumented/base, minus one: host load that slows a few sweeps moves
    single pairs, not the median.  It passes when the overhead, in seconds
    of the median base time, is within ``threshold_pct`` percent of that
    time plus ``grace_seconds``.  Returns ``(ok, overhead_fraction,
    median_base_seconds)``.
    """
    if len(base_times) != len(instrumented_times):
        raise ValueError("overhead timings must come in pairs")
    if len(base_times) < MIN_PAIRS:
        raise ValueError(f"the overhead verdict needs at least {MIN_PAIRS} "
                         f"timing pairs, got {len(base_times)}")
    frac = statistics.median(
        i / b for b, i in zip(base_times, instrumented_times)) - 1.0
    base = statistics.median(base_times)
    ok = frac * base <= base * threshold_pct / 100.0 + grace_seconds
    return ok, frac, base


def _cmd_overhead(args) -> int:
    if args.repeats < MIN_PAIRS:
        print(f"error: --repeats must be at least {MIN_PAIRS}",
              file=sys.stderr)
        return 2
    from repro.harness.sweep import RunSpec, run_sweep
    from repro.trace.store import EphemeralTraceStore

    modes = [m.strip().lower() for m in args.modes.split(",")]
    # Timing-only parameter points: re-time one captured stream per mode
    # under each — the shape of a real sensitivity sweep.
    machine_points = [{}, {"memory.l2_size": 131072}, {"core.issue_width": 2}]
    specs = [RunSpec.create(args.workload, mode, args.scale,
                            machine=point, kind="replay")
             for point in machine_points for mode in modes]
    trace_store = EphemeralTraceStore()

    def sweep() -> None:
        run_sweep(specs, store=None, trace_store=trace_store)

    sweep()     # warm: capture the families, fill decode/program caches
    base_times, instrumented_times = [], []
    for pair in range(args.repeats):
        # Alternate which variant runs first, so drift and warm-up within a
        # pair hit both variants equally often.
        for recording in ((False, True) if pair % 2 == 0 else (True, False)):
            if recording:
                with obs.recording():
                    t0 = time.perf_counter()
                    sweep()
                    instrumented_times.append(time.perf_counter() - t0)
            else:
                t0 = time.perf_counter()
                sweep()
                base_times.append(time.perf_counter() - t0)
    ok, frac, base = overhead_verdict(base_times, instrumented_times,
                                      args.threshold, args.grace_seconds)
    print(f"overhead guard: {len(specs)} replay cell(s) "
          f"({args.workload} {args.scale}, modes {','.join(modes)}), "
          f"median of {args.repeats} alternating pairs")
    print(f"  null recorder      {base:8.3f}s (median)")
    print(f"  overhead           {frac * base:+8.3f}s ({100.0 * frac:+.2f}%, "
          f"median per-pair ratio) — threshold {args.threshold:.1f}% "
          f"(+{args.grace_seconds:.2f}s grace): {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect and guard the instrumentation layer.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser(
        "report", help="phase/counter breakdown of one recorded replay")
    add_cell_args(p_report)
    p_report.add_argument("--warm", action="store_true",
                          help="run one unrecorded replay first, so the "
                               "report shows only the steady-state cost of "
                               "re-replaying this exact config; the default "
                               "cold run attributes the per-config passes "
                               "(decode, pre-lower, oracle/flags) too")
    p_report.add_argument("--json", dest="json_path", default=None,
                          help="also dump the recorder snapshot to this file")
    p_report.add_argument("--bench-json", default=None, metavar="BENCH.json",
                          help="merge the snapshot into this bench report "
                               "(e.g. BENCH_trace.json) under 'obs_report'")
    p_report.set_defaults(func=_cmd_report)

    p_over = sub.add_parser(
        "overhead", help="assert the recording overhead stays under a bound")
    p_over.add_argument("--workload", default="CG")
    p_over.add_argument("--modes", default="hybrid,cache")
    p_over.add_argument("--scale", default="small")
    p_over.add_argument("--repeats", type=int, default=MIN_PAIRS,
                        help="alternating timing pairs (at least "
                             f"{MIN_PAIRS}); the verdict is the median "
                             "per-pair ratio")
    p_over.add_argument("--threshold", type=float, default=2.0,
                        help="max recording overhead in percent (default 2)")
    p_over.add_argument("--grace-seconds", type=float, default=0.05,
                        help="absolute noise grace added to the budget")
    p_over.set_defaults(func=_cmd_overhead)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
