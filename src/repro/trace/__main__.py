"""Command line for the trace subsystem: ``python -m repro.trace``.

Subcommands::

    capture   record the dynamic stream of one (workload, mode, scale) cell
    replay    re-time a captured stream under machine-config overrides
    ls        list the traces held in the store
    prune     sweep stale/tmp files and evict LRU entries over the caps

Examples::

    python -m repro.trace capture --workload CG --mode hybrid --scale small
    python -m repro.trace replay --workload CG --mode hybrid --scale small \\
        --set memory.l2_size=131072 --set core.issue_width=2
    python -m repro.trace ls
    python -m repro.trace prune --max-bytes 268435456 --max-age-days 30
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from typing import Optional, Sequence

from repro import obs
from repro.harness.config import PTLSIM_CONFIG, parse_overrides
from repro.trace import (
    ReplayValidityError,
    TraceError,
    TraceKey,
    TraceStore,
    artifacts,
    capture_workload,
    ensure_trace,
    execute_key,
    replay_trace,
)


def _add_cell_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="CG", help="NAS kernel name")
    parser.add_argument("--mode", default="hybrid",
                        help="system mode (hybrid/hybrid-oracle/hybrid-naive/cache)")
    parser.add_argument("--scale", default="small", help="tiny/small/medium")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="machine-config override (dotted paths allowed)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache root holding the trace store "
                             "(default $REPRO_CACHE_DIR or .repro-cache)")


def _summary(label: str, result) -> str:
    return (f"{label:<10s} cycles={result.cycles:>12.0f} "
            f"instr={result.instructions:>9d} ipc={result.sim.ipc:>5.2f} "
            f"energy={result.total_energy:>12.0f} nJ")


def _cmd_capture(args) -> int:
    machine = PTLSIM_CONFIG.with_overrides(parse_overrides(args.overrides))
    store = TraceStore(args.cache_dir)
    key = TraceKey.create(args.workload, args.mode, args.scale, kind="kernel",
                          lm_size=machine.lm_size,
                          directory_entries=machine.directory_entries,
                          num_cores=machine.num_cores)
    if not args.force:
        existing = store.get(key)
        if existing is not None:
            print(f"trace {key.label} already captured "
                  f"({existing.instructions} instructions, "
                  f"hash {existing.content_hash}); use --force to re-capture")
            return 0
    start = time.perf_counter()
    result, trace = capture_workload(args.workload, args.mode, args.scale,
                                     machine=machine)
    wall = time.perf_counter() - start
    path = store.put(trace)
    print(_summary("capture", result))
    if hasattr(trace, "cores"):   # multicore container: one stream per core
        streams = ", ".join(f"core{i}={t.instructions}"
                            for i, t in enumerate(trace.cores))
        print(f"trace      {key.label}: {trace.instructions} instructions "
              f"({streams})")
    else:
        print(f"trace      {key.label}: {trace.instructions} instructions, "
              f"{trace.branch_count} branches, {trace.mem_count} memory ops, "
              f"{trace.dma_count} DMA commands")
    if path is not None:
        print(f"artifact   {path} ({path.stat().st_size} bytes, "
              f"hash {trace.content_hash}, captured in {wall:.2f}s)")
    else:
        print(f"artifact   NOT persisted (disk error; see trace-store "
              f"stats), hash {trace.content_hash}, captured in {wall:.2f}s")
    store.persist_stats()
    return 0


def _same_run(a, b) -> bool:
    """Whether two runs agree on the whole simulated result — cycles,
    instructions, phase breakdown, branch counts, memory and core
    statistics (per core included) — and on every energy component."""
    return a.sim == b.sim and a.energy.as_dict() == b.energy.as_dict()


def _cmd_replay(args) -> int:
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
    timeline = None
    if args.timeline_path:
        from repro.obs.timeline import TimelineRecorder
        timeline = TimelineRecorder(bucket_cycles=args.timeline_bucket)
    start = time.perf_counter()
    with obs.recording() as rec:
        result = replay_trace(trace, machine, timeline=timeline)
    wall = time.perf_counter() - start
    # A replay that could not run the vector engine ran execution-driven.
    engine = ("execution fallback" if rec.counters.get("degraded.vector")
              else "vector replay")
    print(_summary("replay", result))
    if overrides:
        print(f"overrides  {', '.join(f'{k}={v}' for k, v in sorted(overrides.items()))}")
    print(f"replayed   {trace.instructions} instructions in {wall:.2f}s "
          f"({engine})")
    store.persist_stats()
    if timeline is not None:
        count = timeline.write(args.timeline_path)
        print(f"timeline   {count} event(s) written to {args.timeline_path}")
    if args.verify:
        start = time.perf_counter()
        # No recorder: the baseline should not pay trace-capture overhead.
        executed, _ = execute_key(key, machine)
        exec_wall = time.perf_counter() - start
        print(_summary("execute", executed))
        identical = _same_run(executed, result)
        print(f"verify     execution-driven run took {exec_wall:.2f}s "
              f"({exec_wall / wall:.1f}x replay)")
        print(f"verify     {engine} vs execution: "
              f"{'cycle- and energy-identical' if identical else 'MISMATCH'}")
        if not identical:
            return 1
    return 0


def _cmd_ls(args) -> int:
    store = TraceStore(args.cache_dir)
    rows = list(store.entries())
    if not rows:
        print(f"no traces under {store.root}")
        return 0
    print(f"{'Workload':<10s} {'Mode':<14s} {'Scale':<7s} {'Cores':>5s} "
          f"{'LM':>7s} {'Dir':>4s} {'Instr':>10s} {'Branches':>9s} "
          f"{'MemOps':>9s} {'Bytes':>10s}  {'Hash':<16s}")
    print("-" * 110)
    for path, trace in rows:
        k = trace.key
        # Hash the stored bytes directly: Trace.content_hash would pay a
        # full re-encode per row just to print 16 characters.
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        multicore = hasattr(trace, "cores")
        branches = ("-" if multicore
                    else str(trace.branch_count))
        mem_ops = ("-" if multicore else str(trace.mem_count))
        print(f"{k.workload:<10s} {k.mode:<14s} {k.scale:<7s} "
              f"{k.num_cores:>5d} {k.lm_size // 1024:>6d}K "
              f"{k.directory_entries:>4d} {trace.instructions:>10d} "
              f"{branches:>9s} {mem_ops:>9s} {path.stat().st_size:>10d}  "
              f"{digest:<16s}")
    stats = store.disk_stats()
    print(f"\n{stats['entries']} trace(s), {stats['bytes']} bytes under "
          f"{store.root} ({stats['stale_schema']} stale-schema, "
          f"{stats['tmp_files']} leaked tmp); "
          f"{stats['artifact_entries']} derived artifact(s), "
          f"{stats['artifact_bytes']} bytes")
    return 0


def _cmd_prune(args) -> int:
    store = TraceStore(args.cache_dir)
    max_bytes = args.max_bytes if args.max_bytes >= 0 else None
    max_age = args.max_age_days if args.max_age_days >= 0 else None
    counts = store.prune(max_bytes=max_bytes, max_age_days=max_age)
    print(f"trace store at {store.root}: removed {counts['stale_schema']} "
          f"stale-schema, {counts['tmp_files']} tmp, {counts['evicted']} "
          f"LRU-evicted, {counts['artifacts']} derived artifact(s) "
          f"({counts['freed_bytes']} bytes freed); "
          f"{counts['kept']} trace(s), {counts['kept_bytes']} bytes kept")
    store.persist_stats()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Capture, replay and inspect dynamic-stream traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_capture = sub.add_parser("capture", help="record one cell's trace")
    _add_cell_args(p_capture)
    p_capture.add_argument("--force", action="store_true",
                           help="re-capture even if the trace exists")
    p_capture.set_defaults(func=_cmd_capture)

    p_replay = sub.add_parser("replay", help="re-time a captured trace")
    _add_cell_args(p_replay)
    p_replay.add_argument("--verify", action="store_true",
                          help="also run execution-driven and check identity")
    p_replay.add_argument("--timeline", dest="timeline_path", default=None,
                          metavar="OUT.json",
                          help="write a simulated-time timeline of the replay "
                               "(Chrome trace-event JSON: per-core lane "
                               "run/stall spans, bus occupancy — one lane "
                               "per cluster bus on clustered machines — "
                               "and DMA bursts; open in Perfetto or "
                               "chrome://tracing)")
    p_replay.add_argument("--timeline-bucket", type=int, default=256,
                          metavar="CYCLES",
                          help="bucket size (simulated cycles) of the bus "
                               "occupancy/queue-delay counter lanes "
                               "(default 256)")
    p_replay.set_defaults(func=_cmd_replay)

    p_ls = sub.add_parser("ls", help="list stored traces")
    p_ls.add_argument("--cache-dir", default=None,
                      help="cache root (default $REPRO_CACHE_DIR or .repro-cache)")
    p_ls.set_defaults(func=_cmd_ls)

    p_prune = sub.add_parser(
        "prune", help="sweep stale/tmp files and evict LRU entries")
    p_prune.add_argument("--cache-dir", default=None,
                         help="cache root (default $REPRO_CACHE_DIR or "
                              ".repro-cache)")
    p_prune.add_argument("--max-bytes", type=int, default=-1,
                         help="evict least-recently-used traces until the "
                              "store fits this many bytes")
    p_prune.add_argument("--max-age-days", type=float, default=-1,
                         help="evict traces not accessed within this many days")
    p_prune.set_defaults(func=_cmd_prune)

    args = parser.parse_args(argv)
    try:
        # Derived artifacts must follow the same --cache-dir pin as the
        # trace store every subcommand constructs from it.
        with artifacts.scoped(cache_root=getattr(args, "cache_dir", None)):
            return args.func(args)
    except (TraceError, ReplayValidityError, KeyError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)
