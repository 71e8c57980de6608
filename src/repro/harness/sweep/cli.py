"""Command line of the sweep engine: ``python -m repro.harness.sweep``.

::

    python -m repro.harness.sweep --workloads CG,IS --modes hybrid,cache \
        --scales tiny --workers 2 --cache-dir .repro-cache
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, Optional, Sequence

from repro.diskstore import DEFAULT_CACHE_DIR
from repro.harness.config import parse_overrides
from repro.harness.sweep import SweepCellError, run_sweep_report
from repro.harness.sweep.spec import STORE_SCHEMA, RunSpec, SweepSpec
from repro.harness.sweep.store import ResultStore
from repro.harness.systems import SYSTEM_MODES


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.workloads import BENCHMARK_ORDER

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.sweep",
        description="Run a (workload x mode x scale x machine) simulation "
                    "sweep with the content-hashed result store.")
    parser.add_argument("--workloads", default=",".join(BENCHMARK_ORDER),
                        help="comma-separated NAS kernels (default: all six)")
    parser.add_argument("--modes", default="hybrid,cache",
                        help=f"comma-separated system modes from {SYSTEM_MODES}")
    parser.add_argument("--scales", default="small",
                        help="comma-separated scales (tiny/small/medium)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="machine-config override, dotted paths allowed "
                             "(e.g. --set directory_entries=16 "
                             "--set memory.prefetch_enabled=false)")
    parser.add_argument("--cores", default=None,
                        help="comma-separated core counts; each becomes a "
                             "machine-axis point (e.g. --cores 1,2,4 for a "
                             "scalability sweep over the parallel kernels)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for cache misses (default 1)")
    parser.add_argument("--max-retries", type=int, default=1,
                        help="retries per failing cell before it is "
                             "declared failed (default 1)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-cell wall-clock budget; an overrunning "
                             "cell's worker is killed and the cell retried "
                             "(pool mode only, i.e. --workers > 1)")
    going = parser.add_mutually_exclusive_group()
    going.add_argument("--keep-going", action="store_true",
                       help="on a cell failure, keep simulating the other "
                            "cells and report partial results (exit code 2)")
    going.add_argument("--fail-fast", action="store_true",
                       help="abort on the first cell whose retries are "
                            "exhausted (the default)")
    parser.add_argument("--replay", action="store_true",
                        help="resolve kernel cells through the trace "
                             "subsystem: capture each (workload, mode, "
                             "scale) stream once, re-time it per machine "
                             "config (cycle-identical, several times faster)")
    parser.add_argument("--cache-dir", default=None,
                        help=f"result-store directory (default "
                             f"$REPRO_CACHE_DIR or {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the result store")
    parser.add_argument("--clear-cache", action="store_true",
                        help="empty the result store before running")
    parser.add_argument("--prune", action="store_true",
                        help="delete stale-schema entries and leaked tmp "
                             "files from the result AND trace stores before "
                             "running")
    parser.add_argument("--trace-max-bytes", type=int, default=None,
                        help="with --prune: LRU-evict traces until the trace "
                             "store fits this many bytes")
    parser.add_argument("--trace-max-age-days", type=float, default=None,
                        help="with --prune: evict traces not accessed within "
                             "this many days")
    parser.add_argument("--stats", action="store_true",
                        help="print result- and trace-store statistics and exit")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="also dump the records to this JSON file")
    parser.add_argument("--timeline", dest="timeline_path", default=None,
                        metavar="OUT.json",
                        help="write a wall-clock pipeline timeline of the "
                             "sweep (Chrome trace-event JSON; open in "
                             "Perfetto or chrome://tracing)")
    args = parser.parse_args(argv)

    overrides = parse_overrides(args.overrides)
    if args.cores:
        if "num_cores" in overrides:
            raise SystemExit("--cores and --set num_cores are mutually "
                             "exclusive (--cores is the num_cores axis)")
        try:
            core_counts = [int(c) for c in args.cores.split(",")]
        except ValueError:
            raise SystemExit(f"--cores expects integers, got {args.cores!r}")
        # num_cores=1 is safe to spell explicitly: _freeze_machine drops it,
        # so the 1-core cell hashes identically to a plain single-core spec.
        machines = [dict(overrides, num_cores=n) for n in core_counts]
    else:
        machines = [overrides]
    sweep = SweepSpec.create(
        workloads=args.workloads.split(","), modes=args.modes.split(","),
        scales=args.scales.split(","), machines=machines)
    store = None if args.no_cache else ResultStore(args.cache_dir)
    if args.stats:
        if store is None:
            raise SystemExit("--stats is meaningless with --no-cache")

        def _lifetime_line(lifetime: Dict[str, int]) -> str:
            return (f"  lifetime: {lifetime.get('hits', 0)} hit(s), "
                    f"{lifetime.get('misses', 0)} miss(es), "
                    f"{lifetime.get('writes', 0)} write(s), "
                    f"{lifetime.get('evictions', 0)} eviction(s), "
                    f"{lifetime.get('corrupted', 0)} corrupted")

        disk = store.disk_stats()
        print(f"result store at {store.root}: {disk['entries']} entr"
              f"{'y' if disk['entries'] == 1 else 'ies'}, {disk['bytes']} "
              f"bytes, {disk['stale_schema']} stale-schema file(s), "
              f"{disk['tmp_files']} leaked tmp file(s) "
              f"(schema {STORE_SCHEMA})")
        print(_lifetime_line(disk["lifetime"]))
        life = disk["lifetime"]
        print(f"  failures: {life.get('cell_retries', 0)} cell retr"
              f"{'y' if life.get('cell_retries', 0) == 1 else 'ies'}, "
              f"{life.get('cell_failures', 0)} failed, "
              f"{life.get('cell_quarantined', 0)} quarantined, "
              f"{life.get('put_errors', 0)} store write error(s)")
        from repro.trace import TRACE_SCHEMA, TraceStore
        traces = TraceStore(store.root)
        tdisk = traces.disk_stats()
        print(f"trace store at {traces.root}: {tdisk['entries']} trace(s), "
              f"{tdisk['bytes']} bytes, {tdisk['stale_schema']} stale-schema "
              f"file(s), {tdisk['tmp_files']} leaked tmp file(s) "
              f"(schema {TRACE_SCHEMA})")
        tlife = tdisk["lifetime"]
        print(_lifetime_line(tlife)
              + f", {tlife.get('put_errors', 0)} write error(s)")
        return 0
    if store is not None and args.clear_cache:
        print(f"cleared {store.clear()} store entries under {store.root}")
    if store is not None and args.prune:
        print(f"pruned {store.prune()} stale/tmp store files under {store.root}")
        from repro.trace import TraceStore
        traces = TraceStore(store.root)
        tcounts = traces.prune(max_bytes=args.trace_max_bytes,
                               max_age_days=args.trace_max_age_days)
        print(f"pruned traces under {traces.root}: "
              f"{tcounts['stale_schema']} stale-schema, "
              f"{tcounts['tmp_files']} tmp, {tcounts['evicted']} LRU-evicted "
              f"({tcounts['freed_bytes']} bytes freed, {tcounts['kept']} kept)")

    cells = sweep.cells()
    if args.replay:
        cells = [RunSpec.create(c.workload, c.mode, c.scale,
                                machine=dict(c.machine), kind="replay")
                 for c in cells]
    timeline = None
    if args.timeline_path:
        from repro.obs.timeline import TimelineRecorder
        timeline = TimelineRecorder()
    start = time.perf_counter()
    try:
        report = run_sweep_report(
            cells, workers=args.workers, store=store, echo=print,
            timeline=timeline, max_retries=args.max_retries,
            cell_timeout=args.cell_timeout, keep_going=args.keep_going)
    except (KeyError, ValueError) as exc:
        # Unknown workload / mode / config field: show the message, not a
        # worker-process traceback.
        raise SystemExit(f"error: {exc}")
    except SweepCellError as exc:
        # Fail-fast: one cell exhausted its retries.  Already-finished
        # cells are in the store; rerunning picks up where this left off.
        raise SystemExit(f"error: {exc} (use --keep-going for partial "
                         f"results; finished cells are already cached)")
    records = report.records
    wall = time.perf_counter() - start
    if timeline is not None:
        count = timeline.write(args.timeline_path)
        print(f"pipeline timeline ({count} event(s)) written to "
              f"{args.timeline_path}")

    failed_by_spec = {f.spec: f for f in report.failures}
    print(f"\n{'Workload':<10s} {'Mode':<14s} {'Scale':<7s} {'Cycles':>14s} "
          f"{'Instr':>10s} {'IPC':>6s} {'Energy (nJ)':>14s}  {'Hash':<16s}")
    print("-" * 98)
    for cell, record in zip(cells, records):
        if record is None:
            failure = failed_by_spec.get(cell)
            detail = (f"FAILED [{failure.kind}"
                      + ("; quarantined" if failure.quarantined else "")
                      + f" after {failure.attempts} attempt(s)]"
                      if failure is not None else "FAILED")
            print(f"{cell.workload:<10s} {cell.mode:<14s} {cell.scale:<7s} "
                  f"{detail:>55s}  {cell.spec_hash:<16s}")
            continue
        print(f"{record.workload:<10s} {record.mode:<14s} {record.scale:<7s} "
              f"{record.cycles:>14.0f} {record.instructions:>10d} "
              f"{record.ipc:>6.2f} {record.total_energy:>14.0f}  "
              f"{record.spec_hash:<16s}")
    summary = f"\n{len(cells)} cell(s) in {wall:.2f}s"
    if report.retries or report.failures or report.pool_rebuilds:
        summary += (f" — {report.retries} retr"
                    f"{'y' if report.retries == 1 else 'ies'}, "
                    f"{len(report.failures)} failed, "
                    f"{report.pool_rebuilds} pool rebuild(s)")
    if store is not None:
        s = store.stats()
        summary += (f" — store: {s['hits']} hit(s), {s['writes']} new, "
                    f"{s['corrupted']} corrupted, root={store.root}")
        if store.degraded:
            summary += " [store DEGRADED: memory-only]"
    print(summary)
    for failure in report.failures:
        print(f"  FAILED {failure.spec.label}: {failure.error} "
              f"[{failure.kind}, {failure.attempts} attempt(s)"
              + (", quarantined" if failure.quarantined else "") + "]")

    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump([r.as_dict() for r in records if r is not None],
                      fh, indent=2)
        print(f"records written to {args.json_path}")
    return 2 if report.failures else 0
