"""Parallel experiment-sweep engine with a content-hashed on-disk result store.

The paper's evaluation is a matrix of (workload x mode x scale x machine
config) simulations.  The package turns that matrix into first-class
objects, in four modules:

* :mod:`~repro.harness.sweep.spec` — spec identity: :class:`RunSpec`, one
  frozen cell of the matrix, content-hashed (SHA-256 over the canonical
  JSON of the spec, so identical specs always hash identically however they
  were built); :class:`SweepSpec`, a declarative cartesian product of
  workloads, modes, scales and machine-config overrides; and
  :class:`RunRecord`, the JSON-serialisable result of one cell (cycles,
  instructions, phase breakdown, memory-system activity, energy);
* :mod:`~repro.harness.sweep.store` — :class:`ResultStore`, the
  content-addressed disk cache: ``<root>/<hash[:2]>/<hash>.json``, one file
  per cell, written atomically; corrupted or schema-incompatible entries
  are misses;
* this module — the engine: :func:`execute_spec` simulates one cell,
  :func:`run_sweep_report` / :func:`run_sweep` serve store hits, fan misses
  out over a process pool (``workers > 1``) or run them inline, retry or
  quarantine failing cells and fill the store, and :class:`SweepContext`
  is the experiment context the figure/table drivers of
  :mod:`repro.harness.experiments` read cells through;
* :mod:`~repro.harness.sweep.cli` — the command line::

    python -m repro.harness.sweep --workloads CG,IS --modes hybrid,cache \
        --scales tiny --workers 2 --cache-dir .repro-cache

The store assumes the simulator is deterministic: a record is valid for as
long as the simulator code that produced it.  Bump :data:`STORE_SCHEMA`
when a simulator change invalidates old results, or key any cross-run cache
(e.g. the CI cache) on a hash of ``src/``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import faults, obs
from repro.harness.config import MachineConfig
from repro.harness.systems import check_micro_mode
# Spec identity and the store are re-exported: the package is their public
# home (``from repro.harness.sweep import RunSpec, ResultStore``).
from repro.harness.sweep.spec import (  # noqa: F401
    STORE_SCHEMA,
    RunRecord,
    RunSpec,
    SweepSpec,
)
from repro.harness.sweep.store import ResultStore

# ----------------------------------------------------------------------- execution
def execute_spec(spec: RunSpec,
                 base_machine: Optional[MachineConfig] = None,
                 trace_root: Optional[str] = None,
                 trace_store=None, attempt: int = 0) -> RunRecord:
    """Simulate one cell in-process and return its plain-data record.

    Replay cells resolve their trace through ``trace_store`` when one is
    passed (the sweep engine shares a single store — on-disk or in-memory —
    across the whole sweep, so each (workload, mode, scale) family is
    captured at most once).  Without one, ``trace_root`` points at the trace
    store living under a specific cache root; with both unset (e.g. a
    stand-alone ``--no-cache`` cell) the captured trace lives and dies with
    this call and nothing touches the disk.

    ``attempt`` is the retry ordinal the sweep engine is executing (0 on
    the first try); it only feeds the deterministic fault layer, so an
    injected ``worker.exec`` fault can fail attempt 0 and spare attempt 1.
    """
    faults.check("worker.exec", key=spec.spec_hash, attempt=attempt)
    # Imported here (not at module top) to keep worker-process start cheap
    # and to avoid an import cycle with repro.harness.runner.
    from repro.harness.runner import run_program, run_workload
    from repro.workloads.microbenchmark import build_microbenchmark

    machine = spec.resolve_machine(base_machine)
    start = time.perf_counter()
    if spec.kind == "micro":
        params = dict(spec.params)
        program = build_microbenchmark(
            mode=params.get("micro_mode", "baseline"),
            guarded_fraction=float(params.get("guarded_fraction", 0.0)),
            iterations=int(params.get("iterations", 200)),
            unroll=int(params.get("unroll", 1)))
        result = run_program(program, mode=spec.mode, machine=machine,
                             workload=spec.workload)
    elif spec.kind == "kernel":
        result = run_workload(spec.workload, mode=spec.mode, scale=spec.scale,
                              machine=machine)
    elif spec.kind == "replay":
        from repro.trace import artifacts, run_replay_spec
        from repro.trace.store import EphemeralTraceStore, TraceStore
        if trace_store is None:
            trace_store = (TraceStore(trace_root) if trace_root is not None
                           else EphemeralTraceStore())
        # Derived artifacts follow the trace store's lifecycle: pinned next
        # to an on-disk store (which may live under an explicit --cache-dir),
        # disabled outright for memory-only stores (nothing touches disk).
        on_disk = isinstance(trace_store, TraceStore)
        with artifacts.scoped(
                cache_root=trace_store.root.parent if on_disk else None,
                disabled=not on_disk):
            result = run_replay_spec(spec, base_machine=base_machine,
                                     store=trace_store)
    else:
        raise ValueError(f"unknown spec kind {spec.kind!r}")
    wall = time.perf_counter() - start
    return result.to_record(spec, sim_wall_seconds=wall)


def _execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool entry point: spec dict in, record dict out (picklable)."""
    try:
        spec = RunSpec.from_dict(payload["spec"])
        trace_store = None
        if payload.get("trace_blob") is not None:
            # A store-less (--no-cache) replay sweep ships the family's
            # captured trace to the worker instead of letting it re-capture
            # from scratch.
            from repro.trace.format import parse_trace_bytes
            from repro.trace.store import EphemeralTraceStore
            trace_store = EphemeralTraceStore()
            trace_store.put(parse_trace_bytes(payload["trace_blob"]))
        return execute_spec(spec, trace_root=payload.get("trace_root"),
                            trace_store=trace_store,
                            attempt=payload.get("attempt", 0)).as_dict()
    except faults.FaultCrash:
        # An injected "crash" means the worker process dies, not that it
        # raises: the parent must see a BrokenProcessPool, exactly as with
        # a real segfault or OOM kill.
        os._exit(13)


def _capture_payload(payload: Dict[str, Any]) -> None:
    """Process-pool entry point of the pre-capture pass: record one
    (workload, mode, scale, functional-config) family into the on-disk
    trace store (a no-op when another worker already finished it)."""
    try:
        from repro.trace import TraceKey, TraceStore, ensure_trace
        key = TraceKey.from_dict(payload["key"])
        faults.check("capture.exec", key=key.key_hash)
        ensure_trace(key, store=TraceStore(payload["trace_root"]))
    except faults.FaultCrash:
        os._exit(13)


def _replay_family_key(spec: RunSpec, base_machine: Optional[MachineConfig]):
    """The capture-trace key a replay cell resolves through (kernel or
    micro; multicore cells key on the resolved machine's ``num_cores``)."""
    from repro.trace import family_key_for
    return family_key_for(spec, spec.resolve_machine(base_machine))


def _prepare_replay_traces(misses: Sequence[RunSpec], trace_store,
                           base_machine: Optional[MachineConfig],
                           trace_root: Optional[str], workers: int,
                           use_pool: bool, say) -> Dict[RunSpec, str]:
    """Capture each replay family exactly once before the sweep fans out.

    Without this pass, concurrent cells of the same (workload, mode, scale)
    family would all miss the store and each pay a full execution-driven
    capture — making a parallel (or ``--no-cache``) replay sweep *slower*
    than execution.  Returns the family key hash per replay spec.
    """
    from repro.trace import ensure_trace

    families: Dict[str, Any] = {}
    spec_family: Dict[RunSpec, str] = {}
    for spec in misses:
        if spec.kind != "replay":
            continue
        key = _replay_family_key(spec, base_machine)
        families.setdefault(key.key_hash, key)
        spec_family[spec] = key.key_hash
    missing = [key for key in families.values()
               if trace_store.get(key) is None]
    if not missing:
        return spec_family
    obs.incr("sweep.capture_once", len(missing))
    say(f"sweep: capturing {len(missing)} trace "
        f"famil{'y' if len(missing) == 1 else 'ies'} before replay fan-out")
    if use_pool and workers > 1 and trace_root is not None and len(missing) > 1:
        import concurrent.futures as cf
        try:
            with cf.ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_capture_payload,
                                       {"key": key.as_dict(),
                                        "trace_root": trace_root})
                           for key in missing]
                for future in cf.as_completed(futures):
                    future.result()
            return spec_family
        except (OSError, cf.BrokenExecutor) as exc:
            # A dead capture worker (or a pool that cannot start) is
            # recoverable — the loop below captures whatever the pool did
            # not get to — but never silently: the sweep engine's whole
            # fan-out plan rests on this pass having run.
            remaining = [key.key_hash for key in missing
                         if trace_store.get(key) is None]
            obs.incr("sweep.capture_pool.failed")
            obs.get_logger().warning(
                "capture pool failed (%r); %d of %d famil%s left for inline "
                "capture: %s", exc, len(remaining), len(missing),
                "y" if len(missing) == 1 else "ies", ",".join(remaining))
            say(f"sweep: capture pool failed ({exc!r}); capturing "
                f"{len(remaining)} remaining famil"
                f"{'y' if len(remaining) == 1 else 'ies'} inline")
    for key in missing:
        if trace_store.get(key) is None:    # pool may have captured some
            ensure_trace(key, store=trace_store, capture_machine=base_machine)
    return spec_family


# ------------------------------------------------------------------ fault tolerance
def _terminate(pool) -> None:
    """Discard a process pool, terminating its workers first: a broken or
    hung pool cannot be shut down politely, as a clean shutdown() would join
    workers that never return."""
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except (OSError, AttributeError):
            pass
    pool.shutdown(wait=False, cancel_futures=True)


#: Exception types that mark a misconfigured cell (unknown workload, mode
#: or config field) rather than a failed execution: retrying cannot fix a
#: bad spec and ``keep_going`` must not hide one, so they always propagate.
_FATAL_ERRORS = (KeyError, ValueError, TypeError)


@dataclass
class CellFailure:
    """Terminal failure of one sweep cell, its retry budget exhausted.

    ``kind`` is ``"error"`` (the cell raised), ``"crash"`` (its worker
    process died), or ``"timeout"`` (it overran ``cell_timeout``);
    ``quarantined`` marks a cell that repeatedly killed its worker and was
    isolated so the rest of the sweep could keep its pool.
    """

    spec: RunSpec
    kind: str
    error: str
    attempts: int
    quarantined: bool = False


class SweepCellError(RuntimeError):
    """Raised in fail-fast mode when a cell exhausts its retries."""

    def __init__(self, failure: CellFailure):
        self.failure = failure
        super().__init__(
            f"sweep cell {failure.spec.label} failed after "
            f"{failure.attempts} attempt(s) [{failure.kind}]: "
            f"{failure.error}")


@dataclass
class SweepReport:
    """What a fault-tolerant sweep actually did.

    ``records`` is aligned with the input specs — ``None`` where that cell
    terminally failed (only possible in keep-going mode).
    """

    records: List[Optional[RunRecord]]
    failures: List[CellFailure] = field(default_factory=list)
    completed: int = 0
    cached: int = 0
    retries: int = 0
    pool_rebuilds: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def run_sweep_report(specs: Sequence[RunSpec], workers: int = 1,
                     store: Optional[ResultStore] = None,
                     base_machine: Optional[MachineConfig] = None,
                     echo=None, trace_store=None, timeline=None,
                     max_retries: int = 1,
                     cell_timeout: Optional[float] = None,
                     keep_going: bool = False,
                     retry_backoff: float = 0.05) -> SweepReport:
    """Execute ``specs`` with cell-level failure isolation.

    The engine of :func:`run_sweep`, returning a :class:`SweepReport`
    instead of bare records.  Store hits are served first; misses fan out
    over a process pool (``workers > 1``) or run inline.  One cell's
    failure is *its own*:

    * an exception in a cell is retried up to ``max_retries`` times with
      exponential backoff (``retry_backoff * 2**attempt`` seconds);
    * a worker death (``BrokenProcessPool`` — segfault, OOM kill, injected
      crash) poisons the whole pool with no attribution, so the pool is
      torn down and every in-flight suspect is *probed* in a fresh
      single-worker pool: innocents complete (or requeue on ordinary
      errors), and only the cell that again kills its private worker is
      charged — after ``max_retries`` such kills it is **quarantined**
      (``CellFailure.quarantined``) and the shared pool is rebuilt for the
      survivors;
    * a cell overrunning ``cell_timeout`` seconds wall-clock has its
      (hung) pool killed and rebuilt; the overrunning cell is charged a
      ``"timeout"`` attempt while co-resident victims are requeued free of
      charge.  Inline cells cannot be preempted, so the timeout only
      applies when a pool is in use;
    * ``KeyError`` / ``ValueError`` / ``TypeError`` mean the spec itself is
      bad; they propagate immediately, never retried, even under
      ``keep_going``.

    With ``keep_going=False`` the first terminal failure raises
    :class:`SweepCellError`; with ``keep_going=True`` the sweep completes
    every cell it can and reports the casualties in
    :attr:`SweepReport.failures`, leaving ``None`` in the corresponding
    :attr:`SweepReport.records` slots.

    Store and trace-store lifetime counters are persisted in a ``finally``
    block, so they survive a ``KeyboardInterrupt`` or fail-fast abort.
    """
    import concurrent.futures as cf

    say = echo or (lambda msg: None)
    log = obs.get_logger()
    rec = obs.get_recorder()
    sweep_start = time.perf_counter()
    report = SweepReport(records=[])
    records: Dict[RunSpec, RunRecord] = {}
    failures: Dict[RunSpec, CellFailure] = {}
    misses: List[RunSpec] = []
    for spec in specs:
        if spec in records or spec in misses:
            continue
        cached = store.get(spec) if store is not None else None
        if cached is not None:
            records[spec] = cached
            rec.incr("sweep.store.hit")
            report.cached += 1
        else:
            misses.append(spec)
            rec.incr("sweep.store.miss")

    finished = [0]      # completion rank -> timeline worker-slot track

    def finish(spec: RunSpec, record: RunRecord) -> None:
        # Persist each cell as soon as it completes, so an interrupted sweep
        # keeps the work already done.
        records[spec] = record
        report.completed += 1
        if store is not None:
            store.put(spec, record)
        rec.incr("sweep.cell.finished")
        log.info("cell done %s (%.2fs simulated wall)", spec.label,
                 record.sim_wall_seconds)
        if timeline is not None:
            # The cell's span ends when the engine collected it and reaches
            # back over its measured simulation wall-clock — an approximate
            # but faithful picture of pipeline occupancy per worker slot.
            t_end = time.perf_counter() - sweep_start
            t_start = t_end - record.sim_wall_seconds
            tid = finished[0] % max(1, workers)
            finished[0] += 1
            timeline.label(tid, f"worker slot {tid}")
            timeline.wall_span(spec.label,
                               t_start if t_start > 0.0 else 0.0, t_end,
                               tid=tid, args={"spec_hash": record.spec_hash})
        say(f"  done {spec.label}")

    def retry_or_fail(spec: RunSpec, attempt: int, exc: BaseException,
                      kind: str, isolated: bool = False) -> bool:
        """Charge ``spec`` its failed ``attempt``: requeue it after a backoff
        while its retry budget lasts, else record its terminal failure.

        An ``isolated`` cell (one re-run alone after killing or hanging a
        worker) retries in place at once, so it is not requeued, and on
        running out it is quarantined.  Returns whether a retry is due.
        """
        if attempt < max_retries:
            report.retries += 1
            rec.incr("sweep.cell.retry")
            if store is not None:
                store.cell_retries += 1
            log.warning("cell %s attempt %d failed [%s]: %r; retrying",
                        spec.label, attempt + 1, kind, exc)
            say(f"  retry {spec.label} [{kind}] "
                f"(attempt {attempt + 2}/{max_retries + 1})")
            if not isolated:
                pending.append([spec, attempt + 1, time.monotonic()
                                + retry_backoff * (2 ** attempt)])
            return True
        failure = CellFailure(spec=spec, kind=kind, error=repr(exc),
                              attempts=attempt + 1, quarantined=isolated)
        failures[spec] = failure
        report.failures.append(failure)
        rec.incr("sweep.cell.failed")
        if store is not None:
            store.cell_failures += 1
        if isolated:
            rec.incr("sweep.cell.quarantined")
            if store is not None:
                store.cell_quarantined += 1
        rec.event("sweep.cell.failed", spec=spec.label, kind=kind,
                  attempts=failure.attempts, quarantined=isolated)
        log.error("cell FAILED %s after %d attempt(s) [%s]: %s",
                  spec.label, failure.attempts, kind, failure.error)
        if timeline is not None:
            timeline.instant(f"FAILED {spec.label}",
                             (time.perf_counter() - sweep_start) * 1e6,
                             args={"kind": kind, "attempts": failure.attempts,
                                   "quarantined": isolated,
                                   "error": failure.error})
        say(f"  FAILED {spec.label} after {failure.attempts} attempt(s) "
            f"[{kind}]" + (" — quarantined" if isolated else ""))
        if not keep_going:
            raise SweepCellError(failure)
        return False

    # A live base_machine cannot cross the process boundary (workers rebuild
    # the machine from the spec's overrides), so it forces inline execution.
    use_pool = workers > 1 and base_machine is None
    if misses:
        say(f"sweep: {len(records)} cached, simulating {len(misses)} cell(s) "
            f"with {workers if use_pool else 1} worker(s)"
            + (" (inline: custom base machine)"
               if workers > 1 and not use_pool else ""))
    trace_root: Optional[str] = None    # cache root pool workers reopen
    try:
        spec_family: Dict[RunSpec, str] = {}
        if any(spec.kind == "replay" for spec in misses):
            from repro.trace.store import EphemeralTraceStore, TraceStore
            if trace_store is None:
                trace_store = (TraceStore(store.root) if store is not None
                               else EphemeralTraceStore())
            if isinstance(trace_store, TraceStore):
                trace_root = str(trace_store.root.parent)
            spec_family = _prepare_replay_traces(
                misses, trace_store, base_machine, trace_root, workers,
                use_pool, say)
        # A memory-only trace store cannot be reopened by pool workers, so
        # its captured traces ride along inside each replay payload instead.
        family_blobs: Dict[str, bytes] = {}
        if use_pool and trace_root is None and spec_family:
            for spec, key_hash in spec_family.items():
                if key_hash not in family_blobs:
                    trace = trace_store.get(
                        _replay_family_key(spec, base_machine))
                    family_blobs[key_hash] = trace.to_bytes()

        def payload_for(spec: RunSpec, attempt: int) -> Dict[str, Any]:
            return {"spec": spec.as_dict(), "trace_root": trace_root,
                    "trace_blob": family_blobs.get(spec_family.get(spec)),
                    "attempt": attempt}

        # The work queue: [spec, attempt, not_before] — not_before is the
        # monotonic instant before which a backed-off retry must not start.
        pending: List[List[Any]] = [[spec, 0, 0.0] for spec in misses]

        if pending and use_pool:
            pool: Optional[cf.ProcessPoolExecutor] = None
            in_flight: Dict[Any, Tuple[RunSpec, int, float]] = {}
            overrun = TimeoutError(
                f"cell exceeded cell_timeout={cell_timeout}s")

            def kill_pool() -> None:
                nonlocal pool
                if pool is not None:
                    _terminate(pool)
                    pool = None

            def probe(spec: RunSpec, attempt: int) -> None:
                # After a pool break nothing says *which* in-flight cell
                # killed it, and charging (or quarantining) an innocent cell
                # would violate the retry contract.  So each suspect re-runs
                # alone in a private single-worker pool: only the cell that
                # again kills (or hangs) its own worker is charged a "crash"
                # (or "timeout") attempt.
                while True:
                    probe_pool = cf.ProcessPoolExecutor(max_workers=1)
                    try:
                        rec.incr("sweep.pool.dispatched")
                        future = probe_pool.submit(_execute_payload,
                                                   payload_for(spec, attempt))
                        result = future.result(timeout=cell_timeout)
                    except (cf.BrokenExecutor, cf.TimeoutError) as exc:
                        kind = "crash"
                        if not isinstance(exc, cf.BrokenExecutor):
                            kind, exc = "timeout", overrun
                            rec.incr("sweep.cell.timeout")
                        if not retry_or_fail(spec, attempt, exc, kind,
                                             isolated=True):
                            return
                        attempt += 1
                    except _FATAL_ERRORS:
                        raise
                    except Exception as exc:
                        # An ordinary in-worker exception: this cell is not
                        # a pool-killer, so its retries go back to the
                        # shared pool's queue.
                        retry_or_fail(spec, attempt, exc, "error")
                        return
                    else:
                        finish(spec, RunRecord.from_dict(result))
                        return
                    finally:
                        _terminate(probe_pool)

            try:
                while pending or in_flight:
                    now = time.monotonic()
                    broken: Optional[BaseException] = None
                    suspects: List[Tuple[RunSpec, int]] = []
                    for entry in [e for e in pending if e[2] <= now]:
                        if len(in_flight) >= workers:
                            break
                        # Create (or re-create) the pool before dequeuing,
                        # so a pool that cannot start leaves the cell queued
                        # for the inline fallback.
                        if pool is None:
                            pool = cf.ProcessPoolExecutor(max_workers=workers)
                        spec, attempt, _ = entry
                        try:
                            future = pool.submit(_execute_payload,
                                                 payload_for(spec, attempt))
                        except cf.BrokenExecutor as exc:
                            # A worker died since the last wait: this cell
                            # stays queued, and the break is handled as if
                            # the wait below had seen it.
                            broken = exc
                            break
                        rec.incr("sweep.pool.dispatched")
                        log.info("cell start %s (attempt %d)", spec.label,
                                 attempt + 1)
                        pending.remove(entry)
                        # The in-flight cap equals the worker count, so a
                        # submitted cell starts (almost) immediately and its
                        # wall-clock deadline can anchor at submission.
                        in_flight[future] = (
                            spec, attempt,
                            now + cell_timeout if cell_timeout is not None
                            else float("inf"))
                    if broken is None and not in_flight:
                        # Everything is backing off; sleep to the earliest.
                        time.sleep(max(0.0, min(e[2] for e in pending)
                                       - time.monotonic()))
                        continue
                    done: set = set()
                    if broken is None:
                        done, _ = cf.wait(list(in_flight), timeout=0.05,
                                          return_when=cf.FIRST_COMPLETED)
                    for future in done:
                        spec, attempt, _ = in_flight.pop(future)
                        try:
                            finish(spec, RunRecord.from_dict(future.result()))
                        except cf.BrokenExecutor as exc:
                            # Keep draining `done` first: futures that
                            # completed before the break still hold their
                            # results and must not be re-executed.
                            broken = exc
                            suspects.append((spec, attempt))
                        except _FATAL_ERRORS:
                            raise
                        except Exception as exc:
                            retry_or_fail(spec, attempt, exc, "error")
                    if broken is not None:
                        suspects.extend((s, a)
                                        for s, a, _ in in_flight.values())
                        in_flight.clear()
                        kill_pool()
                        report.pool_rebuilds += 1
                        rec.incr("sweep.pool.rebuilt")
                        log.warning("worker pool broke (%r); probing %d "
                                    "in-flight cell(s) in isolation",
                                    broken, len(suspects))
                        say(f"sweep: worker pool broke ({broken!r}); "
                            f"probing {len(suspects)} in-flight cell(s) "
                            f"in isolation")
                        while suspects:
                            spec, attempt = suspects[0]
                            try:
                                probe(spec, attempt)
                            except OSError:
                                # Pool infrastructure gone mid-probe: give
                                # the un-probed suspects back to the queue
                                # for the inline fallback.
                                pending.extend([s, a, 0.0]
                                               for s, a in suspects)
                                raise
                            suspects.pop(0)
                        continue
                    now = time.monotonic()
                    expired = {f for f, (_, _, d) in in_flight.items()
                               if d <= now}
                    if expired:
                        overruns = [(s, a) for f, (s, a, _)
                                    in in_flight.items() if f in expired]
                        victims = [(s, a) for f, (s, a, _)
                                   in in_flight.items() if f not in expired]
                        in_flight.clear()
                        # The overrunning worker is hung inside user code —
                        # there is no way to cancel one worker, so the pool
                        # dies and its innocent co-residents requeue free.
                        kill_pool()
                        report.pool_rebuilds += 1
                        rec.incr("sweep.pool.rebuilt")
                        rec.incr("sweep.cell.timeout", len(overruns))
                        say(f"sweep: {len(overruns)} cell(s) exceeded "
                            f"cell_timeout={cell_timeout}s; pool rebuilt")
                        for spec, attempt in overruns:
                            retry_or_fail(spec, attempt, overrun, "timeout")
                        pending.extend([s, a, 0.0] for s, a in victims)
            except OSError as exc:
                # The pool *infrastructure* failed (cannot fork, pipe
                # trouble) — distinct from any one cell failing.  Requeue
                # whatever was in flight and fall through to inline.
                pending.extend([s, a, 0.0]
                               for s, a, _ in in_flight.values())
                in_flight.clear()
                rec.incr("sweep.pool.unavailable")
                log.warning("process pool unavailable (%r); finishing "
                            "%d cell(s) inline", exc, len(pending))
                say(f"sweep: process pool failed ({exc!r}); finishing inline")
            finally:
                kill_pool()

        # Serial path: workers==1, custom machine, or pool fallback.  No
        # preemption here, so cell_timeout does not apply.
        while pending:
            pending.sort(key=lambda e: e[2])
            spec, attempt, not_before = pending.pop(0)
            if spec in records or spec in failures:
                continue
            delay = not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            log.info("cell start %s (attempt %d)", spec.label, attempt + 1)
            try:
                finish(spec, execute_spec(spec, base_machine,
                                          trace_root=trace_root,
                                          trace_store=trace_store,
                                          attempt=attempt))
            except _FATAL_ERRORS:
                raise
            except Exception as exc:
                retry_or_fail(spec, attempt, exc,
                              "crash" if isinstance(exc, faults.FaultCrash)
                              else "error")
    finally:
        # Counters must survive interrupts (KeyboardInterrupt included) and
        # fail-fast aborts: both stores fold their session deltas into the
        # lifetime sidecar here.  (Pool workers' short-lived store instances
        # are not captured — the sidecar tracks the coordinating process.)
        if trace_store is not None and hasattr(trace_store, "persist_stats"):
            trace_store.persist_stats()
        if store is not None:
            store.persist_stats()
    report.records = [records.get(spec) for spec in specs]
    return report


def run_sweep(specs: Sequence[RunSpec], workers: int = 1,
              store: Optional[ResultStore] = None,
              base_machine: Optional[MachineConfig] = None,
              echo=None, trace_store=None, timeline=None,
              max_retries: int = 1,
              cell_timeout: Optional[float] = None) -> List[RunRecord]:
    """Execute ``specs``, serving store hits and fanning misses out.

    Returns one record per spec, in input order.  ``workers > 1`` runs the
    misses on a process pool (falling back to inline execution if the
    platform cannot spawn worker processes).  ``echo`` is an optional
    ``callable(str)`` for progress lines.

    Replay cells share a single trace store for the whole sweep —
    ``trace_store`` when given, else the on-disk store living alongside
    ``store``, else one in-memory store — and each (workload, mode, scale,
    functional-config) family is captured exactly once, before the fan-out,
    no matter how many machine configs replay it or how the sweep is cached.

    ``timeline`` (a :class:`repro.obs.timeline.TimelineRecorder`) records a
    wall-clock pipeline view: one span per simulated cell, sized by its
    ``sim_wall_seconds`` and ending when the engine collected it, laid out
    on one track per worker slot.

    This is the fail-fast wrapper over :func:`run_sweep_report`: transient
    cell failures are retried (``max_retries``, default 1) and worker
    crashes are isolated and probed, but a cell that exhausts its budget
    raises :class:`SweepCellError`.  Use :func:`run_sweep_report` with
    ``keep_going=True`` for partial-result semantics.
    """
    return run_sweep_report(
        specs, workers=workers, store=store, base_machine=base_machine,
        echo=echo, trace_store=trace_store, timeline=timeline,
        max_retries=max_retries, cell_timeout=cell_timeout,
        keep_going=False).records


# -------------------------------------------------------------------- SweepContext
class SweepContext:
    """The experiment context the figure/table drivers read cells through.

    ``run(workload, mode)`` and ``run_micro(...)`` resolve one cell each as
    a plain :class:`RunRecord`, memoised per context (every key part
    normalised by :meth:`RunSpec.create`) and served from the on-disk
    :class:`ResultStore` when one is given; :meth:`prefetch` resolves a
    whole block across worker processes before the drivers consume it.
    Callers that need the live simulation objects (``result.sim``,
    ``result.compiled``) call :func:`~repro.harness.runner.run_workload`.
    """

    def __init__(self, scale: str = "small",
                 machine_overrides: Optional[Mapping[str, Any]] = None,
                 store: Optional[ResultStore] = None,
                 workers: int = 1,
                 replay: bool = False):
        self.scale = scale.strip().lower()
        self.machine_overrides = dict(machine_overrides or {})
        self.store = store
        self.workers = max(1, workers)
        #: With ``replay=True`` kernel cells resolve through the trace
        #: subsystem (capture once, re-time per machine config) — the results
        #: are cycle-identical to execution-driven simulation, so this is a
        #: pure speed knob for machine-override sweeps.
        self.replay = bool(replay)
        self._records: Dict[RunSpec, RunRecord] = {}

    # -- spec helpers --------------------------------------------------------------
    def _kernel_spec(self, workload: str, mode: str) -> RunSpec:
        return RunSpec.create(workload, mode, self.scale,
                              machine=self.machine_overrides,
                              kind="replay" if self.replay else "kernel")

    def micro_spec(self, micro_mode: str, guarded_fraction: float,
                   iterations: int, unroll: int,
                   system_mode: str = "hybrid") -> RunSpec:
        # Microbenchmark cells are fully described by their params and never
        # read the kernel scale; pinning the scale axis keeps the content
        # hash — and therefore the store entry — shared across contexts.
        # With ``replay=True`` they resolve through the trace subsystem like
        # kernel cells: the microbenchmark's stream is captured once and
        # re-timed per machine config (the figure 7 sweep re-runs the same
        # four streams under every guarded fraction's program, so each
        # (mode, fraction) family is captured exactly once).
        check_micro_mode(system_mode)
        return RunSpec.create(
            workload=f"micro-{micro_mode}", mode=system_mode, scale="-",
            machine=self.machine_overrides,
            kind="replay" if self.replay else "micro",
            params={"micro_mode": micro_mode,
                    "guarded_fraction": float(guarded_fraction),
                    "iterations": int(iterations), "unroll": int(unroll)})

    # -- execution -----------------------------------------------------------------
    def run_specs(self, specs: Sequence[RunSpec], echo=None) -> List[RunRecord]:
        todo = [s for s in specs if s not in self._records]
        if todo:
            for spec, record in zip(todo, run_sweep(
                    todo, workers=self.workers, store=self.store, echo=echo)):
                self._records[spec] = record
        return [self._records[s] for s in specs]

    def run(self, workload: str, mode: str) -> RunRecord:
        return self.run_specs([self._kernel_spec(workload, mode)])[0]

    def run_micro(self, micro_mode: str, guarded_fraction: float = 1.0,
                  iterations: int = 200, unroll: int = 1,
                  system_mode: str = "hybrid") -> RunRecord:
        return self.run_specs([self.micro_spec(
            micro_mode, guarded_fraction, iterations, unroll, system_mode)])[0]

    def prefetch(self, workloads: Sequence[str], modes: Sequence[str],
                 echo=None) -> List[RunRecord]:
        """Resolve the (workloads x modes) block up front, in parallel."""
        specs = [self._kernel_spec(workload, mode)
                 for workload in workloads for mode in modes]
        return self.run_specs(specs, echo=echo)


# The command line imports the engine above, so it loads last.
from repro.harness.sweep.cli import main  # noqa: E402
