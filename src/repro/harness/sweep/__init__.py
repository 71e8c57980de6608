"""Parallel experiment-sweep engine with a content-hashed on-disk result store.

The paper's evaluation is a matrix of (workload x mode x scale x machine
config) simulations.  This module turns that matrix into first-class objects:

* :class:`RunSpec` — one fully-resolved cell of the matrix, frozen and
  content-hashed (the hash is a SHA-256 over the canonical JSON of the spec,
  so identical specs always produce identical hashes regardless of how the
  spec was constructed or how dicts were ordered);
* :class:`SweepSpec` — a declarative cartesian product of workloads, modes,
  scales and machine-config overrides that resolves into a list of
  :class:`RunSpec` cells;
* :class:`RunRecord` — the plain-data result of one cell: cycles,
  instructions, phase breakdown, memory-system activity and the energy
  breakdown.  Records are JSON-serialisable, so they can cross process
  boundaries and live in the on-disk store;
* :class:`ResultStore` — the content-addressed disk cache.  Layout:
  ``<root>/<hash[:2]>/<hash>.json``, one file per cell, written atomically.
  Corrupted or schema-incompatible entries are treated as misses and
  removed;
* :func:`run_sweep` — the executor: resolves store hits, fans cell misses
  out over a :class:`concurrent.futures.ProcessPoolExecutor` (``workers > 1``)
  or runs them inline, and fills the store;
* :class:`SweepContext` — the engine-backed replacement for the legacy
  :class:`~repro.harness.runner.ExperimentContext`: same ``run(workload,
  mode)`` interface, but store-backed and able to prefetch a whole sweep in
  parallel.  The figure/table drivers in
  :mod:`repro.harness.experiments` accept either context.

Command line::

    python -m repro.harness.sweep --workloads CG,IS --modes hybrid,cache \
        --scales tiny --workers 2 --cache-dir .repro-cache

The store assumes the simulator is deterministic: a record is valid for as
long as the simulator code that produced it.  Bump :data:`STORE_SCHEMA`
when a simulator change invalidates old results, or key any cross-run cache
(e.g. the CI cache) on a hash of ``src/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro import faults, obs
from repro.diskstore import DEFAULT_CACHE_DIR, DiskStore, resolve_cache_root
from repro.harness.config import MachineConfig, PTLSIM_CONFIG
from repro.harness.systems import SYSTEM_MODES, check_micro_mode

#: Version of the store schema; a mismatch turns a disk entry into a miss.
STORE_SCHEMA = 1

_OverrideItems = Tuple[Tuple[str, Any], ...]


def _freeze_mapping(mapping: Optional[Mapping[str, Any]]) -> _OverrideItems:
    """Canonicalise a mapping into a sorted, hashable tuple of items."""
    if not mapping:
        return ()
    return tuple(sorted(mapping.items()))


#: Overrides that restate the paper-default machine and must hash the same
#: as omitting the key: single-core, the flat (1-cluster) uncore and its
#: NUMA/LLC knobs, and the Table 1 directory size.  Values are read off
#: PTLSIM_CONFIG so this set can never drift from the config defaults.
_DEFAULT_MACHINE_ITEMS = frozenset(
    (name, getattr(PTLSIM_CONFIG, name))
    for name in ("num_cores", "num_clusters", "directory_entries",
                 "numa_remote_latency", "llc_size", "llc_assoc",
                 "llc_latency"))


def _freeze_machine(mapping: Optional[Mapping[str, Any]]) -> _OverrideItems:
    """Canonicalise machine overrides for hashing.

    Overrides that restate a paper default (``num_cores=1``,
    ``num_clusters=1``, ``directory_entries=32``, and the cluster-mode
    NUMA/LLC knobs at their defaults) are dropped: a cell built as
    ``{"num_cores": 1, ...}`` (the sweep CLI spells every ``--cores`` cell
    that way) must hash — and hit the result store — the same as one that
    simply omits the key.  Every other override, including the same knobs
    at non-default values, is kept verbatim.
    """
    return tuple(kv for kv in _freeze_mapping(mapping)
                 if kv not in _DEFAULT_MACHINE_ITEMS)


# ------------------------------------------------------------------------ RunSpec
@dataclass(frozen=True)
class RunSpec:
    """One frozen, content-hashed cell of the evaluation matrix.

    ``kind`` selects the workload family: ``"kernel"`` runs a NAS-like
    kernel through the compiler (``workload`` names it), ``"micro"`` runs
    the Table 2 / Figure 7 microbenchmark (``params`` carries ``micro_mode``,
    ``guarded_fraction``, ``iterations`` and ``unroll``).
    """

    workload: str
    mode: str
    scale: str = "small"
    machine: _OverrideItems = ()
    kind: str = "kernel"
    params: _OverrideItems = ()

    #: Spec kinds the executor understands.  ``"replay"`` is a kernel cell
    #: resolved through the trace subsystem: the dynamic stream is captured
    #: once per (workload, mode, scale, functional machine parameters) and
    #: re-timed under this cell's machine overrides (see :mod:`repro.trace`).
    KINDS = ("kernel", "micro", "replay")

    @classmethod
    def create(cls, workload: str, mode: str, scale: str = "small",
               machine: Optional[Mapping[str, Any]] = None,
               kind: str = "kernel",
               params: Optional[Mapping[str, Any]] = None) -> "RunSpec":
        """Build a spec with every key part normalised (case, whitespace)."""
        return cls(
            # Replay cells are kernel cells resolved through the trace
            # subsystem, so they normalise (and hash) identically.
            workload=(workload.strip().upper() if kind in ("kernel", "replay")
                      else workload.strip()),
            mode=mode.strip().lower(),
            scale=scale.strip().lower(),
            machine=_freeze_machine(machine),
            kind=kind,
            params=_freeze_mapping(params),
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "mode": self.mode,
            "scale": self.scale,
            "machine": dict(self.machine),
            "kind": self.kind,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        return cls.create(
            workload=data["workload"], mode=data["mode"], scale=data["scale"],
            machine=data.get("machine"), kind=data.get("kind", "kernel"),
            params=data.get("params"))

    @property
    def spec_hash(self) -> str:
        """Content hash: SHA-256 of the canonical JSON of the spec."""
        payload = json.dumps(
            {"schema": STORE_SCHEMA, **self.as_dict()},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @property
    def label(self) -> str:
        parts = [self.workload, self.mode, self.scale]
        if self.machine:
            parts.append(",".join(f"{k}={v}" for k, v in self.machine))
        if self.params:
            parts.append(",".join(f"{k}={v}" for k, v in self.params))
        return ":".join(parts)

    def resolve_machine(self, base: Optional[MachineConfig] = None) -> MachineConfig:
        """Apply this spec's overrides to ``base`` (default: Table 1)."""
        machine = base or PTLSIM_CONFIG
        if self.machine:
            machine = machine.with_overrides(dict(self.machine))
        return machine


# ----------------------------------------------------------------------- SweepSpec
@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: the cartesian product of its four axes.

    ``machines`` is a tuple of override sets (each a frozen items-tuple of
    :class:`~repro.harness.config.MachineConfig` field overrides, with dotted
    paths such as ``memory.prefetch_enabled`` reaching into sub-configs).  An
    empty override set is the Table 1 machine.
    """

    workloads: Tuple[str, ...]
    modes: Tuple[str, ...]
    scales: Tuple[str, ...] = ("small",)
    machines: Tuple[_OverrideItems, ...] = ((),)

    @classmethod
    def create(cls, workloads: Sequence[str], modes: Sequence[str],
               scales: Sequence[str] = ("small",),
               machines: Optional[Sequence[Mapping[str, Any]]] = None) -> "SweepSpec":
        return cls(
            workloads=tuple(w.strip().upper() for w in workloads),
            modes=tuple(m.strip().lower() for m in modes),
            scales=tuple(s.strip().lower() for s in scales),
            machines=tuple(_freeze_mapping(m) for m in machines) if machines else ((),),
        )

    def cells(self) -> List[RunSpec]:
        """Resolve the product into frozen specs, in deterministic order."""
        out = []
        for machine in self.machines:
            for scale in self.scales:
                for workload in self.workloads:
                    for mode in self.modes:
                        out.append(RunSpec.create(
                            workload, mode, scale, machine=dict(machine)))
        return out


# ----------------------------------------------------------------------- RunRecord
@dataclass
class RunRecord:
    """Plain-data result of one cell — everything the drivers consume.

    The record intentionally mirrors the accessor surface of the legacy
    :class:`~repro.harness.runner.RunResult` (``cycles``, ``instructions``,
    ``total_energy``, ``phase_cycles``, ``memory_stats``, ``energy_groups``,
    guarded-reference counters), so the figure/table drivers work with
    either.
    """

    workload: str
    mode: str
    scale: str
    kind: str
    spec_hash: str
    machine_overrides: Dict[str, Any]
    params: Dict[str, Any]
    cycles: float
    instructions: int
    phase_cycles: Dict[str, float]
    mispredictions: int
    branch_predictions: int
    memory_stats: Dict[str, Any]
    core_stats: Dict[str, Any]
    energy: Dict[str, float]
    guarded_references: int = 0
    total_references: int = 0
    emits_guards: bool = False
    sim_wall_seconds: float = 0.0

    # -- derived -----------------------------------------------------------------
    @property
    def total_energy(self) -> float:
        return self.energy.get("total", 0.0)

    @property
    def energy_groups(self) -> Dict[str, float]:
        """The Figure 10 component grouping (CPU / Caches / LM / Others)."""
        return {
            "CPU": self.energy.get("cpu", 0.0),
            "Caches": self.energy.get("caches", 0.0),
            "LM": self.energy.get("lm", 0.0),
            "Others": self.energy.get("others", 0.0),
        }

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles > 0 else 0.0

    # -- serialisation ------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


# --------------------------------------------------------------------- ResultStore
class ResultStore(DiskStore):
    """Content-addressed disk cache of :class:`RunRecord` objects.

    Layout: ``<root>/<hash[:2]>/<hash>.json``; each file holds the schema
    version, the spec (for debuggability) and the record.  A file that
    cannot be parsed, fails the schema check, or does not round-trip into a
    record is a corrupted miss (:meth:`~repro.diskstore.DiskStore._read`).
    """

    NAME = "result"
    FAULT_SITE = "store.put"
    PUT_ERROR_COUNTER = "sweep.store.put_error"
    SUFFIX = ".json"
    CORRUPT = (OSError, ValueError, TypeError, KeyError, AttributeError)
    COUNTERS = DiskStore.COUNTERS + ("cell_retries", "cell_failures",
                                     "cell_quarantined")

    def __init__(self, root: Optional[os.PathLike] = None):
        super().__init__(resolve_cache_root(root))
        self.cell_retries = 0
        self.cell_failures = 0
        self.cell_quarantined = 0

    def path_for(self, spec: RunSpec) -> Path:
        h = spec.spec_hash
        return self.root / h[:2] / f"{h}.json"

    def is_current(self, path: Path) -> bool:
        try:
            return json.loads(path.read_bytes()).get("schema") == STORE_SCHEMA
        except (OSError, ValueError, AttributeError):
            return False

    def get(self, spec: RunSpec) -> Optional[RunRecord]:
        def load(path: Path, stat: os.stat_result) -> RunRecord:
            payload = json.loads(path.read_bytes())
            if payload.get("schema") != STORE_SCHEMA:
                raise ValueError(f"schema {payload.get('schema')!r} != {STORE_SCHEMA}")
            return RunRecord.from_dict(payload["record"])
        return self._read(self.path_for(spec), load)

    def put(self, spec: RunSpec, record: RunRecord) -> Optional[Path]:
        """Write one record; None when the write failed or was skipped (see
        :meth:`~repro.diskstore.DiskStore._write`)."""
        payload = {"schema": STORE_SCHEMA, "spec": spec.as_dict(),
                   "record": record.as_dict()}
        return self._write(self.path_for(spec), json.dumps(payload).encode(),
                           spec.spec_hash)

    def clear(self) -> int:
        """Remove every entry; returns the number of files removed."""
        removed = 0
        for entry in self._entry_paths():
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def prune(self, max_bytes: Optional[int] = None,
              max_age_days: Optional[float] = None) -> int:
        """:meth:`DiskStore.prune <repro.diskstore.DiskStore.prune>`;
        returns the number of files removed.

        Bumping :data:`STORE_SCHEMA` turns old entries into permanent misses
        that :meth:`get` never touches again (their hashes embed the old
        schema); this sweeps those dead files out.  The trace store's
        subtree nests one level deeper and is left to its own prune().
        """
        counts = super().prune(max_bytes=max_bytes, max_age_days=max_age_days)
        return sum(counts[bucket] for bucket in self.PRUNE_BUCKETS)


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

    def backoff_for(attempt: int) -> float:
        return retry_backoff * (2 ** attempt)

    def note_retry(spec: RunSpec, attempt: int, exc: BaseException,
                   kind: str) -> None:
        report.retries += 1
        rec.incr("sweep.cell.retry")
        if store is not None:
            store.cell_retries += 1
        log.warning("cell %s attempt %d failed [%s]: %r; retrying",
                    spec.label, attempt + 1, kind, exc)
        say(f"  retry {spec.label} [{kind}] "
            f"(attempt {attempt + 2}/{max_retries + 1})")

    def fail(spec: RunSpec, kind: str, exc: BaseException, attempts: int,
             quarantined: bool = False) -> None:
        failure = CellFailure(spec=spec, kind=kind, error=repr(exc),
                              attempts=attempts, quarantined=quarantined)
        failures[spec] = failure
        report.failures.append(failure)
        rec.incr("sweep.cell.failed")
        if quarantined:
            rec.incr("sweep.cell.quarantined")
        if store is not None:
            store.cell_failures += 1
            if quarantined:
                store.cell_quarantined += 1
        rec.event("sweep.cell.failed", spec=spec.label, kind=kind,
                  attempts=attempts, quarantined=quarantined)
        log.error("cell FAILED %s after %d attempt(s) [%s]: %s",
                  spec.label, attempts, kind, failure.error)
        if timeline is not None:
            timeline.instant(f"FAILED {spec.label}",
                             (time.perf_counter() - sweep_start) * 1e6,
                             args={"kind": kind, "attempts": attempts,
                                   "quarantined": quarantined,
                                   "error": failure.error})
        say(f"  FAILED {spec.label} after {attempts} attempt(s) [{kind}]"
            + (" — quarantined" if quarantined else ""))
        if not keep_going:
            raise SweepCellError(failure)

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

            def kill_pool() -> None:
                # A broken or hung pool cannot be shut down politely: a
                # clean shutdown() would join workers that will never
                # return.  Terminate them, then discard the executor.
                nonlocal pool
                if pool is None:
                    return
                for proc in list(getattr(pool, "_processes", {}).values()):
                    try:
                        proc.terminate()
                    except (OSError, AttributeError):
                        pass
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None

            def probe(spec: RunSpec, attempt: int) -> None:
                # After a pool break nothing says *which* in-flight cell
                # killed it, and charging (or quarantining) an innocent cell
                # would violate the retry contract.  So each suspect re-runs
                # alone in a private single-worker pool: only the cell that
                # again kills its own worker is charged a "crash" attempt.
                while True:
                    probe_pool = cf.ProcessPoolExecutor(max_workers=1)
                    try:
                        rec.incr("sweep.pool.dispatched")
                        future = probe_pool.submit(_execute_payload,
                                                   payload_for(spec, attempt))
                        result = future.result(timeout=cell_timeout)
                    except cf.BrokenExecutor as exc:
                        if attempt < max_retries:
                            note_retry(spec, attempt, exc, "crash")
                            attempt += 1
                            continue
                        fail(spec, "crash", exc, attempt + 1,
                             quarantined=True)
                        return
                    except cf.TimeoutError:
                        exc = TimeoutError(
                            f"cell exceeded cell_timeout={cell_timeout}s")
                        rec.incr("sweep.cell.timeout")
                        if attempt < max_retries:
                            note_retry(spec, attempt, exc, "timeout")
                            attempt += 1
                            continue
                        fail(spec, "timeout", exc, attempt + 1,
                             quarantined=True)
                        return
                    except _FATAL_ERRORS:
                        raise
                    except Exception as exc:
                        # An ordinary in-worker exception: this cell is not
                        # a pool-killer, so its retries go back to the
                        # shared pool's queue.
                        if attempt < max_retries:
                            note_retry(spec, attempt, exc, "error")
                            pending.append([spec, attempt + 1,
                                            time.monotonic()
                                            + backoff_for(attempt)])
                        else:
                            fail(spec, "error", exc, attempt + 1)
                        return
                    else:
                        finish(spec, RunRecord.from_dict(result))
                        return
                    finally:
                        for proc in list(getattr(probe_pool, "_processes",
                                                 {}).values()):
                            try:
                                proc.terminate()
                            except (OSError, AttributeError):
                                pass
                        probe_pool.shutdown(wait=False, cancel_futures=True)

            try:
                while pending or in_flight:
                    now = time.monotonic()
                    for entry in [e for e in pending if e[2] <= now]:
                        if len(in_flight) >= workers:
                            break
                        # Create (or re-create) the pool before dequeuing,
                        # so a pool that cannot start leaves the cell queued
                        # for the inline fallback.
                        if pool is None:
                            pool = cf.ProcessPoolExecutor(max_workers=workers)
                        spec, attempt, _ = entry
                        rec.incr("sweep.pool.dispatched")
                        log.info("cell start %s (attempt %d)", spec.label,
                                 attempt + 1)
                        future = pool.submit(_execute_payload,
                                             payload_for(spec, attempt))
                        pending.remove(entry)
                        # The in-flight cap equals the worker count, so a
                        # submitted cell starts (almost) immediately and its
                        # wall-clock deadline can anchor at submission.
                        in_flight[future] = (
                            spec, attempt,
                            now + cell_timeout if cell_timeout is not None
                            else float("inf"))
                    if not in_flight:
                        # Everything is backing off; sleep to the earliest.
                        time.sleep(max(0.0, min(e[2] for e in pending)
                                       - time.monotonic()))
                        continue
                    done, _ = cf.wait(list(in_flight), timeout=0.05,
                                      return_when=cf.FIRST_COMPLETED)
                    broken: Optional[BaseException] = None
                    suspects: List[Tuple[RunSpec, int]] = []
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
                            if attempt < max_retries:
                                note_retry(spec, attempt, exc, "error")
                                pending.append([spec, attempt + 1,
                                                time.monotonic()
                                                + backoff_for(attempt)])
                            else:
                                fail(spec, "error", exc, attempt + 1)
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
                            exc = TimeoutError(
                                f"cell exceeded cell_timeout="
                                f"{cell_timeout}s")
                            if attempt < max_retries:
                                note_retry(spec, attempt, exc, "timeout")
                                pending.append([spec, attempt + 1,
                                                time.monotonic()
                                                + backoff_for(attempt)])
                            else:
                                fail(spec, "timeout", exc, attempt + 1)
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
                kind = ("crash" if isinstance(exc, faults.FaultCrash)
                        else "error")
                if attempt < max_retries:
                    note_retry(spec, attempt, exc, kind)
                    pending.append([spec, attempt + 1,
                                    time.monotonic() + backoff_for(attempt)])
                else:
                    fail(spec, kind, exc, attempt + 1)
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
    """Engine-backed experiment context shared by the figure/table drivers.

    Drop-in for the legacy :class:`~repro.harness.runner.ExperimentContext`
    interface (``run(workload, mode)``), but returns plain
    :class:`RunRecord` data, consults the on-disk :class:`ResultStore`, and
    can :meth:`prefetch` a whole sweep across worker processes before the
    drivers consume individual cells.
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

    def cached_runs(self) -> Dict[Tuple[str, str, str], RunRecord]:
        """Resolved cells keyed by (workload, mode, scale), legacy-shaped."""
        return {(s.workload, s.mode, s.scale): r
                for s, r in self._records.items()}


# ------------------------------------------------------------------------- CLI
def _parse_value(text: str):
    """Parse a CLI override value: bool / int / float / string."""
    low = text.strip().lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_overrides(items: Iterable[str]) -> Dict[str, Any]:
    overrides = {}
    for item in items:
        if "=" not in item:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = _parse_value(value)
    return overrides


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

    overrides = _parse_overrides(args.overrides)
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
    if store is not None:
        store.persist_stats()
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
