"""Fault-tolerant sweep execution, driven end-to-end by injected faults
(``REPRO_FAULTS``): cell retry with backoff, worker-crash isolation and
quarantine, hung-cell timeouts, pool-unavailable inline fallback, store
degradation to memory-only, torn-write recovery, and the guarantee that a
degraded run stays bit-identical to a fault-free one."""

import dataclasses

import pytest

import repro.harness.sweep as sweep_mod
from repro import faults, obs
from repro.harness.sweep import (
    ResultStore,
    RunSpec,
    SweepCellError,
    run_sweep,
    run_sweep_report,
)

pytestmark = pytest.mark.usefixtures("_no_ambient_faults")


@pytest.fixture()
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)


def _micro(i, iterations=40):
    """A distinct, millisecond-scale sweep cell (Table 2 microbenchmark)."""
    return RunSpec.create(
        "micro-baseline", "hybrid", "-", kind="micro",
        params={"micro_mode": "baseline", "iterations": iterations,
                "guarded_fraction": round(0.1 * (i + 1), 2)})


def _payload(record):
    """Record content minus measured wall-clock (never bit-stable)."""
    data = dataclasses.asdict(record)
    data.pop("sim_wall_seconds", None)
    return data


# ------------------------------------------------------------ retry and failure
def test_inline_transient_error_is_retried(monkeypatch):
    monkeypatch.setenv(faults.FAULTS_ENV, "worker.exec=errx1")
    specs = [_micro(i) for i in range(3)]
    with obs.recording() as rec:
        report = run_sweep_report(specs, retry_backoff=0.0)
    assert report.ok and report.completed == 3
    assert report.retries == 3          # each cell failed exactly once
    assert rec.counters["faults.injected"] == 3
    assert rec.counters["sweep.cell.retry"] == 3
    assert all(r is not None for r in report.records)


def test_keep_going_isolates_the_poison_cell(monkeypatch, tmp_path):
    specs = [_micro(i) for i in range(3)]
    doomed = specs[1]
    monkeypatch.setenv(faults.FAULTS_ENV,
                       f"worker.exec@{doomed.spec_hash[:8]}=err")
    store = ResultStore(tmp_path / "cache")
    report = run_sweep_report(specs, store=store, keep_going=True,
                              retry_backoff=0.0)
    assert not report.ok and report.completed == 2
    assert report.records[0] is not None and report.records[2] is not None
    assert report.records[1] is None
    (failure,) = report.failures
    assert failure.spec == doomed
    assert failure.kind == "error"
    assert failure.attempts == 2        # initial try + max_retries=1
    assert not failure.quarantined
    assert store.cell_failures == 1 and store.cell_retries == 1


def test_fail_fast_raises_sweep_cell_error(monkeypatch):
    specs = [_micro(i) for i in range(2)]
    monkeypatch.setenv(faults.FAULTS_ENV,
                       f"worker.exec@{specs[0].spec_hash[:8]}=err")
    with pytest.raises(SweepCellError) as info:
        run_sweep(specs, max_retries=0)
    assert info.value.failure.spec == specs[0]
    assert info.value.failure.kind == "error"


def test_bad_fault_spec_is_fatal_not_retried(monkeypatch):
    """A typo'd REPRO_FAULTS is a ValueError: it must abort immediately —
    retrying or keep-going past it would silently run without faults."""
    monkeypatch.setenv(faults.FAULTS_ENV, "worker.exec=frobnicate")
    with pytest.raises(faults.FaultSpecError):
        run_sweep_report([_micro(0)], keep_going=True, retry_backoff=0.0)


# ------------------------------------------------------------- pool crash paths
def test_pool_survives_transient_worker_crash(monkeypatch, tmp_path):
    """A worker dying mid-sweep (BrokenProcessPool) must not abort the
    sweep or lose finished work: the pool is rebuilt, the in-flight cells
    are probed in isolation, and every cell completes exactly once."""
    specs = [_micro(i) for i in range(4)]
    monkeypatch.setenv(faults.FAULTS_ENV,
                       f"worker.exec@{specs[2].spec_hash[:8]}=crashx1")
    store = ResultStore(tmp_path / "cache")
    with obs.recording() as rec:
        report = run_sweep_report(specs, workers=2, store=store,
                                  retry_backoff=0.0)
    assert report.ok and report.completed == 4
    assert report.pool_rebuilds >= 1
    assert report.retries >= 1
    assert rec.counters["sweep.pool.rebuilt"] >= 1
    # Finished cells were not re-executed after the break: one completion
    # and one store write per cell, no more.
    assert rec.counters["sweep.cell.finished"] == 4
    assert store.writes == 4


def test_pool_quarantines_permanently_crashing_cell(monkeypatch, tmp_path):
    specs = [_micro(i) for i in range(4)]
    doomed = specs[1]
    monkeypatch.setenv(faults.FAULTS_ENV,
                       f"worker.exec@{doomed.spec_hash[:8]}=crash")
    store = ResultStore(tmp_path / "cache")
    with obs.recording() as rec:
        report = run_sweep_report(specs, workers=2, store=store,
                                  keep_going=True, retry_backoff=0.0)
    assert report.completed == 3
    (failure,) = report.failures
    assert failure.spec == doomed
    assert failure.kind == "crash" and failure.quarantined
    assert failure.attempts == 2
    assert rec.counters["sweep.cell.quarantined"] == 1
    assert store.cell_quarantined == 1
    # The survivors all landed despite the repeated pool kills.
    assert {r.spec_hash for r in report.records if r is not None} \
        == {s.spec_hash for s in specs if s != doomed}


def test_cell_timeout_preempts_hung_worker(monkeypatch):
    """A cell stalled past ``cell_timeout`` has its pool killed; the hang
    is charged to the overrunning cell (transient here: ``x1``), innocent
    co-residents requeue free, and everything completes."""
    specs = [_micro(i) for i in range(4)]
    monkeypatch.setenv(faults.FAULTS_ENV,
                       f"worker.exec@{specs[0].spec_hash[:8]}=hang30x1")
    with obs.recording() as rec:
        report = run_sweep_report(specs, workers=2, cell_timeout=1.0,
                                  retry_backoff=0.0)
    assert report.ok and report.completed == 4
    assert rec.counters["sweep.cell.timeout"] >= 1
    assert report.pool_rebuilds >= 1


def test_pool_unavailable_falls_back_to_inline(monkeypatch, tmp_path):
    """When the pool infrastructure itself cannot start (fork failure),
    the sweep finishes inline rather than dying."""
    import concurrent.futures as cf

    def no_fork(*args, **kwargs):
        raise OSError("cannot allocate worker process")

    monkeypatch.setattr(cf, "ProcessPoolExecutor", no_fork)
    specs = [_micro(i) for i in range(2)]
    store = ResultStore(tmp_path / "cache")
    with obs.recording() as rec:
        report = run_sweep_report(specs, workers=2, store=store)
    assert report.ok and report.completed == 2
    assert rec.counters["sweep.pool.unavailable"] == 1
    assert store.writes == 2


# --------------------------------------------------------------- store failures
def test_result_store_degrades_to_memory_only(monkeypatch, tmp_path):
    """Persistent ENOSPC must not sink the sweep: after DEGRADE_AFTER
    consecutive write failures the store goes memory-only and the sweep
    still returns every record."""
    monkeypatch.setenv(faults.FAULTS_ENV, "store.put=os")
    store = ResultStore(tmp_path / "cache")
    specs = [_micro(i) for i in range(5)]
    with obs.recording() as rec:
        report = run_sweep_report(specs, store=store)
    assert report.ok and report.completed == 5
    assert all(r is not None for r in report.records)
    assert store.degraded
    assert store.put_errors == ResultStore.DEGRADE_AFTER
    assert store.writes == 0
    assert rec.counters["degraded.store.result"] == 1
    assert rec.counters["sweep.store.put_error"] == ResultStore.DEGRADE_AFTER


def test_store_put_success_rearms_degradation_counter(monkeypatch, tmp_path):
    """Two failures, one success, two failures: never three *consecutive*,
    so the store must stay armed (not degraded)."""
    store = ResultStore(tmp_path / "cache")
    record = sweep_mod.execute_spec(_micro(0))
    monkeypatch.setenv(faults.FAULTS_ENV, "store.put=os")
    for i in (0, 1):
        assert store.put(_micro(i), record) is None
    monkeypatch.setenv(faults.FAULTS_ENV, "")
    assert store.put(_micro(2), record) is not None
    monkeypatch.setenv(faults.FAULTS_ENV, "store.put=os")
    for i in (3, 4):
        assert store.put(_micro(i), record) is None
    assert store.put_errors == 4 and not store.degraded


def test_torn_store_write_recovers_on_next_session(monkeypatch, tmp_path):
    spec = _micro(0)
    monkeypatch.setenv(faults.FAULTS_ENV, "store.put=torn")
    store = ResultStore(tmp_path / "cache")
    (record,) = run_sweep([spec], store=store)
    assert record is not None and store.writes == 1
    monkeypatch.delenv(faults.FAULTS_ENV)
    fresh = ResultStore(tmp_path / "cache")
    assert fresh.get(spec) is None      # torn entry detected and dropped
    assert fresh.corrupted == 1
    (again,) = run_sweep([spec], store=fresh)
    assert _payload(again) == _payload(record)
    assert fresh.get(spec) is not None  # refilled, intact this time


def test_interrupt_still_persists_store_stats(monkeypatch, tmp_path):
    """Satellite: Ctrl-C mid-sweep must not lose the session's lifetime
    counters — persist_stats() runs in the engine's ``finally``."""
    from repro.diskstore import STATS_SIDECAR

    def interrupted(spec, *args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(sweep_mod, "execute_spec", interrupted)
    store = ResultStore(tmp_path / "cache")
    with pytest.raises(KeyboardInterrupt):
        run_sweep_report([_micro(0)], store=store)
    sidecar = store.root / STATS_SIDECAR
    assert sidecar.exists()
    assert store.lifetime_stats()["misses"] == 1


def test_artifact_store_degrades_after_consecutive_errors(monkeypatch,
                                                          tmp_path):
    from repro.trace.artifacts import ArtifactStore

    monkeypatch.setenv(faults.FAULTS_ENV, "artifact.write=os")
    store = ArtifactStore(tmp_path / "traces")
    meta, sections = {"v": 1}, [("data", b"\x00" * 16)]
    with obs.recording() as rec:
        for i in range(ArtifactStore.DEGRADE_AFTER):
            assert store.put("ff" * 8, "oracle", {"i": i}, meta,
                             sections) is None
    assert store.degraded
    assert store.put_errors == ArtifactStore.DEGRADE_AFTER
    assert rec.counters["degraded.store.artifact"] == 1
    # Degraded: puts short-circuit without touching the disk; gets still
    # read it (an entry that was never written is a plain miss).
    assert store.put("ff" * 8, "oracle", {"i": 99}, meta, sections) is None
    assert store.get("ff" * 8, "oracle", {"i": 0}) is None


# ---------------------------------------------------- capture-pool degradation
def test_capture_pool_crash_falls_back_to_inline_capture(monkeypatch,
                                                         tmp_path):
    """Satellite: a capture-pool failure is surfaced (counter + message),
    then the capture pre-pass finishes inline and the sweep completes."""
    specs = [RunSpec.create(w, "hybrid", "tiny", kind="replay")
             for w in ("CG", "IS")]
    monkeypatch.setenv(faults.FAULTS_ENV, "capture.exec=crash")
    lines = []
    store = ResultStore(tmp_path / "cache")
    with obs.recording() as rec:
        report = run_sweep_report(specs, workers=2, store=store,
                                  retry_backoff=0.0, echo=lines.append)
    assert report.ok and report.completed == 2
    assert rec.counters["sweep.capture_pool.failed"] == 1
    assert any("capture pool failed" in line for line in lines)


# ------------------------------------------------------- degraded-mode identity
@pytest.mark.parametrize("shape", ["1-core", "2-core", "micro"])
@pytest.mark.parametrize("fault_spec", ["vector.prelower=err",
                                        "ckernel.compile=err"])
def test_vector_degrades_to_execution_with_identical_results(
        monkeypatch, fault_spec, shape):
    """C-kernel / prelowering faults make replay run the trace key's
    program execution-driven at the requested machine — slower, never
    different — on single-core, 2-core and microbenchmark traces, with one
    ``degraded.vector`` event per replay."""
    import dataclasses

    from repro.harness.config import PTLSIM_CONFIG
    from repro.trace import (
        capture_micro,
        capture_workload,
        execute_key,
        replay_trace,
    )

    if shape == "micro":
        _, trace = capture_micro("RD/WR", guarded_fraction=0.5,
                                 iterations=200, unroll=4)
        machine = PTLSIM_CONFIG
    else:
        machine = dataclasses.replace(
            PTLSIM_CONFIG, num_cores=1 if shape == "1-core" else 2)
        _, trace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    machine = machine.with_overrides({"memory.l1_latency": 4})
    clean = replay_trace(trace, machine)
    monkeypatch.setenv(faults.FAULTS_ENV, fault_spec)
    with obs.recording() as rec:
        degraded = replay_trace(trace, machine)
    monkeypatch.delenv(faults.FAULTS_ENV)
    executed, _ = execute_key(trace.key, machine)
    assert rec.counters["degraded.vector"] == 1
    for run in (degraded, clean):
        assert run.sim == executed.sim
        assert run.energy.as_dict() == executed.energy.as_dict()


def test_chaos_run_is_bit_identical_to_clean_run(monkeypatch, tmp_path):
    """The headline guarantee: a sweep surviving worker crashes and store
    write failures produces byte-for-byte the records of a clean sweep."""
    specs = [_micro(i) for i in range(4)]
    clean = run_sweep_report(specs, workers=2,
                             store=ResultStore(tmp_path / "clean"))
    monkeypatch.setenv(
        faults.FAULTS_ENV,
        f"worker.exec@{specs[1].spec_hash[:8]}=crashx1;"
        "worker.exec=err:0.4x1;store.put=os:0.3;seed=3")
    chaos = run_sweep_report(specs, workers=2,
                             store=ResultStore(tmp_path / "chaos"),
                             retry_backoff=0.0)
    assert clean.ok and chaos.ok
    assert chaos.pool_rebuilds >= 1     # the targeted crash really happened
    for clean_rec, chaos_rec in zip(clean.records, chaos.records):
        assert _payload(chaos_rec) == _payload(clean_rec)
