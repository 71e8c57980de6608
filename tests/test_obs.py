"""Tests of the observability layer (``repro.obs``): recorder-off identity,
phase-profiler nesting, the simulated-time timeline recorder's Chrome
trace-event export, the store lifetime-stats sidecar, and the obs CLI."""

import dataclasses
import json

import pytest

from repro import obs
from repro.harness.config import PTLSIM_CONFIG
from repro.obs.timeline import UNCORE_TID, TimelineRecorder
from repro.trace import (
    EphemeralTraceStore,
    TraceKey,
    TraceStore,
    capture_workload,
    replay_trace,
)
from repro.diskstore import STATS_SIDECAR, load_sidecar_stats


def _machine(cores):
    return dataclasses.replace(PTLSIM_CONFIG, num_cores=cores)


# --------------------------------------------------------- recorder identity
@pytest.mark.parametrize("engine", ["fused", "vector"])
def test_recording_does_not_change_results(engine):
    """Cycles, energy and memory stats must be bit-identical whether the
    null recorder, a metrics recorder, or a timeline is attached."""
    _, trace = capture_workload("CG", "hybrid", "tiny")
    bare = replay_trace(trace, PTLSIM_CONFIG, engine=engine)
    with obs.recording() as rec:
        recorded = replay_trace(trace, PTLSIM_CONFIG, engine=engine)
    timeline = TimelineRecorder()
    timed = replay_trace(trace, PTLSIM_CONFIG, engine=engine,
                         timeline=timeline)
    for other in (recorded, timed):
        assert other.cycles == bare.cycles
        assert other.energy.as_dict() == bare.energy.as_dict()
        assert other.sim.memory_stats == bare.sim.memory_stats
    # The recorded run actually recorded something.
    assert rec.phases
    assert any(name.endswith(".timing") for name in rec.phases)


def test_recording_multicore_identity_and_counters():
    machine = _machine(2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    bare = replay_trace(mtrace, machine, engine="vector")
    with obs.recording() as rec:
        recorded = replay_trace(mtrace, machine, engine="vector")
    assert recorded.cycles == bare.cycles
    assert recorded.energy.as_dict() == bare.energy.as_dict()
    assert recorded.sim.core_stats["per_core"] == bare.sim.core_stats["per_core"]
    # The vector engine attributes its passes separately.
    assert "vector.timing" in rec.phases
    assert ("vector.oracle" in rec.phases or "vector.flags" in rec.phases
            or "vector.oracle.hit" in rec.counters
            or "vector.flags.hit" in rec.counters)
    # Epochs/bounces only exist when the C kernel ran; either way the
    # counters dict is internally consistent.
    if "vector.ckernel.epochs" in rec.counters:
        assert rec.counters["vector.ckernel.epochs"] >= 1


def test_null_recorder_is_default_and_inert():
    rec = obs.get_recorder()
    assert rec.enabled is False
    rec.incr("x")
    rec.gauge("y", 1.0)
    rec.event("z", detail=1)
    with rec.phase("p"):
        pass
    with obs.recording() as inner:
        assert obs.get_recorder() is inner
        assert inner.enabled
    assert obs.get_recorder() is rec


# ----------------------------------------------------------- phase profiler
def test_phase_profiler_nesting_self_vs_total():
    import time as _time
    rec = obs.MetricsRecorder()
    with rec.phase("outer"):
        _time.sleep(0.01)
        with rec.phase("inner"):
            _time.sleep(0.02)
    outer, inner = rec.phases["outer"], rec.phases["inner"]
    assert outer["calls"] == 1 and inner["calls"] == 1
    # Outer's inclusive time covers inner; its self time excludes it.
    assert outer["total"] >= inner["total"]
    assert outer["self"] == pytest.approx(outer["total"] - inner["total"])
    assert inner["self"] == pytest.approx(inner["total"])
    report = rec.phase_report()
    assert "outer" in report and "inner" in report


def test_phase_report_empty():
    assert "no phases" in obs.MetricsRecorder().phase_report()


# ------------------------------------------------------- timeline recorder
def _chrome_trace_for_2core_replay():
    machine = _machine(2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    timeline = TimelineRecorder()
    replay_trace(mtrace, machine, timeline=timeline)
    return timeline.to_chrome_trace()


def test_timeline_chrome_trace_schema(tmp_path):
    payload = _chrome_trace_for_2core_replay()
    assert set(payload) == {"traceEvents", "displayTimeUnit", "otherData"}
    events = payload["traceEvents"]
    assert events
    for ev in events:
        assert {"name", "ph", "pid", "tid"} <= set(ev)
        if ev["ph"] == "X":
            assert ev["dur"] >= 0 and ev["ts"] >= 0
        if ev["ph"] in ("X", "i", "C"):
            assert "ts" in ev
    # Per-core lane run spans on both core tracks.
    run_tids = {ev["tid"] for ev in events
                if ev["ph"] == "X" and ev["name"] == "run"}
    assert {0, 1} <= run_tids
    # Bus-occupancy counters from the shared uncore.
    assert any(ev["ph"] == "C" and ev["name"] == "bus lines" for ev in events)
    # Track-name metadata for the cores (and the uncore when it has spans).
    names = {ev["args"]["name"] for ev in events if ev["ph"] == "M"}
    assert {"core 0", "core 1"} <= names
    # The container is valid JSON end to end.
    out = tmp_path / "timeline.json"
    out.write_text(json.dumps(payload))
    assert json.loads(out.read_text())["traceEvents"]


def test_timeline_lane_span_coalescing():
    tl = TimelineRecorder(merge_gap=10.0)
    tl.lane_span(0, 0.0, 5.0)
    tl.lane_span(0, 7.0, 12.0)     # within gap: extends
    tl.lane_span(0, 50.0, 60.0)    # beyond gap: new span
    tl.flush()
    spans = [ev for ev in tl.events if ev["name"] == "run"]
    assert [(s["ts"], s["dur"]) for s in spans] == [(0.0, 12.0), (50.0, 10.0)]
    assert spans[0]["args"]["grants"] == 2


def test_timeline_bus_claims_and_event_cap():
    tl = TimelineRecorder(bucket_cycles=100, max_events=2)
    tl.bus_claim(10.0, 0.0, 1, 4, 2)        # single line, no queueing
    tl.bus_claim(20.0, 4.0, 1, 4, 2)        # queued miss -> instant
    tl.bus_claim(150.0, 2.0, 8, 4, 2)       # DMA burst -> span
    tl.bus_claim(160.0, 0.0, 8, 4, 2)       # over the cap -> dropped
    payload = tl.to_chrome_trace()
    assert payload["otherData"]["dropped_events"] == 1
    kinds = [(ev["ph"], ev["name"]) for ev in payload["traceEvents"]]
    assert ("i", "miss queued") in kinds
    assert ("X", "dma burst") in kinds
    # Counters aggregate per bucket and survive the event cap.
    lines = [ev for ev in payload["traceEvents"]
             if ev["ph"] == "C" and ev["name"] == "bus lines"]
    assert {ev["ts"]: ev["args"]["lines"] for ev in lines} == {0: 2, 100: 16}
    uncore = [ev for ev in payload["traceEvents"]
              if ev.get("tid") == UNCORE_TID and ev["ph"] == "M"]
    assert uncore and uncore[0]["args"]["name"] == "uncore"


def test_timeline_wall_span_maps_seconds_to_us():
    tl = TimelineRecorder()
    tl.wall_span("cell", 1.0, 3.5, tid=2)
    (ev,) = tl.events
    assert (ev["ts"], ev["dur"], ev["tid"]) == (1e6, 2.5e6, 2)


# ------------------------------------------------------------ stats sidecar
def test_trace_store_sidecar_round_trip(tmp_path):
    root = tmp_path / "cache"
    store = TraceStore(root)
    key = TraceKey.create("CG", "hybrid", "tiny", kind="kernel",
                          lm_size=PTLSIM_CONFIG.lm_size,
                          directory_entries=PTLSIM_CONFIG.directory_entries,
                          num_cores=1)
    assert store.get(key) is None          # miss
    _, trace = capture_workload("CG", "hybrid", "tiny")
    store.put(trace)
    assert store.get(key) is not None      # hit
    lifetime = store.persist_stats()
    assert lifetime["hits"] == 1 and lifetime["misses"] == 1
    assert lifetime["writes"] == 1
    # Persisting again without new activity must not double-count.
    assert store.persist_stats()["hits"] == 1
    sidecar = store.root / STATS_SIDECAR
    assert sidecar.is_file()
    # The sidecar never shows up as a store entry.
    assert len(store) == 1
    assert store.disk_stats()["entries"] == 1
    # A fresh instance folds the persisted lifetime into its own counters.
    fresh = TraceStore(root)
    assert fresh.get(key) is not None
    combined = fresh.lifetime_stats()
    assert combined["hits"] == 2
    assert combined["writes"] == 1
    assert load_sidecar_stats(fresh.root)["hits"] == 1   # disk unchanged
    fresh.persist_stats()
    assert load_sidecar_stats(fresh.root)["hits"] == 2


def test_result_store_sidecar_and_evictions(tmp_path):
    from repro.harness.sweep import ResultStore, RunSpec, run_sweep

    store = ResultStore(tmp_path / "cache")
    spec = RunSpec.create("micro-baseline", "hybrid", "-", kind="micro",
                          params={"micro_mode": "baseline", "iterations": 5})
    run_sweep([spec], store=store)          # miss + write
    run_sweep([spec], store=store)          # hit
    lifetime = store.persist_stats()
    assert lifetime["misses"] == 1 and lifetime["hits"] == 1
    assert lifetime["writes"] == 1
    assert lifetime.get("evictions", 0) == 0   # zero counters stay implicit
    assert store.disk_stats()["lifetime"]["writes"] == 1
    # Evict everything via the LRU knob; the eviction lands in the sidecar.
    assert store.prune(max_bytes=0) == 1
    assert store.stats()["evictions"] == 1
    assert store.persist_stats()["evictions"] == 1
    fresh = ResultStore(tmp_path / "cache")
    assert fresh.lifetime_stats()["evictions"] == 1


def test_sidecar_ignores_garbage(tmp_path):
    root = tmp_path / "cache"
    root.mkdir()
    (root / STATS_SIDECAR).write_text("not json")
    assert load_sidecar_stats(root) == {}
    store = TraceStore(root)
    assert store.lifetime_stats()["hits"] == 0


# -------------------------------------------------------------------- CLIs
def test_trace_replay_cli_writes_timeline(tmp_path, monkeypatch):
    from repro.trace.__main__ import main as trace_main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "timeline.json"
    assert trace_main(["replay", "--workload", "CG", "--scale", "tiny",
                       "--set", "num_cores=2", "--timeline", str(out)]) == 0
    payload = json.loads(out.read_text())
    events = payload["traceEvents"]
    assert {ev["tid"] for ev in events
            if ev["ph"] == "X" and ev["name"] == "run"} >= {0, 1}
    assert any(ev["ph"] == "C" and ev["name"] == "bus lines" for ev in events)
    # The replay CLI persisted the store's lifetime counters.
    assert load_sidecar_stats(tmp_path / "cache" / "traces")


def test_obs_report_cli(tmp_path, capsys, monkeypatch):
    from repro.obs.__main__ import main as obs_main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    bench = tmp_path / "BENCH_trace.json"
    bench.write_text(json.dumps({"existing": {"kept": True}}))
    assert obs_main(["report", "--workload", "CG", "--scale", "tiny",
                     "--engine", "vector",
                     "--json", str(tmp_path / "snap.json"),
                     "--bench-json", str(bench)]) == 0
    out = capsys.readouterr().out
    assert "phase" in out and "vector.timing" in out
    snap = json.loads((tmp_path / "snap.json").read_text())
    assert "vector.timing" in snap["phases"]
    assert snap["cell"]["engine"] == "vector"
    merged = json.loads(bench.read_text())
    assert merged["existing"] == {"kept": True}      # merge, not overwrite
    assert "CG:hybrid:tiny:vector" in merged["obs_report"]


def test_sweep_cli_timeline_and_stats(tmp_path, capsys, monkeypatch):
    from repro.harness.sweep import main as sweep_main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "pipeline.json"
    base = ["--workloads", "CG", "--modes", "hybrid", "--scales", "tiny"]
    assert sweep_main(base + ["--timeline", str(out)]) == 0
    payload = json.loads(out.read_text())
    cells = [ev for ev in payload["traceEvents"] if ev["ph"] == "X"]
    assert len(cells) == 1
    assert cells[0]["name"].startswith("CG:hybrid:tiny")
    capsys.readouterr()
    assert sweep_main(["--stats"]) == 0
    stats_out = capsys.readouterr().out
    assert stats_out.count("lifetime:") == 2
    assert "1 write(s)" in stats_out


def test_run_sweep_records_store_hits_and_cells(tmp_path):
    from repro.harness.sweep import ResultStore, RunSpec, run_sweep

    store = ResultStore(tmp_path / "cache")
    spec = RunSpec.create("micro-baseline", "hybrid", "-", kind="micro",
                          params={"micro_mode": "baseline", "iterations": 5})
    with obs.recording() as rec:
        run_sweep([spec], store=store)
        run_sweep([spec], store=store)
    assert rec.counters["sweep.store.miss"] == 1
    assert rec.counters["sweep.store.hit"] == 1
    assert rec.counters["sweep.cell.finished"] == 1


# ------------------------------------------------ recording-overhead verdict
def test_overhead_verdict_fails_a_steady_overhead():
    from repro.obs.__main__ import overhead_verdict

    base = [2.0, 2.1, 1.9, 2.0, 2.05, 1.95, 2.0]
    ok, frac, median_base = overhead_verdict(
        base, [b * 1.05 for b in base], 2.0, 0.05)
    assert not ok
    assert frac == pytest.approx(0.05)
    assert median_base == 2.0


def test_overhead_verdict_passes_symmetric_noise():
    from repro.obs.__main__ import overhead_verdict

    base = [2.0] * 8
    noise = [0.10, -0.10, 0.10, -0.10, 0.10, -0.10, 0.10, -0.10]
    ok, frac, _ = overhead_verdict(base, [b * (1 + e)
                                          for b, e in zip(base, noise)],
                                   2.0, 0.05)
    assert ok
    assert frac == pytest.approx(0.0)
    # One pair slowed by host load moves the median by one rank, not the
    # verdict.
    base = [2.0] * 7
    skew = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.50]
    assert overhead_verdict(base, [b * (1 + e) for b, e in zip(base, skew)],
                            2.0, 0.05)[0]


def test_overhead_verdict_needs_enough_pairs():
    from repro.obs.__main__ import MIN_PAIRS, overhead_verdict

    with pytest.raises(ValueError):
        overhead_verdict([1.0] * (MIN_PAIRS - 1), [1.0] * (MIN_PAIRS - 1),
                         2.0, 0.05)
    with pytest.raises(ValueError):
        overhead_verdict([1.0] * MIN_PAIRS, [1.0] * (MIN_PAIRS + 1), 2.0, 0.05)
