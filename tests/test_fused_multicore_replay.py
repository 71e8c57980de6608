"""Tests for the fused multicore replay engine and the uncore hot path.

The fused engine (one :class:`repro.trace.replay._FusedLane` per core,
interleaved by :func:`repro.cpu.multicore.run_resumable_lanes`) must be
indistinguishable from execution-driven simulation (one
:class:`repro.cpu.executor.ExecutionLane` per core under the same
scheduler): cycles, energy, per-core results
and uncore queue statistics, at the capture config and re-timed under
timing-parameter overrides (the uncore window knobs included).  The optimized :meth:`repro.mem.uncore.Uncore.acquire` must be
decision-for-decision identical to the reference per-window walk.
"""

import dataclasses
import os
import random
import subprocess
import sys

import pytest

from repro.harness.config import PTLSIM_CONFIG
from repro.harness.runner import run_workload
from repro.mem.uncore import Uncore
from repro.trace import (
    ReplayValidityError,
    TraceError,
    capture_workload,
    parse_trace_bytes,
    replay_trace,
)


def _machine(cores, **overrides):
    return dataclasses.replace(PTLSIM_CONFIG, num_cores=cores).with_overrides(
        overrides)


def _assert_same_run(a, b):
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.energy.as_dict() == b.energy.as_dict()
    assert a.sim.phase_cycles == b.sim.phase_cycles
    assert a.sim.memory_stats == b.sim.memory_stats
    assert a.sim.core_stats["per_core"] == b.sim.core_stats["per_core"]


# ----------------------------------------- fused engine == execution lane runner
@pytest.mark.parametrize("mode", ["hybrid", "hybrid-oracle", "cache"])
@pytest.mark.parametrize("cores", [2, 4])
def test_fused_identical_to_lane_replay(mode, cores):
    """The fused engine must match the execution-driven lane runner on every
    observable: cycles, energy, per-core results, and the shared uncore's
    queue statistics (same arbitration decisions, not just same totals)."""
    machine = _machine(cores)
    executed, mtrace = capture_workload("CG", mode, "tiny", machine=machine)
    fused = replay_trace(parse_trace_bytes(mtrace.to_bytes()), machine)
    _assert_same_run(fused, executed)
    uncore_f = fused.sim.memory_stats["uncore"]
    uncore_x = executed.sim.memory_stats["uncore"]
    assert uncore_f == uncore_x
    assert uncore_f["requests"] > 0


def test_fused_replay_makes_no_per_access_system_calls(monkeypatch):
    """Fused replay resolves guarded accesses, plain SM accesses and
    branches inline: no ``HybridSystem.load``/``store``, no
    ``GuardedAGU.generate``, no predictor ``update`` runs, and each DMA
    transfer snoops the caches with one call."""
    from collections import Counter

    from repro.core.guarded import GuardedAGU
    from repro.core.hybrid import HybridSystem
    from repro.cpu.branch_predictor import HybridBranchPredictor
    from repro.mem.hierarchy import MemoryHierarchy

    machine = _machine(2)
    executed, mtrace = capture_workload("CG", "hybrid", "tiny",
                                        machine=machine)
    calls = Counter()
    for cls, name in ((HybridSystem, "load"), (HybridSystem, "store"),
                      (GuardedAGU, "generate"),
                      (HybridBranchPredictor, "update"),
                      (MemoryHierarchy, "snoop_read_lines"),
                      (MemoryHierarchy, "snoop_invalidate_lines")):
        def counting(*args, _real=getattr(cls, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(cls, name, counting)
    fused = replay_trace(mtrace, machine)
    _assert_same_run(fused, executed)
    assert calls["load"] == calls["store"] == 0
    assert calls["generate"] == calls["update"] == 0
    stats = fused.sim.memory_stats
    assert stats["guarded_loads"] > 0 and stats["dma"]["gets"] > 0
    assert calls["snoop_read_lines"] == stats["dma"]["gets"]
    assert calls["snoop_invalidate_lines"] == stats["dma"]["puts"]


def test_fused_identity_small_scale_spot_check():
    """One small-scale cell of the acceptance matrix runs in-tree (the full
    six-kernel matrix is measured by ``bench_multicore.py`` into
    ``BENCH_multicore.json``)."""
    machine = _machine(2)
    executed, mtrace = capture_workload("SP", "hybrid", "small",
                                        machine=machine)
    _assert_same_run(replay_trace(mtrace, machine), executed)


def test_fused_retime_under_uncore_knob_overrides():
    """Re-timing under uncore bandwidth overrides must equal execution under
    the same machine — the whole point of making the uncore knobs sweepable
    from one capture."""
    machine = _machine(2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    for overrides in ({"uncore_window_lines": 1},
                      {"uncore_window_cycles": 16, "uncore_window_lines": 8}):
        narrow = machine.with_overrides(overrides)
        retimed = replay_trace(mtrace, narrow)
        executed = run_workload("CG", "hybrid", "tiny", machine=narrow)
        _assert_same_run(retimed, executed)


def test_fused_retime_under_core_and_memory_overrides():
    machine = _machine(2)
    _, mtrace = capture_workload("SP", "hybrid", "tiny", machine=machine)
    narrow = machine.with_overrides({"core.issue_width": 2,
                                     "memory.l2_size": 64 * 1024})
    retimed = replay_trace(mtrace, narrow)
    executed = run_workload("SP", "hybrid", "tiny", machine=narrow)
    _assert_same_run(retimed, executed)


# --------------------------------------------------------------- validity gates
def test_fused_refuses_wrong_core_count():
    machine = _machine(2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    for engine in ("fused", "vector"):
        with pytest.raises(ReplayValidityError):
            replay_trace(mtrace, PTLSIM_CONFIG, engine=engine)
        with pytest.raises(ReplayValidityError):
            replay_trace(mtrace, _machine(4), engine=engine)


def test_fused_rejects_unknown_engine():
    machine = _machine(2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    for engine in ("warp", "lanes"):
        with pytest.raises(ValueError, match="unknown replay engine"):
            replay_trace(mtrace, machine, engine=engine)


def test_fused_detects_stale_core_fingerprint():
    machine = _machine(2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    mtrace.cores[1].program_fingerprint = "0" * 16
    for engine in ("fused", "vector"):
        with pytest.raises(TraceError, match="core 1"):
            replay_trace(mtrace, machine, engine=engine)


# ------------------------------------------------------------ caching behaviour
def test_multicore_replay_decodes_each_stream_once(monkeypatch):
    """A replay sweep over one multicore trace walks each per-core stream
    exactly once: the decode cache is keyed by stream content, so a second
    replay (or a reparse of the same RPMT bytes) pays no second walk.

    The on-disk artifact tier is disabled here: this test pins the
    *in-memory* dedup, and a warm decode artifact would (correctly) drop the
    walk count to zero (``tests/test_artifact_cache.py`` covers that path).
    """
    import repro.trace.replay as replay_mod
    from repro.trace import artifacts
    machine = _machine(2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    replay_mod._DECODE_CACHE.clear()
    calls = []
    real = replay_mod._decode_trace

    def counting(trace, hot, cold, fu_values):
        calls.append(trace.key.params)
        return real(trace, hot, cold, fu_values)

    monkeypatch.setattr(replay_mod, "_decode_trace", counting)
    with artifacts.scoped(disabled=True):
        replay_trace(mtrace, machine)
        assert len(calls) == 2                  # one walk per core stream
        replay_trace(mtrace, machine)           # second replay: all cached
        replay_trace(parse_trace_bytes(mtrace.to_bytes()), machine)  # reparse
    assert len(calls) == 2


def test_capture_precomputes_stream_digest():
    machine = _machine(2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    for core_trace in mtrace.cores:
        assert core_trace._stream_digest is not None
    # The digest survives a serialisation round-trip as the same value.
    again = parse_trace_bytes(mtrace.to_bytes())
    assert [t.stream_digest() for t in again.cores] == \
        [t.stream_digest() for t in mtrace.cores]
    assert again.container_digest() == mtrace.container_digest()


def test_stream_digest_tracks_content():
    machine = _machine(2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    a, b = mtrace.cores
    assert a.stream_digest() != b.stream_digest()   # different shard streams
    mutated = parse_trace_bytes(mtrace.to_bytes())
    mutated.cores[0].mem_addrs[0] ^= 0x40
    assert mutated.cores[0].stream_digest() != a.stream_digest()


# ------------------------------------------------------- cross-process identity
def test_fused_multicore_deterministic_across_processes():
    """The fused engine's numbers must not depend on the interpreter hash
    seed (mirrors the single-core and sweep determinism tests)."""
    script = (
        "import dataclasses;"
        "from repro.harness.config import PTLSIM_CONFIG;"
        "from repro.trace import capture_workload, replay_trace;"
        "m = dataclasses.replace(PTLSIM_CONFIG, num_cores=2);"
        "_, t = capture_workload('CG', 'hybrid', 'tiny', machine=m);"
        "r = replay_trace(t, m);"
        "print(r.cycles, r.total_energy, sorted(r.energy.as_dict().items()))")
    outputs = set()
    for seed in ("1", "27"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(os.path.dirname(__file__), os.pardir, "src"),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        outputs.add(proc.stdout.strip())
    assert len(outputs) == 1, f"nondeterministic across processes: {outputs}"


# ----------------------------------------------------------- uncore fast path
class _ReferenceUncore(Uncore):
    """The pre-optimization per-window walk, as the equivalence oracle."""

    def acquire(self, now, lines=1):
        if lines <= 0:
            return 0.0
        windows = self._windows
        capacity = self.window_lines
        w = int(now) // self.window_cycles
        if w < self._frontier:
            w = self._frontier
        while windows.get(w, 0) >= capacity:
            w += 1
        start_window = w
        remaining = lines
        while remaining > 0:
            used = windows.get(w, 0)
            free = capacity - used
            if free > 0:
                take = free if free < remaining else remaining
                windows[w] = used + take
                remaining -= take
            w += 1
        frontier = self._frontier
        while windows.get(frontier, 0) >= capacity:
            del windows[frontier]
            frontier += 1
        self._frontier = frontier
        start = start_window * self.window_cycles
        delay = start - now if start > now else 0.0
        self.requests += 1
        self.lines_requested += lines
        if delay > 0.0:
            self.contended_requests += 1
            self.queue_delay_cycles += delay
        return delay


def test_uncore_acquire_matches_reference_walk():
    """The O(1) frontier bulk claim must reproduce the reference per-window
    walk decision for decision over adversarial request sequences
    (non-monotonic clocks, mixed burst sizes, varying window shapes)."""
    rng = random.Random(20260731)
    for trial in range(60):
        wc = rng.choice([1, 2, 4, 8])
        wl = rng.choice([1, 2, 3, 8])
        fast = Uncore(window_cycles=wc, window_lines=wl)
        ref = _ReferenceUncore(window_cycles=wc, window_lines=wl)
        t = 0.0
        for step in range(150):
            t = max(0.0, t + rng.choice([-5.0, -1.0, 0.0, 0.25, 1.0,
                                         3.0, 40.0, 250.0]))
            lines = rng.choice([1, 1, 1, 2, 5, 16, 64, 128])
            assert fast.acquire(t, lines) == ref.acquire(t, lines), \
                (trial, step, t, lines)
        assert fast.stats_summary() == ref.stats_summary()
        # The claimed-slot state must agree too: identical follow-up probes.
        for _ in range(40):
            probe = rng.uniform(0.0, 500.0)
            assert fast.acquire(probe, 1) == ref.acquire(probe, 1)


def test_uncore_burst_at_frontier_stores_no_full_windows():
    """The contended steady state (claims at the bandwidth frontier) must
    not materialise one dict entry per window of a long burst."""
    uncore = Uncore(window_cycles=4, window_lines=2)
    assert uncore.acquire(0.0, lines=128) == 0.0
    assert len(uncore._windows) == 0            # 64 full windows, all implicit
    assert uncore._frontier == 64
    delay = uncore.acquire(0.0, lines=1)
    assert delay == 64 * 4.0                    # queued behind the burst
