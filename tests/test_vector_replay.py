"""Tests for the vectorized epoch-batched replay engine.

``replay_trace`` lowers each program into per-pc tables and each trace into
one variant-selector byte per retired instruction, and executes uncore-free
epochs inside a C kernel (running the program execution-driven instead
when no kernel can be built).  It must be bit-identical to execution —
cycles, full energy breakdown, phase cycles, memory stats and per-core
results — at the capture config and under re-timing.

The engine leans on the batched predictor update (``update_batch``) and
on the shared ordered energy reduction (``EnergyModel.energy_terms``); the
randomized equivalence suites here pin each of those against its scalar
counterpart (the cache's batched settle and snoops are pinned in
``tests/test_cache.py``).
"""

import dataclasses
import random

import pytest

from repro import obs
from repro.cpu.branch_predictor import HybridBranchPredictor
from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.harness.config import PTLSIM_CONFIG
from repro.harness.runner import run_workload
from repro.mem.cache import Cache
from repro.trace import (
    capture_micro,
    capture_workload,
    execute_key,
    replay_trace,
)
from repro.workloads import BENCHMARK_ORDER


def _machine(cores, **overrides):
    return dataclasses.replace(PTLSIM_CONFIG, num_cores=cores).with_overrides(
        overrides)


def _assert_same_run(a, b):
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.energy.as_dict() == b.energy.as_dict()
    assert a.sim.phase_cycles == b.sim.phase_cycles
    assert a.sim.memory_stats == b.sim.memory_stats
    if "per_core" in a.sim.core_stats or "per_core" in b.sim.core_stats:
        assert a.sim.core_stats["per_core"] == b.sim.core_stats["per_core"]


# --------------------------------------------------- vector engine == execution
@pytest.mark.parametrize("cores", [1, 2, 4])
@pytest.mark.parametrize("mode", ["hybrid", "cache"])
@pytest.mark.parametrize("workload", BENCHMARK_ORDER)
def test_vector_identical_full_tiny_matrix(workload, mode, cores):
    """Every NAS kernel x {hybrid, cache} x {1, 2, 4} cores: the vector
    engine must match the execution-driven run at the capture config (the
    small/medium-scale matrix is measured by ``bench_trace_replay.py
    --vector-speedup`` into ``BENCH_trace.json``)."""
    machine = _machine(cores)
    executed, trace = capture_workload(workload, mode, "tiny", machine=machine)
    _assert_same_run(replay_trace(trace, machine), executed)


def test_vector_identity_small_scale_spot_check():
    """One small-scale cell of the acceptance matrix runs in-tree."""
    machine = _machine(2)
    executed, mtrace = capture_workload("SP", "hybrid", "small",
                                        machine=machine)
    _assert_same_run(replay_trace(mtrace, machine), executed)


def test_vector_retime_under_ablation_overrides():
    """Re-timing is the whole point of the engine: under core, memory and
    uncore overrides the vector replay must equal execution under the same
    machine."""
    machine = _machine(2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    for overrides in ({"core.issue_width": 2},
                      {"memory.l2_size": 64 * 1024, "core.rob_size": 64},
                      {"uncore_window_cycles": 16, "uncore_window_lines": 8}):
        retimed = machine.with_overrides(overrides)
        executed = run_workload("CG", "hybrid", "tiny", machine=retimed)
        _assert_same_run(replay_trace(mtrace, retimed), executed)


def _fallback_cell(shape):
    """A captured trace, its capture run and a re-timed machine for one
    fallback shape: a single-core kernel, a 2-core kernel, or a
    microbenchmark.  The machine differs from the capture's in timing
    only."""
    retime = {"memory.l1_latency": 4, "core.issue_width": 2}
    if shape == "micro":
        captured, trace = capture_micro("RD/WR", guarded_fraction=0.5,
                                        iterations=200, unroll=4)
        return trace, captured, PTLSIM_CONFIG.with_overrides(retime)
    machine = _machine(1 if shape == "1-core" else 2)
    captured, trace = capture_workload("CG", "hybrid", "tiny",
                                       machine=machine)
    return trace, captured, machine.with_overrides(retime)


@pytest.mark.parametrize("shape", ["1-core", "2-core", "micro"])
def test_vector_without_ckernel_falls_back_to_execution(monkeypatch, shape):
    """With no C kernel (no compiler, or a failed compile) replay runs the
    trace key's program execution-driven at the requested machine:
    identical to execution there (not to the capture run), one visible
    ``degraded.vector`` event, and no derivation pass spent on the way."""
    from repro.trace import _ckernel
    trace, captured, machine = _fallback_cell(shape)
    monkeypatch.setattr(_ckernel, "load", lambda: None)
    with obs.recording() as rec:
        fallback = replay_trace(trace, machine)
    executed, _ = execute_key(trace.key, machine)
    _assert_same_run(fallback, executed)
    assert fallback.cycles != captured.cycles
    assert rec.counters["degraded.vector"] == 1
    assert [name for name in rec.counters if name.startswith("vector.")] == []


def test_ckernel_negative_compile_cache(monkeypatch, tmp_path):
    """A machine with no working compiler pays the full cc/gcc/clang probe
    once: the failure is cached as an on-disk marker next to the .so cache,
    and later compiles skip the probe until the marker is deleted."""
    from repro.trace import _ckernel

    monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(tmp_path / "cc-cache"))
    calls = []

    def failing_run(argv, **kwargs):
        calls.append(argv[0])
        raise OSError("no such compiler")

    monkeypatch.setattr(_ckernel.subprocess, "run", failing_run)
    assert _ckernel._compile() is None
    assert calls == ["cc", "gcc", "clang"]  # the full probe ran, once
    (marker,) = (tmp_path / "cc-cache").glob("vrkernel-*.failed")
    assert "no such compiler" in marker.read_text()
    calls.clear()
    assert _ckernel._compile() is None      # negative hit: no probe at all
    assert calls == []
    marker.unlink()                         # deleting the marker retries
    assert _ckernel._compile() is None
    assert calls == ["cc", "gcc", "clang"]


def test_ckernel_cache_key_covers_the_flags(monkeypatch, tmp_path):
    """The compile cache names a library by its source *and* its compiler
    flags: after a flag change the kernel is rebuilt with the new flags
    instead of a library built with the old ones being loaded."""
    from repro.trace import _ckernel

    monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(tmp_path))
    flags = _ckernel._CFLAGS
    changed = tuple(f for f in flags if f != "-ffp-contract=off")
    assert _ckernel._cache_stem(flags) != _ckernel._cache_stem(changed)
    assert _ckernel._cache_stem(flags) != _ckernel._cache_stem(
        flags + ("-O3",))
    assert _ckernel._cache_stem(flags) == _ckernel._cache_stem(tuple(flags))
    argvs = []

    def failing_run(argv, **kwargs):
        argvs.append(argv)
        raise OSError("no such compiler")

    monkeypatch.setattr(_ckernel.subprocess, "run", failing_run)
    # A library built with the old flags sits in the cache.
    open(_ckernel._cache_stem(flags) + ".so", "w").close()
    monkeypatch.setattr(_ckernel, "_CFLAGS", changed)
    assert _ckernel._compile() is None      # the old .so is not loaded
    assert argvs and all(argv[1:1 + len(changed)] == list(changed)
                         for argv in argvs)
    (marker,) = tmp_path.glob("vrkernel-*.failed")
    assert str(marker) == _ckernel._cache_stem(changed) + ".failed"


def test_ckernel_compiles_warning_free(tmp_path):
    """The kernel source compiles with every warning an error, under the
    flag identity depends on."""
    import shutil
    import subprocess

    from repro.trace import _ckernel

    cc = next((c for c in ("cc", "gcc", "clang") if shutil.which(c)), None)
    if cc is None:
        pytest.skip("no C compiler")
    src = tmp_path / "vrkernel.c"
    src.write_text(_ckernel._C_SOURCE)
    proc = subprocess.run(
        [cc, "-O2", "-shared", "-fPIC", "-Wall", "-Wextra", "-Werror",
         "-ffp-contract=off", "-o", str(tmp_path / "vrkernel.so"),
         str(src)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("shape", ["1-core", "2-core"])
def test_kernel_allocation_failure_degrades_to_execution(monkeypatch,
                                                         shape):
    """A kernel that cannot grow a table returns -1 from its one entry
    point.  A stub that fails at the first event makes replay record
    ``degraded.vector`` and run execution-driven, equal to execution."""
    from repro.trace import _ckernel

    real = _ckernel.load()
    if real is None:
        pytest.skip("no C kernel")

    calls = []

    class FailingKernel:
        new, free = real.new, real.free

        @staticmethod
        def run(ptr, result):
            i = real.run(ptr, result)
            calls.append(i)
            return -1 if len(calls) == 1 else i

    trace, _, machine = _fallback_cell(shape)
    monkeypatch.setattr(_ckernel, "load", lambda: FailingKernel)
    from repro.trace import artifacts
    with artifacts.scoped(disabled=True), obs.recording() as rec:
        replayed = replay_trace(trace, machine)
    executed, _ = execute_key(trace.key, machine)
    _assert_same_run(replayed, executed)
    assert rec.counters["degraded.vector"] == 1
    assert calls[0] >= 0        # the first call stopped at an event


def test_vector_rejects_unknown_engine():
    machine = _machine(2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    for engine in ("epoch", "fused"):
        with pytest.raises(ValueError, match="unknown replay engine"):
            replay_trace(mtrace, machine, engine=engine)


# ------------------------------------------- batched structure update equivalence
def test_predictor_update_batch_matches_sequential_randomized():
    rng = random.Random(20260809)
    for trial in range(25):
        batched = HybridBranchPredictor(entries=64, history_bits=8)
        sequential = HybridBranchPredictor(entries=64, history_bits=8)
        pcs = [rng.randrange(0, 512) for _ in range(300)]
        outcomes = [rng.random() < 0.7 for _ in range(300)]
        assert batched.update_batch(pcs, outcomes) == \
            [sequential.update(pc, t) for pc, t in zip(pcs, outcomes)]
        assert batched.history == sequential.history
        assert (batched.predictions, batched.mispredictions) == \
            (sequential.predictions, sequential.mispredictions)
        assert batched.gshare.counters == sequential.gshare.counters
        assert batched.bimodal.counters == sequential.bimodal.counters
        assert batched.selector.counters == sequential.selector.counters


# ------------------------------------------------------- ordered energy reduction
def test_energy_compute_is_left_fold_of_energy_terms():
    """``compute()`` must be exactly the left-fold of ``energy_terms()`` —
    the one accumulation order all engines share.  Any per-epoch partial
    summing would show up here as an ULP difference."""
    result = run_workload("CG", "hybrid", "tiny")
    model = EnergyModel()
    folded = EnergyBreakdown()
    for component, value in model.energy_terms(result.sim):
        setattr(folded, component, getattr(folded, component) + value)
    computed = model.compute(result.sim)
    assert computed.as_dict() == folded.as_dict()
    # The terms carry the whole breakdown: nothing accumulates outside them.
    assert {c for c, _ in model.energy_terms(result.sim)} \
        <= {"cpu", "caches", "lm", "directory", "prefetcher", "dma", "bus",
            "dram"}
