"""Tests of the trace capture & replay subsystem: capture→replay cycle
identity across the NAS matrix, trace format/store round-trips,
cross-process trace-hash determinism, replay validity checking, and the
sweep-engine integration (kind="replay" cells, --replay / --stats / --prune
CLI).  Mirrors the structure of ``tests/test_sweep_engine.py``."""

import json
import os
import random
import struct
import subprocess
import sys
from array import array

import pytest

from repro.harness.config import PTLSIM_CONFIG
from repro.harness.experiments import MACHINE_ABLATION_POINTS
from repro.harness.runner import run_program, run_workload
from repro.harness.sweep import (
    STORE_SCHEMA,
    ResultStore,
    RunSpec,
    SweepContext,
    execute_spec,
    main as sweep_main,
    run_sweep,
)
from repro.trace import (
    REPLAY_ENGINES,
    TRACE_SCHEMA,
    EphemeralTraceStore,
    ReplayValidityError,
    Trace,
    TraceError,
    TraceKey,
    TraceStore,
    capture_micro,
    capture_workload,
    replay_trace,
    run_replay_spec,
)
from repro.trace.__main__ import main as trace_main
from repro.trace.format import TRACE_MAGIC, pack_bits
from repro.workloads import BENCHMARK_ORDER


def _flat_bytes(trace):
    """Size of the stream stored flat: packed branch bits plus one u64 per
    address and per DMA operand (the header is left out)."""
    return len(trace.branch_bits) + 8 * (len(trace.mem_addrs)
                                         + len(trace.dma_words))


def _write_schema1_header(path):
    """A file that stamps trace schema 1: header only, as prune reads it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(TRACE_MAGIC + struct.pack("<HI", 1, 2) + b"{}")


def _assert_identical(executed, replayed):
    """Replay must be cycle-, activity- and energy-identical to execution."""
    assert replayed.cycles == executed.cycles
    assert replayed.instructions == executed.instructions
    assert replayed.sim.phase_cycles == executed.sim.phase_cycles
    assert replayed.sim.mispredictions == executed.sim.mispredictions
    assert replayed.sim.branch_predictions == executed.sim.branch_predictions
    assert replayed.sim.memory_stats == executed.sim.memory_stats
    assert replayed.sim.core_stats == executed.sim.core_stats
    assert replayed.energy.as_dict() == executed.energy.as_dict()


# --------------------------------------------------- capture -> replay identity
@pytest.mark.parametrize("workload", BENCHMARK_ORDER)
@pytest.mark.parametrize("mode", ["hybrid", "cache"])
def test_replay_cycle_identical_at_capture_config_small(workload, mode):
    """Acceptance: replay at the capture machine config is cycle- and
    energy-identical to execution-driven simulation for every NAS workload
    in both the hybrid and cache machines at scale=small."""
    executed, trace = capture_workload(workload, mode, "small")
    replayed = replay_trace(trace)
    _assert_identical(executed, replayed)


@pytest.mark.parametrize("mode", ["hybrid-oracle", "hybrid-naive"])
def test_replay_cycle_identical_other_modes(mode):
    executed, trace = capture_workload("CG", mode, "tiny")
    _assert_identical(executed, replay_trace(trace))


def test_replay_micro_cycle_identical():
    executed, trace = capture_micro("RD/WR", guarded_fraction=0.5,
                                    iterations=200, unroll=4)
    _assert_identical(executed, replay_trace(trace))


def test_micro_needs_a_coherence_directory():
    """The microbenchmark configures the directory, so the cache-based
    system is refused at spec time by every entry point, naming the modes
    that have one; hybrid-oracle (a directory, no guard energy) runs."""
    for start in (lambda: capture_micro("baseline", 0.0, 100, 20,
                                        system_mode="cache"),
                  lambda: SweepContext().micro_spec("baseline", 0.0, 100, 20,
                                                    system_mode="Cache")):
        with pytest.raises(ValueError, match="hybrid-oracle"):
            start()
    executed, trace = capture_micro("baseline", 0.0, 100, 20,
                                    system_mode="hybrid-oracle")
    assert executed.cycles == 476.25
    _assert_identical(executed, replay_trace(trace))


def test_replay_matches_execution_under_timing_overrides():
    """Re-timing a trace under machine overrides must equal execution-driven
    simulation under the same overrides (the whole point of the subsystem)."""
    overrides = {"memory.l2_size": 64 * 1024, "memory.memory_latency": 300,
                 "core.issue_width": 2, "memory.prefetch_enabled": False}
    machine = PTLSIM_CONFIG.with_overrides(overrides)
    _, trace = capture_workload("IS", "hybrid", "tiny")
    replayed = replay_trace(trace, machine)
    executed = run_workload("IS", mode="hybrid", scale="tiny", machine=machine)
    _assert_identical(executed, replayed)


def test_replay_is_deterministic_across_repeats():
    _, trace = capture_workload("CG", "hybrid", "tiny")
    first = replay_trace(trace)
    second = replay_trace(trace)
    _assert_identical(first, second)


# ----------------------------------------------------------- validity checking
def test_replay_rejects_functional_overrides():
    _, trace = capture_workload("CG", "hybrid", "tiny")
    with pytest.raises(ReplayValidityError):
        replay_trace(trace, PTLSIM_CONFIG.with_overrides({"lm_size": 16 * 1024}))
    with pytest.raises(ReplayValidityError):
        replay_trace(trace,
                     PTLSIM_CONFIG.with_overrides({"directory_entries": 8}))


def test_replay_detects_stale_program_fingerprint():
    _, trace = capture_workload("CG", "hybrid", "tiny")
    trace.program_fingerprint = "0" * 16
    with pytest.raises(TraceError):
        replay_trace(trace)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("mutation", ["flip", "drop"])
def test_replay_rejects_a_mutated_branch_stream(mutation, where):
    """The block-walking decode still notices one branch outcome flipped or
    dropped: the walk runs off the program or leaves events unconsumed."""
    import dataclasses

    from repro.trace import artifacts

    _, trace = capture_workload("CG", "hybrid", "tiny")
    outcomes = trace.branch_outcomes()
    k = {"first": 0, "middle": len(outcomes) // 2,
         "last": len(outcomes) - 1}[where]
    if mutation == "flip":
        outcomes[k] = not outcomes[k]
    else:
        del outcomes[k]
    bad = dataclasses.replace(trace, branch_bits=pack_bits(outcomes),
                              branch_count=len(outcomes),
                              _stream_digest=None)
    with artifacts.scoped(disabled=True):
        with pytest.raises(TraceError, match="ran off|unconsumed"):
            replay_trace(bad)


@pytest.mark.parametrize("engine", REPLAY_ENGINES)
@pytest.mark.parametrize("count", ["-1", "-2", "0"])
def test_replay_rejects_a_stream_that_stops_before_its_program(count,
                                                               engine):
    """Execution stops only at a retired halt or past the last pc: a stream
    cut short by one or two instructions, or holding none at all, does not
    match the rebuilt program."""
    import dataclasses

    from repro.trace import artifacts

    _, trace = capture_workload("CG", "hybrid", "tiny")
    if count == "0":
        bad = dataclasses.replace(trace, instructions=0, branch_count=0,
                                  branch_bits=b"", mem_addrs=array("Q"),
                                  dma_words=array("q"), mem_pcs=array("I"),
                                  _stream_digest=None)
    else:
        bad = dataclasses.replace(trace,
                                  instructions=trace.instructions
                                  + int(count), _stream_digest=None)
    with artifacts.scoped(disabled=True):
        with pytest.raises(TraceError, match="ran off"):
            replay_trace(bad, engine=engine)


def _aliasing_kernel(target):
    """The Figure 2 kernel of ``examples/aliasing_kernel.py``: streams
    through LM-mapped arrays, an SM store, then ``ptr[idx[i]] += 1``
    through a pointer the compiler cannot disambiguate.  With ``target="a"`` (LM-mapped) the
    pointer's guarded accesses hit the directory; with ``"c"`` (never
    mapped) they miss."""
    import numpy as np

    from repro.compiler.ir import (AffineIndex, ArraySpec, Assign, BinOp,
                                   Const, IndirectIndex, Kernel, Load, Loop,
                                   ModuloIndex, PointerSpec, Ref)
    n = 256
    rng = np.random.default_rng(2012)
    kernel = Kernel("figure2")
    kernel.add_array(ArraySpec("a", n))
    kernel.add_array(ArraySpec("b", n, data=rng.random(n)))
    kernel.add_array(ArraySpec("c", n, mappable=False))
    kernel.add_array(ArraySpec("idx", n,
                               data=rng.integers(0, n, n).astype(float)))
    kernel.add_pointer(PointerSpec("ptr", actual_target=target,
                                   declared_targets=None))
    loop = Loop("i", 0, n)
    loop.body.append(Assign(Ref("a", AffineIndex()),
                            Load(Ref("b", AffineIndex()))))
    loop.body.append(Assign(Ref("c", ModuloIndex(17, n)), Const(0.0)))
    ptr_ref = Ref("ptr", IndirectIndex("idx"))
    loop.body.append(Assign(ptr_ref, BinOp("+", Load(ptr_ref), Const(1.0))))
    kernel.add_loop(loop)
    return kernel


def _replay_of(program, trace, machine, engine):
    """Replay of a captured hand-built program on ``engine`` (replay_trace
    rebuilds programs by key, which a hand-built kernel has not): the one
    replay driver, fed the program entry ``_cached_programs`` would build."""
    import repro.trace.replay as replay_mod
    from repro.trace import _ckernel, artifacts
    from repro.trace.format import program_fingerprint

    assert engine in REPLAY_ENGINES
    kern = _ckernel.load()
    if kern is None:
        pytest.skip("no C kernel: replay would run the program instead")
    entry = ((program, None) + replay_mod._program_meta(program)
             + (program_fingerprint(program),))
    with artifacts.scoped(disabled=True):
        result = replay_mod._replay(trace.key, [(trace, entry)], machine,
                                    kern)
    return result.sim, result.system


@pytest.mark.parametrize("engine", REPLAY_ENGINES)
@pytest.mark.parametrize("mode,target", [("hybrid", "a"), ("hybrid", "c"),
                                         ("hybrid-oracle", "a")])
def test_fused_timing_only_accesses_match_execution(mode, target, engine):
    """Guarded accesses that hit and miss the directory, and oracle-divert
    accesses that hit it, take the vector engine's guard and divert routes
    (the fused engine, for which the test is named, had a timing-only path
    for them); the result equals execution at the capture machine and
    re-timed at another."""
    from repro.harness.runner import run_kernel
    from repro.trace.capture import TraceRecorder
    from repro.trace.format import TraceKey, program_fingerprint

    recorder = TraceRecorder()
    executed = run_kernel(_aliasing_kernel(target), mode=mode,
                          recorder=recorder)
    program = executed.compiled.program
    trace = recorder.finish(
        TraceKey.create("figure2", mode, "-", kind="kernel",
                        lm_size=PTLSIM_CONFIG.lm_size,
                        directory_entries=PTLSIM_CONFIG.directory_entries),
        program_fingerprint(program))
    stats = executed.sim.memory_stats
    if mode == "hybrid":
        assert stats["guarded_loads"] and stats["guarded_stores"]
        directory = stats["directory"]
        assert directory["hits" if target == "a" else "misses"] > 0
    else:
        assert stats["lm_reads"] > 0 and stats["directory"]["lookups"] == 0
    retimed = PTLSIM_CONFIG.with_overrides({"memory.l1_latency": 4,
                                            "core.issue_width": 2})
    for machine, expected in ((PTLSIM_CONFIG, executed.sim),
                              (retimed, run_kernel(_aliasing_kernel(target),
                                                   mode=mode,
                                                   machine=retimed).sim)):
        replayed, _ = _replay_of(program, trace, machine, engine)
        assert replayed.cycles == expected.cycles
        assert replayed.phase_cycles == expected.phase_cycles
        assert replayed.mispredictions == expected.mispredictions
        assert replayed.memory_stats == expected.memory_stats
        assert replayed.core_stats == expected.core_stats


def _in_flight_dma_program():
    """A hand-built program whose guarded and oracle-divert accesses hit a
    buffer while its dma-get is still in flight (the presence-bit stall of
    Section 3.2), then miss the directory, collapse a double store and hit
    again after the dma-sync."""
    from repro.harness.systems import build_system
    from repro.isa.builder import ProgramBuilder
    from repro.isa.instructions import Opcode

    b = ProgramBuilder()
    b.declare_array("a", 128, alignment=1024)
    b.declare_array("c", 16)
    b.set_bufsize(1024)
    b.li("r_lm", 0)             # patched below: LM virtual base, a, c
    b.li("r_a", 0)
    b.li("r_c", 0)
    b.li("r_size", 1024)
    b.li("f0", 1.0)
    b.dma_get("r_lm", "r_a", "r_size", tag=1)
    b.gld("f1", "r_a", 8)
    b.gst("f0", "r_a", 16)
    b.gld("f2", "r_a", 24)
    b.ld("f3", "r_a", 32, oracle_divert=True)
    b.st("f3", "r_a", 40, oracle_divert=True)
    b.gld("f4", "r_c", 0)
    b.gst("f4", "r_c", 8)
    b.st("f4", "r_c", 8, collapse_with_prev=True)
    b.ld("f5", "r_c", 16, oracle_divert=True)
    b.dma_sync(1)
    b.gld("f6", "r_a", 48)
    b.gst("f6", "r_a", 56)
    b.halt()
    program = b.finish()
    program.assign_addresses()
    bases = {"r_lm": build_system("hybrid", PTLSIM_CONFIG).lm_virtual_base,
             "r_a": program.arrays["a"].base, "r_c": program.arrays["c"].base}
    for inst in program.instructions:
        if inst.opcode is Opcode.LI and inst.dst in bases:
            inst.imm = bases[inst.dst]
    return program


@pytest.mark.parametrize("engine", REPLAY_ENGINES)
def test_fused_guarded_accesses_match_system_calls_under_presence_stall(
        engine):
    """The vector engine's guard route with its in-kernel presence bits,
    and its oracle-divert route, against the ``HybridSystem.load``/``store``
    calls execution makes: accesses that hit a buffer still being filled
    stall on its presence bit, and latency, stall, directory, AGU and LM
    counters all agree, at the capture machine and with a slower DMA
    engine."""
    from repro.trace.capture import TraceRecorder
    from repro.trace.format import program_fingerprint

    program = _in_flight_dma_program()
    recorder = TraceRecorder()
    executed = run_program(program, mode="hybrid", recorder=recorder)
    trace = recorder.finish(
        TraceKey.create("stall", "hybrid", "-", kind="kernel",
                        lm_size=PTLSIM_CONFIG.lm_size,
                        directory_entries=PTLSIM_CONFIG.directory_entries),
        program_fingerprint(program))
    slower = PTLSIM_CONFIG.with_overrides({"dma_setup_latency": 300,
                                           "memory.l1_latency": 4})
    for machine, reference in ((PTLSIM_CONFIG, executed),
                               (slower, run_program(program, mode="hybrid",
                                                    machine=slower))):
        replayed, system = _replay_of(program, trace, machine, engine)
        real = reference.system
        directory = reference.sim.memory_stats["directory"]
        assert directory["presence_stalls"] == 3
        assert directory["hits"] == 5 and directory["misses"] == 2
        assert real.collapsed_stores == 1
        assert (real.agu.diverted_loads, real.agu.diverted_stores) == (3, 2)
        assert real.lm.reads > real.agu.diverted_loads     # divert-load hit
        assert replayed.cycles == reference.sim.cycles
        assert replayed.phase_cycles == reference.sim.phase_cycles
        assert replayed.memory_stats == reference.sim.memory_stats
        assert replayed.core_stats == reference.sim.core_stats
        assert system.total_mem_latency == real.total_mem_latency
        assert vars(system.directory.stats) == vars(real.directory.stats)
        for name in ("guarded_loads", "guarded_stores", "diverted_loads",
                     "diverted_stores"):
            assert getattr(system.agu, name) == getattr(real.agu, name)
        assert (system.lm.reads, system.lm.writes) == (real.lm.reads,
                                                        real.lm.writes)
        assert (system._last_store_addr, system._last_store_to_sm) == (
            real._last_store_addr, real._last_store_to_sm)


def test_no_cache_replay_sweep_touches_no_disk(tmp_path, monkeypatch):
    """A store-less sweep over replay cells must not create a trace store
    (regression: it used to write $REPRO_CACHE_DIR/traces)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = RunSpec.create("CG", "hybrid", "tiny", kind="replay")
    (record,) = run_sweep([spec], store=None)
    assert record.cycles > 0
    assert not (tmp_path / "cache").exists()


def test_replay_spec_normalises_workload_like_kernel():
    a = RunSpec.create("cg", "Hybrid", "TINY", kind="replay")
    b = RunSpec.create("CG", "hybrid", "tiny", kind="replay")
    assert a == b and a.workload == "CG"
    assert a.spec_hash == b.spec_hash


# ------------------------------------------------------- format / store plumbing
def test_trace_roundtrips_through_bytes():
    _, trace = capture_workload("CG", "hybrid", "tiny")
    again = Trace.from_bytes(trace.to_bytes())
    assert again.key == trace.key
    assert again.program_fingerprint == trace.program_fingerprint
    assert again.instructions == trace.instructions
    assert again.branch_outcomes() == trace.branch_outcomes()
    assert list(again.mem_addrs) == list(trace.mem_addrs)
    assert list(again.mem_pcs) == list(trace.mem_pcs)
    assert list(again.dma_words) == list(trace.dma_words)
    assert again.content_hash == trace.content_hash


def test_trace_store_roundtrip_and_corruption(tmp_path):
    store = TraceStore(tmp_path)
    _, trace = capture_workload("CG", "hybrid", "tiny")
    assert store.get(trace.key) is None
    path = store.put(trace)
    fresh = TraceStore(tmp_path)
    cached = fresh.get(trace.key)
    assert cached is not None and cached.content_hash == trace.content_hash
    path.write_bytes(b"not a trace at all")
    broken = TraceStore(tmp_path)
    assert broken.get(trace.key) is None
    assert broken.corrupted == 1
    assert not path.exists()


def test_trace_key_separates_functional_configs():
    base = TraceKey.create("CG", "hybrid", "tiny")
    assert base.key_hash != TraceKey.create("CG", "hybrid", "tiny",
                                            lm_size=16 * 1024).key_hash
    assert base.key_hash != TraceKey.create("CG", "hybrid", "tiny",
                                            directory_entries=8).key_hash
    assert base == TraceKey.create(" cg ", "HYBRID", " Tiny ")


def test_trace_hash_deterministic_across_processes(tmp_path):
    """Mirrors the sweep engine's cross-process determinism test: the trace
    content hash must not depend on the interpreter's hash seed."""
    script = ("from repro.trace import capture_workload;"
              "r, t = capture_workload('CG', 'hybrid', 'tiny');"
              "print(t.content_hash, t.program_fingerprint)")
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


# ------------------------------------------------------------ sweep integration
def test_replay_spec_through_run_sweep_matches_execution(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    overrides = {"memory.l2_size": 64 * 1024}
    replay_spec = RunSpec.create("CG", "hybrid", "tiny", machine=overrides,
                                 kind="replay")
    kernel_spec = RunSpec.create("CG", "hybrid", "tiny", machine=overrides)
    store = ResultStore(tmp_path / "cache")
    (replayed,) = run_sweep([replay_spec], store=store)
    executed = execute_spec(kernel_spec)
    assert replayed.cycles == executed.cycles
    assert replayed.energy == executed.energy
    assert replayed.memory_stats == executed.memory_stats
    assert replayed.kind == "replay"
    assert replayed.spec_hash == replay_spec.spec_hash
    # The capture-config trace was stored alongside the result store.
    assert len(TraceStore(tmp_path / "cache")) == 1
    # A second resolution is a pure store hit.
    fresh = ResultStore(tmp_path / "cache")
    (again,) = run_sweep([replay_spec], store=fresh)
    assert fresh.hits == 1 and again.cycles == replayed.cycles


def test_run_replay_spec_returns_capture_at_base_config(tmp_path):
    spec = RunSpec.create("CG", "hybrid", "tiny", kind="replay")
    store = TraceStore(tmp_path)
    result = run_replay_spec(spec, store=store)
    executed = run_workload("CG", mode="hybrid", scale="tiny")
    _assert_identical(executed, result)
    assert len(store) == 1


def test_sweep_context_replay_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    ctx = SweepContext(scale="tiny", store=ResultStore(tmp_path / "cache"),
                       replay=True)
    record = ctx.run("CG", "hybrid")
    assert record.kind == "replay"
    plain = SweepContext(scale="tiny").run("CG", "hybrid")
    assert record.cycles == plain.cycles
    assert record.memory_stats == plain.memory_stats


# ------------------------------------------------------------------------- CLI
def test_sweep_cli_replay_matches_plain(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    base = ["--workloads", "CG", "--modes", "hybrid", "--scales", "tiny",
            "--cache-dir", cache]
    assert sweep_main(base + ["--replay"]) == 0
    replay_out = capsys.readouterr().out
    assert sweep_main(base) == 0
    plain_out = capsys.readouterr().out
    # Same cycle count printed for the replay and execution cells.
    line = next(l for l in replay_out.splitlines() if l.startswith("CG"))
    plain_line = next(l for l in plain_out.splitlines() if l.startswith("CG"))
    assert line.split()[3] == plain_line.split()[3]   # cycles column


def test_sweep_cli_stats_and_prune(tmp_path, capsys):
    import json
    cache = str(tmp_path / "cache")
    base = ["--workloads", "CG", "--modes", "hybrid", "--scales", "tiny",
            "--cache-dir", cache]
    assert sweep_main(base) == 0
    capsys.readouterr()
    assert sweep_main(["--stats", "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "1 entry" in out and "0 stale-schema" in out

    # Corrupt the schema of the stored entry: --stats reports it, --prune
    # deletes it instead of leaving a permanent dead file.
    store = ResultStore(cache)
    (entry,) = store.root.glob("*/*.json")
    payload = json.loads(entry.read_text())
    payload["schema"] = STORE_SCHEMA + 1
    entry.write_text(json.dumps(payload))
    assert sweep_main(["--stats", "--cache-dir", cache]) == 0
    assert "1 stale-schema" in capsys.readouterr().out
    assert sweep_main(base + ["--prune"]) == 0
    out = capsys.readouterr().out
    assert "pruned 1 stale/tmp store files" in out
    assert "pruned traces" in out
    # The sweep then re-simulated the cell and refilled the store with a
    # current-schema entry.
    disk = store.disk_stats()
    lifetime = disk.pop("lifetime")    # counter sidecar, covered elsewhere
    assert disk == {"entries": 1,
                    "bytes": entry.stat().st_size,
                    "stale_schema": 0,
                    "tmp_files": 0}
    assert lifetime["writes"] >= 1


def test_trace_cli_capture_replay_ls(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    common = ["--workload", "CG", "--mode", "hybrid", "--scale", "tiny"]
    assert trace_main(["capture", *common]) == 0
    out = capsys.readouterr().out
    assert "artifact" in out
    assert trace_main(["capture", *common]) == 0
    assert "already captured" in capsys.readouterr().out
    assert trace_main(["replay", *common, "--set", "core.issue_width=2",
                       "--verify"]) == 0
    assert "cycle- and energy-identical" in capsys.readouterr().out
    assert trace_main(["ls"]) == 0
    assert "CG" in capsys.readouterr().out


# --------------------------------------------- runner record normalisation fix
def test_to_record_without_spec_is_normalised():
    """Regression: ``to_record(spec=None)`` used to emit scale="" / empty
    spec_hash / machine-independent placeholders."""
    result = run_workload("cg", mode="Hybrid", scale="TINY")
    record = result.to_record()
    assert record.workload == "CG"
    assert record.mode == "hybrid"
    assert record.scale == "tiny"
    assert record.kind == "kernel"
    assert record.spec_hash == RunSpec.create("CG", "hybrid", "tiny").spec_hash
    assert record.cycles == result.cycles


def test_to_record_program_keeps_label():
    from repro.workloads.microbenchmark import build_microbenchmark
    program = build_microbenchmark("baseline", 0.0, 50, 1)
    result = run_program(program, mode="hybrid", workload="micro-baseline")
    record = result.to_record()
    assert record.workload == "micro-baseline"
    assert record.kind == "program"
    assert record.scale == "-"
    assert record.spec_hash


# --------------------------------------------------- v2 columnar encoding
def test_v2_encoding_shrinks_traces():
    _, trace = capture_workload("MG", "hybrid", "tiny")
    flat = _flat_bytes(trace)
    v2 = len(trace.to_bytes())
    assert flat >= 3 * v2, f"v2 only {flat / v2:.2f}x smaller than flat"


def test_v2_roundtrips_single_pc_stream():
    """Regression: a trace whose memory accesses all share one static PC
    used to serialise an interleave column the reader rejects."""
    trace = Trace(key=TraceKey.create("CG", "hybrid", "tiny"),
                  program_fingerprint="0" * 16, instructions=4,
                  branch_count=0,
                  mem_addrs=array("Q", [64, 128, 192, 256]),
                  mem_pcs=array("I", [5, 5, 5, 5]))
    again = Trace.from_bytes(trace.to_bytes())
    assert list(again.mem_addrs) == [64, 128, 192, 256]
    assert list(again.mem_pcs) == [5, 5, 5, 5]


def test_corrupted_interleave_raises_trace_error():
    """Regression: a corrupted stream-id column used to escape as a raw
    IndexError instead of the TraceError the store treats as a miss."""
    trace = Trace(key=TraceKey.create("CG", "hybrid", "tiny"),
                  program_fingerprint="0" * 16, instructions=2,
                  branch_count=0,
                  mem_addrs=array("Q", [64, 128]),
                  mem_pcs=array("I", [3, 7]))      # two 1-access streams
    data = bytearray(trace.to_bytes())
    (_, header_len) = struct.unpack_from("<HI", data, 4)
    ids_at = 10 + header_len                        # no branch bits
    assert data[ids_at:ids_at + 2] == b"\x00\x01"
    data[ids_at + 1] = 0                            # both ids -> stream 0
    with pytest.raises(TraceError):
        Trace.from_bytes(bytes(data))


def test_varint_column_decodes_65_bits_and_rejects_wider():
    """The writer's widest varint is a 65-bit zig-zag delta in ten bytes:
    it decodes, and anything wider is a TraceError, not a misread."""
    from repro.trace.format import _VarintColumn, _zigzag_cumsum, encode_deltas
    values = [(1 << 64) - 1, 0, 1 << 63, 5]      # deltas up to +-(2**64 - 1)
    payload = encode_deltas(values)
    low, high, end = _VarintColumn(payload).take(0, len(values))
    assert end == len(payload) and high is not None
    assert _zigzag_cumsum(low, high).tolist() == values
    for wider in (b"\xff" * 9 + b"\x04",      # bit 65 set
                  b"\x80" * 10 + b"\x00"):    # eleven bytes
        with pytest.raises(TraceError):
            _VarintColumn(wider).take(0, 1)


def test_v2_write_rejects_ragged_dma_words():
    """Regression: a dma_words length that is not a multiple of 3 used to
    serialise fine and only fail at read time (a permanently unparseable
    store artifact).  Addresses without one PC each are ragged the same
    way: the writer groups streams by PC."""
    trace = Trace(key=TraceKey.create("CG", "hybrid", "tiny"),
                  program_fingerprint="0" * 16, instructions=1,
                  branch_count=0, dma_words=array("q", [1, 2, 3, 4]))
    with pytest.raises(TraceError):
        trace.to_bytes()
    no_pcs = Trace(key=TraceKey.create("CG", "hybrid", "tiny"),
                   program_fingerprint="0" * 16, instructions=2,
                   branch_count=0, mem_addrs=array("Q", [64, 128]))
    with pytest.raises(TraceError, match="mem_pcs"):
        no_pcs.to_bytes()


def _restamp_stream_pc(data, pc):
    """Re-serialise trace bytes with every address stream's PC set to
    ``pc`` (the header length changes, so the prefix is rebuilt)."""
    (_, header_len) = struct.unpack_from("<HI", data, 4)
    header = json.loads(data[10:10 + header_len])
    for stream in header["v2"]["streams"]:
        stream["pc"] = pc
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return (data[:4] + struct.pack("<HI", 2, len(blob)) + blob
            + data[10 + header_len:])


def test_negative_stream_pc_reads_as_store_miss(tmp_path):
    """A stream stamped with PC -1 is not a valid trace: the reader raises
    TraceError for one stream or many, and the store drops the file as a
    miss so the next run recaptures."""
    key = TraceKey.create("CG", "hybrid", "tiny")
    for pcs in ([5, 5], [3, 7]):
        trace = Trace(key=key, program_fingerprint="0" * 16, instructions=2,
                      branch_count=0, mem_addrs=array("Q", [64, 128]),
                      mem_pcs=array("I", pcs))
        data = _restamp_stream_pc(trace.to_bytes(), 5)
        assert list(Trace.from_bytes(data).mem_pcs) == [5, 5]
        with pytest.raises(TraceError, match="pc out of range"):
            Trace.from_bytes(_restamp_stream_pc(trace.to_bytes(), -1))
    store = TraceStore(tmp_path)
    path = store.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(_restamp_stream_pc(trace.to_bytes(), -1))
    assert store.get(key) is None
    assert store.corrupted == 1 and not path.exists()


def test_trace_bytes_roundtrip_randomized(monkeypatch):
    """Random traces round-trip exactly through the columnar encoding:
    interleaved multi-PC streams, raw-encoded irregular streams, 65-bit
    deltas (ten-byte varints) and signed DMA operands."""
    import repro.trace.format as format_mod
    wide = []
    real_take = format_mod._VarintColumn.take

    def counting_take(self, pos, count):
        low, high, next_pos = real_take(self, pos, count)
        if high is not None:
            wide.append(count)
        return low, high, next_pos

    monkeypatch.setattr(format_mod._VarintColumn, "take", counting_take)
    rng = random.Random(1)
    encodings, multi_stream = set(), 0
    for _ in range(40):
        pcs = rng.sample(range(1 << 32), rng.randrange(1, 6))
        style = {pc: rng.choice(["stride", "random", "wide"]) for pc in pcs}
        cursor = {pc: rng.randrange(1 << 40) for pc in pcs}
        mem_pcs, mem_addrs = array("I"), array("Q")
        for _ in range(rng.randrange(0, 200)):
            pc = rng.choice(pcs)
            if style[pc] == "random":
                cursor[pc] = rng.randrange(1 << 64)
            elif style[pc] == "wide" and rng.random() < 0.05:
                cursor[pc] = (1 << 64) - 1 - cursor[pc]   # 10-byte delta
            else:
                cursor[pc] = (cursor[pc] + 64) % (1 << 64)
            mem_pcs.append(pc)
            mem_addrs.append(cursor[pc])
        dma_words = array("q", [rng.randrange(-(1 << 63), 1 << 63)
                                for _ in range(3 * rng.randrange(0, 20))])
        branches = [rng.random() < 0.5 for _ in range(rng.randrange(0, 50))]
        trace = Trace(key=TraceKey.create("CG", "hybrid", "tiny"),
                      program_fingerprint="0" * 16,
                      instructions=len(branches) + len(mem_addrs),
                      branch_count=len(branches),
                      branch_bits=pack_bits(branches), mem_addrs=mem_addrs,
                      dma_words=dma_words, mem_pcs=mem_pcs)
        data = trace.to_bytes()
        (_, header_len) = struct.unpack_from("<HI", data, 4)
        streams = json.loads(data[10:10 + header_len])["v2"]["streams"]
        encodings.update(stream["enc"] for stream in streams)
        multi_stream += len(streams) > 1
        again = Trace.from_bytes(data)
        assert again.branch_outcomes() == branches
        assert list(again.mem_addrs) == list(mem_addrs)
        assert list(again.mem_pcs) == list(mem_pcs)
        assert list(again.dma_words) == list(dma_words)
        assert again.to_bytes() == data
    assert encodings == {"delta", "raw"} and multi_stream
    assert wide, "no ten-byte varint was decoded"


def test_trace_store_get_memoizes_parse(tmp_path):
    """A replay sweep reads the same family artifact once per cell; the
    store memoizes the parsed trace per (path, mtime, size) so the v2
    decode happens once per process, not once per cell."""
    _, trace = capture_workload("CG", "hybrid", "tiny")
    store = TraceStore(tmp_path)
    store.put(trace)
    assert store.get(trace.key) is trace        # put() seeded the memo
    fresh = TraceStore(tmp_path)                # module-level memo is shared
    assert fresh.get(trace.key) is trace
    # Rewriting the file invalidates the memo entry (mtime/size change).
    path = store.path_for(trace.key)
    path.write_bytes(trace.to_bytes())
    again = TraceStore(tmp_path).get(trace.key)
    assert again is not trace and again.content_hash == trace.content_hash


def test_unsupported_schema_raises():
    _, trace = capture_workload("CG", "hybrid", "tiny")
    data = bytearray(trace.to_bytes())
    for schema in (1, 99):
        struct.pack_into("<H", data, 4, schema)
        with pytest.raises(TraceError):
            Trace.from_bytes(bytes(data))


def test_v2_3x_smaller_and_replay_identical_at_medium():
    """Acceptance: at scale=medium the columnar encoding is >=3x smaller
    bytes/instruction than the flat u64 columns while replay of the
    round-tripped trace stays cycle- and energy-identical to execution at
    the capture config."""
    executed, trace = capture_workload("CG", "hybrid", "medium")
    flat = _flat_bytes(trace)
    v2_bytes = trace.to_bytes()
    assert flat >= 3 * len(v2_bytes), \
        f"v2 only {flat / len(v2_bytes):.2f}x smaller at medium"
    _assert_identical(executed, replay_trace(Trace.from_bytes(v2_bytes)))


# ------------------------------------------------- store capacity management
def test_trace_store_prune_sweeps_stale_and_tmp(tmp_path):
    _, trace = capture_workload("CG", "hybrid", "tiny")
    store = TraceStore(tmp_path)
    store.put(trace)
    stale = store.root / "00" / "deadbeefdeadbeef.trace"
    _write_schema1_header(stale)
    leaked = store.root / "00" / "deadbeefdeadbeef.tmp.12345"
    leaked.write_bytes(b"partial write")
    stats = store.disk_stats()
    assert stats["stale_schema"] == 1 and stats["tmp_files"] == 1

    # A *fresh* tmp file may belong to a live writer mid-put: not swept.
    counts = store.prune()
    assert counts["stale_schema"] == 1 and counts["tmp_files"] == 0
    assert not stale.exists() and leaked.exists()
    os.utime(leaked, (1_000_000.0, 1_000_000.0))    # genuinely leaked
    counts = store.prune()
    assert counts["tmp_files"] == 1 and not leaked.exists()
    assert counts["evicted"] == 0 and counts["kept"] == 1
    assert store.get(trace.key) is not None     # live entry untouched


def test_trace_store_prune_evicts_lru_by_atime(tmp_path):
    store = TraceStore(tmp_path)
    keys = []
    for index, workload in enumerate(["CG", "IS", "EP"]):
        _, trace = capture_workload(workload, "hybrid", "tiny")
        path = store.put(trace)
        # Deterministic access times: CG oldest, EP most recent.
        stamp = 1_000_000.0 + index * 1000.0
        os.utime(path, (stamp, stamp))
        keys.append((trace.key, path))
    sizes = {key.key_hash: path.stat().st_size for key, path in keys}
    # Touch CG through get(): it becomes the most recently used.
    assert store.get(keys[0][0]) is not None
    os.utime(keys[0][1], (2_000_000.0, 2_000_000.0))

    budget = sizes[keys[0][0].key_hash] + sizes[keys[2][0].key_hash]
    counts = store.prune(max_bytes=budget)
    assert counts["evicted"] == 1
    fresh = TraceStore(tmp_path)
    assert fresh.get(keys[1][0]) is None        # IS had the oldest atime
    assert fresh.get(keys[0][0]) is not None
    assert fresh.get(keys[2][0]) is not None

    # Age-based eviction: the get() calls above refreshed both survivors'
    # atimes to now, so a 30-day horizon keeps them...
    counts = TraceStore(tmp_path).prune(max_age_days=30.0)
    assert counts["evicted"] == 0 and counts["kept"] == 2
    # ...and once their atimes are stamped ancient, it evicts them.
    for key, path in (keys[0], keys[2]):
        os.utime(path, (1_000_000.0, 1_000_000.0))
    counts = TraceStore(tmp_path).prune(max_age_days=30.0)
    assert counts["evicted"] == 2 and counts["kept"] == 0


def test_evict_lru_breaks_atime_ties_by_path_not_size():
    """Equal access times (coarse filesystem stamps make ties routine) must
    evict in *path* order — deterministic and insertion-stable — never in
    size order, which silently evicted the largest entry of every tie."""
    from pathlib import PurePosixPath

    from repro.diskstore import evict_lru

    removed = []
    records = [(5.0, size, PurePosixPath(f"store/{name}.trace"))
               for name, size in (("aa", 300), ("bb", 200), ("cc", 100))]
    survivors = evict_lru(
        list(records), lambda path, size: removed.append(path) or True,
        max_bytes=250)
    # Path order evicts aa then bb; the old (atime, size, path) sort would
    # have taken cc (the smallest) first.
    assert removed == [records[0][2], records[1][2]]
    assert survivors == [records[2]]
    # Unremovable files survive and keep counting against the budget.
    survivors = evict_lru(list(records), lambda path, size: False,
                          max_bytes=250)
    assert sorted(survivors) == sorted(records)


def test_trace_store_prune_equal_atimes_evicts_in_path_order(tmp_path):
    store = TraceStore(tmp_path)
    paths = []
    for workload in ["CG", "IS", "EP"]:
        _, trace = capture_workload(workload, "hybrid", "tiny")
        paths.append(store.put(trace))
    for path in paths:
        os.utime(path, (1_500_000.0, 1_500_000.0))
    by_path = sorted(paths, key=str)
    counts = store.prune(max_bytes=sum(p.stat().st_size for p in paths) - 1)
    assert counts["evicted"] == 1
    assert not by_path[0].exists()              # first in path order
    assert by_path[1].exists() and by_path[2].exists()


def test_result_store_prune_sweeps_tmp_files(tmp_path):
    store = ResultStore(tmp_path / "cache")
    spec = RunSpec.create("CG", "hybrid", "tiny")
    store.put(spec, execute_spec(spec))
    leaked = store.path_for(spec).with_suffix(".tmp.4242")
    leaked.write_text("{interrupted")
    assert store.disk_stats()["tmp_files"] == 1
    assert store.prune() == 0                   # fresh tmp: maybe in-flight
    os.utime(leaked, (1_000_000.0, 1_000_000.0))
    assert store.prune() == 1
    assert not leaked.exists()
    assert store.disk_stats()["tmp_files"] == 0
    assert store.get(spec) is not None


# ------------------------------------------- capture-once sweep integration
def test_no_cache_replay_sweep_captures_family_once():
    """Regression: ``--replay --no-cache`` used to build a fresh ephemeral
    trace store per cell, re-capturing the stream for every machine config
    (slower than execution).  One shared in-memory store must serve the
    whole sweep: exactly one capture (write), every cell a hit."""
    points = [dict(overrides) for _, overrides in MACHINE_ABLATION_POINTS]
    specs = [RunSpec.create("CG", "hybrid", "tiny", machine=point,
                            kind="replay") for point in points]
    shared = EphemeralTraceStore()
    records = run_sweep(specs, store=None, trace_store=shared)
    assert shared.writes == 1
    assert shared.hits >= len(specs)
    kernel_specs = [RunSpec.create("CG", "hybrid", "tiny", machine=point)
                    for point in points]
    executed = run_sweep(kernel_specs, store=None)
    assert [r.cycles for r in records] == [r.cycles for r in executed]
    assert [r.energy for r in records] == [r.energy for r in executed]


def test_no_cache_replay_sweep_beats_execution_wall_clock():
    """Acceptance: with capture-once sharing, the 6-point --no-cache replay
    ablation is faster end-to-end than the execution-driven sweep.

    Each sweep runs 3 times, alternating execution and replay, and the
    minima are compared: the best-of convention of ``perfbench`` for a
    noisy shared host."""
    import time
    points = [dict(overrides) for _, overrides in MACHINE_ABLATION_POINTS]
    replay_specs = [RunSpec.create("EP", "hybrid", "tiny", machine=point,
                                   kind="replay") for point in points]
    kernel_specs = [RunSpec.create("EP", "hybrid", "tiny", machine=point)
                    for point in points]
    exec_walls, replay_walls = [], []
    for _ in range(3):
        start = time.perf_counter()
        run_sweep(kernel_specs, store=None)
        exec_walls.append(time.perf_counter() - start)
        start = time.perf_counter()
        run_sweep(replay_specs, store=None, trace_store=EphemeralTraceStore())
        replay_walls.append(time.perf_counter() - start)
    exec_wall, replay_wall = min(exec_walls), min(replay_walls)
    assert replay_wall < exec_wall, \
        f"replay sweep {replay_wall:.2f}s not faster than exec {exec_wall:.2f}s"


def test_parallel_replay_sweep_captures_family_once(tmp_path, monkeypatch):
    """Concurrent cells of one (workload, mode, scale) family must not each
    pay an execution-driven capture: the family is captured once before the
    re-timings fan out."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    store = ResultStore(tmp_path / "cache")
    points = [dict(overrides) for _, overrides in MACHINE_ABLATION_POINTS[:3]]
    specs = [RunSpec.create("CG", "hybrid", "tiny", machine=point,
                            kind="replay") for point in points]
    records = run_sweep(specs, workers=2, store=store)
    traces = TraceStore(tmp_path / "cache")
    assert len(traces) == 1                     # one family, one artifact
    serial = run_sweep([RunSpec.create("CG", "hybrid", "tiny", machine=point)
                        for point in points], store=None)
    assert [r.cycles for r in records] == [r.cycles for r in serial]


def test_ablation_machine_sweep_driver_matches_execution():
    """The replay-backed figure driver must label its points in order and
    agree with execution-driven simulation at every point."""
    from repro.harness.experiments import ablation_machine_sweep
    points = MACHINE_ABLATION_POINTS[:2]
    replayed = ablation_machine_sweep("CG", scale="tiny", points=points,
                                      replay=True)
    assert [row.label for row in replayed] == [label for label, _ in points]
    executed = ablation_machine_sweep("CG", scale="tiny", points=points,
                                      replay=False)
    assert [row.cycles for row in replayed] == [row.cycles for row in executed]
    assert [row.energy for row in replayed] == [row.energy for row in executed]


def test_explicit_trace_store_respected_with_result_store(tmp_path):
    """Regression: with a result store set, a parallel sweep used to ignore
    an explicitly passed in-memory trace store — workers reopened the disk
    trace store, missed, and each re-captured the family."""
    store = ResultStore(tmp_path / "cache")
    points = [dict(overrides) for _, overrides in MACHINE_ABLATION_POINTS[:3]]
    specs = [RunSpec.create("CG", "hybrid", "tiny", machine=point,
                            kind="replay") for point in points]
    shared = EphemeralTraceStore()
    records = run_sweep(specs, workers=2, store=store, trace_store=shared)
    assert shared.writes == 1                   # captured once, in memory
    assert not (tmp_path / "cache" / "traces").exists()
    serial = run_sweep([RunSpec.create("CG", "hybrid", "tiny", machine=point)
                        for point in points], store=None)
    assert [r.cycles for r in records] == [r.cycles for r in serial]


def test_no_cache_parallel_replay_ships_traces_to_workers(tmp_path, monkeypatch):
    """A store-less parallel replay sweep captures inline once and ships the
    trace to the pool workers instead of letting each re-capture."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "nocache"))
    points = [dict(overrides) for _, overrides in MACHINE_ABLATION_POINTS[:3]]
    specs = [RunSpec.create("IS", "hybrid", "tiny", machine=point,
                            kind="replay") for point in points]
    shared = EphemeralTraceStore()
    records = run_sweep(specs, workers=2, store=None, trace_store=shared)
    assert shared.writes == 1
    assert not (tmp_path / "nocache").exists()  # nothing touched the disk
    serial = run_sweep([RunSpec.create("IS", "hybrid", "tiny", machine=point)
                        for point in points], store=None)
    assert [r.cycles for r in records] == [r.cycles for r in serial]


# ----------------------------------------------------------- CLI (new verbs)
def test_trace_cli_ls_and_prune(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    _, trace = capture_workload("CG", "hybrid", "tiny")
    store = TraceStore(tmp_path / "cache")
    store.put(trace)
    _write_schema1_header(store.root / "00" / "deadbeefdeadbeef.trace")

    assert trace_main(["ls"]) == 0
    assert "1 stale-schema" in capsys.readouterr().out

    assert trace_main(["prune", "--max-bytes", "0"]) == 0
    out = capsys.readouterr().out
    assert "1 stale-schema" in out and "1 LRU-evicted" in out
    assert len(TraceStore(tmp_path / "cache")) == 0


def test_sweep_cli_stats_reports_trace_store(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    base = ["--workloads", "CG", "--modes", "hybrid", "--scales", "tiny",
            "--cache-dir", cache, "--replay"]
    assert sweep_main(base) == 0
    capsys.readouterr()
    assert sweep_main(["--stats", "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "trace store" in out and "1 trace(s)" in out
    assert f"(schema {TRACE_SCHEMA})" in out

    # --prune with a zero-byte trace budget LRU-evicts the capture artifact.
    assert sweep_main(["--workloads", "CG", "--modes", "hybrid",
                       "--scales", "tiny", "--cache-dir", cache,
                       "--prune", "--trace-max-bytes", "0"]) == 0
    out = capsys.readouterr().out
    assert "1 LRU-evicted" in out
    assert len(TraceStore(cache)) == 0
