"""Tests of the sweep engine: spec hashing, the on-disk result store,
serial-vs-parallel equivalence, machine overrides and the experiment
context's memo (cache-key normalization regression)."""

import json
import os
import subprocess
import sys

import pytest

import repro.harness.runner as runner_mod
from repro.harness.config import PTLSIM_CONFIG
from repro.harness.sweep import (
    STORE_SCHEMA,
    ResultStore,
    RunRecord,
    RunSpec,
    SweepContext,
    SweepSpec,
    execute_spec,
    main as sweep_main,
    run_sweep,
)


# ------------------------------------------------------------------ spec hashing
def test_spec_hash_stable_across_dict_ordering_and_case():
    a = RunSpec.create("cg", "Hybrid", "TINY",
                       machine={"directory_entries": 16, "lm_latency": 2})
    b = RunSpec.create("CG", " hybrid ", "tiny",
                       machine={"lm_latency": 2, "directory_entries": 16})
    assert a == b
    assert a.spec_hash == b.spec_hash


def test_spec_hash_distinguishes_every_axis():
    base = RunSpec.create("CG", "hybrid", "tiny")
    assert base.spec_hash != RunSpec.create("IS", "hybrid", "tiny").spec_hash
    assert base.spec_hash != RunSpec.create("CG", "cache", "tiny").spec_hash
    assert base.spec_hash != RunSpec.create("CG", "hybrid", "small").spec_hash
    assert base.spec_hash != RunSpec.create(
        "CG", "hybrid", "tiny", machine={"directory_entries": 8}).spec_hash


def test_spec_hash_num_cores_one_is_the_baseline():
    """A cell spelled ``num_cores=1`` (the sweep CLI builds every ``--cores``
    cell that way) must hash — and hit the store — identically to a plain
    single-core spec; 2+ cores must stay a distinct axis."""
    explicit = RunSpec.create("CG", "hybrid", "tiny", machine={"num_cores": 1})
    plain = RunSpec.create("CG", "hybrid", "tiny")
    mixed = RunSpec.create("CG", "hybrid", "tiny",
                           machine={"num_cores": 1, "core.issue_width": 2})
    assert explicit == plain
    assert explicit.spec_hash == plain.spec_hash
    assert mixed.spec_hash == RunSpec.create(
        "CG", "hybrid", "tiny", machine={"core.issue_width": 2}).spec_hash
    assert plain.spec_hash != RunSpec.create(
        "CG", "hybrid", "tiny", machine={"num_cores": 2}).spec_hash


def test_spec_hash_num_cores_stable_across_processes():
    """The three spellings of a 1-core cell (CLI-style ``num_cores=1``,
    programmatic, plain) must produce one spec hash, and the same hash in a
    fresh interpreter — the store is shared across processes and CI runs."""
    script = (
        "from repro.harness.sweep import RunSpec;"
        "print(RunSpec.create('CG', 'hybrid', 'tiny',"
        "                     machine={'num_cores': 1}).spec_hash);"
        "print(RunSpec.create('CG', 'hybrid', 'tiny').spec_hash)")
    env = dict(os.environ, PYTHONHASHSEED="77")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), os.pardir, "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    hashes = set(proc.stdout.split())
    assert hashes == {RunSpec.create("CG", "hybrid", "tiny").spec_hash}


def test_spec_roundtrips_through_dict():
    spec = RunSpec.create("CG", "hybrid", "tiny",
                          machine={"memory.prefetch_enabled": False})
    again = RunSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
    assert again == spec and again.spec_hash == spec.spec_hash


def test_sweep_spec_cells_cartesian_product():
    sweep = SweepSpec.create(["CG", "IS"], ["hybrid", "cache"],
                             ["tiny"], machines=[{}, {"directory_entries": 8}])
    cells = sweep.cells()
    assert len(cells) == 2 * 2 * 1 * 2
    assert len({c.spec_hash for c in cells}) == len(cells)


def _stub_record(spec, payload_bytes=0):
    return RunRecord(
        workload=spec.workload, mode=spec.mode, scale=spec.scale,
        kind=spec.kind, spec_hash=spec.spec_hash,
        machine_overrides=dict(spec.machine), params=dict(spec.params),
        cycles=1.0, instructions=1, phase_cycles={}, mispredictions=0,
        branch_predictions=0, memory_stats={"pad": "x" * payload_bytes},
        core_stats={}, energy={"total": 1.0})


def test_result_store_get_refreshes_atime(tmp_path):
    store = ResultStore(tmp_path / "cache")
    spec = RunSpec.create("CG", "hybrid", "tiny")
    path = store.put(spec, _stub_record(spec))
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns - 10 ** 12, stat.st_mtime_ns))
    aged = path.stat().st_atime_ns
    assert store.get(spec) is not None
    assert path.stat().st_atime_ns > aged


def test_result_store_prune_lru_breaks_atime_ties_by_path(tmp_path):
    """Under equal access times (coarse filesystem timestamps make ties
    routine) eviction order is pinned to path order — never to size, which
    would evict the largest entry of a tie regardless of recency."""
    store = ResultStore(tmp_path / "cache")
    specs = sorted((RunSpec.create(w, "hybrid", "tiny")
                    for w in ("CG", "IS", "EP")),
                   key=lambda spec: str(store.path_for(spec)))
    # Sizes strictly *decreasing* in path order: the path tie-break evicts
    # the first path (the largest file), while the old size-sorted tie-break
    # would have evicted the smallest file (the last path) first.
    paths = [store.put(spec, _stub_record(spec, payload_bytes=pad))
             for spec, pad in zip(specs, (800, 400, 0))]
    sizes = [path.stat().st_size for path in paths]
    assert sizes == sorted(sizes, reverse=True) and len(set(sizes)) == 3
    for path in paths:
        stat = path.stat()
        os.utime(path, ns=(1_000_000_000_000_000_000, stat.st_mtime_ns))
    removed = store.prune(max_bytes=sum(sizes) - 1)
    assert removed == 1
    assert not paths[0].exists()            # first in path order
    assert paths[1].exists() and paths[2].exists()


def test_result_store_prune_max_age_uses_atime(tmp_path):
    store = ResultStore(tmp_path / "cache")
    old_spec, new_spec = (RunSpec.create(w, "hybrid", "tiny")
                          for w in ("CG", "IS"))
    old_path = store.put(old_spec, _stub_record(old_spec))
    new_path = store.put(new_spec, _stub_record(new_spec))
    stat = old_path.stat()
    ninety_days = 90 * 86400 * 10 ** 9
    os.utime(old_path, ns=(stat.st_atime_ns - ninety_days, stat.st_mtime_ns))
    assert store.prune(max_age_days=30) == 1
    assert not old_path.exists() and new_path.exists()


# ------------------------------------------------------------- machine overrides
def test_machine_overrides_dotted_paths():
    machine = PTLSIM_CONFIG.with_overrides(
        {"directory_entries": 8, "memory.prefetch_enabled": False,
         "core.issue_width": 2})
    assert machine.directory_entries == 8
    assert machine.memory.prefetch_enabled is False
    assert machine.core.issue_width == 2
    # The base config is untouched (dataclasses.replace copies).
    assert PTLSIM_CONFIG.directory_entries == 32
    assert PTLSIM_CONFIG.memory.prefetch_enabled is True


def test_machine_overrides_unknown_key_raises():
    with pytest.raises(KeyError):
        PTLSIM_CONFIG.with_overrides({"no_such_field": 1})
    with pytest.raises(KeyError):
        PTLSIM_CONFIG.with_overrides({"memory.no_such_field": 1})


# ------------------------------------------------------------------ result store
@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


def test_store_miss_then_hit(store):
    spec = RunSpec.create("CG", "hybrid", "tiny")
    assert store.get(spec) is None
    record = execute_spec(spec)
    store.put(spec, record)
    fresh = ResultStore(store.root)
    cached = fresh.get(spec)
    assert cached is not None
    assert cached.cycles == record.cycles
    assert cached.energy == record.energy
    assert cached.memory_stats == record.memory_stats
    assert fresh.hits == 1 and fresh.misses == 0


def test_store_corrupted_entry_recovers(store):
    spec = RunSpec.create("CG", "hybrid", "tiny")
    record = execute_spec(spec)
    store.put(spec, record)
    path = store.path_for(spec)
    path.write_text("{ this is not json")
    fresh = ResultStore(store.root)
    assert fresh.get(spec) is None
    assert fresh.corrupted == 1
    assert not path.exists()  # the bad entry was dropped
    # The engine transparently re-simulates and refills the store.
    records = run_sweep([spec], store=fresh)
    assert records[0].cycles == record.cycles
    assert fresh.get(spec) is not None


def test_store_schema_mismatch_is_a_miss(store):
    spec = RunSpec.create("CG", "hybrid", "tiny")
    store.put(spec, execute_spec(spec))
    path = store.path_for(spec)
    payload = json.loads(path.read_text())
    payload["schema"] = STORE_SCHEMA + 1
    path.write_text(json.dumps(payload))
    fresh = ResultStore(store.root)
    assert fresh.get(spec) is None
    assert fresh.corrupted == 1


def test_run_sweep_uses_store_across_contexts(store):
    ctx = SweepContext(scale="tiny", store=store)
    first = ctx.run("CG", "hybrid")
    ctx2 = SweepContext(scale="tiny", store=ResultStore(store.root))
    second = ctx2.run("cg", "HYBRID")  # normalized to the same cell
    assert second.cycles == first.cycles
    assert ctx2.store.hits == 1 and ctx2.store.writes == 0


# ------------------------------------------------------- serial vs parallel
def test_parallel_results_match_serial(tmp_path):
    cells = SweepSpec.create(["CG", "IS"], ["hybrid", "cache"], ["tiny"]).cells()
    parallel = run_sweep(cells, workers=2, store=ResultStore(tmp_path / "p"))
    serial = run_sweep(cells, workers=1)
    for par, ser in zip(parallel, serial):
        assert par.cycles == ser.cycles
        assert par.instructions == ser.instructions
        assert par.energy == ser.energy
        assert par.memory_stats == ser.memory_stats


def test_broken_pool_recovers_and_completes(monkeypatch, tmp_path):
    """A worker dying mid-sweep (BrokenProcessPool) must not abort the
    sweep: the cell is probed in a fresh pool, retried and stored.
    (Deeper crash/quarantine coverage lives in test_fault_tolerance.py.)"""
    store = ResultStore(tmp_path / "broken")
    spec = RunSpec.create("CG", "hybrid", "tiny")
    monkeypatch.setenv("REPRO_FAULTS",
                       f"worker.exec@{spec.spec_hash[:8]}=crashx1")
    records = run_sweep([spec], workers=2, store=store)
    assert records[0].cycles > 0
    assert store.get(spec) is not None


def test_cross_process_determinism():
    """Identical results under different hash seeds (regression: benchmark
    input data used to be seeded with the randomised ``hash(str)``)."""
    script = ("from repro.harness.runner import run_workload;"
              "r = run_workload('CG', mode='hybrid', scale='tiny');"
              "print(r.cycles, r.total_energy)")
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


# ------------------------------------------------------------------ record surface
def test_record_matches_live_result_surface():
    spec = RunSpec.create("CG", "hybrid", "tiny")
    record = execute_spec(spec)
    live = runner_mod.run_workload("CG", mode="hybrid", scale="tiny")
    assert record.cycles == live.cycles
    assert record.instructions == live.instructions
    assert record.total_energy == pytest.approx(live.total_energy)
    assert record.phase_cycles == live.phase_cycles
    assert record.energy_groups == pytest.approx(live.energy_groups)
    assert record.guarded_references == live.guarded_references
    assert record.total_references == live.total_references
    assert record.emits_guards == live.emits_guards
    assert record.memory_stats == live.memory_stats


# ------------------------------------------------------ SweepContext memo keys
def test_experiment_context_normalizes_all_key_parts(monkeypatch):
    """Regression: only the workload used to be normalized, so
    ``run("cg", "Hybrid")`` silently re-simulated ``run("CG", "hybrid")``."""
    calls = []
    real = runner_mod.run_workload

    def counting(workload, mode="hybrid", scale="small", **kwargs):
        calls.append((workload, mode, scale))
        return real(workload, mode=mode, scale=scale, **kwargs)

    # execute_spec imports run_workload at call time, so it sees the patch.
    monkeypatch.setattr(runner_mod, "run_workload", counting)
    ctx = SweepContext(scale="Tiny")
    first = ctx.run("CG", "hybrid")
    second = ctx.run("cg", "Hybrid")
    third = ctx.run(" CG ", " HYBRID ")
    assert len(calls) == 1, f"expected one simulation, got {calls}"
    assert first is second is third
    assert (first.workload, first.mode, first.scale) == ("CG", "hybrid", "tiny")


def test_experiment_context_passes_normalized_mode_down(monkeypatch):
    seen = []
    real = runner_mod.run_workload

    def recording(workload, mode="hybrid", scale="small", **kwargs):
        seen.append((workload, mode, scale))
        return real(workload, mode=mode, scale=scale, **kwargs)

    monkeypatch.setattr(runner_mod, "run_workload", recording)
    SweepContext(scale="tiny").run("cg", "CACHE")
    assert seen == [("CG", "cache", "tiny")]


# -------------------------------------------------------------------------- CLI
def test_cli_smoke_and_cache_reuse(tmp_path, capsys):
    argv = ["--workloads", "CG", "--modes", "hybrid", "--scales", "tiny",
            "--cache-dir", str(tmp_path / "cli-cache")]
    assert sweep_main(argv) == 0
    out_cold = capsys.readouterr().out
    assert "1 new" in out_cold and "CG" in out_cold
    assert sweep_main(argv) == 0
    out_warm = capsys.readouterr().out
    assert "1 hit(s)" in out_warm and "0 new" in out_warm


def test_cli_machine_override_changes_cell(tmp_path, capsys):
    cache = str(tmp_path / "cli-cache")
    base = ["--workloads", "CG", "--modes", "hybrid", "--scales", "tiny",
            "--cache-dir", cache]
    assert sweep_main(base) == 0
    capsys.readouterr()
    assert sweep_main(base + ["--set", "directory_entries=4"]) == 0
    out = capsys.readouterr().out
    assert "1 new" in out  # the override is a different content hash


# ------------------------------------------------------------ benchmark hooks
def test_benchmark_layer_hooks_reach_the_engine(tmp_path):
    """``perfbench/layers.py`` wraps ``run_sweep_report``, ``execute_spec``
    and ``ResultStore.put`` by identity wherever a ``repro`` module bound
    them.  A name bound where ``install()`` cannot see it would read zero
    for that layer, so one tiny cell must record a call in each."""
    script = (
        "import sys, layers;"
        "from repro import obs;"
        "layers.install();"
        "rec = obs.MetricsRecorder(); obs.set_recorder(rec);"
        "from repro.harness.sweep import ResultStore, SweepContext;"
        "SweepContext(scale='tiny', store=ResultStore(sys.argv[1]))"
        ".run('CG', 'hybrid');"
        "print(*(rec.phases.get(name, {}).get('calls', 0) for name in"
        " ('harness.sweep.engine', 'harness.sweep.execute',"
        "  'harness.sweep.store_put')))")
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.path.join(root, "perfbench"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, check=True)
    engine, execute, store_put = map(int, proc.stdout.split())
    assert engine >= 1 and execute >= 1 and store_put >= 1, proc.stdout
