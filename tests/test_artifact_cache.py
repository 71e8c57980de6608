"""Tests for the derived-artifact disk cache and the batched oracle/flags.

Three families:

* **Batched == scalar.**  :func:`repro.trace.vector._oracle_routes` (the
  vectorized oracle pass) must emit exactly what the reference walk
  :func:`~repro.trace.vector._oracle_routes_scalar` emits — routes,
  out-of-band miss lines, guard/DMA side arrays and the final counter
  patch — over every route kind (LM / guarded / L1 / L2 / L3 / MEM /
  collapsed / DMA get / DMA put), randomized cache geometries included.
  Same for :func:`~repro.trace.vector._branch_flags` against
  :func:`~repro.trace.vector._branch_flags_scalar`.

* **Warm replay is pass-free.**  A vector replay in a fresh "process"
  (cleared in-memory memo caches) against a warm artifact store must
  satisfy decode/oracle/flags/prelower from disk — hit counters up, zero
  pass misses — and stay bit-identical to the fused engine.

* **Store mechanics.**  Artifact files are byte-identical across
  processes regardless of ``PYTHONHASHSEED``; torn/stale files read as
  misses and are removed; reads refresh atime for LRU pruning;
  :meth:`TraceStore.prune` sweeps orphaned and stale-schema artifacts and
  evicts artifacts with their parent trace; ``artifacts.scoped(disabled=True)``
  disables the tier entirely.
"""

import dataclasses
import os
import random
import struct
import subprocess
import sys

import pytest

from repro import obs
from repro.harness.config import PTLSIM_CONFIG
from repro.harness.systems import build_system, core_config_for
from repro.trace import artifacts, capture_workload, replay_trace
from repro.trace.artifacts import (
    ARTIFACT_SCHEMA,
    ArtifactStore,
    content_key_hash,
    decode_artifact,
    encode_artifact,
)
from repro.trace.store import TraceStore

import repro.trace.replay as replay_mod
import repro.trace.vector as vector_mod


def _machine(cores, **overrides):
    return dataclasses.replace(PTLSIM_CONFIG, num_cores=cores).with_overrides(
        overrides)


def _clear_memo_caches():
    """Forget every in-memory pass memo — the next replay acts like a
    fresh process and must go through the disk tier (or recompute)."""
    vector_mod._ORACLE_CACHE.clear()
    vector_mod._FLAGS_CACHE.clear()
    vector_mod._VTAB_CACHE.clear()
    vector_mod._PRELOWER_CACHE.clear()
    replay_mod._DECODE_CACHE.clear()


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An isolated cache root with no memoized pass products."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    artifacts._STORES.clear()
    _clear_memo_caches()
    yield tmp_path
    artifacts._STORES.clear()
    _clear_memo_caches()


def _decoded_for(trace):
    _, _, hot, cold, fu_values, _, _ = replay_mod._cached_program(trace.key)
    return replay_mod._decode_trace(trace, hot, cold, fu_values), cold, hot


def _assert_same_oracle(a, b):
    assert bytes(a.routes) == bytes(b.routes)
    assert a.miss_lines == b.miss_lines
    assert a.guard_entries == b.guard_entries
    assert a.dma_nlines == b.dma_nlines
    assert a.dma_addrs == b.dma_addrs
    assert a.dget_entries == b.dget_entries
    assert a.n_dir == b.n_dir
    assert a.collapsed == b.collapsed
    pa, pb = dict(a.patch), dict(b.patch)
    for level in ("l1", "l2", "l3"):
        assert pa.pop(level).as_dict() == pb.pop(level).as_dict()
    assert pa == pb


# ------------------------------------------------- batched oracle == scalar
_R = vector_mod  # route-code namespace shorthand


@pytest.mark.parametrize("mode,workload", [("hybrid", "CG"), ("hybrid", "IS"),
                                           ("cache", "CG")])
def test_batched_oracle_matches_scalar_randomized(mode, workload, fresh_cache):
    """Field-for-field identity under randomized cache geometries, and the
    geometry sweep reaches every demand route level."""
    rng = random.Random(20260807)
    machine0 = _machine(1)
    _, trace = capture_workload(workload, mode, "tiny", machine=machine0)
    decoded, cold, _ = _decoded_for(trace)
    seen = set()
    # Trial 0 pins a steep ladder (L1 << L2 << L3 << working set) so every
    # demand level is guaranteed to serve; the rest are random draws.
    geometries = [{"memory.l1_size": 1024, "memory.l2_size": 4096,
                   "memory.l3_size": 16384}]
    geometries += [{
        "memory.l1_size": rng.choice([512, 1024, 4096]),
        "memory.l2_size": rng.choice([2048, 8192, 65536]),
        "memory.l3_size": rng.choice([16384, 262144]),
        "memory.prefetch_enabled": rng.choice([True, False]),
    } for _ in range(4)]
    for overrides in geometries:
        machine = machine0.with_overrides(overrides)
        batched = vector_mod._oracle_routes(decoded, cold, mode, machine,
                                            False)
        scalar = vector_mod._oracle_routes_scalar(decoded, cold, mode,
                                                  machine, False)
        _assert_same_oracle(batched, scalar)
        seen |= set(batched.routes)
    if mode == "cache":
        # cache_based() folds the LM capacity into L1, so the tiny working
        # set never spills past it: only L1 hits and cold MEM misses occur.
        assert {_R._R_L1, _R._R_MEM} <= seen
    else:
        assert {_R._R_L1, _R._R_L2, _R._R_L3, _R._R_MEM} <= seen
    if mode == "hybrid":
        assert _R._R_LM in seen
        assert decoded[0] and batched.dma_nlines   # DMA gets/puts resolved
        assert batched.patch["guarded_loads"] > 0  # guarded bounce exercised
    if workload == "IS" and mode == "hybrid":
        assert _R._R_COLLAPSED in seen


def test_batched_oracle_matches_scalar_multicore(fresh_cache):
    """Per-core streams under the multicore wrapper (dma-put directory
    unmap transcription included) route identically."""
    machine = _machine(2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    entries = replay_mod._cached_parallel_program(mtrace.key, machine)
    for entry, trace in zip(entries, mtrace.cores):
        _, _, hot, cold, fu_values, _, _ = entry
        decoded = replay_mod._decode_trace(trace, hot, cold, fu_values)
        batched = vector_mod._oracle_routes(decoded, cold, "hybrid", machine,
                                            True)
        scalar = vector_mod._oracle_routes_scalar(decoded, cold, "hybrid",
                                                  machine, True)
        _assert_same_oracle(batched, scalar)
        assert batched.dma_nlines                  # dget/dput both present


def test_batched_oracle_guarded_divert_and_collapse_synthetic():
    """The GUARD route (guarded access served by a directory hit) never
    occurs in the NAS captures at test scales, so drive it — plus the
    guarded directory *miss* and the LSQ store collapse — through both
    implementations with a hand-built decoded stream."""
    machine = _machine(1)
    base = build_system("hybrid", machine).address_map.virtual_base
    chunk = 512
    sm = 1 << 20

    def h(kind, pc):
        # The oracle walk reads only h[0] (kind) and h[7] (pc).
        return (kind, None, None, None, None, None, None, pc)

    # cold[pc] = (target, tag/value, guarded, oracle_divert, collapse)
    cold = [
        (0, chunk, False, False, False),   # set-bufsize
        (0, 0, False, False, False),       # dma-get [sm, sm+chunk)
        (0, 0, True, False, False),        # guarded load  -> directory hit
        (0, 0, True, False, False),        # guarded load  -> directory miss
        (0, 0, True, False, False),        # guarded store -> directory hit
        (0, 0, False, False, False),       # plain SM store
        (0, 0, False, False, True),        # same-address store: collapses
        (0, 0, False, False, False),       # dma-put
        (0, 1, False, False, False),       # dma-sync tag 1
    ]
    seq = [h(9, 0), h(6, 1), h(1, 2), h(1, 3), h(2, 4), h(2, 5), h(2, 6),
           h(7, 7), h(8, 8)]
    mem_addrs = [sm + 8, sm + 10 * chunk, sm + 16,
                 sm + 9 * chunk, sm + 9 * chunk]
    dma_words = [base, sm, chunk, base, sm, chunk]
    decoded = (seq, [], mem_addrs, dma_words, {})

    batched = vector_mod._oracle_routes(decoded, cold, "hybrid", machine,
                                        False)
    scalar = vector_mod._oracle_routes_scalar(decoded, cold, "hybrid",
                                              machine, False)
    _assert_same_oracle(batched, scalar)
    assert list(batched.routes) == [_R._R_GUARD, _R._R_MEM, _R._R_GUARD,
                                    _R._R_MEM, _R._R_COLLAPSED]
    assert len(batched.guard_entries) == 2
    assert batched.collapsed == 1
    assert batched.patch["agu"] == (2, 1, 1, 1)    # one divert each way


# -------------------------------------------------- batched flags == scalar
def test_batched_flags_match_scalar_randomized(fresh_cache):
    """The scatter-based flag resolution must equal the per-event
    interleave walk under randomized predictor configurations."""
    rng = random.Random(20260807)
    machine0 = _machine(1)
    for workload in ("CG", "SP"):
        _, trace = capture_workload(workload, "hybrid", "tiny",
                                    machine=machine0)
        decoded, cold, hot = _decoded_for(trace)
        for _ in range(4):
            machine = machine0.with_overrides({
                "core.predictor_entries": rng.choice([64, 256, 4096]),
                "core.btb_entries": rng.choice([64, 512]),
                "core.btb_assoc": rng.choice([1, 2, 4]),
                "core.ras_entries": rng.choice([4, 16]),
            })
            config = core_config_for(machine)
            batched = vector_mod._branch_flags(decoded, cold, config, hot)
            scalar = vector_mod._branch_flags_scalar(decoded, cold, config)
            assert batched == scalar


# ----------------------------------------------------- warm replay path
def test_warm_vector_replay_is_pass_free(fresh_cache):
    """Cold replay persists one artifact per (pass, core); a fresh-process
    warm replay satisfies every pass from disk and stays bit-identical to
    the fused engine."""
    machine = _machine(2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    fused = replay_trace(mtrace, machine)
    cold_run = replay_trace(mtrace, machine, engine="vector")
    store = artifacts.default_store()
    assert store is not None
    assert store.writes == 8        # decode/oracle/flags/prelower x 2 cores

    _clear_memo_caches()
    with obs.recording() as rec:
        warm = replay_trace(mtrace, machine, engine="vector")
    counters = rec.counters
    for pass_hit in ("replay.decode.disk.hit", "vector.oracle.disk.hit",
                     "vector.flags.disk.hit", "vector.prelower.disk.hit"):
        assert counters.get(pass_hit) == 2, (pass_hit, counters)
    for pass_miss in ("replay.decode.miss", "vector.oracle.miss",
                      "vector.flags.miss", "vector.prelower.miss"):
        assert pass_miss not in counters, (pass_miss, counters)
    for run in (cold_run, warm):
        assert run.cycles == fused.cycles
        assert run.total_energy == fused.total_energy
        assert run.sim.memory_stats == fused.sim.memory_stats
        assert run.sim.core_stats["per_core"] == \
            fused.sim.core_stats["per_core"]


def test_warm_replay_identity_clustered(fresh_cache):
    """Artifact-fed replay on a clustered uncore (2 clusters x 4 cores)
    matches the fused engine exactly, warm and cold."""
    machine = _machine(4, num_clusters=2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    fused = replay_trace(mtrace, machine)
    replay_trace(mtrace, machine, engine="vector")      # cold: writes
    _clear_memo_caches()
    warm = replay_trace(mtrace, machine, engine="vector")
    assert warm.cycles == fused.cycles
    assert warm.total_energy == fused.total_energy
    assert warm.sim.memory_stats == fused.sim.memory_stats
    assert warm.sim.core_stats["per_core"] == fused.sim.core_stats["per_core"]


# ----------------------------------------------- cross-process determinism
_DETERMINISM_SCRIPT = """
import dataclasses, hashlib, os
from pathlib import Path
from repro.harness.config import PTLSIM_CONFIG
from repro.trace import capture_workload, replay_trace
m = dataclasses.replace(PTLSIM_CONFIG, num_cores=2)
_, t = capture_workload('CG', 'hybrid', 'tiny', machine=m)
r = replay_trace(t, m, engine='vector')
root = Path(os.environ['REPRO_CACHE_DIR']) / 'traces' / 'artifacts'
files = sorted(root.glob('*/*.art'))
digest = hashlib.sha256(
    b''.join(p.name.encode() + p.read_bytes() for p in files)).hexdigest()
print(r.cycles, r.total_energy, len(files), digest)
"""


def test_artifact_bytes_deterministic_across_processes(tmp_path):
    """Interpreter hash-seed variation must change neither the replay
    numbers nor a single artifact byte (each process starts from its own
    empty cache, so every artifact is produced cold)."""
    outputs = set()
    for seed in ("1", "27"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   REPRO_CACHE_DIR=str(tmp_path / f"cache-{seed}"))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(os.path.dirname(__file__), os.pardir,
                                     "src"),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _DETERMINISM_SCRIPT],
                              env=env, capture_output=True, text=True,
                              check=True)
        outputs.add(proc.stdout.strip())
    assert len(outputs) == 1, f"nondeterministic across processes: {outputs}"


# --------------------------------------------------------- store mechanics
def test_artifact_roundtrip_kind_check_and_corruption(tmp_path):
    store = ArtifactStore(tmp_path / "traces")
    meta = {"n": 3, "tags": [1, 2]}
    sections = [("a", b"abc"), ("empty", b"")]
    path = store.put("ab" * 8, "decode", {"k": 1}, meta, sections)
    assert path is not None and path.suffix == ".art"
    assert store.get("ab" * 8, "decode", {"k": 1}) == \
        (meta, {"a": b"abc", "empty": b""})
    assert store.get("ab" * 8, "oracle", {"k": 1}) is None   # plain miss
    assert store.corrupted == 0

    # A file whose stored kind disagrees with its name is corrupt: removed.
    path.write_bytes(encode_artifact("oracle", {}, []))
    assert store.get("ab" * 8, "decode", {"k": 1}) is None
    assert store.corrupted == 1 and not path.exists()

    # Torn write: undecodable bytes are also removed on first read.
    path.write_bytes(b"garbage")
    assert store.get("ab" * 8, "decode", {"k": 1}) is None
    assert store.corrupted == 2 and not path.exists()

    # The content key is canonical: dict ordering never splits the cache.
    assert content_key_hash({"a": 1, "b": 2}) == \
        content_key_hash({"b": 2, "a": 1})
    kind, meta2, sections2 = decode_artifact(
        encode_artifact("flags", {"x": 1}, [("s", b"\x00\x01")]))
    assert (kind, meta2, sections2) == ("flags", {"x": 1},
                                        {"s": b"\x00\x01"})


def test_artifact_get_refreshes_atime_keeps_mtime(tmp_path):
    store = ArtifactStore(tmp_path / "traces")
    path = store.put("cd" * 8, "decode", 1, {}, [("a", b"x")])
    os.utime(path, (100.0, 100.0))
    assert store.get("cd" * 8, "decode", 1) is not None
    stat = path.stat()
    assert stat.st_atime > 100.0            # LRU sees the access...
    assert stat.st_mtime == 100.0           # ...write time untouched


def test_prune_sweeps_orphans_stale_and_evicts_with_parent(tmp_path):
    tstore = TraceStore(tmp_path)
    machine = _machine(1)
    _, trace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    tpath = tstore.put(trace)
    parent = tpath.stem
    art = ArtifactStore(tstore.root)
    good = art.put(parent, "decode", 1, {}, [("a", b"live")])
    art.put("0" * 16, "decode", 1, {}, [("a", b"orphan")])
    # A stale-schema artifact under the live parent: swept unconditionally.
    blob = encode_artifact("oracle", {}, [])
    stale = art.path_for(parent, "oracle", 2)
    stale.write_bytes(blob[:4] + struct.pack("<H", ARTIFACT_SCHEMA + 1) +
                      blob[6:])

    stats = tstore.disk_stats()
    assert stats["artifact_entries"] == 3
    assert stats["artifact_bytes"] > 0

    counts = tstore.prune()
    assert counts["artifacts"] == 2         # the orphan and the stale file
    assert good.exists()
    assert not (art.root / ("0" * 16)).exists()  # emptied dir removed too

    counts = tstore.prune(max_bytes=0)
    assert counts["evicted"] == 1
    assert counts["artifacts"] == 1         # evicted with its parent trace
    assert not tpath.exists() and not (art.root / parent).exists()


def test_no_artifacts_escape_hatch(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    artifacts._STORES.clear()
    _clear_memo_caches()
    with artifacts.scoped(disabled=True):
        assert artifacts.default_store() is None
        machine = _machine(1)
        _, trace = capture_workload("CG", "hybrid", "tiny", machine=machine)
        replay_trace(trace, machine, engine="vector")
    assert not (tmp_path / "traces" / "artifacts").exists()
    _clear_memo_caches()


def test_scoped_pin_and_disable(tmp_path, monkeypatch):
    """:func:`artifacts.scoped` pins the tier to an explicit cache root (a
    sweep's ``--cache-dir``) or turns it off (no-cache cells), and always
    restores the previous state."""
    artifacts._STORES.clear()
    with artifacts.scoped(cache_root=tmp_path / "pinned"):
        store = artifacts.default_store()
        assert store is not None
        assert store.traces_root == tmp_path / "pinned" / "traces"
        with artifacts.scoped(disabled=True):
            assert artifacts.default_store() is None
        assert artifacts.default_store() is store
    assert artifacts._OVERRIDE_ROOT is None and not artifacts._DISABLED
