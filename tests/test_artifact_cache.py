"""Tests for the derived-artifact disk cache and the batched oracle/flags.

Three families:

* **Batched == scalar.**  :func:`repro.trace.vector._oracle_routes` (the
  array oracle pass) must emit exactly what the reference walk
  :func:`_oracle_routes_scalar` below emits — routes, out-of-band miss
  lines, guard/DMA side arrays and the final counter patch — over every
  route kind (LM / guarded / L1 / L2 / L3 / MEM / collapsed / DMA get /
  DMA put), randomized cache geometries included.  Same for
  :func:`~repro.trace.vector._branch_flags` against
  :func:`_branch_flags_scalar`.

* **Warm replay is pass-free.**  A vector replay in a fresh "process"
  (cleared in-memory memo caches) against a warm artifact store must
  satisfy decode/oracle/flags/prelower from disk — hit counters up, zero
  pass misses — and stay bit-identical to execution.

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
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.cpu.branch_predictor import HybridBranchPredictor
from repro.cpu.pipeline import CODE_BASE, CODE_INSTR_SIZE
from repro.harness.config import PTLSIM_CONFIG
from repro.harness.runner import run_workload
from repro.harness.systems import build_system, core_config_for
from repro.trace import artifacts, capture_workload, replay_trace
from repro.trace.artifacts import (
    ARTIFACT_SCHEMA,
    ArtifactStore,
    content_key_hash,
    decode_artifact,
    encode_artifact,
)
from repro.trace.format import pack_bits, unpack_bits
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
    ((_, _, hot, cold, fu_values, _, _),) = replay_mod._cached_programs(
        trace.key, PTLSIM_CONFIG)
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


# ------------------------------------------------------- scalar references
def _oracle_routes_scalar(decoded, cold, hot, mode, machine, multicore):
    """Resolve every memory/DMA event of a stream against a scratch system.

    The scratch system is the same per-core ``build_system`` product the
    replay point uses; it is driven with the *real* ``load``/``store``/DMA
    calls at ``now=0.0``.  Cache, directory and prefetcher state evolution is
    timing-independent (tag/LRU/valid updates never consult the clock), so
    the served-by level of every access — and every final activity counter —
    is exactly what any re-timed run observes.  Clock-dependent scratch state
    (MSHR contents, presence stalls, latencies) is simply discarded: the
    timing loop recomputes those against the live point system.  In
    multicore, the per-core systems are independent for everything functional
    (private caches/LM/directory; the shared memory/bus counters commute and
    are summed at apply time), and the multicore wrapper's dma-put directory
    unmap is transcribed in ``_oracle_event`` so guarded hit/miss
    sequences match.

    This is the reference walk; :func:`~repro.trace.vector._oracle_routes`
    is the array version with identical output (enforced below).
    """
    mem_addrs, dma_words, seq_pcs = (decoded.mem_addrs, decoded.dma_words,
                                     decoded.seq_pcs)
    S = vector_mod._scratch_system(mode, machine)
    line_size = S.hierarchy.config.line_size
    directory = S.directory
    load = S.load
    store = S.store
    lm_lo, lm_hi = S._lm_lo, S._lm_hi
    routes = bytearray()
    routes_append = routes.append
    miss_lines = array("q")
    guard_entries = array("i")
    dma_nlines = array("i")
    dma_addrs = array("q")
    dget_entries = array("i")
    lm_plain_loads = lm_plain_stores = 0
    mi = di = 0
    for index in seq_pcs:
        kind = hot[index][0]
        if kind == 1 or kind == 2:
            addr = mem_addrs[mi]
            mi += 1
            if lm_lo <= addr < lm_hi:
                routes_append(_R._R_LM)
                if kind == 1:
                    lm_plain_loads += 1
                else:
                    lm_plain_stores += 1
                    S._last_store_addr = addr
                    S._last_store_to_sm = False
                continue
            cm = cold[index]
            if kind == 1:
                out = load(addr, guarded=cm[2], oracle_divert=cm[3],
                           pc=index, now=0.0)
            else:
                out = store(addr, 0.0, guarded=cm[2], oracle_divert=cm[3],
                            collapse_with_prev=cm[4], pc=index, now=0.0)
            served = out.served_by
            if served == "LM":
                if cm[2]:   # guarded hit: presence stall recomputed live
                    routes_append(_R._R_GUARD)
                    guard_entries.append(
                        directory._tag_index[addr & directory.base_mask])
                else:       # oracle-divert hit: plain LM latency
                    routes_append(_R._R_LM)
            elif served == "collapsed":
                routes_append(_R._R_COLLAPSED)
            elif served == "L1":
                routes_append(_R._R_L1)
            else:
                routes_append(_R._R_L2 if served == "L2" else
                              _R._R_L3 if served == "L3" else _R._R_MEM)
                miss_lines.append(addr - addr % line_size)
        elif kind >= 6:      # dma-get / dma-put / dma-sync / set-bufsize
            vector_mod._oracle_event(S, kind, cold[index][1], dma_words, di,
                                     multicore, dma_nlines, dma_addrs,
                                     dget_entries)
            if kind <= 7:
                di += 3
    return vector_mod._oracle_result(S, routes, miss_lines, guard_entries,
                                     dma_nlines, dma_addrs, dget_entries,
                                     lm_plain_loads, lm_plain_stores)


def _branch_flags_scalar(decoded, cold, config, hot):
    """Mispredict flag per branch event, resolved through the real predictor.

    The direction tables (gshare/bimodal/selector/history) and the BTB are
    disjoint structures: conditional outcomes depend only on the former, jump
    flags only on the latter.  So the conditional stream goes through the
    batched :meth:`update_batch` (exactly equivalent to N sequential
    updates), and one in-order pass replays the BTB: jumps probe it, every
    taken branch (conditional or jump) installs its target — the same
    sequence execution performs.

    This is the reference pass; :func:`~repro.trace.vector._branch_flags`
    is the vectorized version with identical output (enforced below).

    Returns ``(flags, predictions, mispredictions, btb_hits, btb_misses)``
    with one flag per conditional-branch/jump in retirement order.
    """
    branches = unpack_bits(decoded.branch_bits,
                           decoded.branch_count).tolist()
    seq_pcs = decoded.seq_pcs
    predictor = HybridBranchPredictor(entries=config.predictor_entries,
                                      btb_entries=config.btb_entries,
                                      btb_assoc=config.btb_assoc,
                                      ras_entries=config.ras_entries)
    cbr_pcs = []
    cbr_takens = []
    events = []     # (is_jmp, pc_addr, taken, target_addr)
    events_append = events.append
    bi = 0
    for index in seq_pcs:
        kind = hot[index][0]
        if kind == 3:
            taken = branches[bi]
            bi += 1
            pc_addr = CODE_BASE + index * CODE_INSTR_SIZE
            cbr_pcs.append(pc_addr)
            cbr_takens.append(taken)
            next_pc = cold[index][0] if taken else index + 1
            events_append((False, pc_addr, taken,
                           CODE_BASE + next_pc * CODE_INSTR_SIZE))
        elif kind == 4:
            pc_addr = CODE_BASE + index * CODE_INSTR_SIZE
            events_append((True, pc_addr, True,
                           CODE_BASE + cold[index][0] * CODE_INSTR_SIZE))
    cbr_flags = predictor.update_batch(cbr_pcs, cbr_takens)
    btb = predictor.btb
    btb_lookup = btb.lookup
    btb_update = btb.update
    flags = bytearray(len(events))
    ci = 0
    for ei, (is_jmp, pc_addr, taken, target) in enumerate(events):
        if is_jmp:
            flags[ei] = btb_lookup(pc_addr) is None
        else:
            flags[ei] = cbr_flags[ci]
            ci += 1
        if taken:
            btb_update(pc_addr, target)
    return (bytes(flags), len(events), sum(flags), btb.hits, btb.misses)


@pytest.mark.parametrize("mode,workload", [("hybrid", "CG"), ("hybrid", "IS"),
                                           ("cache", "CG")])
def test_batched_oracle_matches_scalar_randomized(mode, workload, fresh_cache):
    """Field-for-field identity under randomized cache geometries, and the
    geometry sweep reaches every demand route level."""
    rng = random.Random(20260807)
    machine0 = _machine(1)
    _, trace = capture_workload(workload, mode, "tiny", machine=machine0)
    decoded, cold, hot = _decoded_for(trace)
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
        batched = vector_mod._oracle_routes(decoded, cold, hot, mode,
                                            machine, False)
        scalar = _oracle_routes_scalar(decoded, cold, hot, mode,
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
        assert decoded.seq_pcs and batched.dma_nlines  # DMA gets/puts resolved
        assert batched.patch["guarded_loads"] > 0  # guarded bounce exercised
    if workload == "IS" and mode == "hybrid":
        assert _R._R_COLLAPSED in seen


def test_batched_oracle_matches_scalar_multicore(fresh_cache):
    """Per-core streams under the multicore wrapper (dma-put directory
    unmap transcription included) route identically."""
    machine = _machine(2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    entries = replay_mod._cached_programs(mtrace.key, machine)
    for entry, trace in zip(entries, mtrace.cores):
        _, _, hot, cold, fu_values, _, _ = entry
        decoded = replay_mod._decode_trace(trace, hot, cold, fu_values)
        batched = vector_mod._oracle_routes(decoded, cold, hot, "hybrid",
                                            machine, True)
        scalar = _oracle_routes_scalar(decoded, cold, hot,
                                                  "hybrid", machine, True)
        _assert_same_oracle(batched, scalar)
        assert batched.dma_nlines                  # dget/dput both present


def test_geometry_sweep_classifies_each_stream_once(fresh_cache,
                                                    monkeypatch):
    """Three cache geometries of one 2-core trace share the decode pass's
    classification — one per core stream — and each geometry's oracle
    still equals the scalar walk."""
    machine0 = _machine(2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine0)
    calls = []
    real = replay_mod._classify

    def counting(*args):
        calls.append(args[3])
        return real(*args)

    monkeypatch.setattr(replay_mod, "_classify", counting)
    monkeypatch.setattr(vector_mod, "_classify", counting)
    machines = [machine0,
                machine0.with_overrides({"memory.l2_size": 128 * 1024}),
                machine0.with_overrides({"memory.prefetch_enabled": False})]
    with obs.recording() as rec:
        for machine in machines:
            replay_trace(mtrace, machine)
    assert len(calls) == 2
    assert rec.counters["replay.decode.miss"] == 2
    assert rec.counters["vector.oracle.miss"] == 6
    entries = replay_mod._cached_programs(mtrace.key, machine0)
    for entry, trace in zip(entries, mtrace.cores):
        _, _, hot, cold, fu_values, _, _ = entry
        decoded = replay_mod._decode_trace(trace, hot, cold, fu_values)
        for machine in machines:
            cached = vector_mod._ORACLE_CACHE[vector_mod._pass_key(
                trace, "hybrid", machine, True)]
            _assert_same_oracle(cached, _oracle_routes_scalar(
                decoded, cold, hot, "hybrid", machine, True))


def _guard_stream(machine):
    """A hand-built ``(decoded, cold, hot)`` stream that reaches the GUARD
    route (guarded access served by a directory hit), which never occurs in
    the NAS captures at test scales, plus a guarded directory *miss* and an
    LSQ store collapse."""
    base = build_system("hybrid", machine).address_map.virtual_base
    chunk = 512
    sm = 1 << 20

    def h(kind, pc):
        # The oracle walks read only h[0] (kind).
        return (kind, None, None, None, None, None, None)

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
    seq_pcs = array("I", range(len(seq)))   # each pc retires once, in order
    return (replay_mod._Decoded(b"", 0, mem_addrs, dma_words, {},
                                seq_pcs),
            cold, seq)


def test_batched_oracle_guarded_divert_and_collapse_synthetic():
    """Drive the GUARD route, a guarded directory miss and a store collapse
    through both oracle implementations."""
    machine = _machine(1)
    decoded, cold, hot = _guard_stream(machine)
    batched = vector_mod._oracle_routes(decoded, cold, hot, "hybrid",
                                        machine, False)
    scalar = _oracle_routes_scalar(decoded, cold, hot, "hybrid",
                                              machine, False)
    _assert_same_oracle(batched, scalar)
    assert list(batched.routes) == [_R._R_GUARD, _R._R_MEM, _R._R_GUARD,
                                    _R._R_MEM, _R._R_COLLAPSED]
    assert len(batched.guard_entries) == 2
    assert batched.collapsed == 1
    assert batched.patch["agu"] == (2, 1, 1, 1)    # one divert each way


_SM, _CHUNK = 1 << 20, 512
_FAR = _SM + 9 * _CHUNK                 # never mapped to the LM
_MAP = [("setbuf", _CHUNK), ("dget", _SM)]  # [_SM, _SM + _CHUNK) -> buffer 0

# Streams (as functions of the LM base) that probe what the array oracle
# derives from each SM op's previous-store index and from the directory
# resolved inline, with the routes of their memory ops.
_LATCH_STREAMS = {
    "lm-store-between-guarded-miss-and-candidate": (lambda lm: _MAP + [
        ("st", _FAR, "g"), ("st", lm + 8), ("st", _FAR, "c")],
        [_R._R_MEM, _R._R_LM, _R._R_L1]),
    "divert-miss-then-collapse": (lambda lm: _MAP + [
        ("st", _FAR), ("st", _FAR, "dc")],
        [_R._R_MEM, _R._R_COLLAPSED]),
    "guarded-hit-before-candidate": (lambda lm: _MAP + [
        ("st", _SM + 16), ("st", _SM + 16, "g"), ("st", _SM + 16, "c")],
        [_R._R_MEM, _R._R_GUARD, _R._R_L1]),
    "ends-in-lm-store": (lambda lm: _MAP + [
        ("st", _FAR), ("st", _FAR, "c"), ("st", lm + 24)],
        [_R._R_MEM, _R._R_COLLAPSED, _R._R_LM]),
    "set-bufsize-between-guarded-lookups": (lambda lm: _MAP + [
        ("ld", _SM + 8, "g"), ("setbuf", _CHUNK), ("ld", _SM + 8, "g")],
        [_R._R_GUARD, _R._R_MEM]),
}


def _event_stream(events, lm):
    """A hand-built ``(decoded, cold, hot)`` stream, retired in order.
    Events are ``("ld" | "st", addr[, flags[, label]])`` with flags from
    ``g`` (guarded), ``d`` (oracle-divert) and ``c`` (collapse candidate),
    ``("dget" | "dput", sm[, buffer])`` moving one chunk through LM buffer
    ``buffer`` (0 by default), and ``("setbuf", size)``.  Each event has a
    pc of its own, except that memory ops with the same kind, flags and
    ``label`` share one (a loop body the prefetcher trains on)."""
    kinds = {"ld": 1, "st": 2, "dget": 6, "dput": 7, "setbuf": 9}
    hot, cold, mem_addrs, dma_words, seq_pcs = [], [], [], [], array("I")
    shared = {}
    for name, operand, *rest in events:
        is_mem = name in ("ld", "st")
        flags = rest[0] if rest and is_mem else ""
        label = (name, flags, rest[1]) if is_mem and len(rest) > 1 else None
        pc = shared.get(label)
        if pc is None:
            pc = len(hot)
            hot.append((kinds[name], None, None, None, None, None, None))
            cold.append((0, operand if name == "setbuf" else 0,
                         "g" in flags, "d" in flags, "c" in flags))
            if label is not None:
                shared[label] = pc
        seq_pcs.append(pc)
        if is_mem:
            mem_addrs.append(operand)
        elif name != "setbuf":
            dma_words += [lm + (rest[0] if rest else 0) * _CHUNK, operand,
                          _CHUNK]
    return (replay_mod._Decoded(b"", 0, mem_addrs, dma_words, {},
                                seq_pcs),
            cold, hot)


@pytest.mark.parametrize("name", sorted(_LATCH_STREAMS))
def test_array_oracle_latch_and_directory_synthetic(name):
    """The collapse latch across LM stores, guarded hits and divert misses,
    the final latch, and a directory reconfigured between guarded lookups:
    the array oracle equals the scalar walk."""
    machine = _machine(1)
    lm = build_system("hybrid", machine).address_map.virtual_base
    events, routes = _LATCH_STREAMS[name]
    decoded, cold, hot = _event_stream(events(lm), lm)
    array_oracle = vector_mod._oracle_routes(decoded, cold, hot, "hybrid",
                                             machine, False)
    scalar = _oracle_routes_scalar(decoded, cold, hot, "hybrid",
                                              machine, False)
    _assert_same_oracle(array_oracle, scalar)
    assert list(array_oracle.routes) == routes
    if name == "ends-in-lm-store":
        assert array_oracle.patch["last_store_addr"] == lm + 24
        assert array_oracle.patch["last_store_to_sm"] is False


_MEM_FLAGS = {"ld": ["", "g", "d"], "st": ["", "g", "d", "c", "dc", "gc"]}


@st.composite
def _oracle_cases(draw):
    """A random stream over a line pool (small: the stream settles; large:
    it may evict and is walked) at a random geometry.  Loads and stores
    from a few pcs, each either at a random line or one stride (per pc)
    past its pc's previous line, so the prefetcher triggers; guarded,
    divert and collapse classes; dma-get and dma-put bursts over the
    pool's first lines; a set-bufsize at the start and possibly one
    mid-stream."""
    n_lines = draw(st.sampled_from([4, 12, 64]), label="n_lines")
    n_pcs = draw(st.integers(1, 6), label="n_pcs")
    # Each pc is one load or store instruction with fixed flags and a
    # stride of its own.
    pcs = draw(st.lists(st.tuples(st.sampled_from(["ld", "st"]),
                                  st.integers(0, 5),
                                  st.sampled_from([-2, -1, 1, 2, 3])),
                        min_size=n_pcs, max_size=n_pcs), label="pcs")
    mem_op = st.tuples(st.just("mem"), st.integers(0, n_pcs - 1),
                       st.integers(0, 2).map(bool),      # mostly strided
                       st.integers(0, n_lines - 1), st.integers(0, 7))
    dma_op = st.tuples(st.sampled_from(["dget", "dput"]),
                       st.sampled_from([0, 2, 4, 6]), st.integers(0, 3))
    setbuf_op = st.tuples(st.just("setbuf"),
                          st.sampled_from([_CHUNK, 2 * _CHUNK]))
    # Memory ops make up most of a stream, as in a loop body.
    op = st.one_of(mem_op, mem_op, mem_op, mem_op, dma_op, setbuf_op)
    size = draw(st.integers(4, 60), label="size")
    body = draw(st.lists(op, min_size=size, max_size=size), label="ops")
    events = [("setbuf", _CHUNK)]
    last = [0] * n_pcs
    for name, *args in body:
        if name == "mem":
            label, strided, line, word = args
            name, flag, stride = pcs[label]
            if strided:
                line = (last[label] + stride) % n_lines
            last[label] = line
            flags = _MEM_FLAGS[name][flag % len(_MEM_FLAGS[name])]
            events.append((name, _SM + line * 64 + word * 8, flags, label))
        elif name == "setbuf":
            events.append((name, args[0]))
        else:
            events.append((name, _SM + args[0] * _CHUNK, args[1]))
    overrides = {
        "memory.prefetch_enabled": draw(st.booleans()),
        "memory.prefetch_table_size": draw(st.sampled_from([2, 16])),
        "memory.prefetch_degree": draw(st.sampled_from([1, 4])),
        "memory.prefetch_distance": draw(st.sampled_from([0, 2])),
    }
    if draw(st.booleans(), label="small caches"):
        overrides.update({
            "memory.l1_size": draw(st.sampled_from([512, 2048])),
            "memory.l1_assoc": draw(st.sampled_from([1, 2, 8])),
            "memory.l2_size": draw(st.sampled_from([2048, 8192])),
            "memory.l2_assoc": draw(st.sampled_from([2, 8])),
            "memory.l3_size": draw(st.sampled_from([4096, 16384])),
            "memory.l3_assoc": draw(st.sampled_from([4, 32])),
        })
    return events, overrides, draw(st.booleans(), label="multicore")


@settings(max_examples=120, deadline=None)
@given(case=_oracle_cases())
@example(case=([("setbuf", _CHUNK), ("dget", _SM)]
               + [("ld", _SM + (i % 4) * 64, "g" if i % 3 else "", 0)
                  for i in range(12)]
               + [("dput", _SM), ("st", _SM + 8, "", 1),
                  ("st", _SM + 8, "c", 2)],
               {"memory.l1_size": 512, "memory.l1_assoc": 8}, True))
@example(case=([("setbuf", _CHUNK)]
               + [("ld", _SM + i * 64 * 8, "", 0) for i in range(20)]
               + [("dget", _SM), ("setbuf", 2 * _CHUNK),
                  ("ld", _SM + 64, "g", 1), ("st", _SM, "", 1)],
               {"memory.l1_size": 512, "memory.l1_assoc": 1}, False))
def test_oracle_equals_scalar_walk_property(case):
    """The oracle — settled or walked — equals the scalar walk field for
    field: routes, miss lines, guard entries, DMA arrays and the patch.
    The gate is all or nothing: a stream walks every demand-path access
    or none."""
    events, overrides, multicore = case
    machine = _machine(2 if multicore else 1).with_overrides(overrides)
    lm = build_system("hybrid", machine).address_map.virtual_base
    decoded, cold, hot = _event_stream(events, lm)
    args = (decoded, cold, hot, "hybrid", machine, multicore)
    with obs.recording() as rec:
        oracle = vector_mod._oracle_routes(*args)
    _assert_same_oracle(oracle, _oracle_routes_scalar(*args))
    assert rec.counters["vector.oracle.walked"] in (
        0, oracle.patch["demand_accesses"])


def test_oracle_walks_only_what_can_evict(fresh_cache):
    """On the 2-core CG tiny trace no stream walks a demand access at the
    default geometry; with an L1 whose sets overflow every stream walks
    every one.  Both equal the scalar walk."""
    machine0 = _machine(2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine0)
    entries = replay_mod._cached_programs(mtrace.key, machine0)
    for overrides, settles in (({}, True),
                               ({"memory.l1_size": 512,
                                 "memory.l1_assoc": 2}, False)):
        machine = machine0.with_overrides(overrides)
        for entry, trace in zip(entries, mtrace.cores):
            _, _, hot, cold, fu_values, _, _ = entry
            decoded = replay_mod._decode_trace(trace, hot, cold, fu_values)
            with obs.recording() as rec:
                oracle = vector_mod._oracle_routes(decoded, cold, hot,
                                                   "hybrid", machine, True)
            demand = oracle.patch["demand_accesses"]
            assert demand > 0
            assert rec.counters["vector.oracle.walked"] == (
                0 if settles else demand)
            assert (oracle.patch["l1"].evictions == 0) == settles
            _assert_same_oracle(oracle, _oracle_routes_scalar(
                decoded, cold, hot, "hybrid", machine, True))


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
            scalar = _branch_flags_scalar(decoded, cold, config,
                                                     hot)
            assert batched == scalar


def test_batched_flags_loop_branches_between_jumps():
    """Back-to-back taken loop branches (the repeated BTB installs the flags
    pass drops) interleaved with jumps that probe and evict in the same
    BTB sets, and not-taken branches that touch no BTB entry: the flags
    and BTB counters equal the scalar walk."""
    rng = random.Random(20261020)
    # pcs 0-3: conditional branches (0 and 1 loop on themselves); pcs 4-6:
    # jumps.  Instruction addresses are multiples of 4, so the 4-entry BTBs
    # hold all seven pcs in one set of 1 or 2 ways, and the 64-entry one
    # pcs 0 and 4 (1 and 5, 2 and 6) in one set.
    hot = [(3,) + (None,) * 6] * 4 + [(4,) + (None,) * 6] * 3
    cold = [(0,), (1,), (0,), (6,), (0,), (2,), (1,)]
    seq, taken = [], []
    for _ in range(300):
        pc = rng.choice([0, 0, 0, 1, 1, 2, 3, 4, 5, 6])
        for _ in range(rng.randint(1, 4) if pc < 2 else 1):
            seq.append(pc)
            if pc < 4:
                taken.append(rng.random() < 0.8)
    decoded = replay_mod._Decoded(pack_bits(taken), len(taken),
                                  [], [], {}, array("I", seq))
    for entries, assoc in ((4, 1), (4, 2), (64, 4)):
        config = core_config_for(_machine(1).with_overrides(
            {"core.btb_entries": entries, "core.btb_assoc": assoc}))
        assert (vector_mod._branch_flags(decoded, cold, config, hot)
                == _branch_flags_scalar(decoded, cold, config, hot))


# ----------------------------------------------------- warm replay path
def test_warm_vector_replay_is_pass_free(fresh_cache):
    """Cold replay persists one artifact per (pass, core); a fresh-process
    warm replay satisfies every pass from disk and stays bit-identical to
    execution."""
    machine = _machine(2)
    executed, mtrace = capture_workload("CG", "hybrid", "tiny",
                                        machine=machine)
    cold_run = replay_trace(mtrace, machine)
    store = artifacts.default_store()
    assert store is not None
    assert store.writes == 8        # decode/oracle/flags/prelower x 2 cores

    _clear_memo_caches()
    with obs.recording() as rec:
        warm = replay_trace(mtrace, machine)
    counters = rec.counters
    for pass_hit in ("replay.decode.disk.hit", "vector.oracle.disk.hit",
                     "vector.flags.disk.hit", "vector.prelower.disk.hit"):
        assert counters.get(pass_hit) == 2, (pass_hit, counters)
    for pass_miss in ("replay.decode.miss", "vector.oracle.miss",
                      "vector.flags.miss", "vector.prelower.miss"):
        assert pass_miss not in counters, (pass_miss, counters)
    for run in (cold_run, warm):
        _assert_same_run(run, executed)


def test_warm_vector_replay_builds_no_seq(fresh_cache, monkeypatch):
    """A decode read from disk carries only the pc stream and the memory-op
    classification: a warm replay runs no decode walk, builds no
    per-instruction sequence (the decode holds the event streams, one
    ``uint32`` pc per retired instruction and per-SM-op arrays) and equals
    execution."""
    machine = _machine(2)
    executed, mtrace = capture_workload("CG", "hybrid", "tiny",
                                        machine=machine)
    replay_trace(mtrace, machine)      # cold: writes

    def no_walk(*args):
        raise AssertionError("the decode walk ran on a warm replay")

    _clear_memo_caches()
    monkeypatch.setattr(replay_mod, "_decode_trace", no_walk)
    warm = replay_trace(mtrace, machine)
    entries = list(replay_mod._DECODE_CACHE.values())
    assert len(entries) == 2
    for core_trace, entry in zip(mtrace.cores, entries):
        assert entry._fields == ("branch_bits", "branch_count", "mem_addrs",
                                 "dma_words", "fu_counts", "seq_pcs",
                                 "classes")
        # The event streams are the trace's own, the outcomes still packed.
        assert entry.branch_bits is core_trace.branch_bits
        assert entry.dma_words is core_trace.dma_words
        assert entry.seq_pcs.typecode == "I"
        assert entry.classes.n_mem == len(core_trace.mem_addrs)
        assert len(entry.seq_pcs) == core_trace.instructions
    _assert_same_run(warm, executed)


def test_warm_replay_identity_clustered(fresh_cache):
    """Artifact-fed replay on a clustered uncore (2 clusters x 4 cores)
    matches execution exactly, warm and cold."""
    machine = _machine(4, num_clusters=2)
    executed, mtrace = capture_workload("CG", "hybrid", "tiny",
                                        machine=machine)
    _assert_same_run(replay_trace(mtrace, machine), executed)  # cold: writes
    _clear_memo_caches()
    _assert_same_run(replay_trace(mtrace, machine), executed)


def _clear_every_memo():
    """Forget every ``*_CACHE`` memo of both replay modules (rebuilt
    programs and L1I simulations included)."""
    for module in (replay_mod, vector_mod):
        for name, memo in vars(module).items():
            if name.endswith("_CACHE") and isinstance(memo, dict):
                memo.clear()


# Per path: (counters, phases) of a cold replay (empty memos and artifact
# store), a warm one (memos cleared, artifacts on disk) and a hot one (memos
# kept).  Pass counters are pinned by value; the rest of the counter set
# (the vector engine's epoch/bounce counts and the lane scheduler's grant
# count) by name.  The "execution" path
# is replay without a C kernel: it validates the trace against its rebuilt
# program, records its degradation and runs no derivation pass.
_PASS_COUNTS = {
    "execution": {
        "cold": {"replay.program.miss": 1, "degraded.vector": 1},
        "warm": {"replay.program.miss": 1, "degraded.vector": 1},
        "hot": {"replay.program.hit": 1, "degraded.vector": 1},
    },
    "vector": {
        # Both core streams of the default geometry settle: no demand
        # access is walked.
        "cold": {"replay.program.miss": 1, "replay.decode.miss": 2,
                 "replay.l1i.miss": 2, "vector.oracle.miss": 2,
                 "vector.oracle.walked": 0,
                 "vector.flags.miss": 2, "vector.prelower.miss": 2},
        "warm": {"replay.program.miss": 1, "replay.decode.hit": 2,
                 "replay.decode.disk.hit": 2, "replay.l1i.miss": 2,
                 "vector.oracle.hit": 2, "vector.oracle.disk.hit": 2,
                 "vector.flags.hit": 2, "vector.flags.disk.hit": 2,
                 "vector.prelower.hit": 2, "vector.prelower.disk.hit": 2},
        "hot": {"replay.program.hit": 1, "replay.decode.hit": 2,
                "replay.l1i.hit": 2, "vector.oracle.hit": 2,
                "vector.flags.hit": 2, "vector.prelower.hit": 2},
    },
}
_PHASES = {
    "execution": {
        "cold": {"replay.program"},
        "warm": {"replay.program"},
        "hot": set(),
    },
    "vector": {
        "cold": {"replay.program", "replay.decode", "replay.l1i",
                 "vector.oracle", "vector.flags", "vector.prelower",
                 "vector.timing"},
        # The variant tables have no artifact: a fresh process rebuilds
        # them under the prelower phase, counting no lookup.
        "warm": {"replay.program", "replay.l1i", "vector.prelower",
                 "vector.timing"},
        "hot": {"vector.timing"},
    },
}
_KERNEL_COUNTERS = {"vector.ckernel.epochs", "vector.bounce.dma",
                    "vector.bounce.dma_sync", "vector.bounce.mem_miss",
                    "vector.bounce.set_bufsize"}


@pytest.mark.parametrize("engine", ["execution", "vector"])
def test_pass_counters_and_phases_pinned(engine, fresh_cache, monkeypatch):
    """Every memo/disk/compute lookup of a 2-core replay reports exactly
    the counters and phases listed above: cold, warm from the artifact
    store, and hot from the in-process memos — on the vector engine, and
    on the execution-driven fallback taken without a C kernel."""
    from repro.trace import _ckernel
    if engine == "vector" and _ckernel.load() is None:
        pytest.skip("no C kernel: replay runs the program instead")
    if engine == "execution":
        monkeypatch.setattr(_ckernel, "load", lambda: None)
    machine = _machine(2)
    reference, mtrace = capture_workload("CG", "hybrid", "tiny",
                                         machine=machine)
    _clear_every_memo()
    kernel = {"lanes.grants"} | (_KERNEL_COUNTERS if engine == "vector"
                                 else set())
    for label in ("cold", "warm", "hot"):
        if label == "warm":
            _clear_every_memo()
        with obs.recording() as rec:
            run = replay_trace(mtrace, machine)
        expected = _PASS_COUNTS[engine][label]
        assert set(rec.counters) == set(expected) | kernel, (label,
                                                             rec.counters)
        assert {name: rec.counters[name] for name in expected} == expected, \
            label
        assert set(rec.phases) == _PHASES[engine][label], (label, rec.phases)
        _assert_same_run(run, reference)


def _assert_same_run(run, reference):
    assert run.cycles == reference.cycles
    assert run.total_energy == reference.total_energy
    assert run.sim.memory_stats == reference.sim.memory_stats
    assert (run.sim.core_stats["per_core"]
            == reference.sim.core_stats["per_core"])


def test_latency_points_share_prelower_artifact(tmp_path):
    """The prelower key holds no latency: points that change only the L1 or
    LM latency read the base point's prelower artifacts and still equal
    execution (the latencies go into the per-point table)."""
    machine = _machine(2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    with artifacts.scoped(cache_root=tmp_path):
        _clear_memo_caches()
        replay_trace(mtrace, machine)
        for override in ({"memory.l1_latency": 4}, {"lm_latency": 4}):
            point = machine.with_overrides(override)
            executed = run_workload("CG", "hybrid", "tiny", machine=point)
            _clear_memo_caches()
            with obs.recording() as rec:
                run = replay_trace(mtrace, point)
            assert rec.counters.get("vector.prelower.disk.hit") == 2, override
            assert "vector.prelower.miss" not in rec.counters, override
            _assert_same_run(run, executed)
    _clear_memo_caches()


@pytest.mark.parametrize("kind,section,cut", [("oracle", "miss_lines", 8),
                                              ("prelower", "lroutes", 1)])
def test_artifact_out_of_step_with_its_routes_reads_as_miss(
        kind, section, cut, fresh_cache):
    """A parseable artifact whose side array is shorter than its routes
    imply would send the C kernel past the end of that array: it reads as a
    miss, the pass is recomputed and the replay still equals execution."""
    machine = _machine(2)
    executed, mtrace = capture_workload("CG", "hybrid", "tiny",
                                        machine=machine)
    replay_trace(mtrace, machine)      # cold: writes
    paths = sorted(artifacts.default_store().root.glob(
        f"{mtrace.key.key_hash}/{kind}-*.art"))
    assert len(paths) == 2
    for path in paths:
        stored_kind, meta, sections = decode_artifact(path.read_bytes())
        assert len(sections[section]) >= cut
        sections[section] = sections[section][:-cut]
        path.write_bytes(encode_artifact(stored_kind, meta,
                                         list(sections.items())))
    _clear_memo_caches()
    with obs.recording() as rec:
        warm = replay_trace(mtrace, machine)
    assert rec.counters.get(f"vector.{kind}.miss") == 2, rec.counters
    assert f"vector.{kind}.disk.hit" not in rec.counters, rec.counters
    _assert_same_run(warm, executed)


@pytest.mark.parametrize("section,corrupt", [
    ("sm_cls", lambda b: b[:-1]),
    ("sm_prev", lambda b: b[:-4] + struct.pack("<i", 1 << 30)),
    ("cuts", lambda b: array("i", sorted(array("i", b), reverse=True))
     .tobytes())])
def test_decode_classes_out_of_step_read_as_miss(section, corrupt,
                                                 fresh_cache):
    """A decode artifact whose memory-op classification is out of step
    with itself (a short class array, a previous store after its op,
    event cuts out of order) reads as a miss: the decode is recomputed and
    the replay still equals execution."""
    machine = _machine(2)
    executed, mtrace = capture_workload("CG", "hybrid", "tiny",
                                        machine=machine)
    replay_trace(mtrace, machine)      # cold: writes
    paths = sorted(artifacts.default_store().root.glob(
        f"{mtrace.key.key_hash}/decode-*.art"))
    assert len(paths) == 2
    for path in paths:
        stored_kind, meta, sections = decode_artifact(path.read_bytes())
        sections[section] = corrupt(sections[section])
        path.write_bytes(encode_artifact(stored_kind, meta,
                                         list(sections.items())))
    _clear_memo_caches()
    with obs.recording() as rec:
        warm = replay_trace(mtrace, machine)
    assert rec.counters.get("replay.decode.miss") == 2, rec.counters
    _assert_same_run(warm, executed)


def _corrupt(sections, name, fn):
    out = dict(sections)
    out[name] = fn(sections[name])
    return out


def test_artifact_validation_rejects_each_inconsistency(fresh_cache):
    """Every count or range the C kernel relies on is checked on read."""
    machine = _machine(1)
    decoded, cold, hot = _guard_stream(machine)
    oracle = vector_mod._oracle_routes(decoded, cold, hot, "hybrid",
                                       machine, False)
    n_mem = len(decoded.mem_addrs)
    meta, sections = vector_mod._oracle_to_artifact(oracle)
    sections = dict(sections)
    assert oracle.miss_lines and oracle.guard_entries
    assert vector_mod._oracle_from_artifact(meta, sections, n_mem)
    n_dir = struct.pack("<i", oracle.n_dir)
    for bad in (_corrupt(sections, "miss_lines", lambda b: b[:-8]),
                _corrupt(sections, "guard_entries", lambda b: b[:-4]),
                _corrupt(sections, "guard_entries", lambda b: n_dir + b[4:]),
                _corrupt(sections, "guard_entries",
                         lambda b: struct.pack("<i", -1) + b[4:]),
                _corrupt(sections, "dma_nlines", lambda b: b[:-4]),
                _corrupt(sections, "routes", lambda b: b[:-1] + b"\x07")):
        assert vector_mod._oracle_from_artifact(meta, bad, n_mem) is None
    assert vector_mod._oracle_from_artifact(meta, sections, n_mem + 1) is None

    _, trace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    replay_trace(trace, machine)
    (oracle,) = vector_mod._ORACLE_CACHE.values()
    (vstream,) = vector_mod._PRELOWER_CACHE.values()
    n = trace.instructions
    psections = dict(vector_mod._vstream_to_artifact(vstream)[1])
    assert vector_mod._vstream_from_artifact(psections, n, oracle)
    live_at = psections["sel"].index(vector_mod._S_LIVE)
    for bad in (_corrupt(psections, "sel", lambda b: b[:-1]),
                _corrupt(psections, "sel", lambda b: b"\x04" + b[1:]),
                _corrupt(psections, "sel", lambda b: b[:live_at] + b"\x00"
                         + b[live_at + 1:]),
                _corrupt(psections, "lroutes", lambda b: b[:-1]),
                _corrupt(psections, "lroutes",
                         lambda b: bytes([vector_mod._R_L1]) + b[1:])):
        assert vector_mod._vstream_from_artifact(bad, n, oracle) is None


# ----------------------------------------------- cross-process determinism
_DETERMINISM_SCRIPT = """
import dataclasses, hashlib, os
from pathlib import Path
from repro.harness.config import PTLSIM_CONFIG
from repro.trace import capture_workload, replay_trace
m = dataclasses.replace(PTLSIM_CONFIG, num_cores=2)
_, t = capture_workload('CG', 'hybrid', 'tiny', machine=m)
r = replay_trace(t, m)
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
        replay_trace(trace, machine)
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
