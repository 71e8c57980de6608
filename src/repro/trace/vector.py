"""The vector replay engine: derivation passes plus a compiled timing loop.

:func:`~repro.trace.replay.replay_trace` re-times every trace on this
engine.  Instead of walking the memory system one instruction at a time, it
splits the work by *data dependence*:

* **Structure updates are batched out of the timing loop.**  Cache tag/LRU
  evolution, directory hit/miss outcomes, prefetcher training and branch
  predictor table updates are all *timing-independent*: they depend only on
  the recorded program-order stream, never on the clock.  One **oracle
  pass** per (trace, cache-geometry) pair resolves the stream against a
  scratch memory system built for that geometry and records, per memory
  op, which level serves it (a dense route code), the miss line addresses,
  and the final activity counters.  It is an array program: numpy masks
  over the pc and address streams classify every op, LM-range ops are
  counted without a visit, guarded and divert accesses look up the
  directory inline (it changes only at DMA and set-bufsize events), and
  the cache hierarchy takes the remaining demand accesses in batches
  flushed only before DMA transfers.  One **flags pass** per (trace,
  predictor geometry) resolves every conditional branch through the batched
  :meth:`~repro.cpu.branch_predictor.HybridBranchPredictor.update_batch`
  entry point (provably equivalent to N scalar updates) and every jump
  through the BTB, yielding a flat mispredict-flag stream.  Ablation points
  that share a geometry share the pass — the 6-point ``medium`` machine
  sweep pays 3 oracle passes and 1 flags pass instead of 6 full re-walks.

* **Inside an epoch, the scalar recurrence remains.**  Issue/retire times
  form a data-dependent recurrence (ROB/LSQ occupancy, register readiness,
  issue-slot and FU reservations), so the in-epoch timing walk stays the
  execution lane's recurrence — but stripped to pure arithmetic and
  compiled (:mod:`repro.trace._ckernel`).  The kernel reads small per-pc
  tables built once per program: each pc has four variants (LM, L1, live,
  collapsed), and a **prelower** pass — a few numpy operations over the
  decoded pc stream and the oracle's routes — picks one per retired
  instruction as a one-byte selector.  Static latencies (``lm``, ``l1``)
  are written into the table per machine point, live ones come from
  ``mshr.request(line, now, beyond)``, mispredict redirects from the flag
  stream, registers from a dense-int remap.  Only two *live* structures
  remain in the loop: the MSHR file (merge/occupancy depends on real
  clocks) and, multicore, the shared uncore arbiter.

* **Epochs break only at contention-relevant events.**  Multicore lanes run
  free — whole slices of private work per resume — and yield to the global
  min-fetch-time scheduler only immediately *before* an instruction that
  touches the shared uncore (a DMA burst or a demand miss routed to
  memory).  Everything between two uncore events commutes across cores, so
  the shared arbiter still observes the exact execution request order and
  multicore identity is preserved.

This module holds the engine's passes, the variant tables and
:class:`_VectorLane`; the driver is :mod:`repro.trace.replay`'s —
``replay_trace`` validates the trace and its one ``_replay`` builds the
system and one lane per core; the decode and L1I passes are shared there
too, and every pass lookup goes through its ``_tiered`` memory -> disk ->
compute policy.

The result is bit-identical to execution: same cycles, same phase
breakdown, same activity counters, same energy — enforced by
``tests/test_vector_replay.py`` over every NAS kernel, both system modes
and 1/2/4 cores.  Without a compiled kernel
:func:`~repro.trace.replay.replay_trace` runs the program execution-driven
instead.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.cpu.branch_predictor import HybridBranchPredictor
from repro.cpu.pipeline import (
    CODE_BASE,
    CODE_INSTR_SIZE,
    OutOfOrderTimingModel,
)
from repro.harness.config import MachineConfig
from repro.harness.systems import build_system
from repro.mem.cache import CacheStats
from repro.trace import _ckernel
from repro.trace.format import Trace, TraceKey
from repro.trace.replay import (
    _K_CBR,
    _K_JMP,
    _cached_decode,
    _l1i_stats,
    _remember,
    _tiered,
)

#: No public names: :func:`~repro.trace.replay.replay_trace` is the entry
#: point.
__all__: list = []

# Dense route codes, one per memory operation (LM-plain ops included):
# which structure serves it, resolved once per (trace, geometry) by the
# oracle pass.  Routes 3/4/5 carry their miss line address out-of-band.
_R_LM, _R_GUARD, _R_L1, _R_L2, _R_L3, _R_MEM, _R_COLLAPSED = 0, 1, 2, 3, 4, 5, 6

# Oracle routes and the prelowered selector are shared across every ablation
# point with the same cache geometry (both use the oracle's key); flags and
# variant tables are small.  Caps sized so a 4-core sweep over a handful of
# geometries never thrashes.
_ORACLE_CACHE: "OrderedDict[tuple, _OracleRoutes]" = OrderedDict()
_VTAB_CACHE: "OrderedDict[str, _VTab]" = OrderedDict()
_PRELOWER_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_ORACLE_CAP = 24
_SMALL_CAP = 16

# In-loop opcodes ("vkind"): each pc has four variants, one per static route
# (see the selector below), so the timing loop never re-derives what kind of
# work an instruction is.  Static-latency memory ops (LM hits, L1 hits,
# collapsed stores) carry their final latency in the per-point table; only
# "live" ops (MSHR misses, guarded directory hits, uncore-arbitrated memory
# misses) are resolved in-loop.  Loads are odd, stores even (the retire path
# applies the 2-cycle store-commit cap by parity); DMA/sync/halt are >= 8 and
# the frontend-drain pair (dsync, halt) is >= 11.
#   0 ALU            1 load->LM       2 store->LM/collapsed
#   3 load->L1 hit   4 store->L1 hit  5 live load   6 live store
#   7 branch (CBR/JMP)
#   8 dma-get   9 dma-put   10 set-bufsize   11 dma-sync   12 halt
_VK_BY_KIND = {0: 0, 3: 7, 4: 7, 5: 12, 6: 8, 7: 9, 8: 11, 9: 10}

# Variant selector, one byte per retired instruction: the kernel reads a
# pc's variant ``pc * 4 + sel``.  Non-memory pcs repeat one variant four
# times and always select 0.
_S_LM, _S_L1, _S_LIVE, _S_COLLAPSED = 0, 1, 2, 3
_SEL_BY_ROUTE = np.array([_S_LM, _S_LIVE, _S_L1, _S_LIVE, _S_LIVE, _S_LIVE,
                          _S_COLLAPSED], np.uint8)
_N_ROUTES = len(_SEL_BY_ROUTE)


class _OracleRoutes:
    """Timing-independent routing of one stream under one cache geometry."""

    __slots__ = ("routes", "miss_lines", "guard_entries", "dma_nlines",
                 "dma_addrs", "dget_entries", "n_dir", "collapsed", "patch")

    def __init__(self, routes, miss_lines, guard_entries, dma_nlines,
                 dma_addrs, dget_entries, n_dir, patch):
        self.routes = routes              # bytes, one code per memory op
        self.miss_lines = miss_lines      # array("q"), routes 3/4/5 in order
        self.guard_entries = guard_entries  # array("i"), route 1 in order
        self.dma_nlines = dma_nlines      # array("i"), per dget/dput in order
        self.dma_addrs = dma_addrs        # array("q"), raw SM byte address
                                          # per dget/dput (NUMA home routing)
        self.dget_entries = dget_entries  # array("i"), per dget (-1: no dir)
        self.n_dir = n_dir                # directory entries (presence arrays)
        self.collapsed = routes.count(_R_COLLAPSED)
        self.patch = patch                # final activity counters to install


def _geometry_key(mode: str, machine: MachineConfig, multicore: bool) -> tuple:
    """Everything the oracle routing depends on (timing knobs excluded)."""
    c = machine.cache_based().memory if mode == "cache" else machine.memory
    return (mode, multicore, c.line_size, c.l1_size, c.l1_assoc,
            c.l2_size, c.l2_assoc, c.l3_size, c.l3_assoc,
            c.prefetch_enabled, c.prefetch_table_size, c.prefetch_degree,
            c.prefetch_distance, machine.lm_size, machine.directory_entries)


def _oracle_to_artifact(oracle: _OracleRoutes) -> tuple:
    """Persistable (meta, sections) projection of an oracle result."""
    patch = dict(oracle.patch)
    for level in ("l1", "l2", "l3"):
        patch[level] = patch[level].as_dict()
    if "agu" in patch:
        patch["agu"] = list(patch["agu"])
    meta = {"n_dir": oracle.n_dir, "patch": patch}
    sections = [("routes", bytes(oracle.routes)),
                ("miss_lines", oracle.miss_lines.tobytes()),
                ("guard_entries", oracle.guard_entries.tobytes()),
                ("dma_nlines", oracle.dma_nlines.tobytes()),
                ("dma_addrs", oracle.dma_addrs.tobytes()),
                ("dget_entries", oracle.dget_entries.tobytes())]
    return meta, sections


def _oracle_from_artifact(meta, sections, n_mem: int):
    """Rebuild an :class:`_OracleRoutes` from its artifact (None if torn).

    The C kernel indexes the side arrays by cursors the routes advance, so
    a file whose counts disagree with its ``n_mem`` routes, or whose guard
    entries fall outside the directory, reads as torn.
    """
    try:
        patch = dict(meta["patch"])
        for level in ("l1", "l2", "l3"):
            patch[level] = CacheStats(**patch[level])
        if "agu" in patch:
            patch["agu"] = tuple(patch["agu"])
        miss_lines = array("q")
        miss_lines.frombytes(sections["miss_lines"])
        guard_entries = array("i")
        guard_entries.frombytes(sections["guard_entries"])
        dma_nlines = array("i")
        dma_nlines.frombytes(sections["dma_nlines"])
        dma_addrs = array("q")
        dma_addrs.frombytes(sections["dma_addrs"])
        dget_entries = array("i")
        dget_entries.frombytes(sections["dget_entries"])
        routes = sections["routes"]
        n_dir = int(meta["n_dir"])
        counts = np.bincount(np.frombuffer(routes, np.uint8),
                             minlength=_N_ROUTES)
        guards = np.frombuffer(guard_entries, np.int32)
        if (len(counts) != _N_ROUTES or len(routes) != n_mem
                or len(miss_lines) != counts[_R_L2:_R_MEM + 1].sum()
                or len(guards) != counts[_R_GUARD]
                or (len(guards) and not 0 <= guards.min() <= guards.max()
                    < n_dir)
                or len(dma_nlines) != len(dma_addrs)):
            return None
        return _OracleRoutes(routes, miss_lines, guard_entries, dma_nlines,
                             dma_addrs, dget_entries, n_dir, patch)
    except (KeyError, TypeError, ValueError):
        return None


def _pass_key(trace: Trace, mode: str, machine: MachineConfig,
              multicore: bool) -> tuple:
    """Key of the oracle and prelower passes: stream plus cache geometry."""
    return (trace.program_fingerprint, trace.stream_digest(),
            _geometry_key(mode, machine, multicore))


def _cached_oracle(trace: Trace, decoded, cold, hot, mode: str,
                   machine: MachineConfig, multicore: bool,
                   parent_hash=None) -> _OracleRoutes:
    return _tiered(
        _ORACLE_CACHE, _ORACLE_CAP,
        _pass_key(trace, mode, machine, multicore), "vector.oracle",
        lambda: _oracle_routes(decoded, cold, hot, mode, machine, multicore),
        parent_hash, "oracle", _oracle_to_artifact,
        lambda meta, sections: _oracle_from_artifact(meta, sections,
                                                     len(decoded.mem_addrs)))


def _scratch_system(mode: str, machine: MachineConfig):
    """The oracle's scratch system: the per-core :func:`build_system`
    product of the replay point, with a DMA controller that moves no data
    words — a replayed run reads no data (loads take recorded addresses,
    stores write nothing), and the block copies change no counter, so a
    transfer only has to snoop the caches and count."""
    S = build_system(mode, machine)
    if S.dmac is not None:
        S.dmac.copy_data = False
    return S


def _oracle_event(S, kind: int, tag, dma_words, di: int, multicore: bool,
                  dma_nlines, dma_addrs, dget_entries) -> None:
    """Drive one DMA, dma-sync or set-bufsize event through the scratch
    system at ``now=0.0``, recording the dget/dput side arrays.  The
    scratch DMA controller moves no data words (see
    :func:`_scratch_system`): its snoops and counters are all the oracle
    reads."""
    if kind == 8:        # dma-sync (timing only; keeps the syncs counter)
        S.dma_sync(tag, now=0.0)
        return
    if kind == 9:        # set-bufsize
        S.set_buffer_size(tag)
        return
    lm_v, sm, size = dma_words[di:di + 3]
    line_size = S.hierarchy.config.line_size
    end = sm + size - 1
    dma_nlines.append((end - end % line_size - (sm - sm % line_size))
                      // line_size + 1)
    dma_addrs.append(sm)
    directory = S.directory
    if kind == 6:        # dma-get
        S.dma_get(lm_v, sm, size, tag=tag, now=0.0)
        dget_entries.append(
            S.address_map.translate(lm_v) // directory.buffer_size
            if directory.is_configured else -1)
        return
    S.dma_put(lm_v, sm, size, tag=tag, now=0.0)
    if multicore and directory.is_configured:
        # MulticoreHybridSystem.dma_put: write-back ends the chunk's LM
        # residence, unmapping the issuing core's directory entry.
        lm_offset = S.address_map.translate(lm_v)
        entry = directory.entries[directory.buffer_index(lm_offset)]
        if entry.valid and entry.tag == (sm & directory.base_mask):
            directory.invalidate_buffer(lm_offset)


def _oracle_result(S, routes, miss_lines, guard_entries, dma_nlines,
                   dma_addrs, dget_entries, lm_loads: int,
                   lm_stores: int) -> _OracleRoutes:
    """Package a finished oracle walk: the side arrays plus the scratch
    system's final activity counters, with ``lm_loads``/``lm_stores``
    LM-range accesses the walk counted instead of issuing."""
    hierarchy = S.hierarchy
    prefetcher = hierarchy.prefetcher
    patch = {
        "loads": S.loads + lm_loads,
        "stores": S.stores + lm_stores,
        "guarded_loads": S.guarded_loads,
        "guarded_stores": S.guarded_stores,
        "collapsed_stores": S.collapsed_stores,
        "mem_ops": S.mem_ops + lm_loads + lm_stores,
        "last_store_addr": S._last_store_addr,
        "last_store_to_sm": S._last_store_to_sm,
        "demand_accesses": hierarchy.demand_accesses,
        "l1": hierarchy.l1.stats,
        "l2": hierarchy.l2.stats,
        "l3": hierarchy.l3.stats,
        "memory_reads": hierarchy.memory.reads,
        "memory_writes": hierarchy.memory.writes,
        "bus_transactions": hierarchy.bus.transactions,
        "bus_dma_transactions": hierarchy.bus.dma_transactions,
        "bus_bytes": hierarchy.bus.bytes_transferred,
        "pf_trainings": prefetcher.trainings,
        "pf_issued": prefetcher.issued,
        "pf_collisions": prefetcher.collisions,
    }
    n_dir = 0
    if S.use_lm:
        directory = S.directory
        n_dir = len(directory.entries)
        patch.update({
            "lm_reads": S.lm.reads + lm_loads,
            "lm_writes": S.lm.writes + lm_stores,
            "agu": (S.agu.guarded_loads, S.agu.guarded_stores,
                    S.agu.diverted_loads, S.agu.diverted_stores),
            "dir_lookups": directory.stats.lookups,
            "dir_hits": directory.stats.hits,
            "dir_misses": directory.stats.misses,
            "dir_updates": directory.stats.updates,
            "dir_configurations": directory.stats.configurations,
            "dma_gets": S.dmac.gets,
            "dma_puts": S.dmac.puts,
            "dma_syncs": S.dmac.syncs,
            "dma_words": S.dmac.words_transferred,
            "dma_lines": S.dmac.lines_transferred,
        })
    return _OracleRoutes(bytes(routes), miss_lines, guard_entries, dma_nlines,
                         dma_addrs, dget_entries, n_dir, patch)


def _oracle_routes(decoded, cold, hot, mode: str, machine: MachineConfig,
                   multicore: bool) -> _OracleRoutes:
    """Array oracle pass — bit-identical to a scalar walk that drives the
    scratch system's real ``load``/``store``/DMA calls in stream order (the
    reference in ``tests/test_artifact_cache.py``).

    Between two DMA or set-bufsize events the directory is fixed, so every
    access's fate up to the cache hierarchy is known without walking it:

    * **Classification by mask.**  A per-pc kind/flag table (as in
      :func:`_branch_flags`) indexed by the retired pc stream, and a range
      mask over the address stream, sort every memory op into LM-range or
      SM, load or store, guarded / oracle-divert / collapse candidate.
      LM-range ops are counted, never visited: their route is ``_R_LM``.
    * **The store-collapse latch from array indices.**  LM-range stores set
      the ``_last_store_*`` latch too.  Each SM store's previous store
      (a ``maximum.accumulate`` over store indices) says whether an LM
      store cleared the latch since the last SM store; the final latch
      comes from the stream's last store.
    * **Python visits only SM ops and DMA/sync/set-bufsize events.**
      Guarded and divert accesses resolve the directory inline through the
      real ``lookup``/``peek_lookup`` (same directory and AGU counters).
      Directory misses and plain SM ops queue as demand accesses.
    * **Demand accesses are flushed in batches**, only before a DMA
      transfer (its per-line snoops read and invalidate the caches the
      queued accesses fill) and at the end.  Within a flush, prefetcher
      training is one ``StreamPrefetcher.train_batch`` (exactly N
      ``train()`` calls) whose fill lists land at each access's
      position, and a maximal run of prefetch-quiet L1 hits goes through
      :meth:`~repro.mem.cache.Cache.access_batch` — an L1 hit disturbs only
      LRU order (write-through, no fills), so the ``probe`` outcome of later
      run members cannot change, and the run's store write-throughs keep
      their per-cache order when replayed as L2/L3 batches after it
      (write-throughs never fill, so L2 outcomes are independent of the
      interleaved L3 traffic).

    Everything the skipped ``load``/``store`` calls would have incremented
    (system, AGU and LM counters, functional ``MainMemory`` word-touch
    counters, ``demand_accesses``) is folded in at the end; the functional
    data words themselves are scratch nothing reads back and are skipped.
    """
    mem_addrs, dma_words, seq_pcs = (decoded.mem_addrs, decoded.dma_words,
                                     decoded.seq_pcs)
    S = _scratch_system(mode, machine)
    hierarchy = S.hierarchy
    l1, l2, l3 = hierarchy.l1, hierarchy.l2, hierarchy.l3
    memory = hierarchy.memory
    prefetcher = hierarchy.prefetcher
    prefetch_enabled = hierarchy._prefetch_enabled
    line_size = hierarchy.config.line_size
    use_lm = S.use_lm
    directory = S.directory

    # -- classification: per-pc tables, then masks over the whole stream --
    # Per-SM-op class bits: 1 store, 2 guarded, 4 oracle-divert, 8 collapse
    # candidate, 16 an LM-range store is the latest store before it.
    kind_by_pc = np.fromiter((h[0] for h in hot), np.uint8, len(hot))
    flag_by_pc = np.fromiter(((c[2] << 1) | (c[3] << 2) | (c[4] << 3)
                              for c in cold), np.uint8, len(cold))
    pcs = np.frombuffer(seq_pcs, np.uint32)
    kinds = kind_by_pc[pcs]
    is_mem = (kinds == 1) | (kinds == 2)
    mem_pcs = pcs[is_mem]
    n_mem = len(mem_pcs)
    addrs = np.array(mem_addrs, np.int64)
    is_store = kind_by_pc[mem_pcs] == 2
    in_lm = (addrs >= S._lm_lo) & (addrs < S._lm_hi)
    sm = np.flatnonzero(~in_lm)
    last_store = np.maximum.accumulate(
        np.where(is_store, np.arange(n_mem), -1))
    prev_store = np.where(sm > 0, last_store[sm - 1], -1)
    sm_cls = (is_store[sm] | flag_by_pc[mem_pcs[sm]]
              | (((prev_store >= 0) & in_lm[prev_store]) << 4))
    if not use_lm:
        if np.any(sm_cls & 2):
            raise RuntimeError(
                "guarded access executed on the cache-based system")
        sm_cls &= ~4                # no directory: oracle-divert is a no-op
    n_lm_loads = int(np.count_nonzero(in_lm & ~is_store))
    n_lm_stores = int(np.count_nonzero(in_lm & is_store))
    ev_pos = np.flatnonzero(kinds >= 6)
    cuts = np.searchsorted(
        sm, np.searchsorted(np.flatnonzero(is_mem), ev_pos)).tolist()
    ev_kinds = kinds[ev_pos].tolist()
    ev_tags = [cold[pc][1] for pc in pcs[ev_pos].tolist()]
    # Only the SM subset becomes Python lists.
    sm_pos = sm.tolist()
    sm_addr = addrs[sm].tolist()
    sm_pc = mem_pcs[sm].tolist()
    sm_cls = sm_cls.tolist()
    final_lm_store = None       # the stream's last store, if LM-range
    if n_mem and last_store[-1] >= 0 and in_lm[last_store[-1]]:
        final_lm_store = int(addrs[last_store[-1]])
    n_stores = int(np.count_nonzero(is_store))
    # Only the SM lists above are needed past here: free the whole-stream
    # arrays before the walk (peak RSS).
    del kinds, is_mem, mem_pcs, addrs, is_store, in_lm, last_store, prev_store

    routes = bytearray(n_mem)           # all _R_LM (code 0) to start with
    miss_lines = array("q")
    lines_append = miss_lines.append
    guard_entries = array("i")
    dma_nlines = array("i")
    dma_addrs = array("q")
    dget_entries = array("i")

    probe = l1.probe
    l1_access = l1.access
    writethrough = hierarchy._writethrough
    miss_path = hierarchy._miss_path
    prefetch_fill = hierarchy._prefetch_fill

    d_pos: list = []      # queued demand accesses, in stream order
    d_addr: list = []
    d_pc: list = []
    d_store: list = []

    def flush() -> None:
        n_demand = len(d_addr)
        if not n_demand:
            return
        pf_lists = (prefetcher.train_batch(d_pc, d_addr)
                    if prefetch_enabled else None)
        run_addrs: list = []
        run_wt: list = []

        def close_run() -> None:
            l1.access_batch(run_addrs, False)
            if run_wt:
                wt_hits = l2.access_batch(run_wt, True, kind="writethrough")
                l3_wt = [a for a, hit in zip(run_wt, wt_hits) if not hit]
                if l3_wt:
                    l3.access_batch(l3_wt, True, kind="writethrough")
            run_addrs.clear()
            run_wt.clear()

        for j in range(n_demand):
            addr = d_addr[j]
            is_write = d_store[j]
            if (pf_lists is None or not pf_lists[j]) and probe(addr):
                run_addrs.append(addr)
                if is_write:
                    run_wt.append(addr)
                routes[d_pos[j]] = _R_L1
                continue
            if run_addrs:
                close_run()
            if l1_access(addr, is_write):
                routes[d_pos[j]] = _R_L1
                if is_write:
                    writethrough(addr)
            else:
                level = miss_path(addr, is_write, 0.0).level
                routes[d_pos[j]] = (_R_L2 if level == "L2" else
                                    _R_L3 if level == "L3" else _R_MEM)
                lines_append(addr - addr % line_size)
            if pf_lists is not None:
                for pf_line in pf_lists[j]:
                    prefetch_fill(pf_line)
        if run_addrs:
            close_run()
        hierarchy.demand_accesses += n_demand
        d_pos.clear()
        d_addr.clear()
        d_pc.clear()
        d_store.clear()

    if use_lm:
        lookup = directory.lookup
        peek = directory.peek_lookup
        tag_index = directory._tag_index
    guard_append = guard_entries.append
    p_pos, p_addr, p_pc, p_store = (d_pos.append, d_addr.append,
                                    d_pc.append, d_store.append)
    g_loads = g_stores = hit_loads = hit_stores = collapsed = 0
    div_loads = div_stores = sm_loads = sm_stores = 0
    last_addr = None
    last_sm = False
    n_ev = len(ev_kinds)
    start = di = 0
    for e in range(n_ev + 1):
        stop = cuts[e] if e < n_ev else len(sm_pos)
        for k in range(start, stop):
            c = sm_cls[k]
            addr = sm_addr[k]
            if c & 2:                       # guarded: one directory lookup
                if lookup(addr, 0.0)[0]:
                    routes[sm_pos[k]] = _R_GUARD
                    guard_append(tag_index[addr & directory.base_mask])
                    if c & 1:
                        g_stores += 1
                        hit_stores += 1
                        last_addr = addr
                        last_sm = False
                    else:
                        g_loads += 1
                        hit_loads += 1
                    continue
                if c & 1:                   # miss: the store updates SM
                    g_stores += 1
                    sm_stores += 1
                    last_addr = addr
                    last_sm = True
                else:
                    g_loads += 1
                    sm_loads += 1
            elif c & 4 and peek(addr)[0]:   # oracle-divert hit: LM latency
                if c & 1:
                    div_stores += 1
                    last_addr = addr
                    last_sm = False
                else:
                    div_loads += 1
                continue
            elif c & 1:
                if c & 16:                  # an LM store cleared the latch
                    last_sm = False
                if c & 8 and last_sm and last_addr == addr:
                    routes[sm_pos[k]] = _R_COLLAPSED
                    collapsed += 1
                    continue
                sm_stores += 1
                last_addr = addr
                last_sm = True
            else:
                sm_loads += 1
            p_pos(sm_pos[k])
            p_addr(addr)
            p_pc(sm_pc[k])
            p_store(c & 1)
        start = stop
        if e == n_ev:
            break
        kind = ev_kinds[e]
        if kind <= 7:                       # DMA snoops touch the caches
            flush()
        _oracle_event(S, kind, ev_tags[e], dma_words, di, multicore,
                      dma_nlines, dma_addrs, dget_entries)
        if kind <= 7:
            di += 3
    flush()

    # -- fold what the skipped load()/store() calls would have counted --
    S.loads += n_mem - n_stores - n_lm_loads
    S.stores += n_stores - n_lm_stores
    S.mem_ops += n_mem - n_lm_loads - n_lm_stores
    S.guarded_loads += g_loads
    S.guarded_stores += g_stores
    S.collapsed_stores += collapsed
    memory.reads += sm_loads            # _sm_load's read_word
    memory.writes += sm_stores + collapsed  # write_word, collapsed included
    if use_lm:
        agu = S.agu
        agu.guarded_loads += g_loads
        agu.guarded_stores += g_stores
        agu.diverted_loads += hit_loads
        agu.diverted_stores += hit_stores
        S.lm.reads += hit_loads + div_loads
        S.lm.writes += hit_stores + div_stores
    if final_lm_store is not None:
        last_addr, last_sm = final_lm_store, False
    S._last_store_addr = last_addr
    S._last_store_to_sm = last_sm
    return _oracle_result(S, routes, miss_lines, guard_entries, dma_nlines,
                          dma_addrs, dget_entries, n_lm_loads, n_lm_stores)


# ------------------------------------------------------------ branch flags
# One mispredict flag per conditional branch and jump, in retirement order:
# predictor and BTB state evolve with the recorded outcomes only, never with
# the clock, so a lane reads the flags of one pass per (stream, predictor
# geometry) instead of walking the predictor per branch.
_FLAGS_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()


def _flags_to_artifact(entry) -> tuple:
    """Persistable (meta, sections) projection of a flags-pass result."""
    flags, predictions, mispredictions, btb_hits, btb_misses = entry
    meta = {"predictions": predictions, "mispredictions": mispredictions,
            "btb_hits": btb_hits, "btb_misses": btb_misses}
    return meta, [("flags", bytes(flags))]


def _flags_from_artifact(meta, sections):
    """Rebuild a flags-pass tuple from its artifact (None if torn)."""
    try:
        flags = sections["flags"]
        if len(flags) != int(meta["predictions"]):
            return None
        return (flags, int(meta["predictions"]), int(meta["mispredictions"]),
                int(meta["btb_hits"]), int(meta["btb_misses"]))
    except (KeyError, TypeError, ValueError):
        return None


def _cached_flags(trace: Trace, decoded, cold, config, hot,
                  parent_hash=None) -> tuple:
    """Branch flags of one stream (see :func:`~repro.trace.replay._tiered`)."""
    key = (trace.program_fingerprint, trace.stream_digest(),
           config.predictor_entries, config.btb_entries, config.btb_assoc)
    return _tiered(_FLAGS_CACHE, _SMALL_CAP, key, "vector.flags",
                   lambda: _branch_flags(decoded, cold, config, hot),
                   parent_hash, "flags", _flags_to_artifact,
                   _flags_from_artifact)


def _branch_flags(decoded, cold, config, hot) -> tuple:
    """Mispredict flag per branch event — the vectorized flags pass.

    Identical output to a per-event interleave walk of the predictor (the
    reference in ``tests/test_artifact_cache.py``), without the walk:
    branch-event extraction is a numpy mask over the decoded pc stream,
    conditionals go through the predictor's batched :meth:`update_batch`
    whose flags land back in event order via one vectorized scatter, and
    only the (sparse) BTB probe/install walk of jumps and taken branches
    remains scalar.

    Returns ``(flags, predictions, mispredictions, btb_hits, btb_misses)``
    with one flag per conditional-branch/jump in retirement order.
    """
    branches = decoded.branches
    predictor = HybridBranchPredictor(entries=config.predictor_entries,
                                      btb_entries=config.btb_entries,
                                      btb_assoc=config.btb_assoc,
                                      ras_entries=config.ras_entries)
    pcs = np.frombuffer(decoded.seq_pcs, np.uint32).astype(np.int64)
    kind_by_pc = np.fromiter((h[0] for h in hot), np.uint8, len(hot))
    target_by_pc = np.fromiter((c[0] for c in cold), np.int64, len(cold))
    kinds = kind_by_pc[pcs]
    ev_mask = (kinds == _K_CBR) | (kinds == _K_JMP)
    ev_pcs = pcs[ev_mask]
    is_jmp = kinds[ev_mask] == _K_JMP
    n_ev = len(ev_pcs)
    cbr_mask = ~is_jmp
    takens = np.ones(n_ev, np.bool_)
    takens[cbr_mask] = np.fromiter(branches, np.bool_, len(branches))
    pc_addrs = CODE_BASE + ev_pcs * CODE_INSTR_SIZE
    next_pc = np.where(takens, target_by_pc[ev_pcs], ev_pcs + 1)
    target_addrs = CODE_BASE + next_pc * CODE_INSTR_SIZE

    # Direction tables: one batched update over the conditional stream, its
    # flags scattered back into event order.
    cbr_flags = predictor.update_batch(pc_addrs[cbr_mask].tolist(),
                                       list(branches))
    flags = np.zeros(n_ev, np.uint8)
    if cbr_flags:
        flags[cbr_mask] = np.fromiter(cbr_flags, np.uint8, len(cbr_flags))

    # BTB: jumps probe, every taken branch installs — the in-order sequence
    # execution performs, restricted to the events that actually touch it.
    btb = predictor.btb
    btb_lookup = btb.lookup
    btb_update = btb.update
    walk = np.flatnonzero(is_jmp | takens)
    if len(walk):
        w_pc = pc_addrs[walk].tolist()
        w_ta = target_addrs[walk].tolist()
        w_jmp = is_jmp[walk].tolist()
        w_ei = walk.tolist()
        for k in range(len(w_ei)):
            pc_addr = w_pc[k]
            if w_jmp[k]:
                flags[w_ei[k]] = btb_lookup(pc_addr) is None
            btb_update(pc_addr, w_ta[k])
    return (flags.tobytes(), n_ev, int(flags.sum()), btb.hits, btb.misses)


def _vstream_to_artifact(entry) -> tuple:
    """Persistable (meta, sections) projection of a prelowered stream."""
    sel, lroutes = entry
    return {}, [("sel", sel), ("lroutes", lroutes)]


def _vstream_from_artifact(sections, n: int, oracle: _OracleRoutes):
    """Rebuild a ``(sel, lroutes)`` entry from its artifact (None if torn).

    The C kernel indexes its tables by ``sel`` and advances the oracle's
    side-array cursors by ``lroutes``, so a selector of the wrong length or
    with an out-of-range byte, or live routes that disagree with the
    oracle's per-route counts, reads as torn.
    """
    try:
        sel = sections["sel"]
        lroutes = sections["lroutes"]
        if len(sel) != n:
            return None
        sel_np = np.frombuffer(sel, np.uint8)
        if n and sel_np.max() > _S_COLLAPSED:
            return None
        live = np.bincount(np.frombuffer(lroutes, np.uint8),
                           minlength=_N_ROUTES)
        want = np.bincount(np.frombuffer(oracle.routes, np.uint8),
                           minlength=_N_ROUTES)
        want[_SEL_BY_ROUTE != _S_LIVE] = 0
        if (len(lroutes) != np.count_nonzero(sel_np == _S_LIVE)
                or not np.array_equal(live, want)):
            return None
        return sel, lroutes
    except (KeyError, TypeError, ValueError):
        return None


class _VTab(NamedTuple):
    """Per-pc tables of one program, read by the C kernel through ``sel``.

    ``vk`` and ``lat`` are ``npc x 4``: one column per variant (LM, L1,
    live, collapsed); non-memory pcs repeat their one tuple.  The LM and L1
    latency columns of memory pcs are placeholders that :meth:`point_lat`
    fills per machine point.  ``fu``/``dst``/``phase``/``unpip`` are per pc
    and the sources are CSR (``soff[npc + 1]``, ``sid``); registers are
    remapped to dense ints, ``dst`` -1 for none, so a fresh
    ``[0.0] * n_regs`` readiness vector reads every register as ready at
    0.0 until it is written, as execution's does.  ``events[pc]`` is the
    payload the Python bounce handler reads: the DMA tag of a
    dma-get/put/sync, the latency of a set-bufsize/halt, None elsewhere.
    """

    vk: np.ndarray
    lat: np.ndarray
    fu: np.ndarray
    dst: np.ndarray
    soff: np.ndarray
    sid: np.ndarray
    phase: np.ndarray
    unpip: np.ndarray
    is_mem: np.ndarray
    events: list
    n_regs: int

    def point_lat(self, lm_lat: float, l1_lat: float) -> np.ndarray:
        """The latency table of one machine point."""
        lat = self.lat.copy()
        lat[self.is_mem, _S_LM] = lm_lat
        lat[self.is_mem, _S_L1] = l1_lat
        return lat


def _cached_vtab(trace: Trace, hot, cold) -> _VTab:
    fp = trace.program_fingerprint
    vtab = _VTAB_CACHE.get(fp)
    if vtab is not None:
        _VTAB_CACHE.move_to_end(fp)
        return vtab
    with obs.phase("vector.prelower"):
        vtab = _build_vtab(hot, cold)
    _remember(_VTAB_CACHE, fp, vtab, _SMALL_CAP)
    return vtab


def _cached_vstream(trace: Trace, seq_pcs, vtab: _VTab,
                    oracle: _OracleRoutes, mode: str, machine: MachineConfig,
                    multicore: bool, parent_hash=None) -> tuple:
    """The prelowered selector ``(sel, lroutes)`` of one stream.

    ``sel`` holds one variant byte per retired instruction (LM / L1 / live
    / collapsed, from the oracle's route); ``lroutes`` the route codes of
    the live memory ops only, consumed in order by the kernel's vk-5/6
    dispatch.  Both depend on the stream and the cache geometry only, so
    the entry shares the oracle's key: points that differ in latencies
    alone share it, and the per-point latencies go into the table instead
    (:meth:`_VTab.point_lat`).  The entry is also persisted as an on-disk
    ``prelower`` artifact (see :func:`_vstream_from_artifact`).
    """
    from repro import faults
    faults.check("vector.prelower", key=trace.stream_digest())

    def prelower():
        pcs = np.frombuffer(seq_pcs, np.uint32)
        routes = np.frombuffer(oracle.routes, np.uint8)
        picked = _SEL_BY_ROUTE[routes]
        sel = np.zeros(len(pcs), np.uint8)
        sel[vtab.is_mem[pcs]] = picked
        return sel.tobytes(), routes[picked == _S_LIVE].tobytes()
    return _tiered(
        _PRELOWER_CACHE, _ORACLE_CAP,
        _pass_key(trace, mode, machine, multicore), "vector.prelower",
        prelower, parent_hash, "prelower", _vstream_to_artifact,
        lambda meta, sections: _vstream_from_artifact(sections, len(seq_pcs),
                                                      oracle))


def _build_vtab(hot, cold) -> _VTab:
    """The per-pc variant tables of one program (see :class:`_VTab`)."""
    npc = len(hot)
    vk = np.empty((npc, 4), np.uint8)
    lat = np.zeros((npc, 4))
    fu = np.empty(npc, np.int32)
    dst = np.empty(npc, np.int32)
    phase = np.empty(npc, np.int32)
    unpip = np.empty(npc, np.uint8)
    is_mem = np.zeros(npc, np.bool_)
    soff = np.zeros(npc + 1, np.int32)
    sid: list = []
    events: list = [None] * npc
    reg_ids: dict = {}
    for pc, (kind, fu_index, latency, d, srcs, ph,
             unpipelined) in enumerate(hot):
        dst[pc] = -1 if d is None else reg_ids.setdefault(d, len(reg_ids))
        sid.extend(reg_ids.setdefault(s, len(reg_ids)) for s in srcs)
        soff[pc + 1] = len(sid)
        fu[pc] = fu_index
        phase[pc] = ph
        unpip[pc] = unpipelined
        if kind == 1:       # load; loads never collapse (slot 3 unused)
            vk[pc] = (1, 3, 5, 1)
            is_mem[pc] = True
        elif kind == 2:     # store; a collapsed second store is free
            vk[pc] = (2, 4, 6, 2)
            is_mem[pc] = True
        else:
            vk[pc] = _VK_BY_KIND[kind]
            lat[pc] = latency
            if kind >= 5:   # halt / DMA / sync / set-bufsize: Python-side
                events[pc] = cold[pc][1] if 6 <= kind <= 8 else latency
    return _VTab(vk, lat, fu, dst, soff, np.asarray(sid, np.int32), phase,
                 unpip, is_mem, events, len(reg_ids))


class _VectorLane:
    """One core's replay lane, as a resumable state machine.

    Holds the core's pass products — decoded stream, branch flags, oracle
    routes, variant tables and prelowered selector — its fresh
    :class:`~repro.cpu.pipeline.OutOfOrderTimingModel` and the
    resumable-lane contract of
    :func:`~repro.cpu.multicore.run_resumable_lanes`: the loop is a
    *generator* (:meth:`_loop`) whose locals survive across yields, so
    handing control between lanes costs one ``send``.  The issue/retire
    arithmetic runs in the compiled kernel :mod:`repro.trace._ckernel`;
    memory and branch outcomes come from the precomputed route/flag
    streams.  The only live structures are the point system's MSHR file
    and, multicore, the shared uncore behind ``uncore`` (this core's port;
    None for a single-core run).  ``mem`` is the core's
    :class:`~repro.core.hybrid.HybridSystem`, whose counters :meth:`finish`
    installs.  Lanes yield to the scheduler only immediately before an
    uncore event — see the module docstring.
    """

    __slots__ = ("order", "trace", "config", "timing", "fetch_time", "done",
                 "_mem", "_seq_pcs", "_fu_counts", "_phase_names", "_flags",
                 "_oracle", "_gen", "_state")

    def __init__(self, order: int, trace: Trace, entry, config,
                 key: TraceKey, mem, machine: MachineConfig, kern,
                 uncore=None):
        hot, cold, fu_values, phase_names = entry[2:6]
        parent_hash = key.key_hash
        decoded = _cached_decode(trace, hot, cold, fu_values,
                                 parent_hash=parent_hash)
        self.order = order
        self.trace = trace
        self.config = config
        self._mem = mem
        self._seq_pcs = decoded.seq_pcs
        self._fu_counts = decoded.fu_counts
        self._phase_names = phase_names
        self._flags = _cached_flags(trace, decoded, cold, config, hot,
                                    parent_hash=parent_hash)
        self.timing = OutOfOrderTimingModel(config, hierarchy=mem.hierarchy)
        self.fetch_time = 0.0
        self.done = False
        multicore = uncore is not None
        oracle = self._oracle = _cached_oracle(
            trace, decoded, cold, hot, key.mode, machine, multicore,
            parent_hash=parent_hash)
        vtab = _cached_vtab(trace, hot, cold)
        vstream = _cached_vstream(trace, decoded.seq_pcs, vtab, oracle,
                                  key.mode, machine, multicore,
                                  parent_hash=parent_hash)
        self._gen = self._loop(decoded.seq_pcs, vtab, vstream, uncore, kern)
        next(self._gen)     # run the loop's setup to the first yield

    def run_until(self, limit: float, limit_order: int) -> None:
        """Advance the lane until it reaches an uncore event with its key
        ``(fetch_time, order)`` past ``(limit, limit_order)`` — the
        multicore scheduling contract.  At least one instruction is
        processed per call (the caller only schedules the earliest lane);
        ``limit=inf`` runs to completion.
        """
        try:
            self._gen.send((limit, limit_order))
        except StopIteration:
            self.done = True

    def _loop(self, seq_pcs, vtab: _VTab, vstream, uncore, kern):
        """The loop around the compiled inner kernel, as a generator.

        Every ``send`` delivers the next ``(limit, limit_order)`` key; the
        final scalar state is packed into ``_state`` for :meth:`finish`.
        ``vr_run`` executes entire epochs of uncore-free instructions; this
        generator handles only the *event* instructions it stops at — the
        epoch yield-check, DMA/uncore/dsync bookkeeping (which stays in
        Python, on the same shared state vectors) and the re-entry.  It reads the bounced
        instruction's vkind and event payload (DMA tag, halt latency) from
        the per-pc tables, through the same ``pcs[i] * 4 + sel[i]`` index
        as the kernel.
        """
        config = self.config
        mem = self._mem
        my_order = self.order
        oracle = self._oracle
        timing = self.timing
        fu_capacity = timing.fus._capacity

        c = mem.hierarchy.config
        l1_lat = float(c.l1_latency)
        b_l3 = float(c.l2_latency + c.l3_latency)
        b_mem = float(c.l2_latency + c.l3_latency + c.memory_latency)
        mshr = mem.hierarchy.mshr
        if mem.use_lm:
            lm_lat = float(mem.lm.latency)
            dma_setup = mem.dmac.setup_latency
            dma_per_line = mem.dmac.per_line_latency
        else:
            lm_lat = 0.0
            dma_setup = dma_per_line = 0
        pause = uncore is not None
        uncore_acquire = uncore.acquire if pause else None
        # Clustered uncore: the per-core port carries the hierarchical
        # demand path (cluster bus + NUMA + home LLC slice) and the homed
        # DMA path; None on the flat bus.  Both run in the Python bounce
        # handler — the C kernel already bounces every uncore-relevant
        # instruction.
        mem_path = getattr(uncore, "mem_path", None) if pause else None
        dma_path = getattr(uncore, "dma_path", None) if pause else None
        dma_addrs = oracle.dma_addrs

        # -- shared state vectors (layout in _ckernel) and structure arrays --
        fs = np.zeros(_ckernel.FS_LEN)
        iv = np.zeros(_ckernel.IS_LEN, np.int64)
        reg_ready = np.zeros(vtab.n_regs)
        rob_ring = np.zeros(timing.rob.size)
        lsq_ring = np.zeros(timing.lsq.size)
        n_dir = oracle.n_dir
        present = np.ones(n_dir, np.uint8)
        ready_t = np.zeros(n_dir)
        mshr_ln = np.zeros(mshr.num_entries, np.int64)
        mshr_tm = np.zeros(mshr.num_entries)
        phase_acc = np.zeros(len(self._phase_names))
        fu_caps = np.asarray(fu_capacity, np.int64)
        sel, lroutes = vstream
        pcs_np = np.frombuffer(seq_pcs, np.uint32)
        sel_np = np.frombuffer(sel, np.uint8)
        lat_a = vtab.point_lat(lm_lat, l1_lat)
        vk_b = vtab.vk.tobytes()
        events = vtab.events
        lr_np = np.frombuffer(lroutes, np.uint8)
        miss_np = np.frombuffer(oracle.miss_lines, np.int64)
        gent_np = np.frombuffer(oracle.guard_entries, np.int32)
        flags_np = np.frombuffer(self._flags[0], np.uint8)
        dma_nlines = oracle.dma_nlines
        dget_entries = oracle.dget_entries

        ptr = kern.new(
            fs.ctypes.data, iv.ctypes.data,
            pcs_np.ctypes.data, sel_np.ctypes.data,
            vtab.vk.ctypes.data, lat_a.ctypes.data,
            vtab.fu.ctypes.data, vtab.dst.ctypes.data,
            vtab.soff.ctypes.data, vtab.sid.ctypes.data,
            vtab.phase.ctypes.data, vtab.unpip.ctypes.data,
            lr_np.ctypes.data, miss_np.ctypes.data, gent_np.ctypes.data,
            flags_np.ctypes.data,
            reg_ready.ctypes.data, rob_ring.ctypes.data, lsq_ring.ctypes.data,
            present.ctypes.data, ready_t.ctypes.data,
            mshr_ln.ctypes.data, mshr_tm.ctypes.data,
            phase_acc.ctypes.data, fu_caps.ctypes.data,
            1.0 / config.fetch_width, 1.0 / timing.rob.commit_width,
            float(config.mispredict_penalty),
            l1_lat, lm_lat,
            float(c.l2_latency), float(c.l2_latency + c.l3_latency), b_mem,
            config.issue_width, timing.rob.size, timing.lsq.size,
            mshr.num_entries, len(fu_capacity), 1 if pause else 0)
        if not ptr:
            raise MemoryError("vector kernel context allocation failed")
        handle = _ckernel.CtxHandle(kern, ptr)

        outstanding: dict = {}
        ni = gei = 0
        run = kern.run
        issue = kern.issue
        retire = kern.retire
        mshr_c = kern.mshr
        i = 0
        n = len(seq_pcs)
        # Epoch/bounce accounting: local ints (bounces are rare by design),
        # reported once to the recorder after the loop.
        epochs = b_mem_miss = b_dma = b_dsync = b_setbuf = 0
        limit, limit_order = yield
        try:
            while True:
                i = run(ptr, i, n)
                epochs += 1
                if i < 0:
                    raise MemoryError("vector kernel allocation failure")
                if i >= n:
                    break
                pc = seq_pcs[i]
                vk = vk_b[pc * 4 + sel[i]]
                # Epoch break before any shared-uncore touch: a route-5 miss
                # (vk 5/6 — the only live ops the kernel bounces when
                # multicore) or a DMA burst (vk 8/9).
                if pause and vk <= 9:
                    fetch_time = fs[0]
                    if fetch_time > limit or (fetch_time == limit
                                              and my_order > limit_order):
                        self.fetch_time = float(fetch_time)
                        limit, limit_order = yield
                now = issue(ptr, i)
                if vk <= 6:         # route-5 load/store (multicore only)
                    b_mem_miss += 1
                    iv[5] += 1      # consume the peeked live route
                    line = int(miss_np[iv[2]])
                    iv[2] += 1
                    if mem_path is not None:
                        beyond = b_l3 + mem_path(now, line)
                    else:
                        beyond = b_mem + uncore_acquire(now, 1)
                    latency = l1_lat + mshr_c(ptr, line, now, beyond)
                    fs[6] += latency
                    fs[7] += latency
                elif vk <= 9:       # dma-get / dma-put issue
                    b_dma += 1
                    nlines = dma_nlines[ni]
                    if dma_path is not None:
                        queue = dma_path(now, nlines, dma_addrs[ni])
                    elif pause:
                        queue = uncore_acquire(now, nlines)
                    else:
                        queue = 0.0
                    ni += 1
                    completion_d = now + queue + float(
                        dma_setup + nlines * dma_per_line)
                    tag = events[pc]
                    lst = outstanding.get(tag)
                    if lst is None:
                        outstanding[tag] = [completion_d]
                    else:
                        lst.append(completion_d)
                    if vk == 8:
                        e = dget_entries[gei]
                        gei += 1
                        if e >= 0:
                            present[e] = 0
                            ready_t[e] = completion_d
                    latency = 1.0
                elif vk == 11:      # dma-sync (DMAController.dma_sync)
                    b_dsync += 1
                    tag = events[pc]
                    if tag is None:
                        pending = [x for lst in outstanding.values()
                                   for x in lst]
                    else:
                        lst = outstanding.get(tag)
                        pending = lst if lst else None
                    if pending:
                        finish_t = max(pending)
                        wait_until = finish_t if finish_t > now else now
                        for k in list(outstanding):
                            kept = [x for x in outstanding[k]
                                    if x > wait_until]
                            if kept:
                                outstanding[k] = kept
                            else:
                                del outstanding[k]
                        stall = finish_t - now
                        latency = 1.0 + stall if stall > 0.0 else 1.0
                    else:
                        latency = 1.0
                elif vk == 10:      # set-bufsize
                    b_setbuf += 1
                    latency = 1.0
                else:               # halt: its static latency
                    latency = events[pc]
                if retire(ptr, i, latency) < 0:
                    raise MemoryError("vector kernel allocation failure")
                i += 1
        finally:
            handle.close()

        rec = obs.get_recorder()
        if rec.enabled:
            rec.incr("vector.ckernel.epochs", epochs)
            rec.incr("vector.bounce.mem_miss", b_mem_miss)
            rec.incr("vector.bounce.dma", b_dma)
            rec.incr("vector.bounce.dma_sync", b_dsync)
            rec.incr("vector.bounce.set_bufsize", b_setbuf)

        # The point system's MSHR ran inside the kernel; push its counters
        # back into the live object (stats_summary reads mshr_merges).
        mshr.allocations = int(iv[9])
        mshr.merges = int(iv[10])
        mshr.full_stalls = int(iv[11])
        self.fetch_time = float(fs[0])
        self._state = (fs.tolist(), int(iv[7]), phase_acc.tolist())

    def finish(self) -> OutOfOrderTimingModel:
        """Install the accumulated timing state, the branch flags' predictor
        and BTB counters, the out-of-band instruction-fetch activity (see
        :func:`~repro.trace.replay._l1i_stats`) and the oracle's activity
        counters into the live timing model and memory system, so they
        report exactly what execution-driven simulation would, and return
        the timing model.  Shared memory/bus counters are *not* written
        here — the caller applies them once via :func:`_apply_shared` (they
        are shared objects in multicore).  Call once, after ``done``.
        """
        fs, presence_stalls, phase_acc = self._state
        (fetch_time, last_commit, rob_bw, rob_stalls, lsq_stalls, contended,
         total_lat, hier_lat) = fs[:8]
        timing = self.timing
        system = self._mem
        hierarchy = system.hierarchy
        oracle = self._oracle
        hierarchy.l1i.stats, hierarchy.icache_accesses = _l1i_stats(
            self.trace, self._seq_pcs, self.config, hierarchy.config)
        timing.fetch_time = fetch_time
        timing.committed = len(self._seq_pcs)
        timing.last_commit_time = last_commit
        timing.fu_op_counts.update(self._fu_counts)
        # Commit deltas are strictly positive, so a phase accumulated exactly
        # 0.0 iff no instruction of that phase retired — execution's
        # accumulator would not report it either.
        for name, cycles in zip(self._phase_names, phase_acc):
            if cycles != 0.0:
                timing.phase_cycles[name] = cycles
        timing.rob._last_commit_time = last_commit
        timing.rob._commit_bandwidth_time = rob_bw
        timing.rob.dispatch_stalls = rob_stalls
        timing.lsq.occupancy_stalls = lsq_stalls
        timing.lsq.memory_ops = len(oracle.routes)
        timing.lsq.collapsed_stores = oracle.collapsed
        timing.fus.contended_cycles = contended
        flags = self._flags
        timing.mispredictions = flags[2]
        predictor = timing.predictor
        predictor.predictions = flags[1]
        predictor.mispredictions = flags[2]
        predictor.btb.hits = flags[3]
        predictor.btb.misses = flags[4]

        patch = oracle.patch
        system.loads = patch["loads"]
        system.stores = patch["stores"]
        system.guarded_loads = patch["guarded_loads"]
        system.guarded_stores = patch["guarded_stores"]
        system.collapsed_stores = patch["collapsed_stores"]
        system.mem_ops = patch["mem_ops"]
        system.total_mem_latency = total_lat
        system._last_store_addr = patch["last_store_addr"]
        system._last_store_to_sm = patch["last_store_to_sm"]
        hierarchy.demand_accesses = patch["demand_accesses"]
        hierarchy.total_latency = hier_lat
        hierarchy.l1.stats = dataclasses.replace(patch["l1"])
        hierarchy.l2.stats = dataclasses.replace(patch["l2"])
        hierarchy.l3.stats = dataclasses.replace(patch["l3"])
        prefetcher = hierarchy.prefetcher
        prefetcher.trainings = patch["pf_trainings"]
        prefetcher.issued = patch["pf_issued"]
        prefetcher.collisions = patch["pf_collisions"]
        if system.use_lm:
            system.lm.reads = patch["lm_reads"]
            system.lm.writes = patch["lm_writes"]
            agu = system.agu
            (agu.guarded_loads, agu.guarded_stores,
             agu.diverted_loads, agu.diverted_stores) = patch["agu"]
            stats = system.directory.stats
            stats.lookups = patch["dir_lookups"]
            stats.hits = patch["dir_hits"]
            stats.misses = patch["dir_misses"]
            stats.updates = patch["dir_updates"]
            stats.configurations = patch["dir_configurations"]
            stats.presence_stalls = presence_stalls
            dmac = system.dmac
            dmac.gets = patch["dma_gets"]
            dmac.puts = patch["dma_puts"]
            dmac.syncs = patch["dma_syncs"]
            dmac.words_transferred = patch["dma_words"]
            dmac.lines_transferred = patch["dma_lines"]
        return timing


def _apply_shared(owner, lanes) -> None:
    """Install the summed shared memory/bus activity of all ``lanes`` on
    ``owner`` — the shared uncore in multicore, the core's own hierarchy
    otherwise (both hold ``memory`` and ``bus``).

    Must run after every lane's :meth:`_VectorLane.finish` and *before* any
    ``stats_summary()`` is collected — in multicore, every per-core summary
    reads these shared objects.

    The oracle's scratch systems have no LLC, so each patch counts every
    demand MEM route as a memory read; on a clustered uncore the timing
    pass already counted the true reads itself (LLC demand *misses* only,
    in ``mem_path``) and recorded its demand hits — subtract those so the
    installed total matches what execution observes.
    """
    patches = [lane._oracle.patch for lane in lanes]
    memory, bus = owner.memory, owner.bus
    memory.reads = (sum(p["memory_reads"] for p in patches)
                    - getattr(owner, "llc_demand_hits", 0))
    memory.writes = sum(p["memory_writes"] for p in patches)
    bus.transactions = sum(p["bus_transactions"] for p in patches)
    bus.dma_transactions = sum(p["bus_dma_transactions"] for p in patches)
    bus.bytes_transferred = sum(p["bus_bytes"] for p in patches)
