"""The vector replay engine: derivation passes plus a compiled timing loop.

:func:`~repro.trace.replay.replay_trace` re-times every trace on this
engine.  Instead of walking the memory system one instruction at a time, it
splits the work by *data dependence*:

* **Structure updates are batched out of the timing loop.**  Cache tag/LRU
  evolution, directory hit/miss outcomes, prefetcher training and branch
  predictor table updates are all *timing-independent*: they depend only on
  the recorded program-order stream, never on the clock.  One **oracle
  pass** per (trace, cache-geometry) pair resolves the stream for that
  geometry and records, per memory op, which level serves it (a dense
  route code), the miss line addresses, and the final activity counters.
  It is an array program over the decode pass's classification of the
  stream (LM-range or SM, class bits, previous store; computed once per
  trace and mode, shared by every geometry): LM-range ops are counted
  without a visit; one walk of the DMA events over a bare directory gives
  every DMA-delimited segment's tags, so every guarded and divert lookup
  and every store collapse is one array step; the DMA and bus counters
  come from the events' operands; and the remaining demand accesses and
  the DMA snoops among them are counted from arrays when no cache set or
  prefetch entry can evict (walked through a scratch cache hierarchy, in
  stream order, otherwise).  No scratch system is built.  One **flags
  pass** per (trace, predictor geometry) resolves every conditional branch
  through the batched
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
  stream, registers from a dense-int remap.  The live structures are the
  MSHR file (merge/occupancy depends on real clocks), run inside the
  kernel, and the ones the kernel stops for: the point system's DMA
  controller and, multicore, the shared uncore.  The lane times those
  events with the system's own methods, the ones execution calls.

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
from repro.core.directory import CoherenceDirectory
from repro.cpu.core import LaneTiming
from repro.cpu.pipeline import CODE_BASE, CODE_INSTR_SIZE
from repro.harness.config import MachineConfig
from repro.isa.program import WORD_SIZE
from repro.lm.address_map import LMAddressMap
from repro.mem.cache import CacheStats, sets_fit
from repro.mem.hierarchy import MemoryHierarchy
from repro.trace import _ckernel
from repro.trace.format import Trace, TraceKey, unpack_bits
from repro.trace.replay import (
    _C_COLLAPSE,
    _C_DIVERT,
    _C_GUARDED,
    _C_STORE,
    _K_CBR,
    _K_JMP,
    _cached_decode,
    _classify,
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
_ROUTE_OF_LEVEL = {"L1": _R_L1, "L2": _R_L2, "L3": _R_L3, "MEM": _R_MEM}

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


def _directory_hits(classes, looked_at, ev_kinds, ev_tags, dma_words,
                    multicore, num_entries: int, address_map) -> tuple:
    """The stream's directory, for the whole stream at once: whether each
    looked-up SM op of ``looked_at`` finds its chunk mapped (a guarded or
    divert hit) and by which entry, each dma-get's entry, and the
    directory's statistics.

    The valid tags change only at set-bufsize, dma-get and (multicore)
    dma-put events, through the calls the hybrid systems make
    (:meth:`~repro.core.directory.CoherenceDirectory.configure`,
    ``map_dma_get``, and ``MulticoreHybridSystem.dma_put``'s
    ``unmap_dma_put``), and depend on nothing but the event operands.  So
    this one walk of the events over a bare directory is the only place
    the oracle touches a directory.  It records every DMA-delimited
    segment's tags, each a new *version* of the table, so every lookup
    is one ``searchsorted`` over ``(version, tag)`` keys.  Each dma-get's
    entry is ``translate(lm_v) // buffer_size`` (-1 while the directory is
    unconfigured).

    Returns ``(found, entry, dget_entries, stats)``.
    """
    directory = CoherenceDirectory(num_entries)
    translate = address_map.translate
    tag_index = directory._tag_index        # tag -> entry, valid entries
    masks: list = []                        # per version
    sizes: list = []
    tags: list = []
    entries: list = []
    version = [-1]                          # per segment; -1: unconfigured
    dget_entries = array("i")
    di = 0
    for kind, tag in zip(ev_kinds, ev_tags):
        moved = kind == 9
        if moved:
            directory.configure(tag)
        elif kind <= 7:
            lm_v, sm = dma_words[di], dma_words[di + 1]
            di += 3
            if kind == 6:
                offset = translate(lm_v)
                directory.map_dma_get(offset, lm_v, sm)
                dget_entries.append(offset // directory.buffer_size
                                    if directory.is_configured else -1)
                moved = True
            elif multicore:
                moved = directory.unmap_dma_put(translate(lm_v), sm)
        if moved and directory.is_configured:
            masks.append(directory.base_mask)
            sizes.append(len(tag_index))
            tags.extend(tag_index)
            entries.extend(tag_index.values())
        version.append(len(masks) - 1)
    seg = np.asarray(version)[np.searchsorted(classes.cuts, looked_at,
                                              side="right")]
    if np.any(classes.sm_cls[looked_at[seg < 0]] & _C_GUARDED):
        raise RuntimeError("directory used before configuring the buffer size")
    found = np.zeros(len(looked_at), np.bool_)
    entry = np.zeros(len(looked_at), np.int32)
    if not tags:
        return found, entry, dget_entries, directory.stats
    tags = np.array(tags, np.int64)
    values = np.sort(tags)
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    width = len(values)
    keys = (np.repeat(np.arange(len(sizes)), sizes) * width
            + np.searchsorted(values, tags))
    by_key = np.argsort(keys)
    keys = keys[by_key]
    ok = np.flatnonzero(seg >= 0)
    v = seg[ok]
    bases = classes.sm_addr[looked_at[ok]] & np.array(masks, np.int64)[v]
    rank = np.minimum(np.searchsorted(values, bases), width - 1)
    probe = v * width + rank
    slot = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
    hits = (values[rank] == bases) & (keys[slot] == probe)
    found[ok] = hits
    entry[ok[hits]] = np.array(entries, np.int32)[by_key[slot[hits]]]
    return found, entry, dget_entries, directory.stats


def _settle_demand(c, lines, pcs, dma_lines, dma_at, dma_put):
    """Settle a stream of demand accesses and the DMA snoops among them
    without walking it, or return None when it may evict.

    ``c`` is the hierarchy's config; ``lines`` and ``pcs`` are the
    demand-path accesses' lines and pcs in stream order; ``dma_lines``
    are the burst lines of the dma-gets and dma-puts in stream order, each
    before the access at its ``dma_at`` position, ``dma_put`` marking a
    put's.  The gate: the prefetch table never evicts (prefetching off, or
    no more distinct pcs than entries), and in each of L1, L2 and L3 no set
    receives more distinct lines than it has ways (:func:`sets_fit`) —
    counting the demand lines and the prefetch targets, the only fill
    sources.  Under it, LRU order is never read and the three levels hold
    the same lines: those touched (demanded or prefetched) since their last
    dma-put.  So an access hits the L1 iff its line's previous touch or
    invalidation is a touch, and misses every level otherwise; a prefetch
    target fills iff its line is not resident; and a dma-get line that is
    resident hits the L1, while one that is not misses every level.

    Prefetch triggers come from per-pc line strides: an access triggers
    when its nonzero stride repeats that pc's previous nonzero stride, and
    prefetches :meth:`~repro.mem.prefetcher.StreamPrefetcher.repeat`'s
    targets.  Events are keyed ``3 * position``: a DMA line before access
    ``p`` at ``3p``, its demand touch at ``3p + 1``, its prefetches at
    ``3p + 2``; one stable sort by line and key orders each line's history,
    and the DMA lines of one position keep their stream order (a put and
    then a get of one chunk: the get finds the lines gone).  A dma-get
    lookup changes no line's residency.

    Returns ``(l1_hit, prefetch_fills, issued, get_held)``: the hit mask,
    the numbers of prefetch fills and of prefetches issued, and the number
    of dma-get lines the caches hold when looked up.
    """
    n = len(lines)
    targets = trig_key = np.zeros(0, np.int64)
    if c.prefetch_enabled and n:
        order = np.argsort(pcs, kind="stable")
        by_pc = pcs[order]
        new_pc = by_pc[1:] != by_pc[:-1]
        if np.count_nonzero(new_pc) >= c.prefetch_table_size:
            return None
        stride = np.diff(lines[order])
        stride[new_pc] = 0
        nz = np.flatnonzero(stride)
        rep = nz[1:][(by_pc[nz[1:]] == by_pc[nz[:-1]])
                     & (stride[nz[1:]] == stride[nz[:-1]])]
        trig = order[rep + 1]
        steps = np.arange(1, c.prefetch_degree + 1) + c.prefetch_distance
        targets = (lines[trig][:, None]
                   + stride[rep][:, None] * steps).ravel()
        trig_key = np.repeat(3 * trig + 2, len(steps))
    n_touch = n + len(targets)
    key = np.concatenate((3 * np.arange(n) + 1, trig_key, 3 * dma_at))
    line = np.concatenate((lines, targets, dma_lines))
    order = np.lexsort((key, line))
    touch = order < n_touch
    sorted_line = line[order]
    touched = sorted_line[touch]
    first = np.ones(len(touched), np.bool_)
    first[1:] = touched[1:] != touched[:-1]
    distinct = touched[first]
    for size, assoc in ((c.l1_size, c.l1_assoc), (c.l2_size, c.l2_assoc),
                        (c.l3_size, c.l3_assoc)):
        if not sets_fit(distinct, size, assoc, c.line_size).all():
            return None
    # A line is resident after a touch and gone after a dma-put: each
    # entry reads the last of those before it on its line.
    lookup = np.zeros(len(key), np.bool_)
    lookup[n_touch:] = ~dma_put
    sets = np.flatnonzero(~lookup[order])
    last = np.full(len(order) + 1, -1)
    last[sets + 1] = sets
    last = np.maximum.accumulate(last[:-1])
    resident = np.zeros(len(key), np.bool_)
    resident[order] = ((last >= 0) & touch[last]
                       & (sorted_line[last] == sorted_line))
    pf_fill = ~resident[n:n_touch]
    return (resident[:n], int(np.count_nonzero(pf_fill)), len(targets),
            int(np.count_nonzero(resident[n_touch:] & lookup[n_touch:])))


def _oracle_routes(decoded, cold, hot, mode: str, machine: MachineConfig,
                   multicore: bool) -> _OracleRoutes:
    """Array oracle pass — bit-identical to a scalar walk that drives a
    real system's ``load``/``store``/DMA calls in stream order (the
    reference in ``tests/test_artifact_cache.py``).

    * **Classification comes with the decode.**  Which memory ops fall in
      the LM range, and each SM op's class and previous store, depend on
      neither the geometry nor the clock: the decode pass computes them
      once per trace and mode (:func:`~repro.trace.replay._classify`;
      a stream decoded without them is classified here).  LM-range ops are
      counted, never visited: their route is ``_R_LM``.
    * **The directory resolves for the whole stream first**
      (:func:`_directory_hits`): one walk over the events gives each
      DMA-delimited segment's valid tags, each dma-get's entry and the
      directory's update counts, and every guarded and oracle-divert
      lookup is one array step.  The store-collapse latch is the previous
      store's: a candidate collapses when that store was an SM store that
      reached the SM (not a directory or divert hit) at the same address.
      What is left is the demand path, one access per SM op that neither
      hit nor collapsed.
    * **The operand counters come from the event arrays.**  Every DMA
      counter, the bus traffic (the oracle's only bus traffic) and the
      put lines' memory writes depend on nothing but the events' operands,
      checked as the DMA controller checks them.
    * **The gate** (:func:`_settle_demand`) asks whether the demand path
      can evict anything at this geometry: a prefetch table entry, or a
      line in any cache set.
    * **The settle**, when it cannot: every L1 hit, miss and prefetch fill
      and every DMA snoop is counted from arrays; no cache is built.
    * **The walk**, otherwise: a scratch
      :class:`~repro.mem.hierarchy.MemoryHierarchy` of the mode's geometry
      runs each access through its own
      :meth:`~repro.mem.hierarchy.MemoryHierarchy.demand` — the path a
      scalar walk's ``load``/``store`` take — and each dma-get's and
      dma-put's snoops, in stream order.  The counter
      ``vector.oracle.walked`` counts the accesses walked.

    Each cache level's statistics and the demand-side counters come from
    the path that ran; the system, AGU, LM and directory-lookup counters
    (and the functional ``MainMemory`` word-touch counters of the skipped
    ``load``/``store`` calls) from the classification.  Nothing moves data
    words: a replayed run reads none, and the copies change no counter.
    """
    use_lm = mode != "cache"
    if use_lm:
        config = machine.memory
        address_map = LMAddressMap(size=machine.lm_size)
        lm_lo = address_map.virtual_base
        lm_range = (lm_lo, lm_lo + address_map.size)
    else:
        config = machine.cache_based().memory
        lm_range = (-1, -1)
    classes = decoded.classes
    if classes is None or classes.lm_range != lm_range:
        classes = _classify(decoded, hot, cold, lm_range)
    sm_addr, sm_cls, sm_prev = classes.sm_addr, classes.sm_cls, classes.sm_prev
    n_sm = len(sm_cls)
    is_store = (sm_cls & _C_STORE).astype(np.bool_)
    guarded = (sm_cls & _C_GUARDED).astype(np.bool_)
    ev_pcs = classes.ev_pcs.tolist()
    ev_kinds = [hot[pc][0] for pc in ev_pcs]
    ev_tags = [cold[pc][1] for pc in ev_pcs]
    if ev_kinds and not use_lm:
        raise RuntimeError("the cache-based system has no DMA controller")

    # -- the DMA events' operands: bursts, checks and counters --
    line_size = config.line_size
    kinds = np.asarray(ev_kinds, np.int64)
    words = np.asarray(decoded.dma_words, np.int64).reshape(-1, 3)
    lm_v, sm, size = words[:, 0], words[:, 1], words[:, 2]
    if np.any((size <= 0) | (size % WORD_SIZE != 0)):
        raise ValueError("DMA size must be a positive multiple of the word size")
    if np.any((lm_v < lm_range[0]) | (lm_v >= lm_range[1])):
        raise ValueError("DMA local-memory address is not in the LM range")
    put = kinds[kinds <= 7] == 7
    first = sm - sm % line_size
    count = (sm + size - 1 - first) // line_size + 1     # lines per burst
    n_dma_lines = int(count.sum())
    n_put_lines = int(count[put].sum())

    # -- directory hits, guard entries and store collapses --
    hit = np.zeros(n_sm, np.bool_)          # directory or divert hit
    guard_entries = array("i")
    dget_entries = array("i")
    if use_lm:
        looked_at = np.flatnonzero((sm_cls & (_C_GUARDED | _C_DIVERT)) != 0)
        found, entry, dget_entries, dir_stats = _directory_hits(
            classes, looked_at, ev_kinds, ev_tags, decoded.dma_words,
            multicore, machine.directory_entries, address_map)
        hit[looked_at] = found
        guard_entries.frombytes(entry[found & guarded[looked_at]].tobytes())
    cand = np.flatnonzero(
        ((sm_cls & (_C_STORE | _C_GUARDED | _C_COLLAPSE))
         == (_C_STORE | _C_COLLAPSE)) & (sm_prev >= 0) & ~hit)
    prev = sm_prev[cand]
    collapsed = np.zeros(n_sm, np.bool_)
    collapsed[cand[~hit[prev] & (sm_addr[prev] == sm_addr[cand])]] = True

    # -- the demand path and the DMA snoops: settled when nothing can
    # evict, else walked --
    served = np.flatnonzero(~(hit | collapsed))
    n_served = len(served)
    addrs = sm_addr[served]
    lines = addrs - addrs % line_size
    # Accesses before each DMA event.
    dma_at = np.searchsorted(served, classes.cuts)[kinds <= 7]
    offset = np.arange(n_dma_lines) - np.repeat(np.cumsum(count) - count,
                                                 count)
    settled = _settle_demand(
        config, lines, classes.sm_pc[served],
        np.repeat(first, count) + offset * line_size,
        np.repeat(dma_at, count), np.repeat(put, count))
    if settled is None:
        hierarchy = MemoryHierarchy(config)
        demand = hierarchy.demand
        addr_l = addrs.tolist()
        store_l = is_store[served].tolist()
        pc_l = classes.sm_pc[served].tolist()
        levels: list = []
        levels_append = levels.append
        start = 0
        for stop, base, n_lines, is_put in zip(
                dma_at.tolist(), first.tolist(), count.tolist(),
                put.tolist()):
            for k in range(start, stop):
                levels_append(demand(addr_l[k], store_l[k], pc_l[k], 0.0)[1])
            start = stop
            burst = range(base, base + n_lines * line_size, line_size)
            if is_put:
                hierarchy.snoop_invalidate_lines(burst)
            else:
                hierarchy.snoop_read_lines(burst)
        for k in range(start, n_served):
            levels_append(demand(addr_l[k], store_l[k], pc_l[k], 0.0)[1])
        codes = np.fromiter(map(_ROUTE_OF_LEVEL.__getitem__, levels),
                            np.uint8, len(levels))
        l1, l2, l3 = (hierarchy.l1.stats, hierarchy.l2.stats,
                      hierarchy.l3.stats)
        fill_reads = hierarchy.memory.reads
        prefetcher = hierarchy.prefetcher
        pf = (prefetcher.trainings, prefetcher.issued, prefetcher.collisions)
        walked = n_served
    else:
        # Count what the settled accesses' demand() calls and the DMA
        # snoops would have.  An L1 hit is a lookup (plus an L2
        # write-through for a store); a miss looks up and misses every
        # level, reads memory and fills every level; a prefetch fill looks
        # up L2 and L3, reads memory and fills every level.  A dma-get
        # line looks up the L1, and the L2 and L3 when the L1 misses; a
        # dma-put line is invalidated at every level.
        l1_hit, n_pf, issued, get_held = settled
        n_hit = int(np.count_nonzero(l1_hit))
        n_miss = n_served - n_hit
        n_fill = n_miss + n_pf
        n_wt = int(np.count_nonzero(is_store[served]))
        n_get_lines = n_dma_lines - n_put_lines
        n_get_miss = n_get_lines - get_held
        l1 = CacheStats(
            accesses=n_served + n_fill + n_get_lines + n_put_lines,
            demand_accesses=n_served, hits=n_hit, misses=n_miss,
            fills=n_fill, invalidations=n_put_lines, prefetch_fills=n_pf,
            dma_lookups=n_get_lines)
        l2, l3 = (CacheStats(
            accesses=n_fill + n_miss + n_pf + n_get_miss + n_put_lines + wt,
            demand_accesses=n_miss, misses=n_miss, fills=n_fill,
            invalidations=n_put_lines, prefetch_lookups=n_pf,
            prefetch_fills=n_pf, dma_lookups=n_get_miss,
            writethrough_accesses=wt) for wt in (n_wt, 0))
        codes = np.where(l1_hit, _R_L1, _R_MEM).astype(np.uint8)
        fill_reads = n_fill
        pf = ((n_served, issued, 0) if config.prefetch_enabled
              else (0, 0, 0))
        walked = 0
    obs.incr("vector.oracle.walked", walked)

    # -- routes and side arrays in stream order --
    routes = np.zeros(classes.n_mem, np.uint8)
    sm_pos = classes.sm_pos
    routes[sm_pos[hit & guarded]] = _R_GUARD
    routes[sm_pos[collapsed]] = _R_COLLAPSED
    routes[sm_pos[served]] = codes
    miss_lines = array("q")
    miss_lines.frombytes(lines[codes != _R_L1].tobytes())
    dma_nlines = array("i")
    dma_nlines.frombytes(count.astype(np.int32).tobytes())
    dma_addrs = array("q")
    dma_addrs.frombytes(sm.tobytes())

    # -- the counters the skipped load()/store() calls would have kept --
    n_guarded = int(np.count_nonzero(guarded))
    g_stores = int(np.count_nonzero(guarded & is_store))
    g_hit = hit & guarded
    hit_stores = int(np.count_nonzero(g_hit & is_store))
    hit_loads = int(np.count_nonzero(g_hit)) - hit_stores
    div_hit = hit & ~guarded
    div_stores = int(np.count_nonzero(div_hit & is_store))
    div_loads = int(np.count_nonzero(div_hit)) - div_stores
    n_stores = int(np.count_nonzero(is_store))
    lm_loads, lm_stores = classes.lm_loads, classes.lm_stores
    last_store_addr, last_store_to_sm = None, False
    if classes.final_lm_store is not None:
        last_store_addr = classes.final_lm_store
    elif n_stores:
        last = int(np.flatnonzero(is_store)[-1])
        last_store_addr = int(sm_addr[last])
        last_store_to_sm = not bool(hit[last])
    patch = {
        "loads": n_sm - n_stores + lm_loads,
        "stores": n_stores + lm_stores,
        "guarded_loads": n_guarded - g_stores,
        "guarded_stores": g_stores,
        "collapsed_stores": int(np.count_nonzero(collapsed)),
        "mem_ops": n_sm + lm_loads + lm_stores,
        "last_store_addr": last_store_addr,
        "last_store_to_sm": last_store_to_sm,
        "demand_accesses": n_served,
        "l1": l1,
        "l2": l2,
        "l3": l3,
        # Memory reads: the fills, plus the SM loads' functional word
        # reads.  Memory writes: the L3's dirty victims, the put lines and
        # the SM stores' functional word writes (a collapsed store writes
        # its word too).
        "memory_reads": fill_reads
        + int(np.count_nonzero(~(is_store | hit))),
        "memory_writes": l3.writebacks + n_put_lines
        + n_stores - hit_stores - div_stores,
        "bus_transactions": n_dma_lines,
        "bus_dma_transactions": n_dma_lines,
        "bus_bytes": n_dma_lines * line_size,
        "pf_trainings": pf[0],
        "pf_issued": pf[1],
        "pf_collisions": pf[2],
    }
    n_dir = 0
    if use_lm:
        n_dir = machine.directory_entries
        patch.update({
            "lm_reads": hit_loads + div_loads + lm_loads,
            "lm_writes": hit_stores + div_stores + lm_stores,
            "agu": (n_guarded - g_stores, g_stores, hit_loads, hit_stores),
            "dir_lookups": n_guarded,
            "dir_hits": hit_loads + hit_stores,
            "dir_misses": n_guarded - hit_loads - hit_stores,
            "dir_updates": dir_stats.updates,
            "dir_configurations": dir_stats.configurations,
            "dma_gets": ev_kinds.count(6),
            "dma_puts": ev_kinds.count(7),
            "dma_syncs": ev_kinds.count(8),
            "dma_words": int((size // WORD_SIZE).sum()),
            "dma_lines": n_dma_lines,
        })
    return _OracleRoutes(bytes(routes), miss_lines, guard_entries,
                         dma_nlines, dma_addrs, dget_entries, n_dir, patch)


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
    remains scalar, without the repeated installs of back-to-back loop
    branches.

    Returns ``(flags, predictions, mispredictions, btb_hits, btb_misses)``
    with one flag per conditional-branch/jump in retirement order.
    """
    branches = unpack_bits(decoded.branch_bits, decoded.branch_count)
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
    takens[cbr_mask] = branches
    pc_addrs = CODE_BASE + ev_pcs * CODE_INSTR_SIZE
    next_pc = np.where(takens, target_by_pc[ev_pcs], ev_pcs + 1)
    target_addrs = CODE_BASE + next_pc * CODE_INSTR_SIZE

    # Direction tables: one batched update over the conditional stream, its
    # flags scattered back into event order.
    cbr_flags = predictor.update_batch(pc_addrs[cbr_mask].tolist(),
                                       branches.tolist())
    flags = np.zeros(n_ev, np.uint8)
    if cbr_flags:
        flags[cbr_mask] = np.fromiter(cbr_flags, np.uint8, len(cbr_flags))

    # BTB: jumps probe, every taken branch installs — the in-order sequence
    # execution performs, restricted to the events that actually touch it.
    # A conditional branch that installs the previous install's pc and
    # target again re-installs the MRU entry unchanged, and installs count
    # nothing, so it is dropped; jumps stay, as their lookups count.
    btb = predictor.btb
    btb_lookup = btb.lookup
    btb_update = btb.update
    walk = np.flatnonzero(is_jmp | takens)
    if len(walk):
        repeat = np.zeros(len(walk), np.bool_)
        repeat[1:] = ((pc_addrs[walk[1:]] == pc_addrs[walk[:-1]])
                      & (target_addrs[walk[1:]] == target_addrs[walk[:-1]]))
        walk = walk[~(repeat & ~is_jmp[walk])]
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
    payload the lane's event handler reads: the DMA tag of a
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
    routes, variant tables and prelowered selector — and the
    resumable-lane contract of
    :func:`~repro.cpu.multicore.run_resumable_lanes`: the loop is a
    *generator* (:meth:`_loop`) whose locals survive across yields, so
    handing control between lanes costs one ``send``.  The issue/retire
    arithmetic runs in the compiled kernel :mod:`repro.trace._ckernel`;
    memory and branch outcomes come from the precomputed route/flag
    streams.  Its events are timed by the point system's own code: DMA
    transfers and syncs by the core's
    :class:`~repro.lm.dma.DMAController`, a multicore demand miss that
    reaches memory by the hierarchy's
    :meth:`~repro.mem.hierarchy.MemoryHierarchy.memory_beyond_l1` on the
    shared uncore behind ``uncore`` (this core's port; None for a
    single-core run).  ``mem`` is the core's
    :class:`~repro.core.hybrid.HybridSystem`, whose counters :meth:`finish`
    installs.  Lanes yield to the scheduler only immediately before an
    uncore event — see the module docstring.
    """

    __slots__ = ("order", "trace", "config", "fetch_time", "done",
                 "_mem", "_seq_pcs", "_fu_counts", "_phase_names", "_flags",
                 "_oracle", "_gen", "_state")

    def __init__(self, order: int, trace: Trace, entry, config,
                 key: TraceKey, mem, machine: MachineConfig, kern,
                 uncore=None):
        hot, cold, fu_values, phase_names = entry[2:6]
        parent_hash = key.key_hash
        decoded = _cached_decode(trace, hot, cold, fu_values,
                                 (mem._lm_lo, mem._lm_hi),
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
        One ``vr_run`` call per *event* instruction: it retires the
        previous event with the result computed here, executes the epoch
        of uncore-free instructions that follows, and issues the next
        event.  This generator handles only that event — the epoch
        yield-check, the call that times it (the DMA controller's, or the
        hierarchy's memory path) and a dma-get's presence stall, which the
        kernel reads from the shared state vectors — and passes its result
        (a latency, or an uncore miss's latency beyond the L1) to the next
        call.  It reads the event's vkind and payload (DMA tag, halt
        latency) from the per-pc tables, through the same
        ``pcs[i] * 4 + sel[i]`` index as the kernel, and its issue time
        from ``FS_NOWSAVE``.
        """
        config = self.config
        mem = self._mem
        my_order = self.order
        oracle = self._oracle
        fu_capacity = config.fu_capacity()

        hierarchy = mem.hierarchy
        c = hierarchy.config
        l1_lat = float(c.l1_latency)
        mshr = hierarchy.mshr
        # The system's own event timing; the C kernel stops at every
        # instruction that needs it (a miss reaches the uncore only
        # multicore).
        memory_beyond_l1 = hierarchy.memory_beyond_l1
        if mem.use_lm:
            lm_lat = float(mem.lm.latency)
            time_transfer = mem.dmac.time_transfer
            dma_sync = mem.dmac.dma_sync
        else:
            lm_lat = 0.0
        pause = uncore is not None
        dma_addrs = oracle.dma_addrs

        # -- shared state vectors (layout in _ckernel) and structure arrays --
        fs = np.zeros(_ckernel.FS_LEN)
        iv = np.zeros(_ckernel.IS_LEN, np.int64)
        reg_ready = np.zeros(vtab.n_regs)
        rob_ring = np.zeros(config.rob_size)
        lsq_ring = np.zeros(config.lsq_size)
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
        n = len(seq_pcs)
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
            1.0 / config.fetch_width, 1.0 / config.commit_width,
            float(config.mispredict_penalty),
            l1_lat, lm_lat,
            float(c.l2_latency), float(c.l2_latency + c.l3_latency),
            float(c.l2_latency + c.l3_latency + c.memory_latency),
            config.issue_width, config.rob_size, config.lsq_size,
            mshr.num_entries, len(fu_capacity), 1 if pause else 0, n)
        if not ptr:
            raise MemoryError("vector kernel context allocation failed")
        handle = _ckernel.CtxHandle(kern, ptr)

        ni = gei = 0
        run = kern.run
        # Python-float views of the state vectors: the event's issue time,
        # the scheduler key and an uncore miss's line.
        fs_v = memoryview(fs)
        iv_v = memoryview(iv)
        i_now = _ckernel.FS_NOWSAVE
        i_line = _ckernel.IS_LINE
        result = 0.0        # the pending event's result (none on entry)
        # Epoch/bounce accounting: local ints (bounces are rare by design),
        # reported once to the recorder after the loop.
        epochs = b_mem_miss = b_dma = b_dsync = b_setbuf = 0
        limit, limit_order = yield
        try:
            while True:
                i = run(ptr, result)
                epochs += 1
                if i < 0:
                    raise MemoryError("vector kernel allocation failure")
                if i >= n:
                    break
                pc = seq_pcs[i]
                vk = vk_b[pc * 4 + sel[i]]
                # Epoch break before any shared-uncore touch: a route-5 miss
                # (vk 5/6 — the only live ops the kernel stops at when
                # multicore) or a DMA burst (vk 8/9).  The kernel issued
                # the event without moving the key.
                if pause and vk <= 9:
                    fetch_time = fs_v[0]
                    if fetch_time > limit or (fetch_time == limit
                                              and my_order > limit_order):
                        self.fetch_time = fetch_time
                        limit, limit_order = yield
                now = fs_v[i_now]
                if vk <= 6:         # route-5 load/store (multicore only)
                    b_mem_miss += 1
                    result = memory_beyond_l1(now, iv_v[i_line])
                elif vk <= 9:       # dma-get / dma-put issue
                    b_dma += 1
                    completion_d = time_transfer(now, dma_nlines[ni],
                                                 dma_addrs[ni], events[pc])
                    ni += 1
                    if vk == 8:
                        e = dget_entries[gei]
                        gei += 1
                        if e >= 0:
                            present[e] = 0
                            ready_t[e] = completion_d
                    result = 1.0
                elif vk == 11:      # dma-sync
                    b_dsync += 1
                    result = 1.0 + dma_sync(events[pc], now)
                elif vk == 10:      # set-bufsize
                    b_setbuf += 1
                    result = 1.0
                else:               # halt: its static latency
                    result = events[pc]
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

    def finish(self) -> LaneTiming:
        """Install the out-of-band instruction-fetch activity (see
        :func:`~repro.trace.replay._l1i_stats`) and the oracle's activity
        counters into the live memory system, so it reports exactly what
        execution-driven simulation would, and return the lane's timing
        record, with the branch counts of the flags pass.  Shared
        memory/bus counters are *not* written here — the caller applies
        them once via :func:`_apply_shared` (they are shared objects in
        multicore).  Call once, after ``done``.
        """
        fs, presence_stalls, phase_acc = self._state
        (_, last_commit, _, rob_stalls, lsq_stalls, contended, total_lat,
         hier_lat) = fs[:8]
        system = self._mem
        hierarchy = system.hierarchy
        oracle = self._oracle
        hierarchy.l1i.stats, hierarchy.icache_accesses = _l1i_stats(
            self.trace, self._seq_pcs, self.config, hierarchy.config)
        flags = self._flags
        # Commit deltas are strictly positive, so a phase accumulated exactly
        # 0.0 iff no instruction of that phase retired — execution's
        # accumulator would not report it either.
        timing = LaneTiming(
            cycles=last_commit, committed=len(self._seq_pcs),
            phase_cycles={name: cycles for name, cycles
                          in zip(self._phase_names, phase_acc)
                          if cycles != 0.0},
            mispredictions=flags[2], branch_predictions=flags[1],
            fu_op_counts=dict(self._fu_counts),
            fu_contended_cycles=contended, rob_dispatch_stalls=rob_stalls,
            lsq_occupancy_stalls=lsq_stalls,
            lsq_collapsed_stores=oracle.collapsed)

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

    The oracle models no LLC, so each patch counts every demand MEM route
    as a memory read; on a clustered uncore the timing
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
