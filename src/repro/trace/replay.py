"""Timing replay: re-time a captured dynamic stream under any machine config.

The replay engine rebuilds the static program (compilation is deterministic
given the trace key), instantiates a *fresh* memory system and coherence
directory for the requested machine configuration, and drives them with the
recorded stream instead of the execution frontend:

* the instruction sequence is re-derived once per trace by walking the
  static program's basic blocks with the recorded conditional-branch
  outcomes (cached, so an ablation sweep over one trace pays for the walk
  once);
* branch mispredictions come from one flags pass per (trace, predictor
  geometry) — :func:`_branch_flags`, shared with the vector engine — that
  runs the real predictor and BTB over the recorded outcomes: their state
  never depends on the clock;
* loads/stores at their recorded addresses drive the real directory
  (``lookup`` for guarded accesses, ``peek_lookup`` for oracle-divert ones)
  and the real cache hierarchy, but without the
  :class:`~repro.core.hybrid.HybridSystem` ``load``/``store`` call: the LM
  latency, the hierarchy access and the store-collapse latch are inline
  and the counters those calls would change are added back at the end;
* DMA commands, dma-sync and set-bufsize are issued to the system with
  their recorded operands (the DMA controller snoops and counts but moves
  no data words);
* register reads, ALU evaluation, branch condition evaluation and data
  movement are skipped entirely — they are what the trace replaces.

**Cycle identity.**  At the capture machine configuration replay produces
bit-identical cycles, phase breakdowns, activity counters and energy to
execution-driven simulation: the directory, caches, DMA controller and
uncore receive the identical operation sequence with identical clock
estimates, and the timing math below is an independent transcription of
the out-of-order model that :class:`~repro.cpu.executor.ExecutionLane`
runs (see :mod:`repro.cpu.pipeline`), operating on the same component state
(ROB/LSQ deques).  Three mechanical substitutions keep the math identical
while making it faster:

* the per-cycle issue-slot and functional-unit reservation *dicts* become
  flat lists indexed by cycle (a pruned dict entry is never consulted again
  — dispatch time is monotonic — so ``get(cycle, 0)`` and ``list[cycle]``
  see exactly the same counts);
* trace-static aggregates (retired-instruction count, per-class FU op
  counts, LSQ occupancy) are precomputed from the decoded stream instead of
  incremented per instruction;
* loads and stores skip the ``HybridSystem`` call and update the counters
  it would (instruction fetch, likewise, is simulated out of band by
  :func:`_l1i_stats`, and branches read the flags pass).

``tests/test_trace_replay.py`` enforces the identity for every NAS
workload and for guarded and oracle-divert accesses that hit the
directory; any change to the execution lane's timing or to the load/store
branches of ``hybrid.py`` must be mirrored here.

**The fused loop is a lane state machine.**  :class:`_FusedLane` holds one
core's fused replay state (decoded stream cursor, flat reservation tables,
scalar timing state) and advances it with :meth:`_FusedLane.run_until`,
which processes instructions until the lane's scheduling key
``(fetch_time, order)`` passes a limit.  Single-core replay is one lane run
with an infinite limit.  Multicore replay builds one lane per core against
the shared :class:`~repro.mem.uncore.Uncore` and interleaves them with
:func:`~repro.cpu.multicore.run_resumable_lanes`, the scheduler
execution-driven multicore runs use too — so the shared-bus arbitration
sees the identical request sequence and multicore replay stays cycle- and
energy-identical to execution at the capture configuration.  A lane yields
only before an instruction that can touch shared state (a non-LM load or
store, a DMA command, dma-sync, set-bufsize); private work between two such
instructions commutes across cores, so lanes run ahead through it.

**Validity.**  The recorded stream depends on the *functional* machine
parameters (``lm_size``, ``directory_entries``, ``num_cores`` — they shape
compilation and divert behaviour) but on no timing parameter.  Replay
therefore refuses a machine configuration whose functional parameters
differ from the capture's (:class:`ReplayValidityError`); cache geometry,
latencies, FU counts, issue widths, predictor sizes, DMA costs, uncore
window knobs and energy parameters are all fair game.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Optional

import numpy as np

from repro import obs
from repro.cpu.branch_predictor import HybridBranchPredictor
from repro.cpu.core import lane_result
from repro.cpu.multicore import aggregate_results, run_resumable_lanes
from repro.cpu.pipeline import CODE_BASE, CODE_INSTR_SIZE, OutOfOrderTimingModel
from repro.harness.config import MachineConfig, PTLSIM_CONFIG
from repro.harness.runner import RunResult
from repro.harness.systems import build_system, core_config_for
from repro.energy.model import EnergyModel
from repro.isa.instructions import Opcode
from repro.trace import artifacts
from repro.trace.format import (
    MulticoreTrace,
    Trace,
    TraceError,
    TraceKey,
    program_fingerprint,
)

__all__ = ["REPLAY_ENGINES", "ReplayValidityError", "check_replay_machine",
           "replay_trace"]

#: Replay engines: ``"fused"`` is the scalar lane-state-machine loop,
#: ``"vector"`` the epoch-batched engine (:mod:`repro.trace.vector`) that
#: precomputes structure updates out of the timing loop and runs the timing
#: recurrence in a compiled C kernel.
REPLAY_ENGINES = ("fused", "vector")


class ReplayValidityError(ValueError):
    """A machine config changes functional parameters the trace depends on."""


# Dense per-instruction kinds driving the replay dispatch.
_K_ALU, _K_LOAD, _K_STORE, _K_CBR, _K_JMP, _K_HALT = 0, 1, 2, 3, 4, 5
_K_DGET, _K_DPUT, _K_DSYNC, _K_SETBUF = 6, 7, 8, 9

#: Extension chunk for the cycle-indexed reservation lists.
_ZEROS = [0] * 8192

_INFINITY = float("inf")


def check_replay_machine(key: TraceKey, machine: MachineConfig) -> None:
    """Raise :class:`ReplayValidityError` unless ``machine`` is replay-valid."""
    problems = []
    if machine.lm_size != key.lm_size:
        problems.append(f"lm_size {machine.lm_size} != capture {key.lm_size}")
    if machine.directory_entries != key.directory_entries:
        problems.append(f"directory_entries {machine.directory_entries} "
                        f"!= capture {key.directory_entries}")
    if machine.num_cores != key.num_cores:
        problems.append(f"num_cores {machine.num_cores} "
                        f"!= capture {key.num_cores}")
    if problems:
        raise ReplayValidityError(
            f"trace {key.label} cannot be replayed on this machine: "
            + "; ".join(problems)
            + " (these parameters change the compiled program / dynamic "
              "stream; capture a new trace instead)")


def _rebuild_program(key: TraceKey):
    """Deterministically rebuild the program a trace was captured from."""
    if key.kind == "kernel":
        from repro.compiler.codegen import compile_kernel
        from repro.workloads import get_workload
        kernel = get_workload(key.workload, key.scale)
        compiled = compile_kernel(kernel, mode=key.mode, lm_size=key.lm_size,
                                  max_buffers=key.directory_entries)
        program = compiled.program
    elif key.kind == "micro":
        from repro.workloads.microbenchmark import build_microbenchmark
        params = dict(key.params)
        program = build_microbenchmark(
            mode=params.get("micro_mode", "baseline"),
            guarded_fraction=float(params.get("guarded_fraction", 0.0)),
            iterations=int(params.get("iterations", 200)),
            unroll=int(params.get("unroll", 1)))
        compiled = None
    else:
        raise TraceError(f"unknown trace kind {key.kind!r}")
    if not program.is_laid_out:
        program.assign_addresses()
    return program, compiled


def _program_meta(program):
    """Flatten static instructions into plain per-pc tuples for replay.

    Returns ``(hot, cold, fu_values, phase_names)``: ``hot[pc]`` carries the
    fields every retired instruction touches (with the phase as an index
    into ``phase_names`` so the loop can accumulate into a flat list),
    ``cold[pc]`` the ones only memory, branch and DMA instructions need,
    ``fu_values[pc]`` the FU-class string for the precomputed op counts.
    """
    hot, cold, fu_values = [], [], []
    phase_index: dict = {}
    for pc, inst in enumerate(program.instructions):
        op = inst.opcode
        if inst.is_memory:
            kind = _K_LOAD if inst.is_load else _K_STORE
        elif inst.is_conditional_branch:
            kind = _K_CBR
        elif op is Opcode.JMP:
            kind = _K_JMP
        elif op is Opcode.HALT:
            kind = _K_HALT
        elif op is Opcode.DMA_GET:
            kind = _K_DGET
        elif op is Opcode.DMA_PUT:
            kind = _K_DPUT
        elif op is Opcode.DMA_SYNC:
            kind = _K_DSYNC
        elif op is Opcode.SET_BUFSIZE:
            kind = _K_SETBUF
        else:
            kind = _K_ALU
        if kind in (_K_CBR, _K_JMP) and inst.target is not None:
            target = program.resolve_label(inst.target)
        else:
            target = 0
        imm = (inst.imm or 0) if kind in (_K_DGET, _K_DPUT) else inst.imm
        phase = phase_index.setdefault(inst.phase, len(phase_index))
        hot.append((kind, inst.fu_index, float(inst.latency), inst.dst,
                    inst.srcs, phase, inst.unpipelined, pc))
        cold.append((target, imm, inst.is_guarded, inst.oracle_divert,
                     inst.collapse_with_prev))
        fu_values.append(inst.fu_class.value)
    phase_names = [None] * len(phase_index)
    for name, idx in phase_index.items():
        phase_names[idx] = name
    return hot, cold, fu_values, phase_names


def _decode_trace(trace: Trace, hot, cold, fu_values):
    """Expand the trace into the retired dynamic sequence (one walk).

    Returns ``(None, branches, mem_addrs, dma_words, fu_counts, seq_pcs)``
    where ``seq_pcs`` is the retired pc sequence as a flat array (the
    persistable projection; :func:`_cached_decode` builds the fused engine's
    per-instruction ``seq`` from it on request).  The walk visits basic
    blocks, not instructions: from any pc, execution runs straight to the
    next conditional branch or jump, so each step emits a pc range and
    consumes at most one branch outcome.  It also validates that the trace
    matches the rebuilt program exactly.
    """
    branches = trace.branch_outcomes()
    mem_addrs = list(trace.mem_addrs)
    dma_words = list(trace.dma_words)
    prog_len = len(hot)
    kind_of = [h[0] for h in hot]
    # ends[pc]: the first branch or jump at or after pc (prog_len if none).
    ends = [prog_len] * prog_len
    end = prog_len
    for pc in range(prog_len - 1, -1, -1):
        if kind_of[pc] == _K_CBR or kind_of[pc] == _K_JMP:
            end = pc
        ends[pc] = end
    starts, lengths = [], []
    n = trace.instructions
    pc = done = bi = 0
    try:
        while done < n:
            if pc >= prog_len:
                raise IndexError
            start = pc
            end = ends[pc]
            length = min(end + 1, prog_len, start + n - done) - start
            starts.append(start)
            lengths.append(length)
            done += length
            pc = start + length
            if pc == end + 1:           # the block's branch or jump retired
                pc = end                # where a missing outcome is reported
                if kind_of[end] == _K_JMP:
                    pc = cold[end][0]
                else:
                    pc = cold[end][0] if branches[bi] else end + 1
                    bi += 1
    except IndexError:
        raise TraceError(
            f"trace {trace.key.label} ran off its program or event streams "
            f"at pc={pc} (event {done} of {n}); the trace does not match "
            "the rebuilt program") from None
    lengths = np.array(lengths, np.int64)
    offsets = np.repeat(np.array(starts, np.int64) - np.cumsum(lengths)
                        + lengths, lengths)
    pcs = (np.arange(n, dtype=np.int64) + offsets).astype(np.uint32)
    visits = np.bincount(pcs, minlength=prog_len)
    kinds = np.array(kind_of, np.uint8)
    mi = int(visits[(kinds == _K_LOAD) | (kinds == _K_STORE)].sum())
    di = 3 * int(visits[(kinds == _K_DGET) | (kinds == _K_DPUT)].sum())
    if bi != len(branches) or mi != len(mem_addrs) or di != len(dma_words):
        raise TraceError(
            f"trace {trace.key.label} left unconsumed events "
            f"(branches {bi}/{len(branches)}, mem {mi}/{len(mem_addrs)}, "
            f"dma {di}/{len(dma_words)}); the trace does not match the "
            "rebuilt program")
    fu_counts: dict = {}
    for pc in np.flatnonzero(visits).tolist():
        fu_value = fu_values[pc]
        fu_counts[fu_value] = fu_counts.get(fu_value, 0) + int(visits[pc])
    seq_pcs = array("I")
    seq_pcs.frombytes(pcs.tobytes())
    return None, branches, mem_addrs, dma_words, fu_counts, seq_pcs


def _decode_to_artifact(decoded):
    """Project a decode result onto its persistable (meta, sections) form.

    Only the retired PC stream and the FU visit histogram need storing:
    branch/memory/DMA event streams live in the trace itself.
    """
    fu_counts, seq_pcs = decoded[4], decoded[5]
    meta = {"n": len(seq_pcs),
            "fu_counts": dict(sorted(fu_counts.items()))}
    return meta, [("seq_pcs", seq_pcs.tobytes())]


def _decode_from_artifact(meta, sections, trace: Trace, hot):
    """Rebuild a decode result from its artifact, or None if implausible.

    Skips the control-flow walk entirely — validity was established when
    the artifact was written under the same (fingerprint, digest) key.  As
    from the walk, the entry's ``seq`` is None.  A pc outside the program
    reads as torn.
    """
    try:
        seq_pcs = array("I")
        seq_pcs.frombytes(sections["seq_pcs"])
        if (len(seq_pcs) != trace.instructions or meta["n"] != len(seq_pcs)
                or (seq_pcs and np.frombuffer(seq_pcs, np.uint32).max()
                    >= len(hot))):
            return None
        fu_counts = {k: int(v) for k, v in meta["fu_counts"].items()}
    except (KeyError, ValueError, TypeError):
        return None
    return (None, trace.branch_outcomes(), list(trace.mem_addrs),
            list(trace.dma_words), fu_counts, seq_pcs)


# Rebuilt programs, decoded dynamic sequences and instruction-fetch cache
# simulations are cached in-process so an ablation sweep replaying one trace
# under many machine configs pays each cost once.  Programs are keyed by
# trace identity (single-core) or family identity (multicore shards);
# decodes and L1I simulations are keyed by *content* — program fingerprint
# plus the stream digest of the per-core trace — so per-core streams of one
# RPMT container, and identical streams across containers, share one entry.
# All caches are capped LRU.
_PROGRAM_CACHE: "OrderedDict[str, tuple]" = OrderedDict()
_MC_PROGRAM_CACHE: "OrderedDict[str, tuple]" = OrderedDict()
_DECODE_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_L1I_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_CACHE_CAP = 8


def _remember(memo: OrderedDict, key, entry, cap: int) -> None:
    """Insert ``entry`` into an LRU memo, evicting the oldest past ``cap``."""
    memo[key] = entry
    while len(memo) > cap:
        memo.popitem(last=False)



def _cached_program(key: TraceKey):
    entry = _PROGRAM_CACHE.get(key.key_hash)
    if entry is None:
        obs.incr("replay.program.miss")
        with obs.phase("replay.program"):
            program, compiled = _rebuild_program(key)
            hot, cold, fu_values, phase_names = _program_meta(program)
            entry = (program, compiled, hot, cold, fu_values, phase_names,
                     program_fingerprint(program))
        _remember(_PROGRAM_CACHE, key.key_hash, entry, _CACHE_CAP)
    else:
        obs.incr("replay.program.hit")
        _PROGRAM_CACHE.move_to_end(key.key_hash)
    return entry


def _cached_parallel_program(key: TraceKey, machine: MachineConfig):
    """Per-core shard programs + flattened replay metadata of one multicore
    trace family, compiled once and shared across ablation points.

    Compilation depends only on the key's functional parameters (already
    validated against ``machine``), so the entry is keyed by the family
    ``key_hash`` alone.  Cores whose shard programs are identical (same
    :func:`program_fingerprint`) share one set of hot/cold tables.
    """
    entry = _MC_PROGRAM_CACHE.get(key.key_hash)
    if entry is None:
        obs.incr("replay.program.miss")
        with obs.phase("replay.program"):
            from repro.harness.runner import compile_parallel_workload
            compiled = compile_parallel_workload(key.workload, key.mode,
                                                 key.scale, machine,
                                                 key.num_cores)
            metas: dict = {}
            cores = []
            for comp in compiled:
                fingerprint = program_fingerprint(comp.program)
                meta = metas.get(fingerprint)
                if meta is None:
                    meta = metas[fingerprint] = _program_meta(comp.program)
                hot, cold, fu_values, phase_names = meta
                cores.append((comp.program, comp, hot, cold, fu_values,
                              phase_names, fingerprint))
            entry = tuple(cores)
        _remember(_MC_PROGRAM_CACHE, key.key_hash, entry, _CACHE_CAP)
    else:
        obs.incr("replay.program.hit")
        _MC_PROGRAM_CACHE.move_to_end(key.key_hash)
    return entry


def _cached_decode(trace: Trace, hot, cold, fu_values, parent_hash=None,
                   with_seq: bool = False):
    """Decoded dynamic sequence of one trace: memory -> disk -> compute.

    ``parent_hash`` (the owning trace's — or multicore family's — key hash)
    enables the on-disk artifact tier; without it only the in-memory memo
    is consulted.  A decode carries no ``seq``; ``with_seq=True`` (the
    fused engine) materialises it from ``seq_pcs``, once per memo entry.
    """
    cache_key = (trace.program_fingerprint, trace.stream_digest())
    entry = _DECODE_CACHE.get(cache_key)
    if entry is not None:
        obs.incr("replay.decode.hit")
        _DECODE_CACHE.move_to_end(cache_key)
    else:
        store = artifacts.default_store() if parent_hash else None
        loaded = (store.get(parent_hash, "decode", list(cache_key))
                  if store is not None else None)
        if loaded is not None:
            entry = _decode_from_artifact(loaded[0], loaded[1], trace, hot)
        if entry is not None:
            obs.incr("replay.decode.hit")
            obs.incr("replay.decode.disk.hit")
        else:
            obs.incr("replay.decode.miss")
            with obs.phase("replay.decode"):
                entry = _decode_trace(trace, hot, cold, fu_values)
            if store is not None:
                meta, sections = _decode_to_artifact(entry)
                store.put(parent_hash, "decode", list(cache_key), meta,
                          sections)
    if with_seq and entry[0] is None:
        entry = ([hot[pc] for pc in entry[5]],) + entry[1:]
    _remember(_DECODE_CACHE, cache_key, entry, _CACHE_CAP)
    return entry


def _l1i_stats(trace: Trace, seq_pcs, config, mem_config):
    """Instruction-fetch activity of a replay, simulated stand-alone.

    The L1I is completely decoupled from the rest of the machine: only
    ``fetch_access`` touches it, its return latency is ignored by the
    front-end model, and no data-path or DMA event ever invalidates it —
    multicore included, where each core fetches from its own private L1I.
    Its activity is therefore a pure function of the retired pc stream,
    ``fetch_width`` and the L1I geometry — so replay simulates it here, once,
    through the real :class:`~repro.mem.cache.Cache` model, and memoizes the
    resulting counters across ablation points that keep these parameters.

    Returns ``(stats, icache_accesses)`` where ``stats`` is a
    :class:`~repro.mem.cache.CacheStats` to install on the hierarchy's L1I.
    """
    import dataclasses as _dc
    from repro.mem.cache import Cache
    cache_key = (trace.program_fingerprint, trace.stream_digest(),
                 config.fetch_width, mem_config.l1i_size,
                 mem_config.l1i_assoc, mem_config.line_size)
    entry = _L1I_CACHE.get(cache_key)
    if entry is None:
        obs.incr("replay.l1i.miss")
        with obs.phase("replay.l1i"):
            l1i = Cache("L1I", mem_config.l1i_size, mem_config.l1i_assoc,
                        mem_config.line_size, mem_config.l1i_latency,
                        write_back=False)
            fetch_width = config.fetch_width
            # access_batch(..., fill_misses=True) is exactly access()+fill()
            # per miss: the L1I is write-through, so fills never produce the
            # dirty-victim writebacks that would make the two diverge.
            pcs = np.frombuffer(seq_pcs, np.uint32)
            fetched = pcs[pcs % fetch_width == 0].astype(np.int64)
            addrs = (CODE_BASE + fetched * CODE_INSTR_SIZE).tolist()
            l1i.access_batch(addrs, False, fill_misses=True)
            entry = (l1i.stats, len(addrs))
        _remember(_L1I_CACHE, cache_key, entry, _CACHE_CAP)
    else:
        obs.incr("replay.l1i.hit")
        _L1I_CACHE.move_to_end(cache_key)
    stats, accesses = entry
    return _dc.replace(stats), accesses


# ------------------------------------------------------------ branch flags
# One mispredict flag per conditional branch and jump, in retirement order:
# predictor and BTB state evolve with the recorded outcomes only, never with
# the clock, so both replay engines read the flags of one pass per (stream,
# predictor geometry) instead of walking the predictor per branch.
_FLAGS_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_FLAGS_CAP = 16


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
                  parent_hash=None, engine: str = "vector") -> tuple:
    """Branch flags of one stream: memory -> disk -> compute.

    ``parent_hash`` enables the artifact tier as in :func:`_cached_decode`.
    Both engines share the memo and the artifacts; the lookup reports its
    phase and counters under the asking engine's prefix (``"vector"`` or
    ``"replay"`` for fused), so each engine's profile shows its own cost and
    a vector run that falls back to fused records no ``vector.*`` pass.
    """
    key = (trace.program_fingerprint, trace.stream_digest(),
           config.predictor_entries, config.btb_entries, config.btb_assoc)
    entry = _FLAGS_CACHE.get(key)
    if entry is not None:
        obs.incr(f"{engine}.flags.hit")
        _FLAGS_CACHE.move_to_end(key)
        return entry
    store = artifacts.default_store() if parent_hash else None
    if store is not None:
        loaded = store.get(parent_hash, "flags", key)
        if loaded is not None:
            entry = _flags_from_artifact(loaded[0], loaded[1])
            if entry is not None:
                obs.incr(f"{engine}.flags.hit")
                obs.incr(f"{engine}.flags.disk.hit")
                _remember(_FLAGS_CACHE, key, entry, _FLAGS_CAP)
                return entry
    obs.incr(f"{engine}.flags.miss")
    with obs.phase(f"{engine}.flags"):
        entry = _branch_flags(decoded, cold, config, hot)
    _remember(_FLAGS_CACHE, key, entry, _FLAGS_CAP)
    if store is not None:
        meta, sections = _flags_to_artifact(entry)
        store.put(parent_hash, "flags", key, meta, sections)
    return entry


def _branch_flags(decoded, cold, config, hot) -> tuple:
    """Mispredict flag per branch event — the vectorized flags pass.

    Identical output to :func:`_branch_flags_scalar` (enforced by
    ``tests/test_artifact_cache.py``), but the per-event Python interleave
    loop is gone: branch-event extraction is a numpy mask over the decoded
    pc stream, conditionals go through the predictor's batched
    :meth:`update_batch` whose flags land back in event order via one
    vectorized scatter, and only the (sparse) BTB probe/install walk of
    jumps and taken branches remains scalar.

    Returns ``(flags, predictions, mispredictions, btb_hits, btb_misses)``
    with one flag per conditional-branch/jump in retirement order.
    """
    branches = decoded[1]
    seq_pcs = decoded[5]
    predictor = HybridBranchPredictor(entries=config.predictor_entries,
                                      btb_entries=config.btb_entries,
                                      btb_assoc=config.btb_assoc,
                                      ras_entries=config.ras_entries)
    pcs = np.frombuffer(seq_pcs, np.uint32).astype(np.int64)
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

    # BTB: jumps probe, every taken branch installs — same in-order sequence
    # as the scalar pass, restricted to the events that actually touch it.
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


def _install_branch_stats(timing: OutOfOrderTimingModel, flags) -> None:
    """Write a flags-pass result's predictor and BTB counters into a lane's
    timing model — what the per-branch ``update``/BTB calls would leave."""
    timing.mispredictions = flags[2]
    predictor = timing.predictor
    predictor.predictions = flags[1]
    predictor.mispredictions = flags[2]
    predictor.btb.hits = flags[3]
    predictor.btb.misses = flags[4]


def _skip_dma_copies(systems) -> None:
    """Stop the DMA controllers of replay systems from moving data words.

    A replayed run reads no data (loads take recorded addresses, stores
    write nothing), and the block copies change no counter: a DMA transfer
    only has to snoop the caches and count.
    """
    for system in systems:
        if system.dmac is not None:
            system.dmac.copy_data = False


def replay_trace(trace: Trace,
                 machine: Optional[MachineConfig] = None,
                 engine: str = "fused",
                 timeline=None) -> RunResult:
    """Replay ``trace`` under ``machine`` and return a full :class:`RunResult`.

    At the capture machine configuration the result is cycle- and
    energy-identical to execution-driven simulation; under a different
    (timing-parameter) configuration it is the re-timed run.  A
    :class:`~repro.trace.format.MulticoreTrace` replays its per-core streams
    together against the shared uncore.  ``engine="fused"`` (default) is the
    portable interleaved lane engine; ``engine="vector"`` (see
    :mod:`repro.trace.vector`) runs the timing recurrence in a compiled C
    kernel and, when no kernel can be built, falls back to fused and records
    a ``degraded.vector`` event.  Both engines are bit-identical; they
    differ in speed only.

    ``timeline`` (a :class:`repro.obs.timeline.TimelineRecorder`) captures
    the simulated-time activity of the run: per-core lane run spans and —
    multicore — shared-bus occupancy and DMA bursts from the uncore.
    """
    machine = machine or PTLSIM_CONFIG
    if engine not in REPLAY_ENGINES:
        raise ValueError(f"unknown replay engine {engine!r}; "
                         f"expected one of {REPLAY_ENGINES}")
    if engine == "vector":
        from repro import faults
        from repro.trace import _ckernel
        from repro.trace.vector import (
            replay_multicore_vector,
            replay_single_vector,
        )
        try:
            # Checked before any derivation pass runs: without a kernel the
            # oracle/prelower work would be thrown away.
            kernel = _ckernel.load()
            if kernel is None:
                obs.degraded("vector", "no C kernel (no compiler, or the "
                             "compile failed): falling back to fused engine",
                             trace=trace.key.label)
            elif isinstance(trace, MulticoreTrace):
                return replay_multicore_vector(trace, machine, kernel,
                                               timeline=timeline)
            else:
                return replay_single_vector(trace, machine, kernel,
                                            timeline=timeline)
        except (faults.FaultError, OSError, MemoryError) as exc:
            # The vector engine is a pure accelerator: its C kernel or
            # prelowering infrastructure failing (injected or real — a
            # vanished .so, an OOM in a derivation pass) costs speed, never
            # correctness, because the fused engine is bit-identical by
            # construction.  Genuine replay errors (TraceError, validity,
            # ValueError) propagate — falling back would mask them.
            obs.degraded("vector", f"falling back to fused engine: {exc!r}",
                         trace=trace.key.label)
    if isinstance(trace, MulticoreTrace):
        return _replay_multicore(trace, machine, timeline=timeline)
    check_replay_machine(trace.key, machine)
    program, compiled, hot, cold, fu_values, phase_names, fingerprint = \
        _cached_program(trace.key)
    if fingerprint != trace.program_fingerprint:
        raise TraceError(
            f"trace {trace.key.label} is stale: program fingerprint "
            f"{trace.program_fingerprint} != rebuilt {fingerprint} "
            "(the compiler or workload changed since capture)")
    decoded = _cached_decode(trace, hot, cold, fu_values,
                             parent_hash=trace.key.key_hash, with_seq=True)
    config = core_config_for(machine)
    flags = _cached_flags(trace, decoded, cold, config, hot,
                          parent_hash=trace.key.key_hash, engine="replay")
    system = build_system(trace.key.mode, machine)
    _skip_dma_copies([system])
    lane = _FusedLane(0, program, cold, phase_names, decoded, trace,
                      system, system, config, flags)
    with obs.phase("replay.timing"):
        lane.run_until(_INFINITY, 0)
        timing = lane.finish()
    if timeline is not None:
        timeline.lane_span(0, 0.0, lane.fetch_time)
    sim = lane_result(timing, system.stats_summary())
    energy = EnergyModel(machine.energy).compute(sim)
    return RunResult(workload=trace.key.workload, mode=trace.key.mode,
                     compiled=compiled, sim=sim, energy=energy,
                     system=system, scale=trace.key.scale)


class _FusedLane:
    """One core's fused replay loop as a resumable state machine.

    The per-instruction math is the transcription of the out-of-order model
    described in the module docstring, operating on this lane's own
    timing-model objects and flat reservation tables.  The loop lives in a
    *generator* (:meth:`_loop`) whose locals — stream cursors, the scalar
    timing state, every cached bound method — survive across yields, so
    handing control between lanes costs one ``send`` instead of saving and
    restoring the loop state.  Lanes yield only before shared-state
    instructions (see the module docstring), so in multicore a switch comes
    once per run of private work, not per instruction.

    Branches read their mispredict flags from ``flags`` (a
    :func:`_cached_flags` result).  Loads and stores are timing-only: the
    LM latency, the real directory lookup of a guarded access (its
    presence-bit stall included), the hierarchy access of an SM-served one
    and the store-collapse latch run inline, and the counters the skipped
    ``load``/``store`` calls would change are folded in :meth:`finish`.
    ``system`` — a :class:`~repro.core.hybrid.HybridSystem` for single-core
    replay, a :class:`~repro.core.multicore.CoreView` (ownership-checked
    facade) for multicore — is called only for DMA commands, dma-sync and
    set-bufsize.  ``mem`` is the underlying per-core
    :class:`~repro.core.hybrid.HybridSystem` whose components the loop
    drives and whose counters it writes back (the same object as ``system``
    in the single-core case); replay builds it without a protocol checker,
    which would have to see every access.
    """

    __slots__ = ("order", "trace", "config", "timing", "fetch_time", "done",
                 "_seq_pcs", "_fu_counts", "_phase_names", "_phase_acc",
                 "_mem", "_flags", "_n", "_gen", "_state")

    def __init__(self, order: int, program, cold, phase_names, decoded,
                 trace: Trace, system, mem, config, flags):
        assert mem.checker is None, "replay systems track no protocol"
        seq, mem_addrs, dma_words, fu_counts = (decoded[0], decoded[2],
                                                decoded[3], decoded[4])
        self.order = order
        self.trace = trace
        self.config = config
        self._seq_pcs = decoded[5]
        self._n = len(seq)
        self._fu_counts = fu_counts
        self._phase_names = phase_names
        self._phase_acc = [0.0] * len(phase_names)
        self._mem = mem
        self._flags = flags
        timing = OutOfOrderTimingModel(config, hierarchy=mem.hierarchy)
        self.timing = timing
        self.fetch_time = 0.0
        self.done = self._n == 0

        # Pre-seed every register name so the hot loop can use direct
        # indexing (missing keys read as 0.0 in the original, which this
        # reproduces).
        reg_ready = timing.reg_ready
        for inst in program.instructions:
            for src in inst.srcs:
                reg_ready.setdefault(src, 0.0)

        if self._n:
            self._gen = self._loop(seq, cold, mem_addrs, dma_words, system)
            next(self._gen)     # run the loop's setup to the first yield
        else:   # defensive: programs always retire at least a HALT
            self._gen = None
            self._state = ((0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0.0,
                            mem.total_mem_latency, mem._last_store_addr,
                            mem._last_store_to_sm), (0,) * 13)

    def run_until(self, limit: float, limit_order: int) -> None:
        """Advance the lane until it reaches a shared-state instruction with
        its key ``(fetch_time, order)`` past ``(limit, limit_order)`` — the
        multicore scheduling contract.  At least one instruction is
        processed per call (the caller only schedules the earliest lane);
        ``limit=inf`` runs to completion.
        """
        if self._gen is None:       # empty stream: born done, nothing to run
            return
        try:
            self._gen.send((limit, limit_order))
        except StopIteration:
            self.done = True

    def _loop(self, seq, cold, mem_addrs, dma_words, system):
        """The fused per-instruction loop, as a generator.

        Yields whenever the scheduling contract hands control to another
        lane; every ``send`` delivers the next ``(limit, limit_order)`` key.
        All loop state is generator-local, so a lane switch costs one
        resume.  On exhaustion the final scalar state and the access
        counters are packed into ``_state`` for :meth:`finish`.
        """
        timing = self.timing
        config = self.config
        mem = self._mem
        my_order = self.order

        # -- cached component state (the same objects execution-driven runs
        # use), bound to locals for the duration of the replay --
        issue_width = config.issue_width
        inv_fetch = 1.0 / config.fetch_width
        mispredict_penalty = config.mispredict_penalty
        flags = self._flags[0]
        fus = timing.fus
        fu_capacity = fus._capacity
        rob = timing.rob
        rob_size = rob.size
        rob_times = rob._commit_times
        rob_append = rob_times.append
        inv_commit = 1.0 / rob.commit_width
        lsq_size = timing.lsq.size
        lsq_times = timing.lsq._completion_times
        lsq_append = lsq_times.append
        reg_ready = timing.reg_ready
        phase_acc = self._phase_acc
        use_lm = mem.use_lm
        dma_get = system.dma_get if use_lm else None
        dma_put = system.dma_put if use_lm else None
        dma_sync = system.dma_sync if use_lm else None
        set_bufsize = system.set_buffer_size if use_lm else None
        if use_lm:
            lm_lo = mem.address_map.virtual_base
            lm_hi = lm_lo + mem.address_map.size
            lm_lat = float(mem.lm.latency)
            dir_lookup = mem.directory.lookup
            dir_peek = mem.directory.peek_lookup
        else:
            lm_lo = lm_hi = -1
            lm_lat = 0.0
            dir_lookup = dir_peek = None
        # Loads and stores outside the LM range are timing-only (see the
        # class docstring).  Per pc: 1 guarded, 2 oracle-divert, 4 collapse
        # candidate (the second store of a double store).
        hier_access = mem.hierarchy.access
        mcls = [(1 if c[2] else 2 if c[3] and use_lm else 0)
                | (4 if c[4] else 0) for c in cold]
        check_ownership = getattr(system, "check_ownership", None)

        # Per-cycle reservation state as flat lists (see module docstring).
        issue_slots = [0] * 8192
        slots_len = 8192
        fu_tables = [[0] * 8192 for _ in fu_capacity]
        fu_lens = [8192] * len(fu_capacity)

        # -- scalar timing state --
        fetch_time = 0.0
        last_commit = 0.0  # == rob._last_commit_time == timing.last_commit_time
        rob_bw = 0.0       # rob._commit_bandwidth_time
        rob_stalls = 0.0
        lsq_stalls = 0.0
        lsq_collapsed = 0
        contended = 0.0    # fus.contended_cycles

        # Access accumulators, written back once at the end.  ``total_lat``
        # is the system's ``total_mem_latency``, summed in exactly the
        # execution order (float addition is not associative).
        total_lat = mem.total_mem_latency
        last_store_addr = mem._last_store_addr
        last_store_to_sm = mem._last_store_to_sm
        lm_loads = lm_stores = 0            # LM-range accesses
        loads = stores = 0                  # all other accesses
        sm_reads = sm_writes = collapsed_stores = 0
        g_loads = g_stores = g_hit_loads = g_hit_stores = 0
        div_loads = div_stores = 0

        # The kinds as locals: the dispatch compares against them.
        K_ALU, K_LOAD, K_STORE, K_CBR, K_JMP = (
            _K_ALU, _K_LOAD, _K_STORE, _K_CBR, _K_JMP)
        K_HALT, K_DGET, K_DPUT, K_DSYNC = _K_HALT, _K_DGET, _K_DPUT, _K_DSYNC
        i = 0
        fi = mi = di = 0
        n = self._n
        limit, limit_order = yield

        # The instruction-fetch stream never interacts with the rest of the
        # machine (see _l1i_stats), so it is simulated out-of-band and the
        # fetch_access call disappears from this loop entirely.
        while i < n:
            h = seq[i]
            # ---- scheduling: yield before an instruction that can touch
            # shared state (a non-LM load/store, DMA, dma-sync, set-bufsize)
            # once another lane's front end is earlier (strictly, or equal
            # with a lower core id).  Private work commutes across cores, so
            # the lane runs ahead through it. ----
            if fetch_time >= limit and (fetch_time > limit
                                        or my_order > limit_order):
                kind = h[0]
                if kind >= K_DGET or ((kind == K_LOAD or kind == K_STORE)
                                      and not lm_lo <= mem_addrs[mi] < lm_hi):
                    self.fetch_time = fetch_time
                    limit, limit_order = yield
            i += 1
            (kind, fu_index, latency, dst, srcs, phase, unpipelined, index) = h

            # ---- dispatch and issue estimate ----
            # The ROB and LSQ deques start empty, so they are full exactly
            # when rob_size instructions / lsq_size memory ops retired.
            t = fetch_time
            if i > rob_size:
                oldest = rob_times[0]
                if oldest > t:
                    rob_stalls += oldest - t
                    t = oldest
            is_mem = kind == K_LOAD or kind == K_STORE
            if is_mem and mi >= lsq_size:
                oldest = lsq_times[0]
                if oldest > t:
                    lsq_stalls += oldest - t
                    t = oldest
            if t > fetch_time:
                fetch_time = t
            ready = t
            if srcs:
                for src in srcs:
                    r = reg_ready[src]
                    if r > ready:
                        ready = r
            # First free issue slot: when the first probed cycle has one the
            # issue time is ready itself; once the scan advances, it is
            # float(cycle).  Either way ``cycle`` ends as int(now).
            cycle = int(ready)
            while cycle >= slots_len:
                issue_slots.extend(_ZEROS)
                slots_len += 8192
            if issue_slots[cycle] < issue_width:
                now = ready
            else:
                cycle += 1
                while True:
                    if cycle >= slots_len:
                        issue_slots.extend(_ZEROS)
                        slots_len += 8192
                    if issue_slots[cycle] < issue_width:
                        break
                    cycle += 1
                now = float(cycle)

            # ---- execute: resolve latency from the recorded stream ----
            if kind == K_ALU:
                pass
            elif kind == K_LOAD:
                addr = mem_addrs[mi]
                mi += 1
                if lm_lo <= addr < lm_hi:
                    # Inlined HybridSystem.lm_timing_access (load half).
                    lm_loads += 1
                    latency = lm_lat
                    total_lat += latency
                else:
                    # HybridSystem.load past its LM-range branch.
                    if check_ownership is not None:
                        check_ownership(addr)
                    loads += 1
                    c = mcls[index]
                    if c & 1:
                        # Guarded load: the AGU's directory lookup.
                        g_loads += 1
                        hit, _, stall = dir_lookup(addr, now)
                        if hit:
                            g_hit_loads += 1
                            latency = lm_lat + stall
                        else:
                            latency = hier_access(addr, False, index,
                                                  now).latency
                            sm_reads += 1
                    elif c & 2 and dir_peek(addr)[0]:
                        div_loads += 1          # oracle-divert hit
                        latency = lm_lat
                    else:
                        latency = hier_access(addr, False, index, now).latency
                        sm_reads += 1
                    total_lat += latency
            elif kind == K_STORE:
                addr = mem_addrs[mi]
                mi += 1
                collapsed = False
                if lm_lo <= addr < lm_hi:
                    # Inlined HybridSystem.lm_timing_access (store half).
                    lm_stores += 1
                    latency = lm_lat
                    total_lat += latency
                    last_store_addr = addr
                    last_store_to_sm = False
                else:
                    # HybridSystem.store past its LM-range branch.
                    if check_ownership is not None:
                        check_ownership(addr)
                    stores += 1
                    c = mcls[index]
                    if c & 1:
                        # Guarded store: the AGU's directory lookup; a miss
                        # updates the SM copy.
                        g_stores += 1
                        hit, _, stall = dir_lookup(addr, now)
                        if hit:
                            g_hit_stores += 1
                            latency = lm_lat + stall
                            last_store_to_sm = False
                        else:
                            latency = hier_access(addr, True, index,
                                                  now).latency
                            sm_writes += 1
                            last_store_to_sm = True
                        last_store_addr = addr
                    elif c & 2 and dir_peek(addr)[0]:
                        div_stores += 1         # oracle-divert hit
                        latency = lm_lat
                        last_store_addr = addr
                        last_store_to_sm = False
                    elif c & 4 and last_store_to_sm and \
                            last_store_addr == addr:
                        # The double store's second half collapses (its
                        # word is still written).
                        collapsed_stores += 1
                        sm_writes += 1
                        latency = 0.0
                        collapsed = True
                    else:
                        latency = hier_access(addr, True, index, now).latency
                        sm_writes += 1
                        last_store_addr = addr
                        last_store_to_sm = True
                    total_lat += latency
            elif kind <= K_HALT:
                pass            # branch, jump, halt: nothing to resolve
            elif kind == K_DGET:
                latency = dma_get(dma_words[di], dma_words[di + 1],
                                  dma_words[di + 2], tag=cold[index][1],
                                  now=now)
                di += 3
            elif kind == K_DPUT:
                latency = dma_put(dma_words[di], dma_words[di + 1],
                                  dma_words[di + 2], tag=cold[index][1],
                                  now=now)
                di += 3
            elif kind == K_DSYNC:
                stall = dma_sync(cold[index][1], now=now)
                latency = 1.0 + stall
            else:  # _K_SETBUF
                latency = set_bufsize(cold[index][1])

            # ---- retire: a free functional unit from int(now) (``cycle``)
            # on ----
            capacity = fu_capacity[fu_index]
            table = fu_tables[fu_index]
            table_len = fu_lens[fu_index]
            if cycle >= table_len:
                while cycle >= table_len:
                    table.extend(_ZEROS)
                    table_len += 8192
                fu_lens[fu_index] = table_len
            # acquire_index: a free first cycle means start == max(now,
            # float(int(now))) == now with a zero contention charge; an
            # advanced scan means float(cycle) > now, charged as contention.
            if table[cycle] < capacity:
                start = now
            else:
                cycle += 1
                while True:
                    if cycle >= table_len:
                        table.extend(_ZEROS)
                        table_len += 8192
                        fu_lens[fu_index] = table_len
                    if table[cycle] < capacity:
                        break
                    cycle += 1
                start = float(cycle)
                contended += start - now
            if unpipelined:
                occupancy = int(latency)
                if occupancy < 1:
                    occupancy = 1
                end = cycle + occupancy
                if end > table_len:
                    while end > table_len:
                        table.extend(_ZEROS)
                        table_len += 8192
                    fu_lens[fu_index] = table_len
                for ci in range(cycle, end):
                    table[ci] += 1
            else:
                table[cycle] += 1
            # take the issue slot of the start cycle (``cycle`` == int(start))
            while cycle >= slots_len:
                issue_slots.extend(_ZEROS)
                slots_len += 8192
            issue_slots[cycle] += 1
            completion = start + latency
            if dst is not None:
                reg_ready[dst] = completion
            if is_mem:
                if kind == K_STORE:
                    commit_completion = start + (latency if latency < 2.0
                                                 else 2.0)
                    if collapsed:
                        lsq_collapsed += 1
                else:
                    commit_completion = completion
                lsq_append(completion)
                fetch_time = fetch_time + inv_fetch
            else:
                commit_completion = completion
                if kind >= K_CBR:
                    # A mispredicted branch or jump redirects the front end
                    # once it resolves.
                    if kind <= K_JMP:
                        if flags[fi]:
                            fetch_time = completion + mispredict_penalty
                        fi += 1
                    fetch_time = fetch_time + inv_fetch
                    # Serialising instructions (dma-synch, halt) drain the
                    # pipeline.
                    if (kind == K_HALT or kind == K_DSYNC) and \
                            completion > fetch_time:
                        fetch_time = completion
                else:
                    fetch_time = fetch_time + inv_fetch
            # in-order commit (rob.commit): last_commit always equals the
            # commit bandwidth clock after every instruction, so the two
            # max() calls of rob.commit collapse to one comparison against
            # the advanced clock.
            rob_bw = rob_bw + inv_commit
            if commit_completion > rob_bw:
                rob_bw = commit_completion
            rob_append(rob_bw)
            # The commit delta is strictly positive (bandwidth advances by
            # 1/commit_width every instruction), so the accumulation is
            # unconditional.
            phase_acc[phase] += rob_bw - last_commit
            last_commit = rob_bw

        self.fetch_time = fetch_time
        self._state = ((mi, fetch_time, last_commit, rob_bw, rob_stalls,
                        lsq_stalls, lsq_collapsed, contended, total_lat,
                        last_store_addr, last_store_to_sm),
                       (lm_loads, lm_stores, loads, stores, sm_reads,
                        sm_writes, collapsed_stores, g_loads, g_stores,
                        g_hit_loads, g_hit_stores, div_loads, div_stores))

    def finish(self) -> OutOfOrderTimingModel:
        """Write the accumulated state back into the timing model and memory
        system (so they report exactly what execution-driven simulation
        would) and return the timing model.  Call once, after ``done``.
        """
        ((mi, fetch_time, last_commit, rob_bw, rob_stalls, lsq_stalls,
          lsq_collapsed, contended, total_lat, last_store_addr,
          last_store_to_sm),
         (lm_loads, lm_stores, loads, stores, sm_reads, sm_writes,
          collapsed_stores, g_loads, g_stores, g_hit_loads, g_hit_stores,
          div_loads, div_stores)) = self._state
        timing = self.timing
        system = self._mem
        phase_acc = self._phase_acc

        # -- out-of-band instruction-fetch activity (see _l1i_stats) --
        hierarchy = system.hierarchy
        hierarchy.l1i.stats, hierarchy.icache_accesses = _l1i_stats(
            self.trace, self._seq_pcs, self.config, hierarchy.config)

        timing.fetch_time = fetch_time
        timing.committed = self._n
        timing.last_commit_time = last_commit
        timing.fu_op_counts.update(self._fu_counts)
        # Commit deltas are strictly positive, so a phase accumulated exactly
        # 0.0 iff no instruction of that phase retired — execution's
        # defaultdict would not contain it either.
        for idx, name in enumerate(self._phase_names):
            if phase_acc[idx] != 0.0:
                timing.phase_cycles[name] = phase_acc[idx]
        timing.rob._last_commit_time = last_commit
        timing.rob._commit_bandwidth_time = rob_bw
        timing.rob.dispatch_stalls = rob_stalls
        timing.lsq.occupancy_stalls = lsq_stalls
        timing.lsq.memory_ops = mi
        timing.lsq.collapsed_stores = lsq_collapsed
        timing.fus.contended_cycles = contended
        _install_branch_stats(timing, self._flags)

        # -- what the skipped load/store calls would have counted --
        system.loads += lm_loads + loads
        system.stores += lm_stores + stores
        system.guarded_loads += g_loads
        system.guarded_stores += g_stores
        system.collapsed_stores += collapsed_stores
        system.mem_ops += lm_loads + lm_stores + loads + stores
        # MainMemory.read_word / write_word (collapsed stores write too).
        hierarchy.memory.reads += sm_reads
        hierarchy.memory.writes += sm_writes
        system.total_mem_latency = total_lat
        system._last_store_addr = last_store_addr
        system._last_store_to_sm = last_store_to_sm
        if system.use_lm:
            system.lm.reads += lm_loads + g_hit_loads + div_loads
            system.lm.writes += lm_stores + g_hit_stores + div_stores
            agu = system.agu
            agu.guarded_loads += g_loads
            agu.guarded_stores += g_stores
            agu.diverted_loads += g_hit_loads
            agu.diverted_stores += g_hit_stores
        return timing


# --------------------------------------------------------------- multicore replay
def _check_multicore_trace(mtrace: MulticoreTrace,
                           machine: MachineConfig) -> int:
    """Shared validity gate of both multicore engines; returns num_cores."""
    key = mtrace.key
    check_replay_machine(key, machine)
    if key.kind != "kernel":
        raise TraceError(f"multicore replay supports kernel traces only, "
                         f"not {key.kind!r}")
    num_cores = key.num_cores
    if num_cores != len(mtrace.cores):
        raise TraceError(
            f"multicore trace {key.label} holds {len(mtrace.cores)} core "
            f"streams but its key says {num_cores}")
    return num_cores


def _replay_multicore(mtrace: MulticoreTrace,
                      machine: MachineConfig,
                      timeline=None) -> RunResult:
    """Fused multicore replay: one :class:`_FusedLane` per core, interleaved
    under the shared uncore.

    Rebuilds every core's shard program (cached per trace family —
    compilation is deterministic given the family key) and decodes every
    per-core stream once (cached by program fingerprint + stream digest, so
    re-parsing the same RPMT container, or replaying it under another
    ablation point, pays no second walk).  The lanes advance under
    :func:`~repro.cpu.multicore.run_resumable_lanes`' min-fetch-time
    contract — the same global clock as execution's lane runner — so at the
    capture machine configuration cycles, activity and energy are identical
    to the execution-driven run, and under timing-parameter overrides the
    whole multicore, uncore contention included, is re-timed at fused
    speed.
    """
    from repro.harness.systems import build_multicore_system

    key = mtrace.key
    num_cores = _check_multicore_trace(mtrace, machine)
    entries = _cached_parallel_program(key, machine)
    for core_id, (entry, trace) in enumerate(zip(entries, mtrace.cores)):
        if entry[6] != trace.program_fingerprint:
            raise TraceError(
                f"multicore trace {key.label} is stale: core {core_id} "
                f"program fingerprint {trace.program_fingerprint} != rebuilt "
                f"{entry[6]} (the compiler or workload changed since "
                "capture)")
    system = build_multicore_system(key.mode, machine, num_cores=num_cores)
    _skip_dma_copies(system.cores)
    if timeline is not None:
        system.uncore.timeline = timeline
    config = core_config_for(machine)
    lanes = []
    for core_id, (entry, trace) in enumerate(zip(entries, mtrace.cores)):
        program, comp, hot, cold, fu_values, phase_names, fingerprint = entry
        decoded = _cached_decode(trace, hot, cold, fu_values,
                                 parent_hash=key.key_hash, with_seq=True)
        flags = _cached_flags(trace, decoded, cold, config, hot,
                              parent_hash=key.key_hash, engine="replay")
        lanes.append(_FusedLane(core_id, program, cold, phase_names, decoded,
                                trace, system.view(core_id),
                                system.core(core_id), config, flags))
    with obs.phase("replay.timing"):
        run_resumable_lanes(lanes, timeline=timeline)
    per_core = [lane_result(lane.finish(),
                            system.core(core_id).stats_summary())
                for core_id, lane in enumerate(lanes)]
    sim = aggregate_results(per_core, system.aggregate_summary(),
                            topology=system.topology)
    energy = EnergyModel(machine.energy).compute(sim)
    return RunResult(workload=key.workload, mode=key.mode,
                     compiled=entries[0][1], sim=sim, energy=energy,
                     system=system, scale=key.scale, num_cores=num_cores)

