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

**One driver, lanes as state machines.**  :func:`replay_trace` validates
the trace once and hands its per-core streams to :func:`_replay`, the one
driver of both engines and every core count.  It builds the machine's
system — a multicore one against the shared
:class:`~repro.mem.uncore.Uncore` for more than one core — and one lane per
core: :class:`_FusedLane` here, or the vector engine's lane
(:mod:`repro.trace.vector`).  Both derive from :class:`_ReplayLane`, which
holds a core's pass products, its timing model and the resumable-lane
contract: ``run_until`` processes instructions until the lane's scheduling
key ``(fetch_time, order)`` passes a limit.  The lanes are interleaved by
:func:`~repro.cpu.multicore.run_resumable_lanes`, the scheduler
execution-driven multicore runs use too — so the shared-bus arbitration
sees the identical request sequence and multicore replay stays cycle- and
energy-identical to execution at the capture configuration; a single-core
run is one lane.  A lane yields only before an instruction that can touch
shared state (a non-LM load or store, a DMA command, dma-sync,
set-bufsize); private work between two such instructions commutes across
cores, so lanes run ahead through it.

**One lookup per pass.**  Every derivation a replay needs — the rebuilt
program, the decoded stream, the L1I simulation, the branch flags and the
vector engine's oracle and prelowered selector — goes through
:func:`_tiered`: an in-process LRU memo, then (for the passes with an
artifact kind) the on-disk artifact store next to the parent trace, then
the computation itself.

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
from repro.harness.systems import (
    build_multicore_system,
    build_system,
    core_config_for,
)
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
    next conditional branch, jump or halt, so each step emits a pc range
    and consumes at most one branch outcome.  It also validates that the
    trace matches the rebuilt program exactly — the stream must end where
    execution stops, at a retired halt or past the last pc.
    """
    branches = trace.branch_outcomes()
    mem_addrs = list(trace.mem_addrs)
    dma_words = list(trace.dma_words)
    prog_len = len(hot)
    kind_of = [h[0] for h in hot]
    # ends[pc]: the first branch, jump or halt at or after pc (prog_len if
    # none).
    ends = [prog_len] * prog_len
    end = prog_len
    for pc in range(prog_len - 1, -1, -1):
        if kind_of[pc] in (_K_CBR, _K_JMP, _K_HALT):
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
            if pc == end + 1:           # the block's last instruction retired
                pc = end                # where a missing outcome is reported
                if kind_of[end] == _K_HALT:
                    pc = prog_len       # execution stops
                elif kind_of[end] == _K_JMP:
                    pc = cold[end][0]
                else:
                    pc = cold[end][0] if branches[bi] else end + 1
                    bi += 1
        if pc < prog_len:               # the stream ends before execution
            raise IndexError
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


def _tiered(memo: OrderedDict, cap: int, key, prefix: str, compute,
            parent_hash=None, kind=None, to_artifact=None,
            from_artifact=None):
    """One derivation pass's lookup: memory -> disk -> compute.

    The in-process LRU ``memo`` (capped at ``cap``) answers first; then,
    given a ``parent_hash`` (the owning trace's — or multicore family's —
    key hash) and an artifact ``kind``, the on-disk artifact store, whose
    ``(meta, sections)`` entry ``from_artifact`` rebuilds (None reads as a
    torn file and a miss); then ``compute()``, whose result ``to_artifact``
    projects back onto the store.  Every lookup counts ``{prefix}.hit`` or
    ``{prefix}.miss`` (plus ``{prefix}.disk.hit`` from the store) and the
    compute runs under the ``prefix`` phase.
    """
    entry = memo.get(key)
    if entry is not None:
        obs.incr(f"{prefix}.hit")
        memo.move_to_end(key)
        return entry
    store = artifacts.default_store() if parent_hash and kind else None
    if store is not None:
        loaded = store.get(parent_hash, kind, key)
        if loaded is not None:
            entry = from_artifact(*loaded)
            if entry is not None:
                obs.incr(f"{prefix}.hit")
                obs.incr(f"{prefix}.disk.hit")
                _remember(memo, key, entry, cap)
                return entry
    obs.incr(f"{prefix}.miss")
    with obs.phase(prefix):
        entry = compute()
    _remember(memo, key, entry, cap)
    if store is not None:
        store.put(parent_hash, kind, key, *to_artifact(entry))
    return entry


def _cached_program(key: TraceKey):
    def rebuild():
        program, compiled = _rebuild_program(key)
        return ((program, compiled) + _program_meta(program)
                + (program_fingerprint(program),))
    return _tiered(_PROGRAM_CACHE, _CACHE_CAP, key.key_hash,
                   "replay.program", rebuild)


def _cached_parallel_program(key: TraceKey, machine: MachineConfig):
    """Per-core shard programs + flattened replay metadata of one multicore
    trace family, compiled once and shared across ablation points.

    Compilation depends only on the key's functional parameters (already
    validated against ``machine``), so the entry is keyed by the family
    ``key_hash`` alone.  Cores whose shard programs are identical (same
    :func:`program_fingerprint`) share one set of hot/cold tables.
    """
    def compile_family():
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
            cores.append((comp.program, comp) + meta + (fingerprint,))
        return tuple(cores)
    return _tiered(_MC_PROGRAM_CACHE, _CACHE_CAP, key.key_hash,
                   "replay.program", compile_family)


def _cached_decode(trace: Trace, hot, cold, fu_values, parent_hash=None,
                   with_seq: bool = False):
    """Decoded dynamic sequence of one trace (see :func:`_tiered`).

    A decode carries no ``seq``; ``with_seq=True`` (the fused engine)
    materialises it from ``seq_pcs``, once per memo entry.
    """
    key = (trace.program_fingerprint, trace.stream_digest())
    entry = _tiered(
        _DECODE_CACHE, _CACHE_CAP, key, "replay.decode",
        lambda: _decode_trace(trace, hot, cold, fu_values),
        parent_hash, "decode", _decode_to_artifact,
        lambda meta, sections: _decode_from_artifact(meta, sections, trace,
                                                     hot))
    if with_seq and entry[0] is None:
        entry = _DECODE_CACHE[key] = ([hot[pc] for pc in entry[5]],) \
            + entry[1:]
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

    def simulate():
        l1i = Cache("L1I", mem_config.l1i_size, mem_config.l1i_assoc,
                    mem_config.line_size, mem_config.l1i_latency,
                    write_back=False)
        fetch_width = config.fetch_width
        # access_batch(..., fill_misses=True) is exactly access()+fill() per
        # miss: the L1I is write-through, so fills never produce the
        # dirty-victim writebacks that would make the two diverge.
        pcs = np.frombuffer(seq_pcs, np.uint32)
        fetched = pcs[pcs % fetch_width == 0].astype(np.int64)
        addrs = (CODE_BASE + fetched * CODE_INSTR_SIZE).tolist()
        l1i.access_batch(addrs, False, fill_misses=True)
        return l1i.stats, len(addrs)

    key = (trace.program_fingerprint, trace.stream_digest(),
           config.fetch_width, mem_config.l1i_size, mem_config.l1i_assoc,
           mem_config.line_size)
    stats, accesses = _tiered(_L1I_CACHE, _CACHE_CAP, key, "replay.l1i",
                              simulate)
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
    """Branch flags of one stream (see :func:`_tiered`).

    Both engines share the memo and the artifacts; the lookup reports its
    phase and counters under the asking engine's prefix (``"vector"`` or
    ``"replay"`` for fused), so each engine's profile shows its own cost and
    a vector run that falls back to fused records no ``vector.*`` pass.
    """
    key = (trace.program_fingerprint, trace.stream_digest(),
           config.predictor_entries, config.btb_entries, config.btb_assoc)
    return _tiered(_FLAGS_CACHE, _FLAGS_CAP, key, f"{engine}.flags",
                   lambda: _branch_flags(decoded, cold, config, hot),
                   parent_hash, "flags", _flags_to_artifact,
                   _flags_from_artifact)


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
    key = trace.key
    check_replay_machine(key, machine)
    if isinstance(trace, MulticoreTrace):
        if key.kind != "kernel":
            raise TraceError(f"multicore replay supports kernel traces only, "
                             f"not {key.kind!r}")
        if key.num_cores != len(trace.cores):
            raise TraceError(
                f"multicore trace {key.label} holds {len(trace.cores)} core "
                f"streams but its key says {key.num_cores}")
        traces = trace.cores
        entries = _cached_parallel_program(key, machine)
    else:
        traces = (trace,)
        entries = (_cached_program(key),)
    for core_id, (core_trace, entry) in enumerate(zip(traces, entries)):
        if entry[6] != core_trace.program_fingerprint:
            raise TraceError(
                f"trace {key.label} is stale: core {core_id} program "
                f"fingerprint {core_trace.program_fingerprint} != rebuilt "
                f"{entry[6]} (the compiler or workload changed since "
                "capture)")
    cores = list(zip(traces, entries))
    if engine == "vector":
        from repro import faults
        from repro.trace import _ckernel
        try:
            # Checked before any derivation pass runs: without a kernel the
            # oracle/prelower work would be thrown away.
            kernel = _ckernel.load()
            if kernel is not None:
                return _replay(key, cores, machine, kernel, timeline)
            obs.degraded("vector", "no C kernel (no compiler, or the "
                         "compile failed): falling back to fused engine",
                         trace=key.label)
        except (faults.FaultError, OSError, MemoryError) as exc:
            # The vector engine is a pure accelerator: its C kernel or
            # prelowering infrastructure failing (injected or real — a
            # vanished .so, an OOM in a derivation pass) costs speed, never
            # correctness, because the fused engine is bit-identical by
            # construction.  Genuine replay errors (TraceError, validity,
            # ValueError) propagate — falling back would mask them.
            obs.degraded("vector", f"falling back to fused engine: {exc!r}",
                         trace=key.label)
    return _replay(key, cores, machine, None, timeline)


def _replay(key: TraceKey, cores, machine: MachineConfig, kern=None,
            timeline=None) -> RunResult:
    """Replay validated per-core ``(trace, program entry)`` pairs.

    The one driver of both engines and every core count: it builds the
    machine's system (a multicore one, against the shared uncore, for more
    than one core), one lane per core — :class:`_FusedLane`, or with a
    loaded C kernel ``kern`` the vector engine's lane — and runs them under
    :func:`~repro.cpu.multicore.run_resumable_lanes`.  A single-core run is
    one lane.  The lanes' pass products are memoized and persisted under
    ``key.key_hash`` — per-core streams have no stored file of their own,
    so their artifacts hang off the multicore family's hash — and
    re-parsing the same RPMT container, or replaying it under another
    ablation point, pays no second derivation.  A program entry is a
    :func:`_cached_program` tuple.
    """
    config = core_config_for(machine)
    num_cores = len(cores)
    if num_cores > 1:
        system = build_multicore_system(key.mode, machine,
                                        num_cores=num_cores)
        if timeline is not None:
            system.uncore.timeline = timeline
        attach = [(system.core(i), system.view(i), system.uncore.port(i))
                  for i in range(num_cores)]
        shared = system.uncore
    else:
        system = build_system(key.mode, machine)
        attach = [(system, system, None)]
        shared = system.hierarchy
    _skip_dma_copies(mem for mem, _, _ in attach)
    if kern is None:
        lanes = [_FusedLane(core_id, trace, entry, config, key, mem, view)
                 for core_id, ((trace, entry), (mem, view, _))
                 in enumerate(zip(cores, attach))]
    else:
        from repro.trace.vector import _VectorLane, _apply_shared
        lanes = [_VectorLane(core_id, trace, entry, config, key, mem,
                             machine, kern, port)
                 for core_id, ((trace, entry), (mem, _, port))
                 in enumerate(zip(cores, attach))]
    with obs.phase(f"{lanes[0]._engine}.timing"):
        run_resumable_lanes(lanes, timeline=timeline)
        timings = [lane.finish() for lane in lanes]
    if kern is not None:
        _apply_shared(shared, lanes)
    per_core = [lane_result(timing, mem.stats_summary())
                for timing, (mem, _, _) in zip(timings, attach)]
    if num_cores > 1:
        sim = aggregate_results(per_core, system.aggregate_summary(),
                                topology=system.topology)
    else:
        (sim,) = per_core
    energy = EnergyModel(machine.energy).compute(sim)
    return RunResult(workload=key.workload, mode=key.mode,
                     compiled=cores[0][1][1], sim=sim, energy=energy,
                     system=system, scale=key.scale, num_cores=num_cores)


class _ReplayLane:
    """One core's replay lane: what the fused and vector lanes share.

    Holds the core's pass products (decoded stream, branch flags), its
    fresh :class:`~repro.cpu.pipeline.OutOfOrderTimingModel` and the
    resumable-lane contract of
    :func:`~repro.cpu.multicore.run_resumable_lanes`: the engine's loop is
    a *generator* (``_loop``) whose locals survive across yields, so handing
    control between lanes costs one ``send``.  On exhaustion the loop packs
    its final state into ``_state``; the engine's ``finish`` writes it back
    through :meth:`_install_timing`.  ``mem`` is the core's
    :class:`~repro.core.hybrid.HybridSystem`, built without a protocol
    checker (which would have to see every access).  ``_engine`` prefixes
    the flags pass's counters and phase (see :func:`_cached_flags`).
    """

    __slots__ = ("order", "trace", "config", "timing", "fetch_time", "done",
                 "_mem", "_seq_pcs", "_n", "_fu_counts", "_phase_names",
                 "_phase_acc", "_flags", "_gen", "_state")
    _engine = "replay"

    def __init__(self, order: int, trace: Trace, entry, decoded, config,
                 key: TraceKey, mem):
        hot, cold, phase_names = entry[2], entry[3], entry[5]
        self.order = order
        self.trace = trace
        self.config = config
        self._mem = mem
        self._seq_pcs = decoded[5]
        self._n = len(decoded[5])
        self._fu_counts = decoded[4]
        self._phase_names = phase_names
        self._phase_acc = [0.0] * len(phase_names)
        self._flags = _cached_flags(trace, decoded, cold, config, hot,
                                    parent_hash=key.key_hash,
                                    engine=self._engine)
        self.timing = OutOfOrderTimingModel(config, hierarchy=mem.hierarchy)
        self.fetch_time = 0.0
        self.done = False

    def run_until(self, limit: float, limit_order: int) -> None:
        """Advance the lane until it reaches an instruction it yields before
        (a shared-state one: see each engine's loop) with its key
        ``(fetch_time, order)`` past ``(limit, limit_order)`` — the
        multicore scheduling contract.  At least one instruction is
        processed per call (the caller only schedules the earliest lane);
        ``limit=inf`` runs to completion.
        """
        try:
            self._gen.send((limit, limit_order))
        except StopIteration:
            self.done = True

    def _install_timing(self, fetch_time, last_commit, rob_bw, rob_stalls,
                        lsq_stalls, memory_ops, collapsed,
                        contended) -> OutOfOrderTimingModel:
        """Write the loop's final scalar timing state, the phase totals, the
        precomputed FU op counts, the branch flags' predictor/BTB counters
        and the out-of-band instruction-fetch activity (see
        :func:`_l1i_stats`) back into the timing model and the L1I, so they
        report exactly what execution-driven simulation would; returns the
        timing model."""
        timing = self.timing
        hierarchy = self._mem.hierarchy
        hierarchy.l1i.stats, hierarchy.icache_accesses = _l1i_stats(
            self.trace, self._seq_pcs, self.config, hierarchy.config)
        timing.fetch_time = fetch_time
        timing.committed = self._n
        timing.last_commit_time = last_commit
        timing.fu_op_counts.update(self._fu_counts)
        # Commit deltas are strictly positive, so a phase accumulated exactly
        # 0.0 iff no instruction of that phase retired — execution's
        # defaultdict would not contain it either.
        phase_acc = self._phase_acc
        for idx, name in enumerate(self._phase_names):
            if phase_acc[idx] != 0.0:
                timing.phase_cycles[name] = phase_acc[idx]
        timing.rob._last_commit_time = last_commit
        timing.rob._commit_bandwidth_time = rob_bw
        timing.rob.dispatch_stalls = rob_stalls
        timing.lsq.occupancy_stalls = lsq_stalls
        timing.lsq.memory_ops = memory_ops
        timing.lsq.collapsed_stores = collapsed
        timing.fus.contended_cycles = contended
        flags = self._flags
        timing.mispredictions = flags[2]
        predictor = timing.predictor
        predictor.predictions = flags[1]
        predictor.mispredictions = flags[2]
        predictor.btb.hits = flags[3]
        predictor.btb.misses = flags[4]
        return timing


class _FusedLane(_ReplayLane):
    """One core's fused replay loop as a resumable state machine.

    The per-instruction math is the transcription of the out-of-order model
    described in the module docstring, operating on this lane's own
    timing-model objects and flat reservation tables.  Lanes yield only
    before shared-state instructions (see the module docstring), so in
    multicore a switch comes once per run of private work, not per
    instruction.

    Branches read their mispredict flags from the flags pass.  Loads and
    stores are timing-only: the LM latency, the real directory lookup of a
    guarded access (its presence-bit stall included), the hierarchy access
    of an SM-served one and the store-collapse latch run inline, and the
    counters the skipped ``load``/``store`` calls would change are folded
    in :meth:`finish`.  ``system`` — the core's own system for single-core
    replay, a :class:`~repro.core.multicore.CoreView` (ownership-checked
    facade) for multicore — is called only for DMA commands, dma-sync and
    set-bufsize; the loop drives ``mem``'s components directly.
    """

    __slots__ = ()

    def __init__(self, order: int, trace: Trace, entry, config,
                 key: TraceKey, mem, system):
        assert mem.checker is None, "replay systems track no protocol"
        hot, cold, fu_values = entry[2], entry[3], entry[4]
        decoded = _cached_decode(trace, hot, cold, fu_values,
                                 parent_hash=key.key_hash, with_seq=True)
        super().__init__(order, trace, entry, decoded, config, key, mem)
        # Pre-seed every register name so the hot loop can use direct
        # indexing (missing keys read as 0.0 in the original, which this
        # reproduces).
        reg_ready = self.timing.reg_ready
        for h in hot:
            for src in h[4]:
                reg_ready.setdefault(src, 0.0)
        self._gen = self._loop(decoded[0], cold, decoded[2], decoded[3],
                               system)
        next(self._gen)     # run the loop's setup to the first yield

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
        self._state = ((fetch_time, last_commit, rob_bw, rob_stalls,
                        lsq_stalls, mi, lsq_collapsed, contended),
                       (total_lat, last_store_addr, last_store_to_sm,
                        lm_loads, lm_stores, loads, stores, sm_reads,
                        sm_writes, collapsed_stores, g_loads, g_stores,
                        g_hit_loads, g_hit_stores, div_loads, div_stores))

    def finish(self) -> OutOfOrderTimingModel:
        """Write the accumulated state back into the timing model and memory
        system (so they report exactly what execution-driven simulation
        would) and return the timing model.  Call once, after ``done``.
        """
        timing_state, accesses = self._state
        (total_lat, last_store_addr, last_store_to_sm, lm_loads, lm_stores,
         loads, stores, sm_reads, sm_writes, collapsed_stores, g_loads,
         g_stores, g_hit_loads, g_hit_stores, div_loads,
         div_stores) = accesses
        timing = self._install_timing(*timing_state)

        # -- what the skipped load/store calls would have counted --
        system = self._mem
        hierarchy = system.hierarchy
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
