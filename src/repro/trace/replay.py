"""Timing replay: re-time a captured dynamic stream under any machine config.

The replay engine rebuilds the static program (compilation is deterministic
given the trace key), instantiates a *fresh* memory system for the
requested machine configuration, and re-times the recorded stream on it
instead of executing the program:

* the instruction sequence is re-derived once per trace by walking the
  static program's basic blocks with the recorded conditional-branch
  outcomes (cached, so an ablation sweep over one trace pays for the walk
  once);
* instruction fetch is simulated out of band (:func:`_l1i_stats`): the L1I
  never interacts with the rest of the machine;
* everything else — branch flags, the level that serves each memory
  access, the in-order timing recurrence — is the vector engine's
  (:mod:`repro.trace.vector`): derivation passes over the whole stream,
  then a compiled C kernel (:mod:`repro.trace._ckernel`) for the timing.

**Cycle identity.**  At the capture machine configuration replay produces
bit-identical cycles, phase breakdowns, activity counters and energy to
execution-driven simulation, and under a different (timing-parameter)
configuration it equals execution under that configuration.  The result
cache rests on this invariant.  The C kernel mirrors the out-of-order
recurrence :class:`~repro.cpu.executor.ExecutionLane` runs (see
:mod:`repro.cpu.pipeline`); ``tests/test_vector_replay.py`` and
``tests/test_trace_replay.py`` enforce the identity for every NAS workload,
both system modes, 1/2/4 cores and hand-built programs whose guarded and
oracle-divert accesses hit the directory.

**Fallback.**  When no C kernel can be built, or the engine's
infrastructure fails (an injected fault, an ``OSError``, a
``MemoryError``), :func:`replay_trace` runs the trace key's program
execution-driven at the requested machine instead
(:func:`~repro.trace.capture.execute_key`) and records one
``degraded.vector`` event: slower, never different.

**One driver, lanes as state machines.**  :func:`replay_trace` validates
the trace once and hands its per-core streams to :func:`_replay`, which
builds the machine's system — a multicore one against the shared
:class:`~repro.mem.uncore.Uncore` for more than one core — and one
:class:`~repro.trace.vector._VectorLane` per core.  The lanes are
interleaved by :func:`~repro.cpu.multicore.run_resumable_lanes`, the
scheduler execution-driven multicore runs use too, so the shared-bus
arbitration sees the identical request sequence; a single-core run is one
lane.

**One lookup per pass.**  Every derivation a replay needs — the rebuilt
program, the decoded stream, the L1I simulation and the vector engine's
flags, oracle and prelowered selector — goes through :func:`_tiered`: an
in-process LRU memo, then (for the passes with an artifact kind) the
on-disk artifact store next to the parent trace, then the computation
itself.

**Validity.**  The recorded stream depends on the *functional* machine
parameters (``lm_size``, ``directory_entries``, ``num_cores`` — they shape
compilation and divert behaviour) but on no timing parameter.  Replay
therefore refuses a machine configuration whose functional parameters
differ from the capture's (:class:`ReplayValidityError`), and a single
core's stream of a multicore capture on its own; cache geometry,
latencies, FU counts, issue widths, predictor sizes, DMA costs, uncore
window knobs and energy parameters are all fair game.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import NamedTuple, Optional

import numpy as np

from repro import obs
from repro.cpu.core import lane_result
from repro.cpu.multicore import aggregate_results, run_resumable_lanes
from repro.cpu.pipeline import CODE_BASE, CODE_INSTR_SIZE
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
from repro.trace.capture import execute_key, micro_args
from repro.trace.format import (
    MulticoreTrace,
    Trace,
    TraceError,
    TraceKey,
    program_fingerprint,
)

__all__ = ["REPLAY_ENGINES", "ReplayValidityError", "check_replay_machine",
           "replay_trace"]

#: Replay engines ``replay_trace`` accepts: the epoch-batched vector engine
#: (:mod:`repro.trace.vector`) is the only one.
REPLAY_ENGINES = ("vector",)


class ReplayValidityError(ValueError):
    """A trace cannot be replayed as asked: the machine config changes
    functional parameters the trace depends on, or the trace is one core's
    stream of a multicore capture."""


# Dense per-instruction kinds of the replay passes.
_K_ALU, _K_LOAD, _K_STORE, _K_CBR, _K_JMP, _K_HALT = 0, 1, 2, 3, 4, 5
_K_DGET, _K_DPUT, _K_DSYNC, _K_SETBUF = 6, 7, 8, 9


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
        program = build_microbenchmark(*micro_args(key))
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
    into ``phase_names``), ``cold[pc]`` the ones only memory, branch and DMA
    instructions need, ``fu_values[pc]`` the FU-class string for the
    precomputed op counts.
    """
    hot, cold, fu_values = [], [], []
    phase_index: dict = {}
    for inst in program.instructions:
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
                    inst.srcs, phase, inst.unpipelined))
        cold.append((target, imm, inst.is_guarded, inst.oracle_divert,
                     inst.collapse_with_prev))
        fu_values.append(inst.fu_class.value)
    phase_names = [None] * len(phase_index)
    for name, idx in phase_index.items():
        phase_names[idx] = name
    return hot, cold, fu_values, phase_names


class _Decoded(NamedTuple):
    """The decode pass's product: the trace's event streams, the FU visit
    histogram and the retired pc sequence (``seq_pcs``, one ``uint32`` per
    retired instruction)."""

    branches: list
    mem_addrs: list
    dma_words: list
    fu_counts: dict
    seq_pcs: array


def _decode_trace(trace: Trace, hot, cold, fu_values) -> _Decoded:
    """Expand the trace into the retired dynamic sequence (one walk).

    The walk visits basic blocks, not instructions: from any pc, execution
    runs straight to the next conditional branch, jump or halt, so each
    step emits a pc range and consumes at most one branch outcome.  It also
    validates that the trace matches the rebuilt program exactly — the
    stream must end where execution stops, at a retired halt or past the
    last pc.
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
    return _Decoded(branches, mem_addrs, dma_words, fu_counts, seq_pcs)


def _decode_to_artifact(decoded: _Decoded):
    """Project a decode result onto its persistable (meta, sections) form.

    Only the retired PC stream and the FU visit histogram need storing:
    branch/memory/DMA event streams live in the trace itself.
    """
    meta = {"n": len(decoded.seq_pcs),
            "fu_counts": dict(sorted(decoded.fu_counts.items()))}
    return meta, [("seq_pcs", decoded.seq_pcs.tobytes())]


def _decode_from_artifact(meta, sections, trace: Trace, hot):
    """Rebuild a decode result from its artifact, or None if implausible.

    Skips the control-flow walk entirely — validity was established when
    the artifact was written under the same (fingerprint, digest) key.  A
    pc outside the program reads as torn.
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
    return _Decoded(trace.branch_outcomes(), list(trace.mem_addrs),
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
_DECODE_CACHE: "OrderedDict[tuple, _Decoded]" = OrderedDict()
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


def _cached_decode(trace: Trace, hot, cold, fu_values,
                   parent_hash=None) -> _Decoded:
    """Decoded dynamic sequence of one trace (see :func:`_tiered`)."""
    return _tiered(
        _DECODE_CACHE, _CACHE_CAP,
        (trace.program_fingerprint, trace.stream_digest()), "replay.decode",
        lambda: _decode_trace(trace, hot, cold, fu_values),
        parent_hash, "decode", _decode_to_artifact,
        lambda meta, sections: _decode_from_artifact(meta, sections, trace,
                                                     hot))


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


def replay_trace(trace: Trace,
                 machine: Optional[MachineConfig] = None,
                 engine: str = "vector",
                 timeline=None) -> RunResult:
    """Replay ``trace`` under ``machine`` and return a full :class:`RunResult`.

    At the capture machine configuration the result is cycle- and
    energy-identical to execution-driven simulation; under a different
    (timing-parameter) configuration it is the re-timed run, equal to
    execution under that configuration.  A
    :class:`~repro.trace.format.MulticoreTrace` replays its per-core streams
    together against the shared uncore.  The vector engine runs the replay;
    without its C kernel, or after a fault in its infrastructure, the trace
    key's program runs execution-driven instead and one ``degraded.vector``
    event is recorded (see the module docstring).  ``engine`` must be
    ``"vector"``, the one engine.

    ``timeline`` (a :class:`repro.obs.timeline.TimelineRecorder`) captures
    the simulated-time activity of the run: per-core lane run spans and —
    multicore — shared-bus occupancy and DMA bursts from the uncore.  An
    execution-driven fallback records nothing on it.
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
        if "core" in dict(key.params):
            raise ReplayValidityError(
                f"trace {key.label} is one core's stream of a "
                f"{key.num_cores}-core capture and cannot be replayed on its "
                "own; replay the multicore trace it belongs to")
        traces = (trace,)
        entries = (_cached_program(key),)
    for core_id, (core_trace, entry) in enumerate(zip(traces, entries)):
        if entry[6] != core_trace.program_fingerprint:
            raise TraceError(
                f"trace {key.label} is stale: core {core_id} program "
                f"fingerprint {core_trace.program_fingerprint} != rebuilt "
                f"{entry[6]} (the compiler or workload changed since "
                "capture)")
    from repro import faults
    from repro.trace import _ckernel
    try:
        # Checked before any derivation pass runs: without a kernel the
        # oracle/prelower work would be thrown away.
        kernel = _ckernel.load()
        if kernel is not None:
            return _replay(key, list(zip(traces, entries)), machine, kernel,
                           timeline)
        obs.degraded("vector", "no C kernel (no compiler, or the compile "
                     "failed): running execution-driven", trace=key.label)
    except (faults.FaultError, OSError, MemoryError) as exc:
        # The vector engine is a pure accelerator: its C kernel or
        # derivation infrastructure failing (injected or real — a vanished
        # .so, an OOM in a pass) costs speed, never correctness, because
        # replay at a machine equals execution at it.  Genuine replay
        # errors (TraceError, validity, ValueError) propagate — falling
        # back would mask them.
        obs.degraded("vector", f"running execution-driven: {exc!r}",
                     trace=key.label)
    return execute_key(key, machine)[0]


def _replay(key: TraceKey, cores, machine: MachineConfig, kern,
            timeline=None) -> RunResult:
    """Replay validated per-core ``(trace, program entry)`` pairs on the
    loaded C kernel ``kern``.

    The one driver for every core count: it builds the machine's system (a
    multicore one, against the shared uncore, for more than one core) and
    one :class:`~repro.trace.vector._VectorLane` per core, and runs them
    under :func:`~repro.cpu.multicore.run_resumable_lanes`.  A single-core
    run is one lane.  The lanes' pass products are memoized and persisted
    under ``key.key_hash`` — per-core streams have no stored file of their
    own, so their artifacts hang off the multicore family's hash — and
    re-parsing the same RPMT container, or replaying it under another
    ablation point, pays no second derivation.  A program entry is a
    :func:`_cached_program` tuple.
    """
    from repro.trace.vector import _VectorLane, _apply_shared
    config = core_config_for(machine)
    num_cores = len(cores)
    if num_cores > 1:
        system = build_multicore_system(key.mode, machine,
                                        num_cores=num_cores)
        if timeline is not None:
            system.uncore.timeline = timeline
        attach = [(system.core(i), system.uncore.port(i))
                  for i in range(num_cores)]
        shared = system.uncore
    else:
        system = build_system(key.mode, machine)
        attach = [(system, None)]
        shared = system.hierarchy
    lanes = [_VectorLane(core_id, trace, entry, config, key, mem, machine,
                         kern, port)
             for core_id, ((trace, entry), (mem, port))
             in enumerate(zip(cores, attach))]
    with obs.phase("vector.timing"):
        run_resumable_lanes(lanes, timeline=timeline)
        timings = [lane.finish() for lane in lanes]
    _apply_shared(shared, lanes)
    per_core = [lane_result(timing, mem.stats_summary())
                for timing, (mem, _) in zip(timings, attach)]
    if num_cores > 1:
        sim = aggregate_results(per_core, system.aggregate_summary(),
                                topology=system.topology)
    else:
        (sim,) = per_core
    energy = EnergyModel(machine.energy).compute(sim)
    return RunResult(workload=key.workload, mode=key.mode,
                     compiled=cores[0][1][1], sim=sim, energy=energy,
                     system=system, scale=key.scale, num_cores=num_cores)
