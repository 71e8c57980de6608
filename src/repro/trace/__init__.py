"""Trace capture & timing replay for the evaluation matrix.

The paper's evaluation re-runs the *same* dynamic instruction/memory stream
under many machine parameters: the compiled kernel and its retired stream
depend only on (workload, mode, scale) plus the two functional machine
parameters (``lm_size``, ``directory_entries``) — never on cache sizes,
latencies or functional-unit counts.  This package exploits that:

* :mod:`repro.trace.capture` records the stream once, during an ordinary
  execution-driven run (``Core.run(recorder=...)``);
* :mod:`repro.trace.format` defines the compact, versioned,
  machine-config-independent artifact (branch outcomes + memory addresses +
  DMA operands) and its content hashing;
* :mod:`repro.trace.store` keeps traces content-addressed on disk alongside
  the sweep engine's result store;
* :mod:`repro.trace.replay` re-times a trace under any machine configuration
  on the vector engine (:mod:`repro.trace.vector`: batched derivation
  passes over the recorded stream, then a compiled timing kernel) —
  cycle-identical to execution at any replay-valid machine and several
  times faster, because functional execution is skipped and structure
  updates leave the timing loop.

``RunSpec(kind="replay")`` cells in :mod:`repro.harness.sweep` resolve
through :func:`run_replay_spec` (capture-then-replay, both stores consulted),
and ``python -m repro.trace`` offers ``capture`` / ``replay`` / ``ls``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.trace.format import (
    TRACE_SCHEMA,
    MulticoreTrace,
    Trace,
    TraceError,
    TraceKey,
    parse_trace_bytes,
    program_fingerprint,
)
from repro.trace.capture import (
    TraceRecorder,
    capture_micro,
    capture_workload,
    execute_key,
)
from repro.trace.replay import (
    REPLAY_ENGINES,
    ReplayValidityError,
    check_replay_machine,
    replay_trace,
)
from repro.trace.store import EphemeralTraceStore, TraceStore

__all__ = [
    "REPLAY_ENGINES",
    "TRACE_SCHEMA",
    "MulticoreTrace",
    "Trace",
    "TraceError",
    "TraceKey",
    "TraceRecorder",
    "TraceStore",
    "EphemeralTraceStore",
    "ReplayValidityError",
    "capture_machine_for",
    "capture_micro",
    "capture_workload",
    "check_replay_machine",
    "ensure_trace",
    "execute_key",
    "family_key_for",
    "parse_trace_bytes",
    "program_fingerprint",
    "replay_trace",
    "run_replay_spec",
]


def capture_machine_for(key: TraceKey, base=None):
    """The machine configuration a capture of ``key`` runs on: ``base`` with
    exactly the key's functional parameters."""
    from repro.harness.config import PTLSIM_CONFIG
    return dataclasses.replace(base or PTLSIM_CONFIG, lm_size=key.lm_size,
                               directory_entries=key.directory_entries,
                               num_cores=key.num_cores)


def family_key_for(spec, machine) -> TraceKey:
    """The capture-trace key a replay cell resolves through.

    Kernel cells key on (workload, mode, scale) plus the machine's
    functional parameters — including ``num_cores``, which selects the
    domain decomposition.  Microbenchmark cells (``params`` carries
    ``micro_mode``) key on their parameter set; the canonical workload name
    is derived from the params so replay and execute cells of the same
    microbenchmark share one trace regardless of label case.
    """
    params = dict(spec.params)
    if "micro_mode" in params:
        return TraceKey.create(
            f"micro-{params['micro_mode']}", spec.mode, "-", kind="micro",
            params=params, lm_size=machine.lm_size,
            directory_entries=machine.directory_entries)
    return TraceKey.create(spec.workload, spec.mode, spec.scale, kind="kernel",
                           lm_size=machine.lm_size,
                           directory_entries=machine.directory_entries,
                           num_cores=machine.num_cores)


def ensure_trace(key: TraceKey, store: Optional[TraceStore] = None,
                 capture_machine=None) -> Tuple[Trace, Optional[object]]:
    """Fetch the trace for ``key`` from the store, capturing it if missing.

    Returns ``(trace, capture_result)`` where ``capture_result`` is the live
    :class:`~repro.harness.runner.RunResult` of the capture run when one had
    to happen now (``None`` on a store hit).  The capture runs through
    :func:`~repro.trace.capture.execute_key`.
    """
    store = store if store is not None else TraceStore()
    trace = store.get(key)
    if trace is not None:
        return trace, None
    result, trace = execute_key(key, capture_machine_for(key, capture_machine),
                                capture=True)
    store.put(trace)
    return trace, result


def run_replay_spec(spec, base_machine=None, store: Optional[TraceStore] = None):
    """Resolve a ``RunSpec(kind="replay")`` cell: capture once, then replay.

    The trace is keyed by the cell's workload family and the *functional*
    parameters of its resolved machine; the capture run uses the base
    machine with exactly those functional parameters, so any
    timing-parameter override replays against the shared trace.  When the
    capture configuration already equals the requested machine the capture
    result is returned directly (replaying it would reproduce the same
    numbers cycle for cycle).

    Returns a live :class:`~repro.harness.runner.RunResult`.
    """
    machine = spec.resolve_machine(base_machine)
    # The key inherits this machine's functional parameters, so replay_trace's
    # own check_replay_machine gate passes by construction.
    key = family_key_for(spec, machine)
    if key.kind == "micro" and machine.num_cores != 1:
        # Microbenchmarks are single-core programs: the execute path
        # (run_program) ignores num_cores, so replay must too — otherwise
        # the two kinds of the same cell would diverge.
        machine = dataclasses.replace(machine, num_cores=1)
    trace, captured = ensure_trace(key, store=store,
                                   capture_machine=base_machine)
    if captured is not None and capture_machine_for(key, base_machine) == machine:
        return captured
    return replay_trace(trace, machine)
