"""Per-layer timing of the simulator, taken from outside the program.

The traced run times each layer around calls into its public functions:
:func:`install` wraps them in ``repro.obs`` phase spans, and the recorder
gives every span its self time (its duration minus the spans nested in it),
next to the phases and counters the replay engines already emit.  Nothing
under ``src/`` changes; the wrappers live only in the child process that
installs them.

The untraced run installs :class:`Sentinel` instead: it times nothing and
only counts, so the benchmark can see a vector replay that fell back to the
fused engine or a store that tripped to memory-only.
"""

import functools
import importlib
import sys
from pathlib import Path

from repro import obs

#: (module, function, phase) — module-level functions, rebound in every
#: ``repro`` module that imported them by name.
FUNCTIONS = (
    ("repro.workloads", "get_workload", "workloads.build"),
    ("repro.workloads.microbenchmark", "build_microbenchmark",
     "workloads.build"),
    ("repro.compiler.codegen", "compile_kernel", "compiler.compile"),
    ("repro.harness.systems", "build_system", "harness.systems.build"),
    ("repro.harness.systems", "build_multicore_system",
     "harness.systems.build"),
    ("repro.harness.sweep", "run_sweep_report", "harness.sweep.engine"),
    ("repro.harness.sweep", "execute_spec", "harness.sweep.execute"),
    ("repro.trace.capture", "capture_workload", "trace.capture"),
    ("repro.trace.replay", "replay_trace", "trace.replay.entry"),
)

#: (module, class, method, phase) — methods, rebound on their class.
METHODS = (
    ("repro.cpu.core", "Core", "run", "cpu.core_run"),
    ("repro.energy.model", "EnergyModel", "compute", "energy.compute"),
    ("repro.harness.sweep", "ResultStore", "put", "harness.sweep.store_put"),
    ("repro.trace.store", "TraceStore", "get", "trace.store.get"),
    ("repro.trace.store", "TraceStore", "put", "trace.store.put"),
    ("repro.trace.format", "Trace", "to_bytes", "trace.encode"),
    ("repro.trace.format", "MulticoreTrace", "to_bytes", "trace.encode"),
    ("repro.trace.artifacts", "ArtifactStore", "get", "trace.artifacts.get"),
    ("repro.trace.artifacts", "ArtifactStore", "put", "trace.artifacts.put"),
)

#: The benchmark's own span around an iteration; everything else is a layer.
ROOT_PHASE = "bench.run"

#: Derivation passes whose memo/disk lookups make up the pass hit ratio.
PASSES = ("replay.decode", "vector.oracle", "vector.flags", "vector.prelower")


class Sentinel(obs.NullRecorder):
    """Counts what the program reports and times nothing.

    ``enabled`` is true so the vector engine reports its C-kernel epochs;
    that adds a few counter updates per replay.
    """

    enabled = True

    def __init__(self):
        self.counters = {}

    def incr(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value


def _timed(fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.phase(name):
            return fn(*args, **kwargs)
    return wrapper


def _artifact_put(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.phase("trace.artifacts.put"):
            path = fn(*args, **kwargs)
        if path is not None:
            obs.incr("bench.artifacts.bytes_written", Path(path).stat().st_size)
        return path
    return wrapper


def install():
    """Wrap every layer entry point in a phase span (once per process)."""
    for module_name, attr, name in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = _timed(original, name)
        for module in list(sys.modules.values()):
            owner = getattr(module, "__name__", "")
            if not (owner.startswith("repro") or owner == "__main__"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    for module_name, cls_name, method, name in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[method]
        wrapped = (_artifact_put(original) if name == "trace.artifacts.put"
                   else _timed(original, name))
        setattr(cls, method, wrapped)


def start(traced):
    """Install this child's recorder: a timing one when ``traced``."""
    if traced:
        install()
        recorder = obs.MetricsRecorder()
    else:
        recorder = Sentinel()
    obs.set_recorder(recorder)
    return recorder


def counter(recorder, name):
    return recorder.counters.get(name, 0)


def self_seconds(recorder, name):
    return recorder.phases.get(name, {}).get("self", 0.0)


def setup_metrics(recorder):
    """Per-layer figures of one traced set-up."""
    return {
        "trace.capture_s": self_seconds(recorder, "trace.capture"),
        "trace.encode_s": self_seconds(recorder, "trace.encode"),
    }


def iteration_metrics(recorder, wall_s, ops, sweep_overhead_s):
    """Per-layer figures of one traced iteration (layer times are self times)."""
    rec = recorder
    instructions = sum(op["instructions"] for op in ops)
    hits = sum(counter(rec, f"{p}.hit") for p in PASSES)
    lookups = hits + sum(counter(rec, f"{p}.miss") for p in PASSES)
    epochs = counter(rec, "vector.ckernel.epochs")
    bounces = sum(value for key, value in rec.counters.items()
                  if key.startswith("vector.bounce."))
    core_run_s = self_seconds(rec, "cpu.core_run")
    covered = sum(entry["self"] for name, entry in rec.phases.items()
                  if name != ROOT_PHASE)

    def sweep_seconds(sweep):
        return sum(op["seconds"] for op in ops
                   if op["id"].startswith(f"{sweep}/"))

    return {
        "workloads.build_s": self_seconds(rec, "workloads.build"),
        "compiler.compile_s": self_seconds(rec, "compiler.compile"),
        "harness.systems.build_s": self_seconds(rec, "harness.systems.build"),
        "energy.compute_s": self_seconds(rec, "energy.compute"),
        "cpu.core_run_s": core_run_s,
        "cpu.ns_per_instr": (core_run_s / instructions * 1e9
                             if core_run_s and instructions else 0.0),
        "harness.sweep.engine_s": self_seconds(rec, "harness.sweep.engine"),
        "harness.sweep.execute_s": self_seconds(rec, "harness.sweep.execute"),
        "harness.sweep.store_put_s": self_seconds(rec, "harness.sweep.store_put"),
        "harness.sweep.store_puts": rec.phases.get(
            "harness.sweep.store_put", {}).get("calls", 0),
        "harness.sweep.overhead_s": sweep_overhead_s,
        "harness.experiments.drivers_s": self_seconds(
            rec, "harness.experiments.drivers"),
        "trace.store.get_s": self_seconds(rec, "trace.store.get"),
        "trace.replay.entry_s": self_seconds(rec, "trace.replay.entry"),
        "trace.replay.program_s": self_seconds(rec, "replay.program"),
        "trace.replay.decode_s": self_seconds(rec, "replay.decode"),
        "trace.replay.l1i_s": self_seconds(rec, "replay.l1i"),
        "trace.replay.timing_s": self_seconds(rec, "replay.timing"),
        "trace.vector.oracle_s": self_seconds(rec, "vector.oracle"),
        "trace.vector.flags_s": self_seconds(rec, "vector.flags"),
        "trace.vector.prelower_s": self_seconds(rec, "vector.prelower"),
        "trace.vector.timing_s": self_seconds(rec, "vector.timing"),
        "trace.vector.cold_sweep_s": sweep_seconds("cold"),
        "trace.vector.warm_sweep_s": sweep_seconds("warm"),
        "trace.vector.oracle_misses": counter(rec, "vector.oracle.miss"),
        "trace.vector.prelower_misses": counter(rec, "vector.prelower.miss"),
        "trace.vector.pass_hit_ratio": hits / lookups if lookups else 0.0,
        "trace.vector.pass_lookups": lookups,
        "trace.vector.ckernel_epochs": epochs,
        "trace.vector.bounces_per_epoch": bounces / epochs if epochs else 0.0,
        "trace.artifacts.put_s": self_seconds(rec, "trace.artifacts.put"),
        "trace.artifacts.get_s": self_seconds(rec, "trace.artifacts.get"),
        "trace.artifacts.bytes_written": counter(
            rec, "bench.artifacts.bytes_written"),
        "trace.artifacts.disk_hits": sum(counter(rec, f"{p}.disk.hit")
                                         for p in PASSES),
        "bench.layer_coverage_frac": covered / wall_s if wall_s else 0.0,
    }
