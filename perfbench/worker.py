"""One child process of the benchmark: the build, a set-up, or one iteration.

``run.py`` starts each of them in a fresh interpreter, so no in-process memo
of one can speed up the next.  The job arrives as a JSON file and the result
leaves as another:

    python3 perfbench/worker.py JOB.json

Job keys: ``command`` (``build``, ``setup`` or ``iterate``), ``workload``,
``root`` (the private cache root the job owns), ``out`` (result path),
``trace`` (0 or 1) and, for iterations, ``seed``.
"""

import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

import layers
from repro.harness import experiments, reporting
from repro.harness.experiments import MACHINE_ABLATION_POINTS
from repro.harness.sweep import (
    ResultStore,
    RunSpec,
    SweepContext,
    run_sweep_report,
)
from repro.trace import (
    TraceStore,
    _ckernel,
    artifacts,
    ensure_trace,
    family_key_for,
    replay_trace,
)
from repro.trace import replay as replay_module
from repro.trace import vector as vector_module
from repro.workloads import BENCHMARK_ORDER

# The paper's evaluation, cell for cell as examples/paper_evaluation.py runs it.
PAPER_SCALE = "tiny"
EVAL_MODES = ("hybrid", "hybrid-oracle", "cache")
FIG7_PERCENTAGES = (0, 25, 50, 75, 100)
FIG7_ITERATIONS = 2000
FIG7_UNROLL = 20

# The machine-ablation sweep: one 2-core CG trace, re-timed at six points.
ABLATION_WORKLOAD, ABLATION_MODE, ABLATION_SCALE, ABLATION_CORES = (
    "CG", "hybrid", "medium", 2)
ABLATION_POINTS = dict(MACHINE_ABLATION_POINTS)

#: The record fields an op's digest covers: every simulated result.
DIGEST_FIELDS = ("cycles", "energy", "phase_cycles", "memory_stats",
                 "core_stats")

#: In-process memos a fresh process would not have.  The vector sweeps drop
#: the pass memos (those with an on-disk artifact tier) before every point;
#: the rebuilt programs and the L1I simulation stay, as in one sweep worker.
KEPT_MEMOS = ("_PROGRAM_CACHE", "_MC_PROGRAM_CACHE", "_L1I_CACHE")


def digest(record):
    payload = {name: record[name] for name in DIGEST_FIELDS}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def ablation_spec(point):
    return RunSpec.create(ABLATION_WORKLOAD, ABLATION_MODE, ABLATION_SCALE,
                          machine={"num_cores": ABLATION_CORES,
                                   **ABLATION_POINTS[point]},
                          kind="replay")


def ablation_key():
    spec = ablation_spec(next(iter(ABLATION_POINTS)))
    return family_key_for(spec, spec.resolve_machine())


def forget_pass_memos():
    for module in (replay_module, vector_module):
        for name, memo in vars(module).items():
            if (name.endswith("_CACHE") and name not in KEPT_MEMOS
                    and isinstance(memo, dict)):
                memo.clear()


def sim_counts(record):
    """The simulated counts the per-layer report sums over ops."""
    mem = record["memory_stats"]
    hierarchy = mem.get("hierarchy", {})
    uncore = mem.get("uncore", {})
    return {
        "sim.instructions": record["instructions"],
        "sim.cycles": record["cycles"],
        "mem.l1.misses": hierarchy.get("L1", {}).get("misses", 0),
        "mem.l2.misses": hierarchy.get("L2", {}).get("misses", 0),
        "mem.memory_reads": hierarchy.get("memory_reads", 0),
        "core.directory.lookups": mem.get("directory", {}).get("lookups", 0),
        "core.guarded_refs": (mem.get("guarded_loads", 0)
                              + mem.get("guarded_stores", 0)),
        "lm.dma.lines_transferred": mem.get("dma", {}).get(
            "lines_transferred", 0),
        "cpu.rob_dispatch_stalls": record["core_stats"].get(
            "rob_dispatch_stalls", 0),
        "mem.uncore.queue_delay_cycles": uncore.get("queue_delay_cycles", 0),
        "mem.uncore.contended_requests": uncore.get("contended_requests", 0),
    }


def op_entry(op_id, record, seconds, error=None):
    entry = {"id": op_id, "seconds": seconds, "error": error,
             "instructions": 0, "digest": None, "sim": {}}
    if record is not None:
        entry.update(instructions=record["instructions"],
                     digest=digest(record), sim=sim_counts(record))
    return entry


# ------------------------------------------------------------------ workloads
# Each returns (ops, checks, sweep_overhead_s, untimed_s): ``ops`` are the
# cells or replays; ``checks`` are outputs verified like ops but not timed as
# ops (the report text the figure and table drivers print); ``untimed_s`` is
# benchmark bookkeeping to leave out of the iteration's wall.
def paper_eval(root, rng, recorder):
    ctx = SweepContext(scale=PAPER_SCALE, store=ResultStore(root), workers=1)
    specs = [ctx.micro_spec("baseline", 0.0, FIG7_ITERATIONS, FIG7_UNROLL)]
    specs += [ctx.micro_spec(mode, pct / 100.0, FIG7_ITERATIONS, FIG7_UNROLL)
              for mode in ("RD", "WR", "RD/WR") for pct in FIG7_PERCENTAGES]
    specs += [RunSpec.create(workload, mode, PAPER_SCALE)
              for workload in BENCHMARK_ORDER for mode in EVAL_MODES]
    rng.shuffle(specs)

    start = time.perf_counter()
    records = ctx.run_specs(specs)
    sweep_wall = time.perf_counter() - start
    with recorder.phase("harness.experiments.drivers"):
        report = "\n\n".join([
            reporting.format_table1(experiments.table1()),
            reporting.format_table2(experiments.table2()),
            reporting.format_figure7(experiments.figure7(
                percentages=FIG7_PERCENTAGES, iterations=FIG7_ITERATIONS,
                unroll=FIG7_UNROLL, ctx=ctx)),
            reporting.format_figure8(experiments.figure8(ctx)),
            reporting.format_table3(experiments.table3(ctx)),
            reporting.format_figure9(experiments.figure9(ctx)),
            reporting.format_figure10(experiments.figure10(ctx)),
        ])

    ops = [op_entry(spec.label, record.as_dict(), record.sim_wall_seconds)
           for spec, record in zip(specs, records)]
    drivers = {"id": "drivers", "seconds": 0.0, "error": None,
               "instructions": 0, "sim": {},
               "digest": hashlib.sha256(report.encode()).hexdigest()[:16]}
    overhead = sweep_wall - sum(r.sim_wall_seconds for r in records)
    return ops, [drivers], overhead, 0.0


def ablation_fused(root, rng, recorder):
    points = list(ABLATION_POINTS)
    rng.shuffle(points)
    specs = [ablation_spec(point) for point in points]
    start = time.perf_counter()
    report = run_sweep_report(specs, workers=1, store=ResultStore(root),
                              keep_going=True)
    sweep_wall = time.perf_counter() - start
    ops = [op_entry(point, None, 0.0, "sweep cell failed") if record is None
           else op_entry(point, record.as_dict(), record.sim_wall_seconds)
           for point, record in zip(points, report.records)]
    overhead = sweep_wall - sum(r.sim_wall_seconds for r in report.records
                                if r is not None)
    return ops, [], overhead, 0.0


def ablation_vector(root, rng, recorder):
    points = list(ABLATION_POINTS)
    rng.shuffle(points)
    trace = TraceStore(root).get(ablation_key())
    if trace is None:
        raise RuntimeError("the set-up trace is missing from the trace store")
    ops = []
    untimed = 0.0
    with artifacts.scoped(cache_root=root):
        for sweep in ("cold", "warm"):
            for point in points:
                # A fresh process would not pay for freeing the previous
                # point's memos, so the wall leaves it out.
                start = time.perf_counter()
                forget_pass_memos()
                untimed += time.perf_counter() - start
                spec = ablation_spec(point)
                epochs = layers.counter(recorder, "vector.ckernel.epochs")
                fallbacks = layers.counter(recorder, "degraded.vector")
                start = time.perf_counter()
                result = replay_trace(trace, spec.resolve_machine(),
                                      engine="vector")
                seconds = time.perf_counter() - start
                error = None
                if layers.counter(recorder, "degraded.vector") > fallbacks:
                    error = "vector replay fell back to the fused engine"
                elif layers.counter(recorder,
                                    "vector.ckernel.epochs") == epochs:
                    error = "vector replay ran no C-kernel epoch"
                ops.append(op_entry(f"{sweep}/{point}",
                                    result.to_record(spec).as_dict(),
                                    seconds, error))
    return ops, [], 0.0, untimed


WORKLOADS = {
    "paper-eval": paper_eval,
    "ablation-fused": ablation_fused,
    "ablation-vector": ablation_vector,
}


# ---------------------------------------------------------------------- jobs
def build(job, recorder):
    """Compile the replay C kernel into the pinned cache (once per checkout)."""
    if _ckernel.load() is None:
        raise RuntimeError("the vector replay C kernel cannot be built")
    return {}


def setup(job, recorder):
    """What a user pays before the first op, past the imports: the trace
    capture, its encode into the store, and the one-time C-kernel load."""
    root = Path(job["root"])
    out = {"trace_bytes": 0}
    if job["workload"] == "paper-eval":
        ResultStore(root)
    else:
        store = TraceStore(root)
        ensure_trace(ablation_key(), store=store)
        out["trace_bytes"] = store.path_for(ablation_key()).stat().st_size
        if job["workload"] == "ablation-vector" and _ckernel.load() is None:
            raise RuntimeError("the vector replay C kernel is unavailable")
    if job["trace"]:
        out["layers"] = layers.setup_metrics(recorder)
    return out


def iterate(job, recorder):
    root = Path(job["root"])
    workload = job["workload"]
    if workload == "ablation-vector" and _ckernel.load() is None:
        raise RuntimeError("the vector replay C kernel is unavailable")
    rng = random.Random(job["seed"])

    start = time.perf_counter()
    with recorder.phase("bench.run"):
        ops, checks, overhead, untimed = WORKLOADS[workload](root, rng,
                                                            recorder)
    wall = time.perf_counter() - start - untimed

    degraded = {key: value for key, value in recorder.counters.items()
                if key.startswith("degraded.")}
    for op in ops + checks:
        if degraded and not op["error"]:
            op["error"] = f"degraded run: {degraded}"
    sim = {}
    for op in ops:
        for key, value in op["sim"].items():
            sim[key] = sim.get(key, 0) + value
    out = {"wall_s": wall, "ops": ops, "checks": checks,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "sim": sim}
    if job["trace"]:
        out["layers"] = layers.iteration_metrics(recorder, wall, ops,
                                                 overhead)
    return out


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    recorder = layers.start(bool(job["trace"]))
    command = {"build": build, "setup": setup, "iterate": iterate}
    out = command[job["command"]](job, recorder)
    Path(job["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
