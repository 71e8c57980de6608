#!/usr/bin/env python3
"""The repository's benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload paper-eval --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``paper-eval`` — a cold regeneration of the paper's evaluation at
  ``scale=tiny``: the 34 cells of ``examples/paper_evaluation.py`` through
  ``SweepContext`` into an empty result store, then the Figure 7-10 and
  Table 1-3 drivers;
* ``ablation-fused`` — the six machine-ablation points replayed as sweep
  cells from one 2-core CG ``medium`` trace, on the default fused engine;
* ``ablation-vector`` — the same trace and points on the vector engine,
  once against an empty artifact store (cold) and once reading it (warm).

The loop is closed: one process (``workers=1``) runs one op after the other.
Each iteration of the workload runs in a fresh child process (see
``worker.py``) on private stores under ``.perfbench-work/`` and iterations
start until ``--seconds`` have passed; ``--seed`` permutes the order of
cells and points.  Every op's simulated result is digested and checked
against ``reference.json``, so a wrong, missing, degraded or fallen-back op
counts as failed.  The end-to-end metrics (``--trace 0``) are taken with
tracing off; ``--trace 1`` alternates traced and untraced iterations and
reports the per-layer metrics instead.  The last line of standard output is
the result as JSON; the line before it records the host.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
#: Pinned C-kernel cache and per-run temp roots, inside the checkout.
WORK_DIR = ROOT / ".perfbench-work"

WORKLOADS = ("paper-eval", "ablation-fused", "ablation-vector")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Environment switches that would make the benchmark measure a different
#: program (injected faults, the pure-Python vector loop, no artifact tier).
FOREIGN_ENV = ("REPRO_FAULTS", "REPRO_NO_CKERNEL", "REPRO_NO_ARTIFACTS")
#: Seconds one child may take, and the run's own budget: no iteration starts
#: that could end after it.
CHILD_TIMEOUT = 150.0
RUN_BUDGET = 165.0


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to an op failing)."""


def say(message):
    print(message, file=sys.stderr, flush=True)


def child_env(tmp):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        TMPDIR=str(tmp),
        REPRO_CACHE_DIR=str(tmp / "default-cache"),
        REPRO_CKERNEL_CACHE=str(WORK_DIR / "ckernel"),
    )
    return env


def run_child(job, tmp, env):
    """Run one worker job; returns (wall seconds, result dict)."""
    name = f"{job['command']}-{time.monotonic_ns()}"
    job = dict(job, out=str(tmp / f"{name}.out.json"))
    job_path = tmp / f"{name}.job.json"
    job_path.write_text(json.dumps(job))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), str(job_path)],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['command']} child exceeded {CHILD_TIMEOUT}s")
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{job['command']} child exited {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    return wall, json.loads(Path(job["out"]).read_text())


def expected_digests(workload, reference):
    """Reference digest per op id; both ablation workloads share one table."""
    if workload == "paper-eval":
        return dict(reference["paper-eval"])
    points = reference["ablation"]
    if workload == "ablation-fused":
        return dict(points)
    return {f"{sweep}/{point}": value for sweep in ("cold", "warm")
            for point, value in points.items()}


def check_ops(outs, expected):
    """(attempted, failed, problems) over every iteration's ops and checks."""
    attempted = failed = 0
    problems = []
    for out in outs:
        seen = set()
        for op in out["ops"] + out["checks"]:
            attempted += 1
            seen.add(op["id"])
            want = expected.get(op["id"])
            problem = (op["error"] or ("not a reference op" if want is None
                                       else None)
                       or ("digest differs from the reference"
                           if op["digest"] != want else None))
            if problem:
                failed += 1
                problems.append(f"{op['id']}: {problem}")
        missing = sorted(set(expected) - seen)
        attempted += len(missing)
        failed += len(missing)
        problems.extend(f"{op_id}: missing" for op_id in missing)
    return attempted, failed, problems


def end_to_end(outs, setup_walls):
    """The metrics of one iteration with every op at its best time.

    Host speed on a shared machine drops by up to half for fractions of a
    second at a time, and only ever slows an op down, so each op counts
    with its fastest run over the run's iterations.
    """
    op_seconds, instructions = {}, {}
    for out in outs:
        for op in out["ops"]:
            op_seconds.setdefault(op["id"], []).append(op["seconds"])
            instructions[op["id"]] = op["instructions"]
    op_best = {op_id: min(values) for op_id, values in op_seconds.items()}
    outside_ops = statistics.median(
        out["wall_s"] - sum(op["seconds"] for op in out["ops"])
        for out in outs)
    return {
        "wall_s": outside_ops + sum(op_best.values()),
        "sim_kips": (sum(instructions.values())
                     / sum(op_best.values()) / 1000.0),
        "op_p50_s": statistics.median(op_best.values()),
        "peak_rss_mb": statistics.median(out["peak_rss_kb"] / 1024.0
                                         for out in outs),
        "setup_s": statistics.median(setup_walls),
    }


def per_layer(traced, untraced, setups):
    metrics = {}
    for name in traced[0]["layers"]:
        metrics[name] = statistics.median(out["layers"][name]
                                          for out in traced)
    for name in traced[0]["sim"]:
        metrics[name] = statistics.median(out["sim"][name] for out in traced)
    for name in ("trace.capture_s", "trace.encode_s"):
        metrics[name] = statistics.median(s["layers"][name] for s in setups)
    metrics["trace.bytes"] = statistics.median(s["trace_bytes"]
                                               for s in setups)
    metrics["bench.tracing_overhead_frac"] = (
        statistics.median(out["wall_s"] for out in traced)
        / statistics.median(out["wall_s"] for out in untraced) - 1.0)
    return metrics


def prepare_root(source, root):
    """A fresh cache root holding the set-up trace and nothing derived."""
    traces = source / "traces"
    if traces.is_dir():
        shutil.copytree(traces, root / "traces",
                        ignore=shutil.ignore_patterns("artifacts", "*.tmp.*"))
    else:
        root.mkdir(parents=True)


def measure(args, tmp, reference):
    started = time.monotonic()
    env = child_env(tmp)
    run_child({"command": "build", "workload": args.workload,
               "root": str(tmp / "build"), "trace": 0}, tmp, env)

    setup_walls, setups = [], []
    for index in range(SETUPS):
        root = tmp / f"setup-{index}"
        wall, out = run_child({"command": "setup", "workload": args.workload,
                               "root": str(root), "trace": args.trace},
                              tmp, env)
        setup_walls.append(wall)
        setups.append(out)
        say(f"setup {index + 1}/{SETUPS}: {wall:.3f}s")
        if index + 1 < SETUPS:
            shutil.rmtree(root, ignore_errors=True)
    source = tmp / f"setup-{SETUPS - 1}"

    traced, untraced = [], []
    loop_start = time.monotonic()
    index = 0
    while True:
        is_traced = bool(args.trace) and index % 2 == 0
        root = tmp / f"iter-{index}"
        prepare_root(source, root)
        wall, out = run_child({"command": "iterate", "workload": args.workload,
                               "root": str(root), "trace": int(is_traced),
                               "seed": args.seed}, tmp, env)
        shutil.rmtree(root)
        (traced if is_traced else untraced).append(out)
        index += 1
        say(f"iteration {index}{' (traced)' if is_traced else ''}: "
            f"wall {out['wall_s']:.3f}s, {len(out['ops'])} ops")
        enough = index >= (2 if args.trace else 1)
        if enough and time.monotonic() - loop_start >= args.seconds:
            break
        if enough and time.monotonic() - started + wall > RUN_BUDGET:
            say("stopping early: the run budget would be exceeded")
            break

    attempted, failed, problems = check_ops(
        traced + untraced, expected_digests(args.workload, reference))
    for problem in problems[:20]:
        say(f"FAILED {problem}")
    if args.trace:
        values = per_layer(traced, untraced, setups)
    else:
        values = end_to_end(untraced, setup_walls)
    return attempted, failed, values


def host_record():
    def first_line(command, **kwargs):
        try:
            proc = subprocess.run(command, capture_output=True, text=True,
                                  timeout=10, **kwargs)
        except (OSError, subprocess.TimeoutExpired):
            return None
        lines = proc.stdout.splitlines()
        return lines[0].strip() if proc.returncode == 0 and lines else None

    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    toplevel = first_line(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                          env=dict(os.environ,
                                   GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    git_sha = (first_line(["git", "rev-parse", "HEAD"], cwd=ROOT)
               if toplevel and Path(toplevel).resolve() == ROOT else None)
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cc": first_line(["cc", "--version"]),
            "git_sha": git_sha,
            "src_sha256": source.hexdigest()[:16]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="permutes cell and point order (default 1)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="iterations start until this much time passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    foreign = [name for name in FOREIGN_ENV if os.environ.get(name)]
    if foreign:
        say(f"refusing to run with {', '.join(foreign)} set: the benchmark "
            "would measure a different program")
        return 2
    if not (ROOT / "src" / "repro").is_dir() or not REFERENCE.is_file():
        say(f"no simulator sources under {ROOT / 'src'} (or no reference "
            "digests); run from the root of a full checkout")
        return 2
    spec = json.loads(SPEC.read_text())
    reference = json.loads(REFERENCE.read_text())

    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR / "tmp"))
    try:
        attempted, failed, values = measure(args, tmp, reference)
    except BenchError as exc:
        say(f"benchmark error: {exc}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        if entry["name"] not in values:
            say(f"benchmark error: metric {entry['name']} was not measured")
            return 1
        metrics[entry["name"]] = {"value": values[entry["name"]],
                                  "unit": entry["unit"]}
    print(json.dumps({"host": host_record(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
