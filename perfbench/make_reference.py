#!/usr/bin/env python3
"""Regenerate ``reference.json``, the digest of every op's simulated result.

    python3 perfbench/make_reference.py

Runs one iteration of every workload under two seeds, so in two cell and
point orders, and writes the digests only when both orders agree op for op
and the fused and vector engines agree at every ablation point, cold and
warm.  Regenerate only for a change that is meant to alter simulated
results; a change to speed or structure must leave the file as it is.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

SEEDS = (1, 2)


def collect(tmp, env):
    digests = {}
    for workload in run.WORKLOADS:
        source = tmp / f"setup-{workload}"
        run.run_child({"command": "setup", "workload": workload,
                       "root": str(source), "trace": 0}, tmp, env)
        table = digests[workload] = {}
        for seed in SEEDS:
            root = tmp / f"iter-{workload}-{seed}"
            run.prepare_root(source, root)
            _, out = run.run_child({"command": "iterate", "workload": workload,
                                    "root": str(root), "trace": 0,
                                    "seed": seed}, tmp, env)
            for op in out["ops"] + out["checks"]:
                if op["error"]:
                    raise run.BenchError(f"{workload} {op['id']}: "
                                         f"{op['error']}")
                if table.setdefault(op["id"], op["digest"]) != op["digest"]:
                    raise run.BenchError(f"{workload} {op['id']}: the result "
                                         "depends on the op order")
    return digests


def main():
    (run.WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-",
                                dir=run.WORK_DIR / "tmp"))
    try:
        env = run.child_env(tmp)
        run.run_child({"command": "build", "workload": run.WORKLOADS[0],
                       "root": str(tmp / "build"), "trace": 0}, tmp, env)
        digests = collect(tmp, env)
    except run.BenchError as exc:
        run.say(f"reference not written: {exc}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    fused = digests["ablation-fused"]
    differ = sorted(op_id for op_id, value in digests["ablation-vector"].items()
                    if fused[op_id.split("/", 1)[1]] != value)
    if differ:
        run.say("reference not written: the vector engine differs from the "
                f"fused engine at {', '.join(differ)}")
        return 1
    reference = {"paper-eval": digests["paper-eval"], "ablation": fused}
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                             + "\n")
    run.say(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
