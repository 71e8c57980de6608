"""Shared helpers for the benchmark scripts.

Every ``bench_*.py`` follows the same report protocol: a JSON report at the
repository root that partial runs (``--vector-speedup``, ``--pass-speedup``,
``--replay-speedup``) *merge into* rather than overwrite, and an exit code
that doubles as the CI perf/identity guard.  The load / merge-write / guard
pieces live here so the scripts stay about measurement.
"""

import json
from pathlib import Path

#: Repository root (this file lives in ``<root>/benchmarks/``).
REPO_ROOT = Path(__file__).resolve().parent.parent


def default_report_path(name: str) -> Path:
    """``<repo root>/<name>`` — where CI expects the BENCH reports."""
    return REPO_ROOT / name


def load_report(path) -> dict:
    """The existing report at ``path``, or ``{}`` (missing / unparsable).

    Partial benchmark modes merge their section into this dict, so sections
    from other scales or earlier runs are never dropped.
    """
    try:
        report = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return {}
    return report if isinstance(report, dict) else {}


def write_report(path, report: dict) -> None:
    """Write ``report`` as indented JSON (trailing newline) and say where."""
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {path}")


def guard_exit(ok: bool) -> int:
    """Exit code for a measurement that doubles as a CI guard."""
    return 0 if ok else 1


def profile_engines(trace, machine, engines=("vector",)) -> dict:
    """Per-engine phase/counter profile of one replay (observability layer).

    Runs one *extra* recorded replay per engine — never the timed ones, so
    recording overhead cannot leak into the benchmark numbers — and returns
    the phase breakdown (calls, total/self seconds) plus the counters
    (cache hits/misses, C-kernel epochs, bounce reasons) per engine.
    """
    from repro import obs
    from repro.trace import replay_trace

    profile = {}
    for engine in engines:
        with obs.recording() as rec:
            replay_trace(trace, machine, engine=engine)
        snap = rec.snapshot()
        profile[engine] = {
            "phases": {
                name: {"calls": entry["calls"],
                       "total_seconds": round(entry["total"], 4),
                       "self_seconds": round(entry["self"], 4)}
                for name, entry in snap["phases"].items()},
            "counters": snap["counters"],
        }
    return profile
