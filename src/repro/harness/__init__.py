"""Experiment harness: machine configurations, runners, the parallel sweep
engine with its content-hashed result store, and the drivers that regenerate
every table and figure of the paper's evaluation (Section 4).

The sweep engine (:mod:`repro.harness.sweep`) is the main entry point for
evaluations: declare a :class:`SweepSpec`, resolve it into content-hashed
:class:`RunSpec` cells, and let :func:`run_sweep` / :class:`SweepContext`
fan the cells out over worker processes while filling the on-disk
:class:`ResultStore`.  :class:`SweepContext` is the one experiment context
the figure/table drivers (:mod:`repro.harness.experiments`) read cells
through; :func:`run_workload` and :func:`run_program` return a single run's
live simulation objects.  ``python -m repro.harness.sweep --help`` exposes
the same engine on the command line."""

from repro.harness.config import MachineConfig, PTLSIM_CONFIG, table1_rows
from repro.harness.systems import (
    SYSTEM_MODES,
    build_multicore_system,
    build_system,
    build_uncore,
    core_config_for,
)
from repro.harness.runner import (
    RunResult,
    run_compiled,
    run_program,
    run_workload,
)
from repro.harness.sweep import (
    ResultStore,
    RunRecord,
    RunSpec,
    SweepContext,
    SweepSpec,
    execute_spec,
    run_sweep,
)
from repro.harness.metrics import Table3Row, table3_row
from repro.harness import experiments
from repro.harness import reporting

__all__ = [
    "MachineConfig",
    "PTLSIM_CONFIG",
    "table1_rows",
    "SYSTEM_MODES",
    "build_multicore_system",
    "build_system",
    "build_uncore",
    "core_config_for",
    "RunResult",
    "run_compiled",
    "run_program",
    "run_workload",
    "ResultStore",
    "RunRecord",
    "RunSpec",
    "SweepContext",
    "SweepSpec",
    "execute_spec",
    "run_sweep",
    "Table3Row",
    "table3_row",
    "experiments",
    "reporting",
]
