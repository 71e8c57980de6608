"""Tests for the experiment harness, metrics and the energy model."""

import pytest

from repro.cpu.core import SimulationResult
from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.energy.parameters import EnergyParameters
from repro.harness.config import (
    MachineConfig,
    PTLSIM_CONFIG,
    parse_overrides,
    table1_rows,
)
from repro.harness.metrics import (
    energy_reduction,
    overhead,
    speedup,
    table3_row,
)
import repro.harness.runner as runner_mod
from repro.harness.runner import run_workload
from repro.harness.sweep import SweepContext
from repro.harness.systems import SYSTEM_MODES, build_system


# ----------------------------------------------------------------------------- config
def test_table1_rows_reflect_configuration():
    rows = dict(table1_rows(PTLSIM_CONFIG))
    assert "32 KB" in rows["L1 D-cache"]
    assert "write-through" in rows["L1 D-cache"]
    assert "24-way" in rows["L2 cache"]
    assert "4 MB" in rows["L3 cache"]
    assert "Local memory" in rows
    assert "3 INT ALUs" in rows["Functional units"]


def test_parse_overrides_types_and_dotted_keys():
    overrides = parse_overrides([
        "memory.prefetch_enabled=false", "core.rob_size=64", "lm_latency=TRUE",
        "energy.l1_per_access=0.5", "label=fast", " directory_entries = 16"])
    assert overrides == {
        "memory.prefetch_enabled": False, "core.rob_size": 64,
        "lm_latency": True, "energy.l1_per_access": 0.5, "label": "fast",
        "directory_entries": 16}
    assert type(overrides["core.rob_size"]) is int
    assert type(overrides["lm_latency"]) is bool
    with pytest.raises(SystemExit, match="key=value"):
        parse_overrides(["num_cores"])


def test_cache_based_machine_doubles_l1():
    machine = MachineConfig()
    cache_machine = machine.cache_based()
    assert cache_machine.memory.l1_size == machine.memory.l1_size + machine.lm_size
    assert cache_machine.lm_size == 0


# ---------------------------------------------------------------------------- systems
def test_build_system_modes():
    for mode in SYSTEM_MODES:
        system = build_system(mode)
        if mode == "cache":
            assert not system.use_lm
            assert system.hierarchy.config.l1_size == 64 * 1024
        else:
            assert system.use_lm
            assert system.oracle == (mode == "hybrid-oracle")
    with pytest.raises(ValueError):
        build_system("bogus")


# ----------------------------------------------------------------------------- runner
@pytest.fixture(scope="module")
def tiny_ctx():
    return SweepContext(scale="tiny")


def test_run_workload_produces_consistent_result():
    result = run_workload("CG", "hybrid", scale="tiny")
    assert result.cycles > 0
    assert result.instructions > 0
    assert result.total_energy > 0
    assert result.compiled is not None
    assert result.sim.ipc > 0


def test_experiment_context_memoizes_runs(monkeypatch):
    calls = []
    real = runner_mod.run_workload

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "run_workload", counting)
    ctx = SweepContext(scale="tiny")
    first = ctx.run("CG", "hybrid")
    second = ctx.run("CG", "hybrid")
    assert first is second
    assert len(calls) == 1


def test_metrics_relations(tiny_ctx):
    hybrid = tiny_ctx.run("CG", "hybrid")
    cache = tiny_ctx.run("CG", "cache")
    s = speedup(cache, hybrid)
    assert s == pytest.approx(cache.cycles / hybrid.cycles)
    assert overhead(cache, hybrid) == pytest.approx(hybrid.cycles / cache.cycles - 1)
    assert energy_reduction(cache, hybrid) == pytest.approx(
        1 - hybrid.total_energy / cache.total_energy)


def test_table3_row_extraction(tiny_ctx):
    row = table3_row(tiny_ctx.run("CG", "hybrid"))
    assert row.name == "CG"
    assert row.mode == "Hybrid coherent"
    assert row.guarded_refs.startswith("1/")
    assert row.lm_accesses > 0
    assert row.directory_accesses > 0
    cache_row = table3_row(tiny_ctx.run("CG", "cache"))
    assert cache_row.lm_accesses == 0
    assert cache_row.guarded_refs == "0"


# ----------------------------------------------------------------------------- energy
def _fake_result():
    memory_stats = {
        "hierarchy": {
            "L1": {"accesses": 1000, "demand_accesses": 900, "hits": 800, "misses": 100},
            "L1I": {"accesses": 500},
            "L2": {"accesses": 200},
            "L3": {"accesses": 50},
            "memory_reads": 10,
            "memory_writes": 5,
            "bus_transactions": 20,
            "prefetches_issued": 30,
        },
        "lm_accesses": 400,
        "dma": {"gets": 2, "puts": 1, "words_transferred": 256, "lines_transferred": 32},
        "directory": {"lookups": 100, "updates": 3},
    }
    return SimulationResult(
        cycles=10_000.0, instructions=5_000,
        phase_cycles={"work": 9_000.0, "control": 500.0, "sync": 500.0},
        mispredictions=10, branch_predictions=300, memory_stats=memory_stats,
        core_stats={"fu_op_counts": {"int_alu": 3000, "fp_alu": 1000,
                                     "load_store": 900}})


def test_energy_model_component_accounting():
    breakdown = EnergyModel().compute(_fake_result())
    assert breakdown.cpu > 0 and breakdown.caches > 0
    assert breakdown.lm > 0 and breakdown.directory > 0
    assert breakdown.total == pytest.approx(
        breakdown.cpu + breakdown.caches + breakdown.lm + breakdown.others)
    groups = breakdown.groups()
    assert set(groups) == {"CPU", "Caches", "LM", "Others"}
    assert breakdown.total_with_dram > breakdown.total


def test_energy_scales_with_parameters():
    base = EnergyModel().compute(_fake_result())
    expensive_caches = EnergyModel(EnergyParameters(l1_per_access=10.0))
    assert expensive_caches.compute(_fake_result()).caches > base.caches


def test_directory_energy_much_smaller_than_caches():
    breakdown = EnergyModel().compute(_fake_result())
    assert breakdown.directory < 0.05 * breakdown.caches


def test_breakdown_as_dict_keys():
    d = EnergyModel().compute(_fake_result()).as_dict()
    for key in ("cpu", "caches", "lm", "others", "total"):
        assert key in d
