"""Smoke/shape tests of the experiment drivers (tiny scale, subset of benchmarks)."""

import pytest

from repro.harness import experiments, reporting
from repro.harness import runner as runner_mod
from repro.harness.sweep import SweepContext


@pytest.fixture(scope="module")
def ctx():
    return SweepContext(scale="tiny")


BENCHES = ["CG", "IS"]


def test_table1_has_all_rows():
    rows = experiments.table1()
    names = [name for name, _ in rows]
    assert "L1 D-cache" in names and "Local memory" in names and "Prefetcher" in names
    text = reporting.format_table1(rows)
    assert "Table 1" in text


def test_table2_mode_properties():
    entries = experiments.table2(iterations=50, unroll=1)
    by_mode = {e.mode: e for e in entries}
    assert by_mode["baseline"].guarded_loads == 0
    assert by_mode["RD"].guarded_loads == 1 and by_mode["RD"].guarded_stores == 0
    assert by_mode["WR"].guarded_stores == 1 and by_mode["WR"].double_stores == 1
    assert by_mode["RD/WR"].guarded_loads == 1 and by_mode["RD/WR"].guarded_stores == 1
    assert "Table 2" in reporting.format_table2(entries)


def test_figure7_overheads_monotonic_shape():
    results = experiments.figure7(SweepContext(), percentages=(0, 50, 100),
                                  iterations=600, unroll=20)
    assert set(results) == {"RD", "WR", "RD/WR"}
    rd = [p.overhead for p in results["RD"]]
    wr = [p.overhead for p in results["WR"]]
    # Guarded loads are essentially free; the double store costs more as the
    # guarded fraction grows (Figure 7's shape).
    assert max(rd) < 1.10
    assert wr[-1] >= wr[0]
    assert wr[-1] > 1.02
    text = reporting.format_figure7(results)
    assert "% guarded" in text


def test_figure8_overheads_small(ctx):
    rows = experiments.figure8(ctx, benchmarks=BENCHES)
    assert [r.benchmark for r in rows] == BENCHES + ["AVG"]
    for row in rows:
        assert row.time_overhead >= -0.02
        assert row.time_overhead < 0.25
    assert "Figure 8" in reporting.format_figure8(rows)


def test_table3_rows_structure(ctx):
    rows = experiments.table3(ctx, benchmarks=BENCHES)
    assert len(rows) == 2 * len(BENCHES)
    hybrid_rows = [r for r in rows if r.mode == "Hybrid coherent"]
    cache_rows = [r for r in rows if r.mode == "Cache-based"]
    assert all(r.lm_accesses > 0 for r in hybrid_rows)
    assert all(r.lm_accesses == 0 and r.directory_accesses == 0 for r in cache_rows)
    assert "Table 3" in reporting.format_table3(rows)


def test_figure9_phase_fractions_consistent(ctx):
    rows = experiments.figure9(ctx, benchmarks=BENCHES)
    for row in rows[:-1]:
        total = row.work_fraction + row.sync_fraction + row.control_fraction
        assert total == pytest.approx(row.hybrid_cycles / row.cache_cycles, rel=1e-6)
        assert row.speedup == pytest.approx(row.cache_cycles / row.hybrid_cycles)
    assert rows[-1].benchmark == "AVG"
    assert "Figure 9" in reporting.format_figure9(rows)


def test_figure10_energy_groups(ctx):
    rows = experiments.figure10(ctx, benchmarks=BENCHES)
    for row in rows[:-1]:
        assert set(row.hybrid_groups) == {"CPU", "Caches", "LM", "Others"}
        assert sum(row.cache_groups.values()) == pytest.approx(1.0, rel=1e-6)
        assert row.energy_reduction == pytest.approx(
            1 - row.hybrid_energy / row.cache_energy)
    assert "Figure 10" in reporting.format_figure10(rows)


def test_figure_drivers_share_one_context(monkeypatch):
    """Figures 8-10 and Table 3 over one context simulate each of their
    three cells (hybrid, hybrid-oracle and cache CG) once."""
    calls = []
    real = runner_mod.run_workload

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "run_workload", counting)
    ctx = SweepContext(scale="tiny")
    for driver in (experiments.figure8, experiments.table3,
                   experiments.figure9, experiments.figure10):
        driver(ctx, benchmarks=["CG"])
    assert len(calls) == 3


def test_ablation_directory_size_runs():
    points = experiments.ablation_directory_size(workload="CG", scale="tiny",
                                                 sizes=(8, 32))
    assert len(points) == 2
    assert all(p.cycles > 0 for p in points)
    assert "cycles" in reporting.format_ablation("Directory size", points)


def test_ablation_prefetcher_effect():
    points = experiments.ablation_prefetcher(workload="MG", scale="tiny")
    labels = {p.label for p in points}
    assert labels == {"prefetcher on", "prefetcher off"}
    on = next(p for p in points if p.label == "prefetcher on")
    off = next(p for p in points if p.label == "prefetcher off")
    # Disabling the prefetcher must not speed the cache-based system up.
    assert off.cycles >= on.cycles * 0.98


def test_ablation_double_store():
    results = experiments.ablation_double_store(iterations=600)
    assert results["WR"] >= results["RD"] * 0.98
    assert results["RD"] >= results["baseline"] * 0.95
