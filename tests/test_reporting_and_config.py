"""Tests for the reporting formatters and configuration helpers."""

import dataclasses

import pytest

from repro.cpu.config import CoreConfig
from repro.energy.model import EnergyBreakdown
from repro.harness.config import MachineConfig
from repro.harness.experiments import (
    Figure7Point,
    Figure8Row,
    Figure9Row,
    Figure10Row,
    Table2Entry,
)
from repro.harness.metrics import Table3Row
from repro.harness import reporting
from repro.mem.hierarchy import MemoryHierarchyConfig


# ------------------------------------------------------------------------ formatters
def test_format_figure7_columns_align_with_modes():
    data = {
        "RD": [Figure7Point("RD", 0, 100.0, 1.0), Figure7Point("RD", 100, 100.0, 1.0)],
        "WR": [Figure7Point("WR", 0, 100.0, 1.0), Figure7Point("WR", 100, 128.0, 1.28)],
    }
    text = reporting.format_figure7(data)
    assert "RD" in text and "WR" in text
    assert "1.280" in text


def test_format_figure8_includes_paper_columns():
    rows = [Figure8Row("CG", 0.0, 0.01, 0.0, 0.02),
            Figure8Row("AVG", 0.0026, 0.0203, 0.0026, 0.0203)]
    text = reporting.format_figure8(rows)
    assert "CG" in text and "AVG" in text and "paper" in text


def test_format_table3_scales_to_thousands():
    row = Table3Row(name="CG", mode="Hybrid coherent", guarded_refs="1/7 (14%)",
                    amat=3.15, l1_hit_ratio=90.52, l1_accesses=19319000,
                    l2_accesses=26376000, l3_accesses=10597000,
                    lm_accesses=30235000, directory_accesses=10566000)
    text = reporting.format_table3([row])
    assert "19319.0" in text
    assert "1/7 (14%)" in text
    assert row.as_tuple()[0] == "CG"


def test_format_figure9_and_10_render_average_rows():
    fig9 = [Figure9Row("CG", 100.0, 75.0, 0.6, 0.1, 0.05, 0.25, 1.33, 0.26),
            Figure9Row("AVG", 0.0, 0.0, 0.0, 0.0, 0.0, 0.28, 1.38, 0.28)]
    text9 = reporting.format_figure9(fig9)
    assert "AVG" in text9 and "1.33" in text9
    fig10 = [Figure10Row("CG", 100.0, 70.0,
                         {"CPU": 0.5, "Caches": 0.4, "LM": 0.0, "Others": 0.1},
                         {"CPU": 0.4, "Caches": 0.2, "LM": 0.05, "Others": 0.05},
                         0.3, 0.41),
             Figure10Row("AVG", 0.0, 0.0, {}, {}, 0.27, 0.27)]
    text10 = reporting.format_figure10(fig10)
    assert "AVG" in text10 and "30.0%" in text10


def test_format_table2_lists_every_mode():
    entries = [Table2Entry("baseline", 10, 0, 0, 0), Table2Entry("RD/WR", 12, 1, 1, 1)]
    text = reporting.format_table2(entries)
    assert "baseline" in text and "RD/WR" in text


# --------------------------------------------------------------------------- configs
def test_memory_config_copy_with_overrides_only_requested_fields():
    base = MemoryHierarchyConfig()
    derived = base.copy_with(l1_size=64 * 1024, prefetch_enabled=False)
    assert derived.l1_size == 64 * 1024
    assert derived.prefetch_enabled is False
    assert derived.l2_size == base.l2_size
    assert base.l1_size == 32 * 1024  # original untouched


def test_core_config_copy_with():
    base = CoreConfig()
    derived = base.copy_with(issue_width=2)
    assert derived.issue_width == 2
    assert derived.rob_size == base.rob_size


def _leaves(obj, prefix=""):
    """Every scalar field of a nested config dataclass, by dotted path."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value


def _off_default(obj):
    """``obj`` with every numeric and boolean field moved off its value."""
    changes = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            changes[f.name] = _off_default(value)
        elif isinstance(value, bool):
            changes[f.name] = not value
        elif isinstance(value, (int, float)):
            changes[f.name] = value * 2 + 1
    return dataclasses.replace(obj, **changes)


def test_cache_based_keeps_every_other_field():
    """The cache-based baseline empties the LM and grows the L1 by its
    size; every other field, nested ones included, keeps its value."""
    machine = _off_default(MachineConfig())
    based = machine.cache_based()
    kept, got = dict(_leaves(machine)), dict(_leaves(based))
    assert got.pop("lm_size") == 0
    assert got.pop("memory.l1_size") == machine.memory.l1_size + machine.lm_size
    del kept["lm_size"], kept["memory.l1_size"]
    assert got == kept
    assert len(kept) > 40


def test_energy_breakdown_group_totals_consistent():
    b = EnergyBreakdown(cpu=10.0, caches=5.0, lm=1.0, directory=0.1,
                        prefetcher=0.2, dma=0.3, bus=0.4, dram=2.0)
    assert b.others == pytest.approx(1.0)
    assert b.total == pytest.approx(17.0)
    assert b.total_with_dram == pytest.approx(19.0)
    assert sum(b.groups().values()) == pytest.approx(b.total)
