"""Tests for the multicore composition of the per-core protocol (Section 3)."""

import pytest

from repro.core.multicore import MulticoreHybridSystem, OwnershipViolation
from repro.core.protocol import ProtocolChecker
from repro.harness.runner import run_workload
from repro.mem.hierarchy import MemoryHierarchyConfig


SMALL_MEM = MemoryHierarchyConfig(l1_size=2048, l1_assoc=2, l2_size=8192,
                                  l2_assoc=4, l3_size=32768, l3_assoc=8,
                                  prefetch_enabled=False)
BUF = 1024


@pytest.fixture()
def machine():
    m = MulticoreHybridSystem(num_cores=2, memory_config=SMALL_MEM, lm_size=8 * 1024)
    for core_id in range(2):
        m.set_buffer_size(core_id, BUF)
    return m


def test_cores_have_independent_hardware(machine):
    assert machine.core(0).directory is not machine.core(1).directory
    assert machine.core(0).lm is not machine.core(1).lm


def test_per_core_coherence_is_private(machine):
    base0 = machine.core(0).lm_virtual_base
    machine.store(0, 0x4000, 1.0)           # seed SM via core 0? (unmapped yet)
    machine.core(0).write_sm_word(0x4000, 1.0)
    machine.dma_get(0, base0, 0x4000, BUF)
    machine.store(0, base0, 77.0)           # core 0 updates its LM copy
    out = machine.load(0, 0x4000, guarded=True, now=10_000.0)
    assert out.value == 77.0


def test_cross_core_access_to_mapped_data_is_a_violation(machine):
    base0 = machine.core(0).lm_virtual_base
    machine.dma_get(0, base0, 0x4000, BUF)
    with pytest.raises(OwnershipViolation):
        machine.load(1, 0x4000)
    with pytest.raises(OwnershipViolation):
        machine.store(1, 0x4008, 2.0)


def test_cross_core_access_to_unmapped_data_is_fine(machine):
    machine.core(1).write_sm_word(0x9000, 4.0)
    assert machine.load(1, 0x9000).value == 4.0
    machine.store(0, 0x9100, 5.0)


def test_unmapping_releases_ownership(machine):
    base0 = machine.core(0).lm_virtual_base
    machine.dma_get(0, base0, 0x4000, BUF)
    # Remapping the buffer to other data unmaps the old chunk.
    machine.dma_get(0, base0, 0x10_0000, BUF)
    assert machine.load(1, 0x4000).value == 0


def test_enforcement_can_be_disabled():
    m = MulticoreHybridSystem(num_cores=2, memory_config=SMALL_MEM,
                              lm_size=8 * 1024, enforce_ownership=False)
    m.set_buffer_size(0, BUF)
    m.dma_get(0, m.core(0).lm_virtual_base, 0x4000, BUF)
    # No exception: the programming-model constraint is not checked.
    m.load(1, 0x4000)


def test_each_core_accesses_its_own_lm(machine):
    base0 = machine.core(0).lm_virtual_base
    base1 = machine.core(1).lm_virtual_base
    machine.store(0, base0 + 8, 1.0)
    machine.store(1, base1 + 8, 2.0)
    assert machine.load(0, base0 + 8).value == 1.0
    assert machine.load(1, base1 + 8).value == 2.0


def test_stats_summary_per_core(machine):
    machine.load(0, 0x7000)
    stats = machine.stats_summary()
    assert "core0" in stats and "core1" in stats
    assert stats["core0"]["loads"] == 1


def test_invalid_core_count_rejected():
    with pytest.raises(ValueError):
        MulticoreHybridSystem(num_cores=0)


@pytest.mark.parametrize("mode", ["hybrid", "hybrid-oracle"])
@pytest.mark.parametrize("workload", ["CG", "IS"])
def test_multicore_run_tracks_the_protocol(workload, mode):
    """``track_protocol=True`` reaches every core of a multicore run: each
    core carries a strict checker, no Figure 6 transition of the run
    raises, and checking leaves the result unchanged."""
    checked = run_workload(workload, mode, "tiny", track_protocol=True,
                           num_cores=2)
    plain = run_workload(workload, mode, "tiny", num_cores=2)
    for core in checked.system.cores:
        assert isinstance(core.checker, ProtocolChecker)
        assert core.checker.chunks          # the checker saw transitions
        assert core.checker.violations == []
    assert checked.to_record().as_dict() == plain.to_record().as_dict()
