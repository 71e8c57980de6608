"""Tests for the shared-uncore multicore timing model.

Covers the tentpole of the multicore PR: the windowed-arbitration uncore
(contention stretches concurrent misses and DMA bursts), the
domain-decomposed parallel NAS kernels, ``run_workload(num_cores=N)``
threading, sweep-engine integration (serial == parallel, spec hashing), the
O(1) ownership bookkeeping, and the multicore trace capture -> replay
cycle/energy identity.
"""

import dataclasses

import pytest

from repro.core.multicore import MulticoreHybridSystem, OwnershipViolation
from repro.harness.config import MachineConfig, PTLSIM_CONFIG
from repro.harness.runner import run_workload
from repro.harness.sweep import RunSpec, run_sweep
from repro.mem.hierarchy import MemoryHierarchy, MemoryHierarchyConfig
from repro.mem.uncore import Uncore
from repro.workloads import get_workload, shard_bounds, shard_kernel


SMALL_MEM = MemoryHierarchyConfig(l1_size=2048, l1_assoc=2, l2_size=8192,
                                  l2_assoc=4, l3_size=32768, l3_assoc=8,
                                  prefetch_enabled=False)


# --------------------------------------------------------------------- uncore
def test_uncore_two_simultaneous_misses_contend():
    """Two cores missing to memory at the same instant: the second queues."""
    def miss_latency(hierarchy, addr, now=0.0):
        return hierarchy.access(addr, is_write=False, now=now).latency

    # One core in isolation.
    solo = MemoryHierarchy(SMALL_MEM, uncore=Uncore(window_lines=1))
    solo_latency = miss_latency(solo, 0x10_0000)

    # Two cores sharing one uncore, issuing the same-cycle misses.
    shared = Uncore(window_lines=1)
    h0 = MemoryHierarchy(SMALL_MEM, uncore=shared)
    h1 = MemoryHierarchy(SMALL_MEM, uncore=shared)
    first = miss_latency(h0, 0x10_0000)
    second = miss_latency(h1, 0x20_0000)
    assert first == solo_latency
    assert second > solo_latency
    assert shared.contended_requests == 1
    assert shared.queue_delay_cycles == second - first


def test_uncore_none_is_bitwise_single_core():
    """Without an uncore the hierarchy's timing is exactly the seed model."""
    plain = MemoryHierarchy(SMALL_MEM)
    lat = plain.access(0x10_0000, is_write=False).latency
    c = SMALL_MEM
    assert lat == c.l1_latency + c.l2_latency + c.l3_latency + c.memory_latency


def test_uncore_dma_burst_pushes_other_requesters():
    """A long DMA burst consumes windows that delay the next requester."""
    shared = Uncore(window_cycles=4, window_lines=2)
    assert shared.acquire(0.0, lines=16) == 0.0      # burst starts clean
    delay = shared.acquire(0.0, lines=1)             # queued behind it
    # 16 lines at 2/window = 8 full windows -> next slot at cycle 32.
    assert delay == 32.0


def test_uncore_rejects_degenerate_windows():
    with pytest.raises(ValueError):
        Uncore(window_cycles=0)
    with pytest.raises(ValueError):
        Uncore(window_lines=0)


# ----------------------------------------------------------------- decomposition
def test_shard_bounds_cover_iteration_space():
    trip = 4097   # deliberately not divisible
    covered = []
    for core in range(4):
        lo, hi = shard_bounds(trip, core, 4)
        covered.extend(range(lo, hi))
    assert covered == list(range(trip))


def test_shard_kernel_slices_streams_and_replicates_tables():
    kernel = get_workload("CG", "tiny")
    shard = shard_kernel(kernel, 1, 2)
    n = kernel.loops[0].end
    lo, hi = shard_bounds(n, 1, 2)
    assert shard.loops[0].start == 0
    assert shard.loops[0].end == hi - lo
    # Streamed arrays are sliced to the shard...
    assert shard.arrays["vals"].length == hi - lo
    assert list(shard.arrays["vals"].data) == list(kernel.arrays["vals"].data[lo:hi])
    # ...gather targets are replicated in full.
    assert shard.arrays["x"].length == kernel.arrays["x"].length
    shard.validate()


def test_shard_kernel_single_core_is_whole_kernel():
    kernel = get_workload("SP", "tiny")
    shard = shard_kernel(kernel, 0, 1)
    assert shard.loops[0].trip_count == kernel.loops[0].trip_count
    assert {n: a.length for n, a in shard.arrays.items()} == \
        {n: a.length for n, a in kernel.arrays.items()}


@pytest.mark.parametrize("name", ["CG", "EP", "FT", "IS", "MG", "SP"])
def test_every_nas_kernel_shards(name):
    kernel = get_workload(name, "tiny")
    shards = [shard_kernel(kernel, c, 4) for c in range(4)]
    assert sum(s.loops[0].trip_count for s in shards) == kernel.loops[0].trip_count
    for shard in shards:
        shard.validate()


# ------------------------------------------------------------------ run_workload
def test_run_workload_num_cores_threading():
    result = run_workload("CG", "hybrid", "tiny", num_cores=2)
    assert result.num_cores == 2
    per_core = result.sim.core_stats["per_core"]
    assert len(per_core) == 2
    assert result.sim.instructions == sum(c["instructions"] for c in per_core)
    assert result.sim.cycles == max(c["cycles"] for c in per_core)
    assert result.sim.memory_stats["uncore"]["requests"] > 0


def test_run_workload_machine_num_cores_is_default():
    machine = dataclasses.replace(PTLSIM_CONFIG, num_cores=2)
    result = run_workload("CG", "hybrid", "tiny", machine=machine)
    assert result.num_cores == 2


def test_multicore_shares_memory_counts_once():
    """Shared main memory / bus are counted once in the aggregate summary."""
    result = run_workload("CG", "hybrid", "tiny", num_cores=2)
    hier = result.sim.memory_stats["hierarchy"]
    uncore = result.sim.memory_stats["uncore"]
    assert hier["memory_reads"] == uncore["memory_reads"]
    assert hier["bus_transactions"] == uncore["bus_transactions"]


def test_multicore_cache_mode_runs():
    result = run_workload("IS", "cache", "tiny", num_cores=2)
    assert result.num_cores == 2
    assert result.sim.memory_stats["lm_accesses"] == 0


def test_parallel_records_hash_on_core_count():
    one = RunSpec.create("CG", "hybrid", "tiny")
    two = RunSpec.create("CG", "hybrid", "tiny", machine={"num_cores": 2})
    four = RunSpec.create("CG", "hybrid", "tiny", machine={"num_cores": 4})
    assert len({one.spec_hash, two.spec_hash, four.spec_hash}) == 3


def test_sweep_serial_equals_parallel_for_multicore_cells():
    specs = [RunSpec.create("CG", "hybrid", "tiny", machine={"num_cores": 2}),
             RunSpec.create("CG", "cache", "tiny", machine={"num_cores": 2})]
    serial = run_sweep(specs, workers=1)
    parallel = run_sweep(specs, workers=2)
    for s, p in zip(serial, parallel):
        assert s.cycles == p.cycles
        assert s.energy == p.energy
        assert s.memory_stats == p.memory_stats


def test_parallel_speedup_at_small_scale():
    """More cores finish the same work in fewer global cycles (SP streams
    scale well; the shared bus keeps it sub-linear)."""
    base = run_workload("SP", "hybrid", "small")
    two = run_workload("SP", "hybrid", "small", num_cores=2)
    assert two.cycles < base.cycles
    speedup = base.cycles / two.cycles
    assert 1.0 < speedup <= 2.0


# ------------------------------------------------------------------- ownership
@pytest.fixture()
def machine2():
    m = MulticoreHybridSystem(num_cores=2, memory_config=SMALL_MEM,
                              lm_size=8 * 1024)
    for core_id in range(2):
        m.set_buffer_size(core_id, 1024)
    return m


def test_ownership_map_is_authoritative(machine2):
    base0 = machine2.core(0).lm_virtual_base
    machine2.dma_get(0, base0, 0x4000, 1024)
    assert machine2.owner_of(0x4000) == 0
    assert machine2.owner_of(0x4400) is None
    with pytest.raises(OwnershipViolation):
        machine2.load(1, 0x4000)


def test_dma_put_releases_ownership(machine2):
    base0 = machine2.core(0).lm_virtual_base
    machine2.dma_get(0, base0, 0x4000, 1024)
    with pytest.raises(OwnershipViolation):
        machine2.load(1, 0x4000)
    machine2.dma_put(0, base0, 0x4000, 1024)
    assert machine2.owner_of(0x4000) is None
    machine2.load(1, 0x4000)   # no longer a violation


def test_buffer_reuse_releases_old_chunk(machine2):
    base0 = machine2.core(0).lm_virtual_base
    machine2.dma_get(0, base0, 0x4000, 1024)
    machine2.dma_get(0, base0, 0x10_0000, 1024)   # same buffer, new chunk
    assert machine2.owner_of(0x4000) is None
    assert machine2.owner_of(0x10_0000) == 0
    machine2.load(1, 0x4000)
    with pytest.raises(OwnershipViolation):
        machine2.load(1, 0x10_0000)


def test_dma_put_unmaps_directory_so_no_stale_divert(machine2):
    """After write-back releases a chunk, the old owner's guarded accesses
    must not keep diverting to its surrendered LM copy (the chunk is
    unmapped: LM-writeback then LM-unmap in Figure 6 terms)."""
    base0 = machine2.core(0).lm_virtual_base
    machine2.core(0).write_sm_word(0x4000, 7.0)
    machine2.dma_get(0, base0, 0x4000, 1024)
    machine2.store(0, base0, 7.0)              # owner updates its LM copy
    machine2.dma_put(0, base0, 0x4000, 1024)
    assert machine2.core(0).directory.mapped_sm_ranges() == []
    machine2.store(1, 0x4000, 99.0)            # new owner of the SM data
    out = machine2.load(0, 0x4000, guarded=True, now=10_000.0)
    assert not out.diverted
    assert out.value == 99.0


def test_reconfigure_purges_stale_claims(machine2):
    """set_buffer_size invalidates every mapping of the core, so its
    ownership claims (at any old granularity) must vanish with them."""
    base0 = machine2.core(0).lm_virtual_base
    machine2.dma_get(0, base0, 0x4000, 1024)
    machine2.set_buffer_size(0, 2048)
    assert machine2.core(0).directory.mapped_sm_ranges() == []
    assert machine2.owner_of(0x4000) is None
    machine2.load(1, 0x4000)   # not a violation: nothing is mapped


def test_mixed_chunk_sizes_do_not_alias():
    """A core with a larger buffer size must not see another core's
    smaller-granularity claim through its own wider mask."""
    m = MulticoreHybridSystem(num_cores=2, memory_config=SMALL_MEM,
                              lm_size=8 * 1024)
    m.set_buffer_size(0, 1024)
    m.set_buffer_size(1, 4096)
    m.dma_get(0, m.core(0).lm_virtual_base, 0x4000, 1024)
    m.load(1, 0x4400)          # outside core 0's 1 KB chunk: fine
    with pytest.raises(OwnershipViolation):
        m.load(1, 0x4200)      # inside it: still caught


def test_ownership_check_sees_every_configured_size():
    """Two cores at different buffer sizes, one of them reconfigured: the
    check each SM access passes probes both current chunk sizes and still
    catches a touch of the other core's chunk."""
    m = MulticoreHybridSystem(num_cores=2, memory_config=SMALL_MEM,
                              lm_size=8 * 1024)
    m.set_buffer_size(0, 1024)
    m.set_buffer_size(1, 1024)
    m.set_buffer_size(1, 4096)     # core 1 moves to a wider chunk
    m.dma_get(0, m.core(0).lm_virtual_base, 0x4000, 1024)
    m.dma_get(1, m.core(1).lm_virtual_base, 0x8000, 4096)
    view0, view1 = m.view(0), m.view(1)
    view0.check_ownership(0x4200)  # its own chunk
    view1.check_ownership(0x8c00)
    with pytest.raises(OwnershipViolation):
        view0.check_ownership(0x8c00)      # inside core 1's 4 KB chunk
    with pytest.raises(OwnershipViolation):
        view1.check_ownership(0x4200)      # inside core 0's 1 KB chunk
    assert m.owner_of(0x8c00) == 1 and m.owner_of(0x4200) == 0
    m.set_buffer_size(1, 1024)     # drops core 1's claims
    view0.check_ownership(0x8c00)
    assert m.owner_of(0x8c00) is None


def test_core_view_routes_through_ownership(machine2):
    view0, view1 = machine2.view(0), machine2.view(1)
    view0.dma_get(view0.lm_virtual_base, 0x8000, 1024)
    with pytest.raises(OwnershipViolation):
        view1.load(0x8000)
    # Non-routed attributes delegate to the per-core system.
    assert view0.use_lm is True
    assert view0.hierarchy is machine2.core(0).hierarchy


# ------------------------------------------------------------- capture / replay
def test_multicore_capture_replay_identity():
    from repro.trace import capture_workload, parse_trace_bytes, replay_trace
    machine = dataclasses.replace(PTLSIM_CONFIG, num_cores=2)
    executed, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    assert mtrace.num_cores == 2
    # Round-trip through bytes like the store does.
    replayed = replay_trace(parse_trace_bytes(mtrace.to_bytes()), machine)
    assert replayed.cycles == executed.cycles
    assert replayed.total_energy == executed.total_energy
    assert replayed.sim.phase_cycles == executed.sim.phase_cycles
    assert replayed.sim.memory_stats == executed.sim.memory_stats
    assert replayed.sim.core_stats["per_core"] == \
        executed.sim.core_stats["per_core"]


def test_multicore_replay_retimes_under_override():
    from repro.trace import capture_workload, replay_trace
    machine = dataclasses.replace(PTLSIM_CONFIG, num_cores=2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    narrow = dataclasses.replace(
        machine, core=dataclasses.replace(machine.core, issue_width=2))
    retimed = replay_trace(mtrace, narrow)
    executed = run_workload("CG", "hybrid", "tiny", machine=narrow)
    assert retimed.cycles == executed.cycles
    assert retimed.total_energy == executed.total_energy


def test_multicore_replay_refuses_wrong_core_count():
    from repro.trace import ReplayValidityError, capture_workload, replay_trace
    machine = dataclasses.replace(PTLSIM_CONFIG, num_cores=2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    with pytest.raises(ReplayValidityError):
        replay_trace(mtrace, PTLSIM_CONFIG)


def test_multicore_trace_store_roundtrip(tmp_path):
    from repro.trace import TraceStore, capture_workload
    from repro.trace.format import MulticoreTrace
    machine = dataclasses.replace(PTLSIM_CONFIG, num_cores=2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    store = TraceStore(tmp_path)
    store.put(mtrace)
    loaded = store.get(mtrace.key)
    assert isinstance(loaded, MulticoreTrace)
    assert loaded.to_bytes() == mtrace.to_bytes()
    assert store.disk_stats()["entries"] == 1


def test_multicore_replay_spec_through_sweep(tmp_path):
    """A replay-kind multicore cell equals its execute-kind twin, store-backed."""
    from repro.harness.sweep import ResultStore
    store = ResultStore(tmp_path)
    machine = {"num_cores": 2, "memory.l2_size": 128 * 1024}
    exec_rec, replay_rec = run_sweep(
        [RunSpec.create("CG", "hybrid", "tiny", machine=machine),
         RunSpec.create("CG", "hybrid", "tiny", machine=machine,
                        kind="replay")],
        store=store)
    assert replay_rec.cycles == exec_rec.cycles
    assert replay_rec.energy == exec_rec.energy


# ------------------------------------------------------------- scalability driver
def test_scalability_sweep_driver():
    from repro.harness.experiments import scalability_sweep
    points = scalability_sweep(workloads=("CG",), modes=("hybrid",),
                               core_counts=(1, 2), scale="tiny")
    assert [(p.num_cores, p.mode) for p in points] == [(1, "hybrid"), (2, "hybrid")]
    assert points[0].speedup == 1.0
    assert points[1].cycles > 0
    assert points[1].efficiency == points[1].speedup / 2


def test_scalability_via_sweep_context(tmp_path):
    """The 1->2->4-core scalability sweep of two parallel NAS kernels runs
    via SweepContext in both execute and replay modes, with multicore
    replay cycle- and energy-identical to execution at the capture config
    (the acceptance gate of the multicore PR)."""
    from repro.harness.sweep import ResultStore, SweepContext
    store = ResultStore(tmp_path)
    results = {}
    for replay in (False, True):
        for n in (1, 2, 4):
            ctx = SweepContext(
                scale="tiny",
                machine_overrides={"num_cores": n} if n > 1 else None,
                store=store, replay=replay)
            for workload in ("CG", "SP"):
                results[(replay, n, workload)] = ctx.run(workload, "hybrid")
    for n in (1, 2, 4):
        for workload in ("CG", "SP"):
            executed = results[(False, n, workload)]
            replayed = results[(True, n, workload)]
            assert replayed.cycles == executed.cycles
            assert replayed.energy == executed.energy
    # The cells are real distinct machine points with measurable totals.
    assert results[(False, 4, "SP")].cycles < results[(False, 1, "SP")].cycles


def test_micro_replay_backed_sweep_identity():
    """SweepContext(replay=True) resolves micro cells through the trace
    subsystem with identical results (the PR-3 ROADMAP follow-up)."""
    from repro.harness.sweep import SweepContext
    executed = SweepContext().run_micro("WR", 0.5, 60, 2)
    replayed = SweepContext(replay=True).run_micro("WR", 0.5, 60, 2)
    assert replayed.cycles == executed.cycles
    assert replayed.energy == executed.energy


# ------------------------------------------------- scheduler reference check
def _step_one_at_a_time(lanes):
    """Reference scheduler: one instruction per grant, lowest
    ``(fetch_time, order)`` first — what ``run_resumable_lanes`` batches."""
    active = [lane for lane in lanes if not lane.done]
    while active:
        lane = min(active, key=lambda ln: (ln.fetch_time, ln.order))
        lane.run_until(float("-inf"), -1)
        if lane.done:
            active.remove(lane)


@pytest.mark.parametrize("clusters", [1, 2])
@pytest.mark.parametrize("cores", [2, 4])
@pytest.mark.parametrize("workload", ["CG", "IS"])
def test_batching_scheduler_matches_step_at_a_time(monkeypatch, workload,
                                                   cores, clusters):
    """Multicore execution and replay share ``run_resumable_lanes``, so the
    execution-vs-replay identity checks cannot catch a scheduler that
    batches wrongly; this pins it against the one-instruction-per-grant
    reference: same records (per-core results and uncore stats included)
    and the same captured traces."""
    from repro.harness import runner
    from repro.trace import capture_workload
    machine = dataclasses.replace(PTLSIM_CONFIG, num_cores=cores,
                                  num_clusters=clusters)
    batched, batched_trace = capture_workload(workload, "hybrid", "tiny",
                                              machine=machine)
    monkeypatch.setattr(runner, "run_resumable_lanes", _step_one_at_a_time)
    stepped, stepped_trace = capture_workload(workload, "hybrid", "tiny",
                                              machine=machine)
    assert stepped.to_record().as_dict() == batched.to_record().as_dict()
    assert stepped.sim.core_stats["per_core"] == \
        batched.sim.core_stats["per_core"]
    assert stepped.sim.memory_stats["uncore"] == \
        batched.sim.memory_stats["uncore"]
    assert stepped_trace.to_bytes() == batched_trace.to_bytes()
