"""Tests of the two-level hierarchical uncore and its supporting layers.

Covers the cluster topology and NUMA home mapping, the per-cluster
arbiters (randomized equivalence of the hierarchical acquire path against
the reference per-window walk), the address-interleaved home-node
directory, the ``num_clusters=1`` bit-identity contract (cycles, energy
and spec hashes), the per-cluster timeline lanes, and the acceptance
identity matrix: replay == execution on a 2-cluster x 2-core machine for
every NAS kernel at small scale.
"""

import dataclasses
import os
import random
import subprocess
import sys

import pytest

from repro.core.directory import HomeNodeDirectory
from repro.harness.config import (
    PARALLEL_CORE_SPAN,
    PARALLEL_DATA_BASE,
    PTLSIM_CONFIG,
)
from repro.harness.runner import run_workload
from repro.harness.sweep import RunSpec
from repro.mem.cache import Cache
from repro.mem.uncore import ClusterTopology, ClusterUncore, Uncore
from repro.obs.timeline import TimelineRecorder, UNCORE_TID
from repro.trace import capture_workload, parse_trace_bytes, replay_trace
from repro.workloads import BENCHMARK_ORDER


def _machine(cores, clusters=1, **overrides):
    machine = dataclasses.replace(PTLSIM_CONFIG, num_cores=cores,
                                  num_clusters=clusters)
    return machine.with_overrides(overrides) if overrides else machine


def _cluster_uncore(cores=4, clusters=2, **kwargs):
    return ClusterUncore(ClusterTopology(cores, clusters),
                         core_span=PARALLEL_CORE_SPAN,
                         data_base=PARALLEL_DATA_BASE, **kwargs)


# ---------------------------------------------------------------- topology
def test_topology_shape_and_mapping():
    topo = ClusterTopology(8, 4)
    assert topo.cores_per_cluster == 2
    assert [topo.cluster_of(i) for i in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert list(topo.cores_of(2)) == [4, 5]


def test_topology_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ClusterTopology(6, 4)           # clusters must divide cores
    with pytest.raises(ValueError):
        ClusterTopology(0, 1)
    with pytest.raises(ValueError):
        ClusterTopology(4, 0)
    with pytest.raises(ValueError):
        ClusterTopology(4, 2).cluster_of(4)


def test_multicore_system_rejects_mismatched_topology():
    from repro.core.multicore import MulticoreHybridSystem
    with pytest.raises(ValueError):
        MulticoreHybridSystem(num_cores=2, uncore=_cluster_uncore(4, 2))


# ---------------------------------------------------------------- NUMA homes
def test_home_cluster_owner_core_policy():
    uncore = _cluster_uncore(4, 2)
    span = PARALLEL_CORE_SPAN
    base = PARALLEL_DATA_BASE
    # Code/common addresses below the parallel data base home on cluster 0.
    assert uncore.home_cluster(0) == 0
    assert uncore.home_cluster(base - 1) == 0
    # Each core's SM window homes on that core's cluster.
    assert uncore.home_cluster(base) == 0                    # core 0
    assert uncore.home_cluster(base + span) == 0             # core 1
    assert uncore.home_cluster(base + 2 * span) == 1         # core 2
    assert uncore.home_cluster(base + 3 * span + 123) == 1   # core 3
    # Beyond the last window: clamped to the last core's cluster.
    assert uncore.home_cluster(base + 9 * span) == 1


def test_mem_path_counts_local_remote_and_llc():
    uncore = _cluster_uncore(4, 2)
    local = PARALLEL_DATA_BASE                   # homed on cluster 0
    remote = PARALLEL_DATA_BASE + 2 * PARALLEL_CORE_SPAN   # cluster 1
    miss = uncore.mem_path(0, 0.0, local)
    assert uncore.local_misses == 1 and uncore.remote_misses == 0
    assert miss == uncore.llc_latency + uncore.memory_latency
    hit = uncore.mem_path(0, 1000.0, local)      # past the bus window
    assert uncore.llc_demand_hits == 1
    assert hit == uncore.llc_latency
    # Remote: NUMA penalty plus the home cluster's bus claim.
    far = uncore.mem_path(0, 2000.0, remote)
    assert uncore.remote_misses == 1
    assert far == (uncore.numa_remote_latency + uncore.llc_latency
                   + uncore.memory_latency)
    # The remote miss filled cluster 1's LLC slice, not cluster 0's.
    assert uncore.llcs[1].stats.misses == 1
    assert uncore.llcs[0].stats.misses == 1
    assert uncore.llcs[0].stats.hits == 1


def test_dma_path_routes_past_llc():
    uncore = _cluster_uncore(4, 2)
    remote = PARALLEL_DATA_BASE + 3 * PARALLEL_CORE_SPAN
    queue = uncore.dma_path(0, 0.0, 4, remote)
    assert uncore.remote_dma_bursts == 1
    assert queue >= uncore.numa_remote_latency
    assert uncore.llc_demand_hits == uncore.llc_demand_misses == 0
    assert uncore.llcs[0].stats.accesses == uncore.llcs[1].stats.accesses == 0


def test_port_surfaces_cluster_locality():
    uncore = _cluster_uncore(4, 2)
    p0, p3 = uncore.port(0), uncore.port(3)
    assert (p0.cluster_id, p3.cluster_id) == (0, 1)
    assert p0.memory is uncore.memory and p3.bus is uncore.bus
    # A port's plain acquire claims only its own cluster's bus.
    p0.acquire(0.0, uncore.window_lines)
    assert uncore.arbiters[0].lines_requested == uncore.window_lines
    assert uncore.arbiters[1].lines_requested == 0
    # The flat uncore's port is the uncore itself (single-bus identity).
    flat = Uncore()
    assert flat.port(2) is flat
    assert not hasattr(flat, "mem_path")


# ------------------------------------------- hierarchical acquire equivalence
class _ReferenceUncore(Uncore):
    """The pre-optimization per-window walk, as the equivalence oracle."""

    def acquire(self, now, lines=1):
        if lines <= 0:
            return 0.0
        windows = self._windows
        capacity = self.window_lines
        w = int(now) // self.window_cycles
        if w < self._frontier:
            w = self._frontier
        while windows.get(w, 0) >= capacity:
            w += 1
        start_window = w
        remaining = lines
        while remaining > 0:
            used = windows.get(w, 0)
            free = capacity - used
            if free > 0:
                take = free if free < remaining else remaining
                windows[w] = used + take
                remaining -= take
            w += 1
        frontier = self._frontier
        while windows.get(frontier, 0) >= capacity:
            del windows[frontier]
            frontier += 1
        self._frontier = frontier
        start = start_window * self.window_cycles
        delay = start - now if start > now else 0.0
        self.requests += 1
        self.lines_requested += lines
        if delay > 0.0:
            self.contended_requests += 1
            self.queue_delay_cycles += delay
        return delay


class _ReferenceClusterPath:
    """Reference recomputation of :meth:`ClusterUncore.mem_path` /
    :meth:`~ClusterUncore.dma_path`: independent reference-walk arbiters
    and LLC slices, the same NUMA routing."""

    def __init__(self, uncore: ClusterUncore):
        self.uncore = uncore
        self.arbiters = [
            _ReferenceUncore(window_cycles=uncore.window_cycles,
                             window_lines=uncore.window_lines)
            for _ in range(uncore.topology.num_clusters)]
        self.llcs = [
            Cache(f"ref{cid}", llc.size_bytes, llc.assoc, llc.line_size,
                  int(uncore.llc_latency), write_back=False)
            for cid, llc in enumerate(uncore.llcs)]

    def mem_path(self, cluster_id, now, line_addr):
        delay = self.arbiters[cluster_id].acquire(now, 1)
        home = self.uncore.home_cluster(line_addr)
        if home != cluster_id:
            delay += self.uncore.numa_remote_latency
            delay += self.arbiters[home].acquire(now, 1)
        llc = self.llcs[home]
        if llc.access(line_addr, False):
            return delay + self.uncore.llc_latency
        llc.fill(line_addr)
        return delay + self.uncore.llc_latency + self.uncore.memory_latency

    def dma_path(self, cluster_id, now, lines, sm_addr):
        queue = self.arbiters[cluster_id].acquire(now, lines)
        home = self.uncore.home_cluster(sm_addr)
        if home != cluster_id:
            queue += self.uncore.numa_remote_latency
            queue += self.arbiters[home].acquire(now, lines)
        return queue


def test_hierarchical_acquire_matches_reference_walk():
    """The hierarchical demand/DMA paths must reproduce a reference model
    built from the per-window reference walk, decision for decision, over
    adversarial sequences (random clusters, mixed local/remote addresses,
    non-monotonic clocks, mixed burst sizes)."""
    rng = random.Random(20260807)
    for trial in range(25):
        clusters = rng.choice([2, 4])
        cores = clusters * rng.choice([1, 2, 4])
        fast = _cluster_uncore(
            cores, clusters,
            window_cycles=rng.choice([1, 2, 4, 8]),
            window_lines=rng.choice([1, 2, 3, 8]),
            llc_size=rng.choice([4, 16]) * 1024,
            llc_assoc=rng.choice([2, 4]))
        ref = _ReferenceClusterPath(fast)
        t = 0.0
        for step in range(200):
            t = max(0.0, t + rng.choice([-5.0, -1.0, 0.0, 0.25, 1.0,
                                         3.0, 40.0, 250.0]))
            cid = rng.randrange(clusters)
            addr = (PARALLEL_DATA_BASE
                    + rng.randrange(cores + 1) * PARALLEL_CORE_SPAN
                    + rng.randrange(0, 1 << 16, 64))
            if rng.random() < 0.3:
                lines = rng.choice([1, 2, 5, 16, 64])
                assert fast.dma_path(cid, t, lines, addr) == \
                    ref.dma_path(cid, t, lines, addr), (trial, step)
            else:
                assert fast.mem_path(cid, t, addr) == \
                    ref.mem_path(cid, t, addr), (trial, step)
        for arb, rarb in zip(fast.arbiters, ref.arbiters):
            for field in ("requests", "lines_requested",
                          "contended_requests", "queue_delay_cycles"):
                assert getattr(arb, field) == getattr(rarb, field), field


# -------------------------------------------------------- home-node directory
def test_home_directory_claim_release_lifecycle():
    d = HomeNodeDirectory()
    key = (16 * 1024, 0x4000)
    assert d.owner(key) is None and len(d) == 0
    d.claim(key, 0)
    assert d.owner(key) == 0 and d.total_entries == 1
    d.claim(key, 0)                       # refresh: no migration
    assert d.slice_stats[0].migrations == 0
    d.claim(key, 1)                       # handoff: migration
    assert d.owner(key) == 1
    assert d.slice_stats[0].migrations == 1
    d.release(key, 0)                     # stale release: not the owner
    assert d.owner(key) == 1
    d.release(key, 1)
    assert d.owner(key) is None and len(d) == 0
    d.release(key, 1)                     # idempotent on UNOWNED
    assert d.stats_summary()["slices"][0]["releases"] == 3


def test_home_directory_drop_core():
    d = HomeNodeDirectory()
    d.claim((4096, 0x1000), 0)
    d.claim((4096, 0x2000), 1)
    d.claim((4096, 0x3000), 0)
    d.drop_core(0)
    assert len(d) == 1 and d.owner((4096, 0x2000)) == 1
    assert d.owner((4096, 0x1000)) is None


def test_home_directory_slices_by_home_fn():
    uncore = _cluster_uncore(4, 2)
    d = HomeNodeDirectory(num_slices=2, home_fn=uncore.home_cluster)
    near = (4096, PARALLEL_DATA_BASE)                          # home 0
    far = (4096, PARALLEL_DATA_BASE + 2 * PARALLEL_CORE_SPAN)  # home 1
    d.claim(near, 0)
    d.claim(far, 2)
    assert d._slices[0] == {near: 0}
    assert d._slices[1] == {far: 2}
    assert d.owner(far) == 2
    assert d.slice_stats[1].lookups == 1 and d.slice_stats[0].lookups == 0
    assert sorted(d.items()) == sorted([(near, 0), (far, 2)])


def test_ownership_enforced_across_clusters():
    """The programming-model check still fires on the clustered machine:
    the home-node directory is authoritative regardless of which cluster
    the violating core sits on."""
    from repro.core.multicore import MulticoreHybridSystem, OwnershipViolation
    system = MulticoreHybridSystem(num_cores=4, uncore=_cluster_uncore(4, 2),
                                   lm_size=8 * 1024)
    for core_id in (0, 3):
        system.set_buffer_size(core_id, 4 * 1024)
    system.dma_get(0, system.core(0).address_map.virtual_base, 0x4000,
                   4 * 1024, tag=1, now=0.0)
    assert system.owner_of(0x4000) == 0
    assert system.home_directory.total_entries == 1
    with pytest.raises(OwnershipViolation):
        system.load(3, 0x4100)


# ----------------------------------------------------- num_clusters=1 identity
def test_one_cluster_is_bit_identical_to_flat():
    """`num_clusters=1` must build the flat uncore and reproduce the flat
    machine exactly: cycles, energy, full memory stats."""
    flat = run_workload("CG", "hybrid", "tiny",
                        machine=_machine(2), num_cores=2)
    one = run_workload("CG", "hybrid", "tiny",
                       machine=_machine(2, clusters=1), num_cores=2)
    assert one.cycles == flat.cycles
    assert one.energy.as_dict() == flat.energy.as_dict()
    assert one.sim.memory_stats == flat.sim.memory_stats


def test_spec_hash_drops_paper_default_cluster_knobs():
    """Spelling out the paper defaults of the new axes (num_clusters=1,
    directory_entries=32, the NUMA/LLC knobs) must hash — and hit the
    result store — identically to omitting them; non-default values stay
    distinct axes."""
    plain = RunSpec.create("CG", "hybrid", "tiny")
    defaults = {"num_clusters": 1,
                "directory_entries": PTLSIM_CONFIG.directory_entries,
                "numa_remote_latency": PTLSIM_CONFIG.numa_remote_latency,
                "llc_size": PTLSIM_CONFIG.llc_size,
                "llc_assoc": PTLSIM_CONFIG.llc_assoc,
                "llc_latency": PTLSIM_CONFIG.llc_latency}
    explicit = RunSpec.create("CG", "hybrid", "tiny", machine=defaults)
    assert explicit == plain
    assert explicit.spec_hash == plain.spec_hash
    for knob, default in defaults.items():
        changed = RunSpec.create("CG", "hybrid", "tiny",
                                 machine={knob: default + 1})
        assert changed.spec_hash != plain.spec_hash, knob


def test_spec_hash_cluster_knobs_stable_across_processes():
    """The dropped-defaults canonicalisation must be deterministic across
    interpreters — the result store is shared across processes and CI."""
    script = (
        "from repro.harness.sweep import RunSpec;"
        "print(RunSpec.create('CG', 'hybrid', 'tiny',"
        "      machine={'num_clusters': 1, 'directory_entries': 32,"
        "               'numa_remote_latency': 60}).spec_hash);"
        "print(RunSpec.create('CG', 'hybrid', 'tiny',"
        "      machine={'num_clusters': 4}).spec_hash)")
    outputs = set()
    for seed in ("0", "77"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(os.path.dirname(__file__), os.pardir,
                                     "src"),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        outputs.add(proc.stdout.strip())
    assert len(outputs) == 1, f"nondeterministic across processes: {outputs}"
    first, second = next(iter(outputs)).splitlines()
    assert first == RunSpec.create("CG", "hybrid", "tiny").spec_hash
    assert second == RunSpec.create("CG", "hybrid", "tiny",
                                    machine={"num_clusters": 4}).spec_hash


# ------------------------------------------------------- engine identity matrix
@pytest.mark.parametrize("workload", BENCHMARK_ORDER)
def test_engine_identity_two_clusters(workload):
    """replay == execution on the 2-cluster x 2-core machine, for every
    NAS kernel at small scale — the acceptance matrix of the hierarchical
    uncore (cluster buses, NUMA, LLC slices all exercised at
    globally-ordered arbitration points)."""
    machine = _machine(4, clusters=2)
    executed, mtrace = capture_workload(workload, "hybrid", "small",
                                        machine=machine)
    replayed = replay_trace(parse_trace_bytes(mtrace.to_bytes()), machine)
    assert replayed.cycles == executed.cycles
    assert replayed.energy.as_dict() == executed.energy.as_dict()
    assert replayed.sim.memory_stats == executed.sim.memory_stats
    assert (replayed.sim.core_stats["per_core"]
            == executed.sim.core_stats["per_core"])
    uncore = executed.sim.memory_stats["uncore"]
    assert uncore["num_clusters"] == 2
    assert uncore["requests"] > 0
    numa = uncore["numa"]
    # SP's working set streams entirely through DMA at small scale (zero
    # demand MEM misses); every kernel must still drive NUMA-routed traffic.
    assert (numa["local_misses"] + numa["remote_misses"]
            + numa["local_dma_bursts"] + numa["remote_dma_bursts"]) > 0


def test_cluster_overrides_retime_from_flat_capture():
    """Cluster/NUMA/LLC knobs are timing-only: a trace captured on the flat
    machine must re-time under cluster overrides, identically to execution
    under the same machine."""
    flat = _machine(4)
    clustered = _machine(4, clusters=2,
                         numa_remote_latency=100, llc_size=64 * 1024)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=flat)
    executed = run_workload("CG", "hybrid", "tiny",
                            machine=clustered, num_cores=4)
    replayed = replay_trace(mtrace, clustered)
    assert replayed.cycles == executed.cycles
    assert replayed.energy.as_dict() == executed.energy.as_dict()


# ------------------------------------------------------------- timeline lanes
def test_timeline_single_bus_keeps_legacy_lane_names():
    rec = TimelineRecorder(bucket_cycles=64)
    rec.bus_claim(10.0, 0.0, 1, 4, 2)
    rec.bus_claim(70.0, 2.0, 4, 4, 2)
    rec.flush()
    names = {ev["name"] for ev in rec.events if ev["ph"] == "C"}
    assert names == {"bus lines", "bus queue delay"}


def test_timeline_emits_one_lane_per_cluster_bus():
    rec = TimelineRecorder(bucket_cycles=64)
    rec.bus_claim(10.0, 0.0, 4, 4, 2, bus=0)
    rec.bus_claim(12.0, 1.0, 8, 4, 2, bus=1)
    trace = rec.to_chrome_trace()
    counters = {ev["name"] for ev in trace["traceEvents"] if ev["ph"] == "C"}
    assert "bus lines (cluster 0)" in counters
    assert "bus lines (cluster 1)" in counters
    assert "bus queue delay (cluster 1)" in counters
    # Each multi-line claim's burst span lands on its own cluster track.
    burst_tids = {ev["tid"] for ev in trace["traceEvents"]
                  if ev.get("name") == "dma burst"}
    assert burst_tids == {UNCORE_TID, UNCORE_TID + 1}
    labels = {ev["args"]["name"] for ev in trace["traceEvents"]
              if ev["ph"] == "M"}
    assert {"uncore cluster 0", "uncore cluster 1"} <= labels


def test_timeline_bucket_cycles_parameter():
    rec = TimelineRecorder(bucket_cycles=32)
    rec.bus_claim(0.0, 0.0, 1, 4, 2)
    rec.bus_claim(33.0, 0.0, 1, 4, 2)     # lands in the second 32-cycle bucket
    rec.flush()
    ts = sorted(ev["ts"] for ev in rec.events
                if ev["name"] == "bus lines")
    assert ts == [0, 32]


def test_clustered_replay_attaches_per_cluster_timeline():
    machine = _machine(4, clusters=2)
    _, mtrace = capture_workload("CG", "hybrid", "tiny", machine=machine)
    rec = TimelineRecorder()
    replay_trace(mtrace, machine, timeline=rec)
    trace = rec.to_chrome_trace()
    counters = {ev["name"] for ev in trace["traceEvents"] if ev["ph"] == "C"}
    assert any(name.endswith("(cluster 0)") for name in counters)
    assert any(name.endswith("(cluster 1)") for name in counters)
