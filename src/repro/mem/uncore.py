"""Shared uncore: main memory and inter-core buses with arbitration.

A multicore built from the paper's per-core hybrid systems still shares the
*uncore*: the system memory and the bus that demand misses and coherent DMA
transfers cross.  :class:`Uncore` bundles the shared :class:`~repro.mem.main_memory.MainMemory`
and :class:`~repro.mem.bus.Bus` instances with a deterministic bandwidth /
arbitration model, so that concurrent demand misses and DMA bursts from
different cores contend and stretch each other's latency.

The arbitration model is per-window slot accounting (the same style the
timing model uses for issue slots): time is divided into fixed windows of
``window_cycles`` cycles, each admitting ``window_lines`` line transfers.  A
request at time ``t`` claims slots starting at the first window at or after
``t`` with capacity left; the queueing delay charged is the gap between
``t`` and the start of that window.  Multi-line requests (DMA bursts)
occupy slots in consecutive windows, which is what pushes *other*
requesters — the transfer's own pipelined latency is modelled by the
per-line costs of the bus and DMA engine, not here.

Single-core systems never instantiate an uncore (``uncore=None``
everywhere), so their timing is bit-for-bit unchanged.

Two-level hierarchy (``num_clusters > 1``): a :class:`ClusterUncore` keeps
*one* functional main memory and bus but gives each cluster of
:class:`ClusterTopology` a private windowed arbiter (an :class:`Uncore`
sharing the functional store), a memory-side LLC slice whose *capacity* is
shared by the cluster's cores, and a NUMA home mapping derived from the
per-core SM windows of the parallel layout.  Cores reach the hierarchy
through :meth:`ClusterUncore.port`: a demand miss claims its own cluster
bus, crosses to the home cluster's bus (plus a remote-latency penalty) when
the line is homed elsewhere, probes the home LLC slice and only pays the
memory round trip on an LLC miss; DMA bursts claim the same buses but
stream past the LLC.  The flat :class:`Uncore` also answers :meth:`~Uncore.port`
(returning itself), so ``num_clusters=1`` runs the exact pre-cluster code
path and stays bit-identical.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional

from repro.mem.bus import Bus
from repro.mem.cache import Cache
from repro.mem.main_memory import MainMemory

#: Default arbitration window in cycles.
DEFAULT_WINDOW_CYCLES = 4
#: Default line-transfer slots admitted per window (shared bandwidth).
DEFAULT_WINDOW_LINES = 2


class Uncore:
    """Shared main memory + bus with windowed-slot bandwidth arbitration.

    Parameters
    ----------
    memory_latency / bus_latency_per_line:
        Timing parameters of the shared components (Table 1 values by
        default; the multicore builder forwards the machine config's).
    window_cycles / window_lines:
        Arbitration granularity and bandwidth: ``window_lines`` line
        transfers are admitted every ``window_cycles`` cycles across *all*
        cores.
    """

    def __init__(self, memory_latency: int = 150,
                 bus_latency_per_line: int = 4,
                 window_cycles: int = DEFAULT_WINDOW_CYCLES,
                 window_lines: int = DEFAULT_WINDOW_LINES,
                 memory: Optional[MainMemory] = None,
                 bus: Optional[Bus] = None):
        if window_cycles <= 0 or window_lines <= 0:
            raise ValueError("uncore window size and bandwidth must be positive")
        self.memory = memory if memory is not None else MainMemory(memory_latency)
        self.bus = bus if bus is not None else Bus(bus_latency_per_line)
        self.window_cycles = window_cycles
        self.window_lines = window_lines
        #: First window that may still have free slots.  Windows below it
        #: are full — a full window can never regain capacity, so skipping
        #: (and forgetting) them is always correct no matter how requests'
        #: ``now`` values interleave.
        self._frontier = 0
        #: Window index -> line slots consumed, for each partially claimed
        #: window above the frontier; ``_partial`` holds the same indices
        #: sorted.
        self._windows: Dict[int, int] = {}
        self._partial: List[int] = []
        #: The full windows above the frontier, as maximal runs
        #: ``[_run_lo[i], _run_hi[i])``: sorted, disjoint, never adjacent to
        #: each other or to the frontier.  Every other window above the
        #: frontier is untouched, so a claim crosses a run, or a span of
        #: untouched windows, in one step.
        self._run_lo: List[int] = []
        self._run_hi: List[int] = []
        # Arbitration counters.
        self.requests = 0
        self.lines_requested = 0
        self.contended_requests = 0
        self.queue_delay_cycles = 0.0
        #: Optional :class:`repro.obs.timeline.TimelineRecorder`; when set,
        #: every acquire reports its claim (bus occupancy / DMA bursts).
        #: acquire only fires on demand misses and DMA, never per
        #: instruction, so the None check costs nothing measurable.
        self.timeline = None
        #: Bus identity on the timeline (0 for the flat bus; the clustered
        #: uncore numbers its per-cluster arbiters so each gets its own
        #: occupancy lane).
        self.bus_id = 0

    def port(self, core_id: int) -> "Uncore":
        """Per-core attachment point.  The flat bus is one shared arbiter,
        so every core's port *is* the uncore — which keeps the single-bus
        code path (and its timing) exactly what it always was.  The
        clustered uncore overrides this with real per-cluster ports."""
        return self

    def acquire(self, now: float, lines: int = 1) -> float:
        """Claim ``lines`` transfer slots at or after ``now``; returns the
        queueing delay (cycles) until the request's first slot is available.

        The claim takes free slots in window order, as a slot-by-slot walk
        would, but in O(log n) steps per run of full windows, span of
        untouched windows or partial window it meets (n: the runs and
        partial windows held): a multi-line DMA burst costs a few steps
        whatever its length, and one that starts at the bandwidth frontier
        (the contended steady state) only advances the frontier.
        """
        if lines <= 0:
            return 0.0
        capacity = self.window_lines
        windows = self._windows
        partial = self._partial
        run_lo = self._run_lo
        w = int(now) // self.window_cycles
        if w < self._frontier:
            w = self._frontier
        start_window = -1
        remaining = lines
        run_hi = self._run_hi
        while True:
            if run_hi and w < run_hi[-1]:
                i = bisect_right(run_lo, w) - 1
                if i >= 0 and w < run_hi[i]:
                    w = run_hi[i]               # a full run: skip it
            else:                               # past every run
                i = len(run_lo) - 1
            if start_window < 0:
                start_window = w
            used = windows.get(w)
            if used is not None:                # a partial window: top it up
                if used + remaining < capacity:
                    windows[w] = used + remaining
                    break
                remaining -= capacity - used
                del windows[w]
                del partial[bisect_left(partial, w)]
                self._fill(w, w + 1)
                w += 1
            elif remaining < capacity:          # an untouched window takes
                windows[w] = remaining          # the rest
                insort(partial, w)
                break
            else:
                # Fill untouched windows up to the next partial window or
                # run.
                end = w + remaining // capacity
                j = bisect_right(partial, w)
                if j < len(partial) and partial[j] < end:
                    end = partial[j]
                if i + 1 < len(run_lo) and run_lo[i + 1] < end:
                    end = run_lo[i + 1]
                self._fill(w, end)
                remaining -= (end - w) * capacity
                w = end
            if not remaining:
                break
            if w < self._frontier:
                w = self._frontier
        start = start_window * self.window_cycles
        delay = start - now if start > now else 0.0
        self.requests += 1
        self.lines_requested += lines
        if delay > 0.0:
            self.contended_requests += 1
            self.queue_delay_cycles += delay
        if self.timeline is not None:
            self.timeline.bus_claim(now, delay, lines,
                                    self.window_cycles, self.window_lines,
                                    bus=self.bus_id)
        return delay

    def _fill(self, lo: int, hi: int) -> None:
        """Record windows ``[lo, hi)`` (none of them full before) as full:
        merge them with the runs they touch, or advance the frontier over
        them when they start at it."""
        run_lo, run_hi = self._run_lo, self._run_hi
        if lo == self._frontier:
            # Only the first run can start where these windows end.
            if run_lo and run_lo[0] == hi:
                hi = run_hi[0]
                del run_lo[0], run_hi[0]
            self._frontier = hi
            return
        i = bisect_left(run_lo, lo)
        if i and run_hi[i - 1] == lo:
            i -= 1
            lo = run_lo[i]
            del run_lo[i], run_hi[i]
        if i < len(run_lo) and run_lo[i] == hi:
            hi = run_hi[i]
            del run_lo[i], run_hi[i]
        run_lo.insert(i, lo)
        run_hi.insert(i, hi)

    def stats_summary(self) -> dict:
        return {
            "requests": self.requests,
            "lines_requested": self.lines_requested,
            "contended_requests": self.contended_requests,
            "queue_delay_cycles": self.queue_delay_cycles,
            "window_cycles": self.window_cycles,
            "window_lines": self.window_lines,
            "memory_reads": self.memory.reads,
            "memory_writes": self.memory.writes,
            "bus_transactions": self.bus.transactions,
            "bus_dma_transactions": self.bus.dma_transactions,
        }


class ClusterTopology:
    """Static cluster shape: which core sits on which cluster bus.

    ``num_clusters`` must divide ``num_cores``; cores are assigned to
    clusters in contiguous blocks (cores ``[k * cpc, (k+1) * cpc)`` form
    cluster ``k``), matching the contiguous per-core SM windows of the
    parallel layout so that a domain-decomposed kernel's data is homed on
    its own cluster.
    """

    __slots__ = ("num_cores", "num_clusters", "cores_per_cluster")

    def __init__(self, num_cores: int, num_clusters: int):
        if num_cores <= 0:
            raise ValueError("need at least one core")
        if num_clusters <= 0:
            raise ValueError("need at least one cluster")
        if num_cores % num_clusters != 0:
            raise ValueError(
                f"num_clusters={num_clusters} must divide "
                f"num_cores={num_cores}")
        self.num_cores = num_cores
        self.num_clusters = num_clusters
        self.cores_per_cluster = num_cores // num_clusters

    def cluster_of(self, core_id: int) -> int:
        """Cluster index of ``core_id``."""
        if not (0 <= core_id < self.num_cores):
            raise ValueError(f"core {core_id} out of range "
                             f"[0, {self.num_cores})")
        return core_id // self.cores_per_cluster

    def cores_of(self, cluster_id: int) -> range:
        """Core ids attached to ``cluster_id``."""
        cpc = self.cores_per_cluster
        return range(cluster_id * cpc, (cluster_id + 1) * cpc)


class UncorePort:
    """One core's attachment point on a :class:`ClusterUncore`.

    Exposes the surface the per-core memory hierarchy and DMA controller
    consume: the shared functional ``memory``/``bus`` objects, the local
    cluster arbiter's :meth:`acquire`, and the two hierarchical paths —
    :meth:`mem_path` for demand misses routed past the private L3 and
    :meth:`dma_path` for DMA bursts.  The hierarchy detects a clustered
    port by the presence of ``mem_path``.
    """

    __slots__ = ("_uncore", "core_id", "cluster_id", "memory", "bus",
                 "_local_acquire")

    def __init__(self, uncore: "ClusterUncore", core_id: int):
        self._uncore = uncore
        self.core_id = core_id
        self.cluster_id = uncore.topology.cluster_of(core_id)
        self.memory = uncore.memory
        self.bus = uncore.bus
        self._local_acquire = uncore.arbiters[self.cluster_id].acquire

    def acquire(self, now: float, lines: int = 1) -> float:
        """Claim slots on this core's *own* cluster bus only."""
        return self._local_acquire(now, lines)

    def mem_path(self, now: float, line_addr: int) -> float:
        """Latency beyond the private L3 of a demand miss to ``line_addr``."""
        return self._uncore.mem_path(self.cluster_id, now, line_addr)

    def dma_path(self, now: float, lines: int, sm_addr: int) -> float:
        """Queueing delay of a ``lines``-line DMA burst at ``sm_addr``."""
        return self._uncore.dma_path(self.cluster_id, now, lines, sm_addr)


class ClusterUncore:
    """Two-level uncore: per-cluster buses, LLC slices and NUMA memory.

    One functional :class:`~repro.mem.main_memory.MainMemory` and
    :class:`~repro.mem.bus.Bus` are shared by every cluster (data and
    activity counters live in one place, exactly as on the flat bus); each
    cluster owns a private windowed arbiter — a plain :class:`Uncore`
    wrapping the shared instances, so the slot arithmetic is the
    flat bus's, replicated — plus a memory-side LLC slice.

    Demand path (:meth:`mem_path`): claim a slot on the requesting
    cluster's bus; if the line's home cluster differs, pay
    ``numa_remote_latency`` and claim a slot on the home bus too; probe the
    home cluster's LLC slice — a hit is served at ``llc_latency``, a miss
    fills the slice and adds the memory round trip.  DMA path
    (:meth:`dma_path`): the same bus claims and NUMA penalty, but bursts
    stream past the LLC (coherent DMA sources lines from the private
    hierarchies and writes main memory directly, and dma-put write-backs
    land in memory where the next demand miss re-fills the LLC).

    Homes are derived from the parallel layout's per-core SM windows
    (``data_base + core * core_span``): the chunk's owner core's cluster is
    its home.  Addresses outside every window (code, below ``data_base``)
    are homed on cluster 0.
    """

    def __init__(self, topology: ClusterTopology,
                 memory_latency: int = 150,
                 bus_latency_per_line: int = 4,
                 window_cycles: int = DEFAULT_WINDOW_CYCLES,
                 window_lines: int = DEFAULT_WINDOW_LINES,
                 numa_remote_latency: int = 60,
                 llc_size: int = 16 * 1024 * 1024,
                 llc_assoc: int = 16,
                 llc_latency: int = 30,
                 line_size: int = 64,
                 core_span: int = 0x0400_0000,
                 data_base: int = 0x1000_0000):
        self.topology = topology
        self.memory = MainMemory(memory_latency)
        self.bus = Bus(bus_latency_per_line)
        self.memory_latency = memory_latency
        self.numa_remote_latency = float(numa_remote_latency)
        self.llc_latency = float(llc_latency)
        self.window_cycles = window_cycles
        self.window_lines = window_lines
        self.core_span = core_span
        self.data_base = data_base
        #: Per-cluster arbiters sharing the functional memory/bus.
        self.arbiters: List[Uncore] = []
        for cid in range(topology.num_clusters):
            arb = Uncore(memory_latency, bus_latency_per_line,
                         window_cycles, window_lines,
                         memory=self.memory, bus=self.bus)
            arb.bus_id = cid
            self.arbiters.append(arb)
        #: Per-cluster memory-side LLC slices (clean: fills only, no
        #: write-backs — stores reach memory through the write-through /
        #: write-back chain of the private hierarchy).
        self.llcs: List[Cache] = [
            Cache(f"LLC{cid}", llc_size, llc_assoc, line_size, llc_latency,
                  write_back=False)
            for cid in range(topology.num_clusters)]
        # NUMA / LLC counters (identical across engines: every mem_path /
        # dma_path call happens at a globally-ordered arbitration point).
        self.local_misses = 0
        self.remote_misses = 0
        self.local_dma_bursts = 0
        self.remote_dma_bursts = 0
        self.llc_demand_hits = 0
        self.llc_demand_misses = 0
        self._timeline = None

    # -- timeline -------------------------------------------------------------
    @property
    def timeline(self):
        return self._timeline

    @timeline.setter
    def timeline(self, recorder) -> None:
        # Propagate to the per-cluster arbiters: each reports its claims
        # under its own bus id, giving the timeline one lane per cluster.
        self._timeline = recorder
        for arb in self.arbiters:
            arb.timeline = recorder

    # -- routing --------------------------------------------------------------
    def home_cluster(self, addr: int) -> int:
        """Home cluster of ``addr`` (owner-core NUMA policy)."""
        offset = addr - self.data_base
        if offset < 0:
            return 0
        core = offset // self.core_span
        if core >= self.topology.num_cores:
            core = self.topology.num_cores - 1
        return self.topology.cluster_of(core)

    def port(self, core_id: int) -> UncorePort:
        """The per-core attachment point (what each hierarchy/DMAC gets)."""
        return UncorePort(self, core_id)

    def mem_path(self, cluster_id: int, now: float, line_addr: int) -> float:
        """Latency beyond the private L3 of a demand miss from
        ``cluster_id`` to ``line_addr`` (bus queueing + NUMA + LLC/memory).

        Counts ``memory.reads`` itself — and only on an LLC miss — so
        callers must not double-count the read.
        """
        delay = self.arbiters[cluster_id].acquire(now, 1)
        home = self.home_cluster(line_addr)
        if home != cluster_id:
            self.remote_misses += 1
            delay += self.numa_remote_latency
            delay += self.arbiters[home].acquire(now, 1)
        else:
            self.local_misses += 1
        llc = self.llcs[home]
        if llc.access(line_addr, False):
            self.llc_demand_hits += 1
            return delay + self.llc_latency
        self.llc_demand_misses += 1
        llc.fill(line_addr)
        self.memory.reads += 1
        return delay + self.llc_latency + self.memory_latency

    def dma_path(self, cluster_id: int, now: float, lines: int,
                 sm_addr: int) -> float:
        """Queueing delay of a DMA burst from ``cluster_id`` to ``sm_addr``."""
        queue = self.arbiters[cluster_id].acquire(now, lines)
        home = self.home_cluster(sm_addr)
        if home != cluster_id:
            self.remote_dma_bursts += 1
            queue += self.numa_remote_latency
            queue += self.arbiters[home].acquire(now, lines)
        else:
            self.local_dma_bursts += 1
        return queue

    # -- reporting ------------------------------------------------------------
    def stats_summary(self) -> dict:
        """Aggregate arbitration counters (flat-uncore shape) plus the
        per-cluster, NUMA and LLC breakdowns."""
        summary = {
            "requests": sum(a.requests for a in self.arbiters),
            "lines_requested": sum(a.lines_requested for a in self.arbiters),
            "contended_requests": sum(a.contended_requests
                                      for a in self.arbiters),
            "queue_delay_cycles": sum(a.queue_delay_cycles
                                      for a in self.arbiters),
            "window_cycles": self.window_cycles,
            "window_lines": self.window_lines,
            "memory_reads": self.memory.reads,
            "memory_writes": self.memory.writes,
            "bus_transactions": self.bus.transactions,
            "bus_dma_transactions": self.bus.dma_transactions,
            "num_clusters": self.topology.num_clusters,
            "cores_per_cluster": self.topology.cores_per_cluster,
            "numa": {
                "local_misses": self.local_misses,
                "remote_misses": self.remote_misses,
                "local_dma_bursts": self.local_dma_bursts,
                "remote_dma_bursts": self.remote_dma_bursts,
                "remote_latency": self.numa_remote_latency,
            },
            "llc": {
                "demand_hits": self.llc_demand_hits,
                "demand_misses": self.llc_demand_misses,
                "latency": self.llc_latency,
            },
            "clusters": [
                {
                    "requests": arb.requests,
                    "lines_requested": arb.lines_requested,
                    "contended_requests": arb.contended_requests,
                    "queue_delay_cycles": arb.queue_delay_cycles,
                    "llc_hits": llc.stats.hits,
                    "llc_misses": llc.stats.misses,
                }
                for arb, llc in zip(self.arbiters, self.llcs)
            ],
        }
        return summary
