"""Simulated-time timeline recorder with Chrome trace-event export.

A :class:`TimelineRecorder` accumulates what the multicore machine was doing
*in simulated cycles* — per-core lane run spans (the gaps between them are
stalls), shared-bus occupancy and queueing delay, DMA bursts and
memory-routed demand misses — and exports them as Chrome trace-event JSON
(the ``{"traceEvents": [...]}`` container), which loads directly in
Perfetto / ``chrome://tracing``.

Hook points:

* :func:`repro.cpu.multicore.run_resumable_lanes` wraps each lane in a
  timing proxy when given a recorder, emitting one run span per scheduler
  grant.  Lanes can trade the clock every few instructions (execution
  lanes do while their cores contend), so adjacent grants of the same core
  are **coalesced**: a new span whose start is
  within ``merge_gap`` cycles of the previous span's end extends it instead
  of emitting a new event.  Real stalls (uncore queueing, DMA syncs) exceed
  the gap and break the span — which is exactly the run/stall structure the
  timeline is meant to show.
* :class:`repro.mem.uncore.Uncore` calls :meth:`bus_claim` per ``acquire``
  when its ``timeline`` attribute is set.  Single-line claims (demand misses
  routed to memory) are aggregated into per-bucket counters; multi-line
  claims (DMA bursts) additionally emit one duration span each on the
  uncore track, sized by the bandwidth they occupy.

Timestamps are simulated cycles written into the microsecond ``ts``/``dur``
fields (1 cycle == 1 us in the viewer; only relative scale matters).
Wall-clock pipeline timelines (the sweep engine's ``--timeline``) reuse the
same container through :meth:`wall_span`, with real seconds mapped to us.

The event list is bounded: past ``max_events``, span/instant emission stops
(counters keep aggregating — they are O(buckets), not O(events)) and the
drop is reported in the export's metadata rather than silently truncated.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

__all__ = ["TimelineRecorder"]

#: Track id used for shared-uncore events (cores occupy 0..N-1).
UNCORE_TID = 1000


class TimelineRecorder:
    """Accumulates timeline events; exports Chrome trace-event JSON."""

    def __init__(self, merge_gap: float = 16.0, bucket_cycles: int = 256,
                 max_events: int = 400_000):
        self.merge_gap = float(merge_gap)
        self.bucket_cycles = int(bucket_cycles)
        self.max_events = int(max_events)
        self.events: List[Dict[str, Any]] = []
        self.dropped = 0
        #: Per-core pending (start, end, grants) run span, coalesced.
        self._pending: Dict[int, list] = {}
        #: (bus id, bucket index) -> [lines claimed, queue-delay cycles,
        #: requests].  Bus 0 is the flat shared bus (or cluster 0's);
        #: a clustered uncore reports one bus id per cluster, so each
        #: cluster gets its own occupancy counter lane on flush.
        self._bus_buckets: Dict[tuple, list] = {}
        self._cores: set = set()
        self._labels: Dict[int, str] = {}

    # -- raw emission -------------------------------------------------------------
    def _emit(self, ev: Dict[str, Any]) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(ev)

    def span(self, name: str, ts: float, dur: float, tid: int = 0,
             pid: int = 0, args: Optional[Dict[str, Any]] = None) -> None:
        ev = {"name": name, "ph": "X", "ts": ts, "dur": dur,
              "pid": pid, "tid": tid}
        if args:
            ev["args"] = args
        self._emit(ev)

    def instant(self, name: str, ts: float, tid: int = 0, pid: int = 0,
                args: Optional[Dict[str, Any]] = None) -> None:
        ev = {"name": name, "ph": "i", "ts": ts, "s": "t",
              "pid": pid, "tid": tid}
        if args:
            ev["args"] = args
        self._emit(ev)

    def counter(self, name: str, ts: float, values: Dict[str, float],
                pid: int = 0) -> None:
        # Counters bypass the event cap: they are bounded by the bucket
        # count (simulated span / bucket_cycles), not by emission volume,
        # and the occupancy curve is the part worth keeping when a trace
        # is big enough to overflow the span budget.
        self.events.append({"name": name, "ph": "C", "ts": ts, "pid": pid,
                            "tid": 0, "args": values})

    def label(self, tid: int, name: str) -> None:
        """Name a track (emitted as thread metadata on export)."""
        self._labels[tid] = name

    # -- lane runner hook ---------------------------------------------------------
    def lane_span(self, core: int, start: float, end: float) -> None:
        """One scheduler grant of ``core`` running ``[start, end)`` cycles.

        Adjacent grants within ``merge_gap`` cycles coalesce (lanes in
        lockstep trade the clock every few instructions; emitting each
        grant would swamp the trace without adding structure).  Vector
        replay lanes yield only before uncore events, so their grants are
        fewer and longer and mostly pass through unmerged.
        """
        if end <= start:
            return
        self._cores.add(core)
        pending = self._pending.get(core)
        if pending is not None:
            if start - pending[1] <= self.merge_gap:
                pending[1] = end if end > pending[1] else pending[1]
                pending[2] += 1
                return
            self._flush_lane(core, pending)
        self._pending[core] = [start, end, 1]

    def _flush_lane(self, core: int, pending: list) -> None:
        self.span("run", pending[0], pending[1] - pending[0], tid=core,
                  args={"grants": pending[2]})

    # -- uncore hook --------------------------------------------------------------
    def bus_claim(self, now: float, delay: float, lines: int,
                  window_cycles: int, window_lines: int,
                  bus: int = 0) -> None:
        """One ``Uncore.acquire``: ``lines`` slots claimed at ``now`` after
        ``delay`` queueing cycles on bus ``bus`` (0 for the flat shared bus;
        a clustered uncore passes its cluster index).

        Every claim lands in that bus's per-bucket occupancy/queue-delay
        counters — one counter lane per cluster bus on flush; bucket
        granularity is the recorder's ``bucket_cycles`` parameter.
        Multi-line claims (DMA bursts) additionally emit a duration span on
        the bus's uncore track covering the bandwidth they occupy.
        """
        key = (bus, int(now) // self.bucket_cycles)
        acc = self._bus_buckets.get(key)
        if acc is None:
            self._bus_buckets[key] = [lines, delay, 1]
        else:
            acc[0] += lines
            acc[1] += delay
            acc[2] += 1
        if lines > 1:
            start = now + delay
            dur = lines * window_cycles / window_lines
            self.span("dma burst", start, dur, tid=UNCORE_TID + bus,
                      args={"lines": lines, "queue_delay": delay})
        elif delay > 0.0:
            self.instant("miss queued", now, tid=UNCORE_TID + bus,
                         args={"delay": delay})

    # -- wall-clock pipeline spans (sweep --timeline) -----------------------------
    def wall_span(self, name: str, start_seconds: float, end_seconds: float,
                  tid: int = 0, args: Optional[Dict[str, Any]] = None) -> None:
        """A wall-clock span, seconds mapped onto the us timeline axis."""
        self.span(name, start_seconds * 1e6,
                  (end_seconds - start_seconds) * 1e6, tid=tid, args=args)

    # -- export -------------------------------------------------------------------
    def flush(self) -> None:
        """Emit pending coalesced lane spans and bucketed bus counters."""
        for core in sorted(self._pending):
            self._flush_lane(core, self._pending[core])
        self._pending.clear()
        multi_bus = any(bus != 0 for bus, _ in self._bus_buckets)
        for bus, bucket in sorted(self._bus_buckets):
            lines, delay, requests = self._bus_buckets[(bus, bucket)]
            ts = bucket * self.bucket_cycles
            # Bus 0 keeps the legacy lane names so single-bus consumers
            # (and stored timelines) read unchanged; cluster buses — bus 0
            # included, once more than one bus reported — get one
            # qualified lane each.
            suffix = f" (cluster {bus})" if multi_bus else ""
            self.counter("bus lines" + suffix, ts, {"lines": lines})
            self.counter("bus queue delay" + suffix, ts,
                         {"cycles": round(delay, 3), "requests": requests})
        self._bus_buckets.clear()

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The ``{"traceEvents": [...]}`` container (flushes first)."""
        self.flush()
        meta: List[Dict[str, Any]] = []
        labels = dict(self._labels)
        for core in sorted(self._cores):
            labels.setdefault(core, f"core {core}")
        uncore_tids = {ev["tid"] for ev in self.events
                       if ev.get("tid", 0) >= UNCORE_TID}
        for tid in uncore_tids:
            name = ("uncore" if len(uncore_tids) == 1
                    else f"uncore cluster {tid - UNCORE_TID}")
            labels.setdefault(tid, name)
        for tid, name in sorted(labels.items()):
            meta.append({"name": "thread_name", "ph": "M", "pid": 0,
                         "tid": tid, "args": {"name": name}})
        return {
            "traceEvents": meta + self.events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_events": self.dropped,
                          "time_unit": "simulated cycles as us"},
        }

    def write(self, path) -> int:
        """Write the Chrome trace JSON to ``path``; returns the event count."""
        payload = self.to_chrome_trace()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return len(payload["traceEvents"])
