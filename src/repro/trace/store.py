"""Content-hashed on-disk store for trace artifacts.

Traces live *alongside* the sweep engine's
:class:`~repro.harness.sweep.ResultStore`, under a ``traces/`` subdirectory
of the same cache root (``$REPRO_CACHE_DIR`` or ``.repro-cache``), so one
cache directory — and one CI cache entry — carries both finished results and
the captured streams they can be re-timed from.

Layout: ``<root>/traces/<key_hash[:2]>/<key_hash>.trace``, one file per
:class:`~repro.trace.format.TraceKey`, written atomically.  A file that
cannot be parsed or fails its schema check is treated as a miss and removed.

The store is **capacity-managed**: :meth:`TraceStore.prune` sweeps
stale-schema artifacts (the key hash embeds the schema, so a format bump
strands old files at addresses :meth:`get` never probes again) and leaked
``*.tmp.<pid>`` files from interrupted writers, then evicts
least-recently-used entries — :meth:`get` touches the access time on every
hit — until the store fits ``max_bytes`` / ``max_age_days``.
"""

from __future__ import annotations

import json
import os
import struct
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro import faults, obs
from repro.trace.format import (
    MULTI_TRACE_MAGIC,
    TRACE_MAGIC,
    TRACE_SCHEMA,
    Trace,
    TraceError,
    TraceKey,
    parse_trace_bytes,
)

#: Subdirectory of the cache root holding trace artifacts.
TRACE_SUBDIR = "traces"

#: Name of the lifetime-counter sidecar file at a store's root (JSON
#: content).  The extension is deliberately not ``.json``/``.trace``: the
#: trace store nests under the result store's root, so the sidecar at
#: ``<cache>/traces/`` must not match the result store's ``*/*.json`` entry
#: glob (which would count — and prune — it as a stale entry).
STATS_SIDECAR = "stats.meta"


def load_sidecar_stats(root: Path) -> Dict[str, int]:
    """The lifetime counters persisted at ``root`` (empty when absent)."""
    try:
        data = json.loads((root / STATS_SIDECAR).read_text())
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict):
        return {}
    return {str(k): int(v) for k, v in data.items()
            if isinstance(v, (int, float))}


def persist_sidecar_stats(root: Path, session: Dict[str, int],
                          persisted: Dict[str, int]) -> Dict[str, int]:
    """Merge a store's not-yet-persisted session counters into its sidecar.

    ``persisted`` is the caller's snapshot of what it already flushed; only
    the delta since then is added, so repeated calls never double-count.
    The write is atomic (tmp + rename); concurrent writers may lose each
    other's increments — the counters are operational telemetry, not
    accounting, so last-writer-wins is acceptable.  Returns the merged
    lifetime counters and updates ``persisted`` in place.
    """
    lifetime = load_sidecar_stats(root)
    for key, value in session.items():
        delta = value - persisted.get(key, 0)
        if delta:
            lifetime[key] = lifetime.get(key, 0) + delta
    persisted.update(session)
    try:
        root.mkdir(parents=True, exist_ok=True)
        tmp = root / f"{STATS_SIDECAR}.tmp.{os.getpid()}"
        tmp.write_text(json.dumps(lifetime, sort_keys=True) + "\n")
        os.replace(tmp, root / STATS_SIDECAR)
    except OSError:
        pass
    return lifetime


def combined_lifetime_stats(root: Path, session: Dict[str, int],
                            persisted: Dict[str, int]) -> Dict[str, int]:
    """Sidecar counters plus this session's not-yet-persisted deltas."""
    lifetime = load_sidecar_stats(root)
    for key, value in session.items():
        lifetime[key] = lifetime.get(key, 0) + value - persisted.get(key, 0)
    return lifetime

#: Tmp files younger than this (seconds) are presumed to belong to a live
#: writer (between ``write_bytes`` and ``os.replace``) and are not swept.
TMP_SWEEP_MIN_AGE = 3600.0

#: Process-wide memo of parsed artifacts, keyed by (path, mtime_ns, size):
#: a replay sweep probes and re-reads the same family trace once per cell,
#: and the v2 decode (inflate + varint walk) is the expensive part.
_PARSE_CACHE: "OrderedDict[Tuple[str, int, int], Trace]" = OrderedDict()
_PARSE_CACHE_CAP = 8


def _parse_cached(path: Path, stat: os.stat_result) -> Trace:
    cache_key = (str(path), stat.st_mtime_ns, stat.st_size)
    trace = _PARSE_CACHE.get(cache_key)
    if trace is None:
        trace = parse_trace_bytes(path.read_bytes())
        _PARSE_CACHE[cache_key] = trace
        while len(_PARSE_CACHE) > _PARSE_CACHE_CAP:
            _PARSE_CACHE.popitem(last=False)
    else:
        _PARSE_CACHE.move_to_end(cache_key)
    return trace


def tmp_files_under(root: Path, min_age_seconds: float = 0.0) -> List[Path]:
    """Leaked ``*.tmp.<pid>`` files one directory level under ``root``.

    Shared by :class:`TraceStore` and the sweep engine's ``ResultStore``
    (both write ``<hash>.tmp.<pid>`` then ``os.replace``).  Files modified
    within the last ``min_age_seconds`` are skipped — they may belong to a
    writer currently between its write and its rename; sweeping those would
    crash the writer.
    """
    if not root.is_dir():
        return []
    cutoff = time.time() - min_age_seconds
    out = []
    for path in sorted(root.glob("*/*.tmp.*")):
        try:
            if path.is_file() and path.stat().st_mtime <= cutoff:
                out.append(path)
        except OSError:
            continue
    return out


def evict_lru(live: List[Tuple[float, int, Path]],
              unlink: Callable[[Path, int], bool],
              max_bytes: Optional[int] = None,
              max_age_days: Optional[float] = None,
              ) -> List[Tuple[float, int, Path]]:
    """Apply age and capacity eviction to ``(atime, size, path)`` records.

    The one LRU policy shared by :meth:`TraceStore.prune` and the sweep
    engine's ``ResultStore.prune``.  With ``max_age_days``, records whose
    access time is older than the cutoff are evicted; with ``max_bytes``,
    records are evicted oldest-access-first until the surviving total fits.
    Equal access times are routine (filesystems round atimes coarsely, and a
    sweep touches many entries in the same instant), so ties are broken by
    *path* — deterministic and insertion-stable — never by size, which would
    otherwise evict the largest entry of a tie regardless of recency.

    ``unlink(path, size)`` performs the removal (and any accounting) and
    returns False if the file could not be removed; such records survive.
    Returns the surviving records.
    """
    now = time.time()
    if max_age_days is not None:
        cutoff = now - max_age_days * 86400.0
        survivors = []
        for atime, size, path in live:
            if atime >= cutoff or not unlink(path, size):
                survivors.append((atime, size, path))
        live = survivors
    if max_bytes is not None:
        total = sum(size for _, size, _ in live)
        live.sort(key=lambda rec: (rec[0], str(rec[2])))
        survivors = []
        for index, (atime, size, path) in enumerate(live):
            if total <= max_bytes:
                survivors.extend(live[index:])
                break
            if unlink(path, size):
                total -= size
            else:
                survivors.append((atime, size, path))
        live = survivors
    return live


def _file_schema(path: Path) -> Optional[int]:
    """The schema stamped in a trace file's binary header (None = unreadable)."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(6)
    except OSError:
        return None
    if len(head) < 6 or head[:4] not in (TRACE_MAGIC, MULTI_TRACE_MAGIC):
        return None
    return struct.unpack_from("<H", head, 4)[0]


class TraceStore:
    """Content-addressed disk store of :class:`Trace` artifacts."""

    def __init__(self, root: Optional[os.PathLike] = None):
        from repro.harness.sweep import DEFAULT_CACHE_DIR
        base = Path(root if root is not None
                    else os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))
        self.root = base / TRACE_SUBDIR
        self.hits = 0
        self.misses = 0
        self.corrupted = 0
        self.writes = 0
        self.evictions = 0
        self.put_errors = 0
        #: Counter values already flushed to the sidecar by persist_stats().
        self._persisted: Dict[str, int] = {}

    def path_for(self, key: TraceKey) -> Path:
        h = key.key_hash
        return self.root / h[:2] / f"{h}.trace"

    def get(self, key: TraceKey) -> Optional[Trace]:
        path = self.path_for(key)
        try:
            faults.check("trace.decode", key=key.key_hash)
            stat = path.stat()
            trace = _parse_cached(path, stat)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, TraceError, faults.FaultError):
            # Corrupted / stale artifact (or an injected decode fault):
            # drop it and treat as a miss.
            self.corrupted += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        try:
            # Refresh the access time explicitly: relatime/noatime mounts
            # would otherwise starve the LRU eviction in prune() of signal.
            # The mtime is preserved — it keys the parse memo.
            os.utime(path, ns=(time.time_ns(), stat.st_mtime_ns))
        except OSError:
            pass
        return trace

    def put(self, trace: Trace) -> Optional[Path]:
        """Persist one trace atomically; best-effort under disk failure.

        An ``OSError`` (ENOSPC and friends) is absorbed and counted rather
        than raised: a failed persist only costs a future re-capture, never
        the capture that just happened.  Returns ``None`` on failure.
        """
        path = self.path_for(trace.key)
        data = trace.to_bytes()
        clause = faults.fire("trace.put", key=trace.key.key_hash)
        try:
            if clause is not None:
                data = faults.apply_write_fault(clause, "trace.put",
                                                trace.key.key_hash, data)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError as exc:
            self.put_errors += 1
            obs.incr("trace.store.put_error")
            obs.get_logger().warning("trace store put failed for %s: %r",
                                     trace.key.key_hash, exc)
            return None
        self.writes += 1
        if clause is None:
            # Seed the parse memo so the sweep that just captured this trace
            # does not pay a decode to read its own write back.  (Skipped
            # under an injected torn write: the memo would mask the on-disk
            # corruption the injection exists to exercise.)
            try:
                stat = path.stat()
                _PARSE_CACHE[(str(path), stat.st_mtime_ns, stat.st_size)] = trace
                while len(_PARSE_CACHE) > _PARSE_CACHE_CAP:
                    _PARSE_CACHE.popitem(last=False)
            except OSError:  # pragma: no cover - stat raced a concurrent delete
                pass
        return path

    # -- introspection ------------------------------------------------------------
    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.trace"))

    def entries(self) -> Iterator[Tuple[Path, Trace]]:
        """Yield ``(path, trace)`` for every readable stored trace."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/*.trace")):
            try:
                yield path, parse_trace_bytes(path.read_bytes())
            except (OSError, TraceError):
                continue

    def _tmp_files(self, min_age_seconds: float = 0.0) -> List[Path]:
        return tmp_files_under(self.root, min_age_seconds)

    def disk_stats(self) -> Dict[str, int]:
        """On-disk shape: entries, bytes, stale-schema files, leaked temps,
        plus the lifetime hit/miss/eviction counters (sidecar + session)."""
        entries = stale = total = 0
        if self.root.is_dir():
            for path in self.root.glob("*/*.trace"):
                try:
                    total += path.stat().st_size
                    entries += 1
                except OSError:
                    continue
                if _file_schema(path) != TRACE_SCHEMA:
                    stale += 1
        from repro.trace.artifacts import ArtifactStore
        art = ArtifactStore(self.root).disk_stats()
        return {"entries": entries, "bytes": total, "stale_schema": stale,
                "tmp_files": len(self._tmp_files()),
                "artifact_entries": art["entries"],
                "artifact_bytes": art["bytes"],
                "lifetime": self.lifetime_stats()}

    def prune(self, max_bytes: Optional[int] = None,
              max_age_days: Optional[float] = None) -> Dict[str, int]:
        """Shrink the store: stale/tmp sweep plus LRU-by-atime eviction.

        Always removes stale-schema (or unreadable) artifacts and leaked
        ``*.tmp.<pid>`` files (only ones older than
        :data:`TMP_SWEEP_MIN_AGE`, so a concurrent writer's in-flight temp
        file is left alone).  With ``max_age_days``, entries whose access
        time is older are evicted; with ``max_bytes``, least-recently-used
        entries are evicted until the surviving total fits.  Derived
        artifacts (see :mod:`repro.trace.artifacts`) share their parent
        trace's lifecycle: their bytes count toward ``max_bytes``, they are
        deleted when their parent is evicted, and orphaned or stale-schema
        sidecar files are swept unconditionally.  Returns the sweep counters
        (``stale_schema`` / ``tmp_files`` / ``evicted`` / ``artifacts`` /
        ``freed_bytes`` / ``kept`` / ``kept_bytes``).
        """
        from repro.trace.artifacts import (
            ARTIFACT_SCHEMA,
            ARTIFACT_SUFFIX,
            ArtifactStore,
            artifact_file_schema,
        )
        counts = {"stale_schema": 0, "tmp_files": 0, "evicted": 0,
                  "artifacts": 0, "freed_bytes": 0, "kept": 0,
                  "kept_bytes": 0}

        def unlink(path: Path, bucket: str, size: int = 0) -> bool:
            try:
                path.unlink()
            except OSError:
                return False
            counts[bucket] += 1
            counts["freed_bytes"] += size
            if bucket == "evicted":
                self.evictions += 1
            return True

        art_store = ArtifactStore(self.root)
        tmp_sweep = (self._tmp_files(TMP_SWEEP_MIN_AGE) +
                     tmp_files_under(art_store.root, TMP_SWEEP_MIN_AGE))
        for path in tmp_sweep:
            try:
                size = path.stat().st_size
            except OSError:
                size = 0
            unlink(path, "tmp_files", size)

        live: List[Tuple[float, int, Path]] = []   # (atime, size, path)
        if self.root.is_dir():
            for path in sorted(self.root.glob("*/*.trace")):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                if _file_schema(path) != TRACE_SCHEMA:
                    if not unlink(path, "stale_schema", stat.st_size):
                        live.append((stat.st_atime, stat.st_size, path))
                else:
                    live.append((stat.st_atime, stat.st_size, path))

        # Artifact sweep runs after the trace scan so artifacts of a trace
        # removed above (stale schema) register as orphans here.  Surviving
        # artifacts are charged to their parent's LRU record: the pair is
        # evicted — or kept — as a unit.
        art_sizes: Dict[str, int] = {}
        for pdir in art_store.parent_dirs():
            parent = pdir.name
            orphan = not (self.root / parent[:2] / f"{parent}.trace").is_file()
            for path in sorted(pdir.glob(f"*{ARTIFACT_SUFFIX}")):
                try:
                    size = path.stat().st_size
                except OSError:
                    continue
                if orphan or artifact_file_schema(path) != ARTIFACT_SCHEMA:
                    unlink(path, "artifacts", size)
                else:
                    art_sizes[parent] = art_sizes.get(parent, 0) + size
            try:
                pdir.rmdir()   # only succeeds once emptied
            except OSError:
                pass
        live = [(atime, size + art_sizes.get(path.stem, 0), path)
                for atime, size, path in live]

        def evict_with_artifacts(path: Path, size: int) -> bool:
            if not unlink(path, "evicted", size):
                return False
            pdir = art_store.root / path.stem
            for art in sorted(pdir.glob(f"*{ARTIFACT_SUFFIX}")):
                # Freed bytes already counted: `size` includes artifacts.
                try:
                    art.unlink()
                    counts["artifacts"] += 1
                except OSError:
                    pass
            try:
                pdir.rmdir()
            except OSError:
                pass
            return True

        live = evict_lru(live, evict_with_artifacts,
                         max_bytes=max_bytes, max_age_days=max_age_days)
        counts["kept"] = len(live)
        counts["kept_bytes"] = sum(size for _, size, _ in live)
        return counts

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "corrupted": self.corrupted, "writes": self.writes,
                "evictions": self.evictions, "put_errors": self.put_errors}

    def lifetime_stats(self) -> Dict[str, int]:
        """Counters across every session: sidecar plus unflushed deltas."""
        return combined_lifetime_stats(self.root, self.stats(),
                                       self._persisted)

    def persist_stats(self) -> Dict[str, int]:
        """Flush this session's counter deltas into the sidecar file."""
        from repro.trace import artifacts
        # The derived-artifact store shares this sidecar (prefixed keys);
        # flushing here lets every existing persist call site cover both.
        artifacts.flush_stats_for(self.root)
        return persist_sidecar_stats(self.root, self.stats(),
                                     self._persisted)


class EphemeralTraceStore:
    """In-memory stand-in for :class:`TraceStore` (same get/put surface).

    Used when the caller asked for no on-disk caching (``--no-cache``
    sweeps): captured traces live only for the lifetime of this object, and
    nothing is read from or written to the filesystem.
    """

    def __init__(self) -> None:
        self._traces: Dict[str, Trace] = {}
        self.hits = 0
        self.misses = 0
        self.corrupted = 0
        self.writes = 0
        self.evictions = 0

    def get(self, key: TraceKey) -> Optional[Trace]:
        trace = self._traces.get(key.key_hash)
        if trace is None:
            self.misses += 1
        else:
            self.hits += 1
        return trace

    def put(self, trace: Trace) -> None:
        self._traces[trace.key.key_hash] = trace
        self.writes += 1

    def __len__(self) -> int:
        return len(self._traces)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "corrupted": self.corrupted, "writes": self.writes,
                "evictions": self.evictions}
