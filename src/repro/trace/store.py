"""Content-hashed on-disk store for trace artifacts.

Traces live *alongside* the sweep engine's
:class:`~repro.harness.sweep.ResultStore`, under a ``traces/`` subdirectory
of the same cache root (``$REPRO_CACHE_DIR`` or ``.repro-cache``), so one
cache directory — and one CI cache entry — carries both finished results and
the captured streams they can be re-timed from.

Layout: ``<root>/traces/<key_hash[:2]>/<key_hash>.trace``, one file per
:class:`~repro.trace.format.TraceKey`.  Atomic writes, unparsable files read
as misses and removed, and the write-error latch are
:class:`~repro.diskstore.DiskStore`'s.

:meth:`TraceStore.prune` also sweeps stale-schema traces (the key hash
embeds the schema, so a format bump strands old files at addresses
:meth:`~TraceStore.get` never probes again) and the derived artifacts of
:mod:`repro.trace.artifacts`, which live and die with their parent trace.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro import faults
from repro.diskstore import (
    DiskStore,
    Unlink,
    resolve_cache_root,
    header_schema,
)
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

#: Process-wide memo of parsed artifacts, keyed by (path, mtime_ns, size):
#: a replay sweep probes and re-reads the same family trace once per cell,
#: and the v2 decode (inflate + varint walk) is the expensive part.
_PARSE_CACHE: "OrderedDict[Tuple[str, int, int], Trace]" = OrderedDict()
_PARSE_CACHE_CAP = 8


def _memoize(path: Path, stat: os.stat_result, trace: Trace) -> None:
    _PARSE_CACHE[(str(path), stat.st_mtime_ns, stat.st_size)] = trace
    while len(_PARSE_CACHE) > _PARSE_CACHE_CAP:
        _PARSE_CACHE.popitem(last=False)


def _parse_cached(path: Path, stat: os.stat_result) -> Trace:
    cache_key = (str(path), stat.st_mtime_ns, stat.st_size)
    trace = _PARSE_CACHE.get(cache_key)
    if trace is None:
        trace = parse_trace_bytes(path.read_bytes())
        _memoize(path, stat, trace)
    else:
        _PARSE_CACHE.move_to_end(cache_key)
    return trace


class TraceStore(DiskStore):
    """Content-addressed disk store of :class:`Trace` artifacts."""

    NAME = "trace"
    FAULT_SITE = "trace.put"
    PUT_ERROR_COUNTER = "trace.store.put_error"
    SUFFIX = ".trace"
    CORRUPT = (OSError, TraceError, faults.FaultError)
    PRUNE_BUCKETS = DiskStore.PRUNE_BUCKETS + ("artifacts",)

    def __init__(self, root: Optional[os.PathLike] = None):
        super().__init__(resolve_cache_root(root) / TRACE_SUBDIR)

    def path_for(self, key: TraceKey) -> Path:
        h = key.key_hash
        return self.root / h[:2] / f"{h}.trace"

    def is_current(self, path: Path) -> bool:
        magics = (TRACE_MAGIC, MULTI_TRACE_MAGIC)
        return header_schema(path, magics) == TRACE_SCHEMA

    def get(self, key: TraceKey) -> Optional[Trace]:
        def load(path: Path, stat: os.stat_result) -> Trace:
            faults.check("trace.decode", key=key.key_hash)
            return _parse_cached(path, stat)
        return self._read(self.path_for(key), load)

    def put(self, trace: Trace) -> Optional[Path]:
        """Persist one trace; None when the write failed (see
        :meth:`~repro.diskstore.DiskStore._write`)."""
        data = trace.to_bytes()
        path = self._write(self.path_for(trace.key), data, trace.key.key_hash)
        if path is not None:
            # Seed the parse memo so the sweep that just captured this trace
            # does not pay a decode to read its own write back — only when
            # the file holds exactly the encoded bytes, so the memo never
            # masks a torn write.
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - stat raced a concurrent delete
                return path
            if stat.st_size == len(data):
                _memoize(path, stat, trace)
        return path

    # -- introspection ------------------------------------------------------------
    def entries(self) -> Iterator[Tuple[Path, Trace]]:
        """Yield ``(path, trace)`` for every readable stored trace."""
        for path in self._entry_paths():
            try:
                yield path, parse_trace_bytes(path.read_bytes())
            except (OSError, TraceError):
                continue

    def disk_stats(self) -> Dict[str, int]:
        """:meth:`DiskStore.disk_stats` plus the derived-artifact totals."""
        art = self._artifact_store().disk_stats()
        return {**super().disk_stats(), "artifact_entries": art["entries"],
                "artifact_bytes": art["bytes"]}

    # -- derived artifacts share their parent trace's lifecycle -------------------
    # Their bytes count toward prune()'s max_bytes, they are deleted when
    # their parent is evicted, and orphaned or stale-schema artifact files
    # (and leaked artifact tmp files) are swept unconditionally.
    def _artifact_store(self):
        from repro.trace.artifacts import ArtifactStore
        return ArtifactStore(self.root)

    def _tmp_files(self, min_age_seconds: float = 0.0) -> List[Path]:
        return (super()._tmp_files(min_age_seconds) +
                self._artifact_store()._tmp_files(min_age_seconds))

    def _prune_dependents(self, live: List[Tuple[float, int, Path]],
                          unlink: Unlink) -> List[Tuple[float, int, Path]]:
        art_store = self._artifact_store()
        # Runs after the trace scan, so artifacts of a trace removed there
        # (stale schema) register as orphans here.  Surviving artifacts are
        # charged to their parent's LRU record: the pair is evicted — or
        # kept — as a unit.
        art_sizes: Dict[str, int] = {}
        for pdir in sorted(p for p in art_store.root.glob("*") if p.is_dir()):
            parent = pdir.name
            orphan = not (self.root / parent[:2] / f"{parent}.trace").is_file()
            for path in sorted(pdir.glob(f"*{art_store.SUFFIX}")):
                try:
                    size = path.stat().st_size
                except OSError:
                    continue
                if orphan or not art_store.is_current(path):
                    unlink(path, "artifacts")
                else:
                    art_sizes[parent] = art_sizes.get(parent, 0) + size
            try:
                pdir.rmdir()   # only succeeds once emptied
            except OSError:
                pass
        return [(atime, size + art_sizes.get(path.stem, 0), path)
                for atime, size, path in live]

    def _evict_dependents(self, path: Path, unlink: Unlink) -> None:
        art_store = self._artifact_store()
        pdir = art_store.root / path.stem
        for art in sorted(pdir.glob(f"*{art_store.SUFFIX}")):
            unlink(art, "artifacts")
        try:
            pdir.rmdir()
        except OSError:
            pass

    def persist_stats(self) -> Dict[str, int]:
        """Flush this session's counter deltas into the sidecar file."""
        from repro.trace import artifacts
        # The derived-artifact store shares this sidecar (prefixed keys);
        # flushing here lets every existing persist call site cover both.
        artifacts.flush_stats_for(self.root)
        return super().persist_stats()


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
