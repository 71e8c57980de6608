"""Filesystem mechanics shared by the content-addressed disk stores.

The sweep engine's :class:`~repro.harness.sweep.ResultStore`, the
:class:`~repro.trace.store.TraceStore` and the derived-artifact
:class:`~repro.trace.artifacts.ArtifactStore` all keep one file per key
under ``<root>/<bucket>/<name><suffix>``.  :class:`DiskStore` owns what they
have in common, once:

* **atomic puts** — :meth:`DiskStore._write` writes ``<name>.tmp.<pid>``
  and renames it over the entry, removing the tmp file if anything fails;
* **torn reads are misses** — :meth:`DiskStore._read` counts a file that
  fails to load as ``corrupted``, removes it and reports a miss; a hit
  refreshes the access time (keeping the mtime) so LRU pruning sees it;
* **degrade, never fail** — a write ``OSError`` (ENOSPC, EROFS, quota) is
  absorbed and counted; after :attr:`DiskStore.DEGRADE_AFTER` *consecutive*
  failures the store stops writing for the session (one
  ``degraded.store.<name>`` event) but keeps serving reads — the disk may
  be readable but full.  A successful write re-arms the latch;
* **capacity management** — :meth:`DiskStore.prune` sweeps entries that are
  not :meth:`~DiskStore.is_current` (stale schema, unreadable) and leaked
  tmp files, then evicts least-recently-used entries (:func:`evict_lru`);
* **lifetime counters** — session counters merge into a ``stats.meta``
  sidecar at the store root (:meth:`DiskStore.persist_stats`).

A subclass supplies only its key → path mapping, its (de)serialisation, its
:attr:`~DiskStore.CORRUPT` exceptions, :meth:`~DiskStore.is_current` and its
fault-site / obs names.
"""

from __future__ import annotations

import json
import os
import struct
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
                    TypeVar)

from repro import faults, obs

#: Default cache root (overridable with ``$REPRO_CACHE_DIR``).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Name of the lifetime-counter sidecar file at a store's root (JSON
#: content).  The extension is deliberately not ``.json``/``.trace``: the
#: trace store nests under the result store's root, so the sidecar at
#: ``<cache>/traces/`` must not match the result store's ``*/*.json`` entry
#: glob (which would count — and prune — it as a stale entry).
STATS_SIDECAR = "stats.meta"

#: Tmp files younger than this (seconds) are presumed to belong to a live
#: writer (between its write and its ``os.replace``) and are not swept.
TMP_SWEEP_MIN_AGE = 3600.0

T = TypeVar("T")


def resolve_cache_root(root: Optional[os.PathLike] = None) -> Path:
    """``root``, else ``$REPRO_CACHE_DIR``, else :data:`DEFAULT_CACHE_DIR`."""
    return Path(root if root is not None
                else os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


def header_schema(path: Path, magics: Sequence[bytes]) -> Optional[int]:
    """The ``<H`` schema after a 4-byte magic in ``path``'s header.

    None when the file is unreadable, too short or carries none of
    ``magics``.  Reads 6 bytes, so pruning never parses a whole entry.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(6)
    except OSError:
        return None
    if len(head) < 6 or head[:4] not in magics:
        return None
    return struct.unpack_from("<H", head, 4)[0]


def _replace_atomically(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via ``<name>.tmp.<pid>`` + ``os.replace``.

    On any ``OSError`` the tmp file is removed before the error propagates,
    so a failed write leaves neither a partial entry nor a leaked tmp file.
    """
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


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


def tmp_files_under(root: Path, min_age_seconds: float = 0.0) -> List[Path]:
    """Leaked ``*.tmp.<pid>`` files one directory level under ``root``.

    Files modified within the last ``min_age_seconds`` are skipped — they
    may belong to a writer currently between its write and its rename;
    sweeping those would crash the writer.
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

    The one LRU policy of every store.  With ``max_age_days``, records whose
    access time is older than the cutoff are evicted; with ``max_bytes``,
    records are evicted oldest-access-first until the surviving total fits.
    Equal access times are routine (filesystems round atimes coarsely, and a
    sweep touches many entries in the same instant), so ties are broken by
    *path* — deterministic and insertion-stable — never by size, which
    would otherwise evict the largest entry of a tie regardless of recency.

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


#: ``unlink(path, bucket)`` as handed to the prune hooks: removes the file,
#: counts it in ``bucket`` and its size in ``freed_bytes``.
Unlink = Callable[[Path, str], bool]


class DiskStore(ABC):
    """Base of the content-addressed disk stores (see the module docstring).

    Subclasses set the class attributes below, implement
    :meth:`is_current`, and define their public ``get``/``put`` as thin
    calls into :meth:`_read` / :meth:`_write`.
    """

    #: Consecutive write failures that trip :attr:`degraded`.
    DEGRADE_AFTER = 3
    #: Short store name: ``degraded.store.<NAME>`` and log messages.
    NAME = ""
    #: Fault-injection site of :meth:`_write` (see :mod:`repro.faults`).
    FAULT_SITE = ""
    #: obs counter bumped on every failed write.
    PUT_ERROR_COUNTER = ""
    #: Entry file suffix; entries live at ``<root>/*/*<SUFFIX>``.
    SUFFIX = ""
    #: Exceptions a load raises for a corrupt entry (read as a miss).
    CORRUPT: Tuple[type, ...] = (OSError, ValueError)
    #: Session counters reported by :meth:`stats` (and persisted).
    COUNTERS: Tuple[str, ...] = ("hits", "misses", "corrupted", "writes",
                                 "evictions", "put_errors")
    #: Prefix of the counter names in :meth:`stats` and the sidecar, so two
    #: stores can share one sidecar without colliding.
    STATS_PREFIX = ""
    #: Removal buckets counted by :meth:`prune` (and its hooks).
    PRUNE_BUCKETS: Tuple[str, ...] = ("stale_schema", "tmp_files", "evicted")

    def __init__(self, root: Path, sidecar_root: Optional[Path] = None):
        self.root = root
        self.sidecar_root = root if sidecar_root is None else sidecar_root
        self.hits = 0
        self.misses = 0
        self.corrupted = 0
        self.writes = 0
        self.evictions = 0
        self.put_errors = 0
        #: True once DEGRADE_AFTER consecutive writes failed; writes become
        #: no-ops, reads keep working.
        self.degraded = False
        self._consecutive_put_errors = 0
        #: Counter values already flushed to the sidecar by persist_stats().
        self._persisted: Dict[str, int] = {}

    # -- subclass hook --------------------------------------------------------
    @abstractmethod
    def is_current(self, path: Path) -> bool:
        """Whether the entry at ``path`` has the current schema (cheap: no
        full parse).  Entries that are not are stale; :meth:`prune` sweeps
        them."""

    # -- read / write ---------------------------------------------------------
    def _read(self, path: Path,
              load: Callable[[Path, os.stat_result], T]) -> Optional[T]:
        """``load(path, stat)`` on a hit; None on a miss.

        A file that ``load`` rejects with one of :attr:`CORRUPT` is counted
        in :attr:`corrupted`, removed and reported as a miss.  A hit
        refreshes the access time explicitly — relatime/noatime mounts would
        otherwise starve the LRU eviction of signal — and keeps the mtime.
        """
        try:
            stat = path.stat()
            value = load(path, stat)
        except FileNotFoundError:
            self.misses += 1
            return None
        except self.CORRUPT:
            self.corrupted += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        try:
            os.utime(path, ns=(time.time_ns(), stat.st_mtime_ns))
        except OSError:
            pass
        return value

    def _write(self, path: Path, data: bytes, key: str) -> Optional[Path]:
        """Persist ``data`` at ``path`` atomically; best-effort.

        An ``OSError`` is absorbed and counted (:attr:`put_errors`) rather
        than raised: a failed persist only costs a future recompute, never
        the result the caller already holds.  Returns the entry path, or
        None when the write failed or the store is :attr:`degraded`.
        """
        if self.degraded:
            return None
        clause = faults.fire(self.FAULT_SITE, key=key)
        try:
            if clause is not None:
                # "torn" truncates the blob (the next read sees a corrupted
                # entry); "os" raises into the handler below.
                data = faults.apply_write_fault(clause, self.FAULT_SITE,
                                                key, data)
            _replace_atomically(path, data)
        except OSError as exc:
            self.put_errors += 1
            self._consecutive_put_errors += 1
            obs.incr(self.PUT_ERROR_COUNTER)
            obs.get_logger().warning("%s store put failed for %s: %r",
                                     self.NAME, key, exc)
            if self._consecutive_put_errors >= self.DEGRADE_AFTER:
                self.degraded = True
                obs.degraded(
                    f"store.{self.NAME}",
                    f"{self._consecutive_put_errors} consecutive write "
                    f"failures (last: {exc!r}); memory-only for this session",
                    root=str(self.root))
            return None
        self._consecutive_put_errors = 0
        self.writes += 1
        return path

    # -- introspection --------------------------------------------------------
    def _entry_paths(self) -> Iterator[Path]:
        if self.root.is_dir():
            yield from sorted(self.root.glob(f"*/*{self.SUFFIX}"))

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def _tmp_files(self, min_age_seconds: float = 0.0) -> List[Path]:
        return tmp_files_under(self.root, min_age_seconds)

    def disk_stats(self) -> Dict[str, int]:
        """On-disk shape: entries, bytes, stale-schema files, leaked temps,
        plus the lifetime counters (sidecar + session)."""
        entries = stale = total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
            if not self.is_current(path):
                stale += 1
        return {"entries": entries, "bytes": total, "stale_schema": stale,
                "tmp_files": len(self._tmp_files()),
                "lifetime": self.lifetime_stats()}

    # -- capacity management --------------------------------------------------
    def prune(self, max_bytes: Optional[int] = None,
              max_age_days: Optional[float] = None) -> Dict[str, int]:
        """Shrink the store: stale/tmp sweep plus LRU-by-atime eviction.

        Always removes entries that are not :meth:`is_current` and leaked
        ``*.tmp.<pid>`` files older than :data:`TMP_SWEEP_MIN_AGE` (a
        concurrent writer's in-flight temp file is left alone).  With
        ``max_age_days``, entries whose access time is older are evicted;
        with ``max_bytes``, least-recently-used entries are evicted until
        the surviving total fits.  Returns the sweep counters
        (each of :attr:`PRUNE_BUCKETS`, ``freed_bytes``, ``kept`` and
        ``kept_bytes``).
        """
        counts = dict.fromkeys(self.PRUNE_BUCKETS +
                               ("freed_bytes", "kept", "kept_bytes"), 0)

        def unlink(path: Path, bucket: str) -> bool:
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                return False
            counts[bucket] += 1
            counts["freed_bytes"] += size
            if bucket == "evicted":
                self.evictions += 1
            return True

        for path in self._tmp_files(TMP_SWEEP_MIN_AGE):
            unlink(path, "tmp_files")
        live: List[Tuple[float, int, Path]] = []   # (atime, size, path)
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            if self.is_current(path) or not unlink(path, "stale_schema"):
                live.append((stat.st_atime, stat.st_size, path))
        live = self._prune_dependents(live, unlink)

        def evict(path: Path, size: int) -> bool:
            if not unlink(path, "evicted"):
                return False
            self._evict_dependents(path, unlink)
            return True

        live = evict_lru(live, evict, max_bytes=max_bytes,
                         max_age_days=max_age_days)
        counts["kept"] = len(live)
        counts["kept_bytes"] = sum(size for _, size, _ in live)
        return counts

    def _prune_dependents(self, live: List[Tuple[float, int, Path]],
                          unlink: Unlink) -> List[Tuple[float, int, Path]]:
        """Hook: sweep files that live and die with the entries in ``live``
        and return the records to evict from (sizes may include them)."""
        return live

    def _evict_dependents(self, path: Path, unlink: Unlink) -> None:
        """Hook: remove what depends on the evicted entry at ``path``."""

    # -- lifetime counters ----------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {self.STATS_PREFIX + name: getattr(self, name)
                for name in self.COUNTERS}

    def lifetime_stats(self) -> Dict[str, int]:
        """Counters across every session: sidecar plus unflushed deltas."""
        lifetime = load_sidecar_stats(self.sidecar_root)
        for key, value in self.stats().items():
            lifetime[key] = (lifetime.get(key, 0) + value
                             - self._persisted.get(key, 0))
        return {key: value for key, value in lifetime.items()
                if key.startswith(self.STATS_PREFIX)}

    def persist_stats(self) -> Dict[str, int]:
        """Merge this session's not-yet-persisted counters into the sidecar.

        Only the delta since the last call is added, so repeated calls never
        double-count.  The write is atomic; concurrent writers may lose each
        other's increments — the counters are operational telemetry, not
        accounting, so last-writer-wins is acceptable.  Returns the merged
        lifetime counters (every key in the sidecar).
        """
        lifetime = load_sidecar_stats(self.sidecar_root)
        session = self.stats()
        for key, value in session.items():
            delta = value - self._persisted.get(key, 0)
            if delta:
                lifetime[key] = lifetime.get(key, 0) + delta
        self._persisted.update(session)
        try:
            _replace_atomically(
                self.sidecar_root / STATS_SIDECAR,
                (json.dumps(lifetime, sort_keys=True) + "\n").encode())
        except OSError:
            pass
        return lifetime
