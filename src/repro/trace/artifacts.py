"""On-disk cache of derived replay artifacts (decode/oracle/flags/prelower).

The vector replay engine's derivation passes — stream decode, oracle
routing, branch-flag resolution and the prelowered variant selector — are
pure functions of ``(stream digest, a small config projection)``.  Cold,
the oracle pass alone costs more than the timing kernel, yet the in-memory
memo caches in :mod:`repro.trace.vector` die with the process, so every
sweep-pool worker would pay them again.  This module persists the pass
products *next to their parent trace* so any later process — another
worker, a repeat CLI query — goes straight to the timing loop.

Layout: ``<cache>/traces/artifacts/<parent_hash>/<kind>-<key_hash>.art``,
where ``parent_hash`` is the owning trace's :attr:`TraceKey.key_hash` (the
multicore *family* hash for per-core streams, which have no file of their
own) and ``key_hash`` content-addresses the pass-specific key (stream
digest + config projection).  Grouping by parent makes lifecycle trivial:
when :meth:`TraceStore.prune` evicts a trace, its artifact directory goes
with it, and a directory whose parent trace no longer exists is an orphan
swept on the next prune.

Container format (``.art``): ``RPDA`` magic, a little-endian ``<H``
schema, a ``<I``-length JSON header (kind, JSON-safe metadata, section
name/length table) and the raw section bytes.  All byte production is
deterministic (sorted-key JSON, typed arrays) so identical inputs give
identical files across processes regardless of ``PYTHONHASHSEED``.
Atomic writes, torn files read as misses, atime refresh for LRU pruning
and the write-error latch are :class:`~repro.diskstore.DiskStore`'s.

:func:`scoped` is the one switch of the disk tier: ``--no-cache`` sweeps
turn it off per cell, and the replay passes then use only their in-memory
memos.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.diskstore import DiskStore, header_schema, resolve_cache_root
from repro.trace.store import TRACE_SUBDIR

__all__ = [
    "ARTIFACT_MAGIC",
    "ARTIFACT_SCHEMA",
    "ARTIFACT_SUBDIR",
    "ARTIFACT_SUFFIX",
    "ArtifactStore",
    "content_key_hash",
    "decode_artifact",
    "default_store",
    "encode_artifact",
    "flush_stats_for",
    "scoped",
]

#: Subdirectory of the trace store root holding derived artifacts.
ARTIFACT_SUBDIR = "artifacts"
ARTIFACT_MAGIC = b"RPDA"
ARTIFACT_SCHEMA = 3
#: Deliberately not ``.trace``: artifact files must never match the trace
#: store's ``*/*.trace`` globs (they are not parseable traces).
ARTIFACT_SUFFIX = ".art"

_HEADER = struct.Struct("<4sHI")    # magic, schema, header-JSON length


def content_key_hash(key) -> str:
    """Content address of a pass key (any JSON-serializable structure).

    Canonical JSON (sorted keys, no whitespace) makes the hash independent
    of dict ordering and ``PYTHONHASHSEED``; 16 hex characters are plenty
    for a per-trace namespace of a handful of (kind, config) points.
    """
    blob = json.dumps(key, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def encode_artifact(kind: str, meta: dict,
                    sections: Sequence[Tuple[str, bytes]]) -> bytes:
    """Serialize one artifact: header + named binary sections, in order."""
    table = []
    blobs = []
    for name, blob in sections:
        table.append([name, len(blob)])
        blobs.append(blob)
    header = json.dumps({"kind": kind, "meta": meta, "sections": table},
                        sort_keys=True, separators=(",", ":")).encode()
    return b"".join([_HEADER.pack(ARTIFACT_MAGIC, ARTIFACT_SCHEMA,
                                  len(header)), header] + blobs)


def decode_artifact(data: bytes) -> Tuple[str, dict, Dict[str, bytes]]:
    """Parse an artifact file; raises ``ValueError`` on any malformation."""
    if len(data) < _HEADER.size:
        raise ValueError("truncated artifact header")
    magic, schema, hlen = _HEADER.unpack_from(data)
    if magic != ARTIFACT_MAGIC:
        raise ValueError("not an artifact file")
    if schema != ARTIFACT_SCHEMA:
        raise ValueError(f"artifact schema {schema} != {ARTIFACT_SCHEMA}")
    off = _HEADER.size
    header = json.loads(data[off:off + hlen])
    off += hlen
    sections: Dict[str, bytes] = {}
    for name, length in header["sections"]:
        blob = data[off:off + length]
        if len(blob) != length:
            raise ValueError(f"truncated artifact section {name!r}")
        sections[name] = blob
        off += length
    return header["kind"], header["meta"], sections


class ArtifactStore(DiskStore):
    """Derived-artifact sidecar of one trace store (same cache lifecycle).

    Its counters share the trace store's ``stats.meta`` sidecar under
    ``artifact_``-prefixed names; :meth:`TraceStore.prune
    <repro.trace.store.TraceStore.prune>` sweeps and evicts its files.
    """

    NAME = "artifact"
    FAULT_SITE = "artifact.write"
    PUT_ERROR_COUNTER = "artifact.store.put_error"
    SUFFIX = ARTIFACT_SUFFIX
    COUNTERS = ("hits", "misses", "corrupted", "writes", "put_errors")
    STATS_PREFIX = "artifact_"

    def __init__(self, traces_root: os.PathLike):
        self.traces_root = Path(traces_root)
        super().__init__(self.traces_root / ARTIFACT_SUBDIR,
                         sidecar_root=self.traces_root)

    def path_for(self, parent_hash: str, kind: str, key) -> Path:
        return (self.root / parent_hash /
                f"{kind}-{content_key_hash(key)}{ARTIFACT_SUFFIX}")

    def is_current(self, path: Path) -> bool:
        return header_schema(path, (ARTIFACT_MAGIC,)) == ARTIFACT_SCHEMA

    def get(self, parent_hash: str, kind: str, key
            ) -> Optional[Tuple[dict, Dict[str, bytes]]]:
        """Load ``(meta, sections)`` for a pass key, or None on a miss.

        A file that cannot be parsed (torn write, stale schema) or whose
        stored kind disagrees with its name is removed and read as a miss.
        """
        def load(path: Path, stat: os.stat_result):
            stored_kind, meta, sections = decode_artifact(path.read_bytes())
            if stored_kind != kind:
                raise ValueError(f"artifact kind {stored_kind!r} != {kind!r}")
            return meta, sections
        return self._read(self.path_for(parent_hash, kind, key), load)

    def put(self, parent_hash: str, kind: str, key, meta: dict,
            sections: Sequence[Tuple[str, bytes]]) -> Optional[Path]:
        """Atomically persist one artifact; best-effort (None on I/O error)."""
        return self._write(self.path_for(parent_hash, kind, key),
                           encode_artifact(kind, meta, sections), parent_hash)


# -- process-wide default store ----------------------------------------------------
# The replay passes resolve their store lazily per call: the environment (or
# an explicit --cache-dir pin) names the cache root, and one ArtifactStore
# per resolved root keeps session counters coherent across passes.
_STORES: Dict[str, ArtifactStore] = {}
_OVERRIDE_ROOT: Optional[Path] = None
_DISABLED = False


def default_store() -> Optional[ArtifactStore]:
    """The artifact store replay passes should use, or None when disabled
    (see :func:`scoped`)."""
    if _DISABLED:
        return None
    root = (_OVERRIDE_ROOT if _OVERRIDE_ROOT is not None
            else resolve_cache_root() / TRACE_SUBDIR)
    cache_key = str(root)
    store = _STORES.get(cache_key)
    if store is None:
        store = _STORES[cache_key] = ArtifactStore(root)
    return store


@contextmanager
def scoped(cache_root: Optional[os.PathLike] = None, disabled: bool = False):
    """Pin or disable the default store for one scope (a sweep cell).

    ``disabled=True`` turns the disk tier off (no-cache replay cells: the
    trace never touches the filesystem, so neither may its derived
    artifacts); a ``cache_root`` pins artifacts next to the trace store the
    cell replays through (which may be an explicit ``--cache-dir``, not the
    environment default).  Both settings are restored on exit.
    """
    global _OVERRIDE_ROOT, _DISABLED
    prev_root, prev_disabled = _OVERRIDE_ROOT, _DISABLED
    if disabled:
        _DISABLED = True
    elif cache_root is not None:
        _OVERRIDE_ROOT = Path(cache_root) / TRACE_SUBDIR
    try:
        yield
    finally:
        _OVERRIDE_ROOT, _DISABLED = prev_root, prev_disabled


def flush_stats_for(traces_root: os.PathLike) -> None:
    """Persist the session counters of the store rooted at ``traces_root``
    (no-op if no artifact store was used for that root this session)."""
    store = _STORES.get(str(Path(traces_root)))
    if store is not None:
        store.persist_stats()
