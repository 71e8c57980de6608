"""The sweep engine's content-addressed on-disk result store."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from repro.diskstore import DiskStore, resolve_cache_root
from repro.harness.sweep.spec import STORE_SCHEMA, RunRecord, RunSpec

# --------------------------------------------------------------------- ResultStore
class ResultStore(DiskStore):
    """Content-addressed disk cache of :class:`RunRecord` objects.

    Layout: ``<root>/<hash[:2]>/<hash>.json``; each file holds the schema
    version, the spec (for debuggability) and the record.  A file that
    cannot be parsed, fails the schema check, or does not round-trip into a
    record is a corrupted miss (:meth:`~repro.diskstore.DiskStore._read`).
    """

    NAME = "result"
    FAULT_SITE = "store.put"
    PUT_ERROR_COUNTER = "sweep.store.put_error"
    SUFFIX = ".json"
    CORRUPT = (OSError, ValueError, TypeError, KeyError, AttributeError)
    COUNTERS = DiskStore.COUNTERS + ("cell_retries", "cell_failures",
                                     "cell_quarantined")

    def __init__(self, root: Optional[os.PathLike] = None):
        super().__init__(resolve_cache_root(root))
        self.cell_retries = 0
        self.cell_failures = 0
        self.cell_quarantined = 0

    def path_for(self, spec: RunSpec) -> Path:
        h = spec.spec_hash
        return self.root / h[:2] / f"{h}.json"

    def is_current(self, path: Path) -> bool:
        try:
            return json.loads(path.read_bytes()).get("schema") == STORE_SCHEMA
        except (OSError, ValueError, AttributeError):
            return False

    def get(self, spec: RunSpec) -> Optional[RunRecord]:
        def load(path: Path, stat: os.stat_result) -> RunRecord:
            payload = json.loads(path.read_bytes())
            if payload.get("schema") != STORE_SCHEMA:
                raise ValueError(f"schema {payload.get('schema')!r} != {STORE_SCHEMA}")
            return RunRecord.from_dict(payload["record"])
        return self._read(self.path_for(spec), load)

    def put(self, spec: RunSpec, record: RunRecord) -> Optional[Path]:
        """Write one record; None when the write failed or was skipped (see
        :meth:`~repro.diskstore.DiskStore._write`)."""
        payload = {"schema": STORE_SCHEMA, "spec": spec.as_dict(),
                   "record": record.as_dict()}
        return self._write(self.path_for(spec), json.dumps(payload).encode(),
                           spec.spec_hash)

    def clear(self) -> int:
        """Remove every entry; returns the number of files removed."""
        removed = 0
        for entry in self._entry_paths():
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def prune(self, max_bytes: Optional[int] = None,
              max_age_days: Optional[float] = None) -> int:
        """:meth:`DiskStore.prune <repro.diskstore.DiskStore.prune>`;
        returns the number of files removed.

        Bumping :data:`STORE_SCHEMA` turns old entries into permanent misses
        that :meth:`get` never touches again (their hashes embed the old
        schema); this sweeps those dead files out.  The trace store's
        subtree nests one level deeper and is left to its own prune().
        """
        counts = super().prune(max_bytes=max_bytes, max_age_days=max_age_days)
        return sum(counts[bucket] for bucket in self.PRUNE_BUCKETS)
