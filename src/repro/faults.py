"""Deterministic fault injection for the sweep/replay/store pipeline.

Every recovery path in the engine — cell retry, pool rebuild, store
degradation, replay's fallback from the vector engine to execution-driven
simulation — exists because something can fail
in production; none of it is trustworthy unless a test can provoke that
failure *on demand* and *reproducibly*.  This module is the one switchboard:
named **injection sites** threaded through the pipeline call
:func:`check` / :func:`fire`, and the ``REPRO_FAULTS`` environment variable
activates them.  With the variable unset the entire layer is a single dict
lookup per site (the sites sit at per-cell / per-pass granularity, never in
per-instruction loops), which keeps the ``python -m repro.obs overhead``
perf guard honest — the same zero-overhead-when-off discipline as
:class:`repro.obs.NullRecorder`.

Sites currently wired (grep for ``faults.check`` / ``faults.fire`` and the
stores' ``FAULT_SITE``):

=====================  ===========================================================
``worker.exec``        start of :func:`~repro.harness.sweep.execute_spec`
                       (key = spec hash, attempt = retry number)
``capture.exec``       pool entry of the capture-once pre-pass (key = trace key)
``store.put``          :meth:`~repro.diskstore.DiskStore._write` via
                       :meth:`ResultStore.put <repro.harness.sweep.ResultStore.put>`
``trace.put``          :meth:`~repro.diskstore.DiskStore._write` via
                       :meth:`~repro.trace.store.TraceStore.put`
``trace.decode``       :meth:`~repro.trace.store.TraceStore.get` (parse path)
``artifact.write``     :meth:`~repro.diskstore.DiskStore._write` via
                       :meth:`~repro.trace.artifacts.ArtifactStore.put`
``ckernel.compile``    :func:`repro.trace._ckernel.load`
``vector.prelower``    the vector engine's prelowering pass
=====================  ===========================================================

Spec grammar — ``;``-separated clauses::

    REPRO_FAULTS = clause (';' clause)*
    clause       = 'seed=' INT
                 | site ['@' keyfilter] ['=' kind] [':' rate] ['x' limit]
    site         = dotted name, '*' suffix allowed for prefix match
    kind         = 'err' | 'os' | 'crash' | 'torn' | 'hang' [seconds]

Examples::

    worker.exec=crash:0.5        crash half of all cell executions
    worker.exec=errx1            every cell fails once, succeeds on retry
    worker.exec=crash@3f9a       permanently crash cells whose key contains 3f9a
    store.put=os                 every result write raises ENOSPC
    ckernel.compile=err          C-kernel unavailable -> replay executes
    worker.exec=hang5x1;seed=7   first attempt of each cell stalls 5 seconds

Determinism: whether a clause fires is a pure function of
``(seed, site, key, attempt)`` — a SHA-256 in [0, 1) compared against the
clause's rate — so an injected crash reproduces bit-identically in any
process, on any host, regardless of scheduling or ``PYTHONHASHSEED``.  The
``attempt`` axis re-rolls the decision on every retry, and the ``x`` limit
bounds injection to the first N attempts (``x1`` = fail once then succeed:
the canonical transient fault), while a clause without a limit at rate 1.0
is a permanently poisoned site.

Kinds map to failure modes: ``err`` raises :class:`FaultError` (a generic
in-process failure), ``os`` raises ``OSError(ENOSPC)`` (the store
degradation trigger), ``crash`` raises :class:`FaultCrash` which pool
workers translate into ``os._exit`` (a hard worker death ->
``BrokenProcessPool``), ``torn`` truncates the bytes a store was about to
write (exercising corrupted-entry recovery), and ``hang<seconds>`` sleeps
(exercising the per-cell wall-clock timeout).
"""

from __future__ import annotations

import errno
import hashlib
import os
import re
import time
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro import obs

__all__ = [
    "FAULTS_ENV",
    "FaultClause",
    "FaultCrash",
    "FaultError",
    "FaultPlan",
    "FaultSpecError",
    "apply_write_fault",
    "check",
    "fire",
]

#: Environment variable carrying the fault spec.
FAULTS_ENV = "REPRO_FAULTS"

_KINDS = ("err", "os", "crash", "torn", "hang")


class FaultError(RuntimeError):
    """Generic injected failure (kind ``err``): an in-process exception."""


class FaultCrash(RuntimeError):
    """Injected hard crash (kind ``crash``).

    Raised in-process; pool worker entry points translate it into
    ``os._exit`` so the parent sees a dead worker (``BrokenProcessPool``),
    while inline execution surfaces it as an ordinary retryable exception.
    """


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` clause could not be parsed."""


_CLAUSE = re.compile(
    r"^(?P<site>[A-Za-z_][A-Za-z0-9_.]*\*?|\*)"
    r"(?:@(?P<key>[^=:;]*))?"
    # The kind alternation is spelled out (rather than [A-Za-z]+) so a
    # trailing "x<limit>" is never swallowed as kind letters ("errx1").
    r"(?:=(?P<kind>(?:err|os|crash|torn|hang)(?:[0-9.]+)?))?"
    r"(?::(?P<rate>[0-9.]+))?"
    r"(?:x(?P<limit>[0-9]+))?$")


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause of the spec: where, what, how often, how long."""

    site: str                       #: site name, optionally ``*``-suffixed
    key_filter: str = ""            #: substring the site key must contain
    kind: str = "err"
    arg: Optional[float] = None     #: kind parameter (``hang`` seconds)
    rate: float = 1.0
    limit: Optional[int] = None     #: fire only while ``attempt < limit``

    def matches_site(self, site: str) -> bool:
        if self.site == "*":
            return True
        if self.site.endswith("*"):
            return site.startswith(self.site[:-1])
        return site == self.site


class FaultPlan:
    """A parsed ``REPRO_FAULTS`` spec: ordered clauses plus the seed."""

    def __init__(self, clauses: Tuple[FaultClause, ...], seed: int = 0):
        self.clauses = clauses
        self.seed = seed

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        clauses = []
        seed = 0
        for raw in text.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            if raw.startswith("seed="):
                try:
                    seed = int(raw[5:])
                except ValueError:
                    raise FaultSpecError(f"bad fault seed {raw!r}")
                continue
            match = _CLAUSE.match(raw)
            if match is None:
                raise FaultSpecError(
                    f"bad {FAULTS_ENV} clause {raw!r} (expected "
                    "site[@key][=kind][:rate][xlimit])")
            kind_text = match.group("kind") or "err"
            kind_match = re.match(r"([A-Za-z]+)([0-9.]+)?$", kind_text)
            kind = kind_match.group(1) if kind_match else kind_text
            if kind not in _KINDS:
                raise FaultSpecError(
                    f"unknown fault kind {kind!r} in {raw!r} "
                    f"(expected one of {_KINDS})")
            arg = None
            if kind_match and kind_match.group(2):
                try:
                    arg = float(kind_match.group(2))
                except ValueError:
                    raise FaultSpecError(f"bad fault kind arg in {raw!r}")
            try:
                rate = float(match.group("rate")) if match.group("rate") else 1.0
            except ValueError:
                raise FaultSpecError(f"bad fault rate in {raw!r}")
            if not 0.0 <= rate <= 1.0:
                raise FaultSpecError(f"fault rate {rate} not in [0, 1] "
                                     f"in {raw!r}")
            clauses.append(FaultClause(
                site=match.group("site"),
                key_filter=match.group("key") or "",
                kind=kind, arg=arg, rate=rate,
                limit=int(match.group("limit")) if match.group("limit")
                else None))
        return cls(tuple(clauses), seed)

    def fire(self, site: str, key: str, attempt: int) -> Optional[FaultClause]:
        """First clause that decides to fire at this site, or None."""
        for clause in self.clauses:
            if not clause.matches_site(site):
                continue
            if clause.key_filter and clause.key_filter not in key:
                continue
            if clause.limit is not None and attempt >= clause.limit:
                continue
            if clause.rate >= 1.0 or _decision(
                    self.seed, site, key, attempt) < clause.rate:
                return clause
        return None


def _decision(seed: int, site: str, key: str, attempt: int) -> float:
    """Pure deterministic draw in [0, 1) — identical in every process."""
    blob = f"{seed}|{site}|{key}|{attempt}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") / 2.0**64


# -- the process-wide active plan ---------------------------------------------------
# Parsed lazily from the environment and memoised on the spec string, so
# tests can flip REPRO_FAULTS inside one process and pool workers (which
# inherit the environment) reconstruct the identical plan.
_CACHED: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def active_plan() -> Optional[FaultPlan]:
    """The plan parsed from ``REPRO_FAULTS``, or None when unset/empty."""
    global _CACHED
    text = os.environ.get(FAULTS_ENV)
    if not text:
        return None
    if text != _CACHED[0]:
        _CACHED = (text, FaultPlan.parse(text))
    return _CACHED[1]


def fire(site: str, key: object = "", attempt: int = 0
         ) -> Optional[FaultClause]:
    """The clause injected at this (site, key, attempt), or None.

    The common path — no ``REPRO_FAULTS`` — is one environment lookup.
    Sites that need to *handle* a fault themselves (torn writes) call this
    and interpret the clause; everything else goes through :func:`check`.
    A fired clause is counted (``faults.injected`` and ``faults.<site>``)
    and logged through the shared logger.
    """
    plan = active_plan()
    if plan is None:
        return None
    clause = plan.fire(site, str(key), attempt)
    if clause is not None:
        obs.incr("faults.injected")
        obs.incr(f"faults.{site}")
        obs.get_logger().warning(
            "fault injected at %s (key=%s attempt=%d kind=%s)",
            site, key, attempt, clause.kind)
    return clause


def check(site: str, key: object = "", attempt: int = 0) -> None:
    """Raise (or stall) if the active plan injects a fault here.

    ``err``/``torn`` raise :class:`FaultError`, ``os`` raises
    ``OSError(ENOSPC)``, ``crash`` raises :class:`FaultCrash`, ``hang``
    sleeps for its argument (default 1s) and returns.
    """
    clause = fire(site, key, attempt)
    if clause is not None:
        _raise(clause, site, key, attempt)


def _raise(clause: FaultClause, site: str, key: object, attempt: int) -> None:
    where = f"at {site} (key={key}, attempt={attempt})"
    if clause.kind == "hang":
        time.sleep(clause.arg if clause.arg is not None else 1.0)
        return
    if clause.kind == "os":
        raise OSError(errno.ENOSPC, f"injected ENOSPC {where}")
    if clause.kind == "crash":
        raise FaultCrash(f"injected worker crash {where}")
    raise FaultError(f"injected fault {where}")


def apply_write_fault(clause: FaultClause, site: str, key: object,
                      data: Union[bytes, str]) -> Union[bytes, str]:
    """Apply a fired clause to bytes a store is about to write.

    ``torn`` returns the first half of ``data`` — the caller writes the
    truncated blob to the *final* path, simulating a torn write whose
    corruption is only discovered by the next reader; every other kind
    behaves as in :func:`check` (``hang`` stalls then writes normally).
    """
    if clause.kind == "torn":
        return data[:len(data) // 2]
    _raise(clause, site, key, 0)
    return data
