"""Spec identity of the sweep engine: what one cell is, and its content hash.

:class:`RunSpec` is one fully-resolved, frozen cell of the evaluation
matrix; its :attr:`~RunSpec.spec_hash` is a SHA-256 over the canonical JSON
of the spec and :data:`STORE_SCHEMA`, so identical specs hash identically
however they were built.  :class:`SweepSpec` is a declarative cartesian
product of cells and :class:`RunRecord` the plain-data result of one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.harness.config import MachineConfig, PTLSIM_CONFIG

#: Version of the store schema; a mismatch turns a disk entry into a miss.
STORE_SCHEMA = 1

_OverrideItems = Tuple[Tuple[str, Any], ...]


def _freeze_mapping(mapping: Optional[Mapping[str, Any]]) -> _OverrideItems:
    """Canonicalise a mapping into a sorted, hashable tuple of items."""
    if not mapping:
        return ()
    return tuple(sorted(mapping.items()))


#: Overrides that restate the paper-default machine and must hash the same
#: as omitting the key: single-core, the flat (1-cluster) uncore and its
#: NUMA/LLC knobs, and the Table 1 directory size.  Values are read off
#: PTLSIM_CONFIG so this set can never drift from the config defaults.
_DEFAULT_MACHINE_ITEMS = frozenset(
    (name, getattr(PTLSIM_CONFIG, name))
    for name in ("num_cores", "num_clusters", "directory_entries",
                 "numa_remote_latency", "llc_size", "llc_assoc",
                 "llc_latency"))


def _freeze_machine(mapping: Optional[Mapping[str, Any]]) -> _OverrideItems:
    """Canonicalise machine overrides for hashing.

    Overrides that restate a paper default (``num_cores=1``,
    ``num_clusters=1``, ``directory_entries=32``, and the cluster-mode
    NUMA/LLC knobs at their defaults) are dropped: a cell built as
    ``{"num_cores": 1, ...}`` (the sweep CLI spells every ``--cores`` cell
    that way) must hash — and hit the result store — the same as one that
    simply omits the key.  Every other override, including the same knobs
    at non-default values, is kept verbatim.
    """
    return tuple(kv for kv in _freeze_mapping(mapping)
                 if kv not in _DEFAULT_MACHINE_ITEMS)


# ------------------------------------------------------------------------ RunSpec
@dataclass(frozen=True)
class RunSpec:
    """One frozen, content-hashed cell of the evaluation matrix.

    ``kind`` selects the workload family: ``"kernel"`` runs a NAS-like
    kernel through the compiler (``workload`` names it), ``"micro"`` runs
    the Table 2 / Figure 7 microbenchmark (``params`` carries ``micro_mode``,
    ``guarded_fraction``, ``iterations`` and ``unroll``).
    """

    workload: str
    mode: str
    scale: str = "small"
    machine: _OverrideItems = ()
    kind: str = "kernel"
    params: _OverrideItems = ()

    #: Spec kinds the executor understands.  ``"replay"`` is a kernel cell
    #: resolved through the trace subsystem: the dynamic stream is captured
    #: once per (workload, mode, scale, functional machine parameters) and
    #: re-timed under this cell's machine overrides (see :mod:`repro.trace`).
    KINDS = ("kernel", "micro", "replay")

    @classmethod
    def create(cls, workload: str, mode: str, scale: str = "small",
               machine: Optional[Mapping[str, Any]] = None,
               kind: str = "kernel",
               params: Optional[Mapping[str, Any]] = None) -> "RunSpec":
        """Build a spec with every key part normalised (case, whitespace)."""
        return cls(
            # Replay cells are kernel cells resolved through the trace
            # subsystem, so they normalise (and hash) identically.
            workload=(workload.strip().upper() if kind in ("kernel", "replay")
                      else workload.strip()),
            mode=mode.strip().lower(),
            scale=scale.strip().lower(),
            machine=_freeze_machine(machine),
            kind=kind,
            params=_freeze_mapping(params),
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "mode": self.mode,
            "scale": self.scale,
            "machine": dict(self.machine),
            "kind": self.kind,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        return cls.create(
            workload=data["workload"], mode=data["mode"], scale=data["scale"],
            machine=data.get("machine"), kind=data.get("kind", "kernel"),
            params=data.get("params"))

    @property
    def spec_hash(self) -> str:
        """Content hash: SHA-256 of the canonical JSON of the spec."""
        payload = json.dumps(
            {"schema": STORE_SCHEMA, **self.as_dict()},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @property
    def label(self) -> str:
        parts = [self.workload, self.mode, self.scale]
        if self.machine:
            parts.append(",".join(f"{k}={v}" for k, v in self.machine))
        if self.params:
            parts.append(",".join(f"{k}={v}" for k, v in self.params))
        return ":".join(parts)

    def resolve_machine(self, base: Optional[MachineConfig] = None) -> MachineConfig:
        """Apply this spec's overrides to ``base`` (default: Table 1)."""
        machine = base or PTLSIM_CONFIG
        if self.machine:
            machine = machine.with_overrides(dict(self.machine))
        return machine


# ----------------------------------------------------------------------- SweepSpec
@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: the cartesian product of its four axes.

    ``machines`` is a tuple of override sets (each a frozen items-tuple of
    :class:`~repro.harness.config.MachineConfig` field overrides, with dotted
    paths such as ``memory.prefetch_enabled`` reaching into sub-configs).  An
    empty override set is the Table 1 machine.
    """

    workloads: Tuple[str, ...]
    modes: Tuple[str, ...]
    scales: Tuple[str, ...] = ("small",)
    machines: Tuple[_OverrideItems, ...] = ((),)

    @classmethod
    def create(cls, workloads: Sequence[str], modes: Sequence[str],
               scales: Sequence[str] = ("small",),
               machines: Optional[Sequence[Mapping[str, Any]]] = None) -> "SweepSpec":
        return cls(
            workloads=tuple(w.strip().upper() for w in workloads),
            modes=tuple(m.strip().lower() for m in modes),
            scales=tuple(s.strip().lower() for s in scales),
            machines=tuple(_freeze_mapping(m) for m in machines) if machines else ((),),
        )

    def cells(self) -> List[RunSpec]:
        """Resolve the product into frozen specs, in deterministic order."""
        out = []
        for machine in self.machines:
            for scale in self.scales:
                for workload in self.workloads:
                    for mode in self.modes:
                        out.append(RunSpec.create(
                            workload, mode, scale, machine=dict(machine)))
        return out


# ----------------------------------------------------------------------- RunRecord
@dataclass
class RunRecord:
    """Plain-data result of one cell — everything the drivers consume.

    The record intentionally mirrors the accessor surface of the live
    :class:`~repro.harness.runner.RunResult` (``cycles``, ``instructions``,
    ``total_energy``, ``phase_cycles``, ``memory_stats``, ``energy_groups``,
    guarded-reference counters), so the figure/table drivers work with
    either.
    """

    workload: str
    mode: str
    scale: str
    kind: str
    spec_hash: str
    machine_overrides: Dict[str, Any]
    params: Dict[str, Any]
    cycles: float
    instructions: int
    phase_cycles: Dict[str, float]
    mispredictions: int
    branch_predictions: int
    memory_stats: Dict[str, Any]
    core_stats: Dict[str, Any]
    energy: Dict[str, float]
    guarded_references: int = 0
    total_references: int = 0
    emits_guards: bool = False
    sim_wall_seconds: float = 0.0

    # -- derived -----------------------------------------------------------------
    @property
    def total_energy(self) -> float:
        return self.energy.get("total", 0.0)

    @property
    def energy_groups(self) -> Dict[str, float]:
        """The Figure 10 component grouping (CPU / Caches / LM / Others)."""
        return {
            "CPU": self.energy.get("cpu", 0.0),
            "Caches": self.energy.get("caches", 0.0),
            "LM": self.energy.get("lm", 0.0),
            "Others": self.energy.get("others", 0.0),
        }

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles > 0 else 0.0

    # -- serialisation ------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})
