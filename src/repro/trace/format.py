"""The on-disk trace format: versioned, compact, machine-config-independent.

A trace records the *dynamic functional stream* of one simulation — exactly
the information the execution frontend produces and the timing models
consume, and nothing the machine configuration influences:

* **branch outcomes** — one bit per executed conditional branch, in
  program order (unconditional jumps are static and not recorded);
* **memory addresses** — one 64-bit virtual address per executed load or
  store (guardedness, collapse marks and oracle hints are static
  instruction attributes and therefore not recorded);
* **DMA operands** — the ``(lm_vaddr, sm_addr, size)`` register triple of
  every executed ``dma-get``/``dma-put`` (tags are static immediates).

Everything else about the dynamic stream — the instruction sequence itself,
phases, functional-unit classes, guard flags — is reconstructed at replay
time by walking the *static* program with the recorded branch outcomes, so
traces stay small (a few bits/bytes per retired instruction).

The stream is independent of cache sizes, latencies, functional-unit counts
and every other *timing* parameter, but it does depend on the *functional*
machine parameters that shape compilation and divert behaviour: the local
memory size and the number of directory entries.  Those two values are part
of :class:`TraceKey` and replay refuses machine configurations that change
them (see :mod:`repro.trace.replay`).

Serialisation is a little-endian binary layout behind a versioned header::

    b"RPTR" | u16 schema | u32 header_len | header JSON | sections

The layout (schema 2) is columnar: branch bits are stored packed, and
memory addresses are split into one stream per *static PC* (each
load/store instruction emits a highly regular address sequence — constant
strides mostly — even when the interleaved global sequence looks random),
and every stream is
delta-encoded with zig-zag + LEB128 varint packing, falling back to raw
u64 for irregular streams where that would not pay.  A varint stream-id
column records the interleave so the flat retirement-order sequence is
recovered without consulting the program.  DMA operands become three
delta-encoded columns (``lm_vaddr`` / ``sm_addr`` / ``size``).  Each
section is additionally DEFLATE-compressed when that shrinks it (the
stream-id column is periodic in loop-heavy code and all but disappears).

The header JSON is canonical (sorted keys), so the content hash of a trace
— SHA-256 over the serialised bytes — is deterministic across processes.
(The bytes depend on the host's zlib build, so compare content hashes
within one platform.)  Readers reject any other schema with
:class:`TraceError`; the store treats that as a miss and recaptures.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Version of the trace format, the only one written and read.  The store
#: keys traces by (schema, key), so bumping this turns stored traces into
#: permanent misses that ``prune`` sweeps out.
TRACE_SCHEMA = 2

#: File magic of serialised traces.
TRACE_MAGIC = b"RPTR"

#: File magic of serialised multicore trace containers (one per-core stream
#: each, replayed together against the shared uncore).
MULTI_TRACE_MAGIC = b"RPMT"


class TraceError(RuntimeError):
    """Raised when a trace cannot be parsed or does not match its program."""


def _freeze_params(params) -> Tuple[Tuple[str, Any], ...]:
    if not params:
        return ()
    if isinstance(params, Mapping):
        return tuple(sorted(params.items()))
    return tuple(sorted(tuple(item) for item in params))


@dataclass(frozen=True)
class TraceKey:
    """Identity of a trace: the cell it was recorded from plus the
    *functional* machine parameters the dynamic stream depends on.

    ``num_cores`` is functional too: it selects the domain decomposition the
    per-core programs are compiled from.  Single-core keys omit it from the
    canonical dict so their hashes (and stored artifacts) are unchanged.
    """

    workload: str
    mode: str
    scale: str
    kind: str = "kernel"            # "kernel" or "micro"
    params: Tuple[Tuple[str, Any], ...] = ()
    lm_size: int = 32 * 1024
    directory_entries: int = 32
    num_cores: int = 1

    @classmethod
    def create(cls, workload: str, mode: str, scale: str, kind: str = "kernel",
               params=None, lm_size: int = 32 * 1024,
               directory_entries: int = 32, num_cores: int = 1) -> "TraceKey":
        """Build a key with the same normalisation as ``RunSpec.create``."""
        return cls(
            workload=workload.strip().upper() if kind == "kernel" else workload.strip(),
            mode=mode.strip().lower(),
            scale=scale.strip().lower(),
            kind=kind,
            params=_freeze_params(params),
            lm_size=int(lm_size),
            directory_entries=int(directory_entries),
            num_cores=int(num_cores),
        )

    def as_dict(self) -> Dict[str, Any]:
        out = {
            "workload": self.workload,
            "mode": self.mode,
            "scale": self.scale,
            "kind": self.kind,
            "params": dict(self.params),
            "lm_size": self.lm_size,
            "directory_entries": self.directory_entries,
        }
        if self.num_cores != 1:
            out["num_cores"] = self.num_cores
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceKey":
        return cls.create(
            workload=data["workload"], mode=data["mode"], scale=data["scale"],
            kind=data.get("kind", "kernel"), params=data.get("params"),
            lm_size=data.get("lm_size", 32 * 1024),
            directory_entries=data.get("directory_entries", 32),
            num_cores=data.get("num_cores", 1))

    @property
    def key_hash(self) -> str:
        """Content hash of the key (addresses the trace in the store)."""
        payload = json.dumps({"schema": TRACE_SCHEMA, **self.as_dict()},
                             sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @property
    def label(self) -> str:
        parts = [self.workload, self.mode, self.scale]
        if self.num_cores != 1:
            parts.append(f"{self.num_cores}cores")
        if self.params:
            parts.append(",".join(f"{k}={v}" for k, v in self.params))
        return ":".join(parts)


def pack_bits(bits: Sequence[bool]) -> bytes:
    """Pack booleans into bytes, LSB first."""
    out = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        if bit:
            out[i >> 3] |= 1 << (i & 7)
    return bytes(out)


def unpack_bits(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`, as a bool array."""
    if count > 8 * len(data):
        raise IndexError(f"{count} bits do not fit in {len(data)} bytes")
    return np.unpackbits(np.frombuffer(data, np.uint8), count=count,
                         bitorder="little").view(np.bool_)


def _le_bytes(arr: array) -> bytes:
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts only
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr.tobytes()


# ------------------------------------------------------ varint / zig-zag codec
def encode_deltas(values: Sequence[int]) -> bytes:
    """Delta-encode ``values`` (zig-zag + LEB128 varint, previous starts at 0)."""
    out = bytearray()
    append = out.append
    prev = 0
    for value in values:
        delta = value - prev
        prev = value
        zz = (delta << 1) if delta >= 0 else ((-delta << 1) - 1)
        while zz > 0x7F:
            append((zz & 0x7F) | 0x80)
            zz >>= 7
        append(zz)
    return bytes(out)


def encode_uvarints(values: Sequence[int]) -> bytes:
    """LEB128-encode a sequence of non-negative integers."""
    out = bytearray()
    append = out.append
    for value in values:
        while value > 0x7F:
            append((value & 0x7F) | 0x80)
            value >>= 7
        append(value)
    return bytes(out)


class _VarintColumn:
    """Vectorised LEB128 decoder over one section payload.

    Finds every value terminator (high bit clear) in one pass, then
    assembles any contiguous run of varints with numpy array ops.  The
    widest value the writer produces is the zig-zag delta of two u64s, 65
    bits in ten bytes; ``take`` returns bit 64 beside the low 64 bits and
    raises :class:`TraceError` on a wider value, as on truncation.
    """

    __slots__ = ("_bytes", "_ends")

    def __init__(self, payload: bytes):
        self._bytes = np.frombuffer(payload, dtype=np.uint8)
        self._ends = np.flatnonzero(self._bytes < 0x80)

    def take(self, pos: int, count: int):
        """Decode ``count`` varints starting at byte ``pos``.

        Returns ``(low, high, next_pos)``: each value's low 64 bits as u64,
        and its bit 64 as a u64 0/1 array — None when no value is ten bytes
        long.
        """
        if count == 0:
            return np.empty(0, dtype=np.uint64), None, pos
        first = int(np.searchsorted(self._ends, pos))
        if first + count > self._ends.size:
            raise TraceError("truncated varint stream")
        ends = self._ends[first:first + count]
        next_pos = int(ends[-1]) + 1
        starts = np.empty(count, dtype=np.int64)
        starts[0] = pos
        if count > 1:
            starts[1:] = ends[:-1] + 1
        widths = ends - starts + 1
        seg = self._bytes[pos:next_pos].astype(np.uint64)
        high = None
        if int(widths.max()) > 9:
            # The tenth byte holds bits 63-69: only 63 and 64 can be set.
            tenth = seg[ends - pos]
            tenth[widths != 10] = 0
            if int(widths.max()) > 10 or int(tenth.max()) > 3:
                raise TraceError("varint wider than 65 bits")
            high = tenth >> np.uint64(1)
        rel = starts - pos
        # Byte offset of each byte within its own value -> varint shift.
        offsets = (np.arange(seg.size, dtype=np.int64)
                   - np.repeat(rel, widths))
        parts = (seg & np.uint64(0x7F)) << (offsets.astype(np.uint64)
                                             * np.uint64(7))
        values = np.bitwise_or.reduceat(parts, rel)
        return values, high, next_pos


def _zigzag_cumsum(zz, high=None):
    """Zig-zag decode deltas and accumulate them (prev starts 0).

    ``zz`` holds each delta's low 64 bits, ``high`` its bit 64 (None: all
    zero).  Arithmetic is mod 2**64, which is exact for every value that
    fits the u64/i64 columns the callers build.
    """
    one = np.uint64(1)
    half = zz >> one
    if high is not None:
        half |= high << np.uint64(63)
    deltas = np.where(zz & one, ~half, half)
    return np.cumsum(deltas, dtype=np.uint64)


def _pack_section(payload: bytes) -> Tuple[bytes, str]:
    """DEFLATE a section when that shrinks it; returns ``(stored, codec)``."""
    if len(payload) > 64:
        squeezed = zlib.compress(payload, 6)
        if len(squeezed) < len(payload):
            return squeezed, "deflate"
    return payload, "raw"


def _unpack_section(stored: bytes, codec: str) -> bytes:
    if codec == "deflate":
        try:
            return zlib.decompress(stored)
        except zlib.error as exc:
            raise TraceError(f"corrupted deflate section: {exc}") from exc
    if codec != "raw":
        raise TraceError(f"unknown section codec {codec!r}")
    return stored


def program_fingerprint(program) -> str:
    """Stable hash of a laid-out program's static code and data layout.

    Array *contents* are deliberately excluded: data values never influence
    replay timing (branch outcomes and addresses are baked into the trace),
    so the fingerprint only has to detect changes to the instruction stream,
    the labels or the address layout.
    """
    h = hashlib.sha256()
    for inst in program.instructions:
        h.update((f"{inst.opcode.value}|{inst.dst}|{','.join(inst.srcs)}|"
                  f"{inst.imm}|{inst.target}|{inst.size}|{inst.phase}|"
                  f"{int(inst.collapse_with_prev)}|{int(inst.oracle_divert)}\n")
                 .encode())
    for name in sorted(program.labels):
        h.update(f"L|{name}|{program.labels[name]}\n".encode())
    for name, decl in program.arrays.items():
        h.update(f"A|{name}|{decl.length}|{decl.base}\n".encode())
    return h.hexdigest()[:16]


@dataclass
class Trace:
    """One captured dynamic stream (see the module docstring for contents).

    ``mem_pcs`` holds the static instruction index of each memory access, in
    the same retirement order as ``mem_addrs``.  It drives the per-PC stream
    grouping of the encoding and round-trips through it; the writer rejects
    a trace that lacks one PC per access.
    """

    key: TraceKey
    program_fingerprint: str
    instructions: int               # retired dynamic instructions
    branch_count: int               # executed conditional branches
    branch_bits: bytes = b""
    mem_addrs: array = field(default_factory=lambda: array("Q"))
    dma_words: array = field(default_factory=lambda: array("q"))
    mem_pcs: array = field(default_factory=lambda: array("I"))
    #: Lazily computed :meth:`stream_digest` memo (not part of identity).
    _stream_digest: Optional[str] = field(default=None, repr=False,
                                          compare=False)

    # -- derived -----------------------------------------------------------------
    def branch_outcomes(self) -> List[bool]:
        return unpack_bits(self.branch_bits, self.branch_count).tolist()

    def stream_digest(self) -> str:
        """Cheap content digest of the dynamic-stream columns.

        Hashes the raw event columns (instruction/branch counts, branch
        bits, addresses, DMA operands) without the full serialisation
        round-trip :attr:`content_hash` pays — this is the identity the
        replay engine's in-process decode caches key on, so per-core streams
        of one multicore container (and identical streams across captures)
        share one decoded entry.  Computed once per instance.
        """
        if self._stream_digest is None:
            h = hashlib.sha256()
            # Column lengths frame the concatenated payloads: without them,
            # bytes re-split between the address and DMA columns would
            # collide.
            h.update(struct.pack("<QQQQ", self.instructions,
                                 self.branch_count, len(self.mem_addrs),
                                 len(self.dma_words)))
            h.update(self.branch_bits)
            h.update(_le_bytes(self.mem_addrs))
            h.update(_le_bytes(self.dma_words))
            self._stream_digest = h.hexdigest()[:16]
        return self._stream_digest

    @property
    def mem_count(self) -> int:
        return len(self.mem_addrs)

    @property
    def dma_count(self) -> int:
        return len(self.dma_words) // 3

    @property
    def content_hash(self) -> str:
        """SHA-256 of the serialised trace (deterministic across processes)."""
        return hashlib.sha256(self.to_bytes()).hexdigest()[:16]

    # -- serialisation ------------------------------------------------------------
    def to_bytes(self) -> bytes:
        mem_addrs = self.mem_addrs
        mem_pcs = self.mem_pcs
        if len(mem_pcs) != len(mem_addrs):
            # Streams are grouped by PC; an access without one has no
            # stream to go to.
            raise TraceError(
                f"mem_pcs length {len(mem_pcs)} != mem_addrs {len(mem_addrs)}")
        if len(self.dma_words) % 3:
            # The reader rejects ragged DMA columns; fail at write time
            # instead of minting a permanently unparseable artifact.
            raise TraceError(
                f"dma_words length {len(self.dma_words)} is not a multiple "
                "of 3 (lm_vaddr, sm_addr, size triples)")

        # Group addresses into per-static-PC streams (first-appearance order).
        stream_pcs: List[int] = []
        stream_values: List[List[int]] = []
        index_of: Dict[int, int] = {}
        stream_ids = []
        ids_append = stream_ids.append
        for pc, addr in zip(mem_pcs, mem_addrs):
            sid = index_of.get(pc)
            if sid is None:
                sid = index_of[pc] = len(stream_pcs)
                stream_pcs.append(pc)
                stream_values.append([])
            stream_values[sid].append(addr)
            ids_append(sid)
        if len(stream_pcs) <= 1:
            # A single stream needs no interleave column (the reader rejects
            # one): every access trivially belongs to stream 0.
            stream_ids = []

        # Encode each stream: zig-zag varint deltas, raw u64 for irregular
        # streams where the packed form would not be smaller.
        streams_meta = []
        mem_parts = []
        for pc, values in zip(stream_pcs, stream_values):
            packed = encode_deltas(values)
            if len(packed) < 8 * len(values):
                enc = "delta"
            else:
                enc = "raw"
                packed = _le_bytes(array("Q", values))
            streams_meta.append({"pc": pc, "n": len(values), "enc": enc})
            mem_parts.append(packed)

        # DMA operands: three delta-encoded columns (lm_vaddr, sm_addr, size).
        dma_payload = b"".join(
            encode_deltas(self.dma_words[col::3]) for col in range(3)
        ) if len(self.dma_words) else b""

        sections = []
        sections_meta = []
        for name, payload in (("ids", encode_uvarints(stream_ids)),
                              ("mem", b"".join(mem_parts)),
                              ("dma", dma_payload)):
            stored, codec = _pack_section(payload)
            sections.append(stored)
            sections_meta.append({"id": name, "bytes": len(stored),
                                  "codec": codec})

        header_dict = {
            "schema": TRACE_SCHEMA,
            "key": self.key.as_dict(),
            "fingerprint": self.program_fingerprint,
            "instructions": self.instructions,
            "branch_count": self.branch_count,
            "mem_count": len(mem_addrs),
            "dma_count": len(self.dma_words),
            "v2": {"streams": streams_meta, "sections": sections_meta},
        }
        header = json.dumps(header_dict, sort_keys=True,
                            separators=(",", ":")).encode()
        parts = [TRACE_MAGIC, struct.pack("<HI", TRACE_SCHEMA, len(header)),
                 header, self.branch_bits]
        parts.extend(sections)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Trace":
        try:
            if data[:4] != TRACE_MAGIC:
                raise TraceError("bad magic (not a trace file)")
            schema, header_len = struct.unpack_from("<HI", data, 4)
            if schema != TRACE_SCHEMA:
                raise TraceError(
                    f"trace schema {schema} is not {TRACE_SCHEMA}")
            pos = 10
            header = json.loads(data[pos:pos + header_len].decode())
            pos += header_len
            if header.get("schema") != schema:
                raise TraceError("header schema disagrees with binary schema")
            branch_count = header["branch_count"]
            nbits = (branch_count + 7) // 8
            branch_bits = data[pos:pos + nbits]
            if len(branch_bits) != nbits:
                raise TraceError("truncated branch-bit section")
            pos += nbits
            mem_addrs, dma_words, mem_pcs, pos = \
                cls._payload(data, pos, header)
            if pos != len(data):
                raise TraceError("truncated or oversized trace payload")
            return cls(
                key=TraceKey.from_dict(header["key"]),
                program_fingerprint=header["fingerprint"],
                instructions=header["instructions"],
                branch_count=branch_count,
                branch_bits=branch_bits,
                mem_addrs=mem_addrs,
                dma_words=dma_words,
                mem_pcs=mem_pcs,
            )
        except TraceError:
            raise
        except (KeyError, IndexError, ValueError, TypeError, struct.error,
                OverflowError, UnicodeDecodeError) as exc:
            raise TraceError(f"corrupted trace: {exc}") from exc

    @staticmethod
    def _sections(data: bytes, pos: int, header) -> Tuple[Dict[str, bytes], int]:
        payloads = {}
        for section in header["v2"]["sections"]:
            stored = data[pos:pos + section["bytes"]]
            if len(stored) != section["bytes"]:
                raise TraceError(f"truncated {section['id']} section")
            pos += section["bytes"]
            payloads[section["id"]] = _unpack_section(stored, section["codec"])
        return payloads, pos

    @staticmethod
    def _payload(data: bytes, pos: int, header) -> tuple:
        """Column -> ndarray decode: no per-access Python loop."""
        streams_meta = header["v2"]["streams"]
        payloads, pos = Trace._sections(data, pos, header)
        stream_pcs = [s["pc"] for s in streams_meta]
        if any(not 0 <= pc < 1 << 32 for pc in stream_pcs):
            raise TraceError("corrupted trace: stream pc out of range")

        mem_count = header["mem_count"]
        if sum(s["n"] for s in streams_meta) != mem_count:
            raise TraceError("stream table disagrees with mem_count")
        mem_payload = payloads.get("mem", b"")
        column = _VarintColumn(mem_payload)
        mpos = 0
        stream_arrays = []
        for stream in streams_meta:
            count = stream["n"]
            enc = stream["enc"]
            if enc == "delta":
                zz, high, mpos = column.take(mpos, count)
                arr = _zigzag_cumsum(zz, high)
            elif enc == "raw":
                chunk = mem_payload[mpos:mpos + 8 * count]
                if len(chunk) != 8 * count:
                    raise TraceError("truncated raw address stream")
                arr = np.frombuffer(chunk, dtype="<u8")
                mpos += 8 * count
            else:
                raise TraceError(f"unknown stream encoding {enc!r}")
            stream_arrays.append(arr)
        if mpos != len(mem_payload):
            raise TraceError("oversized mem section")

        # Re-interleave the streams into retirement order: a stable argsort
        # of the stream-id column sends the k-th occurrence of stream `sid`
        # to the k-th element of that stream's slice in the concatenation.
        if len(streams_meta) > 1:
            ids_payload = payloads.get("ids", b"")
            ids, high, ipos = _VarintColumn(ids_payload).take(0, mem_count)
            if high is not None:
                raise TraceError("stream id out of range")
            if ipos != len(ids_payload):
                raise TraceError("oversized ids section")
            ids = ids.astype(np.int64)
            if mem_count and int(ids.max()) >= len(streams_meta):
                raise TraceError(f"stream id {int(ids.max())} out of range")
            counts = np.bincount(ids, minlength=len(streams_meta))
            if counts.tolist() != [s["n"] for s in streams_meta]:
                raise TraceError("stream interleave disagrees with stream table")
            order = np.argsort(ids, kind="stable")
            addrs = np.empty(mem_count, dtype=np.uint64)
            addrs[order] = np.concatenate(stream_arrays)
            pcs = np.array(stream_pcs, dtype=np.int64)[ids]
            mem_addrs = array("Q")
            mem_addrs.frombytes(addrs.tobytes())
            mem_pcs = array("I")
            mem_pcs.frombytes(pcs.astype(np.uint32).tobytes())
        elif streams_meta:
            if payloads.get("ids"):
                raise TraceError("oversized ids section")
            mem_addrs = array("Q")
            mem_addrs.frombytes(np.ascontiguousarray(stream_arrays[0]).tobytes())
            mem_pcs = array("I", stream_pcs * mem_count)
        else:
            if payloads.get("ids"):
                raise TraceError("oversized ids section")
            mem_addrs = array("Q")
            mem_pcs = array("I")

        dma_count = header["dma_count"]
        dma_payload = payloads.get("dma", b"")
        if dma_count:
            if dma_count % 3:
                raise TraceError("dma_count is not a multiple of 3")
            per_col = dma_count // 3
            dma_column = _VarintColumn(dma_payload)
            dpos = 0
            cols = []
            for _ in range(3):
                zz, high, dpos = dma_column.take(dpos, per_col)
                cols.append(_zigzag_cumsum(zz, high).view(np.int64))
            if dpos != len(dma_payload):
                raise TraceError("oversized dma section")
            stacked = np.empty(dma_count, dtype=np.int64)
            stacked[0::3], stacked[1::3], stacked[2::3] = cols
            dma_words = array("q")
            dma_words.frombytes(stacked.tobytes())
        else:
            if dma_payload:
                raise TraceError("oversized dma section")
            dma_words = array("q")
        return mem_addrs, dma_words, mem_pcs, pos


@dataclass
class MulticoreTrace:
    """Container of one captured per-core stream per core of a multicore run.

    ``key`` is the *family* key (``num_cores > 1``); ``cores[i]`` is the
    stream core ``i`` retired, captured by its own recorder during one
    interleaved execution-driven run and carrying the fingerprint of that
    core's shard program.  Replay rebuilds the shard programs and drives all
    streams together against the shared uncore
    (:func:`repro.trace.replay.replay_trace` dispatches on the type).

    Serialisation wraps the per-core :class:`Trace` payloads behind its own
    magic::

        b"RPMT" | u16 schema | u32 header_len | header JSON | core payloads

    with the header JSON carrying the family key and per-core byte sizes.
    """

    key: TraceKey
    cores: List[Trace] = field(default_factory=list)

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    @property
    def instructions(self) -> int:
        """Total retired dynamic instructions across all cores."""
        return sum(t.instructions for t in self.cores)

    @property
    def content_hash(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()[:16]

    def container_digest(self) -> str:
        """Cheap identity of the whole RPMT container: family key plus the
        per-core :meth:`Trace.stream_digest` values, without serialising.
        The replay engine's decode/L1I caches consume the per-core
        :meth:`Trace.stream_digest` components directly; this container
        roll-up is the matching identity for whole-container memoization
        (and the round-trip checks in the tests).
        """
        h = hashlib.sha256(self.key.key_hash.encode())
        for trace in self.cores:
            h.update(trace.stream_digest().encode())
        return h.hexdigest()[:16]

    def to_bytes(self) -> bytes:
        if self.key.num_cores != len(self.cores):
            raise TraceError(
                f"multicore trace {self.key.label} holds {len(self.cores)} "
                f"core streams but its key says {self.key.num_cores}")
        payloads = [t.to_bytes() for t in self.cores]
        header = json.dumps(
            {"schema": TRACE_SCHEMA, "key": self.key.as_dict(),
             "sizes": [len(p) for p in payloads]},
            sort_keys=True, separators=(",", ":")).encode()
        parts = [MULTI_TRACE_MAGIC,
                 struct.pack("<HI", TRACE_SCHEMA, len(header)), header]
        parts.extend(payloads)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MulticoreTrace":
        try:
            if data[:4] != MULTI_TRACE_MAGIC:
                raise TraceError("bad magic (not a multicore trace file)")
            schema, header_len = struct.unpack_from("<HI", data, 4)
            if schema != TRACE_SCHEMA:
                raise TraceError(
                    f"trace schema {schema} is not {TRACE_SCHEMA}")
            pos = 10
            header = json.loads(data[pos:pos + header_len].decode())
            pos += header_len
            cores = []
            for size in header["sizes"]:
                payload = data[pos:pos + size]
                if len(payload) != size:
                    raise TraceError("truncated core payload")
                cores.append(Trace.from_bytes(payload))
                pos += size
            if pos != len(data):
                raise TraceError("truncated or oversized multicore trace")
            return cls(key=TraceKey.from_dict(header["key"]), cores=cores)
        except TraceError:
            raise
        except (KeyError, IndexError, ValueError, TypeError, struct.error,
                UnicodeDecodeError) as exc:
            raise TraceError(f"corrupted multicore trace: {exc}") from exc


def parse_trace_bytes(data: bytes):
    """Parse serialised trace bytes into a :class:`Trace` or
    :class:`MulticoreTrace`, dispatching on the file magic."""
    if data[:4] == MULTI_TRACE_MAGIC:
        return MulticoreTrace.from_bytes(data)
    return Trace.from_bytes(data)
