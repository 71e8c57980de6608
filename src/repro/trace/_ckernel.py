"""C inner loop of the vector replay engine.

The vector engine's per-instruction recurrence (issue estimate -> latency ->
retire) is pure scalar arithmetic over flat arrays once the oracle/flag
passes have resolved every data-dependent outcome — exactly the shape a
small C kernel executes 50-100x faster than CPython.  This module compiles
that kernel at import-from-use time with the system C compiler and exposes
it through :mod:`ctypes`:

* no compiler or a failed compile -> :func:`load` returns ``None`` and
  :func:`~repro.trace.replay.replay_trace` runs the trace's program
  execution-driven instead, recording a ``degraded.vector`` event
  (bit-identical, just slower);
* the compiled shared object is cached on disk keyed by the hash of the
  source and the compiler flags, so the one-time compile cost (~1s) is
  paid once per machine.

Identity is preserved by construction: the C code mirrors the timing
recurrence of the execution lane (``ExecutionLane._loop`` in
:mod:`repro.cpu.executor`, stated in :mod:`repro.cpu.pipeline`) using the
same IEEE-754 doubles in the same operation order (compiled with
``-ffp-contract=off`` so no FMA contraction reorders rounding), the same
truncation (C integer casts equal Python ``int()`` for the non-negative
times involved), and the same MSHR merge/expire/full-stall decisions; the
tests check it against execution.  It departs from the execution lane's
shape in three places, none of which changes a result:

* the per-cycle issue-slot and functional-unit reservation dicts become
  flat tables indexed by cycle (an entry below the front end is never
  consulted again — dispatch time is monotonic — so ``get(cycle, 0)`` and
  ``table[cycle]`` see the same counts);
* the ``if t > fetch_time: fetch_time = t`` bump is deferred from the
  issue estimate to the top of retire.  Nothing reads ``fetch_time`` in
  between *except* the epoch-break check, which must observe the
  pre-instruction value — the key the scheduler sorts lanes by when it
  parks a lane at an event;
* the ROB/LSQ deques become fixed rings prefilled with 0.0: before the
  deque would be full execution skips the occupancy check, and
  ``0.0 > t`` is never true for ``t >= 0``, so the prefilled slots are
  exact no-ops.

The epoch structure maps onto the C/Python boundary, one ``vr_run`` call
per *event* instruction (DMA issue, dma-sync, set-bufsize, halt, and —
multicore — memory misses that arbitrate on the shared uncore).  A call
retires the pending event with the result the caller passes in (its
latency, or for an uncore miss the uncore's latency beyond the L1, which
the kernel sends through the MSHR file), runs the uncore-free slice that
follows entirely in C, and issues the next event before it returns.  The
issue estimate reads only lane-private state and leaves ``fetch_time``
alone, so it may run before the caller's yield check.  It is parked in
``FS_TSAVE``/``FS_NOWSAVE``/``IS_CYCSAVE`` until the next call retires
the event; the caller reads the event's issue time from ``FS_NOWSAVE``
and an uncore miss's line from ``IS_LINE``.  The Python caller —
``_VectorLane._loop`` in :mod:`repro.trace.vector`, one resumable lane per
core under the replay driver — performs the epoch yield-check and the
event's uncore/DMA bookkeeping, then re-enters C.  Both sides operate on
the same state vectors, so interleaving them is seamless.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

# ---- state vector layout, mirrored by the C side -------------------------
# fs (float64): scalar timing state + cross-call scratch
FS_FETCH = 0        # fetch_time
FS_LASTC = 1        # last_commit
FS_ROBBW = 2        # rob commit-bandwidth time
FS_ROBST = 3        # rob dispatch stalls
FS_LSQST = 4        # lsq occupancy stalls
FS_CONT = 5         # fu contended cycles
FS_TOTAL = 6        # total memory latency
FS_HIER = 7         # hierarchy latency
FS_TSAVE = 8        # pending event's issue-estimate t
FS_NOWSAVE = 9      # pending event's issue time (read by the caller)
FS_LEN = 10

# is (int64): cursors + integer counters
IS_RP = 0           # rob ring position
IS_LP = 1           # lsq ring position
IS_LI = 2           # miss-line cursor
IS_GI = 3           # guard-entry cursor
IS_FI = 4           # branch-flag cursor
IS_RI = 5           # live-route cursor
IS_CYCSAVE = 6      # pending event's issue-estimate cycle
IS_PRES = 7         # presence stalls
IS_MSHR_CNT = 8     # live MSHR entries
IS_MSHR_ALLOC = 9   # MSHR allocations
IS_MSHR_MERGE = 10  # MSHR merges
IS_MSHR_FULL = 11   # MSHR full stalls
IS_LINE = 12        # pending uncore miss's line (read by the caller)
IS_LEN = 13

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    /* caller-owned state vectors (see _ckernel.py for the layout) */
    double *fs; int64_t *is;
    /* caller-owned stream: pc and variant selector per instruction */
    const uint32_t *pcs; const uint8_t *sel;
    /* caller-owned per-pc tables; vk/lat hold 4 variants per pc */
    const uint8_t *vk; const double *lat;
    const int32_t *fu; const int32_t *dst;
    const int32_t *soff; const int32_t *sid;
    const int32_t *phase; const uint8_t *unpip;
    const uint8_t *lroutes; const int64_t *mlines; const int32_t *gent;
    const uint8_t *flags;
    /* caller-owned structure state */
    double *reg_ready; double *rob_ring; double *lsq_ring;
    uint8_t *present; double *ready_t;
    int64_t *mshr_ln; double *mshr_tm;
    double *phase_acc;
    const int64_t *fu_capacity;
    /* scalars */
    double inv_fetch, inv_commit, mispredict_penalty;
    double l1_lat, lm_lat, b_l2, b_l3, b_mem;
    int64_t issue_width, rob_size, lsq_size, mshr_entries, n_fu;
    int64_t multicore, n;
    /* kernel-owned cursor: the next instruction, or the pending event */
    int64_t cur; int pending;
    /* kernel-owned per-cycle reservation tables (grown on demand) */
    int32_t *slots; int64_t slots_cap;
    int32_t **fut; int64_t *fut_cap;
} VCtx;

#define INIT_CAP 65536

static int grow_i32(int32_t **buf, int64_t *cap, int64_t need)
{
    int64_t c = *cap;
    while (need >= c) c <<= 1;
    int32_t *nb = (int32_t *)realloc(*buf, (size_t)c * sizeof(int32_t));
    if (!nb) return -1;
    memset(nb + *cap, 0, (size_t)(c - *cap) * sizeof(int32_t));
    *buf = nb;
    *cap = c;
    return 0;
}

VCtx *vr_new(double *fs, int64_t *is,
             const uint32_t *pcs, const uint8_t *sel,
             const uint8_t *vk, const double *lat,
             const int32_t *fu, const int32_t *dst,
             const int32_t *soff, const int32_t *sid,
             const int32_t *phase, const uint8_t *unpip,
             const uint8_t *lroutes, const int64_t *mlines,
             const int32_t *gent, const uint8_t *flags,
             double *reg_ready, double *rob_ring, double *lsq_ring,
             uint8_t *present, double *ready_t,
             int64_t *mshr_ln, double *mshr_tm,
             double *phase_acc, const int64_t *fu_capacity,
             double inv_fetch, double inv_commit, double mispredict_penalty,
             double l1_lat, double lm_lat,
             double b_l2, double b_l3, double b_mem,
             int64_t issue_width, int64_t rob_size, int64_t lsq_size,
             int64_t mshr_entries, int64_t n_fu, int64_t multicore,
             int64_t n)
{
    VCtx *g = (VCtx *)calloc(1, sizeof(VCtx));
    if (!g) return NULL;
    g->fs = fs; g->is = is;
    g->pcs = pcs; g->sel = sel;
    g->vk = vk; g->fu = fu; g->lat = lat; g->dst = dst;
    g->soff = soff; g->sid = sid; g->phase = phase; g->unpip = unpip;
    g->lroutes = lroutes; g->mlines = mlines; g->gent = gent;
    g->flags = flags;
    g->reg_ready = reg_ready; g->rob_ring = rob_ring; g->lsq_ring = lsq_ring;
    g->present = present; g->ready_t = ready_t;
    g->mshr_ln = mshr_ln; g->mshr_tm = mshr_tm;
    g->phase_acc = phase_acc; g->fu_capacity = fu_capacity;
    g->inv_fetch = inv_fetch; g->inv_commit = inv_commit;
    g->mispredict_penalty = mispredict_penalty;
    g->l1_lat = l1_lat; g->lm_lat = lm_lat;
    g->b_l2 = b_l2; g->b_l3 = b_l3; g->b_mem = b_mem;
    g->issue_width = issue_width; g->rob_size = rob_size;
    g->lsq_size = lsq_size; g->mshr_entries = mshr_entries;
    g->n_fu = n_fu; g->multicore = multicore; g->n = n;
    g->slots = (int32_t *)calloc(INIT_CAP, sizeof(int32_t));
    g->slots_cap = INIT_CAP;
    g->fut = (int32_t **)calloc((size_t)n_fu, sizeof(int32_t *));
    g->fut_cap = (int64_t *)calloc((size_t)n_fu, sizeof(int64_t));
    if (!g->slots || !g->fut || !g->fut_cap) goto fail;
    for (int64_t j = 0; j < n_fu; j++) {
        g->fut[j] = (int32_t *)calloc(INIT_CAP, sizeof(int32_t));
        g->fut_cap[j] = INIT_CAP;
        if (!g->fut[j]) goto fail;
    }
    return g;
fail:
    if (g->fut)
        for (int64_t j = 0; j < n_fu; j++) free(g->fut[j]);
    free(g->fut); free(g->fut_cap); free(g->slots); free(g);
    return NULL;
}

void vr_free(VCtx *g)
{
    if (!g) return;
    if (g->fut)
        for (int64_t j = 0; j < g->n_fu; j++) free(g->fut[j]);
    free(g->fut); free(g->fut_cap); free(g->slots);
    free(g);
}

/* MSHRFile.request: expire, merge, full-stall, allocate — same decisions,
 * same floats.  The dict becomes a compacting (line, completion) array;
 * every dict operation transcribed here is order-independent, so the array
 * form is exact. */
static double mshr_req(VCtx *g, int64_t line, double now, double full_latency)
{
    int64_t *ml = g->mshr_ln;
    double *mt = g->mshr_tm;
    int64_t c = g->is[8];           /* IS_MSHR_CNT */
    int64_t w = 0;
    for (int64_t j = 0; j < c; j++) {       /* _expire(now) */
        if (mt[j] > now) { ml[w] = ml[j]; mt[w] = mt[j]; w++; }
    }
    c = w;
    for (int64_t j = 0; j < c; j++) {       /* merge */
        if (ml[j] == line) {
            g->is[10] += 1;                 /* IS_MSHR_MERGE */
            g->is[8] = c;
            double rem = mt[j] - now;
            return rem > 0.0 ? rem : 0.0;
        }
    }
    double start = now;
    if (c >= g->mshr_entries) {             /* full: wait for the earliest */
        double earliest = mt[0];
        for (int64_t j = 1; j < c; j++)
            if (mt[j] < earliest) earliest = mt[j];
        g->is[11] += 1;                     /* IS_MSHR_FULL */
        if (earliest > start) start = earliest;
        w = 0;
        for (int64_t j = 0; j < c; j++) {   /* _expire(start) */
            if (mt[j] > start) { ml[w] = ml[j]; mt[w] = mt[j]; w++; }
        }
        c = w;
    }
    double completion = start + full_latency;
    ml[c] = line; mt[c] = completion; c++;
    g->is[9] += 1;                          /* IS_MSHR_ALLOC */
    g->is[8] = c;
    return completion - now;
}

/* Issue estimate: ROB/LSQ occupancy stalls, register readiness, issue-slot
 * scan.  Writes the stall accumulators, leaves fetch_time untouched (the
 * occupancy bump is deferred to retire_one so the caller's epoch checks see
 * the pre-instruction key).  Returns now, or -1.0 on allocation failure;
 * t/cycle go to the out-params. */
static inline double issue_one(VCtx *g, int64_t pc, int ismem,
                               double *t_out, int64_t *cycle_out)
{
    double *fs = g->fs;
    int64_t *is = g->is;
    double t = fs[0];                       /* FS_FETCH */
    double oldest = g->rob_ring[is[0]];
    if (oldest > t) { fs[3] += oldest - t; t = oldest; }
    if (ismem) {
        oldest = g->lsq_ring[is[1]];
        if (oldest > t) { fs[4] += oldest - t; t = oldest; }
    }
    double ready = t;
    int32_t a = g->soff[pc], b = g->soff[pc + 1];
    for (int32_t s = a; s < b; s++) {
        double r = g->reg_ready[g->sid[s]];
        if (r > ready) ready = r;
    }
    int64_t cycle = (int64_t)ready;
    double now;
    if (cycle >= g->slots_cap &&
        grow_i32(&g->slots, &g->slots_cap, cycle))
        return -1.0;
    if (g->slots[cycle] < g->issue_width) {
        now = ready;
    } else {
        for (;;) {
            cycle++;
            if (cycle >= g->slots_cap &&
                grow_i32(&g->slots, &g->slots_cap, cycle))
                return -1.0;
            if (g->slots[cycle] < g->issue_width) break;
        }
        now = (double)cycle;
    }
    *t_out = t;
    *cycle_out = cycle;
    return now;
}

/* Retire: deferred fetch-time bump, FU scan, reservation bookkeeping,
 * commit/ROB/phase accounting for one instruction at pc with vkind k.
 * Returns 0, or -1 on allocation failure. */
static inline int retire_one(VCtx *g, int64_t pc, uint8_t k,
                             double latency, double t, int64_t cycle,
                             double now)
{
    double *fs = g->fs;
    int64_t *is = g->is;
    if (t > fs[0]) fs[0] = t;
    int32_t fui = g->fu[pc];
    int64_t capv = g->fu_capacity[fui];
    int32_t *table = g->fut[fui];
    int64_t tcap = g->fut_cap[fui];
    double start;
    if (cycle >= tcap) {
        if (grow_i32(&g->fut[fui], &g->fut_cap[fui], cycle)) return -1;
        table = g->fut[fui]; tcap = g->fut_cap[fui];
    }
    if (table[cycle] < capv) {
        start = now;
    } else {
        for (;;) {
            cycle++;
            if (cycle >= tcap) {
                if (grow_i32(&g->fut[fui], &g->fut_cap[fui], cycle))
                    return -1;
                table = g->fut[fui]; tcap = g->fut_cap[fui];
            }
            if (table[cycle] < capv) break;
        }
        start = (double)cycle;
        fs[5] += start - now;
    }
    if (g->unpip[pc]) {
        int64_t occ = (int64_t)latency;
        if (occ < 1) occ = 1;
        int64_t end = cycle + occ;
        if (end > tcap) {
            if (grow_i32(&g->fut[fui], &g->fut_cap[fui], end)) return -1;
            table = g->fut[fui]; tcap = g->fut_cap[fui];
        }
        for (int64_t c2 = cycle; c2 < end; c2++) table[c2] += 1;
    } else {
        table[cycle] += 1;
    }
    if (cycle >= g->slots_cap &&
        grow_i32(&g->slots, &g->slots_cap, cycle))
        return -1;
    g->slots[cycle] += 1;
    double completion = start + latency;
    int32_t d = g->dst[pc];
    if (d >= 0) g->reg_ready[d] = completion;
    double commit;
    if (k >= 1 && k <= 6) {                 /* memory op */
        g->lsq_ring[is[1]] = completion;
        is[1] += 1;
        if (is[1] == g->lsq_size) is[1] = 0;
        if (k & 1) commit = completion;     /* load */
        else commit = start + (latency < 2.0 ? latency : 2.0);
    } else {
        commit = completion;
        if (k == 7) {                       /* branch: consume the flag */
            if (g->flags[is[4]])
                fs[0] = completion + g->mispredict_penalty;
            is[4] += 1;
        }
    }
    fs[0] = fs[0] + g->inv_fetch;
    if (k >= 11 && completion > fs[0]) fs[0] = completion;  /* drain */
    double rob_bw = fs[2] + g->inv_commit;
    if (commit > rob_bw) rob_bw = commit;
    fs[2] = rob_bw;
    g->rob_ring[is[0]] = rob_bw;
    is[0] += 1;
    if (is[0] == g->rob_size) is[0] = 0;
    g->phase_acc[g->phase[pc]] += rob_bw - fs[1];
    fs[1] = rob_bw;
    return 0;
}

/* One call per event.  If an event is pending (issued by the previous
 * call), retire it with `result`: its latency, or — a multicore memory
 * miss routed to the shared uncore — the uncore's latency beyond the L1,
 * which goes through the MSHR here.  Then run instructions until the next
 * event the caller must handle: any DMA / sync / set-bufsize / halt
 * (vk >= 8), or — multicore — a live memory op routed to the shared
 * uncore (route 5).  Every memory miss that touches the uncore stops
 * here, so the clustered hierarchy (per-cluster buses, NUMA home routing,
 * LLC slices) runs entirely in the caller; this kernel needs no cluster
 * awareness.  The event is issued before returning: its issue time goes
 * to FS_NOWSAVE and a miss's line to IS_LINE.  Issuing reads only
 * lane-private state and leaves fetch_time (the scheduler's key) as it
 * was, so the caller's yield check sees what it would before the issue.
 * Returns the event's index, n when the stream is finished, or -1 on
 * allocation failure. */
int64_t vr_run(VCtx *g, double result)
{
    const uint32_t *pcs = g->pcs;
    const uint8_t *sel = g->sel;
    const uint8_t *vk = g->vk;
    double *fs = g->fs;
    int64_t *is = g->is;
    int64_t i = g->cur, n = g->n;
    int resume = g->pending;
    for (; i < n; i++) {
        int64_t pc = pcs[i];
        int64_t v = pc * 4 + sel[i];
        uint8_t k = vk[v];
        int ismem = (k >= 1 && k <= 6);
        double t, now, latency;
        int64_t cycle;
        if (resume) {                       /* the pending event */
            resume = 0;
            g->pending = 0;
            t = fs[8]; now = fs[9]; cycle = is[6];
            if (ismem) {                    /* uncore miss: result = beyond */
                latency = g->l1_lat + mshr_req(g, is[12], now, result);
                fs[6] += latency;
                fs[7] += latency;
            } else {
                latency = result;
            }
        } else {
            int event = k >= 8;
            uint8_t r = 0;
            if (k >= 5 && k <= 6) {
                r = g->lroutes[is[5]];
                if (r == 5 && g->multicore) event = 1;
            }
            now = issue_one(g, pc, ismem, &t, &cycle);
            if (now < 0.0) return -1;
            if (event) {
                if (ismem) {                /* consume the route and line */
                    is[5] += 1;
                    is[12] = g->mlines[is[2]];   /* IS_LINE */
                    is[2] += 1;
                }
                fs[8] = t;                  /* FS_TSAVE */
                fs[9] = now;                /* FS_NOWSAVE */
                is[6] = cycle;              /* IS_CYCSAVE */
                g->cur = i;
                g->pending = 1;
                return i;
            }
            latency = g->lat[v];
            if (ismem) {
                if (k <= 4) {               /* static LM / L1 route */
                    fs[6] += latency;
                    if (k >= 3) fs[7] += latency;
                } else {                    /* live route */
                    is[5] += 1;
                    if (r == 1) {           /* guarded directory hit */
                        int32_t e = g->gent[is[3]];
                        is[3] += 1;
                        double stall = 0.0;
                        double rt = g->ready_t[e];
                        if (!g->present[e] && now < rt) {
                            stall = rt - now;
                            is[7] += 1;
                        }
                        if (now >= rt) g->present[e] = 1;
                        latency = g->lm_lat + stall;
                        fs[6] += latency;
                    } else {                /* L2 / L3 / memory miss */
                        int64_t line = g->mlines[is[2]];
                        is[2] += 1;
                        double beyond = r == 3 ? g->b_l2
                                      : r == 4 ? g->b_l3 : g->b_mem;
                        latency = g->l1_lat + mshr_req(g, line, now, beyond);
                        fs[6] += latency;
                        fs[7] += latency;
                    }
                }
            }
        }
        if (retire_one(g, pc, k, latency, t, cycle, now)) return -1;
    }
    g->cur = n;
    return n;
}
"""

_KERNEL = None
_KERNEL_TRIED = False


class _Kernel:
    """ctypes bindings of the compiled kernel."""

    def __init__(self, lib: ctypes.CDLL):
        P = ctypes.c_void_p
        D = ctypes.c_double
        I = ctypes.c_int64
        self.lib = lib
        self.new = lib.vr_new
        self.new.restype = P
        self.new.argtypes = [P] * 25 + [D] * 8 + [I] * 7
        self.free = lib.vr_free
        self.free.restype = None
        self.free.argtypes = [P]
        self.run = lib.vr_run
        self.run.restype = I
        self.run.argtypes = [P, D]


class CtxHandle:
    """Owns one kernel context; freed deterministically or by the GC."""

    __slots__ = ("_kern", "ptr")

    def __init__(self, kern: _Kernel, ptr: int):
        self._kern = kern
        self.ptr = ptr

    def close(self) -> None:
        if self.ptr:
            self._kern.free(self.ptr)
            self.ptr = None

    def __del__(self):
        self.close()


def _cache_dir() -> str:
    """The shared compile-cache directory.

    ``REPRO_CKERNEL_CACHE`` overrides the default tempdir location — tests
    use it to get an isolated cache, and a cluster deployment can point it
    at a shared fast path.
    """
    return (os.environ.get("REPRO_CKERNEL_CACHE")
            or os.path.join(tempfile.gettempdir(), "repro-vector-cc"))


#: Compiler arguments besides the output and source paths.  Identity
#: depends on them (``-ffp-contract=off`` keeps every rounding step of the
#: Python recurrence), so they are part of the compile-cache key.
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


def _cache_stem(cflags) -> str:
    """The compile cache's path stem for the kernel source built with
    ``cflags``: a library built from other source or other flags has
    another name, so it is never loaded in place of this one."""
    h = hashlib.sha256(_C_SOURCE.encode())
    for flag in cflags:
        h.update(b"\0" + flag.encode())
    return os.path.join(_cache_dir(), f"vrkernel-{h.hexdigest()[:16]}")


def _compile() -> "_Kernel | None":
    stem = _cache_stem(_CFLAGS)
    so_path = stem + ".so"
    # Negative-result marker: when no compiler on this machine can build
    # this exact source with these flags, every pool worker of every sweep
    # process would otherwise re-discover that by running the full
    # cc/gcc/clang probe (~seconds each).  The marker caches the failure on
    # disk, so the probe runs once per machine per cache key; delete the
    # file (or install a compiler, which changes nothing here — so
    # bump/clear the cache) to retry.
    failed_marker = stem + ".failed"
    if not os.path.exists(so_path):
        if os.path.exists(failed_marker):
            return None
        os.makedirs(os.path.dirname(stem), exist_ok=True)
        src_path = stem + ".c"
        with open(src_path, "w") as fh:
            fh.write(_C_SOURCE)
        tmp_so = so_path + f".tmp{os.getpid()}"
        errors = []
        for cc in ("cc", "gcc", "clang"):
            try:
                proc = subprocess.run(
                    [cc, *_CFLAGS, "-o", tmp_so, src_path],
                    capture_output=True, timeout=120)
            except (OSError, subprocess.TimeoutExpired) as exc:
                errors.append(f"{cc}: {exc!r}")
                continue
            if proc.returncode == 0:
                os.replace(tmp_so, so_path)
                break
            errors.append(f"{cc}: exit {proc.returncode}")
        else:
            try:
                with open(failed_marker, "w") as fh:
                    fh.write("\n".join(errors) + "\n")
            except OSError:
                pass
            return None
    try:
        return _Kernel(ctypes.CDLL(so_path))
    except OSError:
        return None


def load() -> "_Kernel | None":
    """The compiled kernel, or ``None`` (no compiler / failed compile).

    The compile is attempted at most once per process (and a *failed*
    compile at most once per machine — see the negative marker in
    :func:`_compile`).

    An injected ``ckernel.compile`` fault fires before the memo, so it
    raises on every load: the vector engine sees an unavailable kernel and
    degrades, without a failure marker polluting the real compile cache.
    """
    global _KERNEL, _KERNEL_TRIED
    from repro import faults
    faults.check("ckernel.compile")
    if not _KERNEL_TRIED:
        _KERNEL_TRIED = True
        try:
            _KERNEL = _compile()
        except Exception:
            _KERNEL = None
    return _KERNEL
