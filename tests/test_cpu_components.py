"""Tests of the branch predictor and of the ROB, LSQ and functional-unit
models as the execution lane runs them (tiny programs on one core)."""

import random

import pytest

from repro.core.hybrid import HybridSystem
from repro.cpu import executor
from repro.cpu.branch_predictor import (
    BranchTargetBuffer,
    HybridBranchPredictor,
    ReturnAddressStack,
)
from repro.cpu.config import CoreConfig
from repro.cpu.executor import ExecutionLane
from repro.cpu.rob import ReorderBuffer
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import ALU_LATENCY, Opcode
from repro.mem.hierarchy import MemoryHierarchyConfig

SMALL_MEM = MemoryHierarchyConfig(l1_size=2048, l1_assoc=2, l2_size=8192,
                                  l2_assoc=4, l3_size=32768, l3_assoc=8,
                                  prefetch_enabled=False)
#: An SM address far from the LM range: every first touch of a line misses
#: all the way to main memory.
SM_BASE = 0x10_0000


def run_lane(program, config=None, system=None):
    """Run ``program`` on one core; returns the finished timing model and
    the system."""
    system = system or HybridSystem(memory_config=SMALL_MEM,
                                    lm_size=8 * 1024)
    lane = ExecutionLane(program, system, config or CoreConfig())
    lane.run_until(float("inf"), 0)
    assert lane.done
    return lane.finish(), system


def independent_lis(n):
    b = ProgramBuilder()
    for i in range(n):
        b.li(f"r{i}", i)
    b.halt()
    return b.finish()


def miss_then(build_rest):
    """A load that misses to main memory into ``x``, then ``build_rest(b)``."""
    b = ProgramBuilder()
    b.li("p", SM_BASE)
    b.ld("x", "p")
    build_rest(b)
    b.halt()
    return b.finish()


# -------------------------------------------------------------------- branch predictor
def test_saturating_counter_learns_direction():
    bp = HybridBranchPredictor(entries=16)
    pc = 5
    for _ in range(4):
        bp.update(pc, taken=False)
    assert bp.bimodal.counters[pc % 16] == 0      # saturated low
    for _ in range(4):
        bp.update(pc, taken=True)
    assert bp.bimodal.counters[pc % 16] == 3      # saturated high
    assert not bp.update(pc, taken=True)


def test_predictor_learns_loop_branch():
    bp = HybridBranchPredictor(entries=256)
    pc = 0x400100
    mispredictions = 0
    for _ in range(100):
        if bp.update(pc, taken=True):
            mispredictions += 1
    # After warmup the loop branch is always predicted correctly.
    assert mispredictions <= 4
    assert bp.misprediction_rate < 0.1


def test_predictor_alternating_pattern_uses_history():
    bp = HybridBranchPredictor(entries=1024, history_bits=8)
    pc = 0x400200
    outcomes = [i % 2 == 0 for i in range(400)]
    misses = sum(bp.update(pc, t) for t in outcomes)
    # G-share should capture the alternating pattern after warmup.
    assert misses < 120


def test_predictor_update_equals_update_batch():
    """The scalar update the execution lane calls and the batched one the
    vector replay calls leave identical tables and flags."""
    rng = random.Random(7)
    pcs = [0x400000 + 4 * rng.randrange(64) for _ in range(3000)]
    outcomes = [rng.random() < 0.7 for _ in pcs]
    scalar = HybridBranchPredictor(entries=128, history_bits=6)
    batched = HybridBranchPredictor(entries=128, history_bits=6)
    flags = [scalar.update(pc, taken) for pc, taken in zip(pcs, outcomes)]
    assert batched.update_batch(pcs, outcomes) == flags
    for name in ("gshare", "bimodal", "selector"):
        assert getattr(scalar, name).counters == \
            getattr(batched, name).counters
    assert (scalar.history, scalar.predictions, scalar.mispredictions) == \
        (batched.history, batched.predictions, batched.mispredictions)


def test_btb_stores_and_evicts_targets():
    btb = BranchTargetBuffer(entries=8, assoc=2)
    btb.update(0x10, 0x100)
    assert btb.lookup(0x10) == 0x100
    assert btb.lookup(0x999) is None
    assert btb.hits == 1 and btb.misses == 1
    btb.update(0x20, 0x200)             # 4 sets of 2: all in 0x10's set
    btb.update(0x30, 0x300)
    assert btb.lookup(0x10) is None     # the LRU target was evicted
    assert btb.lookup(0x30) == 0x300


def test_ras_depth_bounded():
    ras = ReturnAddressStack(depth=2)
    ras.push(1)
    ras.push(2)
    ras.push(3)
    assert len(ras) == 2
    assert ras.pop() == 3
    assert ras.pop() == 2
    assert ras.pop() is None


# ------------------------------------------------------------------------------- ROB
def test_rob_in_order_commit_and_bandwidth():
    # Commit bandwidth: 400 independent instructions at two commits per
    # cycle take at least 200 cycles.
    timing, _ = run_lane(independent_lis(400), CoreConfig(commit_width=2))
    assert timing.cycles >= 200.0
    # In-order commit: nothing commits before the divide at its head.
    b = ProgramBuilder()
    b.li("a", 7)
    b.alu(Opcode.DIV, "q", "a", imm=3)
    for i in range(8):
        b.li(f"r{i}", i)
    b.halt()
    timing, _ = run_lane(b.finish())
    assert timing.reg_ready["r0"] < ALU_LATENCY[Opcode.DIV]
    assert timing.cycles >= ALU_LATENCY[Opcode.DIV]


def test_rob_dispatch_blocks_when_full():
    def rest(b):
        b.add("y", "x", imm=1)
        for i in range(16):
            b.li(f"r{i}", i)
    program = miss_then(rest)
    small, _ = run_lane(program, CoreConfig(rob_size=4))
    large, _ = run_lane(program)
    assert small.rob.dispatch_stalls > 0
    assert large.rob.dispatch_stalls == 0


def test_rob_rejects_invalid_size():
    with pytest.raises(ValueError):
        ReorderBuffer(size=0)


# ------------------------------------------------------------------------------- LSQ
def test_lsq_occupancy_limits_dispatch():
    b = ProgramBuilder()
    b.li("p", SM_BASE)
    for i in range(8):
        b.ld(f"x{i}", "p", offset=64 * i)   # eight misses in flight
    b.halt()
    program = b.finish()
    small, _ = run_lane(program, CoreConfig(lsq_size=2))
    large, _ = run_lane(program)
    assert small.lsq.occupancy_stalls > 0
    assert large.lsq.occupancy_stalls == 0
    assert small.lsq.memory_ops == 8


def test_lsq_counts_collapsed_stores():
    # Nothing is mapped at the address: the guarded store misses the
    # directory and writes the SM, so the double store's second half
    # collapses into it in the LSQ.
    system = HybridSystem(memory_config=SMALL_MEM, lm_size=8 * 1024)
    b = ProgramBuilder()
    b.set_bufsize(1024)
    b.li("p", SM_BASE)
    b.li("v", 1.5)
    b.gst("v", "p")
    b.st("v", "p", collapse_with_prev=True)
    b.halt()
    timing, system = run_lane(b.finish(), system=system)
    assert timing.lsq.collapsed_stores == 1
    assert timing.lsq.memory_ops == 2
    assert system.collapsed_stores == 1
    assert system.read_sm_word(SM_BASE) == 1.5


# ------------------------------------------------------------------- functional units
def test_fu_pool_limits_throughput_per_cycle():
    one, _ = run_lane(independent_lis(400), CoreConfig(int_alus=1))
    two, _ = run_lane(independent_lis(400), CoreConfig(int_alus=2))
    assert one.ipc <= 1.0 + 1e-9
    assert one.fus.contended_cycles > 0
    assert 1.5 < two.ipc <= 2.0 + 1e-9


def test_fu_pool_does_not_let_stalled_ops_block_early_ones():
    # ``y`` waits for the miss and reserves the single ALU far in the
    # future; the independent ``z`` after it still runs at once.
    def rest(b):
        b.add("y", "x", imm=1)
        b.add("z", "p", imm=1)
    timing, _ = run_lane(miss_then(rest), CoreConfig(int_alus=1))
    assert timing.reg_ready["y"] > 100.0
    assert timing.reg_ready["z"] < 10.0


def test_fu_pool_unpipelined_divider_blocks_unit():
    b = ProgramBuilder()
    b.li("a", 7)
    b.alu(Opcode.DIV, "q", "a", imm=3)
    b.add("s", "a", imm=1)              # independent, but the ALU is busy
    b.halt()
    timing, _ = run_lane(b.finish(), CoreConfig(int_alus=1))
    div_start = timing.reg_ready["q"] - ALU_LATENCY[Opcode.DIV]
    assert timing.reg_ready["s"] >= div_start + ALU_LATENCY[Opcode.DIV]
    assert timing.fus.contended_cycles > 0


def test_fu_pool_prune_keeps_future_reservations(monkeypatch):
    """Dropping reservations below the front end changes nothing: a run
    long enough to prune its tables equals the same run unpruned."""
    def loop():
        b = ProgramBuilder()
        b.li("p", SM_BASE)
        b.li("end", SM_BASE + 64 * 4000)
        b.li("acc", 0)
        top = b.label(b.new_label("top"))
        b.ld("x", "p")                   # a miss: a reservation far ahead
        b.alu(Opcode.DIV, "d", "x", imm=3)
        b.add("acc", "acc", "d")
        b.add("p", "p", imm=64)
        b.blt("p", "end", top)
        b.halt()
        return b.finish()

    def summary(timing, system):
        return (timing.cycles, timing.fus.contended_cycles,
                timing.rob.dispatch_stalls, timing.lsq.occupancy_stalls,
                dict(timing.phase_cycles), system.stats_summary())

    pruned = run_lane(loop())
    monkeypatch.setattr(executor, "_PRUNE_EVERY", 10 ** 9)
    unpruned = run_lane(loop())
    assert len(pruned[0]._issue_slots) < len(unpruned[0]._issue_slots)
    assert summary(*pruned) == summary(*unpruned)
