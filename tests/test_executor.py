"""Unit tests for the execution lane's functional semantics."""

import pytest

from repro.core.hybrid import HybridSystem
from repro.cpu.executor import ExecutionError, ExecutionLane
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import Opcode
from repro.mem.hierarchy import MemoryHierarchyConfig


SMALL_MEM = MemoryHierarchyConfig(l1_size=2048, l1_assoc=2, l2_size=8192,
                                  l2_assoc=4, l3_size=32768, l3_assoc=8,
                                  prefetch_enabled=False)
INF = float("inf")


def make_system():
    return HybridSystem(memory_config=SMALL_MEM, lm_size=8 * 1024)


def run_lane(program, system, **kwargs):
    lane = ExecutionLane(program, system, **kwargs)
    lane.run_until(INF, 0)
    assert lane.done
    return lane, lane.finish()


def run_program(builder, system=None):
    program = builder.finish()
    program.assign_addresses()
    system = system or make_system()
    lane, _ = run_lane(program, system)
    return lane, system, program


def test_alu_semantics():
    b = ProgramBuilder()
    b.li("r1", 6)
    b.li("r2", 4)
    b.add("r3", "r1", "r2")
    b.sub("r4", "r1", "r2")
    b.mul("r5", "r1", "r2")
    b.alu(Opcode.DIV, "r6", "r1", "r2")
    b.alu(Opcode.AND, "r7", "r1", "r2")
    b.alu(Opcode.MIN, "r8", "r1", "r2")
    b.shl("r9", "r1", imm=2)
    b.halt()
    lane, _, _ = run_program(b)
    regs = lane.registers
    assert regs["r3"] == 10
    assert regs["r4"] == 2
    assert regs["r5"] == 24
    assert regs["r6"] == 1
    assert regs["r7"] == 4
    assert regs["r8"] == 4
    assert regs["r9"] == 24


def test_division_by_zero_is_defined():
    b = ProgramBuilder()
    b.li("r1", 5)
    b.li("r2", 0)
    b.alu(Opcode.DIV, "r3", "r1", "r2")
    b.fdiv("f1", "r1", "r2")
    b.halt()
    lane, _, _ = run_program(b)
    assert lane.registers["r3"] == 0
    assert lane.registers["f1"] == 0.0


def test_loop_branching_and_counting():
    b = ProgramBuilder()
    b.li("r_i", 0)
    b.li("r_n", 10)
    b.li("r_sum", 0)
    b.label("loop")
    b.add("r_sum", "r_sum", "r_i")
    b.add("r_i", "r_i", imm=1)
    b.blt("r_i", "r_n", "loop")
    b.halt()
    program = b.finish()
    program.assign_addresses()
    lane, timing = run_lane(program, make_system())
    assert lane.registers["r_sum"] == sum(range(10))
    # Halted: 3 set-up instructions, 10 trips of the 3-instruction loop
    # body, then the HALT itself retired.
    assert lane.done
    assert timing.committed == 3 + 10 * 3 + 1


def test_memory_round_trip_through_system():
    b = ProgramBuilder()
    b.declare_array("a", 8, data=[float(i) for i in range(8)])
    b.li("r_base", 0)
    b.ld("f1", "r_base", offset=16)
    b.fadd("f2", "f1", imm=0.5)
    b.st("f2", "r_base", offset=24)
    b.halt()
    program = b.finish()
    program.assign_addresses()
    base = program.arrays["a"].base
    for inst in program.instructions:
        if inst.opcode is Opcode.LI and inst.dst == "r_base":
            inst.imm = base
    system = make_system()
    # Load initial data.
    for i in range(8):
        system.write_sm_word(base + i * 8, float(i))
    run_lane(program, system)
    assert system.read_sm_word(base + 24) == 2.5


def test_dma_instructions_drive_the_dmac():
    b = ProgramBuilder()
    b.set_bufsize(1024)
    b.li("r_lm", 0)       # patched below to the LM virtual base
    b.li("r_sm", 0x4000)
    b.li("r_size", 1024)
    b.dma_get("r_lm", "r_sm", "r_size", tag=1)
    b.dma_sync(1)
    b.halt()
    program = b.finish()
    program.assign_addresses()
    system = make_system()
    for inst in program.instructions:
        if inst.opcode is Opcode.LI and inst.dst == "r_lm":
            inst.imm = system.lm_virtual_base
    system.write_sm_word(0x4000, 9.0)
    _, timing = run_lane(program, system)
    assert system.lm.peek(0) == 9.0
    # The dma-synch stalled until the transfer completed: the 7-instruction
    # program takes longer than the transfer itself.
    dmac = system.dmac
    transfer = dmac.setup_latency + dmac.lines_transferred * dmac.per_line_latency
    assert dmac.syncs == 1 and transfer > 0
    assert timing.cycles > transfer


def test_runaway_program_hits_instruction_limit():
    b = ProgramBuilder()
    b.label("spin")
    b.jmp("spin")
    program = b.finish()
    program.assign_addresses()
    with pytest.raises(ExecutionError):
        run_lane(program, make_system(), max_instructions=1000)


def test_unknown_register_reads_zero():
    b = ProgramBuilder()
    b.add("r1", "r_never_written", imm=3)
    b.halt()
    lane, _, _ = run_program(b)
    assert lane.registers["r1"] == 3


def _lm_and_double_store_program(lm_base):
    b = ProgramBuilder()
    b.set_bufsize(1024)
    b.li("lm", lm_base)
    b.li("p", 0x10_0000)
    b.li("v", 2.0)
    for i in range(4):
        b.st("v", "lm", offset=8 * i)
        b.ld("x", "lm", offset=8 * i)
    b.gst("v", "p")             # directory miss: writes the SM copy
    b.st("v", "lm")             # an LM store between the two halves...
    b.st("v", "p", collapse_with_prev=True)     # ...so no collapse here
    b.gst("v", "p", offset=8)
    b.st("v", "p", offset=8, collapse_with_prev=True)   # collapses
    b.halt()
    return b.finish()


def test_inline_lm_accesses_equal_memory_system_calls(monkeypatch):
    """A lane runs plain LM-range loads and stores itself; every counter,
    the store-collapse latch and the timing must come out exactly as when
    they go through ``HybridSystem.load``/``store``."""
    def run():
        system = make_system()
        program = _lm_and_double_store_program(system.lm_virtual_base)
        lane, timing = run_lane(program, system)
        return (timing.cycles, timing.lsq_collapsed_stores,
                dict(timing.phase_cycles), lane.registers,
                system.stats_summary(), list(system.lm._words[:8]))

    inline = run()
    monkeypatch.setattr(HybridSystem, "private_lm", lambda self: None)
    called = run()
    assert inline == called
    assert inline[1] == 1 and inline[4]["lm_writes"] == 5
    assert inline[4]["mem_ops"] == 13


@pytest.mark.parametrize("cores", [1, 2])
def test_l1i_settled_at_finish_equals_scalar_fetch_walk(monkeypatch, cores):
    """A lane buffers its fetch-group addresses and settles the L1I in one
    batch at ``finish``; on an L1I that evicts, that must equal accessing
    (and filling on a miss) once per fetch group, and replay, which derives
    the fetches from the recorded stream instead, must agree too (MG
    thrashes a 512-byte 2-way L1I)."""
    import dataclasses

    from repro.harness.config import PTLSIM_CONFIG
    from repro.mem.hierarchy import MemoryHierarchy
    from repro.trace import capture_workload, replay_trace

    machine = dataclasses.replace(
        PTLSIM_CONFIG, num_cores=cores,
        memory=PTLSIM_CONFIG.memory.copy_with(l1i_size=512, l1i_assoc=2))
    batched, trace = capture_workload("MG", "hybrid", "tiny",
                                      machine=machine)
    replayed = replay_trace(trace, machine)

    def scalar_fetch(self, addrs):
        for addr in addrs:
            self.icache_accesses += 1
            if not self.l1i.access(addr, False):
                self.l1i.fill(addr)
    monkeypatch.setattr(MemoryHierarchy, "fetch", scalar_fetch)
    scalar, _ = capture_workload("MG", "hybrid", "tiny", machine=machine)

    l1i = batched.sim.memory_stats["hierarchy"]["L1I"]
    assert l1i["evictions"] > 0
    assert l1i == scalar.sim.memory_stats["hierarchy"]["L1I"]
    assert l1i == replayed.sim.memory_stats["hierarchy"]["L1I"]
    assert batched.to_record().as_dict() == scalar.to_record().as_dict()
