"""Block-compiled RISC-V ISS: equivalence with the seed interpreter.

The decoded path must be bit-exact versus the interpreted path on every
observable: cycle count, full :class:`CpuStats` (including the mnemonic
histogram), architectural registers, the data-memory image, the final PC and
halt flag -- and, when a program faults, the error and the partial state at
the fault.  The property test drives randomized RV32IM programs (random ALU
soup, loads and stores through any base register with any 12-bit offset, so
accesses fault mid-block, branches and jumps with arbitrary targets) from
random register and memory state under randomized cycle models, also at
instruction limits small enough to land inside a block; the golden test pins
the kcycle counts of the benchmark programs on both paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.riscv.programs  # noqa: F401  (registers the benchmark programs)
from repro.errors import SimulationError
from repro.riscv.assembler import RvAssembler, RvProgram, T0, T1, ZERO
from repro.riscv.cpu import CpuCycleModel, RiscvCpu
from repro.riscv.decode import RvDecodedProgram, predecode_riscv_program
from repro.riscv.isa import RvFormat, RvInstruction, RvOpcode
from repro.riscv.memory import RvMemory
from repro.riscv.programs import all_riscv_program_names, get_riscv_program_spec

MEMORY_BYTES = 2048
MEMORY_WORDS = MEMORY_BYTES // 4

REG = st.integers(min_value=0, max_value=31)
WORD = st.integers(min_value=0, max_value=0xFFFFFFFF)
IMM12 = st.integers(min_value=-2048, max_value=2047)
SHAMT = st.integers(min_value=0, max_value=31)
IMM20 = st.integers(min_value=0, max_value=(1 << 20) - 1)

# Load/store base: x0 half of the time (in-range traffic), any register otherwise.
BASE = st.one_of(st.just(ZERO), REG)

_R_OPS = [op for op in RvOpcode if op.info.fmt is RvFormat.R]
_I_ALU_OPS = [
    RvOpcode.ADDI,
    RvOpcode.SLTI,
    RvOpcode.SLTIU,
    RvOpcode.XORI,
    RvOpcode.ORI,
    RvOpcode.ANDI,
]
_SHIFT_OPS = [RvOpcode.SLLI, RvOpcode.SRLI, RvOpcode.SRAI]
_BRANCH_OPS = [op for op in RvOpcode if op.info.fmt is RvFormat.B]

# Aligned in-memory word offsets (in range when the base is x0), mixed with
# arbitrary 12-bit offsets; with a non-x0 base most accesses are misaligned
# or out of range, so runs also fault inside a load or store.
MEM_OFFSET = st.one_of(
    st.integers(min_value=0, max_value=MEMORY_WORDS - 1).map(lambda w: w * 4), IMM12
)


@st.composite
def _instruction(draw) -> RvInstruction:
    choice = draw(st.integers(min_value=0, max_value=7))
    if choice == 0:
        return RvInstruction(
            draw(st.sampled_from(_R_OPS)), rd=draw(REG), rs1=draw(REG), rs2=draw(REG)
        )
    if choice == 1:
        return RvInstruction(
            draw(st.sampled_from(_I_ALU_OPS)), rd=draw(REG), rs1=draw(REG), imm=draw(IMM12)
        )
    if choice == 2:
        return RvInstruction(
            draw(st.sampled_from(_SHIFT_OPS)), rd=draw(REG), rs1=draw(REG), imm=draw(SHAMT)
        )
    if choice == 3:
        return RvInstruction(RvOpcode.LW, rd=draw(REG), rs1=draw(BASE), imm=draw(MEM_OFFSET))
    if choice == 4:
        return RvInstruction(RvOpcode.SW, rs1=draw(BASE), rs2=draw(REG), imm=draw(MEM_OFFSET))
    if choice == 5:
        # Branch with an arbitrary (possibly out-of-program) even target.
        return RvInstruction(
            draw(st.sampled_from(_BRANCH_OPS)),
            rs1=draw(REG),
            rs2=draw(REG),
            imm=draw(st.integers(min_value=-16, max_value=16).map(lambda k: k * 4)),
        )
    if choice == 6:
        return RvInstruction(
            draw(st.sampled_from([RvOpcode.LUI, RvOpcode.AUIPC])),
            rd=draw(REG),
            imm=draw(IMM20),
        )
    return RvInstruction(
        RvOpcode.JAL,
        rd=draw(REG),
        imm=draw(st.integers(min_value=-16, max_value=16).map(lambda k: k * 4)),
    )


@st.composite
def _program(draw) -> RvProgram:
    body = draw(st.lists(_instruction(), min_size=1, max_size=24))
    # A halt at the end keeps straight-line runs terminating; branches and
    # jumps may still leave the program or loop into the instruction limit,
    # and both paths must agree on that outcome too.
    body.append(RvInstruction(RvOpcode.EBREAK))
    return RvProgram("random", tuple(body))


@st.composite
def _cycle_model(draw) -> CpuCycleModel:
    cost = st.integers(min_value=1, max_value=9)
    return CpuCycleModel(
        alu_cycles=draw(cost),
        load_cycles=draw(cost),
        store_cycles=draw(cost),
        mul_cycles=draw(cost),
        mulh_cycles=draw(cost),
        div_cycles=draw(cost),
        branch_not_taken_cycles=draw(cost),
        branch_taken_cycles=draw(cost),
        jump_cycles=draw(cost),
    )


# Initial register values: any word (bit 31 set half the time, so signed
# operations see negative operands from the first instruction), in-range
# addresses (so loads and stores through them also succeed), or unmasked
# values, which both paths must read modulo 2**32.
REG_VALUE = st.one_of(
    WORD, st.integers(min_value=0, max_value=MEMORY_BYTES + 64), st.integers(-(1 << 34), 1 << 34)
)
INIT_REGS = st.lists(REG_VALUE, min_size=32, max_size=32)


def _run_path(
    program: RvProgram,
    init_words,
    init_regs,
    predecode: bool,
    model: CpuCycleModel,
    max_instructions: int = 2000,
):
    memory = RvMemory(MEMORY_BYTES)
    memory.write_buffer(0, init_words)
    cpu = RiscvCpu(memory, cycle_model=model, max_instructions=max_instructions)
    cpu.registers = list(init_regs)
    cpu.predecode = predecode
    error = None
    try:
        cpu.run(program)
    except SimulationError as exc:
        error = str(exc)
    return cpu, error


def _assert_paths_agree(program, init, regs, model, max_instructions=2000):
    decoded_cpu, decoded_error = _run_path(program, init, regs, True, model, max_instructions)
    seed_cpu, seed_error = _run_path(program, init, regs, False, model, max_instructions)

    assert decoded_error == seed_error
    assert decoded_cpu.stats == seed_cpu.stats  # full CpuStats, histogram included
    assert decoded_cpu.halted == seed_cpu.halted
    assert decoded_cpu.pc == seed_cpu.pc
    assert [decoded_cpu.read_reg(i) for i in range(32)] == [
        seed_cpu.read_reg(i) for i in range(32)
    ]
    decoded_image = decoded_cpu.memory.read_buffer(0, MEMORY_WORDS)
    seed_image = seed_cpu.memory.read_buffer(0, MEMORY_WORDS)
    assert np.array_equal(decoded_image, seed_image)


@given(
    program=_program(),
    init=st.lists(WORD, min_size=MEMORY_WORDS, max_size=MEMORY_WORDS),
    regs=INIT_REGS,
    model=_cycle_model(),
)
@settings(max_examples=120, deadline=None)
def test_decoded_path_matches_seed_interpreter(program, init, regs, model):
    _assert_paths_agree(program, init, regs, model)


@pytest.mark.parametrize("max_instructions", [5, 37])
@given(
    program=_program(),
    init=st.lists(WORD, min_size=MEMORY_WORDS, max_size=MEMORY_WORDS),
    regs=INIT_REGS,
    model=_cycle_model(),
)
@settings(max_examples=120, deadline=None)
def test_decoded_path_matches_seed_interpreter_at_small_limits(
    max_instructions, program, init, regs, model
):
    """The instruction limit lands inside a block: a cut block runs first."""
    _assert_paths_agree(program, init, regs, model, max_instructions)


EDGE_WORDS = [0, 1, 2, 31, 32, 0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFE, 0xFFFFFFFF]
EDGE_IMMS = [-2048, -1, 0, 1, 5, 31, 2047]


@pytest.mark.parametrize(
    "opcode", _R_OPS + _I_ALU_OPS + _SHIFT_OPS + _BRANCH_OPS, ids=lambda op: op.info.mnemonic
)
def test_alu_and_branch_semantics_match_seed_on_edge_words(opcode):
    """Every ALU and branch opcode on sign, overflow and zero edge operands.

    A taken branch leaves the two-instruction program, so the error, the
    cycles and ``taken_branches`` all show the branch outcome.
    """
    fmt = opcode.info.fmt
    if fmt in (RvFormat.R, RvFormat.B):
        seconds = EDGE_WORDS
    else:
        seconds = [0, 1, 5, 31] if opcode in _SHIFT_OPS else EDGE_IMMS
    for a in EDGE_WORDS:
        for b in seconds:
            if fmt is RvFormat.R:
                instruction = RvInstruction(opcode, rd=3, rs1=1, rs2=2)
            elif fmt is RvFormat.B:
                instruction = RvInstruction(opcode, rs1=1, rs2=2, imm=8)
            else:
                instruction = RvInstruction(opcode, rd=3, rs1=1, imm=b)
            program = RvProgram("edge", (instruction, RvInstruction(RvOpcode.EBREAK)))
            regs = [0] * 32
            regs[1], regs[2] = a, b
            _assert_paths_agree(program, [0] * MEMORY_WORDS, regs, CpuCycleModel())


@pytest.mark.parametrize(
    "base_value, error",
    [(6, "unaligned word access at 0xe"), (2040, "data access out of range: 0x800")],
)
@pytest.mark.parametrize("predecode", [True, False])
def test_fault_inside_a_block_charges_the_prefix(predecode, base_value, error):
    """A load faulting mid-block leaves the seed's partial state and PC."""
    asm = RvAssembler("fault")
    asm.li(T0, base_value)
    asm.emit(RvOpcode.ADDI, rd=T1, rs1=ZERO, imm=7)
    asm.emit(RvOpcode.SW, rs1=ZERO, rs2=T1, imm=0)
    asm.emit(RvOpcode.LW, rd=T1, rs1=T0, imm=8)
    asm.emit(RvOpcode.ADDI, rd=T1, rs1=T1, imm=1)
    asm.halt()
    memory = RvMemory(MEMORY_BYTES)
    cpu = RiscvCpu(memory)
    cpu.predecode = predecode
    with pytest.raises(SimulationError) as raised:
        cpu.run(asm.assemble())
    assert str(raised.value) == error
    assert cpu.pc == 12  # on the faulting load
    assert not cpu.halted
    assert cpu.read_reg(T1) == 7
    assert memory.load_word(0) == 7
    assert (cpu.stats.instructions, cpu.stats.cycles, cpu.stats.stores, cpu.stats.loads) == (
        3,
        3,
        1,
        0,
    )
    assert cpu.stats.mnemonic_counts == {"addi": 2, "sw": 1}


# --------------------------------------------------------------------------- #
# Golden cycles of the benchmark programs (paper sizes, seed 2022): the seven
# Table III rows plus the extended suite.  Regenerate deliberately with
# ``python tests/tools/regen_goldens.py`` after an intended ISS change.
# --------------------------------------------------------------------------- #
GOLDEN_CYCLES = {
    "mat_mul": 166028,
    "copy": 5642,
    "vec_mul": 17420,
    "fir": 38667,
    "div_int": 25100,
    "xcorr": 1118220,
    "parallel_sel": 182537,
    "saxpy": 18445,
    "dot": 7719,
    "reduce_sum": 9279,
    "inclusive_scan": 5665,
    "histogram": 7690,
    "transpose": 8715,
    "matmul2d": 43147,
    "conv2d": 11530,
    "bitonic_sort": 69397,
}


def test_golden_covers_all_programs():
    assert sorted(GOLDEN_CYCLES) == sorted(all_riscv_program_names())


@pytest.mark.parametrize("name", sorted(GOLDEN_CYCLES))
def test_decoded_golden_kcycles(name):
    spec = get_riscv_program_spec(name)
    case = spec.default_case()
    stats, _ = case.run()  # output buffers are verified by run(check=True)
    assert stats.cycles == GOLDEN_CYCLES[name]
    assert stats.kcycles == pytest.approx(GOLDEN_CYCLES[name] / 1000.0)


@pytest.mark.parametrize("name", ["copy", "vec_mul"])
def test_seed_interpreter_golden_kcycles(name):
    """Spot-check that the goldens pin the *seed* path too (it is slower)."""
    spec = get_riscv_program_spec(name)
    case = spec.build_case(spec.paper_size, 2022)
    cpu = RiscvCpu(case.memory)
    cpu.predecode = False
    stats, _ = case.run(cpu=cpu)
    assert stats.cycles == GOLDEN_CYCLES[name]


# --------------------------------------------------------------------------- #
# Decode reuse and structure
# --------------------------------------------------------------------------- #
def test_predecoded_program_is_reusable_across_runs(monkeypatch):
    asm = RvAssembler("reuse")
    asm.li(T0, 3)
    asm.li(T1, 0)
    asm.label("head")
    asm.emit(RvOpcode.ADD, rd=T1, rs1=T1, rs2=T0)
    asm.emit(RvOpcode.ADDI, rd=T0, rs1=T0, imm=-1)
    asm.emit(RvOpcode.BNE, rs1=T0, rs2=ZERO, label="head")
    asm.halt()
    program = asm.assemble()
    cpu = RiscvCpu(RvMemory())
    decoded = predecode_riscv_program(program, cpu.cycle_model)
    first = cpu.run(program, decoded=decoded)
    first_snapshot = (first.cycles, first.instructions, dict(first.mnemonic_counts))
    compiled = dict(decoded.blocks)
    # The entry block and the loop body (entered mid-way through the first).
    assert sorted(compiled) == [0, 8]

    compiles = []
    original = RvDecodedProgram.compile_block

    def counting_compile(self, pc, max_length=None):
        compiles.append(pc)
        return original(self, pc, max_length)

    monkeypatch.setattr(RvDecodedProgram, "compile_block", counting_compile)
    cpu.registers = [0] * 32
    second = cpu.run(program, decoded=decoded)
    assert (second.cycles, second.instructions, dict(second.mnemonic_counts)) == first_snapshot
    assert cpu.read_reg(T1) == 6
    # The second run compiled nothing: every block came from the first.
    assert compiles == []
    assert decoded.blocks.keys() == compiled.keys()
    assert all(decoded.blocks[pc] is block for pc, block in compiled.items())


def test_decoded_program_shape():
    asm = RvAssembler("shape")
    asm.li(T0, 4)
    asm.emit(RvOpcode.SW, rs1=ZERO, rs2=T0, imm=4)
    asm.emit(RvOpcode.LW, rd=T1, rs1=ZERO, imm=4)
    asm.emit(RvOpcode.ADDI, rd=ZERO, rs1=T0, imm=5)
    asm.emit(RvOpcode.LW, rd=ZERO, rs1=T0, imm=8)
    asm.emit(RvOpcode.BEQ, rs1=T1, rs2=ZERO, imm=8)
    asm.emit(RvOpcode.JAL, rd=ZERO, imm=4)
    asm.halt()
    program = asm.assemble()
    model = CpuCycleModel()
    decoded = predecode_riscv_program(program, model)
    assert len(decoded) == len(program)
    assert decoded.blocks == {}  # blocks compile on first entry
    halt_pc = 4 * (len(program) - 1)
    assert decoded.is_halt(halt_pc)  # EBREAK is executed by the run loop
    assert not any(decoded.is_halt(4 * i) for i in range(len(program) - 1))

    # The entry block runs up to and including the first branch.
    entry = decoded.block(0)
    assert entry.length == 6
    assert entry.cycles == 2 * model.alu_cycles + model.store_cycles + 2 * model.load_cycles
    assert entry.histogram == {"addi": 2, "sw": 1, "lw": 2, "beq": 1}
    # Register indices, immediates and ``li`` constants are literals; every
    # register write is stored at once and kept in a local for later reads.
    # The x0 write is dropped, the x0 load keeps its check.
    assert "regs[5] = 4\n" in entry.source
    assert "words[a >> 2] = 4\n" in entry.source
    assert "regs[6] = x6 = words[a >> 2]\n" in entry.source
    assert "if x6 == 0:" in entry.source
    assert "regs[0]" not in entry.source
    assert entry.source.count("fault(") == 3
    assert "a = (4 + 8) & 4294967295\n    if a & 3 or a >= size: fault(a, 4)\n" in entry.source
    # The block at PC p leaves through exit slot p >> 1, or the next slot
    # for a taken branch; the terminator's cycles are charged per exit.
    assert "return (28, 1)" in entry.source
    assert "return (24, 0)" in entry.source
    assert entry.exit_cycles == (model.branch_not_taken_cycles, model.branch_taken_cycles)

    # A jump into the middle of a block compiles a new block there; a block
    # also ends before an EBREAK.
    middle = decoded.block(8)
    assert middle.length == 4
    assert "return (28, 5)" in middle.source
    assert "a = (regs[5] + 8) & 4294967295" in middle.source
    assert middle.histogram == {"lw": 2, "addi": 1, "beq": 1}
    jump = decoded.block(24)
    assert jump.histogram == {"jal": 1}
    assert (jump.cycles, jump.exit_cycles) == (0, (model.jump_cycles, model.jump_cycles))
    assert "return (28, 12)" in jump.source
    assert sorted(decoded.blocks) == [0, 8, 24]
    assert decoded.block(0) is entry  # compiled once

    # A block cut by the instruction limit is compiled on the side.
    cut = decoded.compile_block(0, 2)
    assert (cut.length, cut.histogram) == (2, {"addi": 1, "sw": 1})
    assert (cut.cycles, cut.exit_cycles) == (model.alu_cycles + model.store_cycles, (0, 0))
    assert "return (8, 0)" in cut.source
    assert sorted(decoded.blocks) == [0, 8, 24]

    stats = RiscvCpu(RvMemory()).run(program, decoded=decoded)
    assert stats.loads == 2 and stats.stores == 1
