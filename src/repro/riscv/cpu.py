"""RV32IM instruction-set simulator with an in-order cycle model.

The baseline in the paper is the OpenHW CV32E40P, a 4-stage in-order RV32IM
core with tightly-coupled memory, synthesized at 667 MHz in the same 65nm
technology.  The ISS below executes the benchmark programs functionally and
charges a CV32E40P-like cycle cost per instruction: single-cycle ALU,
two-cycle loads, a pipeline-flush penalty on taken branches and jumps, and a
multi-cycle serial divider.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.riscv.decode import BlockFault, RvDecodedProgram, predecode_riscv_program
from repro.riscv.isa import RvFormat, RvInstruction, RvOpcode
from repro.riscv.assembler import RvProgram
from repro.riscv.memory import RvMemory

WORD_MASK = 0xFFFFFFFF

# Area of the synthesized RISC-V baseline (core + 32 kB memory) implied by the
# paper's area ratios: every "Area Ratio" row of Fig. 6 divided into the
# corresponding G-GPU area of Table I gives ~0.71 mm^2.
RV32_SYNTH_AREA_MM2 = 0.71


@dataclass
class CpuCycleModel:
    """Per-instruction cycle costs of the in-order core."""

    alu_cycles: int = 1
    load_cycles: int = 2
    store_cycles: int = 1
    mul_cycles: int = 3
    mulh_cycles: int = 5
    div_cycles: int = 35
    branch_not_taken_cycles: int = 1
    branch_taken_cycles: int = 4
    jump_cycles: int = 3

    def cost(self, instruction: RvInstruction, taken: bool) -> int:
        """Cycle cost of one executed instruction."""
        opcode = instruction.opcode
        if opcode is RvOpcode.LW:
            return self.load_cycles
        if opcode is RvOpcode.SW:
            return self.store_cycles
        if opcode is RvOpcode.MUL:
            return self.mul_cycles
        if opcode in (RvOpcode.MULH, RvOpcode.MULHU):
            return self.mulh_cycles
        if opcode in (RvOpcode.DIV, RvOpcode.DIVU, RvOpcode.REM, RvOpcode.REMU):
            return self.div_cycles
        if opcode in (RvOpcode.JAL, RvOpcode.JALR):
            return self.jump_cycles
        if instruction.opcode.info.fmt is RvFormat.B:
            return self.branch_taken_cycles if taken else self.branch_not_taken_cycles
        return self.alu_cycles


@dataclass
class CpuStats:
    """Execution statistics of one RISC-V run."""

    instructions: int = 0
    cycles: int = 0
    loads: int = 0
    stores: int = 0
    taken_branches: int = 0
    mnemonic_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def kcycles(self) -> float:
        """Cycle count in thousands of cycles (the unit of Table III)."""
        return self.cycles / 1.0e3

    @property
    def cpi(self) -> float:
        """Average cycles per instruction."""
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions


def _signed(value: int) -> int:
    value &= WORD_MASK
    return value - (1 << 32) if value & 0x80000000 else value


def _block_stats(
    decoded: RvDecodedProgram,
    instructions: int,
    exits: List[int],
    partial: List[Tuple[int, int]],
) -> CpuStats:
    """The statistics of a block-compiled run.

    ``exits[pc >> 1]`` / ``exits[(pc >> 1) + 1]`` count how often the block
    at ``pc`` left through exit 0 / exit 1 (a taken branch); ``partial``
    lists the ``(pc, length)`` instruction runs executed outside whole
    blocks.
    """
    cycles = 0
    taken_branches = 0
    mnemonic_counts = dict.fromkeys(decoded.mnemonics, 0)
    for pc, block in decoded.blocks.items():
        fall_through, taken = exits[pc >> 1], exits[(pc >> 1) + 1]
        executed = fall_through + taken
        if executed:
            cycles += executed * block.cycles
            cycles += fall_through * block.exit_cycles[0] + taken * block.exit_cycles[1]
            taken_branches += taken
            for mnemonic, count in block.histogram.items():
                mnemonic_counts[mnemonic] += executed * count
    for pc, length in partial:
        cycles += sum(decoded.costs[pc >> 2 : (pc >> 2) + length])
        for mnemonic, count in decoded.histogram(pc, length).items():
            mnemonic_counts[mnemonic] += count
    return CpuStats(
        instructions=instructions,
        cycles=cycles,
        loads=mnemonic_counts.get("lw", 0),
        stores=mnemonic_counts.get("sw", 0),
        taken_branches=taken_branches,
        mnemonic_counts={m: count for m, count in mnemonic_counts.items() if count},
    )


class RiscvCpu:
    """Functional RV32IM simulator with the cycle model above.

    Two execution paths produce bit-identical results, cycle counts, and
    statistics:

    * the *pre-decoded* path (default): the program is compiled into
      basic blocks, one generated Python function each
      (:mod:`repro.riscv.decode`), and the run loop dispatches once per
      block, counting instructions and block exits only,
    * the *interpreted* path (``predecode = False``): the seed interpreter,
      which re-derives the opcode class and cycle cost per executed
      instruction.  It is kept as the reference for the equivalence tests,
      mirroring ``ComputeUnit.macro_step``.
    """

    def __init__(
        self,
        memory: Optional[RvMemory] = None,
        cycle_model: Optional[CpuCycleModel] = None,
        max_instructions: int = 200_000_000,
    ) -> None:
        self.memory = memory or RvMemory()
        self.cycle_model = cycle_model or CpuCycleModel()
        self.max_instructions = max_instructions
        self.registers = [0] * 32
        self.pc = 0
        self.halted = False
        self.stats = CpuStats()
        self.predecode = True

    # ------------------------------------------------------------------ #
    # Register helpers
    # ------------------------------------------------------------------ #
    def read_reg(self, index: int) -> int:
        """Unsigned value of register ``index`` (x0 reads zero)."""
        return 0 if index == 0 else self.registers[index] & WORD_MASK

    def write_reg(self, index: int, value: int) -> None:
        """Write a register (writes to x0 are discarded)."""
        if index != 0:
            self.registers[index] = value & WORD_MASK

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        program: RvProgram,
        entry_pc: int = 0,
        decoded: Optional[RvDecodedProgram] = None,
    ) -> CpuStats:
        """Execute ``program`` until EBREAK; returns the statistics.

        ``decoded`` lets callers reuse one :class:`RvDecodedProgram`, and the
        blocks it has compiled, across runs (it must have been decoded
        against this CPU's cycle model); when omitted the program is decoded
        on entry and each block is compiled when first entered.
        """
        self.pc = entry_pc
        self.halted = False
        self.stats = CpuStats()
        if self.predecode:
            return self._run_decoded(program, entry_pc, decoded)
        return self._run_interpreted(program)

    def _run_decoded(
        self,
        program: RvProgram,
        entry_pc: int,
        decoded: Optional[RvDecodedProgram],
    ) -> CpuStats:
        """Block-at-a-time run loop over the compiled basic blocks."""
        if decoded is None:
            decoded = predecode_riscv_program(program, self.cycle_model)
        # The blocks assume masked register values (they skip the seed
        # interpreter's per-read ``& WORD_MASK``); normalize any externally
        # poked state once.  x0 is folded to 0 at compile time and never read
        # or written through the register list.
        regs = self.registers
        for index in range(32):
            regs[index] &= WORD_MASK
        words = self.memory.words
        size = self.memory.size_bytes
        get_block = decoded.blocks.get
        # Exits taken per block (block at ``pc`` owns slots ``pc >> 1`` and
        # ``(pc >> 1) + 1``), plus the instruction runs charged outside whole
        # blocks: the EBREAK, a block cut at the instruction limit, and the
        # prefix of a faulting block.
        exits = [0] * (2 * len(decoded))
        partial: List[Tuple[int, int]] = []
        limit = self.max_instructions
        pc = entry_pc
        instructions = 0
        try:
            while True:
                block = get_block(pc)
                if block is None:
                    if instructions >= limit:
                        raise SimulationError("RISC-V simulation exceeded the instruction limit")
                    if not 0 <= pc < 4 * len(decoded):
                        raise SimulationError(f"PC {pc:#x} is outside the program")
                    if pc & 3:
                        raise SimulationError(
                            f"misaligned PC {pc:#x}: instruction addresses must be 4-byte aligned"
                        )
                    if decoded.is_halt(pc):
                        partial.append((pc, 1))
                        instructions += 1
                        pc += 4
                        self.halted = True
                        break
                    block = decoded.block(pc)
                run, length, _, _, _, _ = block
                instructions += length
                if instructions > limit:
                    # The limit falls inside this block: run exactly the
                    # instructions left, then raise at the next block entry.
                    instructions -= length
                    length = limit - instructions
                    if length == 0:
                        raise SimulationError("RISC-V simulation exceeded the instruction limit")
                    run = decoded.compile_block(pc, length).run
                    instructions = limit
                    next_pc = run(regs, words, size)[0]
                    partial.append((pc, length))
                    pc = next_pc
                    continue
                pc, exit_slot = run(regs, words, size)
                exits[exit_slot] += 1
        except BlockFault as fault:
            # Charge the block's completed prefix; ``pc`` still holds the
            # block's entry, so it lands on the faulting instruction.
            instructions += fault.position - length
            partial.append((pc, fault.position))
            pc += 4 * fault.position
            raise SimulationError(str(fault)) from None
        finally:
            # Materialize the statistics exactly once (also on errors, so the
            # partial counts match what the interpreted path would have
            # accumulated instruction by instruction).
            self.stats = _block_stats(decoded, instructions, exits, partial)
            self.pc = pc
        return self.stats

    def _run_interpreted(self, program: RvProgram) -> CpuStats:
        """The seed per-instruction interpreter (reference path).

        Starts from ``self.pc``, which :meth:`run` set to the entry PC.
        """
        while not self.halted:
            if self.stats.instructions >= self.max_instructions:
                raise SimulationError("RISC-V simulation exceeded the instruction limit")
            index = self.pc // 4
            if not 0 <= index < len(program):
                raise SimulationError(f"PC {self.pc:#x} is outside the program")
            if self.pc % 4:
                raise SimulationError(
                    f"misaligned PC {self.pc:#x}: instruction addresses must be 4-byte aligned"
                )
            instruction = program[index]
            self._execute(instruction)
        return self.stats

    def _execute(self, instruction: RvInstruction) -> None:
        opcode = instruction.opcode
        rs1 = self.read_reg(instruction.rs1)
        rs2 = self.read_reg(instruction.rs2)
        imm = instruction.imm
        next_pc = self.pc + 4
        taken = False

        if opcode is RvOpcode.EBREAK:
            self.halted = True
        elif opcode.info.fmt is RvFormat.R:
            self.write_reg(instruction.rd, self._alu_r(opcode, rs1, rs2))
        elif opcode is RvOpcode.LW:
            self.write_reg(instruction.rd, self.memory.load_word((rs1 + imm) & WORD_MASK))
            self.stats.loads += 1
        elif opcode is RvOpcode.SW:
            self.memory.store_word((rs1 + imm) & WORD_MASK, rs2)
            self.stats.stores += 1
        elif opcode is RvOpcode.JAL:
            self.write_reg(instruction.rd, next_pc)
            next_pc = (self.pc + imm) & WORD_MASK
            taken = True
        elif opcode is RvOpcode.JALR:
            self.write_reg(instruction.rd, next_pc)
            next_pc = (rs1 + imm) & ~1 & WORD_MASK
            taken = True
        elif opcode.info.fmt is RvFormat.B:
            taken = self._branch_taken(opcode, rs1, rs2)
            if taken:
                next_pc = (self.pc + imm) & WORD_MASK
                self.stats.taken_branches += 1
        elif opcode is RvOpcode.LUI:
            self.write_reg(instruction.rd, (imm << 12) & WORD_MASK)
        elif opcode is RvOpcode.AUIPC:
            self.write_reg(instruction.rd, (self.pc + (imm << 12)) & WORD_MASK)
        elif opcode.info.fmt is RvFormat.I:
            self.write_reg(instruction.rd, self._alu_i(opcode, rs1, imm))
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unhandled RISC-V opcode {opcode.mnemonic}")

        self.stats.instructions += 1
        self.stats.cycles += self.cycle_model.cost(instruction, taken)
        mnemonic = opcode.mnemonic
        self.stats.mnemonic_counts[mnemonic] = self.stats.mnemonic_counts.get(mnemonic, 0) + 1
        self.pc = next_pc

    # ------------------------------------------------------------------ #
    # ALU semantics
    # ------------------------------------------------------------------ #
    @staticmethod
    def _alu_r(opcode: RvOpcode, a: int, b: int) -> int:
        sa, sb = _signed(a), _signed(b)
        if opcode is RvOpcode.ADD:
            return a + b
        if opcode is RvOpcode.SUB:
            return a - b
        if opcode is RvOpcode.SLL:
            return a << (b & 0x1F)
        if opcode is RvOpcode.SLT:
            return int(sa < sb)
        if opcode is RvOpcode.SLTU:
            return int(a < b)
        if opcode is RvOpcode.XOR:
            return a ^ b
        if opcode is RvOpcode.SRL:
            return a >> (b & 0x1F)
        if opcode is RvOpcode.SRA:
            return sa >> (b & 0x1F)
        if opcode is RvOpcode.OR:
            return a | b
        if opcode is RvOpcode.AND:
            return a & b
        if opcode is RvOpcode.MUL:
            return sa * sb
        if opcode is RvOpcode.MULH:
            return (sa * sb) >> 32
        if opcode is RvOpcode.MULHU:
            return (a * b) >> 32
        if opcode is RvOpcode.DIV:
            if sb == 0:
                return -1
            quotient = abs(sa) // abs(sb)
            return -quotient if (sa < 0) != (sb < 0) else quotient
        if opcode is RvOpcode.DIVU:
            return 0xFFFFFFFF if b == 0 else a // b
        if opcode is RvOpcode.REM:
            if sb == 0:
                return sa
            quotient = abs(sa) // abs(sb)
            quotient = -quotient if (sa < 0) != (sb < 0) else quotient
            return sa - quotient * sb
        if opcode is RvOpcode.REMU:
            return a if b == 0 else a % b
        raise SimulationError(f"unhandled R-type opcode {opcode.mnemonic}")

    @staticmethod
    def _alu_i(opcode: RvOpcode, a: int, imm: int) -> int:
        sa = _signed(a)
        if opcode is RvOpcode.ADDI:
            return a + imm
        if opcode is RvOpcode.SLTI:
            return int(sa < imm)
        if opcode is RvOpcode.SLTIU:
            return int(a < (imm & WORD_MASK))
        if opcode is RvOpcode.XORI:
            return a ^ (imm & WORD_MASK)
        if opcode is RvOpcode.ORI:
            return a | (imm & WORD_MASK)
        if opcode is RvOpcode.ANDI:
            return a & (imm & WORD_MASK)
        if opcode is RvOpcode.SLLI:
            return a << (imm & 0x1F)
        if opcode is RvOpcode.SRLI:
            return a >> (imm & 0x1F)
        if opcode is RvOpcode.SRAI:
            return sa >> (imm & 0x1F)
        raise SimulationError(f"unhandled I-type opcode {opcode.mnemonic}")

    @staticmethod
    def _branch_taken(opcode: RvOpcode, a: int, b: int) -> bool:
        sa, sb = _signed(a), _signed(b)
        if opcode is RvOpcode.BEQ:
            return a == b
        if opcode is RvOpcode.BNE:
            return a != b
        if opcode is RvOpcode.BLT:
            return sa < sb
        if opcode is RvOpcode.BGE:
            return sa >= sb
        if opcode is RvOpcode.BLTU:
            return a < b
        if opcode is RvOpcode.BGEU:
            return a >= b
        raise SimulationError(f"unhandled branch opcode {opcode.mnemonic}")
