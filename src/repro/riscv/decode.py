"""Basic-block compiler for the RV32IM instruction-set simulator.

The seed interpreter re-derives the opcode class, the cycle cost and a
``mnemonic_counts`` dict update for every executed instruction.  This module
translates a program into *basic blocks* instead, the way a dynamic binary
translator such as QEMU's does (Bellard, USENIX ATC 2005):

* A block is the straight-line run from an entry PC up to and including the
  first conditional branch, JAL or JALR.  It also ends before an EBREAK (the
  run loop executes the halt itself) and at the end of the program.  Blocks
  are keyed by entry PC and compiled on first entry, so a jump into the
  middle of a block compiles a new block.
* Each block is generated once as Python source and ``exec``'d into one
  function.  Register indices, immediates, branch targets and exit slots
  are literals, and so are the constants that ``lui``, ``li`` and links
  write.  Reads of x0 fold to ``0`` and writes to x0 are dropped, but an
  ``lw x0`` still checks its address, because the access can fault.  Each
  register write is stored to ``regs`` at once and kept in a local for
  later reads in the block (see :class:`_BlockWriter`).
* A block carries its static instruction count, the cycles of its
  instructions before the terminator, the terminator's cycles on each exit,
  and its mnemonic histogram.  The run loop
  (:meth:`~repro.riscv.cpu.RiscvCpu.run`) counts instructions and block
  exits only, and builds the cycles, ``taken_branches`` and
  ``CpuStats.mnemonic_counts`` from the exit counts when the run ends.

The decoded program depends only on the program and the cycle model -- not
on the memory image or the register state -- so its blocks serve any number
of runs and CPUs.

Block contract
--------------
``block.run(regs, words, size_bytes) -> (next_pc, exit)``, where ``regs``
is the 32-entry register list (entries always masked to 32 bits; entry 0 is
never read or written), ``words`` is the data memory's word array
(:attr:`repro.riscv.memory.RvMemory.words`) and ``size_bytes`` its size.
``exit`` is ``entry_pc >> 1`` plus 1 for a taken conditional branch (the only
kind that counts in ``taken_branches``; JAL and JALR do not, as in the
seed), so every block has its own two exit slots in a flat counter list.  A
block without a terminator leaves through exit 0 at 0 terminator cycles.  A
load or store whose address faults raises :class:`BlockFault` with the
seed's error text and the position of the faulting instruction in the block:
every earlier instruction has completed and no later one has started, so the
run loop charges exactly that prefix.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, MutableSequence, NamedTuple, NoReturn, Optional, Tuple

from repro.errors import SimulationError
from repro.riscv.assembler import RvProgram
from repro.riscv.isa import RvFormat, RvInstruction, RvOpcode
from repro.riscv.memory import word_access_error

WORD_MASK = 0xFFFFFFFF
_SIGN = 0x80000000

BlockFunction = Callable[[List[int], MutableSequence[int], int], Tuple[int, int]]


class BlockFault(Exception):
    """A load or store of a compiled block faulted.

    The message is the seed interpreter's error text for the same access;
    ``position`` is the faulting instruction's index within the block.
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(message)
        self.position = position


def _fault(address: int, position: int) -> NoReturn:
    raise BlockFault(word_access_error(address), position)


def _div(a: int, b: int) -> int:
    sa, sb = a - ((a & _SIGN) << 1), b - ((b & _SIGN) << 1)
    if sb == 0:
        return WORD_MASK
    quotient = abs(sa) // abs(sb)
    return (-quotient if (sa < 0) != (sb < 0) else quotient) & WORD_MASK


def _rem(a: int, b: int) -> int:
    sa, sb = a - ((a & _SIGN) << 1), b - ((b & _SIGN) << 1)
    if sb == 0:
        return a
    quotient = abs(sa) // abs(sb)
    quotient = -quotient if (sa < 0) != (sb < 0) else quotient
    return (sa - quotient * sb) & WORD_MASK


# --------------------------------------------------------------------------- #
# Expression templates: the seed interpreter's _alu_r / _alu_i /
# _branch_taken semantics on masked operands.  ``{a}``/``{b}`` are unsigned
# operands, ``{sa}``/``{sb}`` their signed values, and ``{ka}``/``{kb}`` keys
# (``x ^ 0x80000000``) that order like the signed values.
# --------------------------------------------------------------------------- #
_R_EXPR: Dict[RvOpcode, str] = {
    RvOpcode.ADD: "({a} + {b}) & 4294967295",
    RvOpcode.SUB: "({a} - {b}) & 4294967295",
    RvOpcode.SLL: "({a} << ({b} & 31)) & 4294967295",
    RvOpcode.SLT: "1 if {ka} < {kb} else 0",
    RvOpcode.SLTU: "1 if {a} < {b} else 0",
    RvOpcode.XOR: "{a} ^ {b}",
    RvOpcode.SRL: "{a} >> ({b} & 31)",
    RvOpcode.SRA: "({sa} >> ({b} & 31)) & 4294967295",
    RvOpcode.OR: "{a} | {b}",
    RvOpcode.AND: "{a} & {b}",
    RvOpcode.MUL: "({a} * {b}) & 4294967295",
    RvOpcode.MULH: "(({sa} * {sb}) >> 32) & 4294967295",
    RvOpcode.MULHU: "({a} * {b}) >> 32",
    RvOpcode.DIV: "_div({a}, {b})",
    RvOpcode.DIVU: "{a} // {b} if {b} else 4294967295",
    RvOpcode.REM: "_rem({a}, {b})",
    RvOpcode.REMU: "{a} % {b} if {b} else {a}",
}

# I-type ALU: ``{imm}`` is the sign-extended immediate, ``{uimm}`` its 32-bit
# pattern, ``{kimm}`` its signed-order key and ``{sh}`` the shift amount.
_I_EXPR: Dict[RvOpcode, str] = {
    RvOpcode.ADDI: "({a} + {imm}) & 4294967295",
    RvOpcode.SLTI: "1 if {ka} < {kimm} else 0",
    RvOpcode.SLTIU: "1 if {a} < {uimm} else 0",
    RvOpcode.XORI: "{a} ^ {uimm}",
    RvOpcode.ORI: "{a} | {uimm}",
    RvOpcode.ANDI: "{a} & {uimm}",
    RvOpcode.SLLI: "({a} << {sh}) & 4294967295",
    RvOpcode.SRLI: "{a} >> {sh}",
    RvOpcode.SRAI: "({sa} >> {sh}) & 4294967295",
}

_BRANCH_EXPR: Dict[RvOpcode, str] = {
    RvOpcode.BEQ: "{a} == {b}",
    RvOpcode.BNE: "{a} != {b}",
    RvOpcode.BLT: "{ka} < {kb}",
    RvOpcode.BGE: "{ka} >= {kb}",
    RvOpcode.BLTU: "{a} < {b}",
    RvOpcode.BGEU: "{a} >= {b}",
}

_NAMESPACE = {"_div": _div, "_rem": _rem, "fault": _fault}

# Names of the register locals of every block, interned once and kept
# alive: names that died with each run's blocks would churn the
# interpreter's table of interned strings, whose periodic rebuilds raised
# the peak resident memory of long series of runs.
_LOCALS = tuple(sys.intern(f"x{index}") for index in range(32))


def _operands(a: str, b: str = "0") -> Dict[str, str]:
    """Template fields for unsigned operand expressions ``a`` and ``b``."""
    fields = {"a": a, "b": b}
    for name, expr in (("a", a), ("b", b)):
        fields["s" + name] = f"(({expr} ^ 2147483648) - 2147483648)"
        fields["k" + name] = f"({expr} ^ 2147483648)"
    return fields


def _is_terminator(instruction: RvInstruction) -> bool:
    opcode = instruction.opcode
    return opcode in (RvOpcode.JAL, RvOpcode.JALR) or opcode.info.fmt is RvFormat.B


class RvBlock(NamedTuple):
    """One compiled basic block (see the module docstring)."""

    run: BlockFunction
    length: int  # instructions, terminator included
    cycles: int  # cycles of the instructions before the terminator
    exit_cycles: Tuple[int, int]  # terminator cycles on exit 0 / exit 1 (taken branch)
    histogram: Dict[str, int]  # executed mnemonics of one pass through the block
    source: str  # the generated Python source of ``run``


class _BlockWriter:
    """Generates the Python source of one block.

    A register write is stored to ``regs`` at once, so ``regs`` is current
    wherever the block leaves or faults.  The written value also stays in a
    local (``x5``) or, for a constant (``lui``, ``li``, a link address), in
    a literal, and later reads in the block use that.
    """

    def __init__(self, exit: int) -> None:
        self.exit = exit  # the block's exit 0 (exit 1 is ``exit + 1``)
        self.lines: List[str] = []
        self.values: Dict[int, str] = {0: "0"}  # register -> local name or literal

    def read(self, index: int) -> str:
        return self.values.get(index, f"regs[{index}]")

    def write(self, index: int, expr: str) -> None:
        if index == 0:
            return
        if expr.isdigit():
            self.lines.append(f"regs[{index}] = {expr}")
            self.values[index] = expr
        else:
            self.lines.append(f"regs[{index}] = {_LOCALS[index]} = {expr}")
            self.values[index] = _LOCALS[index]

    def address(self, base: int, imm: int, position: int) -> str:
        """Emit the checked effective address; returns the word-index expression."""
        value = self.read(base)
        if imm or value.startswith("regs"):
            self.lines.append(f"a = ({value} + {imm}) & 4294967295" if imm else f"a = {value}")
            value = "a"
        self.lines.append(f"if {value} & 3 or {value} >= size: fault({value}, {position})")
        return f"{value} >> 2"


class RvDecodedProgram:
    """One RV32IM program resolved for one cycle model, compiled block by block.

    ``blocks`` maps an entry PC to its compiled :class:`RvBlock`; it fills as
    runs enter new PCs and is shared by every run of this decoded program.
    """

    __slots__ = (
        "name",
        "instructions",
        "mnemonics",
        "costs",
        "taken_costs",
        "blocks",
    )

    def __init__(self, program: RvProgram, cycle_model) -> None:
        self.name = program.name
        self.instructions = program.instructions
        # Mnemonics in order of first appearance in the program text: the
        # order of ``CpuStats.mnemonic_counts``.
        self.mnemonics = list(dict.fromkeys(i.opcode.mnemonic for i in self.instructions))
        self.costs = [cycle_model.cost(i, taken=False) for i in self.instructions]
        self.taken_costs = [cycle_model.cost(i, taken=True) for i in self.instructions]
        self.blocks: Dict[int, RvBlock] = {}

    def __len__(self) -> int:
        return len(self.instructions)

    def is_halt(self, pc: int) -> bool:
        """Whether the (valid, aligned) ``pc`` holds an EBREAK."""
        return self.instructions[pc >> 2].opcode is RvOpcode.EBREAK

    def block(self, pc: int) -> RvBlock:
        """The block entered at the valid, aligned, non-EBREAK ``pc`` (compiled once)."""
        block = self.blocks.get(pc)
        if block is None:
            block = self.blocks[pc] = self.compile_block(pc)
        return block

    def compile_block(self, pc: int, max_length: Optional[int] = None) -> RvBlock:
        """Compile the block at ``pc``, cut after ``max_length`` instructions if given.

        A cut block is not cached; the run loop uses one when the instruction
        limit falls inside a block.
        """
        start = pc >> 2
        end = start
        limit = len(self.instructions)
        if max_length is not None:
            limit = min(limit, start + max_length)
        while end < limit and self.instructions[end].opcode is not RvOpcode.EBREAK:
            end += 1
            if _is_terminator(self.instructions[end - 1]):
                break
        if end == start:
            raise SimulationError(f"no block to compile at PC {pc:#x}")
        writer = _BlockWriter(exit=pc >> 1)
        for index in range(start, end):
            self._emit(writer, index, index - start)
        last = self.instructions[end - 1]
        length = end - start
        if _is_terminator(last):
            cycles = sum(self.costs[start : end - 1])
            exit_cycles = (self.costs[end - 1], self.taken_costs[end - 1])
        else:
            writer.lines.append(f"return ({4 * end}, {writer.exit})")
            cycles = sum(self.costs[start:end])
            exit_cycles = (0, 0)
        body = "\n    ".join(writer.lines)
        source = f"def block(regs, words, size):\n    {body}\n"
        namespace = dict(_NAMESPACE)
        exec(compile(source, f"<rv32 block {self.name}@{pc:#x}>", "exec"), namespace)
        return RvBlock(
            # Popped, so the function and its globals form no reference
            # cycle: a block dies with its decoded program, not at a full GC.
            run=namespace.pop("block"),
            length=length,
            cycles=cycles,
            exit_cycles=exit_cycles,
            histogram=self.histogram(pc, length),
            source=source,
        )

    def histogram(self, pc: int, length: int) -> Dict[str, int]:
        """Mnemonic counts of the ``length`` instructions from ``pc``."""
        counts: Dict[str, int] = {}
        for instruction in self.instructions[pc >> 2 : (pc >> 2) + length]:
            mnemonic = instruction.opcode.mnemonic
            counts[mnemonic] = counts.get(mnemonic, 0) + 1
        return counts

    def _emit(self, writer: _BlockWriter, index: int, position: int) -> None:
        instruction = self.instructions[index]
        opcode = instruction.opcode
        fmt = opcode.info.fmt
        rd, rs1, rs2, imm = instruction.rd, instruction.rs1, instruction.rs2, instruction.imm
        pc = 4 * index
        read = writer.read

        if fmt is RvFormat.R:
            writer.write(rd, _R_EXPR[opcode].format(**_operands(read(rs1), read(rs2))))
        elif opcode is RvOpcode.LW:
            word = writer.address(rs1, imm, position)
            writer.write(rd, f"words[{word}]")
        elif opcode is RvOpcode.SW:
            word = writer.address(rs1, imm, position)
            writer.lines.append(f"words[{word}] = {read(rs2)}")
        elif opcode is RvOpcode.JAL:
            writer.write(rd, str(pc + 4))
            writer.lines.append(f"return ({(pc + imm) & WORD_MASK}, {writer.exit})")
        elif opcode is RvOpcode.JALR:
            # The target reads rs1 before rd is written (rd may be rs1).
            writer.lines.append(f"t = ({read(rs1)} + {imm}) & {WORD_MASK & ~1}")
            writer.write(rd, str(pc + 4))
            writer.lines.append(f"return (t, {writer.exit})")
        elif fmt is RvFormat.B:
            condition = _BRANCH_EXPR[opcode].format(**_operands(read(rs1), read(rs2)))
            writer.lines.append(f"if {condition}:")
            writer.lines.append(f"    return ({(pc + imm) & WORD_MASK}, {writer.exit + 1})")
            writer.lines.append(f"return ({pc + 4}, {writer.exit})")
        elif opcode is RvOpcode.LUI:
            writer.write(rd, str((imm << 12) & WORD_MASK))
        elif opcode is RvOpcode.AUIPC:
            writer.write(rd, str((pc + (imm << 12)) & WORD_MASK))
        elif fmt is RvFormat.I:
            fields = _operands(read(rs1))
            fields.update(imm=imm, uimm=imm & WORD_MASK, kimm=imm + _SIGN, sh=imm & 0x1F)
            if opcode is RvOpcode.ADDI and rs1 == 0:  # ``li``
                writer.write(rd, str(imm & WORD_MASK))
            elif opcode is RvOpcode.ADDI and imm == 0:  # ``mv``: the operand is masked already
                writer.write(rd, fields["a"])
            else:
                writer.write(rd, _I_EXPR[opcode].format(**fields))
        else:
            raise SimulationError(f"cannot compile RISC-V opcode {opcode.mnemonic}")


def predecode_riscv_program(program: RvProgram, cycle_model) -> RvDecodedProgram:
    """Resolve ``program`` into an :class:`RvDecodedProgram` for ``cycle_model``.

    The cycle costs come from :meth:`~repro.riscv.cpu.CpuCycleModel.cost` and
    are baked into the blocks' statistics, so a decoded program is only
    valid for the cycle model it was decoded against.
    """
    return RvDecodedProgram(program, cycle_model)
