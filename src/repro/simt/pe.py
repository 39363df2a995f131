"""Processing-element ALU: vectorized lane arithmetic.

The 8 PEs of a CU execute one instruction for 8 lanes per cycle; functionally
the whole 64-lane wavefront sees the same operation.  This module implements
the arithmetic of every ALU/MUL/DIV opcode as a numpy operation over the lane
vectors, with 32-bit wrap-around semantics and RISC-style division behaviour
(divide by zero yields -1 for the quotient and the dividend for the
remainder).

Precondition: every operand lane holds an unsigned 32-bit value in int64.
Register writes, loads, immediates and id vectors are all masked, so the
operations of :func:`binary_operation` never re-mask their inputs;
:func:`execute_binary` and :func:`execute_immediate` mask them first.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.arch.isa import Opcode
from repro.errors import SimulationError

WORD_MASK = 0xFFFFFFFF
SIGN_BIT = 0x80000000


def to_signed(values: np.ndarray) -> np.ndarray:
    """Reinterpret unsigned 32-bit lane values as signed."""
    values = np.asarray(values, dtype=np.int64)
    # Branch-free two's-complement fold: equivalent to subtracting 2**32
    # where the sign bit is set, without materializing the boolean mask.
    return ((values + SIGN_BIT) & WORD_MASK) - SIGN_BIT


def to_unsigned(values: np.ndarray) -> np.ndarray:
    """Wrap signed lane values back to their unsigned 32-bit representation."""
    return np.asarray(values, dtype=np.int64) & WORD_MASK


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a + b) & WORD_MASK


def _sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a - b) & WORD_MASK


def _and(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a & b


def _or(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a | b


def _xor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a ^ b


def _sll(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a << (b & 31)) & WORD_MASK


def _srl(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a >> (b & 31)


def _sra(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (((a ^ SIGN_BIT) - SIGN_BIT) >> (b & 31)) & WORD_MASK


def _slt(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return ((a ^ SIGN_BIT) < (b ^ SIGN_BIT)).astype(np.int64)


def _sltu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a < b).astype(np.int64)


def _min(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where((a ^ SIGN_BIT) < (b ^ SIGN_BIT), a, b)


def _max(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where((a ^ SIGN_BIT) < (b ^ SIGN_BIT), b, a)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a * b) & WORD_MASK


def _mulh(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return to_unsigned((to_signed(a) * to_signed(b)) >> 32)


def _div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sa, sb = to_signed(a), to_signed(b)
    safe_b = np.where(sb == 0, 1, sb)
    quotient = np.abs(sa) // np.abs(safe_b)
    quotient = np.where(np.sign(sa) * np.sign(safe_b) < 0, -quotient, quotient)
    quotient = np.where(sb == 0, -1, quotient)
    return to_unsigned(quotient)


def _rem(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sa, sb = to_signed(a), to_signed(b)
    safe_b = np.where(sb == 0, 1, sb)
    quotient = np.abs(sa) // np.abs(safe_b)
    quotient = np.where(np.sign(sa) * np.sign(safe_b) < 0, -quotient, quotient)
    remainder = sa - quotient * safe_b
    remainder = np.where(sb == 0, sa, remainder)
    return to_unsigned(remainder)


_BINARY_OPS: Dict[Opcode, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    Opcode.ADD: _add,
    Opcode.SUB: _sub,
    Opcode.AND: _and,
    Opcode.OR: _or,
    Opcode.XOR: _xor,
    Opcode.SLL: _sll,
    Opcode.SRL: _srl,
    Opcode.SRA: _sra,
    Opcode.SLT: _slt,
    Opcode.SLTU: _sltu,
    Opcode.MIN: _min,
    Opcode.MAX: _max,
    Opcode.MUL: _mul,
    Opcode.MULH: _mulh,
    Opcode.DIV: _div,
    Opcode.REM: _rem,
}

# Immediate forms share the arithmetic of their register forms.
_IMMEDIATE_TO_BINARY: Dict[Opcode, Opcode] = {
    Opcode.ADDI: Opcode.ADD,
    Opcode.ANDI: Opcode.AND,
    Opcode.ORI: Opcode.OR,
    Opcode.XORI: Opcode.XOR,
    Opcode.SLLI: Opcode.SLL,
    Opcode.SRLI: Opcode.SRL,
    Opcode.SRAI: Opcode.SRA,
    Opcode.SLTI: Opcode.SLT,
    Opcode.MULI: Opcode.MUL,
}


def execute_binary(opcode: Opcode, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Execute a three-register ALU/MUL/DIV operation over the lane vectors.

    Operands are first wrapped to u32 lanes, so any integer input works.
    """
    try:
        operation = _BINARY_OPS[opcode]
    except KeyError as exc:
        raise SimulationError(f"{opcode.mnemonic} is not a binary ALU operation") from exc
    return operation(to_unsigned(a), to_unsigned(b))


def execute_immediate(opcode: Opcode, a: np.ndarray, imm: int, lanes: int) -> np.ndarray:
    """Execute an immediate ALU operation (the immediate is broadcast)."""
    if opcode is Opcode.LI:
        return np.full(lanes, imm & WORD_MASK, dtype=np.int64)
    if opcode is Opcode.LUI:
        return np.full(lanes, (imm << 14) & WORD_MASK, dtype=np.int64)
    try:
        base = _IMMEDIATE_TO_BINARY[opcode]
    except KeyError as exc:
        raise SimulationError(f"{opcode.mnemonic} is not an immediate ALU operation") from exc
    return execute_binary(base, a, np.full(lanes, imm, dtype=np.int64))


def binary_operation(opcode: Opcode) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Resolve the lane-arithmetic callable of a three-register opcode.

    Used by the instruction pre-decoder so the per-issue path can call the
    operation directly instead of going through the dict lookup (and the
    operand masking) of :func:`execute_binary`.
    """
    try:
        return _BINARY_OPS[opcode]
    except KeyError as exc:
        raise SimulationError(f"{opcode.mnemonic} is not a binary ALU operation") from exc


def immediate_base(opcode: Opcode) -> Opcode:
    """Three-register opcode implementing an immediate form's arithmetic."""
    try:
        return _IMMEDIATE_TO_BINARY[opcode]
    except KeyError as exc:
        raise SimulationError(f"{opcode.mnemonic} is not an immediate ALU operation") from exc


def is_binary_alu(opcode: Opcode) -> bool:
    """Whether the opcode is a three-register arithmetic operation."""
    return opcode in _BINARY_OPS


def is_immediate_alu(opcode: Opcode) -> bool:
    """Whether the opcode is an immediate arithmetic operation."""
    return opcode in _IMMEDIATE_TO_BINARY or opcode in (Opcode.LI, Opcode.LUI)
