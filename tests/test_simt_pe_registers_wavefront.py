"""Lane ALU, register file, and wavefront divergence state."""

import numpy as np
import pytest

from repro.arch.isa import Opcode
from repro.errors import SimulationError
from repro.simt import pe
from repro.simt.registers import WavefrontRegisterFile
from repro.simt.wavefront import Wavefront


# --------------------------------------------------------------------------- #
# PE arithmetic
# --------------------------------------------------------------------------- #
def test_add_sub_wraparound():
    a = np.array([0xFFFFFFFF, 5])
    b = np.array([1, 3])
    assert list(pe.execute_binary(Opcode.ADD, a, b)) == [0, 8]
    assert list(pe.execute_binary(Opcode.SUB, np.array([0]), np.array([1]))) == [0xFFFFFFFF]


def test_signed_comparisons_and_minmax():
    a = np.array([pe.to_unsigned(np.array([-5]))[0], 3])
    b = np.array([2, 3])
    assert list(pe.execute_binary(Opcode.SLT, a, b)) == [1, 0]
    assert list(pe.execute_binary(Opcode.SLTU, a, b)) == [0, 0]
    assert list(pe.execute_binary(Opcode.MIN, a, b)) == [pe.to_unsigned(np.array([-5]))[0], 3]
    assert list(pe.execute_binary(Opcode.MAX, a, b)) == [2, 3]


def test_shifts():
    a = np.array([0x80000000, 0b1100])
    assert list(pe.execute_binary(Opcode.SRL, a, np.array([31, 2]))) == [1, 3]
    assert list(pe.execute_binary(Opcode.SRA, a, np.array([31, 2]))) == [0xFFFFFFFF, 3]
    assert list(pe.execute_binary(Opcode.SLL, np.array([1]), np.array([33]))) == [2]


def test_public_entry_points_wrap_unmasked_operands():
    # execute_binary/execute_immediate read any integer lane as its 32-bit
    # word; only the pre-resolved operations assume u32 lanes.
    minus_one = np.array([-1, -1])
    word = np.array([0xFFFFFFFF, 0xFFFFFFFF])
    for opcode in (Opcode.SRL, Opcode.SLTU, Opcode.MIN, Opcode.MAX, Opcode.AND, Opcode.MUL):
        assert list(pe.execute_binary(opcode, minus_one, np.array([1, -2]))) == list(
            pe.execute_binary(opcode, word, np.array([1, 0xFFFFFFFE]))
        )
    assert list(pe.execute_binary(Opcode.SRL, minus_one, np.array([1, 1]))) == [0x7FFFFFFF] * 2
    assert list(pe.execute_binary(Opcode.SLTU, np.array([1]), np.array([-1]))) == [1]
    assert list(pe.execute_binary(Opcode.MAX, np.array([-1]), np.array([0]))) == [0]
    assert list(pe.execute_immediate(Opcode.SRLI, minus_one, 4, 2)) == [0x0FFFFFFF] * 2


def test_mul_and_mulh():
    a = np.array([0x7FFFFFFF])
    b = np.array([2])
    assert list(pe.execute_binary(Opcode.MUL, a, b)) == [0xFFFFFFFE]
    minus_one = pe.to_unsigned(np.array([-1]))
    assert list(pe.execute_binary(Opcode.MULH, minus_one, np.array([2]))) == [0xFFFFFFFF]


def test_div_rem_semantics():
    a = pe.to_unsigned(np.array([-7, 7, 5]))
    b = pe.to_unsigned(np.array([2, -2, 0]))
    assert list(pe.to_signed(pe.execute_binary(Opcode.DIV, a, b))) == [-3, -3, -1]
    assert list(pe.to_signed(pe.execute_binary(Opcode.REM, a, b))) == [-1, 1, 5]


def test_immediate_forms():
    a = np.array([10, 20])
    assert list(pe.execute_immediate(Opcode.ADDI, a, -5, 2)) == [5, 15]
    assert list(pe.execute_immediate(Opcode.LI, a, 3, 2)) == [3, 3]
    assert list(pe.execute_immediate(Opcode.LUI, a, 1, 2)) == [1 << 14, 1 << 14]
    with pytest.raises(SimulationError):
        pe.execute_immediate(Opcode.LW, a, 0, 2)
    with pytest.raises(SimulationError):
        pe.execute_binary(Opcode.JMP, a, a)


def test_is_alu_classifiers():
    assert pe.is_binary_alu(Opcode.ADD)
    assert not pe.is_binary_alu(Opcode.ADDI)
    assert pe.is_immediate_alu(Opcode.ADDI)
    assert pe.is_immediate_alu(Opcode.LI)
    assert not pe.is_immediate_alu(Opcode.SW)


# --------------------------------------------------------------------------- #
# Register file
# --------------------------------------------------------------------------- #
def test_register_zero_is_hardwired():
    registers = WavefrontRegisterFile(32, 8)
    registers.write(0, np.full(8, 99), np.ones(8, dtype=bool))
    assert list(registers.read(0)) == [0] * 8


def test_masked_write_preserves_inactive_lanes():
    registers = WavefrontRegisterFile(32, 4)
    registers.write_all_lanes(5, np.array([1, 2, 3, 4]))
    mask = np.array([True, False, True, False])
    registers.write(5, np.array([10, 20, 30, 40]), mask)
    assert list(registers.read(5)) == [10, 2, 30, 4]


def test_register_index_bounds():
    registers = WavefrontRegisterFile(16, 4)
    with pytest.raises(SimulationError):
        registers.read(16)
    with pytest.raises(SimulationError):
        WavefrontRegisterFile(0, 4)


# --------------------------------------------------------------------------- #
# Wavefront mask stack
# --------------------------------------------------------------------------- #
def _wavefront() -> Wavefront:
    return Wavefront(
        wavefront_id=0,
        workgroup_id=1,
        index_in_workgroup=1,
        wavefront_size=64,
        num_registers=32,
        workgroup_size=128,
        global_size=256,
        num_workgroups=2,
    )


def test_work_item_ids():
    wavefront = _wavefront()
    assert wavefront.local_ids[0] == 64
    assert wavefront.global_ids[0] == 64 + 128
    assert wavefront.num_active == 64


def test_partial_tail_wavefront_masks_out_of_range_lanes():
    tail = Wavefront(0, 3, 0, 64, 32, 64, global_size=224, num_workgroups=4)
    # Workgroup 3 covers global ids 192..255 but the NDRange ends at 224.
    assert tail.num_active == 32


def test_if_else_mask_sequence():
    wavefront = _wavefront()
    condition = np.zeros(64)
    condition[:16] = 1
    wavefront.push_mask()
    wavefront.constrain_mask(condition)
    assert wavefront.num_active == 16
    wavefront.invert_mask()
    assert wavefront.num_active == 48
    wavefront.pop_mask()
    assert wavefront.num_active == 64
    assert wavefront.mask_depth == 0


def test_mask_stack_underflow_raises():
    wavefront = _wavefront()
    with pytest.raises(SimulationError):
        wavefront.pop_mask()
    with pytest.raises(SimulationError):
        wavefront.invert_mask()


def test_uniform_lane_value_detects_divergence():
    wavefront = _wavefront()
    assert wavefront.uniform_lane_value(np.full(64, 7)) == 7
    values = np.full(64, 7)
    values[3] = 9
    with pytest.raises(SimulationError):
        wavefront.uniform_lane_value(values)
    # Non-strict mode just picks the first active lane.
    assert wavefront.uniform_lane_value(values, strict=False) == 7


def test_retire_records_completion_time():
    wavefront = _wavefront()
    wavefront.retire(123.5)
    assert wavefront.done and wavefront.completion_time == 123.5
