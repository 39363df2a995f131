"""Compute unit and top-level simulator behaviour on small hand-built kernels."""

import signal

import numpy as np
import pytest

from repro.arch.config import GGPUConfig
from repro.arch.isa import Opcode
from repro.arch.kernel import Kernel, KernelArg, KernelBuilder, NDRange
from repro.errors import ConfigurationError, KernelError, SimulationError
from repro.simt import gpu as gpu_module
from repro.simt.gpu import GGPUSimulator
from repro.simt.wavefront import Wavefront
from repro.simt.timing import TimingModel
from repro.arch.isa import OpClass


def _iota_kernel() -> Kernel:
    """out[gid] = gid * 2 + 1"""
    builder = KernelBuilder("iota", args=(KernelArg("out"),))
    gid = builder.alloc("gid")
    out = builder.alloc("out")
    addr = builder.alloc("addr")
    value = builder.alloc("value")
    builder.global_id(gid)
    builder.load_arg(out, "out")
    builder.emit(Opcode.SLLI, rd=value, rs=gid, imm=1)
    builder.emit(Opcode.ADDI, rd=value, rs=value, imm=1)
    builder.address_of_element(addr, out, gid)
    builder.emit(Opcode.SW, rs=addr, rt=value, imm=0)
    builder.ret()
    return builder.build()


def _divergent_kernel() -> Kernel:
    """out[gid] = 100 if gid is even else 200 (exercises the mask stack)."""
    builder = KernelBuilder("evens", args=(KernelArg("out"),))
    gid = builder.alloc("gid")
    out = builder.alloc("out")
    addr = builder.alloc("addr")
    value = builder.alloc("value")
    parity = builder.alloc("parity")
    builder.global_id(gid)
    builder.load_arg(out, "out")
    builder.emit(Opcode.ANDI, rd=parity, rs=gid, imm=1)
    builder.emit(Opcode.XORI, rd=parity, rs=parity, imm=1)  # 1 when gid even
    with builder.lane_if_else(parity) as branch:
        builder.emit(Opcode.LI, rd=value, imm=100)
        with branch.otherwise():
            builder.emit(Opcode.LI, rd=value, imm=200)
    builder.address_of_element(addr, out, gid)
    builder.emit(Opcode.SW, rs=addr, rt=value, imm=0)
    builder.ret()
    return builder.build()


def _barrier_kernel() -> Kernel:
    """Exercises BARRIER and local memory: stage data in LRAM, then read back."""
    builder = KernelBuilder("staged", args=(KernelArg("out"),))
    gid = builder.alloc("gid")
    lid = builder.alloc("lid")
    out = builder.alloc("out")
    addr = builder.alloc("addr")
    value = builder.alloc("value")
    builder.global_id(gid)
    builder.emit(Opcode.LID, rd=lid)
    builder.load_arg(out, "out")
    builder.emit(Opcode.ADDI, rd=value, rs=gid, imm=7)
    builder.emit(Opcode.SLLI, rd=addr, rs=lid, imm=2)
    builder.emit(Opcode.LSW, rs=addr, rt=value, imm=0)
    builder.emit(Opcode.BARRIER)
    builder.emit(Opcode.LLW, rd=value, rs=addr, imm=0)
    builder.address_of_element(addr, out, gid)
    builder.emit(Opcode.SW, rs=addr, rt=value, imm=0)
    builder.ret()
    return builder.build()


def test_simple_kernel_produces_expected_values(simulator):
    kernel = _iota_kernel()
    out = simulator.allocate_buffer(128)
    result = simulator.launch(kernel, NDRange(128, 64), {"out": out})
    values = simulator.read_buffer(out, 128)
    assert list(values) == [2 * i + 1 for i in range(128)]
    assert result.cycles > 0
    assert result.stats.workgroups_dispatched == 2


def test_divergent_kernel_is_correct_and_costs_both_paths(simulator):
    kernel = _divergent_kernel()
    out = simulator.allocate_buffer(64)
    result = simulator.launch(kernel, NDRange(64, 64), {"out": out})
    values = simulator.read_buffer(out, 64)
    assert list(values) == [100 if i % 2 == 0 else 200 for i in range(64)]
    # Both sides of the branch are issued, so SIMD efficiency drops below 1.
    assert result.stats.simd_efficiency < 1.0


def test_barrier_and_local_memory(simulator):
    kernel = _barrier_kernel()
    out = simulator.allocate_buffer(128)
    result = simulator.launch(kernel, NDRange(128, 128), {"out": out})
    values = simulator.read_buffer(out, 128)
    assert list(values) == [i + 7 for i in range(128)]
    assert result.stats.mix.counts.get("sync") == 2


def test_missing_and_unknown_arguments_rejected(simulator):
    kernel = _iota_kernel()
    with pytest.raises(KernelError):
        simulator.launch(kernel, NDRange(64, 64), {})
    with pytest.raises(KernelError):
        simulator.launch(kernel, NDRange(64, 64), {"out": 64, "bogus": 1})


def test_kernel_too_large_for_cram_rejected():
    config = GGPUConfig(cram_words=8)
    simulator = GGPUSimulator(config, memory_bytes=1024 * 1024)
    kernel = _divergent_kernel()
    out = simulator.allocate_buffer(64)
    with pytest.raises(KernelError):
        simulator.launch(kernel, NDRange(64, 64), {"out": out})


def test_more_cus_do_not_change_results_but_reduce_cycles(dual_cu_simulator, simulator):
    kernel = _iota_kernel()
    single_out = simulator.allocate_buffer(1024)
    single = simulator.launch(kernel, NDRange(1024, 256), {"out": single_out})
    dual_out = dual_cu_simulator.allocate_buffer(1024)
    dual = dual_cu_simulator.launch(kernel, NDRange(1024, 256), {"out": dual_out})
    assert np.array_equal(
        simulator.read_buffer(single_out, 1024), dual_cu_simulator.read_buffer(dual_out, 1024)
    )
    assert dual.cycles < single.cycles


def test_cache_and_axi_traffic_are_observed(simulator):
    kernel = _iota_kernel()
    out = simulator.allocate_buffer(512)
    result = simulator.launch(kernel, NDRange(512, 256), {"out": out})
    assert result.stats.cache.write_accesses > 0
    assert result.stats.traffic.line_fills > 0
    assert 0.0 <= result.stats.cache.hit_rate <= 1.0


def test_launch_resets_state_between_kernels(simulator):
    kernel = _iota_kernel()
    out = simulator.allocate_buffer(64)
    first = simulator.launch(kernel, NDRange(64, 64), {"out": out})
    second = simulator.launch(kernel, NDRange(64, 64), {"out": out})
    assert second.cycles == pytest.approx(first.cycles)


def test_timing_model_validation_and_classes():
    with pytest.raises(ConfigurationError):
        TimingModel(alu_latency=0)
    timing = TimingModel()
    assert timing.latency_for(OpClass.DIV) > timing.latency_for(OpClass.MUL) > timing.latency_for(OpClass.ALU)
    assert timing.uses_pe_array(OpClass.ALU)
    assert not timing.uses_pe_array(OpClass.BRANCH)
    assert not timing.uses_pe_array(OpClass.MASK)


def test_stats_summary_mentions_kernel(simulator):
    kernel = _iota_kernel()
    out = simulator.allocate_buffer(64)
    result = simulator.launch(kernel, NDRange(64, 64), {"out": out})
    assert "iota" in result.stats.summary()
    assert result.kcycles == pytest.approx(result.cycles / 1000.0)


# --------------------------------------------------------------------- #
# Uniform-address loads and uniform branches
# --------------------------------------------------------------------- #
def _uniform_load_kernel() -> Kernel:
    """out[gid] = *ptr: every lane loads the same word (a uniform address)."""
    builder = KernelBuilder("uniform_load", args=(KernelArg("ptr"), KernelArg("out")))
    gid = builder.alloc("gid")
    ptr = builder.alloc("ptr")
    out = builder.alloc("out")
    addr = builder.alloc("addr")
    value = builder.alloc("value")
    builder.global_id(gid)
    builder.load_arg(ptr, "ptr")
    builder.load_arg(out, "out")
    builder.emit(Opcode.LW, rd=value, rs=ptr, imm=0)
    builder.address_of_element(addr, out, gid)
    builder.emit(Opcode.SW, rs=addr, rt=value, imm=0)
    builder.ret()
    return builder.build()


def test_uniform_address_load_broadcasts_one_word(simulator):
    source = simulator.create_buffer([0xCAFE, 0xBEEF])
    out = simulator.allocate_buffer(128)
    result = simulator.launch(
        _uniform_load_kernel(), NDRange(128, 64), {"ptr": source + 4, "out": out}
    )
    assert list(simulator.read_buffer(out, 128)) == [0xBEEF] * 128
    # Two wavefronts read the one line: a miss, then a hit.
    assert result.stats.cache.read_accesses == 2
    assert result.stats.cache.read_misses == 1


def test_uniform_address_load_fills_a_full_register_row(simulator):
    # CMASK checks its condition's lane count, so a one-lane row would raise.
    builder = KernelBuilder("uniform_mask", args=(KernelArg("ptr"), KernelArg("out")))
    gid, ptr, out, addr, flag = (builder.alloc(name) for name in ("gid", "ptr", "out", "addr", "flag"))
    builder.global_id(gid)
    builder.load_arg(ptr, "ptr")
    builder.load_arg(out, "out")
    builder.emit(Opcode.LW, rd=flag, rs=ptr, imm=0)
    builder.emit(Opcode.PUSHM)
    builder.emit(Opcode.CMASK, rs=flag)
    builder.address_of_element(addr, out, gid)
    builder.emit(Opcode.SW, rs=addr, rt=flag, imm=0)
    builder.emit(Opcode.POPM)
    builder.ret()
    source = simulator.create_buffer([1])
    out_buffer = simulator.allocate_buffer(64)
    simulator.launch(builder.build(), NDRange(64, 64), {"ptr": source, "out": out_buffer})
    assert list(simulator.read_buffer(out_buffer, 64)) == [1] * 64


@pytest.mark.parametrize("offset", [2, None], ids=["unaligned", "out_of_range"])
def test_uniform_address_load_raises_the_vector_path_error(simulator, offset):
    out = simulator.allocate_buffer(64)
    address = out + offset if offset is not None else simulator.memory.size_bytes
    # The text the vector path raises for the same address in every lane.
    with pytest.raises(SimulationError) as vector:
        simulator.memory.load_words(np.full(64, address, dtype=np.int64))
    with pytest.raises(SimulationError) as uniform:
        simulator.launch(_uniform_load_kernel(), NDRange(64, 64), {"ptr": address, "out": out})
    assert str(uniform.value) == str(vector.value)


def _branch_kernel(rs_name: str, all_lanes_off: bool) -> Kernel:
    """A BEQ on ``rs`` (``r0`` or the lane-varying ``gid``) against ``r0``."""
    builder = KernelBuilder("branch_edge", args=(KernelArg("out"),))
    gid = builder.alloc("gid")
    out = builder.alloc("out")
    addr = builder.alloc("addr")
    builder.global_id(gid)
    builder.load_arg(out, "out")
    if all_lanes_off:
        builder.emit(Opcode.PUSHM)
        builder.emit(Opcode.CMASK, rs=0)  # r0 is false in every lane
    skip = builder.asm.unique_label("skip")
    builder.emit(Opcode.BEQ, rs=gid if rs_name == "gid" else 0, rt=0, label=skip)
    builder.label(skip)
    if all_lanes_off:
        builder.emit(Opcode.POPM)
    builder.address_of_element(addr, out, gid)
    builder.emit(Opcode.SW, rs=addr, rt=gid, imm=0)
    builder.ret()
    return builder.build()


@pytest.mark.parametrize("rs_name", ["r0", "gid"])
def test_branch_with_no_active_lane_raises(simulator, rs_name):
    out = simulator.allocate_buffer(64)
    with pytest.raises(SimulationError, match="no active lane"):
        simulator.launch(_branch_kernel(rs_name, all_lanes_off=True), NDRange(64, 64), {"out": out})


def test_branch_on_non_uniform_operand_raises(simulator):
    out = simulator.allocate_buffer(64)
    with pytest.raises(SimulationError, match="non-uniform value used in uniform control flow"):
        simulator.launch(_branch_kernel("gid", all_lanes_off=False), NDRange(64, 64), {"out": out})
    # The same branch on r0 is uniform and runs to completion.
    simulator.launch(_branch_kernel("r0", all_lanes_off=False), NDRange(64, 64), {"out": out})
    assert list(simulator.read_buffer(out, 64)) == list(range(64))


# --------------------------------------------------------------------- #
# Runaway-kernel bound (counts issued wavefront-instructions)
# --------------------------------------------------------------------- #
def _spin_kernel() -> Kernel:
    """``top: ADDI r1, r1, 1; JMP top``: a uniform loop that never returns."""
    builder = KernelBuilder("spin", args=(KernelArg("out"),))
    counter = builder.alloc("counter")
    top = builder.label()
    builder.emit(Opcode.ADDI, rd=counter, rs=counter, imm=1)
    builder.emit(Opcode.JMP, label=top)
    builder.ret()
    return builder.build()


@pytest.mark.parametrize("num_cus", [1, 2])
def test_runaway_kernel_hits_the_instruction_bound(monkeypatch, num_cus):
    # One wavefront per CU: each spins alone, so its whole loop would be
    # macro-stepped inside one scheduling event without the bound.
    monkeypatch.setattr(gpu_module, "MAX_ISSUED_INSTRUCTIONS", 5_000)
    simulator = GGPUSimulator(GGPUConfig(num_cus=num_cus), memory_bytes=1024 * 1024)
    out = simulator.allocate_buffer(64)

    def hung(signum, frame):
        raise TimeoutError("the runaway kernel did not stop at the bound")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(SimulationError, match="maximum issued-instruction count"):
            simulator.launch(_spin_kernel(), NDRange(64 * num_cus, 64), {"out": out})
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    issued = sum(cu.stats.instructions_issued for cu in simulator.compute_units)
    assert issued == 5_001


@pytest.mark.parametrize("num_cus", [1, 2])
def test_instruction_bound_is_exact(monkeypatch, num_cus):
    def run():
        simulator = GGPUSimulator(GGPUConfig(num_cus=num_cus), memory_bytes=1024 * 1024)
        out = simulator.allocate_buffer(512)
        result = simulator.launch(_iota_kernel(), NDRange(512, 64), {"out": out})
        return result, list(simulator.read_buffer(out, 512))

    reference, values = run()
    issued = reference.stats.instructions_issued
    monkeypatch.setattr(gpu_module, "MAX_ISSUED_INSTRUCTIONS", issued)
    bounded, bounded_values = run()
    assert bounded.cycles == reference.cycles
    assert bounded.stats.instructions_issued == issued
    assert bounded_values == values == [gid * 2 + 1 for gid in range(512)]
    monkeypatch.setattr(gpu_module, "MAX_ISSUED_INSTRUCTIONS", issued - 1)
    with pytest.raises(SimulationError, match="maximum issued-instruction count"):
        run()


# --------------------------------------------------------------------- #
# Register rows are shared, never written in place
# --------------------------------------------------------------------- #
def _alias_kernel() -> Kernel:
    """``LI r1; ADD r2, r1, r0; ADDI r1, r1, 1``, then store r1 and r2."""
    builder = KernelBuilder("alias", args=(KernelArg("out"),))
    gid = builder.alloc("gid")
    out = builder.alloc("out")
    addr = builder.alloc("addr")
    first = builder.alloc("first")
    copy = builder.alloc("copy")
    builder.global_id(gid)
    builder.load_arg(out, "out")
    builder.emit(Opcode.LI, rd=first, imm=41)
    builder.emit(Opcode.ADD, rd=copy, rs=first, rt=0)
    builder.emit(Opcode.ADDI, rd=first, rs=first, imm=1)
    builder.emit(Opcode.SLLI, rd=addr, rs=gid, imm=3)
    builder.emit(Opcode.ADD, rd=addr, rs=addr, rt=out)
    builder.emit(Opcode.SW, rs=addr, rt=first, imm=0)
    builder.emit(Opcode.SW, rs=addr, rt=copy, imm=4)
    builder.ret()
    return builder.build()


def test_register_write_leaves_a_copied_register_unchanged(simulator):
    out = simulator.allocate_buffer(128)
    simulator.launch(_alias_kernel(), NDRange(64, 64), {"out": out})
    assert list(simulator.read_buffer(out, 128)) == [42, 41] * 64


def test_shared_rows_are_read_only():
    from repro.simt.decode import predecode_program

    wavefront = Wavefront(0, 0, 0, 64, 32, 64, 64, 1)
    shared = [
        wavefront.registers._values[0],
        *wavefront.local_id_dims,
        *wavefront.global_id_dims,
        *(op.const for op in predecode_program(_alias_kernel().program) if op.const is not None),
    ]
    assert len(shared) == 6  # zero row, LID and GID, LI/ADDI/SLLI constants
    for row in shared:
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 7


def test_register_read_and_snapshot_are_copies():
    wavefront = Wavefront(0, 0, 0, 8, 4, 8, 8, 1)
    registers = wavefront.registers
    registers.set_row(1, wavefront.global_id_dims[0])
    registers.set_row(2, wavefront.global_id_dims[0])
    value = registers.read(1)
    snapshot = registers.snapshot()
    value[:] = 99
    snapshot[:] = 99
    assert list(registers.read(1)) == list(range(8))
    assert list(registers.read(2)) == list(range(8))
    assert list(wavefront.global_id_dims[0]) == list(range(8))
    assert registers.snapshot().shape == (4, 8)
