"""Global memory, runtime memory, and LRAM models."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simt.memory import GlobalMemory, LocalMemory, RuntimeMemory


def test_allocation_is_aligned_and_non_overlapping():
    memory = GlobalMemory(1024 * 1024)
    first = memory.allocate(10)
    second = memory.allocate(10)
    assert first % 64 == 0 and second % 64 == 0
    assert second >= first + 40


def test_allocation_overflow_raises():
    memory = GlobalMemory(4096)
    with pytest.raises(SimulationError):
        memory.allocate(10000)
    with pytest.raises(SimulationError):
        memory.allocate(0)


def test_buffer_round_trip():
    memory = GlobalMemory(1024 * 1024)
    base = memory.allocate(8)
    memory.write_buffer(base, [1, 2, 3, 0xFFFFFFFF])
    assert list(memory.read_buffer(base, 4)) == [1, 2, 3, 0xFFFFFFFF]


def test_vector_load_store():
    memory = GlobalMemory(1024 * 1024)
    base = memory.allocate(16)
    addresses = base + 4 * np.arange(8)
    memory.store_words(addresses, np.arange(8))
    assert list(memory.load_words(addresses)) == list(range(8))


def test_unaligned_and_out_of_range_accesses_raise():
    memory = GlobalMemory(4096)
    with pytest.raises(SimulationError):
        memory.load_words(np.array([2]))
    with pytest.raises(SimulationError):
        memory.load_words(np.array([8192]))
    with pytest.raises(SimulationError):
        memory.read_buffer(0, 10000)


def test_runtime_memory_descriptor():
    rtm = RuntimeMemory(64)
    rtm.write_descriptor(global_size=1024, workgroup_size=256, args=[100, 200, 5])
    assert rtm.global_size == 1024
    assert rtm.workgroup_size == 256
    assert rtm.num_args == 3
    assert rtm.read_arg(1) == 200
    with pytest.raises(SimulationError):
        rtm.read_arg(7)


def test_runtime_memory_capacity():
    rtm = RuntimeMemory(16)
    with pytest.raises(SimulationError):
        rtm.write_descriptor(64, 64, list(range(100)))


def test_local_memory_round_trip_and_bounds():
    lram = LocalMemory(64)
    lram.store_words(np.array([0, 1, 63]), np.array([7, 8, 9]))
    assert list(lram.load_words(np.array([0, 1, 63]))) == [7, 8, 9]
    with pytest.raises(SimulationError):
        lram.load_words(np.array([64]))
    with pytest.raises(SimulationError):
        LocalMemory(0)


@pytest.mark.parametrize("address", [6, 8192, -4], ids=["unaligned", "past_end", "negative"])
def test_one_lane_load_raises_the_vector_path_error(address):
    memory = GlobalMemory(4096)
    with pytest.raises(SimulationError) as vector:
        memory.load_words(np.full(64, address, dtype=np.int64))
    with pytest.raises(SimulationError) as one_lane:
        memory.load_words(np.array([address], dtype=np.int64))
    assert str(one_lane.value) == str(vector.value)


def test_one_lane_load_returns_a_copy():
    memory = GlobalMemory(4096)
    base = memory.allocate(2)
    memory.write_buffer(base, [5, 9])
    loaded = memory.load_words(np.array([base + 4]))
    memory.store_words(np.array([base + 4]), np.array([1]))
    assert loaded.tolist() == [9]
