"""Data cache and global memory controller (AXI) models."""

import random

import numpy as np
import pytest

from repro.arch.config import AxiConfig, CacheConfig
from repro.errors import SimulationError
from repro.simt.axi import GlobalMemoryController, MemoryTrafficStats
from repro.simt.cache import CacheStats, DataCache


@pytest.fixture
def cache() -> DataCache:
    return DataCache(CacheConfig(size_bytes=4096, line_bytes=64))


def test_coalescing_merges_lanes_on_the_same_line(cache):
    addresses = [0, 4, 8, 60, 64, 68]
    assert cache.coalesce(addresses) == [0, 64]
    assert cache.coalesce([]) == []


def test_miss_then_hit(cache):
    first = cache.access_line(0, is_write=False)
    second = cache.access_line(0, is_write=False)
    assert not first.hit and second.hit
    assert cache.stats.read_accesses == 2
    assert cache.stats.read_misses == 1


def test_direct_mapped_conflict_eviction(cache):
    # 4096-byte cache with 64-byte lines = 64 lines; addresses 0 and 4096 map
    # to the same line.
    cache.access_line(0, is_write=True)
    conflict = cache.access_line(4096, is_write=False)
    assert not conflict.hit
    assert conflict.write_back  # the dirty victim must be written back
    assert cache.stats.write_backs == 1


def test_clean_eviction_has_no_write_back(cache):
    cache.access_line(0, is_write=False)
    conflict = cache.access_line(4096, is_write=False)
    assert not conflict.hit and not conflict.write_back


def test_wavefront_access_updates_stats(cache):
    accesses = cache.access_wavefront([4 * lane for lane in range(64)], is_write=False)
    assert len(accesses) == 4  # 64 words of 4 bytes = 4 lines of 64 bytes
    assert cache.stats.read_accesses == 4


def test_flush_and_reset(cache):
    cache.access_line(0, is_write=True)
    cache.access_line(64, is_write=True)
    assert cache.flush() == 2
    assert cache.flush() == 0
    cache.reset()
    assert cache.stats.accesses == 0
    assert cache.resident_lines() == set()


def test_bad_line_address_rejected(cache):
    with pytest.raises(SimulationError):
        cache.access_line(10, is_write=False)


def test_cache_stats_hit_rate_and_merge():
    stats = CacheStats(read_accesses=8, read_misses=2)
    assert stats.hit_rate == pytest.approx(0.75)
    assert CacheStats().hit_rate == 1.0
    merged = stats.merge(CacheStats(write_accesses=4, write_misses=1, write_backs=3))
    assert merged.accesses == 12
    assert merged.misses == 3
    assert merged.write_backs == 3


def test_memory_controller_latency_and_bandwidth():
    controller = GlobalMemoryController(AxiConfig(), CacheConfig())
    transfer = controller.line_transfer_cycles
    first = controller.line_fill(0.0)
    assert first == pytest.approx(AxiConfig().memory_latency_cycles + transfer)
    # Four ports: the fifth concurrent fill has to wait for a port.
    completions = [controller.line_fill(0.0) for _ in range(4)]
    assert max(completions) > first
    assert controller.stats.line_fills == 5


def test_memory_controller_write_back_is_posted():
    controller = GlobalMemoryController(AxiConfig(), CacheConfig())
    done = controller.write_back(0.0)
    assert done == pytest.approx(controller.line_transfer_cycles)
    assert controller.stats.write_backs == 1


def test_memory_controller_reset_and_validation():
    controller = GlobalMemoryController(AxiConfig(), CacheConfig())
    controller.line_fill(0.0)
    controller.reset()
    assert controller.stats.transactions == 0
    assert controller.earliest_free() == 0.0
    with pytest.raises(SimulationError):
        controller.line_fill(-1.0)


def test_one_line_sorted_access_matches_access_line():
    config = CacheConfig(size_bytes=4096, line_bytes=64)
    scalar, sorted_path = DataCache(config), DataCache(config)
    # A write hit dirties line 0; line 4096 then evicts it (same set).
    for line, is_write in ((0, True), (0, True), (4096, False), (4096, True)):
        expected = scalar.access_line(line, is_write)
        outcome = sorted_path.access_sorted_lines(np.array([line], dtype=np.int64), is_write)
        if expected.hit:
            assert outcome == (None, None, 0)
        else:
            assert outcome == ([False], [expected.write_back], 1)
        assert sorted_path.stats == scalar.stats
    assert scalar.stats.write_backs == 1
    assert sorted_path.resident_lines() == scalar.resident_lines() == {4096}
    assert sorted_path.flush() == scalar.flush() == 1


def test_one_line_dirty_eviction_claims_the_same_port_time():
    config = CacheConfig(size_bytes=4096, line_bytes=64)
    scalar, sorted_path = DataCache(config), DataCache(config)
    scalar.access_line(0, is_write=True)
    sorted_path.access_sorted_lines(np.array([0], dtype=np.int64), is_write=True)
    expected = scalar.access_line(4096, is_write=False)
    assert not expected.hit and expected.write_back
    hits, write_backs, misses = sorted_path.access_sorted_lines(
        np.array([4096], dtype=np.int64), is_write=False
    )
    assert misses == 1
    controllers = [GlobalMemoryController(AxiConfig(), config) for _ in range(2)]
    bursts = [
        controllers[0].miss_burst(10.0, config.ports, [expected.hit], [expected.write_back], 12.0),
        controllers[1].miss_burst(10.0, config.ports, hits, write_backs, 12.0),
    ]
    assert bursts[0] == bursts[1]
    assert controllers[0].stats == controllers[1].stats
    assert controllers[0].earliest_free() == controllers[1].earliest_free()
    assert controllers[0].stats.write_backs == controllers[0].stats.line_fills == 1


class _LinearScanPorts:
    """Reference AXI port model: scan every port per claim, pick the first minimum."""

    def __init__(self, axi: AxiConfig, transfer: int) -> None:
        self.free = [0.0] * axi.data_ports
        self.transfer = transfer
        self.fill_latency = axi.memory_latency_cycles + transfer
        self.stats = MemoryTrafficStats()

    def _claim(self, now: float) -> float:
        best = min(range(len(self.free)), key=self.free.__getitem__)
        start = max(now, self.free[best])
        self.free[best] = start + self.transfer
        self.stats.busy_cycles += self.transfer
        return start

    def line_fill(self, now: float) -> float:
        self.stats.line_fills += 1
        return self._claim(now) + self.fill_latency

    def write_back(self, now: float) -> float:
        self.stats.write_backs += 1
        return self._claim(now) + self.transfer

    def miss_burst(self, access_time, ports, hit_list, wb_list, completion):
        last_hit = -1
        for position, hit in enumerate(hit_list):
            wave_start = access_time + position // ports
            if hit:
                last_hit = position
                continue
            if wb_list[position]:
                self.write_back(wave_start)
            completion = max(completion, self.line_fill(wave_start))
        return completion, last_hit

    def write_back_burst(self, now: float, count: int) -> float:
        done = now
        for _ in range(count):
            done = self.write_back(now)
        return done

    def earliest_free(self) -> float:
        return min(self.free)


@pytest.mark.parametrize("seed", range(12))
def test_port_heap_matches_linear_scan_reference(seed):
    rng = random.Random(seed)
    axi = AxiConfig(
        data_ports=rng.randint(1, 4),
        data_width_bits=rng.choice((32, 64, 128)),
        memory_latency_cycles=rng.randint(1, 60),
    )
    controller = GlobalMemoryController(axi, CacheConfig())
    reference = _LinearScanPorts(axi, controller.line_transfer_cycles)
    now = 0.0
    for _ in range(300):
        # Mostly forward in time, sometimes back behind the busy ports, with
        # half-cycle steps, so the ports' free times stay uneven.
        now = max(0.0, now + rng.choice((-40, -3, 0, 0.5, 1, 2, 7, 25)))
        kind = rng.randrange(4)
        if kind == 0:
            args = (now,)
            outcome = controller.line_fill(*args), reference.line_fill(*args)
        elif kind == 1:
            args = (now,)
            outcome = controller.write_back(*args), reference.write_back(*args)
        elif kind == 2:
            count = rng.randint(1, 12)
            hits = [rng.random() < 0.4 for _ in range(count)]
            write_backs = [not hit and rng.random() < 0.5 for hit in hits]
            args = (now, rng.randint(1, 4), hits, write_backs, now + rng.randint(0, 5))
            outcome = controller.miss_burst(*args), reference.miss_burst(*args)
        else:
            args = (now, rng.randint(0, 6))
            outcome = controller.write_back_burst(*args), reference.write_back_burst(*args)
        assert outcome[0] == outcome[1], (kind, args)
        assert controller.stats == reference.stats
        assert controller.earliest_free() == reference.earliest_free()
    assert controller.stats.transactions > 300
