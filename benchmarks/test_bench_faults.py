"""Benchmark: overhead of the fault-tolerance machinery (PR 7).

Two acceptance measurements for the fault-tolerant runtime, recorded to
``BENCH_PR7.json`` in the repository root:

* **Fault-path overhead** — the 16-kernel multi-device batch scheduled with
  no fault plan, with an *armed but empty* plan (the injector is consulted
  on every launch and transfer but never fires), and with a representative
  mixed fault arm.  The armed-empty run must produce the bit-identical
  schedule, and its wall-time overhead stays within an acceptance bound:
  resilience is free until a fault actually fires.
* **Journal overhead** — a scale-reduced Table III sweep without a journal,
  with a cold journal (every cell recorded as it completes), and resumed
  from a warm journal (every cell served, nothing simulated).  The warm
  resume must be dramatically faster than computing, which is the point of
  crash-safe sweeps.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Dict, Optional

import numpy as np
import pytest

from repro.arch.config import GGPUConfig
from repro.eval.benchmarks import BenchmarkSizes, run_table3
from repro.kernels import all_kernel_names, get_kernel_spec
from repro.runtime.checkpoint import SweepJournal, atomic_write_json
from repro.runtime.faults import (
    DEVICE_FAIL,
    DEVICE_TRANSIENT,
    TRANSFER_STALL,
    FaultPlan,
    FaultSpec,
)
from repro.runtime.multidevice import OutOfOrderQueue
from repro.runtime.parallel import default_jobs

BENCH_PR7_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR7.json"

# As with the other schedule-layer benches, REPRO_BENCH_SCALE is deliberately
# not applied: the recorded overheads should be comparable between runs.
SCALE = 0.125
NUM_DEVICES = 2
MEMORY_BYTES = 64 * 1024 * 1024
# The armed-but-idle injector adds two dictionary probes per launch/transfer
# to a pure-python cycle-accurate simulation; anything past this bound means
# the no-fault path grew real work.
MAX_ARMED_IDLE_OVERHEAD = 0.25
# Interleaved baseline/armed pairs behind the overhead figure.  One pair
# taken right after a cold start swung past the bound on host noise alone;
# the median over warm, interleaved pairs does not.
OVERHEAD_PAIRS = 3


def _record(section: str, payload: dict) -> None:
    data = {}
    if BENCH_PR7_PATH.exists():
        try:
            data = json.loads(BENCH_PR7_PATH.read_text())
        except (ValueError, OSError):
            data = {}
    data[section] = {"meta": {"repro_jobs": default_jobs(), "scale": SCALE}, **payload}
    atomic_write_json(BENCH_PR7_PATH, data)


def _run_suite_batch(faults: Optional[FaultPlan]) -> Dict[str, object]:
    """Schedule the whole kernel suite once; return wall time and schedule."""
    queue = OutOfOrderQueue(
        config=GGPUConfig(num_cus=1),
        num_devices=NUM_DEVICES,
        memory_bytes=MEMORY_BYTES,
        faults=faults,
    )
    start = time.perf_counter()
    for name in all_kernel_names():
        spec = get_kernel_spec(name)
        sizes = BenchmarkSizes.paper(name).scaled(SCALE)
        workload = spec.workload(sizes.gpu_size, 2022)
        args: Dict[str, object] = dict(workload.scalars)
        for buffer_name, contents in workload.buffers.items():
            args[buffer_name] = queue.create_buffer(
                np.asarray(contents, dtype=np.int64) & 0xFFFFFFFF
            )
        queue.enqueue(spec.build(), workload.ndrange, args, label=name)
    queue.flush()
    wall = time.perf_counter() - start
    return {
        "wall": wall,
        "makespan": queue.stats.makespan,
        "schedule": [
            (event.label, event.device, event.start_cycle, event.end_cycle)
            for event in queue.schedule
        ],
        "total_retries": queue.stats.total_retries,
        "devices_lost": queue.stats.devices_lost,
        "degraded_fraction": queue.stats.degraded_fraction,
    }


def _interleaved_pairs():
    """(baseline, armed-idle) batch pairs, alternating which arm runs first."""
    pairs = []
    for index in range(OVERHEAD_PAIRS):
        arms = {}
        for faults in ((None, FaultPlan()) if index % 2 == 0 else (FaultPlan(), None)):
            arms["baseline" if faults is None else "armed"] = _run_suite_batch(faults)
        pairs.append((arms["baseline"], arms["armed"]))
    return pairs


@pytest.mark.benchmark(group="faults")
def test_fault_injection_overhead(benchmark):
    _run_suite_batch(faults=None)  # warm-up: imports and first-use caches
    pairs = benchmark.pedantic(_interleaved_pairs, rounds=1, iterations=1)
    baseline = pairs[0][0]
    mixed_plan = FaultPlan(
        specs=(
            FaultSpec(kind=TRANSFER_STALL, device=0, at_command=0),
            FaultSpec(kind=DEVICE_TRANSIENT, device=1, at_command=1),
            FaultSpec(kind=DEVICE_FAIL, device=0, at_command=4),
        )
    )
    faulted = _run_suite_batch(faults=mixed_plan)

    overhead = statistics.median(armed["wall"] / base["wall"] for base, armed in pairs) - 1.0
    _record(
        "fault_injection_overhead",
        {
            "kernels": len(all_kernel_names()),
            "num_devices": NUM_DEVICES,
            "pairs": OVERHEAD_PAIRS,
            "baseline_wall_seconds": round(statistics.median(b["wall"] for b, _ in pairs), 3),
            "armed_idle_wall_seconds": round(statistics.median(a["wall"] for _, a in pairs), 3),
            "armed_idle_overhead": round(overhead, 4),
            "faulted_wall_seconds": round(faulted["wall"], 3),
            "faulted_makespan_ratio": round(
                faulted["makespan"] / baseline["makespan"], 4
            ),
            "faulted_retries": faulted["total_retries"],
            "faulted_devices_lost": faulted["devices_lost"],
            "faulted_degraded_fraction": round(faulted["degraded_fraction"], 4),
        },
    )

    # An armed-but-idle injector must not perturb the schedule at all...
    for base, armed in pairs:
        assert base["schedule"] == baseline["schedule"]
        assert armed["schedule"] == baseline["schedule"]
        assert armed["makespan"] == baseline["makespan"]
    # ...and must stay within the wall-clock acceptance bound (median ratio).
    assert overhead <= MAX_ARMED_IDLE_OVERHEAD, overhead
    # The faulted arm recovered (degraded, never corrupted or stuck).
    assert faulted["devices_lost"] == 1
    assert faulted["makespan"] >= baseline["makespan"]


@pytest.mark.benchmark(group="faults")
def test_checkpoint_journal_overhead(benchmark, tmp_path):
    kwargs = {"cu_counts": (1,), "scale": SCALE, "check": False}
    path = tmp_path / "journal.json"

    start = time.perf_counter()
    bare = run_table3(**kwargs)
    bare_wall = time.perf_counter() - start

    start = time.perf_counter()
    cold = run_table3(journal=path, **kwargs)
    cold_wall = time.perf_counter() - start

    meta = json.loads(path.read_text(encoding="utf-8"))["meta"]
    journal = SweepJournal(path, meta=meta)
    start = time.perf_counter()
    warm = benchmark.pedantic(
        lambda: run_table3(journal=journal, **kwargs), rounds=1, iterations=1
    )
    warm_wall = time.perf_counter() - start

    total_cells = len(all_kernel_names()) * 2
    _record(
        "checkpoint_journal_overhead",
        {
            "cells": total_cells,
            "bare_wall_seconds": round(bare_wall, 3),
            "cold_journal_wall_seconds": round(cold_wall, 3),
            "cold_journal_overhead": round(cold_wall / bare_wall - 1.0, 4),
            "warm_resume_wall_seconds": round(warm_wall, 3),
            "warm_resume_speedup": round(bare_wall / warm_wall, 2),
        },
    )

    # The warm resume simulated nothing: every cell came from the journal.
    assert journal.hits == total_cells
    assert journal.misses == 0
    assert warm_wall < bare_wall
    # Journaled and bare sweeps agree bit-exactly, cold and warm alike.
    for kernel in all_kernel_names():
        assert cold.rows[kernel].riscv == bare.rows[kernel].riscv
        assert warm.rows[kernel].riscv == bare.rows[kernel].riscv
        assert cold.rows[kernel].gpu[1] == bare.rows[kernel].gpu[1]
        assert warm.rows[kernel].gpu[1] == bare.rows[kernel].gpu[1]
