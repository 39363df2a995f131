"""The three workloads: inputs from a seed, one timed pass, checked outputs.

Every workload is driven as a closed loop by one client: one pass at a time,
serial (``jobs=1``), with default settings.  It passes none of the knobs the
roadmap plans to delete (``vectorized=``, ``lpt=``, ``ComputeUnit.macro_step``,
``scheduler="stealing"``), so removing them needs no benchmark edit.

A pass returns a :class:`PassResult`.  Its ``counters`` are read from the
program's own results (launch stats, queue stats, ISS stats), never from the
tracing wrappers, so traced and untraced passes report the same numbers.  Its
``digest`` is a SHA-256 over every simulated cycle count and checked output
(``table3-sweep``: cycle counts only, see :class:`Table3Sweep`): a change
that moves one simulated cycle changes the digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys
import tempfile
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.arch.config import GGPUConfig, Topology
from repro.cl import BENCHMARK_CL_SOURCES, compile_source
from repro.eval import benchmarks
from repro.eval.paper_data import PAPER_TABLE3
from repro.kernels import all_kernel_names, get_kernel_spec
from repro.eval.multidevice import (
    TOPOLOGY_CELL_MEMORY_BYTES,
    _build_layered_dag,
    _build_shuffle_dag,
)
from repro.runtime.multidevice import OutOfOrderQueue
from repro.simt.gpu import GGPUSimulator
from repro.simt.trace import KernelRunStats

DEFAULT_SEED = benchmarks.DEFAULT_SEED
MASK = 0xFFFFFFFF

TABLE3_SCALE = 0.25
TABLE3_CU_COUNTS = (1, 2, 4, 8)

# dag-multidevice: the topology ablation's two DAGs (built by the same
# functions as run_topology_table), HEFT only, at 8 and 16 devices.
# 64 devices is left out: its peak RSS swung 187-242 MB between runs.
DAG_TOPOLOGIES = ("ring", "two-switch")
DAG_DEVICE_COUNTS = (8, 16)
DAG_SCHEDULER = "heft"
LAYERED_WIDTH, LAYERED_DEPTH, LAYERED_SIZE = 96, 20, 256
SHUFFLE_LANES, SHUFFLE_STAGES, SHUFFLE_SIZE = 16, 4, 256


@dataclass
class PassResult:
    """What one pass did, whether it was right, and what it simulated."""

    attempted: int = 0
    failed: int = 0
    counters: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    digest: str = ""
    report: List[str] = field(default_factory=list)
    paper_scaling_err: float = 0.0


def _fail(result: PassResult, count: int, what: str) -> None:
    """Count ``count`` failed ops and log why on stderr."""
    result.failed += count
    print(f"perfbench: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _add_launch(counters: Dict[str, float], stats: KernelRunStats) -> None:
    counters["simt.launches"] += 1
    counters["simt.winstr"] += stats.instructions_issued
    counters["simt.events"] += sum(cu.issue_events for cu in stats.cu_stats)
    counters["simt.active_lanes"] += sum(cu.active_lane_issues for cu in stats.cu_stats)
    counters["simt.lane_slots"] += stats.instructions_issued * stats.wavefront_size
    counters["simt.sim_cycles"] += stats.cycles
    counters["mem.line_accesses"] += stats.cache.accesses
    counters["mem.read_misses"] += stats.cache.read_misses
    counters["mem.write_misses"] += stats.cache.write_misses
    counters["mem.write_backs"] += stats.cache.write_backs
    counters["mem.axi_fills"] += stats.traffic.line_fills


def _launch_key(stats: KernelRunStats) -> Tuple[Any, ...]:
    cache, traffic = stats.cache, stats.traffic
    return (
        stats.kernel_name,
        stats.num_cus,
        repr(stats.cycles),
        stats.instructions_issued,
        cache.read_accesses,
        cache.write_accesses,
        cache.read_misses,
        cache.write_misses,
        cache.write_backs,
        traffic.line_fills,
        traffic.write_backs,
    )


def _add_riscv(counters: Dict[str, float], stats: Any) -> None:
    counters["riscv.runs"] += 1
    counters["riscv.instructions"] += stats.instructions
    counters["riscv.sim_cycles"] += stats.cycles


class Digest:
    """SHA-256 over a stream of simulated numbers and output arrays."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *items: Any) -> None:
        self._hash.update(repr(items).encode())

    def add_array(self, array: np.ndarray) -> None:
        self._hash.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


# --------------------------------------------------------------------------- #
# table3-sweep
# --------------------------------------------------------------------------- #
def paper_scaling(table: benchmarks.Table3Data) -> Tuple[float, Dict[str, float], List[str]]:
    """Mean |ln(ours / paper)| of the 1→2/4/8-CU speed-ups, per paper kernel.

    Measured at the sweep's reduced size, so it scores the *shape* of CU
    scaling against Table III, not an absolute error.
    """
    errors: List[float] = []
    per_kernel: Dict[str, float] = {}
    lines: List[str] = []
    for kernel, (_, _, _, paper_kcycles) in PAPER_TABLE3.items():
        row = table.row(kernel)
        kernel_errors = []
        for cus in TABLE3_CU_COUNTS[1:]:
            ours = row.gpu[1].cycles / row.gpu[cus].cycles
            paper = paper_kcycles[1] / paper_kcycles[cus]
            kernel_errors.append(abs(math.log(ours / paper)))
            lines.append(
                f"paper_scaling kernel={kernel} cus={cus} ours={ours:.3f} "
                f"paper={paper:.3f} ratio={ours / paper:.3f}"
            )
        per_kernel[kernel] = sum(kernel_errors) / len(kernel_errors)
        errors.extend(kernel_errors)
    return sum(errors) / len(errors), per_kernel, lines


class Table3Sweep:
    """``run_table3(scale=0.25, jobs=1)``: 16 kernels x (RISC-V + 1/2/4/8 CUs)."""

    name = "table3-sweep"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.cells = len(all_kernel_names()) * (1 + len(TABLE3_CU_COUNTS))

    def run_pass(self) -> PassResult:
        result = PassResult(attempted=self.cells)
        journal_dir = Path(tempfile.mkdtemp(prefix="journal-", dir=self.scratch))
        journal_path = journal_dir / "table3.json"
        try:
            try:
                table = benchmarks.run_table3(
                    scale=TABLE3_SCALE, jobs=1, seed=self.seed, journal=journal_path
                )
            except Exception:
                _fail(result, self.cells, "table3 sweep raised")
                return result
            journaled = len(json.loads(journal_path.read_text())["cells"])
        finally:
            shutil.rmtree(journal_dir, ignore_errors=True)
        if journaled != self.cells:
            result.failed += self.cells - journaled
            print(f"perfbench: journal holds {journaled}/{self.cells} cells", file=sys.stderr)
        # run_table3 checks every cell's outputs itself (check=True raises on
        # a mismatch) but does not return them, so this digest covers the
        # simulated cycles and cache/AXI counters only.
        counters, digest = result.counters, Digest()
        for kernel, row in table.rows.items():
            _add_riscv(counters, row.riscv.stats)
            digest.add(kernel, "riscv", row.riscv.input_size, row.riscv.cycles,
                       row.riscv.stats.instructions)
            if row.riscv.cycles <= 0:
                result.failed += 1
            for cus in TABLE3_CU_COUNTS:
                stats = row.gpu[cus].stats
                _add_launch(counters, stats)
                digest.add(kernel, row.gpu[cus].input_size, _launch_key(stats))
                if stats.cycles <= 0:
                    result.failed += 1
        counters["sweep.cells"] = len(table.rows) * (1 + len(TABLE3_CU_COUNTS))
        counters["makespan_cycles"] = counters["simt.sim_cycles"] + counters["riscv.sim_cycles"]
        result.paper_scaling_err, per_kernel, result.report = paper_scaling(table)
        result.report += [
            f"paper_scaling_err kernel={kernel} {error:.4f} ln-ratio"
            for kernel, error in per_kernel.items()
        ]
        result.digest = digest.hexdigest()
        return result


# --------------------------------------------------------------------------- #
# dag-multidevice
# --------------------------------------------------------------------------- #
class DagMultidevice:
    """Layered and shuffle DAGs under HEFT on ring/two-switch, 8/16 devices.

    The DAGs come from the topology ablation's own builders in
    ``repro.eval.multidevice``, so a change to their shape changes what this
    workload measures.  Their inputs are derived from the seed.
    """

    name = "dag-multidevice"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.config = GGPUConfig()
        self.cells = [
            (dag, topology, count)
            for topology in DAG_TOPOLOGIES
            for count in DAG_DEVICE_COUNTS
            for dag in ("layered", "shuffle")
        ]
        self.launches_per_dag = {
            "layered": LAYERED_DEPTH + LAYERED_WIDTH,
            "shuffle": SHUFFLE_LANES * SHUFFLE_STAGES,
        }

    def run_pass(self) -> PassResult:
        result = PassResult()
        counters, digest = result.counters, Digest()
        # One pool per pass, recycled across cells (as run_topology_table does
        # serially); kernels are built per cell, so each pass decodes afresh.
        pool = [
            GGPUSimulator(self.config, memory_bytes=TOPOLOGY_CELL_MEMORY_BYTES)
            for _ in range(max(DAG_DEVICE_COUNTS))
        ]
        for dag, topology, count in self.cells:
            launches = self.launches_per_dag[dag]
            result.attempted += launches
            try:
                queue = OutOfOrderQueue(
                    devices=pool[:count],
                    scheduler=DAG_SCHEDULER,
                    topology=Topology.preset(topology, count),
                )
                if dag == "layered":
                    checks = _build_layered_dag(
                        queue, LAYERED_WIDTH, LAYERED_DEPTH, LAYERED_SIZE, self.seed
                    )
                else:
                    checks = _build_shuffle_dag(
                        queue, SHUFFLE_LANES, SHUFFLE_STAGES, SHUFFLE_SIZE, self.seed
                    )
                results = queue.finish()
            except Exception:
                _fail(result, launches, f"{dag} DAG on {topology}/{count} raised")
                continue
            stats = queue.stats
            if len(results) != launches:
                result.failed += launches - len(results)
            counters["makespan_cycles"] += stats.makespan
            counters["runtime.transfers_to_device"] += stats.transfers_to_device
            counters["runtime.transfers_p2p"] += stats.transfers_p2p
            counters["runtime.utilization_sum"] += stats.utilization
            counters["runtime.cells"] += 1
            digest.add(dag, topology, count, repr(stats.makespan), stats.transfers_to_device,
                       stats.transfers_p2p)
            for launch in results:
                _add_launch(counters, launch.stats)
                digest.add(_launch_key(launch.stats))
            for label, buffer, expected in checks:
                observed = queue.enqueue_read(buffer).astype(np.int64)
                digest.add_array(observed)
                if not np.array_equal(observed, np.asarray(expected, dtype=np.int64) & MASK):
                    result.failed += 1
                    print(f"perfbench: {dag}/{topology}/{count}: wrong {label}", file=sys.stderr)
        result.digest = digest.hexdigest()
        return result


# --------------------------------------------------------------------------- #
# cl-riscv
# --------------------------------------------------------------------------- #
class ClRiscv:
    """Compile every shipped CL source to both targets; run the RISC-V side."""

    name = "cl-riscv"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.cases = []
        for name, source in BENCHMARK_CL_SOURCES.items():
            spec = get_kernel_spec(name)
            # The paper's protocol: the largest input that fits 32 kB.
            self.cases.append((name, source, spec.workload(spec.paper_riscv_size, seed)))

    def run_pass(self) -> PassResult:
        result = PassResult()
        counters, digest = result.counters, Digest()
        for name, source, workload in self.cases:
            result.attempted += 2  # one compile, one RISC-V run
            try:
                program = compile_source(source, check="error")
                kernel = program.to_ggpu_kernel()
                case = program.to_riscv_case(workload)
            except Exception:
                _fail(result, 2, f"compiling {name} raised")
                continue
            counters["cl.ggpu_static_instrs"] += len(kernel.program)
            counters["cl.riscv_static_instrs"] += len(case.program)
            try:
                stats, outputs = case.run(check=True)
            except Exception:
                _fail(result, 1, f"RISC-V run of {name} raised")
                continue
            _add_riscv(counters, stats)
            digest.add(name, len(kernel.program), len(case.program), stats.cycles,
                       stats.instructions)
            for buffer in sorted(outputs):
                digest.add_array(outputs[buffer])
        counters["makespan_cycles"] = counters["riscv.sim_cycles"]
        result.digest = digest.hexdigest()
        return result


WORKLOADS = {cls.name: cls for cls in (Table3Sweep, DagMultidevice, ClRiscv)}
