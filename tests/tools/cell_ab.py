#!/usr/bin/env python
"""Cell-by-cell A/B of two source trees on the Table III cells.

Whole-run A/B pairs of the scale-0.25 sweep spread by about +-15% on a
shared host, because a slow phase of the host moves a whole run.  This tool
narrows that by interleaving at the finest grain the sweep has: it keeps one
warm worker process per source tree (each imports ``repro`` from its own
``src/``), runs every GPU cell of Table III (kernel x CU count) on both
trees, and picks at random, per cell, which tree runs it first.  A host
phase then lands on both sides of almost every cell.

With ``--riscv`` the cells are the Table III RISC-V column instead: the 16
RISC-V programs at the same scale, each run on the instruction-set
simulator.

Every cell must report identical simulated cycles on both trees (RISC-V
cells: identical cycles and instruction counts); the tool fails otherwise.
It prints each round's summed cell walls per tree and the median, min and
max over rounds of the ratio base / change (above 1 means the change is
faster).

    python tests/tools/cell_ab.py --base ../parent --change . --rounds 5
    python tests/tools/cell_ab.py --base . --change . --rounds 1 --kernels copy --cus 1 2
    python tests/tools/cell_ab.py --base ../parent --change . --rounds 10 --riscv

Workers run one at a time, so the A/B needs one free core.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

SCALE = 0.25  # input-size scale of the benchmark's table3-sweep workload
SEED = 2022  # input seed of every cell
ORDER_SEED = 0  # seed of the per-cell run order


def _worker(tree: Path) -> None:
    """Serve cell requests (one JSON object per line) for one source tree."""
    sys.path.insert(0, str(tree / "src"))
    from repro.eval.benchmarks import BenchmarkSizes, measure_gpu_kernel, measure_riscv_program
    from repro.kernels import all_kernel_names

    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "cells":
            names = request["kernels"] or all_kernel_names()
            reply = []
            for name in names:
                sizes = BenchmarkSizes.paper(name).scaled(SCALE)
                reply.append([name, sizes.riscv_size if request["riscv"] else sizes.gpu_size])
        elif request["num_cus"] is None:
            start = time.perf_counter()
            measurement = measure_riscv_program(request["kernel"], request["size"], SEED)
            reply = {
                "wall": time.perf_counter() - start,
                "cycles": measurement.cycles,
                "instructions": measurement.stats.instructions,
            }
        else:
            start = time.perf_counter()
            measurement = measure_gpu_kernel(
                request["kernel"], request["num_cus"], request["size"], SEED
            )
            reply = {"wall": time.perf_counter() - start, "cycles": measurement.cycles}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class _Worker:
    """A warm worker process serving one source tree."""

    def __init__(self, tree: Path) -> None:
        self.tree = tree
        env = dict(os.environ, REPRO_JOBS="1")
        env.pop("PYTHONPATH", None)
        self.process = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(tree)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )

    def ask(self, request: dict):
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise SystemExit(f"worker for {self.tree} exited (code {self.process.wait()})")
        return json.loads(line)

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait(timeout=60)


def run_ab(
    base: Path,
    change: Path,
    rounds: int,
    kernels: Optional[List[str]],
    cu_counts: List[int],
    riscv: bool = False,
) -> List[float]:
    """Run the A/B and print its report; returns the per-round ratios.

    ``riscv`` runs the RISC-V cells (``num_cus`` None in a request) instead
    of the GPU cells at ``cu_counts``.
    """
    workers = {"base": _Worker(base), "change": _Worker(change)}
    try:
        query = {"op": "cells", "kernels": kernels, "riscv": riscv}
        cells = workers["base"].ask(query)
        if workers["change"].ask(query) != cells:
            raise SystemExit("the two trees disagree on the Table III cell sizes")
        requests = [
            {"op": "run", "kernel": name, "size": size, "num_cus": num_cus}
            for name, size in cells
            for num_cus in ([None] if riscv else cu_counts)
        ]
        for worker in workers.values():  # warm-up: imports and first-use caches
            worker.ask(requests[0])
        order = random.Random(ORDER_SEED)
        ratios = []
        print(f"{len(requests)} cells per round, {rounds} round(s)")
        for round_index in range(rounds):
            sums = {"base": 0.0, "change": 0.0}
            for request in requests:
                sides = ["base", "change"]
                order.shuffle(sides)
                results = {}
                for side in sides:
                    reply = workers[side].ask(request)
                    sums[side] += reply.pop("wall")
                    results[side] = reply
                if results["base"] != results["change"]:
                    cell = "RISC-V" if riscv else f"{request['num_cus']} CU"
                    raise SystemExit(
                        f"{request['kernel']} @ {cell}: results differ "
                        f"(base {results['base']}, change {results['change']})"
                    )
            ratio = sums["base"] / sums["change"]
            ratios.append(ratio)
            print(
                f"round {round_index + 1}: base {sums['base']:.3f} s  "
                f"change {sums['change']:.3f} s  ratio {ratio:.3f}"
            )
        print(
            f"base/change ratio: median {statistics.median(ratios):.3f}  "
            f"min {min(ratios):.3f}  max {max(ratios):.3f}  (results identical in every cell)"
        )
        return ratios
    finally:
        for worker in workers.values():
            worker.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--base", type=Path, help="parent source tree (holds src/repro)")
    parser.add_argument("--change", type=Path, help="changed source tree (holds src/repro)")
    parser.add_argument("--rounds", type=int, default=5, help="passes over all cells (default 5)")
    parser.add_argument("--kernels", nargs="+", help="kernels to run (default: all 16)")
    parser.add_argument(
        "--cus", type=int, nargs="+", default=[1, 2, 4, 8], help="CU counts (default 1 2 4 8)"
    )
    parser.add_argument(
        "--riscv", action="store_true", help="run the RISC-V cells instead of the GPU cells"
    )
    args = parser.parse_args()
    if args.worker is not None:
        _worker(args.worker.resolve())
        return 0
    if args.base is None or args.change is None:
        parser.error("--base and --change are required")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for tree in (args.base, args.change):
        if not (tree / "src" / "repro").is_dir():
            parser.error(f"{tree} holds no src/repro")
    run_ab(
        args.base.resolve(), args.change.resolve(), args.rounds, args.kernels, args.cus, args.riscv
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
