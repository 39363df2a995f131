"""G-GPU reproduction benchmark: one command, three workloads, every metric.

Usage, from the repository root::

    python3 perfbench/run.py --workload table3-sweep --seed 2022 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``perfbench/README.md``).  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Set-up time is measured from process start to the first timed pass, in
fresh processes started between the measuring process's passes, so the
samples span the whole run as the passes do.  The reported ``setup_s`` is
their median.

Host times are reported at the reference host speed (see ``probe.py``):
``wall_s`` is the mean pass wall over the mean host factor of the probes
taken on either side of each pass, and ``setup_s`` is divided by the run's
``host_factor``, the measuring process's median probe time over the probe's
reference time.  The raw figures are printed above the result.

The command exits non-zero without printing a result when the program's
sources are missing or any process fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
WORKLOAD_NAMES = [
    workload["name"]
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
]
DEFAULT_SEED = 2022  # repro.eval.benchmarks.DEFAULT_SEED
# Set-up is sampled by this many set-up-only processes plus the measuring one.
# The host's speed drifts in phases of tens of seconds, so the samples are
# spread over the run instead of bunched at one end of it.
SETUP_WORKERS = 8
# Every run must end within 180 s; leave room for process teardown.
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    """A worker process failed, timed out, or reported no result."""


def run_worker(
    args: List[str], deadline: float, between_passes: Optional[Callable[[], None]] = None
) -> Tuple[float, Optional[Dict]]:
    """Run one worker; returns (seconds from spawn to ready, result or None).

    With ``between_passes``, the worker waits after each pass until that
    callback has returned.
    """
    if between_passes is not None:
        args = [*args, "--handshake"]
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        stdin=subprocess.PIPE if between_passes is not None else None,
        stdout=subprocess.PIPE,
        text=True,
    )
    # A worker that runs past the deadline is killed; its output then ends.
    timer = threading.Timer(max(0.0, deadline - start), process.kill)
    timer.start()
    ready: Optional[float] = None
    result: Optional[Dict] = None
    try:
        assert process.stdout is not None
        for line in process.stdout:
            if line.startswith("@@ready"):
                ready = time.perf_counter() - start
            elif line.startswith("@@pass"):
                assert between_passes is not None and process.stdin is not None
                between_passes()
                process.stdin.write("\n")
                process.stdin.flush()
            elif line.startswith("@@result "):
                result = json.loads(line[len("@@result "):])
            else:
                sys.stdout.write(line)
    finally:
        timer.cancel()
        if process.poll() is None:
            process.kill()
        code = process.wait()
    if code != 0 or ready is None:
        raise WorkerError(f"worker {' '.join(args)} exited with code {code}")
    return ready, result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup_samples: List[float] = []
        setup_workers = 0 if args.trace else SETUP_WORKERS
        spacing = max(args.seconds, 1.0) / SETUP_WORKERS
        start = time.perf_counter()

        def sample_setup(count: int) -> None:
            """Start set-up-only workers until ``count`` samples are taken."""
            while len(setup_samples) < min(count, setup_workers):
                setup_samples.append(run_worker([*common, "--setup-only"], deadline)[0])

        def between_passes() -> None:
            # One set-up sample per ``spacing`` seconds of the run so far.
            sample_setup(int((time.perf_counter() - start) / spacing))

        ready, result = run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline,
            between_passes if setup_workers else None,
        )
        sample_setup(setup_workers)
        setup_samples.append(ready)
    except WorkerError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if result is None:
        print("perfbench: the worker reported no result", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    units = result["units"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_samples) / result["host_factor"]
        units["setup_s"] = "s"
    attempted, failed = result["attempted"], result["failed"]
    walls = " ".join(f"{wall:.4f}" for wall in result["walls"])
    print(f"workload {args.workload} seed {args.seed} untraced pass walls (s): {walls}")
    if not args.trace:
        setups = " ".join(f"{sample:.4f}" for sample in setup_samples)
        print(f"set-up samples (s): {setups}")
        factors = " ".join(f"{factor:.4f}" for factor in result["pass_factors"])
        print(f"pass host factors: {factors}")
        probes = result["probes"]
        print(
            f"host-speed probe: median {statistics.median(probes):.4f} s of "
            f"{len(probes)}, host_factor {result['host_factor']:.4f}; raw wall_s "
            f"{statistics.median(result['walls']):.4f} s, raw setup_s "
            f"{statistics.median(setup_samples):.4f} s"
        )
    for line in result["report"]:
        print(line)
    print(f"sim_digest {result['digest']}")
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    if args.workload == "table3-sweep":
        print(f"paper_scaling_err {result['paper_scaling_err']:.6g} ln-ratio")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
