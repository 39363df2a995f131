"""One measuring process: set up a workload, time its passes, report.

Started by ``run.py`` (never directly by the user).  It prints ``@@ready``
the moment set-up is done, so the launcher can time set-up from process
start, and ends with one ``@@result <json>`` line.  Every other line it prints
is the human-readable report, which the launcher passes through.

With ``--trace 0`` it runs untraced passes until ``--seconds`` have elapsed
and reports the end-to-end metrics.  Before the first pass and after each
one it times the host-speed probe (``probe.py``) for about a tenth of the
pass it follows.  Each pass has the host factor of the probes on either
side of it, and ``wall_s``, the mean pass wall over the mean factor, reads
as host time at the reference host speed.  The
peak resident memory it reports leaves the probe out: the peak is restarted
after every probe (Linux ``/proc/self/clear_refs``).  With ``--handshake`` it prints
``@@pass`` after each pass and waits for a line on standard input before the
next, so the launcher can sample set-up time in between; the wait does not
count towards ``--seconds``.  With ``--trace 1`` it alternates
untraced and traced passes, so the tracing overhead is measured in the same
process, and reports the per-layer metrics of the traced pass whose wall is
the median.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import probe  # noqa: E402
from workloads import WORKLOADS, PassResult  # noqa: E402

SCRATCH_DIR = ".perfbench_tmp"
OUT_DIR = ".perfbench_out"
# Probe time after each untraced pass, as a share of that pass's wall.
PROBE_SHARE = 0.1


def load_metric_units() -> Tuple[Dict[str, str], Dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    )


def timed_pass(workload: Any, tracer: Optional[layers.Tracer]) -> Tuple[float, PassResult]:
    gc.collect()
    if tracer is None:
        start = time.perf_counter()
        result = workload.run_pass()
        return time.perf_counter() - start, result
    with layers.installed(tracer):
        start = time.perf_counter()
        result = workload.run_pass()
        wall = time.perf_counter() - start
    return wall, result


class Run:
    """Passes of one workload, checked against the first pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference: Optional[PassResult] = None

    def add(self, result: PassResult) -> None:
        self.attempted += result.attempted
        self.failed += result.failed
        if self.reference is None:
            self.reference = result
        elif (result.digest, dict(result.counters)) != (
            self.reference.digest,
            dict(self.reference.counters),
        ):
            # Same seed, same inputs: every pass must simulate the same
            # cycles and produce the same outputs.
            print("perfbench: pass differs from the first pass", file=sys.stderr)
            self.failed += result.attempted - result.failed


def probe_host(seconds: float) -> List[float]:
    """Probe samples taking about ``seconds`` in all, at least one."""
    samples = [probe.probe()]
    while sum(samples) < seconds:
        samples.append(probe.probe())
    return samples


def peak_rss_mb() -> float:
    """Peak resident memory since process start or the last restart."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def restart_rss_peak() -> None:
    """Restart the peak from the current resident memory."""
    Path("/proc/self/clear_refs").write_text("5")


def end_to_end(
    run: Run, walls: List[float], pass_factors: List[float], peak_rss: float
) -> Dict[str, float]:
    """The end-to-end metrics; ``wall_s`` is mean pass wall ÷ mean host factor.

    A ``table3-sweep`` run holds only three or four passes.  In ten-run
    sets on that workload, this ratio of means spread less between runs
    than the median of the passes' own ratios (0.12 against 0.18, and 0.05
    against 0.11, of the median); on the other two the estimators were
    within 0.03 of each other.
    """
    assert run.reference is not None
    assert len(walls) == len(pass_factors)
    counters = run.reference.counters
    wall = sum(walls) / sum(pass_factors)
    return {
        "wall_s": wall,
        "peak_rss_mb": peak_rss,
        "sim_minstr_per_s": (counters["simt.winstr"] + counters["riscv.instructions"])
        / 1e6
        / wall,
        "makespan_kcycles": counters["makespan_cycles"] / 1e3,
    }


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def per_layer(
    tracer: layers.Tracer, counters: Dict[str, float], wall: float, overhead: float
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    own, total, calls = tracer.self_s, tracer.total_s, tracer.calls
    c = counters
    winstr, launches = c["simt.winstr"], c["simt.launches"]
    misses = c["mem.read_misses"] + c["mem.write_misses"]
    return {
        "cl.parse_s": own["cl.parse"],
        "cl.analyze_s": own["cl.analyze"],
        "cl.verify_s": own["cl.verify"],
        "cl.codegen_ggpu_s": own["cl.codegen_ggpu"],
        "cl.codegen_riscv_s": own["cl.codegen_riscv"],
        "cl.ggpu_static_instrs": c["cl.ggpu_static_instrs"],
        "cl.riscv_static_instrs": c["cl.riscv_static_instrs"],
        "simt.decode_s": own["simt.decode"],
        "simt.decode_misses": calls["simt.decode"],
        "simt.decode_hits": launches - calls["simt.decode"],
        "simt.launch_self_s": own["simt.launch"],
        "simt.launches": launches,
        "simt.winstr": winstr,
        "simt.events": c["simt.events"],
        "simt.winstr_per_event": _ratio(winstr, c["simt.events"]),
        "simt.ns_per_winstr": _ratio(total["simt.launch"], winstr, 1e9),
        "simt.us_per_launch": _ratio(total["simt.launch"], launches, 1e6),
        "simt.sim_kcycles": c["simt.sim_cycles"] / 1e3,
        "simt.simd_eff": _ratio(c["simt.active_lanes"], c["simt.lane_slots"]),
        "simt.select_s": own["simt.select"],
        "simt.selects": calls["simt.select"],
        "mem.coalesce_s": own["mem.coalesce"],
        "mem.tag_probe_s": own["mem.tag_probe"],
        "mem.axi_s": own["mem.axi"],
        "mem.wavefront_accesses": calls["mem.coalesce"],
        "mem.line_accesses": c["mem.line_accesses"],
        "mem.read_misses": c["mem.read_misses"],
        "mem.write_misses": c["mem.write_misses"],
        "mem.write_backs": c["mem.write_backs"],
        "mem.axi_fills": c["mem.axi_fills"],
        "mem.hit_rate": 1.0 - _ratio(misses, c["mem.line_accesses"]) if c["mem.line_accesses"] else 0.0,
        "riscv.run_s": own["riscv.run"],
        "riscv.instructions": c["riscv.instructions"],
        "riscv.sim_kcycles": c["riscv.sim_cycles"] / 1e3,
        "riscv.ns_per_instr": _ratio(total["riscv.run"], c["riscv.instructions"], 1e9),
        "runtime.finish_self_s": own["runtime.finish"],
        "runtime.transfers_to_device": c["runtime.transfers_to_device"],
        "runtime.transfers_p2p": c["runtime.transfers_p2p"],
        "runtime.utilization": _ratio(c["runtime.utilization_sum"], c["runtime.cells"]),
        "sweep.self_s": own["sweep"],
        "sweep.journal_s": own["sweep.journal"],
        "sweep.journal_bytes": tracer.journal_bytes,
        "sweep.cells": c["sweep.cells"],
        "trace.overhead_s": overhead,
        "trace.wall_s": wall,
        "bench.self_s": wall - sum(own[layer] for layer in layers.LAYERS),
    }


def handshake() -> None:
    print("@@pass", flush=True)
    sys.stdin.readline()


def measure(
    workload: Any, seconds: float, trace: bool, between_passes: Optional[Callable[[], None]]
) -> Dict[str, Any]:
    run = Run()
    walls: List[float] = []
    # Set-up's peak, then the passes' peaks, never the probes'.
    peak_rss = peak_rss_mb()
    # Probe samples taken before the first pass and after each pass.
    probes: List[List[float]] = []
    if not trace:
        probes.append(probe_host(0.0))
        restart_rss_peak()
    traced: List[Tuple[float, layers.Tracer, PassResult]] = []
    if trace:
        # An untimed first pass lets lazy imports and first-use caches
        # settle, so the first untraced pass is not charged for them.  The
        # untraced run takes the median of enough passes not to need it.
        run.add(timed_pass(workload, None)[1])
    measured = 0.0
    while True:
        lap = time.perf_counter()
        wall, result = timed_pass(workload, None)
        walls.append(wall)
        run.add(result)
        if trace:
            tracer = layers.Tracer()
            wall, result = timed_pass(workload, tracer)
            traced.append((wall, tracer, result))
            run.add(result)
        else:
            peak_rss = max(peak_rss, peak_rss_mb())
            probes.append(probe_host(PROBE_SHARE * wall))
            restart_rss_peak()
        measured += time.perf_counter() - lap
        if measured >= seconds:
            break
        if between_passes is not None:
            between_passes()
    assert run.reference is not None
    if trace:
        ordered = sorted(traced, key=lambda item: item[0])
        wall, tracer, result = ordered[(len(ordered) - 1) // 2]
        # Each traced pass runs right after an untraced one; pairing them
        # keeps slow drifts of the host out of the difference.
        overhead = statistics.median(t[0] - u for t, u in zip(traced, walls))
        metrics = per_layer(tracer, result.counters, wall, overhead)
        write_trace(workload.name, [item[1] for item in traced])
        pass_factors: List[float] = []
        host_factor = 1.0
    else:
        # A pass's host factor is from the probes just before and after it;
        # the run's, for set-up time, is from all of them.
        pass_factors = [
            statistics.median(before + after) / probe.REFERENCE_S
            for before, after in zip(probes, probes[1:])
        ]
        host_factor = statistics.median(sum(probes, [])) / probe.REFERENCE_S
        metrics = end_to_end(run, walls, pass_factors, peak_rss)
    return {
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "walls": walls,
        "probes": sum(probes, []),
        "pass_factors": pass_factors,
        "host_factor": host_factor,
        "digest": run.reference.digest,
        "paper_scaling_err": run.reference.paper_scaling_err,
        "report": run.reference.report,
    }


def write_trace(workload: str, tracers: List[layers.Tracer]) -> None:
    """Write the spans kept in memory during the traced passes."""
    spans = [
        (index, *span) for index, tracer in enumerate(tracers) for span in tracer.spans
    ]
    out = ROOT / OUT_DIR
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}.json"
    path.write_text(json.dumps(layers.chrome_trace(spans)))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--handshake", action="store_true")
    args = parser.parse_args(argv)

    scratch = ROOT / SCRATCH_DIR / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        print("@@ready", flush=True)
        if args.setup_only:
            return 0
        outcome = measure(
            workload, args.seconds, bool(args.trace), handshake if args.handshake else None
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    end_units, layer_units = load_metric_units()
    units = layer_units if args.trace else end_units
    outcome["units"] = {name: units[name] for name in outcome["metrics"]}
    missing = sorted(set(units) - set(outcome["metrics"]) - {"setup_s"})
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print("@@result " + json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
