"""The benchmark's own checks: deterministic counters, seeds, output contract.

Run from the repository root (about two minutes)::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402
import probe  # noqa: E402
import worker  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, PassResult  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _wrapper_counts(tracer: layers.Tracer) -> dict:
    return {"calls": dict(tracer.calls), "journal_bytes": tracer.journal_bytes}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_and_tracing_changes_nothing(name, tmp_path):
    workload = WORKLOADS[name](DEFAULT_SEED, tmp_path)
    untraced = workload.run_pass()
    tracers, traced = [], []
    for _ in range(2):
        tracer = layers.Tracer()
        wall, result = worker.timed_pass(workload, tracer)
        tracers.append(tracer)
        traced.append((wall, result))

    assert untraced.failed == 0 and untraced.attempted > 0
    for wall, result in traced:
        assert result.failed == 0
        assert result.digest == untraced.digest
        assert dict(result.counters) == dict(untraced.counters)
        assert result.paper_scaling_err == untraced.paper_scaling_err
    # Counts taken by the wrappers repeat exactly between traced passes.
    assert _wrapper_counts(tracers[0]) == _wrapper_counts(tracers[1])
    # Wrappers are removed after a traced pass.
    from repro.simt.scheduler import WavefrontScheduler

    assert not hasattr(WavefrontScheduler.select, "__wrapped__")

    wall, result = traced[0]
    metrics = worker.per_layer(tracers[0], result.counters, wall, overhead=0.0)
    assert set(metrics) == {metric["name"] for metric in BENCHMARK["per_layer"]}
    layer_self = sum(tracers[0].self_s[layer] for layer in layers.LAYERS)
    assert all(tracers[0].self_s[layer] >= 0.0 for layer in layers.LAYERS)
    assert layer_self + metrics["bench.self_s"] == pytest.approx(wall, abs=1e-9)
    assert metrics["bench.self_s"] >= 0.0
    if name != "cl-riscv":
        assert metrics["simt.launches"] == tracers[0].calls["simt.launch"]
    else:
        # The control workload never simulates SIMT.
        assert tracers[0].calls["simt.launch"] == 0
        assert metrics["cl.parse_s"] > 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_second_seed_passes(name, tmp_path):
    first = WORKLOADS[name](DEFAULT_SEED, tmp_path).run_pass()
    second = WORKLOADS[name](DEFAULT_SEED + 1, tmp_path).run_pass()
    assert second.attempted == first.attempted
    assert second.failed == 0
    # run_table3 returns no outputs, so the table3-sweep digest covers
    # cycles and cache/AXI stats only, and those do not depend on the data.
    if name != "table3-sweep":
        assert second.digest != first.digest


def test_host_times_are_divided_by_the_host_factor():
    run = worker.Run()
    run.add(
        PassResult(
            attempted=1,
            counters={"simt.winstr": 2e6, "riscv.instructions": 1e6, "makespan_cycles": 5e3},
        )
    )
    metrics = worker.end_to_end(run, [1.0, 4.0, 3.0], [1.0, 2.0, 1.0], peak_rss=9.0)
    assert metrics["wall_s"] == 2.0
    assert metrics["peak_rss_mb"] == 9.0
    assert metrics["sim_minstr_per_s"] == 1.5
    assert metrics["makespan_kcycles"] == 5.0
    assert worker.probe_host(0.0)[0] > 0.0
    assert sum(worker.probe_host(3 * probe.REFERENCE_S)) >= 3 * probe.REFERENCE_S


def test_rss_peak_leaves_the_probe_out():
    worker.restart_rss_peak()
    before = worker.peak_rss_mb()
    worker.probe_host(0.0)
    assert worker.peak_rss_mb() > before + 60.0  # two 40 MB arrays
    worker.restart_rss_peak()
    assert worker.peak_rss_mb() < before + 20.0


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_every_metric(trace):
    completed = _run_cli(
        ROOT, "--workload", "cl-riscv", "--seed", "7", "--seconds", "8", "--trace", str(trace)
    )
    assert completed.returncode == 0, completed.stderr
    if not trace:
        # Several passes, so set-up probes ran between them; nine samples.
        walls = completed.stdout.split("pass walls (s): ")[1].splitlines()[0].split()
        setups = completed.stdout.split("set-up samples (s): ")[1].splitlines()[0].split()
        assert len(walls) >= 2 and len(setups) == 9
        # One probe before the first pass, at least one after each.
        probe_line = completed.stdout.split("host-speed probe: median ")[1].split()
        probes = int(probe_line[3].rstrip(","))
        assert probes >= len(walls) + 1
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected
    }
    assert "sim_digest " in completed.stdout and "fail_frac 0 " in completed.stdout


def test_cli_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    completed = _run_cli(tmp_path, "--workload", "cl-riscv", "--seed", "1", "--seconds", "1")
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
