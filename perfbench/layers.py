"""Layer spans, recorded from outside the program.

The traced run wraps the public entry point of every layer listed in
``ENTRY_POINTS`` for the duration of one pass and restores the originals
afterwards.  Each wrapped call is a span; a layer's *self time* is its spans'
duration minus the part covered by spans of other layers nested inside them.

Nothing under ``src/`` knows about this: the wrappers are installed on the
classes and modules the program already exposes, so an untraced pass runs
exactly the program's own code.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# (layer, module, attribute path).  A dotted attribute path names a method
# on a class; a plain name is a module-level function, patched in the module
# that *calls* it (``repro.simt.gpu`` imports ``predecode_program`` by name,
# ``repro.cl.compiler`` imports the front-end stages by name).
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("sweep", "repro.eval.benchmarks", "run_table3"),
    ("sweep.journal", "repro.runtime.checkpoint", "SweepJournal.record"),
    ("runtime.finish", "repro.runtime.multidevice", "MultiDeviceQueue.finish"),
    ("simt.launch", "repro.simt.gpu", "GGPUSimulator.launch"),
    ("simt.decode", "repro.simt.gpu", "predecode_program"),
    ("simt.select", "repro.simt.scheduler", "WavefrontScheduler.select"),
    ("mem.coalesce", "repro.simt.cache", "DataCache.coalesce_lines"),
    ("mem.tag_probe", "repro.simt.cache", "DataCache.access_sorted_lines"),
    ("mem.axi", "repro.simt.axi", "GlobalMemoryController.miss_burst"),
    ("mem.axi", "repro.simt.axi", "GlobalMemoryController.write_back_burst"),
    ("riscv.run", "repro.riscv.cpu", "RiscvCpu.run"),
    ("cl.parse", "repro.cl.compiler", "parse"),
    ("cl.analyze", "repro.cl.compiler", "analyze"),
    ("cl.verify", "repro.analysis.clcheck", "check_unit"),
    ("cl.codegen_ggpu", "repro.cl.compiler", "generate_ggpu_kernel"),
    ("cl.codegen_riscv", "repro.cl.compiler", "generate_riscv_case"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in ENTRY_POINTS))

# Layers called hundreds of thousands of times per pass are aggregated only;
# every other layer also keeps each span for the trace file.
_AGGREGATED = frozenset({"simt.select", "mem.coalesce", "mem.tag_probe", "mem.axi"})


class Tracer:
    """In-memory span recorder: per-layer self/total time and call counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.journal_bytes = 0
        # (layer, start, end, parent layer or None), in completion order.
        self.spans: List[Tuple[str, float, float, Optional[str]]] = []
        self._stack: List[List[Any]] = []  # [layer, child seconds]

    def wrap(self, layer: str, function: Callable) -> Callable:
        stack = self._stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        spans = None if layer in _AGGREGATED else self.spans
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[1]
                total_s[layer] += duration
                calls[layer] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                if spans is not None:
                    spans.append((layer, start, end, parent[0] if parent else None))

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def wrap_journal_record(self, function: Callable) -> Callable:
        """``SweepJournal.record`` rewrites the whole file; count its bytes."""
        traced = self.wrap("sweep.journal", function)

        def record(journal: Any, *args: Any, **kwargs: Any) -> Any:
            result = traced(journal, *args, **kwargs)
            self.journal_bytes += os.path.getsize(journal.path)
            return result

        return record


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Every entry point wrapped by ``tracer`` inside the ``with`` block."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for layer, module_name, path in ENTRY_POINTS:
            owner, name = _resolve(module_name, path)
            original = owner.__dict__[name]
            if layer == "sweep.journal":
                wrapper = tracer.wrap_journal_record(original)
            else:
                wrapper = tracer.wrap(layer, original)
            saved.append((owner, name, original))
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def chrome_trace(spans: List[Tuple[int, str, float, float, Optional[str]]]) -> Dict[str, Any]:
    """Spans as Chrome Trace Event JSON (complete events, microseconds)."""
    origin = min((start for _, _, start, _, _ in spans), default=0.0)
    return {
        "traceEvents": [
            {
                "name": layer,
                "cat": layer.split(".")[0],
                "ph": "X",
                "pid": 1,
                "tid": pass_index,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"parent": parent},
            }
            for pass_index, layer, start, end, parent in spans
        ],
        "displayTimeUnit": "ms",
    }
