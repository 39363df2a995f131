"""A fixed host-speed probe, so host times can be reported at one speed.

The benchmark's host shares its CPUs with other tenants, and its speed
drifts by up to ~2x over minutes.  The same pass of the same inputs took
1.4 s in one quiet phase and 3.3 s in a loaded one, for example.  A run's
median pass cannot hide a phase that lasts longer than the run.  So the
measuring process also times this probe between its passes, and divides
its host times by host factors, median probe time ÷ ``REFERENCE_S`` (see
``worker.py``): they read as seconds at the reference host speed.

The probe mixes three kinds of work: a register-machine dispatch loop (like
the RISC-V ISS), numpy calls on 64-lane vectors (like the SIMT lanes), and
copies between arrays too large for any cache.  Over 43 passes of each
workload in varying host load, the sum of the three was among the mixes
that tracked all three workloads best: the memory-bound copy alone tracked
``table3-sweep`` and ``dag-multidevice`` (slope ~0.9 of log pass time on
log probe time), the interpreter loops ``cl-riscv``.  It imports nothing from the program, so a
change to the program never moves it.
"""

from __future__ import annotations

import time

import numpy as np

# A fixed scale: about the probe's time on a quiet 2-vCPU Intel Xeon KVM
# guest.  Only ratios to it are used, so a quiet host reports about its raw
# times.
REFERENCE_S = 0.12

_LANES = 64
_STREAM_WORDS = 5_000_000  # float64: 40 MB per array
_MASK = 0xFFFFFFFF


def _dispatch(steps: int) -> int:
    """A toy register machine: decode a tuple, dispatch on its opcode."""
    program = (
        ("load", 4, 1, 0),
        ("mul", 5, 4, 4),
        ("add", 2, 2, 5),
        ("addi", 1, 1, 3),
        ("and", 1, 1, 0xFFF),
        ("store", 2, 1, 1),
        ("bnez", 0, 3, 0),
    )
    regs = [0] * 8
    memory = list(range(4096))
    regs[3] = steps
    pc = 0
    while True:
        op, rd, rs, imm = program[pc]
        if op == "load":
            regs[rd] = memory[(regs[rs] + imm) & 0xFFF]
        elif op == "mul":
            regs[rd] = (regs[rs] * regs[imm]) & _MASK
        elif op == "add":
            regs[rd] = (regs[rs] + regs[imm]) & _MASK
        elif op == "addi":
            regs[rd] = regs[rs] + imm
        elif op == "and":
            regs[rd] = regs[rs] & imm
        elif op == "store":
            memory[(regs[rs] + imm) & 0xFFF] = regs[rd]
        else:
            regs[3] -= 1
            if not regs[3]:
                return regs[2]
            pc = -1
        pc += 1


def _lanes(rounds: int) -> int:
    """numpy calls on one wavefront's 64 lanes, call overhead dominated."""
    a = np.arange(_LANES, dtype=np.int64)
    b = np.full(_LANES, 7, dtype=np.int64)
    mask = (a & 1).astype(bool)
    for _ in range(rounds):
        c = (a * b + a) & _MASK
        a = np.where(mask, c, a)
        b = np.minimum(b + 1, 1 << 20)
    return int(a.sum())


def _stream(copies: int) -> float:
    """Copies between two arrays too large for any cache, memory-bound.

    Each array is larger than glibc's largest mmap threshold (32 MB), so it
    is mapped afresh and unmapped when freed: resident memory returns to
    where it was, and ``worker.py`` restarts its peak after every probe.
    """
    source = np.ones(_STREAM_WORDS)
    target = np.empty_like(source)
    for _ in range(copies):
        np.copyto(target, source)
    return float(target[-1])


def probe() -> float:
    """Host seconds for one fixed unit of work (about ``REFERENCE_S``)."""
    start = time.perf_counter()
    _dispatch(65_000)
    _lanes(14_000)
    _stream(6)
    return time.perf_counter() - start
