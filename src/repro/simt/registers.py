"""Per-wavefront register file.

Each work-item owns ``num_registers`` 32-bit general-purpose registers.  In
the hardware this is the banked SRAM register file inside each CU (one of
the macros GPUPlanner splits to raise the clock frequency); here it is a
Python list of int64 lane vectors, one per register, with masked writes so
inactive lanes keep their values across divergent control flow.

A write rebinds the register's entry and never mutates a row, so one
vector may back several registers (the zero row, a decoded ``LI`` constant,
an id vector); such shared vectors are read-only, so a stray in-place write
raises instead of changing another register.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

WORD_MASK = 0xFFFFFFFF


def read_only(values: np.ndarray) -> np.ndarray:
    """Mark a lane vector read-only (it may back several registers) and return it."""
    values.flags.writeable = False
    return values


class WavefrontRegisterFile:
    """Registers of all lanes of one wavefront.

    Register 0 is hard-wired to zero: writes to it are ignored, reads always
    return zero, matching the ISA definition.
    """

    def __init__(self, num_registers: int, wavefront_size: int) -> None:
        if num_registers < 1 or wavefront_size < 1:
            raise SimulationError("register file dimensions must be positive")
        self.num_registers = num_registers
        self.wavefront_size = wavefront_size
        zero = read_only(np.zeros(wavefront_size, dtype=np.int64))
        self._values = [zero] * num_registers

    def read(self, index: int) -> np.ndarray:
        """Read a register for all lanes (unsigned 32-bit values in int64)."""
        self._check(index)
        return self._values[index].copy()

    def write(self, index: int, values: np.ndarray, mask: np.ndarray) -> None:
        """Write a register for the lanes selected by ``mask``."""
        self._check(index)
        if index == 0:
            return
        values = np.asarray(values, dtype=np.int64) & WORD_MASK
        self._values[index] = np.where(mask, values, self._values[index])

    def write_all_lanes(self, index: int, values: np.ndarray) -> None:
        """Write a register unconditionally (used to seed work-item ids)."""
        self._check(index)
        if index == 0:
            return
        values = np.asarray(values, dtype=np.int64) & WORD_MASK
        self._values[index] = np.broadcast_to(values, (self.wavefront_size,))

    def set_row(self, index: int, values: np.ndarray) -> None:
        """Unconditional write of an already-masked int64 lane vector.

        The fast-path twin of :meth:`write_all_lanes`: every value produced
        inside the issue loop (PE lane arithmetic, memory loads, broadcast
        constants, work-item ids) is already wrapped to 32 bits, so the
        vector is kept by reference, unmasked and unchecked: it must be
        ``wavefront_size`` long and never be mutated afterwards.  Callers
        owning unmasked or mutable data must use :meth:`write_all_lanes`.
        """
        self._check(index)
        if index == 0:
            return
        self._values[index] = values

    def merge_row(self, index: int, values: np.ndarray, mask: np.ndarray) -> None:
        """Masked write of an already-masked int64 lane vector (see set_row)."""
        self._check(index)
        if index == 0:
            return
        self._values[index] = np.where(mask, values, self._values[index])

    def snapshot(self) -> np.ndarray:
        """Copy of the whole register state, one row per register (used by tests)."""
        return np.array(self._values)

    def _check(self, index: int) -> None:
        if not 0 <= index < self.num_registers:
            raise SimulationError(f"register index out of range: {index}")
