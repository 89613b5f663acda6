"""A fixed piece of work that measures how fast the machine runs right now.

The benchmark's machine is shared and its speed drifts by up to 1.5x within
minutes, for every kind of work at once (README.md).  Before each operation
the benchmark times this reference, which does not call the program, and
reports timings in *reference seconds*: wall seconds multiplied by
``(NOMINAL_S / reference time) ** EXPONENT``, with the reference time
averaged around the timed work.  A program that gets faster moves the
reported time by the same ratio as its wall time.

The reference mixes the three kinds of work the program does: an
interpreted loop over small NumPy vectors (kernel assembly and the
diagnostics), dictionary and ``bisect`` look-ups (the sampler), and plain
integer arithmetic.
"""

from __future__ import annotations

import time
from bisect import bisect_left

import numpy as np

#: Typical reference time on the machine where the benchmark was written.
NOMINAL_S = 0.028
#: The program's work slows by about the square root of the reference's
#: slowdown (1.3x against 1.8x when the machine is slow), so timings are
#: scaled by this power of the reference's speed-up (README.md).
EXPONENT = 0.5

_N = 12
_W = np.full((_N, _N), 1.0 / _N)
_MU = np.full(_N, 1.0 / _N)
_SHIFTS = np.arange(_N)
_CUM = [0.1 * k for k in range(1, 11)]


def _vectors() -> float:
    total = 0.0
    for mask in range(1, 200):
        x = ((mask >> _SHIFTS) & 1).astype(float)
        sel = _MU * np.where(x > 0.0, 2.0, 1.0) / (1.0 + x @ _MU)
        total += float(((sel * x) @ _W).sum())
    return total


def _lookups() -> int:
    table: dict[int, list] = {}
    acc = 0
    for i in range(30000):
        key = (i * 2654435761) & 1023
        entry = table.get(key)
        if entry is None:
            entry = table[key] = [key]
        acc += bisect_left(_CUM, (i % 97) / 97.0) + entry[0]
    return acc


def _arithmetic() -> int:
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    return acc


def measure() -> float:
    """Seconds taken by the reference work, now."""
    start = time.perf_counter()
    _vectors()
    _lookups()
    _arithmetic()
    return time.perf_counter() - start


def sample() -> list[float]:
    """Three reference times in a row."""
    return [measure() for _ in range(3)]
