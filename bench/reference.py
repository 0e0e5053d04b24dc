"""Reference work that measures how fast this machine runs right now.

The shared 2-core machine the benchmark was built on runs up to 2x slower
for seconds to minutes at a time, and raw wall times of back-to-back runs
spread by 0.26-0.39 of their median between quartiles.  The benchmark
therefore reports every time at a reference speed: it times this fixed
work before and after each round and scales the round's times by
NOMINAL_S over the mean of the two.

The work is a mix of the kinds chemovir does, because their slow-downs
differ: pure-Python bytecode, numpy calls on small arrays (explicit-1d,
sweep-1d), numpy calls on medium arrays (simulate-3d) and float
formatting (snapshots).  Its time is the geometric mean of the four
parts.  Changing the program cannot change this work, so a change in the
program's speed shows in full.
"""

from __future__ import annotations

import math
import time

import numpy as np

# about the reference work's median time on the machine the benchmark was
# built on; it only sets the scale of every reported time
NOMINAL_S = 0.030

_SMALL = [np.sin(np.arange(384) + k) ** 2 for k in range(3)]
_MEDIUM = [np.sin(np.arange(30720) + k) ** 2 for k in range(3)]
_FLOATS = np.sin(np.arange(3000)) ** 2


def _python():
    total = 0
    for i in range(500_000):
        total += i * i % 7


def _small_arrays():
    a, b, c = _SMALL
    for _ in range(3000):
        t = a * b
        t += c
        np.where(t > t.min(), a, b)
        float(t.sum())


def _medium_arrays():
    a, b, c = _MEDIUM
    for _ in range(400):
        t = a * b
        t += c
        float(t.sum())


def _formatting():
    for _ in range(4):
        "\n".join(f"{x:.17g}" for x in _FLOATS)


def seconds() -> float:
    """Geometric mean of the times of the four parts of the reference work."""
    logs = []
    for part in (_python, _small_arrays, _medium_arrays, _formatting):
        start = time.perf_counter()
        part()
        logs.append(math.log(time.perf_counter() - start))
    return math.exp(sum(logs) / len(logs))


def at_reference_speed(measured: float, before: float, after: float) -> float:
    """``measured`` seconds scaled to the speed at which the work takes NOMINAL_S.

    ``before`` and ``after`` are the reference times around the measurement.
    """
    return measured * NOMINAL_S / ((before + after) / 2.0)
