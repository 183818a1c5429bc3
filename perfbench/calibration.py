"""A fixed unit of CPU work that tells how fast the machine runs right now.

On a shared host the speed of the CPU drifts, by a quarter within seconds
and by a fifth or more for minutes at a time, and the wall time of every
histoseg command drifts with it.  Two runs of the same code a few minutes
apart then differ by more than any change worth detecting.  So the
benchmark times this unit right after each command and rescales the
command's wall time to a reference speed, the one at which the unit takes
REFERENCE_S.  A rescaled time reads as the wall time on a machine running
at that speed; it moves only when the program does more or less work, not
when the host gets busier.

The unit mixes the two kinds of work histoseg does: interpreted Python (the
ASCII codec, the engine, the CLI) and NumPy passes over arrays larger than
the L2 cache (the per-pixel metrics).  Its code never changes with the
program, so the ratio compares two commits fairly.
"""

import statistics
import time

import numpy as np

# What the unit takes, in seconds, at the reference speed: about its time on
# a 2-vCPU Xeon VM when the host is quiet.
REFERENCE_S = 3.0e-3

_ARRAY = np.random.default_rng(0).random(200_000)  # 1.6 MB of float64


def _unit() -> float:
    s = 0
    for i in range(20_000):
        s += i * i % 7
    for _ in range(4):
        s += float((_ARRAY * 1.5 + 2.0).sum())
    return s


def unit_seconds() -> float:
    """Wall time of one calibration unit."""
    t0 = time.perf_counter()
    _unit()
    return time.perf_counter() - t0


def speed_seconds(repeats: int = 9) -> float:
    """Median time of several units run back to back."""
    return statistics.median(unit_seconds() for _ in range(repeats))


def rescale(seconds: float, unit_s: float) -> float:
    """A wall time measured while the unit took unit_s, at the reference speed."""
    return seconds * REFERENCE_S / unit_s
