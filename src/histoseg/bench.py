"""Timing harness for full merge runs over synthetic histograms."""

import statistics
import time

import numpy as np

from .engine import Histogram, run_dendrogram, thresholds_at


def synthetic_histogram(bins: int) -> Histogram:
    """Dense histogram: `bins` occupied levels with seeded counts in [1, 256]."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    rng = np.random.default_rng([0, bins])
    counts = rng.integers(1, 257, size=bins)
    return Histogram(tuple(counts.tolist()))


def run_benchmark(bins_list, repeat: int = 5) -> dict:
    """Time full dendrogram runs per histogram size.

    Returns one row per size with the median wall clock over `repeat`
    runs plus the 2-class thresholds as a determinism witness, and the
    slope of a log-log least-squares fit across sizes (None unless there
    are at least two distinct sizes, as a line through one x is no fit).
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    rows = []
    for bins in bins_list:
        h = synthetic_histogram(bins)
        times = []
        trace = None
        for _ in range(repeat):
            t0 = time.perf_counter()
            trace = run_dendrogram(h)
            times.append(time.perf_counter() - t0)
        k0 = len(trace.boundary_gray) + 1
        cuts = thresholds_at(trace, 2).cuts if k0 >= 2 else ()
        rows.append(
            {
                "bins": bins,
                "median_ms": statistics.median(times) * 1e3,
                "thresholds_2level": list(cuts),
            }
        )
    slope = None
    if len({row["bins"] for row in rows}) >= 2:
        xs = np.log([row["bins"] for row in rows])
        ys = np.log([row["median_ms"] for row in rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return {"repeat": repeat, "rows": rows, "slope": slope}
