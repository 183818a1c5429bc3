"""Shared generators and assertion helpers for the test suite."""

import io
import random
from bisect import bisect_left
from fractions import Fraction

import numpy as np

from histoseg.engine import Histogram, ThresholdSet
from histoseg.metrics import GrayImage
from histoseg.pgm import write_pgm


def rel_err(value: float, reference: float) -> float:
    """Relative error against a reference, safe around zero."""
    if value == reference:
        return 0.0
    return abs(value - reference) / max(abs(reference), abs(value), 1e-30)


def sparse_histogram(rng: random.Random, max_bins: int = 12, max_pixels: int = 40,
                     g: int = 256) -> Histogram:
    """Random histogram with at most max_bins occupied levels and N <= max_pixels."""
    k = rng.randint(1, max_bins)
    levels = rng.sample(range(g), k)
    counts = [0] * g
    for lvl in levels:
        counts[lvl] = 1
    for _ in range(rng.randint(0, max_pixels - k)):
        counts[rng.choice(levels)] += 1
    return Histogram(tuple(counts))


def dense_histogram(rng: random.Random, bins: int = 256, max_count: int = 40) -> Histogram:
    """Histogram with every one of `bins` levels occupied."""
    return Histogram(tuple(rng.randint(1, max_count) for _ in range(bins)))


def hist_from(bins: dict, g: int = 256) -> Histogram:
    """Histogram from a {gray: count} mapping, zero elsewhere."""
    counts = [0] * g
    for gray, count in bins.items():
        counts[gray] = count
    return Histogram(tuple(counts))


def pgm_bytes(img: GrayImage, fmt: str = "P5") -> bytes:
    """The PGM file write_pgm writes for img, as bytes."""
    fh = io.BytesIO()
    write_pgm(img, fh, fmt)
    return fh.getvalue()


def small_image(rng: np.random.Generator, side: int = 12, min_distinct: int = 4,
                max_distinct: int = 16) -> GrayImage:
    """Random image drawing pixels from a small palette of gray levels."""
    k = int(rng.integers(min_distinct, max_distinct + 1))
    palette = rng.choice(256, size=k, replace=False)
    px = rng.choice(palette, size=(side, side))
    # make sure every palette level appears so the distinct count is k
    flat = px.ravel()
    flat[rng.choice(flat.size, size=k, replace=False)] = palette
    return GrayImage(pixels=px.astype(np.uint8))


def standard_image(size: int = 512, seed: int = 7) -> GrayImage:
    """Deterministic stand-in for a natural 8-bit test photograph.

    A smooth sinusoid field plus mild noise gives a broad, bumpy
    histogram similar to the classic 512x512 test images.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size] / size
    base = (
        128
        + 58 * np.sin(2 * np.pi * (1.3 * xx + 0.4 * yy))
        + 36 * np.cos(2 * np.pi * (2.1 * yy + 1.7 * xx * xx))
    )
    px = np.clip(np.rint(base + rng.normal(0, 8, (size, size))), 0, 255)
    return GrayImage(pixels=px.astype(np.uint8))


def exact_variances(h: Histogram, t: ThresholdSet):
    """float(Fraction) of the paper's v = W/(N - M), w = (T - W)/(M - 1) and q = v/w.

    W, the within-class sum of squares of t's M classes, and T, the total,
    are summed as Fractions from the raw bins.  v is 0.0 when N <= M; w and
    q are None for one class, and q is None when w is 0.
    """
    graded = list(enumerate(h.counts))

    def scatter(bins):  # (n, sum of squares about the bins' mean)
        n = sum(c for _, c in bins)
        s1 = sum(c * g for g, c in bins)
        s2 = sum(c * g * g for g, c in bins)
        return n, Fraction(n * s2 - s1 * s1, n) if n else Fraction(0)

    within, lo = Fraction(0), 0
    for hi in t.cuts + (t.top,):
        within += scatter(graded[lo : hi + 1])[1]
        lo = hi + 1
    n, total = scatter(graded)
    m = t.M
    v = within / (n - m) if n > m else Fraction(0)
    if m < 2:
        return float(v), None, None
    w = (total - within) / (m - 1)
    return float(v), float(w), float(v / w) if w else None


def merge_order_families() -> dict[str, list[Histogram]]:
    """Seeded sparse, dense and tie-prone histograms for merge-order checks."""
    rng = random.Random(113)
    sparse = [sparse_histogram(rng, max_bins=40, max_pixels=200) for _ in range(200)]
    dense = [dense_histogram(rng, bins=256, max_count=c) for c in (2, 40, 5000)]
    tie_prone = []
    for _ in range(300):
        # 4-20 levels below 64 with counts from {1, 2, 3, 6}
        levels = rng.sample(range(64), rng.randint(4, 20))
        tie_prone.append(hist_from({g: rng.choice((1, 2, 3, 6)) for g in levels}))
    return {"sparse": sparse, "dense": dense, "tie-prone": tie_prone}


def left_indices(records) -> list[int]:
    """The index of each merge's left class among the classes it was made from.

    That is the rank of the record's boundary among the boundaries merged
    later, which are the cuts still standing when it was merged.
    """
    later: list[int] = []
    ranks = []
    for rec in reversed(records):
        pos = bisect_left(later, rec.boundary_gray)
        later.insert(pos, rec.boundary_gray)
        ranks.append(pos)
    return ranks[::-1]


def replay_thresholds(trace, levels):
    """Reference for thresholds_at_levels: re-apply every merge in turn.

    Walks down once from one class per occupied gray level of the trace's
    histogram, merging the class whose top gray is each merge's boundary
    into its right neighbour, and takes each requested partition as it
    passes.  It reads nothing else of the trace.
    """
    levels = list(levels)
    h = trace.histogram
    ghis = list(h.occupied)
    ns = [h.counts[g] for g in ghis]
    sums = [n * g for n, g in zip(ns, ghis)]
    found = {}
    bounds = iter(trace.boundary_gray)
    for m in sorted(set(levels), reverse=True):
        while len(ns) > m:
            l = ghis.index(next(bounds))
            ns[l] += ns[l + 1]
            sums[l] += sums[l + 1]
            ghis[l] = ghis[l + 1]
            del ns[l + 1], sums[l + 1], ghis[l + 1]
        found[m] = ThresholdSet(
            cuts=tuple(ghis[:-1]),
            means=tuple(s / n for s, n in zip(sums, ns)),
            top=ghis[-1],
        )
    return [found[m] for m in levels]
