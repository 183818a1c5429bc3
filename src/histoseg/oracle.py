"""Brute-force reference implementations for cross-checking the engine.

Everything here recomputes from the raw histogram with the plain
definitions, sharing no state with the engine's incremental updates, so
the two routes stay independent checks of each other.
"""

import itertools
import math

from .engine import (
    EmptyHistogram,
    Histogram,
    InvalidLevel,
    ThresholdSet,
    check_level,
    threshold_set,
)
from .metrics import cut_set_errors

MAX_ORACLE_BINS = 64
MAX_ORACLE_PIXELS = 100_000
MAX_COMBINATIONS = 10_000_000


class TooLarge(ValueError):
    """Input exceeds the brute-force size guards."""


def naive_variances(h: Histogram, t: ThresholdSet) -> tuple[float, float | None]:
    """Within/between-class variance summed straight from the histogram.

    Each class of `t` spans the gray levels above the previous cut up to
    its own cut (or `t.top`); its count, mean and scatter are recomputed
    from the raw bins with no shared state.  Returns (v, w) with w None
    for a single class; v is 0 when the within-class scatter vanishes,
    even if N equals K.  Raises ValueError when `t` does not describe `h`:
    a class is empty, a mean in `t.means` differs from the recomputed
    one, or pixels lie above `t.top`.
    """
    occupied = sum(1 for cnt in h.counts if cnt)
    if occupied > MAX_ORACLE_BINS or h.N > MAX_ORACLE_PIXELS:
        raise TooLarge(
            f"naive recomputation capped at {MAX_ORACLE_BINS} bins / {MAX_ORACLE_PIXELS} pixels"
        )
    n_total = h.N
    grand = sum(g * cnt for g, cnt in enumerate(h.counts)) / n_total
    ss_within = 0.0
    ss_between = 0.0
    covered = 0
    lo = 0
    for hi, mean in zip(t.cuts + (t.top,), t.means):
        span = range(lo, hi + 1)
        lo = hi + 1
        n_k = sum(h.counts[g] for g in span)
        if n_k == 0:
            raise ValueError(f"class ending at gray {hi} holds no pixels")
        mean_k = sum(g * h.counts[g] for g in span) / n_k
        if mean_k != mean:
            raise ValueError(f"class mean {mean} differs from recomputed {mean_k}")
        covered += n_k
        ss_within += sum(h.counts[g] * (g - mean_k) ** 2 for g in span)
        ss_between += n_k * (mean_k - grand) ** 2
    if covered != n_total:
        raise ValueError(f"{n_total - covered} pixels lie above top {t.top}")
    k = t.M
    v = ss_within / (n_total - k) if n_total > k else 0.0
    w = ss_between / (k - 1) if k >= 2 else None
    return v, w


def exhaustive_otsu(h: Histogram, m: int) -> ThresholdSet:
    """Globally optimal m-class cut set by enumerating every combination.

    Candidate cuts are the occupied gray levels below the top one: any
    cut between two occupied levels classifies pixels identically to the
    occupied level beneath it, so nothing is lost and cut sets stay
    canonical.  Maximizes the size-weighted scatter of class means about
    the grand mean; exact ties keep the lexicographically smallest cut
    set (combinations enumerate in lexicographic order and only strict
    improvements replace the incumbent; a float score within rounding
    error of the incumbent's is settled by the exact within-class scatter
    of cut_set_errors).  Raises InvalidLevel when m < 2 or fewer than m
    levels are occupied, EmptyHistogram for no pixels and TooLarge when
    the comb(K0 - 1, m - 1) cut sets exceed MAX_COMBINATIONS.
    """
    if m < 2:
        raise InvalidLevel(f"need at least two classes, got m={m}")
    if h.N == 0:
        raise EmptyHistogram("histogram holds no pixels")
    occupied = [g for g, cnt in enumerate(h.counts) if cnt]
    check_level(m, len(occupied))
    searched = math.comb(len(occupied) - 1, m - 1)
    if searched > MAX_COMBINATIONS:
        raise TooLarge(
            f"search space comb({len(occupied) - 1}, {m - 1}) = {searched}"
            f" exceeds {MAX_COMBINATIONS}"
        )

    cum_n, cum_s, _ = h.running_sums
    n_total = h.N
    grand = cum_s[-1] / n_total
    top = occupied[-1]
    candidates = occupied[:-1]

    best_cuts: tuple[int, ...] | None = None
    lo = hi = -1.0  # scores above hi win; scores in [lo, hi] are compared exactly
    for cuts in itertools.combinations(candidates, m - 1):
        scatter = 0.0
        prev = 0
        for cut in cuts + (top,):
            n_k = cum_n[cut + 1] - cum_n[prev]
            s_k = cum_s[cut + 1] - cum_s[prev]
            diff = s_k / n_k - grand
            scatter += n_k * (diff * diff)
            prev = cut + 1
        if scatter > hi or (scatter >= lo and _less_within_scatter(h, cuts, best_cuts, top)):
            best_cuts = cuts
            # The float score errs by about 1e-13 * sqrt(N * scatter) plus a few ulps.
            band = 1e-9 * max(scatter, math.sqrt(n_total * scatter))
            lo, hi = scatter - band, scatter + band

    assert best_cuts is not None
    return threshold_set(h, best_cuts, top)


def _less_within_scatter(
    h: Histogram, cuts: tuple[int, ...], than: tuple[int, ...], top: int
) -> bool:
    """Whether `cuts` leaves exactly less within-class scatter than `than` does."""
    (new, _), (old, _) = cut_set_errors(h, [threshold_set(h, c, top) for c in (cuts, than)])
    return new < old


def within_class_scatter(h: Histogram, t: ThresholdSet) -> float:
    """Total squared deviation of pixels about their class means.

    Evaluated exactly from the histogram's per-class sums (see
    metrics.cut_set_errors), so it rates engine and oracle cut sets on
    equal footing.  Equals pixel count times the mean-quantization MSE.
    """
    [(scatter, _)] = cut_set_errors(h, [t])
    return float(scatter)
