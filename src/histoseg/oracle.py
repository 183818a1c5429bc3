"""The exact multilevel-Otsu optimum that greedy merging is compared against.

exhaustive_otsu recomputes from the raw histogram, sharing no state with
the engine's incremental updates, so the two routes stay independent
checks of each other.  It finds the globally optimal cut set by dynamic
programming over the occupied levels, with exact tie-breaking.  Its score
table holds only the feasible cells, one block per 128 rows (at most two
for 256 levels) that holds its scores and one scratch buffer, exact in
each class's count and gray sum at any pixel count (the same expression
on Python ints once the pixel count or gray sum reaches 2^53).  The exact
scatter of a cut set, by which the two are compared, is
metrics.cut_set_errors.
"""

import numpy as np

from .engine import (
    EmptyHistogram,
    Histogram,
    InvalidLevel,
    ThresholdSet,
    check_level,
    threshold_set,
)

# exhaustive_otsu keeps its score table in one block per _ROWS rows, at most
# two for 256 levels.  A block keeps only the columns from its first row on,
# as a class cannot end before it starts; _BELOW marks the cells with c < i of
# its leading square.  Smaller blocks cost more NumPy calls per DP sweep.
_ROWS = 128
_BELOW = np.tri(_ROWS, _ROWS, -1, dtype=bool)


def exhaustive_otsu(h: Histogram, m: int) -> ThresholdSet:
    """Globally optimal m-class cut set, found by dynamic programming.

    Candidate cuts are the occupied gray levels below the top one: any cut
    between two occupied levels classifies pixels identically to the
    occupied level beneath it, so nothing is lost and cut sets stay
    canonical.  Maximizes the size-weighted scatter of class means about
    the grand mean over contiguous runs of the K0 occupied levels, the
    same optimum an enumeration of all comb(K0 - 1, m - 1) cut sets finds,
    in O(m * K0^2) time (Fisher's grouping for maximum homogeneity).  Its
    table of class scores keeps only the feasible cells, where a class
    ends at or after its start: three quarters of K0^2 cells at K0 = 256,
    in blocks of 128 rows (at most two for 256 levels), each with one
    buffer for its class counts and sweep sums.  Each class's count and
    gray sum enters its float score as one correctly rounded float at any
    pixel count: as a difference of float64 running sums while the pixel
    count and the gray sum stay below 2^53, where those are exact, and the
    same expression on Python-int running sums from 2^53 on.  Exact ties
    keep the lexicographically smallest cut set: every DP cell takes the
    smallest first-class end that reaches its exact optimum, and a cell with
    several float scores within rounding error of its maximum settles them
    exactly from the integer class sums.  Raises EmptyHistogram for no
    pixels, then InvalidLevel when check_level refuses m or m < 2.
    """
    if h.N == 0:
        raise EmptyHistogram("histogram holds no pixels")
    occupied = h.occupied
    k0 = len(occupied)
    m = check_level(m, k0)
    if m < 2:
        raise InvalidLevel(f"need at least two classes, got m={m}")

    # Occupied levels i..c hold run_n[c + 1] - run_n[i] pixels summing to
    # run_s[c + 1] - run_s[i] gray, all exact Python ints.
    cum_n, cum_s, _ = h.running_sums
    run_n = [0] + [cum_n[g + 1] for g in occupied]
    run_s = [0] + [cum_s[g + 1] for g in occupied]
    n_total = run_n[-1]
    grand = run_s[-1] / n_total
    # Each class's count and gray sum is taken as one correctly rounded float.
    # Below 2^53 every running sum is exact in float64, so their float
    # differences are too.  Past it a difference of two rounded totals can
    # lose a small class whole, so the same expression runs on Python ints,
    # whose exact differences are each rounded once as they become floats.
    dtype = np.float64 if max(n_total, run_s[-1]) < 2**53 else object
    sums_n = np.array(run_n, dtype=dtype)
    sums_s = np.array(run_s, dtype=dtype)

    # score[i, c]: n * (mean - grand)^2 of the class of levels i..c, the same
    # float form the between-class scatter takes, or -inf where c < i.  Only
    # rows of one block and the columns from its first row on are kept, and
    # one buffer per block: its class counts, then each DP sweep's sums.
    blocks = []
    for r0 in range(0, k0, _ROWS):
        size = min(_ROWS, k0 - r0)
        n = vals = np.empty((size, k0 - r0))
        np.subtract(sums_n[None, r0 + 1 :], sums_n[r0 : r0 + size, None], out=n, casting="unsafe")
        score = (sums_s[None, r0 + 1 :] - sums_s[r0 : r0 + size, None]).astype(float, copy=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            score /= n
            score -= grand
            score *= score
            score *= n
        np.copyto(score[:, :size], -np.inf, where=_BELOW[:size, :size])
        blocks.append((r0, score, vals))

    # best[i]: greatest score of levels i..k0-1 in r classes (-inf where
    # fewer than r levels remain); choice[r][i]: where its first class ends.
    best = np.concatenate([score[:, -1] for _, score, _ in blocks] + [[-np.inf]])
    choice: dict[int, list[int]] = {}
    # Exact sums of S^2/N as unreduced (numerator, denominator) int pairs,
    # denominators > 0; adding them skips the gcd a Fraction takes each time.
    exact: dict[tuple[int, int], tuple[int, int]] = {}

    def plus_class(i: int, c: int, value: tuple[int, int]) -> tuple[int, int]:
        """value plus S^2/N of the class of levels i..c, exactly."""
        s = run_s[c + 1] - run_s[i]
        n = run_n[c + 1] - run_n[i]
        return s * s * value[1] + value[0] * n, n * value[1]

    def exact_best(r: int, i: int) -> tuple[int, int]:
        """Exact sum of S^2/N over the r classes the DP chose for levels i..k0-1."""
        path = []
        while r > 1 and (r, i) not in exact:
            c = choice[r][i]
            path.append((r, i, c))
            r, i = r - 1, c + 1
        value = exact.get((r, i)) or plus_class(i, k0 - 1, (0, 1))
        for r, i, c in reversed(path):
            value = exact[r, i] = plus_class(i, c, value)
        return value

    for r in range(2, m + 1):
        # cells m-r..k0-r can follow m-r earlier classes; the last row needs cell 0
        lo, hi = (0, 0) if r == m else (m - r, k0 - r)
        top = np.full(k0 + 1, -np.inf)
        first = [0] * (hi + 1)
        tied_cells = []
        for r0, score, vals in blocks:
            a, b = max(lo, r0), min(hi + 1, r0 + len(score))
            if a >= b:
                continue
            v = np.add(score[a - r0 : b - r0], best[r0 + 1 :], out=vals[: b - a])
            row_top = top[a:b] = v.max(axis=1)
            # With each class's count and gray sum one correctly rounded float, the
            # float score errs by about 1e-13 * sqrt(N * scatter) plus a few ulps at
            # any pixel count.  The band is 1e-9 * max(top, sqrt(N * top)) below it.
            band = row_top - 1e-9 * np.maximum(row_top, np.sqrt(row_top * n_total))
            near = v >= band[:, None]
            first[a:b] = (near.argmax(axis=1) + r0).tolist()
            tied = np.flatnonzero(np.count_nonzero(near, axis=1) > 1)
            cells, ends = np.nonzero(near[tied])
            tied_cells += zip((tied[cells] + a).tolist(), (ends + r0).tolist())
        # Cells with several candidates in the band take the smallest end
        # whose exact score no later candidate beats.
        cell = cell_best = None
        for i, c in tied_cells:
            num, den = plus_class(i, c, exact_best(r - 1, c + 1))
            if i != cell or num * cell_best[1] > cell_best[0] * den:
                cell, cell_best = i, (num, den)
                first[i] = c
        choice[r] = first
        best = top

    cuts = []
    i = 0
    for r in range(m, 1, -1):
        c = choice[r][i]
        cuts.append(occupied[c])
        i = c + 1
    return threshold_set(h, tuple(cuts), occupied[-1])
