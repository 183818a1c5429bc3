"""Agglomerative merging of gray-level classes driven by an image histogram.

The engine starts from one class per occupied gray level and repeatedly
merges the adjacent pair whose pooled squared-mean gap is smallest,
tracking unbiased within-class and between-class variance estimates with
O(1) updates per merge.  One O(K0^2) run over K0 initial classes is
the only code that applies merges.  It keeps the pair distances in a
float64 array with one fixed slot per initial cut, finds each merge with
one argmin scan (the lowest slot wins ties) and keeps only the live cut
points; the partition for any class count is read straight off its
trace, with every class sum from Histogram.running_sums.
"""

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

# The most pixels histogram_of's int64 counts can hold; the bound keeps every
# float in a merge trace finite.
MAX_PIXELS = 2**63 - 1


class EmptyHistogram(ValueError):
    """The histogram holds zero pixels."""


class InvalidLevel(ValueError):
    """Requested class count is not recoverable from the trace."""


@dataclass(frozen=True)
class Histogram:
    """Pixel counts per gray level; the engine's only view of an image."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) == 0:
            raise ValueError("histogram needs at least one bin")
        if any(c < 0 for c in self.counts):
            raise ValueError("bin counts must be non-negative")
        if sum(self.counts) > MAX_PIXELS:
            raise ValueError(f"total count exceeds {MAX_PIXELS} (2**63 - 1)")

    @property
    def G(self) -> int:
        return len(self.counts)

    @property
    def N(self) -> int:
        return sum(self.counts)

    @cached_property
    def running_sums(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Exact running sums (cn, c1, c2) of c, g*c and g*g*c, each from 0.

        Gray levels lo..hi hold cn[hi + 1] - cn[lo] pixels; c1 and c2 work alike.
        """
        cn = (0, *accumulate(self.counts))
        c1 = (0, *accumulate(g * c for g, c in enumerate(self.counts)))
        c2 = (0, *accumulate(g * g * c for g, c in enumerate(self.counts)))
        return cn, c1, c2


def histogram_from_json(text: str) -> Histogram:
    """Parse a histogram from a JSON array of per-level bin counts."""
    try:
        data = json.loads(text)
    except RecursionError:  # json's decoder recurses once per nesting level
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in data
    ):
        raise ValueError("expected a JSON array of integers")
    return Histogram(tuple(data))


def histogram_from_csv(text: str) -> Histogram:
    """Parse "gray,count" lines into a 256-bin histogram.

    Blank lines and '#' comments are skipped and a leading "gray,count"
    header is tolerated.  Repeated gray levels accumulate.
    """
    counts = [0] * 256
    first_data_line = True
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if first_data_line and line.replace(" ", "").lower() == "gray,count":
            first_data_line = False
            continue
        first_data_line = False
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {ln}: expected 'gray,count'")
        try:
            g, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {ln}: expected 'gray,count'") from None
        if not 0 <= g <= 255:
            raise ValueError(f"line {ln}: gray level {g} outside [0, 255]")
        if c < 0:
            raise ValueError(f"line {ln}: negative count")
        counts[g] += c
    return Histogram(tuple(counts))


class ClassRecord(NamedTuple):
    """One contiguous gray-level class.

    gray_sum is the exact integer sum of the original gray values inside
    the class, so the class mean gray_sum / n never accumulates float
    drift.
    """

    n: int
    g_lo: int
    g_hi: int
    gray_sum: int


@dataclass(frozen=True)
class ClassArray:
    """Ordered, contiguous classes covering every pixel at one merge stage."""

    classes: tuple[ClassRecord, ...]
    grand_mean: float
    N: int

    @property
    def K(self) -> int:
        return len(self.classes)


class MergeRecord(NamedTuple):
    """One merge: which adjacent pair went, plus the tracked statistics.

    w and q are None once a single class remains (the between-class
    estimator loses its degrees of freedom); q is also None if w reaches
    zero.
    """

    step: int
    left_index: int
    boundary_gray: int
    d_sq: float
    v: float
    w: float | None
    q: float | None
    K_after: int


@dataclass(frozen=True)
class MergeTrace:
    """Complete record of a merge run, from the initial classes down."""

    histogram: Histogram
    initial: ClassArray
    records: tuple[MergeRecord, ...]
    ss_total: float

    @property
    def G(self) -> int:
        return self.histogram.G

    def to_dict(self) -> dict:
        merges = []
        for r in self.records:
            entry: dict = {
                "step": r.step,
                "boundary_gray": r.boundary_gray,
                "d_sq": r.d_sq,
                "v": r.v,
            }
            if r.w is not None:
                entry["w"] = r.w
            if r.q is not None:
                entry["q"] = r.q
            entry["K_after"] = r.K_after
            merges.append(entry)
        return {
            "G": self.G,
            "N": self.initial.N,
            "grand_mean": self.initial.grand_mean,
            "ss_total": self.ss_total,
            "initial_classes": [
                {"n": c.n, "a": c.gray_sum / c.n, "g_lo": c.g_lo, "g_hi": c.g_hi}
                for c in self.initial.classes
            ],
            "merges": merges,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass(frozen=True)
class ThresholdSet:
    """Interior cut points and per-class means for an M-class partition.

    A pixel with gray g belongs to class k when cuts[k-1] < g <= cuts[k];
    `top` is the inclusive upper gray bound of the last class.
    """

    cuts: tuple[int, ...]
    means: tuple[float, ...]
    top: int

    def __post_init__(self):
        if len(self.means) != len(self.cuts) + 1:
            raise ValueError("need exactly one mean per class")
        bounds = self.cuts + (self.top,)
        if any(lo >= hi for lo, hi in zip(bounds, bounds[1:])):
            raise ValueError("cut points must be strictly increasing below top")

    @property
    def M(self) -> int:
        return len(self.means)


def build_initial(h: Histogram) -> ClassArray:
    """One class per occupied gray level; empty bins are dropped outright."""
    cn, c1, _ = h.running_sums
    if cn[-1] == 0:
        raise EmptyHistogram("histogram holds no pixels")
    classes = tuple(
        ClassRecord(c, g, g, c * g) for g, c in enumerate(h.counts) if c
    )
    return ClassArray(classes=classes, grand_mean=c1[-1] / cn[-1], N=cn[-1])


def between_class_variance(c: ClassArray) -> float | None:
    """Size-weighted scatter of class means about the grand mean, over K-1.

    Returns None for a single class, where the estimator is undefined.
    """
    if c.K < 2:
        return None
    acc = 0.0
    for rec in c.classes:
        diff = rec.gray_sum / rec.n - c.grand_mean
        acc += rec.n * (diff * diff)
    return acc / (c.K - 1)


def run_dendrogram(h: Histogram) -> MergeTrace:
    """Merge down to one class, recording every step.

    The trace holds the complete hierarchy, from which any class count
    from 1 to K0 can be reconstructed with thresholds_at().  A pair
    distance reads both classes' counts and gray sums off h.running_sums.
    Distances sit in a float64 array with one fixed slot per initial cut,
    in gray order, and a merged cut's slot holds +inf; each step is one
    argmin over that array, a linear scan whose first minimum is the
    lowest live index, so ties go to the lowest index.  Only the two
    distances touching a merge are recomputed per step, so a run is
    O(K0^2).
    """
    initial = build_initial(h)
    k0 = initial.K

    gm = initial.grand_mean
    ss_total = math.fsum(cnt * (g - gm) ** 2 for g, cnt in enumerate(h.counts) if cnt)

    n_pixels = initial.N
    cn, c1, _ = h.running_sums
    # class j holds grays edges[j] + 1 .. edges[j + 1]
    edges = [-1, *(c.g_hi for c in initial.classes)]

    def pair_d_sq(j: int) -> float:
        """n1*n2/(n1+n2) * (a1 - a2)^2 of classes j and j + 1."""
        lo, mid, hi = edges[j] + 1, edges[j + 1] + 1, edges[j + 2] + 1
        n1, n2 = cn[mid] - cn[lo], cn[hi] - cn[mid]
        diff = (c1[mid] - c1[lo]) / n1 - (c1[hi] - c1[mid]) / n2
        return n1 * n2 / (n1 + n2) * (diff * diff)

    # Histogram's MAX_PIXELS bound keeps every live cost finite, so the
    # +inf of a merged slot never ties one.
    d2 = np.array([pair_d_sq(j) for j in range(k0 - 1)], dtype=np.float64)
    live = list(range(k0 - 1))  # slots of the cuts still standing

    v = 0.0
    w = between_class_variance(initial)
    records: list[MergeRecord] = []
    k = k0
    while k > 1:
        s = int(d2.argmin())  # first minimum: the lowest live index wins ties
        l = live.index(s)
        d_sq = float(d2[s])
        boundary = edges[l + 1]
        d2[s] = math.inf
        del edges[l + 1], live[l]
        if l > 0:
            d2[live[l - 1]] = pair_d_sq(l - 1)
        if l < len(live):
            d2[live[l]] = pair_d_sq(l)
        k -= 1
        # The within estimate absorbs d_sq and the between estimate sheds
        # it; both divisors follow the new class count k.
        dv = n_pixels - k
        v = (n_pixels - k - 1) / dv * v + d_sq / dv
        if k >= 2:
            w = k / (k - 1) * w - d_sq / (k - 1)
            q = v / w if w > 0 else None
        else:
            w = q = None
        records.append(MergeRecord(len(records) + 1, l, boundary, d_sq, v, w, q, k))
    return MergeTrace(histogram=h, initial=initial, records=tuple(records), ss_total=ss_total)


def check_level(m: int, k0: int) -> None:
    """Raise InvalidLevel unless K0 occupied gray levels can form m classes."""
    if m < 1:
        raise InvalidLevel(f"need at least one class, got m={m}")
    if m > k0:
        raise InvalidLevel(
            f"requested {m} classes but the histogram has only {k0} occupied gray levels"
        )


def threshold_set(h: Histogram, cuts: tuple[int, ...], top: int) -> ThresholdSet:
    """The classes `cuts` and `top` make of h, each mean read off h.running_sums."""
    cn, c1, _ = h.running_sums
    edges = [0, *(cut + 1 for cut in cuts), top + 1]
    means = tuple((c1[b] - c1[a]) / (cn[b] - cn[a]) for a, b in zip(edges, edges[1:]))
    return ThresholdSet(cuts=cuts, means=means, top=top)


def thresholds_at(trace: MergeTrace, m: int) -> ThresholdSet:
    """Partition with exactly m classes, read off the trace.

    Valid m runs from 1 to K0.  Cut points are the inclusive upper gray
    bounds of all classes but the last.
    """
    return thresholds_at_levels(trace, [m])[0]


def thresholds_at_levels(trace: MergeTrace, levels: Iterable[int]) -> list[ThresholdSet]:
    """thresholds_at() for each of `levels`, in order.

    Each merge deletes one cut point, so the cuts of the m-class partition
    are the boundary grays of the last m - 1 merges; no merge is applied
    again.  Levels may repeat and come in any order.
    """
    levels = list(levels)
    k0 = trace.initial.K
    for m in levels:
        check_level(m, k0)
    bounds = [r.boundary_gray for r in trace.records]
    top = trace.initial.classes[-1].g_hi
    return [threshold_set(trace.histogram, tuple(sorted(bounds[k0 - m :])), top) for m in levels]


def variances_at(trace: MergeTrace, m: int) -> tuple[float, float | None, float | None]:
    """(v, w, q) of the m-class partition; v = 0 and the initial w when m = K0."""
    k0 = trace.initial.K
    check_level(m, k0)
    if m < k0:
        rec = trace.records[k0 - m - 1]
        return rec.v, rec.w, rec.q
    v, w = 0.0, between_class_variance(trace.initial)
    return v, w, (v / w if w else None)
