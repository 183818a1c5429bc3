"""Agglomerative merging of gray-level classes driven by an image histogram.

The engine starts from one class per occupied gray level and repeatedly
merges the adjacent pair whose pooled squared-mean gap is smallest,
tracking unbiased within-class and between-class variance estimates with
O(1) updates per merge.  One run costs O(K0^2) for K0 initial classes
and records enough to reconstruct the partition for every class count
from K0 down to 1.
"""

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass


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

    @property
    def G(self) -> int:
        return len(self.counts)

    @property
    def N(self) -> int:
        return sum(self.counts)


def histogram_from_json(text: str) -> Histogram:
    """Parse a histogram from a JSON array of per-level bin counts."""
    data = json.loads(text)
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


@dataclass(frozen=True)
class ClassRecord:
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


@dataclass(frozen=True)
class MergeRecord:
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

    G: int
    initial: ClassArray
    records: tuple[MergeRecord, ...]
    ss_total: float

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
    n_total = h.N
    if n_total == 0:
        raise EmptyHistogram("histogram holds no pixels")
    classes = []
    total = 0
    for g, c in enumerate(h.counts):
        if c:
            classes.append(ClassRecord(n=c, g_lo=g, g_hi=g, gray_sum=c * g))
            total += c * g
    return ClassArray(classes=tuple(classes), grand_mean=total / n_total, N=n_total)


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


def _pair_d_sq(n1: int, a1: float, n2: int, a2: float) -> float:
    diff = a1 - a2
    return n1 * n2 / (n1 + n2) * (diff * diff)


def run_dendrogram(h: Histogram) -> MergeTrace:
    """Merge down to one class, recording every step.

    The trace holds the complete hierarchy, from which any class count
    from 1 to K0 can be reconstructed with thresholds_at().  Only the two
    pair distances touching a merge are recomputed per step and the
    minimum search is a linear scan, so a run is O(K0^2).
    """
    initial = build_initial(h)
    k0 = initial.K

    gm = initial.grand_mean
    ss_total = math.fsum(cnt * (g - gm) ** 2 for g, cnt in enumerate(h.counts) if cnt)

    n_pixels = initial.N
    ns = [c.n for c in initial.classes]
    sums = [c.gray_sum for c in initial.classes]
    means = [c.gray_sum / c.n for c in initial.classes]
    ghis = [c.g_hi for c in initial.classes]
    d2 = [_pair_d_sq(ns[j], means[j], ns[j + 1], means[j + 1]) for j in range(k0 - 1)]

    v = 0.0
    w = between_class_variance(initial)
    records: list[MergeRecord] = []
    k = k0
    while k > 1:
        l = d2.index(min(d2))  # lowest index wins ties
        d_sq = d2[l]
        boundary = ghis[l]
        ns[l] += ns[l + 1]
        sums[l] += sums[l + 1]
        means[l] = sums[l] / ns[l]
        ghis[l] = ghis[l + 1]
        del ns[l + 1], sums[l + 1], means[l + 1], ghis[l + 1]
        del d2[l]
        if l > 0:
            d2[l - 1] = _pair_d_sq(ns[l - 1], means[l - 1], ns[l], means[l])
        if l < len(d2):
            d2[l] = _pair_d_sq(ns[l], means[l], ns[l + 1], means[l + 1])
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
        records.append(
            MergeRecord(
                step=len(records) + 1,
                left_index=l,
                boundary_gray=boundary,
                d_sq=d_sq,
                v=v,
                w=w,
                q=q,
                K_after=k,
            )
        )
    return MergeTrace(G=h.G, initial=initial, records=tuple(records), ss_total=ss_total)


def check_level(m: int, k0: int) -> None:
    """Raise InvalidLevel unless K0 occupied gray levels can form m classes."""
    if m < 1:
        raise InvalidLevel(f"need at least one class, got m={m}")
    if m > k0:
        raise InvalidLevel(
            f"requested {m} classes but the histogram has only {k0} occupied gray levels"
        )


def thresholds_at(trace: MergeTrace, m: int) -> ThresholdSet:
    """Partition with exactly m classes, replayed from the trace.

    Valid m runs from 1 to K0.  Cut points are the inclusive upper gray
    bounds of all classes but the last.
    """
    return thresholds_at_levels(trace, [m])[0]


def thresholds_at_levels(trace: MergeTrace, levels: Iterable[int]) -> list[ThresholdSet]:
    """thresholds_at() for each of `levels`, in order, from one replay.

    The replay walks down from K0 once and takes each requested partition
    as it passes, so the cost is one pass over the trace however many
    levels are asked for.  Levels may repeat and come in any order.
    """
    levels = list(levels)
    k0 = trace.initial.K
    for m in levels:
        check_level(m, k0)
    ns = [c.n for c in trace.initial.classes]
    sums = [c.gray_sum for c in trace.initial.classes]
    ghis = [c.g_hi for c in trace.initial.classes]
    found: dict[int, ThresholdSet] = {}
    records = iter(trace.records)
    for m in sorted(set(levels), reverse=True):
        while len(ns) > m:
            l = next(records).left_index
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
