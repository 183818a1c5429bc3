"""Agglomerative merging of gray-level classes driven by an image histogram.

The engine starts from one class per occupied gray level and repeatedly
merges the adjacent pair whose pooled squared-mean gap d_sq is smallest.
One O(K0^2) run over K0 initial classes is the only code that applies
merges.  It gives each initial class one fixed float64 slot, the distance
to its live right neighbour (+inf once merged away, and for the last
class), read and written as Python floats through a memoryview; the
starting distances are one NumPy expression, on int64 counts below 2**26
pixels, where it is exact, and the same expression on Python ints from
2**26 on.
It links neighbours through two index lists, finds each merge with one
argmin scan of the array, written into a reused 0-d buffer and read back
as a Python int (the first minimum is the lowest slot, so the lowest gray
wins among equal float costs; exactly tied costs can round apart, so
merges whose exact costs tie may be taken in another order), and keeps
each class's exact count and gray sum as Python ints; nothing is shifted
as classes go.  Each merge stores only the cut it removed and its d_sq,
and the trace is built valid, skipping the checks a hand-built MergeTrace
gets.  The unbiased within-class and
between-class variance estimates v and w, and q = v/w, follow from the
d_sq by O(1) updates per merge, in one generator, _variances(), run
only when MergeTrace.records is read.  That is the paper's recursion,
kept as library API and checked against exact sums; no command reads
it, as metrics.level_stats gives a cut set's v, w and q exactly from the
histogram's sums.
The partitions for any class counts are read off
its trace in one walk up it from the one-class partition, which puts one
cut back per level, with every class sum from Histogram.running_sums.
The walk is one generator, walk_splits(), the interface for any code
that follows it: for each level asked, from the smallest up, it yields
its ThresholdSet, built valid with no second check, with the splits made
since the level before, each as (na, sa, nb, sb).  metrics.psnr_at_levels
carries each level's exact errors along it: W, the within-class sum of
squares, as one fraction whose denominator is the product of the class
counts, which a split lowers by the exact cost e^2/(na*nb*(na+nb)),
e = nb*sa - na*sb, of the merge it undoes (a merge's d_sq is this cost as
a float), and the rounded-mean error, which a split changes by three int
terms.  So no level's classes are summed again.
The run stores its cuts and costs and nothing else: MergeTrace.w0, the
between-class variance of the K0-class start state, MergeTrace.initial,
its classes, and MergeTrace.ss_total, the total scatter, are derived from
the histogram only when a caller asks.  w0 and ss_total are each one int
division of Histogram.nt, the exact N*T that metrics.level_stats and
psnr_at_levels also read, so both are correctly rounded.
"""

import json
import math
import operator
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress
from typing import NamedTuple

import numpy as np

# The most pixels histogram_of's int64 counts can hold; the bound keeps every
# float in a merge trace finite.
MAX_PIXELS = 2**63 - 1

# Below this many pixels run_dendrogram's starting costs take int64 counts.
_EXACT_STARTUP = 2**26


class EmptyHistogram(ValueError):
    """The histogram holds zero pixels."""


class InvalidLevel(ValueError):
    """Requested class count is not recoverable from the trace."""


@dataclass(frozen=True)
class Histogram:
    """Pixel counts per gray level; the engine's only view of an image."""

    counts: tuple[int, ...]

    def __post_init__(self):
        # Any sequence is stored as a tuple, so every histogram hashes.
        counts = tuple(self.counts)
        if len(counts) == 0:
            raise ValueError("histogram needs at least one bin")
        if set(map(type, counts)) != {int}:
            counts = _as_ints(counts, "bin counts")
        object.__setattr__(self, "counts", counts)
        if min(self.counts) < 0:
            raise ValueError("bin counts must be non-negative")
        if self.N > MAX_PIXELS:
            raise ValueError(f"total count exceeds {MAX_PIXELS} (2**63 - 1)")

    @property
    def G(self) -> int:
        return len(self.counts)

    @cached_property
    def N(self) -> int:
        return sum(self.counts)

    @cached_property
    def occupied(self) -> tuple[int, ...]:
        """The gray levels holding at least one pixel, ascending."""
        return tuple(compress(range(len(self.counts)), self.counts))

    @cached_property
    def running_sums(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Exact running sums (cn, c1, c2) of c, g*c and g*g*c, each from 0.

        Gray levels lo..hi hold cn[hi + 1] - cn[lo] pixels; c1 and c2 work alike.
        """
        grays = range(len(self.counts))
        sums = list(map(operator.mul, grays, self.counts))  # g*c of each level
        cn = (0, *accumulate(self.counts))
        c1 = (0, *accumulate(sums))
        c2 = (0, *accumulate(map(operator.mul, grays, sums)))
        return cn, c1, c2

    @cached_property
    def nt(self) -> int:
        """N*T = N*S2 - S1^2, exact: N times the total sum of squares T about the grand mean."""
        _, c1, c2 = self.running_sums
        return self.N * c2[-1] - c1[-1] * c1[-1]


def _as_ints(values: tuple, what: str) -> tuple[int, ...]:
    """values as Python ints, whose sums cannot wrap; ValueError naming `what` for a non-int."""
    if bool in map(type, values):  # operator.index takes bools
        raise ValueError(f"{what} must be integers")
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers") from None


def histogram_from_json(text: str) -> Histogram:
    """Parse a histogram from a JSON array of per-level bin counts."""
    try:
        data = json.loads(text)
    except RecursionError:  # json's decoder recurses once per nesting level
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, list):  # Histogram refuses non-integer counts
        raise ValueError("expected a JSON array of integers")
    return Histogram(data)


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
        fields = [part.strip() for part in line.split(",")]
        # ASCII digits only: int() would also take a sign, '_' or another
        # script's digits.  It still refuses a field past its digit limit.
        try:
            if len(fields) != 2 or not all(f.isascii() and f.isdigit() for f in fields):
                raise ValueError
            g, c = map(int, fields)
        except ValueError:
            raise ValueError(f"line {ln}: expected 'gray,count'") from None
        if g > 255:
            raise ValueError(f"line {ln}: gray level {g} outside [0, 255]")
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
    N: int

    @property
    def K(self) -> int:
        return len(self.classes)


class MergeRecord(NamedTuple):
    """One merge: the cut it removed, plus the tracked statistics.

    The fields, in order, are the merge's to_json() entry.  w and q are
    None once a single class remains (the between-class estimator loses
    its degrees of freedom); q is also None if w reaches zero, and the
    entry leaves a None out.
    """

    step: int
    boundary_gray: int
    d_sq: float
    v: float
    w: float | None
    q: float | None
    K_after: int


@dataclass(frozen=True)
class MergeTrace:
    """Complete record of a merge run, from the initial classes down.

    boundary_gray and d_sq hold, per merge in order, the cut it removed
    and its cost, the two values the merge loop decides.  w0, records,
    initial and ss_total are not stored: each is derived on first use,
    records from the two tuples and w0, the others from the histogram.
    A hand-built trace is checked: EmptyHistogram for no pixels, and
    ValueError unless its boundary grays, stored as Python ints, are the
    occupied grays below the top, each once, with one d_sq per gray.
    """

    histogram: Histogram
    boundary_gray: tuple[int, ...]
    d_sq: tuple[float, ...]

    def __post_init__(self):
        if self.histogram.N == 0:
            raise EmptyHistogram("histogram holds no pixels")
        bounds = _as_ints(tuple(self.boundary_gray), "boundary grays")
        object.__setattr__(self, "boundary_gray", bounds)
        object.__setattr__(self, "d_sq", tuple(self.d_sq))
        if sorted(bounds) != list(self.histogram.occupied[:-1]) or len(self.d_sq) != len(bounds):
            raise ValueError("need each occupied gray below the top once, with one d_sq each")

    @cached_property
    def w0(self) -> float | None:
        """Between-class variance of the K0 initial classes, or None when K0 = 1.

        Each initial class is one gray level, so its scatter is all between
        classes: w0 = T/(K0 - 1), one int division of the exact N*T, so it
        is correctly rounded.  v is 0 there, and _variances() rolls v and w
        on from it.
        """
        k0 = len(self.histogram.occupied)
        return self.histogram.nt / (self.histogram.N * (k0 - 1)) if k0 > 1 else None

    @cached_property
    def records(self) -> tuple[MergeRecord, ...]:
        """One MergeRecord per merge, with v, w and q from _variances()."""
        k0 = len(self.d_sq) + 1
        rows = zip(range(1, k0), self.boundary_gray, self.d_sq, _variances(self))
        return tuple([MergeRecord(i, b, d, *vwq, k0 - i) for i, b, d, vwq in rows])

    @cached_property
    def initial(self) -> ClassArray:
        """The one-class-per-occupied-level partition the run started from."""
        counts = self.histogram.counts
        classes = tuple(
            ClassRecord(counts[g], g, g, counts[g] * g) for g in self.histogram.occupied
        )
        return ClassArray(classes=classes, N=self.histogram.N)

    @cached_property
    def ss_total(self) -> float:
        """Total squared deviation T of every pixel's gray from the grand mean, correctly rounded."""
        return self.histogram.nt / self.histogram.N

    def to_dict(self) -> dict:
        h = self.histogram
        return {
            "G": h.G,
            "N": h.N,
            "grand_mean": h.running_sums[1][-1] / h.N,
            "ss_total": self.ss_total,
            # a single level's mean c*g / c is exactly g
            "initial_classes": [
                {"n": h.counts[g], "a": float(g), "g_lo": g, "g_hi": g}
                for g in h.occupied
            ],
            # a record's fields are its entry's keys; a None w or q is left out
            "merges": [
                {f: x for f, x in zip(MergeRecord._fields, r) if x is not None}
                for r in self.records
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass(frozen=True)
class ThresholdSet:
    """Interior cut points and per-class means for an M-class partition.

    A pixel with gray g belongs to class k when cuts[k-1] < g <= cuts[k];
    `top` is the inclusive upper gray bound of the last class.  Each bound
    is an int: NumPy integers are stored as Python ints, and a bool or a
    float raises ValueError.  Cuts and means may be given as any sequences,
    such as NumPy arrays or lists; both are stored as tuples.
    """

    cuts: tuple[int, ...]
    means: tuple[float, ...]
    top: int

    def __post_init__(self):
        # Any sequences are stored as tuples: a NumPy array's + would add
        # elementwise below, and a list would not hash.
        cuts, means = tuple(self.cuts), tuple(self.means)
        if len(means) != len(cuts) + 1:
            raise ValueError("need exactly one mean per class")
        bounds = cuts + (self.top,)
        if set(map(type, bounds)) != {int}:
            bounds = _as_ints(bounds, "gray bounds")
            cuts = bounds[:-1]
            object.__setattr__(self, "top", bounds[-1])
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "means", means)
        # A negative bound would index the histogram's running sums from the end.
        if bounds[0] < 0:
            raise ValueError("gray bounds must be non-negative")
        if not all(map(operator.lt, bounds, bounds[1:])):
            raise ValueError("cut points must be strictly increasing below top")

    @property
    def M(self) -> int:
        return len(self.means)


def _built_valid(cls, **fields):
    """The frozen dataclass cls holding `fields`, which its caller built valid.

    No __post_init__ runs, so each field must be what it would store.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def run_dendrogram(h: Histogram) -> MergeTrace:
    """Merge down to one class, recording every step.

    The trace holds the complete hierarchy, from which any class count
    from 1 to K0 can be reconstructed with thresholds_at().  Each class
    keeps its pixel count and exact gray sum as Python ints, so n1*n2 and
    every sum are exact up to a pair distance's one float expression.  A
    class is named by its first initial class, and each initial class owns
    one fixed slot of a float64 array: its distance to its live right
    neighbour, or +inf for a merged-away class and the last one.  The K0 - 1
    starting distances are one NumPy expression, on int64 counts below
    2**26 pixels, where every n1*n2 and n1 + n2 is exact in float64, and
    the same expression on Python ints from 2**26 on, so each is the float
    the int expression gives.  The loop reads and writes slots
    through a memoryview of the array, as Python floats.  Each step is one
    argmin over the slots, a linear scan whose first minimum is the lowest
    slot, which is the lowest gray, so equal float costs go to the lowest
    index.  Costs come from rounded means, so two exactly tied costs can
    differ in their last bits and be merged in another order.  The argmin
    writes the index into one 0-d intp buffer, reused by every step and
    read through a memoryview as a Python int, so no NumPy scalar is
    boxed.  Lists prv/nxt link each class to its neighbours, and only the
    two distances touching the new class are recomputed, so nothing is
    shifted and a run is O(K0^2).  Each merge appends its
    boundary gray and d_sq and nothing else; v, w and q are left to
    _variances(), for the readers that ask.
    """
    grays = h.occupied
    if not grays:
        raise EmptyHistogram("histogram holds no pixels")
    k0 = len(grays)
    counts = h.counts
    ns = [counts[g] for g in grays]  # pixels of each class, by its first initial class
    ss = list(map(operator.mul, ns, grays))  # exact gray sum of each class
    prv = list(range(-1, k0 - 1))  # live left neighbour of each class, -1 for none
    nxt = list(range(1, k0 + 1))  # live right neighbour of each class, k0 for none

    # A single level's mean s/n is exactly its gray g.  Histogram's
    # MAX_PIXELS bound keeps every cost finite, so no live cost ties +inf.
    inf = math.inf
    # Below 2**26 pixels every n1*n2 < 2**50 and n1 + n2 < 2**26 is exact in
    # int64 and in float64.  From 2**26 on the counts are Python ints, whose
    # int / is correctly rounded: either way each float is n1*n2/(n1 + n2).
    n = np.fromiter(ns, np.int64 if h.N < _EXACT_STARTUP else object, k0)
    dg = np.diff(np.fromiter(grays, np.int64, k0))
    dg *= dg
    d2 = np.empty(k0)
    d2[-1] = inf
    live = d2[:-1]
    np.true_divide(n[:-1] * n[1:], n[:-1] + n[1:], out=live, casting="unsafe")
    live *= dg
    # Slots and the argmin go in and out as Python ints and floats, never
    # boxed as NumPy scalars: argmin writes into a 0-d buffer read back as an int.
    at = np.empty((), dtype=np.intp)
    argmin, slot, where = d2.argmin, memoryview(d2), memoryview(at)
    bounds, costs = [], []
    for _ in range(k0 - 1):
        argmin(None, at)
        l = where[()]  # first minimum: the lowest slot wins equal floats
        costs.append(slot[l])
        r = nxt[l]
        bounds.append(grays[r - 1])  # class l spans initial classes l..r-1
        n1 = ns[l] = ns[l] + ns[r]
        s1 = ss[l] = ss[l] + ss[r]
        slot[r] = inf
        p = prv[l]
        if p >= 0:
            n0, s0 = ns[p], ss[p]
            diff = s0 / n0 - s1 / n1
            slot[p] = n0 * n1 / (n0 + n1) * (diff * diff)
        r = nxt[l] = nxt[r]
        if r < k0:
            prv[r] = l
            n2, s2 = ns[r], ss[r]
            diff = s1 / n1 - s2 / n2
            slot[l] = n1 * n2 / (n1 + n2) * (diff * diff)
        else:
            slot[l] = inf
    return _built_valid(MergeTrace, histogram=h, boundary_gray=tuple(bounds), d_sq=tuple(costs))


def _variances(trace: MergeTrace):
    """Yield (v, w, q) after each merge of the trace, in merge order.

    The one home of the variance recursion, read by MergeTrace.records
    only: from v = 0 and w = trace.w0, each merge's d_sq is absorbed by
    the within estimate and shed by the between estimate, both divisors
    following the class count k it leaves.
    """
    n_pixels = trace.histogram.N
    v, w = 0.0, trace.w0
    for k, d_sq in zip(range(len(trace.d_sq), 0, -1), trace.d_sq):
        dv = n_pixels - k
        v = (n_pixels - k - 1) / dv * v + d_sq / dv
        if k >= 2:
            w = k / (k - 1) * w - d_sq / (k - 1)
            q = v / w if w > 0 else None
        else:
            w = q = None
        yield v, w, q


def check_level(m: int, k0: int) -> int:
    """m as an int; raise InvalidLevel unless it is an integer from 1 to K0.

    Python and NumPy integers pass; bools, floats and other types do not.
    The one class-count check, for the walk and for exhaustive_otsu.
    """
    try:
        if isinstance(m, bool):
            raise TypeError
        m = operator.index(m)
    except TypeError:
        raise InvalidLevel(f"class count must be an integer, got {m!r}") from None
    if m < 1:
        raise InvalidLevel(f"need at least one class, got m={m}")
    if m > k0:
        raise InvalidLevel(
            f"requested {m} classes but the histogram has only {k0} occupied gray levels"
        )
    return m


def threshold_set(h: Histogram, cuts: tuple[int, ...], top: int) -> ThresholdSet:
    """The classes `cuts` and `top` make of h, each mean read off h.running_sums."""
    cn, c1, _ = h.running_sums
    edges = [0, *(cut + 1 for cut in cuts), top + 1]
    # tuple() of a generator grows a 10-slot tuple by realloc, which leaves
    # one tuple per call on the interpreter's free list for its final size
    # until a full garbage collection; a list comprehension allocates it exact.
    means = tuple([(c1[b] - c1[a]) / (cn[b] - cn[a]) for a, b in zip(edges, edges[1:])])
    return ThresholdSet(cuts=cuts, means=means, top=top)


def thresholds_at(trace: MergeTrace, m: int) -> ThresholdSet:
    """Partition with exactly m classes, read off the trace.

    Valid m is an integer from 1 to K0.  Cut points are the inclusive
    upper gray bounds of all classes but the last.
    """
    return thresholds_at_levels(trace, [m])[0]


def thresholds_at_levels(trace: MergeTrace, levels: Iterable[int]) -> list[ThresholdSet]:
    """thresholds_at() for each of `levels`, in order.

    Each merge deletes one cut point, so the cuts of the m-class partition
    are the boundary grays of the last m - 1 merges; no merge is applied
    again.  One walk up the trace, from the one-class partition to the
    largest level asked (at most K0 - 1 steps), reads every level: the
    merge that left m - 1 classes puts its boundary back, which splits one
    class in two, so only those two means are computed anew.  Every mean
    is the same float threshold_set() gives.  Levels may repeat and come
    in any order.
    """
    levels = [check_level(m, len(trace.boundary_gray) + 1) for m in levels]
    found = {tset.M: tset for _, tset in walk_splits(trace, levels)}
    return [found[m] for m in levels]


def walk_splits(trace: MergeTrace, levels: list[int]):
    """The walk up the trace that thresholds_at_levels and metrics.psnr_at_levels share.

    Yields (splits, tset) for each distinct level in `levels`, which must
    be valid, from the smallest up; tset is its ThresholdSet.  Each step
    from m - 1 to m classes puts back the cut of the merge that left m - 1
    classes, which splits one class in two, and splits lists the steps
    made since the previous level yielded (from m = 1 for the first), in
    order, each as (na, sa, nb, sb): the pixel count and exact gray sum of
    the lower and of the upper part.  Its cuts are the trace's boundary
    grays, distinct ints below the top gray, kept sorted, so each tset is
    built valid and skips ThresholdSet's checks.
    """
    wanted = set(levels)
    h = trace.histogram
    bounds = trace.boundary_gray
    k0 = len(bounds) + 1
    top = h.occupied[-1]
    cn, c1, _ = h.running_sums
    cuts, means = [], [c1[top + 1] / cn[top + 1]]  # one class: the grand mean
    splits = []
    for m in range(1, max(wanted, default=0) + 1):
        if m > 1:
            cut = bounds[k0 - m]
            j = bisect_left(cuts, cut)
            # class j spans grays a..b-1 of the running sums and splits at cut
            a = cuts[j - 1] + 1 if j else 0
            b = cuts[j] + 1 if j < len(cuts) else top + 1
            mid = cut + 1
            na, sa = cn[mid] - cn[a], c1[mid] - c1[a]
            nb, sb = cn[b] - cn[mid], c1[b] - c1[mid]
            cuts.insert(j, cut)
            means[j : j + 1] = [sa / na, sb / nb]
            splits.append((na, sa, nb, sb))
        if m in wanted:
            yield splits, _built_valid(ThresholdSet, cuts=tuple(cuts), means=tuple(means), top=top)
            splits = []
