"""Image quality metrics and class-mean quantization."""

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .engine import (
    EmptyHistogram,
    Histogram,
    MergeTrace,
    ThresholdSet,
    check_level,
    walk_splits,
)

# PSNR peak is pinned to the 8-bit maximum regardless of image content.
PEAK = 255.0
# Pixels per np.take call in quantize.  take widens each slice's uint16
# indices to a 256 KiB intp temporary; twice that would push a 1024^2
# threshold --out op past 2.5 raster sizes of memory.
_SLICE = 1 << 16


class DimensionMismatch(ValueError):
    """Images or masks must share width and height."""


class RangeMismatch(ValueError):
    """Pixel values fall outside the threshold set's gray range."""


@dataclass(frozen=True, eq=False)
class GrayImage:
    """8-bit grayscale image, row-major, shape (height, width)."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 2 or px.size == 0:
            raise ValueError("pixels must be a non-empty 2-D array")
        if not np.issubdtype(px.dtype, np.integer):
            raise ValueError("pixels must be integers")
        # uint8 holds nothing outside [0, 255]; wider dtypes are scanned.
        if px.dtype != np.uint8 and (int(px.min()) < 0 or int(px.max()) > 255):
            raise ValueError("pixel values must lie in [0, 255]")
        object.__setattr__(self, "pixels", px.astype(np.uint8, copy=False))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """Foreground/background labeling of an image, true = foreground."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2 or b.size == 0:
            raise ValueError("bits must be a non-empty 2-D array")
        object.__setattr__(self, "bits", b.astype(bool, copy=False))


def foreground_of(img: GrayImage, invert: bool = False) -> BinaryMask:
    """Nonzero pixels as foreground; invert flips the polarity."""
    return BinaryMask(bits=img.pixels == 0 if invert else img.pixels != 0)


def _check_range(img: GrayImage, t: ThresholdSet) -> None:
    """Raise RangeMismatch when a pixel of img lies above t.top.

    No uint8 pixel exceeds 255, so a top of 255 or more needs no scan.
    """
    if t.top >= 255:
        return
    top = int(img.pixels.max())
    if top > t.top:
        raise RangeMismatch(f"pixel value {top} exceeds threshold range top {t.top}")


def _class_table(t: ThresholdSet, values: np.ndarray) -> np.ndarray:
    """256-entry table holding values[k] at every gray level of class k.

    Entries above t.top stay zero; callers keep pixels from reaching them.
    """
    table = np.zeros(256, dtype=values.dtype)
    lo = 0
    for hi, value in zip(t.cuts + (t.top,), values):
        table[lo : hi + 1] = value
        lo = hi + 1
    return table


def _rounded_means(t: ThresholdSet) -> np.ndarray:
    """t.means rounded half-up, as float64; ValueError for one NaN or outside [0, 255]."""
    rounded = np.floor(np.asarray(t.means, dtype=np.float64) + 0.5)
    bad = ~((rounded >= 0) & (rounded <= 255))  # NaN fails both
    if bad.any():
        raise ValueError(f"class mean {t.means[bad.argmax()]} does not round into [0, 255]")
    return rounded


def quantize(img: GrayImage, t: ThresholdSet) -> GrayImage:
    """Replace each pixel by its class mean, rounded half-up to 8 bits.

    The raster is read as uint16 pairs, half as many lookups as pixels,
    through a 65536-entry table that holds both pixels' rounded means: the
    entry at hi << 8 | lo is table[lo] | table[hi] << 8, right in either
    byte order.  np.take maps _SLICE // 2 pairs at a time into one
    preallocated output, and an odd last pixel is mapped on its own.  So
    for a C-contiguous image, as read_pgm gives, the output is the only
    raster-sized buffer made; a non-contiguous view is first copied in
    row-major order.  Pixels above t.top raise RangeMismatch, naming the
    largest; the raster is scanned for it before mapping, unless t.top is
    255 or more, which no pixel can exceed.  Building the pair table costs
    about 8 us whatever the image, so below 256^2 pixels this is slower
    than a 256-entry table (a 64^2 image twice as slow); from there on the
    halved lookups pay for it.  A mean that is NaN or rounds outside
    [0, 255] raises ValueError.
    """
    table = _class_table(t, _rounded_means(t).astype(np.uint16))
    pair = (table[:, None] << 8 | table).ravel()
    _check_range(img, t)
    src = img.pixels.ravel()
    out = np.empty(img.pixels.shape, dtype=np.uint8)
    flat = out.reshape(-1)
    even = src.size & ~1
    pairs, dst = src[:even].view(np.uint16), flat[:even].view(np.uint16)
    step = _SLICE // 2
    for i in range(0, pairs.size, step):
        # No uint16 is out of range; "clip" skips the default's output buffer.
        np.take(pair, pairs[i : i + step], out=dst[i : i + step], mode="clip")
    if even < src.size:
        flat[-1] = table[src[-1]]
    return GrayImage(pixels=out)


def map_to_class_means(img: GrayImage, t: ThresholdSet) -> np.ndarray:
    """Per-pixel real-valued class means (no rounding), for use with psnr().

    Means are checked as quantize() checks them: one that is NaN or rounds
    outside [0, 255] raises ValueError.
    """
    _rounded_means(t)
    _check_range(img, t)
    return _class_table(t, np.asarray(t.means, dtype=np.float64))[img.pixels]


def cut_set_errors(
    h: Histogram, tsets: Iterable[ThresholdSet]
) -> list[tuple[Fraction, int]]:
    """Exact squared error of each cut set, summed from the histogram alone.

    For every ThresholdSet returns (scatter, sse_rounded): the total
    squared deviation of the pixels about their real class means, as a
    Fraction, and about the class means rounded half-up to integers, as an
    int.  Each class reads its count n and its sums s1 = sum(c*g) and
    s2 = sum(c*g*g) off h.running_sums, so a cut set costs O(M)
    whatever the pixel count.  The class means are s1/n; t.means is
    not read.  Empty classes contribute nothing.  Raises RangeMismatch
    when the histogram has counts above a set's top.
    """
    return [(Fraction(num, den), sse) for num, den, sse in _error_sums(h, tsets)]


def _error_sums(h: Histogram, tsets: Iterable[ThresholdSet]):
    """Yield cut_set_errors' (scatter, sse_rounded) of each set as (num, den, sse_rounded).

    The scatter W, the within-class sum of squares, is num/den: the sum of
    (n*s2 - s1^2)/n over the classes, left unreduced over the product of
    the class counts.  psnr_at_levels carries the same triple down its walk.
    """
    cn, c1, c2 = h.running_sums
    last = h.G - 1
    for t in tsets:
        if h.N > cn[min(t.top, last) + 1]:
            raise RangeMismatch(f"histogram has counts above threshold range top {t.top}")
        num, den = 0, 1
        sse_rounded = 0
        lo = 0
        for hi in t.cuts + (t.top,):
            hi = min(hi, last) + 1
            n = cn[hi] - cn[lo]
            if n:
                s1 = c1[hi] - c1[lo]
                s2 = c2[hi] - c2[lo]
                num = num * n + (n * s2 - s1 * s1) * den
                den *= n
                sse_rounded += s2 + _rounded_sse(n, s1)
            lo = hi
        yield num, den, sse_rounded


def _rounded_sse(n: int, s1: int) -> int:
    """A class's squared error about its mean rounded half-up, less its s2.

    For a class of n pixels with gray sum s1 and squared-gray sum s2, the
    error about the integer r is s2 - 2*r*s1 + r*r*n; this is all of it
    but s2, which the callers sum once.
    """
    r = (2 * s1 + n) // (2 * n)  # half-up, as quantize() rounds
    return r * (r * n - 2 * s1)


def _psnr_pairs(n_total: int, num: int, den: int, sse_rounded: int):
    """level_stats' (MSE, PSNR) pairs of an _error_sums triple over N pixels.

    True division of ints is correctly rounded, so num / (den * N) is the
    float of the reduced Fraction without its gcd.
    """
    return _mse_psnr(num / (den * n_total)), _mse_psnr(sse_rounded / n_total)


def level_stats(h: Histogram, tsets: Iterable[ThresholdSet]) -> list[tuple[tuple, tuple]]:
    """(MSE, PSNR) of each cut set with real and with rounded class means, and its (v, w, q).

    For the image h was taken from and a set whose means are its class
    means (as thresholds_at and exhaustive_otsu give), the pairs are
    psnr(img, map_to_class_means(img, t)) and psnr(img, quantize(img, t))
    without a pass over the pixels.  Each MSE is the exact error sum of
    cut_set_errors over N, rounded once, so the real-mean value can differ
    from the pixel route's float sum in the last digit.

    v = W/(N - M) and w = (T - W)/(M - 1) are the unbiased within- and
    between-class variance estimates, q = v/w, with W the within-class and
    T the total sum of squares and M = t.M, empty classes included.  Each
    is one int true division of the exact sums, so it is correctly rounded.
    """
    tsets = list(tsets)
    n_total, nt = h.N, h.nt  # nt = N*T
    if n_total == 0:
        raise EmptyHistogram("histogram holds no pixels")
    return [
        (_psnr_pairs(n_total, num, den, sse), _estimates(n_total, nt, t.M, num, den))
        for t, (num, den, sse) in zip(tsets, _error_sums(h, tsets))
    ]


def _estimates(n: int, nt: int, m: int, num: int, den: int):
    """(v, w, q) of m classes over n pixels with W = num/den and N*T = nt.

    With b = N*den*(T - W), an int: v = num/(den*(N - M)),
    w = b/(N*den*(M - 1)) and q = N*(M - 1)*num/((N - M)*b).  Edge values
    are engine._variances' and oracle.naive_variances': v is 0.0 when
    N <= M (with no empty class, each class then holds one pixel and
    W = 0), w and q are None for one class, and q is None when w is 0 and
    0.0 when W is.
    """
    v = num / (den * (n - m)) if n > m else 0.0
    if m < 2:
        return v, None, None
    b = nt * den - n * num
    w = b / (n * den * (m - 1))
    if not b:
        return v, w, None
    return v, w, (n * (m - 1) * num / ((n - m) * b) if n > m else 0.0)


def psnr_at_levels(
    trace: MergeTrace, levels: Iterable[int]
) -> list[tuple[ThresholdSet, tuple[tuple[float, float], tuple[float, float]]]]:
    """thresholds_at_levels() for each of `levels`, each with its level_stats() pairs.

    The errors follow the same walk up the trace that finds the cuts, one
    split per level, so no level's classes are summed again.  The walk
    carries _error_sums' triple (num, den, sse_rounded), W = num/den over
    the product den of the class counts.  When the class (n0, s0) splits
    into (na, sa) and (nb, sb), W drops by the exact cost of the merge
    being undone, e^2/(na*nb*n0) with e = nb*sa - na*sb, of which the merge
    loop's d_sq is the float.  With rest = den // n0, num becomes
    (num*na*nb - e^2*rest) // n0 over rest*na*nb, an exact division, as
    W*den is an int at every level; sse_rounded changes by three
    _rounded_sse terms.  So every pair is the float level_stats gives.

    Every level list takes this one route, K0 - 1 steps at most.  On a
    sparse list far up the trace, as [K0], that costs up to about twice
    what level_stats' sums of the asked classes would.
    """
    levels = [check_level(m, len(trace.boundary_gray) + 1) for m in levels]
    h = trace.histogram
    _, c1, c2 = h.running_sums
    n_total = h.N
    num, den = h.nt, n_total  # W*den of the one class
    sse = c2[-1] + _rounded_sse(n_total, c1[-1])
    found = {}
    for splits, tset in walk_splits(trace, levels):
        for na, sa, nb, sb in splits:
            n0, nab, e = na + nb, na * nb, nb * sa - na * sb
            rest = den // n0
            num, den = (num * nab - e * e * rest) // n0, rest * nab
            sse += _rounded_sse(na, sa) + _rounded_sse(nb, sb) - _rounded_sse(n0, sa + sb)
        found[tset.M] = tset, _psnr_pairs(n_total, num, den, sse)
    return [found[m] for m in levels]


def _check_dims(a, b):
    if a.bits.shape != b.bits.shape:
        raise DimensionMismatch(f"mask shapes differ: {a.bits.shape} vs {b.bits.shape}")


def misclassification_error(ref: BinaryMask, test: BinaryMask) -> float:
    """Fraction of pixels whose foreground/background label disagrees."""
    _check_dims(ref, test)
    mismatches = int(np.count_nonzero(ref.bits != test.bits))
    return mismatches / ref.bits.size


def relative_area_error(ref: BinaryMask, test: BinaryMask) -> float:
    """Normalized foreground-area discrepancy; 0 when both areas are empty."""
    _check_dims(ref, test)
    a_ref = int(np.count_nonzero(ref.bits))
    a_test = int(np.count_nonzero(test.bits))
    if a_ref == 0 and a_test == 0:
        return 0.0
    if a_ref > a_test:
        return (a_ref - a_test) / a_ref
    return (a_test - a_ref) / a_test


def psnr(src: GrayImage, test) -> tuple[float, float]:
    """Mean square error and peak signal-to-noise ratio in dB.

    `test` may be a GrayImage or a real-valued array of the same shape
    (e.g. class means from map_to_class_means).  A zero-error pair
    reports PSNR as math.inf.
    """
    t = test.pixels if isinstance(test, GrayImage) else np.asarray(test)
    if t.shape != src.pixels.shape:
        raise DimensionMismatch(f"image shapes differ: {src.pixels.shape} vs {t.shape}")
    diff = src.pixels.astype(np.float64) - t.astype(np.float64)
    return _mse_psnr(float(np.mean(diff * diff)))


def _mse_psnr(mse: float) -> tuple[float, float]:
    if mse == 0.0:
        return 0.0, math.inf
    return mse, 10.0 * math.log10(PEAK * PEAK / mse)
