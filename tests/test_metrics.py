import math
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import histoseg.metrics
from histoseg.engine import (
    MAX_PIXELS,
    EmptyHistogram,
    Histogram,
    InvalidLevel,
    ThresholdSet,
    run_dendrogram,
    thresholds_at,
    thresholds_at_levels,
)
from histoseg.metrics import (
    BinaryMask,
    DimensionMismatch,
    GrayImage,
    RangeMismatch,
    cut_set_errors,
    foreground_of,
    level_stats,
    map_to_class_means,
    misclassification_error,
    psnr,
    psnr_at_levels,
    quantize,
    relative_area_error,
)
from histoseg.pgm import histogram_of, read_pgm

from helpers import (
    dense_histogram,
    exact_variances,
    hist_from,
    merge_order_families,
    rel_err,
    small_image,
    sparse_histogram,
    standard_image,
)


def gray(*rows):
    return GrayImage(pixels=np.array(rows, dtype=np.int64))


def mask(*rows):
    return BinaryMask(bits=np.array(rows, dtype=bool))


def rounded_means_reference(px, t) -> bytes:
    """The rounded means indexed by each pixel's class, in NumPy."""
    classes = np.searchsorted(np.array(t.cuts, dtype=np.int64), px)
    return np.floor(np.asarray(t.means) + 0.5).astype(np.uint8)[classes].tobytes()


class TestGrayImage:
    def test_shape_and_dtype(self):
        img = gray([0, 128], [128, 255])
        assert (img.width, img.height) == (2, 2)
        assert img.pixels.dtype == np.uint8

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            GrayImage(pixels=np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            GrayImage(pixels=np.array([[0.5]]))
        with pytest.raises(ValueError):
            GrayImage(pixels=np.array([[300]]))
        with pytest.raises(ValueError):
            GrayImage(pixels=np.array([[-1]]))


class TestQuantize:
    def test_constant_image_fixed_point(self):
        img = gray([9, 9], [9, 9])
        t = ThresholdSet(cuts=(9,), means=(9.0, 12.0), top=12)
        assert np.array_equal(quantize(img, t).pixels, img.pixels)

    def test_rounding_half_up(self):
        img = gray([1, 1, 2, 2, 5])
        t = ThresholdSet(cuts=(2,), means=(1.5, 5.0), top=5)
        assert quantize(img, t).pixels.tolist() == [[2, 2, 2, 2, 5]]

    def test_singleton_classes(self):
        img = gray([0, 255])
        t = ThresholdSet(cuts=(0,), means=(0.0, 255.0), top=255)
        assert quantize(img, t).pixels.tolist() == [[0, 255]]

    def test_range_mismatch(self):
        t = ThresholdSet(cuts=(2,), means=(1.5, 5.0), top=5)
        with pytest.raises(RangeMismatch):
            quantize(gray([1, 7]), t)
        with pytest.raises(RangeMismatch):
            map_to_class_means(gray([1, 7]), t)

    def test_range_mismatch_only_in_last_slice(self):
        # 65537 pixels make one full slice of pairs and an odd last pixel,
        # the lowest gray above top.
        px = np.zeros((1, 65537), dtype=np.uint8)
        px[0, -1] = 6
        t = ThresholdSet(cuts=(2,), means=(1.5, 5.0), top=5)
        with pytest.raises(RangeMismatch, match=r"^pixel value 6 exceeds threshold range top 5$"):
            quantize(GrayImage(pixels=px), t)

    def test_range_mismatch_in_transposed_view(self):
        # Pixel 399 of the raster, but of the view's row-major order the
        # 119701st, in its second slice of pairs.
        px = np.ones((300, 400), dtype=np.uint8)
        px[0, -1] = 9
        img = GrayImage(pixels=px.T)
        assert not img.pixels.flags.c_contiguous
        t = ThresholdSet(cuts=(2,), means=(1.5, 5.0), top=5)
        with pytest.raises(RangeMismatch, match=r"^pixel value 9 exceeds threshold range top 5$"):
            quantize(img, t)

    @pytest.mark.parametrize("top, scans", [(254, 1), (255, 0)])
    @pytest.mark.parametrize("mapper", [quantize, map_to_class_means])
    def test_range_scan_only_below_top_255(self, monkeypatch, mapper, top, scans):
        # No uint8 pixel exceeds 255, so a top of 255 needs no scan of the raster.
        counted = []
        real = histoseg.metrics._check_range

        class Pixels:  # the raster, counting its max() scans
            def __init__(self, px):
                self.px, self.scans = px, 0

            def max(self):
                self.scans += 1
                return self.px.max()

        def spy(img, t):
            pixels = Pixels(img.pixels)
            real(SimpleNamespace(pixels=pixels), t)
            counted.append(pixels.scans)

        monkeypatch.setattr(histoseg.metrics, "_check_range", spy)
        px = np.random.default_rng(431).integers(0, top + 1, size=(63, 65), dtype=np.uint8)
        t = ThresholdSet(cuts=(99, 200), means=(49.5, 150.0, 227.5), top=top)
        got = mapper(GrayImage(pixels=px), t)
        assert counted == [scans]
        if mapper is quantize:
            assert got.pixels.tobytes() == rounded_means_reference(px, t)

    def test_idempotent_with_engine_thresholds(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            img = small_image(rng)
            trace = run_dendrogram(histogram_of(img))
            for m in (2, 3):
                if m > trace.initial.K:
                    continue
                t = thresholds_at(trace, m)
                once = quantize(img, t)
                twice = quantize(once, t)
                assert np.array_equal(once.pixels, twice.pixels)

    def test_matches_rounded_mean_lookup(self):
        rng = np.random.default_rng(20261018)
        shapes = [tuple(int(n) for n in rng.integers(1, 40, size=2)) for _ in range(12)]
        images = [standard_image(128)] + [
            GrayImage(pixels=rng.integers(0, 256, size=shape)) for shape in shapes
        ]
        for img in images:
            trace = run_dendrogram(histogram_of(img))
            tsets = thresholds_at_levels(trace, range(1, trace.initial.K + 1))
            for px in (img.pixels, img.pixels.T, img.pixels[:, ::-1]):
                view = GrayImage(pixels=px)
                for t in tsets:
                    got = quantize(view, t)
                    assert isinstance(got, GrayImage)
                    assert got.pixels.dtype == np.uint8 and got.pixels.shape == px.shape
                    assert got.pixels.tobytes() == rounded_means_reference(px, t)

    def test_matches_reference_across_slice_boundaries(self):
        # quantize maps 32 Ki pairs, 64 Ki pixels, at a time; these rasters end
        # just before, at and just after a slice boundary, or span several.
        rng = np.random.default_rng(20261019)
        views = [rng.integers(0, 256, size=shape, dtype=np.uint8)
                 for shape in ((1, 65535), (1, 65536), (1, 65537), (256, 256), (256, 257))]
        views.append(rng.integers(0, 256, size=(300, 300), dtype=np.uint8).T)
        for px in views:
            img = GrayImage(pixels=px)
            trace = run_dendrogram(histogram_of(img))
            for t in thresholds_at_levels(trace, (2, 7, trace.initial.K)):
                got = quantize(img, t).pixels
                assert got.shape == px.shape
                assert got.tobytes() == rounded_means_reference(px, t)

    def test_means_must_round_to_a_gray(self):
        # A hand-built set may carry any mean; one that rounds past 255 would
        # overflow its pair table entry, 300 << 8 | 300, and map by position.
        # map_to_class_means checks alike, so psnr never sees a NaN mean.
        img = gray([0, 10, 200, 255])
        for mean in (300.0, -3.0, 255.6, math.nan):
            t = ThresholdSet(cuts=(), means=(mean,), top=255)
            for mapping in (quantize, map_to_class_means):
                with pytest.raises(ValueError, match=rf"^class mean {mean} does not round"):
                    mapping(img, t)
        for mean, want in ((255.4, 255), (-0.4, 0)):
            t = ThresholdSet(cuts=(), means=(mean,), top=255)
            assert quantize(img, t).pixels.tolist() == [[want] * 4]

    def test_map_to_class_means_is_real_valued(self):
        img = gray([1, 1, 2, 2, 5])
        t = ThresholdSet(cuts=(2,), means=(1.5, 5.0), top=5)
        mapped = map_to_class_means(img, t)
        assert mapped.tolist() == [[1.5, 1.5, 1.5, 1.5, 5.0]]


class TestQuantizePairPath:
    """quantize maps the raster as uint16 pairs, with an odd last pixel on its own."""

    @staticmethod
    def assert_reference_parity(px):
        img = GrayImage(pixels=px)
        trace = run_dendrogram(histogram_of(img))
        k0 = trace.initial.K
        for t in thresholds_at_levels(trace, (min(2, k0), min(7, k0), k0)):
            got = quantize(img, t).pixels
            assert got.shape == px.shape
            assert got.tobytes() == rounded_means_reference(px, t)

    def test_p5_raster_at_odd_offset(self):
        # As in every threshold-2048 op: a 17-byte header puts the raster at
        # an odd address, so the pairs are an unaligned uint16 view.
        rng = np.random.default_rng(401)
        px = rng.integers(0, 256, size=(301, 523), dtype=np.uint8)
        header = b"P5 523 301 255\n"
        img = read_pgm(header + px.tobytes())
        assert img.pixels.ctypes.data % 2 == 1 and px.size % 2 == 1
        self.assert_reference_parity(img.pixels)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 5), (257, 255)], ids=str)
    def test_odd_pixel_total(self, shape):
        rng = np.random.default_rng(409)
        self.assert_reference_parity(rng.integers(0, 256, size=shape, dtype=np.uint8))

    @pytest.mark.parametrize("shape", [(255, 257), (256, 300)], ids=str)
    def test_transposed_view(self, shape):
        px = np.random.default_rng(419).integers(0, 256, size=shape, dtype=np.uint8).T
        assert not px.flags.c_contiguous
        self.assert_reference_parity(px)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (257, 255)], ids=str)
    def test_range_mismatch_in_odd_last_pixel(self, shape):
        px = np.zeros(shape, dtype=np.uint8)
        px[-1, -1] = 6
        t = ThresholdSet(cuts=(2,), means=(1.5, 5.0), top=5)
        with pytest.raises(RangeMismatch, match=r"^pixel value 6 exceeds threshold range top 5$"):
            quantize(GrayImage(pixels=px), t)

    def test_top_255_maps_every_gray(self):
        px = np.random.default_rng(421).integers(0, 256, size=(63, 65), dtype=np.uint8)
        px[0, 0], px[-1, -1] = 255, 255
        t = ThresholdSet(cuts=(99, 200), means=(49.5, 150.0, 227.5), top=255)
        assert quantize(GrayImage(pixels=px), t).pixels.tobytes() == rounded_means_reference(px, t)


class TestMisclassificationError:
    def test_identical_masks(self):
        m = mask([True, False], [False, True])
        assert misclassification_error(m, m) == 0.0

    def test_complemented_masks(self):
        m = mask([True, False], [False, True])
        inv = BinaryMask(bits=~m.bits)
        assert misclassification_error(m, inv) == 1.0

    def test_quarter_disagreement(self):
        ref = mask([True, True, False, False])
        test = mask([True, False, False, False])
        assert misclassification_error(ref, test) == 0.25

    def test_symmetric_under_joint_complement(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            a = BinaryMask(bits=rng.random((5, 7)) < 0.5)
            b = BinaryMask(bits=rng.random((5, 7)) < 0.5)
            direct = misclassification_error(a, b)
            flipped = misclassification_error(BinaryMask(bits=~a.bits), BinaryMask(bits=~b.bits))
            assert direct == flipped
            assert 0.0 <= direct <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            misclassification_error(mask([True]), mask([True, False]))


class TestRelativeAreaError:
    def test_half_area_lost(self):
        assert relative_area_error(mask([True, True, False, False]),
                                   mask([True, False, False, False])) == 0.5

    def test_equal_areas(self):
        assert relative_area_error(mask([True, False]), mask([False, True])) == 0.0

    def test_both_empty(self):
        assert relative_area_error(mask([False, False]), mask([False, False])) == 0.0

    def test_exactly_one_empty(self):
        assert relative_area_error(mask([False, False]), mask([True, False])) == 1.0
        assert relative_area_error(mask([True, False]), mask([False, False])) == 1.0

    def test_bounds(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            a = BinaryMask(bits=rng.random((4, 4)) < 0.5)
            b = BinaryMask(bits=rng.random((4, 4)) < 0.5)
            assert 0.0 <= relative_area_error(a, b) <= 1.0


class TestPsnr:
    def test_identical_images(self):
        img = gray([3, 5], [7, 9])
        mse, db = psnr(img, img)
        assert mse == 0.0
        assert math.isinf(db)

    def test_uniform_unit_error(self):
        src = gray([10] * 8)
        test = gray([11] * 8)
        mse, db = psnr(src, test)
        assert mse == 1.0
        assert db == pytest.approx(10 * math.log10(255**2), rel=1e-12)
        assert db == pytest.approx(48.1308, abs=1e-4)

    def test_real_mean_example(self):
        src = gray([1, 1, 2, 2, 5])
        mapped = map_to_class_means(src, ThresholdSet(cuts=(2,), means=(1.5, 5.0), top=5))
        mse, db = psnr(src, mapped)
        assert mse == pytest.approx(0.2, rel=1e-12)
        assert db == pytest.approx(10 * math.log10(255**2 / 0.2), rel=1e-12)
        assert db == pytest.approx(55.12, abs=1e-2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            psnr(gray([1, 2]), gray([1], [2]))

    def test_monotone_in_class_count(self):
        rng = np.random.default_rng(73)
        img = small_image(rng, side=10, min_distinct=6, max_distinct=12)
        trace = run_dendrogram(histogram_of(img))
        values = []
        for m in range(2, trace.initial.K + 1):
            _, db = psnr(img, map_to_class_means(img, thresholds_at(trace, m)))
            values.append(db)
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestHistogramPsnr:
    """level_stats' (MSE, PSNR) pairs, read off the histogram with no pixel pass."""

    def test_worked_example(self):
        h = hist_from({1: 2, 2: 2, 5: 1})
        t = ThresholdSet(cuts=(2,), means=(1.5, 5.0), top=5)
        assert cut_set_errors(h, [t]) == [(1, 2)]  # 1.5 rounds up to 2
        [(((mse, db), (mse_r, db_r)), _)] = level_stats(h, [t])
        assert (mse, mse_r) == (0.2, 0.4)
        assert db == 10 * math.log10(255**2 / 0.2)
        assert db_r == 10 * math.log10(255**2 / 0.4)

    def test_zero_error_is_infinite(self):
        h = hist_from({3: 4, 9: 2})
        [(((mse, db), (mse_r, db_r)), _)] = level_stats(
            h, [ThresholdSet(cuts=(3,), means=(3.0, 9.0), top=9)])
        assert mse == mse_r == 0.0 and math.isinf(db) and math.isinf(db_r)

    def test_matches_pixel_route_on_standard_image(self):
        img = standard_image()
        h = histogram_of(img)
        trace = run_dendrogram(h)
        tsets = [thresholds_at(trace, m) for m in range(2, 26)]
        for t, ((real, rounded), _) in zip(tsets, level_stats(h, tsets)):
            pixel_real = psnr(img, map_to_class_means(img, t))
            assert rel_err(real[0], pixel_real[0]) <= 1e-12
            assert rel_err(real[1], pixel_real[1]) <= 1e-12
            assert rounded == psnr(img, quantize(img, t))

    def test_monotone_in_class_count_exactly(self):
        # the same 50 images as acceptance criterion C5
        rng = np.random.default_rng(20250814)
        for _ in range(50):
            img = small_image(rng, side=12, min_distinct=8, max_distinct=40)
            h = histogram_of(img)
            trace = run_dendrogram(h)
            tsets = [thresholds_at(trace, m) for m in range(2, trace.initial.K + 1)]
            values = [real[1] for (real, _), _ in level_stats(h, tsets)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_empty_class_contributes_nothing(self):
        h = hist_from({1: 2, 2: 2, 5: 1})
        with_gap = ThresholdSet(cuts=(2, 3), means=(1.5, 3.0, 5.0), top=5)
        plain = ThresholdSet(cuts=(2,), means=(1.5, 5.0), top=5)
        assert cut_set_errors(h, [with_gap, plain]) == [(1, 2), (1, 2)]

    def test_real_mse_is_the_exact_scatter_over_n_rounded_once(self):
        # num / (den * N) of ints against float() of the reduced Fraction,
        # over cut sets nested or not, some with empty classes
        rng = random.Random(131)
        hists = [sparse_histogram(rng, max_bins=30, max_pixels=300) for _ in range(40)]
        hists += [dense_histogram(rng, bins=rng.randint(2, 256), max_count=5000)
                  for _ in range(10)]
        for _ in range(40):
            levels = rng.sample(range(64), rng.randint(4, 20))
            hists.append(hist_from({g: rng.choice((1, 2, 3, 6)) for g in levels}))
        for _ in range(40):
            k = rng.randint(2, 40)
            hi = min(2**60, MAX_PIXELS // k)
            hists.append(hist_from({g: rng.randint(2**50, hi) for g in rng.sample(range(256), k)}))
        checked = 0
        for h in hists:
            n_total = h.N
            top = h.occupied[-1]
            tsets = []
            for _ in range(8):
                cuts = tuple(sorted(rng.sample(range(top), rng.randint(0, min(top, 12)))))
                last = rng.choice((top, h.G - 1, h.G + 3))
                tsets.append(ThresholdSet(cuts=cuts, means=(0.0,) * (len(cuts) + 1), top=last))
            trace = run_dendrogram(h)
            tsets += thresholds_at_levels(trace, range(1, min(len(trace.records) + 1, 30) + 1))
            errors = cut_set_errors(h, tsets)
            # an independent reference: per-class sums from the raw bins
            graded = list(enumerate(h.counts))
            for t, pair in zip(tsets, errors):
                scatter = Fraction(0)
                sse = lo = 0
                for hi in t.cuts + (t.top,):
                    bins = graded[lo : hi + 1]
                    lo = hi + 1
                    n = sum(c for _, c in bins)
                    if n:
                        s1 = sum(c * g for g, c in bins)
                        s2 = sum(c * g * g for g, c in bins)
                        r = (2 * s1 + n) // (2 * n)
                        scatter += Fraction(n * s2 - s1 * s1, n)
                        sse += s2 - 2 * r * s1 + r * r * n
                assert pair == (scatter, sse)
            for (scatter, _), ((real, _), _) in zip(errors, level_stats(h, tsets)):
                mse = float(scatter / n_total)
                assert real[0] == mse
                db = 10 * math.log10(255**2 / mse) if mse else math.inf
                assert real == (mse, db)
                checked += 1
        assert checked > 2000

    def test_range_mismatch(self):
        h = hist_from({1: 1, 7: 1})
        with pytest.raises(RangeMismatch):
            level_stats(h, [ThresholdSet(cuts=(2,), means=(1.0, 5.0), top=5)])

    def test_empty_histogram(self):
        with pytest.raises(EmptyHistogram):
            level_stats(hist_from({}), [ThresholdSet(cuts=(2,), means=(1.0, 5.0), top=5)])


class TestLevelStats:
    def test_variances_are_the_correctly_rounded_definitions(self):
        """v, w and q equal float(Fraction) of the paper's estimators, bit for bit.

        At every level of each trace, and within 1e-13 of the float
        recursion trace.records rolls.
        """
        hists = [h for family in merge_order_families().values() for h in family]
        hists += [histogram_of(standard_image(size, seed))
                  for size in (64, 128) for seed in (7, 11)]
        checked = 0
        for h in hists:
            trace = run_dendrogram(h)
            levels = range(1, len(trace.boundary_gray) + 2)
            tsets = thresholds_at_levels(trace, levels)
            stats = level_stats(h, tsets)
            w0 = trace.w0
            # the record that left m classes, for m = 1 .. K0 - 1, then the start state
            rolls = [(r.v, r.w, r.q) for r in reversed(trace.records)]
            rolls.append((0.0, w0, 0.0 if w0 else None))
            for t, (_, vwq), rolled_vwq in zip(tsets, stats, rolls, strict=True):
                assert vwq == exact_variances(h, t)
                for got, rolled in zip(vwq, rolled_vwq):
                    assert (got is None) == (rolled is None)
                    assert got is None or rel_err(got, rolled) <= 1e-13
                checked += 1
        assert checked > 9_000

    def test_edge_values(self):
        def stats(h, cuts, top):
            t = ThresholdSet(cuts=cuts, means=(0.0,) * (len(cuts) + 1), top=top)
            [(_, vwq)] = level_stats(h, [t])
            assert vwq == exact_variances(h, t)
            return vwq

        five = hist_from({1: 2, 2: 2, 5: 1})
        # M = K0: W = 0, so v and q are 0.0
        assert stats(five, (1, 2), 5) == (0.0, 5.4, 0.0)
        # N = M: one pixel per class, and v = 0.0 with no division by N - M
        assert stats(hist_from({0: 1, 3: 1, 7: 1}), (0, 3), 7) == (0.0, 37 / 3, 0.0)
        # one class: w and q are None, and v is W/(N - 1)
        assert stats(five, (), 5) == (2.7, None, None)
        assert stats(hist_from({4: 1}), (), 4) == (0.0, None, None)
        # every pixel in one class of two: T = W, so w = 0 and q is None
        assert stats(hist_from({1: 2, 3: 1}), (0,), 3) == (8 / 3, 0.0, None)
        # W > 0 with classes to spare: q is v/w
        assert stats(five, (2,), 5) == (1 / 3, 9.8, 5 / 147)
        # bounds past the last bin are clamped: the last class spans grays 2..3
        four = Histogram((1, 1, 1, 1))
        assert stats(four, (1,), 9) == (0.5, 4.0, 0.125)
        assert stats(four, (), 4) == stats(four, (), 3) == (5 / 3, None, None)
        # the class (3, 5] lies wholly above the last bin: empty, yet counted in M
        assert stats(four, (3, 5), 9) == (5.0, 0.0, None)


class TestForegroundOf:
    def test_polarity(self):
        img = gray([0, 1], [2, 0])
        assert foreground_of(img).bits.tolist() == [[False, True], [True, False]]
        assert foreground_of(img, invert=True).bits.tolist() == [[True, False], [False, True]]

    @pytest.mark.parametrize("invert", [False, True])
    def test_builds_one_raster_sized_mask(self, invert):
        px = np.random.default_rng(353).integers(0, 3, size=(2048, 2048), dtype=np.uint8)
        img = GrayImage(pixels=px)
        tracemalloc.start()
        try:
            bits = foreground_of(img, invert).bits
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * px.nbytes
        want = ~(px != 0) if invert else px != 0
        assert bits.dtype == bool and np.array_equal(bits, want)


class TestPsnrAtLevels:
    def test_worked_example(self):
        trace = run_dendrogram(hist_from({1: 2, 2: 2, 5: 1}))
        [(t2, ((mse, db), (mse_r, db_r))), (t1, _)] = psnr_at_levels(trace, [2, 1])
        assert (t2.cuts, t2.means, t1.cuts) == ((2,), (1.5, 5.0), ())
        assert (mse, mse_r) == (0.2, 0.4)
        assert (db, db_r) == (10 * math.log10(255**2 / 0.2), 10 * math.log10(255**2 / 0.4))

    def test_matches_level_stats_at_every_level(self):
        """Cut sets and (MSE, PSNR) pairs equal level_stats' exactly, levels 1..K0.

        The carry is checked on every level, and on a few far apart.
        """
        rng = random.Random(137)
        hists = [histogram_of(standard_image(size, seed))
                 for size in (64, 128, 256, 512) for seed in (1, 7)]
        hists += [h for family in merge_order_families().values() for h in family]
        hists += [dense_histogram(rng, bins=rng.randint(2, 256), max_count=5000)
                  for _ in range(6)]
        hists += [sparse_histogram(rng, max_bins=60, max_pixels=2000) for _ in range(40)]
        for _ in range(40):  # counts up to 2^58, so every sum is a big int
            k = rng.randint(2, 31)
            hists.append(hist_from({g: rng.randint(1, 2**rng.randint(40, 58))
                                    for g in rng.sample(range(256), k)}))
        hists.append(dense_histogram(rng, bins=256, max_count=2**54))
        checked = 0
        for h in hists:
            trace = run_dendrogram(h)
            k0 = len(trace.records) + 1
            # every level, some twice: psnr_at_levels carries the errors
            dense = list(range(1, k0 + 1)) + [rng.randint(1, k0) for _ in range(3)]
            rng.shuffle(dense)
            # a few levels up to K0: the carry crosses the unasked ones
            sparse = rng.sample(range(1, k0 + 1), min(k0, rng.randint(1, 4))) + [k0]
            for levels in (dense, sparse):
                tsets = thresholds_at_levels(trace, levels)
                pairs = [pairs for pairs, _ in level_stats(h, tsets)]
                assert psnr_at_levels(trace, levels) == list(zip(tsets, pairs))
            checked += k0
        assert checked >= 10_000

    def test_every_level_list_carries_the_errors(self, monkeypatch):
        # No list falls back to summing its classes, not even a few far up.
        trace = run_dendrogram(histogram_of(standard_image(256)))
        k0 = len(trace.boundary_gray) + 1

        def no_sums(*args):
            raise AssertionError("psnr_at_levels summed classes")

        monkeypatch.setattr("histoseg.metrics._error_sums", no_sums)
        for levels in ([], [1], [4], [2, k0], [k0], [2, 9, 60, 150, k0]):
            assert [t.M for t, _ in psnr_at_levels(trace, levels)] == levels

    def test_levels_are_checked(self):
        trace = run_dendrogram(hist_from({1: 2, 2: 2, 5: 1}))
        assert psnr_at_levels(trace, []) == []
        for bad in (0, 4, 2.0, True):
            with pytest.raises(InvalidLevel):
                psnr_at_levels(trace, [2, bad])
