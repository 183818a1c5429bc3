import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from histoseg.engine import (
    EmptyHistogram,
    Histogram,
    InvalidLevel,
    run_dendrogram,
    threshold_set,
    thresholds_at,
)
from histoseg.metrics import cut_set_errors
from histoseg.oracle import exhaustive_otsu
from histoseg.pgm import histogram_of

from helpers import (
    dense_histogram,
    hist_from,
    merge_order_families,
    sparse_histogram,
    standard_image,
)

EXAMPLE = hist_from({1: 2, 2: 2, 5: 1})


def exact_otsu_cuts(h, m):
    """Reference optimum: first cut set, in lexicographic order, of greatest sum(s_k^2/n_k).

    Enumerates every cut set, takes each class's integer sums off
    h.running_sums and compares as Fractions, so exact ties are decided
    exactly.
    """
    cn, c1, _ = h.running_sums
    occupied = h.occupied
    best = best_cuts = None
    for cuts in itertools.combinations(occupied[:-1], m - 1):
        edges = [0, *(cut + 1 for cut in cuts), occupied[-1] + 1]
        score = sum(Fraction((c1[b] - c1[a]) ** 2, cn[b] - cn[a]) for a, b in zip(edges, edges[1:]))
        if best is None or score > best:
            best, best_cuts = score, cuts
    return best_cuts


class TestExhaustiveOtsu:
    def test_two_spikes(self):
        h = hist_from({0: 1, 255: 1})
        t = exhaustive_otsu(h, 2)
        assert t.cuts == (0,)
        # the unique separating cut leaves zero within-class scatter
        assert cut_set_errors(h, [t])[0][0] == 0

    def test_three_bin_example(self):
        t = exhaustive_otsu(EXAMPLE, 2)
        assert t.cuts == (2,)
        assert t.means == (1.5, 5.0)

    def test_maximal_refinement_has_zero_scatter(self):
        h = hist_from({3: 4, 9: 2, 200: 7})
        t = exhaustive_otsu(h, 3)
        assert cut_set_errors(h, [t])[0][0] == 0

    def test_tie_breaks_lexicographically(self):
        # cuts 0 and 1 classify {0, 2} identically; the smaller set wins
        t = exhaustive_otsu(hist_from({0: 1, 2: 1}), 2)
        assert t.cuts == (0,)

    def test_exact_tie_keeps_smallest_cut_set(self):
        # (5, 15) and (15, 28) score exactly alike; in floats the later one looks larger
        h = hist_from({5: 3, 11: 2, 15: 1, 24: 1, 28: 2, 34: 3})
        assert exact_otsu_cuts(h, 3) == (5, 15)
        assert exhaustive_otsu(h, 3).cuts == (5, 15)

    def test_near_tie_is_settled_exactly(self):
        # a lone middle pixel sides with the heavier spike; at these counts the
        # two cuts' float scores differ by far less than the tie band
        for n in (10**3, 10**6):
            for bins, m, cuts in [
                ({0: n, 1: 1, 2: n + 1}, 2, (1,)),
                ({0: n + 1, 1: 1, 2: n}, 2, (0,)),
                ({0: n, 1: 1, 2: n + 1, 200: 5}, 3, (1, 2)),
                ({0: 5, 100: n, 101: 1, 102: n + 1}, 3, (0, 101)),
            ]:
                h = hist_from(bins)
                assert exact_otsu_cuts(h, m) == cuts
                assert exhaustive_otsu(h, m).cuts == cuts, (bins, m)

    def test_matches_exact_reference_on_tie_prone_histograms(self):
        # few levels and counts from {1, 2, 3, 6} make exact ties common
        rng = random.Random(104)
        searches = 0
        for _ in range(600):
            k = rng.randint(3, 9)
            h = hist_from({g: rng.choice((1, 2, 3, 6)) for g in rng.sample(range(40), k)})
            for m in range(2, min(5, k) + 1):
                assert exhaustive_otsu(h, m).cuts == exact_otsu_cuts(h, m), (h, m)
                searches += 1
        assert searches > 2000

    def test_matches_exact_reference_on_flat_histograms(self):
        # equal counts on consecutive levels tie many cut sets exactly
        searches = 0
        for k in range(3, 15):
            for count in (1, 2):
                h = hist_from({g: count for g in range(k)})
                for m in range(2, min(6, k) + 1):
                    assert exhaustive_otsu(h, m).cuts == exact_otsu_cuts(h, m), (k, count, m)
                    searches += 1
        assert searches == 108

    @pytest.mark.parametrize("k0, scale", [
        pytest.param(k0, scale, id=str(k0) if scale == 1 else f"{k0}-2**51")
        for scale in (1, 2**51) for k0 in (127, 128, 129, 300)
    ])
    def test_matches_exact_reference_across_the_block_seam(self, k0, scale):
        # the score table splits every 128 rows: 127 and 128 occupied levels
        # fit one block, 129 open a second and 300, on 300 gray levels, a
        # third; counts from {1, 2, 3, 6} tie often.  Times 2**51 they take
        # the Python-int class sums, past 2^53 pixels and 2^63 gray
        rng = random.Random(k0)
        grays = max(256, k0)
        h = hist_from({g: scale * rng.choice((1, 2, 3, 6)) for g in rng.sample(range(grays), k0)},
                      grays)
        if scale > 1:
            cn, c1, _ = h.running_sums
            assert cn[-1] >= 2**53 and c1[-1] >= 2**63
        for m in (2, 3):
            assert exhaustive_otsu(h, m).cuts == exact_otsu_cuts(h, m), (k0, m)

    def test_counts_past_2_53_are_exact(self):
        # a float64 running sum past 2^53 rounds, and the difference of two
        # rounded sums once lost a small class: the first raised
        # ZeroDivisionError, the second returned (60, 73, 92)
        for bins, m, cuts in [
            ({154: 24019198012642645, 215: 2, 242: 1}, 3, (154, 215)),
            ({60: 1, 73: 2**56 - 1, 92: 2**56 - 1, 157: 24019198012642645, 214: 2}, 4, (73, 92, 157)),
        ]:
            counts = [bins.get(g, 0) for g in range(256)]
            h = Histogram(counts)
            assert exact_otsu_cuts(h, m) == cuts
            assert exhaustive_otsu(h, m).cuts == cuts, (bins, m)

    def test_matches_exact_reference_at_huge_counts(self):
        # spikes near 2^e beside classes of a few pixels, on both sides of
        # the switch to int64 class sums at a pixel count or gray sum of 2^53
        rng = random.Random(53)
        sides = {False: 0, True: 0}
        for e in range(44, 60):
            for _ in range(12):
                levels = rng.sample(range(rng.choice((16, 256))), rng.randint(3, 8))
                h = hist_from({
                    g: 2**e - rng.randrange(2 ** (e - 4)) if rng.random() < 0.5 else rng.randint(1, 6)
                    for g in levels
                })
                cn, c1, _ = h.running_sums
                for m in range(2, len(levels) + 1):
                    assert exhaustive_otsu(h, m).cuts == exact_otsu_cuts(h, m), (h, m)
                    sides[max(cn[-1], c1[-1]) >= 2**53] += 1
        assert min(sides.values()) > 100, sides

    @pytest.mark.parametrize("m", [3, 25])
    def test_score_table_memory(self, m):
        # the scores and the DP's sweep buffers each hold three quarters of a
        # full 256 x 256 float64 table
        h = dense_histogram(random.Random(89), bins=256)
        tracemalloc.start()
        try:
            exhaustive_otsu(h, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 256 * 256 * 8

    def test_cut_sets_are_identical_to_pinned_digest(self):
        # 2,406 searches over the merge-order families and 144 at paper scale,
        # 256-level images in up to 25 classes, each cut set pinned exactly
        digest = hashlib.sha256()
        for family, hists in merge_order_families().items():
            for index, h in enumerate(hists):
                for m in range(2, min(len(h.occupied), 6) + 1):
                    digest.update(repr((family, index, m, exhaustive_otsu(h, m).cuts)).encode())
        for size in (128, 512, 1024):
            for seed in (7, 11):
                h = histogram_of(standard_image(size, seed))
                for m in range(2, 26):
                    digest.update(repr((size, seed, m, exhaustive_otsu(h, m).cuts)).encode())
        assert digest.hexdigest() == (
            "3aee6f278b94c7b5c63302b2294495adb7bf08b3cacbfad01dde3da1e222c9c4"
        )

    def test_flat_256_levels_in_25_classes(self):
        # the C(25, 6) optima order 19 classes of 10 levels and 6 of 11;
        # the lexicographically smallest puts every 10-level class first
        t = exhaustive_otsu(Histogram((1,) * 256), 25)
        sizes = [hi - lo for lo, hi in zip((-1,) + t.cuts, t.cuts + (t.top,))]
        assert sizes == [10] * 19 + [11] * 6

    def test_no_single_cut_move_improves_dense_optimum(self):
        # comb(255, 4) = 172,061,505 cut sets over the 256 occupied levels
        h = dense_histogram(random.Random(89), bins=256)
        t = exhaustive_otsu(h, 5)
        moved = [
            threshold_set(h, tuple(sorted(t.cuts[:j] + (g,) + t.cuts[j + 1 :])), t.top)
            for j in range(len(t.cuts))
            for g in range(255)
            if g not in t.cuts
        ]
        [(best, _), *others] = cut_set_errors(h, [t, *moved])
        assert len(others) == 4 * 251
        assert all(scatter >= best for scatter, _ in others)

    def test_infeasible(self):
        with pytest.raises(InvalidLevel) as excinfo:
            exhaustive_otsu(EXAMPLE, 4)
        assert str(excinfo.value) == (
            "requested 4 classes but the histogram has only 3 occupied gray levels"
        )
        with pytest.raises(InvalidLevel):
            exhaustive_otsu(EXAMPLE, 1)
        with pytest.raises(EmptyHistogram):
            exhaustive_otsu(Histogram((0,) * 256), 2)

    @pytest.mark.parametrize("m", [2.0, 2.5, True, "2", None])
    def test_non_integer_class_count(self, m):
        with pytest.raises(InvalidLevel, match="class count must be an integer"):
            exhaustive_otsu(EXAMPLE, m)

    def test_numpy_integer_class_count(self):
        assert exhaustive_otsu(EXAMPLE, np.int64(2)) == exhaustive_otsu(EXAMPLE, 2)

    def test_never_beaten_by_engine(self):
        rng = random.Random(97)
        checked = 0
        for _ in range(40):
            h = sparse_histogram(rng, max_bins=10, max_pixels=60)
            k0 = sum(1 for c in h.counts if c)
            trace = run_dendrogram(h)
            for m in range(2, 9):
                if m > k0:
                    continue
                [(oracle_scatter, _), (engine_scatter, _)] = cut_set_errors(
                    h, [exhaustive_otsu(h, m), thresholds_at(trace, m)]
                )
                assert engine_scatter >= oracle_scatter - 1e-9 * max(1.0, oracle_scatter)
                checked += 1
        assert checked > 50


class TestCutSetErrors:
    def test_complements_between_scatter(self):
        h = EXAMPLE
        t = exhaustive_otsu(h, 2)
        gm = sum(g * c for g, c in enumerate(h.counts)) / h.N
        ss_total = sum(c * (g - gm) ** 2 for g, c in enumerate(h.counts))
        between = sum(
            n * (mean - gm) ** 2
            for n, mean in [(4, 1.5), (1, 5.0)]
        )
        [(scatter, _)] = cut_set_errors(h, [t])
        assert float(scatter) == pytest.approx(ss_total - between, rel=1e-12)
