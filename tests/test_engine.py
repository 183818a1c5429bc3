import dataclasses
import hashlib
import json
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from histoseg.engine import (
    MAX_PIXELS,
    EmptyHistogram,
    Histogram,
    InvalidLevel,
    MergeRecord,
    MergeTrace,
    ThresholdSet,
    histogram_from_csv,
    histogram_from_json,
    run_dendrogram,
    threshold_set,
    thresholds_at,
    thresholds_at_levels,
)
from histoseg.metrics import psnr_at_levels
from histoseg.pgm import histogram_of

from helpers import (
    dense_histogram,
    exact_variances,
    hist_from,
    left_indices,
    merge_order_families,
    rel_err,
    replay_thresholds,
    sparse_histogram,
    standard_image,
)

EXAMPLE = hist_from({1: 2, 2: 2, 5: 1})


class TestHistogram:
    def test_basic_properties(self):
        assert EXAMPLE.G == 256
        assert EXAMPLE.N == 5

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            Histogram((1, -1))

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            Histogram(())

    def test_rejects_a_total_past_int64(self):
        # once gave w = inf, then nan, and a to_json() holding NaN
        with pytest.raises(ValueError, match="total count exceeds"):
            hist_from({0: 10**305, 100: 10**305, 101: 5, 255: 10**305})
        with pytest.raises(ValueError, match="total count exceeds"):
            Histogram((2**62, 2**62))

    def test_numpy_counts_become_python_ints(self):
        # int64 addition once wrapped this total to -9223372036854775803,
        # which slipped past the bound
        with pytest.raises(ValueError, match="total count exceeds"):
            Histogram(tuple(np.array([2**62, 2**62, 5])))
        h = Histogram(tuple(np.array([3, 0, 2**62])))
        assert h.counts == (3, 0, 2**62)
        assert all(type(c) is int for c in h.counts)

    @pytest.mark.parametrize(
        "counts", [[1, 2, 3], np.array([1, 2, 3]), (1, 2, 3)], ids=["list", "array", "tuple"]
    )
    def test_counts_are_stored_as_a_tuple(self, counts):
        # a list of counts once left the histogram unhashable
        h = Histogram(counts)
        assert h == Histogram((1, 2, 3)) and type(h.counts) is tuple
        assert hash(h) == hash(Histogram((1, 2, 3)))

    @pytest.mark.parametrize(
        "counts", [(1.5, 2.0, 3.0), (2.0, 1), (np.float64(2.0), 1), (True, 2), (np.True_, 2)]
    )
    def test_rejects_non_integer_counts(self, counts):
        with pytest.raises(ValueError, match="bin counts must be integers"):
            Histogram(counts)

    @pytest.mark.parametrize(
        "bins",
        [{0: 2**62, 255: 2**62 - 1}, {g: (2**63 - 1) // 256 for g in range(256)}],
    )
    def test_total_at_int64_max_keeps_the_trace_finite(self, bins):
        h = hist_from(bins)
        assert h.N <= 2**63 - 1
        trace = run_dendrogram(h)
        values = [trace.ss_total] + [
            x for r in trace.records for x in (r.d_sq, r.v, r.w, r.q) if x is not None
        ]
        assert all(math.isfinite(x) for x in values)

        def reject(constant):
            raise AssertionError(f"{constant} in to_json()")

        json.loads(trace.to_json(), parse_constant=reject)


class TestBuildInitial:
    """The K0-class start state, trace.initial and trace.w0, read off the histogram."""

    def test_three_bin_example(self):
        trace = run_dendrogram(EXAMPLE)
        assert trace.initial.K == 3
        assert trace.to_dict()["grand_mean"] == pytest.approx(2.2, rel=1e-12)
        w0 = trace.w0
        assert w0 == pytest.approx(5.4, rel=1e-9)
        # w0 is correctly rounded: bit for bit the exact recomputation's w
        assert exact_variances(EXAMPLE, thresholds_at(trace, 3)) == (0.0, w0, 0.0)

    def test_single_bin(self):
        trace = run_dendrogram(hist_from({7: 10}))
        assert trace.initial.K == 1
        assert trace.to_dict()["grand_mean"] == 7.0
        assert trace.w0 is None

    def test_all_zero_raises(self):
        with pytest.raises(EmptyHistogram):
            run_dendrogram(Histogram((0,) * 256))

    def test_empty_bins_dropped(self):
        c = run_dendrogram(EXAMPLE).initial
        assert [(r.n, r.g_lo, r.g_hi) for r in c.classes] == [(2, 1, 1), (2, 2, 2), (1, 5, 5)]
        assert [r.gray_sum for r in c.classes] == [2, 4, 5]
        assert sum(r.n for r in c.classes) == c.N


class TestFindMinPair:
    def test_picks_smallest(self):
        # the cheapest pair of EXAMPLE is the first one, (1, 2), cut at gray 1
        records = run_dendrogram(EXAMPLE).records
        first = records[0]
        assert left_indices(records)[0] == 0
        assert first.boundary_gray == 1
        assert first.d_sq == pytest.approx(1.0, rel=1e-9)


class TestMergeStep:
    def test_terminal_merge_drops_w(self):
        trace = run_dendrogram(hist_from({0: 1, 255: 1}))
        assert len(trace.records) == 1
        rec = trace.records[0]
        assert rec.K_after == 1
        assert rec.w is None
        assert rec.q is None


class TestRunDendrogram:
    def test_worked_example_trace(self):
        trace = run_dendrogram(EXAMPLE)
        assert len(trace.records) == 2
        assert [r.d_sq for r in trace.records] == [
            pytest.approx(1.0, rel=1e-9),
            pytest.approx(9.8, rel=1e-9),
        ]
        assert trace.records[-1].v == pytest.approx(2.7, rel=1e-9)
        assert trace.records[-1].w is None
        assert [r.K_after for r in trace.records] == [2, 1]
        assert trace.ss_total == pytest.approx(10.8, rel=1e-12)

    def test_tie_goes_to_lowest_index(self):
        records = run_dendrogram(hist_from({0: 1, 1: 1, 2: 1})).records
        first = records[0]
        assert left_indices(records)[0] == 0
        assert first.boundary_gray == 0

    def test_single_class_histogram(self):
        trace = run_dendrogram(hist_from({7: 10}))
        assert trace.records == ()
        assert trace.to_dict()["merges"] == []

    def test_two_classes(self):
        (rec,) = run_dendrogram(hist_from({3: 2, 9: 1})).records
        assert rec == (1, 3, 24.0, 12.0, None, None, 1)

    @pytest.mark.parametrize(
        "bins, merged",
        [
            ({0: 1, 1: 1, 100: 1}, [(0, 0), (0, 1)]),
            ({0: 1, 100: 1, 101: 1}, [(1, 100), (0, 0)]),
            # the last slot, the first, then a pair whose cost was recomputed
            ({0: 1, 50: 1, 120: 1, 200: 1, 201: 1}, [(3, 200), (0, 0), (1, 120), (0, 50)]),
        ],
    )
    def test_first_and_last_slot_merges(self, bins, merged):
        trace = run_dendrogram(hist_from(bins))
        lefts = left_indices(trace.records)
        assert list(zip(lefts, [r.boundary_gray for r in trace.records])) == merged
        assert [r.K_after for r in trace.records] == list(range(len(merged), 0, -1))

    def test_records_are_immutable(self):
        trace = run_dendrogram(EXAMPLE)
        with pytest.raises(AttributeError):
            trace.records[0].d_sq = 0.0
        with pytest.raises(AttributeError):
            trace.initial.classes[0].n = 0

    def test_records_are_plain_merge_records_of_python_floats(self):
        trace = run_dendrogram(histogram_of(standard_image(256)))
        assert trace.records
        for r in trace.records:
            assert type(r) is MergeRecord
            assert tuple(r._asdict()) == MergeRecord._fields
            for x in (r.d_sq, r.v, r.w, r.q):
                assert x is None or type(x) is float

    def test_conservation_identity(self):
        rng = random.Random(31)
        for _ in range(30):
            h = sparse_histogram(rng)
            trace = run_dendrogram(h)
            n = trace.initial.N
            k = trace.initial.K
            w0 = trace.w0 or 0.0
            lhs = (n - k) * 0.0 + (k - 1) * w0
            assert abs(lhs - trace.ss_total) <= 1e-9 * max(1.0, trace.ss_total)
            for rec in trace.records:
                lhs = (n - rec.K_after) * rec.v + (rec.K_after - 1) * (rec.w or 0.0)
                assert abs(lhs - trace.ss_total) <= 1e-9 * max(1.0, trace.ss_total)

    def test_monotonicity(self):
        rng = random.Random(37)
        for _ in range(30):
            trace = run_dendrogram(sparse_histogram(rng))
            prev_v = 0.0
            prev_sw = math.inf
            for rec in trace.records:
                assert rec.v >= prev_v
                sw = (rec.K_after - 1) * (rec.w or 0.0)
                assert sw <= prev_sw
                prev_v, prev_sw = rec.v, sw

    def test_k_decreases_by_one(self):
        trace = run_dendrogram(dense_histogram(random.Random(41), bins=64))
        ks = [trace.initial.K] + [r.K_after for r in trace.records]
        assert ks == list(range(64, 0, -1))

    def test_determinism(self):
        h = dense_histogram(random.Random(47), bins=128)
        assert run_dendrogram(h) == run_dendrogram(h)

    def test_each_merge_takes_the_first_cheapest_pair(self):
        hists = [h for family in merge_order_families().values() for h in family]
        hists.append(histogram_of(standard_image(256)))
        for h in hists:
            # (n, exact gray sum, top gray) of each class, rebuilt from scratch every step
            classes = [(c, g * c, g) for g, c in enumerate(h.counts) if c]
            trace = run_dendrogram(h)
            assert len(trace.records) == len(classes) - 1
            for rec in trace.records:
                costs = []
                for (n1, s1, _), (n2, s2, _) in zip(classes, classes[1:]):
                    diff = s1 / n1 - s2 / n2
                    costs.append(n1 * n2 / (n1 + n2) * (diff * diff))
                l = costs.index(min(costs))
                # boundary grays are distinct, so the top gray pins class l
                assert (rec.d_sq, rec.boundary_gray) == (costs[l], classes[l][2])
                (n1, s1, _), (n2, s2, g_hi) = classes[l : l + 2]
                classes[l : l + 2] = [(n1 + n2, s1 + s2, g_hi)]

    def test_merge_order_stays_exact_with_large_counts(self):
        # counts in [2**50, 2**60] push n1*n2 past 2**53, where an int64 or
        # float64 product would lose the exact pair cost
        rng = random.Random(127)
        hists = []
        for _ in range(60):
            k = rng.randint(2, 40)
            hi = min(2**60, MAX_PIXELS // k)
            hists.append(hist_from({g: rng.randint(2**50, hi) for g in rng.sample(range(256), k)}))
        hists += [hist_from({0: 2**62, 255: 2**62 - 1}),
                  hist_from({g: MAX_PIXELS // 256 for g in range(256)})]
        # N = 2**26 - 1 and 2**26, each side of the switch from NumPy starting
        # costs to the int expression's list; adjacent counts near 2**25 put
        # n1*n2 near 2**50
        for n in (2**26 - 1, 2**26):
            hists += [hist_from({3: 2**25, 200: n - 2**25}),
                      hist_from({7: 2**25 - 3, 8: n - 2**25 - 1, 130: 3, 254: 1}),
                      hist_from({0: 2**24 + 5, 1: 2**25 - 9, 99: n - 7 * 2**23 + 4, 255: 2**23})]
        for h in hists:
            # (n, exact gray sum, top gray) of each class, rebuilt from scratch every step
            classes = [(c, g * c, g) for g, c in enumerate(h.counts) if c]
            trace = run_dendrogram(h)
            assert len(trace.records) == len(classes) - 1
            for rec in trace.records:
                costs = []
                for (n1, s1, _), (n2, s2, _) in zip(classes, classes[1:]):
                    diff = s1 / n1 - s2 / n2
                    costs.append(n1 * n2 / (n1 + n2) * (diff * diff))
                l = costs.index(min(costs))
                # boundary grays are distinct, so the top gray pins class l
                assert (rec.d_sq, rec.boundary_gray) == (costs[l], classes[l][2])
                (n1, s1, _), (n2, s2, g_hi) = classes[l : l + 2]
                classes[l : l + 2] = [(n1 + n2, s1 + s2, g_hi)]

    def test_greedy_on_d_sq_is_greedy_on_q(self):
        """No adjacent merge leaves a smaller q = v/w, the paper's objective.

        Each candidate's v and w come from the exact class sums of the
        partition it would leave, compared by cross-multiplying ints.  The
        check is not strict: on 5 of the family histograms two exactly tied
        costs round apart, and the loop takes the tied merges in another
        order than the lowest gray first.
        """
        hists = [h for family in merge_order_families().values() for h in family]
        hists += [histogram_of(standard_image(size, seed))
                  for size in (64, 128, 256, 512) for seed in (7, 11)]
        for h in hists:
            n_total = h.N
            sq_total = sum(g * g * c for g, c in enumerate(h.counts))
            classes = [(c, g * c) for g, c in enumerate(h.counts) if c]  # (n, exact gray sum)
            tops = [g for g, c in enumerate(h.counts) if c]  # top gray of each class
            s_total = sum(s for _, s in classes)
            a = sum(Fraction(s * s, n) for n, s in classes)  # sum of S^2/n over the classes
            for rec in run_dendrogram(h).records:
                k = rec.K_after
                if k < 2:
                    break
                qs = []
                for (n1, s1), (n2, s2) in zip(classes, classes[1:]):
                    # sum of S^2/n over the k classes merging this pair leaves, as x / y
                    n12 = n1 * n2 * (n1 + n2)
                    y = a.denominator * n12
                    x = a.numerator * n12 + a.denominator * (
                        (s1 + s2) ** 2 * n1 * n2 - s1 * s1 * n2 * (n1 + n2)
                        - s2 * s2 * n1 * (n1 + n2)
                    )
                    within = sq_total * y - x  # scatter within classes, times y
                    between = n_total * x - s_total * s_total * y  # times n_total * y
                    # q = v / w, v = within / (N - k), w = between / (k - 1)
                    qs.append((within * n_total * (k - 1), between * (n_total - k)))
                l = tops.index(rec.boundary_gray)
                num, den = qs[l]
                assert all(num * d <= n * den for n, d in qs)
                del tops[l]
                (n1, s1), (n2, s2) = classes[l : l + 2]
                classes[l : l + 2] = [(n1 + n2, s1 + s2)]
                a += Fraction((s1 + s2) ** 2, n1 + n2) - Fraction(s1 * s1, n1)
                a -= Fraction(s2 * s2, n2)

    def test_merge_costs_never_fall(self):
        """Each merge costs at least the one before it, exactly and as d_sq.

        The contiguous Ward merge is reducible: a merge lowers no cost of a
        pair it leaves alone, and the pair it creates costs at least the
        merge.  The exact cost e^2/(n1*n2*(n1+n2)), e = n2*s1 - n1*s2, is
        replayed from the integer class sums along each trace, merging the
        class whose top gray is each boundary into its right neighbour.
        """
        hists = [h for family in merge_order_families().values() for h in family]
        hists += [histogram_of(standard_image(size, seed))
                  for size in (64, 128, 256, 512) for seed in (7, 11)]
        merges = 0
        for h in hists:
            trace = run_dendrogram(h)
            assert all(map(operator.le, trace.d_sq, trace.d_sq[1:]))
            tops = list(h.occupied)
            classes = [(h.counts[g], h.counts[g] * g) for g in tops]  # (n, exact gray sum)
            last = Fraction(0)
            for boundary, d_sq in zip(trace.boundary_gray, trace.d_sq):
                l = tops.index(boundary)
                del tops[l]
                (n1, s1), (n2, s2) = classes[l : l + 2]
                e = n2 * s1 - n1 * s2
                cost = Fraction(e * e, n1 * n2 * (n1 + n2))
                assert cost >= last
                assert rel_err(d_sq, float(cost)) <= 1e-12  # the replay follows the trace
                last = cost
                classes[l : l + 2] = [(n1 + n2, s1 + s2)]
            merges += len(trace.d_sq)
        assert len(hists) == 511 and merges > 9_000

    @pytest.mark.parametrize("size", [512, 2048])
    def test_recurrence_matches_naive_at_paper_scale(self, size):
        h = histogram_of(standard_image(size))
        trace = run_dendrogram(h)
        assert trace.initial.K > 200
        tsets = thresholds_at_levels(trace, [r.K_after for r in trace.records])
        for rec, t in zip(trace.records, tsets):
            v_exact, w_exact, _ = exact_variances(h, t)
            assert rel_err(rec.v, v_exact) <= 1e-9
            if w_exact is None:
                assert rec.w is None
            else:
                assert rel_err(rec.w, w_exact) <= 1e-9


# sha256 of every trace's to_json() plus the repr of each record's fields
TRACE_DIGESTS = {
    "sparse": "6eeb4156ea5c40e455d33d283cea73bf0f85aacbd3885eabfbdea74d8a4e2ae4",
    "dense": "7b581b1b214687dffd866b96da953b6f63321a06ec3945e2d472ce522e3eadc4",
    "tie-prone": "421fc7097fe062cd8d7155f70e0ec71afd059208086b9ffc1d6f59d420af162d",
    128: "e3c92c3baa89aa284b092d98478cec0e3ad55b7d790725d337ea8b24267a2318",
    512: "412fdf45b80c89aebdb805797388d90e0a61027c19836d6b04c3688d78b8a57f",
    2048: "1cbc64dfe64f8c9a87e7e25acd05d70115958a0ccc24f521a36b5c92bfa2e0c2",
}


@pytest.mark.parametrize("case", list(TRACE_DIGESTS))
def test_traces_are_byte_identical_to_pinned_digests(case):
    if isinstance(case, int):
        hists = [histogram_of(standard_image(case))]
    else:
        hists = merge_order_families()[case]
    digest = hashlib.sha256()
    for h in hists:
        trace = run_dendrogram(h)
        fields = [
            (l, r.boundary_gray, r.d_sq, r.v, r.w, r.q, r.K_after)
            for l, r in zip(left_indices(trace.records), trace.records)
        ]
        digest.update(trace.to_json().encode())
        digest.update(repr(fields).encode())
    assert digest.hexdigest() == TRACE_DIGESTS[case]


class TestThresholdsAt:
    def test_two_class_example(self):
        trace = run_dendrogram(EXAMPLE)
        t = thresholds_at(trace, 2)
        assert t.cuts == (2,)
        assert t.means == (1.5, 5.0)
        assert t.top == 5

    def test_identity_partition(self):
        trace = run_dendrogram(EXAMPLE)
        t = thresholds_at(trace, 3)
        assert t.cuts == (1, 2)
        assert t.means == (1.0, 2.0, 5.0)

    def test_single_class(self):
        trace = run_dendrogram(EXAMPLE)
        t = thresholds_at(trace, 1)
        assert t.cuts == ()
        assert t.means == (pytest.approx(2.2),)

    def test_invalid_level(self):
        trace = run_dendrogram(EXAMPLE)
        with pytest.raises(InvalidLevel) as excinfo:
            thresholds_at(trace, 4)
        assert str(excinfo.value) == (
            "requested 4 classes but the histogram has only 3 occupied gray levels"
        )
        with pytest.raises(InvalidLevel):
            thresholds_at(trace, 0)

    def test_refinement_nesting(self):
        rng = random.Random(53)
        for _ in range(20):
            trace = run_dendrogram(sparse_histogram(rng))
            k0 = trace.initial.K
            for m in range(1, k0):
                coarse = set(thresholds_at(trace, m).cuts)
                fine = set(thresholds_at(trace, m + 1).cuts)
                assert coarse < fine
                assert len(fine - coarse) == 1


class TestThresholdSet:
    @pytest.mark.parametrize(
        "cuts, means, top", [((-5,), (0.0, 2.0), 3), ((), (0.0,), -1)], ids=["cut", "top"]
    )
    def test_rejects_a_negative_gray_bound(self, cuts, means, top):
        # over pixels 0..3, cuts=(-5,) would put every pixel in class 0 under
        # quantize, and cut_set_errors would read cn[-4] from the end (scatter 2, not 5)
        with pytest.raises(ValueError, match="gray bounds must be non-negative"):
            ThresholdSet(cuts=cuts, means=means, top=top)

    @pytest.mark.parametrize(
        "cuts, top",
        [((2.5,), 5), ((2,), 5.0), ((True,), 5)],
        ids=["float-cut", "float-top", "bool-cut"],
    )
    def test_rejects_a_bound_that_is_not_an_int(self, cuts, top):
        # a float bound would fail deep inside level_stats or quantize; True would read as gray 1
        with pytest.raises(ValueError, match="gray bounds must be integers"):
            ThresholdSet(cuts=cuts, means=(1.0, 4.0), top=top)

    def test_numpy_int_bounds_become_ints(self):
        t = ThresholdSet(cuts=(np.int64(2), np.uint8(3)), means=(1.0, 2.5, 4.0), top=np.int32(5))
        assert t == ThresholdSet(cuts=(2, 3), means=(1.0, 2.5, 4.0), top=5)
        assert set(map(type, t.cuts + (t.top,))) == {int}

    @pytest.mark.parametrize(
        "cuts, means",
        [
            (np.array([2]), np.array([1.0, 4.0])),
            ([2], [1.0, 4.0]),
            ((2,), [1.0, 4.0]),
            ((2,), (1.0, 4.0)),
        ],
        ids=["arrays", "lists", "list-means", "tuples"],
    )
    def test_sequences_are_stored_as_tuples(self, cuts, means):
        # An array's cuts once added elementwise to (top,), giving cuts=()
        # and top=7; a list of cuts raised TypeError and a list of means
        # left the set unhashable.
        t = ThresholdSet(cuts=cuts, means=means, top=5)
        assert t == ThresholdSet(cuts=(2,), means=(1.0, 4.0), top=5)
        assert type(t.cuts) is tuple and type(t.means) is tuple
        assert hash(t) == hash(ThresholdSet(cuts=(2,), means=(1.0, 4.0), top=5))

    def test_bounds_at_gray_zero_are_valid(self):
        assert ThresholdSet(cuts=(0,), means=(0.0, 2.0), top=3).M == 2
        assert ThresholdSet(cuts=(), means=(0.0,), top=0).M == 1


class TestThresholdsAtLevels:
    def test_one_pass_matches_per_level_replay(self):
        rng = random.Random(59)
        for _ in range(40):
            h = sparse_histogram(rng, max_bins=16)
            k0 = sum(1 for c in h.counts if c)
            trace = run_dendrogram(h)
            levels = list(range(1, k0 + 1))
            assert thresholds_at_levels(trace, levels) == [
                thresholds_at(trace, m) for m in levels
            ]
            # any order, with repeats, comes back in the order asked
            shuffled = levels + [rng.choice(levels) for _ in range(3)]
            rng.shuffle(shuffled)
            assert thresholds_at_levels(trace, shuffled) == [
                thresholds_at(trace, m) for m in shuffled
            ]

    def test_unsorted_with_duplicates(self):
        trace = run_dendrogram(EXAMPLE)
        cuts = [t.cuts for t in thresholds_at_levels(trace, [2, 3, 1, 2, 3])]
        assert cuts == [(2,), (1, 2), (), (2,), (1, 2)]

    def test_invalid_level(self):
        trace = run_dendrogram(EXAMPLE)
        with pytest.raises(InvalidLevel):
            thresholds_at_levels(trace, [2, 0])
        with pytest.raises(InvalidLevel):
            thresholds_at_levels(trace, [4])


def walk_cases() -> list[Histogram]:
    """Seeded sparse and dense histograms, a test image's and the int64-max ones."""
    rng = random.Random(67)
    hists = [sparse_histogram(rng, max_bins=30, max_pixels=90) for _ in range(30)]
    hists += [dense_histogram(rng, bins=rng.randint(2, 256)) for _ in range(4)]
    hists += [hist_from({0: 2**62, 255: 2**62 - 1}),
              hist_from({g: MAX_PIXELS // 256 for g in range(256)})]
    return hists + [histogram_of(standard_image(128))]


class TestLevelWalk:
    """thresholds_at_levels builds each level from the one below it."""

    @staticmethod
    def from_scratch(trace, m):
        """The m-class partition from its sorted cuts, every mean computed anew."""
        k0 = len(trace.records) + 1
        bounds = [r.boundary_gray for r in trace.records]
        return threshold_set(
            trace.histogram, tuple(sorted(bounds[k0 - m :])), trace.histogram.occupied[-1]
        )

    @staticmethod
    def assert_same_sets(got, want):
        """The walk's sets, built with no check, are the public constructor's sets."""
        assert got == want
        for tset, ref in zip(got, want):
            assert hash(tset) == hash(ref)
            assert type(tset.cuts) is tuple and type(tset.means) is tuple
            assert all(type(x) is int for x in (*tset.cuts, tset.top))

    def test_single_levels(self):
        for h in walk_cases():
            trace = run_dendrogram(h)
            k0 = len(trace.records) + 1
            for m in range(1, k0 + 1):  # a walk of every length, 0 to K0 - 1 steps
                want = [self.from_scratch(trace, m)]
                self.assert_same_sets(thresholds_at_levels(trace, [m]), want)

    def test_repeated_and_unsorted_levels(self):
        rng = random.Random(71)
        for h in walk_cases():
            trace = run_dendrogram(h)
            k0 = len(trace.records) + 1
            # 1 and K0 make one walk cover every level
            levels = [rng.randint(1, k0) for _ in range(6)] + [k0, 1]
            levels += levels[:2]
            want = [self.from_scratch(trace, m) for m in levels]
            self.assert_same_sets(thresholds_at_levels(trace, levels), want)

    def test_contiguous_and_sparse_lists(self):
        # contiguous runs and wide gaps between the levels read in one walk
        for h in walk_cases():
            trace = run_dendrogram(h)
            k0 = len(trace.records) + 1
            for levels in (
                list(range(1, k0 + 1)),
                [2, k0] if k0 >= 2 else [1],
                list(range(1, k0 + 1, 10)),
                [*range(2, min(k0, 26)), k0 // 2, k0 // 2 + 1, k0],
            ):
                levels = [m for m in levels if m >= 1]
                want = [self.from_scratch(trace, m) for m in levels]
                self.assert_same_sets(thresholds_at_levels(trace, levels), want)

    def test_no_levels(self):
        trace = run_dendrogram(EXAMPLE)
        assert thresholds_at_levels(trace, []) == []
        assert thresholds_at_levels(trace, iter(())) == []


class TestClassCount:
    @pytest.mark.parametrize("m", [2.0, 2.5, True, False, np.True_, np.float64(2.0), "2", None])
    def test_non_integers_are_invalid_levels(self, m):
        trace = run_dendrogram(EXAMPLE)
        for call in (
            lambda: thresholds_at(trace, m),
            lambda: thresholds_at_levels(trace, [2, m]),
        ):
            with pytest.raises(InvalidLevel, match="class count must be an integer"):
                call()

    def test_numpy_integers_are_class_counts(self):
        trace = run_dendrogram(EXAMPLE)
        for m in (1, 2, 3):
            for n in (np.int64(m), np.uint8(m), np.int32(m)):
                assert thresholds_at(trace, n) == thresholds_at(trace, m)
                assert thresholds_at_levels(trace, [n, m]) == thresholds_at_levels(trace, [m, m])
        with pytest.raises(InvalidLevel, match="only 3 occupied"):
            thresholds_at(trace, np.int64(4))


def read_off_cases():
    """Seeded sparse and dense histograms plus a 256^2 test image's histogram."""
    rng = random.Random(61)
    hists = [sparse_histogram(rng, max_bins=40, max_pixels=120) for _ in range(40)]
    hists += [dense_histogram(rng, bins=rng.randint(2, 256)) for _ in range(8)]
    return hists + [histogram_of(standard_image(256))]


class TestReadOff:
    def test_thresholds_match_replay_at_every_level(self):
        for h in read_off_cases():
            trace = run_dendrogram(h)
            levels = list(range(1, trace.initial.K + 1))
            assert thresholds_at_levels(trace, levels) == replay_thresholds(trace, levels)

    def test_w0_is_the_start_state_the_records_roll_from(self):
        for h in read_off_cases():
            trace = run_dendrogram(h)
            k0, w0 = trace.initial.K, trace.w0
            if k0 == 1:
                assert w0 is None
            else:
                # the start state, correctly rounded, against an exact recomputation...
                assert w0 == exact_variances(h, thresholds_at(trace, k0))[1]
            if k0 >= 3:
                # ...and as the value the first merge's recurrence rolled on from
                k, first = k0 - 1, trace.records[0]
                assert first.w == k / (k - 1) * w0 - first.d_sq / (k - 1)


class TestDerivedRecords:
    """The merge loop stores each merge's cut and d_sq; w0, records and v/w/q are derived."""

    def test_the_trace_stores_only_the_merge_decisions(self):
        names = [f.name for f in dataclasses.fields(MergeTrace)]
        assert names == ["histogram", "boundary_gray", "d_sq"]
        trace = run_dendrogram(EXAMPLE)
        assert set(vars(trace)) == set(names)

    def test_readers_build_no_records(self):
        h = histogram_of(standard_image(128))
        k0 = len(h.occupied)
        for read in (
            lambda trace: thresholds_at_levels(trace, [2, 4, 9]),
            lambda trace: psnr_at_levels(trace, range(2, 26)),  # the walk carries errors
            lambda trace: psnr_at_levels(trace, [2, k0]),  # the carry, far up
        ):
            trace = run_dendrogram(h)
            read(trace)
            assert "records" not in vars(trace) and "w0" not in vars(trace)

    @pytest.mark.parametrize(
        "counts, bounds, n_costs, error",
        [
            ((1, 1, 1, 1), (1, 1, 2), 3, ValueError),  # once ZeroDivisionError in the walk
            ((1, 1, 1, 1), (7, 0, 1), 3, ValueError),  # once IndexError in the walk
            ((1, 1, 1, 1), (0, 1), 2, ValueError),  # once 3 classes of 4 levels
            ((1, 1, 1, 1), (0, 1, 2), 1, ValueError),  # once one record, with K_after 1
            ((0, 0), (), 0, EmptyHistogram),  # once IndexError in the walk
            ((1, 1, 1, 1), np.array([2, 1, 0]), 3, None),  # once np.int64 cuts
        ],
        ids=["repeated", "out-of-range", "missing", "short-d_sq", "empty", "numpy-grays"],
    )
    def test_hand_built_traces_are_checked(self, counts, bounds, n_costs, error):
        h = Histogram(counts)
        if error is not None:
            with pytest.raises(error, match="occupied gray|no pixels"):
                MergeTrace(h, bounds, (1.0,) * n_costs)
            return
        trace = MergeTrace(h, bounds, (1.0,) * n_costs)
        assert trace.boundary_gray == (2, 1, 0)
        tsets = thresholds_at_levels(trace, [1, 2, 3, 4])
        assert [t.cuts for t in tsets] == [(), (0,), (0, 1), (0, 1, 2)]
        assert {type(g) for g in trace.boundary_gray + sum((t.cuts for t in tsets), ())} == {int}

    def test_run_dendrogram_traces_pass_the_check(self):
        hists = sum(merge_order_families().values(), []) + [histogram_of(standard_image(256))]
        for h in hists:
            trace = run_dendrogram(h)
            assert MergeTrace(h, trace.boundary_gray, trace.d_sq) == trace

    @pytest.mark.parametrize("first", ["records", "to_json"])
    def test_records_are_built_once(self, first):
        trace = run_dendrogram(histogram_of(standard_image(128)))
        trace.to_json() if first == "to_json" else trace.records
        records = vars(trace)["records"]
        assert len(records) == len(trace.boundary_gray) == len(trace.d_sq)
        assert trace.records is records
        trace.to_json()
        assert trace.records is records


def test_w0_and_ss_total_are_correctly_rounded():
    """w0 = T/(K0 - 1) and ss_total = T, each the float nearest its exact value.

    T is summed as Fractions straight from the bins, over the merge-order
    families and test images from 64^2 to 2048^2 at seeds 7 and 11.
    """
    hists = [h for family in merge_order_families().values() for h in family]
    for seed in (7, 11):
        hists += [histogram_of(standard_image(1 << p, seed)) for p in range(6, 12)]
    assert len(hists) == 515
    mismatched = {"w0": 0, "ss_total": 0}
    for h in hists:
        trace = run_dendrogram(h)
        occupied = [(g, c) for g, c in enumerate(h.counts) if c]
        mu = Fraction(sum(g * c for g, c in occupied), sum(c for _, c in occupied))
        total = sum(c * (g - mu) ** 2 for g, c in occupied)
        mismatched["ss_total"] += trace.ss_total != float(total)
        if len(occupied) == 1:
            assert trace.w0 is None
        else:
            mismatched["w0"] += trace.w0 != float(total / (len(occupied) - 1))
    assert mismatched == {"w0": 0, "ss_total": 0}


class TestTraceSerialization:
    def test_schema(self):
        data = run_dendrogram(EXAMPLE).to_dict()
        # key order is part of the byte-identical to_json()
        assert list(data) == ["G", "N", "grand_mean", "ss_total", "initial_classes", "merges"]
        assert data["G"] == 256
        assert data["N"] == 5
        assert all(list(c) == ["n", "a", "g_lo", "g_hi"] for c in data["initial_classes"])
        first, last = data["merges"][0], data["merges"][-1]
        assert list(first) == ["step", "boundary_gray", "d_sq", "v", "w", "q", "K_after"]
        # terminal record has no defined w or q
        assert list(last) == ["step", "boundary_gray", "d_sq", "v", "K_after"]

    def test_json_round_trip_and_determinism(self):
        a = run_dendrogram(EXAMPLE).to_json()
        b = run_dendrogram(EXAMPLE).to_json()
        assert a == b
        assert json.loads(a)["merges"][0]["v"] == pytest.approx(1 / 3, rel=1e-12)


class TestHistogramIngestion:
    def test_from_json(self):
        h = histogram_from_json("[0, 2, 2, 0, 0, 1]")
        assert h.G == 6
        assert h.N == 5

    def test_from_json_rejects_a_total_past_int64(self):
        with pytest.raises(ValueError, match="total count exceeds"):
            histogram_from_json(f"[{2**63 - 1}, 1]")
        assert histogram_from_json(f"[{2**63 - 2}, 1]").N == 2**63 - 1

    def test_from_json_rejects_non_integers(self):
        with pytest.raises(ValueError):
            histogram_from_json("[1, 2.5]")
        with pytest.raises(ValueError):
            histogram_from_json("{\"a\": 1}")
        with pytest.raises(ValueError, match="bin counts must be integers"):
            histogram_from_json("[true, 1]")
        with pytest.raises(ValueError, match="bin counts must be integers"):
            histogram_from_json('["1"]')

    def test_from_json_deep_nesting_is_a_value_error(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            histogram_from_json("[" * 100000)

    def test_from_csv(self):
        text = "gray,count\n# comment\n1,2\n2,2\n5,1\n"
        h = histogram_from_csv(text)
        assert h.counts[1] == 2 and h.counts[2] == 2 and h.counts[5] == 1
        assert h.N == 5 and h.G == 256

    def test_from_csv_accumulates_duplicates(self):
        assert histogram_from_csv("3,1\n3,4\n").counts[3] == 5

    def test_from_csv_rejects_bad_lines(self):
        with pytest.raises(ValueError):
            histogram_from_csv("1,2,3\n")
        with pytest.raises(ValueError):
            histogram_from_csv("300,1\n")
        with pytest.raises(ValueError):
            histogram_from_csv("3,-1\n")
        for text in ("1_0,5", "3,1_000", "\u0663,5", "3,\u0663", "+3,1", "3,+1",
                     "0" * 5000 + "1,1"):
            with pytest.raises(ValueError, match="expected 'gray,count'"):
                histogram_from_csv(text)
