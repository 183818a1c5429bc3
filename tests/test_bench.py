import pytest

from histoseg.bench import run_benchmark, synthetic_histogram


class TestSyntheticHistogram:
    def test_dense_and_deterministic(self):
        h1 = synthetic_histogram(64)
        h2 = synthetic_histogram(64)
        assert h1 == h2
        assert h1.G == 64
        assert all(c >= 1 for c in h1.counts)

    def test_sizes_differ(self):
        assert synthetic_histogram(32) != synthetic_histogram(64)


class TestRunBenchmark:
    def test_single_size_has_no_slope(self):
        result = run_benchmark([8], repeat=2)
        assert len(result["rows"]) == 1
        assert result["slope"] is None
        row = result["rows"][0]
        assert row["bins"] == 8
        assert row["median_ms"] > 0.0

    def test_multiple_sizes_fit_slope(self):
        result = run_benchmark([16, 64], repeat=2)
        assert len(result["rows"]) == 2
        assert isinstance(result["slope"], float)

    @pytest.mark.parametrize(
        "bins_list, slope_type", [([32, 32], type(None)), ([16, 16, 64], float)]
    )
    def test_slope_needs_two_distinct_sizes(self, bins_list, slope_type):
        result = run_benchmark(bins_list, repeat=1)
        assert len(result["rows"]) == len(bins_list)
        assert isinstance(result["slope"], slope_type)

    def test_thresholds_independent_of_repeat(self):
        one = run_benchmark([32], repeat=1)
        many = run_benchmark([32], repeat=5)
        assert one["rows"][0]["thresholds_2level"] == many["rows"][0]["thresholds_2level"]
