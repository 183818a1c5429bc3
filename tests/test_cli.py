import gc
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import histoseg.cli
import histoseg.engine
import histoseg.metrics
import histoseg.oracle
import histoseg.pgm
from histoseg.cli import main
from histoseg.engine import ThresholdSet, run_dendrogram, thresholds_at
from histoseg.metrics import GrayImage, quantize
from histoseg.oracle import naive_variances
from histoseg.pgm import histogram_of, read_pgm

from helpers import exact_variances, pgm_bytes, rel_err, small_image, standard_image


def save_pgm(path, rows):
    img = GrayImage(pixels=np.array(rows, dtype=np.int64))
    path.write_bytes(pgm_bytes(img))
    return str(path)


@pytest.fixture
def five_pixel_image(tmp_path):
    return save_pgm(tmp_path / "five.pgm", [[1, 1, 2, 2, 5]])


@pytest.fixture
def full_range_image(tmp_path):
    px = np.arange(256, dtype=np.int64).reshape(16, 16)
    return save_pgm(tmp_path / "full.pgm", px)


class TestThreshold:
    def test_worked_example(self, tmp_path, five_pixel_image):
        out = tmp_path / "out.pgm"
        report = tmp_path / "report.json"
        code = main(
            ["threshold", five_pixel_image, "--levels", "2",
             "--out", str(out), "--report", str(report)]
        )
        assert code == 0
        data = json.loads(report.read_text())
        assert data["version"]
        assert data["thresholds"] == [2]
        assert data["class_means"] == [1.5, 5.0]
        assert data["v"] == pytest.approx(1 / 3, rel=1e-9)
        assert data["w"] == pytest.approx(9.8, rel=1e-9)
        assert data["q"] == pytest.approx(1 / 29.4, rel=1e-9)
        assert data["metrics"]["mse"] == pytest.approx(0.2, rel=1e-9)
        assert read_pgm(out.read_bytes()).pixels.tolist() == [[2, 2, 2, 2, 5]]

    def test_all_levels_kept_reports_initial_variances(self, tmp_path, five_pixel_image):
        report = tmp_path / "report.json"
        assert main(["threshold", five_pixel_image, "--levels", "3",
                     "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["thresholds"] == [1, 2]
        assert (data["v"], data["w"], data["q"]) == (0.0, 5.4, 0.0)
        assert data["metrics"]["mse"] == 0.0
        assert data["metrics"]["psnr_db"] is None

    def test_variances_match_naive_recomputation(self, tmp_path):
        rng = np.random.default_rng(61)
        for i in range(3):
            img = small_image(rng)
            path = tmp_path / f"img{i}.pgm"
            path.write_bytes(pgm_bytes(img))
            h = histogram_of(img)
            trace = run_dendrogram(h)
            report = tmp_path / "report.json"
            for m in range(2, trace.initial.K + 1):
                assert main(["threshold", str(path), "--levels", str(m),
                             "--report", str(report)]) == 0
                data = json.loads(report.read_text())
                v, w = naive_variances(h, thresholds_at(trace, m))
                assert rel_err(data["v"], v) <= 1e-9
                assert rel_err(data["w"], w) <= 1e-9
                assert rel_err(data["q"], v / w) <= 1e-9

    @pytest.mark.parametrize("size", [64, 128])
    def test_variances_are_the_correctly_rounded_definitions(self, tmp_path, size):
        """At every level, v, w and q are float(Fraction) of the estimators, bit for bit."""
        img = standard_image(size)
        path = tmp_path / "img.pgm"
        path.write_bytes(pgm_bytes(img))
        h = histogram_of(img)
        trace = run_dendrogram(h)
        report = tmp_path / "report.json"
        for m in range(2, len(h.occupied) + 1):
            assert main(["threshold", str(path), "--levels", str(m),
                         "--report", str(report)]) == 0
            data = json.loads(report.read_text())
            assert (data["v"], data["w"], data["q"]) == exact_variances(h, thresholds_at(trace, m))

    def test_report_to_stdout(self, five_pixel_image, capsys):
        assert main(["threshold", five_pixel_image, "--levels", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["command"] == "threshold"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["threshold", str(tmp_path / "nope.pgm"), "--levels", "2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("E:")

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\nxx")
        assert main(["threshold", str(bad), "--levels", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("E:")
        assert str(bad) in err

    def test_long_header_field_exits_2_with_a_short_error(self, tmp_path, capsys):
        bad = tmp_path / "long.pgm"
        bad.write_bytes(b"P5\n" + b"1" * 100_000 + b" 1\n255\n\x00")
        assert main(["threshold", str(bad), "--levels", "2"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("E:") and len(lines[0]) < 200

    def test_long_p2_sample_exits_2_with_a_short_error(self, tmp_path, capsys):
        bad = tmp_path / "long.pgm"
        bad.write_bytes(b"P2\n1 1\n255\n" + b"x" * 100_000 + b"\n")
        assert main(["threshold", str(bad), "--levels", "2"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("E:") and len(lines[0]) < 200

    def test_unwritable_outputs_exit_2(self, tmp_path, five_pixel_image, capsys):
        missing_dir = tmp_path / "missing"
        for option in ("--out", "--report"):
            argv = ["threshold", five_pixel_image, "--levels", "2",
                    option, str(missing_dir / "x")]
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("E:")

    def test_constant_image_exits_3(self, tmp_path, capsys):
        path = save_pgm(tmp_path / "const.pgm", [[7, 7], [7, 7]])
        assert main(["threshold", path, "--levels", "2"]) == 3
        assert capsys.readouterr().err.startswith("E:")

    def test_foreground_area_and_polarity(self, tmp_path, five_pixel_image):
        report = tmp_path / "r.json"
        main(["threshold", five_pixel_image, "--levels", "2", "--report", str(report)])
        assert json.loads(report.read_text())["foreground_area"] == 1
        main(["threshold", five_pixel_image, "--levels", "2", "--report", str(report),
              "--polarity", "below"])
        assert json.loads(report.read_text())["foreground_area"] == 4
        # the parser is built once; the default must come back after "below"
        main(["threshold", five_pixel_image, "--levels", "2", "--report", str(report)])
        assert json.loads(report.read_text())["foreground_area"] == 1

    def test_foreground_area_matches_pixel_count(self, tmp_path):
        img = standard_image(size=64, seed=3)
        path = tmp_path / "img.pgm"
        path.write_bytes(pgm_bytes(img))
        report = tmp_path / "r.json"
        for polarity in ("above", "below"):
            assert main(["threshold", str(path), "--levels", "2", "--polarity", polarity,
                         "--report", str(report)]) == 0
            data = json.loads(report.read_text())
            above = img.pixels > data["thresholds"][0]
            expected = above if polarity == "above" else ~above
            assert data["foreground_area"] == int(expected.sum())

    def test_out_is_the_quantized_input_over_several_slices(self, tmp_path):
        # 256 x 257 pixels is more than one of quantize's 64 Ki-pixel slices
        rng = np.random.default_rng(67)
        src = tmp_path / "img.pgm"
        src.write_bytes(pgm_bytes(GrayImage(pixels=rng.integers(0, 256, size=(256, 257)))))
        before = src.read_bytes()
        out = tmp_path / "q.pgm"
        assert main(["threshold", str(src), "--levels", "4", "--out", str(out),
                     "--report", str(tmp_path / "r.json")]) == 0
        img = read_pgm(before)
        tset = thresholds_at(run_dendrogram(histogram_of(img)), 4)
        assert out.read_bytes() == pgm_bytes(quantize(img, tset))
        assert src.read_bytes() == before

    # 1024 and 2048 take histogram_of's pair path.  511, the largest square
    # below pgm._PAIR_MIN, takes np.bincount's; its fixed temporaries are
    # bincount's 512 KiB int64 slice and quantize's 128 KiB pair table and
    # 256 KiB take slice, within 1 MiB, but a float64 raster copy is not.
    @pytest.mark.parametrize("size, bound", [(511, 2 * 511 * 511 + (1 << 20)),
                                             (1024, 2.5 * 1024 * 1024),
                                             (2048, 2.5 * 2048 * 2048)],
                             ids=["511", "1024", "2048"])
    def test_out_keeps_at_most_two_rasters_alive(self, tmp_path, size, bound):
        # The input file's bytes and the quantized output; the input is freed
        # before write_pgm writes the output's own buffer, with no copy.
        src = tmp_path / "img.pgm"
        src.write_bytes(pgm_bytes(standard_image(size)))
        argv = ["threshold", str(src), "--levels", "4", "--out", str(tmp_path / "q.pgm"),
                "--report", str(tmp_path / "r.json")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound


def test_threshold_out_at_2048_is_byte_identical_to_pinned_digests(tmp_path, monkeypatch):
    """The --out image and the report, less timings, of one pair-path-sized op."""
    monkeypatch.chdir(tmp_path)  # so the report's input path is "img.pgm"
    (tmp_path / "img.pgm").write_bytes(pgm_bytes(standard_image(2048, 7)))
    assert main(["threshold", "img.pgm", "--levels", "4", "--out", "q.pgm",
                 "--report", "r.json"]) == 0
    report = json.dumps(_without_timings(tmp_path / "r.json"), indent=2) + "\n"
    assert hashlib.sha256((tmp_path / "q.pgm").read_bytes()).hexdigest() == (
        "41ed66b5be3f2242647930a09add1ab2395d5a385ee2679e480b82592a9aaa2c"
    )
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "b0f5cf04da27f35ef946e81f266930c74ef5012e1e5d30a5ff97f295dc9ada63"
    )


def test_threshold_on_p2_tiles_is_byte_identical_to_pinned_digest(tmp_path, monkeypatch):
    """The reports, less timings, of the 16 ASCII P2 128^2 tiles, seeds 7..22."""
    monkeypatch.chdir(tmp_path)  # so each report's input path is "img.pgm"
    digest = hashlib.sha256()
    for seed in range(7, 23):
        (tmp_path / "img.pgm").write_bytes(pgm_bytes(standard_image(128, seed), "P2"))
        assert main(["threshold", "img.pgm", "--levels", "4", "--report", "r.json"]) == 0
        digest.update((json.dumps(_without_timings(tmp_path / "r.json"), indent=2) + "\n").encode())
    assert digest.hexdigest() == (
        "f6022a49832a9b108780011a35b1af4af33361897e02ba90f520406891fb126d"
    )


def test_sweep_is_byte_identical_to_pinned_digest(tmp_path, monkeypatch):
    """The report, less timings, of one 256^2 sweep over levels 2..25."""
    monkeypatch.chdir(tmp_path)  # so the report's input path is "img.pgm"
    (tmp_path / "img.pgm").write_bytes(pgm_bytes(standard_image(256, 7)))
    levels = ",".join(map(str, range(2, 26)))
    assert main(["sweep", "img.pgm", "--levels-list", levels, "--report", "r.json"]) == 0
    report = json.dumps(_without_timings(tmp_path / "r.json"), indent=2) + "\n"
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "238e4ae30977986ca1da43e29babf97168e356314b674f74c8996feb7d0a2e4a"
    )


def _without_timings(path):
    data = json.loads(path.read_text())
    data.pop("timings")
    return data


def test_threshold_and_sweep_make_no_pixel_error_pass(tmp_path, monkeypatch):
    """Reports come from the histogram; the pixel-domain metrics are never called."""
    src = tmp_path / "img.pgm"
    src.write_bytes(pgm_bytes(standard_image(size=64, seed=5)))
    commands = {
        "threshold": ["threshold", str(src), "--levels", "4"],
        "threshold-out": ["threshold", str(src), "--levels", "4",
                          "--out", str(tmp_path / "q.pgm")],
        "sweep": ["sweep", str(src), "--levels-list", "2,3,5,10,25"],
    }

    def run_all(tag):
        for name, argv in commands.items():
            assert main([*argv, "--report", str(tmp_path / f"{name}-{tag}.json")]) == 0
        return (tmp_path / "q.pgm").read_bytes()

    before = run_all("plain")

    def forbidden(*args, **kwargs):
        raise AssertionError("pixel-domain metric called")

    for module in (histoseg.cli, histoseg.metrics):
        monkeypatch.setattr(module, "map_to_class_means", forbidden, raising=False)
        monkeypatch.setattr(module, "psnr", forbidden)
    assert run_all("guarded") == before
    for name in commands:
        assert _without_timings(tmp_path / f"{name}-guarded.json") == _without_timings(
            tmp_path / f"{name}-plain.json")


def test_commands_build_no_per_level_records(tmp_path, monkeypatch):
    """K0 and the top level come off the trace, at every level up to K0.

    No command reads the start state's w0 or the total scatter either, so
    none computes them; the bench run is guarded too.
    """
    img = standard_image(size=64)
    k0 = len(histogram_of(img).occupied)
    src = tmp_path / "img.pgm"
    src.write_bytes(pgm_bytes(img))
    commands = {
        "threshold": ["threshold", str(src), "--levels", "4"],
        "threshold-k0": ["threshold", str(src), "--levels", str(k0)],
        "threshold-out": ["threshold", str(src), "--levels", "2",
                          "--out", str(tmp_path / "q.pgm")],
        "sweep": ["sweep", str(src), "--levels-list", "2,3,5,10,25"],
        "sweep-k0": ["sweep", str(src), "--levels-list", f"2,10,{k0}"],
        "oracle": ["oracle", str(src), "--levels", "3"],
    }

    def run_all(tag):
        reports = {}
        for name, argv in commands.items():
            path = tmp_path / f"{name}-{tag}.json"
            assert main([*argv, "--report", str(path)]) == 0
            data = json.loads(path.read_text())
            data.pop("timings", None)
            reports[name] = data
        return reports, (tmp_path / "q.pgm").read_bytes()

    before = run_all("plain")

    def forbidden(trace):
        raise AssertionError("per-level records built")

    def no_ss_total(trace):
        raise AssertionError("total scatter computed")

    def no_w0(trace):
        raise AssertionError("start-state w0 computed")

    monkeypatch.setattr(histoseg.engine.MergeTrace, "initial", property(forbidden))
    monkeypatch.setattr(histoseg.engine.MergeTrace, "ss_total", property(no_ss_total))
    monkeypatch.setattr(histoseg.engine.MergeTrace, "w0", property(no_w0))
    assert run_all("guarded") == before
    assert main(["bench", "--bins-list", "16,32", "--repeat", "1",
                 "--report", str(tmp_path / "bench.json")]) == 0


def test_commands_build_no_merge_records(tmp_path, monkeypatch):
    """Cuts come off the trace's boundary grays and v, w, q off the histogram's error sums."""
    img = standard_image(size=64)
    k0 = len(histogram_of(img).occupied)
    src = tmp_path / "img.pgm"
    src.write_bytes(pgm_bytes(img))

    def forbidden(trace):
        raise AssertionError("merge records built")

    monkeypatch.setattr(histoseg.engine.MergeTrace, "records", property(forbidden))
    for argv in (
        ["threshold", str(src), "--levels", "4", "--out", str(tmp_path / "q.pgm")],
        ["threshold", str(src), "--levels", str(k0)],
        ["sweep", str(src), "--levels-list", ",".join(map(str, range(2, 26)))],
        ["sweep", str(src), "--levels-list", f"2,10,{k0}"],
        ["oracle", str(src), "--levels", "3"],
        ["bench", "--bins-list", "16,32", "--repeat", "1"],
    ):
        assert main([*argv, "--report", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("command", ["threshold", "sweep", "oracle", "metrics", "bench"])
def test_commands_leave_no_cyclic_garbage(tmp_path, monkeypatch, command):
    """A call frees everything it made by reference counting alone.

    Garbage that only the cycle collector frees is promoted to the older
    generations between full collections, so a long run's peak memory
    would depend on when those run.
    """
    monkeypatch.chdir(tmp_path)
    (tmp_path / "img.pgm").write_bytes(pgm_bytes(standard_image(size=64)))
    argv = {
        "threshold": ["threshold", "img.pgm", "--levels", "4", "--out", "q.pgm"],
        "sweep": ["sweep", "img.pgm", "--levels-list", "2,3,5,10,25"],
        "oracle": ["oracle", "img.pgm", "--levels", "3"],
        "metrics": ["metrics", "--ref", "img.pgm", "--test", "img.pgm", "--src", "img.pgm"],
        "bench": ["bench", "--bins-list", "16,32", "--repeat", "1"],
    }[command] + ["--report", "r.json"]
    assert main(argv) == 0  # warm-up: first-call caches are not garbage
    gc.collect()
    gc.disable()  # so no collection during the call hides its garbage
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_too_many_levels_same_message_everywhere(five_pixel_image, capsys):
    texts = []
    for argv in (["threshold", five_pixel_image, "--levels", "4"],
                 ["sweep", five_pixel_image, "--levels-list", "2,4"],
                 ["oracle", five_pixel_image, "--levels", "4"]):
        assert main(argv) == 3
        texts.append(capsys.readouterr().err)
    assert texts == [
        "E: requested 4 classes but the histogram has only 3 occupied gray levels\n"
    ] * 3


def test_layer_names_bound_from_home_modules():
    # perfbench times each layer by swapping these names in histoseg.cli's
    # namespace and counts a missing one as zero calls, so a rename must fail here
    homes = {
        histoseg.pgm: ("read_pgm", "write_pgm", "histogram_of"),
        histoseg.engine: ("run_dendrogram", "thresholds_at"),
        histoseg.metrics: ("quantize",),
        histoseg.oracle: ("exhaustive_otsu",),
    }
    for module, names in homes.items():
        for name in names:
            assert getattr(histoseg.cli, name, None) is getattr(module, name), name


class TestSweep:
    def test_entries_and_monotonicity(self, tmp_path, full_range_image):
        report = tmp_path / "sweep.json"
        code = main(["sweep", full_range_image, "--levels-list", "2,3,5,10,25",
                     "--report", str(report)])
        assert code == 0
        data = json.loads(report.read_text())
        assert [e["level"] for e in data["entries"]] == [2, 3, 5, 10, 25]
        psnrs = [e["psnr_db_real_means"] for e in data["entries"]]
        assert all(b >= a for a, b in zip(psnrs, psnrs[1:]))

    def test_single_level_matches_threshold(self, tmp_path, five_pixel_image):
        sweep_report = tmp_path / "s.json"
        thr_report = tmp_path / "t.json"
        main(["sweep", five_pixel_image, "--levels-list", "2", "--report", str(sweep_report)])
        main(["threshold", five_pixel_image, "--levels", "2", "--report", str(thr_report)])
        entry = json.loads(sweep_report.read_text())["entries"][0]
        thr = json.loads(thr_report.read_text())
        assert entry["thresholds"] == thr["thresholds"]
        assert entry["psnr_db_real_means"] == thr["metrics"]["psnr_db"]

    def test_level_beyond_distinct_exits_3(self, five_pixel_image):
        assert main(["sweep", five_pixel_image, "--levels-list", "2,4"]) == 3


class TestMetrics:
    def test_identical_images(self, tmp_path):
        a = save_pgm(tmp_path / "a.pgm", [[0, 255], [255, 0]])
        code = main(["metrics", "--ref", a, "--test", a,
                     "--report", str(tmp_path / "m.json")])
        assert code == 0
        data = json.loads((tmp_path / "m.json").read_text())
        assert data["me"] == 0.0 and data["rae"] == 0.0
        assert data["mse"] is None and data["psnr_db"] is None
        # a zero-error pair has infinite PSNR, reported as null
        assert main(["metrics", "--ref", a, "--test", a, "--src", a,
                     "--report", str(tmp_path / "m.json")]) == 0
        data = json.loads((tmp_path / "m.json").read_text())
        assert data["mse"] == 0.0 and data["psnr_db"] is None

    def test_four_pixel_example(self, tmp_path):
        ref = save_pgm(tmp_path / "ref.pgm", [[255, 255, 0, 0]])
        test = save_pgm(tmp_path / "test.pgm", [[255, 0, 0, 0]])
        report = tmp_path / "m.json"
        assert main(["metrics", "--ref", ref, "--test", test, "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["me"] == 0.25
        assert data["rae"] == 0.5

    def test_polarity_inverts_foreground(self, tmp_path):
        ref = save_pgm(tmp_path / "ref.pgm", [[255, 255, 0, 0]])
        test = save_pgm(tmp_path / "test.pgm", [[255, 0, 0, 0]])
        report = tmp_path / "m.json"
        main(["metrics", "--ref", ref, "--test", test, "--polarity", "below",
              "--report", str(report)])
        data = json.loads(report.read_text())
        assert data["me"] == 0.25  # symmetric under joint complement
        assert data["rae"] == pytest.approx(1 / 3)

    def test_src_enables_psnr(self, tmp_path):
        src = save_pgm(tmp_path / "src.pgm", [[10, 10, 10, 10]])
        test = save_pgm(tmp_path / "t.pgm", [[11, 11, 11, 11]])
        report = tmp_path / "m.json"
        main(["metrics", "--ref", test, "--test", test, "--src", src,
              "--report", str(report)])
        data = json.loads(report.read_text())
        assert data["mse"] == 1.0
        assert data["psnr_db"] == pytest.approx(48.1308, abs=1e-4)

    def test_dimension_mismatch_exits_4(self, tmp_path, capsys):
        a = save_pgm(tmp_path / "a.pgm", [[0, 255]])
        b = save_pgm(tmp_path / "b.pgm", [[0], [255]])
        assert main(["metrics", "--ref", a, "--test", b]) == 4
        assert capsys.readouterr().err.startswith("E:")

    def test_missing_file_exits_2(self, tmp_path):
        a = save_pgm(tmp_path / "a.pgm", [[0, 255]])
        assert main(["metrics", "--ref", a, "--test", str(tmp_path / "nope.pgm")]) == 2


class TestOracle:
    def test_engine_never_beats_oracle(self, tmp_path):
        path = save_pgm(tmp_path / "img.pgm", [[0, 3, 9, 9], [40, 40, 41, 200]])
        report = tmp_path / "o.json"
        assert main(["oracle", path, "--levels", "2", "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["engine_within_scatter"] >= data["oracle_within_scatter"] - 1e-9
        if data["ratio"] is not None:
            assert data["ratio"] >= 1.0 - 1e-12

    def test_two_spike_image_matches_exactly(self, tmp_path):
        path = save_pgm(tmp_path / "img.pgm", [[0, 0], [255, 255]])
        report = tmp_path / "o.json"
        assert main(["oracle", path, "--levels", "2", "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["engine_within_scatter"] == data["oracle_within_scatter"] == 0.0

    def test_full_range_five_levels_exits_0(self, tmp_path, full_range_image):
        # comb(255, 4) cut sets over 256 occupied levels, all searched
        report = tmp_path / "o.json"
        assert main(["oracle", full_range_image, "--levels", "5", "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["oracle_within_scatter"] <= data["engine_within_scatter"]

    def test_infeasible_exits_3(self, five_pixel_image):
        assert main(["oracle", five_pixel_image, "--levels", "4"]) == 3

    def test_greedy_beating_exhaustive_exits_1(self, tmp_path, monkeypatch, capsys):
        path = save_pgm(tmp_path / "img.pgm", [[0, 3, 9, 9], [40, 40, 41, 200]])
        # a cut below every other level scatters more than the engine's cut
        worse = ThresholdSet(cuts=(0,), means=(0.0, 342 / 7), top=200)
        monkeypatch.setattr(histoseg.cli, "exhaustive_otsu", lambda h, m: worse)
        assert main(["oracle", path, "--levels", "2"]) == 1
        assert capsys.readouterr().err.startswith("E:")


class TestBench:
    def test_single_size(self, tmp_path):
        report = tmp_path / "b.json"
        assert main(["bench", "--bins-list", "8", "--repeat", "2",
                     "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert len(data["rows"]) == 1
        assert data["slope"] is None

    def test_repeat_does_not_change_thresholds(self, tmp_path):
        r1 = tmp_path / "b1.json"
        r2 = tmp_path / "b2.json"
        main(["bench", "--bins-list", "32", "--repeat", "1", "--report", str(r1)])
        main(["bench", "--bins-list", "32", "--repeat", "5", "--report", str(r2)])
        a = json.loads(r1.read_text())["rows"][0]["thresholds_2level"]
        b = json.loads(r2.read_text())["rows"][0]["thresholds_2level"]
        assert a == b


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["threshold", "IMAGE", "--levels", "1"],
            ["threshold", "IMAGE", "--levels", "x"],
            ["oracle", "IMAGE", "--levels", "1"],
            ["oracle", "IMAGE", "--levels", "x"],
            ["sweep", "IMAGE", "--levels-list", ""],
            ["sweep", "IMAGE", "--levels-list", "2,x"],
            ["sweep", "IMAGE", "--levels-list", "1,3"],
            ["bench", "--bins-list", "0"],
            ["bench", "--bins-list", "8", "--repeat", "0"],
            # int() takes these; the CLI takes ASCII digits only
            ["threshold", "IMAGE", "--levels", "1_0"],
            ["threshold", "IMAGE", "--levels", "\u0664"],
            ["threshold", "IMAGE", "--levels", "+4"],
            ["sweep", "IMAGE", "--levels-list", "2,\u0663"],
            ["bench", "--bins-list", "1_0"],
            ["bench", "--bins-list", "8", "--repeat", "1_0"],
        ],
        ids=lambda argv: "_".join(a for a in argv if a != "IMAGE"),
    )
    def test_levels_below_two_rejected(self, argv, five_pixel_image, capsys):
        argv = [five_pixel_image if a == "IMAGE" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        [line] = [ln for ln in err.splitlines() if "error:" in ln]
        assert f"argument {argv[-2]}:" in line  # the flag whose value is bad
        assert "Traceback" not in err

    def test_spaces_around_integers_are_legal(self, five_pixel_image, tmp_path):
        entries = []
        for levels in ("2,3", " 2, 3 "):
            report = tmp_path / "sweep.json"
            assert main(["sweep", five_pixel_image, "--levels-list", levels,
                         "--report", str(report)]) == 0
            entries.append(json.loads(report.read_text())["entries"])
        assert entries[0] == entries[1]
        assert main(["threshold", five_pixel_image, "--levels", " 3 "]) == 0

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        capsys.readouterr()
