"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines inline.
"""

import json
import math
import random

import numpy as np
import pytest

from histoseg.cli import main
from histoseg.engine import run_dendrogram, thresholds_at, thresholds_at_levels
from histoseg.metrics import (
    BinaryMask,
    map_to_class_means,
    misclassification_error,
    psnr,
    relative_area_error,
)
from histoseg.pgm import histogram_of

from helpers import (
    dense_histogram,
    exact_variances,
    hist_from,
    pgm_bytes,
    rel_err,
    replay_thresholds,
    small_image,
    sparse_histogram,
    standard_image,
)

EXAMPLE = hist_from({1: 2, 2: 2, 5: 1})


def report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def within_rel(value, reference, tol):
    if value == reference:
        return True
    return abs(value - reference) <= tol * max(abs(reference), abs(value))


def test_c1_oracle_equivalence():
    """Recursive v/w match exact recomputation at every step of 1000 runs.

    Each walked cut set's means must also equal those of an independent
    replay of the merges, which rebuilds every class's sums from the bins.
    """
    rng = random.Random(20250811)
    worst = 0.0
    steps = 0
    means_differ = 0
    for _ in range(1000):
        h = sparse_histogram(rng, max_bins=12, max_pixels=40)
        trace = run_dendrogram(h)
        levels = [r.K_after for r in trace.records]
        tsets = thresholds_at_levels(trace, levels)
        means_differ += sum(a != b for a, b in zip(tsets, replay_thresholds(trace, levels)))
        for rec, t in zip(trace.records, tsets):
            v, w = rec.v, rec.w
            v_exact, w_exact, _ = exact_variances(h, t)
            worst = max(worst, rel_err(v, v_exact))
            if w_exact is None:
                assert w is None
            else:
                worst = max(worst, rel_err(w, w_exact))
            steps += 1
    report("C1 oracle equivalence", worst <= 1e-9 and not means_differ,
           f"(worst rel err {worst:.3e} over {steps} steps, {means_differ} cut sets off the replay)")


def test_c2_conservation_identity():
    """(N-K)v + (K-1)w reproduces the total scatter at every one of ~255 steps."""
    rng = random.Random(20250812)
    worst = 0.0
    for _ in range(100):
        h = dense_histogram(rng, bins=256, max_count=40)
        trace = run_dendrogram(h)
        n = trace.initial.N
        for rec in trace.records:
            lhs = (n - rec.K_after) * rec.v + (rec.K_after - 1) * (rec.w or 0.0)
            worst = max(worst, abs(lhs - trace.ss_total) / trace.ss_total)
    report("C2 conservation identity", worst <= 1e-9, f"(worst rel err {worst:.3e})")


def test_c3_worked_example():
    """The five-pixel histogram reproduces the hand-computed merge sequence."""
    trace = run_dendrogram(EXAMPLE)
    r1, r2 = trace.records
    checks = [
        within_rel(r1.d_sq, 1.0, 1e-9),
        within_rel(r2.d_sq, 9.8, 1e-9),
        within_rel(r1.v, 1 / 3, 1e-9),
        within_rel(r1.w, 9.8, 1e-9),
        within_rel(r1.q, 1 / 29.4, 1e-9),
    ]
    t = thresholds_at(trace, 2)
    checks.append(t.cuts == (2,))
    checks.append(t.means == (1.5, 5.0))
    report("C3 worked example", all(checks),
           f"(d_sq=[{r1.d_sq}, {r2.d_sq}], v1={r1.v}, w1={r1.w}, q1={r1.q}, cuts={t.cuts})")


def test_c4_otsu_dominance():
    """Greedy merging never beats exhaustive search on real-mean PSNR."""
    from histoseg.oracle import exhaustive_otsu

    rng = np.random.default_rng(20250813)
    checked = 0
    ok = True
    for _ in range(200):
        img = small_image(rng, side=12, min_distinct=4, max_distinct=16)
        h = histogram_of(img)
        trace = run_dendrogram(h)
        for m in (2, 3, 4):
            engine_t = thresholds_at(trace, m)
            oracle_t = exhaustive_otsu(h, m)
            _, engine_psnr = psnr(img, map_to_class_means(img, engine_t))
            _, oracle_psnr = psnr(img, map_to_class_means(img, oracle_t))
            if not engine_psnr <= oracle_psnr + 1e-9:
                ok = False
            checked += 1
    report("C4 Otsu dominance", ok, f"({checked} image/level pairs)")


def test_c4_otsu_dominance_at_paper_scale():
    """Greedy cuts never leave less exact scatter than the optimum, 256 levels, M to 25."""
    from histoseg.metrics import cut_set_errors
    from histoseg.oracle import exhaustive_otsu

    h = histogram_of(standard_image(512))
    trace = run_dendrogram(h)
    beaten = []
    for m in range(2, 26):
        tsets = [thresholds_at(trace, m), exhaustive_otsu(h, m)]
        (greedy, _), (optimal, _) = cut_set_errors(h, tsets)
        if greedy < optimal:
            beaten.append(m)
    report("C4 Otsu dominance at paper scale", not beaten, f"(M = 2..25, beaten at {beaten})")


def test_c5_psnr_monotone_in_levels():
    """Real-mean PSNR never drops as the class count rises, exactly."""
    rng = np.random.default_rng(20250814)
    ok = True
    for _ in range(50):
        img = small_image(rng, side=12, min_distinct=8, max_distinct=40)
        trace = run_dendrogram(histogram_of(img))
        prev = -math.inf
        for m in range(2, trace.initial.K + 1):
            _, value = psnr(img, map_to_class_means(img, thresholds_at(trace, m)))
            if not value >= prev:
                ok = False
            prev = value
    report("C5 PSNR monotone in class count", ok, "(50 images, no tolerance)")


def test_c6_quadratic_complexity(tmp_path):
    """Timings scale no worse than quadratically; 256 bins finish under 50 ms."""
    path = tmp_path / "bench.json"
    code = main(["bench", "--bins-list", "32,64,128,256", "--repeat", "5",
                 "--report", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    slope = data["slope"]
    ms_256 = next(r["median_ms"] for r in data["rows"] if r["bins"] == 256)
    ok = slope <= 2.4 and ms_256 < 50.0
    report("C6 complexity", ok, f"(log-log slope {slope:.2f}, 256-bin median {ms_256:.2f} ms)")


def test_c7_sweep_spans(tmp_path):
    """2->25 level sweep on a 512x512 stand-in image spans ~20 dB to ~41 dB."""
    img = standard_image()
    path = tmp_path / "standard.pgm"
    path.write_bytes(pgm_bytes(img))
    report_path = tmp_path / "sweep.json"
    code = main(["sweep", str(path), "--levels-list", "2,3,5,10,25",
                 "--report", str(report_path)])
    assert code == 0
    entries = json.loads(report_path.read_text())["entries"]
    psnrs = {e["level"]: e["psnr_db_real_means"] for e in entries}
    series = [e["psnr_db_real_means"] for e in entries]
    ok = (
        18.0 <= psnrs[2] <= 22.0
        and 39.0 <= psnrs[25] <= 44.0
        and all(b >= a for a, b in zip(series, series[1:]))
    )
    report("C7 sweep spans", ok,
           f"(2-level {psnrs[2]:.2f} dB, 25-level {psnrs[25]:.2f} dB, monotone)")


def test_c8_metric_examples():
    """ME and RAE unit examples, including the edge conventions, hold exactly."""
    m = lambda *rows: BinaryMask(bits=np.array(rows, dtype=bool))
    same = m([True, False, True, False])
    checks = [
        misclassification_error(same, same) == 0.0,
        misclassification_error(same, BinaryMask(bits=~same.bits)) == 1.0,
        misclassification_error(m([True, True, False, False]),
                                m([True, False, False, False])) == 0.25,
        relative_area_error(same, same) == 0.0,
        relative_area_error(m([True, True, False, False]),
                            m([True, False, False, False])) == 0.5,
        relative_area_error(m([False, False]), m([False, False])) == 0.0,
        relative_area_error(m([False, False]), m([True, False])) == 1.0,
        relative_area_error(m([True, False]), m([False, False])) == 1.0,
    ]
    report("C8 metric examples", all(checks), f"({sum(checks)}/{len(checks)} exact)")


VOLATILE_KEYS = {"timings", "median_ms", "slope"}


def _scrub(node):
    if isinstance(node, dict):
        return {k: _scrub(v) for k, v in node.items() if k not in VOLATILE_KEYS}
    if isinstance(node, list):
        return [_scrub(v) for v in node]
    return node


def _canonical(path) -> bytes:
    return json.dumps(_scrub(json.loads(path.read_text())), sort_keys=True).encode()


def test_c9_cli_determinism(tmp_path):
    """Every command emits byte-identical JSON (timings aside) and images."""
    src = tmp_path / "src.pgm"
    src.write_bytes(pgm_bytes(small_image(np.random.default_rng(20250815), side=16,
                                          min_distinct=8, max_distinct=16)))
    ref = tmp_path / "ref.pgm"
    ref.write_bytes(pgm_bytes(small_image(np.random.default_rng(20250816), side=16,
                                          min_distinct=2, max_distinct=4)))
    commands = {
        "threshold": lambda tag: ["threshold", str(src), "--levels", "3",
                                  "--out", str(tmp_path / f"q{tag}.pgm"),
                                  "--report", str(tmp_path / f"thr{tag}.json")],
        "sweep": lambda tag: ["sweep", str(src), "--levels-list", "2,3,4",
                              "--report", str(tmp_path / f"swp{tag}.json")],
        "metrics": lambda tag: ["metrics", "--ref", str(ref), "--test", str(src),
                                "--src", str(src),
                                "--report", str(tmp_path / f"met{tag}.json")],
        "oracle": lambda tag: ["oracle", str(src), "--levels", "2",
                               "--report", str(tmp_path / f"orc{tag}.json")],
        "bench": lambda tag: ["bench", "--bins-list", "16,32", "--repeat", "2",
                              "--report", str(tmp_path / f"ben{tag}.json")],
    }
    prefixes = {"threshold": "thr", "sweep": "swp", "metrics": "met",
                "oracle": "orc", "bench": "ben"}
    ok = True
    for name, argv in commands.items():
        assert main(argv("A")) == 0
        assert main(argv("B")) == 0
        pre = prefixes[name]
        if _canonical(tmp_path / f"{pre}A.json") != _canonical(tmp_path / f"{pre}B.json"):
            ok = False
    if (tmp_path / "qA.pgm").read_bytes() != (tmp_path / "qB.pgm").read_bytes():
        ok = False
    report("C9 determinism", ok, "(5 commands, reports and images)")
