"""The benchmark's own tests: self-time arithmetic, failure detection, a smoke run.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import worker
from spans import Span, self_times
from workloads import DEFAULT_SEED, WORKLOADS, standard_image

ROOT = Path(__file__).resolve().parents[2]


def test_self_times_of_a_hand_built_tree():
    spans = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),  # covers [1, 4] of op
        Span("b", 2.0, 3.0, 1, 0),  # grandchild: counted against a, not op
        Span("c", 5.0, 6.5, 0, 0),
        Span("op", 20.0, 21.0, -1, 1),  # second op, no children
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 2.0, 1.0, 1.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("op", 0.0, 4.0, -1, 0), Span("a", 1.0, 3.0, 0, 0), Span("b", 2.0, 5.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_inputs_follow_the_test_suite_formula():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from helpers import standard_image as reference
    finally:
        sys.path.remove(str(ROOT / "tests"))
    assert np.array_equal(standard_image(64, 11), reference(64, 11).pixels)


def _shift_first_cut(trace, tset):
    """The same partition with its first cut one gray level higher."""
    from histoseg.engine import ThresholdSet

    cuts = (tset.cuts[0] + 1,) + tset.cuts[1:]
    sums = [[0, 0] for _ in range(len(cuts) + 1)]
    for c in trace.initial.classes:
        k = sum(c.g_hi > cut for cut in cuts)
        sums[k][0] += c.n
        sums[k][1] += c.gray_sum
    return ThresholdSet(cuts=cuts, means=tuple(s / n for n, s in sums), top=tset.top)


@pytest.mark.parametrize("consistent_means", [False, True])
def test_shifted_cut_makes_fail_ratio_nonzero(tmp_path, monkeypatch, consistent_means):
    import histoseg.cli as cli

    w = WORKLOADS["tiles-128-p2"]
    job_path = run.prepare(w, DEFAULT_SEED, 0.0, False, ROOT / "src", tmp_path,
                           tmp_path / "spans.json")
    job = json.loads(job_path.read_text())
    assert job["frozen"] is not None
    assert worker.measure(cli, job)["failed"] == 0

    original = cli.thresholds_at

    def corrupt(trace, m):
        tset = original(trace, m)
        shifted = _shift_first_cut(trace, tset)
        if consistent_means:  # only the frozen cuts can tell
            return shifted
        return dataclasses.replace(shifted, means=tset.means)

    monkeypatch.setattr(cli, "thresholds_at", corrupt)
    result = worker.measure(cli, job)
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] > 0
    assert any("frozen" in p for p in result["problems"]) == consistent_means


def test_times_are_rescaled_by_the_calibration_unit(tmp_path, monkeypatch):
    """A host running at half the reference speed halves every reported time."""
    import calibration
    import histoseg.cli as cli

    monkeypatch.setattr(calibration, "unit_seconds", lambda: 2 * calibration.REFERENCE_S)
    w = dataclasses.replace(WORKLOADS["tiles-128-p2"], size=32, images=2)
    job_path = run.prepare(w, 3, 0.3, False, ROOT / "src", tmp_path, tmp_path / "spans.json")
    m = worker.measure(cli, json.loads(job_path.read_text()))["metrics"]
    assert m["unit_ms"] == pytest.approx(2e3 * calibration.REFERENCE_S)
    assert m["ops_per_s"] == pytest.approx(2 * m["wall_ops_per_s"])
    assert m["latency_p50_ms"] == pytest.approx(m["wall_latency_p50_ms"] / 2)
    assert m["latency_p90_ms"] == pytest.approx(m["wall_latency_p90_ms"] / 2)


def test_declared_workloads_match_the_table():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert [d["name"] for d in declared] == list(WORKLOADS)
    for d in declared:
        w = WORKLOADS[d["name"]]
        assert f"Stresses {w.stresses}, bypasses {w.bypasses}." in d["why"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_at_tiny_size(tmp_path, name):
    """Both kinds of run, through fresh interpreters, report every declared metric."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = dataclasses.replace(WORKLOADS[name], size=32, images=min(WORKLOADS[name].images, 3))
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = run.run_workload(w, 3, 0.2, trace, out_dir=tmp_path)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in declared[kind]} == {
            k: v["unit"] for k, v in result["metrics"].items()
        }
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert json.loads((tmp_path / f"spans-{name}-seed3.json").read_text())
    assert [p.name for p in tmp_path.iterdir()] == [f"spans-{name}-seed3.json"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-512", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
