"""Layered end-to-end benchmark of the histoseg command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the program under test is the
checkout's src/histoseg, imported in-process by a fresh interpreter per
workload (one process, one thread, one client in a closed loop).  Set-up
writes the workload's PGM inputs from --seed into .perfbench/ at the
checkout root and removes them afterwards.

With --trace 0 the last stdout line reports the end-to-end metrics of an
untraced run.  Their times are rescaled to a reference CPU speed (see
calibration.py); the line above the result gives the workload's notes,
fail_ratio, the rescaled median latency, the plain wall-clock figures and
the calibration unit's median time, which says how fast the machine ran.  With --trace 1
the last line reports per-layer medians per op from a run that traces
every other pass over the inputs (spans are kept in
.perfbench/spans-WORKLOAD-seedN.json).  Every op's report is checked
against exact reference values; an op that exits nonzero, raises, or
fails a check counts in "failed".

The benchmark's own tests: python3 -m pytest perfbench/tests
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from calibration import rescale
from workloads import DEFAULT_SEED, WORKLOADS, Workload, encode_pgm, standard_image

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The cut points histoseg chose for the default seed when the benchmark was
# written, keyed "workload/size/seed"; a change that moves a cut fails ops.
FROZEN = HERE / "frozen.json"

# Fresh interpreters whose set-up time is measured (the measuring worker
# included); the median is setup_s.
SETUP_RUNS = 7
WORKER_GRACE_S = 90

# On a shared machine the speed of the CPU drifts by a fifth or more for
# minutes at a time, which moves every wall-clock figure of a 30-second run
# by as much between runs.  So every time in the result is rescaled to the
# reference speed by the calibration unit timed in the same process (right
# after each op, and right after each set-up); the wall-clock figures go to
# the notes line above the result.  The host also switches between a fast
# and a slow state every fraction of a second, and the interpreted layers
# slow down more in the slow state than the calibration unit does.  The
# median op then falls in one state or the other depending on the run, and
# moves by 10% between runs even rescaled, so it goes to the notes line too;
# ops_per_s (a mean) and the 90th percentile (in the slow tail) hold within
# 6%.
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
NOTES = ("latency_p50_ms", "wall_ops_per_s", "wall_latency_p50_ms", "wall_latency_p90_ms",
         "wall_setup_s", "unit_ms")


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_pct"):
        return "%"
    return "B" if name.startswith(("pgm.bytes", "metrics.bytes")) else "count"


def prepare(workload: Workload, seed: int, seconds: float, trace: bool, src: Path,
            work: Path, spans_path: Path) -> Path:
    """Write the inputs and the job description a worker runs; returns the job path."""
    inputs, pixels = [], []
    for i in range(workload.images):
        px = standard_image(workload.size, seed + i)
        inputs.append(str(work / f"input-{i}.pgm"))
        pixels.append(str(work / f"input-{i}.npy"))
        Path(inputs[-1]).write_bytes(encode_pgm(px, workload.fmt))
        np.save(pixels[-1], px)
    frozen = json.loads(FROZEN.read_text()).get(f"{workload.name}/{workload.size}/{seed}")
    job = {
        "workload": {"command": workload.command, "options": list(workload.options),
                     "out": workload.out},
        "inputs": inputs,
        "pixels": pixels,
        "frozen": frozen,
        "seconds": seconds,
        "trace": trace,
        "src": str(src),
        "report_path": str(work / "report.json"),
        "out_path": str(work / "out.pgm"),
        "spans_path": str(spans_path),
    }
    path = work / "job.json"
    path.write_text(json.dumps(job))
    return path


def run_worker(job: Path, src: Path, timeout: float, probe_only: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, str(HERE / "worker.py"), str(job)] + (["--probe"] if probe_only else [])
    proc = subprocess.run(argv, env=env, cwd=job.parent, capture_output=True, text=True,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def probe(job: Path, src: Path) -> dict:
    """Set-up time of one fresh interpreter (import plus the first command),
    and the calibration unit's time right after it."""
    return run_worker(job, src, WORKER_GRACE_S, probe_only=True)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 out_dir: Path = ROOT / ".perfbench") -> tuple[dict, dict]:
    """Set up, run and check one workload; returns the result object and the notes."""
    src = ROOT / "src"
    if not (src / "histoseg" / "cli.py").is_file():
        raise FileNotFoundError(f"no histoseg source under {src}")
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        spans_path = out_dir / f"spans-{workload.name}-seed{seed}.json"
        job = prepare(workload, seed, seconds, trace, src, work, spans_path)
        # Probes run half before and half after the loop, so that they sample
        # the machine at two moments rather than one.
        probes = [] if trace else [probe(job, src) for _ in range(SETUP_RUNS // 2)]
        result = run_worker(job, src, seconds + WORKER_GRACE_S)
        probes += [] if trace else [probe(job, src) for _ in range(SETUP_RUNS // 2)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = result["metrics"]
    if trace:
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        probes.append(result)
        metrics["setup_s"] = statistics.median(rescale(p["setup_s"], p["unit_s"]) for p in probes)
        metrics["wall_setup_s"] = statistics.median(p["setup_s"] for p in probes)
        units = END_TO_END_UNITS
    for problem in result["problems"]:
        print(f"E: {workload.name}: {problem}", file=sys.stderr)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }, {name: metrics[name] for name in NOTES if name in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the
    # worker and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result, notes = run_workload(w, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"E: {exc}", file=sys.stderr)
        return 1
    print(f"# {w.name}: seed {args.seed}, stresses {w.stresses}, bypasses {w.bypasses}; "
          f"{result['attempted']} ops, {result['failed']} failed, fail_ratio "
          f"{result['failed'] / result['attempted']:.4g}"
          + "".join(f", {k} {v:.6g}" for k, v in notes.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
