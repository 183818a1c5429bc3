"""One workload in a fresh interpreter: set-up, then a closed loop of CLI calls.

Started by run.py as `python3 worker.py JOB.json [--probe]`.  Before
anything else loads it times the import of histoseg.cli plus a first
(warm-up) command, then the calibration unit of calibration.py; with
--probe it prints both times and stops.  Otherwise one client calls
histoseg.cli.main(argv) back to back until the job's seconds are up,
times the calibration unit after each untraced call, checks every report,
and prints one JSON line.
"""

import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

from spans import Tracer, self_times

# Layer functions that histoseg.cli looks up in its own namespace at call time.
LAYERS = {
    "read_pgm": "pgm",
    "write_pgm": "pgm",
    "histogram_of": "pgm",
    "run_dendrogram": "engine",
    "thresholds_at": "engine",
    "quantize": "metrics",
    "map_to_class_means": "metrics",
    "psnr": "metrics",
    "exhaustive_otsu": "oracle",
    "within_class_scatter": "oracle",
}

COUNTS = (
    "pgm.pixels",
    "pgm.bytes_read",
    "pgm.bytes_written",
    "engine.k0",
    "engine.merges",
    "engine.thresholds_at.calls",
    "engine.replayed_merges",
    "metrics.pixel_passes",
    "metrics.bytes_computed",
    "oracle.combinations",
)


def command_lines(job: dict) -> list[list[str]]:
    w = job["workload"]
    out = ["--out", job["out_path"]] if w["out"] else []
    return [
        [w["command"], path, *w["options"], *out, "--report", job["report_path"]]
        for path in job["inputs"]
    ]


def call(cli, argv) -> tuple[object, float]:
    """Exit code (or the exception) of one main(argv) call, and its wall time."""
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    except Exception as exc:
        code = repr(exc)
    return code, time.perf_counter() - t0


def _pixels(obj) -> int:
    """Pixel count of an image-sized argument, 0 for anything else."""
    arr = getattr(obj, "pixels", obj)
    return int(arr.size) if getattr(arr, "ndim", 0) == 2 else 0


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


class OpCounts:
    """Work counts of the current op, computed from call arguments and input sizes."""

    def __init__(self):
        self.k0 = 0  # occupied gray levels of the current input
        self.c: defaultdict[str, float] = defaultdict(float)

    def __call__(self, name, args, kwargs, result):
        c = self.c
        if name == "read_pgm":
            c["pgm.bytes_read"] += len(_arg(args, kwargs, 0, "data"))
            c["pgm.pixels"] += _pixels(result)
        elif name == "write_pgm":
            c["pgm.bytes_written"] += len(result)
        elif name == "run_dendrogram":
            c["engine.k0"] = self.k0
            c["engine.merges"] += self.k0 - _arg(args, kwargs, 1, "stop_at", 1)
        elif name == "thresholds_at":
            c["engine.thresholds_at.calls"] += 1
            c["engine.replayed_merges"] += self.k0 - _arg(args, kwargs, 1, "m")
        elif LAYERS[name] == "metrics":
            n = max(map(_pixels, args), default=0)
            if n:
                c["metrics.pixel_passes"] += 1
                c["metrics.bytes_computed"] += 8 * n  # one float64 per pixel
        elif name == "exhaustive_otsu":
            c["oracle.combinations"] += math.comb(self.k0 - 1, _arg(args, kwargs, 1, "m") - 1)


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def layer_metrics(spans, op_counts: dict, untraced: list[float]) -> dict:
    """Per-op medians of layer self times and counts over the traced ops.

    trace.overhead_pct compares the median traced op with the median
    untraced op of the same run.
    """
    per_op: dict[int, defaultdict] = {op: defaultdict(float) for op in op_counts}
    for span, self_s in zip(spans, self_times(spans)):
        row = per_op[span.op]
        if span.name == "op":
            row["cli.self_ms"] += 1e3 * self_s
            row["trace.op_ms"] += 1e3 * (span.end - span.start)
        else:
            row[f"{LAYERS[span.name]}.{span.name}.self_ms"] += 1e3 * self_s
    for op, counts in op_counts.items():
        row = per_op[op]
        row.update(counts)
        read_ms = row["pgm.read_pgm.self_ms"]
        row["pgm.read_pgm.mb_per_s"] = row["pgm.bytes_read"] / read_ms / 1e3 if read_ms else 0.0
    names = [f"{layer}.{fn}.self_ms" for fn, layer in LAYERS.items()]
    names += ["pgm.read_pgm.mb_per_s", "cli.self_ms", "trace.op_ms", *COUNTS]
    metrics = {name: statistics.median(row[name] for row in per_op.values()) for name in names}
    metrics["trace.overhead_pct"] = 100.0 * (
        metrics["trace.op_ms"] / (1e3 * statistics.median(untraced)) - 1.0
    )
    return metrics


def measure(cli, job: dict) -> dict:
    """The closed loop: one client, back-to-back main(argv) calls, each checked."""
    # Imported only now, so that setup_s includes numpy's import as a user's
    # first command pays it.
    import numpy as np

    from calibration import rescale, unit_seconds
    from checks import Reference, check_report

    w = job["workload"]
    argvs = command_lines(job)
    refs = [Reference(np.load(path)) for path in job["pixels"]]
    frozen = job["frozen"] or [None] * len(argvs)
    counts = OpCounts()
    tracer = Tracer(cli, list(LAYERS), on_call=counts) if job["trace"] else None
    # A traced run alternates traced and untraced passes over the inputs, so
    # both see the same inputs; their difference is the tracing overhead.
    min_ops = 2 * len(argvs) if tracer else 1
    untraced: list[float] = []
    rescaled: list[float] = []
    units: list[float] = []
    op_counts: dict[int, dict] = {}
    failed = 0
    problems: list[str] = []
    deadline = time.perf_counter() + job["seconds"]
    op = 0
    while op < min_ops or time.perf_counter() < deadline:
        k = op % len(argvs)
        is_traced = tracer is not None and (op // len(argvs)) % 2 == 1
        _remove(job["report_path"])
        _remove(job["out_path"])
        if is_traced:
            counts.k0 = refs[k].k0
            counts.c = defaultdict(float)
            tracer.install(op)
            root = tracer.open("op")
        code, seconds = call(cli, argvs[k])
        if is_traced:
            tracer.close(root)
            tracer.restore()
            op_counts[op] = dict(counts.c)
        else:
            untraced.append(seconds)
            if tracer is None:  # the speed of the machine just after the op
                units.append(unit_seconds())
                rescaled.append(rescale(seconds, units[-1]))

        if code != 0:
            found = [f"exit code {code!r}"]
        else:
            try:
                with open(job["report_path"], encoding="ascii") as fh:
                    report = json.load(fh)
                out_pgm = None
                if w["out"]:
                    with open(job["out_path"], "rb") as fh:
                        out_pgm = fh.read()
            except (OSError, ValueError) as exc:
                found = [f"unreadable output: {exc}"]
            else:
                found = check_report(w["command"], tuple(w["options"]), report, refs[k],
                                     frozen[k], out_pgm)
        if found:
            failed += 1
            problems += [f"op {op} ({argvs[k][1]}): {p}" for p in found[:3]]
        op += 1

    result = {"attempted": op, "failed": failed, "problems": problems[:10]}
    if tracer is None:
        result["metrics"] = {
            "ops_per_s": len(rescaled) / sum(rescaled),
            "latency_p50_ms": 1e3 * statistics.median(rescaled),
            "latency_p90_ms": 1e3 * _p90(rescaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "wall_ops_per_s": len(untraced) / sum(untraced),
            "wall_latency_p50_ms": 1e3 * statistics.median(untraced),
            "wall_latency_p90_ms": 1e3 * _p90(untraced),
            "unit_ms": 1e3 * statistics.median(units),
        }
    else:
        result["metrics"] = layer_metrics(tracer.spans, op_counts, untraced)
        with open(job["spans_path"], "w", encoding="ascii") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans], fh)
    return result


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    t0 = time.perf_counter()
    cli = importlib.import_module("histoseg.cli")
    call(cli, command_lines(job)[0])  # warm-up; the loop checks every op after it
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(job["src"] + os.sep):
        print(f"E: imported {cli.__file__}, not the checkout under {job['src']}", file=sys.stderr)
        return 2
    from calibration import speed_seconds

    result = {"setup_s": setup_s, "unit_s": speed_seconds()}
    if "--probe" not in argv:
        result.update(measure(cli, job))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
