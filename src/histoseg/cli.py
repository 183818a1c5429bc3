"""Command-line interface: threshold, sweep, metrics, oracle, bench."""

import argparse
import json
import math
import sys
import time

from . import __version__
from .bench import run_benchmark
from .engine import (
    between_class_variance,
    run_dendrogram,
    thresholds_at,
    thresholds_at_levels,
)
from .metrics import (
    DimensionMismatch,
    foreground_of,
    histogram_psnr,
    misclassification_error,
    psnr,
    quantize,
    relative_area_error,
)
from .oracle import Infeasible, TooLarge, exhaustive_otsu, within_class_scatter
from .pgm import PgmError, histogram_of, read_pgm, write_pgm

EXIT_OK = 0
EXIT_IO = 2
EXIT_LEVELS = 3
EXIT_DIMENSIONS = 4
EXIT_GUARD = 5


def _fail(code: int, message: str) -> int:
    print(f"E: {message}", file=sys.stderr)
    return code


def _load_image(path: str):
    with open(path, "rb") as fh:
        return read_pgm(fh.read())


def _emit(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finite_or_none(value: float | None) -> float | None:
    if value is None or math.isinf(value):
        return None
    return value


def _distinct_levels(h) -> int:
    return sum(1 for c in h.counts if c)


def _positive_int(minimum: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{what} must be >= {minimum}")
        return value

    return parse


def _int_list(minimum: int, what: str):
    def parse(text: str) -> list[int]:
        try:
            values = [int(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{what} must be comma-separated integers"
            ) from None
        if not values:
            raise argparse.ArgumentTypeError(f"{what} must not be empty")
        if any(v < minimum for v in values):
            raise argparse.ArgumentTypeError(f"each {what} entry must be >= {minimum}")
        return values

    return parse


def _cmd_threshold(args) -> int:
    t_total = time.perf_counter()
    t0 = time.perf_counter()
    try:
        img = _load_image(args.image)
    except (OSError, PgmError) as exc:
        return _fail(EXIT_IO, f"cannot read {args.image}: {exc}")
    read_s = time.perf_counter() - t0

    h = histogram_of(img)
    distinct = _distinct_levels(h)
    if args.levels > distinct:
        return _fail(
            EXIT_LEVELS,
            f"requested {args.levels} classes but image has only {distinct} distinct gray levels",
        )

    t0 = time.perf_counter()
    trace = run_dendrogram(h, stop_at=args.levels)
    merge_s = time.perf_counter() - t0
    tset = thresholds_at(trace, args.levels)
    if trace.records:
        last = trace.records[-1]
        v, w, q = last.v, last.w, last.q
    else:
        v = 0.0
        w = between_class_variance(trace.initial)
        q = v / w if w else None

    t0 = time.perf_counter()
    [((mse, psnr_real), (mse_rounded, psnr_rounded))] = histogram_psnr(h, [tset])
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(write_pgm(quantize(img, tset)))
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot write {args.out}: {exc}")
    quantize_s = time.perf_counter() - t0

    foreground_area = None
    if args.levels == 2:
        above = sum(h.counts[tset.cuts[0] + 1 :])
        foreground_area = above if args.polarity == "above" else h.N - above

    report = {
        "version": __version__,
        "command": "threshold",
        "input": args.image,
        "levels": args.levels,
        "polarity": args.polarity,
        "thresholds": list(tset.cuts),
        "class_means": list(tset.means),
        "v": v,
        "w": w,
        "q": q,
        "foreground_area": foreground_area,
        "metrics": {
            "mse": mse,
            "psnr_db": _finite_or_none(psnr_real),
            "mse_rounded": mse_rounded,
            "psnr_db_rounded": _finite_or_none(psnr_rounded),
        },
        "timings": {
            "read_s": read_s,
            "merge_s": merge_s,
            "quantize_s": quantize_s,
            "total_s": time.perf_counter() - t_total,
        },
    }
    try:
        _emit(report, args.report)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {args.report}: {exc}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    t_total = time.perf_counter()
    try:
        img = _load_image(args.image)
    except (OSError, PgmError) as exc:
        return _fail(EXIT_IO, f"cannot read {args.image}: {exc}")

    levels = sorted(set(args.levels_list))
    h = histogram_of(img)
    distinct = _distinct_levels(h)
    if levels[-1] > distinct:
        return _fail(
            EXIT_LEVELS,
            f"requested {levels[-1]} classes but image has only {distinct} distinct gray levels",
        )

    t0 = time.perf_counter()
    trace = run_dendrogram(h)  # one pass serves every requested level
    merge_s = time.perf_counter() - t0

    tsets = thresholds_at_levels(trace, levels)
    entries = [
        {
            "level": level,
            "thresholds": list(tset.cuts),
            "psnr_db_real_means": _finite_or_none(psnr_real),
            "psnr_db_rounded": _finite_or_none(psnr_rounded),
        }
        for level, tset, ((_, psnr_real), (_, psnr_rounded)) in zip(
            levels, tsets, histogram_psnr(h, tsets)
        )
    ]

    report = {
        "version": __version__,
        "command": "sweep",
        "input": args.image,
        "levels": levels,
        "entries": entries,
        "timings": {"merge_s": merge_s, "total_s": time.perf_counter() - t_total},
    }
    try:
        _emit(report, args.report)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {args.report}: {exc}")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    try:
        ref = _load_image(args.ref)
        test = _load_image(args.test)
        src = _load_image(args.src) if args.src else None
    except (OSError, PgmError) as exc:
        return _fail(EXIT_IO, f"cannot read input: {exc}")

    invert = args.polarity == "below"
    try:
        me = misclassification_error(
            foreground_of(ref, invert), foreground_of(test, invert)
        )
        rae = relative_area_error(
            foreground_of(ref, invert), foreground_of(test, invert)
        )
        mse = psnr_db = None
        if src is not None:
            mse, psnr_db = psnr(src, test)
    except DimensionMismatch as exc:
        return _fail(EXIT_DIMENSIONS, str(exc))

    report = {
        "version": __version__,
        "command": "metrics",
        "ref": args.ref,
        "test": args.test,
        "src": args.src,
        "polarity": args.polarity,
        "me": me,
        "rae": rae,
        "mse": mse,
        "psnr_db": _finite_or_none(psnr_db),
    }
    try:
        _emit(report, args.report)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {args.report}: {exc}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    try:
        img = _load_image(args.image)
    except (OSError, PgmError) as exc:
        return _fail(EXIT_IO, f"cannot read {args.image}: {exc}")

    h = histogram_of(img)
    try:
        oracle_t = exhaustive_otsu(h, args.levels)
    except TooLarge as exc:
        return _fail(EXIT_GUARD, str(exc))
    except Infeasible as exc:
        return _fail(EXIT_LEVELS, str(exc))

    trace = run_dendrogram(h, stop_at=args.levels)
    engine_t = thresholds_at(trace, args.levels)
    oracle_scatter = within_class_scatter(h, oracle_t)
    engine_scatter = within_class_scatter(h, engine_t)
    if engine_scatter < oracle_scatter - 1e-9 * max(1.0, oracle_scatter):
        return _fail(
            1,
            f"internal error: greedy scatter {engine_scatter} beats exhaustive {oracle_scatter}",
        )

    report = {
        "version": __version__,
        "command": "oracle",
        "input": args.image,
        "levels": args.levels,
        "oracle_thresholds": list(oracle_t.cuts),
        "engine_thresholds": list(engine_t.cuts),
        "oracle_within_scatter": oracle_scatter,
        "engine_within_scatter": engine_scatter,
        "ratio": engine_scatter / oracle_scatter if oracle_scatter > 0 else None,
    }
    try:
        _emit(report, args.report)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {args.report}: {exc}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    result = run_benchmark(args.bins_list, repeat=args.repeat)
    report = {
        "version": __version__,
        "command": "bench",
        "repeat": result["repeat"],
        "rows": result["rows"],
        "slope": result["slope"],
    }
    try:
        _emit(report, args.report)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {args.report}: {exc}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="histoseg",
        description="Multilevel gray-image thresholding by agglomerative class merging",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="quantize an image into M gray classes")
    p.add_argument("image", help="input PGM (P2 or P5)")
    p.add_argument(
        "--levels",
        type=_positive_int(2, "levels"),
        required=True,
        help="number of classes M (>= 2)",
    )
    p.add_argument("--out", help="output PGM path for the quantized image")
    p.add_argument("--report", help="JSON report path (stdout when omitted)")
    p.add_argument(
        "--polarity",
        choices=("above", "below"),
        default="above",
        help="which side of a 2-class cut counts as foreground",
    )
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("sweep", help="PSNR across several class counts, one merge pass")
    p.add_argument("image", help="input PGM (P2 or P5)")
    p.add_argument(
        "--levels-list",
        dest="levels_list",
        type=_int_list(2, "levels"),
        required=True,
        help="comma-separated class counts, e.g. 2,3,5,10,25",
    )
    p.add_argument("--report", help="JSON report path (stdout when omitted)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("metrics", help="ME/RAE (and PSNR with --src) for an image pair")
    p.add_argument("--ref", required=True, help="ground-truth PGM")
    p.add_argument("--test", required=True, help="thresholded PGM under test")
    p.add_argument("--src", help="original PGM; enables MSE/PSNR")
    p.add_argument(
        "--polarity",
        choices=("above", "below"),
        default="above",
        help="above: nonzero pixels are foreground; below inverts",
    )
    p.add_argument("--report", help="JSON report path (stdout when omitted)")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("oracle", help="compare greedy cuts against exhaustive search")
    p.add_argument("image", help="input PGM (P2 or P5)")
    p.add_argument(
        "--levels",
        type=_positive_int(2, "levels"),
        required=True,
        help="number of classes M (>= 2)",
    )
    p.add_argument("--report", help="JSON report path (stdout when omitted)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="time full merge runs over synthetic histograms")
    p.add_argument(
        "--bins-list",
        dest="bins_list",
        type=_int_list(1, "bins"),
        required=True,
        help="comma-separated histogram sizes, e.g. 32,64,128,256",
    )
    p.add_argument(
        "--repeat",
        type=_positive_int(1, "repeat"),
        default=5,
        help="runs per size; the median is reported",
    )
    p.add_argument("--report", help="JSON report path (stdout when omitted)")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
