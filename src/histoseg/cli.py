"""Command-line interface: threshold, sweep, metrics, oracle, bench."""

import argparse
import json
import math
import sys
import time

from . import __version__
from .bench import run_benchmark
from .engine import InvalidLevel, run_dendrogram, thresholds_at
from .metrics import (
    DimensionMismatch,
    cut_set_errors,
    foreground_of,
    level_stats,
    misclassification_error,
    psnr,
    psnr_at_levels,
    quantize,
    relative_area_error,
)
from .oracle import exhaustive_otsu
from .pgm import PgmError, histogram_of, read_pgm, write_pgm


class SelfCheckFailed(RuntimeError):
    """The greedy cut set scored better than the exhaustive optimum."""


# Every error a command raises reaches the user through this one table.
EXIT_CODES = {
    OSError: 2,
    PgmError: 2,
    InvalidLevel: 3,
    DimensionMismatch: 4,
    SelfCheckFailed: 1,
}


def _load_image(path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return read_pgm(data)
    except PgmError as exc:
        raise PgmError(f"cannot read {path}: {exc}") from exc


def _finite_or_none(value: float | None) -> float | None:
    if value is None or math.isinf(value):
        return None
    return value


def _positive_int(minimum: int, what: str):
    def parse(text: str) -> int:
        # ASCII digits only: int() would also take a sign, '_' or another
        # script's digits.  It still refuses a value past its digit limit.
        digits = text.strip()
        try:
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError
            value = int(digits)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{what} must be >= {minimum}")
        return value

    return parse


def _int_list(minimum: int, what: str):
    entry = _positive_int(minimum, f"each {what} entry")

    def parse(text: str) -> list[int]:
        values = [entry(tok) for tok in text.split(",") if tok.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"{what} must not be empty")
        return values

    return parse


def _cmd_threshold(args) -> dict:
    t_total = time.perf_counter()
    t0 = time.perf_counter()
    img = _load_image(args.image)
    read_s = time.perf_counter() - t0

    h = histogram_of(img)

    t0 = time.perf_counter()
    trace = run_dendrogram(h)
    merge_s = time.perf_counter() - t0
    tset = thresholds_at(trace, args.levels)  # rejects a level the histogram lacks
    [(((mse, psnr_real), (mse_rounded, psnr_rounded)), (v, w, q))] = level_stats(h, [tset])

    t0 = time.perf_counter()
    if args.out:
        quantized = quantize(img, tset)
        # Nothing below reads the input image, so its bytes are freed
        # before write_pgm writes the quantized raster's own buffer.
        del img
        with open(args.out, "wb") as fh:
            write_pgm(quantized, fh)
    quantize_s = time.perf_counter() - t0

    foreground_area = None
    if args.levels == 2:
        below = h.running_sums[0][tset.cuts[0] + 1]
        foreground_area = h.N - below if args.polarity == "above" else below

    return {
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


def _cmd_sweep(args) -> dict:
    t_total = time.perf_counter()
    img = _load_image(args.image)

    levels = sorted(set(args.levels_list))
    h = histogram_of(img)

    t0 = time.perf_counter()
    trace = run_dendrogram(h)  # one pass serves every requested level
    merge_s = time.perf_counter() - t0

    entries = [
        {
            "level": tset.M,
            "thresholds": list(tset.cuts),
            "psnr_db_real_means": _finite_or_none(psnr_real),
            "psnr_db_rounded": _finite_or_none(psnr_rounded),
        }
        for tset, ((_, psnr_real), (_, psnr_rounded)) in psnr_at_levels(trace, levels)
    ]

    return {
        "input": args.image,
        "levels": levels,
        "entries": entries,
        "timings": {"merge_s": merge_s, "total_s": time.perf_counter() - t_total},
    }


def _cmd_metrics(args) -> dict:
    ref = _load_image(args.ref)
    test = _load_image(args.test)
    src = _load_image(args.src) if args.src else None

    invert = args.polarity == "below"
    ref_fg, test_fg = foreground_of(ref, invert), foreground_of(test, invert)
    me = misclassification_error(ref_fg, test_fg)
    rae = relative_area_error(ref_fg, test_fg)
    mse = psnr_db = None
    if src is not None:
        mse, psnr_db = psnr(src, test)

    return {
        "ref": args.ref,
        "test": args.test,
        "src": args.src,
        "polarity": args.polarity,
        "me": me,
        "rae": rae,
        "mse": mse,
        "psnr_db": _finite_or_none(psnr_db),
    }


def _cmd_oracle(args) -> dict:
    img = _load_image(args.image)
    h = histogram_of(img)
    oracle_t = exhaustive_otsu(h, args.levels)

    trace = run_dendrogram(h)
    engine_t = thresholds_at(trace, args.levels)
    (oracle_exact, _), (engine_exact, _) = cut_set_errors(h, [oracle_t, engine_t])
    oracle_scatter, engine_scatter = float(oracle_exact), float(engine_exact)
    if engine_exact < oracle_exact:
        raise SelfCheckFailed(
            f"internal error: greedy scatter {engine_scatter} beats exhaustive {oracle_scatter}"
        )

    return {
        "input": args.image,
        "levels": args.levels,
        "oracle_thresholds": list(oracle_t.cuts),
        "engine_thresholds": list(engine_t.cuts),
        "oracle_within_scatter": oracle_scatter,
        "engine_within_scatter": engine_scatter,
        "ratio": engine_scatter / oracle_scatter if oracle_scatter > 0 else None,
    }


def _cmd_bench(args) -> dict:
    return run_benchmark(args.bins_list, repeat=args.repeat)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="histoseg",
        description="Multilevel gray-image thresholding by agglomerative class merging",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Arguments shared by several commands, each defined once.
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report", help="JSON report path (stdout when omitted)")
    image = argparse.ArgumentParser(add_help=False)
    image.add_argument("image", help="input PGM (P2 or P5)")
    levels = argparse.ArgumentParser(add_help=False)
    levels.add_argument(
        "--levels",
        type=_positive_int(2, "levels"),
        required=True,
        help="number of classes M (>= 2)",
    )

    def command(name, func, text, *parents):
        p = sub.add_parser(name, parents=[*parents, report], help=text)
        p.set_defaults(func=func)
        return p

    p = command(
        "threshold", _cmd_threshold, "quantize an image into M gray classes", image, levels
    )
    p.add_argument("--out", help="output PGM path for the quantized image")
    p.add_argument(
        "--polarity",
        choices=("above", "below"),
        default="above",
        help="which side of a 2-class cut counts as foreground",
    )

    p = command("sweep", _cmd_sweep, "PSNR across several class counts, one merge pass", image)
    p.add_argument(
        "--levels-list",
        dest="levels_list",
        type=_int_list(2, "levels"),
        required=True,
        help="comma-separated class counts, e.g. 2,3,5,10,25",
    )

    p = command("metrics", _cmd_metrics, "ME/RAE (and PSNR with --src) for an image pair")
    p.add_argument("--ref", required=True, help="ground-truth PGM")
    p.add_argument("--test", required=True, help="thresholded PGM under test")
    p.add_argument("--src", help="original PGM; enables MSE/PSNR")
    p.add_argument(
        "--polarity",
        choices=("above", "below"),
        default="above",
        help="above: nonzero pixels are foreground; below inverts",
    )

    command("oracle", _cmd_oracle, "compare greedy cuts against exhaustive search", image, levels)

    p = command("bench", _cmd_bench, "time full merge runs over synthetic histograms")
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

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        report = {"version": __version__, "command": args.command, **args.func(args)}
        # Compact, so json's C encoder runs: indent selects the pure-Python one.
        text = json.dumps(report) + "\n"
        if args.report:
            with open(args.report, "w", encoding="ascii") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except tuple(EXIT_CODES) as exc:
        print(f"E: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
