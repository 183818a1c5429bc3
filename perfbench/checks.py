"""Output checks: every report is compared with exact reference values.

The references come from the input's 256-bin histogram.  Class sizes and
gray sums are Python integers, so class means, scatters and MSEs are
exact rationals and only the last comparison is made in floating point.
"""

import math
from fractions import Fraction

import numpy as np

PEAK_SQ = 255 * 255
REL_MEANS = 1e-12
# Loose enough for a last-ulp change in how the program sums the error.
REL_METRIC = 1e-9


def close(value, reference, rel: float) -> bool:
    if value is None or reference is None:
        return value is None and reference is None
    return abs(value - reference) <= rel * max(abs(value), abs(reference))


def psnr_db(mse: Fraction) -> float | None:
    """PSNR against the fixed 8-bit peak; None where the report writes null."""
    return None if mse == 0 else 10.0 * math.log10(PEAK_SQ / float(mse))


def pgm_raster(data: bytes) -> tuple[int, int, bytes]:
    """Width, height and raster bytes of a P5 file with maxval 255."""
    fields = []
    i = 0
    while len(fields) < 4:
        while i < len(data) and (data[i : i + 1].isspace() or data[i] == 0x23):
            if data[i] == 0x23:  # '#' comment to end of line
                while i < len(data) and data[i] not in b"\r\n":
                    i += 1
            else:
                i += 1
        j = i
        while j < len(data) and not data[j : j + 1].isspace() and data[j] != 0x23:
            j += 1
        if j == i:
            raise ValueError("truncated PGM header")
        fields.append(data[i:j])
        i = j
    if fields[0] != b"P5" or fields[3] != b"255":
        raise ValueError(f"expected P5 with maxval 255, got {fields[0]!r} {fields[3]!r}")
    return int(fields[1]), int(fields[2]), data[i + 1 :]


class ClassStats:
    """Exact statistics of one cut set."""

    def __init__(self, classes: list[tuple[int, int, int]], n_total: int):
        self.means = [s1 / n for n, s1, _ in classes]
        self.scatter = sum(Fraction(n * s2 - s1 * s1, n) for n, s1, s2 in classes)
        self.mse = self.scatter / n_total
        # half-up rounding of s1/n, as quantize() does
        self.rounded = [(2 * s1 + n) // (2 * n) for n, s1, _ in classes]
        self.mse_rounded = Fraction(
            sum(s2 - 2 * r * s1 + r * r * n for (n, s1, s2), r in zip(classes, self.rounded)),
            n_total,
        )
        self.raster: bytes | None = None


class Reference:
    """Exact per-class sums of one input image, for any cut set."""

    def __init__(self, pixels: np.ndarray):
        self.pixels = pixels
        counts = np.bincount(pixels.ravel(), minlength=256).tolist()
        self.k0 = sum(1 for c in counts if c)
        self.n_total = sum(counts)
        self._cn, self._c1, self._c2 = [0], [0], [0]
        for g, c in enumerate(counts):
            self._cn.append(self._cn[-1] + c)
            self._c1.append(self._c1[-1] + g * c)
            self._c2.append(self._c2[-1] + g * g * c)
        self._stats: dict[tuple[int, ...], ClassStats] = {}

    def stats(self, cuts) -> ClassStats:
        """Statistics for a cut list; raises ValueError if it is not a valid partition."""
        key = tuple(cuts)
        if key not in self._stats:
            if not all(isinstance(c, int) and 0 <= c < 255 for c in key) or any(
                a >= b for a, b in zip(key, key[1:])
            ):
                raise ValueError(f"cuts {list(key)} are not increasing gray levels below 255")
            edges = [-1, *key, 255]
            classes = []
            for lo, hi in zip(edges, edges[1:]):
                n = self._cn[hi + 1] - self._cn[lo + 1]
                if n == 0:
                    raise ValueError(f"cuts {list(key)} leave the class ({lo}, {hi}] empty")
                classes.append(
                    (n, self._c1[hi + 1] - self._c1[lo + 1], self._c2[hi + 1] - self._c2[lo + 1])
                )
            self._stats[key] = ClassStats(classes, self.n_total)
        return self._stats[key]

    def expected_raster(self, cuts) -> bytes:
        """The quantized image as a 256-entry lookup of the rounded class means."""
        st = self.stats(cuts)
        if st.raster is None:
            lut = np.empty(256, dtype=np.uint8)
            edges = [-1, *cuts, 255]
            for (lo, hi), r in zip(zip(edges, edges[1:]), st.rounded):
                lut[lo + 1 : hi + 1] = r
            st.raster = lut[self.pixels].tobytes()
        return st.raster


def signature(command: str, report: dict):
    """The cut points a report chose; what the frozen values pin down."""
    if command == "threshold":
        return report["thresholds"]
    if command == "sweep":
        return [e["thresholds"] for e in report["entries"]]
    return [report["oracle_thresholds"], report["engine_thresholds"]]


def check_report(command: str, options: tuple[str, ...], report: dict, ref: Reference,
                 frozen=None, out_pgm: bytes | None = None) -> list[str]:
    """Problems found in one report; an empty list means the op is correct."""
    try:
        problems = _CHECKS[command](dict(zip(options[::2], options[1::2])), report, ref)
        if out_pgm is not None:
            problems += _check_out(report, ref, out_pgm)
        if frozen is not None and signature(command, report) != frozen:
            problems.append(f"cuts {signature(command, report)} differ from frozen {frozen}")
    except (KeyError, TypeError, ValueError) as exc:
        problems = [f"{type(exc).__name__}: {exc}"]
    return problems


def _check_cut_set(report_means, cuts, levels, ref, where) -> tuple[ClassStats, list[str]]:
    st = ref.stats(cuts)
    problems = []
    if len(cuts) != levels - 1:
        problems.append(f"{where}: {len(cuts)} cuts for {levels} classes")
    if report_means is not None and not (
        len(report_means) == len(st.means)
        and all(close(a, b, REL_MEANS) for a, b in zip(report_means, st.means))
    ):
        problems.append(f"{where}: class means {report_means} differ from {st.means}")
    return st, problems


def _check_threshold(opts, report, ref) -> list[str]:
    levels = int(opts["--levels"])
    st, problems = _check_cut_set(report["class_means"], report["thresholds"], levels, ref,
                                  "threshold")
    m = report["metrics"]
    for key, ref_value in (
        ("mse", float(st.mse)),
        ("psnr_db", psnr_db(st.mse)),
        ("mse_rounded", float(st.mse_rounded)),
        ("psnr_db_rounded", psnr_db(st.mse_rounded)),
    ):
        if not close(m[key], ref_value, REL_METRIC):
            problems.append(f"threshold: {key} {m[key]} differs from exact {ref_value}")
    return problems


def _check_sweep(opts, report, ref) -> list[str]:
    levels = sorted({int(t) for t in opts["--levels-list"].split(",")})
    problems = []
    if report["levels"] != levels or [e["level"] for e in report["entries"]] != levels:
        problems.append(f"sweep: levels {report['levels']} differ from {levels}")
    for e in report["entries"]:
        where = f"sweep level {e['level']}"
        st, found = _check_cut_set(None, e["thresholds"], e["level"], ref, where)
        problems += found
        for key, ref_value in (
            ("psnr_db_real_means", psnr_db(st.mse)),
            ("psnr_db_rounded", psnr_db(st.mse_rounded)),
        ):
            if not close(e[key], ref_value, REL_METRIC):
                problems.append(f"{where}: {key} {e[key]} differs from exact {ref_value}")
    return problems


def _check_oracle(opts, report, ref) -> list[str]:
    levels = int(opts["--levels"])
    oracle, p1 = _check_cut_set(None, report["oracle_thresholds"], levels, ref, "oracle")
    engine, p2 = _check_cut_set(None, report["engine_thresholds"], levels, ref, "engine")
    problems = p1 + p2
    for key, ref_value in (
        ("oracle_within_scatter", float(oracle.scatter)),
        ("engine_within_scatter", float(engine.scatter)),
        ("ratio", float(engine.scatter / oracle.scatter) if oracle.scatter else None),
    ):
        if not close(report[key], ref_value, REL_METRIC):
            problems.append(f"oracle: {key} {report[key]} differs from exact {ref_value}")
    if engine.scatter < oracle.scatter:
        problems.append("oracle: greedy scatter beats the exhaustive optimum")
    return problems


def _check_out(report, ref, out_pgm: bytes) -> list[str]:
    width, height, raster = pgm_raster(out_pgm)
    if (height, width) != ref.pixels.shape:
        return [f"--out image is {width}x{height}, input is {ref.pixels.shape[::-1]}"]
    if raster != ref.expected_raster(report["thresholds"]):
        return ["--out image differs from the lookup of rounded class means"]
    return []


_CHECKS = {"threshold": _check_threshold, "sweep": _check_sweep, "oracle": _check_oracle}
