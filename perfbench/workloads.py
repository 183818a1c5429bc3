"""The benchmark's workloads, their inputs, and why each one is here.

Every input is `standard_image` from tests/helpers.py: a smooth sinusoid
field plus seeded noise, standing in for a natural 8-bit photograph.  The
formula is repeated here so that the benchmark generates its inputs
without importing the test suite.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 7

SWEEP_LEVELS = ",".join(str(m) for m in range(2, 26))


@dataclass(frozen=True)
class Workload:
    """One histoseg command, the PGM inputs it cycles through, and its purpose."""

    name: str
    command: str  # histoseg subcommand
    options: tuple[str, ...]  # arguments after the input path, without --out/--report
    size: int  # side of each square input image
    fmt: str  # "P5" (binary) or "P2" (ASCII)
    images: int  # inputs cycled through; input i uses seed + i
    out: bool  # pass --out, so the PGM encoder runs
    stresses: str  # the layer the workload is here to measure
    bypasses: str  # a layer it never calls, where a change should show nothing


WORKLOADS = {
    w.name: w
    for w in (
        # Per-pixel passes (quantize, class means, 2x psnr) on 32 MiB of float64
        # temporaries, 8x the L2 cache; P5 codec and histogram second.
        Workload(
            name="threshold-2048",
            command="threshold",
            options=("--levels", "4"),
            size=2048,
            fmt="P5",
            images=1,
            out=True,
            stresses="metrics",
            bypasses="oracle",
        ),
        # One merge pass serves 24 thresholds_at replays and 96 pixel passes, so
        # per-level cost shows here and not on threshold-2048.  At 256^2 a
        # 30-second run completes well over 100 ops even when the host is slow,
        # so ten or more lie beyond the 90th percentile.
        Workload(
            name="sweep-256",
            command="sweep",
            options=("--levels-list", SWEEP_LEVELS),
            size=256,
            fmt="P5",
            images=1,
            out=False,
            stresses="metrics",
            bypasses="oracle",
        ),
        # ASCII P2 decode of 16 small tiles dominates; the working set fits in
        # L2, so engine and per-call CLI overhead come next.
        Workload(
            name="tiles-128-p2",
            command="threshold",
            options=("--levels", "4"),
            size=128,
            fmt="P2",
            images=16,
            out=False,
            stresses="pgm",
            bypasses="oracle",
        ),
        # Brute-force exhaustive_otsu over comb(K0-1, 2) cut sets dominates; the
        # metrics layer is not touched.
        Workload(
            name="oracle-512",
            command="oracle",
            options=("--levels", "3"),
            size=512,
            fmt="P5",
            images=1,
            out=False,
            stresses="oracle",
            bypasses="metrics",
        ),
    )
}


def standard_image(size: int, seed: int) -> np.ndarray:
    """The uint8 pixels of tests/helpers.py's standard_image(size, seed)."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size] / size
    base = (
        128
        + 58 * np.sin(2 * np.pi * (1.3 * xx + 0.4 * yy))
        + 36 * np.cos(2 * np.pi * (2.1 * yy + 1.7 * xx * xx))
    )
    px = np.clip(np.rint(base + rng.normal(0, 8, (size, size))), 0, 255)
    return px.astype(np.uint8)


def encode_pgm(pixels: np.ndarray, fmt: str) -> bytes:
    """Plain Netpbm encoding, independent of the codec under test."""
    height, width = pixels.shape
    header = f"{fmt}\n{width} {height}\n255\n".encode("ascii")
    if fmt == "P5":
        return header + pixels.tobytes()
    flat = [str(v) for v in pixels.ravel().tolist()]
    lines = [" ".join(flat[i : i + 17]) for i in range(0, len(flat), 17)]
    return header + "\n".join(lines).encode("ascii") + b"\n"
