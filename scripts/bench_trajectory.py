"""Record one point of the benchmark trajectory as BENCH_<pr>.json.

    python3 scripts/bench_trajectory.py PR

Runs perfbench/run.py once per workload of BENCHMARK.json, untraced
(--trace 0, the end-to-end metrics) and traced (--trace 1, the per-layer
table), each for SECONDS at seed 7; threshold-2048 also runs at seed 11,
where quantize scans the raster for its top gray.  Each run's verdict and
metrics come from its last stdout line, and the calibration unit's median
time (unit_ms, which says how fast the machine ran) from the notes line
above it; traced runs print none.  The file, written at the repository
root, also holds the HEAD commit and whether the tree had uncommitted
changes, so a point can be traced to the code it measured.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 8
SEEDS = {"threshold-2048": (7, 11)}
DEFAULT_SEEDS = (7,)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def run(workload: str, seed: int, trace: int) -> dict:
    """One perfbench run: its verdict, its metrics and the calibration unit."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                           text=True).stdout.splitlines()
    result = json.loads(lines[-1])
    unit = re.search(r"\bunit_ms ([^,\s]+)", lines[-2])
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "end_to_end" if trace == 0 else "layers": result["metrics"],
        "unit_ms": float(unit[1]) if unit else None,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isascii() or not argv[0].isdigit():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    pr = int(argv[0])
    sha, dirty = git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    seeds = {w: list(SEEDS.get(w, DEFAULT_SEEDS)) for w in workloads}
    runs = []
    for w in workloads:
        for seed in seeds[w]:
            for trace in (0, 1):
                runs.append(run(w, seed, trace))
                print(f"{w} seed {seed} trace {trace}: correct {runs[-1]['correct']}",
                      file=sys.stderr)
    point = {"pr": pr, "sha": sha, "dirty": dirty, "seconds": SECONDS, "seeds": seeds,
             "runs": runs}
    path = ROOT / f"BENCH_{pr}.json"
    path.write_text(json.dumps(point, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
