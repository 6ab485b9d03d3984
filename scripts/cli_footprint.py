"""Wall time and peak memory of the ``hyperspin`` CLI, one process per run.

Run from the root of a checkout::

    python3 scripts/cli_footprint.py --out BENCH_1.json

Each case runs ``python -m hyperspin sweep --figure P --format F --out FILE``
for P in m08, nm08, h1a, h2b and F in csv, json, plus one ``measure`` call,
as a fresh process on this checkout's ``src``.  The cases alternate over
three rounds, so a drift of the host spreads over all of them.  A case's peak
memory is the ``ru_maxrss`` that ``wait4`` reports for its process.  That
figure also counts the spawning process's resident memory at the time of the
spawn, so this script imports nothing beyond the standard library and stays
well below every case.  The JSON written holds, per case, the median, min and
max of the wall seconds and of the peak RSS in MB.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
RUNS = 3
MEASURE = ["measure", "--channel", "lambda", "--phi", "1.5707963", "--mu", "0.8",
           "--tau", "0.1", "--time", "1.5"]  # fmt: skip


def _cases(out_dir: str) -> dict[str, list[str]]:
    cases = {}
    for preset in ("m08", "nm08", "h1a", "h2b"):
        for fmt in ("csv", "json"):
            out = os.path.join(out_dir, f"{preset}.{fmt}")
            cases[f"{preset}-{fmt}"] = ["sweep", "--figure", preset, "--format", fmt, "--out", out]
    cases["measure"] = MEASURE
    return cases


def _run(argv: list[str]) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one CLI process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    start = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, [sys.executable, "-m", "hyperspin", *argv], env, file_actions=quiet
    )
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"hyperspin {' '.join(argv)} exited with status {status}")
    return wall, usage.ru_maxrss / 1024.0  # kB on Linux


def _summary(values: list[float], digits: int) -> dict[str, float]:
    return {
        "median": round(statistics.median(values), digits),
        "min": round(min(values), digits),
        "max": round(max(values), digits),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        cases = _cases(tmp)
        samples: dict[str, list[tuple[float, float]]] = {name: [] for name in cases}
        for _ in range(RUNS):
            for name, argv in cases.items():
                samples[name].append(_run(argv))
    report = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "runs": RUNS,
        "cases": {
            name: {
                "wall_s": _summary([wall for wall, _ in runs], 4),
                "peak_rss_mb": _summary([rss for _, rss in runs], 2),
            }
            for name, runs in samples.items()
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, case in report["cases"].items():
        wall, rss = case["wall_s"], case["peak_rss_mb"]
        print(f"{name:10s} {wall['median']:8.3f} s  {rss['median']:7.2f} MB", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
