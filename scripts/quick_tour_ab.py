"""Per-call cost of the library quick tour, this checkout against another.

Run from the root of a checkout::

    python3 scripts/quick_tour_ab.py --against ../other-checkout --rounds 10

Each round runs one fresh process per checkout, on that checkout's own
``src`` and ``perfbench``, and the order of the two alternates from round to
round, so a drift of the host's speed falls on both sides alike.  A process
times 5 passes of ``perfbench/bench_points.quick_tour`` over
``point_stream(1, 4000)`` and reports its best pass, in µs per call.  The
script prints, per side, the median, q1 and q3 of those best passes, and the
number of rounds each side was the faster in.  It uses the standard library
only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PASSES = 5
SEED = 1
POINTS = 4000

#: Run in a fresh interpreter with the checkout root as its working directory;
#: prints the best pass in µs per call.
CHILD = f"""
import sys, time
sys.path[:0] = ["src", "perfbench"]
import hyperspin as hs
from bench_points import point_stream, quick_tour
points = point_stream({SEED}, {POINTS})
best = float("inf")
for _ in range({PASSES}):
    start = time.perf_counter()
    for p in points:
        try:
            quick_tour(*p)
        except hs.HyperspinError:
            pass
    best = min(best, time.perf_counter() - start)
print(best / len(points) * 1e6)
"""


def _best_pass_us(root: Path) -> float:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "-c", CHILD],
        cwd=root, env=env, check=True, capture_output=True, text=True,
    )  # fmt: skip
    return float(out.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, type=Path, help="root of the other checkout")
    parser.add_argument("--rounds", type=int, default=10, help="alternating rounds (at least 2)")
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    sides = {"this": ROOT, "against": args.against.resolve()}
    for root in sides.values():
        if not (root / "perfbench" / "bench_points.py").is_file():
            parser.error(f"{root} is not a hyperspin checkout with perfbench/bench_points.py")
    samples: dict[str, list[float]] = {name: [] for name in sides}
    wins = dict.fromkeys(sides, 0)
    for r in range(args.rounds):
        order = list(sides) if r % 2 == 0 else list(reversed(sides))
        got = {name: _best_pass_us(sides[name]) for name in order}
        for name, us in got.items():
            samples[name].append(us)
        wins[min(got, key=got.__getitem__)] += 1
        print(f"round {r + 1}: " + "  ".join(f"{n} {got[n]:.2f}" for n in sides), file=sys.stderr)
    print(f"quick tour, best of {PASSES} passes over {POINTS} points, µs per call")
    for name, root in sides.items():
        q1, med, q3 = statistics.quantiles(samples[name], n=4, method="inclusive")
        print(
            f"{name:8s} median {med:6.2f}  q1 {q1:6.2f}  q3 {q3:6.2f}  "
            f"won {wins[name]}/{args.rounds}  {root}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
