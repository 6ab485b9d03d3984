"""Wall time and peak memory of the ``hyperspin`` CLI, one process per run.

Run from the root of a checkout::

    python3 scripts/cli_footprint.py --out BENCH_2.json
    python3 scripts/cli_footprint.py --against ../other-checkout --rounds 10 \\
        --case h1a-json --case h2b-csv

Each case runs ``python -m hyperspin sweep --figure P --format F --out FILE``
for P in m08, nm08, h1a, h2b and F in csv, json, plus one ``measure`` call,
as a fresh process on this checkout's ``src``.  ``--case`` keeps only the
cases named.  The cases alternate over ``--rounds`` rounds, so a drift of
the host spreads over all of them.  A case's peak memory is the
``ru_maxrss`` that ``wait4`` reports for its process.  That figure also
counts the spawning process's resident memory at the time of the spawn, so
this script imports nothing beyond the standard library.  It peaks at about
14.7 MB (Python 3.11, Linux x86-64), below every case: ``measure``, which
loads no numpy, peaks at about 16 MB.  The JSON written holds, per case,
the median, min and max of the wall seconds and of the peak RSS in MB, with
two or more rounds also their first and third quartiles (``q1``, ``q3``),
and ``spawner_peak_rss_mb``, this script's own peak; a case whose peak is
not above it is reported on stderr, as its figure may be the spawner's.

With ``--against``, each round runs every case once on this checkout's
``src`` and once on the other checkout's, the order of the two alternating
from round to round, so a drift of the host's speed falls on both sides
alike.  The script then prints, per case and side, the median wall seconds
and peak RSS with their quartiles in brackets, and the number of rounds
each side was the faster in and the smaller in; the JSON holds the same per
side.  ``--out`` is optional then.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
RUNS = 3
MEASURE = ["measure", "--channel", "lambda", "--phi", "1.5707963", "--mu", "0.8",
           "--tau", "0.1", "--time", "1.5"]  # fmt: skip
PRESETS = ("m08", "nm08", "h1a", "h2b")
CASES = [f"{preset}-{fmt}" for preset in PRESETS for fmt in ("csv", "json")] + ["measure"]


def _argv(case: str, out_dir: str) -> list[str]:
    if case == "measure":
        return MEASURE
    preset, fmt = case.split("-")
    out = os.path.join(out_dir, f"{case}.{fmt}")
    return ["sweep", "--figure", preset, "--format", fmt, "--out", out]


def _run(argv: list[str], src: Path) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one CLI process on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    start = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, [sys.executable, "-m", "hyperspin", *argv], env, file_actions=quiet
    )
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"hyperspin {' '.join(argv)} on {src} exited with status {status}")
    return wall, usage.ru_maxrss / 1024.0  # kB on Linux


def _summary(values: list[float], digits: int) -> dict[str, float]:
    """Median, min and max of ``values`` and, from two values on, their first
    and third quartiles, whose distance is the spread a gain must exceed."""
    summary = {
        "median": round(statistics.median(values), digits),
        "min": round(min(values), digits),
        "max": round(max(values), digits),
    }
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        summary.update(q1=round(q1, digits), q3=round(q3, digits))
    return summary


def _text(summary: dict[str, float], spec: str) -> str:
    """The median of ``summary`` and, when it has them, its quartiles."""
    text = format(summary["median"], spec)
    if "q1" in summary:
        text += f" [{summary['q1']:{spec}}, {summary['q3']:{spec}}]"
    return text


def _case_report(runs: list[tuple[float, float]]) -> dict[str, dict[str, float]]:
    return {
        "wall_s": _summary([wall for wall, _ in runs], 4),
        "peak_rss_mb": _summary([rss for _, rss in runs], 2),
    }


def _wins(samples: dict[str, list[tuple[float, float]]], metric: int) -> dict[str, int]:
    """Per side, the rounds in which it had the lower value of ``metric``
    (0 wall, 1 peak RSS); a tie counts for neither."""
    wins = dict.fromkeys(samples, 0)
    for pair in zip(*samples.values()):
        low = min(values[metric] for values in pair)
        winners = [side for side, values in zip(samples, pair) if values[metric] == low]
        if len(winners) == 1:
            wins[winners[0]] += 1
    return wins


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON file to write (required without --against)")
    parser.add_argument("--against", type=Path, help="root of another checkout to compare with")
    parser.add_argument("--rounds", type=int, default=RUNS, help=f"rounds (default {RUNS})")
    parser.add_argument("--case", action="append", choices=CASES, help="run only this case")
    args = parser.parse_args()
    if args.against is None and args.out is None:
        parser.error("--out is required without --against")
    if args.rounds < 1 or (args.against is not None and args.rounds < 2):
        parser.error("--rounds must be at least 1, and at least 2 with --against")
    sides = {"this": SRC}
    if args.against is not None:
        sides["against"] = args.against.resolve() / "src"
        if not (sides["against"] / "hyperspin" / "cli.py").is_file():
            parser.error(f"{args.against} is not a hyperspin checkout with src/hyperspin")
    cases = args.case or CASES
    samples = {case: {side: [] for side in sides} for case in cases}
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(args.rounds):
            order = list(sides) if r % 2 == 0 else list(reversed(sides))
            for case in cases:
                for side in order:
                    samples[case][side].append(_run(_argv(case, tmp), sides[side]))
    spawner_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux
    report = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "runs": args.rounds,
        "spawner_peak_rss_mb": round(spawner_mb, 2),
    }
    if args.against is None:
        report["cases"] = {case: _case_report(runs["this"]) for case, runs in samples.items()}
    else:
        report["sides"] = {side: str(src.parent) for side, src in sides.items()}
        report["cases"] = {
            case: {
                **{side: _case_report(runs) for side, runs in by_side.items()},
                "rounds_faster": _wins(by_side, 0),
                "rounds_smaller": _wins(by_side, 1),
            }
            for case, by_side in samples.items()
        }
    if args.out is not None:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for case, by_side in samples.items():
        wall_wins, rss_wins = _wins(by_side, 0), _wins(by_side, 1)
        for side, runs in by_side.items():
            summary = _case_report(runs)
            wall, rss = _text(summary["wall_s"], ".3f"), _text(summary["peak_rss_mb"], ".2f")
            line = f"{case:10s} {wall:>8} s  {rss:>7} MB"
            if args.against is not None:
                line = (
                    f"{line}  {side:8s} faster {wall_wins[side]}/{args.rounds}  "
                    f"smaller {rss_wins[side]}/{args.rounds}"
                )
            print(line, file=sys.stderr)
            if min(m for _, m in runs) <= spawner_mb:
                print(f"{case} ({side}): peak RSS not above this script's own", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
