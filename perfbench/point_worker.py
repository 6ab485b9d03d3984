"""Closed-loop ``point-api`` client: one caller, next call after the last returns.

Usage: ``point_worker.py POINTS_JSON SECONDS OUT_JSON``.  Runs as a fresh
process so its peak RSS is the library's, not the harness's.  It cycles over
the stream until SECONDS have passed (always at least one full pass), timing
each quick-tour call, then evaluates the reference block.  The first pass
and the reference block are rendered afterwards, outside the timed loop, so
the harness can check them.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

import hyperspin as hs
from bench_points import as_row, quick_tour
from run import p50_p99


def render(points, results) -> list[str]:
    return [
        "" if res is None else as_row(p[0], p[1], p[4], *res).csv_line()
        for p, res in zip(points, results)
    ]


def main(argv: list[str]) -> int:
    points_path, seconds, out_path = argv[0], float(argv[1]), argv[2]
    with open(points_path, encoding="utf-8") as fh:
        data = json.load(fh)
    stream = [tuple(p) for p in data["stream"]]

    clock = time.perf_counter_ns
    latencies = array("q")
    first_pass: list = []
    failed = 0
    start = time.perf_counter()
    while True:
        keep = not first_pass
        for name, phi, mu, tau, t in stream:
            t0 = clock()
            try:
                res = quick_tour(name, phi, mu, tau, t)
            except hs.HyperspinError:
                res = None
                failed += 1
            latencies.append(clock() - t0)
            if keep:
                first_pass.append(res)
        if time.perf_counter() - start >= seconds:
            break
    loop_s = time.perf_counter() - start

    reference = [tuple(p) for p in data["reference"]]
    ref_results = []
    for p in reference:
        try:
            ref_results.append(quick_tour(*p))
        except hs.HyperspinError:
            ref_results.append(None)

    p50, p99 = p50_p99(latencies)
    out = {
        "calls": len(latencies),
        "failed": failed,
        "loop_s": loop_s,
        "p50_us": p50 / 1e3,
        "p99_us": p99 / 1e3,
        "lines": render(stream, first_pass),
        "reference_lines": render(reference, ref_results),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
