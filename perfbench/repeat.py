"""Run the benchmark over several seeds and summarise each metric's spread.

Run from the root of a checkout::

    python3 perfbench/repeat.py --workloads preset-csv phi-scan --seeds 1-5
    python3 perfbench/repeat.py --seeds 1-10 --write perfbench/baseline.json

For every workload and end-to-end metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and their distance as a
share of the median, against the metric's bound in BENCHMARK.json.  With
``--write`` it also makes one traced run per workload (first seed) and
stores its per-layer metrics with the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str, dict]:
    """The result, the ``env`` line and the ungated ``info`` metrics of one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    info = [json.loads(line[5:]) for line in lines if line.startswith("info ")]
    return json.loads(lines[-1]), lines[-2], info[0] if info else {}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv: list[str]) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--write", help="also write the summary as a baseline file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        per_metric: dict[str, list[float]] = {}
        failed = 0
        for seed in args.seeds:
            result, env_line, info = run_once(workload, seed, bench["run_seconds"], 0)
            failed += result["failed"]
            for name, m in {**result["metrics"], **info}.items():
                per_metric.setdefault(name, []).append(m["value"])
        summary["env"] = json.loads(env_line.split(" ", 1)[1])
        stats = {name: summarise(v) for name, v in per_metric.items()}
        summary["workloads"][workload] = {"failed": failed, "metrics": stats}
        if args.write:
            traced, _, _ = run_once(workload, args.seeds[0], bench["run_seconds"], 1)
            summary["workloads"][workload]["per_layer"] = {
                name: m["value"] for name, m in traced["metrics"].items()}
            failed += traced["failed"]
        for name, s in stats.items():
            line = f"{workload:12s} {name:12s} median {s['median']:14.6g} spread {s['spread']:7.2%}"
            if name not in bounds:
                print(line + " (info, no bound)")
                continue
            steady = name == "setup_s" or s["spread"] < bounds[name] / 3
            ok = ok and steady
            print(line + f" bound {bounds[name]:.0%} {'ok' if steady else 'WIDE'}")
        print(f"{workload:12s} failed operations: {failed}")
        ok = ok and failed == 0
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
