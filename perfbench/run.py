"""hyperspin benchmark: end-to-end runs with tracing off, per-layer with it on.

Run from the root of a checkout::

    python3 perfbench/run.py --workload preset-csv --seed 1 --seconds 55 --trace 0

Workloads (see README.md in this directory for why each was chosen and
why BENCHMARK.json lists only two of them):

* ``preset-csv``, ``preset-json``, ``phi-scan``: the ``hyperspin`` CLI as a
  fresh process per invocation, with CLI defaults (no ``--workers``,
  ``HYPERSPIN_THREADS`` unset), repeated until ``--seconds`` have passed.
* ``point-api``: a fresh worker process calling the library quick tour in a
  closed loop with one caller, over a point stream drawn from ``--seed``.

Every output is checked: CLI output files and the reference block against
the sha256 digests pinned in ``digests.json``, the seeded point stream
against ``run_sweep`` on one-point grids.  The last stdout line is the JSON
result; the line before it records the run environment.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150.0
SETUP_PROBES = 8
SETUP_ARGV = ["measure", "--channel", "lambda", "--phi", "1.5707963", "--mu", "0.8",
              "--tau", "0.1", "--time", "1.5"]

SWEEPS = {
    "preset-csv": {"argv": ["sweep", "--figure", "h1a", "--format", "csv"],
                   "fmt": "csv", "preset": "h1a"},
    "preset-json": {"argv": ["sweep", "--figure", "h1b", "--format", "json"],
                    "fmt": "json", "preset": "h1b"},
    "phi-scan": {"argv": ["sweep", "--channel", "xi-", "--grid", "phi=0:3.14159:0.0001",
                          "--mu", "0.8", "--tau", "5", "--grid", "time=2:2:1"],
                 "fmt": "csv", "preset": None},
}
WORKLOADS = (*SWEEPS, "point-api")
POINT_SEGMENT_S = 2.5
POINT_TRACE_PASSES = 3
POOL_PROBE_POINTS = 500
#: Printed on an ``info`` line, not gated in BENCHMARK.json: on a shared host
#: the tail of a ~100-us call follows the neighbours' load, which shifts over
#: minutes, so it spreads past any bound a regression gate could use.
INFO_METRICS = {"call_p99_us": "us"}


class Checkout:
    """Paths, the child environment and BENCHMARK.json of one checkout."""

    def __init__(self, root: Path) -> None:
        self.root = root
        with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
            self.bench = json.load(fh)
        self.src = root / "src"
        self.out = root / ".perfbench_out"
        env = dict(os.environ)
        env.pop("HYPERSPIN_THREADS", None)
        env["PYTHONPATH"] = str(self.src)
        self.env = env

    def hyperspin_argv(self, args: list[str]) -> list[str]:
        return [sys.executable, "-m", "hyperspin", *args]


def run_child(argv: list[str], env: dict, stdout: Path, stderr: Path) -> tuple[float, float, int]:
    """Run a process to completion; returns (wall seconds, peak RSS in MB, exit code)."""
    with open(stdout, "wb") as so, open(stderr, "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=so, stderr=se)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def p50_p99(values) -> tuple[float, float]:
    """Median, and the 99th percentile by nearest rank (the maximum below 100 samples)."""
    ordered = sorted(values)
    return statistics.median(ordered), ordered[math.ceil(0.99 * len(ordered)) - 1]


def load_digests() -> dict:
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


class SetupProbes:
    """Fresh ``hyperspin measure`` processes: interpreter start, import and one
    point, checked against the pinned digest.  The harness spreads them over
    the run so their median sees the same machine phases as the workload."""

    def __init__(self, co: Checkout, digests: dict) -> None:
        self.co, self.pinned = co, digests["setup-probe"]
        self.times: list[float] = []
        self.attempted = self.failed = 0
        self.probe(1, timed=False)  # warm-up: the first import may compile bytecode

    def probe(self, count: int, timed: bool = True) -> None:
        out = self.co.out / "setup.out"
        for _ in range(count):
            wall, _, code = run_child(self.co.hyperspin_argv(SETUP_ARGV), self.co.env, out,
                                      self.co.out / "setup.err")
            self.attempted += 1
            self.failed += not (code == 0 and file_sha256(out) == self.pinned)
            if timed:
                self.times.append(wall)

    def top_up(self) -> None:
        self.probe(SETUP_PROBES - len(self.times))


def cli_sweep(co: Checkout, name: str, digests: dict) -> tuple[float, float, bool, Path]:
    """One CLI invocation of a sweep workload; returns (wall, rss_mb, ok, output path)."""
    spec, pinned = SWEEPS[name], digests[name]
    out = co.out / f"{name}.{spec['fmt']}"
    err = co.out / f"{name}.err"
    wall, rss, code = run_child(co.hyperspin_argv([*spec["argv"], "--out", str(out)]),
                                co.env, co.out / f"{name}.stdout", err)
    ok = (code == 0 and out.is_file() and file_sha256(out) == pinned["sha256"]
          and err.read_text(encoding="utf-8").startswith(f"wrote {pinned['rows']} records"))
    return wall, rss, ok, out


def sweep_e2e(co: Checkout, name: str, seconds: float, digests: dict,
              probes: SetupProbes) -> tuple[dict, int, int]:
    """CLI invocations, each after a set-up probe, until ``seconds`` have passed
    (an invocation is not started if less than half of one would fit)."""
    walls, rss = [], []
    failed = 0
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start + 0.5 * statistics.fmean(walls) < seconds:
        probes.probe(1)
        wall, mb, ok, out = cli_sweep(co, name, digests)
        out.unlink(missing_ok=True)
        walls.append(wall)
        rss.append(mb)
        failed += not ok
    metrics = {
        "rows_per_s": digests[name]["rows"] * len(walls) / sum(walls),
        "peak_rss_mb": statistics.median(rss),
        "call_p50_us": statistics.median(walls) * 1e6,
    }
    return metrics, len(walls), failed


def write_points(co: Checkout, seed: int) -> tuple[Path, list, list]:
    from bench_points import (REFERENCE_POINTS, REFERENCE_SEED, STREAM_POINTS,
                              point_stream)

    stream = point_stream(seed, STREAM_POINTS)
    reference = point_stream(REFERENCE_SEED, REFERENCE_POINTS)
    path = co.out / "points.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"stream": stream, "reference": reference}, fh)
    return path, stream, reference


def oracle_lines(points: list) -> list[str]:
    """Each point through ``run_sweep`` on a one-point grid: the sweep's own
    evaluation path, independent of the quick-tour calls."""
    import hyperspin as hs

    return [
        hs.run_sweep(hs.SweepGrid(name, (phi,), (mu,), (tau,), hs.TimeGrid(t, t, 1.0)),
                     workers=1).rows[0].csv_line()
        for name, phi, mu, tau, t in points
    ]


def point_e2e(co: Checkout, seed: int, seconds: float, digests: dict,
              probes: SetupProbes) -> tuple[dict, int, int]:
    """Worker segments of POINT_SEGMENT_S each, a set-up probe before each,
    until ``seconds`` have passed.

    Every segment is a fresh process running the same closed loop, and each
    metric is the median over segments, which keeps a run's figure steady when
    the machine's speed shifts for a few seconds.  The first segment's first
    pass is checked against the oracle, every later one against the first.
    """
    from bench_points import lines_digest

    points_path, stream, reference = write_points(co, seed)
    out = co.out / "point-api.json"
    segs: list[dict] = []
    rss: list[float] = []
    failed = 0
    start = time.perf_counter()
    while len(segs) < 3 or time.perf_counter() - start < seconds:
        probes.probe(1)
        _, mb, code = run_child(
            [sys.executable, str(HERE / "point_worker.py"), str(points_path),
             str(POINT_SEGMENT_S), str(out)],
            co.env, co.out / "point-api.stdout", co.out / "point-api.err")
        if code != 0:
            raise RuntimeError(f"point-api worker exited {code}")
        with open(out, encoding="utf-8") as fh:
            res = json.load(fh)
        expected = oracle_lines(stream) if not segs else segs[0]["lines"]
        failed += res["failed"] + sum(a != b for a, b in zip(res["lines"], expected))
        if lines_digest(res["reference_lines"]) != digests["point-api-reference"]:
            failed += len(reference)
        segs.append(res)
        rss.append(mb)
    metrics = {
        "rows_per_s": statistics.median(r["calls"] / r["loop_s"] for r in segs),
        "peak_rss_mb": statistics.median(rss),
        "call_p50_us": statistics.median(r["p50_us"] for r in segs),
        "call_p99_us": statistics.median(r["p99_us"] for r in segs),
    }
    return metrics, sum(r["calls"] for r in segs) + len(segs) * len(reference), failed


def run_e2e(co: Checkout, name: str, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    """Every ``end_to_end`` metric in BENCHMARK.json, and the ungated ones
    (``INFO_METRICS``) that the workload measures."""
    digests = load_digests()
    probes = SetupProbes(co, digests)
    if name == "point-api":
        metrics, attempted, failed = point_e2e(co, seed, seconds, digests, probes)
    else:
        metrics, attempted, failed = sweep_e2e(co, name, seconds, digests, probes)
    probes.top_up()
    metrics["setup_s"] = statistics.median(probes.times)
    info = {key: {"value": metrics[key], "unit": unit}
            for key, unit in INFO_METRICS.items() if key in metrics}
    return ({m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
             for m in co.bench["end_to_end"]},
            attempted + probes.attempted, failed + probes.failed, info)


# ---------------------------------------------------------------- tracing


def sweep_call(name: str, workers):
    import hyperspin as hs

    spec = SWEEPS[name]
    if spec["preset"]:
        return hs.run_preset(spec["preset"], workers=workers)
    return hs.run_sweep(phi_scan_grid(), workers=workers)


def phi_scan_grid():
    """The ``phi-scan`` CLI grid, built the way the CLI builds it."""
    import hyperspin as hs

    phis = tuple(hs.TimeGrid(0.0, 3.14159, 0.0001).values())
    return hs.SweepGrid("xi-", phis, (0.8,), (5.0,), hs.TimeGrid(2.0, 2.0, 1.0))


def sweep_traced(co: Checkout, name: str, tr) -> tuple[dict, int, int]:
    import hyperspin as hs
    from bench_trace import traced_render, traced_sweep_rows

    digests = load_digests()
    spec = SWEEPS[name]
    fmt = spec["fmt"]
    cli_wall, _, ok, cli_out = cli_sweep(co, name, digests)
    cli_bytes = cli_out.read_bytes() if ok else b""
    cli_out.unlink(missing_ok=True)

    # Untraced in-process runs: what the CLI does, then the serial baseline.
    t0 = time.perf_counter()
    result = sweep_call(name, None)
    t_pool = time.perf_counter() - t0
    t0 = time.perf_counter()
    hs.emit(result, fmt, co.out / f"{name}.inproc")
    t_emit = time.perf_counter() - t0
    del result
    (co.out / f"{name}.inproc").unlink()
    t0 = time.perf_counter()
    result = sweep_call(name, 1)
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    hs.emit(result, fmt, io.StringIO())
    t_render = time.perf_counter() - t0
    metadata = result.metadata
    del result

    grid = hs.figure_preset(spec["preset"]).grid if spec["preset"] else phi_scan_grid()
    rows = traced_sweep_rows(tr, grid)
    replay = traced_render(tr, hs.SweepResult(rows, metadata), fmt, co.out / f"{name}.traced")
    (co.out / f"{name}.traced").unlink()
    n_rows = len(rows)
    del rows
    same = ok and replay == cli_bytes
    traced_wall = tr.total_s("sweep.eval") + tr.total_s(f"sweep.render_{fmt}")
    extra = {
        "sweep.pool_overhead.s": t_pool - t_serial,
        "sweep.bytes": len(replay),
        "sweep.rows": n_rows,
        "sweep.us_per_row": (t_pool + t_emit) / n_rows * 1e6,
        "cli.overhead.s": cli_wall - (t_pool + t_emit),
        "trace.overhead.s": traced_wall - (t_serial + t_render),
    }
    return extra, 2, (not ok) + (not same)


def point_traced(co: Checkout, seed: int, tr) -> tuple[dict, int, int]:
    import hyperspin as hs
    from bench_points import lines_digest, point_rows, quick_tour
    from bench_trace import traced_quick_tour, traced_render

    digests = load_digests()
    _, stream, reference = write_points(co, seed)

    t0 = time.perf_counter()
    for _ in range(POINT_TRACE_PASSES):
        plain = [quick_tour(*p) for p in stream]
    t_plain = time.perf_counter() - t0

    tr.begin("api.stream")
    for _ in range(POINT_TRACE_PASSES):
        traced = [traced_quick_tour(tr, *p) for p in stream]
    traced_wall = tr.end()

    plain_csv = io.StringIO()
    hs.emit(hs.SweepResult(point_rows(stream, plain), {}), "csv", plain_csv)
    replay = traced_render(tr, hs.SweepResult(point_rows(stream, traced), {}), "csv",
                           co.out / "point-api.traced")
    (co.out / "point-api.traced").unlink()
    same = replay == plain_csv.getvalue().encode("utf-8")
    ref_lines = [r.csv_line() for r in point_rows(reference, [quick_tour(*p) for p in reference])]
    ref_ok = lines_digest(ref_lines) == digests["point-api-reference"]

    # The pool never engages on a one-point grid; this records that it stays so.
    probe = stream[:POOL_PROBE_POINTS]
    pool_s = {}
    for workers in (None, 1):
        t0 = time.perf_counter()
        lines = [hs.run_sweep(hs.SweepGrid(n, (p,), (m,), (u,), hs.TimeGrid(t, t, 1.0)),
                              workers=workers).rows[0].csv_line() for n, p, m, u, t in probe]
        pool_s[workers] = time.perf_counter() - t0
    oracle_ok = lines == [r.csv_line() for r in point_rows(probe, plain)]

    # One point through the ``measure`` CLI against the same point in process.
    name, phi, mu, tau, t = stream[0]
    argv = ["measure", "--channel", name, "--phi", repr(phi), "--mu", repr(mu),
            "--tau", repr(tau), "--time", repr(t)]
    out = co.out / "point-api.measure"
    cli_wall, _, code = run_child(co.hyperspin_argv(argv), co.env, out, co.out / "point-api.err")
    t0 = time.perf_counter()
    expected = json.dumps(point_rows([stream[0]], [quick_tour(*stream[0])])[0].as_dict()) + "\n"
    t_inproc = time.perf_counter() - t0
    cli_ok = code == 0 and out.read_bytes() == expected.encode("utf-8")

    n_calls = POINT_TRACE_PASSES * len(stream)
    extra = {
        "sweep.pool_overhead.s": pool_s[None] - pool_s[1],
        "sweep.bytes": len(replay),
        "sweep.rows": len(stream),
        "sweep.us_per_row": t_plain / n_calls * 1e6,
        "cli.overhead.s": cli_wall - t_inproc,
        "trace.overhead.s": traced_wall - t_plain,
    }
    checks = (same, ref_ok, oracle_ok, cli_ok)
    return extra, len(checks), sum(not c for c in checks)


def run_traced(co: Checkout, name: str, seed: int) -> tuple[dict, int, int]:
    """One traced replay; every ``per_layer`` metric in BENCHMARK.json."""
    from bench_trace import Tracer

    tr = Tracer(f"{name}-seed{seed}")
    if name == "point-api":
        extra, attempted, failed = point_traced(co, seed, tr)
    else:
        extra, attempted, failed = sweep_traced(co, name, tr)
    tr.dump(co.out / f"trace-{name}.json")
    values = {
        "production.density_matrix.calls": tr.calls("production.density_matrix"),
        "channel.memory_kernel.calls": tr.calls("channel.memory_kernel"),
        "measures.calls": tr.calls("measures.steering"),
        **extra,
    }
    metrics = {}
    for m in co.bench["per_layer"]:
        key = m["name"]
        value = values[key] if key in values else tr.self_s(key.removesuffix(".s"))
        metrics[key] = {"value": value, "unit": m["unit"]}
    return metrics, attempted, failed


# ---------------------------------------------------------------- entry point


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "hyperspin").glob("*.py")):
        h.update(path.name.encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def read_commit(root: Path) -> str | None:
    """HEAD of the checkout's own ``.git``, if it has one; never searches upwards."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split(" ", 1)[0]
    return None


def environment(co: Checkout) -> dict:
    import numpy

    cpus = os.cpu_count() or 1
    return {
        "nproc": cpus,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "default_workers": min(8, cpus),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": read_commit(co.root),
        "src_sha256": source_digest(co.src),
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    co = Checkout(root)
    if not (co.src / "hyperspin" / "__init__.py").is_file():
        print(f"perfbench: no hyperspin sources under {co.src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(co.src), str(HERE)]
    import hyperspin

    if not Path(hyperspin.__file__).resolve().is_relative_to(co.src.resolve()):
        print(f"perfbench: hyperspin imported from {hyperspin.__file__}, not {co.src}",
              file=sys.stderr)
        return 2
    co.out.mkdir(exist_ok=True)
    info: dict = {}
    if args.trace:
        metrics, attempted, failed = run_traced(co, args.workload, args.seed)
    else:
        metrics, attempted, failed, info = run_e2e(co, args.workload, args.seed, args.seconds)
    if info:
        print("info " + json.dumps(info))
    print("env " + json.dumps(environment(co), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
