"""Command-line front end.

Subcommands: ``params`` (channel constants), ``measure`` (one grid point),
``sweep`` (figure presets or explicit grids, CSV/JSON output), ``check``
(embedded invariant suite).  Exit codes: 0 ok, 1 runtime or numeric
failure, 2 usage, 3 self-check failure, 130 interrupted (SIGINT), 143
terminated (SIGTERM during ``sweep``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NoReturn, Sequence

from ._version import __version__
from .errors import (
    GridSyntaxError,
    HyperspinError,
    UnknownChannelError,
    UnknownPresetError,
)
from .grid import (
    CSV_HEADER,
    SweepGrid,
    TimeGrid,
    _check_rows,
    _to_sink,
    axis_values,
    check_range,
    point_row,
)
from .production import channel_params

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_CHECK = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT
EXIT_TERMINATED = 143  # 128 + SIGTERM

GRID_AXES = ("time", "phi", "mu", "tau")


def _add_phi_arguments(parser: argparse.ArgumentParser, required: bool) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--phi", type=float, help="production angle in radians")
    group.add_argument(
        "--phi-deg", type=float, help="production angle in degrees (converted at parse)"
    )


def _resolve_phi(args: argparse.Namespace) -> float | None:
    if args.phi_deg is not None:
        return math.radians(args.phi_deg)
    return args.phi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperspin",
        description="Hyperon-pair spin states under correlated dephasing: "
        "steering, entanglement, discord and coherence.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"hyperspin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="print the constants of one channel")
    p_params.add_argument("--channel", required=True)

    p_measure = sub.add_parser("measure", help="evaluate all measures at one point")
    p_measure.add_argument("--channel", required=True)
    _add_phi_arguments(p_measure, required=True)
    p_measure.add_argument("--mu", type=float, required=True)
    p_measure.add_argument("--tau", type=float, required=True)
    p_measure.add_argument("--time", type=float, required=True)
    p_measure.add_argument("--format", choices=("json", "csv"), default="json")
    p_measure.add_argument("--out", help="output path (default stdout)")

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid")
    p_sweep.add_argument("--figure", help="figure preset id")
    p_sweep.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="AXIS=START:STOP:STEP",
        help="axis specification; repeatable (axes: time, phi, mu, tau)",
    )
    p_sweep.add_argument("--channel")
    _add_phi_arguments(p_sweep, required=False)
    p_sweep.add_argument("--mu", type=float)
    p_sweep.add_argument("--tau", type=float)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", help="output path (default stdout)")

    sub.add_parser("check", help="run the embedded invariant suite")
    return parser


def _parse_axis(spec: str) -> tuple[str, list[float], int]:
    """One ``--grid`` axis: its name, its bounds and its number of points."""
    name, sep, rest = spec.partition("=")
    if not sep or name not in GRID_AXES:
        raise GridSyntaxError(
            f"bad grid spec {spec!r}; expected AXIS=START:STOP:STEP with AXIS in {GRID_AXES}"
        )
    parts = rest.split(":")
    if len(parts) != 3:
        raise GridSyntaxError(f"bad grid range {rest!r}; expected START:STOP:STEP")
    try:
        bounds = [float(p) for p in parts]
    except ValueError:
        raise GridSyntaxError(f"non-numeric grid range {rest!r}") from None
    if name == "time":
        return name, bounds, len(TimeGrid(*bounds))
    return name, bounds, check_range(name, *bounds)


def _sweep_grid_from_args(args: argparse.Namespace) -> SweepGrid:
    axes: dict[str, tuple[list[float], int]] = {}
    for spec in args.grid:
        name, bounds, count = _parse_axis(spec)
        if name in axes:
            raise GridSyntaxError(f"axis {name!r} specified twice")
        axes[name] = bounds, count
    if "time" not in axes:
        raise GridSyntaxError("sweep needs a time axis: --grid time=START:STOP:STEP")
    # Tested for None, as ``--figure`` is: ``--channel ""`` is an unknown channel.
    if args.channel is None:
        raise GridSyntaxError("sweep needs --channel")

    scalars = {"phi": _resolve_phi(args), "mu": args.mu, "tau": args.tau}
    for name in ("phi", "mu", "tau"):
        if name in axes:
            if scalars[name] is not None:
                raise GridSyntaxError(f"{name} given both as scalar and as grid axis")
        elif scalars[name] is None:
            raise GridSyntaxError(f"missing {name}: pass --{name} or --grid {name}=...")
    # An unknown channel stays a usage error; then the rows are counted
    # before any axis is built.
    channel_params(args.channel)
    _check_rows(math.prod(count for _, count in axes.values()))
    time = TimeGrid(*axes.pop("time")[0])
    values = {name: (float(value),) for name, value in scalars.items() if name not in axes}
    for name, (bounds, _) in axes.items():
        values[name] = tuple(axis_values(name, *bounds))
    return SweepGrid(args.channel, values["phi"], values["mu"], values["tau"], time)


def _cmd_params(args: argparse.Namespace) -> int:
    ch = channel_params(args.channel)
    print(
        json.dumps(
            {
                "channel": ch.name,
                "upsilon_psi": ch.upsilon_psi,
                "delta_theta": ch.delta_theta,
            }
        )
    )
    return EXIT_OK


def _cmd_measure(args: argparse.Namespace) -> int:
    point = TimeGrid(args.time, args.time, 1.0)
    grid = SweepGrid(args.channel, (_resolve_phi(args),), (args.mu,), (args.tau,), point)
    row = point_row(grid)
    if args.format == "json":
        payload = json.dumps(row.as_dict()) + "\n"
    else:
        payload = CSV_HEADER + "\n" + row.csv_line() + "\n"
    _to_sink(sys.stdout if args.out is None else args.out, [payload.encode("utf-8")])
    return EXIT_OK


class _Terminated(KeyboardInterrupt):
    """SIGTERM during ``sweep``, raised where SIGINT raises
    ``KeyboardInterrupt``, so that the render workers are killed and reaped
    on the same path."""


def _terminate(signum: int, frame: object) -> NoReturn:
    raise _Terminated


def _cmd_sweep(args: argparse.Namespace) -> int:
    import signal

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return _sweep(args)
    finally:
        signal.signal(signal.SIGTERM, previous)


def _sweep(args: argparse.Namespace) -> int:
    # Tested for None: ``--figure ""`` is an id and ``--out ""`` a path.
    figure = args.figure is not None
    explicit = (args.grid, args.channel, args.phi, args.phi_deg, args.mu, args.tau)
    if figure and any(x not in (None, []) for x in explicit):
        raise GridSyntaxError("--figure and explicit grid flags are mutually exclusive")
    if figure:
        # The registry loads no numpy, so an unknown id fails before the engine loads.
        from .presets import figure_preset

        figure_preset(args.figure)
    grid = None if figure else _sweep_grid_from_args(args)
    # The sweep engine, and with it numpy, loads here, once every flag is
    # checked; the other commands never import it.
    from .sweep import _emit, run_preset, run_sweep

    result = run_preset(args.figure) if figure else run_sweep(grid)
    sink = sys.stdout if args.out is None else args.out
    # Rendered by two forked workers where it can; the bytes are those of ``emit``.
    nbytes = _emit(result, args.format, sink, split=True)
    target = "<stdout>" if args.out is None else args.out
    print(
        f"wrote {len(result)} records ({nbytes} bytes, {args.format}) to {target}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_check(_: argparse.Namespace) -> int:
    # The suites load numpy; the other commands never import them.
    from .selfcheck import run_checks

    suites = run_checks()
    all_ok = True
    for suite in suites:
        status = "ok" if suite.ok else "FAILED"
        print(f"{suite.name}: passed {suite.passed}, failed {suite.failed} [{status}]")
        for msg in suite.failures:
            print(f"  - {msg}")
        all_ok = all_ok and suite.ok
    total_passed = sum(s.passed for s in suites)
    total_failed = sum(s.failed for s in suites)
    print(f"self-check: {total_passed} passed, {total_failed} failed")
    return EXIT_OK if all_ok else EXIT_CHECK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "params": _cmd_params,
        "measure": _cmd_measure,
        "sweep": _cmd_sweep,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except (UnknownChannelError, UnknownPresetError, GridSyntaxError) as exc:
        print(f"hyperspin: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HyperspinError as exc:
        print(f"hyperspin: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"hyperspin: i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> NoReturn:
    """Run ``main`` as the ``hyperspin`` command and end the process with
    its exit code, skipping the interpreter's teardown.

    When ``main`` returns, every output file it opened is closed, so only
    the two streams hold unwritten text.  Once they are flushed, nothing is
    left for the teardown to do but free each module and object one by one:
    14 ms of a ``measure`` process, and 18-37 ms of a sweep once numpy is
    loaded (m08 and h1a).  So the process leaves through ``os._exit``.  If
    a flush fails, it leaves through ``sys.exit`` as a plain script would,
    and the teardown reports what it must.
    """
    try:
        code = main()
    except SystemExit as exc:
        # argparse leaves this way after --help, --version or a usage error.
        code = exc.code
    except KeyboardInterrupt as exc:
        # SIGINT, or SIGTERM during ``sweep``; any render workers are reaped.
        print("hyperspin: interrupted", file=sys.stderr)
        code = EXIT_TERMINATED if isinstance(exc, _Terminated) else EXIT_INTERRUPTED
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        # A stream that is missing (None), closed or failing: the teardown
        # retries the flush and reports its error.
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
