import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperspin.grid as grid_module
from hyperspin import (
    CHANNELS,
    DensityMatrix4,
    DomainError,
    KernelValue,
    SweepGrid,
    TimeGrid,
    cli,
    emit,
    memory_kernel,
    run_sweep,
    selfcheck,
)

CMD = [sys.executable, "-m", "hyperspin"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [*CMD, *args], capture_output=True, text=True, env=env, timeout=300
    )


def test_params_lambda():
    proc = run_cli("params", "--channel", "lambda")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload == {"channel": "lambda", "upsilon_psi": 0.475, "delta_theta": 0.752}


def test_params_xi0():
    proc = run_cli("params", "--channel", "xi0")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["upsilon_psi"] == 0.514
    assert payload["delta_theta"] == 1.168


def test_params_unknown_channel_exits_2():
    proc = run_cli("params", "--channel", "bogus")
    assert proc.returncode == 2
    assert "unknown channel" in proc.stderr


def test_unknown_flag_exits_2():
    proc = run_cli("params", "--channel", "lambda", "--fancy")
    assert proc.returncode == 2


def test_measure_initial_point():
    proc = run_cli(
        "measure",
        "--channel",
        "lambda",
        "--phi",
        "1.5707963",
        "--mu",
        "0.8",
        "--tau",
        "0.1",
        "--time",
        "0",
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["concurrence"] == 0.475
    assert rec["coherence_l1"] == 1.0
    assert rec["steering_class"] == "two_way"


def test_measure_phi_deg_convenience():
    rad = run_cli(
        "measure", "--channel", "lambda", "--phi", str(math.pi / 2.0),
        "--mu", "0.8", "--tau", "0.1", "--time", "0.5",
    )
    deg = run_cli(
        "measure", "--channel", "lambda", "--phi-deg", "90",
        "--mu", "0.8", "--tau", "0.1", "--time", "0.5",
    )
    assert rad.returncode == deg.returncode == 0
    assert json.loads(rad.stdout) == json.loads(deg.stdout)


def test_measure_frozen_channel_time_independent():
    common = ("--channel", "lambda", "--phi", "1.2", "--mu", "1", "--tau", "0.1")
    at_zero = json.loads(run_cli("measure", *common, "--time", "0").stdout)
    late = json.loads(run_cli("measure", *common, "--time", "99").stdout)
    for key in ("s_ab", "s_ba", "concurrence", "eof", "gqd", "coherence_l1"):
        assert at_zero[key] == late[key]


def test_measure_phi_boundary_zeros():
    rec = json.loads(
        run_cli(
            "measure", "--channel", "lambda", "--phi", "0",
            "--mu", "0.3", "--tau", "0.1", "--time", "2",
        ).stdout
    )
    for key in ("s_ab", "s_ba", "concurrence", "eof", "gqd"):
        assert rec[key] == 0.0


def test_measure_csv_format_matches_library_rendering():
    proc = run_cli(
        "measure", "--channel", "lambda", "--phi", "0.9",
        "--mu", "0.5", "--tau", "5", "--time", "1.25", "--format", "csv",
    )
    from hyperspin import SweepGrid, TimeGrid, run_sweep
    from hyperspin.sweep import CSV_HEADER

    lines = proc.stdout.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    want = run_sweep(
        SweepGrid("lambda", (0.9,), (0.5,), (5.0,), TimeGrid(1.25, 1.25, 1.0))
    ).rows[0]
    assert lines[1] == want.csv_line()


def test_sweep_preset_to_file(tmp_path):
    out = tmp_path / "fig.csv"
    proc = run_cli("sweep", "--figure", "m08", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 502  # header + 501 records
    assert "wrote 501 records" in proc.stderr


def test_sweep_explicit_grid_rows():
    proc = run_cli(
        "sweep", "--grid", "time=0:1:0.5", "--channel", "lambda",
        "--phi", "0", "--mu", "0", "--tau", "0.1",
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 4  # header + 3 rows


def test_sweep_unknown_preset_exits_2():
    proc = run_cli("sweep", "--figure", "nope")
    assert proc.returncode == 2
    # An empty id is an id, not an absent flag.
    proc = run_cli("sweep", "--figure", "")
    assert proc.returncode == 2
    assert proc.stderr.startswith("hyperspin: error: unknown preset ''; known: [")


def test_sweep_malformed_grid_exits_2():
    proc = run_cli(
        "sweep", "--grid", "time=0;1;0.5", "--channel", "lambda",
        "--phi", "0", "--mu", "0", "--tau", "0.1",
    )
    assert proc.returncode == 2
    proc = run_cli("sweep", "--grid", "speed=0:1:0.5", "--channel", "lambda")
    assert proc.returncode == 2


def test_sweep_missing_axis_exits_2():
    proc = run_cli("sweep", "--channel", "lambda", "--phi", "0", "--mu", "0", "--tau", "0.1")
    assert proc.returncode == 2
    assert "time axis" in proc.stderr


def test_sweep_conflicting_scalar_and_axis_exits_2():
    proc = run_cli(
        "sweep", "--grid", "time=0:1:0.5", "--grid", "mu=0:1:0.5",
        "--channel", "lambda", "--phi", "0", "--mu", "0", "--tau", "0.1",
    )
    assert proc.returncode == 2


def test_sweep_figure_conflicts_with_grid_flags():
    proc = run_cli("sweep", "--figure", "m08", "--channel", "lambda")
    assert proc.returncode == 2
    proc = run_cli(
        "sweep", "--figure", "", "--channel", "lambda", "--grid", "time=0:1:1",
        "--phi", "1", "--mu", "0", "--tau", "1",
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "hyperspin: error: --figure and explicit grid flags are mutually exclusive\n"


def test_sweep_empty_channel_is_an_unknown_channel():
    # Given, if empty: a channel name, not a missing flag.
    proc = run_cli("sweep", "--channel", "", "--grid", "time=0:1:1", "--phi", "1", "--mu", "0",
                   "--tau", "1")  # fmt: skip
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "hyperspin: error: unknown channel ''; registered: ['lambda', 'sigma+', 'xi-', 'xi0']\n"
    )


def test_sweep_grid_axis_for_phi():
    proc = run_cli(
        "sweep", "--grid", "time=0:1:1", "--grid", "phi=0:1.5707963:0.78539815",
        "--channel", "lambda", "--mu", "0.5", "--tau", "0.1",
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 1 + 3 * 2


def test_measure_out_of_domain_phi_exits_1():
    proc = run_cli(
        "measure", "--channel", "lambda", "--phi", "7",
        "--mu", "0.5", "--tau", "0.1", "--time", "0",
    )
    assert proc.returncode == 1
    assert "phi" in proc.stderr


def test_sweep_unwritable_output_exits_1(tmp_path):
    proc = run_cli(
        "sweep", "--grid", "time=0:1:0.5", "--channel", "lambda",
        "--phi", "0", "--mu", "0", "--tau", "0.1",
        "--out", str(tmp_path / "missing" / "out.csv"),
    )
    assert proc.returncode == 1
    # An empty path is a path, not standard output.
    proc = run_cli("sweep", "--figure", "m08", "--out", "")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("hyperspin: i/o error: ")


def test_measure_to_an_empty_path_exits_1():
    proc = run_cli(
        "measure", "--channel", "lambda", "--phi", "1", "--mu", "0",
        "--tau", "1", "--time", "0", "--out", "",
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("hyperspin: i/o error: ")


#: What each suite of ``hyperspin check`` passes, in the order it runs.
CHECK_COUNTS = {
    "production-oracle": 724,
    "state-validity": 728,
    "kernel-contract": 18,
    "channel-oracle": 792,
    "cptp": 60,
    "hierarchy": 2268,
    "phi-boundary": 32,
    "sweep-oracle": 6120,
}


def test_check_passes():
    proc = run_cli("check")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        *(f"{name}: passed {n}, failed 0 [ok]" for name, n in CHECK_COUNTS.items()),
        "self-check: 10742 passed, 0 failed",
    ]


def test_check_corrupted_kernel_exits_3(monkeypatch, capsys):
    # Negative control: a kernel off by 3% that still satisfies |K| <= 1, so
    # only the check suites (not the channel's own |K| guard) can catch it.
    def corrupted(t, cfg):
        k = memory_kernel(t, cfg)
        return KernelValue(k.k * 0.97, k.u, k.v)

    monkeypatch.setattr(selfcheck, "memory_kernel", corrupted)
    assert cli.main(["check"]) == 3
    out = capsys.readouterr().out
    assert re.search(r"^kernel-contract: passed \d+, failed [1-9]\d* \[FAILED\]$", out, re.M)


@pytest.mark.parametrize(
    ("grid", "named"),
    [
        ("phi=-0.5:1:0.5", "phi value -0.5 outside [0, pi]"),
        ("mu=-0.1:0.5:0.1", "mu value -0.1 outside [0, 1]"),
        ("tau=-1:1:1", "tau value -1.0 must be finite and > 0"),
        ("mu=0.5:0.1:0.1", "mu stop must be >= start"),
        ("phi=0:1:-1", "phi step must be > 0"),
        # Over the row cap: rejected before the axis is built.
        ("phi=0:3:1e-9", "phi range has about 3e+09 points, more than MAX_ROWS"),
        ("mu=0:1:5e-324", "mu range has about inf points, more than MAX_ROWS"),
    ],
)
def test_sweep_grid_errors_name_their_axis(grid, named, capsys):
    axis = grid.partition("=")[0]
    scalars = [f"--{n}={v}" for n, v in (("phi", 1.2), ("mu", 0.5), ("tau", 0.1)) if n != axis]
    argv = ["sweep", "--channel", "lambda", *scalars, "--grid", grid, "--grid", "time=0:1:1"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err
    assert "time" not in captured.err


#: 60,001 phi points at two times: 120,002 rows, each axis under a cap of
#: 100,000 points and their product over it.
OVERSIZE = ("--grid", "phi=0:3:0.00005", "--grid", "time=0:1:1")


def test_an_oversize_grid_exits_1_before_an_axis_is_built(monkeypatch, capsys):
    monkeypatch.setattr(grid_module, "MAX_ROWS", 100_000)
    argv = ["sweep", "--channel", "lambda", "--mu", "0.8", "--tau", "0.1", *OVERSIZE]
    # Once untraced, so that the engine's import and the caches of a first
    # run are not counted.
    assert cli.main(argv) == 1
    tracemalloc.start()
    try:
        assert cli.main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = "hyperspin: error: grid has 120002 rows, more than MAX_ROWS = 100000\n"
    assert capsys.readouterr().err == message * 2
    # Building the phi axis alone, 60,001 floats in a tuple, peaks at 2 MB.
    assert peak < 200_000


@pytest.mark.parametrize(
    ("argv", "named"),
    [
        (("--channel", "bogus", "--mu", "0.8", "--tau", "0.1"), "unknown channel"),
        (("--channel", "lambda", "--mu", "0.8"), "missing tau"),
        (("--channel", "lambda", "--phi", "1", "--mu", "0.8", "--tau", "0.1"), "phi given both"),
    ],
)
def test_an_oversize_grid_keeps_usage_errors_first(monkeypatch, capsys, argv, named):
    monkeypatch.setattr(grid_module, "MAX_ROWS", 100_000)
    assert cli.main(["sweep", *argv, *OVERSIZE]) == 2
    assert named in capsys.readouterr().err


MEASURE_POINT = ("measure", "--channel", "lambda", "--phi", "1.2", "--mu", "0.5")
SWEEP_POINT = ("sweep", "--channel", "lambda", "--phi", "1.2", "--mu", "0.5", "--tau", "0.1")


@pytest.mark.parametrize(
    ("args", "named"),
    [
        ((*MEASURE_POINT, "--tau", "5", "--time", "inf"), "time"),
        ((*MEASURE_POINT, "--tau", "0.1", "--time", "inf"), "time"),
        ((*MEASURE_POINT, "--tau", "0.1", "--time", "nan"), "time"),
        ((*MEASURE_POINT, "--tau", "inf", "--time", "1"), "tau"),
        ((*SWEEP_POINT, "--grid", "time=0:inf:1"), "time stop"),
        ((*SWEEP_POINT, "--grid", "time=0:1:nan"), "time step"),
        ((*SWEEP_POINT, "--grid", "time=nan:1:1"), "time start"),
        (
            ("sweep", "--channel", "lambda", "--grid", "phi=0:nan:1", "--mu", "0.5",
             "--tau", "0.1", "--grid", "time=0:1:1"),
            "phi stop",
        ),
        (
            ("sweep", "--channel", "lambda", "--phi", "1.2", "--mu", "0.5", "--tau", "inf",
             "--grid", "time=0:1:1"),
            "tau",
        ),
    ],
)
def test_non_finite_input_exits_1_naming_it(args, named):
    proc = run_cli(*args)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert named in proc.stderr
    assert "finite" in proc.stderr


@pytest.mark.parametrize("workers", ["0", "-3", "two", "1"])
def test_sweep_rejects_bad_worker_count_exits_2(workers):
    # Evaluation is serial; the flag is gone, whatever its value.
    proc = run_cli(*SWEEP_POINT, "--grid", "time=0:1:0.5", "--workers", workers)
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr


#: Numbers at and past the float range, taus too small for the kernel, signed
#: zero, subnormals, and text that is no number, drawn as often as ordinary
#: values.  The smallest usable step is 0.2, so no grid they make has more
#: than about 60,000 rows.
FUZZ_VALUES = (
    "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "-0", "5e-324", "-5e-324", "", "abc",
    "1e308", "1.79e308", "1e-160", "1e-300",
)  # fmt: skip
ORDINARY_VALUES = ("0", "0.2", "0.25", "0.3", "0.5", "0.8", "1", "1.5", "2", "3.2", "5", "-1")
fuzz_value = st.one_of(st.sampled_from(FUZZ_VALUES), st.sampled_from(ORDINARY_VALUES))
fuzz_channel = st.sampled_from(("lambda", "xi-", "sigma+", "xi0", "bogus", ""))


@st.composite
def fuzz_option(draw, flag):
    """``[flag, value]``, ``[flag=value]`` (so a leading ``-`` is a value), or rarely nothing."""
    form = draw(st.sampled_from(("split", "joined", "joined", "joined", "absent")))
    value = draw(fuzz_value)
    return {"split": [flag, value], "joined": [f"{flag}={value}"], "absent": []}[form]


@st.composite
def measure_argv(draw):
    argv = ["measure", f"--channel={draw(fuzz_channel)}"]
    for flag in (draw(st.sampled_from(("--phi", "--phi-deg"))), "--mu", "--tau", "--time"):
        argv += draw(fuzz_option(flag))
    argv += draw(st.sampled_from(([], ["--format", "csv"], ["--format", "json"], ["--format=abc"])))
    return argv


@st.composite
def sweep_grid_argv(draw):
    argv = ["sweep", "--channel", draw(fuzz_channel)]
    for axis in ("time", "phi", "mu", "tau"):
        kind = draw(st.sampled_from(("grid",) * 4 + ("scalar",) * (axis != "time") * 3 + ("raw",)))
        if kind == "grid":
            # Mostly ordinary bounds, so that some grids get as far as evaluation.
            bounds = st.one_of(fuzz_value, st.sampled_from(ORDINARY_VALUES))
            start, stop, step = draw(bounds), draw(bounds), draw(bounds)
            argv.append(f"--grid={axis}={start}:{stop}:{step}")
        elif kind == "scalar":
            argv += draw(fuzz_option(f"--{axis}"))
        else:
            argv.append(f"--grid={axis}={draw(fuzz_value)}")
    return argv


def main_output(argv):
    """``cli.main``'s exit code, argparse's usage exits included, with its
    stdout and stderr; anything else escaping ``main`` fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def exit_code_of(argv):
    return main_output(argv)[0]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=measure_argv())
def test_fuzzed_measure_argv_exits_cleanly(argv):
    assert exit_code_of(argv) in (0, 1, 2)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=sweep_grid_argv())
def test_fuzzed_sweep_grid_argv_exits_cleanly(argv):
    assert exit_code_of(argv) in (0, 1, 2)


MEASURE_LAMBDA = ("measure", "--channel", "lambda", "--phi", "1", "--mu", "0.5")


@pytest.mark.parametrize(
    "tau, t",
    [
        ("0.2500001", "1.7e308"),  # v*t overflows: cos(inf)
        ("0.3", "1.79e308"),
        ("0.25", "1e308"),  # u*t overflows: 0 * inf on the boundary
    ],
)
def test_measure_where_time_overflows_the_kernel_rates(tau, t):
    code, out, err = main_output([*MEASURE_LAMBDA, "--tau", tau, "--time", t])
    assert code == 0, err
    record = json.loads(out)
    assert record["kernel"] == 0.0
    assert record["eta"] == 0.5


@pytest.mark.parametrize("command", ["measure", "sweep"])
@pytest.mark.parametrize("tau", ["1e-160", "1e-300"])
def test_tau_too_small_for_the_kernel_exits_1(command, tau):
    if command == "measure":
        argv = [*MEASURE_LAMBDA, "--tau", tau, "--time", "1"]
    else:
        argv = [*SWEEP_POINT[:-2], "--tau", tau, "--grid", "time=0:1:0.5"]
    code, out, err = main_output(argv)
    assert code == 1
    assert out == ""
    assert "tau is too small" in err


# ``measure`` evaluates its point on the scalar path (``sweep.point_row``); it
# must print what it printed when it read the row off ``run_sweep``.


def _grid_of(channel, phi, mu, tau, t):
    """The one-point grid ``measure`` builds."""
    return SweepGrid(channel, (phi,), (mu,), (tau,), TimeGrid(t, t, 1.0))


def _measure_argv(channel, phi, mu, tau, t, fmt):
    values = (("phi", phi), ("mu", mu), ("tau", tau), ("time", t))
    return ["measure", f"--channel={channel}", *(f"--{n}={v!r}" for n, v in values),
            "--format", fmt]  # fmt: skip


def _engine_text(grid, fmt):
    """``measure``'s output for ``grid`` as rendered from ``run_sweep``."""
    result = run_sweep(grid)
    if fmt == "json":
        return json.dumps(result.rows[0].as_dict()) + "\n"
    buf = io.StringIO()
    emit(result, "csv", buf)
    return buf.getvalue()


def parity_points():
    """Seeded points: every channel, both regimes and the ``4*tau = 1`` seam,
    phi in {0, pi/2, pi} and one drawn value, mu in {0, 1} and one drawn
    value, each at ``t = 0``, ``t = -0`` or a drawn time."""
    rng = random.Random(20261018)
    points = []
    for channel in sorted(CHANNELS):
        for tau in (rng.uniform(0.01, 0.24), 0.25, rng.uniform(0.26, 10.0)):
            for phi in (0.0, math.pi / 2.0, math.pi, rng.uniform(0.0, math.pi)):
                for mu in (0.0, 1.0, rng.random()):
                    t = rng.choice((0.0, -0.0, rng.uniform(0.0, 2.0), rng.uniform(0.0, 50.0)))
                    points.append((channel, phi, mu, tau, t))
    return points


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_measure_prints_the_run_sweep_row(fmt):
    points = parity_points()
    assert sum(math.copysign(1.0, p[4]) < 0.0 for p in points) > 10
    assert sum(p[4] == 0.0 for p in points) > 40
    for point in points:
        code, out, err = main_output(_measure_argv(*point, fmt))
        assert (code, err) == (0, ""), point
        assert out == _engine_text(_grid_of(*point), fmt), point


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("degrees", ["0", "30", "57.3", "90", "135.25", "180"])
def test_measure_in_degrees_prints_the_run_sweep_row(fmt, degrees):
    argv = ["measure", "--channel", "xi-", "--phi-deg", degrees, "--mu", "0.3",
            "--tau", "0.7", "--time", "2.5", "--format", fmt]  # fmt: skip
    code, out, _ = main_output(argv)
    assert code == 0
    grid = _grid_of("xi-", math.radians(float(degrees)), 0.3, 0.7, 2.5)
    assert out == _engine_text(grid, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("tau, t", [(0.2500001, 1.7e308), (0.3, 1.79e308), (0.25, 1e308)])
def test_measure_past_the_kernel_rates_prints_the_run_sweep_row(fmt, tau, t):
    code, out, _ = main_output(_measure_argv("lambda", 1.0, 0.5, tau, t, fmt))
    assert code == 0
    assert out == _engine_text(_grid_of("lambda", 1.0, 0.5, tau, t), fmt)


def _kernel_above_one_at(t_bad):
    real = grid_module.memory_kernel

    def patched(t, cfg):
        kv = real(t, cfg)
        return KernelValue(1.2, kv.u, kv.v) if t == t_bad else kv

    return patched


def _kernel_failing_at(t_bad):
    real = grid_module.memory_kernel

    def patched(t, cfg):
        if t == t_bad:
            raise DomainError("no kernel here")
        return real(t, cfg)

    return patched


def _bogus_state(w, z):
    def patched(ch, phi):
        return DensityMatrix4._of_entries(0.25, 0.25, 0.25, 0.25, complex(w), complex(z))

    return patched


@pytest.mark.parametrize(
    ("argv", "layers"),
    [
        (("--phi", "7", "--mu", "0.5", "--tau", "0.1", "--time", "0"), {}),
        (("--phi", "1", "--mu", "0.5", "--tau", "1e-300", "--time", "1"), {}),
        (("--phi", "1", "--mu", "1.5", "--tau", "0.1", "--time", "1"), {}),
        (("--phi", "1", "--mu", "0.5", "--tau", "0.1", "--time", "-1"), {}),
        (("--phi", "1", "--mu", "0.5", "--tau", "0.1", "--time", "nan"), {}),
        (("--phi", "nan", "--mu", "0.5", "--tau", "0.1", "--time", "1"), {}),
        (("--phi", "1", "--mu", "nan", "--tau", "0.1", "--time", "1"), {}),
        (("--phi", "1", "--mu", "0.5", "--tau", "nan", "--time", "1"), {}),
        (
            ("--phi", "0", "--mu", "0", "--tau", "0.1", "--time", "1.0"),
            {"memory_kernel": _kernel_above_one_at(1.0)},
        ),
        (
            ("--phi", "1.5707963267948966", "--mu", "0", "--tau", "0.1", "--time", "0"),
            {"density_matrix": _bogus_state(0.9, 0.0)},
        ),
        (
            ("--phi", "1.5707963267948966", "--mu", "0", "--tau", "0.1", "--time", "0"),
            {"density_matrix": _bogus_state(0.45, 0.45)},
        ),
        (
            ("--phi", "1", "--mu", "0.5", "--tau", "0.1", "--time", "1.0"),
            {"memory_kernel": _kernel_above_one_at(1.0),
             "density_matrix": _bogus_state(0.9, 0.0)},
        ),  # fmt: skip
        (
            ("--phi", "0", "--mu", "0", "--tau", "0.1", "--time", "1.0"),
            {"memory_kernel": _kernel_failing_at(1.0)},
        ),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_measure_fails_as_run_sweep_does(monkeypatch, argv, layers, fmt):
    for name, patch in layers.items():
        monkeypatch.setattr(grid_module, name, patch)
    full = ["measure", "--channel", "lambda", *argv, "--format", fmt]
    with monkeypatch.context() as m:
        m.setattr(cli, "point_row", lambda grid: run_sweep(grid).rows[0])
        want = main_output(full)
    code, out, err = main_output(full)
    assert want[0] == 1 and want[1] == ""
    assert err.count("\n") == 1 and err.startswith("hyperspin: error: ")
    # A patched layer fails past grid validation, where the error names the point.
    assert ("[at channel=lambda, phi=" in err) == bool(layers)
    assert (code, out, err) == want


#: Run in a fresh interpreter: each step, then which of numpy, the sweep
#: engine and the figure registry are loaded.
NUMPY_PROBE = """\
import json
import sys
steps = {}
def loaded():
    names = ("numpy", "hyperspin.sweep", "hyperspin.presets")
    return [name for name in names if name in sys.modules]
import hyperspin
steps["import"] = loaded()
exec(compile(QUICK_TOUR, "README", "exec"), {})
steps["quick tour"] = loaded()
from hyperspin.cli import main
try:
    main(["--version"])
except SystemExit as exc:
    assert exc.code == 0
steps["--version"] = loaded()
for fmt in ("json", "csv"):
    assert main([*MEASURE, "--format", fmt, "--out", OUT]) == 0
    steps["measure " + fmt] = loaded()
assert main(["params", "--channel", "xi0"]) == 0
steps["params"] = loaded()
assert main(["sweep", "--grid", "phi=0:1", "--out", OUT]) == 2
steps["sweep bad --grid"] = loaded()
assert main(["sweep", "--figure", "m08", "--channel", "lambda", "--out", OUT]) == 2
steps["sweep --figure with --channel"] = loaded()
assert main(["sweep", "--figure", "zz9", "--out", OUT]) == 2
steps["sweep --figure zz9"] = loaded()
assert main(["sweep", "--figure", "", "--out", OUT]) == 2
steps["sweep --figure ''"] = loaded()
assert main(["sweep", "--figure", "m08", "--out", OUT]) == 0
steps["sweep"] = loaded()
print(json.dumps(steps))
"""


def test_point_commands_leave_numpy_unloaded(tmp_path):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    tour = readme.read_text(encoding="utf-8").split("```python\n")[1].split("```")[0]
    assert "hs.measure_all" in tour
    measure = ["measure", "--channel", "lambda", "--phi", "1.2", "--mu", "0.5",
               "--tau", "5", "--time", "1.5"]  # fmt: skip
    header = f"QUICK_TOUR = {tour!r}\nMEASURE = {measure!r}\nOUT = {str(tmp_path / 'out')!r}\n"
    proc = subprocess.run(
        [sys.executable, "-c", header + NUMPY_PROBE], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert steps == {
        "import": [],
        "quick tour": [],
        "--version": [],
        "measure json": [],
        "measure csv": [],
        "params": [],
        "sweep bad --grid": [],
        "sweep --figure with --channel": [],
        "sweep --figure zz9": ["hyperspin.presets"],
        "sweep --figure ''": ["hyperspin.presets"],
        "sweep": ["numpy", "hyperspin.sweep", "hyperspin.presets"],
    }
