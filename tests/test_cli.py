import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspin import KernelValue, cli, memory_kernel, selfcheck

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


def test_check_passes():
    proc = run_cli("check")
    assert proc.returncode == 0
    assert "self-check:" in proc.stdout
    assert "failed 0" in proc.stdout
    for suite in ("production-oracle", "kernel-contract", "hierarchy", "sweep-oracle"):
        assert suite in proc.stdout


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


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_sweep_rejects_bad_worker_count_exits_2(workers):
    proc = run_cli(*SWEEP_POINT, "--grid", "time=0:1:0.5", "--workers", workers)
    assert proc.returncode == 2
    assert "--workers" in proc.stderr


def test_sweep_worker_count_is_a_no_op():
    serial = run_cli(*SWEEP_POINT, "--grid", "time=0:1:0.5", "--workers", "1")
    wide = run_cli(*SWEEP_POINT, "--grid", "time=0:1:0.5", "--workers", "3")
    assert serial.returncode == wide.returncode == 0
    assert serial.stdout == wide.stdout


@pytest.mark.parametrize("threads", ["0", "-1", "many"])
def test_sweep_rejects_bad_threads_env_exits_1(threads):
    proc = run_cli(*SWEEP_POINT, "--grid", "time=0:1:0.5",
                   env_extra={"HYPERSPIN_THREADS": threads})
    assert proc.returncode == 1
    assert "HYPERSPIN_THREADS" in proc.stderr



#: Numbers at and past the float range, signed zero, subnormals, and text
#: that is no number, drawn as often as ordinary values.  The smallest usable
#: step is 0.2, so no grid they make has more than about 60,000 rows.
FUZZ_VALUES = (
    "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "-0", "5e-324", "-5e-324", "", "abc",
)  # fmt: skip
ORDINARY_VALUES = ("0", "0.2", "0.25", "0.5", "0.8", "1", "1.5", "2", "3.2", "5", "-1")
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


def exit_code_of(argv):
    """``cli.main``'s exit code, argparse's usage exits included; anything
    else escaping ``main`` fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=measure_argv())
def test_fuzzed_measure_argv_exits_cleanly(argv):
    assert exit_code_of(argv) in (0, 1, 2)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=sweep_grid_argv())
def test_fuzzed_sweep_grid_argv_exits_cleanly(argv):
    assert exit_code_of(argv) in (0, 1, 2)
