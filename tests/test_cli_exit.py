"""The ``hyperspin`` process ends through ``cli.entry``, which flushes both
streams and leaves by ``os._exit``, skipping the interpreter's teardown.

A process must still print exactly what ``cli.main`` prints in-process and
exit with the code ``main`` returns, and a broken pipe must end as the one
error line it gave before.
"""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hyperspin import cli

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
MEASURE = ["measure", "--channel", "lambda", "--phi", "1.2", "--mu", "0.5",
           "--tau", "0.1", "--time", "1.5"]  # fmt: skip


def _console_script() -> list[str]:
    """The command that the ``hyperspin`` console script runs, as
    ``[project.scripts]`` declares it."""
    target = re.search(r'^hyperspin = "([\w.]+):(\w+)"$', PYPROJECT.read_text(), re.M)
    module, function = target.groups()
    return [sys.executable, "-c", f"import sys; from {module} import {function}; "
            f"sys.exit({function}())"]  # fmt: skip


#: Both ways of starting the command.
LAUNCHERS = {
    "python -m hyperspin": [sys.executable, "-m", "hyperspin"],
    "console script": _console_script(),
}


def _in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


#: The environment without ``PYTHONUNBUFFERED``, so that a process's stdout
#: is block-buffered in a pipe and only a flush writes what it holds.
BUFFERED = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}


def _in_a_process(launcher: list[str], argv: list[str]) -> tuple[int, bytes, str]:
    proc = subprocess.run([*launcher, *argv], capture_output=True, env=BUFFERED, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr.decode("utf-8")


def test_the_console_script_runs_the_entry():
    assert _console_script()[-1].endswith("from hyperspin.cli import entry; sys.exit(entry())")


@pytest.mark.parametrize("launcher", LAUNCHERS)
@pytest.mark.parametrize(
    "argv, code",
    [
        (MEASURE, 0),
        ([*MEASURE, "--format", "csv"], 0),
        (["sweep", "--figure", "m08"], 0),
        (["params", "--channel", "xi0"], 0),
        (["params", "--channel", "bogus"], 2),
        (["measure", "--channel", "lambda"], 2),
        ([*MEASURE[:-1], "-1"], 1),
        (["--version"], 0),
    ],
)
def test_a_process_prints_and_exits_as_main_does(launcher, argv, code):
    want_code, want_out, want_err = _in_process(argv)
    got_code, got_out, got_err = _in_a_process(LAUNCHERS[launcher], argv)
    assert want_code == code
    assert (got_code, got_out, got_err) == (want_code, want_out.encode("utf-8"), want_err)


@pytest.mark.parametrize("launcher", LAUNCHERS)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_measure_to_a_file_is_written_before_the_process_ends(launcher, fmt, tmp_path):
    argv = [*MEASURE, "--format", fmt, "--out"]
    want = _in_process([*argv, str(tmp_path / "want")])
    got = _in_a_process(LAUNCHERS[launcher], [*argv, str(tmp_path / "got")])
    assert want == (0, "", "")
    assert got == (0, b"", "")
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_broken_pipe_is_one_error_line(unbuffered):
    # ``sweep --figure h1a | head -c 10``: the reader leaves after 10 bytes.
    proc = subprocess.Popen(
        [*LAUNCHERS["python -m hyperspin"], "sweep", "--figure", "h1a"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(BUFFERED, PYTHONUNBUFFERED="1") if unbuffered else BUFFERED,
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read().decode("utf-8")
    proc.stderr.close()
    assert proc.wait(timeout=300) == 1
    assert head == b"channel,ph"
    assert err == "hyperspin: i/o error: [Errno 32] Broken pipe\n"


#: ``entry`` under an ``atexit`` handler that reports whether the
#: interpreter's teardown ran.
TEARDOWN_PROBE = (
    "import atexit, sys\n"
    "atexit.register(lambda: print('teardown ran', file=sys.stderr))\n"
    "from hyperspin.cli import entry\n"
    "entry()\n"
)


@pytest.mark.parametrize("stdout_closed", [False, True])
def test_the_teardown_runs_only_when_a_flush_fails(stdout_closed, tmp_path):
    out = tmp_path / "out.json"
    argv = [sys.executable, "-c", TEARDOWN_PROBE, *MEASURE, "--out", str(out)]
    if stdout_closed:
        # With fd 1 closed at start, ``sys.stdout`` is None and cannot flush.
        argv = ["sh", "-c", 'exec "$0" "$@" >&-', *argv]
    proc = subprocess.run(argv, capture_output=True, env=BUFFERED, timeout=300)
    assert proc.returncode == 0
    assert proc.stderr == (b"teardown ran\n" if stdout_closed else b"")
    assert out.read_bytes().startswith(b'{"channel": "lambda"')
