"""The ``hyperspin`` process ends through ``cli.entry``, which flushes both
streams and leaves by ``os._exit``, skipping the interpreter's teardown.

A process must still print exactly what ``cli.main`` prints in-process and
exit with the code ``main`` returns, and a broken pipe must end as the one
error line it gave before.
"""

import contextlib
import hashlib
import io
import os
import re
import signal
import subprocess
import sys
import time
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


def _stdout_closed(argv: list[str]) -> list[str]:
    """``argv`` run with fd 1 closed at start, so that ``sys.stdout`` is None."""
    return ["sh", "-c", 'exec "$0" "$@" >&-', *argv]


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
        # ``sys.stdout`` is None and cannot flush.
        argv = _stdout_closed(argv)
    proc = subprocess.run(argv, capture_output=True, env=BUFFERED, timeout=300)
    assert proc.returncode == 0
    assert proc.stderr == (b"teardown ran\n" if stdout_closed else b"")
    assert out.read_bytes().startswith(b'{"channel": "lambda"')


@pytest.mark.parametrize("argv", [MEASURE, ["sweep", "--figure", "m08"]], ids=["measure", "m08"])
def test_writing_to_a_closed_stdout_is_one_error_line(argv):
    proc = subprocess.run(
        _stdout_closed([*LAUNCHERS["python -m hyperspin"], *argv]),
        capture_output=True,
        env=BUFFERED,
        timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stderr == b"hyperspin: error: no output stream: standard output is closed\n"


#: ``main`` on the arguments, then its exit code and what it loaded of the
#: sweep engine, on stderr.
ENGINE_PROBE = (
    "import sys\n"
    "from hyperspin.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "loaded = [name for name in ('numpy', 'hyperspin.sweep') if name in sys.modules]\n"
    "print(code, loaded, file=sys.stderr)\n"
)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_an_unwritable_out_fails_before_the_engine_loads(fmt, tmp_path):
    # h2b, the largest preset: nothing of it is evaluated.
    out = tmp_path / "missing" / "x.csv"
    argv = ["sweep", "--figure", "h2b", "--format", fmt, "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", ENGINE_PROBE, *argv], capture_output=True, env=BUFFERED, timeout=300
    )
    assert proc.stdout == b""
    assert proc.stderr.decode("utf-8") == (
        f"hyperspin: i/o error: [Errno 2] No such file or directory: '{out}'\n1 []\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_a_closed_stdout_fails_before_the_engine_loads():
    proc = subprocess.run(
        _stdout_closed([sys.executable, "-c", ENGINE_PROBE, "sweep", "--figure", "h2b"]),
        capture_output=True,
        env=BUFFERED,
        timeout=300,
    )
    assert proc.stderr == b"hyperspin: error: no output stream: standard output is closed\n1 []\n"


#: The sha256 of ``sweep --figure h1a`` as CSV, the pin in tests/test_golden.py.
H1A_CSV = "9842e5a8aed04cdd23d9110bc178e45511d80f43617bb200fa9f84013a63d3cb"


def test_a_sweep_to_a_file_needs_no_stdout(tmp_path):
    # Rendered by the two forked workers, which the process forks only once
    # it has flushed whatever output streams it has.
    out = tmp_path / "h1a.csv"
    argv = [*LAUNCHERS["python -m hyperspin"], "sweep", "--figure", "h1a", "--out", str(out)]
    proc = subprocess.run(_stdout_closed(argv), capture_output=True, env=BUFFERED, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == H1A_CSV


#: What ``--out`` holds before each failing run below, which must leave it so.
GOOD = b"a good file from an earlier run\n"


def _assert_left_as_it_was(out):
    """``out`` holds ``GOOD``, and no temporary file is left beside it."""
    assert out.read_bytes() == GOOD
    assert list(out.parent.iterdir()) == [out]


def _assert_no_process_left(pid):
    """No process is left in the group of ``pid``, started in a session of
    its own: neither it nor any render worker."""
    with pytest.raises(ProcessLookupError):
        os.killpg(pid, 0)


@pytest.mark.parametrize(
    "signum, code", [(signal.SIGINT, 130), (signal.SIGTERM, 143)], ids=["SIGINT", "SIGTERM"]
)
def test_an_interrupted_sweep_is_one_line_and_leaves_no_process(signum, code, tmp_path):
    # The process and its two render workers, signalled as a group, as a
    # terminal's Ctrl-C signals them, once the temporary output beside the
    # good file has its first bytes.
    out = tmp_path / "h2b.json"
    out.write_bytes(GOOD)
    argv = ["sweep", "--figure", "h2b", "--format", "json", "--out", str(out)]
    proc = subprocess.Popen(
        [*LAUNCHERS["python -m hyperspin"], *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=BUFFERED,
        start_new_session=True,
    )
    deadline = time.monotonic() + 120
    while not any(p.stat().st_size > 0 for p in tmp_path.iterdir() if p != out):
        assert proc.poll() is None and time.monotonic() < deadline
        time.sleep(0.01)
    os.killpg(proc.pid, signum)
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == code
    assert err == b"hyperspin: interrupted\n"
    _assert_left_as_it_was(out)
    _assert_no_process_left(proc.pid)


#: ``entry`` with every file that ``hyperspin.grid`` opens failing with
#: ENOSPC once it has taken the number of writes in ``sys.argv[1]``.
FULL_DISK = """
import errno, sys
import hyperspin.grid as grid
from hyperspin.cli import entry

TAKEN = int(sys.argv.pop(1))

class Full:
    def __init__(self, file):
        self.file, self.left = file, TAKEN

    def write(self, data):
        if not self.left:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.left -= 1
        return self.file.write(data)

    def close(self):
        self.file.close()

grid.open = lambda *args: Full(open(*args))
entry()
"""

#: ``entry`` with render worker 1 killed by SIGKILL once it has rendered its
#: first chunk.
KILLED_WORKER = """
import os, signal
import hyperspin.sweep as sweep
from hyperspin.cli import entry

real_chunks = sweep._Columns.chunks

def chunks(self, start=0, stride=1):
    rendered = real_chunks(self, start, stride)
    if (start, stride) != (1, 2):
        return rendered

    def dying():
        yield next(rendered)
        os.kill(os.getpid(), signal.SIGKILL)

    return dying()

sweep._Columns.chunks = chunks
entry()
"""

ENOSPC = b"hyperspin: i/o error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize(
    "script, argv, err",
    [
        (KILLED_WORKER, ["sweep", "--figure", "h1a"],
         b"hyperspin: error: the render process ended before sending all rows\n"),
        # The head is taken, then the first slice that the workers sent fails.
        (FULL_DISK, ["1", "sweep", "--figure", "h1a", "--format", "json"], ENOSPC),
        (FULL_DISK, ["0", *MEASURE], ENOSPC),
    ],  # fmt: skip
    ids=["worker-killed", "sweep-ENOSPC", "measure-ENOSPC"],
)
def test_a_failed_run_leaves_the_output_file_as_it_was(tmp_path, script, argv, err):
    out = tmp_path / "out"
    out.write_bytes(GOOD)
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *argv, "--out", str(out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=BUFFERED,
        start_new_session=True,
    )
    got = proc.communicate(timeout=300)
    assert (proc.returncode, *got) == (1, b"", err)
    _assert_left_as_it_was(out)
    _assert_no_process_left(proc.pid)
