"""``hyperspin sweep`` renders the odd chunks of a sweep in a forked child,
which sends each slice of their text as a frame and ends each chunk with an
empty one.

Its output and byte count must be those of library ``emit``, which renders
in-process, however the chunks are sliced and whether or not the pipe may be
enlarged, and a failure on either side, mid-chunk too, must end as one error
line with the child reaped.  ``os.fork`` warns on Python 3.12+ in a multi-threaded process;
these tests make that warning an error.
"""

import errno
import hashlib
import io
import os
import re
import signal
import subprocess
import sys

import pytest

import hyperspin.sweep as sweep_module
from hyperspin import cli, emit, run_sweep

pytestmark = [
    pytest.mark.skipif(sys.platform != "linux", reason="the CLI forks on Linux only"),
    pytest.mark.filterwarnings("error::DeprecationWarning"),
]

CHUNK = 64

#: ``sweep`` arguments, by the number of ``CHUNK``-row chunks of their rows.
GRIDS = {
    # 40 rows: 4 phi x 10 times.
    1: ["--grid", "time=0:0.9:0.1", "--grid", "phi=0:1.5:0.5", "--mu", "0.8", "--tau", "0.1"],
    # 128 rows, two full chunks of four phi series each, with the same points.
    2: ["--grid", "time=0:1.5:0.1", "--grid", "phi=0:1.4:0.2", "--mu", "0.8", "--tau", "0.1"],
    # 144 rows: the last chunk is short.
    3: ["--grid", "time=0:1.5:0.1", "--grid", "phi=0:1.6:0.2", "--mu", "0.8", "--tau", "0.1"],
    # 240 rows over both regimes; chunks end inside series.
    4: ["--grid", "time=0:2.9:0.1", "--grid", "phi=0.5:1.5:1", "--grid", "mu=0:1:1",
        "--grid", "tau=0.1:5.1:5"],
    # 441 rows of a mu sweep, every row its own point.
    7: ["--grid", "time=0:2:0.1", "--grid", "mu=0:1:0.05", "--phi", "1.5707963", "--tau", "5"],
}  # fmt: skip


def _sweep_argv(chunks, fmt):
    return ["sweep", "--channel", "lambda", *GRIDS[chunks], "--format", fmt]


def _library_text(argv):
    """What ``emit`` writes for the grid of ``argv``, its byte count and the
    number of rows."""
    grid = cli._sweep_grid_from_args(cli.build_parser().parse_args(argv))
    sink = io.StringIO()
    nbytes = emit(run_sweep(grid), argv[-1], sink)
    return sink.getvalue(), nbytes, len(grid)


def _reported_bytes(stderr):
    return int(re.fullmatch(r"wrote \d+ records \((\d+) bytes, \w+\) to .*\n", stderr)[1])


@pytest.fixture
def forks(monkeypatch):
    """Small chunks, and the pids of the children that ``os.fork`` makes."""
    monkeypatch.setattr(sweep_module, "_CHUNK_ROWS", CHUNK)
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("chunks", sorted(GRIDS))
@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
def test_cli_sweep_writes_what_emit_writes(forks, capsys, tmp_path, chunks, fmt, to_file):
    argv = _sweep_argv(chunks, fmt)
    want, want_bytes, rows = _library_text(argv)
    assert -(-rows // CHUNK) == chunks
    out = tmp_path / f"out.{fmt}"
    assert cli.main(argv + (["--out", str(out)] if to_file else [])) == 0
    captured = capsys.readouterr()
    got = out.read_bytes() if to_file else captured.out.encode("utf-8")
    assert got == want.encode("utf-8")
    assert _reported_bytes(captured.err) == want_bytes == len(got)
    assert len(forks) == (chunks >= 2)
    _assert_no_child_left()


def _fail_in_child(how):
    """``_Columns.chunks`` that fails where the child, and only the child,
    asks for the chunks from chunk 1 on."""
    real_chunks = sweep_module._Columns.chunks

    def chunks(self, start=0, stride=1):
        if start == 1:
            if how == "dies":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("injected")
        return real_chunks(self, start, stride)

    return chunks


@pytest.mark.parametrize(
    ("how", "message"),
    [
        ("raises", "hyperspin: error: the render process failed: RuntimeError: injected\n"),
        ("dies", "hyperspin: error: the render process ended before sending all rows\n"),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failing_child_is_one_error_line(forks, monkeypatch, capsys, tmp_path, fmt, how, message):
    monkeypatch.setattr(sweep_module._Columns, "chunks", _fail_in_child(how))
    assert cli.main(_sweep_argv(3, fmt) + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == message
    assert len(forks) == 1
    _assert_no_child_left()


#: Rows per slice of text in the tests below: 4 slices per chunk, and 3 and
#: a short one.
SLICES = [16, 20]


def _rows_in(text):
    """The rows in a slice of CSV or JSON text."""
    return text.count('"time": ') if '"time": ' in text else text.count("\n")


@pytest.fixture
def frames(monkeypatch):
    """The rows in each frame that this process reads from the child; an
    empty frame, which ends a chunk, counts as 0."""
    rows = []
    real_frame = sweep_module._frame

    def recording_frame(pipe):
        text = real_frame(pipe)
        rows.append(_rows_in(text))
        return text

    monkeypatch.setattr(sweep_module, "_frame", recording_frame)
    return rows


def _child_frames(rows, slice_rows):
    """The rows of each frame the child sends for a sweep of ``rows`` rows."""
    frames = []
    for first in range(CHUNK, rows, 2 * CHUNK):
        n = min(CHUNK, rows - first)
        frames += [min(slice_rows, n - cut) for cut in range(0, n, slice_rows)] + [0]
    return frames


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("chunks", [2, 3, 4, 7])
@pytest.mark.parametrize("slice_rows", SLICES)
def test_cli_sweep_sends_each_chunk_in_slices(
    forks, frames, monkeypatch, capsys, tmp_path, slice_rows, chunks, fmt
):
    monkeypatch.setattr(sweep_module, "_SLICE_ROWS", slice_rows)
    argv = _sweep_argv(chunks, fmt)
    want, want_bytes, rows = _library_text(argv)
    out = tmp_path / f"out.{fmt}"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == want.encode("utf-8")
    assert _reported_bytes(capsys.readouterr().err) == want_bytes == len(want.encode("utf-8"))
    assert frames == _child_frames(rows, slice_rows)
    assert len(forks) == 1
    _assert_no_child_left()


class _Recording:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_each_write_of_the_split_is_one_slice(forks, monkeypatch, fmt):
    monkeypatch.setattr(sweep_module, "_SLICE_ROWS", 16)
    argv = _sweep_argv(7, fmt)
    want, want_bytes, _ = _library_text(argv)
    grid = cli._sweep_grid_from_args(cli.build_parser().parse_args(argv))
    sink = _Recording()
    assert sweep_module._emit(run_sweep(grid), fmt, sink, split=True) == want_bytes
    assert "".join(sink.writes) == want
    head, *records = sink.writes
    if fmt == "json":
        records = records[:-1]
    assert all(0 < _rows_in(text) <= 16 for text in records)
    assert len(forks) == 1
    _assert_no_child_left()


def _fail_mid_chunk(how, parent):
    """``_Format.render`` that, in the child, sends the first slice of its
    first chunk and then fails."""
    real_render = sweep_module._Format.render

    def render(self, chunks):
        texts = real_render(self, chunks)
        if os.getpid() == parent:
            yield from texts
            return
        yield next(texts)
        if how == "dies":
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("injected")

    return render


@pytest.mark.parametrize(
    ("how", "message"),
    [
        ("raises", "hyperspin: error: the render process failed: RuntimeError: injected\n"),
        ("dies", "hyperspin: error: the render process ended before sending all rows\n"),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_child_failing_mid_chunk_is_one_error_line(
    forks, frames, monkeypatch, capsys, tmp_path, fmt, how, message
):
    monkeypatch.setattr(sweep_module, "_SLICE_ROWS", 16)
    monkeypatch.setattr(sweep_module._Format, "render", _fail_mid_chunk(how, os.getpid()))
    assert cli.main(_sweep_argv(3, fmt) + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == message
    if how == "raises":
        # The slice that was sent, then the error frame, which ``_frame`` raises.
        assert frames == [16]
    assert len(forks) == 1
    _assert_no_child_left()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_refused_pipe_size_keeps_the_bytes(forks, monkeypatch, capsys, tmp_path, fmt):
    import fcntl

    asked = []

    def refusing_fcntl(fd, cmd, arg=0):
        asked.append((cmd, arg))
        raise OSError(errno.EPERM, "refused")

    monkeypatch.setattr(fcntl, "fcntl", refusing_fcntl)
    argv = _sweep_argv(7, fmt)
    want, want_bytes, _ = _library_text(argv)
    out = tmp_path / f"out.{fmt}"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == want.encode("utf-8")
    assert _reported_bytes(capsys.readouterr().err) == want_bytes
    assert asked == [(fcntl.F_SETPIPE_SZ, sweep_module._PIPE_BYTES)]
    assert len(forks) == 1
    _assert_no_child_left()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failing_sink_write_kills_and_reaps_the_child(forks, capsys, fmt):
    # Every write to /dev/full fails with ENOSPC, here in the parent, while
    # the child still has chunks to send.
    assert cli.main(_sweep_argv(7, fmt) + ["--out", "/dev/full"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("hyperspin: i/o error: [Errno 28]") and err.count("\n") == 1
    assert len(forks) == 1
    _assert_no_child_left()


# The pins of tests/test_golden.py, reached here through the CLI at the
# default chunk size.
H1A_CSV = "9842e5a8aed04cdd23d9110bc178e45511d80f43617bb200fa9f84013a63d3cb"
SC2B_JSON = "be5fa57a4fa8a5a051fa2cfe285ce014dedc770161950be48a1364fcc17997b8"


def test_preset_through_the_cli_keeps_its_golden_bytes(tmp_path):
    # A fresh interpreter, where numpy is loaded before the fork, with the
    # fork's DeprecationWarning an error; h1a to a file, sc2b to stdout.
    out = tmp_path / "h1a.csv"
    cmd = [sys.executable, "-W", "error::DeprecationWarning", "-m", "hyperspin", "sweep"]
    to_file = subprocess.run(
        [*cmd, "--figure", "h1a", "--out", str(out)], capture_output=True, timeout=300
    )
    to_stdout = subprocess.run(
        [*cmd, "--figure", "sc2b", "--format", "json"], capture_output=True, timeout=300
    )
    assert to_file.returncode == 0 and to_stdout.returncode == 0, (to_file, to_stdout)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == H1A_CSV
    assert hashlib.sha256(to_stdout.stdout).hexdigest() == SC2B_JSON
    assert _reported_bytes(to_file.stderr.decode()) == out.stat().st_size
    assert _reported_bytes(to_stdout.stderr.decode()) == len(to_stdout.stdout)
