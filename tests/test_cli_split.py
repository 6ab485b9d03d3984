"""``hyperspin sweep`` renders a sweep of two or more chunks in two forked
workers: worker ``k`` renders chunks ``k``, ``k + 2``, ..., and sends each
slice of their text as a frame and ends each chunk with an empty one.  The
parent renders nothing; it merges the frames in chunk order into the sink.

Its output and byte count must be those of library ``emit``, which renders
in-process, however the chunks are sliced, whether or not the pipes may be
enlarged and however little the sink takes per write, and a failure in the
parent or in either worker, mid-chunk too, must end as one error line with
both workers reaped.  ``os.fork`` warns on Python 3.12+ in a multi-threaded
process; these tests make that warning an error.
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

import hyperspin.grid as grid_module
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
    """Small chunks, and the pids of the workers that ``os.fork`` makes."""
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
    assert len(forks) == (2 if chunks >= 2 else 0)
    _assert_no_child_left()


def _fail_in_worker(how, worker):
    """``_Columns.chunks`` that fails where worker ``worker``, and only that
    worker, asks for its chunks."""
    real_chunks = sweep_module._Columns.chunks

    def chunks(self, start=0, stride=1):
        if (start, stride) == (worker, 2):
            if how == "dies":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("injected")
        return real_chunks(self, start, stride)

    return chunks


#: How a worker fails, and the error line that the command then prints.
FAILURES = pytest.mark.parametrize(
    ("how", "message"),
    [
        ("raises", "hyperspin: error: the render process failed: RuntimeError: injected\n"),
        ("dies", "hyperspin: error: the render process ended before sending all rows\n"),
    ],
)


def _check_failing_worker(forks, monkeypatch, capsys, tmp_path, worker, fmt, how, message):
    monkeypatch.setattr(sweep_module._Columns, "chunks", _fail_in_worker(how, worker))
    opened = []
    real_replacing = grid_module._replacing

    def recording_replacing(path):
        opened.append(path)
        return real_replacing(path)

    monkeypatch.setattr(grid_module, "_replacing", recording_replacing)
    out = tmp_path / "out"
    assert cli.main(_sweep_argv(3, fmt) + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    # The temporary file is opened before the sweep is evaluated, and it is
    # removed: the path is left as it was, absent.
    assert opened == [str(out)]
    assert os.listdir(tmp_path) == []
    assert len(forks) == 2
    _assert_no_child_left()


@FAILURES
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failing_child_is_one_error_line(forks, monkeypatch, capsys, tmp_path, fmt, how, message):
    # Worker 1, which renders the odd chunks, as the one child did before.
    _check_failing_worker(forks, monkeypatch, capsys, tmp_path, 1, fmt, how, message)


@FAILURES
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failing_first_worker_is_one_error_line(
    forks, monkeypatch, capsys, tmp_path, fmt, how, message
):
    _check_failing_worker(forks, monkeypatch, capsys, tmp_path, 0, fmt, how, message)


#: Rows per slice of text in the tests below: 4 slices per chunk, and 3 and
#: a short one.
SLICES = [16, 20]


def _rows_in(text):
    """The rows in a slice of CSV or JSON text."""
    return text.count('"time": ') if '"time": ' in text else text.count("\n")


@pytest.fixture
def frames(monkeypatch):
    """The rows in each frame that this process reads from the workers; an
    empty frame, which ends a chunk, counts as 0."""
    rows = []
    real_frame = sweep_module._frame

    def recording_frame(pipe):
        data = real_frame(pipe)
        rows.append(_rows_in(data.decode("utf-8")))
        return data

    monkeypatch.setattr(sweep_module, "_frame", recording_frame)
    return rows


def _worker_frames(rows, slice_rows):
    """The rows of each frame the workers send for a sweep of ``rows`` rows,
    in the order of the chunks."""
    frames = []
    for first in range(0, rows, CHUNK):
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
    assert frames == _worker_frames(rows, slice_rows)
    assert len(forks) == 2
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
    assert len(forks) == 2
    _assert_no_child_left()


class _ShortWrites(io.RawIOBase):
    """A raw binary layer, as ``sys.stdout.buffer`` is under
    ``PYTHONUNBUFFERED``, that takes at most ``limit`` bytes per write."""

    def __init__(self, limit):
        self.limit, self.data, self.calls = limit, bytearray(), 0

    def writable(self):
        return True

    def write(self, data):
        self.calls += 1
        taken = bytes(data[: self.limit])
        self.data += taken
        return len(taken)


#: The two writers of a sweep: the merge of the workers' frames, and
#: library ``emit``, which renders in-process.  Both write through the one
#: ``_to_sink``.
WRITERS = {
    "merge": lambda result, fmt, sink: sweep_module._emit(result, fmt, sink, split=True),
    "emit": emit,
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    ("writer", "sink_kind"),
    [
        # The merge's cases are named by the sink alone, as before emit joined.
        pytest.param(writer, kind, id=kind if writer == "merge" else f"{writer}-{kind}")
        for writer in WRITERS
        for kind in ("short-writes", "text-only", "binary-short-writes", "bytes-io")
    ],
)
def test_the_merge_writes_what_the_sink_takes(forks, fmt, writer, sink_kind):
    argv = _sweep_argv(7, fmt)
    want, want_bytes, _ = _library_text(argv)
    grid = cli._sweep_grid_from_args(cli.build_parser().parse_args(argv))
    write = WRITERS[writer]
    if sink_kind == "text-only":
        sink = _Recording()
        assert write(run_sweep(grid), fmt, sink) == want_bytes
        assert "".join(sink.writes) == want
    elif sink_kind == "bytes-io":
        sink = io.BytesIO()
        assert write(run_sweep(grid), fmt, sink) == want_bytes
        assert sink.getvalue() == want.encode("utf-8")
    elif sink_kind == "binary-short-writes":
        # The raw binary stream itself, written with no text layer above it.
        sink = _ShortWrites(3000)
        assert write(run_sweep(grid), fmt, sink) == want_bytes
        assert bytes(sink.data) == want.encode("utf-8")
        assert sink.calls > len(sink.data) // sink.limit
    else:
        raw = _ShortWrites(3000)
        sink = io.TextIOWrapper(raw, encoding="utf-8", newline="")
        # Text still held by the text layer goes out before the document.
        sink.write("before\n")
        assert write(run_sweep(grid), fmt, sink) == want_bytes
        assert bytes(raw.data) == b"before\n" + want.encode("utf-8")
        assert raw.calls > len(raw.data) // raw.limit
    assert len(forks) == (2 if writer == "merge" else 0)
    _assert_no_child_left()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_parent_renders_no_chunk(forks, monkeypatch, tmp_path, fmt):
    argv = _sweep_argv(7, fmt)
    want, _, _ = _library_text(argv)
    # Every process that asks for chunks to render writes its pid here.
    read_fd, write_fd = os.pipe()
    real_chunks = sweep_module._Columns.chunks

    def reporting_chunks(self, start=0, stride=1):
        os.write(write_fd, os.getpid().to_bytes(8, "little"))
        return real_chunks(self, start, stride)

    monkeypatch.setattr(sweep_module._Columns, "chunks", reporting_chunks)
    out = tmp_path / f"out.{fmt}"
    try:
        assert cli.main(argv + ["--out", str(out)]) == 0
    finally:
        os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        reported = pipe.read()
    pids = [int.from_bytes(reported[i : i + 8], "little") for i in range(0, len(reported), 8)]
    assert os.getpid() not in pids
    assert sorted(pids) == sorted(forks) and len(forks) == 2
    assert out.read_bytes() == want.encode("utf-8")
    _assert_no_child_left()


def _fail_mid_chunk(monkeypatch, how, worker):
    """``_Format.render`` that, in worker ``worker``, sends the first slice of
    its first chunk and then fails."""
    # Each worker asks for its chunks just before it renders them, so in a
    # worker this holds its number alone.
    started = []
    real_chunks = sweep_module._Columns.chunks

    def chunks(self, start=0, stride=1):
        started.append(start)
        return real_chunks(self, start, stride)

    monkeypatch.setattr(sweep_module._Columns, "chunks", chunks)
    real_render = sweep_module._Format.render

    def render(self, chunks):
        texts = real_render(self, chunks)
        if started != [worker]:
            yield from texts
            return
        yield next(texts)
        if how == "dies":
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("injected")

    return render


def _check_worker_failing_mid_chunk(
    forks, frames, monkeypatch, capsys, tmp_path, worker, fmt, how, message
):
    monkeypatch.setattr(sweep_module, "_SLICE_ROWS", 16)
    monkeypatch.setattr(sweep_module._Format, "render", _fail_mid_chunk(monkeypatch, how, worker))
    assert cli.main(_sweep_argv(3, fmt) + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == message
    # The temporary file was opened, and removed: no file is left.
    assert os.listdir(tmp_path) == []
    if how == "raises":
        # Chunk 0 whole if worker 1 fails, then the slice that the failing
        # worker sent, then its error frame, which ``_frame`` raises.
        assert frames == [16, 16, 16, 16, 0] * worker + [16]
    assert len(forks) == 2
    _assert_no_child_left()


@FAILURES
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_child_failing_mid_chunk_is_one_error_line(
    forks, frames, monkeypatch, capsys, tmp_path, fmt, how, message
):
    # Worker 1, which renders the odd chunks, as the one child did before.
    args = forks, frames, monkeypatch, capsys, tmp_path, 1, fmt, how, message
    _check_worker_failing_mid_chunk(*args)


@FAILURES
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_first_worker_failing_mid_chunk_is_one_error_line(
    forks, frames, monkeypatch, capsys, tmp_path, fmt, how, message
):
    args = forks, frames, monkeypatch, capsys, tmp_path, 0, fmt, how, message
    _check_worker_failing_mid_chunk(*args)


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
    # Once for each worker's pipe.
    assert asked == [(fcntl.F_SETPIPE_SZ, sweep_module._PIPE_BYTES)] * 2
    assert len(forks) == 2
    _assert_no_child_left()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failing_sink_write_kills_and_reaps_the_child(forks, capsys, fmt):
    # Every write to /dev/full fails with ENOSPC, here in the parent, while
    # the workers still have chunks to send.
    assert cli.main(_sweep_argv(7, fmt) + ["--out", "/dev/full"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("hyperspin: i/o error: [Errno 28]") and err.count("\n") == 1
    assert len(forks) == 2
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
