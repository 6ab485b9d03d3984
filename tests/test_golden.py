"""Golden output: sha256 of rendered presets and grids, pinned before any engine change.

Any change to these bytes is an output-format change and must bump the
output version deliberately; the h1a, h1b and phi-scan digests are the
same ones the benchmark in ``perfbench/digests.json`` checks.
"""

import dataclasses
import functools
import hashlib
import importlib.util
import io
import math
from pathlib import Path

import pytest

from hyperspin import (
    SweepGrid,
    SweepResult,
    TimeGrid,
    emit,
    figure_preset,
    run_preset,
    run_sweep,
)
from hyperspin.cli import _sweep_grid_from_args, build_parser

GOLDEN = {
    ("h1a", "csv"): "9842e5a8aed04cdd23d9110bc178e45511d80f43617bb200fa9f84013a63d3cb",
    ("m08", "csv"): "fa5a27e56be1069b2c20584992edd6e2b17f0eb94328119121f1f479d971cd1b",
    ("nm08", "csv"): "fa87c0ce5890abc9dc0ec2dd62e642c16c16462888ed7e9689eec74fb4c025f0",
    ("sc2b", "csv"): "f23070cf8a6c7286811ec1eda75b73b396d8715990e090eba9817f83798be9a5",
    ("h1b", "json"): "73dcafae957f391d37f8eabcaa7b2d91d302eb5d3220084e756a420b7a809994",
    ("h1a", "json"): "5aa1e781cf633f05bd2b33d10547a43e14678020341cf210eaaf7f2d49bbb5cf",
    ("nm08", "json"): "ba69690e8eae68f8dd6e8f7732b3d1e28d3fd76fcdf0604d37857f6e3be72cc4",
    ("sc2b", "json"): "be5fa57a4fa8a5a051fa2cfe285ce014dedc770161950be48a1364fcc17997b8",
}
#: The CSV sha256 of every other preset in ``PRESETS``.
PRESET_CSV = {
    "c1a": "9842e5a8aed04cdd23d9110bc178e45511d80f43617bb200fa9f84013a63d3cb",
    "c1b": "2c6108c2c73b73145f0806b2e755737ffc444e54e7e440c8804b4db668c8a440",
    "c2a": "adfd4a2ae493182b107f46733158958637f29940f402e6044d4ed117ffe7475d",
    "c2b": "007e558b296d21f41136cbc99387c65bffd0a5184220e2b10226ec99e82dbf09",
    "d1a": "9842e5a8aed04cdd23d9110bc178e45511d80f43617bb200fa9f84013a63d3cb",
    "d1b": "2c6108c2c73b73145f0806b2e755737ffc444e54e7e440c8804b4db668c8a440",
    "d2a": "adfd4a2ae493182b107f46733158958637f29940f402e6044d4ed117ffe7475d",
    "d2b": "007e558b296d21f41136cbc99387c65bffd0a5184220e2b10226ec99e82dbf09",
    "e1a": "9842e5a8aed04cdd23d9110bc178e45511d80f43617bb200fa9f84013a63d3cb",
    "e1b": "2c6108c2c73b73145f0806b2e755737ffc444e54e7e440c8804b4db668c8a440",
    "e2a": "adfd4a2ae493182b107f46733158958637f29940f402e6044d4ed117ffe7475d",
    "e2b": "007e558b296d21f41136cbc99387c65bffd0a5184220e2b10226ec99e82dbf09",
    "h1b": "2c6108c2c73b73145f0806b2e755737ffc444e54e7e440c8804b4db668c8a440",
    "h2a": "adfd4a2ae493182b107f46733158958637f29940f402e6044d4ed117ffe7475d",
    "h2b": "007e558b296d21f41136cbc99387c65bffd0a5184220e2b10226ec99e82dbf09",
    "m0": "ebecb35785cbad85011d04b7ce10d75d73b79832c4871553bbb586e830233461",
    "m06": "ef9fd58bc15cc55b1e5ab8e46e88cff86d115a95be1128f6fb07defc50bb78f3",
    "m1": "3f03aff72ba8f19cc571e1e38176b43db2345072071010d126511b084244ddf0",
    "nm0": "2a59c71ccc2d75db76abb1d14bece2de9aedb6e8800416cc0d0c685b5454fb81",
    "nm06": "d4342652d39696377e30051be28a8911e59098a1e6ab70a8ebddf1590c5537ce",
    "nm1": "9f19e63d6f3a450f1aa228352b8520f0fc42259ed69659bda140bf2f98ea34e8",
    "sc1a": "5968310d236388aee00195ef6b618240849ad1ed7368ca4bcaa098dd3a53a091",
    "sc1b": "e1367b00fca62b0de2da26763f1df662a49ed3bbd45a1cdb8c89935bcfa6becf",
    "sc2a": "19ce8932281058974d54012f15173790eedb2e7ba218796cb2aaaae4974bfde1",
}
PHI_SCAN_CSV = "0b1970936a268efb27028e3504b1e07f80374d65546aa0d95acc751f3479ba47"
#: An explicit-rows result whose channel is non-ASCII: (bytes emitted, sha256).
EXPLICIT_ROWS = {
    "csv": (4147, "5890b741d2f999fd12562ac5e91636a10ab8893cb525ff7c921aeb3d6c395f47"),
    "json": (13555, "033721f7b46216e49a28a5dc492399e324d0b091cb281c66f464f088f9253fec"),
}


def _sha256(result, fmt):
    sink = io.StringIO()
    emit(result, fmt, sink)
    return hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize(("preset", "fmt"), sorted(GOLDEN))
def test_preset_digest(preset, fmt):
    assert _sha256(run_preset(preset), fmt) == GOLDEN[(preset, fmt)]


class _HashSink:
    """A text sink that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode("utf-8"))


@functools.cache
def _grid_csv_sha256(grid):
    # CSV bytes depend on the grid alone (a preset's measure selector goes to
    # the JSON metadata only), so presets sharing a grid are evaluated once.
    sink = _HashSink()
    emit(run_sweep(grid), "csv", sink)
    return sink.hash.hexdigest()


@pytest.mark.parametrize("preset", sorted(PRESET_CSV))
def test_every_preset_csv_digest(preset):
    assert _grid_csv_sha256(figure_preset(preset).grid) == PRESET_CSV[preset]


def _benchmark_argv(workload):
    """The ``hyperspin`` argv of a sweep workload of ``perfbench/run.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SWEEPS[workload]["argv"]


def test_phi_scan_digest():
    # The grid `sweep --channel xi- --grid phi=0:3.14159:0.0001 --mu 0.8
    # --tau 5 --grid time=2:2:1` builds: one row per phi.
    phis = tuple(TimeGrid(0.0, 3.14159, 0.0001).values())
    grid = SweepGrid("xi-", phis, (0.8,), (5.0,), TimeGrid(2.0, 2.0, 1.0))
    assert _sha256(run_sweep(grid), "csv") == PHI_SCAN_CSV
    # The same grid as the CLI builds it from the benchmark's phi-scan argv.
    argv = _benchmark_argv("phi-scan")
    cli_grid = _sweep_grid_from_args(build_parser().parse_args(argv))
    assert _sha256(run_sweep(cli_grid), "csv") == PHI_SCAN_CSV


@pytest.mark.parametrize("fmt", sorted(EXPLICIT_ROWS))
def test_explicit_rows_digest(fmt):
    # Computed rows renamed to the channel "Λ": two UTF-8 bytes in CSV, a
    # \u escape in JSON.
    grid = SweepGrid(
        "lambda", (0.0, 0.7, math.pi / 2.0), (0.0, 0.8), (0.1, 5.0), TimeGrid(0.0, 1.0, 0.5)
    )
    computed = run_sweep(grid)
    result = SweepResult(
        [dataclasses.replace(row, channel="Λ") for row in computed.rows], computed.metadata
    )
    sink = io.StringIO()
    nbytes = emit(result, fmt, sink)
    digest = hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest()
    assert (nbytes, digest) == EXPLICIT_ROWS[fmt]
