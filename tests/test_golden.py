"""Golden output: sha256 of rendered presets and grids, pinned before any engine change.

Any change to these bytes is an output-format change and must bump the
output version deliberately; the h1a, h1b and phi-scan digests are the
same ones the benchmark in ``perfbench/digests.json`` checks.
"""

import hashlib
import io

import pytest

from hyperspin import SweepGrid, TimeGrid, emit, run_preset, run_sweep

GOLDEN = {
    ("h1a", "csv"): "9842e5a8aed04cdd23d9110bc178e45511d80f43617bb200fa9f84013a63d3cb",
    ("m08", "csv"): "fa5a27e56be1069b2c20584992edd6e2b17f0eb94328119121f1f479d971cd1b",
    ("nm08", "csv"): "fa87c0ce5890abc9dc0ec2dd62e642c16c16462888ed7e9689eec74fb4c025f0",
    ("sc2b", "csv"): "f23070cf8a6c7286811ec1eda75b73b396d8715990e090eba9817f83798be9a5",
    ("h1b", "json"): "73dcafae957f391d37f8eabcaa7b2d91d302eb5d3220084e756a420b7a809994",
}
PHI_SCAN_CSV = "0b1970936a268efb27028e3504b1e07f80374d65546aa0d95acc751f3479ba47"


def _sha256(result, fmt):
    sink = io.StringIO()
    emit(result, fmt, sink)
    return hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize(("preset", "fmt"), sorted(GOLDEN))
def test_preset_digest(preset, fmt):
    assert _sha256(run_preset(preset), fmt) == GOLDEN[(preset, fmt)]


def test_phi_scan_digest():
    # The grid `sweep --channel xi- --grid phi=0:3.14159:0.0001 --mu 0.8
    # --tau 5 --grid time=2:2:1` builds: one row per phi.
    phis = tuple(TimeGrid(0.0, 3.14159, 0.0001).values())
    grid = SweepGrid("xi-", phis, (0.8,), (5.0,), TimeGrid(2.0, 2.0, 1.0))
    assert _sha256(run_sweep(grid), "csv") == PHI_SCAN_CSV
