import dataclasses
import hashlib
import io
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import hyperspin.grid as grid_module
import hyperspin.sweep as sweep_module
from hyperspin import (
    DensityMatrix4,
    DomainError,
    HyperspinError,
    KernelValue,
    PRESETS,
    SweepGrid,
    SweepResult,
    TimeGrid,
    UnknownPresetError,
    channel_params,
    decoherence_factor,
    density_matrix,
    dephase,
    emit,
    figure_preset,
    measure_all,
    memory_kernel,
    run_preset,
    run_sweep,
)
from hyperspin import __version__
from hyperspin.channel import ChannelConfig
from hyperspin.selfcheck import _suite_sweep_oracle
from hyperspin.sweep import CSV_HEADER, FLOAT_FORMAT, KERNEL_VARIANT, MEASURE_NAMES

HALF_PI = math.pi / 2.0


def small_grid(**overrides):
    base = dict(
        channel="lambda",
        phi=(0.0, HALF_PI),
        mu=(0.0, 0.8),
        tau=(0.1,),
        time=TimeGrid(0.0, 1.0, 0.5),
    )
    base.update(overrides)
    return SweepGrid(**base)


def test_time_grid_inclusive_endpoints():
    assert TimeGrid(0.0, 1.0, 0.5).values() == [0.0, 0.5, 1.0]
    assert len(TimeGrid(0.0, 5.0, 0.01)) == 501
    assert len(TimeGrid(0.0, 50.0, 0.01)) == 5001
    with pytest.raises(DomainError):
        TimeGrid(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        TimeGrid(1.0, 0.0, 0.5)


def test_grid_validation():
    with pytest.raises(DomainError):
        small_grid(phi=())
    with pytest.raises(DomainError):
        small_grid(mu=(1.4,))
    with pytest.raises(DomainError):
        small_grid(tau=(0.0,))


def test_run_sweep_ordering_and_count():
    grid = small_grid()
    result = run_sweep(grid)
    assert len(result.rows) == len(grid) == 2 * 2 * 1 * 3
    keys = [(r.phi, r.mu, r.tau, r.time) for r in result.rows]
    assert keys == sorted(keys)


def test_run_sweep_single_point_matches_measure_all():
    grid = SweepGrid("lambda", (HALF_PI,), (0.8,), (0.1,), TimeGrid(0.0, 0.0, 1.0))
    row = run_sweep(grid).rows[0]
    cfg = ChannelConfig(mu=0.8, tau=0.1)
    k = memory_kernel(0.0, cfg).k
    eta = decoherence_factor(0.0, cfg)
    want = measure_all(dephase(density_matrix(channel_params("lambda"), HALF_PI), eta), eta, k)
    assert row.record == want
    assert row.regime == "markovian"


def test_run_sweep_frozen_channel_rows_identical():
    grid = SweepGrid("lambda", (HALF_PI,), (1.0,), (0.1,), TimeGrid(0.0, 1.0, 0.01))
    rows = run_sweep(grid).rows
    assert len(rows) == 101
    first = rows[0].record
    for row in rows[1:]:
        assert row.record.concurrence == first.concurrence
        assert row.record.steering == first.steering
        assert row.record.gqd == first.gqd
        assert row.record.coherence_l1 == first.coherence_l1


def test_run_sweep_phi_boundary_zero_columns():
    grid = SweepGrid("lambda", (0.0,), (0.0, 0.5), (0.1, 5.0), TimeGrid(0.0, 2.0, 0.5))
    for row in run_sweep(grid).rows:
        assert row.record.steering.s_ab == 0.0
        assert row.record.concurrence == 0.0
        assert row.record.eof == 0.0
        assert row.record.gqd == 0.0


def test_run_sweep_rejects_unknown_measure():
    with pytest.raises(DomainError):
        run_sweep(small_grid(), measures=("entropy",))
    # A string is one name, not a sequence of them, however it iterates.
    with pytest.raises(DomainError, match="measures must be a sequence of names.*'eof'"):
        run_sweep(small_grid(), measures="eof")
    with pytest.raises(DomainError, match="measures must be a sequence of names, got 5"):
        run_sweep(small_grid(), measures=5)


def test_parallel_equivalence():
    grid = small_grid(phi=(0.3, 1.1, 2.2), mu=(0.0, 0.4, 0.9), time=TimeGrid(0.0, 2.0, 0.1))
    serial = run_sweep(grid, workers=1)
    threaded = run_sweep(grid, workers=4)
    assert serial.rows == threaded.rows
    sink_a, sink_b = io.StringIO(), io.StringIO()
    emit(serial, "csv", sink_a)
    emit(threaded, "csv", sink_b)
    assert sink_a.getvalue() == sink_b.getvalue()


def test_preset_registry_fixed_parameters():
    # Fixed parameters per preset id: (tau, mu list or None, phi list or None, t_stop).
    full_phi = tuple(k * math.pi / 180.0 for k in range(181))
    full_mu = tuple(k / 100.0 for k in range(101))
    compare_phi = (math.pi / 6.0, math.pi / 4.0, math.pi / 3.0, HALF_PI)
    expected = {}
    for prefix in ("h", "e", "d", "c"):
        for digit, tau, stop in (("1", 0.1, 5.0), ("2", 5.0, 50.0)):
            expected[f"{prefix}{digit}a"] = (tau, (0.8,), full_phi, stop)
            expected[f"{prefix}{digit}b"] = (tau, full_mu, (HALF_PI,), stop)
    for digit, tau, stop in (("1", 0.1, 5.0), ("2", 5.0, 50.0)):
        expected[f"sc{digit}a"] = (tau, (0.6,), compare_phi, stop)
        expected[f"sc{digit}b"] = (tau, (0.8,), compare_phi, stop)
    for prefix, tau, stop in (("m", 0.1, 5.0), ("nm", 5.0, 50.0)):
        for suffix, mu in (("0", 0.0), ("06", 0.6), ("08", 0.8), ("1", 1.0)):
            expected[f"{prefix}{suffix}"] = (tau, (mu,), (HALF_PI,), stop)

    assert set(PRESETS) == set(expected)
    for pid, (tau, mu, phi, stop) in expected.items():
        preset = figure_preset(pid)
        assert preset.grid.tau == (tau,), pid
        assert preset.grid.mu == mu, pid
        assert preset.grid.phi == phi, pid
        assert preset.grid.time.stop == stop, pid
        assert preset.grid.time.step == 0.01, pid
        assert preset.grid.channel == "lambda", pid


def test_preset_measure_selectors():
    assert figure_preset("h1a").measures == ("steering",)
    assert figure_preset("e1b").measures == ("eof",)
    assert figure_preset("d2a").measures == ("gqd",)
    assert figure_preset("c2b").measures == ("coherence_l1",)
    assert figure_preset("nm1").measures == ("steering", "eof", "gqd", "coherence_l1")


def test_unknown_preset():
    with pytest.raises(UnknownPresetError):
        figure_preset("zz9")
    # An unhashable id is unknown too, not a TypeError of the registry's dict.
    with pytest.raises(UnknownPresetError, match=r"unknown preset \['h1a'\]"):
        figure_preset(["h1a"])
    with pytest.raises(UnknownPresetError, match=r"unknown preset \{\}"):
        run_preset({})


def test_emit_csv_header_and_rows():
    result = run_sweep(SweepGrid("lambda", (0.0,), (0.0,), (0.1,), TimeGrid(0.0, 0.0, 1.0)))
    sink = io.StringIO()
    nbytes = emit(result, "csv", sink)
    text = sink.getvalue()
    assert nbytes == len(text.encode())
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3 and lines[2] == ""
    assert lines[1].startswith("lambda,0,0,0.1,markovian,0,1,1,")


def test_emit_empty_result():
    empty = SweepResult([], {"preset": None})
    sink = io.StringIO()
    emit(empty, "csv", sink)
    assert sink.getvalue() == CSV_HEADER + "\n"
    sink = io.StringIO()
    emit(empty, "json", sink)
    assert json.loads(sink.getvalue())["records"] == []


def test_emit_rejects_unknown_format():
    with pytest.raises(DomainError):
        emit(SweepResult([], {}), "xml", io.StringIO())
    with pytest.raises(DomainError, match=r"format must be 'csv' or 'json', got \['csv'\]"):
        emit(SweepResult([], {}), ["csv"], io.StringIO())


def test_float_rendering():
    assert FLOAT_FORMAT % 0.1 == "0.1"
    assert FLOAT_FORMAT % 1.0 == "1"
    assert FLOAT_FORMAT % 0.123456789012345 == "0.123456789012"
    assert FLOAT_FORMAT % 1e-30 == "1e-30"


def test_emit_json_round_trip():
    result = run_sweep(small_grid())
    sink = io.StringIO()
    emit(result, "json", sink)
    parsed = json.loads(sink.getvalue())
    assert parsed["metadata"]["kernel_variant"] == result.metadata["kernel_variant"]
    assert len(parsed["records"]) == len(result.rows)
    for rec, row in zip(parsed["records"], result.rows):
        assert rec == row.as_dict()


def test_emit_json_is_json_dumps_of_the_records():
    rows = run_sweep(small_grid()).rows
    # Explicit rows may carry values a sweep never makes; json spells them apart.
    rows[1] = dataclasses.replace(rows[1], phi=math.nan, time=math.inf, channel="Λ")
    result = SweepResult(rows, {"preset": None, "note": "[]"})
    sink = io.StringIO()
    emit(result, "json", sink)
    records = [row.as_dict() for row in rows]
    assert sink.getvalue() == json.dumps(
        {"metadata": result.metadata, "records": records}, indent=1
    ) + "\n"


def test_emit_to_path(tmp_path):
    result = run_sweep(small_grid())
    target = tmp_path / "out.csv"
    nbytes = emit(result, "csv", target)
    assert target.read_bytes() == target.read_text().encode()
    assert nbytes == len(target.read_bytes())


def test_unrenderable_json_leaves_the_file_as_it_was(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old\n")
    rows = run_sweep(small_grid()).rows
    for metadata in ({"note": object()}, {}):
        # The first has metadata json cannot dump; the second a first row
        # whose phi is not a number.
        bad_rows = rows if metadata else [dataclasses.replace(rows[0], phi="x")] + rows[1:]
        with pytest.raises(TypeError):
            emit(SweepResult(bad_rows, metadata), "json", target)
        assert target.read_text() == "old\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_counts_the_bytes_it_writes(tmp_path, fmt):
    computed = run_sweep(small_grid())
    # Explicit rows whose channel takes two UTF-8 bytes per character in CSV
    # (JSON escapes it).
    renamed = SweepResult(
        [dataclasses.replace(row, channel="ΛΛ̄") for row in computed.rows], computed.metadata
    )
    for result in (computed, renamed):
        target = tmp_path / f"out.{fmt}"
        nbytes = emit(result, fmt, target)
        assert nbytes == target.stat().st_size
    if fmt == "csv":
        assert nbytes > len(target.read_text(encoding="utf-8"))


def test_preset_run_is_deterministic():
    a, b = run_preset("m08"), run_preset("m08")
    sink_a, sink_b = io.StringIO(), io.StringIO()
    emit(a, "csv", sink_a)
    emit(b, "csv", sink_b)
    assert sink_a.getvalue() == sink_b.getvalue()
    assert len(a.rows) == 501
    assert a.metadata["preset"] == "m08"


@pytest.mark.parametrize(
    ("start", "stop", "step"),
    [(0.0, math.inf, 1.0), (0.0, 1.0, math.nan), (math.nan, 1.0, 1.0), (math.inf, math.inf, 1.0)],
)
def test_time_grid_rejects_non_finite(start, stop, step):
    with pytest.raises(DomainError, match="finite"):
        TimeGrid(start, stop, step)


def test_grid_rejects_non_finite_tau():
    for tau in (math.inf, math.nan):
        with pytest.raises(DomainError, match="tau"):
            small_grid(tau=(tau,))


def test_run_sweep_validates_worker_count():
    for workers in (0, -3):
        with pytest.raises(DomainError, match="workers"):
            run_sweep(small_grid(), workers=workers)


def test_columns_and_rows_render_alike():
    result = run_sweep(small_grid(phi=(0.0, 0.7, HALF_PI), tau=(0.1, 5.0)))
    assert len(result) == len(result.rows) == 3 * 2 * 2 * 3
    explicit = SweepResult(result.rows, result.metadata)
    for fmt in ("csv", "json"):
        a, b = io.StringIO(), io.StringIO()
        assert emit(result, fmt, a) == emit(explicit, fmt, b)
        assert a.getvalue() == b.getvalue()
        if fmt == "csv":
            assert a.getvalue().splitlines()[1:] == [row.csv_line() for row in result.rows]
    assert CSV_HEADER.split(",") == list(result.rows[0].as_dict())


class _Discard:
    def write(self, text):
        pass


def _phi_grid(n_phi):
    phis = tuple(k * math.pi / (n_phi - 1) for k in range(n_phi))
    return SweepGrid("lambda", phis, (0.8,), (0.1,), TimeGrid(0.0, 1.0, 0.01))


def _mu_grid(n_mu):
    mus = tuple(k / (n_mu - 1) for k in range(n_mu))
    return SweepGrid("lambda", (HALF_PI,), mus, (0.1,), TimeGrid(0.0, 5.0, 0.01))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_memory_does_not_grow_with_rows(monkeypatch, fmt):
    monkeypatch.setattr(sweep_module, "_CHUNK_ROWS", 512)
    # A phi sweep (an ``a`` panel): 2,020 rows, about four chunks; and a mu
    # sweep at one phi (a ``b`` panel): 20,040 rows, one per (mu, t) point.
    # Each then again with four times as many rows.
    for grid_of, sizes in ((_phi_grid, (20, 80)), (_mu_grid, (40, 160))):
        peaks = []
        for n in sizes:
            tracemalloc.start()
            try:
                emit(run_sweep(grid_of(n)), fmt, _Discard())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.2 * peaks[0], (grid_of.__name__, peaks)


def _slice_grid():
    # 54 rows: 18 series of 3 times, each (mu, tau, t) point in 3 series.
    return small_grid(phi=(0.0, 0.7, HALF_PI), mu=(0.0, 0.5, 0.8), tau=(0.1, 5.0))


def test_repeated_emits_give_the_same_bytes(monkeypatch):
    grid = _slice_grid()
    result = run_sweep(grid)
    outputs = []
    for fmt in ("csv", "json", "csv", "json"):
        sink = io.StringIO()
        outputs.append((emit(result, fmt, sink), sink.getvalue()))
    assert outputs[0] == outputs[2] and outputs[1] == outputs[3]
    assert outputs[0][1].splitlines()[1:] == [row.csv_line() for row in result.rows]
    # Chunk boundaries inside series and points leave the bytes as they are,
    # and so do slices of 3, 3 and 1 rows, which cross those boundaries and
    # end each chunk in a short slice.
    monkeypatch.setattr(sweep_module, "_CHUNK_ROWS", 7)
    for slice_rows in (sweep_module._SLICE_ROWS, 3):
        monkeypatch.setattr(sweep_module, "_SLICE_ROWS", slice_rows)
        for fmt, want in (("csv", outputs[0]), ("json", outputs[1])):
            for source in (run_sweep(grid), SweepResult(result.rows, result.metadata)):
                sink = io.StringIO()
                assert (emit(source, fmt, sink), sink.getvalue()) == want


class _Recording:
    """A sink that keeps the text of each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def _slice_sizes(rows, chunk_rows, slice_rows):
    """The rows of each slice of each chunk, in order."""
    sizes = []
    for first in range(0, rows, chunk_rows):
        n = min(chunk_rows, rows - first)
        sizes += [min(slice_rows, n - cut) for cut in range(0, n, slice_rows)]
    return sizes


def _rows_in(text, fmt):
    return text.count("\n") if fmt == "csv" else text.count('"steering_class"')


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    ("chunk_rows", "slice_rows"), [(7, 3), (None, None)], ids=["small", "default"]
)
def test_each_write_is_one_slice(monkeypatch, fmt, chunk_rows, slice_rows):
    if chunk_rows is None:
        # A phi sweep of 5,050 rows: three default chunks, the last one short.
        grid = _phi_grid(50)
        assert 2 * sweep_module._CHUNK_ROWS < len(grid) < 3 * sweep_module._CHUNK_ROWS
    else:
        grid = _slice_grid()
        monkeypatch.setattr(sweep_module, "_CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(sweep_module, "_SLICE_ROWS", slice_rows)
    chunk, part = sweep_module._CHUNK_ROWS, sweep_module._SLICE_ROWS
    result = run_sweep(grid)
    for source in (result, SweepResult(result.rows, result.metadata)):
        sink, whole = _Recording(), io.StringIO()
        assert emit(source, fmt, sink) == emit(source, fmt, whole)
        assert "".join(sink.writes) == whole.getvalue()
        head, *records = sink.writes
        if fmt == "json":
            records, tail = records[:-1], records[-1]
            assert _rows_in(head + tail, fmt) == 0
        # Every chunk is written as its slices, each in one write.
        assert [_rows_in(text, fmt) for text in records] == _slice_sizes(len(grid), chunk, part)


def test_reused_point_strings_give_the_row_bytes():
    # A phi sweep over three default-size chunks, each covering the points of
    # the chunk before, so the later ones reuse the rendered point strings.
    result = run_sweep(_phi_grid(50))
    assert len(result) > 2 * sweep_module._CHUNK_ROWS
    explicit = SweepResult(result.rows, result.metadata)
    for fmt in ("csv", "json"):
        computed, rows = io.StringIO(), io.StringIO()
        emit(result, fmt, computed)
        emit(explicit, fmt, rows)
        assert computed.getvalue() == rows.getvalue(), fmt
        if fmt == "csv":
            lines = computed.getvalue().splitlines()[1:]
            assert lines == [row.csv_line() for row in result.rows]


def test_each_point_block_is_rendered_once(monkeypatch):
    rendered = []
    real_fill = sweep_module._Format._fill

    def counting(self, template, columns, values):
        if columns is sweep_module._POINT_COLUMNS:
            rendered.append(len(values[0]))
        return real_fill(self, template, columns, values)

    monkeypatch.setattr(sweep_module._Format, "_fill", counting)
    # h1a: 181 series of the same 501 points, and every chunk covers all 501.
    h1a = run_preset("h1a")
    assert len(h1a) > 5 * sweep_module._CHUNK_ROWS
    for fmt in ("csv", "json"):
        rendered.clear()
        emit(h1a, fmt, _Discard())
        assert rendered == [501], fmt
    # A mu sweep at one phi: every row is its own point, rendered once.
    mu_sweep = run_sweep(_mu_grid(5))
    rendered.clear()
    emit(mu_sweep, "csv", _Discard())
    assert sum(rendered) == len(mu_sweep)


def test_h1a_csv_working_set_is_bounded():
    tracemalloc.start()
    try:
        emit(run_preset("h1a"), "csv", _Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_h1a_holds_a_slice_of_text_at_a_time(fmt):
    # The text of a 2,048-row chunk alone is about 0.3 MB as CSV and 0.8 MB
    # as JSON, and more as Python lists and line strings on the way.
    emit(run_sweep(small_grid()), fmt, _Discard())
    tracemalloc.start()
    try:
        emit(run_preset("h1a"), fmt, _Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000


def test_evaluate_allocates_little_beyond_what_it_keeps():
    # 50,001 times at two taus: 0.4 MB of times and 0.8 MB of kernel.
    grid = SweepGrid("lambda", (HALF_PI,), (0.8,), (0.1, 5.0), TimeGrid(0.0, 500.0, 0.01))
    # Whatever a first evaluation loads is not counted as kept.
    sweep_module._evaluate(small_grid())
    tracemalloc.start()
    try:
        columns = sweep_module._evaluate(grid)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept >= columns.times.nbytes + columns.kernel.nbytes == 24 * 50_001
    assert peak <= 2 * kept, (kept, peak)
    # The values of the lists they were built from before.
    times = grid.time.values()
    assert columns.times.tolist() == times
    kernels = [
        memory_kernel(t, ChannelConfig(mu=0.8, tau=tau)).k for tau in grid.tau for t in times
    ]
    assert columns.kernel.tolist() == kernels
    assert columns.regimes == ["markovian", "non_markovian"]


def test_evaluate_allocates_little_beyond_what_it_keeps_per_phi():
    # 200,001 phis at one time: the six X entries of each state, 9.6 MB.
    n = 200_001
    phis = tuple(k * (math.pi / (n - 1)) for k in range(n))
    grid = SweepGrid("lambda", phis, (0.8,), (5.0,), TimeGrid(2.0, 2.0, 1.0))
    sweep_module._evaluate(small_grid())
    tracemalloc.start()
    try:
        columns = sweep_module._evaluate(grid)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept >= 48 * n
    assert peak <= 2 * kept, (kept, peak)
    assert sorted(columns.states) == sorted(sweep_module._STATE_FIELDS)
    rho = density_matrix(channel_params("lambda"), phis[12_345])
    assert [columns.states[name][12_345] for name in sweep_module._STATE_FIELDS] == [
        rho.rho11, rho.rho22, rho.rho33, rho.rho44, rho.rho14.real, rho.rho23.real
    ]


@pytest.mark.parametrize(
    ("make", "named"),
    [
        (lambda: TimeGrid("0", 1.0, 1.0), "time start must be a real number, got '0'"),
        (lambda: TimeGrid(None, 1.0, 1.0), "time start must be a real number, got None"),
        (lambda: small_grid(phi=1.0), "phi must be a sequence of numbers, got 1.0"),
        (lambda: small_grid(mu={0.5, 0.8}), "mu must be a sequence of numbers, got {0.5, 0.8}"),
        (lambda: small_grid(phi=("1",)), "phi value '1' is not a real number"),
        (
            lambda: small_grid(phi=(np.array([0.1, 0.2]),)),
            "phi value array([0.1, 0.2]) is not a real number",
        ),
        (lambda: small_grid(mu=(None,)), "mu value None is not a real number"),
        (lambda: small_grid(tau=(1j,)), "tau value 1j is not a real number"),
        (
            lambda: run_sweep(small_grid(time=(0.0, 1.0, 1.0))),
            "time must be a TimeGrid, got (0.0, 1.0, 1.0)",
        ),
        (lambda: run_sweep("h1a"), "grid must be a SweepGrid, got 'h1a'"),
        (
            lambda: emit(run_sweep(small_grid()), "csv", 5),
            "sink must be a path or a stream, got 5",
        ),
    ],
    ids=["time-str", "time-none", "axis-float", "axis-set", "axis-str", "axis-array",
         "axis-none", "axis-complex", "time-tuple", "grid-str", "sink-int"],  # fmt: skip
)
def test_wrong_types_are_domain_errors_naming_the_field(make, named):
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value).startswith(named), str(info.value)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--figure", "m08", "--format", "csv"],
        ["measure", "--channel", "lambda", "--phi", "1.5707963", "--mu", "0.8",
         "--tau", "0.1", "--time", "1.5"],
    ],  # fmt: skip
    ids=["sweep-csv", "measure"],
)
def test_no_openssl_where_no_hash_is_shown(tmp_path, argv):
    # In a fresh interpreter: this one has hashlib loaded already.
    code = (
        "import sys\n"
        "from hyperspin.cli import main\n"
        f"assert main({argv + ['--out', str(tmp_path / 'out')]!r}) == 0\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _metadata_built_eagerly(grid, measures, preset):
    """The metadata as ``run_sweep`` and ``run_preset`` built it when the grid
    was hashed before returning."""
    spec = grid.spec()
    grid_hash = hashlib.sha256(json.dumps(spec, sort_keys=True).encode("utf-8")).hexdigest()
    return {
        "preset": preset,
        "grid_hash": grid_hash[:12],
        "kernel_variant": KERNEL_VARIANT,
        "version": __version__,
        "measures": list(measures),
        "grid": spec,
    }


def test_metadata_read_late_is_the_eager_dict():
    grid = small_grid()
    m08 = figure_preset("m08")
    cases = (
        (run_sweep(grid), _metadata_built_eagerly(grid, MEASURE_NAMES, None)),
        (run_sweep(grid, ("gqd",)), _metadata_built_eagerly(grid, ("gqd",), None)),
        (run_preset("m08"), _metadata_built_eagerly(m08.grid, m08.measures, "m08")),
    )
    for result, want in cases:
        assert result.metadata == want
        assert list(result.metadata) == list(want)
        assert result.metadata is result.metadata
    assert run_preset("m08").metadata["grid_hash"] == "4562a2682cfd"
    given = {"preset": "x"}
    assert SweepResult([], given).metadata is given


# Patched layers that make the scalar path raise: a kernel above 1 (eta check),
# a kernel that raises, and a state whose anti-diagonal breaks the concurrence
# or Bloch-vector domain.
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


def _bogus_state_at(phi_bad, w, z, populations=(0.25, 0.25, 0.25, 0.25)):
    real = grid_module.density_matrix

    def patched(ch, phi):
        if phi != phi_bad:
            return real(ch, phi)
        return DensityMatrix4._of_entries(*populations, complex(w), complex(z))

    return patched


@pytest.mark.parametrize(
    ("layer", "patch", "message"),
    [
        (
            "memory_kernel",
            _kernel_above_one_at(1.0),
            "eta must be in [0, 1], got 1.44 "
            "[at channel=lambda, phi=0.0, mu=0.0, tau=0.1, time=1.0]",
        ),
        (
            "density_matrix",
            _bogus_state_at(HALF_PI, 0.9, 0.0),
            "concurrence must be in [0, 1], got 1.8 "
            "[at channel=lambda, phi=1.5707963267948966, mu=0.0, tau=0.1, time=0.0]",
        ),
        (
            "density_matrix",
            _bogus_state_at(HALF_PI, 0.45, 0.45),
            "Bloch component 1.8 outside [-1, 1] "
            "[at channel=lambda, phi=1.5707963267948966, mu=0.0, tau=0.1, time=0.0]",
        ),
        (
            # Outside through the populations alone: r33 = 1 - 2*(b + c).
            "density_matrix",
            _bogus_state_at(HALF_PI, 0.0, 0.0, (1.2, -0.1, -0.1, 0.0)),
            "Bloch component 1.4 outside [-1, 1] "
            "[at channel=lambda, phi=1.5707963267948966, mu=0.0, tau=0.1, time=0.0]",
        ),
        (
            # The kernel is evaluated per (tau, t): the first row there is named.
            "memory_kernel",
            _kernel_failing_at(1.0),
            "no kernel here [at channel=lambda, phi=0.0, mu=0.0, tau=0.1, time=1.0]",
        ),
    ],
)
def test_first_offending_row_is_reported(monkeypatch, layer, patch, message):
    monkeypatch.setattr(grid_module, layer, patch)
    with pytest.raises(DomainError) as info:
        run_sweep(small_grid())
    assert str(info.value) == message


def test_eta_error_precedes_later_state_error(monkeypatch):
    # Row 2 (phi=0, t=1) fails the eta check before any row of the bogus phi.
    monkeypatch.setattr(grid_module, "memory_kernel", _kernel_above_one_at(1.0))
    monkeypatch.setattr(grid_module, "density_matrix", _bogus_state_at(HALF_PI, 0.9, 0.0))
    with pytest.raises(DomainError, match=r"^eta must be .* phi=0\.0, mu=0\.0, .*time=1\.0\]$"):
        run_sweep(small_grid())


def test_row_flagged_but_accepted_by_the_scalar_path_is_an_error(monkeypatch):
    # A mask that disagrees with the scalar path is a bug, never a silent pass.
    real = sweep_module._dephased

    def flags_row_7(st, eta):
        *columns, bad = real(st, eta)
        assert not bad.any() and bad.size == 12
        bad[7] = True
        return *columns, bad

    monkeypatch.setattr(sweep_module, "_dephased", flags_row_7)
    with pytest.raises(HyperspinError) as info:
        run_sweep(small_grid())
    assert type(info.value) is HyperspinError
    assert str(info.value) == "sweep row 7 flagged as invalid, but the scalar path accepts it"


def test_sweep_oracle_suite_passes_and_detects_a_mismatch(monkeypatch):
    clean = _suite_sweep_oracle()
    assert clean.ok and clean.passed == 6120  # every row of the four sweeps
    real = grid_module.measure_all

    def skewed(rho, eta, kernel):
        return dataclasses.replace(real(rho, eta, kernel), gqd=0.5)

    # The seam that ``point_row``, the suite's scalar side, reads.
    monkeypatch.setattr(grid_module, "measure_all", skewed)
    suite = _suite_sweep_oracle()
    assert suite.passed == 0 and suite.failed > 0


def _no_evaluation(grid):
    raise AssertionError("the grid was evaluated")


def test_row_cap_rejects_before_allocating(monkeypatch):
    monkeypatch.setattr(sweep_module, "_evaluate", _no_evaluation)
    with pytest.raises(DomainError, match=r"time range has about 1e\+12 points"):
        run_sweep(SweepGrid("lambda", (1.0,), (0.5,), (0.1,), TimeGrid(0.0, 1e6, 1e-6)))
    # Every axis under the cap, their product over it: 181 * 101 * 1001 rows.
    phis = tuple(k * math.pi / 180.0 for k in range(181))
    mus = tuple(k / 100.0 for k in range(101))
    grid = SweepGrid("lambda", phis, mus, (0.1,), TimeGrid(0.0, 10.0, 0.01))
    with pytest.raises(DomainError, match="grid has 18299281 rows, more than MAX_ROWS"):
        run_sweep(grid)


def test_row_cap_is_the_module_constant(monkeypatch):
    assert grid_module.MAX_ROWS >= 10 * len(figure_preset("h2b").grid)
    monkeypatch.setattr(grid_module, "MAX_ROWS", 10)
    assert len(TimeGrid(0.0, 9.0, 1.0)) == 10
    with pytest.raises(DomainError, match="MAX_ROWS = 10"):
        TimeGrid(0.0, 10.0, 1.0)
    with pytest.raises(DomainError, match="grid has 20 rows"):
        run_sweep(SweepGrid("lambda", (0.5, 1.0), (0.5,), (0.1,), TimeGrid(0.0, 9.0, 1.0)))
    assert len(run_sweep(SweepGrid("lambda", (0.5,), (0.5,), (0.1,), TimeGrid(0.0, 9.0, 1.0)))) == 10
