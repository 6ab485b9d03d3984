"""Grid evaluation of the measures and deterministic serialization.

A sweep covers the Cartesian grid (channel, phi, mu, tau, time) in
lexicographic order, which is the C order of a ``(phi, mu, tau, time)``
array.  Every value of a row is an elementwise function of two things: the
X-state entries of the production state ``rho0(phi)``, and the survival
factor ``eta(mu, tau, t)``, whose kernel part depends on ``(tau, t)`` only.
``run_sweep`` therefore keeps the six X entries of each state per phi
and one kernel value per ``(tau, t)``, and checks every row before it
returns.  Nothing else is held for the whole grid: checking, reading or
emitting the rows derives the Bloch components, eta and the measures, as
``measure_all`` does per point, as numpy columns over a bounded chunk of
rows, so memory depends on the chunk size and not on the number of rows.
A chunk is the numpy batch; a slice of ``_SLICE_ROWS`` of its rows is the
unit of text: its values are converted to Python objects, its lines joined
and encoded and its bytes written one slice at a time, so no process holds
a whole chunk's text.  Text becomes UTF-8 in ``_Format.render`` alone, and
every byte, of an output or of a worker's frames, is written by
``hyperspin.grid._to_sink``.
Rendering formats each string that repeats once where it can: the
``channel, phi, mu, tau, regime`` prefix once per series in a chunk, and
``time, kernel, eta`` once per run of chunks that cover the same ``(mu,
tau, t)`` points, so a phi sweep renders its time axis once.  CSV and JSON
are rendered the same way, from one ``%`` template per column group.

The grid types, the column table, ``MAX_ROWS`` and ``point_row``, the
scalar row path that ``hyperspin measure`` prints and that also raises the
engine's errors, live in ``hyperspin.grid``, so one point loads nothing of
this module; the figure presets live in ``hyperspin.presets``, which
``run_preset`` reads.  Importing this module loads numpy; ``hyperspin``
imports it only when one of the engine's names (``run_sweep``,
``run_preset``, ``emit``, ``SweepResult``) is first read, and ``hyperspin
sweep`` only once every flag, the preset id included, is checked.

The engine runs the scalar path's own formulas, measure sequence and
domain checks: the predicates that ``dephase`` and ``measure_all`` run on
floats, and the ``_measure_values`` that ``measure_all`` calls, here on
numpy columns.  So the columns equal the scalar path bit for bit,
which the test suite and ``hyperspin check`` verify row by row, and the
engine rejects exactly the rows that ``point_row`` rejects.

The ``hyperspin sweep`` command renders in two forked workers and merges
their text in a parent that renders nothing.  Once ``run_sweep`` has built
and checked the columns, it forks two identical workers on Linux if the
rows take more than one chunk.  Worker ``k`` evaluates and renders chunks
``k``, ``k + 2``, ...; ``_to_sink`` writes each slice's bytes into an
unbuffered pipe of its own as one length-prefixed frame, and an empty
frame at each chunk's end.  The parent hands the frames, chunk by chunk
from the two pipes in turn, to the writer of ``emit``, which reads worker
0's first frame before it opens the sink, so a failure in the first rows
leaves a file as it was, and the bytes and the byte count are those of
``emit``.  The parent holds the columns, the metadata and one
frame at a time; each worker holds its chunk's columns and one slice of
text besides the pages it shares with the parent.  As the parent renders
nothing, the peak of the command is its footprint at the fork.  Each pipe
is asked to hold 1 MiB, about a chunk's text, so a worker can run a chunk
ahead of the writes with that text in the pipe and not in any process.
Where that size is refused, the default 64 KiB pipe works with the same
bytes; it stalls the workers sooner.  A failure in any of the three
processes kills and reaps both workers and ends as one error.  Library
``emit`` renders in the caller's process and never forks, and neither does
a sweep of one chunk.
"""

from __future__ import annotations

import functools
import json
import math
import os
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import (
    IO,
    Any,
    Callable,
    Iterable,
    Iterator,
    NoReturn,
    Sequence,
)

import numpy as np

from . import grid as grid_module
from ._version import __version__
from .channel import ChannelConfig, _eta_outside, _survival
from .errors import DomainError, HyperspinError
from .grid import (
    COLUMN_NAMES,
    COLUMNS,
    CSV_HEADER,
    FLOAT_FORMAT,
    SweepGrid,
    SweepRow,
    TimeGrid,
    _csv_fields,
    _kernel_at,
    _to_sink,
    point_row,
)
from .measures import (
    STEERING_CLASSES,
    MeasureRecord,
    SteeringClass,
    SteeringResult,
    _anti_diagonal_bloch,
    _bloch_outside,
    _concurrence,
    _concurrence_outside,
    _diagonal_bloch,
    _measure_values,
    _Ops,
    _steering_bounds,
)
from .production import DensityMatrix4, channel_params
from .presets import MEASURE_NAMES, figure_preset

KERNEL_VARIANT = "telegraph-paired-cos-sin/cosh-sinh-u-over-v"

# Column groups: fixed per (phi, mu, tau) series, fixed per (mu, tau, time)
# point, and the measures, which vary per row.
_SERIES_COLUMNS = COLUMNS[:5]
_POINT_COLUMNS = COLUMNS[5:8]
_MEASURE_COLUMNS = COLUMNS[8:]


def _json_fields(columns: Sequence[tuple[str, type]]) -> str:
    """Members of a record as ``json.dumps(..., indent=1)`` lays out a record
    of the ``records`` array, each value a ``%s`` for its JSON rendering."""
    return "".join(f"\n   {json.dumps(name)}: %s," for name, _ in columns)


#: Rows evaluated per chunk, the numpy batch: a chunk's measure columns are
#: held while its slices are rendered, and its series and point strings are
#: made once for all of them.  The ``wait4`` peak RSS in MB of ``hyperspin
#: sweep`` rendered by two workers, then its median wall seconds, with
#: 256-row slices (``scripts/cli_footprint.py --against``: each other size
#: in 5 rounds alternating with 2,048, whose row is the median of those
#: three runs; a shared 2-core x86-64 VM, Python 3.11, numpy 2.4):
#:
#:     rows    h1a CSV      h1a JSON     h2b CSV      h2b JSON
#:     512     29.33  0.57  32.97  0.90  29.33  1.74  32.98  5.06
#:     1,024   29.46  0.49  32.96  0.86  29.43  1.86  32.97  5.05
#:     2,048   29.41  0.43  32.97  0.84  29.40  1.69  32.96  4.85
#:     4,096   29.98  0.44  33.52  0.91  29.79  1.68  32.99  4.93
#:
#: 2,048 is the fastest in its rounds on all four but h2b CSV (4,096 by
#: 0.01 s) and peaks within 0.1 MB of 512.  A chunk renders its ``time,
#: kernel, eta`` strings only when they are not those of the chunk its
#: process rendered before, so small chunks cost a phi sweep little.
_CHUNK_ROWS = 1 << 11

#: Rows per slice, the unit of text: a slice's values are converted to
#: Python objects, its lines joined, and its text written, or sent from a
#: worker of ``hyperspin sweep`` as one frame, before the next slice is made.
#: Measured as for ``_CHUNK_ROWS``, with 2,048-row chunks; no size is the
#: fastest on all four, and larger slices peak higher as JSON:
#:
#:     rows    h1a CSV      h1a JSON     h2b CSV      h2b JSON
#:     128     29.34  0.48  32.92  0.84  29.40  1.90  32.91  5.46
#:     256     29.38  0.47  33.02  0.90  29.39  1.74  32.93  4.83
#:     512     29.40  0.43  33.14  0.87  29.37  1.70  33.18  5.20
#:     1,024   29.48  0.50  33.46  0.85  29.49  1.80  33.68  5.69
_SLICE_ROWS = 1 << 8


def _row_of(values: Sequence[Any]) -> SweepRow:
    """Inverse of ``SweepRow.values``."""
    v = dict(zip(COLUMN_NAMES, values))
    steering = SteeringResult(
        v["s_ab"], v["s_ba"], v["delta_s"], SteeringClass(v["steering_class"])
    )
    record = MeasureRecord(
        steering, v["concurrence"], v["eof"], v["gqd"], v["coherence_l1"],
        eta=v["eta"], kernel=v["kernel"],
    )  # fmt: skip
    return SweepRow(v["channel"], v["phi"], v["mu"], v["tau"], v["regime"], v["time"], record)


#: The X entries of a production state that ``_state_constants`` keeps per
#: phi: the populations and the anti-diagonal, which is real.
_STATE_FIELDS = ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23")


def _state_constants(states: Iterable[DensityMatrix4], count: int) -> dict[str, np.ndarray]:
    """The ``_STATE_FIELDS`` of ``count`` states, filled straight into one
    ``(count, 6)`` float64 block, as its six column views: 48 bytes per phi.
    Everything else the measures take from a state is derived per chunk.
    """
    entries = (
        (rho.rho11, rho.rho22, rho.rho33, rho.rho44, rho.rho14.real, rho.rho23.real)
        for rho in states
    )
    block = np.fromiter(entries, np.dtype((np.float64, len(_STATE_FIELDS))), count)
    return dict(zip(_STATE_FIELDS, block.T))


def _dephased(st: dict[str, np.ndarray], eta: np.ndarray) -> tuple:
    """The part of ``measure_all(dephase(rho0, eta), ...)`` that decides
    whether a row is valid, as columns over a chunk of rows.

    ``st`` holds the entries of each row's state.  Returns the moduli
    ``|w|``, ``|z|`` of the dephased anti-diagonal, the concurrence, the
    Fano-Bloch components ``(r11, r22, r33, r03, r30)``, and a mask of the
    rows on which ``dephase`` or ``measure_all`` would raise: the domain
    predicates those functions run on floats, here run on the columns.
    """
    w = st["rho14"] * eta
    z = st["rho23"] * eta
    w_abs = abs(w)
    z_abs = abs(z)
    conc = _concurrence(w_abs, z_abs)
    populations = st["rho11"], st["rho22"], st["rho33"], st["rho44"]
    bloch = (*_anti_diagonal_bloch(w, z), *_diagonal_bloch(*populations))
    bad = _eta_outside(eta) | _concurrence_outside(conc) | _bloch_outside(*bloch)
    return w_abs, z_abs, conc, bloch, bad


def _measure_chunk(st: dict[str, np.ndarray], eta: np.ndarray) -> tuple[np.ndarray, ...]:
    """``measure_all(dephase(rho0, eta), ...)`` as columns over a chunk of
    rows that ``_dephased`` accepts, in ``_MEASURE_COLUMNS`` order: the
    composition ``measure_all`` runs, ``_steering_bounds`` and
    ``_measure_values``, here on numpy columns with libm ``log2`` per
    element (numpy's SIMD ``log2`` differs from it in the last ulp on some
    inputs).  The steering class is its code, an index into
    ``STEERING_CLASSES``.
    """
    ops = _Ops(np.where, np.sqrt, lambda x: np.array(list(map(math.log2, x.tolist()))))
    w_abs, z_abs, conc, (r11, r22, r33, _, r30), _ = _dephased(st, eta)
    bounds = _steering_bounds(st["rho11"], st["rho22"], st["rho33"], st["rho44"])
    return _measure_values(w_abs, z_abs, conc, bounds, r11, r22, r33, r30, ops)


#: A chunk of consecutive rows: the distinct series it covers (one list per
#: series column), each row's index into them, the distinct points likewise,
#: and one numpy array per measure column.  A chunk that covers the same
#: points as the chunk before carries the very same point lists, so a
#: renderer may reuse what it made of them.
_Chunk = tuple[list[Sequence], np.ndarray, list[Sequence], np.ndarray, list[np.ndarray]]


@dataclass(frozen=True)
class _Columns:
    """What a sweep's rows are computed from; row ``r`` is grid point ``r`` in
    the C order of ``(phi, mu, tau, time)``.  Eta is computed a chunk at a
    time from ``mu`` and ``kernel``; nothing is held per point."""

    grid: SweepGrid
    #: Regime label per tau.
    regimes: list[str]
    times: np.ndarray
    mu: np.ndarray
    #: Per (tau, time), flattened.
    kernel: np.ndarray
    #: The ``_state_constants``: six entry columns, one row per phi.
    states: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.grid)

    def _inputs(
        self, start: int = 0, stride: int = 1
    ) -> Iterator[tuple[np.ndarray, np.ndarray, dict, np.ndarray]]:
        """Per chunk of rows, from chunk ``start`` on in steps of ``stride``
        chunks: the row indices, and each row's ``(mu, tau, time)`` point
        index, state entries and eta."""
        for first in range(start * _CHUNK_ROWS, len(self), stride * _CHUNK_ROWS):
            rows = np.arange(first, min(first + _CHUNK_ROWS, len(self)))
            i_state, i_point = np.divmod(rows, self.mu.size * self.kernel.size)
            i_mu, i_kernel = np.divmod(i_point, self.kernel.size)
            states = {name: col[i_state] for name, col in self.states.items()}
            yield rows, i_point, states, _survival(self.kernel[i_kernel], self.mu[i_mu])

    def check(self) -> None:
        """Raise the scalar path's error at the first row it would reject."""
        for rows, _, states, eta in self._inputs():
            bad = _dephased(states, eta)[-1]
            if bad.any():
                self._raise_at(int(rows[bad.argmax()]))

    def chunks(self, start: int = 0, stride: int = 1) -> Iterator[_Chunk]:
        """The rows, with their measures evaluated, a chunk at a time: every
        ``stride``-th chunk from chunk ``start`` on."""
        g = self.grid
        class_names = np.array([c.value for c in STEERING_CLASSES], dtype=object)
        n_tau = len(g.tau)
        points = point_columns = None
        for rows, i_point, states, eta in self._inputs(start, stride):
            measures = _measure_chunk(states, eta)
            series, series_of_row = np.unique(rows // self.times.size, return_inverse=True)
            chunk_points, first, point_of_row = np.unique(
                i_point, return_index=True, return_inverse=True
            )
            i_phi, i_mu_tau = np.divmod(series, len(g.mu) * n_tau)
            i_mu, i_tau = np.divmod(i_mu_tau, n_tau)
            series_columns = [
                [g.channel] * series.size,
                _pick(g.phi, i_phi),
                _pick(g.mu, i_mu),
                _pick(g.tau, i_tau),
                _pick(self.regimes, i_tau),
            ]
            # A point's values depend on its index alone, so a chunk with the
            # points of the chunk before hands on the same lists.
            if points is None or not np.array_equal(chunk_points, points):
                points = chunk_points
                point_columns = [
                    self.times[points % self.times.size].tolist(),
                    self.kernel[points % self.kernel.size].tolist(),
                    eta[first].tolist(),
                ]
            measure_columns = [
                class_names[column] if name == "steering_class" else column
                for (name, _), column in zip(_MEASURE_COLUMNS, measures)
            ]
            yield series_columns, series_of_row, point_columns, point_of_row, measure_columns

    def _raise_at(self, row: int) -> NoReturn:
        """Raise the error of the scalar path at a row ``check`` flagged:
        ``point_row`` of the one-point grid at that row's coordinates."""
        g = self.grid
        i_phi, i_mu, i_tau, i_time = np.unravel_index(
            row, (len(g.phi), len(g.mu), len(g.tau), self.times.size)
        )
        t = float(self.times[i_time])
        time = TimeGrid(t, t, 1.0)
        point_row(SweepGrid(g.channel, (g.phi[i_phi],), (g.mu[i_mu],), (g.tau[i_tau],), time))
        raise HyperspinError(f"sweep row {row} flagged as invalid, but the scalar path accepts it")


def _pick(values: Sequence[Any], index: np.ndarray) -> list:
    return list(map(values.__getitem__, index.tolist()))


def _row_chunks(rows: Sequence[SweepRow]) -> Iterator[_Chunk]:
    """Explicit rows as chunks: every row is its own series and point."""
    for start in range(0, len(rows), _CHUNK_ROWS):
        columns = list(zip(*(row.values() for row in rows[start : start + _CHUNK_ROWS])))
        each = np.arange(len(columns[0]))
        measures = [np.fromiter(c, dtype=object, count=len(c)) for c in columns[8:]]
        yield columns[:5], each, columns[5:8], each, measures


def _chunk_values(chunks: Iterable[_Chunk]) -> Iterator[tuple]:
    """Every row's values in ``COLUMNS`` order."""
    for series, series_of_row, points, point_of_row, measures in chunks:
        series_rows, point_rows = list(zip(*series)), list(zip(*points))
        measure_rows = zip(*(column.tolist() for column in measures))
        for s, p, m in zip(series_of_row.tolist(), point_of_row.tolist(), measure_rows):
            yield series_rows[s] + point_rows[p] + m


def _json_values(kind: type, values: Sequence[Any]) -> Sequence[Any]:
    """A column as ``json.dumps`` writes its values; floats are rounded
    through their 12-digit rendering first, as in ``SweepRow.as_dict``."""
    if kind is not float:
        return list(map(_json_string, values))
    rounded = list(map(float, map(FLOAT_FORMAT.__mod__, values)))
    # ``str`` of a finite float is its JSON form; json spells inf and nan apart.
    if math.isfinite(sum(rounded)):
        return rounded
    return list(map(json.dumps, rounded))


#: ``json.dumps`` of a string column value; a column holds few distinct ones.
_json_string = functools.lru_cache(maxsize=256)(json.dumps)


@dataclass(frozen=True)
class _Format:
    """How one output format renders a chunk: a ``%`` template per column
    group, filled with each column's values as ``convert`` gives them."""

    series: str
    point: str
    #: Takes a row's rendered series and point, then its measures.
    line: str
    convert: Callable[[type, Sequence[Any]], Sequence[Any]]

    def _converted(self, columns: Sequence[tuple[str, type]], values: list) -> list:
        return [self.convert(kind, v) for (_, kind), v in zip(columns, values)]

    def _fill(
        self, template: str, columns: Sequence[tuple[str, type]], values: list
    ) -> np.ndarray:
        filled = map(template.__mod__, zip(*self._converted(columns, values)))
        return np.array(list(filled), dtype=object)

    def render(self, chunks: Iterable[_Chunk]) -> Iterator[bytes]:
        """Each chunk's rows as UTF-8, ``_SLICE_ROWS`` rows at a time, and
        then ``b""``, which ends the chunk.  Each series is rendered
        once per chunk, and each block of points once per run of chunks that
        carry the same point lists."""
        points = rendered = None
        for series, series_of_row, chunk_points, point_of_row, measures in chunks:
            prefixes = self._fill(self.series, _SERIES_COLUMNS, series)[series_of_row]
            if chunk_points is not points:
                points = chunk_points
                rendered = self._fill(self.point, _POINT_COLUMNS, points)
            middles = rendered[point_of_row]
            for first in range(0, len(series_of_row), _SLICE_ROWS):
                part = slice(first, first + _SLICE_ROWS)
                values = [column[part].tolist() for column in measures]
                lines = zip(
                    prefixes[part].tolist(),
                    middles[part].tolist(),
                    *self._converted(_MEASURE_COLUMNS, values),
                )
                yield "".join(map(self.line.__mod__, lines)).encode("utf-8")
            yield b""


_CSV = _Format(
    _csv_fields(_SERIES_COLUMNS),
    _csv_fields(_POINT_COLUMNS),
    "%s,%s," + _csv_fields(_MEASURE_COLUMNS) + "\n",
    lambda kind, values: values,
)
# Every JSON record starts with the "," that separates it from the one before.
_JSON = _Format(
    "\n  {" + _json_fields(_SERIES_COLUMNS),
    _json_fields(_POINT_COLUMNS),
    ",%s%s" + _json_fields(_MEASURE_COLUMNS)[:-1] + "\n  }",
    _json_values,
)
_FORMATS = {"csv": _CSV, "json": _JSON}


def _evaluate(grid: SweepGrid) -> _Columns:
    """Build the per-phi, per-(tau, t) and per-point inputs of every row and
    check every row, raising like the scalar path.

    A row on which ``dephase`` or ``measure_all`` would raise is re-run by
    ``point_row`` to raise its error, extended by the row's coordinates; the
    first such row in grid order is the one reported.
    """
    ch = channel_params(grid.channel)
    # One state at a time: only its six entries are kept.  Looked up in
    # ``grid``, where ``point_row`` looks it up.
    states = (grid_module.density_matrix(ch, p) for p in grid.phi)
    constants = _state_constants(states, len(grid.phi))
    start, step, n_times = grid.time.start, grid.time.step, len(grid.time)
    # ``start + k * step``, as ``TimeGrid.values`` gives it, built in place:
    # only the arrays kept are allocated, and no list of floats.
    times = np.arange(n_times, dtype=np.float64)
    times *= step
    times += start
    configs = [ChannelConfig(mu=grid.mu[0], tau=tau) for tau in grid.tau]
    kernel = np.fromiter(
        (_kernel_at(grid, cfg, start + k * step) for cfg in configs for k in range(n_times)),
        np.float64,
        len(configs) * n_times,
    )
    regimes = [cfg.regime.value for cfg in configs]
    columns = _Columns(grid, regimes, times, np.array(grid.mu), kernel, constants)
    columns.check()
    return columns


class SweepResult:
    """The rows of a sweep and its metadata.

    ``run_sweep`` keeps only what the rows are computed from; reading
    ``rows`` (built on first access) or emitting evaluates the measures a
    chunk of rows at a time, and ``metadata`` is built on first read.  A
    result built from explicit rows keeps the metadata it is given and
    renders through the same chunks.
    """

    def __init__(self, rows: Iterable[SweepRow], metadata: dict[str, Any]) -> None:
        self._rows: list[SweepRow] | None = list(rows)
        self._columns: _Columns | None = None
        # Stored on the instance, so the lazy ``metadata`` below never runs.
        self.metadata = metadata

    @classmethod
    def _of_columns(
        cls, columns: _Columns, measures: tuple[str, ...], preset: str | None
    ) -> SweepResult:
        result = cls.__new__(cls)
        result._rows, result._columns = None, columns
        result._stamp = preset, measures
        return result

    @functools.cached_property
    def metadata(self) -> dict[str, Any]:
        """Built on first read for a computed result: the grid hash needs
        ``hashlib``, which loads OpenSSL, and only JSON output shows it."""
        import hashlib

        preset, measures = self._stamp
        spec = self._columns.grid.spec()
        grid_hash = hashlib.sha256(
            json.dumps(spec, sort_keys=True).encode("utf-8")
        ).hexdigest()[:12]
        return {
            "preset": preset,
            "grid_hash": grid_hash,
            "kernel_variant": KERNEL_VARIANT,
            "version": __version__,
            "measures": list(measures),
            "grid": spec,
        }

    @property
    def rows(self) -> list[SweepRow]:
        if self._rows is None:
            self._rows = [_row_of(v) for v in _chunk_values(self._chunks())]
        return self._rows

    def __len__(self) -> int:
        return len(self._rows) if self._rows is not None else len(self._columns)

    def _chunks(self) -> Iterator[_Chunk]:
        if self._columns is not None:
            return self._columns.chunks()
        return _row_chunks(self._rows)


def run_sweep(
    grid: SweepGrid,
    measures: Sequence[str] | None = None,
    workers: int | None = None,
) -> SweepResult:
    """Evaluate every grid point, in lexicographic grid order.

    ``measures`` is a selector recorded in the metadata; every row always
    carries all measure fields (they share almost all of their arithmetic).
    ``workers`` must be an integer >= 1 and changes nothing: the result is
    evaluated in the caller's process, and only the ``sweep`` command
    renders in forked workers (see the module docstring).  It stays only because
    ``perfbench/run.py`` passes it, and goes with the next change to the
    benchmark.
    """
    return _run(grid, measures, workers, None)


def _run(
    grid: SweepGrid,
    measures: Sequence[str] | None,
    workers: int | None,
    preset: str | None,
) -> SweepResult:
    if not isinstance(grid, SweepGrid):
        raise DomainError(f"grid must be a SweepGrid, got {grid!r}; run_preset runs a preset id")
    if isinstance(measures, str):
        raise DomainError(f"measures must be a sequence of names, got the string {measures!r}")
    try:
        selected = tuple(measures) if measures is not None else MEASURE_NAMES
    except TypeError:
        raise DomainError(f"measures must be a sequence of names, got {measures!r}") from None
    for name in selected:
        if name not in MEASURE_NAMES:
            raise DomainError(f"unknown measure {name!r}; known: {MEASURE_NAMES}")
    if workers is not None and not (isinstance(workers, int) and workers >= 1):
        raise DomainError(f"workers must be an integer >= 1, got {workers!r}")
    grid_module._check_rows(len(grid))
    return SweepResult._of_columns(_evaluate(grid), selected, preset)


def run_preset(preset_id: str, workers: int | None = None) -> SweepResult:
    """Run a figure preset and stamp its id into the metadata."""
    preset = figure_preset(preset_id)
    return _run(preset.grid, preset.measures, workers, preset.preset_id)


def emit(result: SweepResult, fmt: str, sink: str | Path | IO[str] | IO[bytes]) -> int:
    """Serialize a sweep result as CSV or JSON to ``sink``, a path, a text
    stream or a binary stream; returns bytes written.

    CSV: fixed header, one line per row, '\\n' newlines, floats with 12
    significant digits.  JSON: the bytes of ``json.dumps(..., indent=1)`` of
    an object with ``metadata`` and a ``records`` array of flat objects
    carrying the same field names as the CSV columns, floats rounded to 12
    significant digits.  Either way the rows are evaluated a chunk at a
    time, and rendered and written a slice at a time, in this process.
    """
    return _emit(result, fmt, sink, split=False)


def _emit(result: SweepResult, fmt: str, sink: str | Path | IO, split: bool) -> int:
    """``emit``; with ``split``, on Linux, a computed result of two or more
    chunks is rendered by two forked workers, and this process only merges
    their text.  The bytes written and the count returned are the same
    either way."""
    try:
        form = _FORMATS[fmt]
    except (KeyError, TypeError):
        raise DomainError(f"format must be 'csv' or 'json', got {fmt!r}") from None
    columns = result._columns
    if split and sys.platform == "linux" and columns is not None and len(columns) > _CHUNK_ROWS:
        return _emit_from_workers(result, fmt, sink, form, columns)
    return _to_sink(sink, _document(result, fmt, form.render(result._chunks())))


def _document(result: SweepResult, fmt: str, records: Iterator[bytes]) -> Iterator[bytes]:
    """The document as UTF-8: the text before the records, the records'
    slices, and the text after them; no slice is kept once handed on.

    The head is made with the first slice, rendered or read from worker 0,
    and ``_to_sink`` makes it before it opens a sink file, so a failure in
    the metadata or the first rows leaves the file as it was.
    """
    first = next(records, None)
    head, tail = CSV_HEADER + "\n", ""
    if fmt == "json":
        head = json.dumps({"metadata": result.metadata, "records": []}, indent=1) + "\n"
        if first is not None:
            # "records" is the last member, so its "[]" is the last one in the text.
            head, _, tail = head.rpartition("[]")
            head, tail = head + "[", "\n ]" + tail
            # The first record has no record before it to be separated from.
            first = first[1:]
    yield head.encode("utf-8")
    if first is not None:
        yield first
        del first
    yield from records
    yield tail.encode("utf-8")


def _emit_from_workers(
    result: SweepResult, fmt: str, sink: str | Path | IO, form: _Format, columns: _Columns
) -> int:
    """``_emit`` of ``columns`` rendered by two forked workers.

    Worker ``k`` renders chunks ``k``, ``k + 2``, ... and sends their slices
    through a pipe of its own.  This process renders nothing: it reads the
    frames chunk by chunk, from the two pipes in turn, and writes them to
    the sink.  Any failure kills both workers; both are always reaped.
    """
    # Unix-only, so imported here: ``emit`` must import on every platform.
    import fcntl

    # Nothing buffered for the output streams is copied into a worker.  A
    # stream is None where the process started with its descriptor closed.
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    pids: list[int] = []
    pipes: list[IO[bytes]] = []
    try:
        for first in range(2):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                try:
                    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
                except OSError:
                    # Refused past the system's limit; the default pipe works, slower.
                    pass
                pid = os.fork()
                if pid == 0:
                    _render_worker(form, columns, first, write_fd, pipes)
            finally:
                # Held by its worker alone, so the pipe ends when the worker does.
                os.close(write_fd)
            pids.append(pid)
        n_chunks = (len(columns) - 1) // _CHUNK_ROWS + 1
        nbytes = _to_sink(sink, _document(result, fmt, _interleaved(pipes, n_chunks)))
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for status in statuses:
        if status != 0:
            code = os.waitstatus_to_exitcode(status)
            raise HyperspinError(f"the render process exited with status {code}")
    return nbytes


#: A frame is the size of the text that follows, in this many bytes, signed
#: little-endian; a negative size is that of an error message instead.
_FRAME_HEADER = 8

#: The size asked for each worker's pipe: it holds a chunk's text (about
#: 320 kB as CSV, 800 kB as JSON), so a worker can run a chunk ahead with
#: that text in the pipe and not in any process.  Linux lets any user ask
#: for 1 MiB by default.
_PIPE_BYTES = 1 << 20


def _render_worker(
    form: _Format, columns: _Columns, first: int, write_fd: int, inherited: list[IO[bytes]]
) -> NoReturn:
    """A forked worker: ``_to_sink`` writes each slice of text of chunks
    ``first``, ``first + 2``, ... of ``columns`` as a frame into ``write_fd``,
    unbuffered, with an empty frame at each chunk's end, or the message of
    the error that stopped it.  ``inherited`` are the parent's read ends."""
    status = 1
    try:
        for pipe in inherited:
            pipe.close()
        out = open(write_fd, "wb", buffering=0)
        try:
            # ``map`` holds no slice while the next one is made.
            _to_sink(out, map(_framed, form.render(columns.chunks(first, 2))))
            status = 0
        except Exception as exc:
            _to_sink(out, [_framed(f"{type(exc).__name__}: {exc}".encode("utf-8"), -1)])
    finally:
        # Never return into the caller's code: its ``finally`` blocks,
        # ``atexit`` handlers and open files belong to the parent.
        os._exit(status)


def _framed(data: bytes, sign: int = 1) -> bytes:
    """``data`` as a frame: text, or with ``sign`` -1 an error message."""
    return (sign * len(data)).to_bytes(_FRAME_HEADER, "little", signed=True) + data


def _frame(pipe: IO[bytes]) -> bytes:
    """The text, as UTF-8, of the next frame that a worker sends."""
    header = pipe.read(_FRAME_HEADER)
    size = int.from_bytes(header, "little", signed=True)
    data = pipe.read(abs(size))
    if len(header) < _FRAME_HEADER or len(data) < abs(size):
        raise HyperspinError("the render process ended before sending all rows")
    if size < 0:
        raise HyperspinError(f"the render process failed: {data.decode('utf-8')}")
    return data


def _interleaved(pipes: Sequence[IO[bytes]], n_chunks: int) -> Iterator[bytes]:
    """The frames of ``n_chunks`` chunks in order, chunk ``c`` read from
    ``pipes[c % 2]`` up to its empty frame, which is not handed on."""
    for chunk in range(n_chunks):
        yield from iter(functools.partial(_frame, pipes[chunk % 2]), b"")
