"""Grid evaluation of the measures and deterministic serialization.

A sweep covers the Cartesian grid (channel, phi, mu, tau, time) in
lexicographic order, which is the C order of a ``(phi, mu, tau, time)``
array.  Every value of a row is an elementwise function of two things: the
X-state entries of the production state ``rho0(phi)``, and the survival
factor ``eta(mu, tau, t)``, whose kernel part depends on ``(tau, t)`` only.
The engine therefore builds one state per phi, one kernel value per
``(tau, t)`` and one eta per ``(mu, tau, t)``, and evaluates the measures as
numpy columns over consecutive rows, a bounded chunk of rows at a time.
Rendering works from the same columns and formats the strings that repeat
once: the ``channel, phi, mu, tau, regime`` prefix per series and
``time, kernel, eta`` per ``(mu, tau, t)``.

The columns equal the scalar path (``dephase`` then ``measure_all``) bit for
bit, which the test suite and ``hyperspin check`` verify row by row.  Three
rules keep them so:

* transcendental functions run per element on ``math``: numpy's SIMD
  ``exp`` and ``log2`` differ from libm in the last ulp on some inputs;
* squares use Python's ``**`` (libm ``pow``), which is not always ``x * x``;
* Python's ``max`` and ``min`` become ``_pymax`` and ``_pymin``, which make
  the same choice between signed zeros, so a ``-0`` renders where it did.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from ._version import __version__
from .channel import PROB_ATOL, ChannelConfig, dephase, memory_kernel
from .errors import DomainError, HyperspinError, UnknownPresetError
from .measures import (
    DOMAIN_ATOL,
    GQD_DENOMINATOR_ATOL,
    SQRT3,
    MeasureRecord,
    SteeringClass,
    SteeringResult,
    _steering_bounds,
    measure_all,
)
from .production import PHI_ATOL, DensityMatrix4, channel_params, density_matrix

KERNEL_VARIANT = "telegraph-paired-cos-sin/cosh-sinh-u-over-v"

FLOAT_FORMAT = "%.12g"

#: The output columns in order, each with its kind: ``float`` columns render
#: with 12 significant digits, ``str`` columns verbatim.  CSV_HEADER, the row
#: formats and ``SweepRow.as_dict`` all derive from this table.
COLUMNS: tuple[tuple[str, type], ...] = (
    ("channel", str),
    ("phi", float),
    ("mu", float),
    ("tau", float),
    ("regime", str),
    ("time", float),
    ("kernel", float),
    ("eta", float),
    ("s_ab", float),
    ("s_ba", float),
    ("delta_s", float),
    ("steering_class", str),
    ("concurrence", float),
    ("eof", float),
    ("gqd", float),
    ("coherence_l1", float),
)
COLUMN_NAMES = tuple(name for name, _ in COLUMNS)
CSV_HEADER = ",".join(COLUMN_NAMES)

# Column groups: fixed per (phi, mu, tau) series, fixed per (mu, tau, time)
# point, and the measures, which vary per row.
_SERIES_COLUMNS = COLUMNS[:5]
_POINT_COLUMNS = COLUMNS[5:8]
_MEASURE_COLUMNS = COLUMNS[8:]


def _format_of(columns: Sequence[tuple[str, type]]) -> str:
    return ",".join(FLOAT_FORMAT if kind is float else "%s" for _, kind in columns)


_ROW_FORMAT = _format_of(COLUMNS)
_SERIES_FORMAT = _format_of(_SERIES_COLUMNS)
_POINT_FORMAT = _format_of(_POINT_COLUMNS)
_COLUMNAR_LINE_FORMAT = "%s,%s," + _format_of(_MEASURE_COLUMNS) + "\n"

MEASURE_NAMES = ("steering", "eof", "gqd", "coherence_l1")

#: Rows evaluated and rendered per chunk; bounds the numpy temporaries.
_CHUNK_ROWS = 1 << 14

#: Most points one axis may have and most rows one sweep may have, checked
#: before anything is allocated: about 20x the largest preset (h2b, 505,101
#: rows).  At the cap the measure columns alone take 570 MB (57 bytes per
#: row).  Change it by assigning ``hyperspin.sweep.MAX_ROWS``.
MAX_ROWS = 10_000_000

#: Steering classes indexed by the code ``(s_ab > 0) + 2 * (s_ba > 0)``.
_STEERING_CLASSES = (
    SteeringClass.NO_WAY,
    SteeringClass.ONE_WAY_AB,
    SteeringClass.ONE_WAY_BA,
    SteeringClass.TWO_WAY,
)
_CLASS_NAMES = np.array([c.value for c in _STEERING_CLASSES], dtype=object)


def check_range(axis: str, start: float, stop: float, step: float) -> int:
    """Validate the progression ``start, start + step, ...`` up to ``stop`` of
    the named axis and return its number of points.

    Raises
    ------
    DomainError
        If a bound is not finite, ``step <= 0`` or ``stop < start``; the
        message names ``axis``.
    """
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise DomainError(f"{axis} {name} must be finite, got {value}")
    if step <= 0.0:
        raise DomainError(f"{axis} step must be > 0, got {step}")
    if stop < start:
        raise DomainError(f"{axis} stop must be >= start")
    # Compared as a float first: the quotient may be too large (or inf) for int.
    steps = (stop - start) / step + 1e-9
    if steps >= MAX_ROWS:
        raise DomainError(
            f"{axis} range has about {steps + 1:.3g} points, more than MAX_ROWS = {MAX_ROWS}"
        )
    return int(math.floor(steps)) + 1


@dataclass(frozen=True)
class TimeGrid:
    """Arithmetic time progression [start, stop] with the given step."""

    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        check_range("time", self.start, self.stop, self.step)
        if self.start < 0.0:
            raise DomainError("time start must be >= 0")

    def __len__(self) -> int:
        return check_range("time", self.start, self.stop, self.step)

    def values(self) -> list[float]:
        return [self.start + k * self.step for k in range(len(self))]


@dataclass(frozen=True)
class SweepGrid:
    """One channel swept over lists of phi, mu, tau and a time progression."""

    channel: str
    phi: tuple[float, ...]
    mu: tuple[float, ...]
    tau: tuple[float, ...]
    time: TimeGrid

    def __post_init__(self) -> None:
        channel_params(self.channel)
        for name, values in (("phi", self.phi), ("mu", self.mu), ("tau", self.tau)):
            if len(values) == 0:
                raise DomainError(f"{name} list must be non-empty")
        for p in self.phi:
            if not -PHI_ATOL <= p <= math.pi + PHI_ATOL:
                raise DomainError(f"phi value {p} outside [0, pi]")
        for m in self.mu:
            if not 0.0 <= m <= 1.0:
                raise DomainError(f"mu value {m} outside [0, 1]")
        for t in self.tau:
            if not 0.0 < t < math.inf:
                raise DomainError(f"tau value {t} must be finite and > 0")

    def __len__(self) -> int:
        return len(self.phi) * len(self.mu) * len(self.tau) * len(self.time)

    def spec(self) -> dict[str, Any]:
        return {
            "channel": self.channel,
            "phi": list(self.phi),
            "mu": list(self.mu),
            "tau": list(self.tau),
            "time": {"start": self.time.start, "stop": self.time.stop, "step": self.time.step},
        }


@dataclass(frozen=True)
class SweepRow:
    """One grid point: its coordinates plus the full measure record."""

    channel: str
    phi: float
    mu: float
    tau: float
    regime: str
    time: float
    record: MeasureRecord

    def values(self) -> tuple:
        """The row's values in ``COLUMNS`` order."""
        r = self.record
        s = r.steering
        return (
            self.channel, self.phi, self.mu, self.tau, self.regime, self.time,
            r.kernel, r.eta, s.s_ab, s.s_ba, s.delta_s, s.steering_class.value,
            r.concurrence, r.eof, r.gqd, r.coherence_l1,
        )  # fmt: skip

    def csv_line(self) -> str:
        return _ROW_FORMAT % self.values()

    def as_dict(self) -> dict[str, Any]:
        return _json_record(self.values())


def _json_record(values: Sequence[Any]) -> dict[str, Any]:
    """One JSON record: floats rounded through their 12-digit rendering."""
    return {
        name: float(FLOAT_FORMAT % v) if kind is float else v
        for (name, kind), v in zip(COLUMNS, values)
    }


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


def _pymax(a: Any, b: Any) -> np.ndarray:
    """Python's ``max(a, b)`` per element: ``b`` only where ``b > a``, so a
    tie between signed zeros keeps ``a`` as ``max`` does."""
    return np.where(b > a, b, a)


def _pymin(a: Any, b: Any) -> np.ndarray:
    """Python's ``min(a, b)`` per element: ``b`` only where ``b < a``."""
    return np.where(b < a, b, a)


def _square(x: np.ndarray) -> np.ndarray:
    """``x ** 2`` per element through Python's ``**`` (libm ``pow``)."""
    return np.array(list(map(operator.pow, x.tolist(), repeat(2))))


def _binary_entropy(x: np.ndarray) -> np.ndarray:
    """``measures._binary_entropy`` per element, with ``math.log2``."""
    total = np.zeros_like(x)
    for p in (x, 1.0 - x):
        positive = p > 0.0
        logs = np.array(list(map(math.log2, np.where(positive, p, 1.0).tolist())))
        total = np.where(positive, total - p * logs, total)
    return total


#: Per-phi constants that ``_state_constants`` reads off each production state.
_STATE_FIELDS = ("r14", "r23", "corner", "bias", "inner", "r30sq", "r33sq", "bloch_bad")


def _state_constants(states: Iterable[DensityMatrix4]) -> dict[str, np.ndarray]:
    """Everything the measures take from a state besides eta, one entry per phi.

    Dephasing scales the anti-diagonal ``r14`` and ``r23`` (real for the
    production states) and leaves the diagonal alone, so the steering bounds
    and the diagonal Fano-Bloch components are fixed per phi; ``bloch_bad``
    flags a state whose fixed components already fail the Fano-Bloch check.
    """
    entries = [
        (rho.rho11, rho.rho22, rho.rho33, rho.rho44, rho.rho14.real, rho.rho23.real)
        for rho in states
    ]
    a, b, c, d, r14, r23 = map(np.array, zip(*entries))
    r33 = 1.0 - 2.0 * (b + c)
    r03 = a - b + c - d
    r30 = a + b - c - d
    corner, bias, inner = _steering_bounds(a, b, c, d)
    bloch_bad = (
        (np.abs(r33) > 1.0 + DOMAIN_ATOL)
        | (np.abs(r03) > 1.0 + DOMAIN_ATOL)
        | (np.abs(r30) > 1.0 + DOMAIN_ATOL)
    )
    columns = (r14, r23, corner, bias, inner, _square(r30), _square(r33), bloch_bad)
    return dict(zip(_STATE_FIELDS, columns))


def _measure_chunk(
    st: dict[str, np.ndarray], eta: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """``measure_all(dephase(rho0, eta), ...)`` as columns over a chunk of rows.

    ``st`` holds the ``_state_constants`` of each row's state.  Returns the
    measure columns, keyed by column name, and a mask of the rows on which
    ``measure_all`` would raise (the eta check is the caller's).  Each line
    mirrors the scalar expression it replaces, operation for operation.
    """
    w = st["r14"] * eta
    z = st["r23"] * eta
    w_abs = np.abs(w)
    z_abs = np.abs(z)

    # steering
    w2 = _square(w_abs)
    z2 = _square(z_abs)
    corner, bias, inner = st["corner"], st["bias"], st["inner"]
    scale = 8.0 / SQRT3
    s_ab = _pymax(0.0, scale * _pymax(w2 - corner - bias, z2 - inner - bias))
    s_ba = _pymax(0.0, scale * _pymax(w2 - corner + bias, z2 - inner + bias))

    # concurrence and entanglement of formation
    conc = 2.0 * _pymax(_pymax(z_abs - w_abs, w_abs - z_abs), 0.0)
    bad = ~((-DOMAIN_ATOL <= conc) & (conc <= 1.0 + DOMAIN_ATOL))
    c = _pymin(_pymax(conc, 0.0), 1.0)
    eof = _binary_entropy(0.5 * (1.0 + np.sqrt(1.0 - c * c)))

    # geometric discord
    r11 = 2.0 * (z + w)
    r22 = 2.0 * (z - w)
    bad |= (np.abs(r11) > 1.0 + DOMAIN_ATOL) | (np.abs(r22) > 1.0 + DOMAIN_ATOL)
    bad |= st["bloch_bad"]
    r11sq = _square(r11)
    r22sq = _square(r22)
    rmax_sq = _pymax(r22sq + st["r30sq"], st["r33sq"])
    rmin_sq = _pymin(r11sq, st["r33sq"])
    den = rmax_sq - rmin_sq + r11sq - r22sq
    vanishing = den < GQD_DENOMINATOR_ATOL
    num = _pymax(r11sq * rmax_sq - r22sq * rmin_sq, 0.0)
    gqd = np.where(vanishing, 0.0, 0.5 * np.sqrt(num / np.where(vanishing, 1.0, den)))

    measures = {
        "s_ab": s_ab,
        "s_ba": s_ba,
        "delta_s": np.abs(s_ab - s_ba),
        "steering_class": (s_ab > 0.0) + 2 * (s_ba > 0.0),
        "concurrence": conc,
        "eof": eof,
        "gqd": gqd,
        # numpy's pairwise sum over the 16 moduli of the dephased matrix.
        "coherence_l1": (z_abs + w_abs) + (w_abs + z_abs),
    }
    return measures, bad


def _in_context(
    exc: HyperspinError, channel: str, phi: float, mu: float, tau: float, t: float
) -> HyperspinError:
    return type(exc)(
        f"{exc} [at channel={channel}, phi={phi!r}, mu={mu!r}, tau={tau!r}, time={t!r}]"
    )


@dataclass(frozen=True)
class _Columns:
    """A sweep's values as columns; row ``r`` is grid point ``r`` in the C
    order of ``(phi, mu, tau, time)``."""

    grid: SweepGrid
    #: Regime label per tau.
    regimes: list[str]
    times: np.ndarray
    #: Per (tau, time), flattened.
    kernel: np.ndarray
    #: Per (mu, tau, time) point, flattened.
    eta: np.ndarray
    #: Per row, keyed by measure column; ``steering_class`` holds class codes.
    measures: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.grid)

    def _series_values(self, series: np.ndarray) -> list[tuple]:
        g = self.grid
        n_tau = len(g.tau)
        n_mu_tau = len(g.mu) * n_tau
        return [
            (g.channel, g.phi[s // n_mu_tau], g.mu[s % n_mu_tau // n_tau], g.tau[s % n_tau],
             self.regimes[s % n_tau])
            for s in series.tolist()
        ]  # fmt: skip

    def _point_values(self, points: np.ndarray) -> list[tuple]:
        return list(
            zip(
                self.times[points % self.times.size].tolist(),
                self.kernel[points % self.kernel.size].tolist(),
                self.eta[points].tolist(),
            )
        )

    def _chunks(self) -> Iterator[tuple[list[tuple], np.ndarray, list[tuple], np.ndarray, list]]:
        """Per chunk of rows: the distinct series and points the chunk covers,
        each row's index into both, and the measure columns as lists."""
        for start in range(0, len(self), _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, len(self))
            rows = np.arange(start, stop)
            series, series_of_row = np.unique(rows // self.times.size, return_inverse=True)
            points, point_of_row = np.unique(rows % self.eta.size, return_inverse=True)
            measures = [
                _CLASS_NAMES[self.measures[name][start:stop]].tolist()
                if name == "steering_class"
                else self.measures[name][start:stop].tolist()
                for name, _ in _MEASURE_COLUMNS
            ]
            yield (
                self._series_values(series), series_of_row,
                self._point_values(points), point_of_row,
                measures,
            )  # fmt: skip

    def values(self) -> Iterator[tuple]:
        """Every row's values in ``COLUMNS`` order."""
        for series, series_of_row, points, point_of_row, measures in self._chunks():
            for s, p, m in zip(series_of_row.tolist(), point_of_row.tolist(), zip(*measures)):
                yield series[s] + points[p] + m

    def csv_chunks(self) -> Iterator[str]:
        """The CSV lines, one string per chunk of rows; each series prefix
        and each point's ``time, kernel, eta`` is formatted once per chunk."""
        for series, series_of_row, points, point_of_row, measures in self._chunks():
            prefixes = np.array([_SERIES_FORMAT % v for v in series], dtype=object)
            middles = np.array([_POINT_FORMAT % v for v in points], dtype=object)
            lines = zip(
                prefixes[series_of_row].tolist(), middles[point_of_row].tolist(), *measures
            )
            yield "".join(map(_COLUMNAR_LINE_FORMAT.__mod__, lines))


def _evaluate(grid: SweepGrid) -> _Columns:
    """Evaluate every grid point as columns, raising like the scalar path.

    A row on which ``dephase`` or ``measure_all`` would raise is re-run on
    that path to raise its error, extended by the row's coordinates; the
    first such row in grid order is the one reported.
    """
    ch = channel_params(grid.channel)
    # One state at a time: only its constants are kept.
    constants = _state_constants(density_matrix(ch, p) for p in grid.phi)
    times = grid.time.values()
    kernel = []
    regimes = []
    for tau in grid.tau:
        cfg = ChannelConfig(mu=grid.mu[0], tau=tau)
        regimes.append(cfg.regime.value)
        for t in times:
            try:
                kernel.append(memory_kernel(t, cfg).k)
            except HyperspinError as exc:
                raise _in_context(exc, grid.channel, grid.phi[0], grid.mu[0], tau, t) from exc
    k = np.array(kernel)
    k2 = k * k
    eta = (k2 + (1.0 - k2) * np.array(grid.mu)[:, None]).ravel()
    eta_bad = ~((0.0 <= eta) & (eta <= 1.0 + PROB_ATOL))

    n_rows, n_point = len(grid), eta.size
    measures = {
        name: np.empty(n_rows, np.int8 if kind is str else float)
        for name, kind in _MEASURE_COLUMNS
    }
    for start in range(0, n_rows, _CHUNK_ROWS):
        rows = np.arange(start, min(start + _CHUNK_ROWS, n_rows))
        i_state, i_point = np.divmod(rows, n_point)
        chunk, bad = _measure_chunk(
            {name: col[i_state] for name, col in constants.items()}, eta[i_point]
        )
        bad |= eta_bad[i_point]
        if bad.any():
            row = int(rows[bad.argmax()])
            _raise_at(grid, times, kernel, eta, row)
        for name, col in chunk.items():
            measures[name][start : start + rows.size] = col
    return _Columns(grid, regimes, np.array(times), k, eta, measures)


def _raise_at(
    grid: SweepGrid,
    times: Sequence[float],
    kernel: Sequence[float],
    eta: np.ndarray,
    row: int,
) -> NoReturn:
    """Raise the error of the scalar path at a row the columns flagged."""
    shape = (len(grid.phi), len(grid.mu), len(grid.tau), len(times))
    i_phi, i_mu, i_tau, i_time = (int(i) for i in np.unravel_index(row, shape))
    e = float(eta[row % eta.size])
    k = kernel[i_tau * len(times) + i_time]
    rho0 = density_matrix(channel_params(grid.channel), grid.phi[i_phi])
    try:
        measure_all(dephase(rho0, e), e, k)
    except HyperspinError as exc:
        raise _in_context(
            exc, grid.channel, grid.phi[i_phi], grid.mu[i_mu], grid.tau[i_tau], times[i_time]
        ) from exc
    raise HyperspinError(f"sweep row {row} flagged as invalid, but the scalar path accepts it")


class SweepResult:
    """The rows of a sweep and its metadata.

    ``run_sweep`` keeps the values in columns and builds ``rows`` on first
    access; a result built from explicit rows renders through the same
    column table.
    """

    def __init__(self, rows: Iterable[SweepRow], metadata: dict[str, Any]) -> None:
        self._rows: list[SweepRow] | None = list(rows)
        self._columns: _Columns | None = None
        self.metadata = metadata

    @classmethod
    def _of_columns(cls, columns: _Columns, metadata: dict[str, Any]) -> SweepResult:
        result = cls((), metadata)
        result._rows, result._columns = None, columns
        return result

    @property
    def rows(self) -> list[SweepRow]:
        if self._rows is None:
            self._rows = [_row_of(v) for v in self._values()]
        return self._rows

    def __len__(self) -> int:
        return len(self._rows) if self._rows is not None else len(self._columns)

    def _values(self) -> Iterator[tuple]:
        if self._columns is not None:
            return self._columns.values()
        return (row.values() for row in self._rows)

    def _csv_chunks(self) -> Iterator[str]:
        if self._columns is not None:
            return self._columns.csv_chunks()
        return iter(["".join(_ROW_FORMAT % v + "\n" for v in self._values())])


@dataclass(frozen=True)
class FigurePreset:
    """Named grid reproducing one figure panel's data."""

    preset_id: str
    grid: SweepGrid
    measures: tuple[str, ...]


def run_sweep(
    grid: SweepGrid,
    measures: Sequence[str] | None = None,
    workers: int | None = None,
) -> SweepResult:
    """Evaluate every grid point, in lexicographic grid order.

    ``measures`` is a selector recorded in the metadata; every row always
    carries all measure fields (they share almost all of their arithmetic).
    ``workers`` must be an integer >= 1 and changes nothing: evaluation is
    serial.
    """
    selected = tuple(measures) if measures is not None else MEASURE_NAMES
    for name in selected:
        if name not in MEASURE_NAMES:
            raise DomainError(f"unknown measure {name!r}; known: {MEASURE_NAMES}")
    if workers is not None and not (isinstance(workers, int) and workers >= 1):
        raise DomainError(f"workers must be an integer >= 1, got {workers!r}")
    if len(grid) > MAX_ROWS:
        raise DomainError(f"grid has {len(grid)} rows, more than MAX_ROWS = {MAX_ROWS}")
    columns = _evaluate(grid)
    spec = grid.spec()
    grid_hash = hashlib.sha256(
        json.dumps(spec, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]
    metadata = {
        "preset": None,
        "grid_hash": grid_hash,
        "kernel_variant": KERNEL_VARIANT,
        "version": __version__,
        "measures": list(selected),
        "grid": spec,
    }
    return SweepResult._of_columns(columns, metadata)


def run_preset(preset_id: str, workers: int | None = None) -> SweepResult:
    """Run a figure preset and stamp its id into the metadata."""
    preset = figure_preset(preset_id)
    result = run_sweep(preset.grid, preset.measures, workers)
    result.metadata["preset"] = preset.preset_id
    return result


def emit(result: SweepResult, fmt: str, sink: str | Path | IO[str]) -> int:
    """Serialize a sweep result as CSV or JSON; returns bytes written.

    CSV: fixed header, one line per row, '\\n' newlines, floats with 12
    significant digits, written a chunk of rows at a time.  JSON: object
    with ``metadata`` and a ``records`` array of flat objects carrying the
    same field names as the CSV columns.
    """
    if fmt == "csv":
        chunks: Iterable[str] = chain([CSV_HEADER + "\n"], result._csv_chunks())
    elif fmt == "json":
        obj = {
            "metadata": result.metadata,
            "records": [_json_record(v) for v in result._values()],
        }
        chunks = [json.dumps(obj, indent=1) + "\n"]
    else:
        raise DomainError(f"format must be 'csv' or 'json', got {fmt!r}")

    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            return _write(chunks, fh)
    return _write(chunks, sink)


def _write(chunks: Iterable[str], fh: IO[str]) -> int:
    nbytes = 0
    for chunk in chunks:
        fh.write(chunk)
        # UTF-8 spends one byte per ASCII character; encode only the rest.
        nbytes += len(chunk) if chunk.isascii() else len(chunk.encode("utf-8"))
    return nbytes


_PHI_FULL = tuple(k * math.pi / 180.0 for k in range(181))
_MU_FULL = tuple(k / 100.0 for k in range(101))
_PHI_COMPARE = (math.pi / 6.0, math.pi / 4.0, math.pi / 3.0, math.pi / 2.0)
_HALF_PI = math.pi / 2.0
_T_MARKOV = TimeGrid(0.0, 5.0, 0.01)
_T_NONMARKOV = TimeGrid(0.0, 50.0, 0.01)


def _grid(
    phi: tuple[float, ...], mu: tuple[float, ...], tau: float, time: TimeGrid
) -> SweepGrid:
    return SweepGrid("lambda", phi, mu, (tau,), time)


def _surface_presets(prefix: str, measures: tuple[str, ...]) -> dict[str, FigurePreset]:
    """The common panel pair: (a) phi sweep at mu=0.8, (b) mu sweep at phi=pi/2."""
    out = {}
    for digit, tau, tgrid in (("1", 0.1, _T_MARKOV), ("2", 5.0, _T_NONMARKOV)):
        pid_a = f"{prefix}{digit}a"
        pid_b = f"{prefix}{digit}b"
        out[pid_a] = FigurePreset(pid_a, _grid(_PHI_FULL, (0.8,), tau, tgrid), measures)
        out[pid_b] = FigurePreset(pid_b, _grid((_HALF_PI,), _MU_FULL, tau, tgrid), measures)
    return out


def _build_presets() -> dict[str, FigurePreset]:
    presets: dict[str, FigurePreset] = {}
    presets.update(_surface_presets("h", ("steering",)))
    presets.update(_surface_presets("e", ("eof",)))
    presets.update(_surface_presets("d", ("gqd",)))
    presets.update(_surface_presets("c", ("coherence_l1",)))
    # Direction-comparison panels: a handful of phi values per panel.
    for digit, tau, tgrid in (("1", 0.1, _T_MARKOV), ("2", 5.0, _T_NONMARKOV)):
        for suffix, mu in (("a", 0.6), ("b", 0.8)):
            pid = f"sc{digit}{suffix}"
            presets[pid] = FigurePreset(
                pid, _grid(_PHI_COMPARE, (mu,), tau, tgrid), ("steering",)
            )
    # Four-measure comparison at phi = pi/2 for a ladder of mu values.
    for prefix, tau, tgrid in (("m", 0.1, _T_MARKOV), ("nm", 5.0, _T_NONMARKOV)):
        for suffix, mu in (("0", 0.0), ("06", 0.6), ("08", 0.8), ("1", 1.0)):
            pid = f"{prefix}{suffix}"
            presets[pid] = FigurePreset(
                pid, _grid((_HALF_PI,), (mu,), tau, tgrid), MEASURE_NAMES
            )
    return presets


PRESETS: dict[str, FigurePreset] = _build_presets()


def figure_preset(preset_id: str) -> FigurePreset:
    """Look up a registered figure preset.

    Raises
    ------
    UnknownPresetError
        For ids outside the registry.
    """
    try:
        return PRESETS[preset_id]
    except KeyError:
        raise UnknownPresetError(
            f"unknown preset {preset_id!r}; known: {sorted(PRESETS)}"
        ) from None
