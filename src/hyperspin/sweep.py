"""Grid evaluation of the measures and deterministic serialization.

A sweep covers the Cartesian grid (channel, phi, mu, tau, time) in
lexicographic order, which is the C order of a ``(phi, mu, tau, time)``
array.  Every value of a row is an elementwise function of two things: the
X-state entries of the production state ``rho0(phi)``, and the survival
factor ``eta(mu, tau, t)``, whose kernel part depends on ``(tau, t)`` only.
``run_sweep`` therefore keeps one set of state constants per phi and one
kernel value per ``(tau, t)``, and runs the domain checks over every row
before it returns.  Neither eta nor the measures are held for the whole
grid: checking, reading or emitting the rows evaluates them as numpy
columns over a bounded chunk of rows, renders that chunk and writes it, so
memory depends on the chunk size and not on the number of rows.
Rendering formats each string that repeats once where it can: the
``channel, phi, mu, tau, regime`` prefix once per series in a chunk, and
``time, kernel, eta`` once per run of chunks that cover the same ``(mu,
tau, t)`` points, so a phi sweep renders its time axis once.  CSV and JSON
are rendered the same way, from one ``%`` template per column group.

numpy is imported inside the functions that use it, so importing this
module does not load it.  Nor does ``point_row``, which evaluates the one
row of a one-point grid (``hyperspin measure``) on the scalar path that
also raises the engine's errors.

The columns equal the scalar path (``dephase`` then ``measure_all``) bit for
bit, which the test suite and ``hyperspin check`` verify row by row.  Both
paths write squares as ``x * x`` and share the other arithmetic operation for
operation; two rules keep the rest equal:

* transcendental functions run per element on ``math``: numpy's SIMD
  ``exp`` and ``log2`` differ from libm in the last ulp on some inputs;
* Python's ``max`` and ``min`` become ``_pymax`` and ``_pymin``, which make
  the same choice between signed zeros, so a ``-0`` renders where it did.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable, Iterator, NoReturn, Sequence

from ._version import __version__
from .channel import PROB_ATOL, ChannelConfig, _survival, dephase, memory_kernel
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

if TYPE_CHECKING:
    import numpy as np

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


def _csv_fields(columns: Sequence[tuple[str, type]]) -> str:
    return ",".join(FLOAT_FORMAT if kind is float else "%s" for _, kind in columns)


def _json_fields(columns: Sequence[tuple[str, type]]) -> str:
    """Members of a record as ``json.dumps(..., indent=1)`` lays out a record
    of the ``records`` array, each value a ``%s`` for its JSON rendering."""
    return "".join(f"\n   {json.dumps(name)}: %s," for name, _ in columns)


_ROW_FORMAT = _csv_fields(COLUMNS)

MEASURE_NAMES = ("steering", "eof", "gqd", "coherence_l1")

#: Rows evaluated, rendered and written per chunk; sets a sweep's peak memory.
#: Process peak RSS in MB through the CLI, then the median seconds of 5
#: in-process ``emit`` runs (alternating, a shared 2-core x86-64 VM, Python
#: 3.11, numpy 2.4; runs of the same code differ by 10-30%):
#:
#:     rows    h1a CSV      h1a JSON     h2b CSV      h2b JSON
#:     1,024   31.8  0.29   36.5  0.99   32.0  2.23   36.8  7.07
#:     2,048   32.8  0.27   38.4  0.96   33.9  2.25   39.6  6.98
#:     4,096   35.2  0.28   42.9  1.00   37.4  2.34   45.5  7.32
#:
#: A chunk renders its ``time, kernel, eta`` strings only when they are not
#: those of the chunk before, so small chunks cost a phi sweep little.
_CHUNK_ROWS = 1 << 11

#: Most points one axis may have and most rows one sweep may have, checked
#: before anything is allocated: about 20x the largest preset (h2b, 505,101
#: rows).  A sweep keeps 8 bytes of kernel per ``(tau, time)`` pair, at
#: most 80 MB at the cap, and evaluates eta and the measures a chunk of rows
#: at a time.  Change it by assigning ``hyperspin.sweep.MAX_ROWS``.
MAX_ROWS = 10_000_000

#: Steering classes indexed by the code ``(s_ab > 0) + 2 * (s_ba > 0)``.
_STEERING_CLASSES = (
    SteeringClass.NO_WAY,
    SteeringClass.ONE_WAY_AB,
    SteeringClass.ONE_WAY_BA,
    SteeringClass.TWO_WAY,
)
_CLASS_NAMES = tuple(c.value for c in _STEERING_CLASSES)


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
    import numpy as np

    return np.where(b > a, b, a)


def _pymin(a: Any, b: Any) -> np.ndarray:
    """Python's ``min(a, b)`` per element: ``b`` only where ``b < a``."""
    import numpy as np

    return np.where(b < a, b, a)


def _binary_entropy(x: np.ndarray) -> np.ndarray:
    """``measures._binary_entropy`` per element, with ``math.log2``."""
    import numpy as np

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
    import numpy as np

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
    columns = (r14, r23, corner, bias, inner, r30 * r30, r33 * r33, bloch_bad)
    return dict(zip(_STATE_FIELDS, columns))


def _dephased(
    st: dict[str, np.ndarray], eta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The part of ``measure_all(dephase(rho0, eta), ...)`` that decides
    whether a row is valid, as columns over a chunk of rows.

    ``st`` holds the ``_state_constants`` of each row's state.  Returns the
    moduli ``|w|``, ``|z|`` of the dephased anti-diagonal, the concurrence,
    the Bloch components ``r11``, ``r22``, and a mask of the rows on which
    ``dephase`` or ``measure_all`` would raise.
    """
    import numpy as np

    w = st["r14"] * eta
    z = st["r23"] * eta
    w_abs = np.abs(w)
    z_abs = np.abs(z)
    conc = 2.0 * np.abs(z_abs - w_abs)
    r11 = 2.0 * (z + w)
    r22 = 2.0 * (z - w)
    bad = ~((0.0 <= eta) & (eta <= 1.0 + PROB_ATOL))
    bad |= ~((-DOMAIN_ATOL <= conc) & (conc <= 1.0 + DOMAIN_ATOL))
    bad |= (np.abs(r11) > 1.0 + DOMAIN_ATOL) | (np.abs(r22) > 1.0 + DOMAIN_ATOL)
    bad |= st["bloch_bad"]
    return w_abs, z_abs, conc, r11, r22, bad


def _measure_chunk(st: dict[str, np.ndarray], eta: np.ndarray) -> dict[str, np.ndarray]:
    """``measure_all(dephase(rho0, eta), ...)`` as columns over a chunk of
    rows that ``_dephased`` accepts, keyed by measure column.

    Each line mirrors the scalar expression it replaces, operation for
    operation.
    """
    import numpy as np

    w_abs, z_abs, conc, r11, r22, _ = _dephased(st, eta)

    # steering
    w2 = w_abs * w_abs
    z2 = z_abs * z_abs
    corner, bias, inner = st["corner"], st["bias"], st["inner"]
    scale = 8.0 / SQRT3
    s_ab = _pymax(0.0, scale * _pymax(w2 - corner - bias, z2 - inner - bias))
    s_ba = _pymax(0.0, scale * _pymax(w2 - corner + bias, z2 - inner + bias))

    # entanglement of formation
    c = _pymin(_pymax(conc, 0.0), 1.0)
    eof = _binary_entropy(0.5 * (1.0 + np.sqrt(1.0 - c * c)))

    # geometric discord
    r11sq = r11 * r11
    r22sq = r22 * r22
    rmax_sq = _pymax(r22sq + st["r30sq"], st["r33sq"])
    rmin_sq = _pymin(r11sq, st["r33sq"])
    den = rmax_sq - rmin_sq + r11sq - r22sq
    vanishing = den < GQD_DENOMINATOR_ATOL
    num = _pymax(r11sq * rmax_sq - r22sq * rmin_sq, 0.0)
    gqd = np.where(vanishing, 0.0, 0.5 * np.sqrt(num / np.where(vanishing, 1.0, den)))

    return {
        "s_ab": s_ab,
        "s_ba": s_ba,
        "delta_s": np.abs(s_ab - s_ba),
        "steering_class": (s_ab > 0.0) + 2 * (s_ba > 0.0),
        "concurrence": conc,
        "eof": eof,
        "gqd": gqd,
        "coherence_l1": 2.0 * (z_abs + w_abs),
    }


def _in_context(
    exc: HyperspinError, channel: str, phi: float, mu: float, tau: float, t: float
) -> HyperspinError:
    return type(exc)(
        f"{exc} [at channel={channel}, phi={phi!r}, mu={mu!r}, tau={tau!r}, time={t!r}]"
    )


def _kernel_at(grid: SweepGrid, cfg: ChannelConfig, t: float) -> float:
    """``memory_kernel(t, cfg).k``; an error is extended by the coordinates of
    the first row of ``grid`` at ``(cfg.tau, t)``."""
    try:
        return memory_kernel(t, cfg).k
    except HyperspinError as exc:
        raise _in_context(exc, grid.channel, grid.phi[0], grid.mu[0], cfg.tau, t) from exc


def _scalar_row(
    rho0: DensityMatrix4,
    channel: str,
    phi: float,
    mu: float,
    tau: float,
    regime: str,
    t: float,
    k: float,
) -> SweepRow:
    """The row at one grid point on the scalar path: ``rho0`` dephased by the
    eta of kernel value ``k``, then ``measure_all``; an error is extended by
    the point's coordinates."""
    e = _survival(k, mu)
    try:
        record = measure_all(dephase(rho0, e), e, k)
    except HyperspinError as exc:
        raise _in_context(exc, channel, phi, mu, tau, t) from exc
    return SweepRow(channel, phi, mu, tau, regime, t, record)


#: A chunk of consecutive rows: the distinct series it covers (one list per
#: series column), each row's index into them, the distinct points likewise,
#: and one list per measure column.  A chunk that covers the same points as
#: the chunk before carries the very same point lists, so a renderer may
#: reuse what it made of them.
if TYPE_CHECKING:
    _Chunk = tuple[list[Sequence], np.ndarray, list[Sequence], np.ndarray, list[Sequence]]


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
    #: The ``_state_constants``, one entry per phi.
    states: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.grid)

    def _inputs(self) -> Iterator[tuple[np.ndarray, np.ndarray, dict, np.ndarray]]:
        """Per chunk of rows: the row indices, and each row's ``(mu, tau,
        time)`` point index, state constants and eta."""
        import numpy as np

        for start in range(0, len(self), _CHUNK_ROWS):
            rows = np.arange(start, min(start + _CHUNK_ROWS, len(self)))
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

    def chunks(self) -> Iterator[_Chunk]:
        """The rows, with their measures evaluated, a chunk at a time."""
        import numpy as np

        g = self.grid
        class_names = np.array(_CLASS_NAMES, dtype=object)
        n_tau = len(g.tau)
        points = point_columns = None
        for rows, i_point, states, eta in self._inputs():
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
                class_names[measures[name]].tolist()
                if name == "steering_class"
                else measures[name].tolist()
                for name, _ in _MEASURE_COLUMNS
            ]
            yield series_columns, series_of_row, point_columns, point_of_row, measure_columns

    def _raise_at(self, row: int) -> NoReturn:
        """Raise the error of the scalar path at a row ``check`` flagged."""
        g, times = self.grid, self.times.tolist()
        i_series, i_time = divmod(row, len(times))
        i_phi_mu, i_tau = divmod(i_series, len(g.tau))
        i_phi, i_mu = divmod(i_phi_mu, len(g.mu))
        k = float(self.kernel[i_tau * len(times) + i_time])
        rho0 = density_matrix(channel_params(g.channel), g.phi[i_phi])
        _scalar_row(
            rho0, g.channel, g.phi[i_phi], g.mu[i_mu], g.tau[i_tau], self.regimes[i_tau],
            times[i_time], k,
        )  # fmt: skip
        raise HyperspinError(f"sweep row {row} flagged as invalid, but the scalar path accepts it")


def _pick(values: Sequence[Any], index: np.ndarray) -> list:
    return list(map(values.__getitem__, index.tolist()))


def _row_chunks(rows: Sequence[SweepRow]) -> Iterator[_Chunk]:
    """Explicit rows as chunks: every row is its own series and point."""
    import numpy as np

    for start in range(0, len(rows), _CHUNK_ROWS):
        columns = list(zip(*(row.values() for row in rows[start : start + _CHUNK_ROWS])))
        each = np.arange(len(columns[0]))
        yield columns[:5], each, columns[5:8], each, columns[8:]


def _chunk_values(chunks: Iterable[_Chunk]) -> Iterator[tuple]:
    """Every row's values in ``COLUMNS`` order."""
    for series, series_of_row, points, point_of_row, measures in chunks:
        series_rows, point_rows = list(zip(*series)), list(zip(*points))
        for s, p, m in zip(series_of_row.tolist(), point_of_row.tolist(), zip(*measures)):
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
        import numpy as np

        filled = map(template.__mod__, zip(*self._converted(columns, values)))
        return np.array(list(filled), dtype=object)

    def render(self, chunks: Iterable[_Chunk]) -> Iterator[str]:
        """Each chunk's rows as text.  Each series is rendered once per
        chunk, and each block of points once per run of chunks that carry
        the same point lists."""
        points = rendered = None
        for series, series_of_row, chunk_points, point_of_row, measures in chunks:
            prefixes = self._fill(self.series, _SERIES_COLUMNS, series)[series_of_row].tolist()
            if chunk_points is not points:
                points = chunk_points
                rendered = self._fill(self.point, _POINT_COLUMNS, points)
            middles = rendered[point_of_row].tolist()
            lines = zip(prefixes, middles, *self._converted(_MEASURE_COLUMNS, measures))
            yield "".join(map(self.line.__mod__, lines))


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


def _evaluate(grid: SweepGrid) -> _Columns:
    """Build the per-phi, per-(tau, t) and per-point inputs of every row and
    check every row, raising like the scalar path.

    A row on which ``dephase`` or ``measure_all`` would raise is re-run on
    that path to raise its error, extended by the row's coordinates; the
    first such row in grid order is the one reported.
    """
    import numpy as np

    ch = channel_params(grid.channel)
    # One state at a time: only its constants are kept.
    constants = _state_constants(density_matrix(ch, p) for p in grid.phi)
    times = grid.time.values()
    kernel = []
    regimes = []
    for tau in grid.tau:
        cfg = ChannelConfig(mu=grid.mu[0], tau=tau)
        regimes.append(cfg.regime.value)
        kernel += [_kernel_at(grid, cfg, t) for t in times]
    columns = _Columns(grid, regimes, *map(np.array, (times, grid.mu, kernel)), constants)
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
    return _run(grid, measures, workers, None)


def point_row(grid: SweepGrid) -> SweepRow:
    """The row of ``grid``, which has one point, evaluated on the scalar path.

    Gives the row that ``run_sweep(grid).rows[0]`` gives, bit for bit, and
    raises what ``run_sweep(grid)`` raises, without loading numpy.
    """
    channel, phi, mu, tau = grid.channel, grid.phi[0], grid.mu[0], grid.tau[0]
    # The order of ``_evaluate``: the state, the config, then the kernel.
    rho0 = density_matrix(channel_params(channel), phi)
    cfg = ChannelConfig(mu=mu, tau=tau)
    # The engine's time, ``start + 0 * step``, which turns -0 into 0.
    t = grid.time.values()[0]
    return _scalar_row(rho0, channel, phi, mu, tau, cfg.regime.value, t, _kernel_at(grid, cfg, t))


def _run(
    grid: SweepGrid,
    measures: Sequence[str] | None,
    workers: int | None,
    preset: str | None,
) -> SweepResult:
    selected = tuple(measures) if measures is not None else MEASURE_NAMES
    for name in selected:
        if name not in MEASURE_NAMES:
            raise DomainError(f"unknown measure {name!r}; known: {MEASURE_NAMES}")
    if workers is not None and not (isinstance(workers, int) and workers >= 1):
        raise DomainError(f"workers must be an integer >= 1, got {workers!r}")
    if len(grid) > MAX_ROWS:
        raise DomainError(f"grid has {len(grid)} rows, more than MAX_ROWS = {MAX_ROWS}")
    return SweepResult._of_columns(_evaluate(grid), selected, preset)


def run_preset(preset_id: str, workers: int | None = None) -> SweepResult:
    """Run a figure preset and stamp its id into the metadata."""
    preset = figure_preset(preset_id)
    return _run(preset.grid, preset.measures, workers, preset.preset_id)


def emit(result: SweepResult, fmt: str, sink: str | Path | IO[str]) -> int:
    """Serialize a sweep result as CSV or JSON; returns bytes written.

    CSV: fixed header, one line per row, '\\n' newlines, floats with 12
    significant digits.  JSON: the bytes of ``json.dumps(..., indent=1)`` of
    an object with ``metadata`` and a ``records`` array of flat objects
    carrying the same field names as the CSV columns, floats rounded to 12
    significant digits.  Either way the rows are evaluated, rendered and
    written a chunk at a time.
    """
    if fmt == "csv":
        chunks: Iterable[str] = chain([CSV_HEADER + "\n"], _CSV.render(result._chunks()))
    elif fmt == "json":
        chunks = _json_document(result)
    else:
        raise DomainError(f"format must be 'csv' or 'json', got {fmt!r}")

    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            return _write(chunks, fh)
    return _write(chunks, sink)


def _json_document(result: SweepResult) -> Iterator[str]:
    """The JSON text in chunks.

    The head and the first records are rendered before any is written, so a
    result whose metadata or first rows cannot be rendered leaves a sink
    file as it was.
    """
    empty = json.dumps({"metadata": result.metadata, "records": []}, indent=1) + "\n"
    records = _JSON.render(result._chunks())
    first = next(records, None)
    if first is None:
        return iter([empty])
    # "records" is the last member, so its "[]" is the last one in the text.
    head, _, tail = empty.rpartition("[]")
    return _records_in(head + "[", [first], records, "\n ]" + tail)


def _records_in(head: str, first: list[str], rest: Iterator[str], tail: str) -> Iterator[str]:
    """``head``, the records, then ``tail``; no record text is kept once handed on."""
    yield head
    # The first record has no record before it to be separated from.
    yield first.pop()[1:]
    yield from rest
    yield tail


def _write(chunks: Iterable[str], fh: IO[str]) -> int:
    nbytes = 0
    for chunk in chunks:
        fh.write(chunk)
        # UTF-8 spends one byte per ASCII character; encode only the rest.
        nbytes += len(chunk) if chunk.isascii() else len(chunk.encode("utf-8"))
        # Free this chunk's text before the next one is made.
        del chunk
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
