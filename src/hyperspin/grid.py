"""Sweep grids, the output columns, and the row at one grid point.

Everything here is what one point needs: the grid types, the column table
that both output formats derive from, the row-count cap, and ``point_row``,
the scalar row path that ``hyperspin measure`` prints and that a sweep
raises its errors through.  Importing this module loads neither numpy nor
the sweep engine in ``hyperspin.sweep`` (its evaluation, renderers and the
render in forked workers), nor the figure presets in ``hyperspin.presets``,
so ``import hyperspin``, ``measure``, ``params`` and ``--version`` pay for
none of them.

The engine looks ``MAX_ROWS``, ``memory_kernel`` and ``density_matrix`` up
in this module, as ``point_row`` does, so one assignment here (a changed
cap, or a patched layer in a test) reaches the engine and the scalar path
alike.

``_to_sink``, which writes every byte, ``measure``'s, ``emit``'s, each
``sweep`` worker's frames and their merge, to a binary or text stream or to
a path, which it replaces only once the last byte is written, lives here
too, so ``measure`` writes through it without loading the engine.
"""

from __future__ import annotations

import io
import math
import os
import stat
from dataclasses import dataclass
from typing import IO, Any, Iterable, Sequence

from .channel import ChannelConfig, _survival, dephase, memory_kernel
from .errors import DomainError, HyperspinError
from .measures import MeasureRecord, measure_all
from .production import PHI_ATOL, channel_params, density_matrix

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


def _csv_fields(columns: Sequence[tuple[str, type]]) -> str:
    return ",".join(FLOAT_FORMAT if kind is float else "%s" for _, kind in columns)


_ROW_FORMAT = _csv_fields(COLUMNS)

#: Most points one axis may have and most rows one sweep may have, checked
#: before anything is allocated: about 20x the largest preset (h2b, 505,101
#: rows).  It bounds rows, not memory, whose cost per row depends on the
#: axis.  A sweep keeps 8 bytes per time, 8 bytes of kernel per ``(tau,
#: time)`` pair and the state's six X entries, 48 bytes, per phi, each built
#: straight into its array, and evaluates eta and the measures a chunk of
#: rows at a time.  The grid's phi tuple adds 32 bytes per phi, a float and
#: its slot, and the CLI's axis list 8 more: one-time CSV sweeps peaked
#: (``wait4`` RSS) at 37.8 MiB with 100,001 phis and at 63.0 MiB with
#: 400,001, about 88 bytes per phi (Python 3.11, numpy 2.4, x86-64 Linux).
#: Change it by assigning ``hyperspin.grid.MAX_ROWS``.
MAX_ROWS = 10_000_000


def check_range(axis: str, start: float, stop: float, step: float) -> int:
    """Validate the progression ``start, start + step, ...`` up to ``stop`` of
    the named axis and return its number of points.

    Raises
    ------
    DomainError
        If a bound is not a real number or not finite, ``step <= 0`` or
        ``stop < start``; the message names ``axis``.
    """
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        try:
            finite = math.isfinite(value)
        except TypeError:
            raise DomainError(f"{axis} {name} must be a real number, got {value!r}") from None
        if not finite:
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


def axis_values(axis: str, start: float, stop: float, step: float) -> list[float]:
    """The points ``start + k * step`` of the named axis up to ``stop``: a
    time grid's and a ``--grid`` axis's.  Raises as ``check_range``."""
    return [start + k * step for k in range(check_range(axis, start, stop, step))]


def _check_rows(rows: int) -> None:
    """Raise ``DomainError`` if a sweep of ``rows`` rows exceeds ``MAX_ROWS``."""
    if rows > MAX_ROWS:
        raise DomainError(f"grid has {rows} rows, more than MAX_ROWS = {MAX_ROWS}")


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
        return axis_values("time", self.start, self.stop, self.step)


#: The list axes of a ``SweepGrid``: each one's name, whether a value lies
#: in its domain, and what a value outside it is.
_AXIS_DOMAINS = (
    ("phi", lambda p: -PHI_ATOL <= p <= math.pi + PHI_ATOL, "outside [0, pi]"),
    ("mu", lambda m: 0.0 <= m <= 1.0, "outside [0, 1]"),
    ("tau", lambda t: 0.0 < t < math.inf, "must be finite and > 0"),
)


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
        for name, _, _ in _AXIS_DOMAINS:
            values = getattr(self, name)
            try:
                # Sliced, as the engine indexes it: a set or an iterator is refused.
                empty = len(values[:1]) == 0
            except TypeError:
                raise DomainError(f"{name} must be a sequence of numbers, got {values!r}") from None
            if empty:
                raise DomainError(f"{name} list must be non-empty")
        for name, inside, domain in _AXIS_DOMAINS:
            for value in getattr(self, name):
                try:
                    ok = inside(value)
                except (TypeError, ValueError):
                    # It does not compare with a float, or gives no one truth value.
                    raise DomainError(f"{name} value {value!r} is not a real number") from None
                if not ok:
                    raise DomainError(f"{name} value {value} {domain}")
        if not isinstance(self.time, TimeGrid):
            raise DomainError(f"time must be a TimeGrid, got {self.time!r}")

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


def point_row(grid: SweepGrid) -> SweepRow:
    """The row of ``grid``, which has one point, on the scalar path: the
    kernel, ``dephase`` and ``measure_all``, whose errors name the point.

    Gives the row that ``run_sweep(grid).rows[0]`` gives, bit for bit, and
    raises what ``run_sweep(grid)`` raises, without loading numpy: a sweep
    raises the error of the first row it rejects through this function.
    """
    channel, phi, mu, tau = grid.channel, grid.phi[0], grid.mu[0], grid.tau[0]
    # The order of the engine's ``_evaluate``: the state, the config, then
    # the kernel.
    rho0 = density_matrix(channel_params(channel), phi)
    cfg = ChannelConfig(mu=mu, tau=tau)
    # The engine's time, ``start + 0 * step``, which turns -0 into 0.
    t = grid.time.values()[0]
    k = _kernel_at(grid, cfg, t)
    e = _survival(k, mu)
    try:
        record = measure_all(dephase(rho0, e), e, k)
    except HyperspinError as exc:
        raise _in_context(exc, channel, phi, mu, tau, t) from exc
    return SweepRow(channel, phi, mu, tau, cfg.regime.value, t, record)


def _to_sink(sink: str | os.PathLike | IO | None, texts: Iterable[bytes]) -> int:
    """Write ``texts``, UTF-8, to ``sink``, a path, a binary stream or a text
    stream; returns the bytes written.  The sink is opened before the first
    piece is made, and ``texts`` is closed on any exit.

    A path that names a regular file, or nothing, is written through a
    temporary file beside it (see ``_replacing``), renamed over the path
    only once ``texts`` has ended; any failure or interrupt before that
    removes it and leaves the path as it was.  Any other path, a device or
    a FIFO such as ``/dev/null``, is opened ``"wb"`` and written in place.
    A binary stream (``io.RawIOBase``, ``io.BufferedIOBase``) is written
    directly.  A text stream is flushed, so that what it holds goes out
    first, and its binary layer ``.buffer`` is written.  A binary layer may
    take part of a write, as a raw ``FileIO`` may, so each write is repeated
    until all is taken.  A stream with no binary layer is written decoded
    text.  ``None``, the ``sys.stdout`` of a process started with its
    standard output closed, raises ``HyperspinError``, and any other sink
    with no ``write`` ``DomainError``.
    """
    try:
        if sink is None:
            raise HyperspinError("no output stream: standard output is closed")
        path = isinstance(sink, (str, os.PathLike))
        if not path and not hasattr(sink, "write"):
            raise DomainError(f"sink must be a path or a stream, got {sink!r}")
        target = temporary = None
        if path:
            target, temporary, binary = _replacing(sink)
        elif isinstance(sink, (io.RawIOBase, io.BufferedIOBase)):
            binary = sink
        elif (binary := getattr(sink, "buffer", None)) is not None:
            sink.flush()
        try:
            nbytes = 0
            for data in texts:
                if binary is None:
                    if data:
                        sink.write(data.decode("utf-8"))
                else:
                    view = memoryview(data)
                    while view:
                        view = view[binary.write(view) :]
                    del view
                nbytes += len(data)
                # Free this piece before the next one is made or read.
                del data
            if path:
                binary.close()
            if temporary is not None:
                os.replace(temporary, target)
                temporary = None
            return nbytes
        finally:
            if path:
                binary.close()
            if temporary is not None:
                os.unlink(temporary)
    finally:
        if hasattr(texts, "close"):
            texts.close()


def _replacing(path: str | os.PathLike) -> tuple[str | None, str | None, IO[bytes]]:
    """Open what ``_to_sink`` writes for ``path``: ``(target, temporary,
    file)``.

    If ``path``, its symlinks resolved, is a regular file or nothing, the
    file is a new temporary one in the target's directory, to be renamed
    over the target: with the target's mode, or, for a new file, ``0o666``
    less the umask, as ``open(path, "wb")`` gives.  An existing file that
    ``open(path, "wb")`` would refuse is refused as it refuses it.
    Otherwise ``path`` is opened ``"wb"``, and target and temporary are None.
    """
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        return None, None, open(path, "wb")
    if mode is not None:
        # Raises, as ``open(path, "wb")`` would, if the file may not be
        # written; it is opened without truncation and closed untouched.
        os.close(os.open(path, os.O_WRONLY))
    directory, name = os.path.split(target)
    temporary = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        fd = os.open(temporary, flags, 0o666 if mode is None else 0o600)
    except OSError as exc:
        # Named by the path asked for, as ``open(path, "wb")`` names it.
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        if mode is not None:
            os.fchmod(fd, stat.S_IMODE(mode))
        return target, temporary, open(fd, "wb")
    except BaseException:
        os.close(fd)
        os.unlink(temporary)
        raise
