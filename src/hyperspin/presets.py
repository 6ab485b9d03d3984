"""The figure presets: a named sweep grid and measure selector per panel.

The registry is plain data built from ``SweepGrid`` and ``TimeGrid``, so
this module loads neither numpy nor the sweep engine in
``hyperspin.sweep``: ``hyperspin.PRESETS`` and ``figure_preset`` read it
alone, and ``hyperspin sweep`` resolves a ``--figure`` id, or rejects it,
before the engine loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnknownPresetError
from .grid import SweepGrid, TimeGrid

MEASURE_NAMES = ("steering", "eof", "gqd", "coherence_l1")


@dataclass(frozen=True)
class FigurePreset:
    """Named grid reproducing one figure panel's data."""

    preset_id: str
    grid: SweepGrid
    measures: tuple[str, ...]


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
        For ids outside the registry, an unhashable one included.
    """
    try:
        return PRESETS[preset_id]
    except (KeyError, TypeError):
        raise UnknownPresetError(
            f"unknown preset {preset_id!r}; known: {sorted(PRESETS)}"
        ) from None
