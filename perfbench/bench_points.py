"""Seeded single-point streams and the library quick-tour call sequence.

Shared by the ``point-api`` worker process and the traced replay, so both
evaluate a point through exactly the same public calls.  ``hyperspin`` must
be importable (``src`` on the path) before this module is imported.
"""

from __future__ import annotations

import hashlib
import math
import random

import hyperspin as hs

CHANNEL_NAMES = ("lambda", "sigma+", "xi-", "xi0")

#: Points per stream pass; one pass is a few tenths of a second of work.
STREAM_POINTS = 4000
#: Seed and size of the fixed reference block whose digest is pinned.
REFERENCE_SEED = 0
REFERENCE_POINTS = 1000


def point_stream(seed: int, n: int) -> list[list]:
    """``n`` points ``[channel, phi, mu, tau, time]`` drawn from ``seed``.

    Covers all four channels, both regimes (``tau`` on either side of the
    ``4*tau = 1`` seam, never on it), ``phi`` in [0, pi], ``mu`` in [0, 1]
    and ``time`` in [0, 50].
    """
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        name = rng.choice(CHANNEL_NAMES)
        if rng.random() < 0.5:
            tau = rng.uniform(0.01, 0.24)
        else:
            tau = rng.uniform(0.26, 10.0)
        out.append([name, rng.uniform(0.0, math.pi), rng.uniform(0.0, 1.0), tau,
                    rng.uniform(0.0, 50.0)])
    return out


def quick_tour(name: str, phi: float, mu: float, tau: float, t: float):
    """One point through the README quick-tour sequence.

    Returns ``(cfg, record)``: the channel config and the ``MeasureRecord``.
    """
    ch = hs.channel_params(name)
    rho0 = hs.density_matrix(ch, phi)
    cfg = hs.ChannelConfig(mu=mu, tau=tau)
    rho_t = hs.evolve(rho0, t, cfg)
    eta = hs.decoherence_factor(t, cfg)
    record = hs.measure_all(rho_t, eta, hs.memory_kernel(t, cfg).k)
    return cfg, record


def as_row(name: str, phi: float, t: float, cfg, record) -> "hs.SweepRow":
    """Wrap a point's record so it renders with the library's own CSV line."""
    return hs.SweepRow(name, phi, cfg.mu, cfg.tau, cfg.regime.value, t, record)


def point_rows(points: list, results: list) -> list:
    """``as_row`` over a stream and its ``quick_tour`` results."""
    return [as_row(p[0], p[1], p[4], *res) for p, res in zip(points, results)]


def lines_digest(lines: list[str]) -> str:
    return hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()
