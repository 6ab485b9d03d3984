"""Golden digest of the scalar single-point path, the README quick tour.

``density_matrix -> evolve -> measure_all`` is what a caller evaluating one
point at a time runs, and it is the oracle the sweep engine is checked
against; this pins its rendered bytes on a fixed seeded block of points,
and checks that ``measure_all`` gives the bits and errors of the public
measure calls it stands for.
"""

import hashlib
import math
import random

import pytest

from hyperspin import (
    CHANNELS,
    ChannelConfig,
    MeasureRecord,
    SweepRow,
    channel_params,
    coherence_l1,
    concurrence,
    decoherence_factor,
    density_matrix,
    entanglement_of_formation,
    evolve,
    geometric_discord,
    measure_all,
    memory_kernel,
    steering,
)
from hyperspin.production import DensityMatrix4

QUICK_TOUR_SHA256 = "1b791503e78158d5dfaac54234b4515e64a29327e66b20bec8f42e2d7ac234d6"


def point_block(seed, n):
    """``n`` points ``(channel, phi, mu, tau, time)``: all four channels, both
    regimes and the ``4*tau = 1`` seam, the phi and mu endpoints, and times
    far enough out for the overflow-safe kernel branch."""
    rng = random.Random(seed)
    names = sorted(CHANNELS)
    out = []
    for _ in range(n):
        phi = rng.uniform(0.0, math.pi)
        if rng.random() < 0.15:
            phi = rng.choice((0.0, math.pi / 2.0, math.pi))
        mu = rng.choice((0.0, 1.0, rng.random())) if rng.random() < 0.2 else rng.random()
        tau = rng.choice((rng.uniform(0.01, 0.24), rng.uniform(0.26, 10.0)))
        if rng.random() < 0.1:
            tau = 0.25
        t = rng.choice((rng.uniform(0.0, 2.0), rng.uniform(0.0, 50.0)))
        out.append((rng.choice(names), phi, mu, tau, t))
    return out


def quick_tour_line(name, phi, mu, tau, t):
    rho0 = density_matrix(channel_params(name), phi)
    cfg = ChannelConfig(mu=mu, tau=tau)
    rho_t = evolve(rho0, t, cfg)
    record = measure_all(rho_t, decoherence_factor(t, cfg), memory_kernel(t, cfg).k)
    return SweepRow(name, phi, mu, tau, cfg.regime.value, t, record).csv_line()


def test_quick_tour_digest():
    lines = [quick_tour_line(*p) for p in point_block(20251018, 1000)]
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()
    assert digest == QUICK_TOUR_SHA256


def test_quick_tour_never_builds_a_matrix(monkeypatch):
    def no_matrix(rho):
        raise AssertionError("the 4x4 matrix was built")

    monkeypatch.setattr(DensityMatrix4, "matrix", property(no_matrix))
    with pytest.raises(AssertionError, match="matrix was built"):
        density_matrix(channel_params("lambda"), 1.0).matrix
    for p in point_block(20251018, 200):
        quick_tour_line(*p)


def test_quick_tour_evaluates_the_kernel_once_per_point(kernel_bodies):
    # evolve, decoherence_factor and the record all ask for K(t); the last
    # value is reused, so only the first of the three evaluates it.
    for p in point_block(20251018, 200):
        quick_tour_line(*p)
    assert len(kernel_bodies) == 200


def assembled_record(rho, eta, kernel):
    """The record of the public measure calls, in the order ``measure_all``
    has always made them."""
    c = concurrence(rho)
    s = steering(rho)
    return MeasureRecord(
        s, c, entanglement_of_formation(c), geometric_discord(rho), coherence_l1(rho), eta, kernel
    )


def record_bits(record):
    s = record.steering
    floats = (s.s_ab, s.s_ba, s.delta_s, record.concurrence, record.eof, record.gqd,
              record.coherence_l1, record.eta, record.kernel)  # fmt: skip
    return (*map(float.hex, floats), s.steering_class)


def test_measure_all_is_the_public_measures_bit_for_bit():
    for name, phi, mu, tau, t in point_block(20251018, 1000):
        cfg = ChannelConfig(mu=mu, tau=tau)
        rho = evolve(density_matrix(channel_params(name), phi), t, cfg)
        eta, k = decoherence_factor(t, cfg), memory_kernel(t, cfg).k
        assert record_bits(measure_all(rho, eta, k)) == record_bits(assembled_record(rho, eta, k))


nan = float("nan")


@pytest.mark.parametrize(
    "entries",
    [
        # Concurrence 1.2; r11 = 1.2 fails too, but the concurrence is checked first.
        (0.25, 0.25, 0.25, 0.25, 0.6 + 0j, 0j),
        (0.25, 0.25, 0.25, 0.25, 0j, -0.6 + 0j),
        # Concurrence 0, r11 = 1.2.
        (0.25, 0.25, 0.25, 0.25, 0.3 + 0j, 0.3 + 0j),
        # Concurrence 0, r33 = 2.
        (1.5, -0.25, -0.25, 0.0, 0j, 0j),
        # Concurrence 0, r22 = -1.2.
        (0.25, 0.25, 0.25, 0.25, 0.3 + 0j, -0.3 + 0j),
        # NaN anti-diagonal entries.
        (0.25, 0.25, 0.25, 0.25, complex(nan, 0.0), 0j),
        (0.25, 0.25, 0.25, 0.25, 0.1 + 0j, complex(0.0, nan)),
        (0.25, 0.25, 0.25, 0.25, complex(nan, nan), complex(nan, nan)),
        # A modulus past the float range: concurrence inf.
        (0.25, 0.25, 0.25, 0.25, complex(1e308, 1e308), 0j),
    ],
)
def test_measure_all_raises_as_the_first_public_measure(entries):
    rho = DensityMatrix4._of_entries(*entries)
    with pytest.raises(Exception) as want:
        assembled_record(rho, 0.5, 0.5)
    with pytest.raises(type(want.value)) as got:
        measure_all(rho, 0.5, 0.5)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
