"""Every row of ``run_sweep`` against the scalar single-point path, exactly.

The scalar chain ``density_matrix -> memory_kernel -> dephase ->
measure_all`` is the oracle.  Equality is ``==`` on the record and on the
hex form of every float in it, so a sign-of-zero difference (which renders
as ``-0``) also fails.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspin import (
    CHANNELS,
    ChannelConfig,
    SweepGrid,
    TimeGrid,
    channel_params,
    decoherence_factor,
    density_matrix,
    dephase,
    measure_all,
    memory_kernel,
    run_sweep,
)


def scalar_record(channel, phi, mu, tau, t):
    cfg = ChannelConfig(mu=mu, tau=tau)
    eta = decoherence_factor(t, cfg)
    rho = dephase(density_matrix(channel_params(channel), phi), eta)
    return measure_all(rho, eta, memory_kernel(t, cfg).k)


def bits(record):
    s = record.steering
    floats = (s.s_ab, s.s_ba, s.delta_s, record.concurrence, record.eof, record.gqd,
              record.coherence_l1, record.eta, record.kernel)
    return tuple(float(x).hex() for x in floats)


def assert_rows_match_oracle(grid):
    rows = run_sweep(grid).rows
    assert len(rows) == len(grid)
    for row in rows:
        want = scalar_record(grid.channel, row.phi, row.mu, row.tau, row.time)
        assert row.record == want, row
        assert bits(row.record) == bits(want), row
        assert row.regime == ChannelConfig(mu=row.mu, tau=row.tau).regime.value


def test_edge_grid_every_channel():
    rng = random.Random(20251025)
    phis = (0.0, math.pi / 2.0, math.pi, *sorted(rng.uniform(0.0, math.pi) for _ in range(3)))
    mus = (0.0, 1.0, rng.random())
    # Both sides of 4*tau = 1, the seam itself, the v -> 0 limit at tau = 0.5,
    # and tau = 0.01 whose v*t passes 30 (overflow-safe branch) from t = 0.6.
    taus = (0.01, 0.1, 0.2499, 0.25, 0.2501, 0.5, 5.0)
    for name in CHANNELS:
        grid = SweepGrid(name, phis, mus, taus, TimeGrid(0.0, 40.0, 0.7))
        assert_rows_match_oracle(grid)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    channel=st.sampled_from(sorted(CHANNELS)),
    phis=st.lists(
        st.one_of(st.sampled_from([0.0, math.pi / 2.0, math.pi]), st.floats(0.0, math.pi)),
        min_size=1,
        max_size=3,
    ),
    mus=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=3),
    taus=st.lists(st.floats(0.005, 20.0), min_size=1, max_size=2),
    start=st.floats(0.0, 60.0),
    step=st.floats(0.01, 10.0),
    count=st.integers(0, 6),
)
def test_random_grids(channel, phis, mus, taus, start, step, count):
    grid = SweepGrid(
        channel,
        tuple(phis),
        tuple(mus),
        tuple(taus),
        TimeGrid(start, start + count * step, step),
    )
    assert_rows_match_oracle(grid)
