"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion (pytest captures the prints otherwise).
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
from conftest import threshold_bisect

from hyperspin import (
    CHANNELS,
    ChannelConfig,
    HyperonChannel,
    SteeringClass,
    SweepGrid,
    TimeGrid,
    channel_params,
    coherence_l1,
    concurrence,
    decoherence_factor,
    density_matrix,
    dephase,
    entanglement_of_formation,
    evolve,
    flip_probability,
    geometric_discord,
    joint_probabilities,
    kraus_apply,
    memory_kernel,
    numeric_xstate_params,
    run_sweep,
    steering,
    steering_bounds,
    xstate_params,
)
from hyperspin.linalg import hermitian_eigenvalues

HALF_PI = math.pi / 2.0
LAMBDA = channel_params("lambda")


def _report(num: int, started: float, desc: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"[criterion {num:02d}] PASS ({elapsed:.2f} s) - {desc}")


def test_criterion_01_channel_registry_round_trip():
    t0 = time.perf_counter()
    expected = {
        "lambda": (0.475, 0.752),
        "sigma+": (-0.508, -0.270),
        "xi-": (0.586, 1.213),
        "xi0": (0.514, 1.168),
    }
    assert set(CHANNELS) == set(expected)
    for name, (ups, dth) in expected.items():
        ch = channel_params(name)
        assert ch.upsilon_psi == ups
        assert ch.delta_theta == dth
    _report(1, t0, "channel registry returns the four printed parameter pairs exactly")


def test_criterion_02_state_validity_suite():
    t0 = time.perf_counter()
    for ch in CHANNELS.values():
        for k in range(721):
            phi = k * math.pi / 720.0
            rho = density_matrix(ch, phi)
            m = rho.matrix
            assert np.max(np.abs(m - m.conj().T)) <= 1e-10
            assert abs(m.trace().real - 1.0) <= 1e-10
            eig = hermitian_eigenvalues(m)
            assert eig[-1] >= -1e-9
            assert int(np.sum(np.abs(eig) < 1e-9)) == 2
    _report(2, t0, "4 channels x 721 angles: Hermitian, unit trace, PSD, rank 2")


def _printed_variant_gammas(ch: HyperonChannel, phi: float) -> tuple[float, float]:
    # The cos^2(2*phi) radicand variant, used only as a negative control.
    u = ch.upsilon_psi
    den = 1.0 + u * math.cos(phi) ** 2
    rad = (1.0 + u * math.cos(2.0 * phi) ** 2) ** 2 - (1.0 - u * u) * math.sin(
        ch.delta_theta
    ) ** 2 * math.sin(2.0 * phi) ** 2
    root = math.sqrt(max(rad, 0.0))
    return (1.0 + u + root) / (2.0 * den), (1.0 + u - root) / (2.0 * den)


def test_criterion_03_typo_pinning_oracle():
    t0 = time.perf_counter()
    printed_max_dev = 0.0
    for ch in CHANNELS.values():
        for k in range(721):
            phi = k * math.pi / 720.0
            numeric = numeric_xstate_params(ch, phi)
            cp = xstate_params(ch, phi)
            assert abs(cp.kappa - numeric.kappa) <= 1e-10
            assert abs(cp.gamma1 - numeric.gamma1) <= 1e-10
            assert abs(cp.gamma2 - numeric.gamma2) <= 1e-10
            assert abs(cp.gamma3 - numeric.gamma3) <= 1e-10
            g1_bad, g2_bad = _printed_variant_gammas(ch, phi)
            printed_max_dev = max(
                printed_max_dev,
                abs(g1_bad - numeric.gamma1),
                abs(g2_bad - numeric.gamma2),
            )
    # Negative control: the cos^2(2*phi) variant must fail the same test.
    assert printed_max_dev > 1e-3
    g1_bad, _ = _printed_variant_gammas(LAMBDA, 3.0 * math.pi / 8.0)
    assert abs(g1_bad - numeric_xstate_params(LAMBDA, 3.0 * math.pi / 8.0).gamma1) > 1e-3
    _report(
        3,
        t0,
        f"closed form tracks the numeric diagonalization to 1e-10; "
        f"cos^2(2phi) variant fails by up to {printed_max_dev:.3f}",
    )


def test_criterion_04_channel_oracle_equivalence():
    t0 = time.perf_counter()
    phis = [k * math.pi / 8.0 for k in range(9)]
    times = np.linspace(0.0, 9.8, 50)
    worst = 0.0
    for ch in CHANNELS.values():
        for phi in phis:
            rho0 = density_matrix(ch, phi)
            for mu in (0.0, 0.3, 0.6, 0.8, 1.0):
                for tau in (0.1, 5.0):
                    cfg = ChannelConfig(mu=mu, tau=tau)
                    for t in times:
                        direct = evolve(rho0, float(t), cfg).matrix
                        k = memory_kernel(float(t), cfg).k
                        jp = joint_probabilities(flip_probability(k), mu)
                        composed = kraus_apply(rho0, jp).matrix
                        worst = max(worst, float(np.max(np.abs(direct - composed))))
    assert worst <= 1e-12
    _report(4, t0, f"closed-form evolution equals the Kraus sum (max dev {worst:.2e})")


def test_criterion_05_kernel_contract():
    t0 = time.perf_counter()
    taus = (0.05, 0.1, 0.25 - 1e-9, 0.25, 0.25 + 1e-9, 1.0, 5.0)
    grid = np.arange(0.0, 50.0 + 1e-12, 0.01)
    h = 1e-4
    for tau in taus:
        cfg = ChannelConfig(mu=0.0, tau=tau)
        k0 = memory_kernel(0.0, cfg).k
        assert k0 == 1.0
        slope = (
            -3.0 * k0
            + 4.0 * memory_kernel(h, cfg).k
            - memory_kernel(2.0 * h, cfg).k
        ) / (2.0 * h)
        assert abs(slope) < 1e-6
        samples = np.array([memory_kernel(float(t), cfg).k for t in grid])
        assert np.max(np.abs(samples)) <= 1.0 + 1e-12
        if 4.0 * tau < 1.0 - 1e-12:
            assert np.all(np.diff(samples) <= 1e-15)
            assert np.all(samples >= 0.0)
    nm = np.array([memory_kernel(float(t), ChannelConfig(mu=0.0, tau=5.0)).k for t in grid])
    sign_changes = int(np.sum(np.sign(nm)[:-1] * np.sign(nm)[1:] < 0))
    assert sign_changes >= 2
    _report(
        5,
        t0,
        f"K(0)=1, flat initial slope, |K|<=1, Markovian monotone, "
        f"{sign_changes} sign changes at tau=5",
    )


def test_criterion_06_steering_values():
    t0 = time.perf_counter()
    res = steering(density_matrix(LAMBDA, HALF_PI))
    assert abs(res.s_ab - 0.1719) <= 1e-3
    assert abs(res.s_ba - 0.1719) <= 1e-3
    assert res.delta_s == 0.0
    assert res.steering_class is SteeringClass.TWO_WAY
    for phi in (0.0, math.pi):
        rho0 = density_matrix(LAMBDA, phi)
        for mu in (0.0, 0.5, 1.0):
            cfg = ChannelConfig(mu=mu, tau=0.1)
            for t in np.linspace(0.0, 20.0, 41):
                out = steering(evolve(rho0, float(t), cfg))
                assert out.s_ab == 0.0 and out.s_ba == 0.0
    _report(6, t0, "S = 0.1719 two-way at phi=pi/2, identically zero at phi in {0, pi}")


def test_criterion_07_steady_state_entanglement():
    t0 = time.perf_counter()
    rho0 = density_matrix(LAMBDA, HALF_PI)
    for tau in (0.1, 5.0):
        cfg = ChannelConfig(mu=0.8, tau=tau)
        late = evolve(rho0, 400.0, cfg)
        e_late = entanglement_of_formation(concurrence(late))
        assert abs(e_late - entanglement_of_formation(0.8 * 0.475)) <= 1e-12
        assert abs(e_late - 0.231) <= 1e-3
        assert abs(e_late - 0.22) <= 0.015
    _report(7, t0, "E(t->inf) = eof(0.8*0.475) = 0.2307 in both regimes")


def test_criterion_08_gqd_closed_chain():
    t0 = time.perf_counter()
    rho0 = density_matrix(LAMBDA, HALF_PI)
    worst = 0.0
    for k in range(101):
        eta = k / 100.0
        got = geometric_discord(dephase(rho0, eta))
        worst = max(worst, abs(got - 0.5 * min(eta, 0.475)))
    assert worst <= 1e-10
    assert abs(geometric_discord(rho0) - 0.2375) <= 1e-12
    for mu in (0.475, 0.6, 0.8, 1.0):
        for tau in (0.1, 5.0):
            cfg = ChannelConfig(mu=mu, tau=tau)
            for t in np.linspace(0.0, 30.0, 31):
                val = geometric_discord(evolve(rho0, float(t), cfg))
                assert abs(val - 0.2375) <= 1e-12
    _report(8, t0, "D_G = min(eta, 0.475)/2 at phi=pi/2; constant in time for mu >= 0.475")


def test_criterion_09_coherence_maxima():
    t0 = time.perf_counter()
    for phi in (0.0, HALF_PI, math.pi):
        assert abs(coherence_l1(density_matrix(LAMBDA, phi)) - 1.0) <= 1e-9
    assert abs(coherence_l1(density_matrix(LAMBDA, math.pi / 4.0)) - 0.9188) <= 1e-3
    _report(9, t0, "C_l1 = 1 at phi in {0, pi/2, pi} and 0.9188 at pi/4")


def test_criterion_10_hierarchy_suite():
    t0 = time.perf_counter()
    eps = 1e-12
    phis = tuple(k * math.pi / 40.0 for k in range(41))
    mus = (0.0, 0.3, 0.6, 0.8, 1.0)
    taus = (0.1, 5.0)
    tgrid = TimeGrid(0.0, 50.0, 0.5)
    violations = 0
    rows_seen = 0
    witness_sep_entanglement = False
    for name in CHANNELS:
        result = run_sweep(SweepGrid(name, phis, mus, taus, tgrid), workers=4)
        rows_seen += len(result.rows)
        for row in result.rows:
            r = row.record
            chain = (r.steering.s_ab, r.concurrence, r.gqd, r.coherence_l1)
            for lo, hi in zip(chain, chain[1:]):
                if lo > eps and hi <= eps:
                    violations += 1
            if name == "lambda" and row.phi == 0.0 and row.time > 0.0:
                # Separation witness: coherence alive with zero discord.
                assert r.gqd <= eps
                if row.tau == 0.1:
                    assert r.coherence_l1 > eps
            if (
                name == "lambda"
                and abs(row.phi - HALF_PI) < 1e-9
                and row.mu == 0.0
                and row.tau == 0.1
                and r.steering.s_ab == 0.0
                and r.concurrence > eps
            ):
                witness_sep_entanglement = True
    assert rows_seen == 4 * 41 * 5 * 2 * 101
    assert violations == 0
    assert witness_sep_entanglement
    _report(
        10,
        t0,
        f"steering => entanglement => discord => coherence on {rows_seen} grid "
        f"points, zero violations, separation witnesses present",
    )


def test_criterion_11_full_correlation_freezes_all_measures():
    t0 = time.perf_counter()
    for tau in (0.1, 5.0):
        for phi in (math.pi / 3.0, HALF_PI):
            grid = SweepGrid("lambda", (phi,), (1.0,), (tau,), TimeGrid(0.0, 50.0, 0.5))
            rows = run_sweep(grid).rows
            base = rows[0].record
            for row in rows[1:]:
                r = row.record
                assert abs(r.steering.s_ab - base.steering.s_ab) <= 1e-12
                assert abs(r.concurrence - base.concurrence) <= 1e-12
                assert abs(r.eof - base.eof) <= 1e-12
                assert abs(r.gqd - base.gqd) <= 1e-12
                assert abs(r.coherence_l1 - base.coherence_l1) <= 1e-12
    _report(11, t0, "mu = 1 freezes every measure in both regimes")


def test_criterion_12_vanishing_condition_replaces_printed_timing():
    t0 = time.perf_counter()
    rho0 = density_matrix(LAMBDA, HALF_PI)
    _, _, inner = steering_bounds(rho0)
    eta_star = math.sqrt(inner) / rho0.rho23.real
    assert abs(eta_star - 0.8523) <= 1e-3
    k2_star = (eta_star - 0.8) / 0.2
    assert abs(k2_star - 0.2615) <= 5e-3

    cfg = ChannelConfig(mu=0.8, tau=0.1)

    def steerable(t: float) -> bool:
        return steering(evolve(rho0, t, cfg)).s_ab > 0.0

    assert steerable(0.0) and not steerable(20.0)
    t_star = threshold_bisect(lambda t: not steerable(t), 0.0, 20.0)
    assert abs(decoherence_factor(t_star, cfg) - eta_star) <= 1e-9
    # The implemented kernel puts the vanishing time nowhere near 0.8.
    assert abs(t_star - 6.746) <= 0.01
    assert t_star > 2.0

    # Companion number recorded in docs/errata.md: the 1/v-coefficient
    # kernel variant crosses the same threshold much earlier.
    u = 5.0
    v = math.sqrt(u * u - 1.0)

    def variant_kernel(t: float) -> float:
        return math.exp(-u * t) * (math.cosh(v * t) + math.sinh(v * t) / v)

    t_variant = threshold_bisect(
        lambda t: variant_kernel(t) ** 2 < k2_star, 0.0, 20.0
    )
    assert abs(t_variant - 1.622) <= 0.01
    _report(
        12,
        t0,
        f"steering dies at eta = {eta_star:.4f} (K^2 = {k2_star:.4f}); "
        f"t* = {t_star:.3f} (u/v kernel) vs {t_variant:.3f} (1/v variant), not 0.8",
    )


def test_criterion_13_determinism():
    t0 = time.perf_counter()
    import tempfile

    env = dict(os.environ)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"run{i}.csv") for i in range(4)]
        for i, path in enumerate(paths):
            run_env = dict(env)
            run_env["HYPERSPIN_THREADS"] = "1" if i == 2 else "4"
            proc = subprocess.run(
                [sys.executable, "-m", "hyperspin", "sweep", "--figure", "m08", "--out", path],
                capture_output=True,
                text=True,
                env=run_env,
                timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
        blobs = [open(p, "rb").read() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2] == blobs[3]
        assert blobs[0].count(b"\n") == 502
    _report(13, t0, "repeated and differently-threaded m08 sweeps are byte-identical")
