import math

import numpy as np
import pytest
from conftest import (
    binary_entropy,
    pauli_expectation,
    random_x_state,
    threshold_bisect,
    wootters_concurrence_general,
    wootters_concurrence_x,
    x_state,
)

from hyperspin import (
    CHANNELS,
    ChannelConfig,
    DomainError,
    FanoBloch,
    SteeringClass,
    SweepGrid,
    TimeGrid,
    channel_params,
    coherence_l1,
    concurrence,
    concurrence_closed,
    decoherence_factor,
    dephase,
    density_matrix,
    entanglement_of_formation,
    evolve,
    fano_bloch,
    geometric_discord,
    measure_all,
    memory_kernel,
    run_sweep,
    steering,
    steering_bounds,
    steering_operator,
)
from hyperspin.channel import _eta_outside
from hyperspin.linalg import partial_trace
from hyperspin.measures import GQD_DENOMINATOR_ATOL, _bloch_outside, _concurrence_outside
from hyperspin.production import DensityMatrix4

HALF_PI = math.pi / 2.0
SQRT3 = math.sqrt(3.0)
LAMBDA = channel_params("lambda")
PHI_GRID = [k * math.pi / 20.0 for k in range(21)]
ETA_GRID = [k / 100.0 for k in range(101)]


def maximally_mixed() -> DensityMatrix4:
    return DensityMatrix4(np.eye(4, dtype=complex) / 4.0)


def _partial_transpose_negative(rho, direction):
    t = steering_operator(rho, direction)
    t_pt = t.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return np.linalg.eigvalsh(t_pt).min() < 0.0


@pytest.mark.parametrize(
    ("entries", "expected"),
    [
        ((0.2034, 0.2554, 0.5230, 0.0182, 0.0347, 0.2687), SteeringClass.ONE_WAY_AB),
        ((0.2034, 0.5230, 0.2554, 0.0182, 0.0347, 0.2687), SteeringClass.ONE_WAY_BA),
        ((0.1, 0.4, 0.35, 0.15, 0.05, 0.37), SteeringClass.TWO_WAY),
        ((0.35, 0.2, 0.3, 0.15, 0.02, 0.1), SteeringClass.NO_WAY),
    ],
)
def test_steering_class_follows_the_operator_in_each_direction(entries, expected):
    # a != d and b != c, so the direction bias is nonzero; produced states
    # have b == c and never steer one way only.
    rho = x_state(*entries)
    res = steering(rho)
    assert res.steering_class is expected
    assert (res.s_ab > 0.0) == _partial_transpose_negative(rho, "ab")
    assert (res.s_ba > 0.0) == _partial_transpose_negative(rho, "ba")
    assert res.delta_s == abs(res.s_ab - res.s_ba)


def test_steering_operator_fixed_point():
    tau_op = steering_operator(maximally_mixed(), "ab")
    assert np.max(np.abs(tau_op - np.eye(4) / 4.0)) < 1e-14


def test_steering_operator_unit_trace_random_states():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = random_x_state(rng)
        for direction in ("ab", "ba"):
            op = steering_operator(rho, direction)
            assert abs(np.trace(op).real - 1.0) < 1e-12
            assert np.max(np.abs(op - op.conj().T)) < 1e-12


def test_steering_operator_lambda_entries():
    rho = density_matrix(LAMBDA, HALF_PI)
    op = steering_operator(rho, "ba")
    s = (3.0 - SQRT3) / 6.0 * (rho.rho11 + rho.rho22)
    q = (3.0 - SQRT3) / 6.0 * (rho.rho33 + rho.rho44)
    assert abs(op[0, 0] - (rho.rho11 / SQRT3 + s)) < 1e-14
    assert abs(op[1, 1] - (rho.rho22 / SQRT3 + s)) < 1e-14
    assert abs(op[2, 2] - (rho.rho33 / SQRT3 + q)) < 1e-14
    assert abs(op[3, 3] - (rho.rho44 / SQRT3 + q)) < 1e-14
    assert abs(op[0, 3] - rho.rho14 / SQRT3) < 1e-14


def test_steering_matches_its_operator_oracle():
    """``steering`` equals the entanglement test on ``steering_operator`` in
    each direction, and is positive exactly where the operator's partial
    transpose has a negative eigenvalue."""
    for ch in CHANNELS.values():
        for i in range(61):
            rho0 = density_matrix(ch, i * math.pi / 60.0)
            for j in range(41):
                rho = dephase(rho0, j / 40.0)
                res = steering(rho)
                for direction, s in (("ab", res.s_ab), ("ba", res.s_ba)):
                    t = steering_operator(rho, direction)
                    branches = (
                        abs(t[0, 3]) ** 2 - (t[1, 1] * t[2, 2]).real,
                        abs(t[1, 2]) ** 2 - (t[0, 0] * t[3, 3]).real,
                    )
                    assert abs(max(0.0, 8.0 * SQRT3 * max(branches)) - s) <= 1e-14
                    t_pt = t.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
                    assert (np.linalg.eigvalsh(t_pt).min() < 0.0) == (s > 0.0)


def test_steering_bounds_lambda_half_pi():
    corner, bias, inner = steering_bounds(density_matrix(LAMBDA, HALF_PI))
    a, b = 0.13125, 0.36875
    want_corner = 0.5 * (2.0 - SQRT3) * a * a + 0.5 * (2.0 + SQRT3) * b * b + 0.25 * (
        2 * a
    ) * (2 * b)
    want_inner = 0.5 * (2.0 + SQRT3) * a * a + 0.5 * (2.0 - SQRT3) * b * b + 0.25 * (
        2 * a
    ) * (2 * b)
    assert abs(corner - want_corner) < 1e-15
    assert abs(inner - want_inner) < 1e-15
    assert bias == 0.0
    assert abs(corner - 0.304442) < 1e-5
    assert abs(inner - 0.098761) < 1e-5


def test_steering_bounds_uniform_diagonal_coincide():
    corner, bias, inner = steering_bounds(density_matrix(LAMBDA, 0.0))
    assert abs(corner - inner) < 1e-15
    assert bias == 0.0


def test_steering_bounds_maximally_mixed():
    corner, bias, inner = steering_bounds(maximally_mixed())
    assert abs(corner - 3.0 / 16.0) < 1e-15
    assert abs(inner - 3.0 / 16.0) < 1e-15
    assert bias == 0.0


def test_steering_lambda_half_pi_two_way():
    res = steering(density_matrix(LAMBDA, HALF_PI))
    want = (8.0 / SQRT3) * (0.36875**2 - steering_bounds(density_matrix(LAMBDA, HALF_PI))[2])
    assert abs(res.s_ab - want) < 1e-14
    assert abs(res.s_ab - 0.1719) < 1e-3
    assert res.s_ab == res.s_ba
    assert res.delta_s == 0.0
    assert res.steering_class is SteeringClass.TWO_WAY


def test_steering_vanishes_at_phi_boundaries():
    for phi in (0.0, math.pi):
        rho0 = density_matrix(LAMBDA, phi)
        for eta in (1.0, 0.7, 0.2, 0.0):
            res = steering(dephase(rho0, eta))
            assert res.s_ab == 0.0
            assert res.s_ba == 0.0
            assert res.steering_class is SteeringClass.NO_WAY


def test_steering_threshold_in_survival_factor():
    rho0 = density_matrix(LAMBDA, HALF_PI)
    _, _, inner = steering_bounds(rho0)
    analytic = math.sqrt(inner) / rho0.rho23.real
    numeric = threshold_bisect(lambda e: steering(dephase(rho0, e)).s_ab > 0.0, 0.5, 1.0)
    assert abs(numeric - analytic) < 1e-9
    assert abs(analytic - 0.8523) < 1e-3


def test_concurrence_lambda_half_pi():
    assert abs(concurrence(density_matrix(LAMBDA, HALF_PI)) - 0.475) < 1e-14


def test_concurrence_separable_corner():
    assert concurrence(density_matrix(LAMBDA, 0.0)) == 0.0


def test_concurrence_steady_state_value():
    rho0 = density_matrix(LAMBDA, HALF_PI)
    assert abs(concurrence(dephase(rho0, 0.8)) - 0.38) < 1e-14


def test_concurrence_matches_wootters_at_full_coherence():
    for ch in CHANNELS.values():
        for phi in PHI_GRID:
            rho = density_matrix(ch, phi)
            spectral = wootters_concurrence_x(
                rho.rho11, rho.rho22, rho.rho33, rho.rho44, rho.rho14, rho.rho23
            )
            assert abs(concurrence(rho) - spectral) < 1e-12
            general = wootters_concurrence_general(rho.matrix)
            assert abs(concurrence(rho) - general) < 5e-8


def test_wootters_x_spectrum_matches_general_eigensolver():
    rng = np.random.default_rng(5)
    for _ in range(25):
        rho = random_x_state(rng)
        a = wootters_concurrence_x(
            rho.rho11, rho.rho22, rho.rho33, rho.rho44, rho.rho14, rho.rho23
        )
        b = wootters_concurrence_general(rho.matrix)
        assert abs(a - b) < 1e-8


def test_concurrence_closed_form_examples():
    assert abs(concurrence_closed(LAMBDA, HALF_PI, 1.0) - 0.475) < 1e-14
    assert concurrence_closed(LAMBDA, 0.0, 0.3) < 1e-15
    assert abs(concurrence_closed(channel_params("sigma+"), HALF_PI, 1.0) - 0.508) < 1e-14


def test_concurrence_closed_form_matches_evolved_measure():
    cfg = ChannelConfig(mu=0.6, tau=0.1)
    for ch in CHANNELS.values():
        for phi in PHI_GRID:
            rho0 = density_matrix(ch, phi)
            for t in (0.0, 0.4, 1.5, 6.0):
                eta = decoherence_factor(t, cfg)
                got = concurrence(evolve(rho0, t, cfg))
                assert abs(got - concurrence_closed(ch, phi, eta)) < 1e-12


def test_eof_endpoints_and_monotonicity():
    assert entanglement_of_formation(0.0) == 0.0
    assert abs(entanglement_of_formation(1.0) - 1.0) < 1e-15
    values = [entanglement_of_formation(c) for c in np.linspace(0.0, 1.0, 51)]
    assert all(a < b for a, b in zip(values, values[1:]))
    with pytest.raises(DomainError):
        entanglement_of_formation(1.01)
    with pytest.raises(DomainError):
        entanglement_of_formation(-0.01)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: entanglement_of_formation("0.5"), "concurrence must be a real number, got '0.5'"),
        (lambda: entanglement_of_formation(None), "concurrence must be a real number, got None"),
        (lambda: concurrence_closed(LAMBDA, 1.0, "0.5"), "eta must be a real number, got '0.5'"),
        (lambda: FanoBloch(None, 0.1, 0, 0, 0), "r11 must be a real number, got None"),
        (lambda: FanoBloch(0.1, "0.5", 0, 0, 0), "r22 must be a real number, got '0.5'"),
        (
            lambda: FanoBloch(0.1, 0.1, 0, 0, np.array([0.1, 0.2])),
            "r30 must be a real number, got array([0.1, 0.2])",
        ),
    ],
    ids=["eof-str", "eof-none", "closed-eta-str", "bloch-none", "bloch-str", "bloch-array"],
)
def test_a_scalar_of_a_wrong_type_is_a_domain_error(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def test_eof_steady_state_value():
    got = entanglement_of_formation(0.38)
    direct = binary_entropy(0.5 * (1.0 + math.sqrt(1.0 - 0.38**2)))
    assert abs(got - direct) < 1e-15
    assert abs(got - 0.2307) < 1e-4


def test_eof_matches_reduced_entropy_for_pure_states():
    rng = np.random.default_rng(23)
    for _ in range(10):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        c = 2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2])
        marginal = partial_trace(np.outer(psi, psi.conj()), "first")
        lam = np.linalg.eigvalsh(marginal)[1]
        assert abs(entanglement_of_formation(c) - binary_entropy(lam)) < 1e-10


def test_fano_bloch_lambda_half_pi():
    r = fano_bloch(density_matrix(LAMBDA, HALF_PI))
    assert abs(r.r11 - 1.0) < 1e-14
    assert abs(r.r22 - 0.475) < 1e-14
    assert abs(r.r33 + 0.475) < 1e-14
    assert abs(r.r03) < 1e-15
    assert abs(r.r30) < 1e-15


def test_fano_bloch_maximally_mixed():
    r = fano_bloch(maximally_mixed())
    assert r.r11 == r.r22 == r.r33 == r.r03 == r.r30 == 0.0


def test_fano_bloch_phi0_tracks_survival_factor():
    rho0 = density_matrix(LAMBDA, 0.0)
    for eta in (1.0, 0.6, 0.15):
        r = fano_bloch(dephase(rho0, eta))
        assert abs(r.r11 - eta) < 1e-14
        assert abs(r.r22) < 1e-14
        assert abs(r.r33) < 1e-14
        assert abs(r.r03) < 1e-15


def test_fano_bloch_matches_trace_definitions():
    for ch in CHANNELS.values():
        for phi in PHI_GRID:
            for eta in (1.0, 0.55):
                rho = dephase(density_matrix(ch, phi), eta)
                r = fano_bloch(rho)
                m = rho.matrix
                assert abs(r.r11 - pauli_expectation(m, 1, 1)) < 1e-12
                assert abs(r.r22 - pauli_expectation(m, 2, 2)) < 1e-12
                assert abs(r.r33 - pauli_expectation(m, 3, 3)) < 1e-12
                assert abs(r.r03 - pauli_expectation(m, 0, 3)) < 1e-12
                assert abs(r.r30 - pauli_expectation(m, 3, 0)) < 1e-12
                assert abs(r.r03 - r.r30) < 1e-12


@pytest.mark.parametrize(
    ("diagonal", "r14"),
    [
        # Both pass the constructor's positivity check within PSD_ATOL.
        ((0.5, 0.0, 0.0, 0.5), 0.5 + 5e-10),
        ((0.5 + 5e-10, -5e-10, 0.0, 0.5), 0.0),
    ],
    ids=["r11", "r33"],
)
def test_gqd_rejects_bloch_component_out_of_range_as_fano_bloch(diagonal, r14):
    m = np.diag(diagonal).astype(complex)
    m[0, 3] = m[3, 0] = r14
    rho = DensityMatrix4(m)
    with pytest.raises(DomainError) as from_fano_bloch:
        fano_bloch(rho)
    with pytest.raises(DomainError) as from_discord:
        geometric_discord(rho)
    assert str(from_discord.value) == str(from_fano_bloch.value)
    assert str(from_discord.value).startswith("Bloch component 1.000000001 outside")


@pytest.mark.parametrize(
    ("outside", "lo", "hi"),
    [
        (_eta_outside, 0.0, 1.0 + 1e-12),
        (_concurrence_outside, -1e-12, 1.0 + 1e-12),
        (_bloch_outside, -1.0 - 1e-12, 1.0 + 1e-12),
    ],
    ids=["eta", "concurrence", "bloch"],
)
def test_domain_predicates_agree_on_floats_and_columns(outside, lo, hi):
    # One predicate per quantity serves the scalar checks and the sweep's mask.
    edges = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
    values = [*edges, 0.5, -0.0, math.nan, math.inf, -math.inf]
    want = [not lo <= v <= hi for v in values]
    assert [outside(v) for v in values] == want
    assert outside(np.array(values)).tolist() == want


def test_gqd_lambda_half_pi():
    assert abs(geometric_discord(density_matrix(LAMBDA, HALF_PI)) - 0.2375) < 1e-14


def test_gqd_peaks_off_half_pi_at_full_coherence():
    # docs/errata.md: the local Bloch term r30, zero only at pi/2, moves the
    # maximum of the undephased (t = 0) state to 72 and 108 degrees.
    gqd = [geometric_discord(density_matrix(LAMBDA, math.radians(k))) for k in range(181)]
    peak = max(gqd)
    assert [k for k, v in enumerate(gqd) if peak - v < 1e-12] == [72, 108]
    assert abs(peak - 0.245615) < 1e-6
    assert abs(gqd[90] - 0.2375) < 1e-14


def test_gqd_branch_structure_at_half_pi():
    rho0 = density_matrix(LAMBDA, HALF_PI)
    for eta in ETA_GRID:
        got = geometric_discord(dephase(rho0, eta))
        assert abs(got - 0.5 * min(eta, 0.475)) < 1e-10


def test_gqd_vanishes_at_phi0_while_coherence_survives():
    rho0 = density_matrix(LAMBDA, 0.0)
    for eta in (1.0, 0.5, 0.12):
        rho = dephase(rho0, eta)
        assert geometric_discord(rho) == 0.0
        assert abs(coherence_l1(rho) - eta) < 1e-14


def test_coherence_diagonal_state():
    rho = DensityMatrix4(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    assert coherence_l1(rho) == 0.0


def test_coherence_tracks_survival_factor_at_half_pi():
    rho0 = density_matrix(LAMBDA, HALF_PI)
    for eta in (1.0, 0.73, 0.2):
        assert abs(coherence_l1(dephase(rho0, eta)) - eta) < 1e-12


def test_coherence_angular_profile():
    assert abs(coherence_l1(density_matrix(LAMBDA, 0.0)) - 1.0) < 1e-12
    assert abs(coherence_l1(density_matrix(LAMBDA, HALF_PI)) - 1.0) < 1e-12
    assert abs(coherence_l1(density_matrix(LAMBDA, math.pi)) - 1.0) < 1e-12
    quarter = coherence_l1(density_matrix(LAMBDA, math.pi / 4.0))
    assert abs(quarter - 0.9188) < 1e-3
    assert quarter < 1.0


def test_coherence_is_generic_offdiagonal_sum():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rho = random_x_state(rng)
        want = 2.0 * abs(rho.rho23) + 2.0 * abs(rho.rho14)
        assert abs(coherence_l1(rho) - want) < 1e-12


def test_measure_all_initial_point():
    rec = measure_all(density_matrix(LAMBDA, HALF_PI), 1.0, 1.0)
    assert abs(rec.steering.s_ab - 0.1719) < 1e-3
    assert abs(rec.concurrence - 0.475) < 1e-14
    assert abs(rec.eof - 0.3275) < 1e-4
    assert abs(rec.gqd - 0.2375) < 1e-14
    assert abs(rec.coherence_l1 - 1.0) < 1e-12
    assert rec.eta == 1.0 and rec.kernel == 1.0


def test_measure_all_frozen_channel():
    rho0 = density_matrix(LAMBDA, HALF_PI)
    cfg = ChannelConfig(mu=1.0, tau=0.1)
    base = measure_all(evolve(rho0, 0.0, cfg), 1.0, memory_kernel(0.0, cfg).k)
    for t in (0.9, 12.0, 99.0):
        k = memory_kernel(t, cfg).k
        rec = measure_all(evolve(rho0, t, cfg), decoherence_factor(t, cfg), k)
        assert rec.steering.s_ab == base.steering.s_ab
        assert rec.concurrence == base.concurrence
        assert rec.eof == base.eof
        assert rec.gqd == base.gqd
        assert rec.coherence_l1 == base.coherence_l1


def test_measure_all_phi0_hierarchy_separation():
    cfg = ChannelConfig(mu=0.0, tau=0.1)
    t = 1.0
    k = memory_kernel(t, cfg).k
    rec = measure_all(evolve(density_matrix(LAMBDA, 0.0), t, cfg), k * k, k)
    assert rec.steering.s_ab == 0.0
    assert rec.concurrence == 0.0
    assert rec.eof == 0.0
    assert rec.gqd == 0.0
    assert abs(rec.coherence_l1 - k * k) < 1e-14


def test_measures_monotone_in_survival_factor():
    etas = np.linspace(0.0, 1.0, 41)
    for name in ("lambda", "sigma+"):
        rho0 = density_matrix(channel_params(name), 1.1)
        prev = None
        for eta in etas:
            rho = dephase(rho0, float(eta))
            now = (
                steering(rho).s_ab,
                concurrence(rho),
                entanglement_of_formation(concurrence(rho)),
                geometric_discord(rho),
                coherence_l1(rho),
            )
            if prev is not None:
                for lo, hi in zip(prev, now):
                    assert hi >= lo - 1e-12
            prev = now


def test_steering_is_symmetric_for_produced_states():
    # Equal inner populations kill the direction bias, so only two-way or
    # no-way steering can occur for this family.
    for name in CHANNELS:
        ch = channel_params(name)
        for phi in PHI_GRID:
            rho0 = density_matrix(ch, phi)
            for eta in (1.0, 0.9, 0.5, 0.0):
                res = steering(dephase(rho0, eta))
                assert abs(res.s_ab - res.s_ba) < 1e-12
                assert res.delta_s < 1e-12
                assert res.steering_class in (SteeringClass.TWO_WAY, SteeringClass.NO_WAY)


def test_hierarchy_chain_on_compact_grid():
    eps = 1e-12
    for name in ("lambda", "xi0"):
        ch = channel_params(name)
        for phi in PHI_GRID:
            rho0 = density_matrix(ch, phi)
            for mu in (0.0, 0.6, 1.0):
                cfg = ChannelConfig(mu=mu, tau=0.1)
                for t in np.linspace(0.0, 5.0, 11):
                    k = memory_kernel(float(t), cfg).k
                    rec = measure_all(
                        evolve(rho0, float(t), cfg), decoherence_factor(float(t), cfg), k
                    )
                    chain = (rec.steering.s_ab, rec.concurrence, rec.gqd, rec.coherence_l1)
                    for lo, hi in zip(chain, chain[1:]):
                        assert not (lo > eps and hi <= eps)


def _squared_measures(rho, square):
    """``s_ab``, ``s_ba`` and ``gqd`` of ``rho``, every square written as ``square(x)``."""
    corner, bias, inner = steering_bounds(rho)
    w2 = square(abs(rho.rho14))
    z2 = square(abs(rho.rho23))
    scale = 8.0 / SQRT3
    s_ab = max(0.0, scale * max(w2 - corner - bias, z2 - inner - bias))
    s_ba = max(0.0, scale * max(w2 - corner + bias, z2 - inner + bias))
    f = fano_bloch(rho)
    r11sq, r22sq, r33sq = square(f.r11), square(f.r22), square(f.r33)
    rmax_sq = max(r22sq + square(f.r30), r33sq)
    rmin_sq = min(r11sq, r33sq)
    den = rmax_sq - rmin_sq + r11sq - r22sq
    num = max(r11sq * rmax_sq - r22sq * rmin_sq, 0.0)
    gqd = 0.0 if den < GQD_DENOMINATOR_ATOL else 0.5 * math.sqrt(num / den)
    return tuple(map(float.hex, (s_ab, s_ba, gqd)))


def test_squares_are_products_on_both_paths():
    # Scan a fixed grid for rows where ``x ** 2`` (libm pow) and ``x * x``
    # give different bits; there both paths must give the product's bits.
    grid = SweepGrid(
        "lambda",
        tuple(k * math.pi / 36 for k in range(37)),
        (0.0, 0.5, 0.8),
        (0.1, 5.0),
        TimeGrid(0.0, 2.0, 0.05),
    )
    states = {phi: density_matrix(LAMBDA, phi) for phi in grid.phi}
    names = ("s_ab", "s_ba", "gqd")
    seen = set()
    for row in run_sweep(grid).rows:
        rho = dephase(states[row.phi], row.record.eta)
        want = _squared_measures(rho, lambda x: x * x)
        by_pow = _squared_measures(rho, lambda x: x**2)
        if want == by_pow:
            continue
        seen.update(name for name, a, b in zip(names, want, by_pow) if a != b)
        for record in (measure_all(rho, row.record.eta, row.record.kernel), row.record):
            got = (record.steering.s_ab, record.steering.s_ba, record.gqd)
            assert tuple(map(float.hex, got)) == want, (row, got)
    assert seen == set(names)
