import math

import numpy as np
import pytest
from conftest import pauli_expectation, reconstruct_pre_swap, reconstruct_x_basis

from hyperspin import (
    CHANNELS,
    DomainError,
    HyperonChannel,
    NotXStateError,
    UnknownChannelError,
    XStateParams,
    channel_params,
    density_matrix,
    numeric_xstate_params,
    phi_matrix,
    polarization,
    xstate_params,
)
from hyperspin.production import DensityMatrix4

HALF_PI = math.pi / 2.0
PHI_GRID = [k * math.pi / 200.0 for k in range(201)]


def test_channel_registry_values():
    assert channel_params("lambda") == HyperonChannel("lambda", 0.475, 0.752)
    assert channel_params("sigma+") == HyperonChannel("sigma+", -0.508, -0.270)
    assert channel_params("xi-") == HyperonChannel("xi-", 0.586, 1.213)
    assert channel_params("xi0") == HyperonChannel("xi0", 0.514, 1.168)


def test_unknown_channel():
    with pytest.raises(UnknownChannelError):
        channel_params("proton")


def test_channel_validation():
    with pytest.raises(DomainError):
        HyperonChannel("bad", 1.5, 0.0)
    with pytest.raises(DomainError):
        HyperonChannel("bad", 0.0, 4.0)


def test_polarization_vanishes_at_boundaries():
    ch = channel_params("lambda")
    assert polarization(ch, 0.0) == 0.0
    assert abs(polarization(ch, HALF_PI)) < 1e-16
    assert abs(polarization(ch, math.pi)) < 1e-15


def test_polarization_quarter_angle():
    ch = channel_params("lambda")
    got = polarization(ch, math.pi / 4.0)
    # Independent route: rebuild the state from the correlation matrix and
    # take the transverse-spin expectation value.
    rho = reconstruct_pre_swap(ch, math.pi / 4.0)
    assert abs(got - pauli_expectation(rho, 2, 0)) < 1e-12
    assert abs(got - 0.2429) < 1e-4


def test_phi_matrix_lambda_phi0():
    f = phi_matrix(channel_params("lambda"), 0.0)
    assert f[0, 0] == 1.0
    assert f[1, 1] == 0.0  # xx
    assert f[2, 2] == 0.0  # yy
    assert abs(f[3, 3] - 1.0) < 1e-15  # zz = (u + 1)/(1 + u)
    assert f[1, 3] == 0.0
    assert f[0, 2] == 0.0


def test_phi_matrix_lambda_half_pi():
    f = phi_matrix(channel_params("lambda"), HALF_PI)
    assert abs(f[1, 1] - 1.0) < 1e-15
    assert abs(f[2, 2] + 0.475) < 1e-15
    assert abs(f[3, 3] - 0.475) < 1e-15
    assert abs(f[1, 3]) < 1e-16
    assert abs(f[0, 2]) < 1e-16


def test_phi_matrix_normalization_and_sparsity():
    populated = {(0, 0), (0, 2), (2, 0), (1, 1), (1, 3), (3, 1), (2, 2), (3, 3)}
    for ch in CHANNELS.values():
        for phi in (0.0, 0.3, 1.1, HALF_PI, 2.5, math.pi):
            f = phi_matrix(ch, phi)
            assert f[0, 0] == 1.0
            for a in range(4):
                for b in range(4):
                    if (a, b) not in populated:
                        assert f[a, b] == 0.0


def test_phi_matrix_entries_are_expectation_values():
    for name in ("lambda", "xi-"):
        ch = channel_params(name)
        for phi in (0.4, 1.0, 2.2):
            f = phi_matrix(ch, phi)
            rho = reconstruct_pre_swap(ch, phi)
            for (a, b), val in (
                ((2, 0), f[0, 2]),
                ((0, 2), f[2, 0]),
                ((1, 1), f[1, 1]),
                ((2, 2), f[2, 2]),
                ((3, 3), f[3, 3]),
                ((1, 3), f[1, 3]),
            ):
                assert abs(pauli_expectation(rho, a, b) - val) < 1e-12


def test_xstate_params_phi0():
    p = xstate_params(channel_params("lambda"), 0.0)
    assert p.kappa == 0.0
    assert abs(p.gamma1 - 1.0) < 1e-15
    assert abs(p.gamma2) < 1e-15
    assert p.gamma3 == 0.0


def test_xstate_params_lambda_half_pi():
    p = xstate_params(channel_params("lambda"), HALF_PI)
    assert abs(p.kappa) < 1e-16
    assert abs(p.gamma1 - 1.0) < 1e-15
    assert abs(p.gamma2 - 0.475) < 1e-15
    assert abs(p.gamma3 + 0.475) < 1e-15


def test_xstate_params_sigma_plus_negative_branch():
    p = xstate_params(channel_params("sigma+"), HALF_PI)
    assert abs(p.gamma2 + 0.508) < 1e-15
    assert abs(p.gamma1 - 1.0) < 1e-15


def test_xstate_closed_form_matches_numeric_diagonalization():
    for ch in CHANNELS.values():
        for phi in PHI_GRID:
            closed = xstate_params(ch, phi)
            numeric = numeric_xstate_params(ch, phi)
            assert abs(closed.kappa - numeric.kappa) < 1e-10
            assert abs(closed.gamma1 - numeric.gamma1) < 1e-10
            assert abs(closed.gamma2 - numeric.gamma2) < 1e-10
            assert abs(closed.gamma3 - numeric.gamma3) < 1e-10


def test_numeric_xstate_xi_minus_third_pi():
    closed = xstate_params(channel_params("xi-"), math.pi / 3.0)
    numeric = numeric_xstate_params(channel_params("xi-"), math.pi / 3.0)
    assert abs(closed.gamma1 - numeric.gamma1) < 1e-10
    assert abs(closed.gamma2 - numeric.gamma2) < 1e-10


def test_degenerate_radicand_is_clamped():
    # upsilon = 0.5 with a pi/2 phase makes the radicand touch zero at phi = pi/3.
    ch = HyperonChannel("synthetic", 0.5, HALF_PI)
    p = xstate_params(ch, math.pi / 3.0)
    assert abs(p.gamma1 - p.gamma2) < 1e-7


def test_density_matrix_lambda_phi0_uniform():
    rho = density_matrix(channel_params("lambda"), 0.0)
    want = 0.25 * np.array(
        [
            [1, 0, 0, 1],
            [0, 1, 1, 0],
            [0, 1, 1, 0],
            [1, 0, 0, 1],
        ],
        dtype=complex,
    )
    assert np.max(np.abs(rho.matrix - want)) < 1e-15


def test_density_matrix_lambda_half_pi_entries():
    rho = density_matrix(channel_params("lambda"), HALF_PI)
    assert abs(rho.rho11 - 0.13125) < 1e-15
    assert abs(rho.rho44 - 0.13125) < 1e-15
    assert abs(rho.rho14 - 0.13125) < 1e-15
    assert abs(rho.rho22 - 0.36875) < 1e-15
    assert abs(rho.rho23 - 0.36875) < 1e-15


def test_density_matrix_unit_trace_random_draws():
    rng = np.random.default_rng(7)
    names = sorted(CHANNELS)
    for _ in range(50):
        ch = channel_params(names[rng.integers(len(names))])
        phi = float(rng.uniform(0.0, math.pi))
        rho = density_matrix(ch, phi)
        assert abs(rho.matrix.trace().real - 1.0) < 1e-12


def test_density_matrix_matches_x_reconstruction():
    for ch in CHANNELS.values():
        for phi in (0.0, 0.35, 1.0, HALF_PI, 2.0, 2.9, math.pi):
            got = density_matrix(ch, phi).matrix
            want = reconstruct_x_basis(ch, phi)
            assert np.max(np.abs(got - want)) < 1e-12


def test_density_matrix_spectrum_matches_pre_swap_state():
    # The axis swap and block rotation are basis changes: spectra must agree.
    for ch in CHANNELS.values():
        for phi in (0.1, 0.8, HALF_PI, 2.4):
            a = np.sort(np.linalg.eigvalsh(density_matrix(ch, phi).matrix))
            b = np.sort(np.linalg.eigvalsh(reconstruct_pre_swap(ch, phi)))
            assert np.max(np.abs(a - b)) < 1e-10


def test_state_invariants_on_grid():
    for ch in CHANNELS.values():
        for k in range(181):
            phi = k * math.pi / 180.0
            rho = density_matrix(ch, phi)
            m = rho.matrix
            assert np.max(np.abs(m - m.conj().T)) < 1e-10
            assert abs(m.trace().real - 1.0) < 1e-10
            vals = np.linalg.eigvalsh(m)
            assert vals.min() > -1e-9
            assert int(np.sum(np.abs(vals) < 1e-9)) == 2
            assert rho.rho22 == rho.rho33 == rho.rho23.real


def test_reflection_symmetry_about_half_pi():
    ch = channel_params("lambda")
    for phi in (0.2, 0.7, 1.2):
        left = xstate_params(ch, phi)
        right = xstate_params(ch, math.pi - phi)
        assert abs(left.kappa + right.kappa) < 1e-12
        assert abs(polarization(ch, phi) + polarization(ch, math.pi - phi)) < 1e-12
        assert abs(left.gamma1 - right.gamma1) < 1e-12
        assert abs(left.gamma2 - right.gamma2) < 1e-12
        assert abs(left.gamma3 - right.gamma3) < 1e-12
        a = density_matrix(ch, phi)
        b = density_matrix(ch, math.pi - phi)
        assert abs(abs(a.rho14) - abs(b.rho14)) < 1e-12


def test_phi_domain_is_enforced():
    ch = channel_params("lambda")
    with pytest.raises(DomainError):
        density_matrix(ch, -0.2)
    with pytest.raises(DomainError):
        xstate_params(ch, math.pi + 0.2)


def test_xstate_params_branch_order_enforced():
    with pytest.raises(DomainError):
        XStateParams(kappa=0.0, gamma1=0.2, gamma2=0.5, gamma3=0.0)
    with pytest.raises(DomainError):
        XStateParams(kappa=1.5, gamma1=1.0, gamma2=0.0, gamma3=0.0)


def test_density_matrix_type_rejects_bad_input():
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = 0.2
    m[1, 0] = 0.2
    with pytest.raises(NotXStateError):
        DensityMatrix4(m)
    with pytest.raises(DomainError):
        DensityMatrix4(np.eye(4, dtype=complex))  # trace 4


def test_degenerate_denominator_raises_domain_error():
    # upsilon_psi = -1 makes 1 + u*cos(phi)**2 vanish at phi = 0.
    ch = HyperonChannel("x", -1.0, 0.0)
    with pytest.raises(DomainError, match="degenerate denominator"):
        density_matrix(ch, 0.0)
    with pytest.raises(DomainError, match="degenerate denominator"):
        polarization(ch, math.pi)
