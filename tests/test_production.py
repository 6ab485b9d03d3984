import math

import numpy as np
import pytest
from conftest import pauli_expectation, reconstruct_pre_swap, reconstruct_x_basis

from hyperspin import (
    CHANNELS,
    coherence_l1,
    DomainError,
    HyperspinError,
    HyperonChannel,
    NotXStateError,
    UnknownChannelError,
    XStateParams,
    channel_params,
    dephase,
    density_matrix,
    numeric_xstate_params,
    phi_matrix,
    polarization,
    xstate_params,
)
from hyperspin.production import DensityMatrix4
from hyperspin.presets import _PHI_FULL

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


@pytest.mark.parametrize("name", [None, b"lambda", 1.0, ["lambda"], {"lambda": 1}, {"lambda"}])
def test_unknown_channel_of_any_type(name):
    # Unhashable names are unknown names too, not a TypeError from the lookup.
    with pytest.raises(UnknownChannelError) as err:
        channel_params(name)
    assert str(err.value) == (
        f"unknown channel {name!r}; registered: ['lambda', 'sigma+', 'xi-', 'xi0']"
    )


def test_channel_validation():
    with pytest.raises(DomainError):
        HyperonChannel("bad", 1.5, 0.0)
    with pytest.raises(DomainError):
        HyperonChannel("bad", 0.0, 4.0)


@pytest.mark.parametrize(
    "upsilon_psi, delta_theta, message",
    [
        ("0.5", 0.0, "upsilon_psi must be a real number, got '0.5'"),
        (0.5, None, "delta_theta must be a real number, got None"),
    ],
    ids=["upsilon-str", "delta-none"],
)
def test_channel_constants_of_a_wrong_type_are_a_domain_error(upsilon_psi, delta_theta, message):
    with pytest.raises(DomainError) as err:
        HyperonChannel("x", upsilon_psi, delta_theta)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "fields, message",
    [
        (("0.5", 0.1, 0, 0), "kappa must be a real number, got '0.5'"),
        ((0.0, 0.5, None, 0), "gamma2 must be a real number, got None"),
        ((0.0, 0.5, 0.1, np.array([0.1, 0.2])), "gamma3 must be a real number, got array([0.1, 0.2])"),
    ],
    ids=["kappa-str", "gamma-none", "gamma-array"],
)
def test_xstate_params_of_a_wrong_type_are_a_domain_error(fields, message):
    with pytest.raises(DomainError) as err:
        XStateParams(*fields)
    assert str(err.value) == message


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


@pytest.mark.parametrize("function", [density_matrix, xstate_params, polarization, phi_matrix])
@pytest.mark.parametrize(
    "phi, message",
    [
        ("1", "phi must be a real number, got '1'"),
        (None, "phi must be a real number, got None"),
        (np.array([0.1, 0.2]), "phi must be a real number, got array([0.1, 0.2])"),
    ],
    ids=["str", "none", "array"],
)
def test_phi_of_a_wrong_type_is_a_domain_error(function, phi, message):
    with pytest.raises(DomainError) as err:
        function(channel_params("lambda"), phi)
    assert str(err.value) == message


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


HUGE = 1.5e308 + 1.5e308j


def _quarter(**entries):
    """The maximally mixed state with entries ``eIJ=value`` overwritten."""
    m = np.eye(4, dtype=complex) / 4.0
    for key, value in entries.items():
        m[int(key[1]), int(key[2])] = value
    return m


def _huge_corner():
    m = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
    m[0, 3] = HUGE
    m[3, 0] = HUGE.conjugate()
    return m


# Each invalid input with the exception class and message it raises; the
# moduli past the float range must still end in these errors.
BAD_STATES = {
    "shape": (lambda: np.zeros((3, 3)), DomainError, "expected a 4x4 matrix, got shape (3, 3)"),
    "nan": (lambda: _quarter(e22=complex(math.nan, 0.0)), DomainError,
            "matrix entries must be finite"),
    "inf_imag": (lambda: _quarter(e03=complex(0.0, math.inf)), DomainError,
                 "matrix entries must be finite"),
    "non_hermitian": (lambda: _quarter(e03=0.1, e30=0.2), DomainError,
                      "density matrix must be Hermitian within 1e-10"),
    "complex_diagonal": (lambda: _quarter(e11=0.25 + 1e-9j), DomainError,
                         "density matrix must be Hermitian within 1e-10"),
    "hermitian_overflow": (lambda: _quarter(e01=HUGE), DomainError,
                           "density matrix must be Hermitian within 1e-10"),
    "trace": (lambda: np.eye(4, dtype=complex), DomainError,
              "density matrix trace must be 1, got 4+0j"),
    "trace_near": (lambda: _quarter() * 1.001, DomainError,
                   "density matrix trace must be 1, got 1.001+0j"),
    "off_x": (lambda: _quarter(e01=0.2, e10=0.2), NotXStateError,
              "entry (0,1) = 2.000e-01+0.000e+00j breaks the X pattern"),
    "off_x_overflow": (lambda: _quarter(e01=HUGE, e10=HUGE.conjugate()), NotXStateError,
                       "entry (0,1) = 1.500e+308+1.500e+308j breaks the X pattern"),
    "negative_corner": (lambda: _quarter(e03=0.5, e30=0.5), DomainError,
                        "density matrix has eigenvalue -2.500e-01 < 0"),
    "negative_inner": (lambda: _quarter(e12=0.3j, e21=-0.3j), DomainError,
                       "density matrix has eigenvalue -5.000e-02 < 0"),
    "corner_overflow": (_huge_corner, DomainError, "density matrix has eigenvalue -inf < 0"),
    "ragged": (lambda: [[1, 2], [3]], DomainError,
               "expected a 4x4 matrix, got a non-numeric or ragged list"),
    "non_numeric": (lambda: "abc", DomainError,
                    "expected a 4x4 matrix, got a non-numeric or ragged str"),
}  # fmt: skip


@pytest.mark.parametrize("case", sorted(BAD_STATES))
def test_density_matrix_rejects_with_class_and_message(case):
    make, cls, message = BAD_STATES[case]
    with pytest.raises(HyperspinError) as info:
        DensityMatrix4(make())
    assert type(info.value) is cls
    assert str(info.value) == message


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def assert_entries_cached(rho):
    m = rho.matrix
    for name, (i, j) in (("rho11", (0, 0)), ("rho22", (1, 1)), ("rho33", (2, 2)), ("rho44", (3, 3))):
        value = getattr(rho, name)
        assert isinstance(value, float), name
        assert value.hex() == m[i, j].real.hex(), name
    for name, (i, j) in (("rho14", (0, 3)), ("rho23", (1, 2))):
        value = getattr(rho, name)
        assert isinstance(value, complex), name
        assert _bits(value) == _bits(m[i, j]), name
    assert not m.flags.writeable


def _complex_x_states():
    rng = np.random.default_rng(11)
    for _ in range(20):
        diag = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
        w = math.sqrt(diag[0] * diag[3]) * rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(-3, 3))
        z = math.sqrt(diag[1] * diag[2]) * rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(-3, 3))
        m = np.diag(diag).astype(complex)
        m[0, 3], m[3, 0] = w, np.conj(w)
        m[1, 2], m[2, 1] = z, np.conj(z)
        yield m


def test_entries_cached_after_validated_constructor():
    for ch in CHANNELS.values():
        for phi in (0.0, 0.4, HALF_PI, 2.7, math.pi):
            assert_entries_cached(density_matrix(ch, phi))
    for m in _complex_x_states():
        assert_entries_cached(DensityMatrix4(m))
        assert_entries_cached(DensityMatrix4(m.tolist()))


def test_entries_cached_after_dephase():
    states = [density_matrix(ch, 1.1) for ch in CHANNELS.values()]
    states += [DensityMatrix4(m) for m in _complex_x_states()]
    for rho in states:
        for eta in (0.0, 0.37, 1.0):
            out = dephase(rho, eta)
            assert_entries_cached(out)
            assert out.rho11 == rho.rho11 and out.rho44 == rho.rho44
            assert _bits(out.rho14) == _bits(rho.rho14 * eta)


ENTRY_NAMES = {"rho11", "rho22", "rho33", "rho44", "rho14", "rho23"}


def test_state_holds_only_its_six_entries_until_matrix_is_read():
    m = next(_complex_x_states())
    caller_states = (DensityMatrix4(m), DensityMatrix4(m.tolist()))
    for rho in (density_matrix(CHANNELS["lambda"], 1.1), *caller_states):
        for state in (rho, dephase(rho, 0.5)):
            assert set(vars(state)) == ENTRY_NAMES
            state.matrix
            assert set(vars(state)) == ENTRY_NAMES | {"matrix"}


def _eager_density_matrix(ch, phi):
    """The production matrix as it was built before states were kept as
    their six entries: one dense array, filled entry by entry."""
    u = ch.upsilon_psi
    den = 1.0 + u * math.cos(phi) ** 2
    p_y = math.sqrt(1.0 - u**2) * math.sin(ch.delta_theta) * math.sin(phi) * math.cos(phi) / den
    g3 = -u * math.sin(phi) ** 2 / den
    rad = (1.0 + u * math.cos(2.0 * phi)) ** 2 - (1.0 - u**2) * math.sin(
        ch.delta_theta
    ) ** 2 * math.sin(2.0 * phi) ** 2
    r11 = 0.25 * (1.0 + 2.0 * p_y + g3)
    r44 = 0.25 * (1.0 - 2.0 * p_y + g3)
    r22 = (1.0 + u) / (4.0 * den)
    r14 = math.sqrt(max(rad, 0.0)) / (4.0 * den)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = r11
    m[3, 3] = r44
    m[1, 1] = r22
    m[2, 2] = r22
    m[1, 2] = r22
    m[2, 1] = r22
    m[0, 3] = r14
    m[3, 0] = r14
    return m


def _eager_dephase(m, eta):
    m = m.copy()
    for i, j in ((0, 3), (3, 0), (1, 2), (2, 1)):
        m[i, j] *= eta
    return m


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_lazy_matrix_is_bit_identical_to_eager_construction():
    for ch in CHANNELS.values():
        for phi in sorted({0.0, HALF_PI, math.pi, *_PHI_FULL}):
            rho = density_matrix(ch, phi)
            want = _eager_density_matrix(ch, phi)
            assert _same_bits(rho.matrix, want), (ch.name, phi)
            assert not rho.matrix.flags.writeable
            assert rho.matrix is rho.matrix
            for eta in (0.0, 0.3, 1.0):
                out = dephase(rho, eta)
                got = coherence_l1(out)
                assert _same_bits(out.matrix, _eager_dephase(want, eta))
                assert got == float(np.add.reduce(np.abs(out.matrix) * (1.0 - np.eye(4)), axis=None))


def test_caller_matrix_keeps_its_x_projection():
    m = _quarter(e01=1e-13, e10=1e-13, e03=0.1, e30=0.1 + 1e-14j, e12=0.2j, e21=-0.2j)
    rho = DensityMatrix4(m)
    # The X entries of m; the noise off the X and in m[3, 0] is dropped.
    want = np.zeros((4, 4), dtype=complex)
    np.fill_diagonal(want, m.diagonal().real)
    want[0, 3] = want[3, 0] = m[0, 3]  # real, its own conjugate
    want[1, 2], want[2, 1] = m[1, 2], np.conj(m[1, 2])
    assert _same_bits(rho.matrix, want)
    assert np.array_equal(rho.matrix, rho.matrix.conj().T)
    out = dephase(rho, 0.5)
    w, z = abs(out.rho14), abs(out.rho23)
    assert coherence_l1(out) == (z + w) + (w + z)
    projected = DensityMatrix4._of_entries(
        0.25, 0.25, 0.25, 0.25, complex(m[0, 3]), complex(m[1, 2])
    )
    twin = dephase(projected, 0.5)
    assert _same_bits(out.matrix, twin.matrix)
    for name in sorted(ENTRY_NAMES):
        assert _bits(getattr(out, name)) == _bits(getattr(twin, name)), name
