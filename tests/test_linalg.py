import numpy as np
import pytest

from hyperspin import DensityMatrix4, DomainError, NotHermitianError, channel_params, density_matrix
from hyperspin.linalg import PAULI, hermitian_eigenvalues, partial_trace

RNG = np.random.default_rng(20240817)


def random_complex(shape):
    return RNG.normal(size=shape) + 1j * RNG.normal(size=shape)


def test_pauli_constants():
    assert np.array_equal(PAULI[0], np.eye(2))
    assert np.array_equal(PAULI[1] @ PAULI[1], np.eye(2))
    assert np.allclose(PAULI[1] @ PAULI[2], 1j * PAULI[3])
    assert PAULI[2][0, 1] == -1j


def test_partial_trace_maximally_mixed():
    out = partial_trace(np.eye(4) / 4.0, "first")
    assert np.max(np.abs(out - np.eye(2) / 2.0)) < 1e-12


def test_partial_trace_product_state():
    ket = np.zeros(4)
    ket[0] = 1.0
    rho = np.outer(ket, ket)
    out = partial_trace(rho, "first")
    assert np.max(np.abs(out - np.diag([1.0, 0.0]))) < 1e-12


def test_partial_trace_bell_state():
    bell = np.zeros(4)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(bell, bell)
    for keep in ("first", "second"):
        out = partial_trace(rho, keep)
        assert np.max(np.abs(out - np.eye(2) / 2.0)) < 1e-12


def test_partial_trace_preserves_trace_and_hermiticity():
    m = random_complex((4, 4))
    m = m + m.conj().T
    for keep in ("first", "second"):
        out = partial_trace(m, keep)
        assert abs(np.trace(out) - np.trace(m)) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_partial_trace_recovers_kron_factors():
    a = random_complex((2, 2))
    a = a + a.conj().T
    b = random_complex((2, 2))
    b = b + b.conj().T + 4.0 * np.eye(2)  # keep trace away from zero
    prod = np.kron(a, b)
    assert np.max(np.abs(partial_trace(prod, "first") / np.trace(b) - a)) < 1e-12
    assert np.max(np.abs(partial_trace(prod, "second") / np.trace(a) - b)) < 1e-12


def test_hermitian_eigenvalues_diagonal():
    vals = hermitian_eigenvalues(np.diag([4.0, 3.0, 2.0, 1.0]).astype(complex))
    assert np.array_equal(vals, [4.0, 3.0, 2.0, 1.0])


def test_hermitian_eigenvalues_scalar_matrix():
    vals = hermitian_eigenvalues(np.eye(4) / 4.0)
    assert np.allclose(vals, 0.25, atol=1e-14)


def test_hermitian_eigenvalues_recover_known_spectrum():
    diag = np.array([1.5, 0.25, -0.5, -2.0])
    for _ in range(10):
        q, _ = np.linalg.qr(random_complex((4, 4)))
        m = q @ np.diag(diag) @ q.conj().T
        vals = hermitian_eigenvalues(m)
        assert np.max(np.abs(vals - diag)) < 1e-9
        assert abs(vals.sum() - np.trace(m).real) < 1e-10


def test_hermitian_eigenvalues_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-6
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues(m)


@pytest.mark.parametrize(
    ("bad", "message"),
    [
        ([[1, 2], [3]], "expected a 4x4 matrix, got a non-numeric or ragged list"),
        ("abc", "expected a 4x4 matrix, got a non-numeric or ragged str"),
    ],
)
def test_ragged_or_non_numeric_input_raises_domain_error(bad, message):
    for call in (lambda m: partial_trace(m, "first"), hermitian_eigenvalues):
        with pytest.raises(DomainError) as info:
            call(bad)
        assert str(info.value) == message


def test_integer_past_the_float_range_raises_domain_error():
    huge = [[10**400] * 4] * 4
    for call in (DensityMatrix4, lambda m: partial_trace(m, "first")):
        with pytest.raises(DomainError) as info:
            call(huge)
        assert str(info.value) == "matrix entry too large to convert to a float"


def test_strided_views_are_accepted():
    m = random_complex((4, 4))
    h = m + m.conj().T
    for view in (h.T, h[::-1, ::-1], np.asfortranarray(h)):
        dense = np.ascontiguousarray(view)
        assert np.allclose(hermitian_eigenvalues(view), hermitian_eigenvalues(dense))
        assert np.array_equal(partial_trace(view, "second"), partial_trace(dense, "second"))
    x = density_matrix(channel_params("xi-"), 1.1).matrix
    for view in (x.T, x[::-1, ::-1], np.asfortranarray(x)):
        rho = DensityMatrix4(view)
        assert np.array_equal(rho.matrix, np.ascontiguousarray(view))


def test_production_state_is_rank_two():
    rho = density_matrix(channel_params("lambda"), np.pi / 2.0)
    vals = hermitian_eigenvalues(rho.matrix)
    assert vals[0] > 0.0 and vals[1] > 0.0
    assert abs(vals[2]) < 1e-9 and abs(vals[3]) < 1e-9
